"""Metamorphic relations of `symbio analyze` on exchange files.

Where no independent oracle reaches (the route-subset game stops near six
firms), the cost model's own symmetries still pin the answer exactly:

(a) a roster permutation. Reordering `agents` and shuffling every exchange
    list renames nothing, so each coalition's value (read as a set of
    names), each name's Shapley share and the superadditive, core and
    implementable verdicts stay as they were, and the core witness, which
    may move to another vertex, still passes the core constraints;
(b) money scaling. Every cost times k, and no quantity, multiplies every
    coalition's saving by k, so values, shares and the core witness scale
    by exactly k: Bland's rule makes the same pivots on a positive multiple
    of the LP's data.

Every run goes through `cli.main` in JSON, so the reader, the search, the
reports and their roster-order keys are all inside the relation.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from symbio.cli import main
from symbio.exchange import STREAM_COSTS

from helpers import bench_scenarios, random_scenario

DATA = Path(__file__).parent / "data"
K = Fraction(7, 3)
COSTS = ("unit_discharge_cost", "unit_purchase_cost", "unit_treatment_cost", "cost")


def _case(name):
    """An exchange document: a tests/data file, or a draw seeded by its
    name kind-n, kind "sparse" or "dense" for the benchmark's generator and
    "random" for helpers.random_scenario of one resource, whose firms post
    one or two streams, so one route may have several links."""
    if name.endswith(".json"):
        return json.loads((DATA / name).read_text(encoding="utf-8"), parse_float=Fraction)
    kind, n = name.split("-")
    if kind != "random":
        return bench_scenarios().exchange_case(random.Random(name), int(n), kind, name).doc
    scenario = random_scenario(random.Random(name), int(n), ("r",), denominators=range(1, 5))
    names = [f"F{i}" for i in range(scenario.n_agents)]
    return {"agents": names, "exchange": {
        "streams": [{"firm": names[s.firm], "kind": s.kind, "resource": s.resource,
                     "quantity": s.quantity, **{f: getattr(s, f) for f in STREAM_COSTS[s.kind]}}
                    for s in scenario.streams],
        "transport": [{"from": names[a], "to": names[b], "resource": r, "cost": cost}
                      for (a, b, r), cost in scenario.transport.items()],
        "transaction": [{"from": names[a], "to": names[b], "cost": cost}
                        for (a, b), cost in scenario.transaction.items()],
    }}


def _analyze(tmp_path, capsys, doc) -> dict:
    """The JSON `analyze` report of doc, amounts written as exact strings."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc, default=str), encoding="utf-8")
    code = main(["analyze", str(path), "--format", "json"])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    return json.loads(out.out)


def _read(report) -> dict:
    """The report as exact numbers: values by name set, shares and witness by name."""
    witness = report["core"]["witness"] or {}
    return {
        "values": {frozenset(key.split(",")): Fraction(v) for key, v in report["values"].items()},
        "shapley": {name: Fraction(v) for name, v in report["shapley"].items()},
        "witness": {name: Fraction(v) for name, v in witness.items()},
        "verdicts": (report["superadditive"], report["core"]["nonempty"],
                     report["implementable"]),
    }


def _in_core(facts, names) -> bool:
    """Whether the witness pays the grand coalition its value and every
    other coalition at least its own (0 for a firm alone)."""
    x, values = facts["witness"], facts["values"]
    if sum(x.values()) != values.get(frozenset(names), 0):
        return False
    for mask in range(1, (1 << len(names)) - 1):
        members = frozenset(name for i, name in enumerate(names) if mask >> i & 1)
        if sum(x[name] for name in members) < values.get(members, 0):
            return False
    return True


def _scaled(doc, k):
    """doc with every cost, and no quantity, times k."""
    doc = json.loads(json.dumps(doc, default=str))
    section = doc["exchange"]
    for entry in section["streams"] + section["transport"] + section["transaction"]:
        for field in COSTS:
            if field in entry:
                entry[field] = str(Fraction(entry[field]) * k)
    return doc


def _permuted(doc, rng):
    """doc with `agents` reordered and every exchange list shuffled."""
    doc = json.loads(json.dumps(doc, default=str))
    rng.shuffle(doc["agents"])
    for entries in doc["exchange"].values():
        rng.shuffle(entries)
    return doc


@pytest.mark.parametrize("name", ["w.json", "x4.json", "sparse-5", "sparse-6", "sparse-7",
                                  "dense-3", "dense-4", "dense-5", "random-5", "random-6",
                                  "random-7"])
def test_exchange_reports_keep_roster_symmetry_and_money_scale(tmp_path, capsys, name):
    doc = _case(name)
    base = _read(_analyze(tmp_path, capsys, doc))
    assert base["witness"] and _in_core(base, doc["agents"])
    rng = random.Random(name)
    for _ in range(3):
        shuffled = _permuted(doc, rng)
        facts = _read(_analyze(tmp_path, capsys, shuffled))
        for field in "values", "shapley", "verdicts":
            assert facts[field] == base[field], (shuffled["agents"], field)
        assert _in_core(facts, shuffled["agents"]), shuffled["agents"]
    scaled = _read(_analyze(tmp_path, capsys, _scaled(doc, K)))
    for field in "values", "shapley", "witness":
        assert scaled[field] == {key: K * v for key, v in base[field].items()}, field
    assert scaled["verdicts"] == base["verdicts"]
