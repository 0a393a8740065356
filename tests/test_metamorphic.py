"""Metamorphic relations of `symbio analyze` and `symbio enforce`.

Where no independent oracle reaches (the route-subset game stops near six
firms, permutation Shapley near eight agents), the cost model's own
symmetries still pin the answer exactly:

(a) a roster permutation. Reordering `agents` and shuffling every exchange
    list, or every table's entries and the names inside each table key and
    policy group, renames nothing, so each coalition's value (read as a set
    of names), each name's Shapley share and the superadditive, core and
    implementable verdicts stay as they were, and the core witness, which
    may move to another vertex, still passes the core constraints. Under
    `enforce` each incentive rule, each group's subsidy or coordinated
    value and verdict, each coordinated value and each coordinated share
    stay as they were too;
(b) money scaling. Every cost times k, and no quantity, multiplies every
    coalition's saving by k, so values, shares and the core witness scale
    by exactly k: Bland's rule makes the same pivots on a positive multiple
    of the LP's data. With `--epsilon` times k as well, every number of an
    `enforce` report scales by exactly k.

Every run goes through `cli.main` in JSON, so the reader, the search, the
reports and their roster-order keys are all inside the relation. A
permuted table's keys are spelt out of roster order, so the table reader's
file-order walk runs; a scaled one keeps its keys, and is read straight in
mask order.
"""

import json
import random
from collections import Counter
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


def _report(tmp_path, capsys, doc, *argv) -> dict:
    """The JSON report of `symbio argv` on doc, amounts written as exact
    strings; stderr holds nothing but the warning of a game that an analyze
    report finds not superadditive."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc, default=str), encoding="utf-8")
    code = main([argv[0], str(path), *argv[1:], "--format", "json"])
    out = capsys.readouterr()
    report = json.loads(out.out)
    warning = "warning: game is not superadditive" if report.get("superadditive") is False else ""
    assert code == 0 and out.err.startswith(warning) and bool(out.err) == bool(warning)
    return report


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
    base = _read(_report(tmp_path, capsys, doc, "analyze"))
    assert base["verdicts"][0] and base["witness"] and _in_core(base, doc["agents"])
    rng = random.Random(name)
    for _ in range(3):
        shuffled = _permuted(doc, rng)
        facts = _read(_report(tmp_path, capsys, shuffled, "analyze"))
        for field in "values", "shapley", "verdicts":
            assert facts[field] == base[field], (shuffled["agents"], field)
        assert _in_core(facts, shuffled["agents"]), shuffled["agents"]
    scaled = _read(_report(tmp_path, capsys, _scaled(doc, K), "analyze"))
    for field in "values", "shapley", "witness":
        assert scaled[field] == {key: K * v for key, v in base[field].items()}, field
    assert scaled["verdicts"] == base["verdicts"]


def _table_case(name):
    """(table document, enforce options): a tests/data file, or a draw
    seeded by its name kind-n, kind a table_case kind (convex, dip or empty)
    of the benchmark's generator or an enforce_case policy (grand or
    halves), whose options give its margin."""
    if name.endswith(".json"):
        return json.loads((DATA / name).read_text(encoding="utf-8")), []
    kind, n = name.split("-")
    scenarios = bench_scenarios()
    if kind in ("grand", "halves"):
        case = scenarios.enforce_case(random.Random(name), int(n), kind, name)
        return json.loads(json.dumps(case.doc, default=str)), case.argv
    return json.loads(json.dumps(scenarios.table_case(random.Random(name), int(n), kind,
                                                      name).doc, default=str)), []


def _permuted_tables(doc, rng):
    """doc with `agents` reordered, each table's entries shuffled and the
    names inside each key, and each policy list and group, reordered."""
    doc = json.loads(json.dumps(doc))
    rng.shuffle(doc["agents"])
    for x in "T", "O":
        entries = list(doc["tables"][x].items())
        rng.shuffle(entries)
        doc["tables"][x] = {",".join(rng.sample(key.split(","), key.count(",") + 1)): value
                            for key, value in entries}
    for groups in doc.get("policy", {}).values():
        rng.shuffle(groups)
        for group in groups:
            rng.shuffle(group)
    return doc


def _scaled_tables(doc, k):
    """doc with every T and O value times k, keys as written."""
    doc = json.loads(json.dumps(doc))
    for x in "T", "O":
        doc["tables"][x] = {key: str(Fraction(v) * k) for key, v in doc["tables"][x].items()}
    return doc


def _names(key) -> frozenset:
    return frozenset(key.split(","))


def _read_enforce(report) -> dict:
    """The enforce report as exact numbers, each keyed by names: the rules
    as a multiset of (positive, negative, value), the group verdicts by
    label and group, the coordinated values by name set and the shares by
    name."""
    groups = {}
    for v in report["group_verdicts"]:
        amount = v["subsidy"] if v["label"] == "promoted" else v["coordinated_value"]
        verdict = v["implementable"] if v["label"] == "promoted" else v["blocked"]
        groups[v["label"], _names(v["group"])] = (Fraction(amount), verdict)
    return {
        "epsilon": Fraction(report["epsilon"]),
        "rules": Counter((frozenset(r["positive"]), frozenset(r["negative"]), Fraction(r["value"]))
                         for r in report["incentive_rules"]),
        "groups": groups,
        "values": {_names(key): Fraction(v) for key, v in report["coordinated_values"].items()},
        "shapley": {name: Fraction(v) for name, v in report["coordinated_shapley"].items()},
    }


def _times(facts, k) -> dict:
    """_read_enforce's facts with every number times k."""
    return {
        "epsilon": facts["epsilon"] * k,
        "rules": Counter({(p, q, v * k): c for (p, q, v), c in facts["rules"].items()}),
        "groups": {g: (amount * k, verdict) for g, (amount, verdict) in facts["groups"].items()},
        "values": {s: v * k for s, v in facts["values"].items()},
        "shapley": {name: v * k for name, v in facts["shapley"].items()},
    }


@pytest.mark.parametrize("name", ["g3.json", "g3_prime.json", "g3_split.json", "convex-4",
                                  "dip-5", "empty-6", "convex-7", "dip-8", "grand-4", "grand-6",
                                  "grand-8", "halves-6", "halves-7", "halves-8"])
def test_table_reports_keep_roster_symmetry_and_money_scale(tmp_path, capsys, name):
    """Relations (a) and (b) on `analyze`, and on `enforce` for a file with
    a policy. The halves policy needs n >= 6: below that, its pair inside
    the first half is the half itself, a group labelled twice."""
    doc, options = _table_case(name)
    base = _read(_report(tmp_path, capsys, doc, "analyze"))
    assert (base["witness"] != {}) == base["verdicts"][1]
    assert not base["witness"] or _in_core(base, doc["agents"])
    policy = "policy" in doc
    if policy:
        enforced = _read_enforce(_report(tmp_path, capsys, doc, "enforce", *options))
    rng = random.Random(name)
    for _ in range(3):
        shuffled = _permuted_tables(doc, rng)
        facts = _read(_report(tmp_path, capsys, shuffled, "analyze"))
        for field in "values", "shapley", "verdicts":
            assert facts[field] == base[field], (shuffled["agents"], field)
        assert not facts["witness"] or _in_core(facts, shuffled["agents"]), shuffled["agents"]
        if policy:
            assert _read_enforce(_report(tmp_path, capsys, shuffled, "enforce", *options)) \
                == enforced, shuffled["agents"]
    scaled_doc = _scaled_tables(doc, K)
    scaled = _read(_report(tmp_path, capsys, scaled_doc, "analyze"))
    for field in "values", "shapley", "witness":
        assert scaled[field] == {key: K * v for key, v in base[field].items()}, field
    assert scaled["verdicts"] == base["verdicts"]
    if policy:
        epsilon = Fraction(options[1] if options else 1) * K
        assert _read_enforce(_report(tmp_path, capsys, scaled_doc, "enforce", "--epsilon",
                                     str(epsilon))) == _times(enforced, K)
