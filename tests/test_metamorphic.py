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
    `enforce` report scales by exactly k;
(c) a null agent. A firm with no streams, or a table agent d whose every
    coalition costs, in T and in O alike, what it costs without d plus d's
    own cost, so that v(S + d) = v(S), gets a Shapley share of 0, and every
    other value, share and verdict stays as it was;
(d) additivity on tables. The T and O tables of v and w summed by name
    set are the tables of v + w, whose `shapley` shares are the sums of
    v's and w's by name.

Every run goes through `cli.main` in JSON, so the reader, the search, the
reports and their roster-order keys are all inside the relation. A
permuted table's keys, and a null agent's keys unless it is first on the
roster, are spelt out of roster order, so the table reader's file-order
walk runs; a scaled one keeps its keys, and is read straight in mask order.
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


def _report(tmp_path, capsys, doc, *argv, superadditive=True) -> dict:
    """The JSON report of `symbio argv` on doc, amounts written as exact
    strings; stderr holds nothing but the warning of a game that is not
    superadditive, as an analyze report finds or else as `superadditive`
    says."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc, default=str), encoding="utf-8")
    code = main([argv[0], str(path), *argv[1:], "--format", "json"])
    out = capsys.readouterr()
    report = json.loads(out.out)
    warning = "" if report.get("superadditive", superadditive) else \
        "warning: game is not superadditive"
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


#: The null agent's name, on no roster the tests draw.
NULL = "Z"


def _with_null_exchange_firm(doc, place):
    """doc with NULL, a firm with no streams and no routes, at roster place."""
    doc = json.loads(json.dumps(doc, default=str))
    doc["agents"].insert(place, NULL)
    return doc


def _with_null_table_agent(doc, place, own):
    """doc with NULL at roster place, costing `own` alone: T(S + NULL) =
    T(S) + own and O(S + NULL) = O(S) + own for every S of two or more
    agents, and T = O = own for a pair of NULL and one other, so v(S + NULL)
    = v(S). Its keys name NULL first, out of roster order unless place is 0."""
    doc = json.loads(json.dumps(doc))
    doc.pop("policy", None)
    for x in "T", "O":
        table = doc["tables"][x]
        extra = {f"{NULL},{key}": str(Fraction(v) + own) for key, v in table.items()}
        table.update(extra)
        table.update({f"{NULL},{name}": str(own) for name in doc["agents"]})
    doc["agents"].insert(place, NULL)
    return doc


def _null_agent_keeps(base, facts, agents):
    """Relation (c): facts, of the roster `agents` holding NULL, are base's
    with each value also at its set plus NULL, 0 at each pair of NULL and
    one other, NULL's share 0, the same verdicts, and a witness in the core."""
    values = dict(base["values"])
    values.update({s | {NULL}: v for s, v in base["values"].items()})
    values.update({frozenset((name, NULL)): 0 for name in base["shapley"]})
    assert facts["values"] == values
    assert facts["shapley"] == {**base["shapley"], NULL: 0}
    assert facts["verdicts"] == base["verdicts"]
    assert not facts["witness"] or _in_core(facts, agents)


@pytest.mark.parametrize("name", ["w.json", "sparse-5", "dense-4"])
def test_exchange_null_firm_changes_nothing(tmp_path, capsys, name):
    doc = _case(name)
    base = _read(_report(tmp_path, capsys, doc, "analyze"))
    for place in 0, random.Random(name).randrange(1, len(doc["agents"]) + 1):
        extended = _with_null_exchange_firm(doc, place)
        facts = _read(_report(tmp_path, capsys, extended, "analyze"))
        _null_agent_keeps(base, facts, extended["agents"])


@pytest.mark.parametrize("name", ["g3.json", "g3_split.json", "convex-5", "dip-5", "empty-6",
                                  "halves-6"])
def test_table_null_agent_changes_nothing(tmp_path, capsys, name):
    """Relation (c) with NULL first on the roster, where its keys are in
    roster order and the table is read in mask order, and at a drawn later
    place, where they are not and it is walked in file order."""
    doc, _ = _table_case(name)
    base = _read(_report(tmp_path, capsys, doc, "analyze"))
    rng = random.Random(name)
    own = Fraction(rng.randrange(1, 100), rng.randrange(1, 5))
    for place in 0, rng.randrange(1, len(doc["agents"]) + 1):
        extended = _with_null_table_agent(doc, place, own)
        facts = _read(_report(tmp_path, capsys, extended, "analyze"))
        _null_agent_keeps(base, facts, extended["agents"])


def _shares(tmp_path, capsys, doc) -> "tuple[dict, Fraction]":
    """The `shapley` report's shares by name and total, checked against the
    analyze report's shares of the same file."""
    analyzed = _read(_report(tmp_path, capsys, doc, "analyze"))
    report = _report(tmp_path, capsys, doc, "shapley", superadditive=analyzed["verdicts"][0])
    shares = {name: Fraction(v) for name, v in report["shapley"].items()}
    assert shares == analyzed["shapley"]
    return shares, Fraction(report["total"])


@pytest.mark.parametrize("first,second", [("g3.json", "g3_split.json"), ("convex-5", "dip-5"),
                                          ("empty-6", "halves-6")])
def test_table_shapley_is_additive(tmp_path, capsys, first, second):
    """Relation (d): w is permuted (relation (a)'s _permuted_tables), and
    v + w keeps v's roster and w's keys, so v is read in mask order and w
    and v + w are walked in file order."""
    v, _ = _table_case(first)
    w = _permuted_tables(_table_case(second)[0], random.Random(second))
    assert sorted(v["agents"]) == sorted(w["agents"])
    v_tables = {x: {_names(key): value for key, value in v["tables"][x].items()} for x in "TO"}
    both = {"agents": v["agents"], "tables": {
        x: {key: str(Fraction(value) + Fraction(v_tables[x][_names(key)]))
            for key, value in w["tables"][x].items()} for x in "TO"}}
    (v_shares, v_total), (w_shares, w_total), (shares, total) = (
        _shares(tmp_path, capsys, doc) for doc in (v, w, both))
    assert shares == {name: v_shares[name] + w_shares[name] for name in v["agents"]}
    assert total == v_total + w_total
