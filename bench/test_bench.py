"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

The generators' claims are checked by brute force from the generated
numbers alone; the tracing and output-check tests run symbio itself.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402


def small_table_cases(seed):
    rng = random.Random(seed)
    return [
        scenarios.table_case(rng, n, kind, f"{n}-{kind}")
        for n in (3, 4, 5)
        for kind in ("convex", "dip", "empty")
    ]


def doc_values(case):
    """v(S) = T(S) - O(S), read back from the scenario document."""
    names = case.doc["agents"]
    values = {frozenset(): Fraction(0)}
    values.update({frozenset([a]): Fraction(0) for a in names})
    t, o = case.doc["tables"]["T"], case.doc["tables"]["O"]
    for key in t:
        values[frozenset(key.split(","))] = Fraction(t[key]) - Fraction(o[key])
    return names, values


@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_same_seed_gives_identical_files(workload):
    first = [c.text() for c in scenarios.make_batch(workload, 5, 0)]
    again = [c.text() for c in scenarios.make_batch(workload, 5, 0)]
    other = [c.text() for c in scenarios.make_batch(workload, 6, 0)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("seed", range(4))
def test_table_claims_hold_by_brute_force(seed):
    for case in small_table_cases(seed):
        names, v = doc_values(case)
        full = frozenset(names)
        mask = {s: sum(1 << names.index(a) for a in s) for s in v}
        assert all(case.values[mask[s]] == v[s] for s in v)
        pairs = [(a, b) for a in v for b in v if a and b and not a & b]
        assert (case.kind == "convex") == all(v[a | b] >= v[a] + v[b] for a, b in pairs)
        if case.witness is not None:
            x = dict(zip(names, case.witness))
            assert sum(x.values()) == v[full]
            assert all(sum(x[a] for a in s) >= v[s] for s in v)
        else:
            s = frozenset(a for a in names if case.split >> names.index(a) & 1)
            assert v[full] < v[s] + v[full - s]
        if case.shapley is not None and len(names) <= 5:
            totals = dict.fromkeys(names, Fraction(0))
            orders = list(permutations(names))
            for order in orders:
                seen = frozenset()
                for a in order:
                    totals[a] += v[seen | {a}] - v[seen]
                    seen |= {a}
            assert tuple(totals[a] / len(orders) for a in names) == case.shapley


def grid_pair_value(doc, a, b):
    """Best saving of a two-firm coalition by integer grid search."""
    ex = doc["exchange"]
    streams = [s for s in ex["streams"] if s["firm"] in (a, b)]
    haul = {(t["from"], t["to"], t["resource"]): t["cost"] for t in ex["transport"]}
    fixed = {(t["from"], t["to"]): t["cost"] for t in ex["transaction"]}
    routes = [
        (o, d)
        for o in streams if o["kind"] == "offer"
        for d in streams if d["kind"] == "demand"
        if o["resource"] == d["resource"] and o["firm"] != d["firm"]
    ]
    best = 0
    for qty in product(*(range(min(o["quantity"], d["quantity"]) + 1) for o, d in routes)):
        saving = 0
        for (o, d), q in zip(routes, qty):
            if q:
                unit = (o["unit_discharge_cost"] + d["unit_purchase_cost"]
                        - d["unit_treatment_cost"] - haul[(o["firm"], d["firm"], o["resource"])])
                saving += unit * q - fixed[(o["firm"], d["firm"])]
        best = max(best, saving)
    return best


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_exchange_pair_values_match_grid_search(kind):
    rng = random.Random(kind)
    for n in (3, 4):
        case = scenarios.exchange_case(rng, n, kind, "x")
        names = case.doc["agents"]
        for m, want in case.pair_values.items():
            a, b = (names[i] for i in range(n) if m >> i & 1)
            assert grid_pair_value(case.doc, a, b) == want


def run_cli(cases, tmp_path, tracer=None):
    from symbio.cli import main

    clock = run.SpeedClock()
    outputs = []
    for case in cases:
        path = tmp_path / f"{case.name}.json"
        path.write_text(case.text())
        code, text, _, _ = run.invoke(main, case, path, clock, tracer)
        assert code == 0
        assert checks.check(case, text) == []
        outputs.append(text)
    return outputs


def quick_cases():
    rng = random.Random(0)
    return [
        scenarios.table_case(rng, 4, "convex", "t4"),
        scenarios.table_case(rng, 4, "empty", "t4e"),
        scenarios.enforce_case(rng, 6, "halves", "e6"),
        scenarios.enforce_case(rng, 5, "grand", "e5"),
        scenarios.exchange_case(rng, 3, "dense", "x3"),
    ]


def test_tracing_leaves_stdout_unchanged(tmp_path, monkeypatch):
    gone = ("symbio.games", "gone_in_a_later_change", True)
    monkeypatch.setattr(spans, "LAYERS", spans.LAYERS + [gone])
    plain = run_cli(quick_cases(), tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_cli(quick_cases(), tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.absent == ["games.gone_in_a_later_change"]
    assert tracer.calls["lp.solve_lp"] > 0 and tracer.calls["games.check_superadditive"] > 0
    for name, start, end, parent in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]
    from symbio import games

    assert not hasattr(games.check_superadditive, "__wrapped__")


def test_checks_reject_a_wrong_report(tmp_path):
    case = quick_cases()[0]
    (text,) = run_cli([case], tmp_path)
    wrong = text.replace("superadditive: yes", "superadditive: no", 1)
    assert checks.check(case, wrong)
    lines = text.split("\n")
    lines[3] = lines[3].rsplit(" = ", 1)[0] + " = 0"
    assert checks.check(case, "\n".join(lines))


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.WORKLOADS)


def test_reference_covers_every_default_seed_case():
    ref = json.loads(run.REFERENCE.read_text())
    assert ref["seed"] == run.DEFAULT_SEED
    for workload in scenarios.WORKLOADS:
        names = {
            case.name
            for index in range(ref["passes"])
            for case in scenarios.make_batch(workload, run.DEFAULT_SEED, index)
        }
        assert names == set(ref["digests"][workload])


def test_tail_percentile_keeps_ten_samples_above_it():
    assert run.tail_rank(87) == (88, 77)
    assert run.tail_rank(1000) == (99, 990)
    with pytest.raises(ValueError):
        run.tail_rank(10)
