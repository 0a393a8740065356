import random
from collections import Counter
from dataclasses import astuple
from fractions import Fraction
from math import gcd

import pytest

from symbio import lp
from symbio.lp import LPResult, solve_lp

import helpers
from helpers import fraction_solve_lp, lp_entry, mirrored_pairs, traced_pivots


def test_basic_maximization():
    r = solve_lp([3, 2], a_ub=[[1, 1], [1, 0]], b_ub=[4, 2], maximize=True)
    assert r.status == "optimal"
    assert r.x == (2, 2)
    assert r.objective == 10


def test_infeasible():
    r = solve_lp([1], a_ub=[[1]], b_ub=[-1])
    assert r.status == "infeasible"


def test_negative_rhs_feasible():
    # x >= 1 written as -x <= -1
    r = solve_lp([1], a_ub=[[-1]], b_ub=[-1])
    assert r.status == "optimal"
    assert r.x == (1,)


def test_unbounded():
    assert solve_lp([1], maximize=True).status == "unbounded"


def test_equalities():
    r = solve_lp([0, 0], a_eq=[[1, 1], [1, -1]], b_eq=[3, 1])
    assert r.status == "optimal"
    assert r.x == (2, 1)


def test_exact_fractional_boundary():
    # optimum is exactly 1/3; a float solver could land on either side
    r = solve_lp([1], a_ub=[[-1]], b_ub=[Fraction(-1, 3)])
    assert r.x == (Fraction(1, 3),)
    assert r.objective == Fraction(1, 3)


def test_redundant_equality_rows():
    r = solve_lp([1, 1], a_eq=[[1, 1], [2, 2]], b_eq=[3, 6])
    assert r.status == "optimal"
    assert sum(r.x) == 3


def test_contradictory_equalities():
    r = solve_lp([0, 0], a_eq=[[1, 1], [1, 1]], b_eq=[3, 4])
    assert r.status == "infeasible"


def test_degenerate_single_point():
    r = solve_lp([0, 0], a_eq=[[1, 0], [0, 1]], b_eq=[0, 0], a_ub=[[1, 1]], b_ub=[0])
    assert r.status == "optimal"
    assert r.x == (0, 0)


def test_transportation_needs_lp_not_greedy():
    # gains [[5,4],[4,0]]; greedy by best single saving gives 50, optimum 80
    r = solve_lp(
        [5, 4, 4, 0],
        a_ub=[[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]],
        b_ub=[10, 10, 10, 10],
        maximize=True,
    )
    assert r.objective == 80


def test_minimize_matches_negated_maximize():
    a_ub = [[2, 1], [1, 3]]
    b_ub = [8, 9]
    lo = solve_lp([-1, -2], a_ub=a_ub, b_ub=b_ub)
    hi = solve_lp([1, 2], a_ub=a_ub, b_ub=b_ub, maximize=True)
    assert lo.objective == -hi.objective
    assert lo.x == hi.x


# ---------------------------------------------------------------- edge cases


def test_drive_out_pivot_on_negative_entry(monkeypatch):
    # Phase one leaves an artificial basic at level zero whose row's first
    # nonzero real entry is negative: the drive-out pivots on it and must
    # negate the row to keep its scale, its basic column's entry, positive.
    drive_out_elements = []
    pivot = lp._pivot

    def spy(tableau, basis, obj, row, col):
        if obj is None:
            drive_out_elements.append(lp_entry(tableau, basis, row, col))
        pivot(tableau, basis, obj, row, col)
        assert all(trow[-1] > 0 for trow in tableau)

    monkeypatch.setattr(lp, "_pivot", spy)
    args = ([-1, 1], (), (), [[2, 2], [0, -1]], [1, 0])
    r = solve_lp(*args)
    assert drive_out_elements and drive_out_elements[0] < 0
    assert r == LPResult("optimal", (Fraction(1, 2), Fraction(0)), Fraction(-1, 2))
    assert r == fraction_solve_lp(*args)


@pytest.mark.parametrize(
    "c, maximize, expected",
    [
        ([], False, LPResult("optimal", (), Fraction(0))),
        ([1, 2], False, LPResult("optimal", (Fraction(0), Fraction(0)), Fraction(0))),
        ([0, -1], False, LPResult("unbounded")),
        ([Fraction(1, 3)], True, LPResult("unbounded")),
        ([-1, 0], True, LPResult("optimal", (Fraction(0), Fraction(0)), Fraction(0))),
    ],
)
def test_no_constraints(c, maximize, expected):
    assert solve_lp(c, maximize=maximize) == expected
    assert fraction_solve_lp(c, maximize=maximize) == expected


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (([3, 2], [[1, 1], [1, 0]], [4, 2]), {"maximize": True}),
        (([0, 0], (), (), [[1, 1], [1, -1]], [3, 1]), {}),
        (([2, 4], [[-2, -4]], [-6]), {}),
        (([1, 1], [[-3, 0], [0, -6]], [-2, -3]), {}),
        (([6, 0], [[-3, 0]], [-2]), {}),
        (([1], [[1]], [0]), {"maximize": True}),
    ],
)
def test_results_are_fractions_in_lowest_terms(args, kwargs):
    r = solve_lp(*args, **kwargs)
    assert r.status == "optimal"
    for v in (*r.x, r.objective):
        assert type(v) is Fraction
        assert gcd(v.numerator, v.denominator) == 1
    assert r == fraction_solve_lp(*args, **kwargs)


# ------------------------------------------------------- differential oracle


def _rational(rng, lo=-6, hi=6):
    return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 3, 7]))


def _random_lp(rng):
    """A small LP; most are feasible by construction around a point x0 >= 0.

    Coefficients have mixed signs and small denominators, so right-hand
    sides come out negative about half the time. Some instances repeat an
    equality row (scaled, consistently or not) or get random right-hand
    sides; some cap every variable so the optimum is bounded.
    """
    n = rng.randint(1, 5)
    x0 = [_rational(rng, 0, 4) if rng.random() < 0.7 else Fraction(0) for _ in range(n)]

    def row():
        return [_rational(rng) if rng.random() < 0.7 else 0 for _ in range(n)]

    def at_x0(coeffs):
        return sum(a * x for a, x in zip(coeffs, x0))

    a_ub = [row() for _ in range(rng.randint(0, 5))]
    a_eq = [row() for _ in range(rng.randint(0, 3))]
    b_ub = [at_x0(r) + rng.choice([0, 0, _rational(rng, 0, 3)]) for r in a_ub]
    b_eq = [at_x0(r) for r in a_eq]
    if a_eq and rng.random() < 0.3:
        k = _rational(rng, 1, 3)
        a_eq.append([k * a for a in a_eq[0]])
        b_eq.append(k * b_eq[0] + rng.choice([0, 0, 1]))  # redundant or contradictory
    if rng.random() < 0.2:
        b_ub = [_rational(rng) for _ in b_ub]
        b_eq = [_rational(rng) for _ in b_eq]
    if rng.random() < 0.5:
        for j in range(n):
            a_ub.append([int(i == j) for i in range(n)])
            b_ub.append(_rational(rng, 0, 8))
    c = [_rational(rng) for _ in range(n)]
    return (c, a_ub, b_ub, a_eq, b_eq), {"maximize": rng.random() < 0.5}


def test_matches_fraction_tableau_on_random_lps():
    """Same results, and the same pivots: every (row, entering column,
    leaving column, pivot element) in order."""
    rng = random.Random(20180419)
    seen = Counter()
    paths = Counter()
    for _ in range(1500):
        args, kwargs = _random_lp(rng)
        r, pivots = traced_pivots(lp, lambda: solve_lp(*args, **kwargs))
        expected, oracle_pivots = traced_pivots(helpers, lambda: fraction_solve_lp(*args, **kwargs))
        assert (r.status, r.x, r.objective) == astuple(expected), (args, kwargs)
        assert [p[:-1] for p in pivots] == [p[:-1] for p in oracle_pivots], (args, kwargs)
        mirrored = mirrored_pairs(*args[:3])
        for _, col, leaving, element, _ in pivots:
            # an artificial read off its slack column re-enters the basis,
            # so Bland's phase one still needs those columns after they
            # leave it
            paths["artificial enters through its slack"] += col in mirrored
            # the drive-out makes an artificial's own unstored slack basic
            paths["drive-out onto an unstored slack"] += mirrored.get(leaving) == col
            paths["negative pivot element"] += element < 0
        seen[r.status, kwargs["maximize"]] += 1
    # every verdict is exercised in both senses
    statuses = ("optimal", "infeasible", "unbounded")
    assert set(seen) == {(s, m) for s in statuses for m in (False, True)}
    assert min(seen.values()) >= 50, seen
    # and every path of the dictionary's pivot
    assert len(paths) == 3 and min(paths.values()) > 0, paths
