import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest

from symbio import lp
from symbio.lp import LPResult, solve_lp

from helpers import fraction_solve_lp, lp_fractions, mirrored_pairs, traced_oracle, traced_pivots


def test_basic_maximization():
    r = lp_fractions(solve_lp([3, 2], a_ub=[[1, 1], [1, 0]], b_ub=[4, 2]))
    assert r.status == "optimal"
    assert r.x == (2, 2)
    assert r.objective == 10


def test_infeasible():
    r = solve_lp([0], a_ub=[[1]], b_ub=[-1])
    assert r.status == "infeasible"


def test_negative_rhs_feasible():
    # x >= 1 written as -x <= -1
    r = lp_fractions(solve_lp([0], a_ub=[[-1]], b_ub=[-1]))
    assert r == LPResult("optimal", (1,), 0)


def test_unbounded():
    assert solve_lp([1]).status == "unbounded"


def test_equalities():
    r = lp_fractions(solve_lp([0, 0], a_eq=[[1, 1], [1, -1]], b_eq=[3, 1]))
    assert r.status == "optimal"
    assert r.x == (2, 1)


def test_exact_fractional_boundary():
    # the point is exactly 1/3; a float solver could land on either side
    r = lp_fractions(solve_lp([0], a_ub=[[-3]], b_ub=[-1]))  # x >= 1/3, times 3
    assert r.x == (Fraction(1, 3),)
    r = lp_fractions(solve_lp([1], a_ub=[[3]], b_ub=[1]))
    assert r.x == (Fraction(1, 3),)
    assert r.objective == Fraction(1, 3)


def test_redundant_equality_rows():
    r = lp_fractions(solve_lp([0, 0], a_eq=[[1, 1], [2, 2]], b_eq=[3, 6]))
    assert r.status == "optimal"
    assert sum(r.x) == 3


def test_contradictory_equalities():
    r = solve_lp([0, 0], a_eq=[[1, 1], [1, 1]], b_eq=[3, 4])
    assert r.status == "infeasible"


def test_degenerate_single_point():
    r = lp_fractions(solve_lp([0, 0], a_eq=[[1, 0], [0, 1]], b_eq=[0, 0], a_ub=[[1, 1]], b_ub=[0]))
    assert r.status == "optimal"
    assert r.x == (0, 0)


def test_transportation_needs_lp_not_greedy():
    # gains [[5,4],[4,0]]; greedy by best single saving gives 50, optimum 80
    r = solve_lp(
        [5, 4, 4, 0],
        a_ub=[[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]],
        b_ub=[10, 10, 10, 10],
    )
    assert lp_fractions(r).objective == 80


def test_feasibility_lp_takes_no_objective():
    with pytest.raises(ValueError, match="c = 0"):
        solve_lp([1], a_ub=[[-1]], b_ub=[-1])
    with pytest.raises(ValueError, match="c = 0"):
        solve_lp([0, 1], a_eq=[[1, 1]], b_eq=[1])
    # the same rows with b >= 0 and no equality row: an optimization LP
    assert lp_fractions(solve_lp([-1], a_ub=[[-1]], b_ub=[0])) == LPResult("optimal", (0,), 0)


@pytest.mark.parametrize("bad", [0.1, "1/3", Decimal("0.1"), True, Fraction(1, 3)])
@pytest.mark.parametrize("where", ["c", "a_ub", "b_eq", "int_row"])
def test_only_ints_and_fractions(bad, where):
    # only ints: a float would enter as its binary value (0.1 is
    # 3602879701896397/2^55), and rational data enters as rows scaled by a
    # positive lcm (_int_lp), so a Fraction is refused as well
    args = {"c": [0], "a_ub": [[1]], "b_ub": [1], "a_eq": [[1]], "b_eq": [1]}
    if where == "int_row":  # one bad cell among ints, past the all-int check
        args.update(c=[0, 0, 0], a_ub=[[1, bad, 2]], a_eq=[[1, 1, 1]])
    else:
        args[where] = [[bad]] if where.startswith("a_") else [bad]
    with pytest.raises(TypeError, match=type(bad).__name__):
        solve_lp(**args)


@pytest.mark.parametrize("form", ["a_ub", "a_eq"])
def test_row_width_must_match_objective(form):
    rows = {form: [[1, 2]], "b" + form[1:]: [1]}
    with pytest.raises(ValueError) as e:
        solve_lp([0], **rows)
    assert str(e.value) == "constraint width does not match objective"


# ---------------------------------------------------------------- edge cases


def test_drive_out_pivot_on_negative_entry():
    # Phase one leaves an artificial basic at level zero whose row's first
    # nonzero real entry is negative. The oracle's drive-out pivots on that
    # entry; symbio stops after phase one, at the same point.
    args = ([0, 0], (), (), [[2, 2], [0, -1]], [1, 0])
    r, pivots = traced_pivots(lp, lambda: solve_lp(*args))
    expected, oracle_pivots, drive_outs = traced_oracle(lambda: fraction_solve_lp(*args))
    assert lp_fractions(r) == lp_fractions(expected) == LPResult(
        "optimal", (Fraction(1, 2), Fraction(0)), Fraction(0))
    assert drive_outs == 1 and oracle_pivots[-1][3] < 0
    assert [p[:-1] for p in pivots] == [p[:-1] for p in oracle_pivots[:-1]]
    assert all(element > 0 for *_, element, _ in pivots)


# maximize is the oracle's sense; symbio always maximizes, so it is given
# -c where the oracle minimizes c.x, and its objective is minus the oracle's
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
    assert lp_fractions(fraction_solve_lp(c, maximize=maximize)) == expected
    sense = 1 if maximize else -1
    scale = lcm(*(Fraction(v).denominator for v in c))
    r = lp_fractions(solve_lp([int(sense * scale * v) for v in c]))
    assert (r.status, r.x) == (expected.status, expected.x)
    assert r.objective == (None if expected.objective is None
                           else sense * scale * expected.objective)


# kwargs are the oracle's: maximize for an optimization LP
@pytest.mark.parametrize(
    "args, kwargs",
    [
        (([3, 2], [[1, 1], [1, 0]], [4, 2]), {"maximize": True}),
        (([0, 0], (), (), [[1, 1], [1, -1]], [3, 1]), {}),
        (([0, 0], [[-2, -4]], [-6]), {}),
        (([0, 0], [[-3, 0], [0, -6]], [-2, -3]), {}),
        (([6, 0], [[3, 0]], [2]), {"maximize": True}),
        (([1], [[1]], [0]), {"maximize": True}),
    ],
)
def test_results_are_fractions_in_lowest_terms(args, kwargs):
    # values come as the dictionary's (rhs, scale) int pairs, not reduced:
    # the fractions equal the oracle's, whose pairs are in lowest terms
    r = solve_lp(*args)
    expected = fraction_solve_lp(*args, **kwargs)
    assert r.status == "optimal"
    for (p, q), (a, b) in zip((*r.x, r.objective), (*expected.x, expected.objective), strict=True):
        assert type(p) is type(q) is int and q > 0
        assert gcd(a, b) == 1 and b > 0 and p * b == a * q


# ------------------------------------------------------- differential oracle


def _int_row(values) -> list:
    """values times the lcm of their denominators, as ints: a positive
    scale, so a row keeps its constraint and c its optimal points."""
    scale = lcm(*(Fraction(v).denominator for v in values))
    return [int(v * scale) for v in values]


def _int_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """An LP of rationals as solve_lp takes it: c, and each constraint row
    with its right-hand side, scaled by its own lcm (_int_row)."""
    ub = [_int_row([*a, b]) for a, b in zip(a_ub, b_ub)]
    eq = [_int_row([*a, b]) for a, b in zip(a_eq, b_eq)]
    return (_int_row(c), [r[:-1] for r in ub], [r[-1] for r in ub],
            [r[:-1] for r in eq], [r[-1] for r in eq])


def _rational(rng, lo=-6, hi=6):
    return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 3, 7]))


def _random_lp(rng, feasibility):
    """A small LP in one of solve_lp's two forms, and the oracle's kwargs.

    Rows have mixed-sign coefficients with small denominators. A
    feasibility LP (c = 0) is mostly feasible by construction around a
    point x0 >= 0, so its right-hand sides come out negative about half the
    time; it has at least one equality row or negative right-hand side, and
    some instances repeat an equality row (scaled, consistently or not) or
    get random right-hand sides. An optimization LP has only <= rows with
    right-hand sides >= 0, zero in some; some cap every variable so the
    optimum is bounded.
    """
    n = rng.randint(1, 5)

    def row():
        return [_rational(rng) if rng.random() < 0.7 else 0 for _ in range(n)]

    a_ub = [row() for _ in range(rng.randint(0, 5))]
    if not feasibility:
        b_ub = [rng.choice([0, _rational(rng, 0, 6)]) for _ in a_ub]
        if rng.random() < 0.5:
            for j in range(n):
                a_ub.append([int(i == j) for i in range(n)])
                b_ub.append(_rational(rng, 0, 8))
        c = [_rational(rng) for _ in range(n)]
        return (c, a_ub, b_ub), {"maximize": True}

    x0 = [_rational(rng, 0, 4) if rng.random() < 0.7 else Fraction(0) for _ in range(n)]

    def at_x0(coeffs):
        return sum(a * x for a, x in zip(coeffs, x0))

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
    if not a_eq and all(b >= 0 for b in b_ub):
        a_eq.append(row())
        b_eq.append(at_x0(a_eq[-1]))
    return ([0] * n, a_ub, b_ub, a_eq, b_eq), {}


def test_matches_fraction_tableau_on_random_lps():
    """Same results, and the same pivots: every (row, entering column,
    leaving column, pivot element) in order, up to where the oracle's
    two-phase simplex goes on to drive zero-level artificials out of a
    feasibility LP's basis. Both solve the same int rows (_int_lp)."""
    rng = random.Random(20180419)
    seen = Counter()
    paths = Counter()
    for k in range(1500):
        feasibility = k % 2 == 0
        args, kwargs = _random_lp(rng, feasibility)
        args = _int_lp(*args)
        r, pivots = traced_pivots(lp, lambda: solve_lp(*args))
        expected, oracle_pivots, drive_outs = traced_oracle(lambda: fraction_solve_lp(*args, **kwargs))
        assert lp_fractions(r) == lp_fractions(expected), (args, kwargs)
        assert [p[:-1] for p in pivots] == [p[:-1] for p in oracle_pivots[: len(pivots)]], args
        assert len(oracle_pivots) == len(pivots) + drive_outs, args
        mirrored = mirrored_pairs(*args[:3])
        for _, col, _, element, _ in pivots:
            # an artificial read off its slack column re-enters the basis,
            # so Bland's phase one still needs those columns after they
            # leave it
            paths["artificial enters through its slack"] += col in mirrored
            assert element > 0
        paths["oracle drive-out"] += drive_outs
        seen[r.status, feasibility] += 1
    # each form gives both its verdicts
    assert set(seen) == {("optimal", True), ("infeasible", True), ("optimal", False), ("unbounded", False)}
    assert min(seen.values()) >= 50, seen
    assert len(paths) == 2 and min(paths.values()) > 0, paths
