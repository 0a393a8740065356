import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest

from symbio import lp
from symbio.lp import LPResult, solve_lp

from symbio.coordination import CoordinatedGame
from symbio.exchange import scenario_to_game
from symbio.solutions import core_nonempty

from helpers import (
    convex_game, fraction_solve_lp, lp_fractions, mirrored_pairs, random_game, random_net,
    random_scenario, reference_pivot, traced_oracle, traced_pivots,
)


def test_basic_maximization():
    r = lp_fractions(solve_lp([3, 2], a_ub=[[1, 1], [1, 0]], b_ub=[4, 2]))
    assert r.status == "optimal"
    assert r.x == (2, 2)
    assert r.objective == 10


def test_infeasible():
    # x >= 1 and x <= 0: the surplus row x - s <= 1 asks x >= 1, and the
    # optimum of (x - s) + x stops at 0, short of the right-hand sides' 1
    r = lp_fractions(solve_lp([2], a_ub=[[1], [1]], b_ub=[1, 0], surplus=1))
    assert r == LPResult("optimal", (0,), 0)


def test_dictionary_no_dual_step_can_clear_is_infeasible():
    # x >= 1 and x <= 0 as a dictionary on slacks s0, s1: s0 = -1 + x and
    # s1 = 0 - x. The dual step on s0's row makes x basic, x = 1 + s0, and
    # leaves s1 = -1 - s0, whose cells no column can enter to raise
    tableau = lp._Tableau([[-1, -1, 1], [1, 0, 1]], [0], [1, 2], [0, 0, 1], 1, 0)
    assert tableau.solve() == LPResult("infeasible")
    assert repr(LPResult("infeasible")) == (
        "LPResult(status='infeasible', x=None, objective=None, dual=None)")


def test_negative_rhs_feasible():
    # x >= 1 is not written -x <= -1 but as the surplus row x - s <= 1,
    # which the optimum of x - s meets
    with pytest.raises(ValueError, match="right-hand sides are >= 0"):
        solve_lp([0], a_ub=[[-1]], b_ub=[-1])
    r = lp_fractions(solve_lp([1], a_ub=[[1]], b_ub=[1], surplus=1))
    assert r == LPResult("optimal", (1,), 1)


def test_unbounded():
    assert solve_lp([1]).status == "unbounded"


def test_equalities():
    # x + y = 3 and x - y = 1: each a surplus row (>=) and a <= row, c the
    # rows' column sums; the optimum reaches the right-hand sides' 8
    r = lp_fractions(solve_lp([4, 0], a_ub=[[1, 1], [1, -1], [1, 1], [1, -1]],
                              b_ub=[3, 1, 3, 1], surplus=2))
    assert r == LPResult("optimal", (2, 1), 8)


def test_exact_fractional_boundary():
    # the point is exactly 1/3; a float solver could land on either side
    r = lp_fractions(solve_lp([3], a_ub=[[3]], b_ub=[1], surplus=1))  # x >= 1/3, times 3
    assert r.x == (Fraction(1, 3),)
    r = lp_fractions(solve_lp([1], a_ub=[[3]], b_ub=[1]))
    assert r.x == (Fraction(1, 3),)
    assert r.objective == Fraction(1, 3)


def test_redundant_equality_rows():
    # x + y = 3 and 2x + 2y = 6, as the core LP asks its budget row: a <= row
    # whose left side c maximizes
    r = lp_fractions(solve_lp([3, 3], a_ub=[[1, 1], [2, 2]], b_ub=[3, 6]))
    assert r.objective == 9
    assert sum(r.x) == 3


def test_contradictory_equalities():
    # x + y = 3 and x + y = 4: the optimum stops at 6, short of 7
    r = lp_fractions(solve_lp([2, 2], a_ub=[[1, 1], [1, 1]], b_ub=[3, 4]))
    assert r.objective == 6


def test_degenerate_single_point():
    r = lp_fractions(solve_lp([2, 2], a_ub=[[1, 0], [0, 1], [1, 1]], b_ub=[0, 0, 0]))
    assert r == LPResult("optimal", (0, 0), 0)


def test_transportation_needs_lp_not_greedy():
    # gains [[5,4],[4,0]]; greedy by best single saving gives 50, optimum 80
    r = solve_lp(
        [5, 4, 4, 0],
        a_ub=[[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]],
        b_ub=[10, 10, 10, 10],
    )
    assert lp_fractions(r).objective == 80


def test_rows_outside_the_one_form_are_refused():
    with pytest.raises(ValueError, match="right-hand sides are >= 0"):
        solve_lp([1], a_ub=[[1], [-1]], b_ub=[1, -1])
    for surplus in (-1, 3):
        with pytest.raises(ValueError, match="surplus counts rows"):
            solve_lp([1], a_ub=[[1], [1]], b_ub=[1, 1], surplus=surplus)
    # b = 0 is in the form
    assert lp_fractions(solve_lp([-1], a_ub=[[-1]], b_ub=[0])) == LPResult("optimal", (0,), 0)


@pytest.mark.parametrize("bad", [0.1, "1/3", Decimal("0.1"), True, Fraction(1, 3)])
@pytest.mark.parametrize("where", ["c", "a_ub", "b_ub", "int_row"])
def test_only_ints_and_fractions(bad, where):
    # only ints: a float would enter as its binary value (0.1 is
    # 3602879701896397/2^55), and rational data enters as rows scaled by a
    # positive lcm (_int_lp), so a Fraction is refused as well
    args = {"c": [0], "a_ub": [[1]], "b_ub": [1]}
    if where == "int_row":  # one bad cell among ints, past the all-int check
        args.update(c=[0, 0, 0], a_ub=[[1, bad, 2]])
    else:
        args[where] = [[bad]] if where.startswith("a_") else [bad]
    with pytest.raises(TypeError, match=type(bad).__name__):
        solve_lp(**args)


@pytest.mark.parametrize("form", ["a_ub"])
def test_row_width_must_match_objective(form):
    rows = {form: [[1, 2]], "b" + form[1:]: [1]}
    with pytest.raises(ValueError) as e:
        solve_lp([0], **rows)
    assert str(e.value) == "constraint width does not match objective"


# ---------------------------------------------------------------- edge cases


def test_drive_out_pivot_on_negative_entry():
    # 2x + 2y = 1 and -y = 0 by phase one: the oracle's phase one leaves an
    # artificial basic at level zero whose row's first nonzero real entry is
    # negative, and its drive-out pivots on that entry. Read as <= rows,
    # with c their column sums, symbio makes phase one's pivots and stops
    # at the same point.
    rows, rhs = [[2, 2], [0, -1]], [1, 0]
    r, pivots = traced_pivots(lp, lambda: solve_lp([2, 1], a_ub=rows, b_ub=rhs))
    expected, oracle_pivots, drive_outs = traced_oracle(
        lambda: fraction_solve_lp([0, 0], a_eq=rows, b_eq=rhs))
    assert lp_fractions(r) == LPResult("optimal", (Fraction(1, 2), Fraction(0)), Fraction(1))
    assert lp_fractions(expected).x == lp_fractions(r).x
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


# kwargs are both solvers': the surplus form of >= rows and equalities
@pytest.mark.parametrize(
    "args, kwargs",
    [
        (([3, 2], [[1, 1], [1, 0]], [4, 2]), {}),
        (([4, 0], [[1, 1], [1, -1], [1, 1], [1, -1]], [3, 1, 3, 1]), {"surplus": 2}),
        (([2, 4], [[2, 4]], [6]), {"surplus": 1}),
        (([3, 6], [[3, 0], [0, 6]], [2, 3]), {"surplus": 2}),
        (([6, 0], [[3, 0]], [2]), {}),
        (([1], [[1]], [0]), {}),
    ],
)
def test_results_are_fractions_in_lowest_terms(args, kwargs):
    # values come as the dictionary's (rhs, scale) int pairs, not reduced:
    # the fractions equal the oracle's, whose pairs are in lowest terms
    r = solve_lp(*args, **kwargs)
    expected = fraction_solve_lp(*args, maximize=True, **kwargs)
    assert r.status == "optimal"
    for (p, q), (a, b) in zip((*r.x, r.objective, *r.dual),
                              (*expected.x, expected.objective, *expected.dual), strict=True):
        assert type(p) is type(q) is int and q > 0
        assert gcd(a, b) == 1 and b > 0 and p * b == a * q


# ------------------------------------------------------- differential oracle


def _int_row(values) -> list:
    """values times the lcm of their denominators, as ints: a positive
    scale, so a row keeps its constraint and c its optimal points."""
    scale = lcm(*(Fraction(v).denominator for v in values))
    return [int(v * scale) for v in values]


def _int_lp(c, a_ub=(), b_ub=()):
    """An LP of rationals as solve_lp takes it: c, and each constraint row
    with its right-hand side, scaled by its own lcm (_int_row)."""
    rows = [_int_row([*a, b]) for a, b in zip(a_ub, b_ub)]
    return _int_row(c), [r[:-1] for r in rows], [r[-1] for r in rows]


def _rational(rng, lo=-6, hi=6):
    return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 3, 7]))


def _random_lp(rng):
    """A small LP in solve_lp's form, rows with mixed-sign coefficients over
    small denominators and right-hand sides >= 0, zero in some, and how
    many of its first rows hold a surplus column. Some cap every variable
    so the optimum is bounded. c is random, or about half the time the
    column sums of a system of >= rows (the surplus ones) and equalities,
    each a surplus row and a <= row, as the core LP asks (the oracle's
    phase one on it makes the same pivots), plus a little noise."""
    n = rng.randint(1, 5)

    def row():
        return [_rational(rng) if rng.random() < 0.7 else 0 for _ in range(n)]

    a_ub = [row() for _ in range(rng.randint(0, 5))]
    b_ub = [rng.choice([0, _rational(rng, 0, 6)]) for _ in a_ub]
    surplus = rng.randint(0, len(a_ub))
    if rng.random() < 0.5:
        # equalities: a <= copy of some surplus rows
        for r in range(surplus):
            if rng.random() < 0.5:
                a_ub.append(a_ub[r])
                b_ub.append(b_ub[r])
        c = [sum(column) for column in zip(*a_ub, [0] * n)]
        if rng.random() < 0.3:
            c = [v + _rational(rng, -1, 1) for v in c]
    else:
        c = [_rational(rng) for _ in range(n)]
    if rng.random() < 0.5:
        for j in range(n):
            a_ub.append([int(i == j) for i in range(n)])
            b_ub.append(_rational(rng, 0, 8))
    return (c, a_ub, b_ub), surplus


def _dual_holds(c, a_ub, b_ub, surplus, result):
    """Whether an optimal result, in Fractions (lp_fractions), carries an
    optimal dual solution: u >= 0, u_r <= 1 on the surplus rows (the
    surplus columns' constraints), A^T u >= c, and b.u equal to the
    objective."""
    u = result.dual
    if len(u) != len(b_ub) or any(v < 0 for v in u) or any(v > 1 for v in u[:surplus]):
        return False
    if sum(b * v for b, v in zip(b_ub, u)) != result.objective:
        return False
    return all(sum(row[j] * v for row, v in zip(a_ub, u)) >= c[j] for j in range(len(c)))


def test_matches_fraction_tableau_on_random_lps():
    """Same results, and the same pivots: every (row, entering column,
    leaving column, pivot element) in order, against the oracle's one phase
    on the surplus columns written out. Both solve the same int rows
    (_int_lp). At an optimum the row prices are the oracle's slack reduced
    costs, surplus rows included, and an optimal dual (_dual_holds)."""
    rng = random.Random(20180419)
    seen = Counter()
    mirrored_entries = priced_surplus_rows = 0
    for _ in range(1500):
        args, surplus = _random_lp(rng)
        args = _int_lp(*args)
        r, pivots = traced_pivots(lp, lambda: solve_lp(*args, surplus=surplus))
        expected, oracle_pivots, drive_outs = traced_oracle(
            lambda: fraction_solve_lp(*args, maximize=True, surplus=surplus))
        assert lp_fractions(r) == lp_fractions(expected), (args, surplus)
        assert [p[:-1] for p in pivots] == [p[:-1] for p in oracle_pivots], (args, surplus)
        assert drive_outs == 0
        if r.status == "optimal":
            priced = lp_fractions(r)
            assert priced.dual == lp_fractions(expected).dual, (args, surplus)
            assert _dual_holds(*args, surplus, priced), (args, surplus)
            priced_surplus_rows += any(priced.dual[:surplus])
        mirrored = mirrored_pairs(len(args[0]), surplus)
        for _, col, _, element, _ in pivots:
            # a slack read off its surplus column re-enters the basis
            mirrored_entries += col in mirrored
            assert element > 0
        seen[r.status] += 1
    assert set(seen) == {"optimal", "unbounded"} and min(seen.values()) >= 50, seen
    assert mirrored_entries > 0 and priced_surplus_rows > 0


# ------------------------------------------------------- unit-pivot shortcuts


def test_unit_pivots_keep_every_int(monkeypatch):
    """The kernel's shortcuts (a pivot on pc = 1 updates a row as one map,
    and a row of new scale 1 takes no gcd) leave the dictionary, int for
    int, as the plain cross-multiplying pivot (helpers.reference_pivot)
    leaves a copy of it: after every pivot the rows, the stored columns, the
    basis and the cost row are equal. The LPs are those of the random-LP
    oracle test, core LPs of random and convex games with 2 to 7 agents,
    coordinated or not, and the exchange search's relaxations on random
    scenarios. Between them every branch runs often, for the rows (pc > 1;
    pc = 1 with t = 1, t = -1 or another t) and for the cost row (pc > 1,
    pc = 1), the gcd is skipped and taken, and taken gcds exceed 1, on rows
    and on the cost row: so dropping a needed gcd shows."""
    seen = Counter()
    source = None
    pivot = lp._pivot

    def spy(tableau, row, entering):
        basis, obj = tableau.basis, tableau.obj
        copy = lp._Tableau([list(r) for r in tableau], list(tableau.cols), list(basis),
                           list(obj), tableau.n, tableau.k)
        expected = copy, copy.basis, copy.obj
        reference_pivot(*expected, row, entering)
        _, j, sign = entering
        pc = sign * tableau[row][j]
        oc = obj[j] if sign > 0 else obj[j] - obj[-1]
        updates = [(i, target[j], target[-1]) for i, target in enumerate(tableau)
                   if i != row and target[j]]
        updates.append((None, oc, obj[-1]))  # the cost row
        pivot(tableau, row, entering)
        assert (tableau, tableau.cols, basis, obj) == (copy, copy.cols, *expected[1:])
        seen[source] += 1
        for i, t, scale in updates:
            kind = "row" if i is not None else "cost"
            if pc != 1:
                form = "pc > 1"
            elif kind == "cost":
                form = "pc = 1"
            else:
                form = {1: "t = 1", -1: "t = -1"}.get(t, "t other")
            seen[kind, form] += 1
            seen[kind, "gcd skipped" if pc * scale == 1 else "gcd taken"] += 1
            seen[kind, "reduced"] += (tableau[i] if i is not None else obj)[-1] < pc * scale

    monkeypatch.setattr(lp, "_pivot", spy)
    source, rng = "random", random.Random(20180419)
    for _ in range(1500):
        args, surplus = _random_lp(rng)
        solve_lp(*_int_lp(*args), surplus=surplus)
    source, rng = "core", random.Random(29)
    for n in range(2, 8):
        for _ in range(8 if n < 7 else 2):
            for game in random_game(rng, n), convex_game(rng, n):
                core_nonempty(game)
                core_nonempty(CoordinatedGame(game, random_net(rng, n)))
    source = "exchange"
    for trial in range(60):
        scenario_to_game(random_scenario(rng, rng.randint(2, 5),
                                         denominators=range(2, 6) if trial % 2 else None))
    branches = [("row", form) for form in ("pc > 1", "t = 1", "t = -1", "t other")]
    branches += [("cost", "pc > 1"), ("cost", "pc = 1")]
    branches += [(kind, step) for kind in ("row", "cost")
                 for step in ("gcd skipped", "gcd taken", "reduced")]
    assert min(seen[key] for key in ["random", "core", "exchange", *branches]) >= 100, seen


# ------------------------------------------------------- re-entry


def test_reentry_matches_a_cold_fraction_solve(monkeypatch):
    """An optimal dictionary of an LP without surplus columns, re-entered by
    with_cost (one column's cost raised by an int of either sign) or by
    with_zero (one column held at 0), has the status and objective of a cold
    fraction_solve_lp of the changed LP, and an x feasible for it, worth the
    objective, held columns at 0. Each LP of the random-LP oracle test,
    without its surplus, is re-entered in a chain of up to three steps, each
    from the last optimum, so that re-entries also start from dictionaries
    with dropped slots and changed costs. Each entry takes a column basic in
    the dictionary, as the branch and bound's fractional ones are, and runs
    at least 50 times, and 50 from degenerate optima (a basic row at rhs
    0). A chain ends at an optimum with no basic column. Every dual-simplex
    step leaves each row's scale > 0 and each reduced cost >= 0 but the
    held column's, whose slot is dropped, so with_zero's primal pivots find
    nothing left to do. Such steps run at least 30 times on the held
    column's row and on rows of negative rhs; cold solves and with_cost
    take none, and each with_zero entry at least its first."""
    rng = random.Random(20180419)
    seen = Counter()
    dual_pivot = lp._dual_pivot

    def spy(tableau, row):
        first, leaving = tableau[row][-2] >= 0, tableau.basis[row]
        seen["dual step", "first" if first else "rhs < 0"] += 1
        seen[entry, "dual steps"] += 1
        dual_pivot(tableau, row)
        # the held column's own cost may turn negative: its slot goes next
        assert all(d >= 0 for d, col in zip(tableau.obj, tableau.cols)
                   if not (first and col == leaving))
        assert min(r[-1] for r in tableau) > 0

    monkeypatch.setattr(lp, "_dual_pivot", spy)
    for _ in range(1500):
        (c, a_ub, b_ub), _ = _random_lp(rng)
        c, a_ub, b_ub = _int_lp(c, a_ub, b_ub)
        entry = "cold"
        result, held = solve_lp(c, a_ub, b_ub), set()
        for _ in range(3):
            if result.status != "optimal":
                break
            dictionary = result.dictionary
            basic = sorted(col for col in dictionary.basis if col < len(c))
            if not basic:
                break
            col = rng.choice(basic)
            step = entry = "cost" if rng.random() < 0.5 else "zero"
            seen[step, "entries"] += 1
            steps = seen[step, "dual steps"]
            seen[step, "degenerate"] += any(row[-2] == 0 for row in dictionary)
            if step == "cost":
                delta = rng.choice([-3, -2, -1, 1, 2, 5])
                result = dictionary.with_cost(col, delta)
                c = c[:col] + [c[col] + delta] + c[col + 1:]
            else:
                result = dictionary.with_zero(col)
                held.add(col)
                assert seen[step, "dual steps"] > steps
            kept = [j for j in range(len(c)) if j not in held]
            expected = fraction_solve_lp([c[j] for j in kept], [[row[j] for j in kept]
                                                                for row in a_ub], b_ub, maximize=True)
            assert result.status == expected.status, (c, a_ub, b_ub, held)
            if result.status == "optimal":
                r = lp_fractions(result)
                assert r.objective == lp_fractions(expected).objective, (c, a_ub, b_ub, held)
                assert all(v >= 0 for v in r.x) and not any(r.x[j] for j in held)
                assert all(sum(map(mul, row, r.x)) <= b for row, b in zip(a_ub, b_ub))
                assert sum(map(mul, c, r.x)) == r.objective
    assert min(seen[step, kind] for step in ("cost", "zero")
               for kind in ("entries", "degenerate")) >= 50, seen
    assert min(seen["dual step", row] for row in ("first", "rhs < 0")) >= 30, seen
    assert seen["cold", "dual steps"] == seen["cost", "dual steps"] == 0, seen


def test_solve_clears_negative_rhs_by_dual_steps(monkeypatch):
    """solve() from a dictionary with every reduced cost >= 0 and some rhs
    < 0 takes dual-simplex steps to a feasible basis, then primal pivots
    to the optimum. The LPs are random covering LPs, min c.x subject to
    A x >= b, x >= 0, with c >= 0 and A >= 0 holding a positive cell in
    every row, so each is feasible and bounded: each is built straight
    from its slack basis, rows -A x <= -b (rhs -b) and cost row c (the
    maximization of -c.x). Status and objective are those of a cold
    fraction_solve_lp, which takes negative right-hand sides, and x is
    feasible and worth the objective. At least 50 LPs take a dual step."""
    rng = random.Random(41)
    dual_pivot, stepped = lp._dual_pivot, []

    def spy(tableau, row):
        stepped.append(row)
        dual_pivot(tableau, row)

    monkeypatch.setattr(lp, "_dual_pivot", spy)
    seen = Counter()
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        c = [rng.choice([0, rng.randint(1, 9)]) for _ in range(n)]
        a = [[rng.choice([0, 0, rng.randint(1, 6)]) for _ in range(n)] for _ in range(m)]
        for row in a:
            row[rng.randrange(n)] = rng.randint(1, 6)
        b = [rng.choice([0, rng.randint(1, 12)]) for _ in range(m)]
        rows = [[-v for v in row] + [-rhs, 1] for row, rhs in zip(a, b)]
        slacks = list(range(n, n + m))
        stepped.clear()
        result = lp._Tableau(rows, list(range(n)), slacks, c + [0, 1], n, 0).solve()
        expected = fraction_solve_lp([-v for v in c], [[-v for v in row] for row in a],
                                     [-v for v in b], maximize=True)
        assert result.status == expected.status == "optimal", (c, a, b)
        r = lp_fractions(result)
        assert r.objective == lp_fractions(expected).objective, (c, a, b)
        assert all(v >= 0 for v in r.x)
        assert all(sum(map(mul, row, r.x)) >= rhs for row, rhs in zip(a, b)), (c, a, b)
        assert -sum(map(mul, c, r.x)) == r.objective
        seen["dual steps" if stepped else "none"] += 1
    assert seen["dual steps"] >= 50, seen
