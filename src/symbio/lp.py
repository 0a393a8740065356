"""Exact linear programming over rationals.

A simplex with Bland's rule for both the entering and leaving choices, so
it terminates on degenerate problems and its verdicts (feasible /
infeasible) are exact even when the optimum sits on a constraint
boundary. Instances are not small: the core LP has one row per coalition
worth more than its members alone, up to 2^n - n - 2 rows for n agents.

solve_lp runs one phase. An LP with an equality row or a negative
right-hand side is a feasibility question with c = 0: phase one runs
alone, and the point where it stops is the answer. Any other LP starts
feasible at x = 0, every slack basic, and one phase maximizes c.x.

Columns are numbered in the logical order structural | slack | artificial,
with one artificial per row that starts without a basic slack, in row
order; Bland's rule and the basis read these numbers. A <= row with a
negative right-hand side is negated, so its slack coefficient is -1 and
its artificial's +1: at every basis that artificial's column is minus its
slack's, and in phase one its cost is 1 - the slack's.

The tableau is a fraction-free dictionary (Tucker's condensed tableau,
as in Avis's lrs). Basic columns are unit vectors and are not stored: a
row is Python ints [cell per stored column, rhs, scale], scale > 0, with
true values cell / scale, kept primitive, and 1 as the input's int rows
start; tableau.cols names the logical column in each slot. The cost row
has the same layout, -objective in its rhs cell. Of a mirrored
slack/artificial pair, a member whose partner is basic is minus that
row's unit column; it is not stored, and its phase-one cost is 1, so it
never enters. When both are nonbasic only the slack is stored; the
artificial is read off it, cells negated and cost cell scale - d_s. So
exactly n columns are stored for n variables, and a row is n + 2 ints
whatever the number of rows.

A pivot on cell pc > 0 swaps the entering and leaving columns in the
entering column's slot. The pivot row keeps its cells, takes its old
scale s there (-s when the leaving column is an artificial stored as its
slack) and pc as its scale; each other row with cell t in that slot
becomes pc*row - t*q, for q the new pivot row times the entering column's
sign (-1 for an artificial read off its slack), with pc added in the slot
and 0 as scale.

Scaling a row by a positive number changes neither the sign of a cell nor
the ratio of two cells, and those are all the pivot rules read: the sign
tests run on the ints, and the ratio test compares rhs_i*a_best with
rhs_best*a_i. Every cell read holds a full tableau's true value over the
row's positive scale, so every entering and leaving choice, and the
solution, are exactly those of the same simplex run on a full Fraction
tableau. The answer is the dictionary's own numbers: each value is its
row's (rhs, scale) pair, read off with no gcd, and no Fraction is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class LPResult:
    """At an optimum each value is a (num, den) int pair, den > 0, not reduced."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: "tuple[tuple[int, int], ...] | None" = None  # basic: its row's (rhs, scale); else (0, 1)
    objective: "tuple[int, int] | None" = None  # the cost row's (rhs, scale); (0, 1) if c = 0


class _Tableau(list):
    """The stored rows; cols[j] is the logical column stored in slot j.

    slack_of maps each mirrored artificial to its slack column, art_of the
    other way.
    """

    __slots__ = ("cols", "slack_of", "art_of")

    def __init__(self, rows, cols, slack_of):
        super().__init__(rows)
        self.cols = cols
        self.slack_of = slack_of
        self.art_of = {s: a for a, s in slack_of.items()}


def solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()) -> LPResult:
    """Maximize c.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Inputs are ints; any other type, a Fraction, float, str, bool or Decimal
    included, raises TypeError. Rational data enters as each row scaled by
    a positive common multiple of its denominators (and c likewise), which
    moves no pivot. A feasibility LP (an equality row or a negative
    right-hand side) must have c = 0, else ValueError. Values are int pairs.
    """
    c = _ints(c)
    n = len(c)

    # Slack k belongs to <= row k. Each row starts with its slack basic, or
    # when it is an equality row or was negated, its artificial; the
    # artificials are numbered in row order, after every real column.
    ub = [_dictionary_row(coeffs, rhs, n) for coeffs, rhs in zip(a_ub, b_ub, strict=True)]
    eq = [_dictionary_row(coeffs, rhs, n) for coeffs, rhs in zip(a_eq, b_eq, strict=True)]
    real = n + len(ub)
    basis, slack_of = [], {}
    for k, (_, negated) in enumerate(ub):
        if negated:
            artificial = real + len(slack_of)
            slack_of[artificial] = n + k
            basis.append(artificial)
        else:
            basis.append(n + k)
    basis += range(real + len(slack_of), real + len(slack_of) + len(eq))
    tableau = _Tableau([row for row, _ in ub + eq], list(range(n)), slack_of)

    if slack_of or eq:
        if any(c):
            raise ValueError("a feasibility LP takes c = 0")
        cost = [0] * real + [1] * (len(slack_of) + len(eq))
        obj = _reduced_row(cost, tableau, basis)
        _pivot_until_optimal(tableau, basis, obj)
        if obj[-2] != 0:  # leftover artificial infeasibility
            return LPResult("infeasible")
        value = (0, 1)
    else:
        # minimize -c.x; the cost row's rhs cell holds minus that, c.x
        obj = _reduced_row([-v for v in c] + [0] * len(ub), tableau, basis)
        if not _pivot_until_optimal(tableau, basis, obj):
            return LPResult("unbounded")
        value = (obj[-2], obj[-1])

    x = [(0, 1)] * n
    for row, b in zip(tableau, basis):
        if b < n:
            x[b] = (row[-2], row[-1])
    return LPResult("optimal", tuple(x), value)


def _ints(values) -> list:
    """values as a list of ints, by one type test; anything else raises TypeError."""
    values = list(values)
    if set(map(type, values)) <= {int}:
        return values
    bad = next(v for v in values if type(v) is not int)
    raise TypeError(f"LP coefficients are ints, not {type(bad).__name__}")


def _dictionary_row(coeffs, rhs, n):
    """(row, negated): coeffs and rhs as a dictionary row of scale 1,
    negated when rhs < 0 so that the row's basic slack or artificial enters
    it as +1."""
    row = _ints([*coeffs, rhs])
    if len(row) != n + 1:
        raise ValueError("constraint width does not match objective")
    negated = row[-1] < 0
    if negated:
        row = [-v for v in row]
    return row + [1], negated


def _primitive(row):
    g = gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _reduced_row(cost, tableau, basis):
    """The cost row over the stored columns of the starting dictionary,
    whose rows all have scale 1: ints, its rhs cell -objective, and scale 1.
    cost lists every logical column's cost, as ints."""
    obj = [cost[col] for col in tableau.cols] + [0]
    for row, b in zip(tableau, basis):
        if cost[b]:
            obj = [o - cost[b] * v for o, v in zip(obj, row)]
    return obj + [1]


def _entering(tableau, obj):
    """Bland's rule: (col, j, sign) for the smallest logical column col with
    a negative reduced cost, stored as sign times slot j, or None. A mirrored
    artificial is read off its slack's slot (sign -1) and costs obj[-1] - d_s."""
    best = None
    art_of = tableau.art_of
    for j, col in enumerate(tableau.cols):
        d = obj[j]
        if d < 0:
            if best is None or col < best[0]:
                best = col, j, 1
        elif art_of and d > obj[-1]:
            art = art_of.get(col)
            if art is not None and (best is None or art < best[0]):
                best = art, j, -1
    return best


def _pivot_until_optimal(tableau, basis, obj) -> bool:
    """Run Bland-rule pivots in place; False means unbounded."""
    while True:
        entering = _entering(tableau, obj)
        if entering is None:
            return True
        _, j, sign = entering
        row = None
        for i, trow in enumerate(tableau):
            a = sign * trow[j]
            if a <= 0:
                continue
            if row is None:
                row, rhs_best, a_best = i, trow[-2], a
                continue
            # rhs_i / a_i against rhs_best / a_best, with both a > 0
            here, best = trow[-2] * a_best, rhs_best * a
            if here < best or (here == best and basis[i] < basis[row]):
                row, rhs_best, a_best = i, trow[-2], a
        if row is None:
            return False
        _pivot(tableau, basis, obj, row, entering)


def _pivot(tableau, basis, obj, row, entering):
    """Make _entering's (col, j, sign) basic in row; obj is updated in place."""
    col, j, sign = entering
    prow = tableau[row]
    leaving, basis[row] = basis[row], col
    pc = sign * prow[j]
    # the leaving column's cell in the pivot row is its scale s; a mirrored
    # artificial is stored as its slack, minus that
    tableau.cols[j] = tableau.slack_of.get(leaving, leaving)
    mirror = 1 if tableau.cols[j] == leaving else -1
    s = prow[-1]
    q = [sign * v for v in prow]
    q[j], q[-1] = pc + sign * mirror * s, 0
    tableau[row] = prow[:j] + [mirror * s] + prow[j + 1 : -1] + [pc]
    for i, target in enumerate(tableau):
        tc = target[j]
        if tc == 0 or i == row:
            continue
        tableau[i] = _primitive([pc * x - tc * p for x, p in zip(target, q)])
    oc = obj[j] if sign > 0 else obj[j] - obj[-1]  # sign times the entering cost
    new = [pc * o - oc * p for o, p in zip(obj, q)]
    d = -sign * oc * s  # the leaving column's cost
    new[j] = d if mirror > 0 else new[-1] - d
    obj[:] = _primitive(new)
