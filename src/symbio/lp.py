"""Exact linear programming over rationals.

A simplex with Bland's rule for both the entering and leaving choices, so
it terminates on degenerate problems and its answers are exact even when
the optimum sits on a constraint boundary. Instances are not small: the
core LP has one row per coalition worth more than its members alone, up to
2^n - n - 2 rows for n agents.

solve_lp takes one form: <= rows with right-hand sides >= 0, so it starts
feasible at x = 0, every slack basic, and one phase maximizes c.x less the
k = surplus columns s_r, one in each of the first k rows with coefficient
-1 and cost 1. A row a.x - s_r <= b asks a.x >= b: add a to c, and the
optimum reaches the sum of those rows' b exactly when every such row holds
(solutions.core_nonempty).

Columns are numbered in the logical order structural | surplus | slack,
slack r in row r; Bland's rule and the basis read these numbers. Slack
n + k + r, r < k, has the cells of surplus n + r negated and a cost 1 less:
at every basis its reduced cost is 1 - the surplus's.

The tableau is a fraction-free dictionary (Tucker's condensed tableau,
as in Avis's lrs). Basic columns are unit vectors and are not stored: a
row is Python ints [cell per stored column, rhs, scale], scale > 0, with
true values cell / scale, kept primitive, and 1 as the input's int rows
start; tableau.cols names the logical column in each slot. The cost row
has the same layout, -objective in its rhs cell, and starts as -c. Of a
mirrored surplus/slack pair, a member whose partner is basic is minus that
row's unit column; it is not stored, and its reduced cost is 1, so it
never enters. When both are nonbasic only the surplus is stored; the slack
is read off it, cells negated and cost cell scale - d_s. So exactly n
columns are stored for n variables, and a row is n + 2 ints whatever the
number of rows.

A pivot on cell pc > 0 swaps the entering and leaving columns in the
entering column's slot. The pivot row keeps its cells, takes its old
scale s there (-s when the leaving column is a slack stored as its
surplus) and pc as its scale; each other row with cell t in that slot
becomes pc*row - t*q, for q the new pivot row times the entering column's
sign (-1 for a slack read off its surplus), with pc added in the slot and
0 as scale.

Scaling a row by a positive number changes neither the sign of a cell nor
the ratio of two cells, and those are all the pivot rules read: the sign
tests run on the ints, and the ratio test compares rhs_i*a_best with
rhs_best*a_i. Every cell read holds a full tableau's true value over the
row's positive scale, so every entering and leaving choice, and the
solution, are exactly those of the same simplex run on a full Fraction
tableau. The answer is the dictionary's own numbers: each value is its
row's (rhs, scale) pair, read off with no gcd, and no Fraction is made.
The final cost row also prices row r by slack r's reduced cost u_r (0 when
basic, 1 when its surplus is, scale - d_s when read off it): the optimal
dual, u >= 0, u_r <= 1 on surplus rows, A^T u >= c and b.u the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd


@dataclass(frozen=True)
class LPResult:
    """At an optimum each value is a (num, den) int pair, den > 0, not reduced."""

    status: str  # "optimal" | "unbounded"
    x: "tuple[tuple[int, int], ...] | None" = None  # basic: its row's (rhs, scale); else (0, 1)
    objective: "tuple[int, int] | None" = None  # the cost row's (rhs, scale)
    # each row's price (the module docstring); a certificate, so not in ==
    dual: "tuple[tuple[int, int], ...] | None" = field(default=None, compare=False)


class _Tableau(list):
    """The stored rows; cols[j] is the logical column stored in slot j.

    The surplus columns are n..n+k-1 for n = len(cols), and slack n + k + r
    mirrors surplus n + r.
    """

    __slots__ = ("cols", "k")

    def __init__(self, rows, n, k):
        super().__init__(rows)
        self.cols = list(range(n))
        self.k = k


def solve_lp(c, a_ub=(), b_ub=(), surplus=0) -> LPResult:
    """Maximize c.x - (s_0 + ... + s_{k-1}) subject to row r of a_ub x,
    less s_r for r < k = surplus, <= b_ub[r], with x, s >= 0.

    Inputs are ints; any other type, a Fraction, float, str, bool or Decimal
    included, raises TypeError. Rational data enters as each row scaled by
    a positive common multiple of its denominators (and c likewise), which
    moves no pivot. A negative right-hand side raises ValueError. Values are
    int pairs, x's without the surplus columns, dual's one per row.
    """
    c = _ints(c)
    n = len(c)
    tableau = _Tableau([_dictionary_row(coeffs, rhs, n)
                        for coeffs, rhs in zip(a_ub, b_ub, strict=True)], n, surplus)
    if not 0 <= surplus <= len(tableau):
        raise ValueError("surplus counts rows of a_ub")
    basis = list(range(n + surplus, n + surplus + len(tableau)))  # every slack
    # minimize -c.x + sum(s); the cost row's rhs cell holds minus that
    obj = [-v for v in c] + [0, 1]
    if not _pivot_until_optimal(tableau, basis, obj):
        return LPResult("unbounded")
    x = [(0, 1)] * n
    dual = [(0, 1)] * len(tableau)  # a basic slack's price
    for row, b in zip(tableau, basis):
        if b < n:
            x[b] = (row[-2], row[-1])
        elif b < n + surplus:
            dual[b - n] = (1, 1)  # its slack is minus the surplus's unit column
    for d, col in zip(obj, tableau.cols):
        if col >= n + surplus:
            dual[col - n - surplus] = (d, obj[-1])
        elif col >= n:
            dual[col - n] = (obj[-1] - d, obj[-1])  # the slack read off its surplus
    return LPResult("optimal", tuple(x), (obj[-2], obj[-1]), tuple(dual))


def _ints(values) -> list:
    """values as a list of ints, by one type test; anything else raises TypeError."""
    values = list(values)
    if set(map(type, values)) <= {int}:
        return values
    bad = next(v for v in values if type(v) is not int)
    raise TypeError(f"LP coefficients are ints, not {type(bad).__name__}")


def _dictionary_row(coeffs, rhs, n):
    """coeffs and rhs as a dictionary row of scale 1."""
    row = _ints([*coeffs, rhs])
    if len(row) != n + 1:
        raise ValueError("constraint width does not match objective")
    if row[-1] < 0:
        raise ValueError("right-hand sides are >= 0")
    return row + [1]


def _primitive(row):
    g = gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _entering(tableau, obj):
    """Bland's rule: (col, j, sign) for the smallest logical column col with
    a negative reduced cost, stored as sign times slot j, or None. A mirrored
    slack is read off its surplus's slot (sign -1) and costs obj[-1] - d_s."""
    best = None
    k = tableau.k
    lo = len(tableau.cols)
    hi = lo + k
    for j, col in enumerate(tableau.cols):
        d = obj[j]
        if d < 0:
            if best is None or col < best[0]:
                best = col, j, 1
        elif k and d > obj[-1] and lo <= col < hi and (best is None or col + k < best[0]):
            best = col + k, j, -1
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
    # slack is stored as its surplus, minus that
    n, k = len(tableau.cols), tableau.k
    mirror = -1 if n + k <= leaving < n + 2 * k else 1
    tableau.cols[j] = leaving - k if mirror < 0 else leaving
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
