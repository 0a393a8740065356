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
0 as scale. Then the row is divided by the gcd of its ints. Two shortcuts
leave every int as it is. When pc is 1, as in most pivots of the core LP,
pc*row - t*q is row - t*q, made by one C-level map over the two lists:
row - q for t = 1, row + q for t = -1, else row less q times t (which the
cost row, once per pivot, always takes). And a row whose new scale is 1
skips the gcd, since the gcd divides the scale.

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

solve_lp is the cold entry. An LP without surplus columns also hands back
its optimal dictionary (LPResult.dictionary), which a caller re-enters for
an LP one basic column away, as the exchange's branch and bound does for
each child of a node (it branches on a fractional value; a nonbasic column
is 0). Each entry works on a copy, built by one _Tableau call, which
shares the parent's rows (a pivot replaces a row and never edits one), so
one parent serves both its children; column numbers never change.

Every entry builds or copies, edits, then calls _Tableau.solve, the one
place a dictionary reaches its optimum: dual-simplex steps with Bland's
rule (Lemke 1954) clear each negative rhs, the row of the least basic
column first, then primal Bland pivots run. So solve needs every rhs >= 0,
or every reduced cost >= 0. with_cost(col, delta) adds col's row, times
delta, to the cost row; every rhs stays >= 0. with_zero(col) holds col at
0: col leaves its row by a dual step, which keeps every other reduced cost
>= 0, and its slot is dropped. A dual step enters the slot of least ratio
d_j / a over the row's cells a of the right sign, ties to the least
logical column; where that cell is negative, the row is negated first,
scale included, so _pivot runs as it is and every scale stays > 0. A
negative rhs with no cell of the right sign cannot be cleared: the LP is
infeasible, and solve reports that as its status.
"""

from __future__ import annotations

from math import gcd
from operator import add, sub

from .records import Record


class LPResult(Record):
    """status is "optimal", "unbounded" (a column enters and no row bounds
    it) or "infeasible" (a row of negative rhs has no cell a dual step can
    enter, so no x meets it); only an optimum has values, each a (num, den)
    int pair, den > 0, not reduced:

    - x: a basic column's row's (rhs, scale), else (0, 1);
    - objective: the cost row's (rhs, scale);
    - dual: each row's price (the module docstring), a certificate, so not
      in ==;
    - dictionary: the optimal dictionary of an LP without surplus columns,
      to re-enter (_Tableau.with_cost, _Tableau.with_zero); not in == or
      the repr.
    """

    _shown = ("status", "x", "objective", "dual")
    _compared = ("status", "x", "objective")

    def __init__(self, status: str, x: "tuple[tuple[int, int], ...] | None" = None,
                 objective: "tuple[int, int] | None" = None,
                 dual: "tuple[tuple[int, int], ...] | None" = None,
                 dictionary: "_Tableau | None" = None):
        self.__dict__.update(status=status, x=x, objective=objective, dual=dual,
                             dictionary=dictionary)


class _Tableau(list):
    """The dictionary: its stored rows; cols[j] is the logical column stored
    in slot j, basis[i] the one basic in row i, obj the cost row; n
    structural columns, surplus columns n..n+k-1, and slack n + k + r
    mirroring surplus n + r. Only the constructor sets a field; pivots,
    which take the dictionary alone, change cols, basis, obj and the rows
    in place, and solve() is the one loop that runs them to an optimum.
    Without surplus columns an optimal dictionary may be re-entered on one
    basic structural column (with_cost, with_zero; the module docstring).
    """

    __slots__ = ("cols", "basis", "obj", "n", "k")

    def __init__(self, rows, cols, basis, obj, n, k):
        super().__init__(rows)
        self.cols, self.basis, self.obj, self.n, self.k = cols, basis, obj, n, k

    def solve(self) -> LPResult:
        """Bring this dictionary to its optimum in place and read it off:
        Bland dual steps clear each negative rhs, then primal Bland pivots
        run (the module docstring). Needs every rhs >= 0, as solve_lp's and
        with_cost's have, or every reduced cost >= 0; a negative rhs that no
        dual step can clear ends it as "infeasible"."""
        while negative := [i for i, row in enumerate(self) if row[-2] < 0]:
            i = min(negative, key=self.basis.__getitem__)
            # no negative cell: the row's basic column is below 0 at every
            # point (dual steps run without surplus columns, so every
            # nonbasic column is stored)
            if not any(v < 0 for v in self[i][:-2]):
                return LPResult("infeasible")
            _dual_pivot(self, i)
        if not _pivot_until_optimal(self):
            return LPResult("unbounded")
        n, k, obj = self.n, self.k, self.obj
        x = [(0, 1)] * n
        dual = [(0, 1)] * len(self)  # a basic slack's price
        for row, b in zip(self, self.basis):
            if b < n:
                x[b] = (row[-2], row[-1])
            elif b < n + k:
                dual[b - n] = (1, 1)  # its slack is minus the surplus's unit column
        for d, col in zip(obj, self.cols):
            if col >= n + k:
                dual[col - n - k] = (d, obj[-1])
            elif col >= n:
                dual[col - n] = (obj[-1] - d, obj[-1])  # the slack read off its surplus
        return LPResult("optimal", tuple(x), (obj[-2], obj[-1]), tuple(dual),
                        None if k else self)

    def _copy(self, obj):
        """This dictionary with cost row obj, sharing its rows."""
        return _Tableau(self, list(self.cols), list(self.basis), obj, self.n, self.k)

    def with_cost(self, col, delta) -> LPResult:
        """The LP with basic structural column col's cost raised by the int
        delta, solved by primal Bland pivots from this optimal basis, which
        stays feasible."""
        # col's row reads x_col = beta - a.x_N: each reduced cost d_j gains
        # delta * a_j, and the objective delta * beta
        obj, row = self.obj, self[self.basis.index(col)]
        s, scale = row[-1], obj[-1]
        new = [s * d + delta * scale * a for d, a in zip(obj, row)]
        new[-1] = s * scale
        return self._copy(_primitive(new)).solve()

    def with_zero(self, col) -> LPResult:
        """The LP with basic structural column col held at 0, still feasible
        at x = 0: col leaves its row by a dual-simplex step, its slot is
        dropped from every row, and solve() clears the rhs that step left
        negative."""
        lp = self._copy(list(self.obj))
        _dual_pivot(lp, lp.basis.index(col))
        j = lp.cols.index(col)
        del lp.cols[j], lp.obj[j]
        lp[:] = [row[:j] + row[j + 1:] for row in lp]
        return lp.solve()


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
    rows = [_dictionary_row(coeffs, rhs, n) for coeffs, rhs in zip(a_ub, b_ub, strict=True)]
    if not 0 <= surplus <= len(rows):
        raise ValueError("surplus counts rows of a_ub")
    # every slack basic; minimize -c.x + sum(s), the cost row's rhs cell holding minus that
    slacks = list(range(n + surplus, n + surplus + len(rows)))
    return _Tableau(rows, list(range(n)), slacks, [-v for v in c] + [0, 1], n, surplus).solve()


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


def _entering(tableau):
    """Bland's rule: (col, j, sign) for the smallest logical column col with
    a negative reduced cost, stored as sign times slot j, or None. A mirrored
    slack is read off its surplus's slot (sign -1) and costs obj[-1] - d_s."""
    best = None
    obj, n, k = tableau.obj, tableau.n, tableau.k
    for j, col in enumerate(tableau.cols):
        d = obj[j]
        if d < 0:
            if best is None or col < best[0]:
                best = col, j, 1
        elif k and d > obj[-1] and n <= col < n + k and (best is None or col + k < best[0]):
            best = col + k, j, -1
    return best


def _pivot_until_optimal(tableau) -> bool:
    """Run Bland-rule pivots in place; False means unbounded."""
    basis = tableau.basis
    while True:
        entering = _entering(tableau)
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
        _pivot(tableau, row, entering)


def _pivot(tableau, row, entering):
    """Make _entering's (col, j, sign) basic in row, all in place."""
    col, j, sign = entering
    basis, obj, n, k = tableau.basis, tableau.obj, tableau.n, tableau.k
    prow = tableau[row]
    leaving, basis[row] = basis[row], col
    pc = sign * prow[j]
    # the leaving column's cell in the pivot row is its scale s; a mirrored
    # slack is stored as its surplus, minus that
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
        if pc != 1:
            new = [pc * x - tc * p for x, p in zip(target, q)]
        elif tc == 1:
            new = list(map(sub, target, q))
        elif tc == -1:
            new = list(map(add, target, q))
        else:
            new = list(map(sub, target, map(tc.__mul__, q)))
        tableau[i] = new if new[-1] == 1 else _primitive(new)
    oc = obj[j] if sign > 0 else obj[j] - obj[-1]  # sign times the entering cost
    if pc == 1:
        new = list(map(sub, obj, map(oc.__mul__, q)))
    else:
        new = [pc * o - oc * p for o, p in zip(obj, q)]
    d = -sign * oc * s  # the leaving column's cost
    new[j] = d if mirror > 0 else new[-1] - d
    obj[:] = new if new[-1] == 1 else _primitive(new)


def _dual_pivot(tableau, row):
    """A dual-simplex step: row's basic column leaves, and the slot j with
    the least obj[j] / a over the row's positive cells a enters (ties to the
    least logical column), which keeps every other reduced cost >= 0, and
    the leaving column's too when its true cell is negative. A row of
    negative rhs, or with no positive cell, is negated first, scale
    included (on with_zero's row of rhs beta >= 0 a positive cell keeps
    the entering beta / a >= 0; with none beta is 0, as x = 0 is
    feasible). _pivot then gives the pivot row its positive cell as scale,
    and every other row a positive multiple of its own."""
    prow = tableau[row]
    if prow[-2] < 0 or not any(v > 0 for v in prow[:-2]):
        prow = tableau[row] = [-v for v in prow]
    obj, cols = tableau.obj, tableau.cols
    best = None
    for j, a in enumerate(prow[:-2]):
        if a > 0 and (best is None or obj[j] * prow[best] < obj[best] * a or (
                obj[j] * prow[best] == obj[best] * a and cols[j] < cols[best])):
            best = j
    _pivot(tableau, row, (cols[best], best, 1))
