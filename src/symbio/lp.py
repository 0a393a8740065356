"""Exact linear programming over rationals.

A dense two-phase tableau simplex with Bland's rule for both the entering
and leaving choices, so it terminates on degenerate problems and its
verdicts (feasible / infeasible) are exact even when the optimum sits on a
constraint boundary. Instances are not small: the core LP has one row per
coalition worth more than its members alone, up to 2^n - n - 2 rows for n
agents, each with its own slack column.

The tableau is fraction-free. Each row is a list of Python ints whose true
value is the list divided by its entry in the row's basic column, which is
kept positive; every row is kept primitive (gcd 1). The cost row carries
its own positive scale in one extra last cell. A pivot on entry pc of the
pivot row turns each other row with entry tc in that column into
pc*row - tc*pivot_row (negating the pivot row first when pc < 0, which
only the artificial drive-out meets), and rows with tc == 0 are left alone.

Scaling a row by a positive number changes neither the sign of a cell nor
the ratio of two cells, and those are all the pivot rules read: the sign
tests run on the ints, and the ratio test compares rhs_i*a_best with
rhs_best*a_i. So every entering, leaving and drive-out choice, and the
solution, are exactly those of the same simplex run on a Fraction tableau.
Values become Fractions only in the returned LPResult.

Columns are numbered in the logical order structural | slack | artificial,
with one artificial per row that starts without a basic slack, in row
order; Bland's rule and the basis read these numbers. Only structural |
slack | equality-row artificial | rhs columns are stored. A <= row with a
negative right-hand side is negated, so its slack coefficient is -1 and
its artificial's +1, and that artificial's column is minus its slack's in
every row at every basis, because pivots are row operations. In the
phase-one cost row it costs 1 where the slack costs 0, so its cell there
is obj[-1] - obj[slack] (d_a = 1 - d_s). Such a "mirrored" artificial is
read off its slack wherever a rule reads its column (the entering scan,
the ratio test, the pivot, the cost row's basic entries), so every choice
sees the values a full tableau holds and no choice moves. The removed
cells are minus cells kept in the same row, so even the gcds, and with
them every stored int, are those of the full tableau. A problem with n
variables, m <= rows and e equality rows stores n + m + e + 1 columns
instead of n + m + (<= rows with a negative rhs) + e + 1; for the core LP,
whose <= rows all have one, that is about half.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: "tuple[Fraction, ...] | None" = None
    objective: "Fraction | None" = None


class _Tableau(list):
    """The stored rows, and where each logical column is stored: source[j]
    is its stored column, or ~s for a mirrored artificial, minus column s."""

    __slots__ = ("source",)

    def __init__(self, rows, source):
        super().__init__(rows)
        self.source = source


def solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), *, maximize=False) -> LPResult:
    """Optimize c.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Minimizes unless maximize=True. Inputs are ints, Fractions, or anything
    Fraction accepts; right-hand sides may be negative.
    """
    c = [_exact(v) for v in c]
    if maximize:
        c = [-v for v in c]
    n = len(c)

    rows = []  # (coeffs, rhs, needs_slack)
    for coeffs, rhs in zip(a_ub, b_ub, strict=True):
        coeffs = [_exact(v) for v in coeffs]
        if len(coeffs) != n:
            raise ValueError("constraint width does not match objective")
        rows.append((coeffs, _exact(rhs), True))
    for coeffs, rhs in zip(a_eq, b_eq, strict=True):
        coeffs = [_exact(v) for v in coeffs]
        if len(coeffs) != n:
            raise ValueError("constraint width does not match objective")
        rows.append((coeffs, _exact(rhs), False))

    # Stored layout: structural | slack | equality artificial | rhs, so row
    # k's slack or artificial is stored column n + k. Each row is multiplied
    # by its common denominator, negated with the rhs. mirrored lists the
    # slack columns of the <= rows with a negative rhs, whose artificials
    # are not stored; those rows come first, so their artificials are
    # numbered before the equality rows' ones.
    n_slack = sum(1 for _, _, s in rows if s)
    real = n + n_slack
    width = n + len(rows)
    stored, basis, mirrored = [], [], []
    for k, (coeffs, rhs, needs_slack) in enumerate(rows):
        scale = reduce(lcm, (v.denominator for v in coeffs), rhs.denominator)
        if rhs < 0:
            scale = -scale
        row = [v.numerator * (scale // v.denominator) for v in coeffs]
        row += [0] * (width - n)
        row.append(rhs.numerator * (scale // rhs.denominator))
        if not needs_slack:
            row[n + k] = abs(scale)
            basis.append(n + k + len(mirrored))
        else:
            row[n + k] = scale
            if rhs < 0:
                basis.append(real + len(mirrored))
                mirrored.append(n + k)
            else:
                basis.append(n + k)
        stored.append(_primitive(row))
    tableau = _Tableau(stored, [*range(real), *(~s for s in mirrored), *range(real, width)])

    if len(tableau.source) > real:
        cost1 = [0] * real + [1] * (width - real) + [0]
        obj = _reduced_row(cost1, tableau, basis)
        _pivot_until_optimal(tableau, basis, obj)
        if obj[-2] != 0:  # leftover artificial infeasibility
            return LPResult("infeasible")
        _drive_out_artificials(tableau, basis, real)
        tableau = _Tableau([row[:real] + [row[-1]] for row in tableau], range(real))

    cost2 = c + [0] * (real - n + 1)
    obj = _reduced_row(cost2, tableau, basis)
    if not _pivot_until_optimal(tableau, basis, obj):
        return LPResult("unbounded")

    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tableau[i][-1], tableau[i][b])
    value = Fraction(-obj[-2], obj[-1])
    if maximize:
        value = -value
    return LPResult("optimal", tuple(x), value)


def _exact(v):
    """An int or Fraction equal to v; other number types go through Fraction."""
    return v if type(v) is int or type(v) is Fraction else Fraction(v)


def _primitive(row):
    g = gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _cost(obj, t):
    """The cost row's cell at source t (see _Tableau)."""
    return obj[t] if t >= 0 else obj[-1] - obj[~t]


def _reduced_row(cost, tableau, basis):
    """Cost row with basic columns zeroed, as ints plus a last scale cell.

    The true cost row is obj[:-1] / obj[-1]; its last true cell holds
    -objective. cost covers the stored columns and the rhs.
    """
    scale = reduce(lcm, (v.denominator for v in cost), 1)
    obj = [v.numerator * (scale // v.denominator) for v in cost] + [scale]
    for i, b in enumerate(basis):
        t = tableau.source[b]
        factor = _cost(obj, t)
        if factor == 0:
            continue
        row = tableau[i]
        pc = row[t] if t >= 0 else -row[~t]
        obj = _primitive([pc * o - factor * r for o, r in zip(obj, row)] + [pc * obj[-1]])
    return obj


def _pivot_until_optimal(tableau, basis, obj) -> bool:
    """Run Bland-rule pivots in place; False means unbounded."""
    source = tableau.source
    while True:
        col = next((j for j, t in enumerate(source) if _cost(obj, t) < 0), None)
        if col is None:
            return True
        t = source[col]
        sign, j = (1, t) if t >= 0 else (-1, ~t)
        row = None
        for i, trow in enumerate(tableau):
            a = sign * trow[j]
            if a <= 0:
                continue
            if row is None:
                row, rhs_best, a_best = i, trow[-1], a
                continue
            # rhs_i / a_i against rhs_best / a_best, with both a > 0
            here, best = trow[-1] * a_best, rhs_best * a
            if here < best or (here == best and basis[i] < basis[row]):
                row, rhs_best, a_best = i, trow[-1], a
        if row is None:
            return False
        _pivot(tableau, basis, obj, row, col)


def _pivot(tableau, basis, obj, row, col):
    """Make logical column col basic in row; obj (if given) is updated in place."""
    t = tableau.source[col]
    sign, j = (1, t) if t >= 0 else (-1, ~t)
    prow = tableau[row]
    pc = sign * prow[j]
    if pc < 0:
        pc = -pc
        tableau[row] = prow = [-v for v in prow]
    basis[row] = col
    for i, target in enumerate(tableau):
        tc = sign * target[j]
        if tc == 0 or i == row:
            continue
        tableau[i] = _primitive([pc * x - tc * p for x, p in zip(target, prow)])
    if obj is not None:
        oc = _cost(obj, t)
        if oc != 0:
            obj[:] = _primitive([pc * o - oc * p for o, p in zip(obj, prow)] + [pc * obj[-1]])


def _drive_out_artificials(tableau, basis, real_width):
    """Pivot zero-level artificials onto real columns; drop redundant rows."""
    i = 0
    while i < len(tableau):
        if basis[i] < real_width:
            i += 1
            continue
        col = next((j for j in range(real_width) if tableau[i][j] != 0), None)
        if col is None:
            del tableau[i]
            del basis[i]
            continue
        _pivot(tableau, basis, None, i, col)
        i += 1
