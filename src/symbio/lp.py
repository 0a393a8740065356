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

    # Column layout: structural | slack | artificial | rhs. A row gets an
    # artificial unless it has a slack and a nonnegative right-hand side
    # (rows with a negative one are negated, which turns the slack to -1).
    # Each row is multiplied by its common denominator, negated with the rhs.
    n_slack = sum(1 for _, _, s in rows if s)
    n_art = sum(1 for _, rhs, s in rows if not s or rhs < 0)
    width = n + n_slack + n_art
    tableau = []
    basis = []
    slack_col = n
    art_col = n + n_slack
    for coeffs, rhs, needs_slack in rows:
        scale = reduce(lcm, (v.denominator for v in coeffs), rhs.denominator)
        if rhs < 0:
            scale = -scale
        row = [v.numerator * (scale // v.denominator) for v in coeffs]
        row += [0] * (width - n)
        row.append(rhs.numerator * (scale // rhs.denominator))
        if needs_slack:
            row[slack_col] = scale
            slack_col += 1
        if needs_slack and rhs >= 0:
            basis.append(slack_col - 1)
        else:
            row[art_col] = abs(scale)
            basis.append(art_col)
            art_col += 1
        tableau.append(_primitive(row))

    if n_art:
        cost1 = [0] * (n + n_slack) + [1] * n_art + [0]
        obj = _reduced_row(cost1, tableau, basis)
        _pivot_until_optimal(tableau, basis, obj, width)
        if obj[-2] != 0:  # leftover artificial infeasibility
            return LPResult("infeasible")
        _drive_out_artificials(tableau, basis, n + n_slack)
        width = n + n_slack
        tableau = [row[:width] + [row[-1]] for row in tableau]

    cost2 = c + [0] * (width - n + 1)
    obj = _reduced_row(cost2, tableau, basis)
    if not _pivot_until_optimal(tableau, basis, obj, width):
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
    # reduce, not gcd(*row): on short rows CPython keeps the star-args
    # tuples in its tuple free lists, which raised peak memory measurably.
    g = reduce(gcd, row)
    return row if g == 1 else [v // g for v in row]


def _reduced_row(cost, tableau, basis):
    """Cost row with basic columns zeroed, as ints plus a last scale cell.

    The true cost row is obj[:-1] / obj[-1]; its last true cell holds
    -objective.
    """
    scale = reduce(lcm, (v.denominator for v in cost), 1)
    obj = [v.numerator * (scale // v.denominator) for v in cost] + [scale]
    for i, b in enumerate(basis):
        factor = obj[b]
        if factor == 0:
            continue
        row = tableau[i]
        pc = row[b]
        obj = _primitive([pc * o - factor * r for o, r in zip(obj, row)] + [pc * obj[-1]])
    return obj


def _pivot_until_optimal(tableau, basis, obj, width) -> bool:
    """Run Bland-rule pivots in place; False means unbounded."""
    while True:
        col = next((j for j in range(width) if obj[j] < 0), None)
        if col is None:
            return True
        row = None
        for i, trow in enumerate(tableau):
            a = trow[col]
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
    """Make col basic in row; obj (if given) is updated in place."""
    prow = tableau[row]
    pc = prow[col]
    if pc < 0:
        pc = -pc
        tableau[row] = prow = [-v for v in prow]
    basis[row] = col
    for i, target in enumerate(tableau):
        tc = target[col]
        if tc == 0 or i == row:
            continue
        tableau[i] = _primitive([pc * t - tc * p for t, p in zip(target, prow)])
    if obj is not None and obj[col] != 0:
        oc = obj[col]
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
