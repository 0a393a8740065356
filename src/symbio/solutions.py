"""Fairness and stability solution concepts.

`shapley` is the Shapley allocation by the subset formula, O(n 2^n);
`shapley_bruteforce` averages over all n! orderings as its cross-check
oracle. Core decisions run as exact LP feasibility with a constructive
witness, cross-checkable against an independent vertex enumeration. A
game is implementable when its Shapley allocation sits in its core: fair
and stable at once.

Functions read a game's n_agents and mask-indexed value `table`, empty
set and singletons included; ISNGame and CoordinatedGame both qualify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from .errors import BoundExceeded, LengthMismatch
from .games import as_money

#: n! orderings stop being desk scale beyond this.
FACTORIAL_BOUND = 9


@dataclass(frozen=True)
class CoreResult:
    """Core feasibility verdict; witness is present iff nonempty."""

    nonempty: bool
    witness: "tuple[Fraction, ...] | None" = None


def shapley(game) -> "tuple[Fraction, ...]":
    """phi_i = sum over S without i of |S|!(n-|S|-1)!/n! (v(S+i) - v(S))."""
    n = game.n_agents
    vals = game.table
    # gains[i][k]: total marginal contribution of i to the coalitions of size k
    gains = [[Fraction(0)] * n for _ in range(n)]
    for mask in range(1 << n):
        k = mask.bit_count()
        for i in range(n):
            if not mask >> i & 1:
                gains[i][k] += vals[mask | 1 << i] - vals[mask]
    weights = [Fraction(factorial(k) * factorial(n - k - 1), factorial(n)) for k in range(n)]
    return tuple(sum((w * g for w, g in zip(weights, row)), Fraction(0)) for row in gains)


def shapley_bruteforce(game) -> "tuple[Fraction, ...]":
    """Average marginal contribution over all n! agent orderings."""
    n = game.n_agents
    if n > FACTORIAL_BOUND:
        raise BoundExceeded(f"factorial Shapley is capped at {FACTORIAL_BOUND} agents")
    vals = game.table
    totals = [Fraction(0)] * n
    count = 0
    for order in permutations(range(n)):
        count += 1
        mask = 0
        for i in order:
            totals[i] += vals[mask | (1 << i)] - vals[mask]
            mask |= 1 << i
    return tuple(t / count for t in totals)


def in_core(game, x) -> bool:
    """Efficiency plus every coalition getting at least its own worth.

    Weak inequalities: an allocation exactly on a constraint boundary is
    in the core.
    """
    n = game.n_agents
    x = tuple(as_money(v) for v in x)
    if len(x) != n:
        raise LengthMismatch(f"allocation has {len(x)} entries, game has {n} agents")
    vals = game.table
    full = (1 << n) - 1
    if sum(x) != vals[full]:
        return False
    for mask in range(1, full):
        total = sum(x[i] for i in range(n) if mask >> i & 1)
        if total < vals[mask]:
            return False
    return True


def core_nonempty(game) -> CoreResult:
    """Decide core feasibility exactly and produce a witness point.

    Solved as an LP in the slack above singleton worths: rows for proper
    coalitions whose worth exceeds their members' standalone total, one
    efficiency equality, phase-one simplex for feasibility.
    """
    from .lp import solve_lp

    n = game.n_agents
    vals = game.table
    full = (1 << n) - 1
    singles = [vals[1 << i] for i in range(n)]
    budget = vals[full] - sum(singles)
    if budget < 0:
        return CoreResult(False)

    a_ub, b_ub = [], []
    for mask in range(1, full):
        if mask.bit_count() < 2:
            continue
        floor = vals[mask] - sum(singles[i] for i in range(n) if mask >> i & 1)
        if floor <= 0:
            continue
        a_ub.append([-Fraction(mask >> i & 1) for i in range(n)])
        b_ub.append(-floor)
    result = solve_lp(
        [Fraction(0)] * n, a_ub=a_ub, b_ub=b_ub, a_eq=[[Fraction(1)] * n], b_eq=[budget]
    )
    if result.status != "optimal":
        return CoreResult(False)
    witness = tuple(y + s for y, s in zip(result.x, singles, strict=True))
    return CoreResult(True, witness)


def core_nonempty_by_enumeration(game) -> CoreResult:
    """Independent core decision: try every potential vertex.

    The core is a bounded polyhedron, so if it is nonempty it has a vertex
    where the efficiency equality plus n-1 coalition constraints are tight.
    Solve each such square system exactly and test the candidate against
    all constraints. Exponential; meant as a cross-check oracle for small n.
    """
    n = game.n_agents
    vals = game.table
    full = (1 << n) - 1
    proper = [mask for mask in range(1, full)]
    eff_row = ([Fraction(1)] * n, vals[full])

    def feasible(x):
        if sum(x) != vals[full]:
            return False
        return all(
            sum(x[i] for i in range(n) if mask >> i & 1) >= vals[mask] for mask in proper
        )

    for tight in combinations(proper, n - 1):
        rows = [eff_row] + [
            ([Fraction(mask >> i & 1) for i in range(n)], vals[mask]) for mask in tight
        ]
        x = _solve_square([r[0] for r in rows], [r[1] for r in rows])
        if x is not None and feasible(x):
            return CoreResult(True, tuple(x))
    return CoreResult(False)


def _solve_square(a, b):
    """Gaussian elimination over Fractions; None when singular."""
    n = len(b)
    m = [list(row) + [rhs] for row, rhs in zip(a, b, strict=True)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * p for v, p in zip(m[r], m[col], strict=True)]
    return [m[r][n] for r in range(n)]


def is_implementable(game) -> bool:
    """Fair and stable at once: the Shapley allocation lies in the core."""
    return in_core(game, shapley(game))
