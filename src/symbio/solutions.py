"""Fairness and stability solution concepts.

`shapley` is the Shapley allocation by the subset formula, O(n 2^n).
Core decisions run as exact LP feasibility with a constructive witness;
`in_core` checks one allocation against every coalition. A game is
implementable when its Shapley allocation sits in its core: fair and
stable at once. The slow oracles these are tested against (permutation
average, vertex enumeration) live with the tests, not here.

Functions read a game's n_agents and mask-indexed value `table`, empty
set and singletons included; ISNGame and CoordinatedGame both qualify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import SymbioError
from .games import as_money
from .lp import solve_lp


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


def in_core(game, x) -> bool:
    """Efficiency plus every coalition getting at least its own worth.

    Weak inequalities: an allocation exactly on a constraint boundary is
    in the core.
    """
    n = game.n_agents
    x = tuple(as_money(v) for v in x)
    if len(x) != n:
        raise SymbioError(f"allocation has {len(x)} entries, game has {n} agents")
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
        a_ub.append([-(mask >> i & 1) for i in range(n)])
        b_ub.append(-floor)
    result = solve_lp([0] * n, a_ub=a_ub, b_ub=b_ub, a_eq=[[1] * n], b_eq=[budget])
    if result.status != "optimal":
        return CoreResult(False)
    witness = tuple(y + s for y, s in zip(result.x, singles, strict=True))
    return CoreResult(True, witness)


def is_implementable(game) -> bool:
    """Fair and stable at once: the Shapley allocation lies in the core."""
    return in_core(game, shapley(game))
