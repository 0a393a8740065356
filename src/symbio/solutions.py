"""Fairness and stability solution concepts.

`shapley` is the Shapley allocation by the subset formula, summed per
coalition in O(2^n) integer operations. Core decisions run as exact LP
feasibility with a constructive witness; `in_core` checks one allocation
against every coalition. A game is implementable when its Shapley
allocation sits in its core: fair and stable at once. The slow oracles
these are tested against (permutation average, vertex enumeration) live
with the tests, not here.

Functions read a game's n_agents and its mask-indexed `scaled` ints over
`denominator` (the lcm of its values' denominators), empty set and
singletons included; ISNGame and CoordinatedGame both qualify, and
neither table is rescaled here. Answers come back as Fractions. Only an
allocation with a denominator new to the table makes `in_core` rewrite
the table over a larger one (games.scaled_shares), which raises
BoundExceeded past games.SCALED_BITS bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import add, lt

from .errors import SymbioError
from .games import as_money, scaled_shares
from .lp import solve_lp


@dataclass(frozen=True)
class CoreResult:
    """Core feasibility verdict; witness is present iff nonempty."""

    nonempty: bool
    witness: "tuple[Fraction, ...] | None" = None


def shapley(game) -> "tuple[Fraction, ...]":
    """phi_i = sum over S without i of w(|S|) (v(S+i) - v(S)) / n!, where
    w(k) = k! (n-k-1)!.

    Summed per coalition instead of per marginal: S enters n! phi_i with
    weight w(|S|-1) when it holds i and -w(|S|) when it does not, so n! phi_i
    is the sum over S holding i of (w(|S|-1) + w(|S|)) v(S), less the sum of
    w(|S|) v(S) over all S. The sums run on the game's ints over its
    denominator d and are divided once, by n! d. Agent n-1's sum is over
    the upper half of the weighted table; adding that half onto the lower
    one leaves the same sums for agents 0..n-2, so the pass costs O(2^n)
    list operations.
    """
    n = game.n_agents
    vals, d = game.scaled, game.denominator
    # w[n] = 0: no coalition without i has n members (w[-1], read for the
    # empty set, which holds no agent, is that 0 too)
    w = [factorial(k) * factorial(n - k - 1) for k in range(n)] + [0]
    sizes = [mask.bit_count() for mask in range(1 << n)]
    outside = sum(w[k] * v for k, v in zip(sizes, vals))
    weighted = [(w[k - 1] + w[k]) * v for k, v in zip(sizes, vals)]
    phi = [None] * n
    for i in reversed(range(n)):
        lower, upper = weighted[: 1 << i], weighted[1 << i :]
        phi[i] = Fraction(sum(upper) - outside, factorial(n) * d)
        weighted = list(map(add, lower, upper))
    return tuple(phi)


def in_core(game, x) -> bool:
    """Efficiency plus every coalition getting at least its own worth.

    Weak inequalities: an allocation exactly on a constraint boundary is
    in the core. Compared on ints over one denominator (games.scaled_shares).
    """
    n = game.n_agents
    x = tuple(as_money(v) for v in x)
    if len(x) != n:
        raise SymbioError(f"allocation has {len(x)} entries, game has {n} agents")
    vals, shares, _ = scaled_shares(game, x)
    full = (1 << n) - 1
    return shares[full] == vals[full] and not any(map(lt, shares[1:full], vals[1:full]))


def core_nonempty(game) -> CoreResult:
    """Decide core feasibility exactly and produce a witness point.

    A feasibility LP (c = 0) in the slack above singleton worths: rows for
    proper coalitions worth more than their members alone, one efficiency
    equality; the point where phase one stops is the witness. The rows are
    ints over the table's denominator d (games.scaled_shares), which scales
    every right-hand side by d and moves no pivot.
    """
    n = game.n_agents
    full = (1 << n) - 1
    # alone[S]: the members' standalone worths, summed
    vals, alone, d = scaled_shares(game, [game.value({i}) for i in range(n)])
    budget = vals[full] - alone[full]
    if budget < 0:
        return CoreResult(False)

    a_ub, b_ub = [], []
    for mask in range(1, full):
        floor = vals[mask] - alone[mask]  # 0 for a singleton
        if floor <= 0:
            continue
        a_ub.append([-(mask >> i & 1) for i in range(n)])
        b_ub.append(-floor)
    result = solve_lp([0] * n, a_ub=a_ub, b_ub=b_ub, a_eq=[[1] * n], b_eq=[budget])
    if result.status != "optimal":
        return CoreResult(False)
    witness = tuple((y + alone[1 << i]) / d for i, y in enumerate(result.x))
    return CoreResult(True, witness)


def is_implementable(game) -> bool:
    """Fair and stable at once: the Shapley allocation lies in the core."""
    return in_core(game, shapley(game))
