"""Fairness and stability solution concepts.

`shapley` is the Shapley allocation by the subset formula, summed per
coalition in O(2^n) integer operations. A core decision first scans the
splits {S, N - S} in one O(2^n) integer pass: a split worth more than the
grand coalition proves the core empty with no LP. Otherwise it is one
exact LP: its optimum is the witness of a nonempty core, its optimal dual
the weights of an empty one. Every empty verdict carries balanced weights
(Bondareva 1963, Shapley 1967), a certificate anyone can check in exact
arithmetic. `in_core` checks one allocation against every coalition. A
game is implementable when its Shapley allocation sits in its core: fair
and stable at once. The slow oracles these are tested against
(permutation average, vertex enumeration) live with the tests, not here.

Functions read a game's n_agents and its mask-indexed `scaled` ints over
`denominator` (the lcm of its values' denominators), empty set and
singletons included; ISNGame and CoordinatedGame both qualify. No table
is rescaled: an allocation is ints over a denominator of its own (the
Shapley value's is n! d, _shapley_terms), and _in_core cross-multiplies
each x(S) / dx with v(S) / d. Only public answers are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd
from operator import add, ge

from .errors import SymbioError
from .games import _check_bits, _scaled, _sums, members_of, money_terms
from .lp import solve_lp


@dataclass(frozen=True)
class CoreResult:
    """Core feasibility verdict: witness iff nonempty, weights iff empty, the
    (coalition, lambda_S) pairs in mask order of a balanced collection worth
    more than v(N) (lambda_S > 0, each agent's sum 1): from a negative
    budget, a split or the core LP's dual (core_nonempty). A certificate,
    not part of the verdict, they take no part in ==.
    """

    nonempty: bool
    witness: "tuple[Fraction, ...] | None" = None
    weights: "tuple[tuple[frozenset, Fraction], ...] | None" = field(default=None, compare=False)


def _shapley_terms(game) -> "tuple[list[int], int]":
    """(phi, n! d): phi_i = sum over S without i of w(|S|) (v(S+i) - v(S)) / n!,
    where w(k) = k! (n-k-1)!, as ints over n! d for the game's denominator d.

    Summed per coalition instead of per marginal: S enters n! phi_i with
    weight w(|S|-1) when it holds i and -w(|S|) when it does not, so n! phi_i
    is the sum over S holding i of (w(|S|-1) + w(|S|)) v(S), less the sum of
    w(|S|) v(S) over all S. The sums run on the game's ints over d. Agent
    n-1's sum is over the upper half of the weighted table; adding that half
    onto the lower one leaves the same sums for agents 0..n-2, so the pass
    costs O(2^n) list operations.
    """
    n = game.n_agents
    vals = game.scaled
    # w[n] = 0: no coalition without i has n members (w[-1], read for the
    # empty set, which holds no agent, is that 0 too)
    w = [factorial(k) * factorial(n - k - 1) for k in range(n)] + [0]
    sizes = [mask.bit_count() for mask in range(1 << n)]
    outside = sum(w[k] * v for k, v in zip(sizes, vals))
    weighted = [(w[k - 1] + w[k]) * v for k, v in zip(sizes, vals)]
    phi = [0] * n
    for i in reversed(range(n)):
        lower, upper = weighted[: 1 << i], weighted[1 << i :]
        phi[i] = sum(upper) - outside
        weighted = list(map(add, lower, upper))
    return phi, factorial(n) * game.denominator


def shapley(game) -> "tuple[Fraction, ...]":
    """The Shapley allocation, one Fraction per agent (_shapley_terms)."""
    phi, den = _shapley_terms(game)
    return tuple(Fraction(v, den) for v in phi)


def _in_core(game, xs, dx) -> bool:
    """Whether the allocation xs / dx is in the game's core: x(S) >= v(S) for
    every S, with equality for the grand coalition. With g = gcd(d, dx),
    x(S) / dx >= v(S) / d is x(S) (d / g) >= v(S) (dx / g), one product a
    side per coalition and none stored."""
    g = gcd(game.denominator, dx)
    a, b = game.denominator // g, dx // g
    sums, vals = _sums(xs), game.scaled
    full = len(sums) - 1
    return sums[full] * a == vals[full] * b and all(
        map(ge, map(a.__mul__, sums[1:full]), map(b.__mul__, vals[1:full])))


def in_core(game, x) -> bool:
    """Efficiency plus every coalition getting at least its own worth.

    Weak inequalities: an allocation exactly on a constraint boundary is
    in the core. x is read by games.money_terms and scaled by games._scaled
    over its own denominator, held to SCALED_BITS for the 2^n sums _in_core
    makes of it.
    """
    n = game.n_agents
    terms = [money_terms(v) for v in x]
    if len(terms) != n:
        raise SymbioError(f"allocation has {len(terms)} entries, game has {n} agents")
    xs, dx = _scaled([num for num, _ in terms], [den for _, den in terms])
    _check_bits(1 << n, dx)
    return _in_core(game, xs, dx)


def _split(vals) -> int:
    """A mask S, nonempty and without the top agent, with v(S) + v(N - S) >
    v(N), the split worth most (the lowest S of a tie); 0 if there is none.

    Each split {S, N - S} is read once, from its side without the top agent,
    and v(N - S) is vals read backwards (N - S is full - S), so the scan is
    one map over two slices. The empty set takes no part.
    """
    full = len(vals) - 1
    half = len(vals) >> 1
    worth = list(map(add, vals[1:half], vals[full - 1 : half - 1 : -1]))
    best = max(worth, default=vals[full])
    return worth.index(best) + 1 if best > vals[full] else 0


def core_nonempty(game) -> CoreResult:
    """Decide core feasibility exactly: a witness point, or balanced weights.

    An empty core shows first where it is cheapest to see. A grand coalition
    worth less than its members alone (a negative budget) has weight 1 on
    each singleton. Then _split scans every split {S, N - S}: one worth more
    than v(N) has weight 1 on S and on N - S. Neither builds a row.

    Otherwise one LP in the slack y above singleton worths: a row
    y(S) - s_S <= floor, with a surplus s_S, for each proper coalition S
    worth floor > 0 more than its members alone, and y(N) <= budget, the
    grand coalition's worth beyond theirs. c is the rows' column sums, so
    the LP maximizes the sum of their left sides, which reaches the sum of
    their right-hand sides exactly when y(S) >= floor for every S and
    y(N) = budget: the core is nonempty, and the optimum is the witness.
    That objective differs by a constant from phase one's on the same rows
    as equalities, each with an artificial in its slack's place, so Bland's
    rule makes phase one's pivots. The rows are the table's ints over its
    denominator d, which scales every right-hand side by d and moves no
    pivot. Agent i's share, slack y / q over d, is the Fraction
    (y + alone_i q) / (q d). An optimum short of that sum is an empty
    verdict. Its dual (LPResult.dual) prices the rows u_S <= 1 and the
    budget u_N, with sum of 1 - u_S over the S holding i <= u_N - 1
    (column i) and sum floor(S) (1 - u_S) > budget (u_N - 1), so u_N > 1:
    lambda_S = (1 - u_S) / (u_N - 1), topped up to 1 per agent by its
    singleton (floor 0), are weights worth more than v(N).
    """
    n = game.n_agents
    full = (1 << n) - 1
    vals, d = game.scaled, game.denominator
    # alone[S]: the members' standalone worths, summed
    alone = _sums([vals[1 << i] for i in range(n)])
    budget = vals[full] - alone[full]
    if budget < 0:
        return CoreResult(False, weights=tuple((frozenset({i}), Fraction(1)) for i in range(n)))
    split = _split(vals)
    if split:
        return CoreResult(False, weights=((members_of(split), Fraction(1)),
                                          (members_of(full ^ split), Fraction(1))))

    masks, b_ub = [], []
    for mask in range(1, full):
        floor = vals[mask] - alone[mask]  # 0 for a singleton
        if floor > 0:
            masks.append(mask)
            b_ub.append(floor)
    a_ub = [[mask >> i & 1 for i in range(n)] for mask in masks]
    surplus = len(a_ub)
    a_ub.append([1] * n)
    b_ub.append(budget)
    result = solve_lp(list(map(sum, zip(*a_ub))), a_ub=a_ub, b_ub=b_ub, surplus=surplus)
    num, den = result.objective
    if num != sum(b_ub) * den:
        *prices, (un, ud) = result.dual
        weights = {mask: Fraction((q - p) * ud, q * (un - ud))
                   for mask, (p, q) in zip(masks, prices) if p != q}
        tops = [Fraction(1) - sum(w for m, w in weights.items() if m >> i & 1) for i in range(n)]
        weights.update((1 << i, top) for i, top in enumerate(tops) if top)
        return CoreResult(False, weights=tuple((members_of(m), weights[m]) for m in sorted(weights)))
    witness = tuple(Fraction(y + alone[1 << i] * q, q * d) for i, (y, q) in enumerate(result.x))
    return CoreResult(True, witness)


def is_implementable(game) -> bool:
    """Fair and stable at once: the Shapley allocation lies in the core."""
    return _in_core(game, *_shapley_terms(game))
