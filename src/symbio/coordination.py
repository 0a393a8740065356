"""Normative coordination: policies, incentive rules, coordinated games.

A policy promotes some agent groups and prohibits others; every other
group is permitted. The regulator turns the policy into an incentive net,
a plain MC-net whose positive values are subsidies and negative values
taxes: a minimal subsidy on each promoted group's grand coalition (making
the group's Shapley allocation enter its core) and a tax on each
prohibited group pushing its coordinated worth strictly below what its
members get alone. Incentive rules use the exact-group pattern
(S, roster minus S), so they touch no other coalition.

A coordinated game holds its worths as ints over one denominator, like
ISNGame: the base game's ints, rewritten over the lcm of its denominator
and the rules' only when a rule brings a new one, with each rule's value
added as an int. Promotion subsidies are priced on the subgame's ints and
its Shapley value's (solutions._shapley_terms); no table is rescaled and
no table of Fractions is made on the way. Each promoted group's Shapley
value is summed once: the subsidy moves the group's worth alone, so its
coordinated Shapley value is the taxed one plus subsidy / k a member
(additivity), which _enforce hands the CLI with the net.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import SymbioError
from .games import (
    ISNGame, _check_bits, _lowest, _sums, as_money, check_roster, coalition, mask_of, subgame
)
from .mcnets import MCNet, MCNetRule, compose, from_isn_game
from .solutions import _shapley_terms


@dataclass(frozen=True)
class Policy:
    """Groups the authority promotes or prohibits; any other group is permitted.

    Each field becomes a tuple of coalitions in ascending bitmask order.
    Construction enforces every policy rule and raises SymbioError,
    naming the offending groups, when a group has fewer than two agents,
    when a group is listed twice (within a list or across both), or when
    two promoted groups overlap: only pairwise disjoint promotions can all
    be implementable at once.
    """

    promoted: "tuple[frozenset, ...]" = ()
    prohibited: "tuple[frozenset, ...]" = ()

    def __post_init__(self):
        seen = set()
        for name in "promoted", "prohibited":
            groups = tuple(sorted(map(coalition, getattr(self, name)), key=mask_of))
            for group in groups:
                if len(group) < 2:
                    raise SymbioError("group {} has fewer than two agents", group)
                if group in seen:
                    raise SymbioError("group {} labeled twice", group)
                seen.add(group)
            object.__setattr__(self, name, groups)
        for i, a in enumerate(self.promoted):
            for b in self.promoted[i + 1 :]:
                if a & b:
                    raise SymbioError("promoted groups overlap: {} and {}", a, b)


@dataclass(frozen=True)
class CoordinatedGame:
    """Market game plus incentives: worth is v(S) + incentive(S).

    The worths are tabulated once, into mask-indexed `scaled` ints over
    `denominator` in lowest terms, like ISNGame's; rules may make the empty
    set and singletons nonzero. The table is first written over the lcm of
    the base denominator and the rules', held to games.SCALED_BITS.
    """

    base: ISNGame
    incentives: MCNet
    scaled: tuple = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.base.n_agents
        if n != self.incentives.n_agents:
            raise SymbioError(f"game has {n} agents, incentives {self.incentives.n_agents}")
        table, d = self.base.scaled, self.base.denominator
        new = lcm(d, *(rule.value.denominator for rule in self.incentives.rules))
        if new == d:
            table = list(table)
        else:
            _check_bits(len(table), new)
            table = [v * (new // d) for v in table]
        for rule in self.incentives.rules:
            value = rule.value.numerator * (new // rule.value.denominator)
            # the rule applies to positive | t for every t outside both patterns
            positive = mask_of(rule.positive)
            free = ((1 << n) - 1) & ~(positive | mask_of(rule.negative))
            t = free
            while True:
                table[positive | t] += value
                if not t:
                    break
                t = (t - 1) & free
        table, new = _lowest(table, new)
        object.__setattr__(self, "scaled", table)
        object.__setattr__(self, "denominator", new)

    @property
    def n_agents(self) -> int:
        return self.base.n_agents

    table = ISNGame.table
    value = ISNGame.value

    def as_mcnet(self) -> MCNet:
        return compose(from_isn_game(self.base), self.incentives)


def _promotion(game, target: frozenset):
    """(rule, amount, (phi, den)): synthesize_promotion's answer and the
    target's Shapley value once its subsidy is paid, phi_i / den per member.

    The subsidized subgame differs from the unsubsidized one only at the
    group itself, so by additivity its Shapley value is the first one plus
    amount / k for each of the k members: with amount gap k / (size den),
    each share is (phi_i size + gap) / (size den), and no second sum runs.
    """
    sub = subgame(game, target)
    phi, den = _shapley_terms(sub)
    shares, vals, f = _sums(phi), sub.scaled, den // sub.denominator  # f = k!
    k = sub.n_agents
    gap, size = 0, 1  # the largest (v(S) - shapley(S)) / |S| so far is gap / (size den)
    for mask in range(1, (1 << k) - 1):
        g = vals[mask] * f - shares[mask]
        if g * size > gap * mask.bit_count():
            gap, size = g, mask.bit_count()
    needed = Fraction(gap * k, size * den)
    rule = MCNetRule(target, frozenset(range(game.n_agents)) - target, needed) if gap else None
    return rule, needed, ([v * size + gap for v in phi], size * den)


def synthesize_promotion(game, target: Iterable[int]):
    """Minimal subsidy making the target group fair-and-stable.

    Returns (rule, amount). Subsidizing the group's grand coalition by x
    lifts each member's Shapley payoff by x/|target| while leaving proper
    subsets untouched, so the smallest sufficient subsidy is
    max over proper nonempty S of (v(S) - shapley(S)) * |target| / |S|,
    clamped at zero. When zero, no rule is emitted (rule is None). The
    scan compares v(S) k! with the Shapley shares' sum, both ints over k! d
    (solutions._shapley_terms).
    """
    target = coalition(target)
    if len(target) < 2:
        raise SymbioError("promotion targets need at least two members")
    rule, needed, _ = _promotion(game, target)
    return rule, needed


def synthesize_prohibition(game, target: Iterable[int], epsilon) -> "MCNetRule | None":
    """Tax wiping out the target's worth and epsilon more.

    The coordinated worth becomes -epsilon < 0, so members do strictly
    better splitting up. Returns None only in the degenerate case where
    the target already sits exactly at -epsilon (a zero-valued rule is not
    representable, and none is needed).
    """
    target = coalition(target)
    epsilon = as_money(epsilon)
    if len(target) < 2:
        raise SymbioError("prohibition targets need at least two members")
    if epsilon <= 0:
        raise SymbioError("prohibition margin must be > 0")
    tax = -(game.value(target) + epsilon)
    if tax == 0:
        return None
    rest = frozenset(range(game.n_agents)) - target
    return MCNetRule(target, rest, tax)


def _enforce(game: ISNGame, policy: Policy, epsilon) -> "tuple[MCNet, dict]":
    """(enforce_policy's net, {promoted group: (its subsidy, its Shapley
    terms (phi, den) in the coordinated game)}), the subsidy 0 when the
    group needs no rule and phi over the group's own dense ids
    (_promotion). Promoted groups are disjoint and every rule touches its
    own group alone, so a group's coordinated subgame is its taxed one plus
    its own subsidy."""
    for group in policy.promoted + policy.prohibited:
        check_roster(group, game.n_agents)

    taxes = []
    for group in policy.prohibited:
        rule = synthesize_prohibition(game, group, epsilon)
        if rule is not None:
            taxes.append(rule)
    taxed = CoordinatedGame(game, MCNet(game.n_agents, tuple(taxes)))

    subsidies, promoted = [], {}
    for group in policy.promoted:
        rule, subsidy, terms = _promotion(taxed, group)
        promoted[group] = subsidy, terms
        if rule is not None:
            subsidies.append(rule)
    return MCNet(game.n_agents, tuple(subsidies) + tuple(taxes)), promoted


def enforce_policy(game: ISNGame, policy: Policy, epsilon=Fraction(1)) -> MCNet:
    """Incentive net realizing a policy over the whole roster.

    Prohibition taxes are synthesized first; promotion subsidies are then
    computed against the tax-coordinated game, so a prohibited group nested
    inside a promoted one is priced in. Exact-group rules guarantee that
    permitted groups keep their market worth.
    """
    return _enforce(game, policy, epsilon)[0]
