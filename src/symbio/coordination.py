"""Normative coordination: policies, incentive rules, coordinated games.

A policy promotes some agent groups and prohibits others; every other
group is permitted. The regulator turns the policy into an incentive net,
a plain MC-net whose positive values are subsidies and negative values
taxes: a minimal subsidy on each promoted group's grand coalition (making
the group's Shapley allocation enter its core) and a tax on each
prohibited group pushing its coordinated worth strictly below what its
members get alone. Incentive rules use the exact-group pattern
(S, roster minus S), so they touch no other coalition. _enforce is their
one implementation, writing each as the term (mask, full ^ mask, numerator)
over the values' lcm; the single-group synthesizers are one-group policies.

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

from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from .errors import SymbioError
from .games import ISNGame, _check_bits, _lowest, _sums, as_money, coalition, mask_of, subgame
from .mcnets import MCNet, compose, from_isn_game
from .records import Record
from .solutions import _shapley_terms


class Policy(Record):
    """Groups the authority promotes or prohibits; any other group is permitted.

    Each field becomes a tuple of coalitions in ascending bitmask order, read
    off the ids. Construction enforces every policy rule and raises SymbioError,
    naming the offending groups, when a group has fewer than two agents,
    when a group is listed twice (within a list or across both), or when
    two promoted groups overlap: only pairwise disjoint promotions can all
    be implementable at once.
    """

    _shown = _compared = ("promoted", "prohibited")

    def __init__(self, promoted: "tuple[frozenset, ...]" = (),
                 prohibited: "tuple[frozenset, ...]" = ()):
        seen, fields = set(), {}
        for name, groups in ("promoted", promoted), ("prohibited", prohibited):
            # ids compared largest first give bitmask order
            groups = fields[name] = tuple(sorted(map(coalition, groups),
                                                 key=lambda g: sorted(g, reverse=True)))
            for group in groups:
                if len(group) < 2:
                    raise SymbioError("group {} has fewer than two agents", group)
                if group in seen:
                    raise SymbioError("group {} labeled twice", group)
                seen.add(group)
        promoted = fields["promoted"]
        for i, a in enumerate(promoted):
            for b in promoted[i + 1 :]:
                if a & b:
                    raise SymbioError("promoted groups overlap: {} and {}", a, b)
        self.__dict__.update(fields)


class CoordinatedGame(Record):
    """Market game plus incentives: worth is v(S) + incentive(S).

    The worths are tabulated once, into mask-indexed `scaled` ints over
    `denominator` in lowest terms, like ISNGame's; rules may make the empty
    set and singletons nonzero. The table is first written over the lcm of
    the base denominator and the net's, held to games.SCALED_BITS. Only
    base and incentives are compared and shown.
    """

    _shown = _compared = ("base", "incentives")

    def __init__(self, base: ISNGame, incentives: MCNet):
        n = base.n_agents
        if n != incentives.n_agents:
            raise SymbioError(f"game has {n} agents, incentives {incentives.n_agents}")
        table, d = base.scaled, base.denominator
        new = lcm(d, incentives.denominator)
        if new == d:
            table = list(table)
        else:
            _check_bits(len(table), new)
            table = [v * (new // d) for v in table]
        for positive, negative, value in incentives.terms:
            value *= new // incentives.denominator
            # the rule applies to positive | t for every t outside both patterns
            free = ((1 << n) - 1) & ~(positive | negative)
            t = free
            while True:
                table[positive | t] += value
                if not t:
                    break
                t = (t - 1) & free
        table, new = _lowest(table, new)
        self.__dict__.update(base=base, incentives=incentives, scaled=table, denominator=new)

    @property
    def n_agents(self) -> int:
        return self.base.n_agents

    table = ISNGame.table
    value = ISNGame.value

    def as_mcnet(self) -> MCNet:
        return compose(from_isn_game(self.base), self.incentives)


def _promotion(game, target: frozenset) -> "tuple[Fraction, tuple[list, int]]":
    """(amount, (phi, den)): the target's minimal subsidy (synthesize_promotion)
    and its Shapley value once the subsidy is paid, phi_i / den per member.

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
    return Fraction(gap * k, size * den), ([v * size + gap for v in phi], size * den)


def _exact_groups(n: int, priced: list) -> MCNet:
    """The net of (group mask, nonzero value) pairs, each the exact-group
    term (mask, full ^ mask, numerator) over the values' lcm."""
    full, d = (1 << n) - 1, lcm(*(v.denominator for _, v in priced))
    terms = tuple((m, full ^ m, v.numerator * (d // v.denominator)) for m, v in priced)
    return MCNet._of(n_agents=n, terms=terms, denominator=d)


def synthesize_promotion(game, target: Iterable[int]):
    """Minimal subsidy making the target group fair-and-stable.

    Returns (rule, amount). Subsidizing the group's grand coalition by x
    lifts each member's Shapley payoff by x/|target| while leaving proper
    subsets untouched, so the smallest sufficient subsidy is
    max over proper nonempty S of (v(S) - shapley(S)) * |target| / |S|,
    clamped at zero. When zero, no rule is emitted (rule is None). The
    scan compares v(S) k! with the Shapley shares' sum, both ints over k! d
    (solutions._shapley_terms). A one-group policy through _enforce.
    """
    net, promoted = _enforce(game, Policy(promoted=[target]), None)
    [(amount, _)] = promoted.values()
    return next(iter(net.rules), None), amount


def synthesize_prohibition(game, target: Iterable[int], epsilon) -> "MCNetRule | None":
    """Tax wiping out the target's worth and epsilon more.

    The coordinated worth becomes -epsilon < 0, so members do strictly
    better splitting up. Returns None only in the degenerate case where
    the target already sits exactly at -epsilon (a zero-valued rule is not
    representable, and none is needed). A one-group policy through _enforce.
    """
    net, _ = _enforce(game, Policy(prohibited=[target]), epsilon)
    return next(iter(net.rules), None)


def _enforce(game: ISNGame, policy: Policy, epsilon) -> "tuple[MCNet, dict]":
    """(enforce_policy's net, {promoted group: (its subsidy, its Shapley
    terms (phi, den) in the coordinated game)}) by _promotion, the subsidy 0
    when the group needs no rule. The margin is checked when some group is
    prohibited, and each tax is -(v(S) + epsilon). Promoted groups are
    disjoint and every rule touches its own group alone, so a group's
    coordinated subgame is its taxed one plus its own subsidy. Each group's
    roster is checked, by game.value or subgame, before its mask is taken."""
    taxes, subsidies, promoted = [], [], {}
    if policy.prohibited and (epsilon := as_money(epsilon)) <= 0:
        raise SymbioError("prohibition margin must be > 0")
    for group in policy.prohibited:
        tax = -(game.value(group) + epsilon)
        if tax:
            taxes.append((mask_of(group), tax))
    taxed = CoordinatedGame(game, _exact_groups(game.n_agents, taxes)) if taxes else game
    for group in policy.promoted:
        subsidy, _ = promoted[group] = _promotion(taxed, group)
        if subsidy:
            subsidies.append((mask_of(group), subsidy))
    return _exact_groups(game.n_agents, subsidies + taxes), promoted


def enforce_policy(game: ISNGame, policy: Policy, epsilon=Fraction(1)) -> MCNet:
    """Incentive net realizing a policy over the whole roster.

    Prohibition taxes are synthesized first; promotion subsidies are then
    computed against the tax-coordinated game, so a prohibited group nested
    inside a promoted one is priced in. Exact-group rules guarantee that
    permitted groups keep their market worth.
    """
    return _enforce(game, policy, epsilon)[0]
