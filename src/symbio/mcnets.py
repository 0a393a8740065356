"""Rule-based game representation (basic marginal-contribution nets).

A rule (positive, negative) -> value applies to a coalition S when every
positive agent is in S and no negative agent is. A net's worth for S is the sum
of the values of its rules that apply, and its Shapley value the sum of one
closed form per rule (Ieong & Shoham, EC 2005). Games and incentive regulations
share this representation, which is what makes coordinating them a
concatenation. A net keeps its rules as ints, like ISNGame: `terms`, (positive
mask, negative mask, numerator) triples over `denominator`, the values' lcm;
`rules` is a view.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import cache, cached_property
from math import factorial, lcm

from .errors import SymbioError
from .games import ISNGame, as_money, check_roster, coalition, mask_of, members_of
from .records import Record


class MCNetRule(Record):
    """positive/negative agent patterns, each read by coalition, mapped to a nonzero value."""

    _shown = _compared = ("positive", "negative", "value")

    def __init__(self, positive: frozenset, negative: frozenset, value: Fraction):
        positive, negative, value = coalition(positive), coalition(negative), as_money(value)
        if positive & negative:
            raise SymbioError("positive and negative patterns must be disjoint")
        if not positive and not negative:
            raise SymbioError("a rule must mention at least one agent")
        if value == 0:
            raise SymbioError("rule values must be nonzero")
        self.__dict__.update(positive=positive, negative=negative, value=value)


class MCNet(Record):
    """Ordered MCNetRules on a roster, by position; check_roster reads their ids' union once."""

    _shown = ("n_agents", "rules")
    _compared = ("n_agents", "terms", "denominator")

    def __init__(self, n_agents: int, rules: "tuple[MCNetRule, ...]"):
        rules = tuple(rules)
        for r in rules:
            if not isinstance(r, MCNetRule):
                raise SymbioError(f"net rules must be MCNetRule objects, got {r!r}")
        check_roster(frozenset().union(*(r.positive for r in rules), *(r.negative for r in rules)),
                     n_agents)
        d, terms = lcm(*(r.value.denominator for r in rules)), []
        for r in rules:
            if len(r.negative) == n_agents:
                raise SymbioError("negative pattern may not be the whole roster")
            terms.append((mask_of(r.positive), mask_of(r.negative),
                          r.value.numerator * (d // r.value.denominator)))
        self.__dict__.update(n_agents=n_agents, terms=tuple(terms), denominator=d)

    @cached_property
    def rules(self) -> "tuple[MCNetRule, ...]":
        """The terms as MCNetRules, made on first read with no check, each
        mask's members once (a canonical net's masks recur as complements)."""
        d, members = self.denominator, cache(members_of)
        return tuple(MCNetRule._of(positive=members(p), negative=members(q), value=Fraction(v, d))
                     for p, q, v in self.terms)


def evaluate(net: MCNet, s: Iterable[int]) -> Fraction:
    """Sum of the values of the rules that apply to s."""
    s = mask_of(check_roster(s, net.n_agents))
    return Fraction(sum(v for p, q, v in net.terms if p & s == p and not q & s), net.denominator)


def from_isn_game(game: ISNGame) -> MCNet:
    """Canonical net of a normalized game: one rule per valued coalition.

    For every S with nonzero worth (two or more members), in mask order, the
    rule (S, roster minus S) -> v(S) as the term (mask, full ^ mask,
    scaled[mask]) over the game's denominator. Exactly one applies to any
    coalition, so evaluation reproduces the game. No mask needs an id check.
    """
    n, scaled, full = game.n_agents, game.scaled, (1 << game.n_agents) - 1
    terms = tuple((mask, full ^ mask, scaled[mask]) for mask in range(1 << n) if scaled[mask])
    return MCNet._of(n_agents=n, terms=terms, denominator=game.denominator)


def rule_shapley(rule: MCNetRule, n_agents: int) -> "tuple[Fraction, ...]":
    """Shapley allocation of a single rule's indicator game: the one-rule net."""
    return net_shapley(MCNet(n_agents, (rule,)))


def net_shapley(net: MCNet) -> "tuple[Fraction, ...]":
    """Shapley allocation of a net: one closed form per term, by linearity.

    A rule with p positive and q negative agents gives each positive agent
    value * (p-1)! q! / (p+q)!, each negative one -value * p! (q-1)! / (p+q)!
    and the rest zero. The sums are ints over the net's denominator times
    m!, m the largest p + q (every (p+q)! divides m!); MCNet checked the roster.
    """
    m = max((p.bit_count() + q.bit_count() for p, q, _ in net.terms), default=0)
    f, out = [factorial(k) for k in range(m + 1)], [0] * net.n_agents
    for positive, negative, v in net.terms:
        p, q = positive.bit_count(), negative.bit_count()
        v = v * f[m] // f[p + q]
        gain, loss = v * f[p - 1] * f[q] if p else 0, v * f[p] * f[q - 1] if q else 0
        for i in range(net.n_agents):
            if positive >> i & 1:
                out[i] += gain
            elif negative >> i & 1:
                out[i] -= loss
    return tuple(Fraction(x, net.denominator * f[m]) for x in out)


def compose(a: MCNet, b: MCNet) -> MCNet:
    """Concatenate rule lists over one denominator: evaluation becomes the sum of both nets."""
    if a.n_agents != b.n_agents:
        raise SymbioError(f"rosters differ: {a.n_agents} vs {b.n_agents}")
    d = lcm(a.denominator, b.denominator)
    terms = tuple((p, q, v * (d // net.denominator)) for net in (a, b) for p, q, v in net.terms)
    return MCNet._of(n_agents=a.n_agents, terms=terms, denominator=d)
