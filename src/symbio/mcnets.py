"""Rule-based game representation (basic marginal-contribution nets).

A rule (positive, negative) -> value applies to a coalition S when every
positive agent is in S and no negative agent is. A net's worth for S is the
sum of the values of its rules that apply, and its Shapley value the sum of
one closed form per rule (Ieong & Shoham, EC 2005). Games and incentive
regulations share this representation, which is what makes coordinating
them a concatenation.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import factorial, lcm

from .errors import SymbioError
from .games import ISNGame, as_money, check_roster
from .records import Record


class MCNetRule(Record):
    """positive/negative agent patterns mapped to a nonzero value; MCNet checks their ids."""

    _shown = _compared = ("positive", "negative", "value")

    def __init__(self, positive: frozenset, negative: frozenset, value: Fraction):
        positive, negative, value = frozenset(positive), frozenset(negative), as_money(value)
        if positive & negative:
            raise SymbioError("positive and negative patterns must be disjoint")
        if not positive and not negative:
            raise SymbioError("a rule must mention at least one agent")
        if value == 0:
            raise SymbioError("rule values must be nonzero")
        self.__dict__.update(positive=positive, negative=negative, value=value)


class MCNet(Record):
    """Ordered rules on a roster, indexed by position; check_roster reads each pattern id."""

    _shown = _compared = ("n_agents", "rules")

    def __init__(self, n_agents: int, rules: "tuple[MCNetRule, ...]"):
        rules = tuple(rules)
        check_roster((i for r in rules for p in (r.positive, r.negative) for i in p), n_agents)
        for rule in rules:
            if len(rule.negative) == n_agents:
                raise SymbioError("negative pattern may not be the whole roster")
        self.__dict__.update(n_agents=n_agents, rules=rules)


def evaluate(net: MCNet, s: Iterable[int]) -> Fraction:
    """Sum of the values of the rules that apply to s."""
    s = check_roster(s, net.n_agents)
    return sum(
        (rule.value for rule in net.rules if rule.positive <= s and not (rule.negative & s)),
        Fraction(0),
    )


def from_isn_game(game: ISNGame) -> MCNet:
    """Canonical net of a normalized game: one rule per valued coalition.

    For every S with two or more members and nonzero worth, emit
    (S, roster minus S) -> v(S), in ascending subset order. Exactly one of
    these rules applies to any coalition, so evaluation reproduces the game.
    Each mask's members are built once, by doubling, and shared by rules.
    """
    n = game.n_agents
    full = (1 << n) - 1
    scaled, d = game.scaled, game.denominator
    sets = [frozenset()]
    for i in range(n):
        sets += [s | {i} for s in sets]
    return MCNet(n, tuple(MCNetRule(sets[mask], sets[full ^ mask], Fraction(scaled[mask], d))
                          for mask in range(1 << n) if mask.bit_count() >= 2 and scaled[mask]))


def rule_shapley(rule: MCNetRule, n_agents: int) -> "tuple[Fraction, ...]":
    """Shapley allocation of a single rule's indicator game: the one-rule net."""
    return net_shapley(MCNet(n_agents, (rule,)))


def net_shapley(net: MCNet) -> "tuple[Fraction, ...]":
    """Shapley allocation of a net: one closed form per rule, by linearity.

    A rule with p positive and q negative agents gives each positive agent
    value * (p-1)! q! / (p+q)!, each negative one -value * p! (q-1)! / (p+q)!
    and the rest zero. The sums are ints over d = lcm(value denominators) * m!,
    m the largest p + q (every (p+q)! divides m!); MCNet checked the roster.
    """
    rules = net.rules
    m = max((len(r.positive) + len(r.negative) for r in rules), default=0)
    d = lcm(*(r.value.denominator for r in rules)) * factorial(m)
    out = [0] * net.n_agents
    for rule in rules:
        p, q = len(rule.positive), len(rule.negative)
        v = rule.value.numerator * (d // rule.value.denominator) // factorial(p + q)
        for i in rule.positive:
            out[i] += v * factorial(p - 1) * factorial(q)
        for i in rule.negative:
            out[i] -= v * factorial(p) * factorial(q - 1)
    return tuple(Fraction(x, d) for x in out)


def compose(a: MCNet, b: MCNet) -> MCNet:
    """Concatenate rule lists; evaluation becomes the sum of both nets."""
    if a.n_agents != b.n_agents:
        raise SymbioError(f"rosters differ: {a.n_agents} vs {b.n_agents}")
    return MCNet(a.n_agents, a.rules + b.rules)
