"""Transferable-utility games over a finite roster of firms.

Agents are dense integer ids 0..n-1. Coalitions are frozensets of ids. A
game stores its worths in `table`, a tuple indexed by coalition bitmask
(table[mask] is v(members of mask), empty set and singletons included);
every kernel reads games through it, which is why construction is capped at
ENUMERATION_BOUND agents. All money amounts are exact rationals
(fractions.Fraction); nothing in this package ever rounds.

The 2^n and 3^n scans (check_superadditive here, shapley, in_core and the
promotion subsidy elsewhere) run on Python ints: scaled_table writes a
table over the lcm of its denominators, and each scan turns its answer
back into Fractions. A table whose 2^n entries times the bit length of
that lcm pass SCALED_BITS (2^28) bits raises BoundExceeded before anything
is scaled.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable, Iterator, Mapping

from .errors import BoundExceeded, SymbioError

#: Dense coalition tables become unreasonable past 2^16 entries.
ENUMERATION_BOUND = 16

#: Most digits, and largest decimal exponent in absolute value, that
#: as_money reads from text. "1e999999999" would otherwise expand to a
#: billion-digit integer before any check could run.
MAX_DIGITS = 1000
MAX_EXPONENT = 1000

#: Most bits a scaled table may take: its entry count times the bit length of
#: its common denominator. Values with many different long denominators make
#: that denominator, and every scaled entry, grow with each one folded in.
SCALED_BITS = 1 << 28

_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def as_money(x) -> Fraction:
    """Coerce ints, strings ("3", "1/2", "0.25") and Decimals to Fraction.

    Binary floats are rejected (TypeError): converting them would silently
    import rounding error into computations that must stay exact. Text with
    more than MAX_DIGITS digits or an exponent beyond +-MAX_EXPONENT is
    rejected (SymbioError) before it is expanded.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a money amount")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Decimal):
        x = str(x)
    if isinstance(x, str):
        if sum(c.isdigit() for c in x) > MAX_DIGITS:
            raise SymbioError(f"number has more than {MAX_DIGITS} digits")
        exponent = _EXPONENT.search(x)
        if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
            raise SymbioError(f"number {x!r} has an exponent beyond {MAX_EXPONENT}")
        return Fraction(x)
    raise TypeError(f"cannot represent {x!r} exactly; use int, Fraction or string")


def coalition(members: Iterable[int]) -> frozenset:
    """Canonicalize an iterable of agent ids into a frozenset."""
    s = frozenset(members)
    for i in s:
        if not isinstance(i, int) or isinstance(i, bool) or i < 0:
            raise SymbioError(f"agent ids must be non-negative integers, got {i!r}")
    return s


def mask_of(members: Iterable[int]) -> int:
    m = 0
    for i in members:
        m |= 1 << i
    return m


def members_of(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def coalitions(n_agents: int, min_size: int = 0) -> Iterator[frozenset]:
    """All coalitions of an n-agent roster in ascending bitmask order."""
    for mask in range(1 << n_agents):
        if mask.bit_count() >= min_size:
            yield members_of(mask)


def scaled_table(values, denominator: int = 1) -> "tuple[list[int], int]":
    """(ints, d) with ints[k] == values[k] * d exactly, for d the lcm of
    `denominator` and the values' denominators.

    Raises BoundExceeded as soon as len(values) * d.bit_length() passes
    SCALED_BITS, before any entry is scaled.
    """
    d = 1
    for q in chain((denominator,), (v.denominator for v in values)):
        if d % q:
            d = lcm(d, q)
            if len(values) * d.bit_length() > SCALED_BITS:
                raise BoundExceeded(
                    f"the common denominator of {len(values)} values needs more than "
                    f"{SCALED_BITS // len(values)} bits (budget: {SCALED_BITS} bits in all)"
                )
    return [v.numerator * (d // v.denominator) for v in values], d


def scaled_shares(table, x) -> "tuple[list[int], list[int], int]":
    """(vals, shares, d): the table, and x(S) = sum of x_i over i in S for
    every mask S, as ints over one denominator d (see scaled_table).

    shares is built one agent at a time: the masks holding agent i are
    those without it, each plus x_i.
    """
    xs, dx = scaled_table(x)
    vals, d = scaled_table(table, dx)
    shares = [0]
    for xi in xs:
        xi *= d // dx
        shares += [s + xi for s in shares]
    return vals, shares, d


def _check_agent_count(n_agents: int) -> None:
    if n_agents < 1:
        raise SymbioError("a game needs at least one agent")
    if n_agents > ENUMERATION_BOUND:
        raise BoundExceeded(
            f"dense coalition table supports at most {ENUMERATION_BOUND} agents"
        )


def zero_table(n_agents: int) -> "list[Fraction]":
    """All-zero value table for n agents, checked against the bound first."""
    _check_agent_count(n_agents)
    return [Fraction(0)] * (1 << n_agents)


@dataclass(frozen=True)
class ISNGame:
    """Normalized TU game: v(S)=0 for |S|<=1, stored values for |S|>=2.

    The value table is a tuple indexed by coalition bitmask, so instances
    are immutable and hashable; reads are safe from any number of threads.
    """

    n_agents: int
    table: tuple

    def __post_init__(self):
        _check_agent_count(self.n_agents)
        if len(self.table) != 1 << self.n_agents:
            raise SymbioError("value table must have one entry per subset")
        if any(self.table[1 << i] for i in range(self.n_agents)) or self.table[0]:
            raise SymbioError("normalized games are worth 0 on the empty set and singletons")

    @classmethod
    def from_values(cls, n_agents: int, values: Mapping) -> "ISNGame":
        """Build a game from a {coalition: money} mapping over |S|>=2.

        Unlisted coalitions of size >= 2 default to 0; singleton or empty
        keys are rejected because normalization fixes those values, and so
        is a coalition listed twice, such as (0, 1) next to (1, 0).
        """
        table = zero_table(n_agents)
        for mask, val in _read_table(n_agents, values, "value").items():
            table[mask] = val
        return cls(n_agents, tuple(table))

    def value(self, s: Iterable[int]) -> Fraction:
        """v(S), read from the table."""
        s = coalition(s)
        check_roster(s, self.n_agents)
        return self.table[mask_of(s)]


def check_roster(s: frozenset, n_agents: int) -> None:
    for i in s:
        if i >= n_agents:
            raise SymbioError(f"agent {i} not on a roster of {n_agents}")


def _read_table(n_agents: int, values: Mapping, name: str) -> "dict[int, Fraction]":
    """{mask: money} from a {coalition: money} mapping: keys of two or more
    agents on the roster, no coalition twice however its members are ordered."""
    out = {}
    for raw, val in values.items():
        s = coalition(raw)
        for i in s:
            if i >= n_agents:
                raise SymbioError(f"{name} table mentions agent {i}, roster has {n_agents}")
        if len(s) < 2:
            raise SymbioError(f"{name} table keys need two or more members, got {{}}", s)
        mask = mask_of(s)
        if mask in out:
            raise SymbioError(f"{name} table lists coalition {{}} twice", s)
        out[mask] = as_money(val)
    return out


def make_isn_game(n_agents: int, t_table: Mapping, o_table: Mapping) -> ISNGame:
    """Build the game v(S) = T(S) - O(S) from total cost tables.

    Both tables must carry an entry for every coalition with two or more
    members. Construction succeeds even if the result is not superadditive;
    run check_superadditive separately to validate that claim.
    """
    values = zero_table(n_agents)
    t = _read_table(n_agents, t_table, "T")
    o = _read_table(n_agents, o_table, "O")
    for mask in range(1 << n_agents):
        if mask.bit_count() < 2:
            continue
        for name, table in ("T", t), ("O", o):
            if mask not in table:
                raise SymbioError(f"{name} table lacks coalition {{}}", members_of(mask))
        values[mask] = t[mask] - o[mask]
    return ISNGame(n_agents, tuple(values))


def check_superadditive(game) -> "tuple[frozenset, frozenset] | None":
    """Return None if v(S u T) >= v(S) + v(T) for all disjoint nonempty S, T.

    Otherwise return the violating pair (A, B) with the smallest bitmask a of
    A and, for that a, the largest bitmask b of B; a < b always holds, since
    the pair (B, A) violates too. Works on any game with n_agents and a
    mask-indexed value table, scanned on ints (scaled_table).
    """
    n = game.n_agents
    val, _ = scaled_table(game.table)
    full = (1 << n) - 1
    for a in range(1, 1 << n):
        rest = full ^ a
        va = val[a]
        b = rest
        # submasks b of the complement with b > a, descending
        while b > a:
            if val[a | b] < va + val[b]:
                return (members_of(a), members_of(b))
            b = (b - 1) & rest
    return None


def subgame(game, members: Iterable[int]) -> ISNGame:
    """Restrict a game to `members`, re-indexing them densely by ascending id.

    The restriction must itself be normalized (zero singleton values);
    coordinated games whose incentive rules target groups always are. The
    parent's worth of the empty set is not carried over.
    """
    members = coalition(members)
    check_roster(members, game.n_agents)
    if not members:
        raise SymbioError("subgame needs at least one member")
    original = [0]  # original[mask] = parent mask of the subgame's coalition mask
    for i in sorted(members):
        if game.table[1 << i] != 0:
            raise SymbioError("subgame would have a nonzero singleton value")
        original += [m | 1 << i for m in original]
    return ISNGame(len(members), (Fraction(0),) + tuple(game.table[m] for m in original[1:]))
