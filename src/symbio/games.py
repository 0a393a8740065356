"""Transferable-utility games over a finite roster of firms.

Agents are dense integer ids 0..n-1. Coalitions are frozensets of ids. A
game stores its worths in `table`, a tuple indexed by coalition bitmask
(table[mask] is v(members of mask), empty set and singletons included);
every kernel reads games through it, which is why construction is capped at
ENUMERATION_BOUND agents. All money amounts are exact rationals
(fractions.Fraction); nothing in this package ever rounds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import BoundExceeded, SymbioError

#: Dense coalition tables become unreasonable past 2^16 entries.
ENUMERATION_BOUND = 16

#: Most digits, and largest decimal exponent in absolute value, that
#: as_money reads from text. "1e999999999" would otherwise expand to a
#: billion-digit integer before any check could run.
MAX_DIGITS = 1000
MAX_EXPONENT = 1000

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

    Otherwise return one violating pair, deterministically chosen and
    normalized so the smaller bitmask comes first. Works on any game with
    n_agents and a mask-indexed value table.
    """
    n = game.n_agents
    val = game.table
    for a in range(1, 1 << n):
        rest = ((1 << n) - 1) & ~a
        b = rest
        # iterate nonzero submasks of the complement, descending
        while b:
            if val[a | b] < val[a] + val[b]:
                lo, hi = min(a, b), max(a, b)
                return (members_of(lo), members_of(hi))
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
