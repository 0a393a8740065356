"""Transferable-utility games over a finite roster of firms.

Agents are dense integer ids 0..n-1. Coalitions are frozensets of ids. A
game stores its worths once, as `scaled`, a tuple of ints indexed by
coalition bitmask (scaled[mask] is v(members of mask) times `denominator`,
empty set and singletons included), over `denominator`, the lcm of the
values' reduced denominators. Every kernel reads those ints, which is why
construction is capped at ENUMERATION_BOUND agents; `table`, the same
worths as Fractions, is a view built on first use for library callers. All
money amounts are exact rationals; nothing in this package ever rounds.

Text amounts follow one grammar on every interpreter, Python 3.11's
(_RATIONAL_FORMAT), read straight into a numerator and a denominator
(money_terms); as_money makes the one Fraction. plain_terms reads a column
of values in bulk: ints, and every value whose text is a plain int or
"a/b" (_PLAIN, a strict subset of that grammar), and lists the positions of
the others for the caller to read one by one.

Value and cost tables are read as three columns: masks, numerators and
denominators. _scatter writes a table's columns into mask-indexed lists
and owns the rules that every key has two or more agents and that none is
given twice, and game_from_masks the rule that T and O list every such
coalition; T(S) - O(S) is then taken column-wise for every mask at once.
_scaled, the one builder of a table from values, takes a numerator and a
denominator column, reduces each value by one gcd and writes it over the
lcm, making no Fraction; a table whose 2^n entries times the bit length of
that lcm pass SCALED_BITS (2^28) bits raises BoundExceeded while it is
built. game_from_masks and ISNGame.from_values hand it columns (from
coalition keys, _columns, or the CLI's masks), ISNGame.from_table and
scaled_shares their Fractions' terms. Subgames and coordinated games
derive their ints from their parent's.

The 2^n and 3^n scans (check_superadditive here, shapley, in_core and the
promotion subsidy elsewhere) read those ints and return Fractions; only an
allocation is scaled onto the table (scaled_shares). check_superadditive
tries an O(n^2 2^n) convexity certificate (is_supermodular) before its
3^n / 2 pair walk. Reports print every rational through fraction_text.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import floordiv, lt, mul, sub
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

#: The grammar of text numbers: Python 3.11's fractions._RATIONAL_FORMAT,
#: owned here so that a file reads alike on every interpreter (3.10 rejects
#: "1_0/3", 3.12 accepts "3/ 4"). One character differs: the decimal group
#: has 3.13's `\d*` for 3.11's `d*`, which let "5.d" match only for int()
#: to reject it. Underscores between digits and any Unicode decimal digit
#: ("٣/4") are read, as in 3.11.
_RATIONAL_FORMAT = re.compile(r"""
    \A\s*                                 # optional whitespace at the start,
    (?P<sign>[-+]?)                       # an optional sign, then
    (?=\d|\.\d)                           # lookahead for digit or .digit
    (?P<num>\d*|\d+(_\d+)*)               # numerator (possibly empty)
    (?:                                   # followed by
       (?:/(?P<denom>\d+(_\d+)*))?        # an optional denominator
    |                                     # or
       (?:\.(?P<decimal>\d*|\d+(_\d+)*))? # an optional fractional part
       (?:E(?P<exp>[-+]?\d+(_\d+)*))?     # and optional exponent
    )
    \s*\Z                                 # and optional whitespace to finish
""", re.VERBOSE | re.IGNORECASE)


def _parse(text: str) -> "tuple[int, int]":
    """(numerator, denominator > 0) of text in the number grammar, unreduced.

    Past MAX_DIGITS characters the digits are counted before the text is
    matched, and the exponent is held to MAX_EXPONENT before it is applied;
    either fault raises SymbioError. Text outside the grammar raises
    ValueError, a zero denominator ZeroDivisionError.
    """
    if len(text) > MAX_DIGITS and sum(c.isdigit() for c in text) > MAX_DIGITS:
        raise SymbioError(f"number has more than {MAX_DIGITS} digits")
    m = _RATIONAL_FORMAT.match(text)
    if m is None:
        raise ValueError(f"{text!r} is not a number")
    sign, num, den, decimal, exp = m.group("sign", "num", "denom", "decimal", "exp")
    num = int(num or "0")
    if den:
        den = int(den)
        if not den:
            raise ZeroDivisionError(f"{text!r} has a zero denominator")
    else:
        den = 1
        if decimal:
            decimal = decimal.replace("_", "")
            den = 10 ** len(decimal)
            num = num * den + int(decimal)
        if exp:
            exp = int(exp)
            if abs(exp) > MAX_EXPONENT:
                raise SymbioError(f"number {text!r} has an exponent beyond {MAX_EXPONENT}")
            if exp >= 0:
                num *= 10**exp
            else:
                den *= 10**-exp
    return (-num if sign == "-" else num), den


#: Ints read in bulk (plain_terms), like text, have at most MAX_DIGITS digits.
INT_LIMIT = 10**MAX_DIGITS

#: Plain numbers, plain_terms' strict subset of _RATIONAL_FORMAT: an int or
#: "a/b" in ASCII digits with an optional "-" and no leading zero (so a
#: denominator is never 0, and each part is also a JSON int), at most
#: MAX_DIGITS // 2 digits a part, so never more than MAX_DIGITS in all.
_PLAIN = re.compile(
    rf"-?(?:0|[1-9][0-9]{{0,{MAX_DIGITS // 2 - 1}}})(?:/[1-9][0-9]{{0,{MAX_DIGITS // 2 - 1}}})?")


def plain_terms(values: list) -> "tuple[list[int], list[int], list[int]]":
    """(numerators, denominators, odd) of a column of JSON values, read in
    bulk: odd lists, in ascending order, the positions of the values not
    read, whose terms are given as 0/1; every other value's terms equal
    money_terms'.

    A column of ints is held to INT_LIMIT by its min and max. Otherwise a
    value is read from its str() when that text matches _PLAIN: an int, a
    string, or a Fraction (from a JSON decimal, whose str is its lowest
    terms); a bool, None, list or dict never matches. No matched text holds
    a comma, so the column written as one JSON list of numerators and
    denominators splits back into two per value, and json reads all their
    ints in one call. The caller reads or rejects each odd value by itself.
    """
    if (set(map(type, values)) <= {int}
            and -INT_LIMIT < min(values, default=0) and max(values, default=0) < INT_LIMIT):
        return values, [1] * len(values), []
    parts = list(map(str, values))
    odd = []
    if not all(map(_PLAIN.fullmatch, parts)):
        odd = [k for k, part in enumerate(parts) if not _PLAIN.fullmatch(part)]
        for k in odd:
            parts[k] = "0"
    # "3/4", "5" -> "3,4,5,1": numerators at even places, denominators at odd
    terms = ",".join([p if "/" in p else p + "/1" for p in parts]).replace("/", ",")
    flat = json.loads(f"[{terms}]")
    return flat[0::2], flat[1::2], odd


def money_terms(x) -> "tuple[int, int]":
    """(numerator, denominator > 0) of a money amount, accepted and rejected
    as by as_money; text becomes the two ints without a Fraction."""
    if isinstance(x, str):
        return _parse(x)
    if isinstance(x, bool):
        raise TypeError("bool is not a money amount")
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    if isinstance(x, Decimal):
        return _parse(str(x))
    raise TypeError(f"cannot represent {x!r} exactly; use int, Fraction or string")


def as_money(x) -> Fraction:
    """Coerce ints, strings ("3", "1/2", "0.25") and Decimals to Fraction.

    Binary floats are rejected (TypeError): converting them would silently
    import rounding error into computations that must stay exact. Text is
    read by one grammar (_RATIONAL_FORMAT) on every interpreter; text with
    more than MAX_DIGITS digits or an exponent beyond +-MAX_EXPONENT is
    rejected (SymbioError) before it is expanded.
    """
    if isinstance(x, Fraction):
        return x
    return Fraction(*money_terms(x))


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


def _check_bits(count: int, d: int) -> None:
    """BoundExceeded if `count` values over the denominator d pass SCALED_BITS."""
    if count * d.bit_length() > SCALED_BITS:
        raise BoundExceeded(
            f"the common denominator of {count} values needs more than "
            f"{SCALED_BITS // count} bits (budget: {SCALED_BITS} bits in all)"
        )


def _scaled(nums, dens) -> "tuple[list[int], int]":
    """(ints, d) with ints[k] / d == nums[k] / dens[k] (dens > 0, in any
    terms), d the lcm of the reduced denominators. Each value is reduced by
    its gcd first, so that a long denominator T(S) and O(S) share costs
    nothing, and d is held to SCALED_BITS as it grows (_check_bits), before
    any entry is scaled. No prime divides d and every int (at its highest
    power in d it divides a reduced denominator), so _lowest finds gcd 1.
    """
    g = list(map(gcd, nums, dens))
    nums = list(map(floordiv, nums, g))
    dens = list(map(floordiv, dens, g))
    d = 1
    for den in set(dens):
        if d % den:
            d = lcm(d, den)
            _check_bits(len(nums), d)
    if d != 1:
        nums = list(map(mul, nums, map(d.__floordiv__, dens)))
    return nums, d


def scaled_shares(game, x) -> "tuple[list[int], list[int], int]":
    """(vals, shares, d): the game's values, and x(S) = sum of x_i over i in
    S for every mask S, as ints over one denominator d, the lcm of the
    game's denominator and x's.

    x is scaled by _scaled, like a table. The game's ints are rescaled only
    when x brings a new denominator, and then d is held to SCALED_BITS as
    by _scaled. shares is built one agent at a time: the masks holding
    agent i are those without it, each plus x_i.
    """
    xs, dx = _scaled([xi.numerator for xi in x], [xi.denominator for xi in x])
    vals, d = game.scaled, game.denominator
    if d % dx:
        vals, d = _rescale(vals, d, lcm(d, dx))
    shares = [0]
    for xi in xs:
        xi *= d // dx
        shares += [s + xi for s in shares]
    return vals, shares, d


def _rescale(vals, d: int, new: int) -> "tuple[list[int], int]":
    """(vals over `new`, new): ints over d written over a multiple of d,
    checked against SCALED_BITS first."""
    _check_bits(len(vals), new)
    return [v * (new // d) for v in vals], new


def _lowest(scaled, d) -> "tuple[tuple, int]":
    """(scaled, d) divided through by their gcd, so that d is the lcm of the
    reduced denominators of the values scaled[k] / d; SymbioError unless
    every entry is an int and d a positive int."""
    scaled = tuple(scaled)
    try:
        g = gcd(d, *scaled) if type(d) is int and d > 0 else 0
    except TypeError:  # an entry that is not an int
        g = 0
    if not g:
        raise SymbioError("scaled values must be ints over a positive int denominator "
                          "(ISNGame.from_table takes Fractions)")
    if g != 1:
        scaled = tuple(v // g for v in scaled)
        d //= g
    return scaled, d


def fraction_text(num, den: int = 1) -> str:
    """str(Fraction(num, den)) for an int or Fraction num and an int den > 0,
    without making a Fraction: every rational a report shows is written here.

    A number with more digits than the interpreter writes an int with
    (sys.get_int_max_str_digits, 4300 by default) raises BoundExceeded.
    """
    if type(num) is not int:
        num, den = num.numerator, num.denominator * den
    try:
        if den != 1:
            g = gcd(num, den)
            if g != den:
                return f"{num // g}/{den // g}"
            num //= den
        return str(num)
    except ValueError:  # the interpreter's limit on int-to-text conversion
        raise BoundExceeded(
            f"a reported number has more than {sys.get_int_max_str_digits()} digits, the "
            f"interpreter's limit for writing an int (PYTHONINTMAXSTRDIGITS=0 lifts it)"
        ) from None


def _check_agent_count(n_agents: int) -> None:
    if n_agents < 1:
        raise SymbioError("a game needs at least one agent")
    if n_agents > ENUMERATION_BOUND:
        raise BoundExceeded(
            f"dense coalition table supports at most {ENUMERATION_BOUND} agents"
        )


@dataclass(frozen=True)
class ISNGame:
    """Normalized TU game: v(S)=0 for |S|<=1, stored values for |S|>=2.

    v(S) is scaled[mask] / denominator, ints stored in lowest terms (divided
    through by their gcd), so the denominator is the lcm of the values'
    reduced denominators and equal games compare and hash equal. Instances
    are immutable and hashable; reads are safe from any number of threads.
    ISNGame.from_table builds one from Fractions.
    """

    n_agents: int
    scaled: tuple
    denominator: int = 1

    def __post_init__(self):
        _check_agent_count(self.n_agents)
        scaled = self.scaled
        if len(scaled) != 1 << self.n_agents:
            raise SymbioError("value table must have one entry per subset")
        if any(scaled[1 << i] for i in range(self.n_agents)) or scaled[0]:
            raise SymbioError("normalized games are worth 0 on the empty set and singletons")
        scaled, d = _lowest(scaled, self.denominator)
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "denominator", d)

    @classmethod
    def from_values(cls, n_agents: int, values: Mapping) -> "ISNGame":
        """Build a game from a {coalition: money} mapping over |S|>=2.

        Unlisted coalitions of size >= 2 default to 0; singleton or empty
        keys are rejected because normalization fixes those values, and so
        is a coalition listed twice, such as (0, 1) next to (1, 0).
        """
        _check_agent_count(n_agents)
        nums, dens = _scatter(n_agents, _columns(n_agents, values, "value"), "value")
        return cls(n_agents, *_scaled([0 if v is None else v for v in nums], dens))

    @classmethod
    def from_table(cls, n_agents: int, table) -> "ISNGame":
        """Build a game from its mask-indexed table of Fractions (or ints),
        2^n entries, empty set and singletons 0, scaled by _scaled."""
        return cls(n_agents, *_scaled([v.numerator for v in table],
                                      [v.denominator for v in table]))

    @cached_property
    def table(self) -> tuple:
        """v(S) as a Fraction for every mask S, built on first use; the
        kernels read `scaled` and `denominator` instead."""
        d = self.denominator
        return tuple(Fraction(v, d) for v in self.scaled)

    def value(self, s: Iterable[int]) -> Fraction:
        """v(S), read from the scaled table."""
        s = coalition(s)
        check_roster(s, self.n_agents)
        return Fraction(self.scaled[mask_of(s)], self.denominator)


def check_roster(s: frozenset, n_agents: int) -> None:
    for i in s:
        if i >= n_agents:
            raise SymbioError(f"agent {i} not on a roster of {n_agents}")


def _columns(n_agents: int, values: Mapping, name: str) -> "tuple[list, list, list]":
    """(masks, numerators, denominators) of a {coalition: value} mapping,
    in its order: each coalition's members checked to be ids on the roster,
    each value read by money_terms."""
    masks, nums, dens = [], [], []
    for raw, val in values.items():
        s = coalition(raw)
        for i in s:
            if i >= n_agents:
                raise SymbioError(f"{name} table mentions agent {i}, roster has {n_agents}")
        num, den = money_terms(val)
        masks.append(mask_of(s))
        nums.append(num)
        dens.append(den)
    return masks, nums, dens


def _scatter(n_agents: int, columns, name: str) -> "tuple[list, list]":
    """(nums, dens) indexed by mask from one table's (masks, nums, dens)
    columns: the empty set and singletons 0, and a coalition the table does
    not list num None, den 1.

    Every key must have two or more agents and none may be listed twice.
    Both rules are read off the scattered table (its count of listed
    entries, and its empty-set and singleton slots); only a table that
    breaks one is walked key by key, in listing order, to name the first
    fault.
    """
    masks, nums, dens = columns
    size = 1 << n_agents
    dense_nums, dense_dens = [None] * size, [1] * size
    for mask, num, den in zip(masks, nums, dens):
        dense_nums[mask] = num
        dense_dens[mask] = den
    small = [0, *[1 << i for i in range(n_agents)]]
    listed = size - dense_nums.count(None)
    if listed < len(masks) or [*map(dense_nums.__getitem__, small)].count(None) < len(small):
        seen = set()
        for mask in masks:
            if mask.bit_count() < 2:
                raise SymbioError(f"{name} table keys need two or more members, got {{}}",
                                  members_of(mask))
            if mask in seen:
                raise SymbioError(f"{name} table lists coalition {{}} twice", members_of(mask))
            seen.add(mask)
    for mask in small:
        dense_nums[mask] = 0
    return dense_nums, dense_dens


def game_from_masks(n_agents: int, t_columns, o_columns) -> ISNGame:
    """The game v(S) = T(S) - O(S) from each table's three columns (masks,
    numerators, denominators), the terms of each amount (money_terms).

    T and O must each list every coalition of two or more agents, once
    (_scatter, T's rules before O's); a lacking coalition is named last.
    Masks must lie on the roster (below 1 << n_agents): make_isn_game checks
    its coalition keys before turning them into masks. Each v(S) is
    (tn od - on td) / (td od), computed column-wise from the four ints and
    scaled by _scaled.
    """
    _check_agent_count(n_agents)
    (tn, td), (on, od) = _scatter(n_agents, t_columns, "T"), _scatter(n_agents, o_columns, "O")
    if None in tn or None in on:
        for mask in range(1 << n_agents):
            for name, table in ("T", tn), ("O", on):
                if table[mask] is None:
                    raise SymbioError(f"{name} table lacks coalition {{}}", members_of(mask))
    nums = list(map(sub, map(mul, tn, od), map(mul, on, td)))
    return ISNGame(n_agents, *_scaled(nums, list(map(mul, td, od))))


def make_isn_game(n_agents: int, t_table: Mapping, o_table: Mapping) -> ISNGame:
    """Build the game v(S) = T(S) - O(S) from total cost tables.

    Both tables must carry an entry for every coalition with two or more
    members. Construction succeeds even if the result is not superadditive;
    run check_superadditive separately to validate that claim.
    """
    return game_from_masks(
        n_agents, _columns(n_agents, t_table, "T"), _columns(n_agents, o_table, "O")
    )


def _halves(xs: list, bit: int) -> "tuple[list, list]":
    """(lo, hi): the entries of xs whose index has `bit` clear, and their
    partners with it set, each in ascending index order.

    Copied as 2^bit strided slices or as len(xs) / 2^(bit+1) blocks,
    whichever are fewer, so never per entry.
    """
    size = 1 << bit
    step = size << 1
    half = len(xs) >> 1
    lo, hi = [0] * half, [0] * half
    if size * size <= half:
        for b in range(size):
            lo[b::size] = xs[b::step]
            hi[b::size] = xs[b + size::step]
    else:
        for t in range(0, half, size):
            lo[t:t + size] = xs[2 * t:2 * t + size]
            hi[t:t + size] = xs[2 * t + size:2 * t + step]
    return lo, hi


def is_supermodular(val: list, n: int) -> bool:
    """Whether v(S+i+j) + v(S) >= v(S+i) + v(S+j) for every S and i < j
    outside S, on a mask-indexed table of n agents: the game is convex.

    Agent i's marginals v(S+i) - v(S) are built once; for each j > i those
    with j in S are compared with those without, n(n-1)/2 * 2^(n-2)
    comparisons in all, none in a Python loop of its own.
    """
    for i in range(n):
        lo, hi = _halves(val, i)
        marginal = list(map(sub, hi, lo))  # over masks without i, i's bit taken out
        for j in range(i, n - 1):  # agent j + 1, at bit j of the marginal's index
            without, with_ = _halves(marginal, j)
            if any(map(lt, with_, without)):
                return False
    return True


def check_superadditive(game) -> "tuple[frozenset, frozenset] | None":
    """Return None if v(S u T) >= v(S) + v(T) for all disjoint nonempty S, T.

    Otherwise return the violating pair (A, B) with the smallest bitmask a of
    A and, for that a, the largest bitmask b of B; a < b always holds, since
    the pair (B, A) violates too. Works on any game with n_agents and a
    mask-indexed `scaled` table of ints, which it scans as they are.

    A convex game with v(empty) <= 0 is superadditive (Shapley 1971), so
    is_supermodular's O(n^2 2^n) check comes first; only a game it does not
    certify takes the walk over the about 3^n / 2 disjoint pairs.
    """
    n = game.n_agents
    val = game.scaled
    if val[0] <= 0 and is_supermodular(val, n):
        return None
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
    parent's worth of the empty set is not carried over. The parent's ints
    are copied over its denominator, which ISNGame then reduces.
    """
    members = coalition(members)
    check_roster(members, game.n_agents)
    if not members:
        raise SymbioError("subgame needs at least one member")
    scaled = game.scaled
    original = [0]  # original[mask] = parent mask of the subgame's coalition mask
    for i in sorted(members):
        if scaled[1 << i]:
            raise SymbioError("subgame would have a nonzero singleton value")
        original += [m | 1 << i for m in original]
    return ISNGame(len(members), (0, *map(scaled.__getitem__, original[1:])), game.denominator)
