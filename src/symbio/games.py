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
of values in bulk, or declines it for the caller to read value by value:
a column of ints, or one whose every value's text is a plain int or "a/b"
(a strict subset of that grammar), joined into one JSON list and checked
as a whole (_plain_column), then read by one json call.

Value and cost tables end as two mask-indexed columns, numerators and
denominators. A table read as three columns in its own order (masks,
numerators, denominators) is written into them by _scatter, which owns
the rules that every key has two or more agents and that none is given
twice; the CLI reads a table that lists each such coalition once, spelt as
reports spell it, straight in mask order. game_from_masks owns the rule
that T and O list every such coalition, and takes T(S) - O(S) column-wise
for every mask at once.
_scaled, the one builder of a table from values, takes a numerator and a
denominator column and writes each value over one common denominator,
making no Fraction: while the unreduced denominators' lcm fits WORD_BITS
bits it scales by that, and past that it reduces each value by its gcd
first and scales by the lcm of the reduced denominators. A table whose
2^n entries times the bit length of that denominator pass SCALED_BITS
(2^28) bits raises BoundExceeded while it is built. game_from_masks and
ISNGame.from_values hand it columns, ISNGame.from_table its Fractions'
terms. Subgames and coordinated games derive their ints from their
parent's; the subgame of a whole roster is the parent's own tuple. Every
table reaches lowest terms in one place, its game's constructor (_lowest):
one gcd of its denominator and all its ints, seeded with the ints' sum.

The 2^n and 3^n scans (check_superadditive here, shapley, in_core and the
promotion subsidy elsewhere) read those ints as they are; no table is
rescaled to meet an allocation, which solutions keeps as ints over a
denominator of its own. check_superadditive tries a convexity certificate
(is_supermodular) before its 3^n / 2 pair walk: the table packed into one
int, each pair of agents tested over all 2^n fields at once by a few
big-int operations, or, for a table whose range needs more than
PACKED_RANGE_BITS bits, by a list kernel. Reports print every rational
through fraction_text.
"""

from __future__ import annotations

import json
import re
import struct
import sys
from collections.abc import Iterable, Iterator, Mapping
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from operator import floordiv, lt, mul, sub

from .errors import BoundExceeded, SymbioError
from .records import Record

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

#: Widest lcm of unreduced denominators, in bits, that _scaled scales by
#: before it reduces: far below any table's share of SCALED_BITS.
WORD_BITS = 64

#: Widest range max v - min v, in bits, that is_supermodular packs: with its
#: three spare bits a field then fits one 64-bit word.
PACKED_RANGE_BITS = 61

#: struct's little-endian codes for unsigned ints of 1, 2, 4 and 8 bytes.
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

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
    matched, and the exponent is held to MAX_EXPONENT before it is applied.
    Every fault raises SymbioError: those two, text outside the grammar and
    a zero denominator.
    """
    if len(text) > MAX_DIGITS and sum(c.isdigit() for c in text) > MAX_DIGITS:
        raise SymbioError(f"number has more than {MAX_DIGITS} digits")
    m = _RATIONAL_FORMAT.match(text)
    if m is None:
        raise SymbioError(f"{text!r} is not a number")
    sign, num, den, decimal, exp = m.group("sign", "num", "denom", "decimal", "exp")
    num = int(num or "0")
    if den:
        den = int(den)
        if not den:
            raise SymbioError(f"{text!r} has a zero denominator")
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

#: A plain part's bound, |numerator| < PLAIN_LIMIT and denominator < PLAIN_LIMIT:
#: at most MAX_DIGITS // 2 digits a part, so never more than MAX_DIGITS in all.
PLAIN_LIMIT = 10 ** (MAX_DIGITS // 2)


def _joined(pieces: "list[str]") -> str:
    """The JSON list of a column's "a/b" pieces: "3/4", "5/1" -> "[3,4,5,1]",
    numerators at even places, denominators at odd ones."""
    return "[" + ",".join(pieces).replace("/", ",") + "]"


def _plain_column(terms: str, count: int) -> "tuple[list[int], list[int]] | None":
    """(numerators, denominators) of the _joined list of `count` pieces if
    each piece is plain, else None, checked on the whole text: an int or
    "a/b" in ASCII digits with an optional "-" and no leading zero.

    Only ASCII digits, "-" and commas inside the brackets, so json returns
    ints or fails: isascii() first, since encode() raises on a lone
    surrogate (the JSON string "\\ud800"), then the bytes; 2 count - 1
    commas, so no piece held a comma or a second "/"; json reads it, so each
    part is a JSON int (no leading zero or empty part, "-" only first);
    each numerator within +-PLAIN_LIMIT, each denominator in [1, PLAIN_LIMIT).
    """
    if (terms.count(",") != 2 * count - 1 or not terms.isascii()
            or terms.encode().translate(None, b"0123456789-,") != b"[]"):
        return None
    try:
        flat = json.loads(terms)
    except ValueError:  # a leading zero, an empty part, a misplaced "-", > 4300 digits
        return None
    nums, dens = flat[0::2], flat[1::2]
    if (0 < min(dens) and max(dens) < PLAIN_LIMIT
            and -PLAIN_LIMIT < min(nums) and max(nums) < PLAIN_LIMIT):
        return nums, dens
    return None


def plain_terms(values: list) -> "tuple[list[int], list[int]] | None":
    """(numerators, denominators) of a column of JSON values, each value's
    terms equal to money_terms', or None if the column is not read in bulk.

    A column of ints is held to INT_LIMIT by its min and max. Otherwise each
    value's str() (an int, a string, or a Fraction from a JSON decimal,
    whose str is its lowest terms) is written "a/b", an int "a/1", and the
    column is read by one json call if _plain_column accepts it; the caller
    reads or rejects the values of a column it declines one by one.
    """
    if (set(map(type, values)) <= {int}
            and -INT_LIMIT < min(values, default=0) and max(values, default=0) < INT_LIMIT):
        return values, [1] * len(values)
    pieces = [p if "/" in p else p + "/1" for p in map(str, values)]
    return _plain_column(_joined(pieces), len(pieces))


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
    read by one grammar (_RATIONAL_FORMAT) on every interpreter; text
    outside it or with a zero denominator is rejected (SymbioError), and so
    is text with more than MAX_DIGITS digits or an exponent beyond
    +-MAX_EXPONENT, before it is expanded.
    """
    if isinstance(x, Fraction):
        return x
    return Fraction(*money_terms(x))


def coalition(members: Iterable[int]) -> frozenset:
    """Every id given checked in order (a set in its own), then the frozenset:
    the first bad id is named, and 1.0 or True beside 1 is refused, not merged."""
    ids = tuple(members)
    for i in ids:  # a plain int takes one type test; only another type the two isinstance
        if type(i) is not int and (not isinstance(i, int) or isinstance(i, bool)) or i < 0:
            raise SymbioError(f"agent ids must be non-negative integers, got {i!r}")
    return frozenset(ids)


def mask_of(members: Iterable[int]) -> int:
    m = 0
    for i in members:
        m |= 1 << i
    return m


def members_of(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def coalitions(n_agents: int, min_size: int = 0) -> Iterator[frozenset]:
    """All coalitions of a roster check_roster takes, in ascending bitmask order."""
    check_roster((), n_agents)
    return (members_of(mask) for mask in range(1 << n_agents) if mask.bit_count() >= min_size)


def _check_bits(count: int, d: int) -> None:
    """BoundExceeded if `count` values over the denominator d pass SCALED_BITS."""
    if count * d.bit_length() > SCALED_BITS:
        raise BoundExceeded(
            f"the common denominator of {count} values needs more than "
            f"{SCALED_BITS // count} bits (budget: {SCALED_BITS} bits in all)"
        )


def _scaled(nums, dens) -> "tuple[list[int], int]":
    """(ints, d) with ints[k] / d == nums[k] / dens[k] (dens > 0, in any
    terms), d a common denominator held to SCALED_BITS (_check_bits); not
    in lowest terms, which the game's constructor reaches (_lowest).

    While the lcm of the distinct denominators as given fits WORD_BITS bits,
    the values are scaled by it. The first partial lcm past WORD_BITS turns
    to the reduce-first fold: each value is reduced by its gcd, so that a
    long denominator T(S) and O(S) share costs nothing, and the distinct
    reduced denominators fold into d pairwise, level by level, so each
    level's lcms take operands of at most the inputs' bits in all, each
    folded lcm held to SCALED_BITS. Either way d is held to SCALED_BITS
    before any entry is scaled by it.
    """
    d = 1
    for den in set(dens):
        d = lcm(d, den)
        if d >> WORD_BITS:  # a long lcm: the reduce-first fold
            g = list(map(gcd, nums, dens))
            nums = list(map(floordiv, nums, g))
            dens = list(map(floordiv, dens, g))
            level = list(set(dens))
            while len(level) > 1:
                folded = list(map(lcm, level[::2], level[1::2]))
                for partial in folded:
                    _check_bits(len(nums), partial)
                level = folded + level[2 * len(folded):]
            d = level[0]
            break
    _check_bits(len(nums), d)
    if d != 1:
        nums = list(map(mul, nums, map(d.__floordiv__, dens)))
    return nums, d


def _lowest(scaled, d) -> "tuple[tuple, int]":
    """(scaled, d) divided through by their gcd, so that d is the lcm of the
    reduced denominators of the values scaled[k] / d; SymbioError unless
    every entry is an int and d a positive int. The chain starts from
    gcd(d, sum(scaled)), exact since a divisor of d and of every entry
    divides their sum, and then costs next to nothing: math.gcd does no
    more arithmetic once its running value is 1."""
    scaled = tuple(scaled)
    try:
        g = gcd(gcd(d, sum(scaled)), *scaled) if type(d) is int and d > 0 else 0
    except TypeError:  # an entry that is not an int
        g = 0
    if not g:
        raise SymbioError("scaled values must be ints over a positive int denominator "
                          "(ISNGame.from_table takes Fractions)")
    if g != 1:
        scaled = tuple(map(floordiv, scaled, repeat(g)))
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
    """The roster size by its owner, check_roster, then ENUMERATION_BOUND."""
    check_roster((), n_agents)
    if n_agents > ENUMERATION_BOUND:
        raise BoundExceeded(
            f"dense coalition table supports at most {ENUMERATION_BOUND} agents"
        )


class ISNGame(Record):
    """Normalized TU game: v(S)=0 for |S|<=1, stored values for |S|>=2.

    v(S) is scaled[mask] / denominator, ints stored in lowest terms, so the
    denominator is the lcm of the values' reduced denominators and equal
    games compare and hash equal. Instances are immutable and hashable;
    reads are safe from any number of threads. ISNGame.from_table builds one
    from Fractions. Whatever builds a game, its ints and denominator are
    divided through by their gcd here (_lowest), the one reduction every
    table takes.
    """

    _shown = _compared = ("n_agents", "scaled", "denominator")

    def __init__(self, n_agents: int, scaled: tuple, denominator: int = 1):
        _check_agent_count(n_agents)
        if len(scaled) != 1 << n_agents:
            raise SymbioError("value table must have one entry per subset")
        if any(scaled[1 << i] for i in range(n_agents)) or scaled[0]:
            raise SymbioError("normalized games are worth 0 on the empty set and singletons")
        scaled, denominator = _lowest(scaled, denominator)
        self.__dict__.update(n_agents=n_agents, scaled=scaled, denominator=denominator)

    @classmethod
    def from_values(cls, n_agents: int, values: Mapping) -> "ISNGame":
        """Build a game from a {coalition: money} mapping over |S|>=2.

        Unlisted coalitions of size >= 2 default to 0; singleton or empty
        keys are rejected because normalization fixes those values, and so
        is a coalition listed twice, such as (0, 1) next to (1, 0).
        """
        _check_agent_count(n_agents)
        nums, dens = _scatter(n_agents, _columns(n_agents, values), "value")
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
        s = check_roster(s, self.n_agents)
        return Fraction(self.scaled[mask_of(s)], self.denominator)


def check_roster(members: Iterable[int], n_agents: int) -> frozenset:
    """The members as a coalition on a roster of n_agents: the one owner of
    the roster rules, n_agents an int >= 1 (not a bool) and every id below
    it (the smallest one off it named); coalition checks each id given."""
    if not isinstance(n_agents, int) or isinstance(n_agents, bool) or n_agents < 1:
        raise SymbioError(f"a roster needs an int count of at least one agent, got {n_agents!r}")
    s = coalition(members)
    if s and max(s) >= n_agents:
        raise SymbioError(f"agent {min(i for i in s if i >= n_agents)} not on a roster "
                          f"of {n_agents}")
    return s


def _columns(n_agents: int, values: Mapping) -> "tuple[list, list, list]":
    """(masks, numerators, denominators) of a {coalition: value} mapping,
    in its order: each coalition checked by check_roster, each value read
    by money_terms."""
    masks, nums, dens = [], [], []
    for raw, val in values.items():
        s = check_roster(raw, n_agents)
        num, den = money_terms(val)
        masks.append(mask_of(s))
        nums.append(num)
        dens.append(den)
    return masks, nums, dens


def _scatter(n_agents: int, columns, name: str) -> "tuple[list, list]":
    """(nums, dens) indexed by mask, as game_from_masks takes them, from one
    table's (masks, nums, dens) columns in its own order: the empty set and
    singletons 0, and a coalition the table does not list num None, den 1.

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


def game_from_masks(n_agents: int, t_terms, o_terms) -> ISNGame:
    """The game v(S) = T(S) - O(S) from each table's mask-indexed columns
    (numerators, denominators), 2^n entries each, the empty set and
    singletons 0 and a coalition the table does not list num None: a
    _scatter result, or a column read straight in mask order.

    Each v(S) is (tn od - on td) / (td od), computed column-wise from the
    four ints and scaled by _scaled. T and O must each list every coalition
    of two or more agents: only once that computation meets a None are the
    masks walked, to name the lacking coalition, T's before O's at the
    smallest mask, so complete columns are never scanned for one.
    """
    (tn, td), (on, od) = t_terms, o_terms
    try:
        nums = list(map(sub, map(mul, tn, od), map(mul, on, td)))
    except TypeError:
        for mask in range(1 << n_agents):
            for name, table in ("T", tn), ("O", on):
                if table[mask] is None:
                    raise SymbioError(f"{name} table lacks coalition {{}}",
                                      members_of(mask)) from None
        raise
    return ISNGame(n_agents, *_scaled(nums, list(map(mul, td, od))))


def make_isn_game(n_agents: int, t_table: Mapping, o_table: Mapping) -> ISNGame:
    """Build the game v(S) = T(S) - O(S) from total cost tables.

    Both tables must carry an entry for every coalition with two or more
    members. Construction succeeds even if the result is not superadditive;
    run check_superadditive separately to validate that claim.
    """
    t_columns, o_columns = _columns(n_agents, t_table), _columns(n_agents, o_table)
    _check_agent_count(n_agents)
    return game_from_masks(n_agents, _scatter(n_agents, t_columns, "T"),
                           _scatter(n_agents, o_columns, "O"))


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


def _fields(pattern: bytes, bit: int, n: int) -> int:
    """The packed int of 2^n fields of len(pattern) bytes each, field S
    holding `pattern` where S has `bit` clear and zeros where it is set;
    built by bytes repetition, little-endian like is_supermodular's table."""
    return int.from_bytes(
        (pattern * (1 << bit) + bytes(len(pattern) << bit)) * (1 << (n - bit - 1)), "little")


def _pack(values, width: int, n: int) -> int:
    """2^n ints in [0, 2^(8 width)) as one little-endian int of `width`-byte
    fields. struct packs them in one call, as items of 1, 2, 4 or 8 bytes
    (several times faster than an int.to_bytes per value), and each field
    keeps its item's low `width` bytes."""
    word = 1 << (width - 1).bit_length()
    data = struct.pack(f"<{1 << n}{_STRUCT_CODES[word]}", *values)
    if word != width:
        data, items = bytearray(width << n), data
        for k in range(width):
            data[k::width] = items[k::word]
    return int.from_bytes(data, "little")


def _supermodular_lists(val, n: int) -> bool:
    """is_supermodular on lists: agent i's marginals v(S+i) - v(S) are built
    once; for each j > i those with j in S are compared with those without,
    n(n-1)/2 * 2^(n-2) comparisons in all, none in a Python loop of its own."""
    for i in range(n):
        lo, hi = _halves(val, i)
        marginal = list(map(sub, hi, lo))  # over masks without i, i's bit taken out
        for j in range(i, n - 1):  # agent j + 1, at bit j of the marginal's index
            without, with_ = _halves(marginal, j)
            if any(map(lt, with_, without)):
                return False
    return True


def is_supermodular(val, n: int) -> bool:
    """Whether v(S+i+j) + v(S) >= v(S+i) + v(S+j) for every S and i < j
    outside S, on a mask-indexed table of n agents: the game is convex.

    The table is packed into one int P, little-endian: field S, `width`
    bytes or `bits` bits, holds v(S) - min v, and `width` leaves three spare
    bits over the range R = max v - min v. Agent i's marginals are one
    shift, add and subtract, M = (P >> (bits << i)) + OFFSET - P, OFFSET
    holding 2^(bits-2) in every field; M's fields of masks holding i are
    then cleared. As R < 2^(bits-3), each other field of M is m_i(S) +
    2^(bits-2), strictly between 2^(bits-3) and 3 * 2^(bits-3), so no field
    borrows from its neighbour and every field's flag, its top bit, is
    clear. For each j > i, ((M >> (bits << j)) | FLAGS) - M then holds
    2^(bits-1) + m_i(S+j) - m_i(S) in field S, again without a borrow: its
    flag is clear exactly where m_i(S+j) < m_i(S), and the flags of the
    fields without j must all be set (where S holds i, both fields are 0).
    That is n(n-1)/2 word-parallel steps of a few big-int operations each
    over all 2^n fields (SIMD within a register, Warren's Hacker's Delight).

    A range of more than PACKED_RANGE_BITS bits would take fields wider than
    a 64-bit word, and the packed steps grow with the width, so such a
    table takes the list kernel (_supermodular_lists); the verdict is the
    same.
    """
    lo = min(val)
    spread = (max(val) - lo).bit_length()
    if spread > PACKED_RANGE_BITS:
        return _supermodular_lists(val, n)
    width = (spread + 10) // 8  # spread + 3 bits, in bytes
    bits = 8 * width
    if lo:
        val = map(sub, val, repeat(lo))
    packed = _pack(val, width, n)
    flag = bytes(width - 1) + b"\x80"
    flags = int.from_bytes(flag * (1 << n), "little")
    without = [_fields(flag, j, n) for j in range(1, n)]  # flags of the fields without j
    for i in range(n - 1):
        marginal = (((packed >> (bits << i)) + (flags >> 1) - packed)  # flags >> 1 is OFFSET
                    & _fields(b"\xff" * width, i, n))
        for j in range(i + 1, n):
            check = without[j - 1]
            if (((marginal >> (bits << j)) | flags) - marginal) & check != check:
                return False
    return True


def check_superadditive(game) -> "tuple[frozenset, frozenset] | None":
    """Return None if v(S u T) >= v(S) + v(T) for all disjoint nonempty S, T.

    Otherwise return the violating pair (A, B) with the smallest bitmask a of
    A and, for that a, the largest bitmask b of B; a < b always holds, since
    the pair (B, A) violates too. Works on any game with n_agents and a
    mask-indexed `scaled` table of ints, which it scans as they are.

    A convex game with v(empty) <= 0 is superadditive (Shapley 1971), so
    is_supermodular's certificate comes first; only a game it does not
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


def _sums(xs) -> "list[int]":
    """x(S), the sum of x_i over i in S, for every mask S: the masks holding
    agent i are those without it, each plus x_i."""
    sums = [0]
    for x in xs:
        sums += [s + x for s in sums]
    return sums


def subgame(game, members: Iterable[int]) -> ISNGame:
    """Restrict a game to `members`, re-indexing them densely by ascending id.

    The restriction must itself be normalized (zero singleton values);
    coordinated games whose incentive rules target groups always are. The
    parent's worth of the empty set is not carried over. The parent's ints
    are copied over its denominator, which ISNGame then reduces, except for
    the whole roster of a parent worth 0 on the empty set: that restriction
    is the parent's own tuple, which ISNGame takes uncopied. The owners
    reject every fault: check_roster an id off the parent's roster, and
    ISNGame an empty restriction (roster size 0) and a nonzero singleton
    (entry 1 << k is the parent's at 1 << (k-th member))."""
    members = check_roster(members, game.n_agents)
    scaled = game.scaled
    if len(members) == game.n_agents and not scaled[0]:
        return ISNGame(game.n_agents, scaled, game.denominator)
    original = _sums([1 << i for i in sorted(members)])  # parent mask of each subgame mask
    return ISNGame(len(members), (0, *map(scaled.__getitem__, original[1:])), game.denominator)
