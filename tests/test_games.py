import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbio import cli, games
from symbio.coordination import CoordinatedGame, Policy, synthesize_promotion
from symbio.errors import BoundExceeded, SymbioError
from symbio.exchange import ExchangeScenario, scenario_to_game, t_value, waste_offer
from symbio.games import (
    INT_LIMIT,
    PLAIN_LIMIT,
    ISNGame,
    _scatter,
    as_money,
    check_roster,
    check_superadditive,
    coalition,
    coalitions,
    fraction_text,
    game_from_masks,
    is_supermodular,
    make_isn_game,
    mask_of,
    members_of,
    money_terms,
    plain_terms,
    subgame,
)
from symbio.mcnets import MCNet, MCNetRule, evaluate
from symbio.solutions import in_core

from helpers import (
    convex_game,
    fraction_check_superadditive,
    mixed_game,
    one_violation_game,
    plain_terms_by_value,
    reduce_first_scaled,
    random_game,
    random_net,
    random_scenario,
    supermodularity_violations,
)


def test_make_isn_game_subtracts_tables():
    game = make_isn_game(2, {(0, 1): 100}, {(0, 1): 80})
    assert game.value({0, 1}) == 20


def test_g3_construction_and_values(g3):
    t = {(0, 1): 30, (0, 2): 24, (1, 2): 26, (0, 1, 2): 60}
    o = {(0, 1): 20, (0, 2): 20, (1, 2): 20, (0, 1, 2): 48}
    game = make_isn_game(3, t, o)
    assert game == g3
    assert game.value({0, 1}) == 10
    assert game.value({2}) == 0
    assert game.value(set()) == 0


def test_one_agent_game_is_all_zero():
    game = make_isn_game(1, {}, {})
    assert game.value(set()) == 0
    assert game.value({0}) == 0


def test_missing_coalition_rejected():
    with pytest.raises(SymbioError, match=r"T table lacks coalition \[0, 2\]"):
        make_isn_game(3, {(0, 1): 1}, {(0, 1): 0})


def test_game_from_masks_names_the_smallest_lacking_coalition():
    """A None in either column is named at its smallest mask, T's before O's
    there; a column entry of another type keeps its TypeError."""
    ones = [1] * 8

    def column(*lacking):
        return [None if mask in lacking else 0 for mask in range(8)], ones

    for t, o, message in [((5,), (3, 7), r"O table lacks coalition \[0, 1\]"),
                          ((3, 6), (3,), r"T table lacks coalition \[0, 1\]"),
                          ((7,), (), r"T table lacks coalition \[0, 1, 2\]")]:
        with pytest.raises(SymbioError, match=message):
            game_from_masks(3, column(*t), column(*o))
    with pytest.raises(TypeError):
        game_from_masks(3, column(), ([0] * 7 + ["9"], ones))


def test_out_of_roster_table_entry_rejected():
    with pytest.raises(SymbioError, match=r"agent 3 not on a roster of 2"):
        make_isn_game(2, {(0, 3): 1}, {(0, 3): 0})


def test_coalition_listed_twice_rejected():
    with pytest.raises(SymbioError, match=r"value table lists coalition \[0, 1\] twice"):
        ISNGame.from_values(2, {(0, 1): 1, (1, 0): 2})
    with pytest.raises(SymbioError, match=r"T table lists coalition \[0, 2\] twice") as e:
        make_isn_game(3, {(0, 2): 1, (2, 0): 1}, {})
    assert e.value.coalitions == (frozenset({0, 2}),)


def test_from_values_reads_every_value_before_the_key_rules():
    """As in make_isn_game and the CLI, every value is read before the size
    and repeat rules run: a bad value listed after a singleton key is the
    fault named."""
    with pytest.raises(ValueError, match="'x' is not a number"):
        ISNGame.from_values(3, {(0,): 1, (0, 1): "x"})
    with pytest.raises(SymbioError, match=r"value table keys need two or more members"):
        ISNGame.from_values(3, {(0,): 1, (0, 1): "2"})


def test_cancelling_denominators_are_reduced_before_the_lcm(monkeypatch):
    """T(S) and O(S) of 30 coalitions share a 1000-digit denominator of their
    own, which cancels in T(S) - O(S). Unreduced, the lcm of the 30 products
    (about 200,000 bits) would still fit a 10-agent table's budget (2^18
    bits a value), and every entry would be scaled over it; reduced value by
    value first, the table reaches ISNGame over denominator 1."""
    n = 10
    t, o = {}, {}
    for k, mask in enumerate(m for m in range(1 << n) if m.bit_count() >= 2):
        s = members_of(mask)
        if k < 30:
            q = 10**999 + k
            t[s], o[s] = Fraction(mask * q + 1, q), Fraction(1, q)
        else:
            t[s], o[s] = mask, 0
    game = make_isn_game(n, t, o)
    assert game.denominator == 1
    assert game.scaled == tuple(m if m.bit_count() >= 2 else 0 for m in range(1 << n))
    # with a budget of 100,000 bits a value, which the unreduced lcm passes
    # and the lcm of the 30 denominators alone (about 99,700 bits) meets,
    # cancelling denominators still cost nothing; the same T with O = 0
    # takes the whole budget, and one distinct denominator more passes it
    monkeypatch.setattr(games, "SCALED_BITS", 100_000 << n)
    assert make_isn_game(n, t, o) == game
    assert make_isn_game(n, t, dict.fromkeys(o, 0)).denominator.bit_length() <= 100_000
    t[members_of((1 << n) - 1)] = Fraction(1, 10**999 + 30)
    with pytest.raises(BoundExceeded, match="common denominator of 1024 values"):
        make_isn_game(n, t, dict.fromkeys(o, 0))


def test_value_rejects_unknown_agent(g3):
    with pytest.raises(SymbioError, match="agent 7 not on a roster of 3"):
        g3.value({0, 7})


def test_enumeration_bound():
    with pytest.raises(BoundExceeded):
        make_isn_game(17, {}, {})


def test_bound_is_checked_before_the_table_is_built():
    with pytest.raises(BoundExceeded):
        ISNGame.from_values(100, {})
    with pytest.raises(BoundExceeded):
        make_isn_game(100, {}, {})
    with pytest.raises(ValueError, match="at least one agent"):
        ISNGame.from_values(0, {})


def test_game_table_is_normalized():
    zeros = (Fraction(0),) * 4
    assert ISNGame.from_table(2, zeros).value({0, 1}) == 0
    for mask in (0, 1, 2):
        table = list(zeros)
        table[mask] = Fraction(1)
        with pytest.raises(ValueError):
            ISNGame.from_table(2, tuple(table))
    with pytest.raises(ValueError):
        ISNGame.from_table(2, zeros[:3])
    # the constructor itself takes ints over a denominator, stored in lowest terms
    assert ISNGame(2, (0, 0, 0, 6), 4) == ISNGame.from_table(2, (0, 0, 0, Fraction(3, 2)))
    for scaled, d in ((0, 0, 0, Fraction(1, 2)), 1), ((0, 0, 0, 1), 0), ((0, 0, 0, 1), "2"):
        with pytest.raises(ValueError, match="must be ints"):
            ISNGame(2, scaled, d)


def test_every_builder_gives_the_same_game():
    """game_from_masks (T - O from ints, each table's columns written in
    mask order by _scatter), ISNGame.from_values (a coalition mapping) and
    ISNGame.from_table (Fractions) build equal games from one
    mixed-denominator table: equal and equally hashed, with the same ints
    over the lcm of the values' reduced denominators, and a table view of
    Fractions."""
    import random

    rng = random.Random(61)
    for n in range(1, 7):
        for _ in range(6):
            table = mixed_game(rng, n).table
            values = {members_of(m): table[m] for m in range(1 << n) if m.bit_count() >= 2}
            # T(S) over an unreduced denominator, O(S) = T(S) - v(S)
            t = {m: (3 * m * v.denominator + 1, 3 * v.denominator) for m, v in enumerate(table)
                 if m.bit_count() >= 2}
            o = {m: money_terms(Fraction(*t[m]) - table[m]) for m in t}
            t_columns, o_columns = ((list(x), *map(list, zip(*x.values()))) if x else ([], [], [])
                                    for x in (t, o))
            built = [game_from_masks(n, _scatter(n, t_columns, "T"), _scatter(n, o_columns, "O")),
                     ISNGame.from_values(n, values),
                     ISNGame.from_table(n, table)]
            for game in built:
                assert game == built[0] and hash(game) == hash(built[0])
                assert game.scaled == built[0].scaled
                assert all(type(v) is int for v in game.scaled)
                assert game.denominator == lcm(*(v.denominator for v in table))
                assert game.table == table and all(type(v) is Fraction for v in game.table)


def test_fraction_text_is_str_of_fraction():
    import random

    rng = random.Random(5)
    dens = [1, 2, 3, 4, 6, 12, 105, 630, 10**40 + 1]
    for num in [0, 1, -1, 6, -6, 12, 35, -105, 10**50, -(10**50) - 3]:
        for den in dens:
            assert fraction_text(num, den) == str(Fraction(num, den))
    for _ in range(2000):
        den = rng.choice(dens) * rng.randint(1, 30)
        num = rng.randint(-5 * den, 5 * den)
        assert fraction_text(num, den) == str(Fraction(num, den))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter writes ints of any length")
def test_fraction_text_takes_fractions_and_bounds_their_length():
    """fraction_text writes a Fraction, or an int or Fraction over a
    denominator, as str(Fraction) does; a number longer than the
    interpreter writes raises BoundExceeded, not ValueError."""
    for x in Fraction(0), Fraction(-7, 3), Fraction(12), 5, -4:
        assert fraction_text(x) == str(Fraction(x))
        assert fraction_text(x, 6) == str(Fraction(x) / 6)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert fraction_text(10**639, 3) == f"{10**639}/3"
        for args in (10**640, 1), (1, 10**640), (Fraction(1, 3 * 10**640),):
            with pytest.raises(BoundExceeded, match="more than 640 digits, the interpreter's"):
                fraction_text(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def test_exact_rational_values():
    game = make_isn_game(2, {(0, 1): as_money("1/3")}, {(0, 1): as_money("0.25")})
    assert game.value({0, 1}) == Fraction(1, 12)


def test_as_money_rejects_floats():
    with pytest.raises(TypeError):
        as_money(0.1)


def test_as_money_caps_digits_and_exponent():
    assert as_money("1e1000") == 10**1000
    assert as_money("-2.5E-1000") == Fraction(-25, 10**1001)
    assert as_money("7" * 1000) == int("7" * 1000)
    assert as_money(Decimal("0.25")) == Fraction(1, 4)
    for text in ("1e1001", "1e999999999", "1E-999999999", " 1e+5_000 ", "7" * 1001):
        with pytest.raises(ValueError):
            as_money(text)
    with pytest.raises(ValueError):
        as_money(Decimal("1e999999999"))


def test_as_money_hostile_strings():
    """The digit count runs only past MAX_DIGITS characters and the exponent
    pattern only on text holding an e; verdicts and messages are the same."""
    with pytest.raises(SymbioError, match=r"^number has more than 1000 digits$"):
        as_money("1" * 1001)
    with pytest.raises(SymbioError, match=r"^number has more than 1000 digits$"):
        as_money("3/" + "7" * 1000)
    assert as_money(" " * 2000 + "5/" + "9" * 998) == Fraction(5, int("9" * 998))
    with pytest.raises(SymbioError, match=r"^number '1e999999999' has an exponent beyond 1000$"):
        as_money("1e999999999")
    with pytest.raises(SymbioError, match=r"^number '-2E-1001' has an exponent beyond 1000$"):
        as_money("-2E-1001")
    assert as_money("1E-5") == Fraction(1, 100000)
    assert as_money("2.5e3") == 2500
    with pytest.raises(SymbioError, match=r"^'1/0' has a zero denominator$"):
        as_money("1/0")
    for text in ("e", "1e", "1/e5", "0x1e5"):
        with pytest.raises(SymbioError, match=r"is not a number$"):
            as_money(text)


#: Text amounts and how Python 3.11's Fraction(str) read them, written out:
#: (numerator, denominator) in lowest terms, or the exception raised. The
#: package reads them so on every interpreter; Fraction(str) itself does not
#: (3.10 rejects "1_0/3", 3.12 and 3.13 accept "3/ 4"). The package raises
#: SymbioError, a ValueError, for every text Fraction(str) rejects, so the
#: zero denominator, a ZeroDivisionError there, is listed as SymbioError.
NUMBER_CORPUS = [
    (" 3/4 ", (3, 4)),
    ("+3/4", (3, 4)),
    ("6/4", (3, 2)),
    ("-0/5", (0, 1)),
    ("1_0/3", (10, 3)),
    ("\u0663/4", (3, 4)),  # ARABIC-INDIC DIGIT THREE
    ("3/ 4", ValueError),
    ("1/00", SymbioError),
    ("-3/-4", ValueError),
    ("1.5", (3, 2)),
    ("5.", (5, 1)),
    ("1e3", (1000, 1)),
    ("2.5E-3", (1, 400)),
    ("0x10", ValueError),
    ("", ValueError),
    ("5.d", ValueError),
]


@pytest.mark.parametrize("text,expected", NUMBER_CORPUS)
def test_number_grammar_corpus(text, expected):
    if isinstance(expected, tuple):
        value = as_money(text)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == expected
        num, den = games.money_terms(text)
        assert den > 0 and num * expected[1] == expected[0] * den
    else:
        with pytest.raises(expected):
            as_money(text)
        with pytest.raises(expected):
            games.money_terms(text)


#: Number-shaped text: signs, spaces, underscores, a Unicode digit, leading
#: zeros, zero denominators, decimals and exponents, digit runs past
#: MAX_DIGITS, and numbers run together by the characters a bulk reader
#: might join a column with.
_digits = (st.sampled_from(["0", "00", "1", "7", "12", "1_0", "\u0663"])
           | st.integers(400, 1200).map(lambda k: "9" * k))
_number = st.tuples(st.sampled_from(["", "-"]), st.integers(0, 10**6).map(str),
                    st.sampled_from(["", "/7", "/12"])).map("".join) | st.tuples(
    st.sampled_from(["", "-", "+", " "]), _digits,
    st.sampled_from(["", "/", "/0", "/00", "/05", "/7", "/-3"]) | _digits.map("/".__add__),
    st.sampled_from(["", " ", ".5", "e5"]),
).map("".join)
number_texts = st.tuples(st.sampled_from([" ", ",", "],[", "/", ""]),
                         st.lists(_number, min_size=1, max_size=3)).map(lambda x: x[0].join(x[1]))


def _bulk_reads_as_number(values):
    """plain_terms declines the column exactly when matching _PLAIN value by
    value leaves a value odd, and otherwise answers as that matching does,
    reading each value as cli._number does: no value added or dropped."""
    terms = plain_terms(list(values))
    nums, dens, odd = plain_terms_by_value(values)
    assert terms == (None if odd else (nums, dens))
    if terms is not None:
        assert len(nums) == len(dens) == len(values)
        assert list(zip(nums, dens)) == [cli._number(value, "x") for value in values]


#: JSON values of every kind the reader can meet, numbers of every kind,
#: and ints just past INT_LIMIT.
json_values = (st.text() | number_texts | st.booleans() | st.none() | st.integers()
               | st.fractions() | st.integers(-9, 9).map(lambda k: k * INT_LIMIT + k)
               | st.lists(st.integers(), max_size=2)
               | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@given(st.lists(json_values, max_size=6))
@settings(max_examples=500, deadline=None)
def test_bulk_number_check_reads_as_parse_or_declines(values):
    """plain_terms reads each value of a column of any JSON values as the
    CLI's own number reader does, or declines the column for the caller: no
    value is read otherwise, and none is added or dropped."""
    _bulk_reads_as_number(values)


@pytest.mark.parametrize("text", [
    "1,2", "1 2", "1],[2", "1/2/3", "3/-4", "007", "1/05", "-", "", "9" * 500 + "/" + "9" * 500,
    "-" + "9" * 501, "1/" + "9" * 501, "[1", '"1', "1-2", "1/0", "-0/-0", "1\t", "٣/4",
])
def test_bulk_number_check_edges(text):
    _bulk_reads_as_number([5, text, "-3/4"])


def test_bulk_number_check_reads_plain_columns():
    assert plain_terms([]) == ([], [])
    assert plain_terms([3, -7, 0]) == ([3, -7, 0], [1, 1, 1])
    assert plain_terms(["-0/5", 7, "12/9", "0", "-" + "9" * 500 + "/" + "9" * 500]) == (
        [0, 7, 12, 0, -int("9" * 500)], [5, 1, 9, 1, int("9" * 500)])
    assert plain_terms([Fraction(-5, 2), Fraction(4), 1]) == ([-5, 4, 1], [2, 1, 1])
    assert plain_terms([10**1000, 1]) is None
    for odd in True, None, [2], {"a": 3}, " 6":
        assert plain_terms([1, odd, "3/4"]) is None, odd


#: Atoms fuzzed value texts are joined from: plain parts, and every
#: character or word a bulk reading of the joined column could misread.
_ATOMS = ["0", "-0", "7", "-12", "35", "/", "/3", "/-3", "/0", "/-0", "00", "012", "-",
          ",", " ", "\t", "\n", "\r", "[", "]", "{", "}", '"', "NaN", "Infinity", "-Infinity",
          "true", "false", "null", "1.5", "1e3", "٣",
          "9" * 500, "9" * 501, "1" + "0" * 499, "1" + "0" * 500]
_plain_values = (st.integers(-10**6, 10**6)
                 | st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**4)).map(
                     lambda t: f"{t[0]}/{t[1]}"))
_odd_values = (st.lists(st.sampled_from(_ATOMS), max_size=4).map("".join)
               | st.booleans() | st.none() | st.lists(st.integers(), max_size=2)
               | st.sampled_from([PLAIN_LIMIT - 1, PLAIN_LIMIT, -PLAIN_LIMIT, INT_LIMIT])
               # a raw JSON decimal, as json hands it over: a Fraction of its text
               | st.tuples(st.integers(-99, 99), st.integers(0, 99)).map(
                   lambda t: as_money(f"{t[0]}.{t[1]}")))
_columns = (st.lists(_plain_values, max_size=8)
            | st.lists(_plain_values | _odd_values, max_size=8)
            | st.tuples(st.lists(_plain_values, max_size=4), _odd_values,
                        st.lists(_plain_values, max_size=4)).map(
                            lambda t: [*t[0], t[1], *t[2]]))


@given(_columns)
@settings(max_examples=1500, deadline=None)
def test_bulk_column_check_is_the_per_value_check(values):
    """plain_terms' one check of a joined column accepts exactly the columns
    whose every value _PLAIN matches, and answers as the value-by-value
    reading does: commas, a second "/", JSON whitespace, brackets, quotes,
    JSON constants, floats, leading zeros, negative and zero denominators
    and parts past 500 digits each make the column declined."""
    nums, dens, odd = plain_terms_by_value(values)
    assert plain_terms(list(values)) == (None if odd else (nums, dens))


def test_superadditive_holds_on_g3(g3):
    assert check_superadditive(g3) is None


def test_superadditive_counterexample():
    game = ISNGame.from_values(3, {(0, 1): 5, (0, 1, 2): 3})
    assert check_superadditive(game) == (frozenset({0, 1}), frozenset({2}))


def test_superadditive_vacuous_for_one_agent():
    assert check_superadditive(make_isn_game(1, {}, {})) is None


def _violation_by_double_loop(game):
    n = game.n_agents
    groups = [s for s in coalitions(n, min_size=1)]
    for a in groups:
        for b in groups:
            if a & b:
                continue
            if game.value(a | b) < game.value(a) + game.value(b):
                return True
    return False


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None)
def test_superadditivity_check_matches_double_loop(seed, n):
    import random

    game = random_game(random.Random(seed), n)
    assert (check_superadditive(game) is None) == (not _violation_by_double_loop(game))


def test_superadditivity_pair_matches_fraction_scan():
    """The integer scan visits only b > a, yet returns the Fraction scan's
    exact pair, on games that may reach the empty set and singletons too."""
    import random

    rng = random.Random(83)
    pairs = []
    for n in range(2, 8):
        for _ in range(20):
            game = mixed_game(rng, n)
            for g in (game, CoordinatedGame(game, random_net(rng, n))):
                pair = check_superadditive(g)
                assert pair == fraction_check_superadditive(g)
                pairs.append(pair)
    violations = [p for p in pairs if p is not None]
    assert len(violations) >= 100 and len(pairs) - len(violations) >= 50
    assert sum(len(a) >= 2 for a, _ in violations) >= 5


def _ranged(table, spread, c):
    """k * v(S) + c for every mask S, k = spread // (max v - min v), with the
    largest entry then raised so that max - min is exactly `spread`."""
    k = spread // (max(table) - min(table))
    out = [k * v + c for v in table]
    top = out.index(max(out))
    out[top] += spread - (out[top] - min(out))
    return out


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=9))
@settings(max_examples=80, deadline=None)
def test_supermodularity_matches_the_pairwise_oracle(seed, n):
    """is_supermodular agrees with the brute-force (S, i, j) check on convex,
    random and mixed-denominator games, on games that fail at exactly one
    (S, i, j), at S = empty and at S+i+j = N among them (the packed table's
    first and last fields, where its shifts bring in zero fields), and on
    their tables moved by a constant (negative entries, v(empty) != 0) and
    stretched so that max - min is just below, at and just above
    2^PACKED_RANGE_BITS, where the packed kernel gives way to the list
    kernel, past 2^200, the widest range that some field width holds (three
    bits short of whole bytes), or of a random bit length. The oracle reads
    each game's Fraction table up to 7 agents; at 8 and 9, where scanning a
    mixed-denominator table of Fractions takes seconds, it reads the scaled
    ints, the same values times their common denominator."""
    import random

    rng = random.Random(seed)
    games_ = [convex_game(rng, n), random_game(rng, n), mixed_game(rng, n)]
    if n >= 2:
        for others in None, 0, n - 2:
            game, where = one_violation_game(rng, n, others)
            assert supermodularity_violations(game.table if n <= 7 else game.scaled, n) == [where]
            games_.append(game)
    limit = 1 << games.PACKED_RANGE_BITS
    for game in games_:
        expected = not supermodularity_violations(game.table if n <= 7 else game.scaled, n)
        assert is_supermodular(game.scaled, n) is expected
        if max(game.scaled) == min(game.scaled):
            continue
        c = rng.choice([-1, 1]) * rng.randrange(1 << rng.choice([1, 8, 100]))
        bits = rng.randint(1, games.PACKED_RANGE_BITS)
        for spread in (limit - 1, limit, limit + 1, (1 << 200) + rng.randrange(limit),
                       (1 << 8 * rng.randint(1, 8) - 3) - 1, rng.randrange(1 << bits - 1, 1 << bits)):
            if spread >= max(game.scaled) - min(game.scaled):
                table = _ranged(game.scaled, spread, c)
                assert is_supermodular(table, n) is (not supermodularity_violations(table, n))
    assert is_supermodular(games_[0].scaled, n)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_supermodularity_ignores_shift_and_scale(seed, n):
    """Adding one constant c to every entry, the empty set's included, or
    multiplying every entry by an int k > 0 leaves is_supermodular's verdict
    as it is. One k keeps max - min below 2^PACKED_RANGE_BITS, in the
    packed kernel, and one takes it past, into the list kernel, so the
    verdicts compared cross the kernels' boundary both ways; c lies far past
    the range or within it. check_superadditive returns the pair the
    Fraction scan finds on every one of those tables, certified (v(empty)
    <= 0) or walked."""
    import random
    from types import SimpleNamespace

    rng = random.Random(seed)
    base = [convex_game(rng, n), random_game(rng, n)]
    if n >= 2:
        base.append(one_violation_game(rng, n)[0])
    limit = 1 << games.PACKED_RANGE_BITS
    for game in base:
        table = game.scaled
        spread = max(table) - min(table) or 1
        assert spread < limit
        verdict = is_supermodular(table, n)
        narrow = rng.randint(1, (limit - 1) // spread)
        wide = rng.randint(limit // spread + 1, 1 << 130)
        for k in narrow, wide:
            for c in rng.randint(-(1 << 100), 1 << 100), rng.randint(-spread, spread):
                moved = [k * v + c for v in table]
                assert is_supermodular(moved, n) is verdict
                moved = SimpleNamespace(n_agents=n, scaled=moved, table=moved)
                assert check_superadditive(moved) == fraction_check_superadditive(moved)


def test_packed_certificate_memory_at_the_agent_bound():
    """At 16 agents, on a convex table whose range takes 8-byte fields, the
    packed kernel's peak allocation stays within n + 6 packed ints."""
    import tracemalloc

    n = 16
    table = [mask.bit_count() ** 2 << 50 for mask in range(1 << n)]  # range 2^58
    packed_int = sys.getsizeof((1 << (64 << n)) - 1)
    tracemalloc.start()
    try:
        assert is_supermodular(table, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (n + 6) * packed_int


def test_superadditivity_pair_matches_fraction_scan_on_convex_tables():
    """The convexity certificate returns None only where the pair walk
    passes too: on convex games, on games one second difference short of
    convex, and on coordinated tables whose empty set or singletons are
    worth something (the certificate needs v(empty) <= 0)."""
    import random

    rng = random.Random(29)
    certified = walked = 0
    for n in range(1, 8):
        for _ in range(12):
            convex = convex_game(rng, n)
            nets = [MCNet(n, ()), random_net(rng, n),
                    MCNet(n, [MCNetRule({i}, (), rng.randint(-5, 5) or 1) for i in range(n)])]
            if n >= 2:  # the rule applies to the empty set: v(empty) = c
                nets += [MCNet(n, [MCNetRule((), {0}, c)]) for c in (-3, Fraction(1, 2))]
            tables = [CoordinatedGame(convex, net) for net in nets]
            if n >= 2:
                tables.append(one_violation_game(rng, n)[0])
            for g in tables:
                pair = check_superadditive(g)
                assert pair == fraction_check_superadditive(g)
                val = g.scaled
                if val[0] <= 0 and is_supermodular(val, n):
                    certified += 1
                    assert pair is None
                else:
                    walked += 1
    assert certified >= 200 and walked >= 100


def test_scaled_table_bound(monkeypatch):
    """games._scaled writes a table's terms as ints over a common
    denominator, which _lowest takes to the lcm of the reduced denominators,
    and raises BoundExceeded once the denominator it scales by passes the
    table's share of SCALED_BITS."""
    terms = [1, -1, 2], [3, 5, 7]  # lcm 105, 7 bits
    assert games._scaled(*terms) == ([35, -21, 30], 105)
    assert games._lowest(*games._scaled([4, 5], [1, 1])) == ((4, 5), 1)
    assert games._scaled([2, 3], [4, 9]) == ([18, 12], 36)  # a short lcm, as given
    assert games._lowest(*games._scaled([2, 3], [4, 9])) == ((3, 2), 6)  # 1/2 and 1/3
    assert games._lowest(*games._scaled([0, 6, -10], [7, 3, 5])) == ((0, 2, -2), 1)
    monkeypatch.setattr(games, "SCALED_BITS", 3 * 7)
    assert games._scaled(*terms)[1] == 105
    monkeypatch.setattr(games, "SCALED_BITS", 3 * 7 - 1)
    with pytest.raises(BoundExceeded, match="needs more than 6 bits"):
        games._scaled(*terms)


def test_scaled_folds_the_lcm_pairwise(monkeypatch):
    """games._scaled folds 247 distinct 400-bit denominators into their lcm
    level by level: the lcm calls' operands total at most the inputs' bits
    on each of ceil(log2 247) = 8 levels, where a running lcm takes the
    grown lcm at every step, about 247 / 2 times the inputs' bits in all."""
    dens = [10**120 + mask for mask in range(1 << 8) if mask.bit_count() >= 2]
    operand_bits = []
    fold = games.lcm

    def counting(*args):
        operand_bits.append(sum(a.bit_length() for a in args))
        return fold(*args)

    monkeypatch.setattr(games, "lcm", counting)
    ints, d = games._scaled([1] * len(dens), dens)
    assert d == lcm(*dens) and ints == [d // den for den in dens]
    assert sum(operand_bits) <= 8 * sum(den.bit_length() for den in dens)


@pytest.mark.parametrize("seed", range(3))
def test_scaled_matches_the_reduce_first_fold(seed, monkeypatch):
    """_scaled's ints and denominator, taken to lowest terms by _lowest, are
    the reduce-first fold's on random columns, short lcms and long ones, and
    so is each SCALED_BITS error: one bit less than the reduced lcm's raises
    the same message, and a budget of exactly the bits _scaled scales by
    (the lcm as given while it fits WORD_BITS, else the reduced one) is met."""
    rng = random.Random(seed)
    dens_pool = [1, 2, 3, 4, 6, 9, 12, 35, 2**31 - 1, 2**61 - 1, 3 * 2**62, 10**40 + 7]
    for _ in range(300):
        count = rng.randint(1, 30)
        dens = [rng.choice(dens_pool) * rng.choice([1, 1, 2, 5]) for _ in range(count)]
        nums = [rng.randint(-10**6, 10**6) * rng.choice([1, den, 2, 3]) for den in dens]
        expected = reduce_first_scaled(nums, dens)
        assert games._lowest(*games._scaled(list(nums), list(dens))) == expected
        bits = expected[1].bit_length()
        given = lcm(*dens).bit_length()
        scaled_bits = given if given <= games.WORD_BITS else bits
        for budget in count * scaled_bits, count * bits - 1:
            monkeypatch.setattr(games, "SCALED_BITS", budget)
            try:
                within = reduce_first_scaled(nums, dens)
            except BoundExceeded as e:
                with pytest.raises(BoundExceeded, match=f"^{re.escape(str(e))}$"):
                    games._scaled(list(nums), list(dens))
            else:
                assert games._lowest(*games._scaled(list(nums), list(dens))) == within
        monkeypatch.undo()


def test_scaled_takes_one_gcd_through_64_bits(monkeypatch):
    """A game built from values whose unreduced lcm has 64 bits takes only
    _lowest's gcds: one of d with the table's sum, then the chain over the
    whole table from it; one of 65 bits takes the reduce-first fold, one gcd
    per value, and then _lowest's. Both answer as the fold does: 7/2^(b-3),
    5 and 1 over 2^(b-3) at masks 3, 5 and 6."""
    gcd_arities = []
    real_gcd = games.gcd
    monkeypatch.setattr(games, "gcd", lambda *a: gcd_arities.append(len(a)) or real_gcd(*a))
    for bits, arities in (64, [2, 9]), (65, [2] * 8 + [2, 9]):
        nums, dens = [14, 15, 6], [2 ** (bits - 2), 3, 6]  # lcm 3 * 2^(b-2), b bits
        assert lcm(*dens).bit_length() == bits
        values = {(0, 1): f"{nums[0]}/{dens[0]}", (0, 2): "15/3", (1, 2): "6/6"}
        gcd_arities.clear()
        game = ISNGame.from_values(3, values)
        assert gcd_arities == arities
        table = [0, 0, 0, 7, 0, 5 << bits - 3, 1 << bits - 3, 0]
        assert (game.scaled, game.denominator) == (tuple(table), 1 << bits - 3)
        assert reduce_first_scaled(nums, dens) == ((7, 5 << bits - 3, 1 << bits - 3),
                                                   1 << bits - 3)


def lowest(scaled, d) -> bool:
    return gcd(d, *scaled) == 1


def test_lowest_matches_the_unseeded_reduction():
    """_lowest seeds its gcd with the table's sum, gcd(gcd(d, sum), *scaled),
    and divides out just what gcd(d, *scaled) does (a divisor of d and of
    every entry divides their sum): on random tables of either sign over
    d = 1 and longer d, times a common factor, among them tables whose sum
    is 0 and tables whose sum shares a 100-bit factor with d that not every
    entry has. The public constructor's errors keep their message."""
    rng = random.Random(71)
    big = 2**100 + 277
    for trial in range(600):
        d = rng.choice([1, 2, 12, 3**50, rng.getrandbits(300) | 1])
        factor = rng.choice([1, 2, 6, 2**61 - 1, 10**40 + 7, rng.getrandbits(200) | 1])
        scaled = [rng.randint(-10**6, 10**6) * rng.choice([1, 1, 2, d])
                  for _ in range(rng.randint(0, 16))]
        if trial % 3 == 1:  # the sum cancels
            scaled.append(-sum(scaled))
        elif trial % 3 == 2:  # the sum, not every entry, is a multiple of big, and so is d
            d *= big
            scaled.append(big * rng.randint(-9, 9) - sum(scaled))
        scaled, d = [factor * v for v in scaled], factor * d
        g = gcd(d, *scaled)
        assert games._lowest(scaled, d) == (tuple(v // g for v in scaled), d // g)
    message = ("scaled values must be ints over a positive int denominator "
               "(ISNGame.from_table takes Fractions)")
    for scaled, d in (((0, 0, 0, Fraction(4, 2)), 1), ((0, 0, 0, "1"), 1), ((0, 0, 0, 1.0), 1),
                      ((0, 0, 0, 1), 0), ((0, 0, 0, 1), -2), ((0, 0, 0, 1), "2")):
        with pytest.raises(SymbioError, match=f"^{re.escape(message)}$"):
            ISNGame(2, scaled, d)


def test_every_builder_scales_to_lowest_terms():
    """ISNGame.from_table, ISNGame.from_values, make_isn_game with O = 0
    and game_from_masks build equal ints over an equal denominator, and
    every table they build is in lowest terms (gcd 1); so is every table
    of the public constructor, subgame, CoordinatedGame and scenario_to_game,
    each reduced in its constructor. One table reached two ways compares
    and hashes equal."""
    rng = random.Random(67)
    sources = [make(rng, n) for n in range(1, 7) for make in (random_game, mixed_game)
               for _ in range(4)]
    for source in sources:
        n, table = source.n_agents, source.table
        values = {members_of(m): table[m] for m in range(1 << n) if m.bit_count() >= 2}
        masks = list(map(mask_of, values))
        t_columns = (masks, [v.numerator for v in values.values()],
                     [v.denominator for v in values.values()])
        o_columns = (masks, [0] * len(masks), [1] * len(masks))
        built = [ISNGame.from_table(n, table), ISNGame.from_values(n, values),
                 make_isn_game(n, values, dict.fromkeys(values, 0)),
                 game_from_masks(n, _scatter(n, t_columns, "T"), _scatter(n, o_columns, "O"))]
        for game in built:
            assert game.scaled == source.scaled and game.denominator == source.denominator
            assert type(game.scaled) is tuple and lowest(game.scaled, game.denominator)
            assert game == source and hash(game) == hash(source)
        # the public constructor: the same ints times 6 over 6 times the denominator
        game = ISNGame(n, [6 * v for v in source.scaled], 6 * source.denominator)
        assert type(game.scaled) is tuple and lowest(game.scaled, game.denominator)
        assert game == source and hash(game) == hash(source)
        # a subgame, whose restricted values may share a smaller denominator
        members = [i for i in range(n) if rng.random() < 0.7] or [0]
        sub = subgame(game, members)
        parents = [mask_of(members[k] for k in range(len(members)) if m >> k & 1)
                   for m in range(1 << len(members))]
        again = ISNGame.from_table(len(members), [table[m] for m in parents])
        assert lowest(sub.scaled, sub.denominator)
        assert sub == again and hash(sub) == hash(again)
    # a coordinated game whose rules bring a new denominator: over fifths,
    # two rules in sixths and one in thirds are written over 30 and reduced
    # to 15, the table of one rule of their sum
    base = ISNGame.from_values(3, {(0, 1): Fraction(1, 5), (0, 2): 2, (1, 2): Fraction(3, 5),
                                   (0, 1, 2): 1})
    sixths = [MCNetRule({0, 1}, set(), Fraction(1, 6)), MCNetRule({0, 1}, set(), Fraction(1, 6)),
              MCNetRule({2}, {0}, Fraction(-1, 3))]
    summed = [MCNetRule({0, 1}, set(), Fraction(1, 3)), MCNetRule({2}, {0}, Fraction(-1, 3))]
    for rules in sixths, summed:
        game = CoordinatedGame(base, MCNet(3, rules))
        assert game.scaled == (0, 0, 0, 8, -5, 30, 4, 20) and game.denominator == 15
    # an exchange game on fractional amounts
    for trial in range(6):
        scenario = random_scenario(rng, rng.randint(2, 4), denominators=range(2, 8))
        game = scenario_to_game(scenario)
        assert lowest(game.scaled, game.denominator)
        again = ISNGame.from_table(game.n_agents, game.table)
        assert game == again and hash(game) == hash(again)


def test_rescaling_a_built_table_keeps_the_bit_budget(monkeypatch):
    """A game's table over 105 (7 bits, 8 entries) is scaled once, when it
    is built. Only a rule with a new denominator rescales it, held to
    games.SCALED_BITS: a rule in halves in a CoordinatedGame (over 210,
    8 bits). in_core rescales no table: it scales the allocation alone,
    over the allocation's own denominator, held to the same budget for its
    2^n sums (halves, thirds and sixths over 6, 3 bits). The subsidy scan
    scales nothing, so it runs on a budget below the table's own."""
    values = {(0, 1): Fraction(1, 3), (0, 2): Fraction(1, 5), (1, 2): Fraction(2, 7),
              (0, 1, 2): 1}
    game = ISNGame.from_values(3, values)
    halves = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    for bits, rescale, result in [
        (8, lambda: CoordinatedGame(game, MCNet(3, (MCNetRule({0, 1}, {2}, Fraction(1, 2)),))
                                    ).denominator, 210),
        (3, lambda: in_core(game, halves), True),
    ]:
        monkeypatch.setattr(games, "SCALED_BITS", 8 * bits)
        assert rescale() == result
        monkeypatch.setattr(games, "SCALED_BITS", 8 * bits - 1)
        with pytest.raises(BoundExceeded, match=f"needs more than {bits - 1} bits"):
            rescale()
    monkeypatch.setattr(games, "SCALED_BITS", 8 * 2)
    assert in_core(game, (Fraction(1, 3), 0, Fraction(2, 3)))  # over 3, 2 bits
    assert synthesize_promotion(game, {0, 1, 2}) == (None, 0)
    monkeypatch.setattr(games, "SCALED_BITS", 8 * 7)
    assert ISNGame.from_values(3, values) == game


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
@settings(max_examples=25, deadline=None)
def test_small_coalitions_always_zero(seed, n):
    import random

    game = random_game(random.Random(seed), n)
    assert game.value(frozenset()) == 0
    for i in range(n):
        assert game.value({i}) == 0


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
@settings(max_examples=25, deadline=None)
def test_construction_reproduces_table_difference(seed, n):
    import random

    rng = random.Random(seed)
    groups = list(coalitions(n, min_size=2))
    t = {s: Fraction(rng.randint(0, 60), rng.choice([1, 2, 3])) for s in groups}
    o = {s: Fraction(rng.randint(0, 60), rng.choice([1, 2, 3])) for s in groups}
    game = make_isn_game(n, t, o)
    for s in groups:
        assert game.value(s) == t[s] - o[s]


def test_subgame_reindexes_densely(g3):
    sub = subgame(g3, {0, 2})
    assert sub.n_agents == 2
    assert sub.value({0, 1}) == g3.value({0, 2})


def test_subgame_of_grand_coalition_is_same_game(g3):
    """The whole roster's subgame equals the copy of the parent's table with
    entry 0 set to 0, for an ISNGame, a CoordinatedGame whose exact-group
    rule leaves it normalized, and one worth 3 on the empty set and {1, 2}
    whose singletons stay 0."""
    assert subgame(g3, {0, 1, 2}) == g3
    promoted = CoordinatedGame(g3, MCNet(3, (MCNetRule({0, 1, 2}, set(), Fraction(1, 2)),)))
    empty = CoordinatedGame(g3, MCNet(3, (MCNetRule(set(), {0}, 3), MCNetRule({1}, {0, 2}, -3),
                                          MCNetRule({2}, {0, 1}, -3))))
    for game in g3, promoted, empty:
        copied = ISNGame(3, (0, *game.scaled[1:]), game.denominator)
        assert subgame(game, [2, 0, 1]) == copied
    assert empty.scaled[0] and subgame(empty, {0, 1, 2}) == ISNGame.from_values(
        3, {(0, 1): 10, (0, 2): 4, (1, 2): 9, (0, 1, 2): 12})
    assert subgame(promoted, {0, 1, 2}).value({0, 1, 2}) == Fraction(25, 2)


@pytest.mark.parametrize("call, message", [
    (lambda g3: coalition([-1]), "agent ids must be non-negative integers, got -1"),
    (lambda g3: subgame(g3, []), "a roster needs an int count of at least one agent, got 0"),
    # a rule worth 3 on every coalition without agent 0, singletons {1} and {2} included
    (lambda g3: subgame(CoordinatedGame(g3, MCNet(3, (MCNetRule(set(), {0}, 3),))), {1, 2}),
     "normalized games are worth 0 on the empty set and singletons"),
    # every builder takes the roster size from check_roster, a bool or a float included
    *((lambda g3, build=build, n=n: build(n),
       f"a roster needs an int count of at least one agent, got {n!r}")
      for build in (lambda n: ISNGame(n, (0, 0, 0, 0)), lambda n: ISNGame.from_values(n, {}),
                    lambda n: ISNGame.from_table(n, [0, 0, 0, 0]),
                    lambda n: make_isn_game(n, {}, {}), coalitions)
      for n in (0, True, 2.0, 2.5, "2", None)),
], ids=["negative-agent", "empty-subgame", "nonzero-singleton-subgame",
        *(f"{build}-size-{n!r}" for build in ("ISNGame", "from_values", "from_table",
                                               "make_isn_game", "coalitions")
          for n in (0, True, 2.0, 2.5, "2", None))])
def test_coalition_and_subgame_validation_messages(g3, call, message):
    with pytest.raises(SymbioError) as e:
        call(g3)
    assert str(e.value) == message


ID_ENTRIES = {
    "coalition": lambda g3, bad: coalition([1, bad]),
    "check_roster": lambda g3, bad: check_roster([1, bad], 3),
    "Policy": lambda g3, bad: Policy(promoted=[[0, 1, bad]]),
    "value": lambda g3, bad: g3.value([1, bad]),
    "subgame": lambda g3, bad: subgame(g3, [1, bad]),
    "evaluate": lambda g3, bad: evaluate(MCNet(3, ()), [1, bad]),
    "t_value": lambda g3, bad: t_value(ExchangeScenario(3, (), {}, {}), [1, bad]),
    "from_values": lambda g3, bad: ISNGame.from_values(3, {(1, bad): 5}),
    "make_isn_game": lambda g3, bad: make_isn_game(3, {(1, bad): 5}, {}),
    # the second rule refuses the id itself, before any net reads the patterns' union
    "MCNet-positive": lambda g3, bad: MCNet(3, (MCNetRule({0, 1}, set(), 1),
                                                MCNetRule({bad, 2}, set(), 1))),
    "MCNet-negative": lambda g3, bad: MCNet(3, (MCNetRule({0, 1}, set(), 1),
                                                MCNetRule({2}, {bad}, 1))),
    "ExchangeScenario": lambda g3, bad: ExchangeScenario(
        3, (waste_offer(1, "r", 1, 1), waste_offer(bad, "r", 1, 1)), {}, {}),
    "ExchangeScenario-transport": lambda g3, bad: ExchangeScenario(3, (), {(1, bad, "r"): 1}, {}),
    "ExchangeScenario-transaction": lambda g3, bad: ExchangeScenario(3, (), {}, {(1, bad): 10}),
}


@pytest.mark.parametrize("bad", [1.0, True, Fraction(1)], ids=repr)
@pytest.mark.parametrize("entry", ID_ENTRIES)
def test_an_id_equal_to_a_valid_one_is_refused(g3, entry, bad):
    """1.0, True and Fraction(1) equal 1 and hash like it: read as a set, the
    bad id would merge into the good one before any check."""
    with pytest.raises(SymbioError) as e:
        ID_ENTRIES[entry](g3, bad)
    assert str(e.value) == f"agent ids must be non-negative integers, got {bad!r}"


def test_the_first_bad_id_given_is_named_under_any_hash_seed():
    code = ("from symbio.games import coalition\n"
            "try:\n    coalition(['f', 'e', 'd', 'c', 'b', 'a'])\n"
            "except Exception as e:\n    print(e)")
    path = str(Path(games.__file__).parents[1])
    for seed in "0", "1":
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8",
                              timeout=30, env={"PYTHONPATH": path, "PYTHONHASHSEED": seed})
        assert done.stdout.rstrip("\n").endswith("got 'f'"), (seed, done.stdout, done.stderr)
