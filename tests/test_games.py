import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbio import cli, games
from symbio.coordination import CoordinatedGame, synthesize_promotion
from symbio.errors import BoundExceeded, SymbioError
from symbio.games import (
    INT_LIMIT,
    ISNGame,
    as_money,
    check_superadditive,
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
from symbio.mcnets import MCNet, MCNetRule
from symbio.solutions import in_core

from helpers import (
    convex_game,
    fraction_check_superadditive,
    mixed_game,
    one_violation_game,
    random_game,
    random_net,
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


def test_out_of_roster_table_entry_rejected():
    with pytest.raises(SymbioError, match=r"T table mentions agent 3, roster has 2"):
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
    handed = []
    lowest = games._lowest
    monkeypatch.setattr(games, "_lowest", lambda scaled, d: handed.append(d) or lowest(scaled, d))
    game = make_isn_game(n, t, o)
    assert handed == [1]
    assert game.scaled == tuple(m if m.bit_count() >= 2 else 0 for m in range(1 << n))


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
    """game_from_masks (T - O from ints), ISNGame.from_values (a coalition
    mapping) and ISNGame.from_table (Fractions) build equal games from one
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
            built = [game_from_masks(n, t_columns, o_columns), ISNGame.from_values(n, values),
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
    with pytest.raises(ZeroDivisionError):
        as_money("1/0")
    for text in ("e", "1e", "1/e5", "0x1e5"):
        with pytest.raises(ValueError):
            as_money(text)


#: Text amounts and how Python 3.11's Fraction(str) read them, written out:
#: (numerator, denominator) in lowest terms, or the exception raised. The
#: package reads them so on every interpreter; Fraction(str) itself does not
#: (3.10 rejects "1_0/3", 3.12 and 3.13 accept "3/ 4").
NUMBER_CORPUS = [
    (" 3/4 ", (3, 4)),
    ("+3/4", (3, 4)),
    ("6/4", (3, 2)),
    ("-0/5", (0, 1)),
    ("1_0/3", (10, 3)),
    ("\u0663/4", (3, 4)),  # ARABIC-INDIC DIGIT THREE
    ("3/ 4", ValueError),
    ("1/00", ZeroDivisionError),
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
    """plain_terms reads each value of the column as cli._number does or
    lists its position as odd (terms 0/1); no value is added or dropped."""
    nums, dens, odd = plain_terms(list(values))
    assert len(nums) == len(dens) == len(values)
    assert odd == sorted(set(odd)) and set(odd) <= set(range(len(values)))
    for k, value in enumerate(values):
        if k in odd:
            assert (nums[k], dens[k]) == (0, 1)
        else:
            assert (nums[k], dens[k]) == cli._number(value, "x")


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
    CLI's own number reader does, or leaves it for the caller: no value is
    read otherwise, and none is added or dropped."""
    _bulk_reads_as_number(values)


@pytest.mark.parametrize("text", [
    "1,2", "1 2", "1],[2", "1/2/3", "3/-4", "007", "1/05", "-", "", "9" * 500 + "/" + "9" * 500,
    "-" + "9" * 501,
])
def test_bulk_number_check_edges(text):
    _bulk_reads_as_number([5, text, "-3/4"])


def test_bulk_number_check_reads_plain_columns():
    assert plain_terms([]) == ([], [], [])
    assert plain_terms([3, -7, 0]) == ([3, -7, 0], [1, 1, 1], [])
    assert plain_terms(["-0/5", 7, "12/9", "0", "-" + "9" * 500 + "/" + "9" * 500]) == (
        [0, 7, 12, 0, -int("9" * 500)], [5, 1, 9, 1, int("9" * 500)], [])
    assert plain_terms([10**1000, 1]) == ([0, 1], [1, 1], [0])
    assert plain_terms([True, 1, None, [2], {"a": 3}, Fraction(-5, 2), Fraction(4), " 6"]) == (
        [0, 1, 0, 0, 0, -5, 4, 0], [1, 1, 1, 1, 1, 2, 1, 1], [0, 2, 3, 4, 7])


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


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=7))
@settings(max_examples=80, deadline=None)
def test_supermodularity_matches_the_pairwise_oracle(seed, n):
    """is_supermodular agrees with the brute-force (S, i, j) check on convex,
    random and mixed-denominator games, and on games that fail at exactly
    one (S, i, j)."""
    import random

    rng = random.Random(seed)
    games_ = [convex_game(rng, n), random_game(rng, n), mixed_game(rng, n)]
    if n >= 2:
        game, where = one_violation_game(rng, n)
        assert supermodularity_violations(game.table, n) == [where]
        games_.append(game)
    for game in games_:
        expected = not supermodularity_violations(game.table, n)
        assert is_supermodular(game.scaled, n) is expected
    assert is_supermodular(games_[0].scaled, n)


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
    """games._scaled writes a table's terms as ints over the lcm of the
    reduced denominators, reducing each value first, and raises
    BoundExceeded once that lcm passes the table's share of SCALED_BITS."""
    terms = [1, -1, 2], [3, 5, 7]  # lcm 105, 7 bits
    assert games._scaled(*terms) == ([35, -21, 30], 105)
    assert games._scaled([4, 5], [1, 1]) == ([4, 5], 1)
    assert games._scaled([2, 3], [4, 9]) == ([3, 2], 6)  # 1/2 and 1/3, not over 36
    assert games._scaled([0, 6, -10], [7, 3, 5]) == ([0, 2, -2], 1)
    monkeypatch.setattr(games, "SCALED_BITS", 3 * 7)
    assert games._scaled(*terms)[1] == 105
    monkeypatch.setattr(games, "SCALED_BITS", 3 * 7 - 1)
    with pytest.raises(BoundExceeded, match="needs more than 6 bits"):
        games._scaled(*terms)


def test_every_builder_scales_to_lowest_terms(monkeypatch):
    """ISNGame.from_table, ISNGame.from_values, make_isn_game with O = 0
    and game_from_masks build equal ints over an equal denominator, and
    every table they hand to ISNGame is in lowest terms already: _lowest
    finds gcd 1 each time, so _scaled's output needs no second reduction."""
    import random

    rng = random.Random(67)
    sources = [make(rng, n) for n in range(1, 7) for make in (random_game, mixed_game)
               for _ in range(4)]
    found = []
    lowest = games._lowest
    monkeypatch.setattr(games, "_lowest",
                        lambda scaled, d: found.append(gcd(d, *scaled)) or lowest(scaled, d))
    for source in sources:
        n, table = source.n_agents, source.table
        values = {members_of(m): table[m] for m in range(1 << n) if m.bit_count() >= 2}
        masks = list(map(mask_of, values))
        t_columns = (masks, [v.numerator for v in values.values()],
                     [v.denominator for v in values.values()])
        o_columns = (masks, [0] * len(masks), [1] * len(masks))
        built = [ISNGame.from_table(n, table), ISNGame.from_values(n, values),
                 make_isn_game(n, values, dict.fromkeys(values, 0)),
                 game_from_masks(n, t_columns, o_columns)]
        for game in built:
            assert game.scaled == source.scaled and game.denominator == source.denominator
    assert found == [1] * (4 * len(sources))


def test_rescaling_a_built_table_keeps_the_bit_budget(monkeypatch):
    """A game's table over 105 (7 bits, 8 entries) is scaled once, when it
    is built. Only a denominator new to it rescales it, held to
    games.SCALED_BITS: a rule in halves in a CoordinatedGame and an
    allocation in halves in in_core (over 210, 8 bits), and the Shapley
    value in the subsidy scan (over 630, 10 bits). An allocation in thirds
    divides 105 and rescales nothing."""
    values = {(0, 1): Fraction(1, 3), (0, 2): Fraction(1, 5), (1, 2): Fraction(2, 7),
              (0, 1, 2): 1}
    game = ISNGame.from_values(3, values)
    halves = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    for bits, rescale, result in [
        (8, lambda: CoordinatedGame(game, MCNet(3, (MCNetRule({0, 1}, {2}, Fraction(1, 2)),))
                                    ).denominator, 210),
        (8, lambda: in_core(game, halves), True),
        (10, lambda: synthesize_promotion(game, {0, 1, 2}), (None, 0)),
    ]:
        monkeypatch.setattr(games, "SCALED_BITS", 8 * bits)
        assert rescale() == result
        monkeypatch.setattr(games, "SCALED_BITS", 8 * bits - 1)
        with pytest.raises(BoundExceeded, match=f"needs more than {bits - 1} bits"):
            rescale()
        assert in_core(game, (Fraction(1, 3), 0, Fraction(2, 3)))
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
    assert subgame(g3, {0, 1, 2}) == g3
