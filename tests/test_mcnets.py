import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symbio.mcnets
from symbio import games
from symbio.cli import load_scenario
from symbio.errors import SymbioError
from symbio.games import ISNGame, coalitions, make_isn_game
from symbio.mcnets import (
    MCNet,
    MCNetRule,
    compose,
    evaluate,
    from_isn_game,
    net_shapley,
    rule_shapley,
)
from symbio.solutions import shapley

from helpers import (
    canonical_rules,
    fractions_made,
    perm_shapley,
    random_game,
    rule_indicator_value,
    subset_shapley,
)

DATA = Path(__file__).parent / "data"
RULE = MCNetRule({0, 1}, {2}, 6)


def test_applicability():
    net = MCNet(3, (RULE,))
    assert evaluate(net, {0, 1}) == RULE.value
    assert evaluate(net, {0, 1, 2}) == 0  # negative literal present
    assert evaluate(net, {0}) == 0  # positive pattern not contained


def test_rule_validation():
    with pytest.raises(ValueError):
        MCNetRule({0}, {0}, 1)
    with pytest.raises(ValueError):
        MCNetRule(set(), set(), 1)
    with pytest.raises(ValueError):
        MCNetRule({0}, set(), 0)
    with pytest.raises(ValueError):
        MCNet(2, (MCNetRule(set(), {0, 1}, 1),))  # negative == whole roster
    # the one-rule net: MCNet decides which rules a roster takes
    with pytest.raises(SymbioError, match="negative pattern may not be the whole roster"):
        rule_shapley(MCNetRule(set(), {0, 1}, 1), 2)
    # an id off the roster is refused before any mask is made: 1 << 10**12
    # would take 125 GB
    for positive, negative, agent in ({5}, set(), 5), ({0}, {2}, 2), ({10**12}, set(), 10**12):
        with pytest.raises(SymbioError) as e:
            MCNet(2, (MCNetRule(positive, negative, 1),))
        assert str(e.value) == f"agent {agent} not on a roster of 2"
    for n in (0, True, 2.0, 2.5, "2", None):
        for build in (lambda: MCNet(n, ()), lambda: rule_shapley(RULE, n)):
            with pytest.raises(SymbioError) as e:
                build()
            assert str(e.value) == f"a roster needs an int count of at least one agent, got {n!r}"
    # a bad id is refused by the rule or by the first net that takes it,
    # and one equal to a good id beside it is refused, not merged into it
    for positive, agent in (({-1}, -1), ({"a"}, "a"), ({True}, True), ({1.0}, 1.0),
                            ([1, True], True)):
        with pytest.raises(SymbioError) as e:
            MCNet(3, (MCNetRule(positive, [], 2),))
        assert str(e.value) == f"agent ids must be non-negative integers, got {agent!r}"


def test_a_net_reads_the_union_of_its_rules_ids_once(monkeypatch):
    """Each MCNetRule read its own ids through coalition, so MCNet reads
    them again only for the roster, once over the union of the patterns
    (one call, one read per distinct id); an object that is not an
    MCNetRule is refused before any id is read."""
    rules = from_isn_game(random_game(random.Random(5), 5)).rules + (MCNetRule({0}, {1, 2}, 3),)
    real, calls = games.coalition, []

    def counting(ids):
        ids = tuple(ids)
        calls.append(len(ids))
        return real(ids)

    monkeypatch.setattr(games, "coalition", counting)
    for n, listed, distinct in (5, rules, 5), (3, (RULE,), 3), (4, (), 0):
        calls.clear()
        MCNet(n, listed)
        assert calls == [distinct]
    with pytest.raises(SymbioError) as e:
        MCNet(3, (MCNetRule({0, 5}, (), 1),))
    assert str(e.value) == "agent 5 not on a roster of 3"
    fake = SimpleNamespace(positive=frozenset({1.0}), negative=frozenset(), value=Fraction(2))
    for bad in (fake, (frozenset({0, 1}), frozenset(), 1), "rule", None):
        calls.clear()
        with pytest.raises(SymbioError) as e:
            MCNet(3, (RULE, bad))
        assert str(e.value) == f"net rules must be MCNetRule objects, got {bad!r}"
        assert calls == []


def test_evaluate_sums_applicable_rules(g3):
    net = from_isn_game(g3)
    assert evaluate(net, {0, 1}) == 10
    assert evaluate(MCNet(3, ()), {0, 1}) == 0
    blocked = MCNet(2, (MCNetRule({0}, set(), 4), MCNetRule({1}, {0}, 3)))
    assert evaluate(blocked, {0, 1}) == 4


def test_transformation_on_g3(g3):
    net = from_isn_game(g3)
    expected = [
        (frozenset({0, 1}), frozenset({2}), Fraction(10)),
        (frozenset({0, 2}), frozenset({1}), Fraction(4)),
        (frozenset({1, 2}), frozenset({0}), Fraction(6)),
        (frozenset({0, 1, 2}), frozenset(), Fraction(12)),
    ]
    assert [(r.positive, r.negative, r.value) for r in net.rules] == expected


def test_transformation_trivial_cases():
    two = ISNGame.from_values(2, {(0, 1): 20})
    net = from_isn_game(two)
    assert [(r.positive, r.negative, r.value) for r in net.rules] == [
        (frozenset({0, 1}), frozenset(), Fraction(20))
    ]
    assert from_isn_game(make_isn_game(1, {}, {})).rules == ()
    all_zero = ISNGame.from_values(3, {})
    assert from_isn_game(all_zero).rules == ()


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_canonical_net_matches_one_members_of_pair_per_rule(seed, n):
    game = random_game(random.Random(seed), n)
    net = from_isn_game(game)
    assert net.rules == canonical_rules(game)
    # the terms written straight from the table are the ones MCNet makes of the rules
    rebuilt = MCNet(n, net.rules)
    assert rebuilt == net and hash(rebuilt) == hash(net)
    empty = from_isn_game(ISNGame.from_values(3, {}))
    assert empty == MCNet(3, ()) and hash(empty) == hash(MCNet(3, ()))


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda path: path.name)
def test_canonical_net_matches_one_members_of_pair_per_rule_on_data(path):
    game = load_scenario(str(path)).game
    assert from_isn_game(game).rules == canonical_rules(game)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
@settings(max_examples=40, deadline=None)
def test_round_trip_reproduces_every_coalition(seed, n):
    game = random_game(random.Random(seed), n)
    net = from_isn_game(game)
    for members in coalitions(n):
        assert evaluate(net, members) == game.value(members)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=6))
@settings(max_examples=25, deadline=None)
def test_exactly_one_rule_applies_to_valued_coalitions(seed, n):
    game = random_game(random.Random(seed), n)
    net = from_isn_game(game)
    for members in coalitions(n, min_size=2):
        if game.value(members) == 0:
            continue
        hits = [r for r in net.rules if rule_indicator_value(r)(members)]
        assert len(hits) == 1
        assert hits[0].positive == members


def test_rule_shapley_examples():
    assert rule_shapley(MCNetRule({0, 1}, set(), 10), 3) == (5, 5, 0)
    assert rule_shapley(RULE, 3) == (1, 1, -2)
    assert rule_shapley(MCNetRule({0}, set(), 4), 3) == (4, 0, 0)
    with pytest.raises(SymbioError, match="agent 2 not on a roster of 2"):
        rule_shapley(RULE, 2)


@given(
    st.integers(min_value=1, max_value=4),
    st.sets(st.integers(min_value=0, max_value=4), max_size=5),
    st.sets(st.integers(min_value=0, max_value=4), max_size=4),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
)
@settings(max_examples=120, deadline=None)
def test_rule_shapley_matches_permutation_oracle(extra, positive, negative, value):
    negative = negative - positive
    if not (positive | negative) or value == 0:
        return
    n = max(positive | negative) + extra
    if negative == set(range(n)):
        return
    rule = MCNetRule(positive, negative, value)
    assert rule_shapley(rule, n) == subset_shapley(n, rule_indicator_value(rule))


def test_subset_formula_oracle_matches_permutation_average():
    rng = random.Random(11)
    for n in range(1, 6):
        for _ in range(10):
            values = {s: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for s in coalitions(n)}
            assert subset_shapley(n, values.__getitem__) == perm_shapley(n, values.__getitem__)


def test_rule_shapley_sum_matches_grand_value_for_nonempty_positive():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 6)
        p = rng.randint(1, n)
        positive = set(rng.sample(range(n), p))
        rest = [i for i in range(n) if i not in positive]
        negative = set(rng.sample(rest, rng.randint(0, len(rest))))
        rule = MCNetRule(positive, negative, rng.randint(1, 9))
        total = sum(rule_shapley(rule, n))
        assert total == (rule.value if not negative else 0)


def test_empty_positive_rule_sum_is_minus_value():
    # the indicator set-function is worth `value` on the empty set, so the
    # permutation total telescopes to v(N) - v(empty) = -value
    rule = MCNetRule(set(), {0}, 5)
    shares = rule_shapley(rule, 2)
    assert shares == (-5, 0)
    assert shares == perm_shapley(2, rule_indicator_value(rule))


def test_net_shapley_on_g3(g3):
    assert net_shapley(from_isn_game(g3)) == (
        Fraction(13, 3),
        Fraction(16, 3),
        Fraction(7, 3),
    )
    assert net_shapley(MCNet(3, ())) == (0, 0, 0)
    single = MCNet(3, (MCNetRule({0, 1}, set(), 10),))
    assert net_shapley(single) == (5, 5, 0)


def test_net_shapley_reads_each_rule_once(monkeypatch):
    # one closed form per rule, summed as ints: one Fraction per agent at
    # the end, and no roster check, since MCNet checked every rule
    n = 10
    game = random_game(random.Random(17), n)
    net = from_isn_game(game)
    checks = []
    real = symbio.mcnets.check_roster
    monkeypatch.setattr(symbio.mcnets, "check_roster",
                        lambda *args: checks.append(args) or real(*args))
    with fractions_made() as made:
        phi = net_shapley(net)
    assert len(made) <= n
    assert checks == []
    assert phi == shapley(game)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=6))
@settings(max_examples=20, deadline=None)
def test_net_shapley_agrees_with_bruteforce(seed, n):
    game = random_game(random.Random(seed), n)
    slow = perm_shapley(n, game.value)
    assert net_shapley(from_isn_game(game)) == slow
    assert shapley(game) == slow


def test_compose(g3):
    net = from_isn_game(g3)
    assert compose(net, MCNet(3, ())).rules == net.rules
    bump = MCNet(3, (MCNetRule({0, 1, 2}, set(), Fraction(1, 2)),))
    merged = compose(net, bump)
    assert len(merged.rules) == 5
    assert evaluate(merged, {0, 1, 2}) == Fraction(25, 2)
    r1, r2 = MCNetRule({0}, set(), 1), MCNetRule({1}, set(), 2)
    assert compose(MCNet(2, (r1,)), MCNet(2, (r2,))).rules == (r1, r2)
    # over the lcm of two denominators: each value kept, the net as MCNet makes it
    a = MCNet(3, (MCNetRule({0, 1}, {2}, Fraction(1, 2)), MCNetRule({2}, set(), 5)))
    b = MCNet(3, (MCNetRule({1}, {0}, Fraction(-7, 3)),))
    both = compose(a, b)
    assert both.rules == a.rules + b.rules
    assert both == MCNet(3, a.rules + b.rules) and both.denominator == 6
    with pytest.raises(SymbioError, match="rosters differ: 3 vs 2"):
        compose(net, MCNet(2, ()))


def test_compose_is_additive_and_associative(g3):
    rng = random.Random(5)
    a = from_isn_game(g3)
    b = from_isn_game(random_game(rng, 3))
    c = from_isn_game(random_game(rng, 3))
    left, right = compose(compose(a, b), c), compose(a, compose(b, c))
    for members in coalitions(3):
        total = evaluate(a, members) + evaluate(b, members) + evaluate(c, members)
        assert evaluate(left, members) == total
        assert evaluate(right, members) == total
