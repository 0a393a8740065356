import json
import random
from fractions import Fraction
from math import lcm

import pytest

from symbio import cli, coordination, solutions
from symbio.coordination import (
    CoordinatedGame,
    Policy,
    _enforce,
    enforce_policy,
    synthesize_prohibition,
    synthesize_promotion,
)
from symbio.errors import SymbioError
from symbio.games import ISNGame, coalitions, fraction_text, members_of, subgame
from symbio.mcnets import MCNet, MCNetRule, evaluate, net_shapley, from_isn_game
from symbio.solutions import _shapley_terms, is_implementable, shapley

from helpers import fraction_promotion_amount, mixed_game, random_game, random_net


def test_policy_validation():
    for groups, named, message in [
        ({"promoted": [{0}]}, [{0}], r"group \[0\] has fewer than two agents"),
        ({"promoted": [{0, 1}], "prohibited": [{0, 1}]}, [{0, 1}], r"group \[0, 1\] labeled twice"),
        ({"promoted": [{0, 1}, {1, 0}]}, [{0, 1}], r"group \[0, 1\] labeled twice"),
        ({"prohibited": [(0, 1), (1, 0)]}, [{0, 1}], r"group \[0, 1\] labeled twice"),
        ({"promoted": [{1, 2}, {0, 1}]}, [{0, 1}, {1, 2}],
         r"promoted groups overlap: \[0, 1\] and \[1, 2\]"),
    ]:
        with pytest.raises(SymbioError, match=message) as e:
            Policy(**groups)
        assert e.value.coalitions == tuple(map(frozenset, named))
    with pytest.raises(SymbioError, match=r"group \[0, 1\] labeled twice"):
        Policy(promoted=[{0, 1}], prohibited=[{1, 0}])
    with pytest.raises(SymbioError, match=r"group \[2\] has fewer than two agents"):
        Policy(prohibited=[{0, 1}, {2}])


def test_policy_mutual_exclusivity():
    ok = Policy(promoted=[{0, 1}, {2, 3}])
    assert ok.promoted == (frozenset({0, 1}), frozenset({2, 3}))
    with pytest.raises(SymbioError, match=r"promoted groups overlap: \[0, 1\] and \[1, 2\]"):
        Policy(promoted=[{1, 2}, {0, 1}])
    assert Policy() == Policy(promoted=(), prohibited=())
    # a prohibited group may overlap a promoted one, or another prohibited one
    Policy(promoted=[{0, 1, 2}], prohibited=[{0, 1}, {1, 2}])


def test_policy_groups_are_stored_in_bitmask_order():
    policy = Policy(promoted=[{2, 3}, {0, 1}], prohibited=[[3, 1], [0, 2]])
    assert policy.promoted == (frozenset({0, 1}), frozenset({2, 3}))
    assert policy.prohibited == (frozenset({0, 2}), frozenset({1, 3}))
    assert policy == Policy(promoted=[{0, 1}, {2, 3}], prohibited=[{0, 2}, {1, 3}])
    assert hash(policy) == hash(Policy(promoted=[{0, 1}, {3, 2}], prohibited=[{1, 3}, {2, 0}]))


def test_incentive_value_is_mcnet_evaluation(g3):
    net = MCNet(3, (MCNetRule({0, 1, 2}, set(), Fraction(1, 2)),))
    assert evaluate(net, {0, 1, 2}) == Fraction(1, 2)
    assert evaluate(net, {0, 1}) == 0
    assert evaluate(MCNet(3, ()), {0, 1}) == 0
    coordinated = CoordinatedGame(g3, net)
    for members in coalitions(3):
        assert coordinated.value(members) - g3.value(members) == evaluate(net, members)


def test_promotion_on_g3_grand_coalition(g3):
    rule, amount = synthesize_promotion(g3, {0, 1, 2})
    assert amount == Fraction(1, 2)
    assert (rule.positive, rule.negative, rule.value) == (
        frozenset({0, 1, 2}),
        frozenset(),
        Fraction(1, 2),
    )
    coordinated = CoordinatedGame(g3, MCNet(3, (rule,)))
    assert is_implementable(subgame(coordinated, {0, 1, 2}))


def test_promotion_of_two_agent_group_needs_nothing(g3):
    assert synthesize_promotion(g3, {0, 1}) == (None, 0)


def test_promotion_on_symmetric_game(g3_prime):
    rule, amount = synthesize_promotion(g3_prime, {0, 1, 2})
    assert amount == 3  # Shapley is (4,4,4); each pair needs (10-8)*3/2
    coordinated = CoordinatedGame(g3_prime, MCNet(3, (rule,)))
    assert is_implementable(subgame(coordinated, {0, 1, 2}))


def test_promotion_amount_matches_fraction_gap_loop():
    """Mixed and 1000-digit denominators, half the games with a tax on a pair
    inside the target, as enforce_policy prices them."""
    rng = random.Random(101)
    amounts = []
    for n in range(2, 7):
        for _ in range(8):
            game = mixed_game(rng, n)
            target = rng.sample(range(n), rng.randint(2, n))
            if rng.random() < 0.5:
                tax = synthesize_prohibition(game, rng.sample(target, 2), Fraction(1, 3))
                game = CoordinatedGame(game, MCNet(n, (tax,) if tax else ()))
            rule, amount = synthesize_promotion(game, target)
            assert amount == fraction_promotion_amount(game, target)
            assert (rule is None) == (amount == 0)
            amounts.append(amount)
    assert sum(a > 0 for a in amounts) >= 10 and amounts.count(0) >= 5


def _random_policy(rng, n):
    """Disjoint promoted groups (now and then the whole roster) and
    prohibited groups, some nested inside a promoted one."""
    agents = list(range(n))
    rng.shuffle(agents)
    promoted, k = [], 0
    if rng.random() < 0.2:
        promoted = [set(agents)]
    else:
        while k < n - 1 and rng.random() < 0.8:
            size = rng.randint(2, n - k)
            promoted.append(set(agents[k:k + size]))
            k += size
    prohibited = []
    for _ in range(rng.randint(0, 3)):
        inside = [g for g in promoted if len(g) > 2]
        pool = sorted(rng.choice(inside)) if inside and rng.random() < 0.5 else range(n)
        group = set(rng.sample(pool, rng.randint(2, min(3, len(pool)))))
        if group not in promoted and group not in prohibited:
            prohibited.append(group)
    return Policy(promoted=promoted, prohibited=prohibited)


def test_enforce_shifts_each_promoted_shapley_value_by_its_subsidy():
    """_enforce's Shapley terms for each promoted group, phi shifted by the
    group's subsidy over k, are those of the group's coordinated subgame, as
    Fractions, and the subsidy it hands over with them is the group's rule's
    value, or 0 with no rule: on random games (mixed and 1000-digit
    denominators) and policies with nested prohibitions, groups needing no
    subsidy, subsidies over new denominators, and whole-roster promotions.
    The net is enforce_policy's."""
    rng = random.Random(34)
    seen = {"zero gap": 0, "subsidy": 0, "new denominator": 0, "whole roster": 0, "nested": 0}
    for _ in range(120):
        n = rng.randint(2, 6)
        game = (mixed_game if rng.random() < 0.5 else random_game)(rng, n)
        policy = _random_policy(rng, n)
        epsilon = rng.choice([Fraction(1), Fraction(1, 3), Fraction(2, 7)])
        net, promoted = _enforce(game, policy, epsilon)
        assert net == enforce_policy(game, policy, epsilon)
        assert list(promoted) == list(policy.promoted)
        coordinated = CoordinatedGame(game, net)
        subsidy = {rule.positive: rule.value for rule in net.rules
                   if rule.positive in policy.promoted}
        taxed = CoordinatedGame(game, MCNet(n, [r for r in net.rules if r.positive not in subsidy]))
        for group in policy.promoted:
            amount, (phi, den) = promoted[group]
            assert amount == subsidy.get(group, 0)
            expected, expected_den = _shapley_terms(subgame(coordinated, group))
            assert [Fraction(v, den) for v in phi] == [Fraction(v, expected_den) for v in expected]
            if group in subsidy:
                seen["subsidy"] += 1
                taxed_den = subgame(taxed, group).denominator
                seen["new denominator"] += taxed_den % subsidy[group].denominator != 0
            else:
                seen["zero gap"] += 1
            seen["whole roster"] += len(group) == n
            seen["nested"] += any(g < group for g in policy.prohibited)
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("promoted, prohibited, sums", [
    ([], [["A", "B"]], 1),
    ([["A", "B", "C"]], [["A", "B"]], 2),
    ([["A", "B"], ["C", "D", "E"]], [["A", "C"], ["D", "E"]], 3),
    ([["A", "B"], ["C", "D"], ["E", "F"]], [], 4),
    ([["A", "B", "C", "D", "E", "F"]], [["B", "C"]], 1),
    ([["A", "B", "C", "D", "E", "F"]], [], 1),
])
def test_enforce_sums_each_shapley_value_once(monkeypatch, capsys, tmp_path, promoted,
                                               prohibited, sums):
    """symbio enforce sums P + 1 Shapley values for P promoted groups, one per
    group's subsidy and one for the coordinated game, and P when a promoted
    group is the whole roster, whose coordinated value is the group's."""
    rng = random.Random(len(promoted) + 7 * len(prohibited))
    names = list("ABCDEF")
    game = ISNGame.from_table(len(names), [v / 6 for v in random_game(rng, len(names)).table])
    t, o = {}, {}
    for mask in range(1, 1 << len(names)):
        if mask.bit_count() >= 2:
            key = ",".join(name for i, name in enumerate(names) if mask >> i & 1)
            t[key] = 1000
            o[key] = str(1000 - game.table[mask])
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"agents": names, "tables": {"T": t, "O": o},
                                "policy": {"promoted": promoted, "prohibited": prohibited}}),
                    encoding="utf-8")
    calls = []  # a spy on every name _shapley_terms is called by
    real = solutions._shapley_terms
    for module in cli, coordination:
        monkeypatch.setattr(module, "_shapley_terms", lambda g: calls.append(g) or real(g))
    assert cli.main(["enforce", str(path), "--format", "json"]) == 0
    assert len(calls) == sums
    report = json.loads(capsys.readouterr().out)
    monkeypatch.undo()
    policy = Policy(promoted=[[names.index(a) for a in g] for g in promoted],
                    prohibited=[[names.index(a) for a in g] for g in prohibited])
    coordinated = CoordinatedGame(game, enforce_policy(game, policy))
    assert report["coordinated_shapley"] == {
        name: fraction_text(share) for name, share in zip(names, shapley(coordinated))}
    assert [v["implementable"] for v in report["group_verdicts"][:len(promoted)]] == [
        is_implementable(subgame(coordinated, g)) for g in policy.promoted]


def test_promotion_target_too_small(g3):
    with pytest.raises(SymbioError, match="promotion targets need at least two members"):
        synthesize_promotion(g3, {0})


def test_prohibition_rule(g3):
    rule = synthesize_prohibition(g3, {0, 1}, 1)
    assert rule.value == -11
    coordinated = CoordinatedGame(g3, MCNet(3, (rule,)))
    assert coordinated.value({0, 1}) == -1
    flat = ISNGame.from_values(3, {})
    assert synthesize_prohibition(flat, {0, 1}, 1).value == -1


def test_prohibition_validation(g3):
    with pytest.raises(SymbioError, match="prohibition targets need at least two members"):
        synthesize_prohibition(g3, {0}, 1)
    with pytest.raises(SymbioError, match="prohibition margin must be > 0"):
        synthesize_prohibition(g3, {0, 1}, 0)


def test_prohibition_degenerate_zero_tax():
    game = ISNGame.from_values(2, {(0, 1): -1})
    assert synthesize_prohibition(game, {0, 1}, 1) is None


def test_coordinate_additivity(g3):
    bump = MCNet(3, (MCNetRule({0, 1, 2}, set(), Fraction(1, 2)),))
    coordinated = CoordinatedGame(g3, bump)
    assert coordinated.value({0, 1, 2}) == Fraction(25, 2)
    for members in coalitions(3):
        if members != frozenset({0, 1, 2}):
            assert coordinated.value(members) == g3.value(members)
    identity = CoordinatedGame(g3, MCNet(3, ()))
    for members in coalitions(3):
        assert identity.value(members) == g3.value(members)


def test_coordinate_matches_mcnet_composition(g3):
    rng = random.Random(2)
    rules = tuple(
        MCNetRule({0, 1}, {2}, rng.randint(1, 5)) for _ in range(2)
    ) + (MCNetRule({1, 2}, set(), Fraction(-3, 2)),)
    coordinated = CoordinatedGame(g3, MCNet(3, rules))
    net = coordinated.as_mcnet()
    for members in coalitions(3):
        assert evaluate(net, members) == coordinated.value(members)


def test_coordinate_roster_mismatch(g3):
    with pytest.raises(SymbioError, match="game has 3 agents, incentives 4"):
        CoordinatedGame(g3, MCNet(4, ()))


def test_coordination_additivity_for_arbitrary_nets():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(2, 6)
        game = random_game(rng, n)
        net = random_net(rng, n)
        coordinated = CoordinatedGame(game, net)
        for members in coalitions(n):
            assert coordinated.value(members) == game.value(members) + evaluate(net, members)


def test_coordinated_ints_match_the_fraction_sum():
    """The coordinated table, built on ints over the lcm of the base and rule
    denominators, equals the Fraction sum v(S) + incentive(S) on every mask,
    for rules over sevenths and elevenths (new to the base game) that reach
    the empty set and singletons; its denominator is the Fraction table's
    lcm, and a subgame equals the restriction of that Fraction table."""
    rng = random.Random(47)
    nonzero_empty = subgames = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        base = mixed_game(rng, n) if rng.random() < 0.5 else random_game(rng, n)
        rules = list(random_net(rng, n).rules)
        everyone_but_last = set(range(n - 1))  # applies to the empty set and {n - 1}
        rules.append(MCNetRule(set(), everyone_but_last, Fraction(rng.randint(1, 20), 7)))
        rules.append(MCNetRule({rng.randrange(n)}, set(), Fraction(rng.randint(-9, 9) or 1, 11)))
        net = MCNet(n, tuple(rules))
        coordinated = CoordinatedGame(base, net)
        table = coordinated.table
        for mask in range(1 << n):
            assert type(table[mask]) is Fraction
            assert table[mask] == base.table[mask] + evaluate(net, members_of(mask))
        assert coordinated.denominator == lcm(*(v.denominator for v in table))
        nonzero_empty += table[0] != 0
        members = [i for i in range(n) if table[1 << i] == 0]
        if members:
            original = [0]
            for i in members:
                original += [m | 1 << i for m in original]
            restricted = [Fraction(0)] + [table[m] for m in original[1:]]
            sub = subgame(coordinated, members)
            assert sub == ISNGame.from_table(len(members), restricted)
            assert sub.table == tuple(restricted)
            subgames += 1
    assert nonzero_empty >= 50 and subgames >= 30


def test_coordinated_table_covers_empty_set_and_singletons(g3):
    # (empty, {0}) reaches the empty set and {1}, {2}; the other two rules
    # cancel it on those singletons again
    rules = (
        MCNetRule(set(), {0}, 3),
        MCNetRule({1}, {0}, -3),
        MCNetRule({2}, {0}, -3),
    )
    coordinated = CoordinatedGame(g3, MCNet(3, rules))
    assert coordinated.table == (3, 0, 0, 10, 0, 4, 3, 12)
    for members in coalitions(3):
        assert coordinated.value(members) == evaluate(coordinated.as_mcnet(), members)
    # the subgame is normalized: the parent's worth of the empty set stays behind
    assert subgame(coordinated, {1, 2}) == ISNGame.from_values(2, {(0, 1): 3})
    with pytest.raises(ValueError):
        subgame(CoordinatedGame(g3, MCNet(3, rules[:1])), {1, 2})


def test_incentive_rules_target_exactly_one_coalition(g3):
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 5)
        game = random_game(rng, n)
        size = rng.randint(2, n)
        target = frozenset(rng.sample(range(n), size))
        rule = MCNetRule(target, frozenset(range(n)) - target, rng.randint(1, 7))
        coordinated = CoordinatedGame(game, MCNet(n, (rule,)))
        for members in coalitions(n):
            expected = game.value(members) + (rule.value if members == target else 0)
            assert coordinated.value(members) == expected


def test_promotion_additivity_of_shapley_shift(g3):
    rule, amount = synthesize_promotion(g3, {0, 1, 2})
    coordinated = CoordinatedGame(g3, MCNet(3, (rule,)))
    shifted = net_shapley(coordinated.as_mcnet())
    base = net_shapley(from_isn_game(g3))
    assert shifted == tuple(b + amount / 3 for b in base)


def test_enforce_policy_promotion_only(g3):
    net = enforce_policy(g3, Policy(promoted=[{0, 1, 2}]))
    assert [(r.positive, r.value) for r in net.rules] == [
        (frozenset({0, 1, 2}), Fraction(1, 2))
    ]


def test_enforce_policy_prohibition_only(g3):
    net = enforce_policy(g3, Policy(prohibited=[{0, 1}]), epsilon=1)
    assert [(r.positive, r.negative, r.value) for r in net.rules] == [
        (frozenset({0, 1}), frozenset({2}), Fraction(-11))
    ]


def test_enforce_policy_checks_the_roster(g3):
    with pytest.raises(SymbioError, match="agent 3 not on a roster of 3"):
        enforce_policy(g3, Policy(prohibited=[{2, 3}]))


def test_enforce_policy_rejects_overlapping_promotions(g3):
    with pytest.raises(SymbioError, match=r"promoted groups overlap: \[0, 1\] and \[1, 2\]"):
        enforce_policy(g3, Policy(promoted=[{0, 1}, {1, 2}]))


def test_enforce_policy_prices_in_nested_prohibition():
    rng = random.Random(31)
    game = random_game(rng, 4, lo=0, hi=12)
    policy = Policy(promoted=[{0, 1, 2}], prohibited=[{0, 1}])
    net = enforce_policy(game, policy, epsilon=2)
    coordinated = CoordinatedGame(game, net)
    assert coordinated.value({0, 1}) == -2
    assert is_implementable(subgame(coordinated, {0, 1, 2}))


def test_enforce_policy_non_interference():
    rng = random.Random(37)
    for _ in range(10):
        game = random_game(rng, 4)
        policy = Policy(promoted=[{0, 1}], prohibited=[{2, 3}])
        coordinated = CoordinatedGame(game, enforce_policy(game, policy))
        labeled = {frozenset({0, 1}), frozenset({2, 3})}
        for members in coalitions(4):
            if members not in labeled:
                assert coordinated.value(members) == game.value(members)


def test_promotion_minimality_at_one_permille(g3_prime):
    rule, amount = synthesize_promotion(g3_prime, {0, 1, 2})
    assert amount > 0
    shaved = MCNetRule(rule.positive, rule.negative, amount * Fraction(999, 1000))
    coordinated = CoordinatedGame(g3_prime, MCNet(3, (shaved,)))
    assert not is_implementable(subgame(coordinated, {0, 1, 2}))


def test_disjoint_promotions_are_simultaneously_implementable():
    rng = random.Random(41)
    for _ in range(10):
        game = random_game(rng, 5)
        policy = Policy(promoted=[{0, 1}, {2, 3, 4}])
        coordinated = CoordinatedGame(game, enforce_policy(game, policy))
        assert is_implementable(subgame(coordinated, {0, 1}))
        assert is_implementable(subgame(coordinated, {2, 3, 4}))


def test_coordinated_game_validates_roster(g3):
    with pytest.raises(SymbioError, match="game has 3 agents, incentives 2"):
        CoordinatedGame(g3, MCNet(2, ()))
