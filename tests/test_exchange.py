import random
from fractions import Fraction

import pytest

import symbio.exchange
from symbio.errors import BoundExceeded, SymbioError
from symbio.exchange import (
    ExchangeScenario,
    ResourceStream,
    input_demand,
    optimal_exchange_plan,
    scenario_to_game,
    t_value,
    waste_offer,
)
from symbio.games import check_superadditive, coalitions

from helpers import (
    compatible_pairs, dense_scenario, grid_plan_cost, random_scenario, route_subset_game
)


@pytest.fixture
def scenario_w():
    return ExchangeScenario(
        n_agents=2,
        streams=(waste_offer(0, "r", 10, 5), input_demand(1, "r", 8, 7, 2)),
        transport={(0, 1, "r"): 1},
        transaction={(0, 1): 10},
    )


@pytest.fixture
def scenario_w_high_fee(scenario_w):
    return ExchangeScenario(
        n_agents=2,
        streams=scenario_w.streams,
        transport=scenario_w.transport,
        transaction={(0, 1): 100},
    )


def test_baseline_cost(scenario_w):
    assert t_value(scenario_w, {0, 1}) == 106
    assert t_value(scenario_w, {0}) == 50
    assert t_value(scenario_w, set()) == 0


def test_optimal_plan_ships_full_demand(scenario_w):
    plan, cost = optimal_exchange_plan(scenario_w, {0, 1})
    assert cost == 44
    assert [s.key() for s in plan.shipments] == [(0, 1, "r", Fraction(8))]


def test_singleton_has_no_counterparty(scenario_w):
    plan, cost = optimal_exchange_plan(scenario_w, {0})
    assert plan.shipments == ()
    assert cost == t_value(scenario_w, {0})


def test_prohibitive_transaction_fee_kills_exchange(scenario_w_high_fee):
    plan, cost = optimal_exchange_plan(scenario_w_high_fee, {0, 1})
    assert plan.shipments == ()
    assert cost == 106


def test_scenario_to_game_values(scenario_w, scenario_w_high_fee):
    assert scenario_to_game(scenario_w).value({0, 1}) == 62
    assert scenario_to_game(scenario_w_high_fee).value({0, 1}) == 0


def test_no_streams_means_zero_game():
    empty = ExchangeScenario(n_agents=3, streams=(), transport={}, transaction={})
    game = scenario_to_game(empty)
    assert all(game.value(s) == 0 for s in coalitions(3))


def test_plan_cost_never_exceeds_baseline(scenario_w):
    for members in coalitions(2):
        _, cost = optimal_exchange_plan(scenario_w, members)
        assert cost <= t_value(scenario_w, members)


def test_pair_dependent_transport_beats_greedy():
    # Greedy by best unit saving would activate only the 5-gain route.
    scenario = ExchangeScenario(
        n_agents=2,
        streams=(
            waste_offer(0, "r", 10, 4),
            waste_offer(1, "s", 10, 3),
            input_demand(1, "r", 10, 3, 1),
            input_demand(0, "s", 10, 2, 1),
        ),
        transport={(0, 1, "r"): 1, (1, 0, "s"): 1},
        transaction={(0, 1): 0, (1, 0): 0},
    )
    _, cost = optimal_exchange_plan(scenario, {0, 1})
    assert t_value(scenario, {0, 1}) - cost == 80
    assert cost == grid_plan_cost(scenario, {0, 1})


def test_matches_grid_search_on_random_integer_scenarios():
    rng = random.Random(7)
    for _ in range(40):
        scenario = random_scenario(rng, rng.choice([2, 3]), max_qty=6)
        for members in coalitions(scenario.n_agents, min_size=2):
            _, cost = optimal_exchange_plan(scenario, members)
            assert cost == grid_plan_cost(scenario, members)


def test_scenario_games_are_normalized_and_nonnegative():
    rng = random.Random(11)
    for _ in range(10):
        scenario = random_scenario(rng, 3)
        game = scenario_to_game(scenario)
        for members in coalitions(3):
            assert game.value(members) >= 0


def test_scenario_games_are_superadditive():
    rng = random.Random(13)
    for _ in range(12):
        n = rng.choice([3, 4, 5])
        game = scenario_to_game(random_scenario(rng, n))
        assert check_superadditive(game) is None


def test_adding_a_stream_never_hurts():
    rng = random.Random(17)
    for _ in range(10):
        scenario = random_scenario(rng, 3)
        extra = waste_offer(0, "r", rng.randint(0, 6), rng.randint(0, 9))
        bigger = ExchangeScenario(
            n_agents=3,
            streams=scenario.streams + (extra,),
            transport=scenario.transport,
            transaction=scenario.transaction,
        )
        before, after = scenario_to_game(scenario), scenario_to_game(bigger)
        for members in coalitions(3, min_size=2):
            if 0 in members:
                assert after.value(members) >= before.value(members)


def test_divisible_quantities_ship_fractionally():
    scenario = ExchangeScenario(
        n_agents=2,
        streams=(waste_offer(0, "r", Fraction(1, 2), 9), input_demand(1, "r", 2, 9, 1)),
        transport={(0, 1, "r"): 1},
        transaction={(0, 1): 1},
    )
    plan, cost = optimal_exchange_plan(scenario, {0, 1})
    assert plan.shipments[0].quantity == Fraction(1, 2)
    # saving: (9 + 9 - 1 - 1)/u * 1/2 - 1 fixed = 7
    assert t_value(scenario, {0, 1}) - cost == 7


def test_stream_validation():
    with pytest.raises(SymbioError, match="stream quantity must be >= 0"):
        waste_offer(0, "r", -1, 5)
    with pytest.raises(SymbioError, match="offers carry exactly unit_discharge_cost"):
        ResourceStream(0, "r", "offer", Fraction(1), unit_purchase_cost=Fraction(1))


def test_stream_amounts_are_exact():
    stream = ResourceStream(0, "r", "demand", "5/2", unit_purchase_cost=3, unit_treatment_cost="0.5")
    assert (stream.quantity, stream.unit_purchase_cost, stream.unit_treatment_cost) == (
        Fraction(5, 2), 3, Fraction(1, 2))
    assert all(type(a) is Fraction for a in (stream.quantity, stream.unit_purchase_cost))
    # a binary float would leak into the game's table (0.1 * 5 ...), so it is refused
    with pytest.raises(TypeError):
        ResourceStream(0, "slag", "offer", 0.1, unit_discharge_cost=5)
    with pytest.raises(TypeError):
        ResourceStream(1, "slag", "demand", 8, unit_purchase_cost=7, unit_treatment_cost=0.5)


def test_missing_transport_entry_rejected():
    streams = (waste_offer(0, "r", 1, 1), input_demand(1, "r", 1, 1, 0))
    match = r"missing transport cost from \[0\] to \[1\] for resource 'r'"
    with pytest.raises(SymbioError, match=match) as e:
        ExchangeScenario(n_agents=2, streams=streams, transport={}, transaction={(0, 1): 0})
    assert e.value.coalitions == (frozenset({0}), frozenset({1}))
    with pytest.raises(SymbioError, match=r"missing transaction cost from \[0\] to \[1\]"):
        ExchangeScenario(n_agents=2, streams=streams, transport={(0, 1, "r"): 0}, transaction={})


def test_compatible_pairs_match_the_full_scan():
    """The indexed scan yields the full scan's pairs in its ascending
    (offer, demand) order, the LP column order; and validation names the
    missing cost of the first pair the full scan meets."""
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randint(1, 5)
        scenario = random_scenario(rng, n, resources=("r", "s", "t"))
        streams = scenario.streams + tuple(
            rng.choice(scenario.streams) for _ in range(rng.randint(0, 6)))
        scenario = ExchangeScenario(n, streams, scenario.transport, scenario.transaction)
        pairs = compatible_pairs(scenario)
        assert list(scenario._compatible_pairs()) == pairs
        transport = {k: v for k, v in scenario.transport.items() if rng.random() < 0.8}
        transaction = {k: v for k, v in scenario.transaction.items() if rng.random() < 0.9}
        expected = None
        for oi, di in pairs:
            o, d = streams[oi], streams[di]
            if (o.firm, d.firm, o.resource) not in transport:
                expected = (f"missing transport cost from [{o.firm}] to [{d.firm}] "
                            f"for resource {o.resource!r}")
            elif (o.firm, d.firm) not in transaction:
                expected = f"missing transaction cost from [{o.firm}] to [{d.firm}]"
            if expected:
                break
        try:
            ExchangeScenario(n, streams, transport, transaction)
        except SymbioError as e:
            assert str(e) == expected
        else:
            assert expected is None


def test_bound_exceeded(lp_calls):
    empty = ExchangeScenario(n_agents=17, streams=(), transport={}, transaction={})
    with pytest.raises(BoundExceeded):
        scenario_to_game(empty)
    # the firm bound is checked before any route is solved alone
    with pytest.raises(BoundExceeded, match="at most 16 agents"):
        scenario_to_game(dense_scenario(17))
    assert lp_calls == []


def test_game_matches_grid_search_on_every_coalition():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        scenario = random_scenario(rng, n, max_qty=6 if n < 4 else 3)
        game = scenario_to_game(scenario)
        for members in coalitions(n):
            assert game.value(members) == t_value(scenario, members) - grid_plan_cost(
                scenario, members)


def test_game_agrees_with_the_per_coalition_optimizer():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.choice([2, 3, 4, 5])
        scenario = random_scenario(rng, n)
        game = scenario_to_game(scenario)
        for members in coalitions(n):
            _, cost = optimal_exchange_plan(scenario, members)
            assert game.value(members) == t_value(scenario, members) - cost


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts the LPs the exchange optimizer solves."""
    calls = []
    solve = symbio.exchange.solve_lp

    def spy(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(symbio.exchange, "solve_lp", spy)
    return calls


def ring_scenario(n):
    """Firm i offers its own resource to firm i + 1 alone: n routes, no two
    of which share a stream."""
    streams = []
    for firm in range(n):
        streams += [waste_offer(firm, f"r{firm}", 6, 4),
                    input_demand((firm + 1) % n, f"r{firm}", 5, 6, 1)]
    return ExchangeScenario(
        n_agents=n,
        streams=tuple(streams),
        transport={(i, (i + 1) % n, f"r{i}"): 1 for i in range(n)},
        transaction={(a, b): 3 for a in range(n) for b in range(n) if a != b},
    )


def test_route_lp_counts(lp_calls):
    # a ring's routes share no stream: each is solved alone, and that is all
    game = scenario_to_game(ring_scenario(5))
    assert len(lp_calls) == 5
    assert game.value(range(5)) == 5 * (8 * 5 - 3)
    lp_calls.clear()
    game = scenario_to_game(dense_scenario(3))  # 6 routes, 2^6 - 1 subsets
    assert 6 < len(lp_calls) < 2**6 - 1
    assert check_superadditive(game) is None
    assert game.value({0, 1}) > 0


@pytest.mark.parametrize("n, lps", [(4, 17), (5, 36), (6, 72), (7, 141)])
def test_dense_lp_counts(lp_calls, n, lps):
    # n (n - 1) routes, one resource: the README's counts, which also pin
    # the relaxations' optimal vertices the branch and bound reads
    scenario_to_game(dense_scenario(n))
    assert len(lp_calls) == lps


def test_lp_budget_raises_bound_exceeded(lp_calls, monkeypatch):
    monkeypatch.setattr(symbio.exchange, "ENUMERATION_BOUND", 3)
    scenario = dense_scenario(5)  # 20 routes, each solved alone first
    with pytest.raises(BoundExceeded, match="budget of 8 LPs"):
        scenario_to_game(scenario)
    assert len(lp_calls) == 2**3
    lp_calls.clear()
    with pytest.raises(BoundExceeded):
        optimal_exchange_plan(scenario, range(5))
    assert len(lp_calls) == 2**3
    # the budget is per call: two firms need their two routes and one re-solve
    lp_calls.clear()
    _, cost = optimal_exchange_plan(scenario, range(2))
    assert t_value(scenario, range(2)) - cost == 2 * (100 - 3)
    assert len(lp_calls) == 3


def test_game_and_plans_match_the_route_subset_oracle():
    rng = random.Random(29)
    scenarios = [random_scenario(rng, n) for n in (2, 3, 4, 5) for _ in range(8)]
    for scenario in scenarios + [dense_scenario(4)]:
        oracle = route_subset_game(scenario)
        assert scenario_to_game(scenario).table == oracle.table
        for members in coalitions(scenario.n_agents):
            _, cost = optimal_exchange_plan(scenario, members)
            assert t_value(scenario, members) - cost == oracle.value(members)


def test_dense_six_firms_build():
    game = scenario_to_game(dense_scenario(6))  # 30 routes, 2^30 - 1 subsets
    assert check_superadditive(game) is None
    # each direction ships 10 units saving 5 + 7 - 1 - 1 a unit, minus its fee
    for a in range(6):
        for b in range(a + 1, 6):
            assert game.value({a, b}) == 2 * (100 - (2 + a + b))


def test_game_build_makes_no_plans(monkeypatch):
    built = []
    for name in ("ExchangePlan", "Shipment"):
        cls = getattr(symbio.exchange, name)
        monkeypatch.setattr(symbio.exchange, name, lambda *a, cls=cls: built.append(a) or cls(*a))
    scenario = dense_scenario(3)
    game = scenario_to_game(scenario)
    assert game.value({0, 1, 2}) > 0
    assert built == []
    # the spy does see the plans the per-coalition optimizer builds
    plan, _ = optimal_exchange_plan(scenario, range(3))
    assert plan.shipments and built
