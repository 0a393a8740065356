import copy
import json
import random
from collections import Counter
from fractions import Fraction
from math import floor, lcm
from pathlib import Path
from typing import NamedTuple

import pytest

import symbio.exchange
from symbio import lp
from symbio.lp import LPResult
from symbio.errors import BoundExceeded, SymbioError
from symbio.exchange import (
    ExchangeScenario,
    ResourceStream,
    input_demand,
    optimal_exchange_plan,
    _RouteSearch,
    scenario_to_game,
    t_value,
    waste_offer,
)
from symbio.games import check_superadditive, coalitions

from helpers import (
    candidate_routes, compatible_pairs, dense_scenario, fractions_made, grid_plan_cost,
    random_scenario, relaxation_net, route_saving, route_subset_game,
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


@pytest.mark.parametrize("build, message", [
    (lambda: ResourceStream(0, "r", "gift", 1), "stream kind must be offer or demand, got 'gift'"),
    (lambda: ExchangeScenario(0, (), {}, {}), "a scenario needs at least one firm"),
    (lambda: ExchangeScenario(2, (waste_offer(2, "r", 1, 1),), {}, {}),
     "stream firm 2 outside roster of 2"),
    (lambda: ExchangeScenario(2, (), {(0, 1, "r"): -1}, {}),
     "transport and transaction costs must be >= 0"),
    (lambda: ExchangeScenario(2, (), {}, {(0, 1): Fraction(-1, 2)}),
     "transport and transaction costs must be >= 0"),
], ids=["bad-kind", "no-firm", "firm-off-roster", "negative-transport", "negative-transaction"])
def test_scenario_validation_messages(build, message):
    with pytest.raises(SymbioError) as e:
        build()
    assert str(e.value) == message


def test_compatible_pairs_match_the_full_scan():
    """A search takes the full scan's profitable pairs: each route it keeps
    holds the oracle's (offer, demand) pairs in ascending order, the LP
    column order, with gain, cap, fee and net saving on the search's integer
    scale, and a candidate route is dropped exactly when it saves nothing
    alone. lg is the lcm of the profitable pairs' worth (purchase less
    treatment), cost (haul less discharge) and fee denominators alone, a
    divisor of the lcm of their five cost fields' and, where those cancel,
    strictly smaller. Validation names the missing cost of the first pair
    the full scan meets."""
    rng = random.Random(71)
    smaller = 0  # draws where worths and costs cancel a field's denominator
    for trial in range(200):
        n = rng.randint(1, 5)
        fractional = range(2, 8) if trial % 2 else None
        scenario = random_scenario(rng, n, resources=("r", "s", "t"), denominators=fractional)
        streams = scenario.streams + tuple(
            rng.choice(scenario.streams) for _ in range(rng.randint(0, 6)))
        scenario = ExchangeScenario(n, streams, scenario.transport, scenario.transaction)
        members = [i for i in range(n) if rng.random() < 0.8]
        search = _RouteSearch(scenario, members)
        lq, lg = search.lq, search.scale // search.lq
        by_route, candidates = candidate_routes(scenario, members)
        saving = [(streams[oi], streams[di]) for found in by_route.values()
                  for oi, di, _ in found]
        assert lg == lcm(*(amount.denominator for o, d in saving for amount in (
            d.unit_purchase_cost - d.unit_treatment_cost,
            scenario.transport[o.firm, d.firm, o.resource] - o.unit_discharge_cost,
            scenario.transaction[o.firm, d.firm])))
        fields = lcm(*(cost.denominator for o, d in saving for cost in (
            o.unit_discharge_cost, d.unit_purchase_cost, d.unit_treatment_cost,
            scenario.transport[o.firm, d.firm, o.resource],
            scenario.transaction[o.firm, d.firm])))
        assert fields % lg == 0
        smaller += lg < fields
        assert lq == lcm(*(streams[i].quantity.denominator for found in by_route.values()
                           for oi, di, _ in found for i in (oi, di)))
        expected = []
        for pair in candidates:
            variables = [(oi, di, gain * lg, min(streams[oi].quantity, streams[di].quantity) * lq)
                         for oi, di, gain in by_route[pair]]
            fee = scenario.transaction[pair]
            net = route_saving(scenario, by_route[pair]) - fee
            if net > 0:
                expected.append((pair, variables, fee * lg * lq, net * lg * lq))
        assert [(r.pair, list(r.variables), r.fee, r.net) for r in search.routes] == expected
        pairs = compatible_pairs(scenario)
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
    assert smaller


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
    """Counts the LPs the exchange optimizer solves: cold solves by
    solve_lp, and re-entries of a kept dictionary by with_cost and
    with_zero."""
    calls = []

    def spy(enter):
        return lambda *args, **kwargs: calls.append(args) or enter(*args, **kwargs)

    monkeypatch.setattr(symbio.exchange, "solve_lp", spy(symbio.exchange.solve_lp))
    for name in ("with_cost", "with_zero"):
        monkeypatch.setattr(lp._Tableau, name, spy(getattr(lp._Tableau, name)))
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
    # a ring's routes share no stream, nor do any route's pairs: no LP at all
    game = scenario_to_game(ring_scenario(5))
    assert len(lp_calls) == 0
    assert game.value(range(5)) == 5 * (8 * 5 - 3)
    lp_calls.clear()
    game = scenario_to_game(dense_scenario(3))  # 6 routes, 2^6 - 1 subsets
    assert len(lp_calls) == 1  # the branch and bound's, once routes share streams
    assert check_superadditive(game) is None
    assert game.value({0, 1}) > 0


@pytest.mark.parametrize("n, lps", [(4, 17), (5, 36), (6, 72), (7, 141)])
def test_dense_lp_counts(lp_calls, n, lps):
    # one resource, n (n - 1) routes: lps counts one LP per route alone plus
    # the branch and bound's. Each route has one stream pair, so it is
    # settled alone without an LP, and the branch and bound's alone remain:
    # 5, 16, 42 and 99, the README's counts, which also pin the
    # relaxations' optimal vertices the branch and bound reads
    scenario_to_game(dense_scenario(n))
    assert len(lp_calls) == lps - n * (n - 1)


def test_pop_time_prune_skips_the_lp(lp_calls):
    """A node whose bound is no better than a plan found since it was pushed
    is dropped when popped, without its LP. No seed-1 benchmark file reaches
    that prune; the 30th draw below (4 firms, 4 kept routes) reaches it
    three times, and takes 9 LPs with it, 12 without."""
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 4)
        scenario = random_scenario(rng, n)
    game = scenario_to_game(scenario)
    assert n == 4 and len(lp_calls) == 9
    assert game == route_subset_game(scenario)


def test_lp_budget_raises_bound_exceeded(lp_calls, monkeypatch):
    monkeypatch.setattr(symbio.exchange, "ENUMERATION_BOUND", 3)
    scenario = dense_scenario(5)  # 20 routes, settled alone without an LP
    with pytest.raises(BoundExceeded, match="budget of 8 LPs"):
        scenario_to_game(scenario)  # inside the branch and bound, which needs 16
    assert len(lp_calls) == 2**3
    # the plan takes two LPs, one in its search and one for its shipments
    monkeypatch.setattr(symbio.exchange, "ENUMERATION_BOUND", 0)
    lp_calls.clear()
    with pytest.raises(BoundExceeded, match=r"budget of 1 LPs \(2\^0\)"):
        optimal_exchange_plan(scenario, range(5))
    assert len(lp_calls) == 1
    # the budget is per call: two firms' routes share no stream, so their
    # plan takes one LP, for its shipments
    lp_calls.clear()
    _, cost = optimal_exchange_plan(scenario, range(2))
    assert t_value(scenario, range(2)) - cost == 2 * (100 - 3)
    assert len(lp_calls) == 1
    # a re-entry of a kept dictionary counts as one LP: a drawn dense file's
    # branch and bound re-enters most of its nodes
    monkeypatch.setattr(symbio.exchange, "ENUMERATION_BOUND", 8)
    lp_calls.clear()
    with pytest.raises(BoundExceeded, match="budget of 256 LPs"):
        scenario_to_game(uneven_dense_scenario(random.Random(3), 6))
    reentries = sum(isinstance(args[0], lp._Tableau) for args in lp_calls)
    assert len(lp_calls) == 2**8 and 0 < reentries < 2**8


def test_game_and_plans_match_the_route_subset_oracle():
    rng = random.Random(29)
    scenarios = [random_scenario(rng, n) for n in (2, 3, 4, 5) for _ in range(8)]
    for scenario in scenarios + [dense_scenario(4)]:
        oracle = route_subset_game(scenario)
        assert scenario_to_game(scenario).table == oracle.table
        for members in coalitions(scenario.n_agents):
            _, cost = optimal_exchange_plan(scenario, members)
            assert t_value(scenario, members) - cost == oracle.value(members)


def test_fractional_data_matches_the_route_subset_oracle():
    """Fraction quantities and costs (denominators 2-7), so that the search's
    quantity scale lq and gain scale lg exceed 1: the game's table and each
    coalition's plan cost equal the oracle's, which solves in Fractions."""
    rng = random.Random(37)
    routes = scaled = 0
    for _ in range(40):
        n = rng.choice([2, 3, 4, 5])
        scenario = random_scenario(rng, n, max_qty=40, denominators=range(2, 8))
        search = _RouteSearch(scenario, range(n))
        routes += len(search.routes)
        scaled += bool(search.routes) and search.lq > 1 and search.scale > search.lq
        oracle = route_subset_game(scenario)
        assert scenario_to_game(scenario).table == oracle.table
        for members in coalitions(n):
            _, cost = optimal_exchange_plan(scenario, members)
            assert t_value(scenario, members) - cost == oracle.value(members)
    assert routes >= 40 and scaled >= 20


def test_relaxation_matches_the_explicit_oracle():
    """best_shipments' relaxation, where a free route with one stream pair
    is one column and no row caps y at 1, has the optimum of the explicit
    form (relaxation_net: an x per pair, a y per free route, cap rows and
    y <= 1 rows, in Fractions): its net is the oracle's floored on the
    search's scale, every y lies in [0, 1], and when every y is whole the
    net is the active routes' best saving less their fees. The routes are
    split at random into fixed, free and left out; the draws have 1-3
    resources, fractional data in half of them, repeated streams in a third
    (for routes with several pairs) and half the fees zeroed in a quarter."""
    rng = random.Random(43)
    zero_fee = shared = whole = 0
    for trial in range(240):
        n = rng.randint(2, 5)
        resources = ("r", "s", "t")[:rng.randint(1, 3)]
        fractional = range(2, 6) if trial % 2 else None
        scenario = random_scenario(rng, n, resources=resources, denominators=fractional)
        streams, transaction = scenario.streams, scenario.transaction
        if trial % 3 == 0:
            streams += tuple(rng.choice(streams) for _ in range(rng.randint(1, 4)))
        if trial % 4 == 1:
            transaction = {k: v if rng.random() < 0.5 else 0 for k, v in transaction.items()}
        scenario = ExchangeScenario(n, streams, scenario.transport, transaction)
        search = _RouteSearch(scenario, range(n))
        fixed, free, dropped = [], [], []
        for route in search.routes:
            rng.choice((fixed, free, free, dropped)).append(route)
        if not free:
            continue
        result, net, column = search.best_shipments(tuple(fixed), tuple(free))
        y = [result.x[column[r]] for r in free]
        oracle = relaxation_net(scenario, [r.pair for r in fixed], [r.pair for r in free])
        assert net == floor(oracle * search.scale)
        assert all(0 <= p <= q for p, q in y)
        if all(p % q == 0 for p, q in y):
            whole += 1
            by_route, _ = candidate_routes(scenario, range(n))
            active = [r.pair for r in fixed] + [r.pair for r, (p, _) in zip(free, y) if p]
            saving = route_saving(scenario, [v for pair in active for v in by_route[pair]])
            fees = sum(scenario.transaction[pair] for pair in active)
            assert net == (saving - fees) * search.scale
        zero_fee += any(r.fee == 0 and len(r.variables) == 1 for r in free)
        shared += any(len(r.variables) > 1 for r in free)
    assert zero_fee >= 15 and shared >= 30 and whole >= 40


class WarmNode(NamedTuple):
    search: _RouteSearch
    fixed: tuple  # sorted, as best_shipments takes them
    free: tuple  # in the root's order
    result: LPResult  # the re-entry's
    column: dict  # each route's y column in the root LP
    entry: str  # "with_cost" (a route made active) or "with_zero" (dropped)
    pivots: int  # made by the re-entry


class WarmNodes(list):
    """WarmNode records in order, and pivots: every pivot made since."""

    pivots = 0


@pytest.fixture
def warm_nodes(monkeypatch):
    """Records each branch-and-bound node that re-enters its parent's
    dictionary, as a WarmNode, and asserts that the column it re-enters on
    is basic in that dictionary, as with_cost and with_zero require."""
    nodes = WarmNodes()
    kept = {}  # id of a kept dictionary -> (search, column, fixed, dropped)
    roots = []  # the roots' results, kept alive with their ids
    best_shipments, pivot = _RouteSearch.best_shipments, lp._pivot

    def root(self, fixed, free=()):
        result = best_shipments(self, fixed, free)
        if free:
            roots.append(result)
            kept[id(result[0].dictionary)] = (self, result[2], (), ())
        return result

    def counted(*args):
        nodes.pivots += 1
        pivot(*args)

    def reenter(enter):
        def spy(self, col, *args):
            search, column, fixed, dropped = kept[id(self)]
            route, = (r for r, k in column.items() if k == col)
            assert col in self.basis
            before = nodes.pivots
            result = enter(self, col, *args)
            if enter.__name__ == "with_cost":
                fixed = tuple(sorted(fixed + (route,)))
            else:
                dropped += (route,)
            free = tuple(r for r in column if r not in fixed and r not in dropped)
            nodes.append(WarmNode(search, fixed, free, result, column, enter.__name__,
                                  nodes.pivots - before))
            kept[id(result.dictionary)] = (search, column, fixed, dropped)
            return result
        return spy

    monkeypatch.setattr(_RouteSearch, "best_shipments", root)
    monkeypatch.setattr(lp, "_pivot", counted)
    for name in ("with_cost", "with_zero"):
        monkeypatch.setattr(lp._Tableau, name, reenter(getattr(lp._Tableau, name)))
    return nodes


def test_warm_nodes_match_the_explicit_oracle(warm_nodes):
    """Every node the branch and bound re-enters from its parent's
    dictionary, a route made active (with_cost) or dropped (with_zero), has
    the optimum of its own relaxation in the explicit form: its net is
    relaxation_net's floored on the search's scale, and every free y lies
    in [0, 1]. The draws are test_relaxation_matches_the_explicit_oracle's:
    fractional data in half, repeated streams in a third (for routes with
    several pairs), half the fees zeroed in a quarter."""
    rng = random.Random(43)
    seen = Counter()
    for trial in range(240):
        n = rng.randint(2, 5)
        resources = ("r", "s", "t")[:rng.randint(1, 3)]
        fractional = range(2, 6) if trial % 2 else None
        scenario = random_scenario(rng, n, resources=resources, denominators=fractional)
        streams, transaction = scenario.streams, scenario.transaction
        if trial % 3 == 0:
            streams += tuple(rng.choice(streams) for _ in range(rng.randint(1, 4)))
        if trial % 4 == 1:
            transaction = {k: v if rng.random() < 0.5 else 0 for k, v in transaction.items()}
        scenario = ExchangeScenario(n, streams, scenario.transport, transaction)
        warm_nodes.clear()
        scenario_to_game(scenario)
        for search, fixed, free, result, column, entry, _ in warm_nodes:
            seen[entry] += 1
            num, den = result.objective
            net = num // den - sum(r.fee for r in fixed)
            oracle = relaxation_net(scenario, [r.pair for r in fixed], [r.pair for r in free])
            assert net == floor(oracle * search.scale)
            assert all(0 <= p <= q for p, q in (result.x[column[r]] for r in free))
            seen["nodes"] += 1
            seen["several pairs"] += any(len(r.variables) > 1 for r in fixed + free)
            seen["fractional"] += search.scale > 1
    assert min(seen[key] for key in (
        "nodes", "several pairs", "fractional", "with_cost", "with_zero")) >= 30, seen


def uneven_dense_scenario(rng, n):
    """One resource that every firm offers and demands, as in dense_scenario,
    with amounts drawn in the benchmark's ranges: every ordered firm pair
    is a route, and the routes' nets differ."""
    streams = []
    for firm in range(n):
        streams += [waste_offer(firm, "steam", rng.randrange(5, 13), rng.randrange(4, 10)),
                    input_demand(firm, "steam", rng.randrange(5, 13), rng.randrange(6, 13),
                                 rng.randrange(0, 4))]
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    return ExchangeScenario(n, tuple(streams), {(a, b, "steam"): rng.randrange(0, 4)
                                                for a, b in pairs},
                            {pair: rng.randrange(1, 16) for pair in pairs})


@pytest.mark.parametrize("n", [6, 7])
def test_warm_nodes_take_under_half_the_cold_pivots(warm_nodes, n):
    """The re-entries of a dense file's branch and bound, taken together,
    make at most half the pivots that best_shipments makes solving the same
    nodes cold (here every fifth node, solved again after the search), and
    find the same optima. dense_scenario(6) and dense_scenario(7) never
    branch, every root being integral or pruned, so the files are drawn.
    At 6 firms the search re-enters 927 nodes at 0.8 pivots each, where a
    cold solve of a node takes about 17; at 7 firms 3,681 at 1.1, against
    about 19."""
    scenario_to_game(uneven_dense_scenario(random.Random(3), n))
    sample = warm_nodes[::5]
    warm, before = sum(node.pivots for node in sample), warm_nodes.pivots
    for node in sample:
        _, net, _ = node.search.best_shipments(node.fixed, node.free)
        num, den = node.result.objective
        assert net == num // den - sum(r.fee for r in node.fixed)
    cold = warm_nodes.pivots - before
    assert len(sample) >= 150 and 2 * warm <= cold, (warm, cold)


def test_unpaired_streams_leave_the_scale_alone():
    """Only streams that the pair scan reads (the two ends of an offer and a
    demand of one resource at two firms) enter the search's scale, and only
    those of profitable pairs enter lq. An offer and demands that no other
    firm trades with, each amount over its own long denominator, leave lq
    at 1, the scale and the game as they are without them."""
    paired = (waste_offer(0, "r", 10, 5), input_demand(1, "r", 8, 7, 2),
              waste_offer(1, "s", 6, 3), input_demand(2, "s", 4, 9, 1))
    transport = {(0, 1, "r"): Fraction(1, 3), (1, 2, "s"): Fraction(5, 7)}
    transaction = {(0, 1): 10, (1, 2): 2}
    big = 10**60
    unpaired = (waste_offer(0, "x", Fraction(1, big + 1), Fraction(2, big + 3)),
                input_demand(0, "x", Fraction(3, big + 7), Fraction(5, big + 9),
                             Fraction(1, big + 11)),
                input_demand(2, "y", Fraction(7, big + 13), Fraction(4, big + 17),
                             Fraction(1, big + 19)))
    plain = ExchangeScenario(3, paired, transport, transaction)
    hostile = ExchangeScenario(3, unpaired[:1] + paired + unpaired[1:], transport, transaction)
    search = _RouteSearch(hostile, range(3))
    assert len(search.routes) == 2 and search.lq == 1
    assert search.scale == _RouteSearch(plain, range(3)).scale == 21
    assert scenario_to_game(hostile) == scenario_to_game(plain)


def test_links_that_never_save_leave_the_scale_alone(monkeypatch):
    """Only the costs of pairs that save enter lg: the bisection decides
    which pairs save on exact comparisons first. A 2-firm scenario with one
    2x2 route plus 200 links that never save, each offer's discharge cost
    over its own 900-digit denominator (about 235 KB as a scenario file),
    keeps the scale and the game of the route alone, and no lcm or _over
    that the search takes sees a number of more than 64 bits."""
    route = (waste_offer(0, "r", 10, 5), waste_offer(0, "r", 6, 4),
             input_demand(1, "r", 8, 7, 2), input_demand(1, "r", 5, 6, 1))
    transport = {(0, 1, "r"): Fraction(1, 3)}
    streams = list(route)
    for i in range(200):
        # worth 1 - 1 = 0 is below haul - discharge = 1 - 1/D: no saving
        streams += [waste_offer(0, f"x{i}", 3, Fraction(1, 10**899 + 2 * i + 1)),
                    input_demand(1, f"x{i}", 3, 1, 1)]
        transport[0, 1, f"x{i}"] = 1
    plain = ExchangeScenario(2, route, transport, {(0, 1): 10})
    hostile = ExchangeScenario(2, streams, transport, {(0, 1): 10})
    bits = []
    over, lcm_ = symbio.exchange._over, symbio.exchange.lcm
    monkeypatch.setattr(symbio.exchange, "_over", lambda amount, d: bits.append(max(
        amount.numerator.bit_length(), amount.denominator.bit_length(), d.bit_length()))
        or over(amount, d))
    monkeypatch.setattr(symbio.exchange, "lcm", lambda *ds: bits.extend(
        d.bit_length() for d in ds) or lcm_(*ds))
    search = _RouteSearch(hostile, range(2))
    assert len(search.routes) == 1 and search.scale.bit_length() == 2
    assert search.scale == _RouteSearch(plain, range(2)).scale == 3
    assert scenario_to_game(hostile) == scenario_to_game(plain)
    assert bits and max(bits) <= 64


def test_costs_that_cancel_leave_the_scale_whole():
    """lg covers a pair's worth (purchase less treatment) and its link's
    cost (haul less discharge), not the five cost fields: thirds that
    cancel in both, worth 7/3 - 1/3 = 2 and cost 2/3 - 2/3 = 0, leave the
    scale at 1 (the lcm of the fields' denominators is 3). The game is the
    enumerating oracle's: 2 per unit on 8 units, less the fee of 1."""
    scenario = ExchangeScenario(
        2, (waste_offer(0, "r", 10, Fraction(2, 3)),
            input_demand(1, "r", 8, Fraction(7, 3), Fraction(1, 3))),
        {(0, 1, "r"): Fraction(2, 3)}, {(0, 1): 1})
    assert _RouteSearch(scenario, range(2)).scale == 1
    game = scenario_to_game(scenario)
    assert game.value({0, 1}) == 15
    assert game == route_subset_game(scenario)


def test_game_build_makes_no_fraction_per_pair_or_row(lp_calls):
    """scenario_to_game works on ints: solve_lp returns (num, den) int
    pairs and the search floors each net saving, so no Fraction is made at
    all, neither per compatible pair nor per LP row nor per LP."""
    scenario = dense_scenario(5)  # 20 compatible pairs, all profitable
    with fractions_made() as made:
        game = scenario_to_game(scenario)
    assert game.value(range(5)) > 0 and len(lp_calls) == 16
    assert made == []


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


def test_the_roster_links_are_built_once(monkeypatch):
    """A scenario builds its roster's link list once, to validate it, and
    each search keeps the links inside its coalition: construction and
    scenario_to_game make one _links call. The scenario ranks each shared
    demand list once, so a second scenario_to_game or optimal_exchange_plan
    on the same scenario, and one on a copy never searched, give the same
    answers.
    A third of the draws repeat streams, so that a firm demands one
    resource more than once."""
    calls = []
    links = ExchangeScenario._links
    monkeypatch.setattr(ExchangeScenario, "_links", lambda self: calls.append(self) or links(self))
    rng = random.Random(29)
    ranked = 0
    for trial in range(30):
        n = rng.randint(2, 4)
        drawn = random_scenario(rng, n, denominators=range(2, 6) if trial % 2 else None)
        streams = drawn.streams
        if trial % 3 == 0:
            streams += tuple(rng.choice(streams) for _ in range(rng.randint(1, 4)))
        def copy():
            return ExchangeScenario(n, streams, drawn.transport, drawn.transaction)

        calls.clear()
        scenario = copy()
        game = scenario_to_game(scenario)
        assert calls == [scenario]
        assert scenario_to_game(scenario) == game == scenario_to_game(copy())
        for members in coalitions(n):
            plan = optimal_exchange_plan(scenario, members)
            assert optimal_exchange_plan(scenario, members) == plan
            assert optimal_exchange_plan(copy(), members) == plan
        ranked += any(len(dis) > 1 for _, _, _, _, dis, _ in scenario.links)
    assert ranked >= 5


def test_no_search_writes_its_scenario():
    """Searching every coalition, by scenario_to_game and by
    optimal_exchange_plan, leaves the scenario's links, ranked demands
    included, as construction built them. A draw repeats streams, so that
    a firm demands one resource more than once; in at least five of them
    some firm's demands for a resource, in index order, are not ranked by
    worth."""
    rng = random.Random(30)
    unranked = 0
    for trial in range(30):
        n = rng.randint(2, 4)
        drawn = random_scenario(rng, n, denominators=range(2, 6) if trial % 2 else None)
        streams = drawn.streams + tuple(
            rng.choice(drawn.streams) for _ in range(rng.randint(1, 4)))
        scenario = ExchangeScenario(n, streams, drawn.transport, drawn.transaction)
        built = copy.deepcopy(scenario.links)
        scenario_to_game(scenario)
        for members in coalitions(n):
            optimal_exchange_plan(scenario, members)
        assert scenario.links == built
        worths = {}  # (firm, resource) -> worths of its demands, in index order
        for d in streams:
            if d.kind == "demand":
                worths.setdefault((d.firm, d.resource), []).append(
                    d.unit_purchase_cost - d.unit_treatment_cost)
        unranked += any(w != sorted(w) for w in worths.values())
    assert unranked >= 5


def x4_scenario():
    """tests/data/x4.json, read with the library's constructors alone."""
    doc = json.loads((Path(__file__).parent / "data" / "x4.json").read_text(encoding="utf-8"))
    ids = {name: i for i, name in enumerate(doc["agents"])}
    section = doc["exchange"]
    streams = tuple(ResourceStream(
        ids[entry["firm"]], entry["resource"], entry["kind"], Fraction(entry["quantity"]),
        **{k: Fraction(v) for k, v in entry.items() if k.startswith("unit_")})
        for entry in section["streams"])
    transport = {(ids[e["from"]], ids[e["to"]], e["resource"]): Fraction(e["cost"])
                 for e in section["transport"]}
    transaction = {(ids[e["from"]], ids[e["to"]]): Fraction(e["cost"])
                   for e in section["transaction"]}
    return ExchangeScenario(len(ids), streams, transport, transaction)


def test_x4_reaches_what_the_benchmark_files_do_not(lp_calls, monkeypatch):
    """The golden exchange file x4.json (firms A, B, C, D) keeps what no
    benchmark exchange file has:
    - B demands slag twice, its first demand worth more per unit than its
      second, and A's slag offer saves with the first alone;
    - route C -> B has two stream pairs, which share C's offer, so it is
      settled alone by an LP;
    - routes A -> B and A -> D share A's offer, so the branch and bound
      solves LPs, and one of them relaxes C -> B, a route of several pairs."""
    scenario = x4_scenario()
    a, b, c, d = range(4)
    streams = scenario.streams
    offer_a, = (i for i, s in enumerate(streams) if s.kind == "offer" and s.firm == a)
    demands_b = [i for i, s in enumerate(streams) if s.kind == "demand" and s.firm == b]
    worth = [streams[i].unit_purchase_cost - streams[i].unit_treatment_cost for i in demands_b]
    assert len(demands_b) == 2 and worth[0] > worth[1]
    by_route, _ = candidate_routes(scenario, range(4))
    assert [di for _, di, _ in by_route[a, b]] == demands_b[:1]
    assert [di for _, di, _ in by_route[c, b]] == demands_b
    search = _RouteSearch(scenario, range(4))
    routes = {r.pair: r for r in search.routes}
    assert len(routes[c, b].variables) == 2 and len(routes[c, b].streams) == 3
    assert routes[a, b].streams & routes[a, d].streams == {offer_a}
    assert len(lp_calls) == 1  # C -> B's, settled alone
    relaxed = []  # the pair counts of the free routes of each relaxation
    best_shipments = _RouteSearch.best_shipments
    monkeypatch.setattr(_RouteSearch, "best_shipments", lambda self, fixed, free=(): (
        relaxed.append([len(r.variables) for r in free]) or best_shipments(self, fixed, free)))
    lp_calls.clear()
    scenario_to_game(scenario)
    assert len(lp_calls) == 5 and relaxed[0] == []  # C -> B's, then four in the branch and bound
    assert any(max(counts, default=0) > 1 for counts in relaxed)
