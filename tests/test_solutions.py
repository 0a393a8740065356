import importlib.util
import inspect
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbio import games, lp, solutions
from symbio.coordination import CoordinatedGame
from symbio.errors import BoundExceeded, SymbioError
from symbio.exchange import scenario_to_game
from symbio.games import ISNGame, check_superadditive, coalitions, members_of
from symbio.mcnets import MCNet, MCNetRule, evaluate, net_shapley
from symbio.solutions import core_nonempty, in_core, is_implementable, shapley

from helpers import (
    balanced_weights_hold,
    core_constraints_hold,
    convex_game,
    core_nonempty_by_enumeration,
    fraction_solve_lp,
    mirrored_pairs,
    mixed_game,
    perm_shapley,
    phase_one_core_lp,
    random_game,
    random_net,
    random_scenario,
    traced_oracle,
    traced_solves,
)


def test_shapley_on_g3(g3):
    assert shapley(g3) == (Fraction(13, 3), Fraction(16, 3), Fraction(7, 3))


def test_shapley_symmetric_two_agent_game():
    game = ISNGame.from_values(2, {(0, 1): 20})
    assert shapley(game) == (10, 10)


def test_shapley_zero_game():
    assert shapley(ISNGame.from_values(3, {})) == (0, 0, 0)


def test_subset_formula_shapley_on_g3(g3):
    assert shapley(g3) == (Fraction(13, 3), Fraction(16, 3), Fraction(7, 3))
    assert shapley(ISNGame.from_values(1, {})) == (0,)
    assert shapley(ISNGame.from_values(3, {})) == (0, 0, 0)


def test_subset_formula_shapley_on_coordinated_games():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(2, 6)
        game = random_game(rng, n)
        net = random_net(rng, n)
        # a negative-only pattern: worth on the empty set and on singletons
        outsider = rng.randrange(n)
        net = MCNet(n, net.rules + (MCNetRule(set(), {outsider}, rng.randint(1, 9)),))
        coordinated = CoordinatedGame(game, net)
        expected = perm_shapley(n, lambda s: game.value(s) + evaluate(net, s))
        assert coordinated.table[0] != 0
        assert shapley(coordinated) == expected
        assert net_shapley(coordinated.as_mcnet()) == expected


def test_shapley_on_mixed_denominators():
    rng = random.Random(89)
    for n in range(1, 7):
        for _ in range(4):
            game = mixed_game(rng, n)
            coordinated = CoordinatedGame(game, random_net(rng, n))
            for g in game, coordinated:
                assert shapley(g) == perm_shapley(n, g.value)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=6))
@settings(max_examples=25, deadline=None)
def test_shapley_efficiency(seed, n):
    game = random_game(random.Random(seed), n)
    phi = shapley(game)
    assert sum(phi) == game.value(frozenset(range(n)))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_shapley_equivariant_under_relabeling(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    game = random_game(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)  # perm[i] = new id of old agent i
    relabeled = ISNGame.from_values(
        n,
        {
            frozenset(perm[i] for i in members): game.value(members)
            for members in coalitions(n, min_size=2)
        },
    )
    phi, psi = shapley(game), shapley(relabeled)
    assert all(psi[perm[i]] == phi[i] for i in range(n))


def test_in_core_checks(g3):
    assert in_core(g3, (5, 5, 2))
    assert not in_core(g3, (Fraction(13, 3), Fraction(16, 3), Fraction(7, 3)))
    assert not in_core(g3, (4, 4, 4))  # pair {0,1} gets 8 < 10
    with pytest.raises(SymbioError, match="allocation has 2 entries, game has 3 agents"):
        in_core(g3, (1, 2))


def test_in_core_boundary_allocation_counts():
    game = ISNGame.from_values(2, {(0, 1): 10})
    assert in_core(game, (10, 0))
    assert in_core(game, (0, 10))
    assert not in_core(game, (11, -1))


def test_in_core_matches_constraint_oracle():
    rng = random.Random(41)
    verdicts = []
    for n in range(2, 7):
        for _ in range(12):
            game = random_game(rng, n)
            candidates = [shapley(game)]
            result = core_nonempty(game)
            if result.nonempty:
                # the LP witness is a vertex: on the boundary of the core
                x = result.witness
                step = Fraction(1, rng.choice([1, 2, 3, 7]))
                i, j = rng.sample(range(n), 2)
                candidates.append(x)
                for d in (step, -step):
                    moved = list(x)
                    moved[i] += d
                    candidates.append(tuple(moved))  # off the efficiency plane
                    moved[j] -= d
                    candidates.append(tuple(moved))  # along it, across some rows
            for x in candidates:
                verdict = in_core(game, x)
                assert verdict == core_constraints_hold(game, x)
                verdicts.append(verdict)
    assert verdicts.count(True) >= 25 and verdicts.count(False) >= 60


def test_in_core_on_mixed_denominators():
    """Allocations over denominators the table does not use: 3, 17 and a
    1000-digit one, each step taken off the efficiency plane and along it,
    and Shapley rounded down to thirds with the remainder on the last agent."""
    rng = random.Random(97)
    verdicts = []
    for n in range(2, 7):
        for _ in range(8):
            game = mixed_game(rng, n)
            phi = perm_shapley(n, game.value)
            thirds = [Fraction(math.floor(3 * p), 3) for p in phi[:-1]]
            candidates = [phi, (*thirds, game.value(range(n)) - sum(thirds))]
            for den in (3, 17, 10**999 + 7):
                step = Fraction(rng.randint(1, 5), den)
                i, j = rng.sample(range(n), 2)
                moved = list(phi)
                moved[i] += step
                candidates.append(tuple(moved))
                moved[j] -= step
                candidates.append(tuple(moved))
            for x in candidates:
                verdict = in_core(game, x)
                assert verdict == core_constraints_hold(game, x)
                verdicts.append(verdict)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 100


def test_core_of_g3(g3):
    result = core_nonempty(g3)
    assert result.nonempty
    assert in_core(g3, result.witness)
    assert core_constraints_hold(g3, result.witness)


def test_core_empty_on_symmetric_overdemand(g3_prime):
    # the three pair constraints sum to 2*total >= 30 against total = 12
    assert not core_nonempty(g3_prime).nonempty
    assert not core_nonempty_by_enumeration(g3_prime).nonempty


def test_two_agent_nonnegative_games_have_cores():
    for v in (0, 1, Fraction(7, 3), 62):
        game = ISNGame.from_values(2, {(0, 1): v})
        result = core_nonempty(game)
        assert result.nonempty
        assert in_core(game, result.witness)
        assert in_core(game, (Fraction(v, 2), Fraction(v, 2)))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_core_decision_matches_vertex_enumeration(seed, n):
    game = random_game(random.Random(seed), n)
    lp = core_nonempty(game)
    enum = core_nonempty_by_enumeration(game)
    assert lp.nonempty == enum.nonempty
    if lp.nonempty:
        assert core_constraints_hold(game, lp.witness)
        assert core_constraints_hold(game, enum.witness)
    else:
        assert balanced_weights_hold(n, game.value, lp.weights)


def _near_convex_game(rng, n):
    """v(S) = |S|^2 plus noise of up to |S|, over small denominators.

    Convex before the noise, so the core is often nonempty; the noise makes
    many of these games non-superadditive.
    """
    values = {}
    for mask in range(1 << n):
        k = mask.bit_count()
        if k >= 2:
            values[members_of(mask)] = Fraction(k * k + rng.randint(-k, k), rng.choice([1, 2, 3]))
    return ISNGame.from_values(n, values)


def _split_proof_game(rng, n):
    """random_game's values, drawn >= 0, with v(N) set to the best split's
    worth: no split {S, N - S} is worth more than v(N), and the budget is
    >= 0, so only the LP can find the core empty. It often is, where
    coalitions of other shapes (three pairs of three agents, say) are
    worth more together."""
    table = list(random_game(rng, n, lo=0).table)
    full = len(table) - 1
    table[full] = max((table[mask] + table[full ^ mask] for mask in range(1, full)), default=0)
    return ISNGame.from_table(n, table)


def _decided_without_lp(game, result):
    """A verdict core_nonempty reached with no LP is empty, and so is the
    core by the oracle's phase one (phase_one_core_lp, None when the budget
    is negative)."""
    args = phase_one_core_lp(game)
    return not result.nonempty and (args is None or fraction_solve_lp(*args).status == "infeasible")


def test_core_witness_matches_fraction_tableau(monkeypatch):
    # the oracle solves core_nonempty's LP, the core LP with its surplus
    # columns written out: the same pivots, every one, and no drive-out; so
    # the same witness, or on an empty verdict the same weights, read off
    # the oracle's dual
    oracle_calls = []

    def oracle(*args, **kwargs):
        call = inspect.signature(fraction_solve_lp).bind(*args, **kwargs)
        call.apply_defaults()
        oracle_calls.append(call.arguments)
        return fraction_solve_lp(*args, maximize=True, **kwargs)

    rng = random.Random(7)
    verdicts = set()
    non_superadditive = 0
    mirrored_entries = 0
    for n in range(2, 7):
        for make in (random_game, _split_proof_game, _near_convex_game):
            for _ in range(3 if n == 6 else 6):
                game = make(rng, n)
                result, solves = traced_solves(lambda: core_nonempty(game))
                oracle_calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(solutions, "solve_lp", oracle)
                    oracle_result, oracle_pivots, drive_outs = traced_oracle(lambda: core_nonempty(game))
                assert oracle_result == result and oracle_result.weights == result.weights
                pivots = [p for _, lp_pivots in solves for p in lp_pivots]
                assert [p[:-1] for p in pivots] == [p[:-1] for p in oracle_pivots]
                assert drive_outs == 0 and len(oracle_calls) == len(solves)
                non_superadditive += check_superadditive(game) is not None
                if not solves:  # a negative budget or a split: no LP, no pivot
                    assert _decided_without_lp(game, result)
                    continue
                # an empty verdict's weights come from the core LP's dual
                assert len(solves) == 1
                verdicts.add((n, result.nonempty))
                for lp_args, lp_pivots in solves:
                    # stored: one cell per nonbasic column, rhs and scale
                    assert all(width == len(lp_args["c"]) + 2 for *_, width in lp_pivots)
                (lp_args, lp_pivots), *_ = solves
                mirrored = mirrored_pairs(len(lp_args["c"]), lp_args["surplus"])
                mirrored_entries += sum(col in mirrored for _, col, *_ in lp_pivots)
    # from n = 3 on, both verdicts come out of the LP at every size
    assert {(n, v) for n in range(3, 7) for v in (False, True)} <= verdicts
    assert non_superadditive >= 20
    assert mirrored_entries > 0


def _singleton_net(rng, n):
    """random_net's rules and one that moves a single firm's worth alone,
    which moves every floor of the core LP and its budget."""
    i = rng.randrange(n)
    value = Fraction(rng.choice([-9, -4, -1, 1, 4, 9]), rng.choice([1, 2]))
    return MCNet(n, random_net(rng, n).rules + (MCNetRule({i}, set(range(n)) - {i}, value),))


def _coordinated_game(rng, n):
    return CoordinatedGame(random_game(rng, n), _singleton_net(rng, n))


def _phase_one_witness(game, x):
    """The core point of the phase-one LP's solution x (phase_one_core_lp):
    each slack y over d, lifted by the agent's worth alone."""
    return tuple((Fraction(*y) + game.scaled[1 << i]) / game.denominator for i, y in enumerate(x))


def test_core_lp_makes_phase_ones_pivots():
    """core_nonempty's LP makes the pivots of the oracle's phase one on the
    feasibility LP the core was once decided by (phase_one_core_lp), tuple
    for tuple, and stops at its point: the same verdict and witness. Only
    the oracle's drive-out pivots follow; phase two, with c = 0, makes
    none. A core that a negative budget or a split shows empty makes no
    pivot at all, and the oracle's phase one finds it empty too."""
    rng = random.Random(26)
    verdicts = set()
    makers = (random_game, mixed_game, convex_game, _near_convex_game, _coordinated_game,
              _split_proof_game)
    for n in range(2, 8):
        # at n = 7 the Fraction oracle takes seconds on 100 rows
        for make in (convex_game, _coordinated_game) if n == 7 else makers:
            for _ in range(1 if n >= 6 else 5):
                game = make(rng, n)
                result, solves = traced_solves(lambda: core_nonempty(game))
                if not solves:
                    assert _decided_without_lp(game, result)
                    verdicts.add((make, "no LP"))
                    continue
                (_, pivots), *weights_lp = solves
                assert weights_lp == []
                args = phase_one_core_lp(game)
                expected, oracle_pivots, drive_outs = traced_oracle(
                    lambda: fraction_solve_lp(*args))
                assert [p[:-1] for p in pivots] == [p[:-1] for p in oracle_pivots[: len(pivots)]]
                assert len(oracle_pivots) == len(pivots) + drive_outs
                assert result.nonempty == (expected.status == "optimal")
                if result.nonempty:
                    assert result.witness == _phase_one_witness(game, expected.x)
                verdicts.add((make, result.nonempty))
    # every maker reaches the LP with a nonempty core; a convex game's core
    # is never empty, and only the LP finds a split-proof one empty
    assert {(make, True) for make in makers} | {(_split_proof_game, False)} <= verdicts
    assert {(make, "no LP") for make in makers} - verdicts == {
        (convex_game, "no LP"), (_split_proof_game, "no LP")}
    assert (convex_game, False) not in verdicts


def test_every_empty_verdict_carries_balanced_weights():
    """Over random games of 1 to 7 agents, coordinated ones with worth on
    the empty set and on singletons included: every verdict is the oracle's
    phase one's, an empty one carries weights balanced_weights_hold accepts
    and a nonempty one none. Each source of weights occurs: a negative
    budget (weight 1 on every singleton, no LP), a split (weight 1 on each
    side, no LP) and the LP (the core LP's dual, no second LP)."""
    rng = random.Random(27)
    sources = Counter()
    for n in range(1, 8):
        for make in random_game, mixed_game, _coordinated_game, _split_proof_game:
            for _ in range(40 if n <= 4 else 6):
                game = make(rng, n)
                result, solves = traced_solves(lambda: core_nonempty(game))
                if n <= 5:
                    args = phase_one_core_lp(game)
                    expected = args is not None and fraction_solve_lp(*args).status == "optimal"
                    assert result.nonempty == expected
                if result.nonempty:
                    assert result.weights is None and core_constraints_hold(game, result.witness)
                    continue
                assert result.witness is None
                assert balanced_weights_hold(n, game.value, result.weights)
                weights = [w for _, w in result.weights]
                if not solves:
                    singletons = [frozenset({i}) for i in range(n)]
                    source = ("budget" if [s for s, _ in result.weights] == singletons
                              else "split")
                    assert weights == [1] * (n if source == "budget" else 2)
                else:
                    source = "LP"
                    assert len(solves) == 1
                sources[source] += 1
                if isinstance(game, CoordinatedGame) and game.scaled[0]:
                    sources["v(empty) != 0"] += 1
    assert min(sources[k] for k in ("budget", "split", "LP", "v(empty) != 0")) >= 10


def test_balanced_weights_fail_when_one_weight_changes():
    """balanced_weights_hold rejects weights of a budget, a split and an
    LP verdict once any one weight moves, up or down."""
    cases = [
        ISNGame.from_values(3, {(0, 1): -1, (0, 2): 2, (1, 2): 2, (0, 1, 2): -1}),  # budget
        ISNGame.from_values(3, {(0, 1): 10, (0, 2): 4, (1, 2): 6, (0, 1, 2): 9}),  # split
        ISNGame.from_values(3, {(0, 1): 10, (0, 2): 10, (1, 2): 10, (0, 1, 2): 12}),  # LP
    ]
    for game in cases:
        weights = core_nonempty(game).weights
        assert balanced_weights_hold(3, game.value, weights)
        for k, (coalition, w) in enumerate(weights):
            for moved in w + Fraction(1, 7), w - Fraction(1, 7):
                changed = (*weights[:k], (coalition, moved), *weights[k + 1:])
                assert not balanced_weights_hold(3, game.value, changed)
    assert [len(core_nonempty(game).weights) for game in cases] == [3, 2, 3]


def _bench_scenarios():
    """bench/scenarios.py, the benchmark's generator, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("bench_scenarios", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_empty_cores_carry_balanced_weights():
    """Both seed-1 tables-analyze passes of the benchmark: each of the six
    empty cores a pass holds is found by a split, with no LP, and its
    weights hold against the generator's own values; every other core is
    nonempty, by one LP."""
    scenarios = _bench_scenarios()
    for pass_index in 0, 1:
        empty = lps = 0
        for case in scenarios.make_batch("tables-analyze", 1, pass_index):
            game = ISNGame.from_table(case.n, case.values)
            result, solves = traced_solves(lambda: core_nonempty(game))
            assert result.nonempty == (case.split is None)
            if case.split is None:
                assert result.weights is None
            else:
                empty += 1
                assert balanced_weights_hold(
                    case.n, lambda s: case.values[sum(1 << i for i in s)], result.weights)
            lps += len(solves)
        assert (empty, lps) == (6, 52)


def test_core_witness_survives_the_oracles_drive_out():
    # The two-phase oracle drives zero-level artificials out of the basis
    # after phase one and runs phase two; the core LP stops where phase one
    # does. Neither step moves the point, so the witness is the same.
    rng = random.Random(5)
    drove_out = 0
    for n in range(2, 7):
        for make in (random_game, mixed_game, convex_game):
            for _ in range({5: 6, 6: 1}.get(n, 24)):
                game = make(rng, n)
                result = core_nonempty(game)
                args = phase_one_core_lp(game)
                if args is None:
                    continue
                expected, _, drive_outs = traced_oracle(lambda: fraction_solve_lp(*args))
                if result.nonempty:
                    assert result.witness == _phase_one_witness(game, expected.x)
                drove_out += drive_outs > 0
    assert drove_out > 0


@pytest.mark.parametrize("game, rows", [
    # n = 1: the budget row alone, no surplus column
    (ISNGame.from_values(1, {}), [[1]]),
    (CoordinatedGame(ISNGame.from_values(1, {}),
                     MCNet(1, (MCNetRule({0}, set(), Fraction(5, 2)),))), [[1]]),
    # no positive floor: every pair worth no more than its members alone
    (ISNGame.from_values(3, {(0, 1): -2, (0, 2): 0, (1, 2): -1, (0, 1, 2): 6}), [[1, 1, 1]]),
    # budget 0, with and without a positive floor; at n = 3 the split of
    # the pair worth 1 from the third agent is worth 1 > 0: no LP
    (ISNGame.from_values(3, {(0, 1): 0, (0, 1, 2): 0}), [[1, 1, 1]]),
    (ISNGame.from_values(3, {(0, 1): 1, (0, 1, 2): 0}), None),
    # singleton worths of 3 each drive the budget to 4 - 9 < 0: no LP
    (CoordinatedGame(ISNGame.from_values(3, {(0, 1, 2): 4}),
                     MCNet(3, tuple(MCNetRule({i}, {0, 1, 2} - {i}, 3) for i in range(3)))),
     None),
    # budget 0 at n = 4: no split is worth more than 0, yet {0, 1}, {2}
    # and {3} are, so only the LP finds the core empty
    (ISNGame.from_values(4, {(0, 1): 1, (2, 3): -1}), [[1, 1, 0, 0], [1, 1, 1, 1]]),
])
def test_core_lp_corners(monkeypatch, game, rows):
    calls = []
    solve = solutions.solve_lp
    monkeypatch.setattr(solutions, "solve_lp",
                        lambda *a, **kw: calls.append(kw) or solve(*a, **kw))
    result = core_nonempty(game)
    # the core LP alone, whatever the verdict: an empty one is weighted by its dual
    assert [call["a_ub"] for call in calls[:1]] == ([] if rows is None else [rows])
    assert [call["surplus"] for call in calls[:1]] == ([] if rows is None else [len(rows) - 1])
    assert len(calls) == (rows is not None)
    expected = core_nonempty_by_enumeration(game)
    assert result.nonempty == expected.nonempty
    if result.nonempty:
        assert core_constraints_hold(game, result.witness) and result.weights is None
    else:
        assert balanced_weights_hold(game.n_agents, game.value, result.weights)


def test_implementability(g3, g3_prime):
    assert not is_implementable(g3)  # Shapley violates the {0,1} constraint
    assert not is_implementable(g3_prime)  # empty core
    assert is_implementable(ISNGame.from_values(2, {(0, 1): 20}))


def test_implementability_beyond_the_factorial_bound():
    n = 10
    convex = ISNGame.from_values(
        n, {s: len(s) ** 2 - len(s) for s in coalitions(n, min_size=2)}
    )
    assert shapley(convex) == (n - 1,) * n
    assert is_implementable(convex)
    pairs_overdemand = ISNGame.from_values(
        n, {s: 10 if len(s) == 2 else 12 if len(s) == n else 0 for s in coalitions(n, min_size=2)}
    )
    assert not is_implementable(pairs_overdemand)


@pytest.mark.slow
def test_core_witness_of_a_nine_agent_convex_game():
    """|S|^2 - |S| at n = 9: 501 coalition rows, under a second; Bland's
    rule reaches the marginal vector (16, 14, ..., 0)."""
    n = 9
    convex = ISNGame.from_values(n, {s: len(s) ** 2 - len(s) for s in coalitions(n, min_size=2)})
    result = core_nonempty(convex)
    assert result.nonempty and result.witness == tuple(range(2 * n - 2, -1, -2))


def test_core_lp_rows_are_scaled_under_the_bit_budget(monkeypatch):
    """The core LP's rows are ints over the table's lcm denominator (105,
    7 bits for 8 entries), which is scaled once, when the game is built,
    under games.SCALED_BITS: one bit less and the construction raises."""
    values = {(0, 1): Fraction(1, 3), (0, 2): Fraction(1, 5), (1, 2): Fraction(2, 7), (0, 1, 2): 1}
    monkeypatch.setattr(games, "SCALED_BITS", 8 * 7)
    game = ISNGame.from_values(3, values)
    assert game.denominator == 105
    result = core_nonempty(game)
    assert result.nonempty and in_core(game, result.witness)
    monkeypatch.setattr(games, "SCALED_BITS", 8 * 7 - 1)
    with pytest.raises(BoundExceeded, match="needs more than 6 bits"):
        ISNGame.from_values(3, values)


def test_two_person_exchange_games_always_implementable():
    rng = random.Random(23)
    for _ in range(25):
        game = scenario_to_game(random_scenario(rng, 2))
        assert is_implementable(game)


def test_core_witness_is_deterministic(g3):
    assert core_nonempty(g3).witness == core_nonempty(g3).witness
    again = ISNGame.from_values(3, {(0, 1): 10, (0, 2): 4, (1, 2): 6, (0, 1, 2): 12})
    assert core_nonempty(g3).witness == core_nonempty(again).witness
