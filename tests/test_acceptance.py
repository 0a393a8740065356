"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything runs at desk scale with fixed seeds; all equality assertions are
exact rational comparisons (zero tolerance) unless a criterion says
otherwise, and none do.
"""

import random
from fractions import Fraction
from pathlib import Path

from symbio.cli import main
from symbio.coordination import (
    CoordinatedGame,
    MCNet,
    Policy,
    enforce_policy,
    synthesize_promotion,
)
from symbio.errors import SymbioError
from symbio.exchange import scenario_to_game
from symbio.games import coalitions, subgame
from symbio.mcnets import MCNetRule, evaluate, from_isn_game, net_shapley
from symbio.solutions import core_nonempty, is_implementable, shapley

from helpers import (
    core_constraints_hold,
    core_nonempty_by_enumeration,
    perm_shapley,
    random_game,
    random_scenario,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:2d}] {tag}  {name}{detail}")
    assert ok, f"criterion {num} failed: {name}{detail}"


def test_criterion_01_mcnet_fidelity():
    rng = random.Random(101)
    bad = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        game = random_game(rng, n)
        net = from_isn_game(game)
        for members in coalitions(n):
            if evaluate(net, members) != game.value(members):
                bad += 1
    _report(1, "MC-net transformation reproduces every coalition value", bad == 0,
            f" (200 games, n 2..8, mismatches={bad})")


def test_criterion_02_and_03_shapley_agreement_and_efficiency():
    rng = random.Random(202)
    agree = efficient = True
    for _ in range(100):
        n = rng.randint(2, 7)
        game = random_game(rng, n)
        slow = perm_shapley(n, game.value)
        agree = agree and net_shapley(from_isn_game(game)) == slow and shapley(game) == slow
        efficient = efficient and sum(slow) == game.value(frozenset(range(n)))
    _report(2, "rule-wise and subset-formula Shapley equal permutation brute force", agree,
            " (100 games, n 2..7, exact)")
    _report(3, "Shapley efficiency: payoffs sum to v(N)", efficient, " (same games)")


def test_criterion_04_two_person_exchange_games_implementable():
    rng = random.Random(404)
    ok = True
    for _ in range(100):
        game = scenario_to_game(random_scenario(rng, 2))
        ok = ok and is_implementable(game)
    _report(4, "every two-person exchange game is fair-and-stable", ok,
            " (100 random scenarios)")


def test_criterion_05_core_detection(g3, g3_prime):
    ok_prime = not core_nonempty(g3_prime).nonempty
    g3_result = core_nonempty(g3)
    ok_g3 = g3_result.nonempty and core_constraints_hold(g3, g3_result.witness)
    rng = random.Random(505)
    agree = True
    for _ in range(50):
        game = random_game(rng, rng.randint(2, 4))
        lp = core_nonempty(game)
        enum = core_nonempty_by_enumeration(game)
        agree = agree and lp.nonempty == enum.nonempty
        if lp.nonempty:
            agree = agree and core_constraints_hold(game, lp.witness)
    _report(5, "core detection: symmetric pair game empty, running example verified, "
               "LP agrees with vertex enumeration",
            ok_prime and ok_g3 and agree, " (50 random games, n <= 4)")


def test_criterion_06_incentive_synthesis_sound_and_minimal():
    rng = random.Random(606)
    sound = minimal = True
    positive_subsidies = 0
    for _ in range(100):
        n = rng.randint(3, 6)
        game = random_game(rng, n)
        target = frozenset(rng.sample(range(n), rng.randint(2, n)))
        rule, amount = synthesize_promotion(game, target)
        net = MCNet(n, ()) if rule is None else MCNet(n, (rule,))
        coordinated = CoordinatedGame(game, net)
        sound = sound and is_implementable(subgame(coordinated, target))
        if amount > 0:
            positive_subsidies += 1
            shaved = MCNetRule(rule.positive, rule.negative, amount * Fraction(999, 1000))
            nearly = CoordinatedGame(game, MCNet(n, (shaved,)))
            minimal = minimal and not is_implementable(subgame(nearly, target))
    _report(6, "synthesized subsidy makes the target implementable and is minimal",
            sound and minimal and positive_subsidies > 0,
            f" (100 games, n 3..6, {positive_subsidies} strictly positive subsidies)")


def test_criterion_07_worked_constant(g3):
    rule, amount = synthesize_promotion(g3, {0, 1, 2})
    coordinated = CoordinatedGame(g3, MCNet(3, (rule,)))
    phi = perm_shapley(3, coordinated.value)
    ok = (
        amount == Fraction(1, 2)
        and phi == (Fraction(9, 2), Fraction(11, 2), Fraction(5, 2))
        and net_shapley(coordinated.as_mcnet()) == phi
        and shapley(coordinated) == phi
    )
    _report(7, "running example: subsidy exactly 1/2, coordinated Shapley (9/2, 11/2, 5/2)", ok)


def test_criterion_08_mutual_exclusivity():
    rng = random.Random(808)
    ok = True
    for _ in range(50):
        n = rng.randint(4, 6)
        game = random_game(rng, n)
        ids = list(range(n))
        rng.shuffle(ids)
        cut = rng.randint(2, n - 2)
        a, b = frozenset(ids[:cut]), frozenset(ids[cut:])
        coordinated = CoordinatedGame(
            game, enforce_policy(game, Policy(promoted=[a, b]))
        )
        ok = ok and is_implementable(subgame(coordinated, a))
        ok = ok and is_implementable(subgame(coordinated, b))
    try:
        enforce_policy(random_game(random.Random(0), 3), Policy(promoted=[{0, 1}, {1, 2}]))
        rejected = False
    except SymbioError as e:
        rejected = "overlap" in str(e)
    _report(8, "disjoint promoted groups are simultaneously implementable; "
               "overlapping promotions are rejected", ok and rejected,
            " (50 games, n 4..6)")


def test_criterion_09_prohibition_contract():
    rng = random.Random(909)
    ok = True
    epsilon = Fraction(1)
    for _ in range(50):
        n = rng.randint(3, 6)
        game = random_game(rng, n, lo=0, hi=15)
        members = list(range(n))
        rng.shuffle(members)
        banned = frozenset(members[:2])
        labeled = {banned}
        promoted = []
        if n >= 4 and rng.random() < 0.5:
            promoted = [frozenset(members[2:])]
            labeled.add(promoted[0])
        policy = Policy(promoted=promoted, prohibited=[banned])
        coordinated = CoordinatedGame(game, enforce_policy(game, policy, epsilon))
        ok = ok and coordinated.value(banned) == -epsilon
        for group in coalitions(n):
            if group not in labeled:
                ok = ok and coordinated.value(group) == game.value(group)
    _report(9, "prohibited groups end at exactly -epsilon; unlabeled groups keep v(S)", ok,
            " (50 games)")


def test_criterion_10_cli_determinism(capsys):
    ok = True
    for golden, argv in [
        ("g3_analyze.txt", ["analyze", str(DATA / "g3.json")]),
        ("g3_enforce.txt", ["enforce", str(DATA / "g3.json")]),
        ("w_analyze.txt", ["analyze", str(DATA / "w.json")]),
        ("w_enforce.txt", ["enforce", str(DATA / "w.json")]),
    ]:
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        ok = ok and outputs[0] == outputs[1] == (GOLDEN / golden).read_text()
    with capsys.disabled():
        _report(10, "analyze/enforce outputs byte-identical to golden files", ok)
