import contextlib
import copy
import io
import json
import operator
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symbio
from symbio import cli, exchange, games, solutions
from symbio.cli import cmd_analyze, load_scenario, main
from symbio.errors import SymbioError
from symbio.games import ISNGame, check_superadditive, make_isn_game, members_of
from symbio.mcnets import MCNet, MCNetRule, from_isn_game, net_shapley
from symbio.solutions import in_core

from helpers import (
    balanced_weights_hold, bench_scenarios, fractions_made, metered, perm_shapley,
)

DATA = Path(__file__).parent / "data"
DATA_FILES = sorted(path.name for path in DATA.glob("*.json"))
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_load_g3_tables(g3):
    scenario = load_scenario(str(DATA / "g3.json"))
    assert scenario.agents == ("A", "B", "C")
    assert scenario.game == g3
    assert scenario.policy is not None
    assert scenario.source == "tables"


def test_load_w_exchange():
    scenario = load_scenario(str(DATA / "w.json"))
    assert scenario.game.n_agents == 2
    assert scenario.game.value({0, 1}) == 62
    assert scenario.source == "exchange"


def test_load_missing_file():
    with pytest.raises(SymbioError, match=r"cannot read .*absent\.json: "):
        load_scenario(str(DATA / "absent.json"))


def test_load_rejects_overlapping_promotions(tmp_path):
    doc = {
        "agents": ["A", "B", "C"],
        "tables": {"T": {"A,B": 1, "A,C": 1, "B,C": 1, "A,B,C": 1},
                   "O": {"A,B": 0, "A,C": 0, "B,C": 0, "A,B,C": 0}},
        "policy": {"promoted": [["A", "B"], ["B", "C"]]},
    }
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SymbioError, match=r"promoted groups overlap: \{A,B\} and \{B,C\}"):
        load_scenario(str(path))


def test_load_incomplete_tables(tmp_path):
    doc = {"agents": ["A", "B"], "tables": {"T": {}, "O": {}}}
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SymbioError, match=r"T table lacks coalition \{A,B\}"):
        load_scenario(str(path))


def test_load_parses_decimals_exactly(tmp_path):
    doc = {"agents": ["A", "B"], "tables": {"T": {"A,B": 0.1}, "O": {"A,B": "1/30"}}}
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    scenario = load_scenario(str(path))
    assert scenario.game.value({0, 1}) == Fraction(1, 10) - Fraction(1, 30)


def test_exit_code_validation_failure(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "error" in err


def test_exit_code_bound_exceeded(capsys, tmp_path):
    doc = {
        "agents": [f"F{i}" for i in range(17)],
        "exchange": {"streams": [], "transport": [], "transaction": []},
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert "bound" in err


def test_enforce_without_policy_fails(capsys, tmp_path):
    doc = {"agents": ["A", "B"], "tables": {"T": {"A,B": 1}, "O": {"A,B": 0}}}
    path = tmp_path / "nopolicy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "enforce", str(path))
    assert code == 2
    assert "no policy" in err


@pytest.mark.parametrize("command", ["analyze", "shapley", "core", "mcnet"])
def test_commands_run_clean(capsys, command):
    code, out, err = run(capsys, command, str(DATA / "g3.json"))
    assert code == 0
    assert err == ""
    assert out


@pytest.mark.parametrize(
    "name,argv",
    [
        ("g3_analyze.txt", ["analyze", "g3.json"]),
        ("g3_enforce.txt", ["enforce", "g3.json"]),
        ("w_analyze.txt", ["analyze", "w.json"]),
        ("w_enforce.txt", ["enforce", "w.json"]),
        *(
            (f"{data}_{command}.txt", [command, f"{data}.json"])
            for data in ("g3", "w")
            for command in ("shapley", "core", "mcnet")
        ),
        *(
            (f"{data}_{command}.json", [command, f"{data}.json", "--format", "json"])
            for data in ("g3", "w")
            for command in ("analyze", "enforce")
        ),
        # empty cores: one a split shows, one only the core LP finds
        *(
            (f"{data}_{command}.{ext}", [command, f"{data}.json", "--format", fmt])
            for data in ("g3_split", "g3_prime")
            for command in ("analyze", "core")
            for fmt, ext in (("text", "txt"), ("json", "json"))
        ),
        # an exchange whose routes share streams: a ranked demand list, a
        # route LP and a branch and bound that solves LPs
        *(
            (f"x4_{command}.txt", [command, "x4.json"])
            for command in ("analyze", "enforce", "shapley", "core", "mcnet")
        ),
        *(
            (f"x4_{command}.json", [command, "x4.json", "--format", "json"])
            for command in ("analyze", "enforce")
        ),
        # the rule entries, the grand coalition's empty negative list included
        *((f"{data}_mcnet.json", ["mcnet", f"{data}.json", "--format", "json"])
          for data in ("g3", "w", "x4")),
        *(
            (f"{data}_{command}.json", [command, f"{data}.json", "--format", "json"])
            for data in ("g3", "w", "x4")
            for command in ("shapley", "core")
        ),
    ],
)
def test_golden_outputs(capsys, name, argv):
    argv = argv[:1] + [str(DATA / argv[1])] + argv[2:]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert first == second  # byte-identical across runs
    assert first == (GOLDEN / name).read_text(encoding="utf-8")


def _game_from_report(report, key="values"):
    names = report["agents"]
    ids = {a: i for i, a in enumerate(names)}
    values = {
        frozenset(ids[a] for a in k.split(",")): Fraction(v)
        for k, v in report[key].items()
    }
    return ISNGame.from_values(len(names), values), names


def test_analyze_json_report_is_self_consistent(capsys):
    code, out, _ = run(capsys, "analyze", str(DATA / "g3.json"), "--format", "json")
    assert code == 0
    report = json.loads(out)
    game, names = _game_from_report(report)
    shapley = tuple(Fraction(report["shapley"][a]) for a in names)
    assert sum(shapley) == game.value(frozenset(range(len(names))))
    assert report["implementable"] == in_core(game, shapley)
    if report["core"]["nonempty"]:
        witness = tuple(Fraction(report["core"]["witness"][a]) for a in names)
        assert in_core(game, witness)


def test_enforce_json_report_is_self_consistent(capsys):
    code, out, _ = run(capsys, "enforce", str(DATA / "g3.json"), "--format", "json")
    assert code == 0
    report = json.loads(out)
    coordinated, names = _game_from_report(report, key="coordinated_values")
    shapley = net_shapley(from_isn_game(coordinated))
    assert list(map(str, shapley)) == [report["coordinated_shapley"][a] for a in names]
    for verdict in report["group_verdicts"]:
        ids = {a: i for i, a in enumerate(names)}
        members = frozenset(ids[a] for a in verdict["group"].split(","))
        if verdict["label"] == "prohibited":
            assert (coordinated.value(members) < 0) == verdict["blocked"]
            assert str(coordinated.value(members)) == verdict["coordinated_value"]


def test_epsilon_flag(capsys, tmp_path):
    doc = {
        "agents": ["A", "B"],
        "tables": {"T": {"A,B": 10}, "O": {"A,B": 0}},
        "policy": {"prohibited": [["A", "B"]]},
    }
    path = tmp_path / "ban.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "enforce", str(path), "--epsilon", "1/2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["incentive_rules"][0]["value"] == "-21/2"
    assert report["group_verdicts"][0]["coordinated_value"] == "-1/2"


@pytest.mark.parametrize("epsilon,rule,subsidy,blocked", [
    ("1/2", "  pos={A,B} neg={C} value=1/2\n", "9/2", "-1/2"),
    ("1", None, "4", "-1"),
])
def test_enforce_prohibits_a_group_already_below_the_margin(capsys, tmp_path, epsilon, rule,
                                                            subsidy, blocked):
    """Every pair is worth -1 and the grand coalition -4. A prohibited {A,B}
    worth less than -epsilon gets a positive rule that lifts it to -epsilon,
    and one already at -epsilon gets no rule; either way the promoted
    group's subsidy is its own rule's value, whatever the sign of the
    prohibition's."""
    doc = {
        "agents": ["A", "B", "C"],
        "tables": {"T": {"A,B": 0, "A,C": 0, "B,C": 0, "A,B,C": 0},
                   "O": {"A,B": 1, "A,C": 1, "B,C": 1, "A,B,C": 4}},
        "policy": {"promoted": [["A", "B", "C"]], "prohibited": [["A", "B"]]},
    }
    code, out, _ = run(capsys, "enforce", _write(tmp_path, doc), "--epsilon", epsilon)
    assert code == 0
    assert (rule in out) if rule else ("pos={A,B}" not in out)
    assert f"  promoted {{A,B,C}}: implementable (subsidy {subsidy})\n" in out
    assert f"  prohibited {{A,B}}: blocked (coordinated value {blocked})\n" in out


#: Merging {A,B} with {C} loses value.
NONSUPERADDITIVE = {
    "agents": ["A", "B", "C"],
    "tables": {
        "T": {"A,B": 5, "A,C": 0, "B,C": 0, "A,B,C": 3},
        "O": {"A,B": 0, "A,C": 0, "B,C": 0, "A,B,C": 0},
    },
}


def test_analyze_reports_superadditivity_violation(capsys, tmp_path):
    path = tmp_path / "nonsuper.json"
    path.write_text(json.dumps(NONSUPERADDITIVE), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0  # a warning, not an error
    assert "superadditive: no" in out
    assert "warning" in err and "not superadditive" in err
    code, out, _ = run(capsys, "shapley", str(path))
    assert code == 0  # every command warns on stderr, output unaffected
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    report = json.loads(out)
    assert report["superadditive"] is False
    assert report["superadditive_counterexample"] == ["A,B", "C"]


def test_analyze_scans_superadditivity_once(capsys, monkeypatch, tmp_path):
    calls = []

    def counting(game):
        calls.append(game)
        return check_superadditive(game)

    monkeypatch.setattr(cli, "check_superadditive", counting)
    path = tmp_path / "nonsuper.json"
    path.write_text(json.dumps(NONSUPERADDITIVE), encoding="utf-8")
    for argv in (
        ["analyze", str(DATA / "g3.json")],
        ["analyze", str(path)],
        ["analyze", str(path), "--format", "json"],
    ):
        calls.clear()
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert len(calls) == 1
    assert err == "warning: game is not superadditive: merging {A,B} and {C} loses value\n"


def test_analyze_and_enforce_skip_the_mcnet_detour(capsys, monkeypatch):
    calls = []
    for name in ("from_isn_game", "net_shapley"):
        original = getattr(symbio.mcnets, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in (symbio, symbio.mcnets, symbio.cli, symbio.coordination):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    for argv in (["analyze", "g3.json"], ["enforce", "g3.json"], ["analyze", "w.json"],
                 ["enforce", "w.json"], ["shapley", "g3.json"]):
        code, _, _ = run(capsys, argv[0], str(DATA / argv[1]))
        assert code == 0
    assert calls == []
    run(capsys, "mcnet", str(DATA / "g3.json"))
    assert calls == ["from_isn_game"]  # the spies are in place


#: Runs cli.main in a child process and prints its own duration, so that a
#: hang inside a C-level big-number operation ends in a timeout, not a stuck
#: test run.
TIMED_MAIN = """
import sys, time
from symbio.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""

HUGE_EXPONENT = "1e999999999"
TABLES_DOC = ('{"agents": ["A", "B"], "tables": {"T": {"A,B": %s}, "O": {"A,B": 0}},'
              ' "policy": {"prohibited": [["A", "B"]]}}')
EXCHANGE_DOC = ('{"agents": ["F0", "F1"], "exchange": {"streams": [{"firm": "F0",'
                ' "kind": "offer", "resource": "slag", "quantity": %s,'
                ' "unit_discharge_cost": 5}]}, "policy": {"prohibited": [["F0", "F1"]]}}')


@pytest.mark.parametrize(
    "doc,value,extra,message",
    [
        (TABLES_DOC, f'"{HUGE_EXPONENT}"', [], None),  # quoted
        (TABLES_DOC, HUGE_EXPONENT, [], None),  # raw JSON number, read by parse_float
        (TABLES_DOC, "1" + "0" * 4999, [], None),  # JSON integer past Python's digit limit
        (TABLES_DOC, "1" + "0" * 1999, [],  # JSON integer within it, past MAX_DIGITS
         "error: tables.T['A,B']: number has more than 1000 digits\n"),
        (EXCHANGE_DOC, "1" + "0" * 1999, [],
         "error: exchange.streams[0].quantity: number has more than 1000 digits\n"),
        (TABLES_DOC, "10", ["--epsilon", HUGE_EXPONENT], None),
    ],
    ids=["quoted", "raw", "long-int", "raw-2000-digits", "exchange-quantity", "epsilon"],
)
def test_oversized_numbers_exit_2_quickly(tmp_path, doc, value, extra, message):
    path = tmp_path / "huge.json"
    path.write_text(doc % value, encoding="utf-8")
    env = {"PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, "enforce", str(path), *extra],
        capture_output=True, encoding="utf-8", timeout=10, env=env,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert message is None or done.stderr == message
    assert float(done.stdout) < 1


BOUND_MESSAGE = "error: bound exceeded: dense coalition table supports at most 16 agents\n"


@pytest.mark.parametrize(
    "n_agents,t_table,code,message",
    [
        (17, {}, 3, BOUND_MESSAGE),
        (40, {}, 3, BOUND_MESSAGE),
        (40, {"F0,F1": 1}, 3, BOUND_MESSAGE),
        # the agent count is checked before any key or value is read
        (40, {"F1,F0": 1, "F2,F2": 1}, 3, BOUND_MESSAGE),
    ],
    ids=["17-agents", "40-agents", "40-agents-one-key", "40-agents-bad-key"],
)
def test_tables_past_the_bound_exit_quickly(tmp_path, n_agents, t_table, code, message):
    doc = {"agents": [f"F{i}" for i in range(n_agents)], "tables": {"T": t_table, "O": {}}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = {"PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, "analyze", str(path)],
        capture_output=True, encoding="utf-8", timeout=10, env=env,
    )
    assert done.returncode == code
    assert done.stderr == message
    assert float(done.stdout) < 1


def test_wide_roster_exits_3_before_its_policy_is_read(tmp_path):
    """A roster of 100,000 names exits 3 before a bitmask is made for each
    name (about n^2 / 16 bytes: 625 MB here) and before its 10,000
    promoted pairs are checked for overlaps."""
    names = [f"F{i}" for i in range(100_000)]
    doc = {"agents": names, "tables": {"T": {}, "O": {}},
           "policy": {"promoted": [names[k:k + 2] for k in range(0, 20_000, 2)]}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = {"PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", SIZED_MAIN, "enforce", str(path)],
        capture_output=True, encoding="utf-8", timeout=20, env=env,
    )
    assert done.returncode == 3
    assert done.stderr == BOUND_MESSAGE
    seconds, rss_kib = done.stdout.split()
    assert float(seconds) < 1 and int(rss_kib) < 100 * 1024


def dense5_file(tmp_path):
    """Every firm offers and demands steam: 5 * 4 routes, 2^20 - 1 route
    subsets. Each direction of a pair ships 10 units saving 5 + 7 - 1 - 1
    a unit and pays a fee of 2."""
    names = [f"F{i}" for i in range(5)]
    pairs = [(a, b) for a in names for b in names if a != b]
    doc = {"agents": names, "exchange": {
        "streams": [s for f in names for s in (
            {"firm": f, "kind": "offer", "resource": "steam", "quantity": 10,
             "unit_discharge_cost": 5},
            {"firm": f, "kind": "demand", "resource": "steam", "quantity": 10,
             "unit_purchase_cost": 7, "unit_treatment_cost": 1})],
        "transport": [{"from": a, "to": b, "resource": "steam", "cost": 1} for a, b in pairs],
        "transaction": [{"from": a, "to": b, "cost": 2} for a, b in pairs],
    }}
    path = tmp_path / "dense5.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_too_many_routes_exit_3_quickly(tmp_path):
    # with a budget of 2^3 LPs the 20 routes cannot even be solved alone
    low_budget = "import symbio.exchange\nsymbio.exchange.ENUMERATION_BOUND = 3\n" + TIMED_MAIN
    env = {"PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", low_budget, "analyze", str(dense5_file(tmp_path))],
        capture_output=True, encoding="utf-8", timeout=10, env=env,
    )
    assert done.returncode == 3
    assert done.stderr.startswith("error: bound exceeded: ")
    assert "budget of 8 LPs" in done.stderr
    assert "Traceback" not in done.stderr
    assert float(done.stdout) < 1


def test_dense_five_firms_finish(tmp_path):
    env = {"PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "symbio.cli", "analyze", str(dense5_file(tmp_path)),
         "--format", "json"],
        capture_output=True, encoding="utf-8", timeout=10, env=env,
    )
    assert done.returncode == 0, done.stderr
    values = {frozenset(key.split(",")): Fraction(v)
              for key, v in json.loads(done.stdout)["values"].items()}
    assert len(values) == 2**5 - 5 - 1
    for pair, value in values.items():
        if len(pair) == 2:
            assert value == 2 * (10 * (5 + 7 - 1 - 1) - 2)
    for a in values:
        for b in values:
            if not a & b and a | b in values:
                assert values[a | b] >= values[a] + values[b]


def table_file(tmp_path, names, value_of, policy=None):
    """A tables scenario with T(S) = value_of(mask) and O(S) = 0 for every S
    of two or more agents (mask: bits of S in roster order)."""
    t = {}
    for mask in range(1 << len(names)):
        if mask.bit_count() >= 2:
            t[",".join(n for i, n in enumerate(names) if mask >> i & 1)] = value_of(mask)
    doc = {"agents": names, "tables": {"T": t, "O": dict.fromkeys(t, 0)}}
    if policy:
        doc["policy"] = policy
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


#: TIMED_MAIN that also prints the child's peak resident memory in KiB.
SIZED_MAIN = TIMED_MAIN.replace(
    "print(time.perf_counter() - start)",
    "import resource\n"
    "print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)",
)


def test_many_long_denominators_exit_3_quickly(tmp_path):
    # 9 agents, each value 1/q over its own 999-digit q: about 160 of them
    # already take the lcm past 2^28 / 2^9 bits
    path = table_file(tmp_path, [f"F{i}" for i in range(9)], lambda mask: f"1/{10**998 + mask}")
    env = {"PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", SIZED_MAIN, "analyze", str(path)],
        capture_output=True, encoding="utf-8", timeout=20, env=env,
    )
    assert done.returncode == 3
    assert done.stderr.startswith("error: bound exceeded: the common denominator of 512 values")
    assert "Traceback" not in done.stderr
    seconds, rss_kib = done.stdout.split()
    assert float(seconds) < 2 and int(rss_kib) < 200 * 1024


def test_long_denominators_within_the_budget(capsys, tmp_path):
    names = ["A", "B", "C"]
    value_of = {mask: f"{mask}/{10**998 + 3 * mask}" for mask in (3, 5, 6, 7)}  # 1000 digits
    code, out, err = run(capsys, "analyze", str(table_file(tmp_path, names, value_of.get)),
                         "--format", "json")
    assert code == 0 and not err
    expected = perm_shapley(3, lambda s: Fraction(value_of[sum(1 << i for i in s)])
                            if len(s) >= 2 else Fraction(0))
    assert json.loads(out)["shapley"] == {n: str(v) for n, v in zip(names, expected)}
    assert len(json.loads(out)["shapley"]["A"]) > 2000


def digit_limited_file(tmp_path):
    """4 agents, T(S) = s^2 + 1/q for the k-th coalition S of two or more
    (masks ascending), s = |S| and q = 10^399 + 2k + 1, and O all 0: a 9 KB
    file within every documented bound, whose Shapley values each take about
    8,800 characters to write, past the interpreter's default limit of 4,300
    digits an int."""
    coalitions = [m for m in range(16) if m.bit_count() >= 2]
    terms = {m: (m.bit_count() ** 2, 10**399 + 2 * k + 1) for k, m in enumerate(coalitions)}
    return table_file(tmp_path, list("ABCD"),
                      lambda mask: f"{terms[mask][0] * terms[mask][1] + 1}/{terms[mask][1]}")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter writes ints of any length")
@pytest.mark.parametrize("command", ["shapley", "analyze"])
def test_a_number_too_long_to_print_exits_3(tmp_path, command):
    """A report number longer than the interpreter writes is a bound, not a
    traceback: exit 3 at once, nothing on stdout but the child's time. With
    the limit lifted the report prints, and the Shapley values sum to v(N)."""
    path = digit_limited_file(tmp_path)
    env = {"PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, command, str(path)],
        capture_output=True, encoding="utf-8", timeout=20, env=env,
    )
    assert done.returncode == 3, done.stderr
    assert done.stderr == ("error: bound exceeded: a reported number has more than 4300 digits, "
                           "the interpreter's limit for writing an int "
                           "(PYTHONINTMAXSTRDIGITS=0 lifts it)\n")
    assert float(done.stdout) < 1
    done = subprocess.run(
        [sys.executable, "-m", "symbio.cli", command, str(path), "--format", "json"],
        capture_output=True, encoding="utf-8", timeout=20,
        env={**env, "PYTHONINTMAXSTRDIGITS": "0"},
    )
    assert done.returncode == 0 and not done.stderr
    shares = json.loads(done.stdout)["shapley"].values()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        total = sum(map(Fraction, shares))
    finally:
        sys.set_int_max_str_digits(limit)
    assert min(map(len, shares)) > 8000
    assert total == 16 + Fraction(1, 10**399 + 21)


def exchange_file(tmp_path, offers, demands, haul=1):
    """Two firms: F0 offers one stream of each resource in offers and F1
    demands one of each in demands, 5 units saving 3 + 4 - 1 - haul a unit,
    with a fee of 1 each way. An offer given as a (resource, cost) pair has
    that discharge cost in place of 3."""
    offers = [r if type(r) is tuple else (r, 3) for r in offers]
    streams = [{"firm": "F0", "kind": "offer", "resource": r, "quantity": 5,
                "unit_discharge_cost": cost} for r, cost in offers]
    streams += [{"firm": "F1", "kind": "demand", "resource": r, "quantity": 5,
                 "unit_purchase_cost": 4, "unit_treatment_cost": 1} for r in demands]
    doc = {"agents": ["F0", "F1"], "exchange": {
        "streams": streams,
        "transport": [{"from": "F0", "to": "F1", "resource": r, "cost": haul}
                      for r in sorted({r for r, _ in offers} & set(demands))],
        "transaction": [{"from": "F0", "to": "F1", "cost": 1}],
    }}
    path = tmp_path / "exchange.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("offers,demands,row", [
    # 256 profitable pairs, one route solved in one LP: 80 units at 5 a unit, less the fee
    (["r"] * 16, ["r"] * 16, "  F0,F1 = 399"),
    (["r"] * 16 + ["s"], ["r"] * 16 + ["s"], None),  # 257
    (["r"] * 80, ["r"] * 80, None),  # 6,400: a 6,400-column LP, so no answer for minutes
    ([f"r{i}" for i in range(4000)], [f"s{i}" for i in range(4000)], "  F0,F1 = 0"),  # no pair
    # 1,000 pairs, each offer's discharge cost over its own 495-digit denominator (1.08 MB):
    # the lcm of their link costs has 1.63 million bits, so the bound comes before any scale
    ([("r", f"{3 * 10**494 + k}/{10**494 + k}") for k in range(1000)], ["r"], None),
])
def test_exchange_pair_bound_and_linear_scan(tmp_path, offers, demands, row):
    """An exchange takes at most 256 profitable (offer, demand) stream pairs
    and raises BoundExceeded past them before any LP or any scale is taken;
    finding the pairs does not compare every offer with every stream."""
    check_timed_exchange(exchange_file(tmp_path, offers, demands), row)


@pytest.mark.parametrize("haul,row", [
    (10, "  F0,F1 = 0"),  # no pair saves: 3 + 4 - 1 - 10 a unit
    (1, None),  # every pair saves, and the bound is met at the first offer's demands
])
def test_exchange_pair_scan_skips_pairs_that_do_not_save(capsys, monkeypatch, tmp_path, haul,
                                                         row):
    """1,000 offers and 1,000 demands of one resource: 10^6 compatible pairs,
    of which only those that save are walked, so either way the answer takes
    well under a second. Counted in process, the scan bisects each of the
    1,000 links' demands once and solves no LP: with no pair saving there
    is no route, and past the pair bound the run stops before any LP."""
    path = exchange_file(tmp_path, ["r"] * 1000, ["r"] * 1000, haul)
    check_timed_exchange(path, row)
    calls = {"bisect_right": 0, "solve_lp": 0}
    for name in calls:
        def spy(*args, real=getattr(exchange, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(exchange, name, spy)
    code, _, _ = run(capsys, "analyze", str(path))
    assert code == (0 if row else 3) and calls == {"bisect_right": 1000, "solve_lp": 0}


def check_timed_exchange(path, row):
    """`symbio analyze` on path in a fresh interpreter: row in its report, or
    with row None exit 3 at the pair bound; either way in under 1 s."""
    env = {"PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, "analyze", str(path)],
        capture_output=True, encoding="utf-8", timeout=20, env=env,
    )
    *report, seconds = done.stdout.splitlines()
    if row is None:
        assert done.returncode == 3 and not report and done.stderr == (
            "error: bound exceeded: the exchange has more than 256 profitable "
            "(offer, demand) stream pairs\n")
    else:
        assert done.returncode == 0 and not done.stderr and row in report
    assert float(seconds) < 1


def test_long_denominators_that_cancel_in_t_minus_o(capsys, tmp_path):
    """Each T(S) and O(S) share a 489-digit denominator of their own, which
    cancels in T(S) - O(S). Unreduced, the 502 denominators (lcm about
    800,000 bits) would take the 9-agent table past games.SCALED_BITS (2^19
    bits each for 512 values); reduced per coalition, every value is an int
    and the file reads like the one written in lowest terms, at gcd and lcm
    work (helpers.metered) of a few times the 1,622 bits of a denominator
    per value."""
    names = [f"F{i}" for i in range(9)]
    worth = {mask: mask.bit_count() - 2 * (mask & 1) for mask in range(1 << 9)}
    reduced = table_file(tmp_path, names, worth.get)
    doc = json.loads(reduced.read_text(encoding="utf-8"))
    for key in doc["tables"]["T"]:
        mask = sum(1 << names.index(name) for name in key.split(","))
        q = 10**488 + mask
        if mask % 2:  # O written over 2q, not in lowest terms
            doc["tables"]["T"][key] = f"{worth[mask] * q + mask}/{q}"
            doc["tables"]["O"][key] = f"{2 * mask}/{2 * q}"
        else:
            doc["tables"]["T"][key] = f"{worth[mask] * q - 7}/{q}"
            doc["tables"]["O"][key] = f"-7/{q}"
    cancelling = tmp_path / "cancelling.json"
    cancelling.write_text(json.dumps(doc), encoding="utf-8")
    reports, works = [], []
    for path in reduced, cancelling:
        with metered() as work:
            reports.append(run(capsys, "analyze", str(path)))
        works.append(work)
    assert reports[0][0] == 0 and reports[0] == reports[1]
    assert load_scenario(str(cancelling)).game.denominator == 1
    assert works[1].bits <= 8 * (1 << 9) * (10**488).bit_length()
    assert works[1].pivots == works[0].pivots
    assert len(works[1].fractions) == len(works[0].fractions)


def benchmark_halves_file(tmp_path, n):
    """An enforce file shaped like the benchmark's: a pairwise-synergy game
    in twelfths, T(S) the members' standalone costs (ints), O(S) = T(S) -
    v(S) as "a/b" text, two promoted halves, and two prohibited pairs, one
    inside the first half and one across the halves."""
    names = [chr(ord("A") + i) for i in range(n)]
    cost = [300 + 37 * i for i in range(n)]
    w = [[(5 * i + 7 * j) % 23 + 1 for j in range(n)] for i in range(n)]  # in twelfths
    t, o = {}, {}
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if len(members) >= 2:
            key = ",".join(names[i] for i in members)
            t[key] = sum(cost[i] for i in members)
            v = Fraction(sum(w[i][j] for k, i in enumerate(members) for j in members[k + 1:]), 12)
            o[key] = str(t[key] - v)
    half = n // 2
    policy = {"promoted": [names[:half], names[half:]],
              "prohibited": [[names[0], names[2]], [names[1], names[half + 1]]]}
    path = tmp_path / "halves.json"
    path.write_text(json.dumps({"agents": names, "tables": {"T": t, "O": o}, "policy": policy}),
                    encoding="utf-8")
    return path


def test_enforce_makes_no_fraction_per_coalition(capsys, monkeypatch, tmp_path):
    """symbio enforce on a 10-agent tables file builds each game's ints once:
    it scales one 2^n table, the file's, and no allocation, and makes at most
    11 Fractions, a few per policy group and none per coalition or share.
    symbio analyze makes at most n, one per share of the core witness: the
    core LP's point, the Shapley shares and the implementable check stay
    ints."""
    n = 10
    path = benchmark_halves_file(tmp_path, n)
    scaled_sizes = []
    original_scaled = symbio.games._scaled

    def counting_scaled(nums, dens):
        scaled_sizes.append(len(nums))
        return original_scaled(nums, dens)

    monkeypatch.setattr(symbio.games, "_scaled", counting_scaled)
    with fractions_made() as made:
        code, out, err = run(capsys, "enforce", str(path), "--epsilon", "1/2")
    assert code == 0 and not err
    assert "coordinated values:" in out and "promoted {A,B,C,D,E}: implementable" in out
    assert 0 < len(made) <= 11
    assert scaled_sizes == [1 << n]
    # the value rows, printed from the ints, read as each T(S) - O(S) in lowest terms
    with fractions_made() as made:
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    tables = json.loads(path.read_text(encoding="utf-8"))["tables"]
    assert code == 0 and json.loads(out)["values"] == {
        key: str(t - Fraction(tables["O"][key])) for key, t in tables["T"].items()}
    assert json.loads(out)["implementable"] and 0 < len(made) <= n


def test_rule_reports_read_the_terms(capsys, monkeypatch, tmp_path):
    """symbio mcnet and symbio enforce on a 10-agent tables file write their
    rules straight from the nets' terms: no MCNetRule, no MCNet.__init__ (the
    incentive net is written as exact-group terms), no read of a net's
    `rules` view and no Fraction per rule (none at all for mcnet).
    from_isn_game calls neither coalition nor members_of: masks below 1 << n
    are ids on the roster."""
    n = 10
    path = benchmark_halves_file(tmp_path, n)
    calls = dict.fromkeys(("coalition", "members_of", "MCNetRule", "MCNet", "rules"), 0)

    def spy(name, real):
        def counting(*args):
            calls[name] += 1
            return real(*args)
        return counting

    for module in games, symbio.mcnets:
        for name in ("coalition", "members_of"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(games, name)))
    monkeypatch.setattr(MCNetRule, "__init__", spy("MCNetRule", MCNetRule.__init__))
    monkeypatch.setattr(MCNet, "__init__", spy("MCNet", MCNet.__init__))
    monkeypatch.setattr(MCNet, "rules", property(spy("rules", MCNet.__dict__["rules"].func)))
    game = load_scenario(str(path)).game
    calls.update(coalition=0, members_of=0)
    assert len(from_isn_game(game).terms) == (1 << n) - n - 1
    assert calls == dict.fromkeys(calls, 0)
    for fmt in "text", "json":
        with fractions_made() as made:
            code, out, err = run(capsys, "mcnet", str(path), "--format", fmt)
        assert code == 0 and not err and made == []
    assert calls["MCNetRule"] == calls["MCNet"] == calls["rules"] == 0
    with fractions_made() as made:
        code, out, err = run(capsys, "enforce", str(path), "--format", "json")
    assert code == 0 and not err and 0 < len(made) <= 11
    # incentive rules are reported, and none was built as an object or a net
    assert len(json.loads(out)["incentive_rules"]) > 0
    assert calls["MCNetRule"] == calls["MCNet"] == calls["rules"] == 0


def test_shapley_makes_no_fraction(capsys, tmp_path):
    """symbio shapley prints each share and the total from the ints over
    n! d, making no Fraction at all."""
    path = benchmark_halves_file(tmp_path, 10)
    with fractions_made() as made:
        code, out, err = run(capsys, "shapley", str(path))
    assert code == 0 and not err and made == []
    game = load_scenario(str(path)).game
    assert out.splitlines()[-1] == f"total: {game.value(range(10))}"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter writes ints of any length")
def test_shapley_too_long_to_print_makes_no_fraction(capsys, tmp_path):
    """8 agents whose 247 values each have their own 480-digit denominator:
    the first share is too long to print, and symbio shapley exits 3 having
    made no Fraction: no share is reduced before the printer stops at the
    first. Its gcd and lcm work (helpers.metered) stays within 4 d^2 for the
    table's d of about 391,600 bits: the lcm fold, the one reduction of the
    table, which costs about one gcd of d with the table's sum, and the
    printer's gcd. A reduction chained over the entries from d takes about
    43 d^2."""
    path = long_denominator_file(tmp_path)
    d = load_scenario(str(path)).game.denominator
    with metered() as work:
        code, out, err = run(capsys, "shapley", str(path))
    assert code == 3 and not out and work.fractions == []
    assert err.endswith(too_long_to_print())
    assert work.bits <= 4 * d.bit_length() ** 2


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter writes ints of any length")
def test_analyze_too_long_to_print_stops_at_the_shares(capsys, tmp_path):
    """symbio analyze on the file of the test above writes the Shapley
    shares before the core verdict and the value rows, so it exits 3 at the
    first share, having run no core LP, printed no value row and made no
    Fraction: within 3 d^2 of gcd and lcm work (the lcm fold, the table's
    one reduction and the printer's gcd), against about 3.5 d^2 when every
    value row is printed first."""
    path = long_denominator_file(tmp_path)
    d = load_scenario(str(path)).game.denominator
    with metered() as work:
        code, out, err = run(capsys, "analyze", str(path))
    assert code == 3 and not out and err.endswith(too_long_to_print())
    assert work.bits <= 3 * d.bit_length() ** 2
    assert work.pivots == 0 and work.fractions == []


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter writes ints of any length")
def test_enforce_too_long_to_print_reduces_each_table_once(capsys, tmp_path):
    """symbio enforce on the file of the test above, F0-F3 promoted and F4,F5
    prohibited, reduces five tables (the game's, the taxed game's and the
    coordinated game's, and the promoted group's subgame of the last two)
    at about one gcd of d each, and stays within 12 d^2 of gcd and lcm
    work, against about 127 d^2 when each reduction chains over the entries
    from d. It runs no LP and makes a few Fractions, none per coalition."""
    policy = {"promoted": [["F0", "F1", "F2", "F3"]], "prohibited": [["F4", "F5"]]}
    path = long_denominator_file(tmp_path, policy)
    d = load_scenario(str(path)).game.denominator
    with metered() as work:
        code, out, err = run(capsys, "enforce", str(path))
    assert code == 3 and not out and err.endswith(too_long_to_print())
    assert work.bits <= 12 * d.bit_length() ** 2
    assert work.pivots == 0 and len(work.fractions) <= 8


def long_denominator_file(tmp_path, policy=None):
    """8 agents, each of the 247 values 1/(10^479 + mask), O all 0 (128 KB)."""
    return table_file(tmp_path, [f"F{i}" for i in range(8)], lambda mask: f"1/{10**479 + mask}",
                      policy)


def too_long_to_print() -> str:
    """The error that ends a run whose report holds a number too long to print."""
    return ("error: bound exceeded: a reported number has more than "
            f"{sys.get_int_max_str_digits()} digits, the interpreter's limit "
            "for writing an int (PYTHONINTMAXSTRDIGITS=0 lifts it)\n")


def _sixteen_agent_game():
    """(names, w, v): 16 agents, pair synergies w_ij in quarters and the
    pairwise game v(S) = sum of w_ij over pairs in S, in quarters, per mask."""
    n = 16
    names = [chr(ord("A") + i) for i in range(n)]
    quarters = [[(7 * min(i, j) + 3 * max(i, j)) % 11 + 1 if i != j else 0 for j in range(n)]
                for i in range(n)]
    value = [0] * (1 << n)
    for mask in range(1, 1 << n):
        i = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        value[mask] = value[rest] + sum(quarters[i][j] for j in range(i + 1, n) if rest >> j & 1)
    return names, quarters, value


@pytest.mark.slow
def test_sixteen_agents_empty_core_answers_without_an_lp(capsys, monkeypatch, tmp_path):
    """The pairwise game at the 16-agent bound with the grand coalition
    lowered to one below v(N - {A}): the split {N - {A}, {A}} shows the
    core empty, so symbio analyze and symbio core answer with no LP, and
    the weights of a split hold."""
    names, _, value = _sixteen_agent_game()
    full = (1 << 16) - 1
    value[full] = value[full - 1] - 4
    path = table_file(tmp_path, names, lambda mask: f"{value[mask]}/4")
    solves = []
    solve = solutions.solve_lp
    monkeypatch.setattr(solutions, "solve_lp", lambda *a, **kw: solves.append(a) or solve(*a, **kw))
    for command in "analyze", "core":
        code, out, _ = run(capsys, command, str(path))
        assert code == 0 and "core: empty" in out.splitlines()
    game = load_scenario(str(path)).game
    weights = solutions.core_nonempty(game).weights
    assert solves == []
    (s, one), (rest, other) = weights  # the split worth most, not always A's
    assert (one, other) == (1, 1) and s | rest == frozenset(range(16)) and not s & rest
    assert balanced_weights_hold(16, game.value, weights)


@pytest.mark.slow
def test_sixteen_agents_shapley_and_enforce(tmp_path):
    """The pairwise synergy game v(S) = sum of w_ij over pairs in S at the
    16-agent bound: phi_i = sum_j w_ij / 2, the game is convex, so both
    promoted halves are implementable, and each prohibited pair is taxed to
    -epsilon."""
    n = 16
    names, quarters, value = _sixteen_agent_game()
    policy = {"promoted": [names[:8], names[8:]], "prohibited": [["A", "B"], ["A", "P"]]}
    path = table_file(tmp_path, names, lambda mask: f"{value[mask]}/4", policy)
    env = {"PYTHONPATH": str(Path(cli.__file__).parents[1])}
    reports = {}
    for command, extra in ("shapley", []), ("enforce", ["--epsilon", "1/2"]):
        done = subprocess.run(
            [sys.executable, "-m", "symbio.cli", command, str(path), "--format", "json", *extra],
            capture_output=True, encoding="utf-8", timeout=60, env=env,
        )
        assert done.returncode == 0 and not done.stderr
        reports[command] = json.loads(done.stdout)
    phi = {names[i]: str(Fraction(sum(quarters[i]), 8)) for i in range(n)}
    assert reports["shapley"]["shapley"] == phi
    verdicts = reports["enforce"]["group_verdicts"]
    assert [v["implementable"] for v in verdicts if v["label"] == "promoted"] == [True, True]
    assert [(v["blocked"], v["coordinated_value"])
            for v in verdicts if v["label"] == "prohibited"] == [(True, "-1/2")] * 2


@pytest.mark.parametrize(
    "value,field",
    [('"abc"', "tables.T['A,B']"), ('"1/0"', "tables.T['A,B']"), ("true", "tables.T['A,B']"),
     ("null", "tables.T['A,B']"), ("[1]", "tables.T['A,B']")],
)
def test_bad_numbers_name_their_field(capsys, tmp_path, value, field):
    path = tmp_path / "bad.json"
    path.write_text('{"agents": ["A", "B"], "tables": {"T": {"A,B": %s}, "O": {"A,B": 0}}}' % value,
                    encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}: ")


def test_deeply_nested_file_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err.startswith("error: ") and "recursion" in err


def test_bad_epsilon_exits_2(capsys):
    """g3 prohibits nothing, so only the flag check itself can reject an
    epsilon <= 0; it runs before the file is read, so it wins over a file
    that is absent."""
    cases = [("half", "'half' is not a number"), ("0", "must be > 0"), ("-1/2", "must be > 0")]
    for epsilon, message in cases:
        for path in DATA / "g3.json", DATA / "absent.json":
            code, out, err = run(capsys, "enforce", str(path), f"--epsilon={epsilon}")
            assert (code, out) == (2, "")
            assert err == f"error: --epsilon: {message}\n"


def test_zero_denominator_is_named(capsys, tmp_path):
    for zero in "1/0", "1/00":
        code, out, err = run(capsys, "enforce", str(DATA / "g3.json"), "--epsilon", zero)
        assert (code, out) == (2, "")
        assert err == f"error: --epsilon: '{zero}' has a zero denominator\n"
        path = tmp_path / "zero.json"
        path.write_text('{"agents": ["A", "B"], "tables": {"T": {"A,B": "%s"},'
                        ' "O": {"A,B": 0}}}' % zero, encoding="utf-8")
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: tables.T['A,B']: '{zero}' has a zero denominator\n"


def test_shared_parser_keeps_no_state(capsys):
    """main builds its parser once per process; each call still parses its
    own argv, defaults included, as a fresh parser would."""
    g3 = str(DATA / "g3.json")
    calls = [["enforce", g3, "--epsilon", "1/2"], ["enforce", g3],
             ["analyze", g3, "--format", "json"], ["analyze", g3]]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    code, out, _ = fresh[1]
    assert code == 0 and "epsilon: 1\n" in out
    shared = [run(capsys, *argv) for argv in calls]
    assert shared == fresh
    assert cli.build_parser() is cli.build_parser()


def test_report_dict_pipeline_known_values():
    scenario = load_scenario(str(DATA / "g3.json"))
    report = cmd_analyze(scenario, check_superadditive(scenario.game))
    assert report["shapley"] == {"A": "13/3", "B": "16/3", "C": "7/3"}
    assert report["implementable"] is False
    scenario_w = load_scenario(str(DATA / "w.json"))
    report_w = cmd_analyze(scenario_w, check_superadditive(scenario_w.game))
    assert report_w["shapley"] == {"F0": "31", "F1": "31"}
    assert report_w["implementable"] is True


def _write(tmp_path, doc) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return str(path)


def _data(name) -> dict:
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def test_repeated_json_key_exits_2(capsys, tmp_path):
    path = _write(tmp_path, '{"agents": ["A", "B"], "tables": {"T": {"A,B": 3, "A,B": 4},'
                            ' "O": {"A,B": 0}}}')
    code, out, err = run(capsys, "analyze", path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: key 'A,B' given twice in one object\n"


def test_coalition_spelled_twice_exits_2(capsys, tmp_path):
    doc = _data("g3.json")
    doc["tables"]["O"]["B,A"] = 0
    code, out, err = run(capsys, "analyze", _write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == "error: O table lists coalition {A,B} twice\n"


@pytest.mark.parametrize("table,key,value,message", [
    ("T", "A,C", None, "T table lacks coalition {A,C}"),  # None drops the key
    ("O", "C", 1, "O table keys need two or more members, got {C}"),
    ("T", "", 1, "tables.T['']: unknown agent ''"),
    ("O", "A,B,", 1, "tables.O['A,B,']: unknown agent ''"),
    ("T", ",A,B", 1, "tables.T[',A,B']: unknown agent ''"),
])
def test_table_errors_name_agents_exit_2(capsys, tmp_path, table, key, value, message):
    doc = _data("g3.json")
    if value is None:
        del doc["tables"][table][key]
    else:
        doc["tables"][table][key] = value
    code, out, err = run(capsys, "analyze", _write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_shuffled_table_keys_load_like_make_isn_game(tmp_path_factory, seed, n):
    """Keys written in any member order ("C,A,B"), listed in any order,
    with ints, "a/b" strings (padded or unreduced too), decimal strings and
    raw JSON decimals, give make_isn_game's table, every entry a Fraction."""
    import random

    rng = random.Random(seed)
    names = [f"F{i}" for i in rng.sample(range(100), n)]
    tables, docs = ({}, {}), ({}, {})
    groups = [sorted(members_of(mask), key=lambda _: rng.random())
              for mask in range(1 << n) if mask.bit_count() >= 2]
    for table, doc in zip(tables, docs):
        for group in rng.sample(groups, len(groups)):
            value = rng.choice([rng.randint(-50, 50), f"{rng.randint(-50, 50)}/{rng.randint(1, 9)}",
                                f"{rng.randint(0, 999)}.{rng.randint(0, 99)}", " 3/4 ", "6/4",
                                "-0/5", float(f"{rng.randint(-999, 999)}.{rng.randint(0, 99)}")])
            # a float is written as a raw JSON decimal, its repr; the reader
            # parses that text, as make_isn_game does the same string
            table[tuple(group)] = repr(value) if isinstance(value, float) else value
            doc[",".join(names[i] for i in group)] = value
    path = tmp_path_factory.getbasetemp() / "shuffled.json"
    path.write_text(json.dumps({"agents": names, "tables": {"T": docs[0], "O": docs[1]}}),
                    encoding="utf-8")
    loaded, made = load_scenario(str(path)).game.table, make_isn_game(n, *tables).table
    assert loaded == made
    assert all(type(v) is Fraction for v in loaded + made)


@contextlib.contextmanager
def counted(module, name, calls, keep=lambda *args: True):
    """Count in calls[name] the calls of module.name whose arguments pass keep."""
    original = getattr(module, name)

    def spy(*args):
        if keep(*args):
            calls[name] = calls.get(name, 0) + 1
        return original(*args)

    setattr(module, name, spy)
    try:
        yield
    finally:
        setattr(module, name, original)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=6),
       st.booleans())
@settings(max_examples=30, deadline=None)
def test_roster_spelt_keys_load_in_bulk_like_make_isn_game(tmp_path_factory, seed, n, shuffled):
    """Keys spelt in roster order ("F3,F7"), listed in mask order or
    shuffled, with JSON ints and plain "a/b" text, are read in bulk: no key
    goes through _mask and no value through games._parse, and the game is
    make_isn_game's."""
    import random

    rng = random.Random(seed)
    names = [f"F{i}" for i in rng.sample(range(100), n)]
    masks = [mask for mask in range(1 << n) if mask.bit_count() >= 2]
    tables, docs = ({}, {}), ({}, {})
    for table, doc in zip(tables, docs):
        for mask in rng.sample(masks, len(masks)) if shuffled else masks:
            value = rng.choice([rng.randint(-50, 50), f"{rng.randint(-50, 50)}/{rng.randint(1, 9)}",
                                "-0/5", "6/4", str(rng.randint(-10**30, 10**30))])
            members = sorted(members_of(mask))
            table[tuple(members)] = value
            doc[",".join(names[i] for i in members)] = value
    path = tmp_path_factory.getbasetemp() / "roster_spelt.json"
    path.write_text(json.dumps({"agents": names, "tables": {"T": docs[0], "O": docs[1]}}),
                    encoding="utf-8")
    calls = {}
    with counted(cli, "_mask", calls), counted(games, "_parse", calls):
        loaded = load_scenario(str(path)).game
    assert calls == {}
    assert loaded == make_isn_game(n, *tables)


def table_key(raw, where, *bits):
    """Whether a _mask or _number call reads a table entry."""
    return where.startswith("tables.")


def test_benchmark_shaped_file_loads_in_bulk(tmp_path):
    """On a file shaped like the benchmark's (roster-spelt keys, int T,
    "a/b" O), no table key is read by _mask and no value by _number or
    games._parse (its policy groups still go through _mask)."""
    path = benchmark_halves_file(tmp_path, 10)
    calls = {}

    with counted(cli, "_mask", calls, table_key), counted(cli, "_number", calls), \
            counted(games, "_parse", calls):
        scenario = load_scenario(str(path))
    assert calls == {}
    tables = json.loads(path.read_text(encoding="utf-8"))["tables"]
    ids = {name: i for i, name in enumerate(scenario.agents)}
    t, o = ({tuple(ids[a] for a in key.split(",")): v for key, v in tables[x].items()}
            for x in ("T", "O"))
    assert scenario.game == make_isn_game(10, t, o)


@pytest.mark.parametrize("spelling", ["padded-last-value", "reversed-keys"])
def test_each_table_entry_is_read_once(tmp_path, spelling):
    """A table off the mask-order path is walked once: one _mask and one
    _number call for each of its entries, and one games._parse call for each
    of its text values; a canonical table beside it takes none. One padded
    O value sends O alone down the walk; keys spelt in reverse send both."""
    path = benchmark_halves_file(tmp_path, 8)
    doc = json.loads(path.read_text(encoding="utf-8"))
    tables = doc["tables"]
    if spelling == "padded-last-value":
        last = list(tables["O"])[-1]
        tables["O"][last] = f" {tables['O'][last]} "
        walked = ["O"]
    else:
        for x in "T", "O":
            tables[x] = {",".join(reversed(key.split(","))): v for key, v in tables[x].items()}
        walked = ["T", "O"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls = {}
    with counted(cli, "_mask", calls, table_key), counted(cli, "_number", calls, table_key), \
            counted(games, "_parse", calls):
        scenario = load_scenario(str(path))
    entries = sum(len(tables[x]) for x in walked)
    texts = sum(isinstance(v, str) for x in walked for v in tables[x].values())
    assert entries == 247 * len(walked) and texts == 247
    assert calls == {"_mask": entries, "_number": entries, "_parse": texts}
    ids = {name: i for i, name in enumerate(scenario.agents)}
    t, o = ({tuple(sorted(ids[a] for a in key.split(","))): v for key, v in tables[x].items()}
            for x in ("T", "O"))
    assert scenario.game == make_isn_game(8, t, o)


def test_both_table_read_paths_give_one_game_and_report(capsys, tmp_path):
    """A seeded table listed in its canonical form or in reverse order is
    read straight in mask order, with no _scatter; with one T key re-spelt
    or one T value a decimal string, T alone is read in file order and
    written in mask order by _scatter. All four forms give one ISNGame and
    the same analyze and enforce stdout."""
    case = bench_scenarios().enforce_case(random.Random(53), 6, "halves", "paths")
    base = json.loads(json.dumps(case.doc, default=str))
    grand = ",".join(base["agents"])
    forms = {"canonical": base, "reversed": copy.deepcopy(base),
             "respelt-key": copy.deepcopy(base), "decimal-value": copy.deepcopy(base)}
    for x in "T", "O":
        forms["reversed"]["tables"][x] = dict(reversed(base["tables"][x].items()))
    t = forms["respelt-key"]["tables"]["T"]
    t[",".join(reversed(grand.split(",")))] = t.pop(grand)
    t = forms["decimal-value"]["tables"]["T"]
    t[grand] = f"{t[grand]}.0"
    games_read, reports = [], []
    for form, doc in forms.items():
        path = _write(tmp_path, doc)
        calls = {}
        with counted(cli, "_scatter", calls):
            games_read.append(load_scenario(path).game)
        assert calls.get("_scatter", 0) == (form in ("respelt-key", "decimal-value")), form
        reports.append([run(capsys, *command, path, "--format", fmt)
                        for command in (["analyze"], ["enforce", *case.argv])
                        for fmt in ("text", "json")])
        assert all(code == 0 for code, _, _ in reports[-1]), form
    assert all(game == games_read[0] for game in games_read)
    assert all(report == reports[0] for report in reports)


def _canonical_doc():
    names = ["A", "B", "C", "D"]
    t, o = {}, {}
    for mask in range(1 << 4):
        if mask.bit_count() >= 2:
            key = ",".join(name for i, name in enumerate(names) if mask >> i & 1)
            t[key] = 100 + 7 * mask
            o[key] = f"{50 + 5 * mask}/{mask % 5 + 1}" if mask % 3 else 40 + mask
    return {"agents": names, "tables": {"T": t, "O": o}}


@pytest.mark.parametrize("table", ["T", "O"])
@pytest.mark.parametrize("kind,raw,message", [
    ("key", ("B,A",), None),
    # the other table canonical, read in mask order; this one walked in file order
    ("key", ("B,A", "A,Z"), "tables.{table}['A,Z']: unknown agent 'Z'"),
    ("text", "+3", None),
    ("text", " 3/4 ", None),
    ("text", "1_0", None),
    ("json", "2.5", None),
    ("json", "true", "tables.{table}['A,B']: bool is not a money amount"),
    ("text", "1/0", "tables.{table}['A,B']: '1/0' has a zero denominator"),
    ("json", "1" + "0" * 1000, "tables.{table}['A,B']: number has more than 1000 digits"),
    ("drop", None, "{table} table lacks coalition {{A,B}}"),
    ("text", "1,2", "tables.{table}['A,B']: '1,2' is not a number"),
    # a lone surrogate that str.encode cannot take: the bulk check refuses non-ASCII first
    ("text", "\ud800", "tables.{table}['A,B']: '\\ud800' is not a number"),
], ids=["reordered-key", "respelt-then-unknown-key", "plus-sign", "padded", "underscore",
        "json-decimal", "bool", "zero-denominator", "1001-digit-int", "missing-key", "comma",
        "lone-surrogate"])
def test_one_entry_off_the_bulk_path_reads_as_before(capsys, tmp_path, table, kind, raw,
                                                      message):
    """One key or value outside the bulk reader's forms sends its table key
    by key: the file gives make_isn_game's game or the same error as ever."""
    doc = _canonical_doc()
    entries = doc["tables"][table]
    value = entries.pop("A,B")
    if kind == "key":  # the keys given in its place
        entries.update(dict.fromkeys(raw, value))
    elif kind == "text":
        entries["A,B"] = raw
    elif kind == "json":
        entries["A,B"] = "@raw@"
    text = json.dumps(doc).replace('"@raw@"', str(raw))
    path = _write(tmp_path, text)
    code, out, err = run(capsys, "analyze", path)
    if message is not None:
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(table=table)}\n"
        return
    assert code == 0
    ids = {name: i for i, name in enumerate(doc["agents"])}
    tables = [{tuple(ids[a] for a in key.split(",")): v for key, v in doc["tables"][x].items()}
              for x in ("T", "O")]
    if kind == "json":
        tables["TO".index(table)][(0, 1)] = raw  # the JSON text, as the reader parses it
    assert load_scenario(path).game == make_isn_game(4, *tables)


@pytest.mark.parametrize("t_faults,o_faults,message", [
    ({"C": 1}, {"A,Z": 0}, "tables.O['A,Z']: unknown agent 'Z'"),
    ({"B,A": 1, "C,C": 1}, {}, "tables.T['C,C']: agent 'C' named twice"),
    ({"C": 1}, {"B,B,A": 0, "Z": 0}, "tables.O['B,B,A']: agent 'B' named twice"),
    ({"C": 1, "B,A": 1}, {}, "T table keys need two or more members, got {C}"),
    ({"B,A": 1, "C": 1}, {"A": 0}, "T table lists coalition {A,B} twice"),
    ({}, {"C,A": 0, "B": 0}, "O table lists coalition {A,C} twice"),
    ({"B": 1}, {"A,B": True}, "tables.O['A,B']: bool is not a money amount"),
    ({"B,C": True, "C,Z": 1}, {}, "tables.T['B,C']: bool is not a money amount"),
    ({"C,Z": 1, "C,B": True}, {}, "tables.T['C,Z']: unknown agent 'Z'"),
], ids=["unknown-in-O", "twice-after-dup", "twice-in-O", "size-first", "dup-first", "dup-in-O",
        "number-before-size", "value-before-key", "key-before-value"])
def test_table_fault_precedence(capsys, tmp_path, t_faults, o_faults, message):
    """Every key is read, name by name and number by number, T then O,
    before any size or repeat rule runs, T's before O's; a lacking
    coalition comes last."""
    doc = _data("g3.json")
    for table, faults in ("T", t_faults), ("O", o_faults):
        doc["tables"][table].update(faults)
    del doc["tables"]["T"]["A,C"]
    code, out, err = run(capsys, "analyze", _write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


#: A valid exchange of three firms, slag F0 -> F1 and heat F2 -> F0; each
#: entry kind's second entry is the one ENTRY_FAULTS breaks.
EXCHANGE = {"agents": ["F0", "F1", "F2"], "exchange": {
    "streams": [
        {"firm": "F0", "kind": "offer", "resource": "slag", "quantity": 10,
         "unit_discharge_cost": 5},
        {"firm": "F1", "kind": "demand", "resource": "slag", "quantity": 8,
         "unit_purchase_cost": 7, "unit_treatment_cost": 2},
        {"firm": "F2", "kind": "offer", "resource": "heat", "quantity": 4,
         "unit_discharge_cost": 3},
        {"firm": "F0", "kind": "demand", "resource": "heat", "quantity": 6,
         "unit_purchase_cost": 9, "unit_treatment_cost": 1},
    ],
    "transport": [{"from": "F0", "to": "F1", "resource": "slag", "cost": 1},
                  {"from": "F2", "to": "F0", "resource": "heat", "cost": 2}],
    "transaction": [{"from": "F0", "to": "F1", "cost": 10},
                    {"from": "F2", "to": "F0", "cost": 3}],
}}

#: The entry each kind of fault is put in: (section, index).
BROKEN = {"offer": ("streams", 2), "demand": ("streams", 3), "transport": ("transport", 1),
          "transaction": ("transaction", 1)}

DROP = object()  # a field taken out of its entry
REPEAT = object()  # the entry given again, after itself

#: (faults, message): each fault (entry kind, field, new value) puts the
#: value in the field of BROKEN's entry, the whole entry for field None.
#: The messages are the reader's before its entries were read in one pass.
ENTRY_FAULTS = [
    ([("offer", None, 5)], "exchange.streams[2]: must be an object"),
    ([("offer", "kind", "waste")], "exchange.streams[2].kind: must be 'offer' or 'demand'"),
    ([("offer", "kind", ["offer"])], "exchange.streams[2].kind: must be 'offer' or 'demand'"),
    ([("offer", "note", 1)], "exchange.streams[2]: unknown key 'note'"),
    ([("offer", "unit_purchase_cost", 1)],
     "exchange.streams[2]: unknown key 'unit_purchase_cost'"),
    ([("offer", "firm", "F9")], "exchange.streams[2].firm: unknown agent 'F9'"),
    ([("offer", "firm", ["F2"])], "exchange.streams[2].firm: unknown agent ['F2']"),
    ([("offer", "firm", DROP)], "exchange.streams[2].firm: unknown agent None"),
    ([("offer", "resource", 5)], "exchange.streams[2].resource: must be a string"),
    ([("offer", "quantity", "x")], "exchange.streams[2].quantity: 'x' is not a number"),
    ([("offer", "quantity", True)], "exchange.streams[2].quantity: bool is not a money amount"),
    ([("offer", "unit_discharge_cost", 10**1000)],
     "exchange.streams[2].unit_discharge_cost: number has more than 1000 digits"),
    ([("offer", "unit_discharge_cost", "1/0")],
     "exchange.streams[2].unit_discharge_cost: '1/0' has a zero denominator"),
    ([("offer", "quantity", DROP)], "exchange.streams[2].quantity: cannot represent None "
                                    "exactly; use int, Fraction or string"),
    ([("offer", "quantity", -1)], "exchange.streams[2]: stream quantity must be >= 0"),
    ([("offer", "unit_discharge_cost", "-1/2")],
     "exchange.streams[2]: stream unit_discharge_cost must be >= 0"),
    ([("demand", None, "x")], "exchange.streams[3]: must be an object"),
    ([("demand", "kind", DROP)], "exchange.streams[3].kind: must be 'offer' or 'demand'"),
    ([("demand", "unit_discharge_cost", 1)],
     "exchange.streams[3]: unknown key 'unit_discharge_cost'"),
    ([("demand", "firm", 0)], "exchange.streams[3].firm: unknown agent 0"),
    ([("demand", "resource", None)], "exchange.streams[3].resource: must be a string"),
    ([("demand", "unit_purchase_cost", "abc")],
     "exchange.streams[3].unit_purchase_cost: 'abc' is not a number"),
    ([("demand", "unit_treatment_cost", False)],
     "exchange.streams[3].unit_treatment_cost: bool is not a money amount"),
    ([("demand", "quantity", 10**1000)],
     "exchange.streams[3].quantity: number has more than 1000 digits"),
    ([("demand", "unit_treatment_cost", -3)],
     "exchange.streams[3]: stream unit_treatment_cost must be >= 0"),
    ([("transport", None, [])], "exchange.transport[1]: must be an object"),
    ([("transport", "note", 1)], "exchange.transport[1]: unknown key 'note'"),
    ([("transport", "from", "F9")], "exchange.transport[1].from: unknown agent 'F9'"),
    ([("transport", "to", 1)], "exchange.transport[1].to: unknown agent 1"),
    ([("transport", "resource", ["heat"])], "exchange.transport[1].resource: must be a string"),
    ([("transport", "cost", "x")], "exchange.transport[1].cost: 'x' is not a number"),
    ([("transport", "cost", True)], "exchange.transport[1].cost: bool is not a money amount"),
    ([("transport", "cost", 10**1000)],
     "exchange.transport[1].cost: number has more than 1000 digits"),
    ([("transport", "cost", -1)],
     "transport cost from {F2} to {F0} for resource 'heat' must be >= 0"),
    ([("transport", REPEAT, None)],
     "exchange.transport[2]: repeats the route of an earlier transport entry"),
    ([("transaction", None, None)], "exchange.transaction[1]: must be an object"),
    ([("transaction", "resource", "heat")], "exchange.transaction[1]: unknown key 'resource'"),
    ([("transaction", "from", {"F2": 1})],
     "exchange.transaction[1].from: unknown agent {'F2': 1}"),
    ([("transaction", "to", "F9")], "exchange.transaction[1].to: unknown agent 'F9'"),
    ([("transaction", "cost", "1/0")],
     "exchange.transaction[1].cost: '1/0' has a zero denominator"),
    ([("transaction", "cost", False)],
     "exchange.transaction[1].cost: bool is not a money amount"),
    ([("transaction", "cost", 10**1000)],
     "exchange.transaction[1].cost: number has more than 1000 digits"),
    ([("transaction", "cost", -1)], "transaction cost from {F2} to {F0} must be >= 0"),
    ([("transaction", REPEAT, None)],
     "exchange.transaction[2]: repeats the route of an earlier transaction entry"),
    # two faults: the one met first in file order is named
    ([("demand", "firm", "F9"), ("offer", "quantity", -1)],
     "exchange.streams[2]: stream quantity must be >= 0"),
    ([("transaction", "cost", "x"), ("transport", "from", 7)],
     "exchange.transport[1].from: unknown agent 7"),
]


def _fault_id(case) -> str:
    faults, _ = case
    return "+".join(f"{kind}-{'repeat' if field is REPEAT else field or 'entry'}"
                    for kind, field, _ in faults)


@pytest.mark.parametrize("faults,message", ENTRY_FAULTS,
                         ids=[f"{k}-{_fault_id(case)}" for k, case in enumerate(ENTRY_FAULTS)])
def test_exchange_entry_faults_exit_2(capsys, tmp_path, faults, message):
    """Every entry-level fault of each exchange entry kind exits 2 with its
    field-level message, byte for byte; of two faults, the first in file
    order is named."""
    doc = copy.deepcopy(EXCHANGE)
    for kind, field, value in faults:
        section, index = BROKEN[kind]
        entries = doc["exchange"][section]
        if field is REPEAT:
            entries.append(dict(entries[index]))
        elif field is None:
            entries[index] = value
        elif value is DROP:
            del entries[index][field]
        else:
            entries[index][field] = value
    code, out, err = run(capsys, "analyze", _write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_valid_exchange_entries_take_no_field_checks(tmp_path, monkeypatch):
    """A valid exchange file makes no call of _expect or _number per
    entry: tests/data's exchange files and two 6-firm benchmark draws, of 4
    to 72 entries, each check the same sections and nothing else."""
    paths = [DATA / name for name in DATA_FILES if "exchange" in _data(name)]
    for k, kind in enumerate(("sparse", "dense")):
        case = bench_scenarios().exchange_case(random.Random(k), 6, kind, kind)
        paths.append(tmp_path / f"{kind}.json")
        paths[-1].write_text(case.text(), encoding="utf-8")
    checked = []  # the field named by each call, in call order
    for name in "_expect", "_number":
        def spy(raw, *args, real=getattr(cli, name)):
            checked.append(next(arg for arg in args if type(arg) is str))
            return real(raw, *args)
        monkeypatch.setattr(cli, name, spy)
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        policy = [f"policy.{label}" for label in doc.get("policy", ())]
        policy = ["policy", *policy] if policy else []
        checked.clear()
        assert load_scenario(str(path)).source == "exchange"
        assert checked == ["scenario file", *policy, "exchange", "exchange.streams",
                           "exchange.transport", "exchange.transaction"], path.name
    assert [path.name for path in paths] == ["w.json", "x4.json", "sparse.json", "dense.json"]


@pytest.mark.parametrize("name,path,old,new", [
    ("g3.json", [], "policy", "polcy"),  # a misspelt section used to vanish
    ("g3.json", ["policy"], "promoted", "promted"),
    ("w.json", ["exchange"], "streams", "strems"),
    ("w.json", ["exchange", "streams", 0], None, "note"),
    ("w.json", ["exchange", "streams", 1], None, "unit_discharge_cost"),  # an offer's field
    ("w.json", ["exchange", "transport", 0], None, "note"),
    ("w.json", ["exchange", "transaction", 0], None, "resource"),
])
def test_unknown_keys_exit_2(capsys, tmp_path, name, path, old, new):
    doc = _data(name)
    node = reduce(operator.getitem, path, doc)
    node[new] = node.pop(old) if old else 1
    code, out, err = run(capsys, "analyze", _write(tmp_path, doc))
    assert (code, out) == (2, "")
    where = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path)[1:]
    assert err == f"error: {where or 'scenario file'}: unknown key {new!r}\n"


def test_comma_in_agent_name_exits_2(capsys, tmp_path):
    """'B,C' would make {A,"B,C"} and {"A,B",C} the same report row."""
    doc = {"agents": ["A", "B,C", "A,B", "C"], "exchange": {}}
    code, out, err = run(capsys, "analyze", _write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == "error: agents: name 'B,C' contains ','\n"


def test_agent_named_empty_keeps_its_keys_apart(capsys, tmp_path):
    """With an agent named "", the key of {"", B} is ",B", and "B" stays the
    singleton {B}: a table key is never read as another coalition's, and the
    report row is written as the coalition's other messages write it."""
    doc = {"agents": ["", "B"], "tables": {"T": {"B": 1}, "O": {",B": 0}}}
    code, out, err = run(capsys, "analyze", _write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == "error: T table keys need two or more members, got {B}\n"
    doc["tables"]["T"] = {"B,": 1}
    code, out, err = run(capsys, "analyze", _write(tmp_path, doc))
    assert code == 0
    assert "coalition values:\n  ,B = 1\n" in out


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=6))
@settings(max_examples=25, deadline=None)
def test_mcnet_report_names_each_rule(tmp_path_factory, seed, n):
    """symbio mcnet --format json gives one rule per S of two or more
    members with v(S) != 0, in ascending mask order: S's names in roster
    order, then the others' (none for the grand coalition), and str(v(S));
    one agent is named "", and worths are negative, fractional or zero."""
    import random

    rng = random.Random(seed)
    names = [f"F{i}" for i in range(n)]
    names[rng.randrange(n)] = ""
    full = (1 << n) - 1
    worth = {mask: rng.choice([Fraction(0), Fraction(rng.randint(-9, 9)),
                               Fraction(rng.randint(-20, 20), rng.randint(1, 6))])
             for mask in range(1 << n) if mask.bit_count() >= 2}
    worth[full] = worth[full] or Fraction(rng.choice([-1, 1]), rng.randint(1, 6))
    t_table, o_table = {}, {}
    for mask, v in worth.items():
        key = ",".join(names[i] for i in range(n) if mask >> i & 1)
        o = Fraction(rng.randint(0, 30), rng.randint(1, 4))
        t_table[key], o_table[key] = str(v + o), str(o)
    path = tmp_path_factory.getbasetemp() / "mcnet.json"
    path.write_text(json.dumps({"agents": names, "tables": {"T": t_table, "O": o_table}}),
                    encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["mcnet", str(path), "--format", "json"]) == 0
    report = json.loads(out.getvalue())
    assert report == {
        "command": "mcnet",
        "agents": names,
        "rules": [{"positive": [names[i] for i in range(n) if mask >> i & 1],
                   "negative": [names[i] for i in range(n) if not mask >> i & 1],
                   "value": str(v)}
                  for mask, v in sorted(worth.items()) if v],
    }
    assert report["rules"][-1] == {"positive": names, "negative": [], "value": str(worth[full])}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_scenario_files_are_read_as_utf8(capsys, tmp_path, fmt):
    """JSON text is UTF-8 (RFC 8259 section 8.1): a file naming an agent
    "Café" reads the same under an ASCII locale as in process. The JSON
    report escapes the name; the text report, which an ASCII stdout cannot
    encode, exits 2 with one error line, no traceback and no stdout."""
    path = tmp_path / "cafe.json"
    text = (DATA / "w.json").read_text(encoding="utf-8").replace('"F0"', '"Café"')
    path.write_text(text, encoding="utf-8")
    env = {"PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    done = subprocess.run(
        [sys.executable, "-m", "symbio.cli", "analyze", str(path), "--format", fmt],
        capture_output=True, encoding="utf-8", timeout=10, env=env,
    )
    if fmt == "text":
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == ("error: stdout's ascii encoding cannot write the text report; "
                               "use --format json or a UTF-8 locale\n")
        assert "Café" in run(capsys, "analyze", str(path))[1]
        return
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == run(capsys, "analyze", str(path), "--format", "json")[1]
    assert "Caf\\u00e9" in done.stdout


@pytest.mark.parametrize("command,section,key,group,message", [
    ("analyze", "tables", "T", "A,A,B", "tables.T['A,A,B']: agent 'A' named twice"),
    ("enforce", "policy", "promoted", ["A", "B", "B"], "policy.promoted[0]: agent 'B' named twice"),
], ids=["table-key", "policy-group"])
def test_agent_named_twice_in_a_coalition_exits_2(capsys, tmp_path, command, section, key, group,
                                                  message):
    doc = _data("g3.json")
    if section == "tables":
        doc["tables"][key][group] = doc["tables"][key].pop("A,B")
    else:
        doc["policy"][key] = [group]
    code, out, err = run(capsys, command, _write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("section,resource,message", [
    ("transport", "slag", "missing transport cost from {F0} to {F1} for resource 'slag'"),
    ("transaction", "slag", "missing transaction cost from {F0} to {F1}"),
    ("transport", "{x}", "missing transport cost from {F0} to {F1} for resource '{x}'"),
], ids=["transport", "transaction", "braced-resource"])
def test_missing_route_cost_names_firms_exits_2(capsys, tmp_path, section, resource, message):
    doc = _data("w.json")
    for entry in doc["exchange"]["streams"] + doc["exchange"]["transport"]:
        entry["resource"] = resource
    doc["exchange"][section] = []
    code, out, err = run(capsys, "analyze", _write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("section,field,message", [
    ("streams", "unit_treatment_cost",
     "exchange.streams[1]: stream unit_treatment_cost must be >= 0"),
    ("transport", "cost", "transport cost from {F0} to {F1} for resource 'slag' must be >= 0"),
    ("transaction", "cost", "transaction cost from {F0} to {F1} must be >= 0"),
], ids=["stream", "transport", "transaction"])
def test_negative_exchange_amount_names_its_entry_exits_2(capsys, tmp_path, section, field,
                                                          message):
    doc = _data("w.json")
    doc["exchange"][section][-1][field] = -1
    code, out, err = run(capsys, "analyze", _write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("promoted,message", [
    (5, "policy.promoted: must be a list"),
    ([["A", ["B"]]], "policy.promoted[0]: unknown agent ['B']"),
    (["A,B", "B,A"], "group {A,B} labeled twice"),
    ([["A", "B"], ["B", "C"]], "promoted groups overlap: {A,B} and {B,C}"),
    (["C,B", "A,B"], "promoted groups overlap: {A,B} and {B,C}"),
    ([["C"]], "group {C} has fewer than two agents"),
])
def test_policy_shape_errors_exit_2(capsys, tmp_path, promoted, message):
    doc = _data("g3.json")
    doc["policy"]["promoted"] = promoted
    code, out, err = run(capsys, "enforce", _write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


class _Pairs(list):
    """A JSON object as its list of (key, value) pairs, so keys may repeat."""


class _Number(str):
    """A JSON decimal kept as its source text."""


def _dump(node) -> str:
    if isinstance(node, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_dump, node)) + "]"
    return node if isinstance(node, _Number) else json.dumps(node)


def _containers(node):
    if isinstance(node, list):  # _Pairs included
        yield node
        for child in node:
            yield from _containers(child[1] if isinstance(node, _Pairs) else child)


def _parse(text):
    return json.loads(text, object_pairs_hook=_Pairs, parse_float=_Number)


#: Values a mutation puts in place of another: every JSON type, agent names,
#: coalitions, stream kinds and numbers in each accepted and refused form.
HOSTILE_VALUES = [
    "null", "true", "0", "-3", "7", "0.5", "1e400", '"1/2"', '"1/0"', '"x"', '"A"', '"A,B"',
    '"B,A"', '"F1"', '"offer"', '"demand"', "[]", "{}", '["A", "B"]', '[["A", "B"]]',
    '[["A", ["B"]]]', '{"A,B": 1}', '"\\ud800"',
]
#: Keys a mutation renames a field to: every key the format knows, and typos.
HOSTILE_KEYS = [
    "agents", "tables", "exchange", "policy", "polcy", "T", "O", "A,B", "B,A", "A,C", "promoted",
    "prohibited", "streams", "transport", "transaction", "firm", "kind", "resource", "quantity",
    "unit_discharge_cost", "unit_purchase_cost", "unit_treatment_cost", "from", "to", "cost",
]


@st.composite
def hostile_files(draw):
    """A file of tests/data after one to three drops, retypes, duplicates or
    renames."""
    doc = _parse((DATA / draw(st.sampled_from(DATA_FILES))).read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(_containers(doc))))
        if not node:
            continue
        i = draw(st.integers(0, len(node) - 1))
        op = draw(st.sampled_from(["drop", "retype", "duplicate", "rename"]))
        if op == "drop":
            del node[i]
        elif op == "duplicate":
            node.insert(i, _parse(_dump(node[i])))
        elif op == "retype":
            value = _parse(draw(st.sampled_from(HOSTILE_VALUES)))
            node[i] = (node[i][0], value) if isinstance(node, _Pairs) else value
        elif isinstance(node, _Pairs):
            node[i] = (draw(st.sampled_from(HOSTILE_KEYS)), node[i][1])
    return _dump(doc)


@given(hostile_files(), st.sampled_from(["analyze", "enforce", "shapley", "core", "mcnet"]))
@settings(max_examples=300, deadline=2000)
def test_hostile_files_exit_cleanly(tmp_path_factory, text, command):
    """Every mutated file ends in exit 0, 2 or 3, never in an exception."""
    path = tmp_path_factory.getbasetemp() / "hostile.json"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(path)])
    assert code in (0, 2, 3)
