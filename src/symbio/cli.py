"""Command-line front end.

Subcommands: analyze, enforce, shapley, core, mcnet. Scenario files are
JSON documents with an `agents` name list, exactly one of `tables` (T/O
cost tables keyed by comma-joined agent names) or `exchange` (streams,
transport, transaction), and an optional `policy` section. All numbers are
read exactly by games.as_money: integers, "a/b" strings, decimal strings,
or raw JSON decimals (parsed from their source text, never through binary
floats), within its digit and exponent caps.

Reports are deterministic byte-for-byte: fixed field order, coalitions in
ascending roster order, rationals printed in lowest terms. Exit codes:
0 success, 2 validation failure, 3 enumeration bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .coordination import CoordinatedGame, Policy, PolicyLabel, enforce_policy, validate_policy
from .errors import BoundExceeded, ParseError, SymbioError, ValidationError
from .exchange import ExchangeScenario, ResourceStream, scenario_to_game
from .games import (
    ISNGame, as_money, check_superadditive, coalition, make_isn_game, members_of, subgame
)
from .mcnets import from_isn_game
from .solutions import core_nonempty, in_core, shapley


@dataclass(frozen=True)
class Scenario:
    agents: "tuple[str, ...]"
    game: ISNGame
    policy: "Policy | None"
    source: str  # "tables" | "exchange"


def _amount(raw, where: str) -> Fraction:
    """as_money, with its errors reported as a ParseError naming the field."""
    try:
        return as_money(raw)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise ParseError(f"{where}: {e}") from None


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file into a game plus optional policy."""
    try:
        with open(path) as fp:
            doc = json.load(fp, parse_float=as_money)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # oversized number, nesting too deep
        raise ParseError(f"{path}: {e}") from None

    if not isinstance(doc, dict):
        raise ParseError("scenario file must be a JSON object")
    names = doc.get("agents")
    if not isinstance(names, list) or not names or not all(isinstance(a, str) for a in names):
        raise ParseError("field 'agents' must be a non-empty list of names")
    if len(set(names)) != len(names):
        raise ParseError("agent names must be unique")
    names = tuple(names)
    ids = {name: i for i, name in enumerate(names)}

    n_sources = ("tables" in doc) + ("exchange" in doc)
    if n_sources != 1:
        raise ParseError("scenario needs exactly one of 'tables' or 'exchange'")

    def group(raw, where):
        if isinstance(raw, str):
            parts = [p.strip() for p in raw.split(",")]
        elif isinstance(raw, list):
            parts = raw
        else:
            raise ParseError(f"{where}: coalition must be a name list or 'A,B' string")
        try:
            return coalition(ids[p] for p in parts)
        except KeyError as e:
            raise ParseError(f"{where}: unknown agent {e.args[0]!r}") from None

    try:
        if "tables" in doc:
            source = "tables"
            tables = doc["tables"]
            if not isinstance(tables, dict) or set(tables) != {"T", "O"}:
                raise ParseError("'tables' must hold exactly the keys 'T' and 'O'")
            t, o = (
                {group(k, w): _amount(v, f"{w}[{k!r}]") for k, v in tables[x].items()}
                for x, w in (("T", "tables.T"), ("O", "tables.O"))
            )
            exchange = None
        else:
            source = "exchange"
            exchange = _parse_exchange(doc["exchange"], ids)
    except ParseError:
        raise
    except SymbioError as e:
        raise ValidationError(str(e)) from None
    except (ValueError, TypeError, AttributeError, KeyError) as e:
        raise ParseError(f"malformed scenario: {e}") from None

    try:
        game = make_isn_game(len(names), t, o) if exchange is None else scenario_to_game(exchange)
    except BoundExceeded:
        raise
    except (SymbioError, ValueError) as e:
        raise ValidationError(str(e)) from None

    policy = None
    if "policy" in doc:
        section = doc["policy"]
        if not isinstance(section, dict):
            raise ParseError("'policy' must be an object")
        promoted = [group(g, "policy.promoted") for g in section.get("promoted", [])]
        prohibited = [group(g, "policy.prohibited") for g in section.get("prohibited", [])]
        try:
            policy = Policy.from_groups(promoted=promoted, prohibited=prohibited)
        except ValueError as e:
            raise ValidationError(str(e)) from None
        clash = validate_policy(policy)
        if clash is not None:
            a, b = (_coalition_key(names, g) for g in clash)
            raise ValidationError(f"promoted groups overlap: {{{a}}} and {{{b}}}")
    return Scenario(names, game, policy, source)


#: The cost fields a stream of each kind carries.
_STREAM_COSTS = {
    "offer": ("unit_discharge_cost",),
    "demand": ("unit_purchase_cost", "unit_treatment_cost"),
}


def _parse_exchange(section, ids) -> ExchangeScenario:
    def firm(raw, where):
        if raw not in ids:
            raise ParseError(f"{where}: unknown agent {raw!r}")
        return ids[raw]

    streams = []
    for k, raw in enumerate(section.get("streams", [])):
        where = f"streams[{k}]"
        firm_id = firm(raw.get("firm"), where)
        kind = raw.get("kind")
        quantity = _amount(raw.get("quantity"), f"{where}.quantity")
        if kind not in ("offer", "demand"):
            raise ParseError(f"{where}: kind must be 'offer' or 'demand'")
        costs = {f: _amount(raw.get(f), f"{where}.{f}") for f in _STREAM_COSTS[kind]}
        streams.append(ResourceStream(firm_id, raw.get("resource"), kind, quantity, **costs))
    transport = {}
    for k, raw in enumerate(section.get("transport", [])):
        where = f"transport[{k}]"
        key = (firm(raw.get("from"), where), firm(raw.get("to"), where), raw.get("resource"))
        transport[key] = _amount(raw.get("cost"), f"{where}.cost")
    transaction = {}
    for k, raw in enumerate(section.get("transaction", [])):
        where = f"transaction[{k}]"
        key = (firm(raw.get("from"), where), firm(raw.get("to"), where))
        transaction[key] = _amount(raw.get("cost"), f"{where}.cost")
    return ExchangeScenario(
        n_agents=len(ids), streams=tuple(streams), transport=transport, transaction=transaction
    )


# ---------------------------------------------------------------- reports


def _coalition_key(names, s) -> str:
    return ",".join(names[i] for i in sorted(s))


def _allocation(names, x) -> dict:
    return {names[i]: str(v) for i, v in enumerate(x)}


def _value_rows(names, game) -> dict:
    rows = {}
    for mask in range(1 << game.n_agents):
        if mask.bit_count() < 2:
            continue
        rows[_coalition_key(names, members_of(mask))] = str(game.table[mask])
    return rows


def cmd_analyze(scenario: Scenario, violation) -> dict:
    """violation is check_superadditive's result for scenario.game."""
    game = scenario.game
    names = scenario.agents
    phi = shapley(game)
    core = core_nonempty(game)
    return {
        "command": "analyze",
        "agents": list(names),
        "source": scenario.source,
        "values": _value_rows(names, game),
        "superadditive": violation is None,
        "superadditive_counterexample": None
        if violation is None
        else [_coalition_key(names, violation[0]), _coalition_key(names, violation[1])],
        "shapley": _allocation(names, phi),
        "core": {
            "nonempty": core.nonempty,
            "witness": None if core.witness is None else _allocation(names, core.witness),
        },
        "implementable": in_core(game, phi),
    }


def cmd_shapley(scenario: Scenario) -> dict:
    phi = shapley(scenario.game)
    return {
        "command": "shapley",
        "agents": list(scenario.agents),
        "shapley": _allocation(scenario.agents, phi),
        "total": str(sum(phi, Fraction(0))),
    }


def cmd_core(scenario: Scenario) -> dict:
    core = core_nonempty(scenario.game)
    return {
        "command": "core",
        "agents": list(scenario.agents),
        "nonempty": core.nonempty,
        "witness": None if core.witness is None else _allocation(scenario.agents, core.witness),
    }


def _rule_entry(names, rule) -> dict:
    return {
        "positive": [names[i] for i in sorted(rule.positive)],
        "negative": [names[i] for i in sorted(rule.negative)],
        "value": str(rule.value),
    }


def cmd_mcnet(scenario: Scenario) -> dict:
    net = from_isn_game(scenario.game)
    return {
        "command": "mcnet",
        "agents": list(scenario.agents),
        "rules": [_rule_entry(scenario.agents, r) for r in net.rules],
    }


def cmd_enforce(scenario: Scenario, epsilon: Fraction) -> dict:
    if scenario.policy is None:
        raise ValidationError("no policy section in scenario file")
    game = scenario.game
    names = scenario.agents
    net = enforce_policy(game, scenario.policy, epsilon)
    coordinated = CoordinatedGame(game, net)
    subsidy_of = {rule.positive: rule.value for rule in net.rules if rule.value > 0}

    verdicts = []
    for label in (PolicyLabel.PROMOTED, PolicyLabel.PROHIBITED):
        for grp in scenario.policy.groups(label):
            entry = {"group": _coalition_key(names, grp), "label": label.value}
            if label is PolicyLabel.PROMOTED:
                sub = subgame(coordinated, grp)
                entry["subsidy"] = str(subsidy_of.get(grp, Fraction(0)))
                entry["implementable"] = in_core(sub, shapley(sub))
            else:
                cv = coordinated.value(grp)
                entry["coordinated_value"] = str(cv)
                entry["blocked"] = cv < 0
            verdicts.append(entry)

    return {
        "command": "enforce",
        "agents": list(names),
        "source": scenario.source,
        "epsilon": str(epsilon),
        "policy": {
            "promoted": [
                _coalition_key(names, g) for g in scenario.policy.groups(PolicyLabel.PROMOTED)
            ],
            "prohibited": [
                _coalition_key(names, g) for g in scenario.policy.groups(PolicyLabel.PROHIBITED)
            ],
        },
        "incentive_rules": [_rule_entry(names, r) for r in net.rules],
        "coordinated_values": _value_rows(names, coordinated),
        "group_verdicts": verdicts,
        "coordinated_shapley": _allocation(names, shapley(coordinated)),
    }


# ---------------------------------------------------------------- rendering


def _pairs(d: dict) -> str:
    return ", ".join(f"{k} = {v}" for k, v in d.items())


def render_text(report: dict) -> str:
    lines = [f"agents: {', '.join(report['agents'])}"]
    cmd = report["command"]
    if cmd in ("analyze", "enforce"):
        lines.append(f"source: {report['source']}")
    if cmd == "analyze":
        lines.append("coalition values:")
        lines += [f"  {k} = {v}" for k, v in report["values"].items()]
        if report["superadditive"]:
            lines.append("superadditive: yes")
        else:
            a, b = report["superadditive_counterexample"]
            lines.append(f"superadditive: no (counterexample: {{{a}}} + {{{b}}})")
        lines.append(f"shapley: {_pairs(report['shapley'])}")
        core = report["core"]
        if core["nonempty"]:
            lines.append(f"core: nonempty, witness: {_pairs(core['witness'])}")
        else:
            lines.append("core: empty")
        lines.append(f"implementable: {'yes' if report['implementable'] else 'no'}")
    elif cmd == "shapley":
        lines.append(f"shapley: {_pairs(report['shapley'])}")
        lines.append(f"total: {report['total']}")
    elif cmd == "core":
        if report["nonempty"]:
            lines.append(f"core: nonempty, witness: {_pairs(report['witness'])}")
        else:
            lines.append("core: empty")
    elif cmd == "mcnet":
        lines.append(f"rules: {len(report['rules'])}")
        for r in report["rules"]:
            lines.append(f"  pos={{{','.join(r['positive'])}}} neg={{{','.join(r['negative'])}}} value={r['value']}")
    elif cmd == "enforce":
        lines.append(f"epsilon: {report['epsilon']}")
        pol = report["policy"]
        promoted = "; ".join(pol["promoted"]) or "(none)"
        prohibited = "; ".join(pol["prohibited"]) or "(none)"
        lines.append(f"policy: promoted {promoted} / prohibited {prohibited}")
        lines.append(f"incentive rules: {len(report['incentive_rules'])}")
        for r in report["incentive_rules"]:
            lines.append(f"  pos={{{','.join(r['positive'])}}} neg={{{','.join(r['negative'])}}} value={r['value']}")
        lines.append("coordinated values:")
        lines += [f"  {k} = {v}" for k, v in report["coordinated_values"].items()]
        lines.append("group verdicts:")
        for v in report["group_verdicts"]:
            if v["label"] == "promoted":
                ok = "implementable" if v["implementable"] else "NOT implementable"
                lines.append(f"  promoted {{{v['group']}}}: {ok} (subsidy {v['subsidy']})")
            else:
                ok = "blocked" if v["blocked"] else "NOT blocked"
                lines.append(
                    f"  prohibited {{{v['group']}}}: {ok} (coordinated value {v['coordinated_value']})"
                )
        lines.append(f"coordinated shapley: {_pairs(report['coordinated_shapley'])}")
    return "\n".join(lines) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    return render_text(report)


# ---------------------------------------------------------------- entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbio",
        description="Cooperative-game analysis and incentive design for "
        "industrial symbiosis scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_epsilon in [
        ("analyze", False),
        ("enforce", True),
        ("shapley", False),
        ("core", False),
        ("mcnet", False),
    ]:
        p = sub.add_parser(name)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--format", choices=["text", "json"], default="text")
        if needs_epsilon:
            p.add_argument(
                "--epsilon",
                default="1",
                help="margin below zero for prohibited groups (exact rational)",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        violation = check_superadditive(scenario.game)
        if violation is not None:
            a, b = (_coalition_key(scenario.agents, g) for g in violation)
            print(
                f"warning: game is not superadditive: merging {{{a}}} and {{{b}}} loses value",
                file=sys.stderr,
            )
        if args.command == "analyze":
            report = cmd_analyze(scenario, violation)
        elif args.command == "shapley":
            report = cmd_shapley(scenario)
        elif args.command == "core":
            report = cmd_core(scenario)
        elif args.command == "mcnet":
            report = cmd_mcnet(scenario)
        else:
            report = cmd_enforce(scenario, _amount(args.epsilon, "--epsilon"))
    except BoundExceeded as e:
        print(f"error: bound exceeded: {e}", file=sys.stderr)
        return 3
    except SymbioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(render(report, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
