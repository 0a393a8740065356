"""Command-line front end.

Subcommands: analyze, enforce, shapley, core, mcnet. Scenario files are
JSON documents with an `agents` name list, exactly one of `tables` (T/O
cost tables keyed by comma-joined agent names) or `exchange` (streams,
transport, transaction), and an optional `policy` section; any other key,
any key, coalition or agent in a coalition given twice, and a comma in an
agent name are errors. All numbers are read exactly, in one grammar on
every interpreter (games._RATIONAL_FORMAT, Python 3.11's): integers, "a/b"
strings, decimal strings, or raw JSON decimals (parsed from their source
text, never through binary floats). Every number, a raw JSON integer
included, may have at most games.MAX_DIGITS digits, and a decimal exponent
must lie within +-games.MAX_EXPONENT.

A roster of more than ENUMERATION_BOUND agents raises BoundExceeded as
soon as `agents` is read, before any other section. Table keys and policy
groups become bitmasks straight from the agent names. The roster's
coalition keys as reports spell them (roster order, "A,B,D") are built
once per file and kept on the Scenario. Each of T and O is read as three
columns (masks, numerators, denominators), with no Fraction, tuple or dict
per coalition, and every table takes one path: one map over a dict of
those keys gives the masks of the keys spelt that way, and one json call
(games.plain_terms) the terms of every int and plain "a/b" value. Only
the entries those two leave are read one by one, in one walk in file
order: a key split and checked name by name (_mask), a value read by
_number, so the first fault named is the first in the file, and a key's
before its value's. games.game_from_masks writes every v(S) as an int over
the table's lcm denominator. Every key's names and number are read, T then
O, before the table rules run. `--epsilon` is checked to be > 0 before the
file is read.

Reports are deterministic byte-for-byte: fixed field order, coalitions in
ascending roster order, rationals printed in lowest terms by one printer,
games.fraction_text (value rows and shares straight from ints), which raises
BoundExceeded for a number longer than the interpreter writes. Exit codes:
0 success, 2 validation failure or a text report that stdout's encoding
cannot write, 3 enumeration bound exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .coordination import CoordinatedGame, Policy, _enforce
from .errors import BoundExceeded, SymbioError
from .exchange import (
    DEMAND, OFFER, STREAM_COSTS, ExchangeScenario, ResourceStream, scenario_to_game
)
from .games import (
    INT_LIMIT, MAX_DIGITS, ISNGame, _check_agent_count, as_money, check_superadditive,
    fraction_text, game_from_masks, mask_of, members_of, money_terms, plain_terms, subgame,
)
from .mcnets import from_isn_game
from .solutions import _in_core, _shapley_terms, core_nonempty


@dataclass(frozen=True)
class Scenario:
    agents: "tuple[str, ...]"
    game: ISNGame
    policy: "Policy | None"
    source: str  # "tables" | "exchange"
    keys: "list[str]" = field(repr=False, compare=False)  # keys[mask], see _keys


def _number(raw, where: str) -> "tuple[int, int]":
    """(numerator, denominator) of a JSON number or number string, read by
    games.money_terms (a JSON decimal is a Fraction already, from
    parse_float) and a JSON int held to MAX_DIGITS digits; any fault raises
    a SymbioError naming the field."""
    try:
        if type(raw) is int and not -INT_LIMIT < raw < INT_LIMIT:
            raise SymbioError(f"number has more than {MAX_DIGITS} digits")
        return money_terms(raw)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise SymbioError(f"{where}: {e}") from None


def _unique_keys(pairs) -> dict:
    """json object_pairs_hook: one JSON object, rejected if a key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise SymbioError(f"key {key!r} given twice in one object")
    return obj


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def _expect(raw, kind: type, where: str, keys=None):
    """raw, checked to be a JSON value of `kind`; an object may hold only `keys`, if given."""
    if not isinstance(raw, kind):
        raise SymbioError(f"{where}: must be {_JSON_TYPES[kind]}")
    if keys is not None and not raw.keys() <= set(keys):
        raise SymbioError(f"{where}: unknown key {min(raw.keys() - set(keys))!r}")
    return raw


def _agent(raw, where: str, ids) -> int:
    if isinstance(raw, str) and raw in ids:
        return ids[raw]
    raise SymbioError(f"{where}: unknown agent {raw!r}")


def _mask(raw, where: str, bits) -> int:
    """Bitmask of a name list or an 'A,B' string; every name known, none twice."""
    parts = raw.split(",") if isinstance(raw, str) else raw
    if not isinstance(parts, list):
        raise SymbioError(f"{where}: coalition must be a name list or 'A,B' string")
    try:
        mask = sum(map(bits.__getitem__, parts))
    except (KeyError, TypeError):  # an unknown name, or a list or object as one
        unknown = next(p for p in parts if not isinstance(p, str) or p not in bits)
        raise SymbioError(f"{where}: unknown agent {unknown!r}") from None
    # a sum of powers of two has fewer one bits than terms exactly when a
    # term repeats; without repeats it is their OR
    if mask.bit_count() < len(parts):
        twice = next(name for k, name in enumerate(parts) if name in parts[:k])
        raise SymbioError(f"{where}: agent {twice!r} named twice")
    return mask


def _table_columns(tables: dict, names, bits, keys) -> "list[tuple[list, list, list]]":
    """T's and then O's columns (masks, numerators, denominators), each in
    file order.

    Every table takes one path. Its keys spelt as reports spell them
    (roster order, "A,B,D") get their masks from one map over a dict of the
    roster's keys of two or more agents (keys, from _keys), which lives
    only while the tables are read, and its values their terms from
    games.plain_terms. A key the dict lacks is tried once more with its
    names sorted by roster position ("B,A" as "A,B"); an unknown or repeated
    name leaves it lacking. Only if a key or a value is left over is the
    table walked, once, in file order: at each entry a key still lacking is
    read by _mask, which names its fault, then a value plain_terms left by
    _number. So the first fault is named in file order, T's before O's, and
    a key's before its value's.
    """
    lookup = dict(zip(keys, range(len(keys))))
    for key in "", *names:  # left: the keys of two or more agents, each with a comma
        lookup.pop(key, None)
    rank = defaultdict(int, bits).__getitem__  # an unknown name sorts first
    both = []
    for x in "T", "O":
        table = _expect(tables.get(x), dict, f"tables.{x}")
        masks = list(map(lookup.get, table))
        if None in masks:
            masks = [mask or lookup.get(",".join(sorted(key.split(","), key=rank)))
                     for mask, key in zip(masks, table)]
        nums, dens, odd = plain_terms(list(table.values()))
        if odd or None in masks:
            odd = set(odd)
            for k, (key, value) in enumerate(table.items()):
                if masks[k] is None:
                    masks[k] = _mask(key, f"tables.{x}[{key!r}]", bits)
                if k in odd:
                    nums[k], dens[k] = _number(value, f"tables.{x}[{key!r}]")
        both.append((masks, nums, dens))
    return both


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file into a game plus optional policy.

    Every fault raises SymbioError: shape errors (a wrong JSON type, an
    unknown or repeated key, an unknown agent or one named twice in a
    coalition, an agent name holding a comma, an unreadable number) name the
    field, and data the library rejects is reported with its coalitions
    written by name. A scenario past an enumeration bound raises
    BoundExceeded.
    """
    try:
        with open(path, encoding="utf-8") as fp:
            doc = json.load(fp, parse_float=as_money, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise SymbioError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise SymbioError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # oversized number, nesting too deep
        raise SymbioError(f"{path}: {e}") from None

    _expect(doc, dict, "scenario file", ("agents", "tables", "exchange", "policy"))
    names = doc.get("agents")
    if not isinstance(names, list) or not names or not all(isinstance(a, str) for a in names):
        raise SymbioError("agents: must be a non-empty list of names")
    if len(set(names)) != len(names):
        raise SymbioError("agents: names must be unique")
    for name in names:
        if "," in name:
            raise SymbioError(f"agents: name {name!r} contains ','")
    _check_agent_count(len(names))  # bits holds n ints of up to n bits each
    names = tuple(names)
    bits = {name: 1 << i for i, name in enumerate(names)}
    keys = _keys(names)
    if ("tables" in doc) == ("exchange" in doc):
        raise SymbioError("scenario needs exactly one of 'tables' or 'exchange'")

    try:
        policy = None
        if "policy" in doc:
            section = _expect(doc["policy"], dict, "policy", ("promoted", "prohibited"))
            policy = Policy(**{
                label: [members_of(_mask(g, f"policy.{label}[{k}]", bits))
                        for k, g in enumerate(_expect(groups, list, f"policy.{label}"))]
                for label, groups in section.items()
            })
        if "tables" in doc:
            tables = _expect(doc["tables"], dict, "tables", ("T", "O"))
            game = game_from_masks(len(names), *_table_columns(tables, names, bits, keys))
        else:
            ids = {name: i for i, name in enumerate(names)}
            game = scenario_to_game(_parse_exchange(doc["exchange"], ids))
    except BoundExceeded:
        raise
    except SymbioError as e:
        raise SymbioError(e.describe(lambda s: f"{{{keys[mask_of(s)]}}}")) from None
    return Scenario(names, game, policy, "tables" if "tables" in doc else "exchange", keys)


def _parse_exchange(raw, ids) -> ExchangeScenario:
    section = _expect(raw, dict, "exchange", ("streams", "transport", "transaction"))
    streams = []
    for k, entry in enumerate(_expect(section.get("streams", []), list, "exchange.streams")):
        where = f"exchange.streams[{k}]"
        kind = _expect(entry, dict, where).get("kind")
        if kind not in (OFFER, DEMAND):
            raise SymbioError(f"{where}.kind: must be 'offer' or 'demand'")
        _expect(entry, dict, where, ("firm", "kind", "resource", "quantity") + STREAM_COSTS[kind])
        streams.append(ResourceStream(
            _agent(entry.get("firm"), f"{where}.firm", ids),
            _expect(entry.get("resource"), str, f"{where}.resource"),
            kind,
            Fraction(*_number(entry.get("quantity"), f"{where}.quantity")),
            **{f: Fraction(*_number(entry.get(f), f"{where}.{f}")) for f in STREAM_COSTS[kind]},
        ))
    costs = {}
    for name, extra in ("transport", ("resource",)), ("transaction", ()):
        table = costs[name] = {}
        for k, entry in enumerate(_expect(section.get(name, []), list, f"exchange.{name}")):
            where = f"exchange.{name}[{k}]"
            _expect(entry, dict, where, ("from", "to", "cost") + extra)
            key = tuple(_agent(entry.get(f), f"{where}.{f}", ids) for f in ("from", "to"))
            key += tuple(_expect(entry.get(f), str, f"{where}.{f}") for f in extra)
            if key in table:
                raise SymbioError(f"{where}: repeats the route of an earlier {name} entry")
            table[key] = Fraction(*_number(entry.get("cost"), f"{where}.cost"))
    return ExchangeScenario(len(ids), tuple(streams), costs["transport"], costs["transaction"])


# ---------------------------------------------------------------- reports


def _allocation(names, x, den: int = 1) -> dict:
    """{name: x_i / den}, for ints or Fractions x_i."""
    return {names[i]: fraction_text(v, den) for i, v in enumerate(x)}


def _keys(names) -> "list[str]":
    """keys[mask]: the names of mask's members, comma-joined in roster order,
    as reports write a coalition; an agent named "" keeps its comma, so the
    key of {"", B} is ",B", not B's."""
    keys = [""]
    for name in names:
        keys += [name] + [f"{k},{name}" for k in keys[1:]]
    return keys


def _value_rows(keys, game) -> dict:
    """{key: v(S)} for every S of two or more agents, printed from the ints."""
    scaled, d = game.scaled, game.denominator
    return {keys[mask]: fraction_text(scaled[mask], d)
            for mask in range(len(keys)) if mask.bit_count() >= 2}


def cmd_analyze(scenario: Scenario, violation) -> dict:
    """violation is check_superadditive's result for scenario.game."""
    game = scenario.game
    names = scenario.agents
    phi = _shapley_terms(game)
    shares = _allocation(names, *phi)  # first: a share too long to print ends the run here
    core = core_nonempty(game)
    return {
        "command": "analyze",
        "agents": list(names),
        "source": scenario.source,
        "values": _value_rows(scenario.keys, game),
        "superadditive": violation is None,
        "superadditive_counterexample": None
        if violation is None
        else [scenario.keys[mask_of(s)] for s in violation],
        "shapley": shares,
        "core": {
            "nonempty": core.nonempty,
            "witness": None if core.witness is None else _allocation(names, core.witness),
        },
        "implementable": _in_core(game, *phi),
    }


def cmd_shapley(scenario: Scenario) -> dict:
    phi, den = _shapley_terms(scenario.game)
    return {
        "command": "shapley",
        "agents": list(scenario.agents),
        "shapley": _allocation(scenario.agents, phi, den),
        "total": fraction_text(sum(phi), den),
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
        "value": fraction_text(rule.value),
    }


def cmd_mcnet(scenario: Scenario) -> dict:
    net = from_isn_game(scenario.game)
    return {
        "command": "mcnet",
        "agents": list(scenario.agents),
        "rules": [_rule_entry(scenario.agents, r) for r in net.rules],
    }


def cmd_enforce(scenario: Scenario, epsilon: Fraction) -> dict:
    policy = scenario.policy
    if policy is None:
        raise SymbioError("no policy section in scenario file")
    game, names, keys = scenario.game, scenario.agents, scenario.keys
    net, promoted = _enforce(game, policy, epsilon)
    coordinated = CoordinatedGame(game, net)
    # written first, so a share too long to print ends the run before any
    # other number; a promoted whole roster's shares are summed already
    whole = promoted.get(frozenset(range(len(names))))
    shares = _allocation(names, *(whole[1] if whole else _shapley_terms(coordinated)))

    verdicts = []
    for grp in policy.promoted:
        subsidy, terms = promoted[grp]
        verdicts.append({
            "group": keys[mask_of(grp)],
            "label": "promoted",
            "subsidy": fraction_text(subsidy),
            "implementable": _in_core(subgame(coordinated, grp), *terms),
        })
    for grp in policy.prohibited:
        cv = coordinated.value(grp)
        verdicts.append({
            "group": keys[mask_of(grp)],
            "label": "prohibited",
            "coordinated_value": fraction_text(cv),
            "blocked": cv < 0,
        })

    return {
        "command": "enforce",
        "agents": list(names),
        "source": scenario.source,
        "epsilon": fraction_text(epsilon),
        "policy": {
            "promoted": [keys[mask_of(g)] for g in policy.promoted],
            "prohibited": [keys[mask_of(g)] for g in policy.prohibited],
        },
        "incentive_rules": [_rule_entry(names, r) for r in net.rules],
        "coordinated_values": _value_rows(keys, coordinated),
        "group_verdicts": verdicts,
        "coordinated_shapley": shares,
    }


# ---------------------------------------------------------------- rendering


def _pairs(d: dict) -> str:
    return ", ".join(f"{k} = {v}" for k, v in d.items())


def _core_line(core: dict) -> str:
    """The core line of an analyze report's "core" or of a core report."""
    return f"core: nonempty, witness: {_pairs(core['witness'])}" if core["nonempty"] else "core: empty"


def _rule_line(rule: dict) -> str:
    return f"  pos={{{','.join(rule['positive'])}}} neg={{{','.join(rule['negative'])}}} value={rule['value']}"


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
        lines.append(_core_line(report["core"]))
        lines.append(f"implementable: {'yes' if report['implementable'] else 'no'}")
    elif cmd == "shapley":
        lines.append(f"shapley: {_pairs(report['shapley'])}")
        lines.append(f"total: {report['total']}")
    elif cmd == "core":
        lines.append(_core_line(report))
    elif cmd == "mcnet":
        lines.append(f"rules: {len(report['rules'])}")
        lines += map(_rule_line, report["rules"])
    elif cmd == "enforce":
        lines.append(f"epsilon: {report['epsilon']}")
        pol = report["policy"]
        promoted = "; ".join(pol["promoted"]) or "(none)"
        prohibited = "; ".join(pol["prohibited"]) or "(none)"
        lines.append(f"policy: promoted {promoted} / prohibited {prohibited}")
        lines.append(f"incentive rules: {len(report['incentive_rules'])}")
        lines += map(_rule_line, report["incentive_rules"])
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="symbio",
        description="Cooperative-game analysis and incentive design for "
        "industrial symbiosis scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "enforce", "shapley", "core", "mcnet"):
        p = sub.add_parser(name)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--format", choices=["text", "json"], default="text")
        if name == "enforce":
            p.add_argument(
                "--epsilon",
                default="1",
                help="margin below zero for prohibited groups (exact rational)",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "enforce":
            epsilon = Fraction(*_number(args.epsilon, "--epsilon"))
            if epsilon <= 0:
                raise SymbioError("--epsilon: must be > 0")
        scenario = load_scenario(args.scenario)
        # exchange games too: the one production cross-check of the branch and bound
        violation = check_superadditive(scenario.game)
        if violation is not None:
            a, b = (scenario.keys[mask_of(g)] for g in violation)
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
            report = cmd_enforce(scenario, epsilon)
    except BoundExceeded as e:
        print(f"error: bound exceeded: {e}", file=sys.stderr)
        return 3
    except SymbioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(render(report, args.format))
    except UnicodeEncodeError as e:  # an ASCII locale's stdout and a non-ASCII name
        print(f"error: stdout's {e.encoding} encoding cannot write the text report; "
              f"use --format json or a UTF-8 locale", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
