"""Output checks for one CLI invocation, independent of symbio.

Each check parses the text report and compares it with facts the generator
derived from its own numbers (see scenarios.py). Nothing here imports
symbio. A check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

from fractions import Fraction

from scenarios import Case, agent_names


class Report:
    """Line cursor over a text report."""

    def __init__(self, text: str):
        if not text.endswith("\n"):
            raise ValueError("report does not end with a newline")
        self.lines = text[:-1].split("\n")
        self.at = 0

    def take(self, prefix: str = "") -> str:
        line = self.lines[self.at]
        if not line.startswith(prefix):
            raise ValueError(f"line {self.at + 1}: expected {prefix!r}, got {line[:60]!r}")
        self.at += 1
        return line[len(prefix):]

    def done(self) -> bool:
        return self.at == len(self.lines)


def _allocation(text: str, names) -> "tuple[Fraction, ...]":
    pairs = [item.split(" = ") for item in text.split(", ")]
    if [k for k, _ in pairs] != list(names):
        raise ValueError(f"allocation names {[k for k, _ in pairs]} != {list(names)}")
    return tuple(Fraction(v) for _, v in pairs)


def _mask(key: str, names) -> int:
    index = {name: i for i, name in enumerate(names)}
    return sum(1 << index[p] for p in key.split(","))


def _key(mask: int, names) -> str:
    return ",".join(names[i] for i in range(len(names)) if mask >> i & 1)


def _value_rows(rep: Report, names) -> "list[Fraction]":
    """Read the `  key = value` block; rows must come in ascending mask order."""
    n = len(names)
    values = [Fraction(0)] * (1 << n)
    for mask in range(1 << n):
        if mask.bit_count() < 2:
            continue
        key, val = rep.take("  ").split(" = ")
        if key != _key(mask, names):
            raise ValueError(f"coalition row {key!r}, expected {_key(mask, names)!r}")
        values[mask] = Fraction(val)
    return values


def subset_sums(x) -> "list[Fraction]":
    sums = [Fraction(0)] * (1 << len(x))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + x[low.bit_length() - 1]
    return sums


def in_core(values, x) -> bool:
    """Efficiency and x(S) >= v(S) for every coalition, by brute force."""
    sums = subset_sums(x)
    full = len(values) - 1
    return sums[full] == values[full] and all(s >= v for s, v in zip(sums, values))


def superadditive(values) -> bool:
    """v(A | B) >= v(A) + v(B) for all disjoint A, B, by brute force."""
    full = len(values) - 1
    for a in range(1, full + 1):
        rest = full & ~a
        b = rest
        while b:
            if values[a | b] < values[a] + values[b]:
                return False
            b = (b - 1) & rest
    return True


def check(case: Case, text: str) -> "list[str]":
    try:
        if case.command == "enforce":
            return _check_enforce(case, text)
        return _check_analyze(case, text)
    except (ValueError, IndexError, ZeroDivisionError) as e:
        return [f"unparsable report: {e}"]


def _check_analyze(case: Case, text: str) -> "list[str]":
    names = agent_names(case.n)
    full = (1 << case.n) - 1
    source = "tables" if case.values is not None else "exchange"
    rep = Report(text)
    problems = []
    if rep.take("agents: ") != ", ".join(names) or rep.take("source: ") != source:
        problems.append("header")
    rep.take("coalition values:")
    printed = _value_rows(rep, names)
    sa_line = rep.take("superadditive: ")
    shapley = _allocation(rep.take("shapley: "), names)
    core_line = rep.take("core: ")
    implementable = rep.take("implementable: ")
    if not rep.done():
        problems.append("trailing lines")

    if case.values is not None:
        values = case.values
        if printed != values:
            problems.append("coalition values differ from T - O")
        if case.kind == "convex":
            if sa_line != "yes":
                problems.append("convex game reported not superadditive")
        else:
            pair = sa_line.removeprefix("no (counterexample: {").removesuffix("})")
            a, b = (_mask(k, names) for k in pair.split("} + {"))
            if a & b or values[a | b] >= values[a] + values[b]:
                problems.append(f"bad superadditivity counterexample {sa_line!r}")
        if case.shapley is not None and shapley != case.shapley:
            problems.append("Shapley differs from the closed form sum_j w_ij / 2")
    else:
        values = printed
        for mask, want in case.pair_values.items():
            if printed[mask] != want:
                problems.append(f"pair {_key(mask, names)} = {printed[mask]}, expected {want}")
        if any(not 0 <= v <= t for v, t in zip(printed, case.baseline)):
            problems.append("a coalition value lies outside [0, baseline cost]")
        if sa_line != "yes" or not superadditive(printed):
            problems.append("exchange game not superadditive")
    if sum(shapley) != values[full]:
        problems.append("Shapley does not sum to v(N)")
    if core_line == "empty":
        if case.witness is not None:
            problems.append("core reported empty, but a known core point exists")
    else:
        witness = _allocation(core_line.removeprefix("nonempty, witness: "), names)
        if case.split is not None:
            problems.append("core reported nonempty, but v(N) < v(S) + v(N - S)")
        if not in_core(values, witness):
            problems.append("core witness violates a coalition constraint")
    if implementable != ("yes" if in_core(values, shapley) else "no"):
        problems.append("implementable verdict disagrees with the printed Shapley")
    return problems


def _parse_rule(text: str, names):
    pos, neg, value = text.split(" ")
    pos = pos.removeprefix("pos={").removesuffix("}")
    neg = neg.removeprefix("neg={").removesuffix("}")
    return (
        _mask(pos, names) if pos else 0,
        _mask(neg, names) if neg else 0,
        Fraction(value.removeprefix("value=")),
    )


def _check_enforce(case: Case, text: str) -> "list[str]":
    names = agent_names(case.n)
    full = (1 << case.n) - 1
    values, eps = case.values, case.epsilon
    promoted = sorted(_mask(",".join(g), names) for g in case.policy["promoted"])
    prohibited = sorted(_mask(",".join(g), names) for g in case.policy["prohibited"])
    rep = Report(text)
    problems = []
    if rep.take("agents: ") != ", ".join(names) or rep.take("source: ") != "tables":
        problems.append("header")
    if Fraction(rep.take("epsilon: ")) != eps:
        problems.append("epsilon")
    want_policy = "promoted {} / prohibited {}".format(
        "; ".join(_key(g, names) for g in promoted),
        "; ".join(_key(g, names) for g in prohibited),
    )
    if rep.take("policy: ") != want_policy:
        problems.append("policy line")
    rules = [_parse_rule(rep.take("  "), names) for _ in range(int(rep.take("incentive rules: ")))]
    rep.take("coordinated values:")
    coordinated = _value_rows(rep, names)
    rep.take("group verdicts:")
    subsidy = {}
    for g in promoted:
        line = rep.take(f"  promoted {{{_key(g, names)}}}: implementable (subsidy ")
        subsidy[g] = Fraction(line.removesuffix(")"))
    for g in prohibited:
        line = rep.take(f"  prohibited {{{_key(g, names)}}}: blocked (coordinated value ")
        if Fraction(line.removesuffix(")")) != -eps:
            problems.append("prohibited verdict value is not -epsilon")
    shapley = _allocation(rep.take("coordinated shapley: "), names)
    if not rep.done():
        problems.append("trailing lines")

    # Incentive rules target exact groups: (G, N - G) -> amount.
    incentive = {}
    for pos, neg, value in rules:
        if neg != full & ~pos or pos in incentive:
            problems.append("incentive rule is not an exact-group rule")
        incentive[pos] = value
    for g in prohibited:
        if incentive.get(g) != -(values[g] + eps):
            problems.append(f"tax on {_key(g, names)} is not -(v + epsilon)")
        if coordinated[g] != -eps:
            problems.append(f"prohibited {_key(g, names)} coordinated value is not -epsilon")
    for g in promoted:
        if subsidy[g] < 0 or incentive.get(g, Fraction(0)) != subsidy[g]:
            problems.append(f"subsidy on {_key(g, names)} disagrees with its rule")
    if set(incentive) - set(promoted) - set(prohibited):
        problems.append("incentive rule on an unlabeled group")
    for mask in range(1 << case.n):
        if mask.bit_count() >= 2 and coordinated[mask] != values[mask] + incentive.get(mask, 0):
            problems.append(f"coordinated value of {_key(mask, names)} is not v + incentive")
            break
    if sum(shapley) != coordinated[full]:
        problems.append("coordinated Shapley does not sum to the coordinated v(N)")
    return problems
