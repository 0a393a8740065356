"""Seeded scenario generators for the symbio benchmark.

Every pass of a workload draws from one `random.Random` seeded with the
workload, the seed and the pass number, so one seed always gives the same
scenario files, byte for byte. Next to the JSON document the CLI
reads, each case carries the facts the output checks need: coalition
values, a known core point or a certificate that the core is empty, and
closed-form pair values for exchange files. They are computed here from the
generated numbers, never through symbio.

Table games are pairwise-synergy games, v(S) = sum of w_ij over pairs in S
with w_ij > 0. They are convex, hence superadditive, and their Shapley
value phi_i = sum_j w_ij / 2 lies in the core. Two variants break that on
purpose:

- "dip": one pair's value drops below zero. The game is not superadditive,
  but every core constraint only got weaker, so phi is still a core point.
- "empty": v(N) = v(N - {k}) - 1. Then x(N - {k}) >= v(N - {k}) and
  x_k >= 0 cannot both hold with x(N) = v(N), so the core is empty.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

#: Pair synergies are drawn in twelfths, so denominators 1, 2, 3, 4 and 6
#: all occur and every value stays an exact integer count of twelfths.
DENOM = 12


@dataclass
class Case:
    """One generated scenario file plus what its output must satisfy."""

    name: str
    argv: "list[str]"  # CLI arguments after the subcommand's scenario path
    command: str  # "analyze" | "enforce"
    doc: dict
    n: int
    kind: str  # "convex" | "dip" | "empty" | "dense" | "sparse"
    values: "list[Fraction] | None" = None  # mask -> v(S), tables only
    shapley: "tuple[Fraction, ...] | None" = None  # closed form, convex only
    witness: "tuple[Fraction, ...] | None" = None  # a known core point
    split: "int | None" = None  # mask S with v(N) < v(S) + v(N - S)
    epsilon: "Fraction | None" = None
    policy: "dict | None" = None  # the policy section, enforce only
    baseline: "list[Fraction] | None" = None  # exchange: mask -> T(S)
    pair_values: dict = field(default_factory=dict)  # exchange: mask -> v

    def text(self) -> str:
        return json.dumps(self.doc, separators=(",", ":")) + "\n"


def _amount(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _members(mask: int, n: int):
    return [i for i in range(n) if mask >> i & 1]


def agent_names(n: int) -> "list[str]":
    return [chr(ord("A") + i) for i in range(n)]


def pairwise_game(rng: random.Random, n: int):
    """Standalone costs c and pair synergies w (in twelfths) of a convex game."""
    costs = [rng.randrange(300, 901) for _ in range(n)]
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = rng.randrange(1, 25) * DENOM // rng.choice((1, 2, 3, 4))
    return costs, w


def pairwise_values(w, n: int) -> "list[int]":
    """v(S) in twelfths for every mask, by adding one agent at a time."""
    v = [0] * (1 << n)
    for mask in range(1, 1 << n):
        i = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        v[mask] = v[rest] + sum(w[i][j] for j in _members(rest, n))
    return v


def table_case(rng: random.Random, n: int, kind: str, name: str) -> Case:
    costs, w = pairwise_game(rng, n)
    twelfths = pairwise_values(w, n)
    values = [Fraction(x, DENOM) for x in twelfths]
    full = (1 << n) - 1
    phi = tuple(Fraction(sum(w[i]), 2 * DENOM) for i in range(n))
    witness, split, shapley = phi, None, phi
    if kind == "dip":
        i, j = sorted(rng.sample(range(n), 2))
        values[1 << i | 1 << j] = -Fraction(rng.randrange(1, 10))
        shapley = None
    elif kind == "empty":
        k = rng.randrange(n)
        split = full & ~(1 << k)
        values[full] = values[split] - 1
        witness = shapley = None
    names = agent_names(n)
    t_table, o_table = {}, {}
    for mask in range(1 << n):
        if mask.bit_count() < 2:
            continue
        key = ",".join(names[i] for i in _members(mask, n))
        total = sum(costs[i] for i in _members(mask, n))
        t_table[key] = total
        o_table[key] = _amount(total - values[mask])
    doc = {"agents": names, "tables": {"T": t_table, "O": o_table}}
    return Case(name, [], "analyze", doc, n, kind, values, shapley, witness, split)


def enforce_case(rng: random.Random, n: int, policy: str, name: str) -> Case:
    """Convex table game with a policy and a random prohibition margin.

    The halves policy promotes two disjoint halves and prohibits one pair
    across them and one pair nested inside the first half, so that half's
    subsidy is priced against a tax. The grand policy promotes everyone
    and prohibits one pair.
    """
    case = table_case(rng, n, "convex", name)
    names = case.doc["agents"]
    half = n // 2
    pairs = [sorted(rng.sample(range(half), 2))]
    if policy == "grand":
        promoted = [names]
    else:
        promoted = [names[:half], names[half:]]
        pairs.append([rng.randrange(half), rng.randrange(half, n)])
    case.policy = case.doc["policy"] = {
        "promoted": promoted,
        "prohibited": [[names[i] for i in p] for p in pairs],
    }
    case.epsilon = rng.choice((Fraction(1), Fraction(1, 2), Fraction(3, 4)))
    case.command = "enforce"
    case.argv = ["--epsilon", str(case.epsilon)]
    return case


def exchange_case(rng: random.Random, n: int, kind: str, name: str) -> Case:
    """Exchange file whose candidate routes are fixed by its shape.

    Ranges guarantee that every route's best-case saving beats its
    transaction cost, so the optimizer's route count, and with it the number
    of LP solves, depends only on n and the shape, never on the draw:

    - dense: one resource; every firm offers and demands it, so every
      ordered pair of firms is a candidate route.
    - sparse: two resources; firm i offers R[i % 2] and demands the other
      one. Only the ring routes i -> i+1 that match a resource are cheap;
      every other transaction cost exceeds any possible saving.
    """
    dense = kind == "dense"
    resources = ("steam",) if dense else ("slag", "steam")
    names = agent_names(n)
    offers, demands = [], []
    for i in range(n):
        offers.append((rng.randrange(5, 13), rng.randrange(4, 10)))
        demands.append((rng.randrange(5, 13), rng.randrange(6, 13), rng.randrange(0, 4)))
    offered = [resources[i % len(resources)] for i in range(n)]
    wanted = [resources[(i + 1) % len(resources)] for i in range(n)]
    streams = []
    for i in range(n):
        streams.append({"firm": names[i], "kind": "offer", "resource": offered[i],
                        "quantity": offers[i][0], "unit_discharge_cost": offers[i][1]})
        streams.append({"firm": names[i], "kind": "demand", "resource": wanted[i],
                        "quantity": demands[i][0], "unit_purchase_cost": demands[i][1],
                        "unit_treatment_cost": demands[i][2]})
    transport, transaction = [], []
    pair_saving = {}
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            cheap = dense or b == (a + 1) % n
            fixed = rng.randrange(1, 16) if cheap else 1000
            transaction.append({"from": names[a], "to": names[b], "cost": fixed})
            if offered[a] != wanted[b]:
                continue
            haul = rng.randrange(0, 4)
            transport.append({"from": names[a], "to": names[b], "resource": offered[a],
                              "cost": haul})
            if cheap:
                gain = offers[a][1] + demands[b][1] - demands[b][2] - haul
                pair_saving[(a, b)] = gain * min(offers[a][0], demands[b][0]) - fixed
    baseline = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        baseline[mask] = sum(
            offers[i][0] * offers[i][1] + demands[i][0] * demands[i][1]
            for i in _members(mask, n)
        )
    # A two-firm coalition has one stream pair per direction, and the two
    # directions share no stream, so its optimum activates each cheap route
    # on its own merit.
    pair_values = {}
    for a in range(n):
        for b in range(a + 1, n):
            pair_values[1 << a | 1 << b] = Fraction(sum(
                max(0, pair_saving.get(r, 0)) for r in ((a, b), (b, a))
            ))
    doc = {
        "agents": names,
        "exchange": {"streams": streams, "transport": transport, "transaction": transaction},
    }
    return Case(name, [], "analyze", doc, n, kind, baseline=baseline, pair_values=pair_values)


#: One pass of each workload: (generator arguments, count) in invocation
#: order. A pass takes 9-18 s on a 2-core machine, and a run makes two.
#: The counts put the median and the tail rank of a two-pass run inside a
#: group of many same-sized scenarios, not on the edge between two groups,
#: so the draw of one scenario cannot move either metric much; calls of a
#: second or more vary by 10% from one to the next, so the tail ranks fall
#: among short calls. manifest.json lists the next ladder rungs, which are
#: too slow for a run.
TABLES_ANALYZE = [
    ((3, "convex"), 6), ((3, "dip"), 1), ((3, "empty"), 1),
    ((4, "convex"), 6), ((4, "dip"), 1), ((4, "empty"), 1),
    ((5, "convex"), 34), ((5, "dip"), 3), ((5, "empty"), 3),
    ((6, "convex"), 1), ((6, "empty"), 1),
]
TABLES_ENFORCE = [
    ((10, "halves"), 4), ((10, "grand"), 8),
    ((11, "halves"), 1),
    ((12, "halves"), 1),
    ((13, "halves"), 1),
]
EXCHANGE_ANALYZE = [
    ((3, "sparse"), 6), ((4, "sparse"), 6), ((5, "sparse"), 10), ((6, "sparse"), 1),
    ((3, "dense"), 12), ((4, "dense"), 2),
]

WORKLOADS = {
    "tables-analyze": ("t", TABLES_ANALYZE, table_case),
    "tables-enforce": ("e", TABLES_ENFORCE, enforce_case),
    "exchange-analyze": ("x", EXCHANGE_ANALYZE, exchange_case),
}


def make_batch(workload: str, seed: int, pass_index: int = 0) -> "list[Case]":
    """Pass `pass_index` of a workload for one seed, in invocation order.

    Every pass has the same shape but fresh draws, so a longer run sees
    more distinct scenarios; a pass depends only on (workload, seed, pass).
    """
    prefix, shape, make = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    cases = []
    for (n, kind), count in shape:
        for k in range(count):
            cases.append(make(rng, n, kind, f"p{pass_index}-{prefix}{n}-{kind}-{k}"))
    return cases
