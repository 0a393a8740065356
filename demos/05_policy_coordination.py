#!/usr/bin/env python3
"""Make a desired collaboration viable with the smallest possible subsidy.

A regulator labels groups: promoted groups must become fair-and-stable,
prohibited ones must become strictly unprofitable. Labels are realized as
incentive rules targeting exactly the labeled group, so everything else
keeps its market worth. The subsidy synthesized for a promoted group is
minimal: shave off a thousandth and implementability breaks.
"""

from fractions import Fraction

from symbio import (
    CoordinatedGame,
    ISNGame,
    MCNet,
    MCNetRule,
    Policy,
    enforce_policy,
    is_implementable,
    shapley,
    subgame,
    synthesize_promotion,
)

game = ISNGame.from_values(3, {(0, 1): 10, (0, 2): 4, (1, 2): 6, (0, 1, 2): 12})

rule, subsidy = synthesize_promotion(game, {0, 1, 2})
print("minimal subsidy for the grand coalition:", subsidy)

coordinated = CoordinatedGame(game, MCNet(3, (rule,)))
print("coordinated worth of {0,1,2}:", coordinated.value({0, 1, 2}))
print("coordinated fair split:", shapley(coordinated))
print("now implementable:", is_implementable(subgame(coordinated, {0, 1, 2})))

shaved = MCNetRule(rule.positive, rule.negative, subsidy * Fraction(999, 1000))
nearly = CoordinatedGame(game, MCNet(3, (shaved,)))
print("with 999/1000 of the subsidy:", is_implementable(subgame(nearly, {0, 1, 2})))

print()
policy = Policy(promoted=[{0, 1, 2}], prohibited=[{0, 1}])
net = enforce_policy(game, policy, epsilon=1)
print("rules enforcing promote {0,1,2} / prohibit {0,1}:")
for r in net.rules:
    kind = "subsidy" if r.value > 0 else "tax"
    print(f"  {kind} {sorted(r.positive)} -> {r.value}")
both = CoordinatedGame(game, net)
print("prohibited pair now worth:", both.value({0, 1}), "(splitting up pays 0, so it dissolves)")
print("promoted group implementable:", is_implementable(subgame(both, {0, 1, 2})))
# No subsidy appears: taxing {0,1} removed the very outside option that made
# the fair split unstable, so the promotion came for free.
