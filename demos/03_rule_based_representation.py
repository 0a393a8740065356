#!/usr/bin/env python3
"""Represent a game as rules and read allocations straight off them.

Each rule (positive pattern, negative pattern) -> value applies to a
coalition containing all positive and none of the negative agents; a
coalition is worth the sum of its applicable rules. The payoff side:
every rule has a closed-form Shapley allocation, and allocations add up
rule by rule, so no factorial enumeration is ever needed.
"""

from itertools import permutations

from symbio import ISNGame, evaluate, from_isn_game, net_shapley, rule_shapley

game = ISNGame.from_values(3, {(0, 1): 10, (0, 2): 4, (1, 2): 6, (0, 1, 2): 12})
net = from_isn_game(game)

print("rules of the canonical transformation:")
for rule in net.rules:
    print(f"  positive={sorted(rule.positive)} negative={sorted(rule.negative)} -> {rule.value}")

print("evaluating {0,1}:", evaluate(net, {0, 1}), "(only the first rule applies)")

print("per-rule Shapley shares:")
for rule in net.rules:
    print(f"  {sorted(rule.positive)}: {rule_shapley(rule, 3)}")

fast = net_shapley(net)
# the definition, for comparison: i's marginal worth averaged over all 3! orderings
orders = list(permutations(range(3)))
slow = tuple(
    sum(game.value(o[: o.index(i) + 1]) - game.value(o[: o.index(i)]) for o in orders) / len(orders)
    for i in range(3)
)
print("rule-wise total:   ", fast)
print("permutation oracle:", slow)
print("identical:", fast == slow)
