#!/usr/bin/env python3
"""Fairness (Shapley) and stability (core) can pull apart.

The running three-firm example has a nonempty core, but its Shapley
allocation is not in it: the fair split gives the pair {0,1} less than
the 10 they could grab on their own. A symmetric variant where every
pair is worth 10 but the grand coalition only 12 has no core at all.
Either way the collaboration is not implementable as-is.
"""

from symbio import ISNGame, core_nonempty, in_core, is_implementable, shapley

game = ISNGame.from_values(3, {(0, 1): 10, (0, 2): 4, (1, 2): 6, (0, 1, 2): 12})

phi = shapley(game)
print("fair split:", phi)
print("pair {0,1} gets", phi[0] + phi[1], "but could earn", game.value({0, 1}), "alone")

core = core_nonempty(game)
print("core nonempty:", core.nonempty, "witness:", core.witness)
print("witness is stable:", in_core(game, core.witness))
print("fair split is stable:", in_core(game, phi))
print("implementable (fair AND stable):", is_implementable(game))

print()
greedy_pairs = ISNGame.from_values(3, {(0, 1): 10, (0, 2): 10, (1, 2): 10, (0, 1, 2): 12})
print("symmetric variant, every pair worth 10, grand coalition 12:")
print("core nonempty:", core_nonempty(greedy_pairs).nonempty)
# any split x has two agents summing below 10 somewhere: 2*(x0+x1+x2) >= 30 > 24
print("implementable:", is_implementable(greedy_pairs))
