"""Independent oracles and random generators shared by the test modules.

Everything here recomputes results from definitions (permutation averages,
vertex enumeration, integer grid search, constraint checks) without going
through the library code paths under test, so agreement is meaningful.
"""

import contextlib
import inspect
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

from symbio import lp, solutions
from symbio.errors import BoundExceeded
from symbio.exchange import ExchangeScenario, input_demand, t_value, waste_offer
from symbio.games import (
    ENUMERATION_BOUND, ISNGame, _check_agent_count, mask_of, members_of, subgame,
)
from symbio.lp import LPResult
from symbio.mcnets import MCNet, MCNetRule
from symbio.solutions import CoreResult


def perm_shapley(n_agents, value_fn):
    """Average marginal contribution over all orderings, from scratch.

    value_fn takes a frozenset of agent ids and is asked once per coalition;
    a nonzero empty-set value is respected (needed for rules with empty
    positive patterns).
    """
    worth = {}  # bitmask -> value_fn of its members

    def v(mask):
        if mask not in worth:
            worth[mask] = value_fn(frozenset(i for i in range(n_agents) if mask >> i & 1))
        return worth[mask]

    totals = [Fraction(0)] * n_agents
    count = 0
    for order in permutations(range(n_agents)):
        count += 1
        mask = 0
        for i in order:
            totals[i] += v(mask | 1 << i) - v(mask)
            mask |= 1 << i
    return tuple(t / count for t in totals)


def subset_shapley(n_agents, value_fn):
    """perm_shapley's average, with orderings counted instead of enumerated.

    The agents ahead of i form a coalition S without i in exactly
    |S|! (n - |S| - 1)! of the n! orderings, so i's share is the weighted
    sum of v(S + i) - v(S) over those S: n 2^(n-1) marginals, not n * n!.
    value_fn is as for perm_shapley.
    """
    weights = [
        Fraction(factorial(k) * factorial(n_agents - k - 1), factorial(n_agents))
        for k in range(n_agents)
    ]
    shares = []
    for i in range(n_agents):
        others = [j for j in range(n_agents) if j != i]
        total = Fraction(0)
        for mask in range(1 << len(others)):
            s = frozenset(j for k, j in enumerate(others) if mask >> k & 1)
            total += weights[len(s)] * (value_fn(s | {i}) - value_fn(s))
        shares.append(total)
    return tuple(shares)


def rule_indicator_value(rule):
    """Set function of a single rule, straight from the definition."""

    def value_fn(s):
        if rule.positive <= s and not (rule.negative & s):
            return rule.value
        return Fraction(0)

    return value_fn


def coalition_worth(x, members):
    return sum(x[i] for i in members)


def core_constraints_hold(game, x):
    """Direct check of efficiency and all coalition rationality constraints."""
    n = game.n_agents
    everyone = frozenset(range(n))
    if sum(x) != game.value(everyone):
        return False
    for mask in range(1, 1 << n):
        members = frozenset(i for i in range(n) if mask >> i & 1)
        if members == everyone:
            continue
        if coalition_worth(x, members) < game.value(members):
            return False
    return True


def core_nonempty_by_enumeration(game) -> CoreResult:
    """Independent core decision: try every potential vertex.

    The core is a bounded polyhedron, so if it is nonempty it has a vertex
    where the efficiency equality plus n-1 coalition constraints are tight.
    Solve each such square system exactly and test the candidate against
    all constraints. Exponential; meant as a cross-check oracle for small n.
    """
    n = game.n_agents
    vals = game.table
    full = (1 << n) - 1
    proper = [mask for mask in range(1, full)]
    eff_row = ([Fraction(1)] * n, vals[full])

    def feasible(x):
        if sum(x) != vals[full]:
            return False
        return all(
            sum(x[i] for i in range(n) if mask >> i & 1) >= vals[mask] for mask in proper
        )

    for tight in combinations(proper, n - 1):
        rows = [eff_row] + [
            ([Fraction(mask >> i & 1) for i in range(n)], vals[mask]) for mask in tight
        ]
        x = _solve_square([r[0] for r in rows], [r[1] for r in rows])
        if x is not None and feasible(x):
            return CoreResult(True, tuple(x))
    return CoreResult(False)


def balanced_weights_hold(n, value, weights):
    """Whether weights, (coalition, lambda) pairs, prove an n-agent game's
    core empty (Bondareva 1963, Shapley 1967): distinct nonempty coalitions
    of the roster, every lambda >= 0, the lambdas of the coalitions holding
    agent i summing to 1 for every i, and sum of lambda_S value(S) above
    value(N). value maps a frozenset of agent ids to a Fraction. Any core
    point x would give sum lambda_S x(S) = x(N) = value(N), yet at least
    sum lambda_S value(S). Fractions only, no symbio code."""
    everyone = frozenset(range(n))
    coalitions = [frozenset(s) for s, _ in weights]
    if len(set(coalitions)) < len(coalitions) or not all(s and s <= everyone for s in coalitions):
        return False
    lambdas = [Fraction(w) for _, w in weights]
    if any(w < 0 for w in lambdas):
        return False
    if any(sum(w for s, w in zip(coalitions, lambdas) if i in s) != 1 for i in range(n)):
        return False
    return sum(w * Fraction(value(s)) for s, w in zip(coalitions, lambdas)) > value(everyone)


def _solve_square(a, b):
    """Gaussian elimination over Fractions; None when singular."""
    n = len(b)
    m = [list(row) + [rhs] for row, rhs in zip(a, b, strict=True)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * p for v, p in zip(m[r], m[col], strict=True)]
    return [m[r][n] for r in range(n)]


def grid_plan_cost(scenario, members):
    """Minimum realized cost by integer grid search over shipments.

    Valid oracle for integer quantities: the shipment polytope has integer
    vertices, so some optimal plan is integral.
    """
    members = frozenset(members)
    pairs = []
    for oi, o in enumerate(scenario.streams):
        if o.kind != "offer" or o.firm not in members:
            continue
        for di, d in enumerate(scenario.streams):
            if (
                d.kind == "demand"
                and d.firm in members
                and d.resource == o.resource
                and d.firm != o.firm
            ):
                pairs.append((oi, di))
    caps = [
        int(min(scenario.streams[oi].quantity, scenario.streams[di].quantity))
        for oi, di in pairs
    ]
    best = t_value(scenario, members)
    for combo in product(*(range(c + 1) for c in caps)):
        shipped_out = {}
        shipped_in = {}
        for (oi, di), qty in zip(pairs, combo):
            shipped_out[oi] = shipped_out.get(oi, 0) + qty
            shipped_in[di] = shipped_in.get(di, 0) + qty
        if any(
            shipped_out[oi] > scenario.streams[oi].quantity for oi in shipped_out
        ) or any(shipped_in[di] > scenario.streams[di].quantity for di in shipped_in):
            continue
        cost = Fraction(0)
        active_routes = set()
        for (oi, di), qty in zip(pairs, combo):
            if qty == 0:
                continue
            o, d = scenario.streams[oi], scenario.streams[di]
            haul = scenario.transport[(o.firm, d.firm, o.resource)]
            cost += qty * (d.unit_treatment_cost + haul)
            active_routes.add((o.firm, d.firm))
        for a, b in active_routes:
            cost += scenario.transaction[(a, b)]
        for idx, s in enumerate(scenario.streams):
            if s.firm not in members:
                continue
            if s.kind == "offer":
                cost += (s.quantity - shipped_out.get(idx, 0)) * s.unit_discharge_cost
            else:
                cost += (s.quantity - shipped_in.get(idx, 0)) * s.unit_purchase_cost
        best = min(best, cost)
    return best


def compatible_pairs(scenario):
    """(offer, demand) stream index pairs of one resource at two firms, in
    ascending order, by comparing every offer with every stream; oracle for
    ExchangeScenario.links, the link list that validation and
    symbio.exchange._RouteSearch walk, the search bisecting each link's
    demand list so that it walks only the pairs that save."""
    streams = scenario.streams
    return [(oi, di) for oi, o in enumerate(streams) if o.kind == "offer"
            for di, d in enumerate(streams)
            if d.kind == "demand" and d.resource == o.resource and d.firm != o.firm]


def route_subset_game(scenario):
    """Exchange game by enumerating every subset of candidate routes.

    One exact LP per nonempty subset of the roster's candidate routes
    (2^m - 1 of them), each net saving credited to the firms it touches,
    then a superset-max pass: v(S) = max(0, best net of the subsets inside
    S). Oracle for symbio.exchange.scenario_to_game; raises BoundExceeded
    past ENUMERATION_BOUND candidate routes.
    """
    n = scenario.n_agents
    _check_agent_count(n)
    table = [0] * (1 << n)
    for mask, net in _route_subsets(scenario, range(n)):
        table[mask] = max(table[mask], net)
    for i in range(n):
        for mask in range(1 << n):
            if mask >> i & 1:
                table[mask] = max(table[mask], table[mask ^ 1 << i])
    return ISNGame.from_table(n, table)


def candidate_routes(scenario, members):
    """(by_route, candidates): every profitable (offer, demand, gain) pair
    among members by ordered firm pair, ascending, and the sorted pairs
    whose best-case saving beats their fixed transaction cost."""
    by_route = {}  # route -> [(offer_idx, demand_idx, gain)], ascending
    for oi, di in compatible_pairs(scenario):
        o, d = scenario.streams[oi], scenario.streams[di]
        if o.firm not in members or d.firm not in members:
            continue
        haul = scenario.transport[(o.firm, d.firm, o.resource)]
        gain = o.unit_discharge_cost + d.unit_purchase_cost - d.unit_treatment_cost - haul
        if gain > 0:
            by_route.setdefault((o.firm, d.firm), []).append((oi, di, gain))
    candidates = [route for route in sorted(by_route) if scenario.transaction[route] < sum(
        gain * min(scenario.streams[oi].quantity, scenario.streams[di].quantity)
        for oi, di, gain in by_route[route])]
    return by_route, candidates


def _route_subsets(scenario, members):
    """Yield (firm mask, net saving) once for each nonempty subset of the
    candidate routes among members."""
    by_route, candidates = candidate_routes(scenario, members)
    if len(candidates) > ENUMERATION_BOUND:
        raise BoundExceeded(f"{len(candidates)} candidate routes; route subsets are "
                            f"enumerated for at most {ENUMERATION_BOUND}")
    for chosen in range(1, 1 << len(candidates)):
        routes = [candidates[i] for i in range(len(candidates)) if chosen >> i & 1]
        variables = [pv for r in routes for pv in by_route[r]]
        net = route_saving(scenario, variables) - sum(scenario.transaction[r] for r in routes)
        yield mask_of(firm for route in routes for firm in route), net


def route_saving(scenario, variables):
    """Most total per-unit saving over stream capacity constraints, solved
    by fraction_solve_lp on the Fraction data, independent of the integer
    kernel the exchange search runs on."""
    gains = [g for _, _, g in variables]
    a_ub, b_ub = _stream_rows(scenario, variables, len(variables))
    return lp_fractions(fraction_solve_lp(gains, a_ub=a_ub, b_ub=b_ub, maximize=True)).objective


def _stream_rows(scenario, variables, width):
    """(a_ub, b_ub): a row of the given width per stream that the (offer,
    demand, gain) variables touch, in the order first touched, with a 1 in
    each of its variables' columns and the stream's quantity as its bound."""
    rows = {}  # stream index -> row of the constraint matrix
    a_ub, b_ub = [], []
    for k, (oi, di, _) in enumerate(variables):
        for idx in (oi, di):
            if idx not in rows:
                rows[idx] = len(a_ub)
                a_ub.append([0] * width)
                b_ub.append(scenario.streams[idx].quantity)
            a_ub[rows[idx]][k] = 1
    return a_ub, b_ub


def relaxation_net(scenario, fixed, free):
    """Best net saving of the branch and bound's relaxation with the
    routes (ordered firm pairs) fixed active and the activation y of those
    free relaxed, in its explicit form on the Fraction data: a column x
    per stream pair of every route and a column y per free route, a row
    per stream, a cap row x_k - cap_k y <= 0 per pair of a free route and
    a row y <= 1, solved by fraction_solve_lp, less the fixed routes'
    fees. Oracle for symbio.exchange._RouteSearch.best_shipments, whose
    one-pair routes are one column each and which has no y <= 1 rows."""
    by_route, _ = candidate_routes(scenario, range(scenario.n_agents))
    streams = scenario.streams
    variables = [v for r in fixed + free for v in by_route[r]]
    width = len(variables) + len(free)
    c = [gain for _, _, gain in variables] + [-scenario.transaction[r] for r in free]
    a_ub, b_ub = _stream_rows(scenario, variables, width)
    k = sum(len(by_route[r]) for r in fixed)
    for j, route in enumerate(free, start=len(variables)):
        for oi, di, _ in by_route[route]:
            row = [0] * width
            row[k], row[j] = 1, -min(streams[oi].quantity, streams[di].quantity)
            a_ub.append(row)
            b_ub.append(0)
            k += 1
        a_ub.append([int(i == j) for i in range(width)])
        b_ub.append(1)
    result = fraction_solve_lp(c, a_ub=a_ub, b_ub=b_ub, maximize=True)
    return lp_fractions(result).objective - sum(scenario.transaction[r] for r in fixed)


def random_game(rng, n, lo=-8, hi=20):
    """Normalized game with random small-denominator rational values."""
    values = {}
    for mask in range(1 << n):
        if mask.bit_count() < 2:
            continue
        members = frozenset(i for i in range(n) if mask >> i & 1)
        den = rng.choice([1, 1, 2, 3, 4])
        values[members] = Fraction(rng.randint(lo * den, hi * den), den)
    return ISNGame.from_values(n, values)


def fraction_check_superadditive(game):
    """symbio.games.check_superadditive as it was on Fractions, scanning every
    nonzero submask b of each a's complement, descending; oracle for the
    exact pair the integer scan returns."""
    n = game.n_agents
    val = game.table
    for a in range(1, 1 << n):
        rest = ((1 << n) - 1) & ~a
        b = rest
        # iterate nonzero submasks of the complement, descending
        while b:
            if val[a | b] < val[a] + val[b]:
                lo, hi = min(a, b), max(a, b)
                return (members_of(lo), members_of(hi))
            b = (b - 1) & rest
    return None


def supermodularity_violations(table, n):
    """Every (S, i, j), S a mask and i < j agents outside it, at which
    v(S+i+j) + v(S) < v(S+i) + v(S+j) on a mask-indexed table, in ascending
    (S, i, j) order; straight from the definition, on the table's own values."""
    found = []
    for s in range(1 << n):
        for i, j in combinations(range(n), 2):
            bi, bj = 1 << i, 1 << j
            if not s & (bi | bj) and table[s | bi | bj] + table[s] < table[s | bi] + table[s | bj]:
                found.append((s, i, j))
    return found


def convex_game(rng, n):
    """v(S) = the sum of nonnegative dividends c_C over a few random groups C
    of two or more agents inside S: each dividend adds c_C to every second
    difference within C, so the game is convex."""
    values = [Fraction(0)] * (1 << n)
    for _ in range(rng.randint(0, 2 * n) if n >= 2 else 0):
        group = mask_of(rng.sample(range(n), rng.randint(2, n)))
        dividend = Fraction(rng.randint(0, 30), rng.choice([1, 2, 3, 7]))
        for mask in range(1 << n):
            if mask & group == group:
                values[mask] += dividend
    return ISNGame.from_table(n, values)


def one_violation_game(rng, n):
    """(game, (S, i, j)): a pairwise game v(S) = sum of w_kl over pairs in S,
    distinct positive integer weights, with one coalition T that holds the
    lightest pair {i, j} lowered by w_ij + 1. Local supermodularity then
    fails at (T - i - j, i, j) alone: every other second difference with T
    on top has slack w_kl >= w_ij + 1, one with T at the bottom has at least
    w_kl - w_ij - 1 >= 0, and one with T in the middle only gains."""
    pairs = list(combinations(range(n), 2))
    w = dict(zip(pairs, rng.sample(range(1, 10 * len(pairs) + 1), len(pairs))))
    i, j = min(pairs, key=w.get)
    others = [k for k in range(n) if k not in (i, j)]
    t = mask_of([i, j, *rng.sample(others, rng.randint(0, len(others)))])
    values = {}
    for mask in range(1 << n):
        if mask.bit_count() >= 2:
            values[members_of(mask)] = sum(
                w[k, l] for k, l in pairs if mask >> k & 1 and mask >> l & 1
            ) - (w[i, j] + 1 if mask == t else 0)
    return ISNGame.from_values(n, values), (t & ~(1 << i | 1 << j), i, j)


def fraction_promotion_amount(game, target):
    """synthesize_promotion's subsidy by its former Fraction gap loop, with the
    subgame's Shapley value averaged over orderings (perm_shapley)."""
    sub = subgame(game, target)
    phi = perm_shapley(sub.n_agents, sub.value)
    k = sub.n_agents
    needed = Fraction(0)
    for mask in range(1, (1 << k) - 1):
        size = mask.bit_count()
        share = sum(phi[i] for i in range(k) if mask >> i & 1)
        gap = (sub.table[mask] - share) * Fraction(k, size)
        if gap > needed:
            needed = gap
    return needed


def mixed_amount(rng, lo, hi):
    """Random rational in [lo, hi] over a denominator of 1, 7, 11, 13 or 100,
    or now and then over a 999-digit one (a 1000-digit value)."""
    den = rng.choice([1, 7, 11, 13, 100, 100, 10**998 + rng.randrange(10**6)])
    return Fraction(rng.randint(lo * den, hi * den), den)


def mixed_game(rng, n):
    """Pairwise game v(S) = sum of w_ij over the pairs in S, on sparse pair
    weights (a few negative) over mixed denominators (mixed_amount); then up
    to three coalitions, in ascending order, are either lowered at random or
    set to their best part max_i v(S - i): where v was monotone, only a
    split of S into two parts of two or more agents can then violate
    superadditivity at S."""
    w = {}
    for pair in combinations(range(n), 2):
        draw = rng.random()
        w[pair] = (Fraction(0) if draw < 0.5 else -mixed_amount(rng, 0, 4) if draw < 0.55
                   else mixed_amount(rng, 0, 12))
    values = {}
    for mask in range(1 << n):
        if mask.bit_count() >= 2:
            members = sorted(members_of(mask))
            values[mask] = sum(w[i, j] for k, i in enumerate(members) for j in members[k + 1:])
    for mask in sorted(rng.sample(sorted(values), min(len(values), rng.randint(0, 3)))):
        if rng.random() < 0.5:
            values[mask] -= mixed_amount(rng, 0, 10)
        else:
            values[mask] = max(values.get(mask & ~(1 << i), 0) for i in members_of(mask))
    return ISNGame.from_values(n, {members_of(mask): v for mask, v in values.items()})


def random_net(rng, n):
    """Up to four rules with random patterns, empty ones included, so rules
    may apply to the empty set and to singletons."""
    rules = []
    for _ in range(rng.randint(0, 4)):
        pos = set(rng.sample(range(n), rng.randint(0, n)))
        rest = [i for i in range(n) if i not in pos]
        neg = set(rng.sample(rest, rng.randint(0, len(rest))))
        if not (pos | neg) or neg == set(range(n)):
            continue
        value = Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3]))
        if value == 0:
            continue
        rules.append(MCNetRule(pos, neg, value))
    return MCNet(n, tuple(rules))


def random_scenario(rng, n, resources=("r", "s"), max_qty=10, denominators=None):
    """Exchange scenario; every firm gets 1-2 streams. Amounts are ints, or
    with denominators each drawn int is a numerator over one of them, drawn
    too (the int draws are the same either way)."""
    def draw(lo, hi):
        k = rng.randint(lo, hi)
        return k if denominators is None else Fraction(k, rng.choice(denominators))

    streams = []
    for firm in range(n):
        for _ in range(rng.randint(1, 2)):
            resource = rng.choice(resources)
            qty = draw(0, max_qty)
            if rng.random() < 0.5:
                streams.append(waste_offer(firm, resource, qty, draw(0, 9)))
            else:
                streams.append(input_demand(firm, resource, qty, draw(0, 9), draw(0, 5)))
    transport = {
        (a, b, r): draw(0, 5)
        for a in range(n)
        for b in range(n)
        if a != b
        for r in resources
    }
    transaction = {
        (a, b): draw(0, 15) for a in range(n) for b in range(n) if a != b
    }
    return ExchangeScenario(
        n_agents=n, streams=tuple(streams), transport=transport, transaction=transaction
    )


def dense_scenario(n):
    """One resource that every firm both offers and demands, with cheap
    transactions: all n (n - 1) ordered firm pairs are candidate routes."""
    streams = []
    for firm in range(n):
        streams += [waste_offer(firm, "steam", 10, 5), input_demand(firm, "steam", 10, 7, 1)]
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    return ExchangeScenario(
        n_agents=n,
        streams=tuple(streams),
        transport={(a, b, "steam"): 1 for a, b in pairs},
        transaction={pair: 2 + sum(pair) for pair in pairs},
    )


def fraction_solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), *, maximize=False,
                      surplus=0) -> LPResult:
    """Optimize c.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Oracle for symbio.lp.solve_lp: the same two-phase Bland-rule simplex,
    run on a tableau of Fractions. Minimizes unless maximize=True. All
    inputs are coerced to Fraction; right-hand sides may be negative, and
    then phase one runs, as the core LP once did (phase_one_core_lp).
    surplus=k writes solve_lp's surplus columns out as dense structural
    columns after x, one per <= row r < k with -1 in that row, which the
    objective charges 1 either way (subtracted from a maximum, added to a
    minimum). Values come back as solve_lp's (num, den) pairs, here in
    lowest terms, x without the surplus columns. When no row needs an
    artificial, dual holds each row's slack's reduced cost in the final
    cost row of the minimum; with maximize=True, the maximum's row prices.
    """
    c = [Fraction(v) for v in c]
    if maximize:
        c = [-v for v in c]
    n_x = len(c)
    c += [Fraction(1)] * surplus
    a_ub = [[*coeffs, *(-Fraction(r == t) for t in range(surplus))]
            for r, coeffs in enumerate(a_ub)]
    a_eq = [[*coeffs, *[0] * surplus] for coeffs in a_eq]
    n = len(c)

    rows = []  # (coeffs, rhs, needs_slack)
    for coeffs, rhs in zip(a_ub, b_ub, strict=True):
        coeffs = [Fraction(v) for v in coeffs]
        if len(coeffs) != n:
            raise ValueError("constraint width does not match objective")
        rows.append((coeffs, Fraction(rhs), True))
    for coeffs, rhs in zip(a_eq, b_eq, strict=True):
        coeffs = [Fraction(v) for v in coeffs]
        if len(coeffs) != n:
            raise ValueError("constraint width does not match objective")
        rows.append((coeffs, Fraction(rhs), False))

    m = len(rows)
    n_slack = sum(1 for _, _, s in rows if s)

    # Column layout: structural | slack | artificial | rhs.
    tableau = []
    basis = []
    artificial_rows = []
    slack_at = 0
    for coeffs, rhs, needs_slack in rows:
        row = coeffs + [Fraction(0)] * n_slack + [rhs]
        if needs_slack:
            row[n + slack_at] = Fraction(1)
            slack_col = n + slack_at
            slack_at += 1
        else:
            slack_col = None
        if row[-1] < 0:
            row = [-v for v in row]
        if needs_slack and row[n + slack_at - 1] == 1:
            basis.append(slack_col)
        else:
            basis.append(None)  # placeholder, gets an artificial below
            artificial_rows.append(len(tableau))
        tableau.append(row)

    n_art = len(artificial_rows)
    width = n + n_slack + n_art
    for row in tableau:
        rhs = row.pop()
        row.extend([Fraction(0)] * n_art)
        row.append(rhs)
    for k, i in enumerate(artificial_rows):
        tableau[i][n + n_slack + k] = Fraction(1)
        basis[i] = n + n_slack + k

    if n_art:
        cost1 = [Fraction(0)] * (width + 1)
        for k in range(n_art):
            cost1[n + n_slack + k] = Fraction(1)
        obj = _reduced_row(cost1, tableau, basis)
        _pivot_until_optimal(tableau, basis, obj, width)
        if -obj[-1] != 0:  # leftover artificial infeasibility
            return LPResult("infeasible")
        _drive_out_artificials(tableau, basis, n + n_slack)
        width = n + n_slack
        tableau = [row[:width] + [row[-1]] for row in tableau]

    cost2 = c + [Fraction(0)] * (width - n) + [Fraction(0)]
    obj = _reduced_row(cost2, tableau, basis)
    if not _pivot_until_optimal(tableau, basis, obj, width):
        return LPResult("unbounded")

    x = [Fraction(0)] * n_x
    for i, b in enumerate(basis):
        if b is not None and b < n_x:
            x[b] = tableau[i][-1]
    value = -obj[-1]
    if maximize:
        value = -value
    dual = None if n_art else tuple(obj[n + r].as_integer_ratio() for r in range(n_slack))
    return LPResult("optimal", tuple(v.as_integer_ratio() for v in x), value.as_integer_ratio(),
                    dual)


def lp_fractions(result) -> LPResult:
    """result with its (num, den) pairs as Fractions, to compare values;
    dual, which takes no part in ==, too."""
    if result.x is None:
        return result
    dual = None if result.dual is None else tuple(Fraction(*v) for v in result.dual)
    return LPResult(result.status, tuple(Fraction(*v) for v in result.x),
                    Fraction(*result.objective), dual)


def _reduced_row(cost, tableau, basis):
    """Cost row with basic columns zeroed; last cell holds -objective."""
    obj = list(cost)
    for i, b in enumerate(basis):
        if b is None or obj[b] == 0:
            continue
        factor = obj[b]
        row = tableau[i]
        for j in range(len(obj)):
            obj[j] -= factor * row[j]
    return obj


def _pivot_until_optimal(tableau, basis, obj, width) -> bool:
    """Run Bland-rule pivots in place; False means unbounded."""
    while True:
        col = next((j for j in range(width) if obj[j] < 0), None)
        if col is None:
            return True
        row = None
        best = None
        for i, trow in enumerate(tableau):
            a = trow[col]
            if a <= 0:
                continue
            ratio = trow[-1] / a
            if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                best, row = ratio, i
        if row is None:
            return False
        _pivot(tableau, basis, obj, row, col)


def _pivot(tableau, basis, obj, row, col):
    prow = tableau[row]
    inv = 1 / prow[col]
    tableau[row] = prow = [v * inv for v in prow]
    basis[row] = col
    for target in tableau:
        if target is prow:
            continue
        factor = target[col]
        if factor == 0:
            continue
        for j in range(len(target)):
            target[j] -= factor * prow[j]
    factor = obj[col]
    if factor != 0:
        for j in range(len(obj)):
            obj[j] -= factor * prow[j]


def _drive_out_artificials(tableau, basis, real_width):
    """Pivot zero-level artificials onto real columns; drop redundant rows."""
    i = 0
    while i < len(tableau):
        if basis[i] < real_width:
            i += 1
            continue
        col = next((j for j in range(real_width) if tableau[i][j] != 0), None)
        if col is None:
            del tableau[i]
            del basis[i]
            continue
        _pivot(tableau, basis, [Fraction(0)] * (len(tableau[i])), i, col)
        i += 1


def traced_pivots(module, call):
    """call()'s result, and (row, column, leaving column, pivot element,
    stored row length) for every pivot module._pivot made meanwhile, in order.

    module is symbio.lp or this module (the oracle above). The oracle
    numbers columns structural | slack | artificial, symbio.lp structural |
    surplus | slack; on the surplus form written out (fraction_solve_lp's
    surplus) or on the phase-one LP whose rows it reads as <= rows
    (phase_one_core_lp), the numbers name the same columns, so all but the
    lengths compare directly. The pivot element is the entering column's
    true value in the pivot row: read off the oracle's full tableau, or
    through symbio.lp's dictionary (lp_entry), whose rows store only n
    nonbasic columns plus rhs and scale.
    """
    pivots = []
    pivot = module._pivot

    def spy(tableau, basis, obj, row, entering):
        if module is lp:  # entering is lp._entering's (col, j, sign)
            col, element = entering[0], lp_entry(tableau, row, entering)
        else:
            col, element = entering, tableau[row][entering]
        pivots.append((row, col, basis[row], element, len(tableau[row])))
        pivot(tableau, basis, obj, row, entering)

    module._pivot = spy
    try:
        return call(), pivots
    finally:
        module._pivot = pivot


def traced_solves(call):
    """call()'s result, and (arguments, pivots) for each solve_lp call that
    symbio.solutions made meanwhile, in order: the call's arguments by
    name, defaults included, and its traced_pivots."""
    solve, solves = solutions.solve_lp, []

    def spy(*args, **kwargs):
        arguments = inspect.signature(solve).bind(*args, **kwargs)
        arguments.apply_defaults()
        result, pivots = traced_pivots(lp, lambda: solve(*args, **kwargs))
        solves.append((arguments.arguments, pivots))
        return result

    solutions.solve_lp = spy
    try:
        return call(), solves
    finally:
        solutions.solve_lp = solve


def traced_oracle(call):
    """traced_pivots(helpers, call), and how many of those pivots the
    oracle's drive-out of zero-level artificials (_drive_out_artificials,
    after phase one) made."""
    global _drive_out_artificials
    drive_out, made = _drive_out_artificials, []

    def spy(tableau, basis, real_width):
        global _pivot
        pivot = _pivot

        def counted(*args):
            made.append(args)
            pivot(*args)

        _pivot = counted
        try:
            drive_out(tableau, basis, real_width)
        finally:
            _pivot = pivot

    _drive_out_artificials = spy
    try:
        result, pivots = traced_pivots(sys.modules[__name__], call)
    finally:
        _drive_out_artificials = drive_out
    return result, pivots, len(made)


def lp_entry(tableau, row, entering):
    """The true value in row of a symbio.lp dictionary (its module
    docstring) of the entering column, lp._entering's (col, j, sign): sign
    times the cell in slot j, over the row's scale."""
    _, j, sign = entering
    return Fraction(sign * tableau[row][j], tableau[row][-1])


def mirrored_pairs(n, surplus):
    """{slack column: surplus column} for solve_lp with n variables and
    surplus=k: slack n + k + r is read off surplus n + r (symbio.lp's
    module docstring)."""
    return {n + surplus + r: n + r for r in range(surplus)}


def phase_one_core_lp(game):
    """The feasibility LP that symbio.solutions.core_nonempty once solved
    by phase one, as fraction_solve_lp's arguments: c = 0 over the slack y
    above singleton worths, -y(S) <= -floor for each proper coalition S
    worth floor > 0 more than its members alone, in mask order, and
    y(N) = budget; None when the budget is negative and no LP runs. Its
    artificials sit where core_nonempty's slacks do and its slacks where
    the surpluses do, so phase one's pivots are those of the surplus form."""
    n = game.n_agents
    full = (1 << n) - 1
    vals = game.scaled
    alone = [sum(vals[1 << i] for i in range(n) if mask >> i & 1) for mask in range(full + 1)]
    if vals[full] < alone[full]:
        return None
    floors = [(mask, vals[mask] - alone[mask]) for mask in range(1, full)
              if vals[mask] > alone[mask]]
    return ([0] * n, [[-(mask >> i & 1) for i in range(n)] for mask, _ in floors],
            [-floor for _, floor in floors], [[1] * n], [vals[full] - alone[full]])


@contextlib.contextmanager
def fractions_made(tag=lambda: True):
    """A list that gets tag() for each Fraction made in the block.

    The spy sits on Fraction.__new__ itself: a spy on a module's name for
    the class would miss the Fractions that Fraction arithmetic makes,
    which never looks that name up.
    """
    made = []
    original_new = Fraction.__dict__["__new__"]

    def counting_new(cls, *args, **kwargs):
        made.append(tag())
        return original_new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        yield made
    finally:
        Fraction.__new__ = original_new  # the staticmethod itself, as it was
    assert Fraction.__dict__["__new__"] is original_new
