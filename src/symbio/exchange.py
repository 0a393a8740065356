"""Firm-level resource exchange model.

Firms post waste offers and input demands. A coalition realizes savings by
shipping offered waste into matching demands, paying treatment, transport
and a fixed transaction cost per activated firm pair, instead of paying to
discharge the waste and purchase virgin inputs. The baseline cost of a
coalition (no exchange at all) and the minimized realized cost define the
coalition's worth: baseline minus optimum.

Plan optimization is a fixed-charge transportation problem, solved
exactly by Land-Doig branch and bound over route activation (Balinski
1961). A route is an ordered firm pair that can save. Its net saving
alone is the sum of gain times cap less its fee when its stream pairs
share no stream, and one LP otherwise; unprofitable routes are dropped,
and the sum of the others' net savings bounds any route set, exactly so
when no two share a stream. In the branch and bound's relaxation a free
route with one stream pair is one column, its activation, with no cap
row (_RouteSearch.best_shipments). Only each search's root relaxation is
solved cold; every other node re-enters its parent's optimal dictionary,
one column changed (lp's with_cost for a route made active, with_zero for
one dropped), at about one pivot where a cold solve takes over ten on a
dense file. Routes settled alone and a plan's final shipments are solved
cold. When no two of the roster's routes share a stream (_disjoint),
scenario_to_game writes every coalition's worth, the sum of its routes'
nets, in one pass with no search; otherwise it searches each coalition in
ascending mask order, with the best worth of its coalitions one firm
smaller as the incumbent, and reads only LP optima. Only
optimal_exchange_plan turns shipments into plans. A call solves at most
2**ENUMERATION_BOUND LPs, a re-entry counting as one, and takes at most
PAIR_BOUND profitable (offer, demand) stream pairs, each an LP column; it
raises BoundExceeded past either, the pair bound before any LP.

A search works on one integer scale: quantities are ints over lq, the lcm
of the denominators of the streams in profitable pairs, and per-unit gains
and fees over lg, that of those pairs' worths and costs and their routes'
fees, so every LP row, net saving, bound and incumbent is an int (savings
over lg*lq; a relaxation's net is floored off solve_lp's (num, den)
pair), and so is scenario_to_game's table. An integral node's optimum is
whole: with each route's activation fixed at 0 or 1 the shipments are a
vertex of a transportation polytope over int data. Only
optimal_exchange_plan divides back. Each LP is the rational one with
shipments counted in units of 1/lq and its objective times lg*lq;
positive factors change no sign and no ratio order, so Bland's rule makes
the same pivots.

The profitable stream pairs (an offer and a demand of one resource at two
firms, saving per unit) are found once per scenario, in
ExchangeScenario.links. A link is an offer and another firm's demands for
its resource, ranked by worth (purchase minus treatment cost), one tuple
per (firm, resource) that every link reaching it shares. As it validates
each link, the scenario bisects that tuple once, exactly, for the demands
worth more than the link's cost (haul minus discharge), and keeps the
links with one; a pair's gain is its worth less that cost. A search keeps
the links inside its coalition and walks only their saving demands, so
the worths and costs of pairs that do not save never reach lg. Each route
keeps its pairs in ascending (offer, demand) order: the LP column order,
which fixes every pivot and plan. Quantities are divisible; all math is
exact.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import partial
from math import lcm
from operator import add

from .errors import BoundExceeded, SymbioError
from .games import (
    ENUMERATION_BOUND, ISNGame, _check_agent_count, _sums, as_money, check_roster, coalition,
    mask_of,
)
from .lp import solve_lp
from .records import Record

OFFER = "offer"
DEMAND = "demand"

#: Most profitable (offer, demand) stream pairs one search takes; each is an
#: LP column, and one route's pairs are all solved in one LP.
PAIR_BOUND = 256

#: The cost fields a stream of each kind carries.
STREAM_COSTS = {
    OFFER: ("unit_discharge_cost",),
    DEMAND: ("unit_purchase_cost", "unit_treatment_cost"),
}


class ResourceStream(Record):
    """One firm's offered waste or demanded input for a single resource.

    Offers carry the per-unit discharge cost avoided when the waste is shipped
    instead of dumped. Demands carry the per-unit purchase cost of the virgin
    input they would otherwise buy plus the per-unit treatment cost of making
    received waste usable. Amounts are coerced by as_money, so a binary float
    raises TypeError; any firm builds, and the scenario taking the stream checks it.
    """

    _shown = _compared = ("firm", "resource", "kind", "quantity", "unit_discharge_cost",
                          "unit_purchase_cost", "unit_treatment_cost")

    def __init__(self, firm: int, resource: str, kind: str, quantity: Fraction,
                 unit_discharge_cost: "Fraction | None" = None,
                 unit_purchase_cost: "Fraction | None" = None,
                 unit_treatment_cost: "Fraction | None" = None):
        if kind not in (OFFER, DEMAND):
            raise SymbioError(f"stream kind must be offer or demand, got {kind!r}")
        amounts = {"quantity": quantity, "unit_discharge_cost": unit_discharge_cost,
                   "unit_purchase_cost": unit_purchase_cost,
                   "unit_treatment_cost": unit_treatment_cost}
        carried = STREAM_COSTS[kind]
        for name in STREAM_COSTS[OFFER] + STREAM_COSTS[DEMAND]:
            if (amounts[name] is None) == (name in carried):
                raise SymbioError(f"{kind}s carry exactly {' and '.join(carried)}")
        for name in ("quantity",) + carried:
            amount = amounts[name] = as_money(amounts[name])
            if amount.numerator < 0:
                raise SymbioError(f"stream {name} must be >= 0")
        self.__dict__.update(firm=firm, resource=resource, kind=kind, **amounts)


def waste_offer(firm: int, resource: str, quantity, unit_discharge_cost) -> ResourceStream:
    return ResourceStream(firm, resource, OFFER, quantity, unit_discharge_cost=unit_discharge_cost)


def input_demand(
    firm: int, resource: str, quantity, unit_purchase_cost, unit_treatment_cost
) -> ResourceStream:
    return ResourceStream(
        firm,
        resource,
        DEMAND,
        quantity,
        unit_purchase_cost=unit_purchase_cost,
        unit_treatment_cost=unit_treatment_cost,
    )


class Shipment(Record):
    _shown = _compared = ("from_firm", "to_firm", "resource", "quantity")

    def __init__(self, from_firm: int, to_firm: int, resource: str, quantity: Fraction):
        self.__dict__.update(from_firm=from_firm, to_firm=to_firm, resource=resource,
                             quantity=quantity)

    def key(self):
        return (self.from_firm, self.to_firm, self.resource, self.quantity)


class ExchangePlan(Record):
    """Shipments of one coalition's realized exchange, sorted by route."""

    _shown = _compared = ("shipments",)

    def __init__(self, shipments: "tuple[Shipment, ...]"):
        self.__dict__.update(shipments=shipments)

    def key(self):
        return tuple(s.key() for s in self.shipments)


EMPTY_PLAN = ExchangePlan(())


class ExchangeScenario(Record):
    """Streams plus per-unit transport and fixed per-pair transaction costs.

    transport maps (from_firm, to_firm, resource) to a per-unit cost and
    transaction maps (from_firm, to_firm) to a fixed cost charged once per
    activated ordered pair. Both must cover every pair of distinct firms
    with a matching offer/demand resource. Treat instances as immutable.
    Streams must be ResourceStreams and route keys tuples of that shape.
    The roster's size, every stream's firm and then each route key's two
    firms go to one games.check_roster, which names the first bad id given
    or the smallest firm off the roster.

    `links`, neither compared nor shown, holds the roster's links that save,
    found once: (offer, demand firm, cost, worths, ranked demands, start),
    cost = haul - discharge and the demands from start on worth more; each
    _RouteSearch keeps those inside its coalition, and its lg covers their
    saving pairs' worths and costs.
    """

    _shown = _compared = ("n_agents", "streams", "transport", "transaction")

    def __init__(self, n_agents: int, streams: "tuple[ResourceStream, ...]",
                 transport: Mapping, transaction: Mapping):
        self.__dict__.update(
            n_agents=n_agents, streams=tuple(streams),
            transport={k: as_money(v) for k, v in transport.items()},
            transaction={k: as_money(v) for k, v in transaction.items()})
        ids = []  # every firm the scenario keeps: the streams', then each route's two
        for s in self.streams:
            if not isinstance(s, ResourceStream):
                raise SymbioError(f"scenario streams must be ResourceStream objects, got {s!r}")
            ids.append(s.firm)
        for name, width, shape in (("transport", 3, "(from, to, resource)"),
                                   ("transaction", 2, "(from, to)")):
            for key in getattr(self, name):
                if type(key) is not tuple or len(key) != width:
                    raise SymbioError(f"{name} keys must be {shape} tuples, got {key!r}")
                ids += key[:2]
        check_roster(ids, n_agents)
        # a negative cost names its route, as a missing one does
        for name in "transport", "transaction":
            for key, cost in getattr(self, name).items():
                if cost.numerator < 0:
                    shown = f" for resource {key[2]!r}" if name == "transport" else ""
                    shown = shown.replace("{", "{{").replace("}", "}}")
                    raise SymbioError(f"{name} cost from {{}} to {{}}{shown} must be >= 0",
                                      {key[0]}, {key[1]})
        # links come offer by offer, each one's demand firms in the order of
        # their first demand, so the fault named is that of the first
        # compatible pair
        links = []
        for oi, to, worths, dis in self._links():
            o = self.streams[oi]
            haul = self.transport.get((o.firm, to, o.resource))
            if haul is None:
                shown = repr(o.resource).replace("{", "{{").replace("}", "}}")
                raise SymbioError(
                    f"missing transport cost from {{}} to {{}} for resource {shown}", {o.firm}, {to}
                )
            if (o.firm, to) not in self.transaction:
                raise SymbioError("missing transaction cost from {} to {}", {o.firm}, {to})
            cost = haul - o.unit_discharge_cost
            start = bisect_right(worths, cost)
            if start < len(dis):
                links.append((oi, to, cost, worths, dis, start))
        self.__dict__["links"] = tuple(links)

    def _links(self) -> list:
        """(offer index, demand firm, worths, demand indices) for each
        offer, in index order, and each other firm demanding its resource,
        in the order of that firm's first such demand. One firm's demands
        for one resource are one tuple of indices, ranked by worth per unit
        received (purchase less treatment cost, a Fraction; ties in index
        order) beside the tuple of their worths, both shared by every link
        that reaches them. Only the demands for an offered resource are
        ranked."""
        offered = {o.resource for o in self.streams if o.kind == OFFER}
        demands = {}  # resource -> {firm: [(worth, index)] of its demands for it}
        for di, d in enumerate(self.streams):
            if d.kind == DEMAND and d.resource in offered:
                demands.setdefault(d.resource, {}).setdefault(d.firm, []).append(
                    (d.unit_purchase_cost - d.unit_treatment_cost, di))
        for firms in demands.values():
            for b, ranked in firms.items():
                firms[b] = tuple(zip(*sorted(ranked)))  # (worths, indices)
        return [(oi, b, worths, dis) for oi, o in enumerate(self.streams)
                if o.kind == OFFER and o.resource in demands
                for b, (worths, dis) in demands[o.resource].items() if b != o.firm]


def t_value(scenario: ExchangeScenario, s: Iterable[int]) -> Fraction:
    """Baseline cost of a coalition: discharge every offer, buy every demand."""
    members = check_roster(s, scenario.n_agents)
    total = Fraction(0)
    for stream in scenario.streams:
        if stream.firm not in members:
            continue
        if stream.kind == OFFER:
            total += stream.quantity * stream.unit_discharge_cost
        else:
            total += stream.quantity * stream.unit_purchase_cost
    return total


def optimal_exchange_plan(scenario: ExchangeScenario, s: Iterable[int]):
    """Cheapest realized plan for a coalition: returns (plan, cost).

    cost = shipping (treatment + transport) + transaction fixed costs of
    activated pairs + residual discharge/purchase of unshipped quantities.
    The empty plan is always feasible, so cost <= t_value(scenario, s).
    The plan ships along the route set _RouteSearch.best returns, whose
    tie rule keeps outputs deterministic; a zero saving ships nothing.
    """
    members = coalition(s)
    baseline = t_value(scenario, members)  # checks the roster
    search = _RouteSearch(scenario, members)
    net, routes = search.best(search.routes, 0)
    if routes is None:
        return EMPTY_PLAN, baseline
    lp, _, _ = search.best_shipments(routes)
    plan = _plan(scenario, [v for r in routes for v in r.variables], lp.x, search.lq)
    return plan, baseline - Fraction(net, search.scale)


#: A profitable ordered firm pair: the pair, its two firms as a mask, its
#: (offer, demand, gain, cap) stream pairs, ascending, the stream indices
#: they touch, the fixed transaction cost and the best net saving of the
#: route alone. Routes sort by pair, which is unique. Amounts are ints on
#: the search's scale.
_Route = namedtuple("_Route", "pair mask variables streams fee net", defaults=(0,))


def _lcm(amounts) -> int:
    """The lcm of the denominators of Fractions (1 for none)."""
    return lcm(*{a.denominator for a in amounts})


def _over(amount, d: int) -> int:
    """amount * d, for a Fraction amount whose denominator divides d."""
    return amount.numerator * (d // amount.denominator)


class _RouteSearch:
    """Exact route-activation search over one coalition's routes.

    Amounts are ints: quantities and caps over lq, per-unit gains over lg,
    and fees, net savings and LP objectives over scale = lg * lq. lg covers
    only the members' profitable pairs: their worths, their links' costs
    and their routes' fees; lq only those pairs' quantities. A pair's gain
    is its worth less its cost.

    A route is an ordered firm pair with a stream pair that saves per unit
    and a best-case saving (the sum of gain times cap) above its fee. Its
    net saving alone, net_r, is that sum less the fee when no two of its
    pairs share a stream, and one LP otherwise; only routes with net_r > 0
    are kept: restricting a feasible shipment vector to some of its routes
    keeps it feasible, so net savings are subadditive over route sets, and
    a route with net_r <= 0 never helps. The same argument makes the sum of
    net_r an upper bound on any subset's saving, exact when the routes
    share no stream. All LPs of one search, cold solves and re-entries,
    count against one budget of 2**ENUMERATION_BOUND (_spend); the next
    raises BoundExceeded. So does a coalition with more than PAIR_BOUND
    profitable stream pairs, before any LP: a route may be solved alone as
    one LP with a column per pair.
    """

    def __init__(self, scenario, members):
        self.lps_left = 2**ENUMERATION_BOUND
        streams = scenario.streams
        by_route = {}  # pair -> [(offer, demand, worth, cost)] that save, ascending
        width = 0  # profitable pairs so far
        for oi, b, cost, worths, dis, start in scenario.links:
            a = streams[oi].firm
            if a not in members or b not in members:
                continue
            width += len(dis) - start
            if width > PAIR_BOUND:
                raise BoundExceeded(f"the exchange has more than {PAIR_BOUND} profitable "
                                    f"(offer, demand) stream pairs")
            by_route.setdefault((a, b), []).extend(
                (oi, di, worth, cost) for di, worth in sorted(zip(dis[start:], worths[start:])))
        lg = _lcm([amount for found in by_route.values() for _, _, worth, cost in found
                   for amount in (worth, cost)]
                  + [scenario.transaction[pair] for pair in by_route])
        # only caps and LP rows read quantities: those of profitable pairs' streams
        paired = {i for found in by_route.values() for oi, di, _, _ in found for i in (oi, di)}
        self.lq = lq = _lcm(streams[i].quantity for i in paired)
        self.scale = lg * lq
        self.quantity = quantity = {i: _over(streams[i].quantity, lq) for i in paired}
        self.routes = []
        for pair, found in sorted(by_route.items()):
            variables = [(oi, di, _over(worth, lg) - _over(cost, lg),
                          min(quantity[oi], quantity[di])) for oi, di, worth, cost in found]
            fee = _over(scenario.transaction[pair], lg) * lq
            best_case = sum(gain * cap for _, _, gain, cap in variables)
            if fee >= best_case:
                continue
            touched = frozenset(idx for oi, di, _, _ in variables for idx in (oi, di))
            route = _Route(pair, mask_of(pair), tuple(variables), touched, fee)
            if len(touched) == 2 * len(variables):  # each pair ships its cap
                net = best_case - fee
            else:
                net = self.best_shipments((route,))[1]
            if net > 0:
                self.routes.append(route._replace(net=net))

    def _spend(self):
        """Count one LP, cold or re-entered, against the budget."""
        if not self.lps_left:
            raise BoundExceeded(f"the exchange optimizer solved its budget of "
                                f"{2**ENUMERATION_BOUND} LPs (2^{ENUMERATION_BOUND}) "
                                f"without finishing")
        self.lps_left -= 1

    def best_shipments(self, fixed, free=()):
        """Maximize net saving with routes fixed active and the activation
        y of routes free relaxed to 0 <= y <= 1 (x_k <= cap_k * y for each
        of their variables, cap_k the smaller of its two quantities).
        Returns (lp, net, column): lp solve_lp's result, whose x begins with
        the fixed routes' shipments over lq, net over scale, floored, and
        column each free route's y column of lp; with no free routes net is
        the exact best saving of the fixed set, and whole.

        A free route with one pair is one column, its y: x = cap * y at
        every optimum, as a fee >= 0 never pays for a larger y, so the
        column gains gain * cap - fee and takes cap in its two stream rows,
        with no cap row. Other free routes have a column per pair, a y
        column and a cap row per pair. y <= 1 needs no row: a one-pair y
        has cap * y <= cap in the stream row of its smaller quantity, and
        the stream rows hold x_k <= cap_k, so at a vertex a positive
        many-pair y_r is x_k / cap_k for some tight cap row of r."""
        self._spend()
        ends = [(oi, di, 1) for r in fixed for oi, di, _, _ in r.variables]
        c = [gain for r in fixed for _, _, gain, _ in r.variables]
        y, caps = [], []  # each free route's y column; (x column, route, cap) per cap row
        for j, route in enumerate(free):
            if len(route.variables) == 1:
                (oi, di, gain, cap), = route.variables
                y.append(len(c))
                ends.append((oi, di, cap))
                c.append(gain * cap - route.fee)
                continue
            y.append(None)
            for oi, di, gain, cap in route.variables:
                caps.append((len(c), j, cap))
                ends.append((oi, di, 1))
                c.append(gain)
        for j, route in enumerate(free):
            if y[j] is None:
                y[j] = len(c)
                c.append(-route.fee)
        rows = {}  # stream index -> row of the constraint matrix
        a_ub, b_ub = [], []
        for k, (oi, di, coefficient) in enumerate(ends):
            for idx in (oi, di):
                if idx not in rows:
                    rows[idx] = len(a_ub)
                    a_ub.append([0] * len(c))
                    b_ub.append(self.quantity[idx])
                a_ub[rows[idx]][k] = coefficient
        for k, j, cap in caps:
            row = [0] * len(c)
            row[k], row[y[j]] = 1, -cap
            a_ub.append(row)
            b_ub.append(0)
        lp = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
        num, den = lp.objective
        return lp, num // den - sum(r.fee for r in fixed), dict(zip(free, y))

    def best(self, routes, incumbent):
        """(net, route tuple) for the best subset of routes (sorted) if
        it saves more than incumbent, else (incumbent, None).

        Past the shortcut for routes that share no stream, Land-Doig branch
        and bound on the best_shipments relaxation: a node whose bound is <=
        the best so far is pruned when popped, the root (the nets' sum) too,
        with no LP, an integral y is a plan of exactly that net, a whole
        one, and otherwise the first fractional route in sorted order is
        branched on, depth first, active before dropped. Ties keep the first
        set met: every route when they share no stream, else the first
        integral node. Flooring a relaxation's net moves no decision: best,
        each incumbent and each route's net are whole, so net <= best
        exactly when floor(net) <= best, and min(net, S) floors to
        min(floor(net), S) for a whole S.

        Only the root is solved cold. The stack keeps each node's parent
        LP result, and a popped node re-enters its parent's optimal
        dictionary, in the root's columns: a route made active has its fee
        added back to its y column's cost (with_cost), which makes a
        one-pair route's column worth gain * cap and frees a many-pair
        route's y at cost 0, so its cap rows bind nothing; a dropped route
        has its y held at 0 (with_zero), a many-pair route's cap rows then
        holding its shipments at 0. Each is the LP best_shipments builds
        for the node, up to columns fixed at 0, so it has the same optimal
        value; its y may be another optimal vertex's. A child pruned when
        popped costs no LP, and each re-entry counts as one.
        """
        routes = tuple(routes)
        bound = sum(r.net for r in routes)
        if bound > incumbent and _disjoint(routes):
            return bound, routes
        best, chosen = incumbent, None
        stack = [((), routes, bound, None)]
        while stack:
            fixed, free, bound, entry = stack.pop()
            if bound <= best:
                continue
            if entry is None:
                lp, net, column = self.best_shipments(fixed, free)
            else:
                self._spend()
                lp = entry()
                num, den = lp.objective
                net = num // den - sum(r.fee for r in fixed)
            if net <= best:
                continue
            y = [lp.x[column[r]] for r in free]
            split = next((j for j, (p, q) in enumerate(y) if p % q), None)
            if split is None:
                best = net
                chosen = tuple(sorted(fixed + tuple(r for r, (p, _) in zip(free, y) if p)))
                continue
            route, parent = free[split], lp.dictionary
            rest = free[:split] + free[split + 1:]
            stack.append((fixed, rest, min(net, sum(r.net for r in fixed + rest)),
                          partial(parent.with_zero, column[route])))
            stack.append((tuple(sorted(fixed + (route,))), rest, net,
                          partial(parent.with_cost, column[route], route.fee)))
        return best, chosen


def _disjoint(routes) -> bool:
    """Whether no two of the routes share a stream."""
    return len(frozenset().union(*(r.streams for r in routes))) == sum(
        len(r.streams) for r in routes)


def _plan(scenario, variables, x, lq):
    """Shipments x ((num, den) pairs over lq) of the (offer, demand, gain,
    cap) variables, summed per route and resource and sorted."""
    amounts = {}
    for (oi, di, _, _), (p, q) in zip(variables, x, strict=True):
        if p > 0:
            o, d = scenario.streams[oi], scenario.streams[di]
            key = (o.firm, d.firm, o.resource)
            amounts[key] = amounts.get(key, 0) + Fraction(p, q * lq)
    return ExchangePlan(tuple(Shipment(*key, qty) for key, qty in sorted(amounts.items())))


def scenario_to_game(scenario: ExchangeScenario) -> ISNGame:
    """Game with every coalition worth its baseline-minus-optimal saving.

    The roster's routes are found and settled alone once (after the firm
    bound is checked). If no two of them share a stream, every route set
    ships each route's best alone, so v(S) is the sum of the nets of the
    routes inside S, all positive: the table is written in one pass, each
    firm i adding to every mask of the firms below it the nets of its
    routes with them (games._sums), with no search and no LP. Otherwise
    each coalition, masks ascending, searches the routes inside it with
    max_i v(S - i) as its incumbent, which merging plans makes a lower
    bound. Values are nonnegative and the game is superadditive: disjoint
    coalitions can always merge their plans. The table is ints over the
    search's scale, which ISNGame reduces.
    """
    n = scenario.n_agents
    _check_agent_count(n)
    search = _RouteSearch(scenario, range(n))
    if _disjoint(search.routes):
        nets = [[0] * i for i in range(n)]  # nets[i][j], j < i: of the routes joining i and j
        for route in search.routes:
            j, i = sorted(route.pair)
            nets[i][j] += route.net
        table = [0]
        for row in nets:
            table += list(map(add, table, _sums(row)))
        return ISNGame(n, table, search.scale)
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        inside = [r for r in search.routes if r.mask & mask == r.mask]
        incumbent = max(table[mask ^ 1 << i] for i in range(n) if mask >> i & 1)
        table[mask] = search.best(inside, incumbent)[0]
    return ISNGame(n, table, search.scale)
