"""Firm-level resource exchange model.

Firms post waste offers and input demands. A coalition realizes savings by
shipping offered waste into matching demands, paying treatment, transport
and a fixed transaction cost per activated firm pair, instead of paying to
discharge the waste and purchase virgin inputs. The baseline cost of a
coalition (no exchange at all) and the minimized realized cost define the
coalition's worth: baseline minus optimum.

Plan optimization is a fixed-charge transportation problem, solved
exactly by Land-Doig branch and bound over route activation (Balinski
1961). Each route (an ordered firm pair that can save) is solved alone
once; unprofitable routes are dropped, and the sum of the others' net
savings bounds any route set, exactly so when no two share a stream.
scenario_to_game searches each coalition in ascending mask order, with
the best worth of its coalitions one firm smaller as the incumbent, and
reads only LP optima; only optimal_exchange_plan turns shipments into
plans. A call solves at most 2**ENUMERATION_BOUND LPs, and takes at most
PAIR_BOUND profitable (offer, demand) stream pairs, each an LP column; it
raises BoundExceeded past either, the pair bound before any LP.

Compatible stream pairs (an offer and a demand of one resource at two
firms) come from an index of demands by resource, in time linear in the
streams plus the pairs, and in ascending (offer, demand) order: the LP
column order, which fixes every pivot and plan. Validation checks each
(offer firm, demand firm, resource) once. Quantities are divisible; all
arithmetic is exact (ints and Fractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import BoundExceeded, SymbioError
from .games import (
    ENUMERATION_BOUND, ISNGame, _check_agent_count, as_money, check_roster, coalition, mask_of,
)
from .lp import solve_lp

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


@dataclass(frozen=True)
class ResourceStream:
    """One firm's offered waste or demanded input for a single resource.

    Offers carry the per-unit discharge cost avoided when the waste is
    shipped instead of dumped. Demands carry the per-unit purchase cost of
    the virgin input they would otherwise buy plus the per-unit treatment
    cost of making received waste usable. Amounts are coerced by as_money,
    so a binary float raises TypeError.
    """

    firm: int
    resource: str
    kind: str
    quantity: Fraction
    unit_discharge_cost: "Fraction | None" = None
    unit_purchase_cost: "Fraction | None" = None
    unit_treatment_cost: "Fraction | None" = None

    def __post_init__(self):
        if self.kind not in (OFFER, DEMAND):
            raise SymbioError(f"stream kind must be offer or demand, got {self.kind!r}")
        carried = STREAM_COSTS[self.kind]
        for name in STREAM_COSTS[OFFER] + STREAM_COSTS[DEMAND]:
            if (getattr(self, name) is None) == (name in carried):
                raise SymbioError(f"{self.kind}s carry exactly {' and '.join(carried)}")
        for name in ("quantity",) + carried:
            amount = as_money(getattr(self, name))
            object.__setattr__(self, name, amount)
            if amount < 0:
                raise SymbioError(f"stream {name} must be >= 0")


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


@dataclass(frozen=True)
class Shipment:
    from_firm: int
    to_firm: int
    resource: str
    quantity: Fraction

    def key(self):
        return (self.from_firm, self.to_firm, self.resource, self.quantity)


@dataclass(frozen=True)
class ExchangePlan:
    """Shipments of one coalition's realized exchange, sorted by route."""

    shipments: "tuple[Shipment, ...]"

    def key(self):
        return tuple(s.key() for s in self.shipments)


EMPTY_PLAN = ExchangePlan(())


@dataclass(frozen=True)
class ExchangeScenario:
    """Streams plus per-unit transport and fixed per-pair transaction costs.

    transport maps (from_firm, to_firm, resource) to a per-unit cost and
    transaction maps (from_firm, to_firm) to a fixed cost charged once per
    activated ordered pair. Both must cover every pair of distinct firms
    with a matching offer/demand resource. Treat instances as immutable.
    """

    n_agents: int
    streams: "tuple[ResourceStream, ...]"
    transport: Mapping
    transaction: Mapping

    def __post_init__(self):
        object.__setattr__(self, "streams", tuple(self.streams))
        object.__setattr__(
            self, "transport", {k: as_money(v) for k, v in self.transport.items()}
        )
        object.__setattr__(
            self, "transaction", {k: as_money(v) for k, v in self.transaction.items()}
        )
        if self.n_agents < 1:
            raise SymbioError("a scenario needs at least one firm")
        for s in self.streams:
            if not 0 <= s.firm < self.n_agents:
                raise SymbioError(f"stream firm {s.firm} outside roster of {self.n_agents}")
        for cost in list(self.transport.values()) + list(self.transaction.values()):
            if cost < 0:
                raise SymbioError("transport and transaction costs must be >= 0")
        # partners keeps offers' first-index order and each list its demands'
        # order, so the fault named is that of the first compatible pair
        for (firm, resource), partners in self._partners().items():
            for to in dict.fromkeys(self.streams[di].firm for di in partners):
                firms = {firm}, {to}
                if (firm, to, resource) not in self.transport:
                    shown = repr(resource).replace("{", "{{").replace("}", "}}")
                    raise SymbioError(
                        f"missing transport cost from {{}} to {{}} for resource {shown}", *firms
                    )
                if (firm, to) not in self.transaction:
                    raise SymbioError("missing transaction cost from {} to {}", *firms)

    def _partners(self) -> dict:
        """{(firm, resource) of each offer: the indices of the demands for
        that resource at other firms, ascending}, keyed in the order of each
        key's first offer. Demands are indexed by resource first, so this
        takes time linear in the streams times at most the firm count."""
        demands = {}
        for di, d in enumerate(self.streams):
            if d.kind == DEMAND:
                demands.setdefault(d.resource, []).append(di)
        partners = {}
        for o in self.streams:
            if o.kind == OFFER and (o.firm, o.resource) not in partners:
                partners[o.firm, o.resource] = [
                    di for di in demands.get(o.resource, ()) if self.streams[di].firm != o.firm]
        return partners

    def _compatible_pairs(self):
        """Stream index pairs (offer, demand) that could ever ship, ascending,
        in time linear in the streams (_partners) plus the pairs."""
        partners = self._partners()
        for oi, o in enumerate(self.streams):
            if o.kind == OFFER:
                for di in partners[o.firm, o.resource]:
                    yield oi, di


def t_value(scenario: ExchangeScenario, s: Iterable[int]) -> Fraction:
    """Baseline cost of a coalition: discharge every offer, buy every demand."""
    members = coalition(s)
    check_roster(members, scenario.n_agents)
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
    net, routes = search.best(search.routes, Fraction(0))
    if routes is None:
        return EMPTY_PLAN, baseline
    x, _, _ = search.best_shipments(routes)
    return _plan(scenario, [v for r in routes for v in r.variables], x), baseline - net


class _Route(NamedTuple):
    """A profitable ordered firm pair. Routes sort by pair, which is unique."""

    pair: "tuple[int, int]"
    mask: int  # the two firms
    variables: tuple  # (offer, demand, gain) stream pairs, ascending
    streams: frozenset  # stream indices the variables touch
    fee: Fraction  # fixed transaction cost
    net: Fraction = Fraction(0)  # best net saving of the route alone


class _RouteSearch:
    """Exact route-activation search over one coalition's routes.

    A route is an ordered firm pair with a stream pair that saves per unit
    and a best-case saving above its transaction fee. Each is solved alone
    once for its net saving net_r, and only routes with net_r > 0 are kept:
    restricting a feasible shipment vector to some of its routes keeps it
    feasible, so net savings are subadditive over route sets, and a route
    with net_r <= 0 never helps. The same argument makes the sum of net_r
    an upper bound on any subset's saving, exact when the routes share no
    stream. All LP solves of one search count against one budget of
    2**ENUMERATION_BOUND; the next solve raises BoundExceeded. So does a
    coalition with more than PAIR_BOUND profitable stream pairs, before any
    LP: a route is solved alone as one LP with a column per pair.
    """

    def __init__(self, scenario, members):
        self.scenario = scenario
        self.lps_left = 2**ENUMERATION_BOUND
        by_route = {}  # pair -> [(offer_idx, demand_idx, gain)], ascending
        width = 0  # profitable pairs so far
        for oi, di in scenario._compatible_pairs():
            o, d = scenario.streams[oi], scenario.streams[di]
            if o.firm not in members or d.firm not in members:
                continue
            haul = scenario.transport[(o.firm, d.firm, o.resource)]
            gain = o.unit_discharge_cost + d.unit_purchase_cost - d.unit_treatment_cost - haul
            if gain > 0:
                width += 1
                if width > PAIR_BOUND:
                    raise BoundExceeded(f"the exchange has more than {PAIR_BOUND} profitable "
                                        f"(offer, demand) stream pairs")
                by_route.setdefault((o.firm, d.firm), []).append((oi, di, gain))
        self.routes = []
        for pair, variables in sorted(by_route.items()):
            fee = scenario.transaction[pair]
            if fee >= sum(gain * self._cap(oi, di) for oi, di, gain in variables):
                continue
            streams = frozenset(idx for oi, di, _ in variables for idx in (oi, di))
            route = _Route(pair, mask_of(pair), tuple(variables), streams, fee)
            net = self.best_shipments((route,))[1]
            if net > 0:
                self.routes.append(route._replace(net=net))

    def _cap(self, oi, di):
        return min(self.scenario.streams[oi].quantity, self.scenario.streams[di].quantity)

    def best_shipments(self, fixed, free=()):
        """Maximize net saving with routes fixed active and the activation
        y of routes free relaxed to 0 <= y <= 1 (x_k <= cap_k * y for each
        of their variables, cap_k the smaller of its two quantities).
        Returns (x, net, y); with no free routes net is the exact best
        saving of the fixed set.

        y <= 1 needs no row: the stream rows already hold x_k <= cap_k, and
        at a vertex a positive y_r is x_k / cap_k for some tight row of r."""
        if not self.lps_left:
            raise BoundExceeded(f"the exchange optimizer solved its budget of "
                                f"{2**ENUMERATION_BOUND} LPs (2^{ENUMERATION_BOUND}) "
                                f"without finishing")
        self.lps_left -= 1
        variables = [v for r in fixed + free for v in r.variables]
        width = len(variables) + len(free)
        c = [gain for _, _, gain in variables] + [-r.fee for r in free]
        rows = {}  # stream index -> row of the constraint matrix
        a_ub, b_ub = [], []
        for k, (oi, di, _) in enumerate(variables):
            for idx in (oi, di):
                if idx not in rows:
                    rows[idx] = len(a_ub)
                    a_ub.append([0] * width)
                    b_ub.append(self.scenario.streams[idx].quantity)
                a_ub[rows[idx]][k] = 1
        k = sum(len(r.variables) for r in fixed)
        for j, route in enumerate(free, start=len(variables)):
            for oi, di, _ in route.variables:
                row = [0] * width
                row[k], row[j] = 1, -self._cap(oi, di)
                a_ub.append(row)
                b_ub.append(0)
                k += 1
        result = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
        net = result.objective - sum(r.fee for r in fixed)
        return result.x[:len(variables)], net, result.x[len(variables):]

    def best(self, routes, incumbent):
        """(net, route tuple) for the best subset of routes (sorted) if
        it saves more than incumbent, else (incumbent, None).

        Past the bound shortcuts, Land-Doig branch and bound on the
        best_shipments relaxation: a node whose bound is <= the best so far
        is pruned, an integral y is a plan of exactly that net, and
        otherwise the first fractional route in sorted order is branched
        on, depth first, active before dropped. Ties keep the first set
        met: every route when they share no stream, else the first
        integral node.
        """
        routes = tuple(routes)
        bound = sum(r.net for r in routes)
        if bound <= incumbent:
            return incumbent, None
        if len(frozenset().union(*(r.streams for r in routes))) == sum(
                len(r.streams) for r in routes):
            return bound, routes
        best, chosen = incumbent, None
        stack = [((), routes, bound)]
        while stack:
            fixed, free, bound = stack.pop()
            if bound <= best:
                continue
            _, net, y = self.best_shipments(fixed, free)
            if net <= best:
                continue
            split = next((j for j, v in enumerate(y) if v.denominator != 1), None)
            if split is None:
                best, chosen = net, tuple(sorted(fixed + tuple(r for r, v in zip(free, y) if v)))
                continue
            rest = free[:split] + free[split + 1:]
            stack.append((fixed, rest, min(net, sum(r.net for r in fixed + rest))))
            stack.append((tuple(sorted(fixed + (free[split],))), rest, net))
        return best, chosen


def _plan(scenario, variables, x):
    """Shipments x of the (offer, demand, gain) variables, summed per route
    and resource and sorted."""
    amounts = {}
    for (oi, di, _), qty in zip(variables, x, strict=True):
        if qty > 0:
            o, d = scenario.streams[oi], scenario.streams[di]
            key = (o.firm, d.firm, o.resource)
            amounts[key] = amounts.get(key, Fraction(0)) + qty
    return ExchangePlan(tuple(Shipment(*key, qty) for key, qty in sorted(amounts.items())))


def scenario_to_game(scenario: ExchangeScenario) -> ISNGame:
    """Game with every coalition worth its baseline-minus-optimal saving.

    The roster's routes are found and solved alone once (after the firm
    bound is checked); then each coalition, masks ascending, searches the
    routes inside it with max_i v(S - i) as its incumbent, which merging
    plans makes a lower bound. Values are nonnegative and the game is
    superadditive: disjoint coalitions can always merge their plans.
    """
    n = scenario.n_agents
    _check_agent_count(n)
    table = [0] * (1 << n)
    search = _RouteSearch(scenario, range(n))
    for mask in range(1, 1 << n):
        inside = [r for r in search.routes if r.mask & mask == r.mask]
        incumbent = max(table[mask ^ 1 << i] for i in range(n) if mask >> i & 1)
        table[mask] = search.best(inside, incumbent)[0]
    return ISNGame.from_table(n, table)
