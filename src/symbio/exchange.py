"""Firm-level resource exchange model.

Firms post waste offers and input demands. A coalition realizes savings by
shipping offered waste into matching demands, paying treatment, transport
and a fixed transaction cost per activated firm pair, instead of paying to
discharge the waste and purchase virgin inputs. The baseline cost of a
coalition (no exchange at all) and the minimized realized cost define the
coalition's worth: baseline minus optimum.

Plan optimization is a fixed-charge transportation problem, solved
exactly: each subset of candidate firm pairs (routes, at most
ENUMERATION_BOUND of them) gets one exact-simplex solve of its continuous
shipment subproblem. scenario_to_game enumerates the whole roster once,
reads only each LP's optimum, and hands each saving to every coalition
holding its firms by a superset-max pass; only optimal_exchange_plan turns
shipments into plans. Quantities are divisible; all arithmetic is exact
(ints and Fractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import BoundExceeded, SymbioError
from .games import ENUMERATION_BOUND, ISNGame, as_money, check_roster, coalition, mask_of, zero_table
from .lp import solve_lp

OFFER = "offer"
DEMAND = "demand"

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
        for oi, di in self._compatible_pairs():
            o, d = self.streams[oi], self.streams[di]
            firms = {o.firm}, {d.firm}
            if (o.firm, d.firm, o.resource) not in self.transport:
                resource = repr(o.resource).replace("{", "{{").replace("}", "}}")
                raise SymbioError(
                    f"missing transport cost from {{}} to {{}} for resource {resource}", *firms
                )
            if (o.firm, d.firm) not in self.transaction:
                raise SymbioError("missing transaction cost from {} to {}", *firms)

    def _compatible_pairs(self):
        """Stream index pairs (offer, demand) that could ever ship, ascending."""
        for oi, o in enumerate(self.streams):
            if o.kind != OFFER:
                continue
            for di, d in enumerate(self.streams):
                if d.kind == DEMAND and d.resource == o.resource and d.firm != o.firm:
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
    Among equally cheap candidates the lexicographically smallest shipment
    list wins, which keeps outputs deterministic.
    """
    members = coalition(s)
    baseline = t_value(scenario, members)  # checks the roster
    best_net, best_plan = Fraction(0), EMPTY_PLAN
    for _, net, variables, x in _route_subsets(scenario, members):
        plan = _plan(scenario, variables, x)
        if net > best_net or (net == best_net and plan.key() < best_plan.key()):
            best_net, best_plan = net, plan
    return best_plan, baseline - best_net


def _route_subsets(scenario, members):
    """Yield (firm mask, net saving, variables, x) once for each nonempty
    subset of the candidate routes among members: ordered firm pairs whose
    best-case saving beats their fixed transaction cost. variables are the
    subset's (offer, demand, gain) stream pairs and x their optimal
    shipments; net saving is the shipment LP's optimum minus the subset's
    transaction costs. Raises BoundExceeded, before any LP, past
    ENUMERATION_BOUND candidates."""
    by_route = {}  # route -> [(offer_idx, demand_idx, gain)], ascending
    for oi, di in scenario._compatible_pairs():
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
    if len(candidates) > ENUMERATION_BOUND:
        raise BoundExceeded(f"{len(candidates)} candidate routes; route subsets are "
                            f"enumerated for at most {ENUMERATION_BOUND}")
    for chosen in range(1, 1 << len(candidates)):
        routes = [candidates[i] for i in range(len(candidates)) if chosen >> i & 1]
        variables = [pv for r in routes for pv in by_route[r]]
        result = _best_shipments(scenario, variables)
        net = result.objective - sum(scenario.transaction[r] for r in routes)
        yield mask_of(firm for route in routes for firm in route), net, variables, result.x


def _best_shipments(scenario, variables):
    """Maximize total per-unit saving over stream capacity constraints;
    returns the LPResult."""
    gains = [g for _, _, g in variables]
    caps = {}  # stream index -> row of the constraint matrix
    a_ub, b_ub = [], []
    for k, (oi, di, _) in enumerate(variables):
        for idx in (oi, di):
            if idx not in caps:
                caps[idx] = len(a_ub)
                a_ub.append([0] * len(variables))
                b_ub.append(scenario.streams[idx].quantity)
            a_ub[caps[idx]][k] = 1
    return solve_lp(gains, a_ub=a_ub, b_ub=b_ub, maximize=True)


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

    The roster's route subsets are enumerated once (BoundExceeded past
    ENUMERATION_BOUND routes), each net saving credited to the firms it
    touches. A route's candidacy depends only on its two firms, so one
    superset-max pass gives v(S) = max(0, best net of the subsets inside S).
    Values are nonnegative and the game is superadditive: disjoint
    coalitions can always merge their plans.
    """
    n = scenario.n_agents
    table = zero_table(n)
    for mask, net, _, _ in _route_subsets(scenario, range(n)):
        table[mask] = max(table[mask], net)
    for i in range(n):
        for mask in range(1 << n):
            if mask >> i & 1:
                table[mask] = max(table[mask], table[mask ^ 1 << i])
    return ISNGame(n, tuple(table))
