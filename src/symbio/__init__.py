"""Cooperative-game tooling for industrial symbiosis networks.

Build transferable-utility games from coalition cost tables or firm-level
resource-exchange scenarios, represent them as marginal-contribution nets,
compute Shapley allocations and exact core verdicts, and synthesize the
subsidy/tax rules that make policy-promoted collaborations fair and stable
while blocking prohibited ones. All arithmetic is exact rational.
"""

from .coordination import (
    CoordinatedGame,
    Policy,
    enforce_policy,
    synthesize_prohibition,
    synthesize_promotion,
)
from .errors import BoundExceeded, SymbioError
from .exchange import (
    ExchangePlan,
    ExchangeScenario,
    ResourceStream,
    Shipment,
    input_demand,
    optimal_exchange_plan,
    scenario_to_game,
    t_value,
    waste_offer,
)
from .games import (
    ENUMERATION_BOUND,
    ISNGame,
    as_money,
    check_superadditive,
    coalition,
    coalitions,
    make_isn_game,
    subgame,
)
from .mcnets import (
    MCNet,
    MCNetRule,
    compose,
    evaluate,
    from_isn_game,
    net_shapley,
    rule_shapley,
)
from .solutions import (
    CoreResult,
    core_nonempty,
    in_core,
    is_implementable,
    shapley,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExceeded",
    "CoordinatedGame",
    "CoreResult",
    "ENUMERATION_BOUND",
    "ExchangePlan",
    "ExchangeScenario",
    "ISNGame",
    "MCNet",
    "MCNetRule",
    "Policy",
    "ResourceStream",
    "Shipment",
    "SymbioError",
    "as_money",
    "check_superadditive",
    "coalition",
    "coalitions",
    "compose",
    "core_nonempty",
    "enforce_policy",
    "evaluate",
    "from_isn_game",
    "in_core",
    "input_demand",
    "is_implementable",
    "make_isn_game",
    "net_shapley",
    "optimal_exchange_plan",
    "rule_shapley",
    "scenario_to_game",
    "shapley",
    "subgame",
    "synthesize_prohibition",
    "synthesize_promotion",
    "t_value",
    "waste_offer",
]
