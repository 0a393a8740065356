"""Cooperative-game tooling for industrial symbiosis networks.

Build transferable-utility games from coalition cost tables or firm-level
resource-exchange scenarios, represent them as marginal-contribution nets,
compute Shapley allocations and exact core verdicts, and synthesize the
subsidy/tax rules that make policy-promoted collaborations fair and stable
while blocking prohibited ones. All arithmetic is exact rational.
"""

#: Each public name's module, imported on the name's first use (PEP 562), so
#: that `import symbio.cli` loads only the modules a command runs.
_OWNERS = {
    name: module
    for module, names in {
        "coordination": ("CoordinatedGame", "Policy", "enforce_policy", "synthesize_prohibition",
                         "synthesize_promotion"),
        "errors": ("BoundExceeded", "SymbioError"),
        "exchange": ("ExchangePlan", "ExchangeScenario", "ResourceStream", "Shipment",
                     "input_demand", "optimal_exchange_plan", "scenario_to_game", "t_value",
                     "waste_offer"),
        "games": ("ENUMERATION_BOUND", "ISNGame", "as_money", "check_superadditive", "coalition",
                  "coalitions", "make_isn_game", "subgame"),
        "mcnets": ("MCNet", "MCNetRule", "compose", "evaluate", "from_isn_game", "net_shapley",
                   "rule_shapley"),
        "solutions": ("CoreResult", "core_nonempty", "in_core", "is_implementable", "shapley"),
    }.items()
    for name in names
}

__version__ = "0.1.0"

__all__ = sorted(_OWNERS)


def __getattr__(name):
    """The public name from its module, kept here after its first use."""
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{_OWNERS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
