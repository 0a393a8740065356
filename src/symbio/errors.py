"""Exception types shared across the library."""


class SymbioError(Exception):
    """Base class for all library errors."""


class MissingCoalition(SymbioError):
    """A cost table lacks an entry for a coalition with two or more members."""


class UnknownAgent(SymbioError):
    """A coalition contains an agent id that is not on the roster."""


class BoundExceeded(SymbioError):
    """An enumeration-bounded operation was asked to exceed its bound."""


class RosterMismatch(SymbioError):
    """Two objects built over different agent rosters were combined."""


class LengthMismatch(SymbioError):
    """An allocation's length does not match the game's roster size."""


class TargetTooSmall(SymbioError):
    """Incentive synthesis targets must have at least two members."""


class NonpositiveEpsilon(SymbioError):
    """Prohibition margins must be strictly positive."""


class PolicyInvalid(SymbioError):
    """A policy violates the mutual-exclusivity requirement on promoted groups."""

    def __init__(self, group_a, group_b):
        self.group_a = frozenset(group_a)
        self.group_b = frozenset(group_b)
        super().__init__(
            f"promoted groups overlap: {sorted(self.group_a)} and {sorted(self.group_b)}"
        )


class ScenarioError(SymbioError):
    """Exchange scenario data is inconsistent or incomplete."""


class ParseError(SymbioError):
    """A scenario file could not be parsed; message carries field diagnostics."""


class ValidationError(SymbioError):
    """A scenario file parsed but failed semantic validation."""
