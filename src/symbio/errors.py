"""Exception types shared across the library.

A message that names coalitions is a template with one `{}` per coalition,
kept in the error's `coalitions`: str() writes each as its sorted id list,
and `describe` lets a caller that knows the agents' names write them its
own way (the CLI prints `{A,B}`).
"""


class SymbioError(Exception):
    """Base class for all library errors."""

    def __init__(self, template: str = "", *coalitions):
        self.template = template
        self.coalitions = tuple(frozenset(c) for c in coalitions)
        super().__init__(self.describe(sorted))

    def describe(self, show) -> str:
        """The message with each named coalition written as show(coalition)."""
        if not self.coalitions:
            return self.template
        return self.template.format(*map(show, self.coalitions))


class MissingCoalition(SymbioError):
    """A cost table lacks or repeats a coalition, or keys one of fewer than two members."""


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
    """A policy group has one agent or is listed twice, or promoted groups overlap."""


class ScenarioError(SymbioError):
    """Exchange scenario data is inconsistent or incomplete."""


class ParseError(SymbioError):
    """A scenario file could not be parsed; message carries field diagnostics."""


class ValidationError(SymbioError):
    """A scenario file parsed but failed semantic validation."""
