"""The library's two exception types.

Every check on a value the library is given raises SymbioError, a
ValueError, so `except ValueError` callers keep working; BoundExceeded is
the one fault a caller may want to tell apart (the CLI exits 3 for it, 2
for any other SymbioError). A binary float or other wrong Python type
passed as money raises TypeError instead.

A message that names coalitions is a template with one `{}` per coalition,
kept in the error's `coalitions`: str() writes each as its sorted id list,
and `describe` lets a caller that knows the agents' names write them its
own way (the CLI prints `{A,B}`).
"""


class SymbioError(ValueError):
    """A value given to the library breaks one of its rules."""

    def __init__(self, template: str = "", *coalitions):
        self.template = template
        self.coalitions = tuple(frozenset(c) for c in coalitions)
        super().__init__(self.describe(sorted))

    def describe(self, show) -> str:
        """The message with each named coalition written as show(coalition)."""
        if not self.coalitions:
            return self.template
        return self.template.format(*map(show, self.coalitions))


class BoundExceeded(SymbioError):
    """An enumeration-bounded operation was asked to exceed its bound."""
