"""Immutable value classes without dataclasses.

`import dataclasses` pulls in inspect, ast, dis and tokenize, and each
frozen dataclass compiles its methods at import, most of the package's
import time. A Record subclass instead writes its own __init__, which puts
each field straight into the instance's __dict__ once, and names its fields
twice: `_shown`, the ones repr writes, in constructor order, and
`_compared`, the ones == and hash read. Record gives it what a frozen
dataclass gave: == between two instances of one class over the compared
fields, hash of their tuple, a repr like `Name(a=1, b=2)`, and
AttributeError on any assignment or deletion. Only __dict__ is written, so
functools.cached_property still caches.
"""


class Record:
    __slots__ = ()
    _shown = _compared = ()

    @classmethod
    def _of(cls, **fields):
        """An instance holding fields that passed cls's checks when given: no check runs."""
        made = cls.__new__(cls)
        made.__dict__.update(fields)
        return made

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
