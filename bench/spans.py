"""Span tracing around symbio's layer functions, from outside the package.

`Tracer.install()` replaces each layer function listed in LAYERS at every
name a caller looks it up by: every attribute of a loaded `symbio.*`
module that holds the original function (so `symbio.cli.check_superadditive`
and `symbio.games.check_superadditive` alike, and `symbio.lp.solve_lp` for
`core_nonempty`'s import inside the function), or the class attribute for
methods. `uninstall()` puts the originals back. A listed name that no longer
exists is recorded in `absent` instead of failing the run.

A span is [name, start, end, parent index]; a layer's self time is its
spans' durations minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

#: (module, qualified name, record spans). CoordinatedGame.value runs tens
#: of thousands of times per enforce call, so it is only counted; its time
#: stays in the caller's self time.
LAYERS = [
    ("symbio.cli", "load_scenario", True),
    ("symbio.cli", "render", True),
    ("symbio.games", "make_isn_game", True),
    ("symbio.games", "check_superadditive", True),
    ("symbio.games", "subgame", True),
    ("symbio.exchange", "scenario_to_game", True),
    ("symbio.exchange", "optimal_exchange_plan", True),
    ("symbio.mcnets", "from_isn_game", True),
    ("symbio.mcnets", "net_shapley", True),
    ("symbio.solutions", "core_nonempty", True),
    ("symbio.solutions", "in_core", True),
    ("symbio.coordination", "enforce_policy", True),
    ("symbio.coordination", "synthesize_promotion", True),
    ("symbio.coordination", "CoordinatedGame.value", False),
    ("symbio.lp", "solve_lp", True),
]

ROOT = "cli.main"


def layer_name(module: str, qualname: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{qualname}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.calls = Counter()
        self.counts = Counter()
        self.absent = []
        self._undo = []

    # ------------------------------------------------------------ recording

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name, under the current span."""
        spans, stack = self.spans, self.stack
        index = len(spans)
        record = [name, time.perf_counter(), 0.0, stack[-1]]
        spans.append(record)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            record[2] = time.perf_counter()
        self.calls[name] += 1
        self._count(name, record, args, kwargs, result)
        return result

    def _count(self, name, record, args, kwargs, result):
        """Work counters read off a layer call's arguments and result."""
        if name == "lp.solve_lp":
            a_ub = kwargs.get("a_ub", args[1] if len(args) > 1 else ())
            a_eq = kwargs.get("a_eq", args[3] if len(args) > 3 else ())
            rows = len(a_ub) + len(a_eq)
            self.counts["lp.rows_max"] = max(self.counts["lp.rows_max"], rows)
            parent = self.spans[record[3]][0] if record[3] >= 0 else None
            if parent == "solutions.core_nonempty":
                self.counts["solutions.core_rows"] += rows
            elif parent == "exchange.optimal_exchange_plan":
                self.counts["exchange.route_subsets"] += 1
        elif name == "mcnets.from_isn_game":
            self.counts["mcnets.rules"] += len(result.rules)

    def _wrap(self, name, fn, spans):
        if spans:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        else:
            calls = self.calls

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ patching

    def install(self):
        for module_name, qualname, spans in LAYERS:
            name = layer_name(module_name, qualname)
            try:
                module = importlib.import_module(module_name)
                owner_path, _, attr = qualname.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, spans)
            if owner is not module:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "symbio" or mod_name.startswith("symbio.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ summaries

    def self_times(self) -> Counter:
        """Seconds per span name, minus the time covered by child spans."""
        own = Counter()
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return own

    def spans_seconds(self, name) -> float:
        """Total duration of the spans called name."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def reset(self):
        self.spans.clear()
        self.calls.clear()
        self.counts.clear()
