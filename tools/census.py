"""Census of the src/symbio code that no run takes.

Runs, in this one process under sys.settrace: every command, in text and
in JSON, on each tests/data/*.json; demos 01-05; and one seed-1 pass of
each benchmark workload, written from bench/scenarios.make_batch into a
temporary directory. Then prints, for each src/symbio file:

- unreached: statements no run reaches, one line per run of unreached
  statements in one block;
- always / never: if, elif and while tests whose body every run entered,
  or none did (read off the line-to-line arcs out of the test);
- under "error arms", the same findings where the code not taken is an
  error arm: an except body, or a block or run of statements ending in a
  raise.

Usage: python3 tools/census.py (the stdlib only, no options; it writes
nothing under the repository, bytecode caches included).
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "symbio"
COMMANDS = ("analyze", "enforce", "shapley", "core", "mcnet")


def traffic() -> int:
    """Run the census's traffic, its output discarded; returns the CLI run count."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import scenarios
    from symbio.cli import main

    runs = [[command, str(path), "--format", fmt]
            for path in sorted((ROOT / "tests" / "data").glob("*.json"))
            for command in COMMANDS for fmt in ("text", "json")]
    with tempfile.TemporaryDirectory() as folder, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for workload in scenarios.WORKLOADS:
            for case in scenarios.make_batch(workload, 1):
                path = Path(folder) / f"{case.name}.json"
                path.write_text(case.text(), encoding="utf-8")
                runs.append([case.command, str(path), *case.argv])
        for argv in runs:
            main(argv)
        for demo in sorted((ROOT / "demos").glob("0*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    return len(runs)


def trace(run):
    """(run's result, lines, arcs): per package file, the lines run and the
    (line, next line) arcs within one frame, next line 0 for a return. An
    arc out of a line that raised is left out: it is no branch's."""
    lines, arcs, prefix = {}, {}, str(PACKAGE)

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hit, pairs, last = lines.setdefault(name, set()), arcs.setdefault(name, set()), None

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                hit.add(frame.f_lineno)
                if last:
                    pairs.add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return" and last:
                pairs.add((last, 0))
            elif event == "exception":
                last = None
            return local
        return local

    sys.settrace(call)
    try:
        return run(), lines, arcs
    finally:
        sys.settrace(None)


def census(path, hit, arcs):
    """(findings, errors) in path: (kind, lines, qualified name, text) each."""
    source = path.read_text(encoding="utf-8").splitlines()
    findings, errors = [], []

    def first(node):
        return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])

    def span(node):
        return set(range(first(node), node.end_lineno + 1))

    def note(kind, node, last, where, error):
        lines = f"{first(node)}" if last == first(node) else f"{first(node)}-{last}"
        text = source[node.lineno - 1].strip()
        (errors if error else findings).append((kind, lines, ".".join(where) or "<module>",
                                                text[:64]))

    def raises(body):
        """Whether body is simple statements ending in a raise: an error arm."""
        return bool(body) and isinstance(body[-1], ast.Raise) and not any(
            hasattr(node, "body") for node in body)

    def unreached(run, where, error):
        """Note a run of unreached statements; its tail of simple statements,
        if it ends in a raise, is an error arm of its own."""
        tail = len(run)
        while tail and not hasattr(run[tail - 1], "body"):
            tail -= 1
        if not error and tail and raises(run[tail:]):
            note("unreached", run[0], run[tail - 1].end_lineno, where, False)
            run, error = run[tail:], True
        note("unreached", run[0], run[-1].end_lineno, where, error or raises(run))

    def block(body, where, error):
        """Note the findings in one block; error: the block is an error arm."""
        body = [s for s in body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
        run = []
        for k, node in enumerate(body):
            if not span(node) & hit:
                run.append(node)
                continue
            if run:
                unreached(run, where, error)
                run = []
            visit(node, where, body[k + 1:], error)
        if run:
            unreached(run, where, error)

    def visit(node, where, after, error):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            block(node.body, where + [node.name], False)
            return
        bodies = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
        arms = [error] * 3
        if isinstance(node, (ast.If, ast.While)):
            arms[:2] = error or raises(node.body), error or raises(node.orelse)
            test = set(range(node.lineno, node.test.end_lineno + 1))
            out = {b for a, b in arcs if a in test and b not in test}
            kind = source[node.lineno - 1].split()[0]
            if out and not isinstance(node.test, ast.Constant):
                if not out & span(node.body[0]):
                    note(f"never {kind}", node, node.lineno, where, arms[0])
                    bodies[0] = []
                elif out <= span(node.body[0]):
                    note(f"always {kind}", node, node.lineno, where,
                         error or raises(node.orelse or after))
                    bodies[1] = []
        for body, arm in zip(bodies, arms):
            block(body, where, arm)
        for handler in getattr(node, "handlers", ()):
            block(handler.body, where, True)

    block(ast.parse("\n".join(source)).body, [], False)
    return findings, errors


def main() -> int:
    sys.dont_write_bytecode = True
    runs, lines, arcs = trace(traffic)
    total = [0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path)
        findings, errors = census(path, lines.get(name, set()), arcs.get(name, set()))
        total[0] += len(findings)
        total[1] += len(errors)
        print(path.relative_to(ROOT))
        for heading, found in ("", findings), ("  error arms:", errors):
            if heading and found:
                print(heading)
            for kind, span, where, text in found:
                print(f"  {kind:<12} {span:<9} {where}: {text}")
    print(f"{total[0]} findings and {total[1]} in error arms, over {runs} CLI runs and the demos")
    return 0


if __name__ == "__main__":
    sys.exit(main())
