"""The package's own rules, read off its source by `ast`:

- exact arithmetic: no true division (`/`, `/=`), no `float(...)`, no float
  or complex literal, and `math` only through integer functions;
- the standard library only: every import, function-level ones included,
  is the package's own or in sys.stdlib_module_names, and neither
  dataclasses nor typing (their import is most of a cold start);
- the error contract: every `raise` names SymbioError or BoundExceeded, or
  is one of the ALLOWED_RAISES below, each with its reason.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "symbio"

#: The integer functions of math the package may use.
MATH_ALLOWED = {"factorial", "gcd", "lcm"}

#: Modules the package may not import, stdlib though they are.
IMPORTS_BANNED = {"dataclasses", "typing"}

#: (module, function, exception named, None for a bare re-raise): why it is
#: not a SymbioError.
ALLOWED_RAISES = {
    ("__init__", "__getattr__", "AttributeError"):
        "PEP 562: a module lacking a name raises AttributeError",
    ("records", "__setattr__", "AttributeError"):
        "assigning to an immutable record, as a frozen dataclass raised",
    ("records", "__delattr__", "AttributeError"):
        "deleting a field of an immutable record, as a frozen dataclass raised",
    ("cli", "load_scenario", None):
        "re-raises the BoundExceeded it caught, which its SymbioError clause would rename",
    ("games", "game_from_masks", None):
        "re-raises the TypeError of a column entry that is neither an int nor None, as before",
    ("games", "money_terms", "TypeError"):
        "a bool, a binary float or another type as money (errors.py); cli._number names the field",
    ("lp", "solve_lp", "ValueError"):
        "the LP's input contract for the package's own callers: surplus counts rows",
    ("lp", "_ints", "TypeError"):
        "the LP's input contract: ints only, which its callers scale rational data to",
    ("lp", "_dictionary_row", "ValueError"):
        "the LP's input contract: each row as wide as c, each right-hand side >= 0",
}


def nodes():
    """(module, function, node) for every node of every package file; the
    function is the innermost def around the node, "<module>" outside any."""
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(ast.parse(path.read_text(encoding="utf-8")), "<module>")]
        while stack:
            node, scope = stack.pop()
            for child in ast.iter_child_nodes(node):
                yield path.stem, scope, child
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
                stack.append((child, inner))


def where(module, node):
    return f"{module}.py:{node.lineno}"


def test_arithmetic_is_exact():
    faults = []
    for module, _, node in nodes():
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            faults.append(f"{where(module, node)}: true division")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            faults.append(f"{where(module, node)}: float(...)")
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            faults.append(f"{where(module, node)}: literal {node.value!r}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            faults += [f"{where(module, node)}: math.{alias.name}"
                       for alias in node.names if alias.name not in MATH_ALLOWED]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in MATH_ALLOWED):
            faults.append(f"{where(module, node)}: math.{node.attr}")
    assert faults == []


def test_imports_are_stdlib():
    faults = []
    for module, _, node in nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):  # the package's own modules
            owned = [node.module] if node.module else [alias.name for alias in node.names]
            faults += [f"{where(module, node)}: no module symbio.{name}"
                       for name in owned if not (PACKAGE / f"{name}.py").is_file()]
            continue
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top not in sys.stdlib_module_names or top in IMPORTS_BANNED:
                faults.append(f"{where(module, node)}: import {name}")
    assert faults == []


def raised(node):
    """The name of the exception a raise names, None for a bare re-raise."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if exc is None:
        return None
    return exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", ast.unparse(exc))


def test_raises_name_the_two_error_types():
    faults, used = [], set()
    for module, scope, node in nodes():
        if not isinstance(node, ast.Raise):
            continue
        entry = (module, scope, raised(node))
        if entry[2] in ("SymbioError", "BoundExceeded"):
            continue
        if entry in ALLOWED_RAISES:
            used.add(entry)
        else:
            faults.append(f"{where(module, node)}: raise {entry[2]} in {scope}")
    assert faults == []
    assert used == set(ALLOWED_RAISES), "allowed raises no longer in the source"
