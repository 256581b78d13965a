"""Every name a module lists in __all__ has a caller outside the tests,
and the float-range policy and the integer and real input rules live in
errors.py alone.

A name counts as used when code in the library modules, the benchmark or
the benches refers to it: a loaded ast.Name, an ast.Attribute or an
import alias, outside the name's own top-level def or class.  Docstrings,
comments and __all__ entries are strings, so they do not count.  The
files are parsed; nothing from perfbench is imported.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("cones", "dirichlet", "eigen", "geometry", "radial", "symfun")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(node):
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _caller_names():
    files = [p for p in sorted((ROOT / "src" / "khessian").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files += sorted((ROOT / "benches").glob("*.py"))
    names = set()
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            own = stmt.name if isinstance(stmt, _DEFS) else None
            names.update(name for node in ast.walk(stmt)
                         if (name := _referenced(node)) not in (None, own))
    return names


def test_every_public_name_has_a_caller():
    names = _caller_names()
    unused = [f"{short}.{name}" for short in MODULES
              for name in importlib.import_module(f"khessian.{short}").__all__
              if name not in names]
    assert unused == []


def test_float_range_policy_lives_in_errors():
    # numpy's error state and its FloatingPointError are handled only by
    # errors.float_range, so every numeric entry point shares one policy
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "khessian").glob("*.py")) if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if _referenced(node) in ("errstate", "FloatingPointError")
    )
    assert found == []


def _names_int(node):
    return isinstance(node, ast.Name) and node.id == "int"


def _int_type_test(node):
    """isinstance(x, int), isinstance(x, (int, ...)), type(x) is int or is not int."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "isinstance" and len(node.args) == 2:
        kinds = node.args[1]
        return any(map(_names_int, kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]))
    if isinstance(node, ast.Compare):
        return (any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(map(_names_int, node.comparators)))
    return False


def test_integer_rule_lives_in_errors():
    # orders, dimensions and counts are checked only by errors.check_int,
    # so every entry point refuses a float, a bool or a string alike
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "khessian").glob("*.py")) if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if _int_type_test(node)
    )
    assert found == []


def _is_inf(node):
    return isinstance(node, ast.Attribute) and node.attr == "inf"


def test_real_rule_lives_in_errors():
    # scalar real arguments are checked only by errors.check_real, so no
    # module compares a value against math.inf (or np.inf) by hand
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "khessian").glob("*.py")) if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Compare) and any(map(_is_inf, [node.left, *node.comparators]))
    )
    assert found == []
