"""Every name a module lists in __all__ has a caller outside the tests,
every defaulted parameter of such a function is passed by one, and the
float-range policy and the integer and real input rules live in errors.py
alone.

A name counts as used when code in the library modules, the benchmark or
the benches refers to it: a loaded ast.Name, an ast.Attribute or an
import alias, outside the name's own top-level def or class.  A parameter
counts as set when a call of that name there passes it by keyword or by
position.  Docstrings, comments and __all__ entries are strings, so they
do not count.  The files are parsed; nothing from perfbench is imported.
"""

import ast
import importlib
import inspect
import math
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


def _caller_statements():
    """(top-level statement, the name it defines or None) over the caller files."""
    files = [p for p in sorted((ROOT / "src" / "khessian").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files += sorted((ROOT / "benches").glob("*.py"))
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            yield stmt, stmt.name if isinstance(stmt, _DEFS) else None


def _caller_names():
    names = set()
    for stmt, own in _caller_statements():
        names.update(name for node in ast.walk(stmt)
                     if (name := _referenced(node)) not in (None, own))
    return names


def _public_functions():
    for short in MODULES:
        module = importlib.import_module(f"khessian.{short}")
        for name in module.__all__:
            if inspect.isfunction(obj := getattr(module, name)):
                yield f"{short}.{name}", obj


def test_every_public_name_has_a_caller():
    names = _caller_names()
    unused = [f"{short}.{name}" for short in MODULES
              for name in importlib.import_module(f"khessian.{short}").__all__
              if name not in names]
    assert unused == []


# iterate_fixed_lambda mirrors estimate_lambda1's (cfg, solver_cfg), and
# ROADMAP item 3 runs it on each grid
_UNSET_BY_DESIGN = {"eigen.iterate_fixed_lambda": {"cfg", "solver_cfg"}}


def _set_parameters():
    """{function name: (positions, keywords)}: the most positional arguments
    and every keyword some call of that name passes, with *args or
    **kwargs counting as every position or keyword."""
    passed = {}
    for stmt, own in _caller_statements():
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call) or (name := _referenced(node.func)) in (None, own):
                continue
            entry = passed.setdefault(name, [0, set()])
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            entry[0] = max(entry[0], math.inf if starred else len(node.args))
            entry[1].update(kw.arg or "**" for kw in node.keywords)
    return passed


def test_every_option_of_a_public_function_is_set_by_a_caller():
    # a defaulted parameter that no caller passes is an option nobody uses:
    # minimum_principle_probe's rhs and hopf_linear_bound's r_in and m were
    passed = _set_parameters()
    unset = []
    for name, fn in _public_functions():
        positions, keywords = passed.get(fn.__name__, (0, set()))
        for i, param in enumerate(inspect.signature(fn).parameters.values()):
            positional = param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            if (param.default is not inspect.Parameter.empty
                    and not (positional and i < positions)
                    and not {param.name, "**"} & keywords
                    and param.name not in _UNSET_BY_DESIGN.get(name, ())):
                unset.append(f"{name}({param.name})")
    assert unset == []


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
