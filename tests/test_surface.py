"""Every name a module lists in __all__ has a caller outside the tests.

A name counts as used when it appears in the library modules, the
benchmark or the benches anywhere other than its own def, class or
assignment line and its __all__ entry.  The files are read as text;
nothing from perfbench is imported.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("cones", "dirichlet", "eigen", "geometry", "radial", "symfun")


def _callers_text():
    files = [p for p in sorted((ROOT / "src" / "khessian").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files += sorted((ROOT / "benches").glob("*.py"))
    return "\n".join(p.read_text() for p in files)


def test_every_public_name_has_a_caller():
    text = _callers_text()
    unused = []
    for short in MODULES:
        for name in importlib.import_module(f"khessian.{short}").__all__:
            word = re.escape(name)
            uses = len(re.findall(rf"\b{word}\b", text))
            # its def, class or assignment line, plus its __all__ entry
            own = len(re.findall(rf"\b(?:def|class) {word}\b|^{word} =", text, re.M)) + 1
            if uses <= own:
                unused.append(f"{short}.{name}")
    assert unused == []
