"""The package's module-level imports, pinned.

Every `fmeas` command pays for these at start-up, so a new module-level
import (a few milliseconds each, e.g. dataclasses) shows here before it
shows in the benchmark's set-up time.  Every name the package exports
must resolve, so a stale entry in fmeas.__all__ fails here at once.
"""

import ast
from pathlib import Path

import fmeas

SRC = Path(__file__).resolve().parent.parent / "src" / "fmeas"

MODULE_LEVEL_STDLIB = {
    "argparse",
    "fractions",
    "functools",
    "json",
    "math",
    "operator",
    "sys",
    "typing",
}


def module_level_imports(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute imports run when the module loads:
    any outside a function body."""
    names = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module != "__future__":
                names.add(node.module.split(".")[0])
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def test_module_level_imports_are_pinned():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= module_level_imports(ast.parse(path.read_text(), str(path)))
    assert found == MODULE_LEVEL_STDLIB


def test_the_guard_sees_nested_and_dotted_imports():
    tree = ast.parse(
        "import os.path\n"
        "from . import x\n"
        "from __future__ import annotations\n"
        "try:\n    import dataclasses\nexcept ImportError:\n    pass\n"
        "def f():\n    import re\n"
        "class C:\n    import enum\n"
    )
    assert module_level_imports(tree) == {"os", "dataclasses", "enum"}


def test_every_export_resolves():
    missing = [name for name in fmeas.__all__ if not hasattr(fmeas, name)]
    assert missing == []
    assert len(set(fmeas.__all__)) == len(fmeas.__all__)
