"""The package's module-level imports, pinned.

Every `fmeas` command pays for these at start-up, so a new module-level
import (a few milliseconds each, e.g. dataclasses) shows here before it
shows in the benchmark's set-up time.  The modules `import fmeas.cli`
loads are pinned too, in a fresh interpreter.  Every name the package
exports must resolve, so a stale entry in fmeas.__all__ fails here at
once.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import fmeas

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fmeas"

MODULE_LEVEL_STDLIB = {
    "argparse",
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


def fresh_interpreter(code: str, *path: Path) -> str:
    """stdout of code run by a new interpreter that imports fmeas from
    the sources under test, with path ahead of them."""
    paths = [str(p) for p in path] + [str(Path(fmeas.__file__).parent.parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_cli_loads_only_the_modules_a_command_may_need():
    # the Frattini/embedding and inverse-system modules, the backend and
    # Fraction load only when a command, a suite or a package name needs them
    out = fresh_interpreter(
        "import json, sys\n"
        "import fmeas.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('fmeas', 'fractions', 'decimal'))))\n"
    )
    assert json.loads(out) == [
        "fmeas",
        "fmeas.cli",
        "fmeas.groups",
        "fmeas.lattice",
        "fmeas.measure",
        "fmeas.setupfile",
    ]


def test_reading_one_export_loads_every_module():
    out = fresh_interpreter(
        "import json, sys\n"
        "from fmeas import mu1\n"
        "import fmeas\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fmeas'))))\n"
        "print(json.dumps([n for n in fmeas.__all__ if n not in vars(fmeas)]))\n"
    )
    loaded, unbound = map(json.loads, out.splitlines())
    assert loaded == ["fmeas"] + ["fmeas." + m for m in fmeas._MODULES]
    assert unbound == []


def test_the_tracer_resolves_after_the_benchmark_start_up():
    # perfbench/run.py imports fmeas and fmeas.cli and reads fmeas.BACKEND
    # before it builds a Tracer, which finds every traced module in
    # sys.modules
    out = fresh_interpreter(
        "import fmeas\n"
        "import fmeas.cli\n"
        "fmeas.BACKEND\n"
        "import tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "tracer.remove()\n"
        "print(len(tracer._patches))\n",
        ROOT / "perfbench",
    )
    assert int(out) > 0


def test_an_unknown_package_name_raises_attribute_error():
    assert not hasattr(fmeas, "no_such_name")
