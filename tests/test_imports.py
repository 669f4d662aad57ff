"""Every name a module imports is read somewhere in that module, and
the simulator half of the package loads without numpy.

Each module under src/ and tests/ is parsed with `ast`. A name counts as
read when it appears as a name anywhere in the module, in an annotation
or as the base of an attribute included, or when `__all__` lists it.
`from __future__` imports bind no name and are skipped.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
# the modules that simulate, label and score; the pin script regenerates
# its simulator section on them under interpreters that have neither
# numpy nor pytest
NUMPY_FREE = ("vanetlab.engine", "vanetlab.aodv", "vanetlab.flows", "vanetlab.scenario",
              "vanetlab.config", "vanetlab.dataset", "vanetlab.metrics", "pins")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_the_scan_covers_both_trees():
    names = {path.relative_to(ROOT).as_posix() for path in MODULES}
    assert {"src/vanetlab/classifiers/svm.py", "tests/test_imports.py"} <= names


def test_unused_imports_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from .base import exported\n"
        "__all__ = ['exported']\n"
        "def f(x: Optional[int]) -> float:\n"
        "    return np.sqrt(x)\n"
    )
    assert unused_imports(source) == ["math", "os", "Sequence"]


def test_no_module_imports_a_name_it_never_reads():
    found = {path.relative_to(ROOT).as_posix(): names for path in MODULES
             if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def test_the_simulator_half_loads_neither_numpy_nor_pytest():
    code = (
        "import sys\n"
        f"for name in {NUMPY_FREE!r}:\n"
        "    __import__(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'pytest')))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path}, check=True)
    assert child.stdout == "[]\n"
