"""Every name a module imports is read somewhere in that module.

Each module under src/ and tests/ is parsed with `ast`. A name counts as
read when it appears as a name anywhere in the module, in an annotation
or as the base of an attribute included, or when `__all__` lists it.
`from __future__` imports bind no name and are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


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
