"""Every function and class that src/ defines has a caller in the program.

Each module under src/ is parsed with `ast`, and so is each script under
bench/ other than its tests. A non-dunder `def` or `class`, at module
level or in a class body, counts as called when its name appears in that
code, outside the definition's own body, as a name, an attribute, a
string constant (the benchmark wraps functions by name) or a keyword
argument: a recursive call or a method reading itself is no caller. A
name that only tests reach is API that nothing in the program reads.
Names are matched without their owner, so a dead method that shares its
name with a live one (say, a second `fit`) passes.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/**/*.py"))
PROGRAM = SOURCES + sorted(p for p in ROOT.glob("bench/*.py") if not p.name.startswith("test_"))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def references(tree: ast.AST) -> Counter:
    """How often each name, attribute, string constant and keyword
    appears in `tree`."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs[node.value] += 1
        elif isinstance(node, ast.keyword) and node.arg is not None:
            refs[node.arg] += 1
    return refs


def definitions(source: str) -> dict[str, Counter]:
    """The non-dunder functions and classes `source` defines at module
    level or in a class body, in source order, each with the references
    inside its own definition; a member is `Class.name`."""
    found = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _dunder(node.name):
                    found[prefix + node.name] = references(node)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")

    visit(ast.parse(source).body, "")
    return found


def uncalled(defined: dict[str, Counter], refs: Counter) -> list[str]:
    """The definitions whose name appears in `refs` no more often than
    in their own body."""
    found = []
    for qual, own in defined.items():
        name = qual.rpartition(".")[2]
        if refs[name] <= own[name]:
            found.append(qual)
    return found


def test_the_scan_covers_src_and_the_bench_scripts():
    names = {path.relative_to(ROOT).as_posix() for path in PROGRAM}
    assert {"src/vanetlab/engine.py", "bench/run.py", "bench/checks.py"} <= names
    assert not any(name.startswith("bench/test_") for name in names)


def test_uncalled_finds_what_it_should():
    source = (
        "import dataclasses\n"
        "class Used:\n"
        "    def __init__(self): self.go(k=1)\n"
        "    def go(self, k): pass\n"
        "    def orphan(self): pass\n"
        "    def again(self):\n"
        "        return self.again()\n"  # only its own body reads it
        "    class Inner:\n"
        "        def wrapped(self): pass\n"
        "def by_string(): pass\n"
        "def by_keyword(): pass\n"
        "def lonely():\n"
        "    return lonely\n"  # a recursive reference is no caller
        "def dead(): pass\n"
        "TABLE = {'by_string': 1}\n"
        "Used().go(k=Used.Inner, by_keyword=2)\n"
        "dataclasses.replace(Used(), wrapped=1)\n"
    )
    assert list(definitions(source)) == [
        "Used", "Used.go", "Used.orphan", "Used.again", "Used.Inner", "Used.Inner.wrapped",
        "by_string", "by_keyword", "lonely", "dead",
    ]
    refs = references(ast.parse(source))
    assert uncalled(definitions(source), refs) == ["Used.orphan", "Used.again", "lonely", "dead"]


def test_every_src_definition_has_a_caller_in_the_program():
    refs = sum((references(ast.parse(p.read_text(encoding="utf-8"))) for p in PROGRAM), Counter())
    found = {path.relative_to(ROOT).as_posix(): names for path in SOURCES
             if (names := uncalled(definitions(path.read_text(encoding="utf-8")), refs))}
    assert found == {}
