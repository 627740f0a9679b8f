"""No `src/` module or test file imports a name it never uses, so deletions
leave no dead imports behind. Package `__init__.py` files exist to re-export
names, so they are exempt, and so is an import whose lines carry a ``# noqa``
comment, such as one made for its side effects."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def unused_imports(source: str) -> list:
    """(name, line) of each name `source` imports but never reads, except
    those of an import with ``# noqa`` on one of its lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = ("import os\nimport a.b\nfrom x import y as z, w\nw()\na.b.c\n"
              "import side_effect  # noqa: F401\nfrom p import (q,\n    r)  # noqa\n")
    assert unused_imports(source) == [("os", 1), ("z", 3)]


def test_src_modules_and_tests_use_every_import():
    files = [path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"]
    files += sorted(TESTS.glob("*.py"))
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in files
              for name, line in unused_imports(path.read_text(encoding="utf-8"))]
    assert not unused
