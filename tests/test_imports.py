"""No `src/` module imports a name it never uses, so deletions leave no dead
imports behind. Package `__init__.py` files exist to re-export names, so
they are exempt."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def unused_imports(source: str) -> list:
    """(name, line) of each name `source` imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport a.b\nfrom x import y as z, w\nw()\na.b.c\n"
    assert unused_imports(source) == [("os", 1), ("z", 3)]


def test_src_modules_use_every_import():
    unused = [f"{path.relative_to(SRC)}:{line}: {name}"
              for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
              for name, line in unused_imports(path.read_text(encoding="utf-8"))]
    assert not unused
