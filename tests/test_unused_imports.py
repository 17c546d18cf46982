"""No module in src/ or tests/ imports a name it never uses.

A stdlib-only stand-in for a linter: each file is parsed with ast, and every
name an import binds must appear as a name or attribute base somewhere in
the same file.  Names listed in __all__ count as used, and so does every
import of a package __init__.py, which re-exports them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = [path for top in ("src", "tests")
         for path in sorted((ROOT / top).rglob("*.py"))]


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_scanner_flags_only_unused_names():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\n"
              "from e import f\n__all__ = ['f']\nprint(d, osp)\n")
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", [p for p in FILES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
