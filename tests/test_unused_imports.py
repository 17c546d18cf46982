"""No module in src/ or tests/ imports a name it never uses, and none
exports a name it does not define.

A stdlib-only stand-in for a linter: each file is parsed with ast, and every
name an import binds must appear as a name or attribute base somewhere in
the same file.  Names listed in __all__ count as used, and so does every
import of a package __init__.py, which re-exports them.  Every name listed
in __all__ must be bound at module level, so a deleted function cannot
leave a stale export that breaks `from module import *`.
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


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _module_bindings(body):
    """Names bound by module-level statements, including those inside
    if/try/for/with blocks but not inside functions or classes."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.partition(".")[0]
                         for alias in node.names)
        else:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(
                           node, (ast.AnnAssign, ast.AugAssign, ast.For))
                       else [])
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
            for field in ("body", "orelse", "finalbody", "handlers"):
                names |= _module_bindings(getattr(node, field, []))
    return names


def undefined_exports(source):
    tree = ast.parse(source)
    bound = _module_bindings(tree.body)
    return [name for name in _exported(tree) if name not in bound]


def test_scanner_flags_only_unused_names():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\n"
              "from e import f\n__all__ = ['f']\nprint(d, osp)\n")
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", [p for p in FILES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_export_scanner_flags_only_undefined_names():
    source = ("import os\nfrom a import b as c\nX = 1\nY: int = 2\n"
              "if X:\n    Z = 3\ntry:\n    W = 4\nexcept ImportError:\n"
              "    V = 5\nfor U in ():\n    pass\ndef f():\n    inner = 1\n"
              "class K:\n    attr = 1\n"
              "__all__ = ['os', 'c', 'X', 'Y', 'Z', 'W', 'V', 'U', 'f', 'K',\n"
              "           'inner', 'attr', 'b', 'gone']\n")
    assert undefined_exports(source) == ["inner", "attr", "b", "gone"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_exports_are_defined(path):
    assert undefined_exports(path.read_text()) == []
