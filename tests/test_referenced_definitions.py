"""Every function, class and method defined in src/, and every name a
module-level assignment there binds, is referenced by name somewhere in
src/ or perfbench/, so library code and data that only tests reach show
up here and are either wired in or deleted.

src/ is parsed with ast: a name counts as referenced where it is loaded
as an identifier, or appears as an attribute or a whole string constant,
except inside an __all__ assignment, which exports a name without calling
it.  perfbench/ is read as text, every word of it a reference, which
covers the names its tracer wraps.  A definition's own def line or
assignment does not reference it, and dunder names, which the language
reads, are skipped.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src").rglob("*.py"))
BENCH = sorted((ROOT / "perfbench").rglob("*.py"))

# Definitions kept with no caller in src/ or perfbench/, and why.
ALLOWED = {
    # paper claims still checked from the tests only, to become CLI checks
    "verify_osp12_and_sl12": "the Euclidean and hermitian grading "
                             "relations",
    "verify_qmonogenic_stability": "curlyE, curlyE_dag, P and Q preserve "
                                   "the q-monogenics",
    "verify_qmonogenic_equivalence": "the rotated Dirac and the complex "
                                     "derivative kernels agree",
    "trivial_intersection_check": "unbalanced q-monogenic bottom cells "
                                  "meet the opposite twisted kernel in 0",
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(source):
    """Functions, classes and methods, and the names that module-level
    assignments bind."""
    tree = ast.parse(source)
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))}
    names.update(n.id for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets for n in ast.walk(target)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return {name for name in names if not _dunder(name)}


def _exports(node):
    """Whether `node` assigns __all__, whose strings call nothing."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def references(source):
    names = set()
    todo = [ast.parse(source)]
    while todo:
        node = todo.pop()
        if _exports(node):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        todo.extend(ast.iter_child_nodes(node))
    return names


def unreferenced(sources, texts=()):
    """Names defined in `sources` that no source references and no word
    of `texts` spells."""
    defined, used = set(), set()
    for source in sources:
        defined |= definitions(source)
        used |= references(source)
    for text in texts:
        used.update(re.findall(r"\w+", text))
    return sorted(defined - used)


def test_scanner_flags_only_unreferenced_definitions():
    source = ("__all__ = ['exported', 'EXPORTED']\n"
              "__version__ = '1'\n"
              "EXPORTED = 0\n"
              "LOADED = STORED_ONLY = 1\n"
              "TRACED_DATA, _PAIR = 2, 3\n"
              "def exported(): pass\n"
              "def called(): pass\n"
              "def traced(): pass\n"
              "def orphan(): pass\n"
              "class K:\n"
              "    def __init__(self): self.method()\n"
              "    def method(self): return getattr(self, 'by_string')\n"
              "    def by_string(self): pass\n"
              "    def unused(self): pass\n"
              "called(K, LOADED, _PAIR)\n")
    texts = ["wrap('mod:K', ('traced', 'TRACED_DATA'))"]
    assert unreferenced([source], texts) == ["EXPORTED", "STORED_ONLY",
                                             "exported", "orphan", "unused"]
    assert unreferenced([source]) == ["EXPORTED", "STORED_ONLY",
                                      "TRACED_DATA", "exported", "orphan",
                                      "traced", "unused"]


def test_every_definition_is_referenced():
    found = unreferenced([path.read_text() for path in SRC],
                         [path.read_text() for path in BENCH])
    assert found == sorted(ALLOWED)
