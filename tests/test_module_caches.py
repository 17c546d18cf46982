"""No function writes to a module-level container.

Memoised results live in functools.cache on the function that computes
them, which gives every cache the same cache_info() and cache_clear().
A module dict filled from a function body is a second, hand-rolled
cache (or other state shared by every caller in the process), so each
module in src/ is parsed with the stdlib ast and any function that
assigns to a subscript of a module-level name, or calls .setdefault or
.update on one, is reported.  Tables filled at import time, by code at
module level, do not count.

A cached value is shared by every later caller, so the bases the caches
hold are tuples: a caller that appended to a cached list would change
the result of every later call.
"""

import ast
from pathlib import Path

import pytest

from quatcliff import fischer, operators

ROOT = Path(__file__).resolve().parent.parent
MUTATORS = {"setdefault", "update"}


def _module_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _local_names(fn):
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    names.update(node.id for node in ast.walk(fn)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Store))
    return names


def module_writes(source):
    """(line, name) for each write to a module-level name's contents
    made inside a function body."""
    tree = ast.parse(source)
    shared = _module_names(tree)
    writes = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        targets = shared - _local_names(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript):
                hit = isinstance(node.ctx, ast.Store)
                base = node.value
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                hit = node.func.attr in MUTATORS
                base = node.func.value
            else:
                continue
            if hit and isinstance(base, ast.Name) and base.id in targets:
                writes.add((node.lineno, base.id))
    return sorted(writes)


def test_scanner_flags_every_form_of_write():
    source = ("import functools\n"
              "_C = {}\n"
              "TABLE = {}\n"
              "TABLE['x'] = 1\n"
              "def f(k):\n"
              "    _C[k] = 1\n"
              "    _C.setdefault(k, 2)\n"
              "    _C.update({k: 3})\n"
              "    return _C.get(k)\n"
              "class A:\n"
              "    def g(self, k):\n"
              "        _C[k] += 1\n"
              "        self.d = {}\n"
              "        self.d[k] = TABLE[k]\n"
              "def h(_C):\n"
              "    _C[0] = 1\n"
              "    out = {}\n"
              "    out[0] = 1\n"
              "@functools.cache\n"
              "def memo(k):\n"
              "    return k\n")
    assert module_writes(source) == [
        (6, "_C"), (7, "_C"), (8, "_C"), (12, "_C")]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_function_writes_module_state(path):
    assert module_writes(path.read_text()) == []


# a nonempty basis from each cached basis function
CACHED_BASES = {
    "cell_basis": lambda: operators.cell_basis(1, 1, 1),
    "harmonic_space": lambda: fischer.harmonic_space(1, 1, 1),
    "symplectic_harmonic_space":
        lambda: fischer.symplectic_harmonic_space(1, 1, 0),
    "qmonogenic_space": lambda: fischer.qmonogenic_space(1, 1, 0),
    "s_space": lambda: fischer.s_space(1, 1, 1, 0),
    "t_space": lambda: fischer.t_space(1, 1, 0, 0),
    "_monogenic_basis": lambda: fischer._monogenic_basis(1, 1),
    "_piece_power": lambda: fischer._piece_power(1, 1, 0, 0, 1, 0, 0, 0),
}


@pytest.mark.parametrize("name", sorted(CACHED_BASES))
def test_cached_basis_is_one_shared_tuple(name):
    first = CACHED_BASES[name]()
    assert isinstance(first, tuple) and first
    assert CACHED_BASES[name]() is first
