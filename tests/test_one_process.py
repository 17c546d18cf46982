"""No module in src/ starts a process or a thread.

quatcliff is a single-process checker: every check runs in the calling
process, one after another.  Each module in src/ is parsed with the
stdlib ast; a start is any import of `concurrent`, `multiprocessing`,
`subprocess` or `threading` (or a submodule), or any attribute `fork` or
`forkpty` of a name bound to the os module, or either name imported from
os.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = {"concurrent", "multiprocessing", "subprocess", "threading"}
FORKS = {"fork", "forkpty"}


def process_starts(source):
    tree = ast.parse(source)
    os_names = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                for alias in node.names if alias.name == "os"}
    starts = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            starts.extend((node.lineno, alias.name) for alias in node.names
                          if alias.name.split(".")[0] in MODULES)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in MODULES:
                starts.append((node.lineno, node.module))
            elif node.module == "os":
                starts.extend((node.lineno, f"os.{alias.name}")
                              for alias in node.names if alias.name in FORKS)
        elif (isinstance(node, ast.Attribute) and node.attr in FORKS
                and isinstance(node.value, ast.Name)
                and node.value.id in os_names):
            starts.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(starts)


def test_scanner_flags_every_form_of_start():
    source = ("import os\nimport os as o\nimport threading\n"
              "from concurrent.futures import ProcessPoolExecutor\n"
              "import multiprocessing.pool as mp\nfrom os import fork, path\n"
              "o.fork()\nfrom subprocess import run\n"
              "from . import subprocess\nos.getpid()\n")
    assert process_starts(source) == [
        (3, "threading"), (4, "concurrent.futures"),
        (5, "multiprocessing.pool"), (6, "os.fork"), (7, "o.fork"),
        (8, "subprocess")]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src").rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_starts_a_process(path):
    assert process_starts(path.read_text()) == []
