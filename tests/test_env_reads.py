"""Only env.py reads the environment.

Every knob then goes through the strict parser in env.py, so a bad value
is a configuration error (exit 2) and never a silent default or a
traceback at import.  Each module in src/ is parsed with the stdlib ast;
a read is any attribute `environ`, `environb`, `getenv` or `getenvb` of a
name bound to the os module, or any of those names imported from os.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV_MODULE = ROOT / "src" / "quatcliff" / "env.py"
READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source):
    tree = ast.parse(source)
    os_names = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                for alias in node.names if alias.name == "os"}
    reads = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in READERS
                and isinstance(node.value, ast.Name)
                and node.value.id in os_names):
            reads.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads.extend((node.lineno, f"os.{alias.name}")
                         for alias in node.names if alias.name in READERS)
    return sorted(reads)


def test_scanner_flags_every_form_of_read():
    source = ("import os\nimport os as o\nfrom os import getenv, path\n"
              "a = os.environ.get('X')\nb = o.getenv('Y')\n"
              "c = path.join('d', 'e')\nos.cpu_count()\n")
    assert environment_reads(source) == [
        (3, "os.getenv"), (4, "os.environ"), (5, "o.getenv")]


def test_env_module_is_the_reader():
    assert environment_reads(ENV_MODULE.read_text())


@pytest.mark.parametrize(
    "path", [p for p in sorted((ROOT / "src").rglob("*.py")) if p != ENV_MODULE],
    ids=lambda p: str(p.relative_to(ROOT)))
def test_only_env_reads_the_environment(path):
    assert environment_reads(path.read_text()) == []
