"""The benchmark's tracer still finds every function it wraps.

perfbench/tracer.py names the functions it times in SPANS, as (span,
owner, attribute names), and looks each one up with vars(owner)[name]
when tracing is on; a function renamed or deleted in the package makes
that lookup raise KeyError.  SPANS is read from the tracer's source with
ast.literal_eval, so perfbench is neither imported nor changed here.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

from quatcliff import cli, operators

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def read_spans(source):
    """The literal value of the module-level SPANS assignment."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("no module-level SPANS assignment")


def owner_of(owner):
    """The module, or the class for a 'module:Class' owner."""
    mod_name, _, cls_name = owner.partition(":")
    home = importlib.import_module(mod_name)
    return getattr(home, cls_name) if cls_name else home


def test_read_spans_self_test():
    source = ('import x\nSPAN_COUNT = 1\n'
              'def f():\n    SPANS = ()\n'
              'SPANS = (("s.t", "m:C", ("f", "g")),)\n')
    assert read_spans(source) == (("s.t", "m:C", ("f", "g")),)
    with pytest.raises(LookupError):
        read_spans("def f():\n    SPANS = ()\n")
    with pytest.raises(ValueError):
        read_spans("SPANS = tuple(x)\n")


def test_every_traced_name_is_bound():
    spans = read_spans(TRACER.read_text())
    pairs = [(owner, attr) for _, owner, attrs in spans for attr in attrs]
    assert pairs
    missing = [(owner, attr) for owner, attr in pairs
               if attr not in vars(owner_of(owner))]
    assert not missing


def test_apply_cached_keeps_the_traced_parameters():
    # the tracer's apply_cached hook reads args[1].terms and args[2] or
    # kwargs["cache"]
    params = list(inspect.signature(operators.apply_cached).parameters)
    assert params == ["op", "F", "cache"]


def test_emit_report_returns_what_it_writes(tmp_path):
    # the tracer's emit_report hook counts cli.report_bytes from the
    # value emit_report returns
    payload = cli.run(cli.RunConfig(p=1, checks=("cells",)))
    out = tmp_path / "report.json"
    assert cli.emit_report(payload, str(out)) is payload
    assert json.loads(out.read_text()) == payload
