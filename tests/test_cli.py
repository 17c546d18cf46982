"""Configuration handling, JSON schema parsing and the console entry
points.  End-to-end invocations go through main() with real files in
tmp_path; reports are compared after stripping the timing block, which
is the only part allowed to vary between identical runs.
"""

import hashlib
import json
import random

import pytest

from quatcliff import cli, fischer, relations
from quatcliff.poly import SpinorPolynomial
from quatcliff.scalars import xs
from quatcliff.witt import cell_labels


def canonical(payload):
    payload = dict(payload)
    payload.pop("timing", None)
    return json.dumps(payload, sort_keys=True)


def digest(value):
    """sha256 of the canonical JSON of `value`, its timing block removed."""
    if isinstance(value, dict):
        value = {k: v for k, v in value.items() if k != "timing"}
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def walk(node, found, key):
    if isinstance(node, dict):
        if key in node:
            found.append(node)
        for v in node.values():
            walk(v, found, key)
    elif isinstance(node, list):
        for v in node:
            walk(v, found, key)
    return found


# --------------------------------------------------------------- RunConfig

def test_config_defaults_validate():
    cfg = cli.RunConfig().validate()
    assert cfg.p == 1 and cfg.dim_cap >= 1


@pytest.mark.parametrize("kwargs", [
    {"p": 0}, {"p": 4}, {"p": "2"},
    {"max_total_degree": -1}, {"max_total_degree": 7},
    {"checks": ("relations", "nope")},
    {"dim_cap": 0}, {"dim_cap": "two"},
    {"label_filter": {"a": 1}},
    {"label_filter": {"a": -1, "b": 0}},
    {"p": 2, "label_filter": {"a": 1, "b": 0, "r": 3}},
    {"label_filter": {"a": 7, "b": 0}},
    {"label_filter": {"a": 4, "b": 3}},
    {"checks": ("prop9",), "label_filter": {"a": 0, "b": 2}},
    # a filter field that a selected check does not read
    {"checks": ("thm10",), "label_filter": {"a": 1, "b": 0, "r": 1}},
    {"checks": ("thm5",), "label_filter": {"a": 1, "b": 0, "r": 0}},
    {"checks": ("hermitian",), "label_filter": {"a": 1, "b": 0, "r": 0}},
    {"checks": ("relations", "euclidean"),
     "label_filter": {"a": 0, "b": 0}},
    {"checks": ("cells",), "label_filter": {"a": 0, "b": 0}},
    {"checks": ("example13",), "label_filter": {"a": 0, "b": 0}},
    {"checks": ("prop8", "thm10"), "label_filter": {"a": 1, "b": 0, "r": 0}},
    {"checks": ("prop8",), "label_filter": {"a": 1, "b": 0, "x": 0}},
    # booleans are not integers
    {"p": True, "checks": ("cells",)}, {"max_total_degree": True},
    {"dim_cap": True},
    {"label_filter": {"a": True, "b": False}},
    {"checks": ("prop8",), "label_filter": {"a": 1, "b": 0, "r": True}},
    # nor are whole-valued floats
    {"dim_cap": 2.0}, {"max_total_degree": 1.0},
])
def test_config_rejects(kwargs):
    with pytest.raises(ValueError):
        cli.RunConfig(**kwargs).validate()


def test_config_env_defaults(monkeypatch):
    monkeypatch.setenv("QUATCLIFF_DIM_CAP", "123")
    assert cli.RunConfig().dim_cap == 123
    assert cli.RunConfig(dim_cap=7).dim_cap == 7
    for junk in ("junk", "abc"):
        monkeypatch.setenv("QUATCLIFF_DIM_CAP", junk)
        with pytest.raises(ValueError):
            cli.RunConfig()


@pytest.mark.parametrize("name,value", [
    ("QUATCLIFF_DIM_CAP", "abc"), ("QUATCLIFF_DIM_CAP", "-5"),
    ("QUATCLIFF_DIM_CAP", "0"),
    # int() reads these, but only ASCII decimal digits are a count
    ("QUATCLIFF_DIM_CAP", "1_0"), ("QUATCLIFF_DIM_CAP", "\u0663"),
    ("QUATCLIFF_DIM_CAP", "+2"), ("QUATCLIFF_DIM_CAP", " 2 "),
    pytest.param("QUATCLIFF_DIM_CAP", "9" * 5000,
                 id="QUATCLIFF_DIM_CAP-5000-digits"),
])
def test_bad_env_exits_2(monkeypatch, capsys, name, value):
    monkeypatch.setenv(name, value)
    assert cli.main(["cells", "--p", "1"]) == 2
    assert name in capsys.readouterr().err


def test_empty_run_passes():
    payload = cli.run(cli.RunConfig(checks=()))
    assert payload["passed"] and payload["checks"] == {}


# ----------------------------------------------------------- JSON parsing

def coeff_one():
    return {"a_re": 1, "a_im": 0, "b_re": 0, "b_im": 0}


def good_term():
    return {"alpha": [0, 1, 0, 0], "beta": [0, 0, 0, 0],
            "spinor": [1], "coeff": coeff_one()}


def test_parse_missing_spinor_is_the_vacuum():
    term = {k: v for k, v in good_term().items() if k != "spinor"}
    assert SpinorPolynomial.from_json([term], n=4) \
        == SpinorPolynomial.monomial(4, (0, 1, 0, 0), (0, 0, 0, 0), 0, xs(1))


def test_parse_single_witt_monomial():
    F = SpinorPolynomial.from_json([good_term()], n=4)
    assert F == SpinorPolynomial.monomial(4, (0, 1, 0, 0), (0, 0, 0, 0),
                                          0b0001)


def test_parse_empty_list_is_zero():
    assert SpinorPolynomial.from_json([], n=4).is_zero()


def read_via_decompose(data, tmp_path):
    """Read `data` the way the decompose command does: its components
    sum back to the polynomial it parsed."""
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps(data))
    assert cli.main(["decompose", "--p", "2", "--input", str(inp),
                     "--output", str(out)]) == 0
    F = SpinorPolynomial.zero(4)
    for comp in json.loads(out.read_text())["components"]:
        F = F + SpinorPolynomial.from_json(comp["component"], n=4)
    return F


@pytest.mark.parametrize("parse", [
    read_via_decompose,
    lambda data, tmp_path: SpinorPolynomial.from_json(data, n=4)],
    ids=["cli", "from_json"])
def test_parse_sums_repeated_terms(parse, tmp_path):
    def term(alpha, re):
        return {"alpha": alpha, "beta": [0, 0, 0, 0], "spinor": [1],
                "coeff": {"a_re": re, "a_im": 0, "b_re": 0, "b_im": 0}}
    x, y = [0, 1, 0, 0], [1, 0, 0, 0]
    F = parse([term(x, 1), term(y, 2), term(x, "1/2"), term(y, -2)],
              tmp_path)
    assert F == SpinorPolynomial.monomial(4, x, (0, 0, 0, 0), 0b0001,
                                          xs("3/2"))


def test_parse_round_trip_random():
    rng = random.Random(5)
    n = 4
    F = SpinorPolynomial.zero(n)
    for _ in range(50):
        alpha = tuple(rng.randint(0, 2) for _ in range(n))
        beta = tuple(rng.randint(0, 2) for _ in range(n))
        mask = rng.randrange(1 << n)
        c = xs(rng.randint(-5, 5), rng.randint(-5, 5))
        F = F + SpinorPolynomial.monomial(n, alpha, beta, mask, c)
    again = SpinorPolynomial.from_json(F.to_json(), n=n)
    assert again == F


@pytest.mark.parametrize("mangle,needle", [
    (lambda t: "not a list", "must be a list"),
    (lambda t: [42], "term 0: expected an object"),
    (lambda t: [dict(t, alpha="xy")], "term 0, field 'alpha'"),
    (lambda t: [dict(t, beta=[0, -1, 0, 0])], "term 0, field 'beta'"),
    (lambda t: [t, dict(t, alpha=[0, 1])], "term 1"),
    (lambda t: [dict(t, spinor=[1, 1])], "field 'spinor'"),
    (lambda t: [dict(t, spinor=[5])], "field 'spinor'"),
    (lambda t: [dict(t, coeff=7)], "field 'coeff'"),
    (lambda t: [dict(t, coeff={"a_re": 1})], "missing 'a_im'"),
    (lambda t: [dict(t, coeff=dict(coeff_one(), b_im=1.5))],
     "field 'coeff.b_im'"),
    (lambda t: [dict(t, coeff=dict(coeff_one(), a_re="1/0"))], "term 0"),
    (lambda t: [dict(t, coeff=dict(coeff_one(), a_re="1_0"))],
     "term 0: '1_0' is not"),
    (lambda t: [dict(t, coeff=dict(coeff_one(), a_im="\u0663"))],
     "term 0: '\u0663' is not"),
    (lambda t: [dict(t, coeff=dict(coeff_one(), b_re=" +2 "))],
     "term 0: ' +2 ' is not"),
    (lambda t: [dict(t, coeff=dict(coeff_one(), a_re="1/ 2"))],
     "term 0: '1/ 2' is not"),
    (lambda t: [dict(t, coeff=dict(coeff_one(), a_re="1/0_3"))],
     "term 0: '1/0_3' is not"),
    (lambda t: [t, {k: v for k, v in t.items() if k != "spinor"}
                | {"spinors": [1]}], "term 1: unknown keys ['spinors']"),
    (lambda t: [dict(t, coeff=dict(coeff_one(), c_re=0))],
     "term 0, field 'coeff': unknown keys ['c_re']"),
])
def test_parse_schema_violations(mangle, needle):
    with pytest.raises(ValueError) as err:
        SpinorPolynomial.from_json(mangle(good_term()), n=4)
    assert needle in str(err.value)


# -------------------------------------------------------------- end to end

def test_cells_command(tmp_path, capsys):
    out = tmp_path / "cells.json"
    assert cli.main(["cells", "--p", "1", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == cli.SCHEMA_VERSION
    assert payload["checks"]["cells"]["passed"]
    text = capsys.readouterr().out
    assert "cells: pass" in text and "overall: pass" in text


def test_verify_relations_command(tmp_path):
    out = tmp_path / "rel.json"
    rc = cli.main(["verify-relations", "--p", "1", "--max-degree", "1",
                   "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["checks"]["relations"]["passed"]


def test_fischer_command_with_label(tmp_path):
    out = tmp_path / "f.json"
    rc = cli.main(["fischer", "--p", "2", "--a", "1", "--b", "0",
                   "--r", "0", "--check", "prop9", "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["label_filter"] == {"a": 1, "b": 0, "r": 0}
    assert payload["checks"]["prop9"]["passed"]


def test_invalid_p_exits_2():
    assert cli.main(["cells", "--p", "9"]) == 2


def test_fischer_label_over_degree_bound_exits_2(capsys):
    rc = cli.main(["fischer", "--p", "1", "--a", "7", "--b", "0",
                   "--check", "thm5"])
    assert rc == 2
    assert "error: label_filter a + b must be at most 6" in \
        capsys.readouterr().err


def test_fischer_unread_label_field_exits_2(tmp_path, capsys):
    # thm10 reads the degree a + b only, so --r would be silently ignored
    out = tmp_path / "f.json"
    rc = cli.main(["fischer", "--p", "1", "--a", "1", "--b", "0",
                   "--r", "1", "--check", "thm10", "--json", str(out)])
    assert rc == 2
    assert "['r']" in capsys.readouterr().err
    assert not out.exists()


def test_fischer_prop9_below_diagonal_exits_2(capsys):
    rc = cli.main(["fischer", "--p", "1", "--a", "0", "--b", "2",
                   "--check", "prop9"])
    assert rc == 2
    assert "a >= b" in capsys.readouterr().err


def test_failing_check_exits_1(monkeypatch):
    monkeypatch.setitem(cli._RUNNERS, "cells",
                        lambda config: {"passed": False, "why": "forced"})
    assert cli.main(["cells", "--p", "1"]) == 1


def test_decompose_round_trip(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    terms = []
    for k in range(2):
        alpha = [0, 0]
        beta = [0, 0]
        alpha[k] = 1
        beta[k] = 1
        terms.append({"alpha": alpha, "beta": beta, "spinor": [],
                      "coeff": coeff_one()})
    inp.write_text(json.dumps(terms))
    rc = cli.main(["decompose", "--p", "1", "--input", str(inp),
                   "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] and len(payload["components"]) == 1
    lab = payload["components"][0]
    assert (lab["l"], lab["j"], lab["t"], lab["alpha"], lab["r"]) \
        == (1, 0, 0, 0, 0)
    assert SpinorPolynomial.from_json(lab["source"], n=2) \
        == SpinorPolynomial.monomial(2, (0, 0), (0, 0), 0)


@pytest.mark.parametrize("degree,code", [(1, 2), (0, 0)])
def test_decompose_honours_dim_cap(tmp_path, monkeypatch, degree, code):
    # p=1: bidegree (1,1) spans 4 * 4 = 16 dimensions, (0,0) only 4
    monkeypatch.setenv("QUATCLIFF_DIM_CAP", "10")
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps([{"alpha": [degree, 0], "beta": [degree, 0],
                                "spinor": [], "coeff": coeff_one()}]))
    rc = cli.main(["decompose", "--p", "1", "--input", str(inp),
                   "--output", str(out)])
    assert rc == code
    assert out.exists() == (code == 0)


def test_decompose_honours_degree_bound(tmp_path, capsys):
    # p=1: bidegree (4,3) spans only 5 * 4 * 4 = 80 dimensions, far under
    # the cap, but its total degree 7 is over the bound every check obeys
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps([{"alpha": [4, 0], "beta": [3, 0],
                                "spinor": [], "coeff": coeff_one()}]))
    rc = cli.main(["decompose", "--p", "1", "--input", str(inp),
                   "--output", str(out)])
    assert rc == 2
    assert f"over the bound {cli.MAX_TOTAL_DEGREE}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p", ["0", "-1", "5"])
def test_decompose_rejects_p_out_of_range(tmp_path, capsys, p):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps([]))
    rc = cli.main(["decompose", "--p", p, "--input", str(inp),
                   "--output", str(out)])
    assert rc == 2
    assert "error: p must be an integer in 1..3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mangle,needle", [
    (lambda t: dict(t, alpha=[True, 0, 0, 0]), "term 1, field 'alpha'"),
    (lambda t: dict(t, beta=[0, 0, False, 0]), "term 1, field 'beta'"),
    (lambda t: dict(t, spinor=[True]), "term 1, field 'spinor'"),
    (lambda t: dict(t, coeff=dict(coeff_one(), a_re=True)),
     "term 1, field 'coeff.a_re'"),
    (lambda t: dict(t, coeff=dict(coeff_one(), a_im=False)),
     "term 1, field 'coeff.a_im'"),
    (lambda t: dict(t, coeff=dict(coeff_one(), b_re=True)),
     "term 1, field 'coeff.b_re'"),
    (lambda t: dict(t, coeff=dict(coeff_one(), b_im=True)),
     "term 1, field 'coeff.b_im'"),
])
def test_decompose_rejects_json_booleans(tmp_path, capsys, mangle, needle):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps([good_term(), mangle(good_term())]))
    rc = cli.main(["decompose", "--p", "2", "--input", str(inp),
                   "--output", str(out)])
    assert rc == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_decompose_bad_schema_exits_2(tmp_path):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps([{"alpha": [1], "beta": "no"}]))
    rc = cli.main(["decompose", "--p", "1", "--input", str(inp),
                   "--output", str(tmp_path / "o.json")])
    assert rc == 2


def test_decompose_malformed_json_exits_2(tmp_path):
    # the second input nests deeper than the JSON reader can recurse
    inp = tmp_path / "in.json"
    out = tmp_path / "o.json"
    for text in ("{not json", "[" * 10000):
        inp.write_text(text)
        rc = cli.main(["decompose", "--p", "1", "--input", str(inp),
                       "--output", str(out)])
        assert rc == 2
        assert not out.exists()


def test_missing_input_file_exits_2(tmp_path):
    rc = cli.main(["decompose", "--p", "1",
                   "--input", str(tmp_path / "absent.json"),
                   "--output", str(tmp_path / "o.json")])
    assert rc == 2


# ----------------------------------------------------------- report output

def test_report_determinism(tmp_path):
    out = tmp_path / "rep.json"
    args = ["verify-relations", "--p", "1", "--max-degree", "2",
            "--json", str(out)]
    assert cli.main(args) == 0
    first = canonical(json.loads(out.read_text()))
    assert cli.main(args) == 0
    second = canonical(json.loads(out.read_text()))
    assert first == second


# sha256 of the canonical report of `all` (every check, the default
# dimension cap), without its timing block
REPORT_GOLDEN = {
    (1, 3): "dd210ee007502449ba8e41559c02aeb0c0f64255993314847981b92a3dc1e624",
    (2, 1): "5e57f15b49088719aa62201e51244b5e5bb6cb5b872e35aff62fa14d9080c21b",
}


@pytest.mark.parametrize("p,degree", sorted(REPORT_GOLDEN))
def test_report_golden(p, degree):
    payload = cli.run(cli.RunConfig(p, max_total_degree=degree,
                                    checks=cli.CHECK_NAMES,
                                    dim_cap=100000))
    assert digest(payload) == REPORT_GOLDEN[p, degree]


# a p=1 input over the bidegrees (1,1), (1,0) and (0,1), with an
# irrational coefficient
DECOMPOSE_INPUT_P1 = [
    {"alpha": [1, 0], "beta": [1, 0], "spinor": [],
     "coeff": {"a_re": 1, "a_im": 0, "b_re": 0, "b_im": 0}},
    {"alpha": [0, 1], "beta": [0, 0], "spinor": [1],
     "coeff": {"a_re": 2, "a_im": -1, "b_re": "1/2", "b_im": 0}},
    {"alpha": [0, 0], "beta": [0, 1], "spinor": [1, 2],
     "coeff": {"a_re": 0, "a_im": 3, "b_re": 0, "b_im": -1}},
]

# sha256 of the canonical report each subcommand writes, without its
# timing block and its config's output path; decompose reads
# DECOMPOSE_INPUT_P1
SUBCOMMAND_GOLDEN = {
    "verify-relations": (
        ["--p", "1", "--max-degree", "1"],
        "e37583e4cdbc650cbdf0ad26f4a32af7825efe66dae2c4c19f5e69b3117ecbfd"),
    "cells": (
        ["--p", "2"],
        "7b731584cfc37c55d0ae1bf23e3f1cf76f994c8d8603f58f6144fd21e09cc33e"),
    "fischer": (
        ["--p", "2", "--a", "1", "--b", "0", "--r", "0", "--check", "prop9"],
        "04ae33d892b58f8904b822b082385c2e62daf26f405ae57f70c547ee60f5900e"),
    "decompose": (
        ["--p", "1"],
        "34bf6ceeeb2033472bf4e47eccfcff10d3be983e544b356b6ae0485934c69ad1"),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_GOLDEN))
def test_subcommand_golden(command, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("QUATCLIFF_DIM_CAP", raising=False)
    args, golden = SUBCOMMAND_GOLDEN[command]
    out = tmp_path / "out.json"
    if command == "decompose":
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(DECOMPOSE_INPUT_P1))
        args = args + ["--input", str(inp), "--output", str(out)]
    else:
        args = args + ["--json", str(out)]
    assert cli.main([command] + args) == 0
    payload = json.loads(out.read_text())
    if "config" in payload:
        payload["config"].pop("output")
    assert digest(payload) == golden
    summary = capsys.readouterr().out.splitlines()
    assert summary[-1] in ("overall: pass", "decompose: pass")


# sha256 of the canonical report of verify-relations --p 2 --max-degree 2,
# as SUBCOMMAND_GOLDEN digests it; the degree-wise table wrote it first
RELATIONS_P2_GOLDEN = (
    "837f18e8c2ce12ead149b8114e8bf5cae91103b231c59e464b669fe3530b3de1")


@pytest.mark.parametrize("command,args,golden", [
    ("verify-relations", *SUBCOMMAND_GOLDEN["verify-relations"]),
    ("verify-relations", ["--p", "2", "--max-degree", "2"],
     RELATIONS_P2_GOLDEN),
    ("cells", *SUBCOMMAND_GOLDEN["cells"])],
    ids=["p1", "p2", "cells-p2"])
def test_relations_report_needs_no_degree_wise_check(command, args, golden,
                                                     tmp_path, monkeypatch):
    # every rule of the table, the cell row [P, Q] = h_spin and the
    # Euclidean and hermitian systems are proved in normal form, so no
    # verdict checks one rule on one basis polynomial
    def unreachable(*args, **kwargs):
        raise AssertionError("degree-wise check reached")

    monkeypatch.delenv("QUATCLIFF_DIM_CAP", raising=False)
    monkeypatch.setattr(relations, "verify_bracket", unreachable)
    monkeypatch.setattr(relations, "space_basis", unreachable)
    out = tmp_path / "out.json"
    assert cli.main([command] + args + ["--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["config"].pop("output")
    assert digest(payload) == golden
    assert relations.verify_osp12_and_sl12(int(args[1]))["passed"]


# digest of the report of one check run alone by `run` (the default
# dimension cap): every check but relations at (p, degree) = (1, 4) and
# (2, 3), thm10 at p=2 up to degree 4, and prop8, prop9 and thm10 at p=3
# up to degree 2
CHECK_GOLDEN = {
    (1, 4, "cells"):
        "d9ee16832ecd8dfe0280e49faed7a1f84b8aa36f804295cef05107a902677d40",
    (1, 4, "euclidean"):
        "f3e84c34c22137b0f10db3abfa90834c5704d51f65226ef3298b8ee9adb3467d",
    (1, 4, "example13"):
        "763ee53eeb5736f7ae6804dc5dd9187c6cc4ba826d38d8ec94768a33189ed7d6",
    (1, 4, "hermitian"):
        "09bb84c64d33bf2bd6c5c57681a3dbf74ab6f49d9273dad5d802ad6366f72ce6",
    (1, 4, "prop8"):
        "fc8005276345d1c4484f78cb36cb891dd66b569d124e0ce0e1ceaf801a007c55",
    (1, 4, "prop9"):
        "b23c5c869ed659610eb3d88073c632ca7ba4f6de4c602bfa004cd4b0fdb846c4",
    (1, 4, "thm10"):
        "766e520bcbb0f9df441bcbecdf0d89fbc902729f2f8f32235b19a27d25583ca7",
    (1, 4, "thm5"):
        "d06fa11ccf77dc132d4cddaa8c581467952e02f06ec55337aa4c846a762ea067",
    (2, 3, "cells"):
        "4ab0d8ff4cf50a449c8e95b8567ea22614bf3c50b8f1d5044eaddd723f74569c",
    (2, 3, "euclidean"):
        "c14e5ddd655244e7435361d9b23bae26564f1d525c49d7a2592d0cc910143e00",
    (2, 3, "example13"):
        "f4301e33efdaa219c762ed7efda3a2a406d5be118ada773ed7d0f71d65a62dcf",
    (2, 3, "hermitian"):
        "91ac4d4630818861dc0437c4d3b3ae6c79e9b428ebee9295ef3144a001571c0a",
    (2, 3, "prop8"):
        "40af826edb1a6657ddcad6a5d09f426be5db28f743114ba876c0b04ab4f4540b",
    (2, 3, "prop9"):
        "425b0de1bf4a8a79b2a818e371d222840f2677540413f27d38f26edf7ad0dc6e",
    (2, 3, "thm10"):
        "240eb1a4a94037521e252fbb08caa493946eeca5a28b48ea660656defe3e127c",
    (2, 3, "thm5"):
        "fd144b69cc5ab1e75ed432040ebb423b368082c38058f81c5e81472d9d2fa68e",
    (2, 4, "thm10"):
        "adafbf46758be50208638d6e5fe07ce7afabf3a33371b863b465d2c87226ce78",
    (3, 2, "prop8"):
        "71eae1b2543a1e3122769e7296b17a2c0b24c410c7969da0f6be10dc3b127733",
    (3, 2, "prop9"):
        "19ca8460aa9148de4c16f7271142a15a912a9f09f9a92dc23aed4d108bf67637",
    (3, 2, "thm10"):
        "52578aa3e155bfbed5ce116275b56426e56259bde16f1cbe2710d33135173a00",
}


@pytest.mark.parametrize("p,degree,check", sorted(CHECK_GOLDEN))
def test_check_golden(p, degree, check):
    payload = cli.run(cli.RunConfig(p, max_total_degree=degree,
                                    checks=(check,), dim_cap=100000))
    assert digest(payload) == CHECK_GOLDEN[p, degree, check]


# digest of the report of one grid check run alone at p=2 on one (a, b)
# label, over every column
LABEL_GOLDEN = {
    ("prop8", 2, 2):
        "2a282267bd2c38d957112d2f274744ff9b37db8120dc50db0deacd42b1eb97ac",
    ("prop8", 3, 1):
        "280241dd2e6a7d9de1013c093fc7be80ea92392f011ba4c545ee5d2f1d13030c",
    ("prop8", 4, 0):
        "4793a38400d92ba5f261d0a856d63b4e39d8bd43fdd944f042981c4a06de4aaf",
    ("prop9", 2, 2):
        "2a0e0e6e7ee524e6e4d485a81f1d3b991dc07f0518a7b63cc0e049fa0b33e42d",
    ("prop9", 3, 1):
        "0928861df6e2ab305c53ec423fefd5ea021e306e71762cc5bc1a10b4e8f68a7a",
    ("prop9", 4, 0):
        "6b0e9e057892e6915b53a121d17d512d3071e19987fe83a428312e67de677f1d",
    ("thm5", 2, 2):
        "352d3b04e294e3986bec29e701bdb61f0cfeb22fe93b3c8904d15b53acb6b5cc",
    ("thm5", 3, 1):
        "8ff6006c577fda7a911f0bf6d4f9caf9a4457d8403a3dc1535b2d21fe5d4a281",
    ("thm5", 4, 0):
        "947bd5747a528c121f05b517d646f7384bf39a77b9b62737aada7c58aebe5bea",
}


@pytest.mark.parametrize("check,a,b", sorted(LABEL_GOLDEN))
def test_label_golden(check, a, b):
    payload = cli.run(cli.RunConfig(2, checks=(check,), dim_cap=100000,
                                    label_filter={"a": a, "b": b}))
    assert digest(payload) == LABEL_GOLDEN[check, a, b]


# digest of the list of JSON a check the CLI does not run returns, over
# every label (a, b) with a + b <= 3 that it takes, in order of a + b
# and then of b
def _test_only_check(name, p):
    check = getattr(fischer, name)
    return [check(p, a, b) for a, b in relations.bidegrees_up_to(3)
            if name != "trivial_intersection_check" or a != b]


TEST_ONLY_GOLDEN = {
    ("trivial_intersection_check", 1):
        "2e456f8a7a71804ad765ece5ef5d18670f2ee886f05a153850789c870ae6abb0",
    ("trivial_intersection_check", 2):
        "759dbda12a13d59e2cc4efc45e20fa952f438d30154825820368741ba636a8d0",
    ("verify_qmonogenic_stability", 1):
        "da32b37f0a9d8c3de626499a8947a768b3f5291a50f305d17bbf177e44f445c6",
    ("verify_qmonogenic_stability", 2):
        "b37eeed47ae6632c6adde51fa02f74a925a252139c9f18911e5b6c02e69dce5e",
}


@pytest.mark.parametrize("name,p", sorted(TEST_ONLY_GOLDEN))
def test_test_only_check_golden(name, p):
    assert digest(_test_only_check(name, p)) == TEST_ONLY_GOLDEN[name, p]


# digest of every kernel basis below as [kind, labels, JSON term lists]:
# harmonic_space, symplectic_harmonic_space and, for every column,
# s_space and t_space (both twists), and qmonogenic_space on every cell
# value space and on full values, for each (p, a + b <= top) with full
# values only to a + b <= full_top
KERNEL_RANGES = ((1, 4, 4), (2, 4, 3), (3, 2, -1))


def _kernel_bases():
    for p, top, full_top in KERNEL_RANGES:
        for a, b in relations.bidegrees_up_to(top):
            yield "harmonic", (p, a, b), fischer.harmonic_space(p, a, b)
            for dagger in (False, True):
                yield ("symplectic", (p, a, b, dagger),
                       fischer.symplectic_harmonic_space(p, a, b, dagger))
                for r in range(p + 1):
                    yield ("s", (p, r, a, b, dagger),
                           fischer.s_space(p, r, a, b, dagger))
                for r in range(p, 2 * p + 1):
                    yield ("t", (p, r, a, b, dagger),
                           fischer.t_space(p, r, a, b, dagger))
            for lab in cell_labels(p):
                yield ("q", (p, a, b, lab.r, lab.s), fischer.qmonogenic_space(
                    p, a, b, ("cell", lab.r, lab.s)))
            if a + b <= full_top:
                yield "q", (p, a, b), fischer.qmonogenic_space(p, a, b)


KERNEL_GOLDEN = \
    "b3000fc190640cb1e8bc10584b9495e2e893f0957ccca25560c2679877b55393"


def test_kernel_bases_golden():
    bases = [[kind, list(labels), [v.to_json() for v in basis]]
             for kind, labels, basis in _kernel_bases()]
    assert len(bases) == 724
    assert digest(bases) == KERNEL_GOLDEN


def test_dim_cap_skips_but_passes():
    cfg = cli.RunConfig(p=2, checks=("thm5",), max_total_degree=3,
                        dim_cap=20)
    payload = cli.run(cfg)
    assert payload["passed"]
    skipped = [d for d in walk(payload["checks"], [], "skipped")
               if d.get("skipped") == "cap"]
    assert skipped
    assert all("needed_dim" in d and "dim_cap" in d for d in skipped)


# p=1, max degree 2: the cap, how many labels are skipped of how many, and
# the first skip record without its "skipped" and "dim_cap" fields
GRID_SKIPS = {
    "thm5": (1, 5, 6, {"a": 1, "b": 0, "needed_dim": 2}),
    "prop8": (5, 15, 18, {"a": 1, "b": 0, "r": 0, "k": 0, "needed_dim": 8}),
    "prop9": (5, 6, 8, {"a": 1, "b": 0, "r": 0, "needed_dim": 8}),
    "thm10": (5, 2, 3, {"degree": 1, "needed_dim": 16}),
    "euclidean": (5, 2, 3, {"k": 1, "needed_dim": 16}),
    "hermitian": (5, 5, 6, {"a": 1, "b": 0, "needed_dim": 8}),
}


@pytest.mark.parametrize("name", sorted(GRID_SKIPS))
def test_grid_check_skip_records(name):
    cap, count, total, first = GRID_SKIPS[name]
    payload = cli.run(cli.RunConfig(p=1, max_total_degree=2,
                                    checks=(name,), dim_cap=cap))
    assert payload["passed"]
    report = payload["checks"][name]
    entries = report.get("labels", report.get("degrees"))
    skipped = [e for e in entries if e.get("skipped") == "cap"]
    assert (len(skipped), len(entries)) == (count, total)
    assert skipped[0] == dict(first, skipped="cap", dim_cap=cap)


def test_relations_report_ignores_the_cap(monkeypatch):
    # the proof reads no space, so even a cap below the spinor space of
    # degree 0 leaves the report as it is
    monkeypatch.delenv("QUATCLIFF_DIM_CAP", raising=False)
    reports = [cli.run(cli.RunConfig(p=1, max_total_degree=3,
                                     checks=("relations",), dim_cap=cap))
               ["checks"]["relations"] for cap in (2, None)]
    assert reports[0] == reports[1]
    assert reports[0]["max_total_degree"] == 3


def test_bundle_json_shape(tmp_path):
    # run returns the report it writes, timing block included
    out = tmp_path / "cells.json"
    payload = cli.run(cli.RunConfig(p=1, checks=("cells",),
                                    output=str(out)))
    assert set(payload) >= {"schema_version", "config", "checks", "timing"}
    assert set(payload["timing"]) == {"cells"}
    assert json.loads(out.read_text()) == payload
