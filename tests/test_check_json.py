"""The checks the CLI reports return plain JSON, and every check names a
label it cannot take.

Each library check the CLI calls returns the JSON-ready dict (or list)
it reports, so json.dumps needs no `default=` and a report object can
not come back unnoticed; the checks still run from the tests only are
held to the same rule before they become CLI checks.  A rank p below 1, or a negative degree,
column or power, would otherwise check an empty space and pass, or
fail deep inside itertools without naming the argument.
"""

import json

import pytest

from quatcliff import fischer as fi
from quatcliff import relations
from quatcliff.poly import SpinorPolynomial

CLI_CHECKS = {
    "verify_table": lambda: relations.verify_table(1, 1),
    "symplectic_harmonic_decomposition":
        lambda: fi.symplectic_harmonic_decomposition(1, 1, 1),
    "qmonogenic_decomposition":
        lambda: fi.qmonogenic_decomposition(1, 0, 1, 1, 1),
    "symplectic_harmonics_16_decomposition":
        lambda: fi.symplectic_harmonics_16_decomposition(2, 1, 1, 1),
    "example_decomposition": fi.example_decomposition,
    "graded_tiling_check": lambda: fi.graded_tiling_check(1, 2),
    "cells_check": lambda: fi.cells_check(1),
    "sl2_module_checks": lambda: fi.sl2_module_checks(1, 2, 1),
    "euclidean_fischer_dims": lambda: fi.euclidean_fischer_dims(4, 1),
    "hermitian_fischer_dims": lambda: fi.hermitian_fischer_dims(2, 1, 0),
    # checks run from the tests only so far, each to become a CLI check
    "trivial_intersection_check":
        lambda: fi.trivial_intersection_check(1, 2, 1),
    "verify_osp12_and_sl12": lambda: relations.verify_osp12_and_sl12(1, 1, 1),
    "verify_qmonogenic_stability":
        lambda: fi.verify_qmonogenic_stability(1, 1, 1),
    "verify_qmonogenic_equivalence":
        lambda: fi.verify_qmonogenic_equivalence(1, 1, 1),
}


@pytest.mark.parametrize("name", sorted(CLI_CHECKS))
def test_cli_check_returns_json(name):
    value = CLI_CHECKS[name]()
    text = json.dumps(value, sort_keys=True)
    # no tuple, non-string key or other value that JSON would change
    assert json.loads(text) == value
    entries = value if isinstance(value, list) else [value]
    assert entries and all(e["passed"] is True for e in entries)


@pytest.mark.parametrize("check,args,name", [
    (relations.verify_osp12_and_sl12, (0, 1, 0), "p"),
    (relations.verify_osp12_and_sl12, (1, -1, 0), "a"),
    (fi.verify_qmonogenic_stability, (0, 1, 0), "p"),
    (fi.verify_qmonogenic_equivalence, (0, 1, 0), "p"),
    (fi.sl2_module_checks, (0, 1, 0), "p"),
    (fi.qmonogenic_decomposition, (0, 0, 0, 1, 0), "p"),
    (fi.qmonogenic_decomposition, (1, 0, -1, 1, 0), "k"),
    (fi.symplectic_harmonics_16_decomposition, (0, 1, 0, 0), "p"),
    (fi.symplectic_harmonics_16_decomposition, (1, 1, 0, True), "r"),
    (fi.cells_check, (0,), "p"),
    (fi.cells_check, (True,), "p"),
    (fi.trivial_intersection_check, (0, 1, 0), "p"),
    (fi.decompose_polynomial, (SpinorPolynomial(0), 0), "p"),
    (fi.symplectic_harmonic_decomposition, (1, -1, 0), "a"),
    (fi.hermitian_fischer_dims, (2, -1, 0), "a"),
    (fi.hermitian_fischer_dims, (2, 0, 1.0), "b"),
], ids=lambda v: getattr(v, "__name__", None))
def test_check_names_a_bad_label(check, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        check(*args)
