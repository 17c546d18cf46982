"""Witt frame, spinor module and the cell triangle.

The full Clifford algebra of tests/oracles.py is the oracle here: every
sign rule on the mask representation (wedge, contract, P, Q, beta) is
compared with the literal product of Clifford elements, and the blades
are checked orthogonal, each of norm 2^-n, under the Clifford pairing
[x^dagger y]_0, and its spin elements realise the complex structures.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (CliffordElement, _frame as frame, conjugation_action,
                     detect_spin_convention, inner_product, rotation_I,
                     rotation_J, rotation_K, spin_elements, witt_J_images)
from quatcliff.poly import SpinorPolynomial
from quatcliff.scalars import xs
from quatcliff import linalg, witt
from quatcliff.operators import apply, cell_basis
from quatcliff.witt import (cell_dim, cell_labels, grade_masks, pq_scalars,
                            valid_cell)

small = st.integers(min_value=-3, max_value=3)


def spinors(p):
    n = 2 * p
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    def build(pairs):
        el = SpinorPolynomial.zero(n)
        for mask, (ar, ai) in pairs:
            el = el + SpinorPolynomial.constant(n, {mask: xs(ar, ai)})
        return el
    return st.builds(build, st.lists(st.tuples(masks, st.tuples(small, small)),
                                     max_size=4))


def package_imports(source):
    """The imports of `source` that are relative or name a quatcliff module."""
    def inside(name):
        return name.split(".")[0] == "quatcliff"
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or inside(node.module))
            or isinstance(node, ast.Import)
            and any(inside(alias.name) for alias in node.names)]


def test_witt_imports_nothing_from_the_package():
    # witt, the base of the import graph, needs no other package module
    sample = "import json, quatcliff.x\nfrom . import x\nimport quatcliffx\n"
    assert package_imports(sample) == ["import json, quatcliff.x",
                                       "from . import x"]
    assert package_imports(Path(witt.__file__).read_text()) == []


# ---------------------------------------------------------------- Witt frame

@pytest.mark.parametrize("p", [1, 2])
def test_witt_relations(p):
    fr = frame(p)
    zero = CliffordElement.zero(fr.m)
    for j in range(1, fr.n + 1):
        for k in range(1, fr.n + 1):
            assert fr.f[j] * fr.f[k] + fr.f[k] * fr.f[j] == zero
            assert fr.fdag[j] * fr.fdag[k] + fr.fdag[k] * fr.fdag[j] == zero
            anti = fr.f[j] * fr.fdag[k] + fr.fdag[k] * fr.f[j]
            assert anti == CliffordElement.scalar(fr.m, 1 if j == k else 0)


@pytest.mark.parametrize("p", [1, 2])
def test_idempotent(p):
    fr = frame(p)
    assert fr.idempotent * fr.idempotent == fr.idempotent
    assert not fr.idempotent.is_zero()
    for k in range(1, fr.n + 1):
        assert (fr.f[k] * fr.idempotent).is_zero()


def test_spinor_blades_are_independent():
    fr = frame(2)
    blades = [fr.spinor_blade(m).terms
              for r in range(fr.n + 1) for m in grade_masks(fr.n, r)]
    assert linalg.rank(blades) == 2 ** fr.n


# ------------------------------------------------- mask action vs. Clifford

@given(spinors(2), st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_wedge_matches_clifford_product(s, k):
    fr = frame(2)
    assert fr.to_clifford(s.wedge(k)) == fr.fdag[k] * fr.to_clifford(s)


@given(spinors(2), st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_contract_matches_clifford_product(s, k):
    fr = frame(2)
    assert fr.to_clifford(s.contract(k)) == fr.f[k] * fr.to_clifford(s)


@given(spinors(2))
@settings(max_examples=25, deadline=None)
def test_value_operators_match_clifford(s):
    fr = frame(2)
    p_cl = CliffordElement.zero(fr.m)
    q_cl = CliffordElement.zero(fr.m)
    b_cl = CliffordElement.zero(fr.m)
    for j in range(1, fr.p + 1):
        p_cl = p_cl + fr.f[2 * j] * fr.f[2 * j - 1]
        q_cl = q_cl + fr.fdag[2 * j - 1] * fr.fdag[2 * j]
    for k in range(1, fr.n + 1):
        b_cl = b_cl + fr.fdag[k] * fr.f[k]
    x = fr.to_clifford(s)
    assert fr.to_clifford(apply("P", s)) == p_cl * x
    assert fr.to_clifford(apply("Q", s)) == q_cl * x
    assert fr.to_clifford(apply("beta", s)) == b_cl * x


@pytest.mark.parametrize("p", [1, 2])
def test_blades_are_orthogonal_under_clifford_pairing(p):
    # the Fischer pairing of test_operators weights a basis monomial by
    # alpha! beta! alone, which needs every blade to have the same norm
    fr = frame(p)
    norm = xs(Fraction(1, 2 ** fr.n))
    for A in range(1 << fr.n):
        for B in range(1 << fr.n):
            got = inner_product(fr.spinor_blade(A), fr.spinor_blade(B))
            assert got == (norm if A == B else xs()), (A, B)


def test_beta_on_blades():
    s = SpinorPolynomial.constant(4, {0b0011: xs(1), 0b0100: xs(2)})
    assert apply("beta", s) == SpinorPolynomial.constant(
        4, {0b0011: xs(2), 0b0100: xs(2)})


def test_grade_masks_order():
    # ascending-tuple order: (1,4) before (2,3)
    got = grade_masks(4, 2)
    assert got == [0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100]


# ------------------------------------------------------------ spin elements

@pytest.mark.parametrize("p", [1, 2])
def test_spin_elements_are_unit(p):
    s_i, s_j = spin_elements(p)
    one = CliffordElement.scalar(4 * p, 1)
    assert s_i * s_i.conjugate() == one
    assert s_j * s_j.conjugate() == one


@pytest.mark.parametrize("p", [1, 2])
def test_detected_convention_reproduces_rotations(p):
    convention = detect_spin_convention(p)
    fr = frame(p)
    s_i, s_j = spin_elements(p)
    for alpha in range(1, fr.m + 1):
        e = CliffordElement.generator(fr.m, alpha)
        img, sign = rotation_I(alpha)
        assert conjugation_action(s_i, e, convention) == \
            CliffordElement.generator(fr.m, img).scale(sign)
        img, sign = rotation_J(alpha)
        assert conjugation_action(s_j, e, convention) == \
            CliffordElement.generator(fr.m, img).scale(sign)


def test_conventions_agree_across_p():
    assert detect_spin_convention(1) == detect_spin_convention(2)


def test_rotation_k_squares_to_minus_one():
    for alpha in range(1, 9):
        img, sign = rotation_K(alpha)
        img2, sign2 = rotation_K(img)
        assert img2 == alpha and sign * sign2 == -1
        # same for the other two structures
        for rot in (rotation_I, rotation_J):
            a1, s1 = rot(alpha)
            a2, s2 = rot(a1)
            assert a2 == alpha and s1 * s2 == -1


def test_witt_j_images_under_conjugation():
    p = 2
    fr = frame(p)
    convention = detect_spin_convention(p)
    _, s_j = spin_elements(p)
    for (kind, k), (kind2, k2, sign) in witt_J_images(p).items():
        v = fr.f[k] if kind == "f" else fr.fdag[k]
        w = fr.f[k2] if kind2 == "f" else fr.fdag[k2]
        assert conjugation_action(s_j, v, convention) == w.scale(sign)


# -------------------------------------------------------------------- cells

@pytest.mark.parametrize("p", [1, 2, 3])
def test_cell_labels_and_dims(p):
    labels = cell_labels(p)
    seen = set()
    for lbl in labels:
        assert valid_cell(p, lbl.r, lbl.s)
        seen.add((lbl.r, lbl.s))
        basis = cell_basis(p, lbl.r, lbl.s)
        assert len(basis) == cell_dim(p, lbl.r, lbl.s) > 0
        for v in basis:
            assert {mask.bit_count() for _, _, mask in v.terms} == {lbl.r}
    # no valid cell missed
    for r in range(2 * p + 1):
        for s in range(2 * p + 1):
            if valid_cell(p, r, s):
                assert (r, s) in seen


@pytest.mark.parametrize("p", [1, 2, 3])
def test_column_tiling(p):
    for r in range(2 * p + 1):
        col = [lbl for lbl in cell_labels(p) if lbl.r == r]
        vecs = []
        total = 0
        for lbl in col:
            basis = cell_basis(p, lbl.r, lbl.s)
            total += len(basis)
            vecs.extend(v.terms for v in basis)
        assert total == math.comb(2 * p, r)
        assert linalg.rank(vecs) == total


@pytest.mark.parametrize("p", [1, 2, 3])
def test_pq_scalars_on_cells(p):
    for lbl in cell_labels(p):
        pq, qp = pq_scalars(p, lbl.r, lbl.s)
        for v in cell_basis(p, lbl.r, lbl.s):
            assert apply("P", apply("Q", v)) == v.scale(pq)
            assert apply("Q", apply("P", v)) == v.scale(qp)
        # symmetry of the PQ eigenvalue along the row
        k = (lbl.r - lbl.s) // 2
        k_mirror = p - lbl.s - k - 1
        if 0 <= k_mirror:
            r_mirror = lbl.s + 2 * k_mirror
            if valid_cell(p, r_mirror, lbl.s):
                assert pq_scalars(p, r_mirror, lbl.s)[0] == pq


@pytest.mark.parametrize("p", [1, 2, 3])
def test_ladder_injectivity_by_grade(p):
    # P injective on grades above p, Q injective below p, kernels agree at p
    n = 2 * p
    for r in range(n + 1):
        masks = grade_masks(n, r)
        blades = [SpinorPolynomial.constant(n, {m: xs(1)}) for m in masks]
        p_images = [apply("P", v).terms for v in blades]
        q_images = [apply("Q", v).terms for v in blades]
        ker_p = linalg.nullspace(p_images)
        ker_q = linalg.nullspace(q_images)
        if r > p:
            assert ker_p == []
        if r < p:
            assert ker_q == []
        if r == p:
            assert ker_p == ker_q
