"""Kernel spaces, projections, embedding factors and the tilings.

Dimension oracles come from binomial counts (harmonics via the two
polynomial dimensions, cells via the column formula); everything else is
checked by exact rank arithmetic.  Frozen dimension tables below were
produced by the kernel computations themselves and double as regression
pins; the structural identities (tiling sums, union ranks, projector
idempotence) are the actual oracles.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quatcliff import fischer as fi, linalg, operators, relations
from quatcliff.operators import apply, apply_word
from quatcliff.poly import (SpinorPolynomial, poly_dim, space_basis,
                            term_sort_key, value_basis)
from quatcliff.scalars import ExtendedScalar, xs


def rand_combo(vectors, rng, n):
    F = SpinorPolynomial.zero(n)
    for v in vectors:
        c = rng.randint(-3, 3)
        if c:
            F = F + v.scale(xs(c))
    return F


# ------------------------------------------------------------ kernel spaces

HS_DIMS_P2 = {(0, 0): 1, (1, 0): 4, (1, 1): 5, (2, 0): 10, (2, 1): 16,
              (2, 2): 14, (3, 1): 35}
HS_DIMS_P1 = {(0, 0): 1, (1, 0): 2, (1, 1): 0, (2, 0): 3, (2, 1): 0,
              (3, 0): 4}
S_DIMS_P2 = {(0, 0, 0): 1, (0, 1, 0): 0, (1, 0, 0): 4, (1, 1, 0): 10,
             (1, 1, 1): 0, (1, 2, 0): 20, (2, 0, 0): 5, (2, 1, 0): 16,
             (2, 1, 1): 14, (2, 2, 0): 35, (2, 2, 1): 40}


@pytest.mark.parametrize("p,a,b", [(1, 1, 1), (1, 2, 1), (2, 1, 1),
                                   (2, 2, 1)])
def test_harmonic_dim_oracle(p, a, b):
    assert len(fi.harmonic_space(p, a, b)) == fi.harmonic_dim_oracle(p, a, b)
    assert fi.harmonic_dim_oracle(p, a, b) == (
        poly_dim(p, a, b) - poly_dim(p, a - 1, b - 1))


def test_coefficients_of_zero_is_all_zeros():
    H = fi.harmonic_space(1, 1, 1)
    assert len(H) == 3
    solver = linalg.Solver([v.terms for v in H])
    zero = SpinorPolynomial.zero(2)
    assert solver.solve(zero.terms) == [xs(0)] * 3
    assert fi._inside([[zero]], H) == [True]
    v = H[1].scale(xs(2, 1))
    assert solver.solve(v.terms) == [xs(0), xs(2, 1), xs(0)]


@pytest.mark.parametrize("space,args,name", [
    (fi.s_space, (1, 0, -1, 0), "a"),
    (fi.harmonic_space, (1, 0, -2), "b"),
    (fi.qmonogenic_space, (1, -1, 0), "a"),
    (space_basis, (1, -1, 0), "a"),
    (space_basis, (1, 0, -1, ("grade", 0)), "b"),
], ids=["s_space", "harmonic_space", "qmonogenic_space", "space_basis_a",
        "space_basis_b"])
def test_a_negative_degree_names_its_argument(space, args, name):
    # s_space's column r is 0 here: the error names the degree, not r
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0"):
        space(*args)


def test_inside_rejects_a_vector_outside_the_space():
    H = fi.harmonic_space(1, 1, 1)
    # |z|^2 = z1 zbar1 + z2 zbar2 is not harmonic: one vector outside
    # the space rejects its whole piece, and only that piece
    r2 = apply("mul_r2", SpinorPolynomial.constant(2, {0: xs(1)}))
    assert fi._inside([[r2], [H[0], r2], [H[0], H[2] - H[1]], []],
                      H) == [False, False, True, True]
    assert fi._inside([[H[0]]], ()) == [False]


# one call of each check at labels with two pieces or more, each testing
# membership in a nonempty target: the decompositions every piece in one
# target, the stability check its images in three
MEMBERSHIP_CHECKS = [
    (fi.symplectic_harmonics_16_decomposition, (1, 2, 0, 0)),
    (fi.qmonogenic_decomposition, (1, 1, 0, 2, 1)),
    (fi.symplectic_harmonic_decomposition, (1, 2, 1)),
    (fi.verify_qmonogenic_stability, (1, 1, 1)),
]


@pytest.mark.parametrize("check,args", MEMBERSHIP_CHECKS,
                         ids=lambda v: getattr(v, "__name__", None))
def test_membership_is_read_off_the_canonical_basis(monkeypatch, check,
                                                    args):
    # every target is a canonical basis, so no check eliminates one
    def no_solver(basis):
        raise AssertionError("membership built a linalg.Solver")

    monkeypatch.setattr(linalg, "Solver", no_solver)
    assert check(*args)["passed"]


# eight term keys of P_{1,0} tensor S at p = 1, and small Gaussian
# rational polynomials over them
TERMS = [next(iter(F.terms)) for F in space_basis(1, 1, 0)]
small_polys = st.dictionaries(
    st.sampled_from(TERMS),
    st.builds(xs, st.integers(-3, 3), st.integers(-2, 2)),
    max_size=4).map(lambda terms: SpinorPolynomial(2, terms))


@settings(max_examples=150, deadline=None)
@given(st.lists(small_polys.filter(lambda F: F.terms), max_size=4),
       st.lists(small_polys, max_size=3))
def test_inside_is_sound_and_exact_on_the_canonical_basis(basis, vecs):
    rows = [F.terms for F in basis]
    rank = linalg.rank(rows)
    spanned = [linalg.rank(rows + [v.terms]) == rank for v in vecs]
    pieces = [[v] for v in vecs]
    # any basis, reduced or not: a True flag is a vector of the span
    assert all(s for f, s in zip(fi._inside(pieces, basis), spanned) if f)
    keys = sorted({t for row in rows for t in row}, key=term_sort_key)
    canonical = [SpinorPolynomial(2, row)
                 for row in linalg.rref(rows, key_order=keys)[0]]
    assert fi._inside(pieces, canonical) == spanned


# nonzero kernels on every kind of value space, a bottom cell (Ker P) and
# a Q-ladder cell among them
ONE_ELIMINATION = [
    (("laplace",), 2, 2, 1, ("grade", 0)),
    (operators.DERIVS, 1, 1, 1, ("full",)),
    (("dz", "curlyE"), 2, 2, 0, ("cell", 1, 1)),
    (operators.DERIVS, 2, 1, 1, ("cell", 3, 1)),
]


@pytest.mark.parametrize("ops,p,a,b,value_space", ONE_ELIMINATION)
def test_each_kernel_is_one_elimination(monkeypatch, ops, p, a, b,
                                        value_space):
    value_basis(p, value_space)  # a Q-ladder cell takes its own rref first
    calls = []
    rref = linalg.rref

    def counting_rref(*args, **kwargs):
        calls.append(1)
        return rref(*args, **kwargs)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    assert fi.kernel_space(ops, p, a, b, value_space)
    assert len(calls) == 1


def test_symplectic_harmonic_dims_frozen():
    for (a, b), dim in HS_DIMS_P2.items():
        assert len(fi.symplectic_harmonic_space(2, a, b)) == dim
    for (a, b), dim in HS_DIMS_P1.items():
        assert len(fi.symplectic_harmonic_space(1, a, b)) == dim


def test_s_space_dims_frozen():
    for (r, a, b), dim in S_DIMS_P2.items():
        assert len(fi.s_space(2, r, a, b)) == dim
    # scalar-valued bottom column concentrates at degree zero
    assert len(fi.s_space(1, 0, 0, 0)) == 1
    assert len(fi.s_space(1, 0, 1, 0)) == 0


def test_t_space_dims():
    # right edge of the triangle at degree zero: plain cell dimensions
    assert {r: len(fi.t_space(2, r, 0, 0)) for r in (2, 3, 4)} == \
        {2: 5, 3: 4, 4: 1}


@pytest.mark.parametrize("dagger", [False, True])
@pytest.mark.parametrize("p", [1, 2])
def test_cell_spaces_lie_in_ker_p_and_ker_q(p, dagger):
    # the S and T kernels name neither P nor Q, nor three of the four
    # derivatives: their cell values and the rule table decide those
    twist = "curlyE_dag" if dagger else "curlyE"
    s_dim = t_dim = 0
    for a, b in relations.bidegrees_up_to(2):
        for r in range(0, p + 1):
            S = fi.s_space(p, r, a, b, dagger)
            for name in operators.DERIVS + (twist, "P"):
                assert not any(apply(name, v).terms for v in S), \
                    (name, r, a, b)
            s_dim += len(S)
        for r in range(p, 2 * p + 1):
            T = fi.t_space(p, r, a, b, dagger)
            for name in operators.DERIVS + (twist, "Q"):
                assert not any(apply(name, v).terms for v in T), \
                    (name, r, a, b)
            t_dim += len(T)
    assert s_dim and t_dim


# The rows that make each cell space the kernel of one derivative and
# its twist: with X and D killing F, [X, D] = c D' makes D' kill F too.
CELL_SPACE_ROWS = {
    "g0-g1:curlyE,dz": ((-1, 0, "dz_dagJ"),),
    "g0-g1:curlyE_dag,dz_dagJ": ((-1, 0, "dz"),),
    "g0-g1:P,dz": ((-1, 0, "dzJ"),),
    "g0-g1:P,dz_dagJ": ((1, 0, "dz_dag"),),
    "g0-g1:curlyE,dzJ": ((1, 0, "dz_dag"),),
    "g0-g1:curlyE_dag,dz_dag": ((1, 0, "dzJ"),),
    "g0-g1:Q,dzJ": ((-1, 0, "dz"),),
    "g0-g1:Q,dz_dag": ((1, 0, "dz_dagJ"),),
}


@pytest.mark.parametrize("rule_id", sorted(CELL_SPACE_ROWS))
def test_cell_space_rows(rule_id):
    assert relations.RULE_INDEX[rule_id].rhs == CELL_SPACE_ROWS[rule_id]


def test_dagger_mirror_dims():
    assert (len(fi.symplectic_harmonic_space(2, 1, 2, dagger=True))
            == len(fi.symplectic_harmonic_space(2, 2, 1)))
    assert (len(fi.s_space(2, 1, 0, 1, dagger=True))
            == len(fi.s_space(2, 1, 1, 0)))


# ----------------------------------------------------------------- tilings

@pytest.mark.parametrize("p,a,b", [(1, 1, 1), (1, 2, 1), (1, 1, 2),
                                   (2, 1, 1), (2, 2, 1)])
def test_harmonic_tiling(p, a, b):
    rep = fi.symplectic_harmonic_decomposition(p, a, b)
    assert rep["passed"], rep["details"]


@pytest.mark.parametrize("p,a,b", [(1, 1, 0), (1, 2, 1), (2, 1, 0),
                                   (2, 1, 1), (2, 2, 1)])
def test_sl2_module_checks(p, a, b):
    out = fi.sl2_module_checks(p, a, b)
    assert out["passed"], out


@pytest.mark.parametrize("p,r,k,a,b", [(1, 0, 1, 1, 1), (1, 1, 0, 2, 1),
                                       (2, 1, 1, 1, 1), (2, 0, 1, 1, 2),
                                       (2, 0, 0, 1, 2)])
def test_qmonogenic_tiling_both_mirrors(p, r, k, a, b):
    rep = fi.qmonogenic_decomposition(p, r, k, a, b)
    assert rep["passed"], rep["details"]


@pytest.mark.parametrize("p,a,b", [(1, 2, 1), (1, 1, 2), (2, 1, 0),
                                   (2, 0, 1)])
def test_trivial_intersections(p, a, b):
    out = fi.trivial_intersection_check(p, a, b)
    assert out["passed"], out


def test_trivial_intersection_needs_unbalanced():
    with pytest.raises(ValueError):
        fi.trivial_intersection_check(1, 1, 1)


@pytest.mark.parametrize("p", [1, 2])
def test_cells_structure(p):
    out = fi.cells_check(p)
    assert out["passed"], out
    assert out["total_dim"] == 1 << (2 * p)


def test_cells_check_rejects_a_dependent_column(monkeypatch):
    # the right count of vectors is not a tiling: cell (1, 1) at p = 1
    # holding one vector twice has dimension 2 but rank 1
    real = operators.cell_basis

    def doubled(p, r, s):
        basis = real(p, r, s)
        return [basis[0], basis[0]] if (p, r, s) == (1, 1, 1) else basis

    monkeypatch.setattr(operators, "cell_basis", doubled)
    out = fi.cells_check(1)
    assert out["checks"]["dims"] is True
    assert out["checks"]["column_tiling"] is False
    assert out["passed"] is False


def _cut(vecs, damage):
    """`vecs` less its last vector ("drop"), or with the last replaced by
    a copy of the first ("double"): the same count at one rank less."""
    vecs = tuple(vecs)
    return vecs[:-1] if damage == "drop" else vecs[:-1] + vecs[:1]


def _cut_first_piece(pieces, damage):
    i = next(i for i, (_, vecs, _) in enumerate(pieces) if len(vecs) > 1)
    labels, vecs, src = pieces[i]
    return pieces[:i] + [(labels, _cut(vecs, damage), src)] + pieces[i + 1:]


# one passing label per tiling, the source it reads (module, name, the
# positional arguments of the one call to damage, how to damage what that
# call returns), and how to read its reported (sum, rank): as it stands,
# with one source vector dropped, and with one doubled
TILING_SITES = {
    "thm5": (fi.symplectic_harmonic_decomposition, (1, 1, 1),
             fi, "symplectic_harmonic_space", (1, 2, 0), _cut,
             lambda rep: (rep["details"]["sum_of_pieces"],
                          rep["details"]["union_rank"]),
             (3, 3), (2, 2), (3, 2)),
    "sl2": (fi.sl2_module_checks, (2, 1, 1),
            fi, "symplectic_harmonic_space", (2, 1, 1), _cut,
            lambda rep: (rep["dim_top"], rep["stacked_rank"]),
            (5, 5), (4, 4), (5, 4)),
    "prop8": (fi.qmonogenic_decomposition, (1, 1, 0, 2, 1),
              fi, "s_space", (1, 1, 3, 0), _cut,
              lambda rep: (rep["details"]["sum_of_pieces"],
                           rep["details"]["union_rank"]),
              (5, 5), (4, 4), (5, 4)),
    # the reported sum adds the ranks of the counted pieces
    "prop9": (fi.symplectic_harmonics_16_decomposition, (1, 1, 0, 0),
              fi, "s_space", (1, 1, 0, 0), _cut,
              lambda rep: (rep["details"]["sum_of_pieces"],
                           rep["details"]["union_rank"]),
              (2, 2), (1, 1), (1, 1)),
    "thm10": (fi.graded_tiling_check, (1, 1),
              fi, "full_decomposition_pieces", (1, 1, 0), _cut_first_piece,
              lambda rep: (rep["per_bidegree"][0]["sum_of_dims"],
                           rep["per_bidegree"][0]["union_rank"]),
              (8, 8), (7, 7), (8, 7)),
    "euclidean": (fi.euclidean_fischer_dims, (4, 1),
                  fi, "_monogenic_basis", (1, 1), _cut,
                  lambda rep: (rep["sum_of_pieces"], rep["union_rank"]),
                  (16, 16), (15, 15), (16, 15)),
    "hermitian": (fi.hermitian_fischer_dims, (2, 1, 0),
                  fi, "kernel_space", (("dz", "dz_dag"), 1, 1, 0,
                                       ("grade", 1)), _cut,
                  lambda rep: (rep["per_grade"][1]["sum_of_pieces"],
                               rep["per_grade"][1]["union_rank"]),
                  (4, 4), (3, 3), (4, 3)),
    # cells reports no rank: its column verdict stands in for it
    "cells": (fi.cells_check, (1,),
              operators, "cell_basis", (1, 1, 1), _cut,
              lambda rep: (rep["total_dim"],
                           rep["checks"]["column_tiling"]),
              (4, True), (3, False), (4, False)),
}


@pytest.mark.parametrize("damage", ["drop", "double"])
@pytest.mark.parametrize("site", list(TILING_SITES))
def test_a_damaged_piece_fails_its_tiling(monkeypatch, site, damage):
    (check, args, module, name, key, cut, read,
     clean, dropped, doubled) = TILING_SITES[site]
    rep = check(*args)
    assert rep["passed"] and read(rep) == clean
    real = getattr(module, name)

    def damaged(*call, **kwargs):
        out = real(*call, **kwargs)
        return cut(out, damage) if call == key and not kwargs else out

    monkeypatch.setattr(module, name, damaged)
    # prop9 reads its sources through the cached piece_activity
    fi.piece_activity.cache_clear()
    try:
        rep = check(*args)
    finally:
        fi.piece_activity.cache_clear()
    assert rep["passed"] is False
    assert read(rep) == (dropped if damage == "drop" else doubled)


# -------------------------------------------------------------- projections

def _random_harmonic(p, a, b, rng):
    if a < 0 or b < 0:
        return SpinorPolynomial.zero(2 * p)
    return rand_combo(fi.harmonic_space(p, a, b), rng, 2 * p)


def test_projection_kernel_identity():
    rng = random.Random(3)
    H = _random_harmonic(2, 2, 1, rng)
    assert fi.project_ker("laplace", H) == H


@pytest.mark.parametrize("seed", range(4))
def test_projection_laplace_random(seed):
    rng = random.Random(seed)
    p, a, b = 2, 2, 2
    H0 = _random_harmonic(p, a, b, rng)
    T = H0 + apply("mul_r2", _random_harmonic(p, a - 1, b - 1, rng))
    T = T + apply_word(("mul_r2", "mul_r2"),
                       _random_harmonic(p, a - 2, b - 2, rng))
    out = fi.project_ker("laplace", T)
    assert out == H0
    assert not apply("laplace", out).terms
    assert fi.project_ker("laplace", out) == out


@pytest.mark.parametrize("seed", range(4))
def test_projection_P_random(seed):
    # grade-2 input over p=2: bottom-cell layer plus Q of a lower bottom
    rng = random.Random(100 + seed)
    p, a, b = 2, 1, 1
    n = 2 * p
    C0 = rand_combo(space_basis(p, a, b, ("cell", 2, 2)), rng, n)
    C1 = rand_combo(space_basis(p, a, b, ("cell", 0, 0)), rng, n)
    T = C0 + apply("Q", C1)
    out = fi.project_ker("P", T)
    assert not apply("P", out).terms
    assert fi.project_ker("P", out) == out


def test_projection_P_three_layers():
    # a column long enough for a genuine Q^2 layer needs p=4
    rng = random.Random(7)
    p = 4
    n = 2 * p
    C0 = rand_combo(space_basis(p, 0, 0, ("cell", 4, 4)), rng, n)
    C1 = rand_combo(space_basis(p, 0, 0, ("cell", 2, 2)), rng, n)
    C2 = rand_combo(space_basis(p, 0, 0, ("cell", 0, 0)), rng, n)
    T = C0 + apply("Q", C1) + apply_word(("Q", "Q"), C2)
    out = fi.project_ker("P", T)
    assert out == C0
    assert not apply("P", out).terms


@pytest.mark.parametrize("seed", range(4))
def test_projection_curlyE_random(seed):
    rng = random.Random(200 + seed)
    p, a, b = 2, 2, 2
    n = 2 * p
    layers = []
    for i in range(3):
        layer = rand_combo(
            fi.kernel_space(("curlyE",), p, a + i, b - i), rng, n)
        for _ in range(i):
            layer = apply("curlyE_dag", layer)
        layers.append(layer)
    T = layers[0] + layers[1] + layers[2]
    out = fi.project_ker("curlyE", T)
    assert out == layers[0]
    assert not apply("curlyE", out).terms
    assert fi.project_ker("curlyE", out) == out


def test_projection_rejects_mixed_bidegree():
    F = (SpinorPolynomial.monomial(2, (1, 0), (0, 0), 0)
         + SpinorPolynomial.monomial(2, (1, 1), (1, 0), 0))
    with pytest.raises(ValueError, match="h_total"):
        fi.project_ker("laplace", F)


def test_projection_rejects_a_vanishing_denominator():
    # Q^2 1 at p = 2 has h_spin eigenvalue mu = -2, so c (mu + w) = 0
    top = apply_word(("Q", "Q"), SpinorPolynomial.monomial(4, (0,) * 4,
                                                           (0,) * 4, 0))
    assert apply("P", top).terms
    with pytest.raises(ValueError, match="undefined"):
        fi.project_ker("P", top)


def test_projection_rejects_a_rank_other_than_the_inputs():
    # project_ker reads the rank off the input's 2p variables, so no other
    # rank can reach it: the README example (p = 2), and the same
    # construction at p = 1 and 3, each recover their harmonic component
    for p in (1, 2, 3):
        H = fi.harmonic_space(p, 2, 1)[0]
        T = H + apply("mul_r2", fi.harmonic_space(p, 1, 0)[0])
        assert apply("laplace", T).terms
        assert fi.project_ker("laplace", T) == H


def test_projection_P_rejects_a_grade_other_than_r():
    # the grade is read off the input: fd{1,2} I has spinor grade 2, P
    # projects it into Ker P, and curlyE leaves it unchanged
    T = SpinorPolynomial.monomial(4, (0,) * 4, (0,) * 4, 0b11)
    assert not apply("P", fi.project_ker("P", T)).terms
    assert fi.project_ker("curlyE", T) == T
    # an input mixing grades 0 and 2 has no single grade to project at
    one = SpinorPolynomial.monomial(4, (0,) * 4, (0,) * 4, 0)
    with pytest.raises(ValueError, match="h_spin"):
        fi.project_ker("P", one + apply("Q", one))


def test_projection_handles_deep_nilpotency():
    # laplace^3 does not kill |z|^6 at p = 1: a third correction term
    r6 = SpinorPolynomial.monomial(2, (0, 0), (0, 0), 0)
    for _ in range(3):
        r6 = apply("mul_r2", r6)
    assert apply_word(("laplace",) * 3, r6).terms
    assert not fi.project_ker("laplace", r6).terms
    H = fi.harmonic_space(1, 3, 3)[0]
    assert fi.project_ker("laplace", H + r6) == H


def test_projection_rejects_unknown_kind():
    F = SpinorPolynomial.monomial(2, (1, 0), (0, 0), 0)
    with pytest.raises(ValueError):
        fi.project_ker("beta", F)


def test_projection_triples_read_from_the_table():
    # the Cartan element of each triple, and its eigenvalue on a key of
    # bidegree (a, b) and spinor grade g
    cartan = {"laplace": ("h_total", lambda p, a, b, g: a + b + 2 * p),
              "P": ("h_spin", lambda p, a, b, g: p - g),
              "curlyE": ("h_diff", lambda p, a, b, g: a - b)}
    for lower, raiser in fi._RAISERS.items():
        h, _ = cartan[lower]
        (c, c_p, name), = relations.BRACKETS[(lower, raiser)]
        assert (name, c_p) == (h, 0) and c
        (w, w_p, name), = relations.BRACKETS[(h, lower)]
        assert (name, w_p) == (lower, 0) and w in (2, -2)
    for h, mu in cartan.values():
        for p in (1, 2):
            for a, b in relations.bidegrees_up_to(2):
                for v in space_basis(p, a, b):
                    (key,) = v.terms
                    g = key[2].bit_count()
                    assert apply(h, v) == v.scale(xs(mu(p, a, b, g)))


def test_composite_projection_recovers_embedding_factor():
    source, word = fi.embedding_factor(2, 2, 2, 1, 0)
    src = fi.s_space(2, *source)
    for v in src[:3]:
        head = apply_word(word, v)
        out = fi.composite_projection(head)
        swapped = head
        for kind in ("laplace", "curlyE", "P"):
            swapped = fi.project_ker(kind, swapped)
        assert out == swapped


# --------------------------------------------------------- embedding factors

def test_embedding_factor_validation():
    with pytest.raises(ValueError):
        fi.embedding_factor(16, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        fi.embedding_factor(0, 1, 0, 1, 0)
    with pytest.raises(ValueError):
        fi.embedding_factor(0, 1, 1, 0, 2)


def test_embedding_factor_out_of_range_source_is_empty():
    _, word = fi.embedding_factor(8, 1, 1, 1, 0)  # needs column r-2 < 0
    assert word is None


def test_embedding_factor_alpha0_is_identity():
    _, word = fi.embedding_factor(0, 2, 2, 1, 1)
    assert word == ()
    S = fi.s_space(2, 1, 2, 1)
    if S:
        assert fi.composite_projection(apply_word(word, S[0])) == S[0]


def test_embedding_factor_alpha2_coefficients_frozen():
    source, word = fi.embedding_factor(2, 2, 2, 1, 0)
    assert source == (1, 2, 0)
    assert word == ("mul_z_dagJ",)


def test_piece_activity_witnesses():
    acts = {e["alpha"]: e for e in fi.piece_activity(2, 1, 1, 1)}
    assert acts[5]["counted"] and acts[5]["rank"] == 4
    assert not acts[6]["counted"]
    assert acts[6]["reason"] == "coincides"
    assert acts[6]["coincides_with"]["kept_alpha"] == 5
    assert acts[6]["coincides_with"]["pair_union_rank"] == 4

    acts0 = {e["alpha"]: e for e in fi.piece_activity(2, 1, 1, 0)}
    assert acts0[2]["reason"] == "annihilated" and acts0[2]["src_dim"] == 10
    assert acts0[5]["reason"] == "annihilated"
    assert acts0[6]["reason"] == "annihilated"


@pytest.mark.parametrize("r", [0, 1, 2])
def test_sixteen_piece_tiling_clean_label(r):
    rep = fi.symplectic_harmonics_16_decomposition(2, 1, 0, r)
    assert rep["passed"], rep["details"]
    assert rep["details"]["naive_16_sum_matches"]
    assert rep["details"]["exclusions"] == []
    assert rep["details"]["projection_orders_agree"]


@pytest.mark.parametrize("a,b,r", [(1, 1, 0), (1, 1, 1), (2, 1, 1),
                                   (2, 1, 2)])
def test_sixteen_piece_tiling_with_exclusions(a, b, r):
    rep = fi.symplectic_harmonics_16_decomposition(2, a, b, r)
    assert rep["passed"], rep["details"]
    assert not rep["details"]["naive_16_sum_matches"]
    assert rep["details"]["exclusions"]
    # the tiling itself is exact after the witnessed exclusions
    d = rep["details"]
    assert d["sum_of_pieces"] == d["ambient_dim"] == d["union_rank"]


def test_sixteen_piece_tiling_requires_a_ge_b():
    with pytest.raises(ValueError):
        fi.symplectic_harmonics_16_decomposition(2, 0, 1, 0)


# ------------------------------------------------------- global decomposition

def test_pieces_sorted_and_nonempty():
    pieces = fi.full_decomposition_pieces(1, 2, 1)
    keys = [(lab["l"], lab["j"], lab["t"], lab["alpha"], lab["r"])
            for lab, _, _ in pieces]
    assert keys == sorted(keys)
    assert all(vecs for _, vecs, _ in pieces)


@pytest.mark.parametrize("p,k", [(1, k) for k in range(6)]
                         + [(2, k) for k in range(3)])
def test_tower_pieces_match_literal_powers(p, k):
    """Every piece vector equals its literal chain: curlyE_dag^t, then
    Q^j, then mul_r2^l, applied to the factor image."""
    used = set()
    for A in range(k, -1, -1):
        for lab, vecs, _ in fi.full_decomposition_pieces(p, A, k - A):
            entry = fi.piece_activity(p, lab["a"], lab["b"], lab["r"])
            expect = []
            for w in entry[lab["alpha"]]["vecs"]:
                w = apply_word(("curlyE_dag",) * lab["t"], w)
                w = apply_word(("Q",) * lab["j"], w)
                expect.append(apply_word(("mul_r2",) * lab["l"], w))
            assert vecs == tuple(expect), lab
            used.update(name for name in "tjl" if lab[name])
    if k >= 2:
        assert used == set("tjl")


@pytest.mark.parametrize("k", range(7))
def test_graded_tiling_p1(k):
    out = fi.graded_tiling_check(1, k)
    assert out["passed"], out


def test_graded_tiling_p2_degree1():
    out = fi.graded_tiling_check(2, 1)
    assert out["passed"], out
    # an empty degree would otherwise pass
    for p, k in [(1, -1), (0, 1), (True, 1), (1, True)]:
        with pytest.raises(ValueError):
            fi.graded_tiling_check(p, k)


def test_graded_tiling_p2_degree4():
    out = fi.graded_tiling_check(2, 4)
    assert out["passed"], out
    dims = {(e["a"], e["b"]): e for e in out["per_bidegree"]}
    mid = dims[(2, 2)]
    assert (mid["sum_of_dims"] == mid["union_rank"] == mid["ambient_dim"]
            == 1600)


def test_graded_tiling_p3_degree2():
    out = fi.graded_tiling_check(3, 2)
    assert out["passed"], out
    assert [(e["a"], e["b"], e["sum_of_dims"], e["union_rank"])
            for e in out["per_bidegree"]] == [
        (2, 0, 1344, 1344), (1, 1, 2304, 2304), (0, 2, 1344, 1344)]


@pytest.mark.parametrize("a,b", [(a, t - a) for t in range(5)
                                 for a in range(t, -1, -1) if a >= t - a])
def test_sixteen_piece_tiling_p2_up_to_degree4(a, b):
    for r in range(3):
        rep = fi.symplectic_harmonics_16_decomposition(2, a, b, r)
        assert rep["passed"], (r, rep["details"])


def test_decompose_constant_is_single_cartan_piece():
    F = SpinorPolynomial.monomial(4, (0, 0, 0, 0), (0, 0, 0, 0), 0)
    rep = fi.decompose_polynomial(F, 2)
    assert rep.passed and not rep.residual.terms
    assert [(c["l"], c["j"], c["t"], c["alpha"], c["r"])
            for c in rep.components] == [(0, 0, 0, 0, 0)]


def test_decompose_radial_square():
    G = SpinorPolynomial.zero(2)
    for k in range(2):
        alpha = [0, 0]
        beta = [0, 0]
        alpha[k] = 1
        beta[k] = 1
        G = G + SpinorPolynomial.monomial(2, tuple(alpha), tuple(beta), 0)
    rep = fi.decompose_polynomial(G, 1)
    assert rep.passed
    assert [(c["l"], c["j"], c["t"], c["alpha"], c["r"])
            for c in rep.components] == [(1, 0, 0, 0, 0)]
    assert rep.components[0]["source"] == SpinorPolynomial.monomial(
        2, (0, 0), (0, 0), 0)


def test_decompose_random_zero_residual():
    rng = random.Random(42)
    for _ in range(5):
        F = SpinorPolynomial.zero(2)
        for A in range(3):
            for B in range(3 - A):
                F = F + rand_combo(space_basis(1, A, B), rng, 2)
        rep = fi.decompose_polynomial(F, 1)
        assert rep.passed and not rep.residual.terms
        rebuilt = SpinorPolynomial.zero(2)
        for c in rep.components:
            rebuilt = rebuilt + c["component"]
        assert rebuilt == F


def mixed_input_p2(seed):
    """Five basis vectors of each of three bidegrees a+b <= 2 at p=2, with
    coefficients in Z[i, sqrt2]."""
    rng = random.Random(seed)
    bidegrees = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    F = SpinorPolynomial.zero(4)
    for a, b in rng.sample(bidegrees, 3):
        for v in rng.sample(space_basis(2, a, b), 5):
            F = F + v.scale(xs(rng.randint(-3, 3), rng.randint(-2, 2),
                               rng.randint(-1, 1)))
    return F


# sha256 of the canonical JSON of decompose_polynomial(mixed_input_p2(seed), 2);
# together the three inputs cover all six bidegrees a+b <= 2.
DECOMPOSE_GOLDEN_P2 = {
    1: "9371ba22680a6f53910712ccfbbd747bc55448d230f730ddb67875a6ff9c1df4",
    2: "c09edbf75057204f67430229b8eb0fe05b23fc2a21be7915a08920b52667b83a",
    7: "95b331782b35bbc624677c2588daa317c309548b2866fdc71379573f45d56986",
}


@pytest.mark.parametrize("seed", sorted(DECOMPOSE_GOLDEN_P2))
def test_decompose_golden_p2(seed):
    rep = fi.decompose_polynomial(mixed_input_p2(seed), 2)
    assert rep.passed
    blob = json.dumps(rep.to_json(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == DECOMPOSE_GOLDEN_P2[seed]


def test_decompose_keeps_extended_coefficients_at_the_edge(monkeypatch):
    # the pieces hold plain ints, but on an ExtendedScalar input every
    # output coefficient is an ExtendedScalar, real integers included, so
    # callers can read its fields (ar, ai, br, bi)
    rng = random.Random(3)
    F = SpinorPolynomial.zero(4)
    for a, b in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        for v in rng.sample(space_basis(2, a, b), 6):
            F = F + v.scale(xs(rng.randint(1, 3), rng.choice([0, 0, 1])))
    odd = SpinorPolynomial.monomial(4, (1, 0, 0, 0), (0, 0, 0, 0), 0, xs(2))
    for G in (F, odd):
        rep = fi.decompose_polynomial(G, 2)
        assert rep.passed and rep.components
        coeffs = [c for comp in rep.components
                  for name in ("component", "source")
                  for c in comp[name].terms.values()]
        assert all(type(c) is ExtendedScalar for c in coeffs)
    # a part no piece reaches is left in the residual as it came in
    unsolved = type("Unsolved", (), {"solve": lambda self, target: None})
    monkeypatch.setattr(fi, "_pieces_solver", lambda p, a, b: unsolved())
    rep = fi.decompose_polynomial(F, 2)
    assert not rep.passed and rep.residual == F
    assert all(type(c) is ExtendedScalar
               for c in rep.residual.terms.values())


def test_decompose_cold_and_warm_cache_agree():
    fi.full_decomposition_pieces.cache_clear()
    fi._piece_power.cache_clear()
    fi._pieces_solver.cache_clear()
    F = mixed_input_p2(1)
    cold = fi.decompose_polynomial(F, 2).to_json()
    warm = fi.decompose_polynomial(F, 2).to_json()
    assert cold == warm


def test_decompose_outputs_do_not_alias_cached_pieces():
    F = mixed_input_p2(2)
    first = fi.decompose_polynomial(F, 2)
    expected = first.to_json()
    for comp in first.components:
        for name in ("component", "source"):
            terms = comp[name].terms
            for key in list(terms):
                terms[key] = terms[key] + xs(1)
            terms.pop(next(iter(terms)))
    assert fi.decompose_polynomial(F, 2).to_json() == expected


def test_decompose_rejects_rank_mismatch():
    F = SpinorPolynomial.monomial(2, (1, 0), (0, 0), 0)
    with pytest.raises(ValueError):
        fi.decompose_polynomial(F, 2)


def test_worked_example_exact_values():
    ex = fi.example_decomposition()
    assert ex["passed"]
    assert ex["only_expected_components"]
    n = 4
    half = xs(Fraction(1, 2))
    quarter = xs(Fraction(1, 4))
    S1 = (SpinorPolynomial.monomial(n, (0, 1, 0, 0), (0, 0, 0, 0), 0b0001)
          + SpinorPolynomial.monomial(n, (1, 0, 0, 0), (0, 0, 0, 0), 0b0010)
          ).scale(half)
    S2 = (SpinorPolynomial.monomial(n, (0, 0, 0, 0), (0, 0, 0, 0), 0b0011)
          .scale(-quarter)
          + SpinorPolynomial.monomial(n, (0, 0, 0, 0), (0, 0, 0, 0), 0b1100)
          .scale(quarter))
    S0 = SpinorPolynomial.monomial(n, (0, 0, 0, 0), (0, 0, 0, 0), 0,
                                   xs(Fraction(1, 6)))
    assert ex["S1"] == S1.to_json()
    assert ex["S2"] == S2.to_json()
    assert ex["A"] == str(Fraction(-1, 2))
    assert ex["S0"] == S0.to_json()
    assert ex["rewrite_exact"]


# ------------------------------------------------- one-variable families

def test_euclidean_dims():
    for k in range(0, 4):
        out = fi.euclidean_fischer_dims(4, k)
        assert out["passed"], out
    out2 = fi.euclidean_fischer_dims(4, 2)
    assert out2["ambient_dim"] == 10 * 4
    for m, k in [(6, 1), (4, -1), (0, 1), (True, 1), (4, True)]:
        with pytest.raises(ValueError):
            fi.euclidean_fischer_dims(m, k)


def test_hermitian_dims():
    for a in range(0, 3):
        for b in range(0, 3 - a):
            out = fi.hermitian_fischer_dims(2, a, b)
            assert out["passed"], out
