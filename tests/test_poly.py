"""Polynomial container and basis enumeration.

Counting is the oracle: every enumerated basis is compared against the
binomial dimension formulas, and the variable/derivative actions against
hand-expanded products on small monomials.
"""

import hashlib
import json
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from quatcliff import fischer as fi
from quatcliff.poly import (SpinorPolynomial, exponent_tuples, monomial_keys,
                            poly_dim, space_basis, term_sort_key, value_basis)
from quatcliff.scalars import xs
from quatcliff.witt import cell_dim, cell_labels

small = st.integers(min_value=-3, max_value=3)


def polys(n, max_deg=2, max_terms=4):
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_deg)
                       for _ in range(n)])
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    def build(triples):
        F = SpinorPolynomial.zero(n)
        for alpha, beta, mask, (cr, ci) in triples:
            F = F + SpinorPolynomial.monomial(n, alpha, beta, mask,
                                              xs(cr, ci))
        return F
    return st.builds(build, st.lists(
        st.tuples(exps, exps, masks, st.tuples(small, small)),
        max_size=max_terms))


# ------------------------------------------------------------- enumeration

@pytest.mark.parametrize("n,degree", [(2, 0), (2, 1), (2, 3), (4, 2)])
def test_exponent_tuples_count(n, degree):
    tuples = exponent_tuples(n, degree)
    assert len(tuples) == comb(degree + n - 1, n - 1)
    assert all(sum(t) == degree for t in tuples)
    assert tuples == sorted(tuples)


@pytest.mark.parametrize("p,a,b", [(1, 0, 0), (1, 2, 1), (2, 1, 1), (2, 3, 0)])
def test_poly_dim_matches_enumeration(p, a, b):
    n = 2 * p
    keys = monomial_keys(p, a, b)
    assert len(keys) == poly_dim(p, a, b)
    assert len(keys) == comb(a + n - 1, n - 1) * comb(b + n - 1, n - 1)


@pytest.mark.parametrize("p", [1, 2])
def test_space_basis_full_dimension(p, a=1, b=1):
    basis = space_basis(p, a, b)
    assert len(basis) == poly_dim(p, a, b) * (1 << (2 * p))
    keys = [F.sorted_keys()[0] for F in basis]
    assert len(set(keys)) == len(keys)
    again = [F.sorted_keys()[0] for F in space_basis(p, a, b)]
    assert again == keys


@pytest.mark.parametrize("p,r", [(1, 0), (1, 1), (2, 2)])
def test_value_basis_grade(p, r):
    vals = value_basis(p, ("grade", r))
    assert len(vals) == comb(2 * p, r)


@pytest.mark.parametrize("p,r,s", [(1, 1, 1), (2, 2, 0), (2, 2, 2), (2, 3, 1)])
def test_value_basis_cell(p, r, s):
    vals = value_basis(p, ("cell", r, s))
    assert len(vals) == cell_dim(p, r, s)


@pytest.mark.parametrize("p", [1, 2])
def test_space_basis_leading_terms_stand_alone(p):
    # the basis precondition of operators.joint_kernel and of
    # fischer._inside: the leading term of each polynomial has
    # coefficient 1 and is in no other polynomial.  joint_kernel gets
    # space_basis on every value space; _inside gets the harmonics, the
    # q-monogenics with full or cell values, and prop9's ambient: each
    # symplectic harmonic times each value of a bottom cell
    cells = [("cell", lab.r, lab.s) for lab in cell_labels(p)]
    spaces = [("full",)] + [("grade", r) for r in range(2 * p + 1)] + cells
    for a, b in [(a, d - a) for d in range(4) for a in range(d + 1)]:
        bases = [space_basis(p, a, b, vs) for vs in spaces]
        bases.append(fi.harmonic_space(p, a, b))
        bases += [fi.qmonogenic_space(p, a, b, vs)
                  for vs in [("full",)] + cells]
        if a >= b:
            bases += [[h.times_value(v)
                       for h in fi.symplectic_harmonic_space(p, a, b)
                       for v in value_basis(p, ("cell", r, r))]
                      for r in range(p + 1)]
        for basis in bases:
            counts = Counter(t for F in basis for t in F.terms)
            for F in basis:
                lead = min(F.terms, key=term_sort_key)
                assert F.terms[lead] == xs(1) and counts[lead] == 1


# sha256 of the canonical JSON of [[r, s, basis], ...] over every cell
# label, each basis as value_basis(p, ("cell", r, s)) in JSON term lists
CELL_BASIS_GOLDEN = {
    1: "1f0f7f7c0b8a04422f97ea3883ea63410daa8b3cf926981b227ae2664b4cecd0",
    2: "2db0cd7e981fb7a3f7dd3b270887c7c518f23c51566a184a2c1c6f1b58077078",
    3: "b5ba3e838e908eba433b1f60950c6d64c89d66b1719af443aa54c83f7e9a231a",
}


@pytest.mark.parametrize("p", sorted(CELL_BASIS_GOLDEN))
def test_cell_bases_golden(p):
    blob = json.dumps(
        [[r, s, [v.to_json() for v in value_basis(p, ("cell", r, s))]]
         for r, s in cell_labels(p)],
        sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == CELL_BASIS_GOLDEN[p]


# ----------------------------------------------------------------- algebra

@given(polys(2), polys(2))
@settings(max_examples=40)
def test_addition_commutes(F, G):
    assert F + G == G + F
    assert (F + G) - G == F


@given(polys(2), st.tuples(small, small))
@settings(max_examples=40)
def test_scale_distributes(F, c):
    s = xs(*c)
    G = F + F
    assert G.scale(s) == F.scale(s) + F.scale(s)


@given(polys(2))
@settings(max_examples=40)
def test_bidegree_parts_partition(F):
    total = SpinorPolynomial.zero(F.n)
    for a, b in F.bidegrees():
        part = F.bidegree_part(a, b)
        assert part.terms
        assert part.bidegrees() == [(a, b)]
        total = total + part
    assert total == F


def test_zero_terms_dropped():
    F = SpinorPolynomial(2, {((1, 0), (0, 0), 0): xs(0)})
    assert F.is_zero() and not F


def test_polynomials_are_unhashable():
    # the terms dict is mutable (linalg.axpy writes such dicts in place),
    # so a hash of its contents could go stale under a set or dict key
    F = SpinorPolynomial.monomial(2, (1, 0), (0, 0), 0)
    with pytest.raises(TypeError):
        hash(F)


# --------------------------------------------------- variables, derivatives

def test_mul_then_diff_round_trip():
    F = SpinorPolynomial.monomial(2, (1, 0), (0, 1), 0b01)
    G = F.mul_z_var(1)
    assert G == SpinorPolynomial.monomial(2, (2, 0), (0, 1), 0b01,
                                          xs(1))
    assert G.diff_z(1) == F.scale(xs(2))
    H = F.mul_zbar_var(2)
    assert H.diff_zbar(2) == F.scale(xs(2))


def test_diff_kills_missing_variable():
    F = SpinorPolynomial.monomial(2, (1, 0), (0, 0), 0)
    assert F.diff_z(2).is_zero()
    assert F.diff_zbar(1).is_zero()


def test_wedge_contract_signs():
    F = SpinorPolynomial.monomial(2, (0, 0), (0, 0), 0b01)
    assert F.wedge(1).is_zero()
    G = F.wedge(2)
    [(key, _)] = list(G.terms.items())
    assert key[2] == 0b11
    # contracting the freshly wedged index undoes it, the two crossing
    # signs square away
    assert G.contract(2) == F
    assert F.contract(2).is_zero()


# ------------------------------------------------------------------- JSON

@given(polys(2))
@settings(max_examples=40)
def test_json_round_trip(F):
    assert SpinorPolynomial.from_json(F.to_json(), n=2) == F


def test_from_json_empty_needs_rank():
    assert SpinorPolynomial.from_json([], n=4).is_zero()
