"""Complex Clifford algebra with e_a e_b + e_b e_a = -2 delta_ab.

The product sign rule is checked against a brute-force oracle that multiplies
index sequences by literal bubble transpositions, so the bit-twiddling in
blade_mul never has to be trusted on its own.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (CliffordElement, blade_conjugation_sign, blade_mul,
                     inner_product)
from quatcliff.scalars import xs

N = 6  # generators used in the random tests


def oracle_blade_mul(a_indices, b_indices):
    """Multiply e_A e_B by sorting the concatenation one swap at a time."""
    seq = list(a_indices) + list(b_indices)
    sign = 1
    # bubble sort, swapping only strictly out-of-order neighbours
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    # cancel equal neighbours, e_k e_k = -1
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign = -sign
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return sign, tuple(out)


def mask_of(indices):
    m = 0
    for a in indices:
        m |= 1 << (a - 1)
    return m


def indices_of(mask):
    return tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


masks = st.integers(min_value=0, max_value=(1 << N) - 1)
small = st.integers(min_value=-3, max_value=3)


def elements(max_terms=4):
    def build(pairs):
        el = CliffordElement.zero(N)
        for mask, (ar, ai) in pairs:
            el = el + CliffordElement(N, {mask: xs(ar, ai)})
        return el
    return st.builds(build, st.lists(st.tuples(masks, st.tuples(small, small)),
                                     max_size=max_terms))


@given(masks, masks)
def test_blade_mul_matches_swap_oracle(a, b):
    sign, mask = blade_mul(a, b)
    o_sign, o_indices = oracle_blade_mul(indices_of(a), indices_of(b))
    assert mask == mask_of(o_indices)
    assert sign == o_sign


def test_generator_relations():
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            ea = CliffordElement.generator(N, a)
            eb = CliffordElement.generator(N, b)
            anti = ea * eb + eb * ea
            expect = CliffordElement.scalar(N, -2 if a == b else 0)
            assert anti == expect, (a, b)


@given(elements(), elements(), elements())
@settings(max_examples=40)
def test_product_is_associative_and_bilinear(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(elements(), elements())
@settings(max_examples=40)
def test_conjugation_is_an_antiinvolution(x, y):
    assert (x * y).conjugate() == y.conjugate() * x.conjugate()
    assert x.conjugate().conjugate() == x
    assert (x * y).hermitian_conjugate() \
        == y.hermitian_conjugate() * x.hermitian_conjugate()
    assert x.hermitian_conjugate().hermitian_conjugate() == x


def test_conjugation_fixes_scalars_and_flips_vectors():
    one = CliffordElement.scalar(N, 1)
    assert one.conjugate() == one
    for a in range(1, N + 1):
        e = CliffordElement.generator(N, a)
        assert e.conjugate() == -e
    assert blade_conjugation_sign(0) == 1
    assert blade_conjugation_sign(0b11) == -1
    assert blade_conjugation_sign(0b111) == 1


def test_elements_are_unhashable():
    # equality reads the mutable terms dict, so no hash is offered
    with pytest.raises(TypeError):
        hash(CliffordElement.generator(N, 1))


def test_conjugation_sign_table():
    # k(k+1)/2 mod 2 for k = 0..7
    expected = [1, -1, -1, 1, 1, -1, -1, 1]
    for k, want in enumerate(expected):
        mask = (1 << k) - 1
        assert blade_conjugation_sign(mask) == want, k


@given(elements(), elements())
@settings(max_examples=40)
def test_inner_product_equals_scalar_part_of_dagger_product(x, y):
    literal = (x.hermitian_conjugate() * y).scalar_part()
    assert inner_product(x, y) == literal


@given(elements())
@settings(max_examples=40)
def test_norm_sq_is_real_and_definite(x):
    v = inner_product(x, x)
    assert v.ai == 0 and v.bi == 0
    if x.is_zero():
        assert v == xs()
    else:
        assert v != xs()
        assert float(Fraction(v.ar.numerator, v.ar.denominator)) \
            + float(Fraction(v.br.numerator, v.br.denominator)) * math.sqrt(2) > 0
