"""Named operators on spinor-valued polynomials.

Oracles: the real-coordinate dictionary rebuild for the Dirac family
(tests/oracles.py), a literal table of the shifts each operator makes
against the shifts read off its words and against observed image labels,
and Fischer duality (adjointness of multiplication and differentiation)
checked as exact matrix transposes on full monomial bases.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import dirac_dictionary_check
from quatcliff.operators import (REGISTRY, apply, apply_cached,
                                 apply_expression, apply_terms, apply_word,
                                 key_image, shifts, term_image, term_table)
from quatcliff.poly import SpinorPolynomial, space_basis
from quatcliff.relations import bidegrees_up_to
from quatcliff.relations import GENERATORS, RULES
from quatcliff.scalars import ExtendedScalar, xs

small = st.integers(min_value=-3, max_value=3)


def polys(n, max_deg=2, max_terms=3):
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


# ------------------------------------------------------------ bookkeeping

# (da, db, dr): the changes of z-degree, zbar-degree and spinor grade
_SAME = {(0, 0, 0)}
SHIFTS = {
    "dz": {(-1, 0, 1)}, "dz_dag": {(0, -1, -1)},
    "dzJ": {(-1, 0, -1)}, "dz_dagJ": {(0, -1, 1)},
    "mul_z": {(1, 0, -1)}, "mul_z_dag": {(0, 1, 1)},
    "mul_zJ": {(1, 0, 1)}, "mul_z_dagJ": {(0, 1, -1)},
    "dirac": {(-1, 0, 1), (0, -1, -1)}, "dirac_I": {(-1, 0, 1), (0, -1, -1)},
    "dirac_J": {(-1, 0, -1), (0, -1, 1)}, "dirac_K": {(-1, 0, -1), (0, -1, 1)},
    "mul_X": {(1, 0, -1), (0, 1, 1)},
    "id": _SAME, "E_z": _SAME, "E_z_dag": _SAME,
    "curlyE": {(1, -1, 0)}, "curlyE_dag": {(-1, 1, 0)},
    "P": {(0, 0, -2)}, "Q": {(0, 0, 2)}, "beta": _SAME,
    "laplace": {(-1, -1, 0)}, "mul_r2": {(1, 1, 0)},
    "h_total": _SAME, "h_diff": _SAME, "h_spin": _SAME, "h_herm": _SAME,
}


def test_shifts_read_off_the_words():
    assert {name: shifts(name) for name in REGISTRY} == SHIFTS


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_declared_shifts_hold(name):
    for p, a, b in [(1, 1, 0), (1, 1, 1), (1, 2, 1), (2, 1, 0), (2, 1, 1)]:
        for F in space_basis(p, a, b):
            (_, _, mask), = F.terms
            for alpha, beta, m in apply(name, F).terms:
                shift = (sum(alpha) - a, sum(beta) - b,
                         m.bit_count() - mask.bit_count())
                assert shift in SHIFTS[name], (name, p, a, b, shift)


def test_parities_cover_registry():
    odd = {n for n in REGISTRY if {dr % 2 for *_, dr in shifts(n)} == {1}}
    assert {"dz", "dirac", "mul_z", "mul_X"} <= odd
    assert {"laplace", "mul_r2", "P", "Q", "curlyE"} & odd == set()


def test_mixed_parity_raises(monkeypatch):
    monkeypatch.setitem(REGISTRY, "odd_plus_even",
                        ((1, 0, "dz"), (1, 0, "E_z")))
    with pytest.raises(ValueError, match="mixes odd and even"):
        shifts("odd_plus_even")


@pytest.mark.parametrize("p", [1, 2])
def test_dirac_dictionary(p):
    out = dirac_dictionary_check(p, 1, 1)
    assert out["ok"], out


# -------------------------------------------------------------- identities

@given(polys(2))
@settings(max_examples=30)
def test_mul_z_pair_anticommutes_to_radius(F):
    lhs = (apply_word(("mul_z", "mul_z_dag"), F)
           + apply_word(("mul_z_dag", "mul_z"), F))
    assert lhs == apply("mul_r2", F)


@given(polys(2))
@settings(max_examples=30)
def test_twisted_pair_anticommutes_to_radius(F):
    lhs = (apply_word(("mul_zJ", "mul_z_dagJ"), F)
           + apply_word(("mul_z_dagJ", "mul_zJ"), F))
    assert lhs == apply("mul_r2", F)


@given(polys(2))
@settings(max_examples=30)
def test_mul_X_is_difference(F):
    assert apply("mul_X", F) == apply("mul_z_dag", F) - apply("mul_z", F)


@given(polys(2))
@settings(max_examples=30)
def test_laplace_from_derivative_pairs(F):
    lhs = (apply_word(("dz", "dz_dag"), F) + apply_word(("dz_dag", "dz"), F))
    assert lhs.scale(xs(4)) == apply("laplace", F)


def test_euler_eigenvalues():
    F = SpinorPolynomial.monomial(2, (2, 0), (1, 0), 0b01)
    assert apply("E_z", F) == F.scale(xs(2))
    assert apply("E_z_dag", F) == F.scale(xs(1))
    assert apply("beta", F) == F.scale(xs(1))


def test_apply_word_is_rightmost_first():
    F = SpinorPolynomial.monomial(2, (1, 0), (0, 0), 0)
    # dz then mul_z differs from mul_z then dz on z1: E_z vs E_z + 1 parts
    left = apply_word(("mul_z", "dz"), F)
    right = apply_word(("dz", "mul_z"), F)
    assert left != right
    assert left == apply("mul_z", apply("dz", F))


def test_apply_expression_affine_in_p():
    F = SpinorPolynomial.monomial(2, (1, 0), (0, 0), 0)  # p = 1
    G = apply_expression([(1, 2, "E_z")], F)  # (1 + 2p) E_z
    assert G == F.scale(xs(3))
    assert apply_expression([], F).is_zero()


# Gaussian, Fraction and sqrt2 coefficients; each one's negative is there
# too, so images of different terms often cancel
_COEFFS = [xs(1), xs(0, 1), xs(2, -3), xs(Fraction(1, 3)),
           xs(Fraction(-5, 2), Fraction(1, 7)), xs(0, 0, 1),
           xs(1, 0, Fraction(1, 2), -1)]
_COEFFS += [-c for c in _COEFFS]


def mixed_polys(n):
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)
                       for _ in range(n)])
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    def build(terms):
        F = SpinorPolynomial.zero(n)
        for alpha, beta, mask, c in terms:
            F = F + SpinorPolynomial.monomial(n, alpha, beta, mask, c)
        return F
    return st.builds(build, st.lists(
        st.tuples(exps, exps, masks, st.sampled_from(_COEFFS)), max_size=6))


def moves_one_by_one(terms, F):
    """sum c * word(F), each move through a SpinorPolynomial method."""
    out = SpinorPolynomial.zero(F.n)
    for c, word in terms:
        y = F
        for move, arg in reversed(word):
            y = getattr(y, move)(arg)
        out = out + y.scale(c)
    return out


# r^2 = z1 zbar1 + z2 zbar2 at p = 1: curlyE and curlyE_dag cancel it to 0
_R2 = (SpinorPolynomial.monomial(2, (1, 0), (1, 0), 0b11)
       + SpinorPolynomial.monomial(2, (0, 1), (0, 1), 0b11))


@pytest.mark.parametrize("name", sorted(REGISTRY))
@settings(max_examples=40, deadline=None)
@given(F=st.one_of(mixed_polys(2), mixed_polys(4)))
@example(F=_R2)
def test_one_pass_applier_matches_move_by_move(name, F):
    terms = term_table(name, F.n)
    got = apply_terms(terms, F)
    assert got == moves_one_by_one(terms, F)
    assert all(got.terms.values())


def test_one_pass_applier_drops_cancelled_terms():
    assert apply("curlyE_dag", _R2).is_zero()
    assert apply("curlyE", _R2).is_zero()
    # Q = fdag1 fdag2 + fdag3 fdag4 sends fd{3,4}I and fd{1,2}I to fd{1,2,3,4}I
    x = SpinorPolynomial.constant(4, {0b1100: xs(1), 0b0011: xs(-1)})
    assert apply("Q", x).is_zero()


# every distinct nonzero rule right-hand side, named by a rule that has it
RULE_RHS = {rule.rhs: rule.rule_id for rule in RULES if rule.rhs}


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize(
    "op", sorted(REGISTRY) + list(RULE_RHS),
    ids=lambda op: op if isinstance(op, str) else "rhs:" + RULE_RHS[op])
def test_single_term_images_match_the_applier(op, p):
    # key_image walks one key through the words of a name or an
    # expression by its own loop; it and its memo term_image must agree
    # with apply_terms on every key of degree a + b <= 2, and
    # apply_cached, the sum of those images, with apply
    n = 2 * p
    applier = apply if isinstance(op, str) else apply_expression
    cache = {}
    total = SpinorPolynomial.zero(n)
    for i, (a, b) in enumerate(bidegrees_up_to(2)):
        for F in space_basis(p, a, b):
            (key,) = F.terms
            image = applier(op, F).terms
            assert key_image(op, key, n) == image
            assert term_image(op, key, n, {}) == image
            total = total + F.scale(xs(i - 2, 1))
    assert apply_cached(op, total, cache) == applier(op, total)
    assert len(cache) == len(total.terms)


def test_integer_tables_hold_plain_ints():
    # every table coefficient that is an integer is stored as an int, so
    # operator application runs on native int arithmetic; only the -2i of
    # dirac_I and dirac_K is an ExtendedScalar
    for n in (2, 4):
        for name in REGISTRY:
            for c, _ in term_table(name, n):
                if name in ("dirac_I", "dirac_K"):
                    assert type(c) is ExtendedScalar, (name, n, c)
                else:
                    assert type(c) is int, (name, n, c)


@pytest.mark.parametrize("p", [1, 2])
def test_generator_images_and_bases_are_integral(p):
    n = 2 * p
    for a, b in bidegrees_up_to(2):
        basis = space_basis(p, a, b)
        assert all(type(c) is int for F in basis for c in F.terms.values())
        cache = {}
        for name in GENERATORS:
            for F in basis:
                (key,) = F.terms
                image = term_image(name, key, n, cache)
                assert all(type(c) is int for c in image.values()), (
                    name, key)


def test_resolve_unknown_name():
    with pytest.raises(KeyError):
        apply("not_an_operator", SpinorPolynomial.zero(2))
    with pytest.raises(KeyError, match="unknown operator name 'nope'"):
        apply_expression([(1, 0, "E_z"), (1, 0, "nope")],
                         SpinorPolynomial.zero(2))
    with pytest.raises(KeyError, match="unknown operator name 'nope'"):
        term_table(((1, 0, "nope"),), 2)


# -------------------------------------------- composites and expressions

def part_by_part(expr, F):
    """sum (c0 + c1*p) * apply(name, F), one part at a time."""
    p = F.n // 2
    out = SpinorPolynomial.zero(F.n)
    for c0, c1, name in expr:
        c = (c0 if isinstance(c0, ExtendedScalar) else xs(c0)) + xs(c1 * p)
        out = out + apply(name, F).scale(c)
    return out


COMPOSITES = sorted(name for name, entry in REGISTRY.items()
                    if isinstance(entry, tuple))

@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("name", COMPOSITES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_composite_applies_as_its_expression(name, n, data):
    F = data.draw(mixed_polys(n))
    assert apply(name, F) == part_by_part(REGISTRY[name], F)


@pytest.mark.parametrize("n", [2, 4])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_rule_right_hand_sides_apply_part_by_part(n, data):
    F = data.draw(mixed_polys(n))
    for rhs, rule_id in RULE_RHS.items():
        assert apply_expression(rhs, F) == part_by_part(rhs, F), rule_id


# -------------------------------------------------------- Fischer duality

@pytest.mark.parametrize("pair", [("mul_z", "dz"), ("mul_z_dag", "dz_dag"),
                                  ("mul_zJ", "dzJ"), ("mul_z_dagJ", "dz_dagJ")])
def test_variable_and_derivative_are_adjoint_in_dimension(pair):
    # images of the raising map from (a,b) land where the lowering map
    # from the target vanishes-complements: rank equality is the cheap
    # fingerprint of Fischer adjointness used here
    raiser, lower = pair
    p, a, b = 1, 1, 1
    up = [apply(raiser, F) for F in space_basis(p, a, b)]
    bideg = set()
    for F in up:
        bideg.update(F.bidegrees())
    assert len(bideg) == 1
    A, B = bideg.pop()
    down = [apply(lower, F) for F in space_basis(p, A, B)]
    from quatcliff import linalg
    assert (linalg.rank([F.terms for F in up if F.terms])
            == linalg.rank([F.terms for F in down if F.terms]))


def fischer_weight(key):
    """<z^alpha zbar^beta fdag_A I, same> = alpha! beta!; distinct basis
    monomials are orthogonal."""
    alpha, beta, _ = key
    return math.prod(math.factorial(e) for e in alpha + beta)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("op,adjoint,scale", [
    ("mul_z", "dz", 1), ("mul_z_dag", "dz_dag", 1), ("mul_zJ", "dzJ", 1),
    ("mul_z_dagJ", "dz_dagJ", 1), ("curlyE", "curlyE_dag", 1), ("P", "Q", 1),
    ("mul_r2", "laplace", Fraction(1, 4)), ("E_z", "E_z", 1),
    ("beta", "beta", 1)])
def test_fischer_adjoint_is_exact_conjugate_transpose(p, op, adjoint, scale):
    # <op x, y> = <x, adjoint y> on every pair of basis monomials, i.e.
    # conj(op[y, x]) * w(y) == scale * adjoint[x, y] * w(x)
    (da, db, _), = shifts(op)
    for d in range(4 - p):
        for a in range(d + 1):
            b = d - a
            if a + da < 0 or b + db < 0:
                continue
            lhs, rhs = {}, {}
            for F in space_basis(p, a, b):
                (x,) = F.terms
                for y, c in apply(op, F).terms.items():
                    lhs[(y, x)] = c.conjugate() * fischer_weight(y)
            for G in space_basis(p, a + da, b + db):
                (y,) = G.terms
                for x, c in apply(adjoint, G).terms.items():
                    rhs[(y, x)] = c * scale * fischer_weight(x)
            assert lhs == rhs, (op, p, a, b)
