"""The sixteen embedding factors against the paper's coefficient table.

The library builds factor alpha as its head word followed by the
projection onto Ker laplace, Ker P and Ker curlyE.  The paper also
writes each factor out as a sum of words with explicit coefficients;
that table is kept here verbatim as an independent reference.  The two
agree on every S-space source vector of every label the graded tiling
visits at p=1 up to degree 6 and at p=2 up to degree 4, except for
alpha 15 at the five labels in KNOWN_DISAGREEMENT (a = b >= 2, r >= 1).
There the table's images leave the three kernels, which is what made
the graded tiling overshoot its ambient dimension; the entry is a likely
erratum in the paper or in its transcription.
"""

from fractions import Fraction

import pytest

from quatcliff import fischer as fi
from quatcliff.operators import apply, apply_word
from quatcliff.poly import SpinorPolynomial
from quatcliff.scalars import xs


def _c(num, den=1):
    return Fraction(num, den)


# alpha -> (source shift (dr, da, db), [(coefficient(p,a,b,r), word), ...]);
# words apply rightmost factor first, coefficients use the target labels.
TABLE = {
    0: ((0, 0, 0), [
        (lambda p, a, b, r: _c(1), ()),
    ]),
    1: ((1, -1, 0), [
        (lambda p, a, b, r: _c(1), ("mul_z",)),
    ]),
    2: ((1, 0, -1), [
        (lambda p, a, b, r: _c(1), ("mul_z_dagJ",)),
        (lambda p, a, b, r: _c(-1, a - b + 2), ("curlyE_dag", "mul_z")),
    ]),
    3: ((-1, 0, -1), [
        (lambda p, a, b, r: _c(1), ("mul_z_dag",)),
        (lambda p, a, b, r: _c(1, a - b + 2), ("curlyE_dag", "mul_zJ")),
        (lambda p, a, b, r: _c(1, p - r + 2), ("Q", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(-1, (p - r + 2) * (a - b + 2)),
         ("Q", "curlyE_dag", "mul_z")),
    ]),
    4: ((-1, -1, 0), [
        (lambda p, a, b, r: _c(1), ("mul_zJ",)),
        (lambda p, a, b, r: _c(-1, p - r + 2), ("Q", "mul_z")),
    ]),
    5: ((0, -1, -1), [
        (lambda p, a, b, r: _c(1), ("mul_z", "mul_z_dag")),
        (lambda p, a, b, r: _c(1, a - b + 2), ("curlyE_dag", "mul_z", "mul_zJ")),
        (lambda p, a, b, r: _c(1, p - r + 2), ("Q", "mul_z", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(-(2 * p + b - r - 1), 2 * p + a + b - 2),
         ("mul_r2",)),
    ]),
    6: ((0, -1, -1), [
        (lambda p, a, b, r: _c(1), ("mul_zJ", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(-1, a - b + 2), ("curlyE_dag", "mul_zJ", "mul_z")),
        (lambda p, a, b, r: _c(-1, p - r + 2), ("Q", "mul_z", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(-(b + r - 1), 2 * p + a + b - 2), ("mul_r2",)),
    ]),
    7: ((2, -1, -1), [
        (lambda p, a, b, r: _c(1), ("mul_z", "mul_z_dagJ")),
    ]),
    8: ((-2, -1, -1), [
        (lambda p, a, b, r: _c(1), ("mul_zJ", "mul_z_dag")),
        (lambda p, a, b, r: _c(-1, p - r + 2), ("Q", "mul_z", "mul_z_dag")),
        (lambda p, a, b, r: _c(1, p - r + 2), ("Q", "mul_zJ", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(-1, (p - r + 3) * (p - r + 2)),
         ("Q", "Q", "mul_z", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(1, (p - r + 3) * (p - r + 2) * (a - b + 2)),
         ("curlyE_dag", "Q", "Q", "mul_zJ", "mul_z")),
    ]),
    9: ((0, -2, 0), [
        (lambda p, a, b, r: _c(1), ("mul_z", "mul_zJ")),
    ]),
    10: ((0, 0, -2), [
        (lambda p, a, b, r: _c(1), ("mul_z_dag", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(-1, a - b + 2), ("curlyE_dag", "mul_z_dag", "mul_z")),
        (lambda p, a, b, r: _c(1, a - b + 2), ("curlyE_dag", "mul_zJ", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(-1, (a - b + 3) * (a - b + 2)),
         ("curlyE_dag", "curlyE_dag", "mul_zJ", "mul_z")),
    ]),
    11: ((-1, -2, -1), [
        (lambda p, a, b, r: _c(1), ("mul_z", "mul_z_dag", "mul_zJ")),
        (lambda p, a, b, r: _c(-(2 * p + b + 1 - r), 2 * p + a + b - 2),
         ("mul_r2", "mul_zJ")),
        (lambda p, a, b, r: _c(-1, p + 2 - r),
         ("Q", "mul_z", "mul_zJ", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(2 * p + b + 1 - r, (p + 2 - r) * (2 * p + a + b - 2)),
         ("Q", "mul_r2", "mul_z")),
    ]),
    12: ((1, -1, -2), [
        (lambda p, a, b, r: _c(1), ("mul_z", "mul_z_dag", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(-(2 * p + b - 2 - r), 2 * p + a + b - 2),
         ("mul_r2", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(-1, a - b + 2),
         ("curlyE_dag", "mul_z", "mul_z_dagJ", "mul_zJ")),
        (lambda p, a, b, r: _c(2 * p + b - 2 - r, (a - b + 2) * (2 * p + a + b - 2)),
         ("curlyE_dag", "mul_r2", "mul_z")),
    ]),
    13: ((1, -2, -1), [
        (lambda p, a, b, r: _c(1), ("mul_z", "mul_zJ", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(-(b + r - 1), 2 * p + a + b - 2),
         ("mul_r2", "mul_z")),
    ]),
    14: ((-1, -1, -2), [
        (lambda p, a, b, r: _c(1), ("mul_z_dag", "mul_zJ", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(-(b + r - 4), 2 * p + a + b - 2),
         ("mul_r2", "mul_z_dag")),
        (lambda p, a, b, r: _c(-1, a - b + 2),
         ("curlyE_dag", "mul_z_dag", "mul_zJ", "mul_z")),
        (lambda p, a, b, r: _c(1, p - r + 2),
         ("Q", "mul_z", "mul_z_dag", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(-(b + r - 4), (2 * p + a + b - 2) * (a - b + 2)),
         ("curlyE_dag", "mul_r2", "mul_zJ")),
        (lambda p, a, b, r: _c(-(b + r - 4), (2 * p + a + b - 2) * (p - r + 2)),
         ("Q", "mul_r2", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(-1, (p - r + 2) * (a - b + 2)),
         ("curlyE_dag", "Q", "mul_z", "mul_z_dagJ", "mul_zJ")),
        (lambda p, a, b, r: _c(b + r - 4,
                               (2 * p + a + b - 2) * (p - r + 2) * (a - b + 2)),
         ("curlyE_dag", "Q", "mul_r2", "mul_z")),
    ]),
    15: ((0, -2, -2), [
        (lambda p, a, b, r: _c(1), ("mul_z", "mul_z_dag", "mul_zJ", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(-(b + r - 4), 2 * p + a + b - 2),
         ("mul_r2", "mul_z", "mul_z_dag")),
        (lambda p, a, b, r: _c(-(2 * p + b - r), 2 * p + a + b - 2),
         ("mul_r2", "mul_zJ", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(1, 2 * p + a + b - 2),
         ("mul_r2", "curlyE_dag", "mul_z", "mul_zJ")),
        (lambda p, a, b, r: _c(2, 2 * p + a + b - 2),
         ("mul_r2", "Q", "mul_z", "mul_z_dagJ")),
        (lambda p, a, b, r: _c(
            2 * p * b + b * b - 5 * b - a + 2 * p * r - 2 * r - r * r - 8 * p + 6,
            (2 * p + a + b - 2) * (2 * p + a + b - 3)),
         ("mul_r2", "mul_r2")),
    ]),
}


# (p, a, b, r, alpha) where the table and the projection differ
KNOWN_DISAGREEMENT = {
    (1, 2, 2, 1, 15), (1, 3, 2, 1, 15), (1, 4, 2, 1, 15),
    (2, 2, 2, 1, 15), (2, 2, 2, 2, 15),
}


def table_terms(alpha, p, a, b, r):
    """The table's nonzero (coefficient, word) pairs at target labels."""
    terms = []
    for coeff_fn, word in TABLE[alpha][1]:
        coeff = coeff_fn(p, a, b, r)
        if coeff:
            terms.append((coeff, word))
    return terms


def apply_terms(terms, F):
    out = SpinorPolynomial.zero(F.n)
    for coeff, word in terms:
        out = out + apply_word(word, F).scale(xs(coeff))
    return out


def render(terms):
    return " + ".join(f"({coeff}) {' '.join(word) if word else '1'}"
                      for coeff, word in terms)


def in_kernels(F):
    return not any(apply(name, F).terms for name in ("laplace", "P", "curlyE"))


def tiling_labels(p, max_degree):
    """Every (a, b, r) whose sixteen factors the graded tiling uses up to
    `max_degree`: a >= b >= 0, a + b <= max_degree, 0 <= r <= p."""
    return [(a, total - a, r) for total in range(max_degree + 1)
            for a in range(total, -1, -1) if a >= total - a
            for r in range(p + 1)]


def compare(p, max_degree):
    """Labels where the two constructions differ, and whether each
    construction's images stay inside the three kernels there."""
    differ = {}
    for a, b, r in tiling_labels(p, max_degree):
        for alpha in range(16):
            source, word = fi.embedding_factor(alpha, p, a, b, r)
            if word is None:
                continue
            terms = table_terms(alpha, p, a, b, r)
            for v in fi.s_space(p, *source):
                from_table = apply_terms(terms, v)
                projected = fi.composite_projection(apply_word(word, v))
                if from_table != projected:
                    differ[(p, a, b, r, alpha)] = (in_kernels(from_table),
                                                   in_kernels(projected))
                    break
    return differ


@pytest.mark.parametrize("p,max_degree", [(1, 6), (2, 4)])
def test_table_agrees_with_projection_except_alpha15(p, max_degree):
    differ = compare(p, max_degree)
    assert set(differ) == {lab for lab in KNOWN_DISAGREEMENT if lab[0] == p}
    # the table is the side that leaves Ker laplace, Ker P, Ker curlyE
    assert all(not table_ok and proj_ok
               for table_ok, proj_ok in differ.values())


def test_table_shares_sources_and_head_words():
    p, a, b, r = 4, 4, 2, 2     # every source exists at these labels
    for alpha, ((dr, da, db), raw) in TABLE.items():
        source, word = fi.embedding_factor(alpha, p, a, b, r)
        assert source == (r + dr, a + da, b + db)
        assert raw[0][0](p, a, b, r) == 1
        assert word == raw[0][1]


def test_table_rendering_frozen():
    assert render(table_terms(0, 2, 2, 1, 1)) == "(1) 1"
    assert render(table_terms(2, 2, 2, 1, 0)) == \
        "(1) mul_z_dagJ + (-1/3) curlyE_dag mul_z"
