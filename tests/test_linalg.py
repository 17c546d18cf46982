"""Exact sparse linear algebra over the scalar field."""

from hypothesis import given, settings, strategies as st

from quatcliff import linalg
from quatcliff.scalars import XS_ONE, xs

small = st.integers(min_value=-4, max_value=4)


def vectors(n_keys=5, max_terms=4):
    def build(pairs):
        out = {}
        for key, (ar, ai) in pairs:
            c = xs(ar, ai)
            if c:
                linalg.axpy(out, {key: c}, XS_ONE)
        return out
    return st.builds(build, st.lists(
        st.tuples(st.integers(min_value=0, max_value=n_keys - 1),
                  st.tuples(small, small)), max_size=max_terms))


def vector_lists(max_len=4):
    return st.lists(vectors(), min_size=0, max_size=max_len)


def test_axpy_cancels_to_empty():
    d = {0: xs(1)}
    linalg.axpy(d, {0: xs(1)}, xs(-1))
    assert d == {}


def test_rref_canonical_simple():
    rows = [{0: xs(2), 1: xs(2)}, {0: xs(1), 1: xs(1), 2: xs(1)}]
    reduced, pivots = linalg.rref(rows)
    assert pivots == [0, 2]
    assert reduced == [{0: XS_ONE, 1: XS_ONE}, {2: XS_ONE}]


@given(vector_lists(), vector_lists())
@settings(max_examples=40)
def test_rref_depends_only_on_span(rows_a, extra):
    # appending linear combinations of existing rows never changes the rref
    base, _ = linalg.rref(rows_a, key_order=list(range(5)))
    combo = {}
    for i, row in enumerate(rows_a):
        linalg.axpy(combo, row, xs(i + 1, 1))
    again, _ = linalg.rref(rows_a + [combo], key_order=list(range(5)))
    assert base == again


@given(vector_lists())
@settings(max_examples=40)
def test_rank_vs_rref(rows):
    reduced, pivots = linalg.rref(rows)
    assert linalg.rank(rows) == len(reduced) == len(pivots)


@given(vector_lists())
@settings(max_examples=40)
def test_nullspace_annihilates(images):
    for coords in linalg.nullspace(images):
        acc = {}
        for j, c in coords.items():
            linalg.axpy(acc, images[j], c)
        assert acc == {}
    # rank-nullity
    assert len(linalg.nullspace(images)) == len(images) - linalg.rank(images)


@given(vector_lists(), vectors())
@settings(max_examples=40)
def test_solve_round_trip(basis, target):
    coeffs = linalg.solve_in_span(basis, target)
    if coeffs is None:
        # target really outside the span: rank must grow
        assert linalg.rank(basis + [target]) == linalg.rank(basis) + 1
    else:
        acc = {}
        for c, vec in zip(coeffs, basis):
            linalg.axpy(acc, vec, c)
        assert acc == target


@given(vector_lists(), st.lists(vectors(), max_size=3))
@settings(max_examples=30)
def test_solve_many_matches_one_by_one(basis, targets):
    batched = linalg.solve_many(basis, targets)
    single = [linalg.solve_in_span(basis, t) for t in targets]
    assert batched == single


def test_solve_in_span_empty_basis():
    assert linalg.solve_in_span([], {}) == []
    assert linalg.solve_in_span([], {0: XS_ONE}) is None
