"""Exact sparse linear algebra over the scalar field."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from quatcliff import linalg
from quatcliff.scalars import ExtendedScalar, xs

small = st.integers(min_value=-4, max_value=4)


def vectors(n_keys=5, max_terms=4):
    def build(pairs):
        out = {}
        for key, (ar, ai) in pairs:
            c = xs(ar, ai)
            if c:
                linalg.axpy(out, {key: c}, xs(1))
        return out
    return st.builds(build, st.lists(
        st.tuples(st.integers(min_value=0, max_value=n_keys - 1),
                  st.tuples(small, small)), max_size=max_terms))


def vector_lists(max_len=4):
    return st.lists(vectors(), min_size=0, max_size=max_len)


components = st.one_of(small, st.builds(
    Fraction, small, st.integers(min_value=1, max_value=5)))


@st.composite
def field_rows(draw):
    """Rows over keys 0..4 with Fraction and sqrt2 components, made
    rank-deficient by appending combinations of earlier rows."""
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        row = {}
        for key in draw(st.lists(st.integers(0, 4), max_size=4)):
            c = ExtendedScalar(*(draw(components) for _ in range(4)))
            if c:
                linalg.axpy(row, {key: c}, xs(1))
        rows.append(row)
    for _ in range(draw(st.integers(0, 3))):
        combo = {}
        for row in rows:
            linalg.axpy(combo, row, ExtendedScalar(
                *(draw(components) for _ in range(4))))
        rows.append(combo)
    return rows


def test_axpy_cancels_to_empty():
    d = {0: xs(1)}
    linalg.axpy(d, {0: xs(1)}, xs(-1))
    assert d == {}


def test_rref_canonical_simple():
    rows = [{0: xs(2), 1: xs(2)}, {0: xs(1), 1: xs(1), 2: xs(1)}]
    reduced, pivots = linalg.rref(rows)
    assert pivots == [0, 2]
    assert reduced == [{0: xs(1), 1: xs(1)}, {2: xs(1)}]


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


@given(st.one_of(vector_lists(), field_rows()))
@example([{0: xs(0, 0, 1), 1: xs(2)}, {0: xs(1), 1: xs(0, 0, 1)}])
@settings(max_examples=80)
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


@given(vector_lists())
@example([{0: xs(1)}, {0: xs(2)}])
@settings(max_examples=40)
def test_nullspace_is_reduced_echelon_in_index_order(images):
    # each vector holds 1 at its smallest index, which no other vector
    # holds, and the vectors ascend by it
    kernel = linalg.nullspace(images)
    leads = [min(vec) for vec in kernel]
    assert leads == sorted(set(leads))
    for vec, f in zip(kernel, leads):
        assert vec[f] == xs(1)
        assert sum(f in other for other in kernel) == 1


@given(vector_lists(), vectors())
@settings(max_examples=40)
def test_solve_round_trip(basis, target):
    coeffs = linalg.Solver(basis).solve(target)
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
    single = [linalg.Solver(basis).solve(t) for t in targets]
    assert batched == single


def reference_solve_many(basis, targets):
    """The elimination `solve_many` ran before `Solver`: basis and targets
    eliminated together, one augmented column per target."""
    n = len(basis)
    rows = {}
    for j, vec in enumerate(basis):
        for t, c in vec.items():
            rows.setdefault(t, [{}, {}])[0][j] = c
    for ti, tgt in enumerate(targets):
        for t, c in tgt.items():
            rows.setdefault(t, [{}, {}])[1][ti] = c
    work = [rows[t] for t in sorted(rows)]
    pivots = []   # (col, coeffs, augs)
    for j in range(n):
        hit = None
        for idx, (coeffs, _) in enumerate(work):
            if j in coeffs:
                hit = idx
                break
        if hit is None:
            continue
        coeffs, augs = work.pop(hit)
        inv = coeffs[j].inverse()
        coeffs = {k: inv * v for k, v in coeffs.items()}
        augs = {k: inv * v for k, v in augs.items()}
        for other_coeffs, other_augs in work:
            c = other_coeffs.get(j)
            if c is not None:
                linalg.axpy(other_coeffs, coeffs, -c)
                linalg.axpy(other_augs, augs, -c)
        for _, pc, pa in pivots:
            c = pc.get(j)
            if c is not None:
                linalg.axpy(pc, coeffs, -c)
                linalg.axpy(pa, augs, -c)
        pivots.append((j, coeffs, augs))
    bad = set()
    for coeffs, augs in work:
        # every remaining row has no unknowns left; a nonzero rhs is a conflict
        for ti, v in augs.items():
            if v:
                bad.add(ti)
    out = []
    for ti in range(len(targets)):
        if ti in bad:
            out.append(None)
            continue
        x = [xs()] * n
        for j, _, pa in pivots:
            x[j] = pa.get(ti, xs())
        out.append(x)
    return out


@st.composite
def systems(draw):
    """A basis over keys 0..4, made rank-deficient by appending
    combinations of its vectors, and targets inside its span, outside it,
    and with keys 5 and 6 that no basis vector has."""
    basis = draw(vector_lists())

    def combination():
        acc = {}
        for vec in basis:
            linalg.axpy(acc, vec, xs(draw(small), draw(small)))
        return acc

    basis = basis + [combination()
                     for _ in range(draw(st.integers(0, 2)))]
    targets = []
    for kind in draw(st.lists(st.sampled_from(["span", "any", "off"]),
                              max_size=4)):
        if kind == "any":
            targets.append(draw(vectors()))
            continue
        tgt = combination()
        if kind == "off":
            linalg.axpy(tgt, {draw(st.sampled_from([5, 6])): xs(1)},
                        xs(draw(st.integers(1, 3))))
        targets.append(tgt)
    return basis, targets


@given(systems())
@example(([], []))
@example(([], [{}, {0: xs(1)}]))
@example(([{0: xs(1)}, {0: xs(2)}], [{0: xs(3)}, {0: xs(1), 5: xs(1)}]))
@example(([{0: xs(1), 1: xs(1)}], [{0: xs(1)}, {1: xs(2), 0: xs(2)}]))
@settings(max_examples=80)
def test_solver_matches_reference(system):
    basis, targets = system
    expected = reference_solve_many(basis, targets)
    solver = linalg.Solver(basis)
    assert [solver.solve(t) for t in targets] == expected
    assert linalg.solve_many(basis, targets) == expected


# ------------------------------------------------ rank certificate mod q

Q = linalg._Q


def is_prime(n):
    """Miller-Rabin on the first 13 prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or n in bases:
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_modulus_is_a_prime():
    assert is_prime(2 ** 61 - 1) and not is_prime(561)   # 561 = 3*11*17
    assert is_prime(Q)


def test_rows_with_i_or_sqrt2_get_the_exact_rank():
    # only rationals have an image mod Q: rows with an i or sqrt2 entry
    # skip the certificate and are ranked by exact elimination
    i, s2 = xs(0, 1), xs(0, 0, 1)
    assert linalg._mod_q(i) is None and linalg._mod_q(s2) is None
    # (1, i) and (i, -1) = i (1, i) are dependent, (1, i) and (i, 1) not
    for rows, want in [([{0: xs(1), 1: i}, {0: i, 1: xs(-1)}], 1),
                       ([{0: xs(1), 1: i}, {0: i, 1: xs(1)}], 2),
                       ([{0: s2, 1: xs(2)}, {0: xs(1), 1: s2}], 1)]:
        assert linalg._certified_rank(rows) is None
        assert linalg.rank(rows) == len(linalg.rref(rows)[0]) == want


# a component with a small numerator over a small denominator or one
# divisible by Q
mod_q_component = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6),
    st.sampled_from([1, 2, 3, 7, 12, Q, 2 * Q, 3 * Q * Q]))


@given(st.tuples(*[mod_q_component] * 4))
@example((Fraction(1, 2), 0, 0, Fraction(1, Q)))
@example((Fraction(Q, 3), Fraction(0, Q), 0, 0))
def test_mod_q_matches_the_per_component_formula(parts):
    """The image of a rational is num * den**-1, and there is none
    exactly when an i or sqrt2 component is nonzero or Q divides the
    rational component's denominator."""
    got = linalg._mod_q(xs(*parts))
    q = Fraction(parts[0])
    if any(parts[1:]) or q.denominator % Q == 0:
        assert got is None
        return
    assert got == q.numerator * pow(q.denominator, -1, Q) % Q


def test_rank_lost_mod_q_falls_back_to_exact():
    rows = [{0: xs(1), 1: xs(1)}, {0: xs(1), 1: xs(1 + Q)}]
    assert linalg._certified_rank(rows) is None
    assert linalg.rank(rows) == 2


def test_denominator_divisible_by_q_falls_back_to_exact():
    rows = [{0: xs(Fraction(1, Q)), 1: xs(1)}, {1: xs(2)}]
    assert linalg._certified_rank(rows) is None
    assert linalg.rank(rows) == 2
