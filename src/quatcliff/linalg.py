"""Exact sparse linear algebra over Q(i, sqrt2).

Vectors are plain dicts mapping hashable, mutually sortable keys to nonzero
coefficients: plain ints where integral, ExtendedScalars otherwise (see
scalars).  Gauss-Jordan with exact field inverses (`scalars.inverse`)
runs on sparse rows (thm10 at p=2 ranks 1600 vectors at (2,2); the p=3,
degree 4 spaces have 28224 dimensions); there is no roundoff, so no
pivoting heuristics.  Rows stay integral until the first pivot other
than +-1.

There is one exact elimination loop, `_eliminate`.  `rref` runs it on
bare rows, and `nullspace` on the constraints, pivoting from the last
index back so that its free-variable basis is already the kernel's
reduced echelon basis.  `Solver` runs it once on a basis
with the identity over the term keys as augmented part, keeping a left
inverse and the consistency checks, so each later `solve` is a sparse
product; `solve_many` is one `Solver` replayed on its targets.  It is
for coordinates in a basis that is not canonical, as `decompose` needs
in the pieces of a bidegree: in a canonical basis they are read off
the leading terms (`fischer._inside`).

`rank` first tries a rank-only certificate modulo the prime _Q: it maps
every rational entry N / d to N * d**-1 in F_q.  That is a ring map on
Z[1/d] when _Q does not divide d, so every minor of the image is the
image of a minor of the exact rows, and
    rank mod q <= exact rank <= min(rows, distinct keys).
When the image reaches that bound, the bound is the exact rank.  Any other
outcome (a smaller rank mod q, a denominator divisible by _Q, or an
entry with an i or sqrt2 part) falls back to `rref`, so every rank
`rank` returns is exact.
"""

from .scalars import inverse


def axpy(dst, src, c):
    """dst += c * src, in place, dropping entries that cancel to zero."""
    if not c:
        return dst
    for k, v in src.items():
        cur = dst.get(k)
        s = c * v if cur is None else cur + c * v
        if s:
            dst[k] = s
        elif cur is not None:
            del dst[k]
    return dst


def _eliminate(work, key_order):
    """The one Gauss-Jordan loop.

    Reduces the dicts of `work` in place, pivoting on the keys of
    `key_order` in turn, each on the first row that holds it.  Rows that
    cancel to zero are dropped, and the loop stops once none remain.
    Returns (pivots, rest): the pivot rows as (key, row) in pivot order,
    fully reduced, and the rows left without a pivot.
    """
    work = [r for r in work if r]
    pivots = []   # (key, row) fully reduced so far
    for key in key_order:
        hit = None
        for idx, r in enumerate(work):
            if key in r:
                hit = idx
                break
        if hit is None:
            continue
        row = work.pop(hit)
        inv = inverse(row[key])
        row = {k: inv * v for k, v in row.items()}
        for r in work:
            c = r.get(key)
            if c is not None:
                axpy(r, row, -c)
        for _, prow in pivots:
            c = prow.get(key)
            if c is not None:
                axpy(prow, row, -c)
        pivots.append((key, row))
        work = [r for r in work if r]
        if not work:
            break
    return pivots, work


def rref(rows, key_order=None):
    """Reduced row echelon form of the span of `rows`.

    Returns (reduced_rows, pivot_keys), rows ordered by pivot position.  The
    output depends only on the span and the key order, which makes it a
    canonical presentation of a subspace.
    """
    if key_order is None:
        key_order = sorted({k for r in rows for k in r})
    # no other reference to the copies, so rows that cancel are freed
    pivots, _ = _eliminate([dict(r) for r in rows], key_order)
    return [row for _, row in pivots], [key for key, _ in pivots]


def rank(rows):
    """Exact rank of the span of `rows`: certified modulo _Q when the
    image there has the largest rank the shape allows, else from `rref`."""
    rows = [r for r in rows if r]
    certified = _certified_rank(rows)
    return len(rref(rows)[0]) if certified is None else certified


# _Q = 2**61 + 57 is prime
_Q = 2305843009213694009


def _mod_q(c):
    """Image of the rational coefficient c in F_q; None when c has an i or
    sqrt2 part or _Q divides its denominator."""
    if type(c) is int:
        return c % _Q
    if c.x or c.y or c.z:
        return None
    if c.d == 1:
        return c.w % _Q
    d = c.d % _Q
    return c.w * pow(d, -1, _Q) % _Q if d else None


def _certified_rank(rows):
    """min(rows, distinct keys) when the image of the nonzero `rows` in
    F_q has that rank, so the exact rank does too; None otherwise.

    Each row is reduced against the pivot rows found so far, and what is
    left pivots on its smallest key.  Gives up as soon as the rows left
    cannot reach the bound, or on an entry with no image.
    """
    keys = sorted({k for r in rows for k in r})
    index = {k: i for i, k in enumerate(keys)}
    bound = min(len(rows), len(keys))
    pivots = {}   # key -> row with 1 at key and no smaller key
    for done, row in enumerate(rows):
        if len(pivots) == bound:
            break
        if len(pivots) + len(rows) - done < bound:
            return None
        r = {}
        for k, c in row.items():
            v = _mod_q(c)
            if v is None:
                return None
            if v:
                r[index[k]] = v
        while r:
            key = min(r)
            prow = pivots.get(key)
            if prow is None:
                inv = pow(r[key], -1, _Q)
                pivots[key] = {k: v * inv % _Q for k, v in r.items()}
                break
            c = r[key]
            for k, v in prow.items():
                s = (r.get(k, 0) - c * v) % _Q
                if s:
                    r[k] = s
                else:
                    r.pop(k, None)
    return bound if len(pivots) == bound else None


def _transpose(vectors):
    """The sorted term keys of `vectors`, and the matrix whose column j is
    vectors[j] as one row per key: row t holds vectors[j][t] at key j."""
    rows = {}
    for j, vec in enumerate(vectors):
        for t, c in vec.items():
            rows.setdefault(t, {})[j] = c
    terms = sorted(rows)
    return terms, [rows[t] for t in terms]


def nullspace(images):
    """Canonical basis of {x : sum_j x_j * images[j] = 0}.

    `images` lists the images of the source basis vectors under some linear
    map, as key->coefficient dicts.  The result is a list of coordinate
    vectors {j: coeff}, the kernel's reduced echelon basis in index order:
    one vector per free index f, ascending, with 1 at f and 0 at every
    other free index.  The constraints are pivoted from the last index
    back to the first, so each pivot row holds, besides its pivot, only
    free indices below it, and the vector of f is nonzero elsewhere only
    at pivots above f: f is its smallest index.
    """
    n = len(images)
    _, rows = _transpose(images)
    reduced, pivot_cols = rref(rows, key_order=range(n - 1, -1, -1))
    pivot_set = set(pivot_cols)
    kernel = []
    for f in range(n):
        if f in pivot_set:
            continue
        vec = {f: 1}
        for key, prow in zip(pivot_cols, reduced):
            c = prow.get(f)
            if c is not None:
                vec[key] = -c
        kernel.append(vec)
    return kernel


class Solver:
    """One elimination of a basis, replayed on any number of targets.

    Row t of the system holds basis[j][t] at key j and, as its augmented
    part, the identity over the term keys: 1 at key -1 - i for the i-th
    term key.  Eliminating the columns 0..n-1 leaves, read by columns, a
    left inverse in the pivot rows (term key -> {pivot column:
    coefficient}) and consistency checks in the rows without a pivot
    (term key -> {check: coefficient}), which a target in the span
    satisfies.
    """

    __slots__ = ("n", "_inverse", "_checks")

    def __init__(self, basis):
        self.n = len(basis)
        terms, rows = _transpose(basis)
        for i, row in enumerate(rows):
            row[-1 - i] = 1
        # key_order covers every column, so the rows left hold augmented keys only
        pivots, rest = _eliminate(rows, range(self.n))
        self._inverse = {t: {} for t in terms}
        for j, row in pivots:
            for k, c in row.items():
                if k < 0:
                    self._inverse[terms[-1 - k]][j] = c
        self._checks = {}
        for i, row in enumerate(rest):
            for k, c in row.items():
                self._checks.setdefault(terms[-1 - k], {})[i] = c

    def solve(self, target):
        """Coefficients of `target` in the basis (free variables set to
        zero), or None when it is outside the span."""
        x, conflict = {}, {}
        for t, c in target.items():
            col = self._inverse.get(t)
            if col is None:
                return None   # a term no basis vector has
            axpy(x, col, c)
            check = self._checks.get(t)
            if check is not None:
                axpy(conflict, check, c)
        if conflict:
            return None
        return [x.get(j, 0) for j in range(self.n)]


def solve_many(basis, targets):
    """Solve sum_j x_j basis[j] = target for each target, exactly.

    Returns a list with one entry per target: a coefficient list (free
    variables set to zero) or None when the target is outside the span.
    One elimination is shared by all targets.
    """
    solver = Solver(basis)
    return [solver.solve(t) for t in targets]
