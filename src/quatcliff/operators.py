"""The named operators acting on spinor-valued polynomials, as term tables.

Every operator is one term table, a list of (coefficient, word); a word
is a tuple of moves (a name of witt.KEY_MOVES, argument) applied
rightmost first, and apply_terms sums coefficient * word(F).  An
operator is a name or an expression: a REGISTRY name, or a tuple
((c0, c1, name), ...) meaning sum (c0 + c1*p) * name (c0 may be a
Gaussian scalar), the form of the relation right-hand sides and of the
composites of REGISTRY, whose base operators are functions of n writing
their tables.  term_table compiles either kind once per n, so apply
makes one pass of apply_terms over a polynomial.  key_image is the one
single-key walk; term_image memoises it in a caller's dict for the
bracket checks of relations, and apply_cached sums those images.  The
grading is read off the words by `shifts`: the changes (da, db, dr) of
z-degree, zbar-degree and spinor grade, parity dr mod 2.  The scalar
move and the value move of a word commute; each word applies its scalar
move first.  Conventions (k runs 1..n = 2p, j runs 1..p):

  dz        = sum_k d/dz_k fdag_k            dz_dag    = sum_k d/dzbar_k f_k
  dzJ       = sum_j ( d/dz_{2j} f_{2j-1} - d/dz_{2j-1} f_{2j} )
  dz_dagJ   = sum_j ( d/dzbar_{2j} fdag_{2j-1} - d/dzbar_{2j-1} fdag_{2j} )
  mul_z     = sum_k z_k f_k                  mul_z_dag = sum_k zbar_k fdag_k
  mul_zJ    = sum_j ( z_{2j} fdag_{2j-1} - z_{2j-1} fdag_{2j} )
  mul_z_dagJ= sum_j ( zbar_{2j} f_{2j-1} - zbar_{2j-1} f_{2j} )
  curlyE    = sum_j ( z_{2j-1} d/dzbar_{2j} - z_{2j} d/dzbar_{2j-1} )
  curlyE_dag= sum_j ( zbar_{2j} d/dz_{2j-1} - zbar_{2j-1} d/dz_{2j} )
  P         = sum_j f_{2j} f_{2j-1}      Q         = sum_j fdag_{2j-1} fdag_{2j}
  beta      = sum_k fdag_k f_k

curlyE_dag is the Fischer adjoint of curlyE (the adjoint of multiplication by
z_j is d/dz_j, the adjoint of d/dzbar_j is multiplication by zbar_j); with
this pairing the two operators generate an sl(2) together with E_z - E_z_dag.
P lowers the spinor grade by two and Q raises it by two; they build the
symplectic cells (cell_basis), and with h_spin they form the cell sl(2).

The four Dirac operators and the vector variable in real coordinates are
linear combinations of the above (dirac, dirac_I, dirac_J, dirac_K, mul_X);
the tests rebuild them from literal real-coordinate sums in tests/oracles.py
and compare matrices entry by entry.
"""

from fractions import Fraction
from functools import cache

from . import linalg
from .poly import SpinorPolynomial, term_sort_key
from .scalars import ExtendedScalar, xs
from .witt import KEY_MOVES, grade_masks, valid_cell


def _each_k(n, outer, inner, c=1):
    """sum_k c * outer_k inner_k."""
    return [(c, ((outer, k), (inner, k))) for k in range(1, n + 1)]


def _twisted(n, outer, inner, sign=1):
    """sum_j sign * ( outer_{2j-1} inner_{2j} - outer_{2j} inner_{2j-1} )."""
    out = []
    for j in range(1, n // 2 + 1):
        out.append((sign, ((outer, 2 * j - 1), (inner, 2 * j))))
        out.append((-sign, ((outer, 2 * j), (inner, 2 * j - 1))))
    return out


_MINUS_2I = xs(0, -2)

# The four complex derivatives; their joint kernel is the q-monogenics.
DERIVS = ("dz", "dz_dag", "dzJ", "dz_dagJ")

REGISTRY = {
    "dz": lambda n: _each_k(n, "wedge", "diff_z"),
    "dz_dag": lambda n: _each_k(n, "contract", "diff_zbar"),
    "dzJ": lambda n: _twisted(n, "contract", "diff_z"),
    "dz_dagJ": lambda n: _twisted(n, "wedge", "diff_zbar"),
    "mul_z": lambda n: _each_k(n, "contract", "mul_z_var"),
    "mul_z_dag": lambda n: _each_k(n, "wedge", "mul_zbar_var"),
    "mul_zJ": lambda n: _twisted(n, "wedge", "mul_z_var"),
    "mul_z_dagJ": lambda n: _twisted(n, "contract", "mul_zbar_var"),
    "dirac": ((2, 0, "dz"), (-2, 0, "dz_dag")),
    "dirac_I": ((_MINUS_2I, 0, "dz"), (_MINUS_2I, 0, "dz_dag")),
    "dirac_J": ((2, 0, "dzJ"), (-2, 0, "dz_dagJ")),
    "dirac_K": ((_MINUS_2I, 0, "dzJ"), (_MINUS_2I, 0, "dz_dagJ")),
    "mul_X": ((1, 0, "mul_z_dag"), (-1, 0, "mul_z")),
    "id": lambda n: [(1, ())],
    "E_z": lambda n: [(1, (("scale_by_euler", "z"),))],
    "E_z_dag": lambda n: [(1, (("scale_by_euler", "zbar"),))],
    "curlyE": lambda n: _twisted(n, "mul_z_var", "diff_zbar"),
    "curlyE_dag": lambda n: _twisted(n, "mul_zbar_var", "diff_z", -1),
    "P": lambda n: [(1, (("contract", 2 * j), ("contract", 2 * j - 1)))
                    for j in range(1, n // 2 + 1)],
    "Q": lambda n: [(1, (("wedge", 2 * j - 1), ("wedge", 2 * j)))
                    for j in range(1, n // 2 + 1)],
    "beta": lambda n: _each_k(n, "wedge", "contract"),
    "laplace": lambda n: _each_k(n, "diff_zbar", "diff_z", 4),
    "mul_r2": lambda n: _each_k(n, "mul_zbar_var", "mul_z_var"),
    "h_total": ((1, 0, "E_z"), (1, 0, "E_z_dag"), (0, 2, "id")),
    "h_diff": ((1, 0, "E_z"), (-1, 0, "E_z_dag")),
    "h_spin": ((0, 1, "id"), (-1, 0, "beta")),
    # Cartan element completing gl(2) in the hermitian reduction
    "h_herm": ((1, 0, "E_z_dag"), (-1, 0, "E_z"), (0, 2, "id"),
               (-2, 0, "beta")),
}


@cache
def term_table(op, n):
    """The (coefficient, word) terms of an operator over n variables: a
    base operator's own table, or an expression's, compiled at p = n/2:
    each part's terms times (c0 + c1*p), equal words summed, zero sums
    left out.  A sum equal to an int is stored as that int, so only a
    table with a non-integral coefficient (the -2i of dirac_I and
    dirac_K) holds ExtendedScalars."""
    if isinstance(op, str):
        try:
            op = REGISTRY[op]
        except KeyError:
            raise KeyError(f"unknown operator name {op!r}") from None
        if not isinstance(op, tuple):
            return tuple(op(n))
    sums = {}
    for c0, c1, name in op:
        c = Fraction(c1) * (n // 2)
        if isinstance(c0, ExtendedScalar):
            c = c0 + xs(c)
        else:
            c = xs(Fraction(c0) + c)
        for t, word in term_table(name, n):
            cur = sums.get(word)
            sums[word] = c * t if cur is None else cur + c * t
    return tuple((c.ar if c == c.ar else c, word)
                 for word, c in sums.items() if c)


# (da, db, dr) of each key move: its change of z-degree, zbar-degree and
# spinor grade
_MOVE_SHIFTS = {
    "mul_z_var": (1, 0, 0), "mul_zbar_var": (0, 1, 0),
    "diff_z": (-1, 0, 0), "diff_zbar": (0, -1, 0),
    "wedge": (0, 0, 1), "contract": (0, 0, -1), "scale_by_euler": (0, 0, 0),
}


@cache
def shifts(name):
    """The (da, db, dr) shifts of z-degree, zbar-degree and spinor grade
    that an operator's words make, read off its table at n = 2; a
    composite's set is the union of its parts' sets.  The parity is dr
    mod 2, and an operator whose words disagree on it raises ValueError."""
    entry = REGISTRY.get(name)
    if isinstance(entry, tuple):
        out = frozenset().union(*(shifts(part) for _, _, part in entry))
    else:
        # a word shifts by the sum of its moves' shifts; (0, 0, 0) seeds
        # the sum, so the empty word of id shifts by nothing
        out = frozenset(
            tuple(map(sum, zip((0, 0, 0), *(_MOVE_SHIFTS[m] for m, _ in w))))
            for _, w in term_table(name, 2))
    if len({dr % 2 for _, _, dr in out}) > 1:
        raise ValueError(f"operator {name!r} mixes odd and even words")
    return out


def apply_terms(terms, x):
    """sum of c * word(x) over the (c, word) terms of an operator table.

    x is a SpinorPolynomial.  Each term of x passes through the key moves
    of a word, rightmost first, and its coefficient is multiplied once, by
    c times the product of their factors (formed once per distinct
    factor).  Entries that cancel are dropped at the end.
    """
    out = {}
    items = x.terms.items()
    for c, word in terms:
        moves = [(KEY_MOVES[move], arg) for move, arg in reversed(word)]
        scaled = {}
        for key, v in items:
            f = 1
            for move, arg in moves:
                hit = move(key, arg)
                if hit is None:
                    break
                key, g = hit
                f *= g
            else:
                cf = scaled.get(f)
                if cf is None:
                    cf = scaled[f] = c * f
                v = v * cf
                cur = out.get(key)
                out[key] = v if cur is None else cur + v
    return type(x)(x.n, out)


def apply(op, F):
    return apply_terms(term_table(op, F.n), F)


def apply_word(word, F):
    """Apply a composition given as a name tuple, rightmost factor first."""
    for name in reversed(word):
        F = apply(name, F)
    return F


def apply_expression(expr, F):
    """apply(tuple(expr), F): sum((c0 + c1*p) * op) given as a list."""
    return apply_terms(term_table(tuple(expr), F.n), F)


def key_image(op, key, n):
    """The image of the single term `key` (coefficient 1) under `op` over
    n variables, as a fresh dict {key: nonzero coefficient}.

    The key walks through each word of term_table(op, n), rightmost move
    first, and c times the product of the moves' factors is summed per
    landing key; zero sums are dropped.  This loop deliberately repeats
    the walk of `apply_terms` instead of calling it on a one-term
    polynomial or serving as its building block: apply_terms' per-word
    move list and factor memo pay off only over many terms.  Summing
    apply_terms from per-key images made graded_tiling_check(2, 4) 14%
    slower, and walking a key through apply_terms on a one-term
    polynomial made the degree-wise bracket table at (2, 2) 35% slower.
    """
    sums = {}
    for c, word in term_table(op, n):
        k, f = key, 1
        for move, arg in reversed(word):
            hit = KEY_MOVES[move](k, arg)
            if hit is None:
                break
            k, g = hit
            f *= g
        else:
            cur = sums.get(k)
            sums[k] = c * f if cur is None else cur + c * f
    return {k: v for k, v in sums.items() if v}


def term_image(op, key, n, cache):
    """key_image(op, key, n) memoised in `cache` (any dict) under
    (op, key).  The image is shared: do not change it."""
    img = cache.get((op, key))
    if img is None:
        img = cache[op, key] = key_image(op, key, n)
    return img


def apply_cached(op, F, cache):
    """apply(op, F) as the sum of the memoised single-term images of
    `term_image`; `cache` is any dict, keyed by (operator, term key).
    """
    term_table(op, F.n)  # an unknown name raises even on the zero polynomial
    out = {}
    for key, c in F.terms.items():
        linalg.axpy(out, term_image(op, key, F.n, cache), c)
    return SpinorPolynomial(F.n, out)


# ------------------------------------------------ joint kernels and cells

def joint_kernel(ops, basis):
    """Basis of the joint kernel of the operators `ops` on the span of
    `basis`, as a tuple in reduced echelon form in `term_sort_key` order,
    so the result depends only on the kernel.

    Precondition: the leading (`term_sort_key`-smallest) term of each
    polynomial of `basis` has coefficient 1 and appears in no other one.
    Sorted by those terms, the basis turns the reduced echelon
    coordinates of `linalg.nullspace` into reduced echelon polynomials,
    so one elimination of the stacked images makes the kernel canonical.
    The tuple is the whole description of the subspace: a cached basis
    can be shared because nothing can change it.  It meets the
    precondition in turn, which lets `fischer._inside` read a vector's
    coordinates off its leading terms.
    """
    ops = tuple(ops)
    basis = sorted(basis, key=lambda F: min(map(term_sort_key, F.terms)))
    images = []
    for F in basis:
        stacked = {}
        for i, name in enumerate(ops):
            for k, c in apply(name, F).terms.items():
                stacked[(i, k)] = c
        images.append(stacked)
    kernel = []
    for combo in linalg.nullspace(images):
        acc = {}
        for j, c in combo.items():
            linalg.axpy(acc, basis[j].terms, c)
        kernel.append(SpinorPolynomial(basis[0].n, acc))
    return tuple(kernel)


@cache
def cell_basis(p, r, s):
    """Canonical basis of the cell S^r_s as spinor values, () for an
    invalid label: the bottom cell S^s_s is Ker P on the grade-s values,
    and S^{s+2k}_s = Q^k S^s_s, brought to reduced echelon form."""
    if not valid_cell(p, r, s):
        return ()
    n = 2 * p
    if r == s:
        return joint_kernel(("P",), [SpinorPolynomial.constant(n, {m: 1})
                                     for m in grade_masks(n, s)])
    word = ("Q",) * ((r - s) // 2)
    rows = [apply_word(word, v).terms for v in cell_basis(p, s, s)]
    keys = sorted({k for row in rows for k in row}, key=term_sort_key)
    reduced, _ = linalg.rref(rows, key_order=keys)
    return tuple(SpinorPolynomial(n, row) for row in reduced)
