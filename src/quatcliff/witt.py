"""Witt basis, primitive idempotent, spinor space and the symplectic cells.

Conventions, fixed once for the whole package:

  f_k      = -1/2 (e_{2k-1} - i e_{2k})          k = 1 .. n,  n = 2p
  fdag_k   = +1/2 (e_{2k-1} + i e_{2k})
  I        = (f_1 fdag_1)(f_2 fdag_2) ... (f_n fdag_n)

The spinor space S is spanned by fdag_A I over subsets A of {1..n}, stored
as bitmasks.  A spinor value is a constant poly.SpinorPolynomial, keyed
((0,)*n, (0,)*n, mask).  Left multiplication by fdag_k is a signed wedge, by
f_k a signed contraction, both with sign (-1)^(number of indices in A below
k) (witt_move).  The module imports nothing from the rest of the
package; the tests check these rules against the full Clifford algebra
of tests/oracles.py.

Each of the seven primitive moves (multiplication by z_k or zbar_k, d/dz_k,
d/dzbar_k, fdag_k, f_k and the Euler scalings) is written once, in
KEY_MOVES, as a map on a single term key: (key, arg) -> (key', integer
factor), or None when the image is zero.  The SpinorPolynomial move
methods loop over a polynomial's terms with these maps; every operator is
a term table over them, named and applied in operators.

Column r of the cell triangle holds the grade-r spinors; the labels, the
dimensions and the ladder scalars of its cells S^r_s are here, and their
bases (S^s_s = Ker P on grade s, S^{s+2k}_s = Q^k S^s_s) are built in
operators.cell_basis.
"""

from functools import partial
from typing import NamedTuple


def mask_sort_key(mask):
    """Blade subsets ordered lexicographically on their ascending index tuples."""
    return tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def grade_masks(n, r):
    """All grade-r masks, in the canonical (lexicographic subset) order
    of `mask_sort_key`, which is the order combinations yields."""
    from itertools import combinations
    masks = []
    for combo in combinations(range(1, n + 1), r):
        m = 0
        for k in combo:
            m |= 1 << (k - 1)
        masks.append(m)
    return masks


def witt_move(mask, k, dagger):
    """fdag_k (dagger) or f_k on the blade fdag_A I, A = mask.

    The image is (-1)^(#A below k) fdag_A' I, where A' is A with k added
    (fdag_k) or removed (f_k).  Returns (mask of A', negate), or None when
    the image is zero.
    """
    bit = 1 << (k - 1)
    if bool(mask & bit) == dagger:
        return None
    return mask ^ bit, (mask & (bit - 1)).bit_count() & 1


def _mul_z_var(key, k):
    """z_k times the term (k is 1-based)."""
    a, b, m = key
    i = k - 1
    return (a[:i] + (a[i] + 1,) + a[i + 1:], b, m), 1


def _mul_zbar_var(key, k):
    """zbar_k times the term."""
    a, b, m = key
    i = k - 1
    return (a, b[:i] + (b[i] + 1,) + b[i + 1:], m), 1


def _diff_z(key, k):
    """d/dz_k of the term."""
    a, b, m = key
    i = k - 1
    e = a[i]
    if not e:
        return None
    return (a[:i] + (e - 1,) + a[i + 1:], b, m), e


def _diff_zbar(key, k):
    """d/dzbar_k of the term."""
    a, b, m = key
    i = k - 1
    e = b[i]
    if not e:
        return None
    return (a, b[:i] + (e - 1,) + b[i + 1:], m), e


def _value_move(key, k, dagger):
    """fdag_k (dagger) or f_k times the value of the term."""
    a, b, m = key
    hit = witt_move(m, k, dagger)
    if hit is None:
        return None
    return (a, b, hit[0]), -1 if hit[1] else 1


def _scale_by_euler(key, which):
    """The term times its z-degree ('z') or zbar-degree ('zbar')."""
    d = sum(key[0]) if which == "z" else sum(key[1])
    return (key, d) if d else None


KEY_MOVES = {
    "mul_z_var": _mul_z_var, "mul_zbar_var": _mul_zbar_var,
    "diff_z": _diff_z, "diff_zbar": _diff_zbar,
    "wedge": partial(_value_move, dagger=True),
    "contract": partial(_value_move, dagger=False),
    "scale_by_euler": _scale_by_euler,
}


class CellLabel(NamedTuple):
    """Cell S^r_s: r is the column (spinor grade), s the row."""

    r: int
    s: int


def valid_cell(p, r, s):
    return 0 <= s <= min(r, 2 * p - r) and (r - s) % 2 == 0


def cell_labels(p):
    return [CellLabel(r, s) for r in range(2 * p + 1)
            for s in range(r + 1) if valid_cell(p, r, s)]


def cell_dim(p, r, s):
    """dim S^r_s; every cell of row s shares the bottom-cell dimension."""
    from math import comb
    if not valid_cell(p, r, s):
        return 0
    low = comb(2 * p, s - 2) if s >= 2 else 0
    return comb(2 * p, s) - low


def pq_scalars(p, r, s):
    """Exact scalars of the compositions PQ and QP on the cell S^r_s.

    With k = (r - s)/2 steps of Q from the bottom cell, PQ acts as
    (k+1)(p-s-k) and QP as k(p-s-k+1); both are verified against the operator
    action in the tests, not assumed.
    """
    k = (r - s) // 2
    return (k + 1) * (p - s - k), k * (p - s - k + 1)
