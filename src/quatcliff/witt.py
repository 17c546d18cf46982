"""Witt basis, primitive idempotent, spinor space and the symplectic cells.

Conventions, fixed once for the whole package:

  f_k      = -1/2 (e_{2k-1} - i e_{2k})          k = 1 .. n,  n = 2p
  fdag_k   = +1/2 (e_{2k-1} + i e_{2k})
  I        = (f_1 fdag_1)(f_2 fdag_2) ... (f_n fdag_n)

The spinor space S is spanned by fdag_A I over subsets A of {1..n}, stored
as bitmasks.  A spinor value is a constant poly.SpinorPolynomial, keyed
((0,)*n, (0,)*n, mask).  Left multiplication by fdag_k is a signed wedge, by
f_k a signed contraction, both with sign (-1)^(number of indices in A below
k) (witt_move); WittFrame.to_clifford plus the full algebra in clifford.py
serves as the oracle for these rules in the tests.

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

from fractions import Fraction
from functools import cache, partial
from typing import NamedTuple

from .clifford import CliffordElement
from .scalars import xs


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


class WittFrame:
    """Clifford-algebra realisation of the Witt basis for given p."""

    __slots__ = ("p", "n", "m", "f", "fdag", "idempotent")

    def __init__(self, p):
        self.p = p
        self.n = 2 * p
        self.m = 4 * p
        half = Fraction(1, 2)
        self.f = [None]
        self.fdag = [None]
        for k in range(1, self.n + 1):
            e_odd = CliffordElement.generator(self.m, 2 * k - 1)
            e_even = CliffordElement.generator(self.m, 2 * k)
            self.f.append(e_odd.scale(xs(-half)) + e_even.scale(xs(0, half)))
            self.fdag.append(e_odd.scale(xs(half)) + e_even.scale(xs(0, half)))
        ide = CliffordElement.scalar(self.m, 1)
        for k in range(1, self.n + 1):
            ide = ide * (self.f[k] * self.fdag[k])
        self.idempotent = ide

    def spinor_blade(self, mask):
        """fdag_{a1}(... (fdag_{ak} I)) for the ascending index set
        a1 < ... < ak in mask."""
        out = self.idempotent
        for k in range(self.n, 0, -1):
            if mask >> (k - 1) & 1:
                out = self.fdag[k] * out
        return out

    def to_clifford(self, x):
        """The Clifford element of the spinor value x."""
        out = CliffordElement.zero(self.m)
        for (_, _, mask), c in x.terms.items():
            out = out + self.spinor_blade(mask).scale(c)
        return out


# cached frames: immutable after construction, safe to share
@cache
def _frame(p):
    return WittFrame(p)


def spin_elements(p):
    """The two spin group elements realising the complex structures.

    s_I = prod_j (sqrt2/2)(1 + e_{2j-1} e_{2j})            j = 1 .. 2p
    s_J = prod_j (1/2)(1 + e_{4j-3} e_{4j-1})(1 - e_{4j-2} e_{4j})   j = 1 .. p
    """
    m = 4 * p
    half = Fraction(1, 2)
    one = CliffordElement.scalar(m, 1)
    s_i = one
    for j in range(1, 2 * p + 1):
        factor = (one + CliffordElement.blade(m, [2 * j - 1, 2 * j]))
        s_i = s_i * factor.scale(xs(0, 0, half, 0))
    s_j = one
    for j in range(1, p + 1):
        base = 4 * (j - 1)
        first = one + CliffordElement.blade(m, [base + 1, base + 3])
        second = one - CliffordElement.blade(m, [base + 2, base + 4])
        s_j = s_j * (first * second).scale(xs(half))
    return s_i, s_j


def conjugation_action(s, x, convention="s*x*bar(s)"):
    """Conjugate x by the spin element s.

    Both candidate conventions are available; detect_spin_convention picks the
    one reproducing the rotation matrices on all generators.  Only the tests
    call it, so no report records the winner.
    """
    if convention == "s*x*bar(s)":
        return s * x * s.conjugate()
    if convention == "bar(s)*x*s":
        return s.conjugate() * x * s
    raise ValueError(f"unknown convention {convention!r}")


def rotation_I(alpha):
    """Signed permutation of generators for the first complex structure."""
    if alpha % 2 == 1:
        return alpha + 1, 1
    return alpha - 1, -1


def rotation_J(alpha):
    """Second complex structure; acts per block of four real coordinates."""
    pos = (alpha - 1) % 4
    if pos == 0:
        return alpha + 2, 1
    if pos == 1:
        return alpha + 2, -1
    if pos == 2:
        return alpha - 2, -1
    return alpha - 2, 1


def rotation_K(alpha):
    """Third structure, the composite of the other two."""
    img, sign = rotation_I(alpha)
    img2, sign2 = rotation_J(img)
    return img2, sign * sign2


def witt_J_images(p):
    """The fixed action of the second structure on Witt vectors.

    Returns {('f'|'fdag', k): (kind, index, sign)} for k = 1 .. 2p.
    """
    out = {}
    for j in range(1, p + 1):
        k1, k2 = 2 * j - 1, 2 * j
        out[("f", k1)] = ("fdag", k2, -1)
        out[("f", k2)] = ("fdag", k1, 1)
        out[("fdag", k1)] = ("f", k2, -1)
        out[("fdag", k2)] = ("f", k1, 1)
    return out


def detect_spin_convention(p):
    """Try both conjugation orders; return the one matching the rotations.

    The covering map direction is not something we take on faith: the check
    below demands s_I and s_J both reproduce their signed permutations on
    every generator, and the Witt-vector images for s_J as well.
    """
    frame = _frame(p)
    s_i, s_j = spin_elements(p)
    j_images = witt_J_images(p)
    for convention in ("s*x*bar(s)", "bar(s)*x*s"):
        ok = True
        for alpha in range(1, frame.m + 1):
            e = CliffordElement.generator(frame.m, alpha)
            img, sign = rotation_I(alpha)
            expect = CliffordElement.generator(frame.m, img).scale(sign)
            if conjugation_action(s_i, e, convention) != expect:
                ok = False
                break
            img, sign = rotation_J(alpha)
            expect = CliffordElement.generator(frame.m, img).scale(sign)
            if conjugation_action(s_j, e, convention) != expect:
                ok = False
                break
        if ok:
            for (kind, k), (kind2, k2, sign) in j_images.items():
                v = frame.f[k] if kind == "f" else frame.fdag[k]
                w = frame.f[k2] if kind2 == "f" else frame.fdag[k2]
                if conjugation_action(s_j, v, convention) != w.scale(sign):
                    ok = False
                    break
        if ok:
            return convention
    raise AssertionError("no conjugation convention reproduces the rotations")


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
