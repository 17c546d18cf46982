"""Reference realisations the tests compare the package against: the full
complex Clifford algebra (a blade is a bitmask, an element a dict {mask:
ExtendedScalar}), the Witt frame and spin elements built in it, and the
Dirac operators rebuilt from literal real-coordinate sums.  Only tests
import this module; pytest collects nothing from it (no test_ prefix).
"""

from fractions import Fraction
from functools import cache

from quatcliff.operators import apply, apply_expression
from quatcliff.poly import SpinorPolynomial, space_basis
from quatcliff.scalars import ExtendedScalar, xs


# --------------------------------------------------- the Clifford algebra

def blade_mul(A, B):
    """Sign and mask of the product e_A * e_B.

    Interleaving the two ascending index lists counts one transposition per
    crossing pair; each repeated index then contributes a factor e_k e_k = -1.
    """
    swaps = 0
    t = B
    while t:
        low = t & -t
        swaps += (A >> low.bit_length()).bit_count()
        t ^= low
    swaps += (A & B).bit_count()
    return (-1 if swaps & 1 else 1), A ^ B


def blade_conjugation_sign(mask):
    """Clifford conjugation on a k-blade is (-1)^(k(k+1)/2)."""
    k = mask.bit_count()
    return -1 if (k * (k + 1) // 2) & 1 else 1


class CliffordElement:
    __slots__ = ("n_gens", "terms")

    def __init__(self, n_gens, terms=None):
        self.n_gens = n_gens
        self.terms = {}
        if terms:
            for mask, c in terms.items():
                if c:
                    self.terms[mask] = c

    @classmethod
    def zero(cls, n_gens):
        return cls(n_gens)

    @classmethod
    def scalar(cls, n_gens, c):
        if not isinstance(c, ExtendedScalar):
            c = xs(c)
        return cls(n_gens, {0: c})

    @classmethod
    def generator(cls, n_gens, alpha):
        """e_alpha, 1-based."""
        if not 1 <= alpha <= n_gens:
            raise ValueError(f"generator index {alpha} out of range 1..{n_gens}")
        return cls(n_gens, {1 << (alpha - 1): xs(1)})

    @classmethod
    def blade(cls, n_gens, indices, coeff=xs(1)):
        mask = 0
        for a in indices:
            bit = 1 << (a - 1)
            if mask & bit:
                raise ValueError(f"repeated index {a} in blade")
            mask |= bit
        return cls(n_gens, {mask: coeff})

    def _check(self, other):
        if self.n_gens != other.n_gens:
            raise ValueError("mixing Clifford algebras of different rank")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for mask, c in other.terms.items():
            acc = out.get(mask)
            s = c if acc is None else acc + c
            if s:
                out[mask] = s
            elif acc is not None:
                del out[mask]
        return CliffordElement(self.n_gens, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CliffordElement(self.n_gens,
                               {mask: -c for mask, c in self.terms.items()})

    def scale(self, c):
        if not isinstance(c, ExtendedScalar):
            c = xs(c)
        if not c:
            return CliffordElement.zero(self.n_gens)
        return CliffordElement(self.n_gens,
                               {mask: c * v for mask, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            self._check(other)
            out = {}
            for A, ca in self.terms.items():
                for B, cb in other.terms.items():
                    sign, mask = blade_mul(A, B)
                    c = ca * cb
                    if sign < 0:
                        c = -c
                    acc = out.get(mask)
                    s = c if acc is None else acc + c
                    if s:
                        out[mask] = s
                    elif acc is not None:
                        del out[mask]
            return CliffordElement(self.n_gens, out)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything here
        return self.scale(other)

    def conjugate(self):
        """Clifford conjugation: the C-linear anti-involution sending e_a to -e_a."""
        return CliffordElement(self.n_gens,
                               {mask: (c if blade_conjugation_sign(mask) > 0 else -c)
                                for mask, c in self.terms.items()})

    def hermitian_conjugate(self):
        """Clifford conjugation composed with complex conjugation of coefficients."""
        out = {}
        for mask, c in self.terms.items():
            cc = c.conjugate()
            out[mask] = cc if blade_conjugation_sign(mask) > 0 else -cc
        return CliffordElement(self.n_gens, out)

    def scalar_part(self):
        return self.terms.get(0, xs())

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.n_gens == other.n_gens and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for mask in sorted(self.terms, key=lambda mk: (mk.bit_count(), mk)):
            c = self.terms[mask]
            name = "1" if mask == 0 else "e" + ",".join(
                str(a + 1) for a in range(self.n_gens) if mask >> a & 1)
            bits.append(f"({c})*{name}" if mask else f"({c})")
        return " + ".join(bits)

    def __repr__(self):
        return f"CliffordElement<{self.n_gens}>[{self}]"


def inner_product(x, y):
    """Hermitian pairing [x^dagger y]_0.

    The conjugation sign on a blade of x^dagger cancels against the sign of
    e_A e_A, so the pairing collapses to sum(conj(x_A) * y_A); tests check this
    against the literal [x^dagger y]_0 computed with full products.
    """
    x._check(y)
    total = xs()
    for mask, c in x.terms.items():
        d = y.terms.get(mask)
        if d is not None:
            total = total + c.conjugate() * d
    return total


# ------------------------------------ the Witt frame and the spin elements

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


# ------------------------------------- real-coordinate Dirac reconstruction

def coord_diff(F, alpha):
    """d/dx_alpha in real coordinates: x_{2k-1} + i x_{2k} = z_k."""
    k = (alpha + 1) // 2
    if alpha % 2 == 1:
        return F.diff_z(k) + F.diff_zbar(k)
    return (F.diff_z(k) - F.diff_zbar(k)).scale(xs(0, 1))


def coord_mult(F, alpha):
    """Multiplication by the real coordinate x_alpha."""
    k = (alpha + 1) // 2
    half = Fraction(1, 2)
    if alpha % 2 == 1:
        return (F.mul_z_var(k) + F.mul_zbar_var(k)).scale(xs(half))
    return (F.mul_z_var(k) - F.mul_zbar_var(k)).scale(xs(0, -half))


def generator_action(F, alpha):
    """Left Clifford multiplication of the value by e_alpha."""
    k = (alpha + 1) // 2
    if alpha % 2 == 1:
        return F.wedge(k) - F.contract(k)
    return (F.wedge(k) + F.contract(k)).scale(xs(0, -1))


def real_sum(coord, F, rotation=None):
    """sum_alpha R[e_alpha] coord(F, alpha) for a signed permutation R:
    the Dirac operator for coord_diff, the vector variable for
    coord_mult."""
    out = SpinorPolynomial.zero(F.n)
    for alpha in range(1, 2 * F.n + 1):
        img, sign = rotation(alpha) if rotation else (alpha, 1)
        piece = generator_action(coord(F, alpha), img)
        out = out + (piece if sign > 0 else -piece)
    return out


def dirac_dictionary_check(p, a, b):
    """Rebuild the four Dirac operators and the vector variables from literal
    real-coordinate sums and compare with their Witt-basis expressions,
    matrix against matrix.  Returns {name: bool, ..., "ok": bool}."""
    basis = space_basis(p, a, b, ("full",))
    real_routes = {
        "dirac": (coord_diff, None),
        "dirac_I": (coord_diff, rotation_I),
        "dirac_J": (coord_diff, rotation_J),
        "dirac_K": (coord_diff, rotation_K),
        "mul_X": (coord_mult, None),
    }
    report = {name: all(apply(name, v) == real_sum(coord, v, rotation)
                        for v in basis)
              for name, (coord, rotation) in real_routes.items()}
    # z + z_dag recovered from the first rotated vector variable
    z_plus_z_dag = ((1, 0, "mul_z"), (1, 0, "mul_z_dag"))
    report["mul_z_plus_z_dag"] = all(
        apply_expression(z_plus_z_dag, v)
        == real_sum(coord_mult, v, rotation_I).scale(xs(0, 1))
        for v in basis)
    report["ok"] = all(report.values())
    return report
