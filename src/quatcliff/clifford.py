"""Complex Clifford algebra with generators squaring to -1.

Generators e_1 .. e_m obey e_a e_b + e_b e_a = -2 delta_ab.  A basis blade
e_A = e_{a1} ... e_{ak} (indices ascending) is stored as a bitmask, an element
as a dict {mask: ExtendedScalar}.  This module is deliberately small and slow
friendly; the heavy polynomial work happens on the spinor representation in
witt.py, and this full algebra serves as the ground-truth oracle for it.
"""

from .scalars import ExtendedScalar, XS_ONE, xs


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
        return cls(n_gens, {1 << (alpha - 1): XS_ONE})

    @classmethod
    def blade(cls, n_gens, indices, coeff=XS_ONE):
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
        from .scalars import XS_ZERO
        return self.terms.get(0, XS_ZERO)

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
    from .scalars import XS_ZERO
    total = XS_ZERO
    for mask, c in x.terms.items():
        d = y.terms.get(mask)
        if d is not None:
            total = total + c.conjugate() * d
    return total

