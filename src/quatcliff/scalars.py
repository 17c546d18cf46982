"""Exact scalar arithmetic in the field Q(i, sqrt2).

Every coefficient in this package is an ExtendedScalar

    (ar + ai*i) + (br + bi*i)*sqrt2

with the four components kept as exact rationals.  A component is a plain
int whenever it is integral and a rational (in lowest terms) only after a
division has made it fractional: the operators have integer coefficients
in the Witt basis, so operator images and brackets stay on small plain
ints.  Sums and products of rational components may stay rationals even
when integral; they compare and hash equal to the int.  Plain Gaussian
numbers (br = bi = 0) cover almost everything; the sqrt2 part only shows up
in spin group elements.

The rationals are stdlib fractions.Fraction; BACKEND_NAME names them.
"""

import re
from fractions import Fraction

BACKEND_NAME = "fraction"

_RATIONALS = (int, Fraction)

_RATIONAL_STR = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _integral(q):
    """q as a plain int when it is integral."""
    return int(q.numerator) if q.denominator == 1 else q


def _div(x, y):
    """x / y exactly, as an int when the quotient is integral."""
    return _integral(Fraction(x) / y)


def to_rat(x):
    """Coerce an int, Fraction or string to an exact rational: a plain int
    when integral, a Fraction otherwise.  A string is ASCII '-?digits' or
    '-?digits/digits' with a nonzero denominator; else ValueError."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        num, _, den = x.partition("/")
        if not _RATIONAL_STR.fullmatch(x) or not int(den or 1):
            raise ValueError(f"{x!r} is not '-?digits' or '-?digits/digits' "
                             "with a nonzero denominator")
        x = Fraction(int(num), int(den or 1))
    elif not isinstance(x, int):
        x = Fraction(x)
    return _integral(x)


def rat_str(q):
    """Canonical 'num/den' form, denominator always present and positive."""
    return f"{q.numerator}/{q.denominator}"


class ExtendedScalar:
    """An element of Q(i, sqrt2), stored as four exact rationals (ints
    when integral)."""

    __slots__ = ("ar", "ai", "br", "bi")

    def __init__(self, ar=0, ai=0, br=0, bi=0):
        self.ar = to_rat(ar)
        self.ai = to_rat(ai)
        self.br = to_rat(br)
        self.bi = to_rat(bi)

    @classmethod
    def _raw(cls, ar, ai, br, bi):
        # bypasses coercion; callers guarantee ints or Fractions
        self = object.__new__(cls)
        self.ar = ar
        self.ai = ai
        self.br = br
        self.bi = bi
        return self

    def is_zero(self):
        return not (self.ar or self.ai or self.br or self.bi)

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        if not isinstance(other, ExtendedScalar):
            return NotImplemented
        return ExtendedScalar._raw(self.ar + other.ar, self.ai + other.ai,
                                   self.br + other.br, self.bi + other.bi)

    def __sub__(self, other):
        if not isinstance(other, ExtendedScalar):
            return NotImplemented
        return ExtendedScalar._raw(self.ar - other.ar, self.ai - other.ai,
                                   self.br - other.br, self.bi - other.bi)

    def __neg__(self):
        return ExtendedScalar._raw(-self.ar, -self.ai, -self.br, -self.bi)

    def __mul__(self, other):
        if isinstance(other, ExtendedScalar):
            ar, ai, br, bi = self.ar, self.ai, self.br, self.bi
            cr, ci, dr, di = other.ar, other.ai, other.br, other.bi
            if not (br or bi or dr or di):
                # plain Gaussian numbers, the common case
                return ExtendedScalar._raw(ar * cr - ai * ci, ar * ci + ai * cr,
                                           0, 0)
            # (a + b s)(c + d s) = (ac + 2bd) + (ad + bc) s   with s*s = 2
            er = ar * cr - ai * ci + 2 * (br * dr - bi * di)
            ei = ar * ci + ai * cr + 2 * (br * di + bi * dr)
            fr = ar * dr - ai * di + br * cr - bi * ci
            fi = ar * di + ai * dr + br * ci + bi * cr
            return ExtendedScalar._raw(er, ei, fr, fi)
        if isinstance(other, _RATIONALS):
            q = to_rat(other)
            return ExtendedScalar._raw(self.ar * q, self.ai * q,
                                       self.br * q, self.bi * q)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        """Exact inverse.  x = a + b*sqrt2 with a, b Gaussian rational;
        x * (a - b*sqrt2) = a^2 - 2 b^2 lands in Q(i), which inverts by the
        usual conjugate trick."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero ExtendedScalar")
        ar, ai, br, bi = self.ar, self.ai, self.br, self.bi
        # g = a^2 - 2 b^2  (Gaussian rational)
        gr = ar * ar - ai * ai - 2 * (br * br - bi * bi)
        gi = 2 * (ar * ai - 2 * br * bi)
        norm = gr * gr + gi * gi
        if not norm:
            raise ZeroDivisionError("inverse hit a zero norm; input not in the field?")
        hr, hi = _div(gr, norm), _div(-gi, norm)  # h = 1/g
        # 1/x = (a - b*sqrt2) * h
        return _integral_scalar(ar * hr - ai * hi, ar * hi + ai * hr,
                                -(br * hr - bi * hi), -(br * hi + bi * hr))

    def __truediv__(self, other):
        if isinstance(other, _RATIONALS):
            q = to_rat(other)
            return ExtendedScalar._raw(_div(self.ar, q), _div(self.ai, q),
                                       _div(self.br, q), _div(self.bi, q))
        if isinstance(other, ExtendedScalar):
            q = self * other.inverse()
            return _integral_scalar(q.ar, q.ai, q.br, q.bi)
        return NotImplemented

    def conjugate(self):
        """Complex conjugation: i -> -i, sqrt2 fixed."""
        return ExtendedScalar._raw(self.ar, -self.ai, self.br, -self.bi)

    def __eq__(self, other):
        if not isinstance(other, ExtendedScalar):
            return NotImplemented
        return (self.ar == other.ar and self.ai == other.ai
                and self.br == other.br and self.bi == other.bi)

    def __hash__(self):
        return hash((self.ar, self.ai, self.br, self.bi))

    def __str__(self):
        parts = []
        for q, tag in ((self.ar, ""), (self.ai, "i"), (self.br, "s2"), (self.bi, "i*s2")):
            if not q:
                continue
            body = str(Fraction(q.numerator, q.denominator))
            if tag:
                body = tag if body == "1" else ("-" + tag if body == "-1" else f"{body}*{tag}")
            parts.append(body)
        if not parts:
            return "0"
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

    def __repr__(self):
        return f"ExtendedScalar({self})"

    def to_json(self):
        return {"a_re": rat_str(self.ar), "a_im": rat_str(self.ai),
                "b_re": rat_str(self.br), "b_im": rat_str(self.bi)}

    @classmethod
    def from_json(cls, obj):
        return cls(to_rat(obj["a_re"]), to_rat(obj["a_im"]),
                   to_rat(obj["b_re"]), to_rat(obj["b_im"]))


def _integral_scalar(ar, ai, br, bi):
    """The scalar with these components, integral ones turned into ints."""
    return ExtendedScalar._raw(_integral(ar), _integral(ai),
                               _integral(br), _integral(bi))


XS_ZERO = ExtendedScalar._raw(0, 0, 0, 0)
XS_ONE = ExtendedScalar._raw(1, 0, 0, 0)
XS_I = ExtendedScalar._raw(0, 1, 0, 0)
XS_SQRT2 = ExtendedScalar._raw(0, 0, 1, 0)


def xs(ar=0, ai=0, br=0, bi=0):
    """Shorthand constructor; accepts ints, Fractions and 'n/d' strings."""
    return ExtendedScalar(ar, ai, br, bi)
