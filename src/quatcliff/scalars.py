"""Exact scalar arithmetic in the field Q(i, sqrt2).

Where the engine makes an integer coefficient it is a plain Python int;
any other coefficient is an ExtendedScalar.  The operator tables are
integral in the Witt basis (dirac_I and dirac_K, which carry -2i, aside),
so operator images, brackets and kernel constructions run on native int
arithmetic until the first pivot other than +-1.  An ExtendedScalar

    (w + x*i + (y + z*i)*sqrt2) / d

is stored as five Python ints with d > 0 and gcd(w, x, y, z, d) = 1, so
equal values are equal 5-tuples and hash alike.  It takes an int on
either side of +, - and *, and an integral one equals and hashes like
its int, so {k: 1} == {k: xs(1)}.  Its arithmetic always returns an
ExtendedScalar, integral results included, so an ExtendedScalar input
(decompose's) gives ExtendedScalar outputs.  `inverse` and `to_json`
take either kind.  Every result is reduced by one math.gcd, which does
no gcd work when d = 1.  Plain Gaussian numbers (y = z = 0) cover almost
everything else: no code in the package forms a sqrt2 part, which only
shows up in inputs that carry one and in the spin group elements of the
test oracle (tests/oracles.py).

The four rational components (ar + ai*i) + (br + bi*i)*sqrt2 are read
through properties: a plain int when integral, a stdlib
fractions.Fraction in lowest terms otherwise.  BACKEND_NAME names that
rational type.
"""

import re
from fractions import Fraction
from math import gcd, lcm

BACKEND_NAME = "fraction"

_RATIONAL_STR = re.compile(r"-?[0-9]+(/[0-9]+)?")

_new = object.__new__


def to_rat(x):
    """Coerce an int, Fraction or string to an exact rational: a plain int
    when integral, a Fraction otherwise.  A string is ASCII '-?digits' or
    '-?digits/digits' with a nonzero denominator; else ValueError.  Any
    other type, bool and float among them, raises TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        num, _, den = x.partition("/")
        if not _RATIONAL_STR.fullmatch(x) or not int(den or 1):
            raise ValueError(f"{x!r} is not '-?digits' or '-?digits/digits' "
                             "with a nonzero denominator")
        x = Fraction(int(num), int(den or 1))
    elif isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"{type(x).__name__} is not an exact rational "
                        "(int, Fraction or 'n/d' string)")
    return x.numerator if x.denominator == 1 else x


def rat_str(q):
    """Canonical 'num/den' form, denominator always present and positive."""
    return f"{q.numerator}/{q.denominator}"


def _part(n, d):
    """n / d as an int when integral, else a Fraction in lowest terms."""
    if d == 1:
        return n
    q = Fraction(n, d)
    return q.numerator if q.denominator == 1 else q


def _reduced(w, x, y, z, d):
    """The scalar (w + x i + (y + z i) sqrt2) / d for d > 0, in lowest
    terms.  d goes first: math.gcd stops computing once it holds 1, so
    d = 1 costs no gcd."""
    g = gcd(d, w, x, y, z)
    r = _new(ExtendedScalar)
    if g == 1:
        r.w, r.x, r.y, r.z, r.d = w, x, y, z, d
    else:
        r.w, r.x, r.y, r.z, r.d = w // g, x // g, y // g, z // g, d // g
    return r


class ExtendedScalar:
    """An element of Q(i, sqrt2): (w + x i + (y + z i) sqrt2) / d over
    ints, d > 0, gcd(w, x, y, z, d) = 1."""

    __slots__ = ("w", "x", "y", "z", "d")

    def __init__(self, ar=0, ai=0, br=0, bi=0):
        parts = [to_rat(q) for q in (ar, ai, br, bi)]
        # d is the lcm of the reduced denominators, so the tuple is reduced
        d = lcm(*(q.denominator for q in parts))
        self.w, self.x, self.y, self.z = (q.numerator * (d // q.denominator)
                                          for q in parts)
        self.d = d

    # the rational components, read-only
    ar = property(lambda self: _part(self.w, self.d))
    ai = property(lambda self: _part(self.x, self.d))
    br = property(lambda self: _part(self.y, self.d))
    bi = property(lambda self: _part(self.z, self.d))

    def is_zero(self):
        return not self

    def __bool__(self):
        return bool(self.w or self.x or self.y or self.z)

    def __add__(self, other):
        if type(other) is int:
            d = self.d
            return _reduced(self.w + other * d, self.x, self.y, self.z, d)
        if not isinstance(other, ExtendedScalar):
            return NotImplemented
        d, e = self.d, other.d
        return _reduced(self.w * e + other.w * d, self.x * e + other.x * d,
                        self.y * e + other.y * d, self.z * e + other.z * d,
                        d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            d = self.d
            return _reduced(self.w - other * d, self.x, self.y, self.z, d)
        if not isinstance(other, ExtendedScalar):
            return NotImplemented
        d, e = self.d, other.d
        return _reduced(self.w * e - other.w * d, self.x * e - other.x * d,
                        self.y * e - other.y * d, self.z * e - other.z * d,
                        d * e)

    def __rsub__(self, other):
        if type(other) is not int:
            return NotImplemented
        d = self.d
        return _reduced(other * d - self.w, -self.x, -self.y, -self.z, d)

    def __neg__(self):
        r = _new(ExtendedScalar)
        r.w = -self.w
        r.x = -self.x
        r.y = -self.y
        r.z = -self.z
        r.d = self.d
        return r

    def __mul__(self, other):
        if type(other) is int:
            return _reduced(self.w * other, self.x * other, self.y * other,
                            self.z * other, self.d)
        if isinstance(other, ExtendedScalar):
            w, x, y, z = self.w, self.x, self.y, self.z
            a, b, c, e = other.w, other.x, other.y, other.z
            d = self.d * other.d
            if not (y or z or c or e):
                # plain Gaussian numbers, the common case
                return _reduced(w * a - x * b, w * b + x * a, 0, 0, d)
            # (u + v s)(u' + v' s) = (u u' + 2 v v') + (u v' + v u') s, s*s = 2
            return _reduced(w * a - x * b + 2 * (y * c - z * e),
                            w * b + x * a + 2 * (y * e + z * c),
                            w * c - x * e + y * a - z * b,
                            w * e + x * c + y * b + z * a, d)
        if not isinstance(other, Fraction):
            return NotImplemented
        n, m = other.numerator, other.denominator
        return _reduced(self.w * n, self.x * n, self.y * n, self.z * n,
                        self.d * m)

    __rmul__ = __mul__

    def inverse(self):
        """Exact inverse.  With a = w + x i and b = y + z i the value is
        (a + b sqrt2) / d, and (a + b sqrt2)(a - b sqrt2) = g = a^2 - 2 b^2
        is a Gaussian int, so the inverse is
        d (a - b sqrt2) conj(g) / |g|^2."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero ExtendedScalar")
        w, x, y, z, d = self.w, self.x, self.y, self.z, self.d
        gr = w * w - x * x - 2 * (y * y - z * z)
        gi = 2 * (w * x - 2 * y * z)
        norm = gr * gr + gi * gi
        if not norm:
            raise ZeroDivisionError("inverse hit a zero norm; input not in the field?")
        return _reduced(d * (w * gr + x * gi), d * (x * gr - w * gi),
                        -d * (y * gr + z * gi), -d * (z * gr - y * gi), norm)

    def __truediv__(self, other):
        if isinstance(other, ExtendedScalar):
            return self * other.inverse()
        if type(other) is not int and not isinstance(other, Fraction):
            return NotImplemented
        n, m = other.numerator, other.denominator
        if not n:
            raise ZeroDivisionError("ExtendedScalar division by zero")
        if n < 0:
            n, m = -n, -m
        return _reduced(self.w * m, self.x * m, self.y * m, self.z * m,
                        self.d * n)

    def conjugate(self):
        """Complex conjugation: i -> -i, sqrt2 fixed."""
        r = _new(ExtendedScalar)
        r.w, r.x, r.y, r.z, r.d = self.w, -self.x, self.y, -self.z, self.d
        return r

    def __eq__(self, other):
        if type(other) is int:
            return (self.w == other and self.d == 1
                    and not (self.x or self.y or self.z))
        if not isinstance(other, ExtendedScalar):
            return NotImplemented
        return (self.w == other.w and self.x == other.x and self.y == other.y
                and self.z == other.z and self.d == other.d)

    def __hash__(self):
        if self.d == 1 and not (self.x or self.y or self.z):
            return hash(self.w)   # equal to the int w, so hashed alike
        return hash((self.w, self.x, self.y, self.z, self.d))

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


def xs(ar=0, ai=0, br=0, bi=0):
    """Shorthand constructor; accepts ints, Fractions and 'n/d' strings."""
    return ExtendedScalar(ar, ai, br, bi)


def inverse(c):
    """1 / c for a coefficient c, an int or an ExtendedScalar: 1 and -1
    are their own int inverses, any other nonzero value gives an
    ExtendedScalar; ZeroDivisionError for zero."""
    if type(c) is not int:
        return c.inverse()
    if c == 1 or c == -1:
        return c
    if not c:
        raise ZeroDivisionError("inverse of zero")
    return _reduced(-1 if c < 0 else 1, 0, 0, 0, abs(c))


def to_json(c):
    """The JSON object of a coefficient, an int or an ExtendedScalar; an
    int is written as xs(c)."""
    return (xs(c) if type(c) is int else c).to_json()
