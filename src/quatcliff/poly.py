"""Spinor-valued polynomials in n = 2p complex variables.

A term is keyed by (alpha, beta, mask): alpha and beta are exponent tuples of
length n for the z and conjugate-z variables, mask is a spinor blade over n
bits.  Coefficients live in Q(i, sqrt2): plain ints where integral,
ExtendedScalars otherwise (see scalars).  The canonical term order, used
for printing, JSON and basis enumeration, is

    (total degree, alpha + beta as one tuple, ascending spinor index tuple)

Scalar-valued polynomials are the mask-0 slice, and a spinor value (an
element of S) is a constant polynomial.
"""

from itertools import combinations_with_replacement
from math import comb

from . import linalg, scalars
from .scalars import ExtendedScalar, xs
from .witt import KEY_MOVES, grade_masks, mask_sort_key


def term_sort_key(key):
    alpha, beta, mask = key
    return (sum(alpha) + sum(beta), alpha + beta, mask_sort_key(mask))


class SpinorPolynomial:
    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c:
                    self.terms[key] = c

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def monomial(cls, n, alpha, beta, mask=0, coeff=1):
        alpha, beta = tuple(alpha), tuple(beta)
        if len(alpha) != n or len(beta) != n:
            raise ValueError("exponent tuple length must equal n")
        if type(coeff) is not int and not isinstance(coeff, ExtendedScalar):
            coeff = xs(coeff)
        return cls(n, {(alpha, beta, mask): coeff})

    @classmethod
    def constant(cls, n, values):
        """The spinor value sum of c fdag_mask I over {mask: c}."""
        zero = (0,) * n
        return cls(n, {(zero, zero, mask): c for mask, c in values.items()})

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("mixing polynomial rings of different rank")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        linalg.axpy(out, other.terms, 1)
        return SpinorPolynomial(self.n, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        linalg.axpy(out, other.terms, -1)
        return SpinorPolynomial(self.n, out)

    def __neg__(self):
        return SpinorPolynomial(self.n, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        if type(c) is not int and not isinstance(c, ExtendedScalar):
            c = xs(c)
        return SpinorPolynomial(
            self.n, {k: c * v for k, v in self.terms.items()} if c else {})

    def times_value(self, value):
        """This scalar-valued polynomial times the spinor value `value`."""
        terms = {}
        for (alpha, beta, mask), c in self.terms.items():
            if mask:
                raise ValueError("left factor must be scalar-valued")
            for (_, _, m), cv in value.terms.items():
                terms[(alpha, beta, m)] = c * cv
        return SpinorPolynomial(self.n, terms)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SpinorPolynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    # ---------------------------------------------------------- inspection

    def bidegrees(self):
        return sorted({(sum(a), sum(b)) for a, b, _ in self.terms})

    def bidegree_part(self, a, b):
        return SpinorPolynomial(self.n, {
            k: c for k, c in self.terms.items()
            if sum(k[0]) == a and sum(k[1]) == b})

    # ---------------------------------------------------- primitive moves

    def _move(self, move, arg):
        """The image of every term under one key move of witt.KEY_MOVES."""
        out = {}
        for key, c in self.terms.items():
            hit = move(key, arg)
            if hit is not None:
                out[hit[0]] = c * hit[1]
        return SpinorPolynomial(self.n, out)

    def mul_z_var(self, k):
        """Multiply by z_k (1-based)."""
        return self._move(KEY_MOVES["mul_z_var"], k)

    def mul_zbar_var(self, k):
        return self._move(KEY_MOVES["mul_zbar_var"], k)

    def diff_z(self, k):
        """d/dz_k."""
        return self._move(KEY_MOVES["diff_z"], k)

    def diff_zbar(self, k):
        return self._move(KEY_MOVES["diff_zbar"], k)

    def wedge(self, k):
        """Left multiplication of the value by fdag_k."""
        return self._move(KEY_MOVES["wedge"], k)

    def contract(self, k):
        """Left multiplication of the value by f_k."""
        return self._move(KEY_MOVES["contract"], k)

    def scale_by_euler(self, which):
        """Multiply each term by its z-degree ('z') or zbar-degree ('zbar')."""
        return self._move(KEY_MOVES["scale_by_euler"], which)

    # ------------------------------------------------------- serialisation

    def sorted_keys(self):
        return sorted(self.terms, key=term_sort_key)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for a, b, m in self.sorted_keys():
            c = self.terms[(a, b, m)]
            factors = []
            for i, e in enumerate(a):
                if e:
                    factors.append(f"z{i + 1}" + (f"^{e}" if e > 1 else ""))
            for i, e in enumerate(b):
                if e:
                    factors.append(f"w{i + 1}" + (f"^{e}" if e > 1 else ""))
            factors.append("I" if m == 0 else "fd{%s}I" % ",".join(
                str(k + 1) for k in range(self.n) if m >> k & 1))
            bits.append(f"({c})*" + "*".join(factors))
        return " + ".join(bits)

    __repr__ = __str__

    def to_json(self):
        out = []
        for a, b, m in self.sorted_keys():
            out.append({
                "alpha": list(a),
                "beta": list(b),
                "spinor": [k + 1 for k in range(self.n) if m >> k & 1],
                "coeff": scalars.to_json(self.terms[(a, b, m)]),
            })
        return out

    @classmethod
    def from_json(cls, data, n):
        """The polynomial a JSON term list describes; repeated terms add.

        Schema: a list of {"alpha": [ints], "beta": [ints],
        "spinor": [1-based indices], "coeff": scalar object}, where the
        scalar object holds integers or "-?digits[/digits]" strings
        under the keys a_re, a_im, b_re, b_im.  No other key is allowed
        in a term or a scalar object; a missing "spinor" means [].  JSON
        true/false are not integers here.  The rank is `n`.  Violations
        raise ValueError naming the term index and field or key.
        """
        if not isinstance(data, list):
            raise ValueError("polynomial JSON must be a list of term objects")
        terms = {}
        for i, item in enumerate(data):
            where = f"term {i}"
            if not isinstance(item, dict):
                raise ValueError(f"{where}: expected an object")
            extra = sorted(set(item) - {"alpha", "beta", "spinor", "coeff"})
            if extra:
                raise ValueError(f"{where}: unknown keys {extra}")
            for field in ("alpha", "beta"):
                val = item.get(field)
                if (not isinstance(val, list)
                        or not all(_is_int(e) and e >= 0 for e in val)):
                    raise ValueError(f"{where}, field '{field}': expected a "
                                     "list of nonnegative integers")
            if len(item["alpha"]) != n or len(item["beta"]) != n:
                raise ValueError(f"{where}: alpha and beta must both have "
                                 f"length {n}")
            spinor = item.get("spinor", [])
            if (not isinstance(spinor, list)
                    or not all(_is_int(k) and 1 <= k <= n for k in spinor)
                    or len(set(spinor)) != len(spinor)):
                raise ValueError(f"{where}, field 'spinor': expected "
                                 f"distinct indices in 1..{n}")
            coeff = item.get("coeff")
            if not isinstance(coeff, dict):
                raise ValueError(f"{where}, field 'coeff': expected an "
                                 "object with keys a_re, a_im, b_re, b_im")
            extra = sorted(set(coeff) - {"a_re", "a_im", "b_re", "b_im"})
            if extra:
                raise ValueError(f"{where}, field 'coeff': unknown keys "
                                 f"{extra}")
            for key in ("a_re", "a_im", "b_re", "b_im"):
                if key not in coeff:
                    raise ValueError(f"{where}, field 'coeff': missing "
                                     f"'{key}'")
                val = coeff[key]
                if not (isinstance(val, str) or _is_int(val)):
                    raise ValueError(f"{where}, field 'coeff.{key}': "
                                     "expected a \"num/den\" string or an "
                                     "integer")
            try:
                c = ExtendedScalar.from_json(coeff)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            key = (tuple(item["alpha"]), tuple(item["beta"]),
                   sum(1 << (k - 1) for k in spinor))
            terms[key] = terms.get(key, 0) + c
        return cls(n, terms)


def _is_int(x):
    """An int that is not a bool (JSON true/false load as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def require_int(name, value, least):
    """Raise ValueError naming `name` unless `value` is an int (not a
    bool) of at least `least`."""
    if not _is_int(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, "
                         f"got {value!r}")


def require_label(p, **degrees):
    """`require_int` on a rank p >= 1 and on labels (degrees, columns)
    >= 0, each named by its keyword."""
    require_int("p", p, 1)
    for name, value in degrees.items():
        require_int(name, value, 0)


# -------------------------------------------------------------- enumeration

def exponent_tuples(n, degree):
    """All exponent tuples of length n with entries summing to `degree`,
    in ascending tuple order."""
    out = set()
    for combo in combinations_with_replacement(range(n), degree):
        t = [0] * n
        for i in combo:
            t[i] += 1
        out.add(tuple(t))
    return sorted(out)


def monomial_keys(p, a, b):
    """(alpha, beta) pairs of P_{a,b}, canonical order."""
    n = 2 * p
    return [(alpha, beta) for alpha in exponent_tuples(n, a)
            for beta in exponent_tuples(n, b)]


def poly_dim(p, a, b):
    """dim P_{a,b} over 2p complex variables."""
    n = 2 * p
    return comb(a + n - 1, n - 1) * comb(b + n - 1, n - 1)


def value_basis(p, value_space):
    """Basis of a value space inside S, as spinor values.

    value_space is one of ("full",), ("grade", r), ("cell", r, s).
    """
    from .operators import cell_basis
    n = 2 * p
    kind = value_space[0]
    if kind == "full":
        return [SpinorPolynomial.constant(n, {m: 1})
                for r in range(n + 1) for m in grade_masks(n, r)]
    if kind == "grade":
        return [SpinorPolynomial.constant(n, {m: 1})
                for m in grade_masks(n, value_space[1])]
    if kind == "cell":
        return cell_basis(p, value_space[1], value_space[2])
    raise ValueError(f"unknown value space {value_space!r}")


def space_basis(p, a, b, value_space=("full",)):
    """Ordered basis of P_{a,b} tensor the value space, monomial-major."""
    require_label(p, a=a, b=b)
    n = 2 * p
    values = value_basis(p, value_space)
    return [SpinorPolynomial.monomial(n, alpha, beta).times_value(v)
            for alpha, beta in monomial_keys(p, a, b) for v in values]
