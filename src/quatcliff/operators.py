"""The named operators acting on spinor-valued polynomials.

Scalar part and value part of each operator commute, so compositions are
written in whatever order is convenient.  Conventions (k runs 1..n = 2p,
j runs 1..p):

  dz        = sum_k d/dz_k fdag_k            dz_dag    = sum_k d/dzbar_k f_k
  dzJ       = sum_j ( d/dz_{2j} f_{2j-1} - d/dz_{2j-1} f_{2j} )
  dz_dagJ   = sum_j ( d/dzbar_{2j} fdag_{2j-1} - d/dzbar_{2j-1} fdag_{2j} )
  mul_z     = sum_k z_k f_k                  mul_z_dag = sum_k zbar_k fdag_k
  mul_zJ    = sum_j ( z_{2j} fdag_{2j-1} - z_{2j-1} fdag_{2j} )
  mul_z_dagJ= sum_j ( zbar_{2j} f_{2j-1} - zbar_{2j-1} f_{2j} )
  curlyE    = sum_j ( z_{2j-1} d/dzbar_{2j} - z_{2j} d/dzbar_{2j-1} )
  curlyE_dag= sum_j ( zbar_{2j} d/dz_{2j-1} - zbar_{2j-1} d/dz_{2j} )

curlyE_dag is the Fischer adjoint of curlyE (the adjoint of multiplication by
z_j is d/dz_j, the adjoint of d/dzbar_j is multiplication by zbar_j); with
this pairing the two operators generate an sl(2) together with E_z - E_z_dag.

The four Dirac operators and the vector variable in real coordinates are
linear combinations of the above; dirac_dictionary_check rebuilds them from
literal real-coordinate sums and compares matrices entry by entry.
"""

from fractions import Fraction

from . import linalg
from .poly import SpinorPolynomial, space_basis
from .scalars import XS_ONE, xs


def _zero_like(F):
    return SpinorPolynomial.zero(F.n)


def op_id(F):
    return F


def op_dz(F):
    out = _zero_like(F)
    for k in range(1, F.n + 1):
        out = out + F.diff_z(k).wedge(k)
    return out


def op_dz_dag(F):
    out = _zero_like(F)
    for k in range(1, F.n + 1):
        out = out + F.diff_zbar(k).contract(k)
    return out


def op_dzJ(F):
    out = _zero_like(F)
    for j in range(1, F.n // 2 + 1):
        out = out + F.diff_z(2 * j).contract(2 * j - 1) \
           - F.diff_z(2 * j - 1).contract(2 * j)
    return out


def op_dz_dagJ(F):
    out = _zero_like(F)
    for j in range(1, F.n // 2 + 1):
        out = out + F.diff_zbar(2 * j).wedge(2 * j - 1) \
           - F.diff_zbar(2 * j - 1).wedge(2 * j)
    return out


def op_mul_z(F):
    out = _zero_like(F)
    for k in range(1, F.n + 1):
        out = out + F.mul_z_var(k).contract(k)
    return out


def op_mul_z_dag(F):
    out = _zero_like(F)
    for k in range(1, F.n + 1):
        out = out + F.mul_zbar_var(k).wedge(k)
    return out


def op_mul_zJ(F):
    out = _zero_like(F)
    for j in range(1, F.n // 2 + 1):
        out = out + F.mul_z_var(2 * j).wedge(2 * j - 1) \
           - F.mul_z_var(2 * j - 1).wedge(2 * j)
    return out


def op_mul_z_dagJ(F):
    out = _zero_like(F)
    for j in range(1, F.n // 2 + 1):
        out = out + F.mul_zbar_var(2 * j).contract(2 * j - 1) \
           - F.mul_zbar_var(2 * j - 1).contract(2 * j)
    return out


def op_E_z(F):
    return F.scale_by_euler("z")


def op_E_z_dag(F):
    return F.scale_by_euler("zbar")


def op_curlyE(F):
    out = _zero_like(F)
    for j in range(1, F.n // 2 + 1):
        out = out + F.diff_zbar(2 * j).mul_z_var(2 * j - 1) \
           - F.diff_zbar(2 * j - 1).mul_z_var(2 * j)
    return out


def op_curlyE_dag(F):
    out = _zero_like(F)
    for j in range(1, F.n // 2 + 1):
        out = out + F.diff_z(2 * j - 1).mul_zbar_var(2 * j) \
           - F.diff_z(2 * j).mul_zbar_var(2 * j - 1)
    return out


def op_P(F):
    out = _zero_like(F)
    for j in range(1, F.n // 2 + 1):
        out = out + F.contract(2 * j - 1).contract(2 * j)
    return out


def op_Q(F):
    out = _zero_like(F)
    for j in range(1, F.n // 2 + 1):
        out = out + F.wedge(2 * j).wedge(2 * j - 1)
    return out


def op_beta(F):
    out = {}
    for key, c in F.terms.items():
        r = key[2].bit_count()
        if r:
            out[key] = c * r
    return SpinorPolynomial(F.n, out)


def op_laplace(F):
    out = _zero_like(F)
    for k in range(1, F.n + 1):
        out = out + F.diff_z(k).diff_zbar(k)
    return out.scale(4)


def op_mul_r2(F):
    out = _zero_like(F)
    for k in range(1, F.n + 1):
        out = out + F.mul_z_var(k).mul_zbar_var(k)
    return out


def op_dirac(F):
    return (op_dz(F) - op_dz_dag(F)).scale(2)


def op_dirac_I(F):
    return (op_dz(F) + op_dz_dag(F)).scale(xs(0, -2))


def op_dirac_J(F):
    return (op_dzJ(F) - op_dz_dagJ(F)).scale(2)


def op_dirac_K(F):
    return (op_dzJ(F) + op_dz_dagJ(F)).scale(xs(0, -2))


def op_mul_X(F):
    return op_mul_z_dag(F) - op_mul_z(F)


def op_h_total(F):
    p = F.n // 2
    return op_E_z(F) + op_E_z_dag(F) + F.scale(2 * p)


def op_h_diff(F):
    return op_E_z(F) - op_E_z_dag(F)


def op_h_spin(F):
    p = F.n // 2
    return F.scale(p) - op_beta(F)


def op_h_herm(F):
    # Cartan element completing gl(2) in the hermitian reduction
    p = F.n // 2
    return op_E_z_dag(F) - op_E_z(F) + F.scale(2 * p) - op_beta(F).scale(2)


class OperatorSpec:
    """A named operator: how to apply it, whether it is odd or even, and
    which bidegree shifts (da, db) its images may occupy."""

    __slots__ = ("name", "func", "parity", "shifts")

    def __init__(self, name, func, parity, shifts=None):
        self.name = name
        self.func = func
        self.parity = parity
        self.shifts = shifts

    def __call__(self, F):
        return self.func(F)

    def __repr__(self):
        return f"OperatorSpec({self.name!r}, parity={self.parity!r})"


_ODD = [
    ("dz", op_dz, ((-1, 0),)), ("dz_dag", op_dz_dag, ((0, -1),)),
    ("dzJ", op_dzJ, ((-1, 0),)), ("dz_dagJ", op_dz_dagJ, ((0, -1),)),
    ("mul_z", op_mul_z, ((1, 0),)), ("mul_z_dag", op_mul_z_dag, ((0, 1),)),
    ("mul_zJ", op_mul_zJ, ((1, 0),)), ("mul_z_dagJ", op_mul_z_dagJ, ((0, 1),)),
    ("dirac", op_dirac, ((-1, 0), (0, -1))),
    ("dirac_I", op_dirac_I, ((-1, 0), (0, -1))),
    ("dirac_J", op_dirac_J, ((-1, 0), (0, -1))),
    ("dirac_K", op_dirac_K, ((-1, 0), (0, -1))),
    ("mul_X", op_mul_X, ((1, 0), (0, 1))),
]
_EVEN = [
    ("id", op_id, ((0, 0),)), ("E_z", op_E_z, ((0, 0),)),
    ("E_z_dag", op_E_z_dag, ((0, 0),)),
    ("curlyE", op_curlyE, ((1, -1),)), ("curlyE_dag", op_curlyE_dag, ((-1, 1),)),
    ("P", op_P, ((0, 0),)), ("Q", op_Q, ((0, 0),)), ("beta", op_beta, ((0, 0),)),
    ("laplace", op_laplace, ((-1, -1),)), ("mul_r2", op_mul_r2, ((1, 1),)),
    ("h_total", op_h_total, ((0, 0),)), ("h_diff", op_h_diff, ((0, 0),)),
    ("h_spin", op_h_spin, ((0, 0),)), ("h_herm", op_h_herm, ((0, 0),)),
]

REGISTRY = {}
for _name, _func, _shifts in _ODD:
    REGISTRY[_name] = OperatorSpec(_name, _func, "odd", _shifts)
for _name, _func, _shifts in _EVEN:
    REGISTRY[_name] = OperatorSpec(_name, _func, "even", _shifts)


def resolve(op):
    if isinstance(op, OperatorSpec):
        return op
    if isinstance(op, str):
        try:
            return REGISTRY[op]
        except KeyError:
            raise KeyError(f"unknown operator name {op!r}") from None
    if callable(op):
        return OperatorSpec(getattr(op, "__name__", "anonymous"), op, "even")
    raise TypeError(f"cannot resolve operator from {op!r}")


def apply(op, F):
    return resolve(op)(F)


def apply_word(word, F):
    """Apply a composition given as a name tuple, rightmost factor first."""
    for name in reversed(word):
        F = apply(name, F)
    return F


def apply_expression(expr, F):
    """Apply sum((c0 + c1*p) * op) given as [(c0, c1, name), ...]."""
    p = F.n // 2
    out = SpinorPolynomial.zero(F.n)
    for c0, c1, name in expr:
        c = Fraction(c0) + Fraction(c1) * p
        if not c:
            continue
        out = out + apply(name, F).scale(xs(c))
    return out


def apply_cached(op, F, cache):
    """apply(op, F) with per-single-term memoisation.

    `cache` is any dict; keys are (operator name, term key).  Images of single
    terms are tiny, so repeated applications over a whole basis get cheap.
    """
    spec = resolve(op)
    out = {}
    for key, c in F.terms.items():
        ck = (spec.name, key)
        img = cache.get(ck)
        if img is None:
            img = spec(SpinorPolynomial(F.n, {key: XS_ONE})).terms
            cache[ck] = img
        linalg.axpy(out, img, c)
    return SpinorPolynomial(F.n, out)


# ------------------------------------------------------------ joint kernels

def joint_kernel(ops, basis):
    """Basis of the joint kernel of the operators `ops` on the span of the
    linearly independent polynomials `basis`.

    The images under all operators are stacked into one linear map and
    each canonical nullspace vector is recombined into a polynomial, so
    the result depends only on the operators and the ordered basis.
    """
    ops = tuple(ops)
    images = []
    for F in basis:
        stacked = {}
        for i, name in enumerate(ops):
            for k, c in apply(name, F).terms.items():
                stacked[(i, k)] = c
        images.append(stacked)
    vecs = []
    for combo in linalg.nullspace(images):
        acc = {}
        for j, c in combo.items():
            linalg.axpy(acc, basis[j].terms, c)
        vecs.append(SpinorPolynomial(basis[0].n, acc))
    return vecs


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


def real_dirac(F, rotation=None):
    """sum_alpha R[e_alpha] d/dx_alpha F for a signed permutation R."""
    out = SpinorPolynomial.zero(F.n)
    for alpha in range(1, 2 * F.n + 1):
        img, sign = rotation(alpha) if rotation else (alpha, 1)
        piece = generator_action(coord_diff(F, alpha), img)
        out = out + (piece if sign > 0 else -piece)
    return out


def real_vector_mult(F, rotation=None):
    """sum_alpha R[e_alpha] x_alpha F for a signed permutation R."""
    out = SpinorPolynomial.zero(F.n)
    for alpha in range(1, 2 * F.n + 1):
        img, sign = rotation(alpha) if rotation else (alpha, 1)
        piece = generator_action(coord_mult(F, alpha), img)
        out = out + (piece if sign > 0 else -piece)
    return out


def dirac_dictionary_check(p, a, b):
    """Rebuild the four Dirac operators and the vector variables from literal
    real-coordinate sums and compare with their Witt-basis expressions,
    matrix against matrix.  Returns {name: bool, ..., "ok": bool}."""
    from .witt import rotation_I, rotation_J, rotation_K
    basis = space_basis(p, a, b, ("full",))
    pairs = {
        "dirac": (op_dirac, lambda F: real_dirac(F)),
        "dirac_I": (op_dirac_I, lambda F: real_dirac(F, rotation_I)),
        "dirac_J": (op_dirac_J, lambda F: real_dirac(F, rotation_J)),
        "dirac_K": (op_dirac_K, lambda F: real_dirac(F, rotation_K)),
        "mul_X": (op_mul_X, lambda F: real_vector_mult(F)),
        # z + z_dag recovered from the first rotated vector variable
        "mul_z_plus_z_dag": (
            lambda F: op_mul_z(F) + op_mul_z_dag(F),
            lambda F: real_vector_mult(F, rotation_I).scale(xs(0, 1))),
    }
    report = {}
    for name, (witt_route, real_route) in pairs.items():
        report[name] = all(witt_route(v) == real_route(v) for v in basis)
    report["ok"] = all(report.values())
    return report
