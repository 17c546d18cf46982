"""Kernel spaces and the exact decompositions built from them.

Everything here reduces to one primitive: the joint kernel of a list of
operators on a bihomogeneous polynomial space with values in a chosen
part of the spinor space, computed by one exact elimination.  A subspace
is its canonical basis, the tuple of reduced echelon polynomials that
`operators.joint_kernel` returns: its dimension is the tuple's length,
two constructions of one subspace give equal tuples, and `_inside`
reads a vector's coordinates off it, its coefficients at the basis'
leading terms, with no elimination.  On top of that sit the named
spaces (harmonics, symplectic harmonics, hermitian monogenics, the
q-monogenic cell spaces S and T), two claims about the q-monogenics
(curlyE, curlyE_dag, P and Q preserve them; the rotated Dirac operators
have the same joint kernel), the projections onto Ker laplace / Ker P /
Ker curlyE, each the extremal projector of an sl(2) triple with its
coefficients read off `relations.BRACKETS`, the sixteen embedding
factors that split symplectic harmonics with cell values, and the
decomposition routines that tile whole polynomial spaces out of those
pieces and take arbitrary inputs apart with zero residual.

Every tiling is decided by one certificate, `_tiling`: the piece sizes
add up to the dimension of the space, their union has that exact rank,
and each piece lies in the space when its basis is given.  A dimension
formula is only ever an independent cross-check beside the ranks.
Every other fact is decided once too: an S or T space is the kernel of
one derivative and its twist, rule table rows giving the other three on
its cell values (Ker P or Ker Q, `cells_check`); [P, Q] = h_spin is the
rule table's row; shifts come from `operators.shifts`.
"""

from fractions import Fraction
from functools import cache
from math import comb

from . import linalg
from .operators import (DERIVS, apply, apply_word, joint_kernel, key_image,
                        shifts)
from .poly import (SpinorPolynomial, poly_dim, require_int, require_label,
                   space_basis, term_sort_key, value_basis)
from .relations import BRACKETS, RULE_INDEX, first_witness
from .witt import cell_dim, cell_labels, pq_scalars, valid_cell

__all__ = [
    "DecompositionReport",
    "kernel_space", "harmonic_space", "symplectic_harmonic_space",
    "qmonogenic_space", "s_space", "t_space", "harmonic_dim_oracle",
    "verify_qmonogenic_stability", "verify_qmonogenic_equivalence",
    "symplectic_harmonic_decomposition", "sl2_module_checks",
    "qmonogenic_decomposition", "project_ker", "composite_projection",
    "embedding_factor", "symplectic_harmonics_16_decomposition",
    "full_decomposition_pieces", "decompose_polynomial",
    "graded_tiling_check", "example_decomposition",
    "euclidean_fischer_dims", "hermitian_fischer_dims",
    "trivial_intersection_check", "cells_check",
]


# ------------------------------------------------------------ subspaces

def kernel_space(ops, p, a, b, value_space=("full",)):
    """Joint kernel of `ops` on P_{a,b} tensor the value space, as its
    canonical basis tuple."""
    return joint_kernel(ops, space_basis(p, a, b, value_space))


def _inside(pieces, space):
    """One flag per piece of `pieces`, each a sequence of polynomials:
    whether all of its polynomials lie in the span of `space`.

    `space` must be a canonical basis: the leading (`term_sort_key`-
    smallest) term of each polynomial has coefficient 1 and is in no
    other one, as in every `joint_kernel` tuple.  A vector v of the span
    is then the sum of v[t] times the polynomial led by t over the
    leading terms t, so v is inside exactly when subtracting that sum
    leaves nothing.  For any other basis a True flag is still right,
    but a vector of the span may be flagged False.
    """
    led = {min(F.terms, key=term_sort_key): F.terms for F in space}

    def rest(v):
        left = dict(v.terms)
        for t in v.terms.keys() & led:
            linalg.axpy(left, led[t], -v.terms[t])
        return left

    return [not any(map(rest, vecs)) for vecs in pieces]


@cache
def harmonic_space(p, a, b):
    """Scalar-valued null solutions of the Laplacian, H_{a,b}."""
    return kernel_space(("laplace",), p, a, b, ("grade", 0))


@cache
def symplectic_harmonic_space(p, a, b, dagger=False):
    """Harmonics killed by curlyE (or by curlyE_dag when dagger is set)."""
    op = "curlyE_dag" if dagger else "curlyE"
    return kernel_space(("laplace", op), p, a, b, ("grade", 0))


@cache
def qmonogenic_space(p, a, b, value_space=("full",)):
    """Joint null solutions of dz, dz_dag, dzJ, dz_dagJ.  The arguments
    are the cache key, so `value_space` must be a tuple."""
    return kernel_space(DERIVS, p, a, b, value_space)


@cache
def s_space(p, r, a, b, dagger=False):
    """Cell space S^r_{a,b}: q-monogenic, killed by curlyE (curlyE_dag
    when dagger), values in the bottom cell of column r, which is Ker P.
    It is Ker dz and Ker curlyE (dz_dagJ, curlyE_dag): on Ker P the rows
    [curlyE, dz] = -dz_dagJ ([curlyE_dag, dz_dagJ] = -dz), [P, dz] = -dzJ
    and [P, dz_dagJ] = dz_dag give the other three derivatives."""
    if not 0 <= r <= p:
        raise ValueError(f"S-space column must satisfy 0 <= r <= p, got {r}")
    ops = ("dz_dagJ", "curlyE_dag") if dagger else ("dz", "curlyE")
    return kernel_space(ops, p, a, b, ("cell", r, r))


@cache
def t_space(p, r, a, b, dagger=False):
    """Cell space T^r_{a,b}: q-monogenic, killed by curlyE (curlyE_dag
    when dagger), values in the top cell of column r, which Q kills.
    It is Ker dzJ and Ker curlyE (dz_dag, curlyE_dag): on Ker Q the rows
    [curlyE, dzJ] = dz_dag ([curlyE_dag, dz_dag] = dzJ), [Q, dzJ] = -dz
    and [Q, dz_dag] = dz_dagJ give the other three derivatives."""
    if not p <= r <= 2 * p:
        raise ValueError(f"T-space column must satisfy p <= r <= 2p, got {r}")
    ops = ("dz_dag", "curlyE_dag") if dagger else ("dzJ", "curlyE")
    return kernel_space(ops, p, a, b, ("cell", r, 2 * p - r))


def harmonic_dim_oracle(p, a, b):
    """dim H_{a,b} from the two polynomial dimensions alone."""
    lower = poly_dim(p, a - 1, b - 1) if a >= 1 and b >= 1 else 0
    return poly_dim(p, a, b) - lower


def verify_qmonogenic_stability(p, a, b):
    """Images of the joint kernel under curlyE, curlyE_dag, P, Q stay in
    the joint kernel (at the shifted bidegree for the first two)."""
    require_label(p, a=a, b=b)
    kernel = qmonogenic_space(p, a, b)
    ops = {}
    for name in ("curlyE", "curlyE_dag", "P", "Q"):
        (da, db, _), = shifts(name)
        ta, tb = a + da, b + db
        # a negative bidegree holds the zero polynomial only
        target = qmonogenic_space(p, ta, tb) if min(ta, tb) >= 0 else ()
        flags = _inside([[apply(name, v)] for v in kernel], target)
        # the witness is the first basis vector with its image outside
        violations = [{"basis": str(v)}
                      for v, inside in zip(kernel, flags) if not inside]
        ops[name] = {"ok": not violations, "violations": violations[:1],
                     "target_bidegree": [ta, tb]}
    return {"p": p, "a": a, "b": b, "kernel_dim": len(kernel),
            "operators": ops,
            "passed": all(op["ok"] for op in ops.values())}


def verify_qmonogenic_equivalence(p, a, b):
    """The joint kernel of the four rotated Dirac operators equals the
    joint kernel of the four complex derivative operators, as subspaces."""
    require_label(p, a=a, b=b)
    dirac = kernel_space(("dirac", "dirac_I", "dirac_J", "dirac_K"), p, a, b)
    deriv = qmonogenic_space(p, a, b)
    return {"p": p, "a": a, "b": b, "dim": len(deriv),
            "passed": dirac == deriv}


# ------------------------------------------------------------- reports

class DecompositionReport:
    """What `decompose_polynomial` returns: the input, its components,
    the residual, which must be zero, and whether the split passed.

    Each component is a dict of its piece labels plus the SpinorPolynomials
    "component" and "source"; `to_json` writes them as term lists.
    """

    __slots__ = ("input_description", "components", "residual", "passed",
                 "details")

    def __init__(self, input_description, components, residual, passed,
                 details):
        self.input_description = input_description
        self.components = components
        self.residual = residual
        self.passed = passed
        self.details = details

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return (f"DecompositionReport({self.input_description!r}, "
                f"{len(self.components)} components, {state})")

    def to_json(self):
        comps = [{k: v.to_json() if isinstance(v, SpinorPolynomial) else v
                  for k, v in comp.items()} for comp in self.components]
        return {"input": self.input_description, "components": comps,
                "passed": self.passed, "details": self.details,
                "residual": self.residual.to_json()}


def _span_rank(vec_lists):
    return linalg.rank([v.terms for vecs in vec_lists for v in vecs])


def _tiling(pieces, dim, target=None):
    """Whether `pieces`, each a sequence of polynomials, tile a space of
    dimension `dim`: (size sum, union rank, one `_inside` flag per piece
    for the canonical basis `target` or [] without one, verdict), the
    verdict being size sum == union rank == dim with every piece inside
    the target."""
    total = sum(len(vecs) for vecs in pieces)
    rank = _span_rank(pieces)
    flags = [] if target is None else _inside(pieces, target)
    return total, rank, flags, total == rank == dim and all(flags)


# ----------------------------------------- harmonics from twisted raising

def symplectic_harmonic_decomposition(p, a, b):
    """Tile H_{a,b} by powers of curlyE_dag applied to the symplectic
    harmonics of the shifted bidegrees, skipping negative powers.

    The harmonic dimension is cross-checked against the count obtained
    from the two polynomial dimensions alone.
    """
    require_label(p, a=a, b=b)
    target = harmonic_space(p, a, b)
    oracle = harmonic_dim_oracle(p, a, b)
    components = []
    piece_vecs = []
    for t in range(max(0, a - b), a + 1):
        power = b - a + t
        src = symplectic_harmonic_space(p, b + t, a - t)
        vecs = [apply_word(("curlyE_dag",) * power, v) for v in src]
        components.append({"t": t, "power": power,
                           "source_bidegree": [b + t, a - t],
                           "dim": len(vecs)})
        piece_vecs.append(vecs)
    total, union_rank, flags, tiled = _tiling(piece_vecs, oracle, target)
    for comp, inside in zip(components, flags):
        comp["inside_harmonics"] = inside
    passed = tiled and len(target) == oracle
    return {"input": f"harmonics p={p} (a,b)=({a},{b})",
            "components": components, "passed": passed,
            "details": {"harmonic_dim": len(target), "dim_oracle": oracle,
                        "sum_of_pieces": total, "union_rank": union_rank}}


def sl2_module_checks(p, a, b):
    """Module structure of the symplectic harmonics under the twisting
    sl(2): the (a-b)-th power of curlyE_dag is a bijection onto the
    mirrored dagger space, one more power kills everything, intermediate
    spans agree from both ends, and the weight spaces stack to dimension
    (a-b+1) times the top space."""
    require_label(p, a=a, b=b)
    if a < b:
        raise ValueError("expects a >= b")
    d = a - b
    HS = symplectic_harmonic_space(p, a, b)
    HdS = symplectic_harmonic_space(p, b, a, dagger=True)
    # down[t] = curlyE_dag^t(HS) for t <= d + 1 and up[t] = curlyE^t(HdS)
    # for t <= d, each power one application to the one before
    down, up = [HS], [HdS]
    for t in range(d + 1):
        down.append([apply("curlyE_dag", v) for v in down[t]])
    for t in range(d):
        up.append([apply("curlyE", v) for v in up[t]])

    # rung t: down[t] and up[d - t] span one space, ranked once each
    # and once together; the last rung, up[0] = HdS, is the isomorphism
    weight_dims = [_span_rank([down[t]]) for t in range(d + 1)]
    rungs = [weight_dims[t] == _span_rank([up[d - t]])
             == _span_rank([down[t], up[d - t]]) for t in range(d + 1)]
    iso_ok = weight_dims[d] == len(HS) == len(HdS) and rungs[d]
    killed = all(not v.terms for v in down[d + 1])
    ladder_ok = all(rungs)
    # every weight space has len(HS) vectors: the union rank decides
    _, stack_rank, _, stack_ok = _tiling(down[:d + 1], (d + 1) * len(HS))

    passed = iso_ok and killed and ladder_ok and stack_ok
    return {"p": p, "a": a, "b": b, "dim_top": len(HS), "dim_mirror": len(HdS),
            "isomorphism": iso_ok, "one_power_beyond_kills": killed,
            "ladder_spans_agree": ladder_ok, "weight_dims": weight_dims,
            "stacked_rank": stack_rank, "passed": passed}


def qmonogenic_decomposition(p, r, k, a, b):
    """Tile the q-monogenic space with values in cell (r + 2k, r) by the
    k-th power of Q applied to twisted-raising images of the S-spaces of
    column r (mirrored via curlyE and the dagger spaces when a < b)."""
    require_label(p, r=r, k=k, a=a, b=b)
    if not valid_cell(p, r + 2 * k, r):
        raise ValueError(f"no cell at column {r + 2 * k}, row {r} for p={p}")
    target = qmonogenic_space(p, a, b, ("cell", r + 2 * k, r))
    # curlyE_dag raises the S-spaces above the diagonal, curlyE the
    # dagger S-spaces below it
    raiser = "curlyE" if a < b else "curlyE_dag"
    steps = [(s, [a - s, b + s], s_space(p, r, a - s, b + s, dagger=True))
             if a < b else (s, [a + s, b - s], s_space(p, r, a + s, b - s))
             for s in range(min(a, b) + 1)]
    components = []
    piece_vecs = []
    for s, source, src in steps:
        vecs = [apply_word(("Q",) * k + (raiser,) * s, v) for v in src]
        components.append({"s": s, "raiser": raiser,
                           "source_bidegree": source, "dim": len(vecs)})
        piece_vecs.append(vecs)
    total, union_rank, flags, passed = _tiling(piece_vecs, len(target),
                                               target)
    for comp, inside in zip(components, flags):
        comp["inside_target"] = inside
    return {"input": f"q-monogenic cell ({r + 2 * k},{r}) p={p} "
                     f"(a,b)=({a},{b})",
            "components": components, "passed": passed,
            "details": {"target_dim": len(target), "sum_of_pieces": total,
                        "union_rank": union_rank}}


# ------------------------------------------------------------ projections

# Each projection's lowering operator and its raiser, in the order
# `composite_projection` applies them.
_RAISERS = {"laplace": "mul_r2", "P": "Q", "curlyE": "curlyE_dag"}


def _eigenvalue(h, T):
    """The eigenvalue of the Cartan element `h` on T, read on one key per
    (z-degree, zbar-degree, spinor grade); ValueError unless it is one."""
    keys = {(sum(al), sum(be), m.bit_count()): (al, be, m)
            for al, be, m in T.terms}
    mus = {key_image(h, k, T.n).get(k, 0) for k in keys.values()}
    if len(mus) != 1:
        raise ValueError(f"input is not an eigenvector of {h}: "
                         f"eigenvalues {sorted(mus)}")
    return mus.pop()


def project_ker(lower, T):
    """Project T onto Ker `lower` (laplace, P or curlyE) by the extremal
    projector of its sl(2) triple: with R = `_RAISERS[lower]`, the
    brackets [lower, R] = c h and [h, lower] = w lower of the rule table
    and mu the eigenvalue of h on T, add

        (-1)^k R^k lower^k T / (k! prod_{j<=k} c (mu + w (j+1)/2))

    for k = 1, 2, ... while lower^k T != 0.  ValueError for an unknown
    `lower`, a vanishing denominator, or a T that `lower` does not kill
    and h does not scale.
    """
    try:
        raiser = _RAISERS[lower]
    except KeyError:
        raise ValueError(f"unknown projection kind {lower!r}") from None
    L = apply(lower, T)
    if not L.terms:
        return T
    ((c, _, h),) = BRACKETS[(lower, raiser)]  # both p-parts are zero
    ((w, _, _),) = BRACKETS[(h, lower)]
    mu, out, coeff, k = _eigenvalue(h, T), T, Fraction(1), 0
    while L.terms:
        k += 1
        d = k * c * (mu + Fraction(w * (k + 1), 2))
        if d == 0:
            raise ValueError(f"projection onto Ker {lower} undefined at "
                             f"{h} = {mu}")
        coeff /= -d
        out = out + apply_word((raiser,) * k, L).scale(coeff)
        L = apply(lower, L)
    return out


def composite_projection(T):
    """Ker curlyE after Ker P after Ker laplace, in that application
    order (laplace first)."""
    for lower in _RAISERS:
        T = project_ker(lower, T)
    return T


# ------------------------------------------------------ embedding factors

# alpha -> head word, applied rightmost factor first and followed by the
# projection onto Ker laplace, Ker P and Ker curlyE;
# the source is the target minus the word's shift (_word_source).
_EMBEDDINGS = (
    (),
    ("mul_z",),
    ("mul_z_dagJ",),
    ("mul_z_dag",),
    ("mul_zJ",),
    ("mul_z", "mul_z_dag"),
    ("mul_zJ", "mul_z_dagJ"),
    ("mul_z", "mul_z_dagJ"),
    ("mul_zJ", "mul_z_dag"),
    ("mul_z", "mul_zJ"),
    ("mul_z_dag", "mul_z_dagJ"),
    ("mul_z", "mul_z_dag", "mul_zJ"),
    ("mul_z", "mul_z_dag", "mul_z_dagJ"),
    ("mul_z", "mul_zJ", "mul_z_dagJ"),
    ("mul_z_dag", "mul_zJ", "mul_z_dagJ"),
    ("mul_z", "mul_z_dag", "mul_zJ", "mul_z_dagJ"),
)


def _word_source(word, a, b, r):
    """(a, b, r) minus the shift of `word`, a product of operators with one
    shift each: the label (a', b', r') the word maps into (a, b, r)."""
    for name in word:
        (da, db, dr), = shifts(name)
        a, b, r = a - da, b - db, r - dr
    return a, b, r


def embedding_factor(alpha, p, a, b, r):
    """Embedding factor `alpha` for target labels (p, a, b, r), as
    (source, word).

    The factor maps the S-space at source labels (r', a', b') into the
    symplectic harmonics with cell values at the target: the head word
    (a name tuple) followed by `composite_projection`.
    Sources with negative degrees or a column outside 0..p give the
    empty factor, whose word is None.
    """
    if alpha not in range(16):
        raise ValueError(f"alpha must be in 0..15, got {alpha}")
    if a < b:
        raise ValueError("target labels need a >= b")
    if not 0 <= r <= p:
        raise ValueError(f"target column must satisfy 0 <= r <= p, got {r}")
    word = _EMBEDDINGS[alpha]
    sa, sb, sr = _word_source(word, a, b, r)
    if not (0 <= sr <= p and sa >= sb >= 0):
        word = None
    return (sr, sa, sb), word


@cache
def piece_activity(p, a, b, r):
    """Image data for all sixteen factors at one target label.

    For each alpha this returns the source label, the source basis, the
    image vectors (both tuples), the image rank, and whether the piece counts toward
    the tiling.  Two effects exclude a piece:

    * the factor annihilates its whole source (rank 0): the projection
      kills every image of the head word, for instance everywhere at
      p = 1 for alphas 5 and 6 beyond degree (0,0);
    * alphas 5 and 6, which share the source label (r, a-1, b-1), can
      land on the same subspace.  Each image is then full rank but their
      union adds nothing, so only alpha 5 is counted and alpha 6 carries
      a ``coincides_with`` marker with the measured pair ranks.

    Every exclusion keeps its witness data so reports can surface it.
    """
    entries = []
    for alpha in range(16):
        source, word = embedding_factor(alpha, p, a, b, r)
        entry = {"alpha": alpha, "source": source, "word": word,
                 "src_vectors": (), "vecs": (), "src_dim": 0, "rank": 0,
                 "counted": False, "reason": None}
        if word is None:
            entry["reason"] = "no source"
            entries.append(entry)
            continue
        src = s_space(p, *source)
        if not src:
            entry["reason"] = "empty source"
            entries.append(entry)
            continue
        vecs = tuple(composite_projection(apply_word(word, v)) for v in src)
        rank = _span_rank([vecs])
        entry.update(src_vectors=src, vecs=vecs, src_dim=len(src), rank=rank)
        if rank == 0:
            entry["reason"] = "annihilated"
        else:
            entry["counted"] = True
        entries.append(entry)
    e5, e6 = entries[5], entries[6]
    if e5["counted"] and e6["counted"]:
        pair = _span_rank([e5["vecs"], e6["vecs"]])
        if pair == e5["rank"] == e6["rank"]:
            e6["counted"] = False
            e6["reason"] = "coincides"
            e6["coincides_with"] = {"kept_alpha": 5, "rank_5": e5["rank"],
                                    "rank_6": e6["rank"],
                                    "pair_union_rank": pair}
    return entries


def symplectic_harmonics_16_decomposition(p, a, b, r):
    """Tile the symplectic harmonics with values in the bottom cell of
    column r by the sixteen embedded S-spaces.

    Counted pieces must lie in Ker laplace, Ker curlyE, Ker P and in the
    ambient space, be full rank, and their union must be a direct sum
    filling the ambient space exactly.  Pieces whose factor annihilates
    the source, and an alpha 6 image that coincides with the alpha 5
    image as a subspace, are excluded from the count; each exclusion is
    reported per alpha with a witness, and the details record whether
    the naive sum over all sixteen source dimensions would have matched
    (it overshoots whenever an exclusion witness is present).

    Every image is also projected with the last two kernel projections
    in the opposite order (curlyE before P); the two orders must agree.
    """
    require_label(p, a=a, b=b, r=r)
    if a < b:
        raise ValueError("expects a >= b")
    HS = symplectic_harmonic_space(p, a, b)
    cell_vecs = value_basis(p, ("cell", r, r))
    ambient = [h.times_value(v) for h in HS for v in cell_vecs]
    ambient_dim = len(ambient)

    components = []
    piece_vecs = []
    orders_agree = True
    exclusions = []
    for entry in piece_activity(p, a, b, r):
        alpha = entry["alpha"]
        word = entry["word"]
        comp = {"alpha": alpha, "source": list(entry["source"]),
                "source_dim": entry["src_dim"], "rank": entry["rank"],
                "counted": entry["counted"]}
        if entry["reason"] is not None:
            comp["reason"] = entry["reason"]
        if entry["src_dim"] == 0:
            components.append(comp)
            continue
        vecs = entry["vecs"]
        comp["in_kernels"] = all(
            not apply("laplace", w).terms
            and not apply("curlyE", w).terms
            and not apply("P", w).terms
            for w in vecs)
        comp["in_ambient"] = _inside([vecs], ambient)[0]
        if entry["reason"] == "annihilated":
            exclusions.append({"alpha": alpha, "reason": "annihilated",
                               "source": list(entry["source"]),
                               "source_dim": entry["src_dim"],
                               "witness_source": str(entry["src_vectors"][0]),
                               "factor": "proj " + (" ".join(word) or "1")})
        elif entry["reason"] == "coincides":
            comp["coincides_with"] = entry["coincides_with"]
            exclusions.append({"alpha": alpha, "reason": "coincides",
                               "source": list(entry["source"]),
                               **entry["coincides_with"]})
        for v, image in zip(entry["src_vectors"], vecs):
            swapped = apply_word(word, v)
            for kind in ("laplace", "curlyE", "P"):
                swapped = project_ker(kind, swapped)
            if (swapped - image).terms:
                orders_agree = False
        components.append(comp)
        if entry["counted"]:
            piece_vecs.append(vecs)

    counted = [c for c in components if c["counted"]]
    total = sum(c["rank"] for c in counted)
    _, union_rank, _, tiled = _tiling(piece_vecs, ambient_dim)
    naive_sum = sum(c["source_dim"] for c in components)
    pieces_ok = all(c["source_dim"] == c["rank"] and c["in_kernels"]
                    and c["in_ambient"] for c in counted)
    passed = tiled and pieces_ok and orders_agree
    details = {"ambient_dim": ambient_dim, "sum_of_pieces": total,
               "union_rank": union_rank, "naive_16_sum": naive_sum,
               "naive_16_sum_matches": naive_sum == ambient_dim,
               "exclusions": exclusions,
               "cell_dim": cell_dim(p, r, r), "top_dim": len(HS),
               "projection_orders_agree": orders_agree}
    return {"input": f"symplectic harmonics p={p} (a,b)=({a},{b}) r={r}",
            "components": components, "passed": passed, "details": details}


# --------------------------------------------------- the full decomposition

@cache
def _piece_power(p, a, b, r, alpha, t, j, l):
    """mul_r2^l Q^j curlyE_dag^t applied to each image vector of factor
    alpha in piece_activity(p, a, b, r), as a tuple.

    Each power is the next-shorter prefix with one more application, in
    the literal order: curlyE_dag first, then Q, then mul_r2.  The cache
    makes every prefix a one-time cost shared by all the targets whose
    pieces extend it.
    """
    if l:
        name, prefix = "mul_r2", (t, j, l - 1)
    elif j:
        name, prefix = "Q", (t, j - 1, 0)
    elif t:
        name, prefix = "curlyE_dag", (t - 1, 0, 0)
    else:
        return piece_activity(p, a, b, r)[alpha]["vecs"]
    return tuple(apply(name, w)
                 for w in _piece_power(p, a, b, r, alpha, *prefix))


@cache
def full_decomposition_pieces(p, A, B):
    """All pieces radial^l Q^j curlyE_dag^t (factor alpha) S-space that
    land in bidegree (A, B), with their vector tuples, ordered by
    (l, j, t, alpha, r).

    The vectors come from the power towers of `_piece_power`, so each
    power of each piece is computed once however many targets use it.
    Pieces excluded by `piece_activity` (annihilated sources, the
    alpha 6 images that coincide with alpha 5) stay out of the list
    so the remaining pieces form a direct sum.
    """
    pieces = []
    for l in range(B + 1):
        for j in range(p + 1):
            for t in range(max(0, B - A), B - l + 1):
                a, b = A - l + t, B - l - t
                for alpha in range(16):
                    for r in range(p - j + 1):
                        entry = piece_activity(p, a, b, r)[alpha]
                        if not entry["counted"]:
                            continue
                        vecs = _piece_power(p, a, b, r, alpha, t, j, l)
                        labels = {"l": l, "j": j, "t": t, "alpha": alpha,
                                  "r": r, "a": a, "b": b}
                        pieces.append((labels, vecs, entry["src_vectors"]))
    return pieces


@cache
def _pieces_solver(p, A, B):
    """The factorisation of the vectors of the pieces of bidegree (A, B),
    made on the first decompose of that bidegree."""
    return linalg.Solver([v.terms for _, vecs, _ in
                          full_decomposition_pieces(p, A, B) for v in vecs])


def graded_tiling_check(p, k):
    """The pieces of each bidegree with a+b = k tile the whole space:
    dimension sums and union ranks both match the ambient dimension."""
    require_int("p", p, 1)
    require_int("k", k, 0)
    per_bidegree = []
    for A in range(k, -1, -1):
        B = k - A
        pieces = full_decomposition_pieces(p, A, B)
        expected = poly_dim(p, A, B) * (1 << (2 * p))
        total, rank, _, ok = _tiling([vecs for _, vecs, _ in pieces],
                                     expected)
        per_bidegree.append({"a": A, "b": B, "pieces": len(pieces),
                             "sum_of_dims": total, "union_rank": rank,
                             "ambient_dim": expected, "ok": ok})
    expected_total = comb(k + 4 * p - 1, 4 * p - 1) * (1 << (2 * p))
    grand = sum(e["ambient_dim"] for e in per_bidegree)
    return {"p": p, "degree": k, "per_bidegree": per_bidegree,
            "degree_dim": grand, "degree_dim_expected": expected_total,
            "passed": (all(e["ok"] for e in per_bidegree)
                       and grand == expected_total)}


def decompose_polynomial(F, p):
    """Split F into its pieces with zero residual.

    F may mix bidegrees; each homogeneous part is decomposed against the
    pieces of its own bidegree.  Components carry both the embedded
    polynomial and its preimage in the source S-space.
    """
    require_label(p)
    if F.n != 2 * p:
        raise ValueError("polynomial rank does not match p")
    components = []
    residual = SpinorPolynomial.zero(F.n)
    solved = True
    for A, B in F.bidegrees():
        part = F.bidegree_part(A, B)
        sol = _pieces_solver(p, A, B).solve(part.terms)
        if sol is None:
            solved = False
            residual = residual + part
            continue
        recomposed = {}
        idx = 0
        for labels, vecs, src_vecs in full_decomposition_pieces(p, A, B):
            comp, source = {}, {}
            for v, s in zip(vecs, src_vecs):
                c = sol[idx]
                idx += 1
                if c:
                    linalg.axpy(comp, v.terms, c)
                    linalg.axpy(source, s.terms, c)
            if comp:
                entry = dict(labels)
                entry["component"] = SpinorPolynomial(F.n, comp)
                entry["source"] = SpinorPolynomial(F.n, source)
                components.append(entry)
                linalg.axpy(recomposed, comp, 1)
        residual = residual + (part - SpinorPolynomial(F.n, recomposed))
    passed = solved and not residual.terms
    return DecompositionReport(str(F), components, residual, passed,
                               details={"p": p})


def example_decomposition():
    """Decompose z2 fd{1}I at p=2 and read off the pieces in the shape
    used to present them: the cell-valued symplectic harmonic S1, the
    source S2 of the z-multiplied piece, and the twisted piece rewritten
    as (mul_zJ + A mul_z Q) S0.

    The rewrite uses the commutation of Q past z-multiplication (one of
    the verified bracket rules): mul_zJ - c Q mul_z with c = 1/(p-r+2)
    equals (1-c) (mul_zJ + A mul_z Q) for A = -c/(1-c) = -1/(p-r+1).
    Here mul_zJ - c Q mul_z is what the alpha 4 factor, the projection of
    mul_zJ, reduces to on S-spaces, and S0 absorbs the overall scale.
    The rebuilt pair is checked against the component exactly.  Returns
    the report as JSON: S0, S1 and S2 as term lists, A as a fraction
    string.
    """
    p, n = 2, 4
    F = SpinorPolynomial.monomial(n, (0, 1, 0, 0), (0, 0, 0, 0), 0b0001)
    report = decompose_polynomial(F, p)

    by_alpha = {}
    for comp in report.components:
        key = (comp["l"], comp["j"], comp["t"], comp["alpha"], comp["r"])
        by_alpha[key] = comp

    out = {"p": p, "input": str(F), "passed": report.passed,
           "component_keys": [list(key) for key in sorted(by_alpha)]}
    c0 = by_alpha.get((0, 0, 0, 0, 1))
    c1 = by_alpha.get((0, 0, 0, 1, 1))
    c4 = by_alpha.get((0, 0, 0, 4, 1))
    expected_keys = {(0, 0, 0, 0, 1), (0, 0, 0, 1, 1), (0, 0, 0, 4, 1)}
    out["only_expected_components"] = set(by_alpha) == expected_keys
    if c0 is None or c1 is None or c4 is None:
        out["passed"] = False
        return out

    r = c4["r"]
    c = Fraction(1, p - r + 2)
    A = -c / (1 - c)
    S0 = c4["source"].scale(1 - c)
    rebuilt = (apply("mul_zJ", S0)
               + apply_word(("mul_z", "Q"), S0).scale(A))
    out.update(S0=S0.to_json(), S1=c0["source"].to_json(),
               S2=c1["source"].to_json(), A=str(A),
               rewrite_exact=not (rebuilt - c4["component"]).terms)
    out["passed"] = out["passed"] and out["rewrite_exact"]
    return out


# ----------------------------------------- one-variable-family tilings

def _degree_basis(p, d):
    out = []
    for a in range(d, -1, -1):
        out.extend(space_basis(p, a, d - a))
    return out


@cache
def _monogenic_basis(p, d):
    """Kernel of the Dirac operator on the degree-d spinor polynomials."""
    return joint_kernel(("dirac",), _degree_basis(p, d))


def euclidean_fischer_dims(m, k):
    """Tile the degree-k spinor polynomials on R^m by powers of the
    vector variable applied to monogenics of the lower degrees."""
    require_int("m", m, 1)
    require_int("k", k, 0)
    if m % 4 != 0:
        raise ValueError("the spinor realisation here needs m divisible by 4")
    p = m // 4
    spinor_dim = 1 << (2 * p)
    components = []
    piece_vecs = []
    for j in range(0, k + 1):
        d = k - j
        mono = _monogenic_basis(p, d)
        oracle = (comb(d + m - 1, m - 1)
                  - (comb(d - 1 + m - 1, m - 1) if d >= 1 else 0)) * spinor_dim
        vecs = [apply_word(("mul_X",) * j, v) for v in mono]
        rank = _span_rank([vecs])
        components.append({"j": j, "monogenic_degree": d, "dim": len(mono),
                           "dim_oracle": oracle, "rank_after_embedding": rank,
                           "injective": rank == len(mono)})
        piece_vecs.append(vecs)
    ambient = comb(k + m - 1, m - 1) * spinor_dim
    total, union_rank, _, tiled = _tiling(piece_vecs, ambient)
    passed = tiled and all(c["injective"] and c["dim"] == c["dim_oracle"]
                           for c in components)
    return {"m": m, "k": k, "components": components, "ambient_dim": ambient,
            "sum_of_pieces": total, "union_rank": union_rank, "passed": passed}


def _hermitian_words(a, b, r, n):
    """Embedding words for the hermitian tiling of P_{a,b} x grade r:
    (label, word, source (a', b', r')).

    The even words come in two families; the first starts by raising the
    spinor grade and dies identically at grade n, the second by lowering
    it and dies at grade 0, so those boundary rows keep one family only.
    """
    words = [("1", ())]
    # every word with j > a + b lowers a degree below zero
    for j in range(1, a + b + 1):
        head = ("mul_r2",) * (j - 1)
        words += [("|z|^%d z" % (2 * j - 2), head + ("mul_z",)),
                  ("|z|^%d zd" % (2 * j - 2), head + ("mul_z_dag",))]
        if r < n:
            words.append(("(z zd)^%d" % j, ("mul_z", "mul_z_dag") * j))
        if r > 0:
            words.append(("(zd z)^%d" % j, ("mul_z_dag", "mul_z") * j))
    out = []
    for label, word in words:
        sa, sb, sr = _word_source(word, a, b, r)
        if sa >= 0 and sb >= 0 and 0 <= sr <= n:
            out.append((label, word, (sa, sb, sr)))
    return out


def hermitian_fischer_dims(n, a, b):
    """Tile P_{a,b} x grade r, for every r, by word-embedded hermitian
    monogenics (kernels of dz and dz_dag)."""
    require_int("n", n, 2)
    require_int("a", a, 0)
    require_int("b", b, 0)
    if n % 2 != 0:
        raise ValueError("needs an even number of complex variables")
    p = n // 2
    per_grade = []
    for r in range(0, n + 1):
        ambient = poly_dim(p, a, b) * comb(n, r)
        components = []
        piece_vecs = []
        for label, word, (sa, sb, sr) in _hermitian_words(a, b, r, n):
            src = kernel_space(("dz", "dz_dag"), p, sa, sb, ("grade", sr))
            vecs = [apply_word(word, v) for v in src]
            rank = _span_rank([vecs])
            components.append({"word": label, "source": [sa, sb, sr],
                               "dim": len(src), "rank": rank})
            piece_vecs.append(vecs)
        total, union_rank, _, tiled = _tiling(piece_vecs, ambient)
        ok = tiled and all(c["dim"] == c["rank"] for c in components)
        per_grade.append({"r": r, "ambient_dim": ambient,
                          "sum_of_pieces": total, "union_rank": union_rank,
                          "components": components, "ok": ok})
    return {"n": n, "a": a, "b": b, "per_grade": per_grade,
            "passed": all(g["ok"] for g in per_grade)}


# ----------------------------------------------------------- small checks

def trivial_intersection_check(p, a, b):
    """With unbalanced bidegrees the q-monogenic bottom-cell spaces meet
    the opposite twisted kernel trivially: for a > b the curlyE_dag
    kernel is zero, for a < b the curlyE kernel is.  "dims_by_column"
    lists the intersection dimension of each column r = 0..p."""
    require_label(p, a=a, b=b)
    if a == b:
        raise ValueError("needs a != b")
    op = "curlyE_dag" if a > b else "curlyE"
    dims = [len(s_space(p, r, a, b, dagger=a > b)) for r in range(0, p + 1)]
    passed = all(d == 0 for d in dims)
    return {"p": p, "a": a, "b": b, "opposite_kernel": op,
            "dims_by_column": dims, "passed": passed}


def cells_check(p):
    """Structure of the spinor cell triangle: dimension formulas, column
    tilings, the scalars PQ and QP take on each cell, the table row
    [P, Q] = h_spin in normal form, and the kernel facts that the S and
    T spaces rest on: of all cells, P kills the bottom and Q the top one
    of each column.  The triangle itself, one entry per cell
    with its dimension formula and ladder scalars, is reported under
    "triangle"."""
    require_label(p)
    n = 2 * p
    checks = {"dims": True, "column_tiling": True, "pq_scalars": True,
              "kernels": True}

    labels = cell_labels(p)
    total = 0
    by_column = {}
    triangle = []
    for lab in labels:
        vecs = value_basis(p, ("cell", lab.r, lab.s))
        dim = cell_dim(p, lab.r, lab.s)
        if len(vecs) != dim:
            checks["dims"] = False
        total += len(vecs)
        by_column.setdefault(lab.r, []).append(vecs)
        pq, qp = pq_scalars(p, lab.r, lab.s)
        triangle.append({"grade": lab.r, "row": lab.s, "dim": dim,
                         "pq": pq, "qp": qp})
        for v in vecs:
            pv, qv = apply("P", v), apply("Q", v)
            if (lab.r == lab.s) != (not pv.terms):
                checks["kernels"] = False
            if (lab.r == 2 * p - lab.s) != (not qv.terms):
                checks["kernels"] = False
            if (apply("P", qv) - v.scale(pq)).terms:
                checks["pq_scalars"] = False
            if (apply("Q", pv) - v.scale(qp)).terms:
                checks["pq_scalars"] = False
    # column r is the direct sum of its cells: their bases together are
    # C(n, r) independent vectors
    checks["column_tiling"] = all(
        _tiling(by_column.get(r, []), comb(n, r))[-1] for r in range(n + 1))
    checks["pq_commutator"] = first_witness(
        RULE_INDEX["within-g0:P,Q"], p) is None

    passed = all(checks.values())
    return {"p": p, "checks": checks, "cells": len(labels),
            "total_dim": total, "triangle": triangle, "passed": passed}
