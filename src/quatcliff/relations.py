"""Bracket structure of the operator algebra, verified rule by rule.

The operators split into graded families

    g0  = {h_total, h_diff, h_spin, curlyE, curlyE_dag, P, Q}
    g1  = {dz, dz_dag, dzJ, dz_dagJ}      g-1 = {mul_z, mul_z_dag, mul_zJ, mul_z_dagJ}
    g2  = {laplace}                       g-2 = {mul_r2}

and RULES holds one (anti)commutation rule per pair of them, an even
generator with itself aside: 144 rules by construction.  A rule's block
names its operands' grades, which `_grade` reads off operators.shifts.
Only the nonzero brackets are written down, in BRACKETS, the Cartan
rows of WEIGHT_LABELS and SWAPS; every other pair brackets to zero.

Every verdict is a normal-form residue: `residue` is the normal form
(weyl) of L R -+ R L - rhs at n = 2p, and a rule holds on every
bidegree exactly when it is empty, so no verdict reads a polynomial
space.  Only a refuted rule is checked on one, by `first_witness`, to
name its witness: `verify_bracket` checks the rule as an exact matrix
identity on the monomial basis of a bihomogeneous space and returns the
witness of the first offending basis monomial, or None.  It sums both
sides of the rule on a monomial into one dict, term by term, from the
single-term images of the operands (operators.term_image, memoised in a
cache the two sides share) and of the right-hand side
(operators.key_image); no polynomial is built but the witness.  It is
also the degree-wise oracle of the tests.  Each rule is reported as one
JSON entry, built by `_rule_json` for the table and for the two smaller
systems alike.

A right-hand side is an operator expression ((c0, c1, name), ...), the
sum of (c0 + c1*p) * name, so one rule set serves every p.  A rule's
kind is not written down: `_r` reads it off the operand parities of
operators.shifts, the anticommutator exactly when both operands are odd.

Those tables are the only place a bracket identity is written; every
other rule set is a view of RULES.  The paper's three commuting sl(2)
triples, their cross pairs and the Cartan weights of the eight odd
generators are rows of RULES, proved like any other row, so a wrong
weight label fails its own row.  Two smaller systems are proved the
same way: the Euclidean five-grading around (mul_X, dirac, laplace,
mul_r2) on R^(4p), and the hermitian system around (mul_z, mul_z_dag,
dz, dz_dag) with the spin counter beta.  They list the identities they
share with RULES as its entries and define only their own rules.  For
the hermitian Cartan element there are two sign variants in
circulation; the rules assert the one that gives the odd generators
weight +-1 (the other gives them +-3).

Every check here is an operator identity, on normal forms or, for a
witness, on the monomial basis of a whole bihomogeneous space, so the
module needs operators, their normal forms, polynomials and the sparse
axpy only, no elimination; claims about kernel subspaces, such as the
stability of the q-monogenics, are checked in fischer.
"""
from collections import Counter
from fractions import Fraction

from .linalg import axpy
from .operators import DERIVS, key_image, shifts, term_image
from .poly import SpinorPolynomial, require_int, space_basis

__all__ = [
    "BracketRule", "RULES", "RULE_INDEX",
    "EUCLIDEAN_RULES", "HERMITIAN_RULES", "WEIGHT_LABELS", "CARTAN_ORDER",
    "residue", "first_witness", "verify_bracket", "verify_table",
    "verify_osp12_and_sl12", "bidegrees_up_to",
]


class BracketRule:
    """One (anti)commutation rule: [left, right] or {left, right} = rhs."""

    __slots__ = ("rule_id", "kind", "left", "right", "rhs")

    def __init__(self, rule_id, kind, left, right, rhs):
        self.rule_id = rule_id
        self.kind = kind          # "comm" | "acomm"
        self.left = left
        self.right = right
        self.rhs = tuple(rhs)     # ((c0, c1, name), ...)

    def __repr__(self):
        sym = "{}" if self.kind == "acomm" else "[]"
        return f"BracketRule({self.rule_id!r}, {sym[0]}{self.left}, {self.right}{sym[1]})"

    def rendered(self):
        lhs = ("{%s, %s}" if self.kind == "acomm" else "[%s, %s]") % (self.left, self.right)
        if not self.rhs:
            return lhs + " = 0"
        parts = []
        for c0, c1, name in self.rhs:
            if c1:
                coeff = f"({c0:+}{c1:+}p)" if c0 else (f"{c1:+}p" if abs(c1) != 1 else ("+p" if c1 > 0 else "-p"))
            else:
                q = Fraction(c0)
                coeff = ("+" if q > 0 else "-") + (str(abs(q)) if abs(q) != 1 else "")
            parts.append(f"{coeff}{name if name != 'id' else '1'}")
        return lhs + " = " + " ".join(parts)


def _odd(name):
    return {dr % 2 for *_, dr in shifts(name)} == {1}


def _grade(name):
    """The grade -(da + db) of an operator, read off its words."""
    (grade,) = {-(da + db) for da, db, _ in shifts(name)}
    return grade


def _r(block, left, right, *rhs):
    """The rule [left, right] = rhs, or {left, right} = rhs when both
    operands are odd."""
    kind = "acomm" if _odd(left) and _odd(right) else "comm"
    return BracketRule(f"{block}:{left},{right}", kind, left, right, rhs)


_MULTS = ("mul_z", "mul_z_dag", "mul_zJ", "mul_z_dagJ")

# The generators of the table, grade by grade: g0, g1, g-1, g2, g-2.
GENERATORS = ("h_total", "h_diff", "h_spin", "curlyE", "curlyE_dag", "P",
              "Q", *DERIVS, *_MULTS, "laplace", "mul_r2")

# Weight of each odd generator under (h_total, h_diff, h_spin), as a
# commutator eigenvalue: [h, O] = w * O.
CARTAN_ORDER = ("h_total", "h_diff", "h_spin")
WEIGHT_LABELS = {
    "mul_z": (1, 1, 1),
    "mul_z_dag": (1, -1, -1),
    "dz": (-1, -1, -1),
    "dz_dag": (-1, 1, 1),
    "mul_zJ": (1, 1, -1),
    "mul_z_dagJ": (1, -1, 1),
    "dzJ": (-1, -1, 1),
    "dz_dagJ": (-1, 1, -1),
}

# Between g0 and g+-1 the four elements outside the Cartan swap the odd
# generators: row h lists (c, name) with [h, g] = c * name for g in turn,
# None where they commute.
SWAPS = (
    (DERIVS, {
        "curlyE": ((-1, "dz_dagJ"), None, (1, "dz_dag"), None),
        "curlyE_dag": (None, (1, "dzJ"), None, (-1, "dz")),
        "P": ((-1, "dzJ"), None, None, (1, "dz_dag")),
        "Q": (None, (1, "dz_dagJ"), (-1, "dz"), None),
    }),
    (_MULTS, {
        "curlyE": (None, (-1, "mul_zJ"), None, (1, "mul_z")),
        "curlyE_dag": ((1, "mul_z_dagJ"), None, (-1, "mul_z_dag"), None),
        "P": (None, (-1, "mul_z_dagJ"), (1, "mul_z"), None),
        "Q": ((1, "mul_zJ"), None, None, (-1, "mul_z_dag")),
    }),
)

# The other nonzero brackets, keyed by (left, right) in GENERATORS order.
_QUARTER = Fraction(1, 4)
BRACKETS = {
    # the twist and cell sl(2) triples inside g0
    ("h_diff", "curlyE"): ((2, 0, "curlyE"),),
    ("h_diff", "curlyE_dag"): ((-2, 0, "curlyE_dag"),),
    ("curlyE", "curlyE_dag"): ((1, 0, "h_diff"),),
    ("h_spin", "P"): ((2, 0, "P"),),
    ("h_spin", "Q"): ((-2, 0, "Q"),),
    ("P", "Q"): ((1, 0, "h_spin"),),
    # the radial sl(2) triple
    ("h_total", "laplace"): ((-2, 0, "laplace"),),
    ("h_total", "mul_r2"): ((2, 0, "mul_r2"),),
    ("laplace", "mul_r2"): ((4, 0, "h_total"),),
    # within g1 and within g-1
    ("dz", "dz_dag"): ((_QUARTER, 0, "laplace"),),
    ("dzJ", "dz_dagJ"): ((_QUARTER, 0, "laplace"),),
    ("mul_z", "mul_z_dag"): ((1, 0, "mul_r2"),),
    ("mul_zJ", "mul_z_dagJ"): ((1, 0, "mul_r2"),),
    # g1 against g-1
    ("dz", "mul_z"): ((1, 0, "E_z"), (1, 0, "beta")),
    ("dz", "mul_zJ"): ((-2, 0, "Q"),),
    ("dz", "mul_z_dagJ"): ((1, 0, "curlyE_dag"),),
    ("dz_dag", "mul_z_dag"): ((1, 0, "E_z_dag"), (0, 2, "id"),
                              (-1, 0, "beta")),
    ("dz_dag", "mul_zJ"): ((-1, 0, "curlyE"),),
    ("dz_dag", "mul_z_dagJ"): ((2, 0, "P"),),
    ("dzJ", "mul_z"): ((-2, 0, "P"),),
    ("dzJ", "mul_z_dag"): ((-1, 0, "curlyE_dag"),),
    ("dzJ", "mul_zJ"): ((1, 0, "E_z"), (0, 2, "id"), (-1, 0, "beta")),
    ("dz_dagJ", "mul_z"): ((1, 0, "curlyE"),),
    ("dz_dagJ", "mul_z_dag"): ((2, 0, "Q"),),
    ("dz_dagJ", "mul_z_dagJ"): ((1, 0, "E_z_dag"), (1, 0, "beta")),
    # g1 against g-2 and g-1 against g2
    ("dz", "mul_r2"): ((1, 0, "mul_z_dag"),),
    ("dz_dag", "mul_r2"): ((1, 0, "mul_z"),),
    ("dzJ", "mul_r2"): ((1, 0, "mul_z_dagJ"),),
    ("dz_dagJ", "mul_r2"): ((1, 0, "mul_zJ"),),
    ("mul_z", "laplace"): ((-4, 0, "dz_dag"),),
    ("mul_z_dag", "laplace"): ((-4, 0, "dz"),),
    ("mul_zJ", "laplace"): ((-4, 0, "dz_dagJ"),),
    ("mul_z_dagJ", "laplace"): ((-4, 0, "dzJ"),),
}


def _build_rules():
    """One rule per pair of GENERATORS, an even generator with itself
    aside, ordered by its operands' grades and then by the operands in
    GENERATORS order; its block names the two grades.  Its right-hand
    side is the one BRACKETS, the Cartan rows of WEIGHT_LABELS or SWAPS
    state, and zero where none does.  A bracket stated twice or on no
    such pair (a typo or a reversed pair) raises ValueError.  The tables
    are only read, so the rules can be built again after a change to
    them."""
    stated = list(BRACKETS.items())
    stated += [((h, g), ((weights[i], 0, g),))
               for i, h in enumerate(CARTAN_ORDER)
               for g, weights in WEIGHT_LABELS.items()]
    stated += [((h, g), ((entry[0], 0, entry[1]),))
               for gens, rows in SWAPS for h, row in rows.items()
               for g, entry in zip(gens, row) if entry]
    grade = {g: _grade(g) for g in GENERATORS}
    rank = {x: i for i, x in enumerate(dict.fromkeys(grade.values()))}
    pairs = sorted(((left, right) for i, left in enumerate(GENERATORS)
                    for right in GENERATORS[i:]
                    if left != right or _odd(left)),
                   key=lambda pair: [rank[grade[g]] for g in pair])
    counts = Counter(key for key, _ in stated)
    stray = sorted({key for key, n in counts.items() if n > 1}
                   | (counts.keys() - set(pairs)))
    if stray:
        raise ValueError(
            f"brackets stated twice or on no generator pair: {stray}")
    rhs = dict(stated)
    rules = []
    for left, right in pairs:
        x, y = grade[left], grade[right]
        block = f"within-g{x}" if x == y else f"g{x}-g{y}"
        rules.append(_r(block, left, right, *rhs.get((left, right), ())))
    return rules


RULES = _build_rules()
RULE_INDEX = {rule.rule_id: rule for rule in RULES}


# The Euclidean five-grading on R^(4p): mul_X and dirac are the odd
# generators, laplace and mul_r2 span the ends, h_total = Euler + 2p.
# Identities already in RULES are named by id, not restated.
EUCLIDEAN_RULES = [
    _r("osp12", "mul_X", "mul_X", (-2, 0, "mul_r2")),
    _r("osp12", "dirac", "dirac", (-2, 0, "laplace")),
    _r("osp12", "mul_X", "dirac",
       (-2, 0, "E_z"), (-2, 0, "E_z_dag"), (0, -4, "id")),
    _r("osp12", "h_total", "mul_X", (1, 0, "mul_X")),
    _r("osp12", "h_total", "dirac", (-1, 0, "dirac")),
    _r("osp12", "dirac", "mul_r2", (2, 0, "mul_X")),
    _r("osp12", "laplace", "mul_X", (2, 0, "dirac")),
    _r("osp12", "mul_X", "mul_r2"),
    _r("osp12", "dirac", "laplace"),
    RULE_INDEX["g2-g-2:laplace,mul_r2"],
]

# The hermitian system on the same space read with n = 2p complex
# variables; beta is the spin counter and h_herm the Cartan element that
# gives mul_z, mul_z_dag, dz, dz_dag weights +1, -1, -1, +1.
HERMITIAN_RULES = [
    _r("sl12", "beta", "mul_z", (-1, 0, "mul_z")),
    _r("sl12", "beta", "mul_z_dag", (1, 0, "mul_z_dag")),
    _r("sl12", "beta", "dz", (1, 0, "dz")),
    _r("sl12", "beta", "dz_dag", (-1, 0, "dz_dag")),
    *(RULE_INDEX[rule_id] for rule_id in (
        "g1-g-1:dz,mul_z", "g1-g-1:dz_dag,mul_z_dag",
        "g1-g-1:dz,mul_z_dag", "g1-g-1:dz_dag,mul_z",
        "within-g-1:mul_z,mul_z_dag", "within-g1:dz,dz_dag",
        "within-g-1:mul_z,mul_z", "within-g-1:mul_z_dag,mul_z_dag",
        "within-g1:dz,dz", "within-g1:dz_dag,dz_dag")),
    _r("sl12", "h_herm", "mul_z", (1, 0, "mul_z")),
    _r("sl12", "h_herm", "mul_z_dag", (-1, 0, "mul_z_dag")),
    _r("sl12", "h_herm", "dz", (-1, 0, "dz")),
    _r("sl12", "h_herm", "dz_dag", (1, 0, "dz_dag")),
    _r("sl12", "h_herm", "mul_r2"),
    _r("sl12", "h_herm", "laplace"),
    RULE_INDEX["g0-g-2:h_total,mul_r2"],
    RULE_INDEX["g0-g2:h_total,laplace"],
    _r("sl12", "h_herm", "h_total"),
]


# ------------------------------------------------------------ verification

def residue(rule, n):
    """The normal form of L R - R L - rhs (L R + R L - rhs for an
    anticommutator) over n variables, as a fresh dict; it is empty
    exactly when the rule holds on every bidegree (weyl)."""
    # imported on first use, so a run that checks no bracket does not
    # compile weyl: with no bytecode cache that is 1.2 ms of start-up
    from .weyl import compose, normal_form
    left, right = normal_form(rule.left, n), normal_form(rule.right, n)
    out = compose(left, right)
    axpy(out, compose(right, left), 1 if rule.kind == "acomm" else -1)
    return axpy(out, normal_form(rule.rhs, n), -1)


def verify_bracket(rule, a, b, cache, basis):
    """Check one rule exactly on all of P_{a,b} tensor the full spinor
    space, given as `basis` (space_basis(p, a, b)); `cache` is the
    `term_image` cache the bracket sides share.  Returns the witness of
    the first basis polynomial the rule fails on, or None when it holds.

    For each F, L(R F) - R(L F) - rhs(F) (+ R(L F) for an
    anticommutator) is summed into one dict, linearly over the terms of
    F, from single-term images, the operands' cached and the right-hand
    side's not (caching them raised the peak memory of the degree-wise
    table at (2, 2) by 10%).
    """
    s = 1 if rule.kind == "acomm" else -1
    sides = ((rule.left, rule.right, 1), (rule.right, rule.left, s))
    for F in basis:
        n, diff = F.n, {}
        for key, v in F.terms.items():
            for outer, inner, sign in sides:
                sv = sign * v
                for k, c in term_image(inner, key, n, cache).items():
                    axpy(diff, term_image(outer, k, n, cache), c * sv)
            axpy(diff, key_image(rule.rhs, key, n), -v)
        if diff:
            return {"a": a, "b": b, "basis": str(F),
                    "difference": str(SpinorPolynomial(n, diff)),
                    "rule": rule.rendered()}
    return None


def first_witness(rule, p):
    """None when the rule's `residue` at n = 2p is empty, so that it
    holds on every bidegree; else its first `verify_bracket` witness in
    grid order.

    That witness lies at total degree d0, the least derivative order
    sum(D) over the residue's keys: every residue term kills the
    polynomials of lower degree, and on x^D tensor e_in only the terms
    with that same D act, so nothing cancels there (faithfulness, weyl).
    d0 <= 4 for a bracket of two generators, so no space above degree 4
    is read.  Finding no witness at d0 raises RuntimeError naming the
    rule; it never passes the rule.
    """
    left = residue(rule, 2 * p)
    if not left:
        return None
    d0 = min(sum(D) for _, D, _, _ in left)
    for a in range(d0, -1, -1):
        found = verify_bracket(rule, a, d0 - a, {},
                               space_basis(p, a, d0 - a))
        if found is not None:
            return found
    raise RuntimeError(f"rule {rule.rule_id} has a nonempty residue at "
                       f"n = {2 * p} but no witness in degree {d0}")


def _rule_json(rule, p, **fields):
    """The report entry of one rule at rank p, with `fields` added: it
    passes exactly when `first_witness` finds none, else it carries the
    witness."""
    found = first_witness(rule, p)
    out = {"rule": rule.rule_id, "p": p, **fields, "passed": found is None}
    if found is not None:
        out["witness"] = found
    return out


def bidegrees_up_to(max_total_degree):
    return [(a, d - a) for d in range(max_total_degree + 1)
            for a in range(d, -1, -1)]


def verify_table(p, max_total_degree):
    """Every rule, reported on every bidegree with a+b <= max_total_degree.

    Returns one JSON entry per rule, in table order, each listing the
    bidegrees of the grid; a rule passes exactly when its `residue` is
    empty, which proves it on every bidegree at once.  A refuted rule
    carries its `first_witness`, the degree-wise oracle's first witness,
    which may lie above the grid: a residue is nonzero in some degree,
    so no grid is too small to refute it.  p must be a positive int and
    the degree a non-negative one (ValueError otherwise), so no grid is
    empty.
    """
    require_int("p", p, 1)
    require_int("max_total_degree", max_total_degree, 0)
    grid = bidegrees_up_to(max_total_degree)
    return [_rule_json(rule, p, bidegrees=[list(ab) for ab in grid])
            for rule in RULES]


# ------------------------------------------ Euclidean and hermitian systems

def verify_osp12_and_sl12(p):
    """Grading relations of the Euclidean system (m = 4p) and the hermitian
    system (n = 2p) on polynomials tensor S, each rule decided on every
    bidegree at once by its `residue`."""
    require_int("p", p, 1)
    out = {"p": p}
    for name, rules in (("euclidean", EUCLIDEAN_RULES),
                        ("hermitian", HERMITIAN_RULES)):
        out[name] = [_rule_json(r, p) for r in rules]
    out["passed"] = all(e["passed"]
                        for e in out["euclidean"] + out["hermitian"])
    return out
