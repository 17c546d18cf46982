"""The benchmark's workloads: their inputs and the checks on their outputs.

Each workload names the CLI call or library call it times, how many
checks one call attempts, and how the benchmark validates the result.
Inputs for ``decompose_stream`` come from the benchmark's own seeded
generator; the program only ever sees the generated polynomials.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

P = 2
SPINOR_DIM = 1 << (2 * P)

RELATIONS_ARGV = ["verify-relations", "--p", "2", "--max-degree", "2"]
RELATIONS_RULES = 144
RELATIONS_BIDEGREES = [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]

TILING_ARGV = ["fischer", "--p", "2", "--a", "2", "--b", "2",
               "--check", "thm10"]
TILING_DEGREE = 4

# decompose_stream: every input covers a nonempty subset of these
# bidegrees; one round visits each of the 63 subsets once.
STREAM_BIDEGREES = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
STREAM_SUBSETS = [list(c) for k in range(1, len(STREAM_BIDEGREES) + 1)
                  for c in combinations(STREAM_BIDEGREES, k)]

WORKLOADS = ("relations_p2", "tiling_p2", "decompose_stream")


def digest(obj):
    """sha256 of canonical JSON."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def deterministic_part(report):
    """A CLI report without its timing block and output path."""
    out = {k: v for k, v in report.items() if k != "timing"}
    if isinstance(out.get("config"), dict):
        out["config"] = dict(out["config"], output=None)
    return out


# ------------------------------------------------------- stream inputs

def _exponents(n, degree):
    """Exponent tuples of length n summing to degree, ascending."""
    if n == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree + 1)
            for rest in _exponents(n - 1, degree - e)]


def _term_keys(a, b):
    n = 2 * P
    return [(alpha, beta, mask) for alpha in _exponents(n, a)
            for beta in _exponents(n, b) for mask in range(SPINOR_DIM)]


_KEYS = {ab: _term_keys(*ab) for ab in STREAM_BIDEGREES}


def stream_round(seed):
    """The decompose_stream inputs: each nonempty subset of the six
    bidegrees once, in seeded order.  A bidegree occurs in 32 of the 63
    subsets; its 32 parts take the support sizes of a fixed log-uniform
    ladder from one term to the whole basis, dealt out in seeded order,
    so every seed does about the same amount of work.  Terms are drawn
    at random with Gaussian-integer coefficients, components in -3..3.

    Returns a list of {term key: (re, im)} dicts.
    """
    rng = random.Random(f"decompose_stream/{seed}")
    order = list(range(len(STREAM_SUBSETS)))
    rng.shuffle(order)
    sizes = {}
    for ab, keys in _KEYS.items():
        count = sum(ab in subset for subset in STREAM_SUBSETS)
        ladder = [max(1, round(len(keys) ** ((j + 0.5) / count)))
                  for j in range(count)]
        rng.shuffle(ladder)
        sizes[ab] = ladder
    inputs = []
    for idx in order:
        terms = {}
        for ab in STREAM_SUBSETS[idx]:
            for key in rng.sample(_KEYS[ab], sizes[ab].pop()):
                re, im = 0, 0
                while not (re or im):
                    re, im = rng.randint(-3, 3), rng.randint(-3, 3)
                terms[key] = (re, im)
        inputs.append(terms)
    return inputs


def _scalar_parts(c):
    """An ExtendedScalar as four Fractions, read from its fields."""
    return tuple(Fraction(q.numerator, q.denominator)
                 for q in (c.ar, c.ai, c.br, c.bi))


def check_decomposition(terms, report):
    """The residual is exactly zero and the components re-sum, in the
    benchmark's own Fraction arithmetic, to the input.  Returns a list of
    problems (empty when the output is right)."""
    problems = []
    if not report.passed:
        problems.append("report not passed")
    if report.residual is None or report.residual.terms:
        problems.append("nonzero residual")
    total = {}
    for comp in report.components:
        for key, c in comp["component"].terms.items():
            acc = total.get(key, (0, 0, 0, 0))
            total[key] = tuple(x + y for x, y in zip(acc, _scalar_parts(c)))
    total = {k: v for k, v in total.items() if any(v)}
    want = {k: (Fraction(re), Fraction(im), 0, 0)
            for k, (re, im) in terms.items()}
    if total != want:
        problems.append("components do not re-sum to the input")
    return problems


# ------------------------------------------------------- report checks

def check_relations(report, exit_code):
    """Returns (attempted, failed, problems) for a verify-relations
    report: 144 rules, each with a boolean `passed` over the six
    bidegrees of total degree <= 2."""
    problems = []
    try:
        rules = report["checks"]["relations"]["rules"]
    except (KeyError, TypeError):
        return RELATIONS_RULES, RELATIONS_RULES, ["no rule list in report"]
    if len(rules) != RELATIONS_RULES:
        problems.append(f"{len(rules)} rules, expected {RELATIONS_RULES}")
    ids = [r.get("rule") for r in rules]
    if len(set(ids)) != len(ids):
        problems.append("duplicate rule ids")
    failed = 0
    for rule in rules:
        ok = rule.get("passed")
        if not isinstance(ok, bool):
            problems.append(f"rule {rule.get('rule')}: no passed flag")
            ok = False
        if rule.get("bidegrees") != RELATIONS_BIDEGREES:
            problems.append(f"rule {rule.get('rule')}: wrong bidegrees")
        failed += not ok
    all_ok = failed == 0 and len(rules) == RELATIONS_RULES
    if report.get("passed") is not all_ok or exit_code != (0 if all_ok else 1):
        problems.append("verdict disagrees with the rule flags")
    failed += max(0, RELATIONS_RULES - len(rules))
    return RELATIONS_RULES, failed, problems


def check_tiling(report, exit_code, poly_dim):
    """Returns (attempted, failed, problems) for a thm10 report at p=2,
    degree 4: one check per bidegree, sum_of_dims == union_rank ==
    ambient_dim, with ambient_dim recomputed from `poly_dim`."""
    attempted = TILING_DEGREE + 1
    try:
        (entry,) = report["checks"]["thm10"]["degrees"]
        rows = entry["per_bidegree"]
    except (KeyError, TypeError, ValueError):
        return attempted, attempted, ["no per-bidegree list in report"]
    problems = []
    expected = [(a, TILING_DEGREE - a) for a in range(TILING_DEGREE, -1, -1)]
    if [(r.get("a"), r.get("b")) for r in rows] != expected:
        problems.append("bidegrees differ from (4,0)..(0,4)")
    failed = 0
    for row in rows:
        ambient = poly_dim(P, row["a"], row["b"]) * SPINOR_DIM
        ok = row["sum_of_dims"] == row["union_rank"] == ambient
        if row["ambient_dim"] != ambient:
            problems.append(f"({row['a']},{row['b']}): ambient_dim "
                            f"{row['ambient_dim']} != {ambient}")
        if row["ok"] is not ok:
            problems.append(f"({row['a']},{row['b']}): ok flag disagrees")
        failed += not ok
    degree_dim = comb(TILING_DEGREE + 4 * P - 1, 4 * P - 1) * SPINOR_DIM
    if entry.get("degree_dim") != degree_dim:
        problems.append(f"degree_dim {entry.get('degree_dim')} != {degree_dim}")
    all_ok = failed == 0 and len(rows) == attempted
    if report.get("passed") is not all_ok or exit_code != (0 if all_ok else 1):
        problems.append("verdict disagrees with the per-bidegree checks")
    failed += max(0, attempted - len(rows))
    return attempted, failed, problems
