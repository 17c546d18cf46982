"""Acceptance gate: one test per headline guarantee, each printing a
visible pass/fail line.  Scope and time budgets are fixed here; if an
engine change breaks a guarantee this file is where it shows up first.
"""

import math
import random
import time

from quatcliff import fischer as fi
from quatcliff import relations
from quatcliff.operators import apply, apply_word
from quatcliff.poly import SpinorPolynomial, space_basis
from quatcliff.scalars import xs


def announce(capsys, num, name, ok, extra=""):
    with capsys.disabled():
        state = "PASS" if ok else "FAIL"
        print(f"[criterion {num:02d}] {name}: {state}{extra}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def rand_combo(vectors, rng, n):
    F = SpinorPolynomial.zero(n)
    for v in vectors:
        c = rng.randint(-3, 3)
        if c:
            F = F + v.scale(xs(c))
    return F


def test_criterion_01_worked_example(capsys):
    t0 = time.perf_counter()
    ex = fi.example_decomposition()
    dt = time.perf_counter() - t0
    ok = (ex["passed"] and ex["only_expected_components"]
          and ex["rewrite_exact"] and dt < 5.0)
    announce(capsys, 1, "worked decomposition, exact and under 5s", ok,
             f" ({dt:.2f}s)")


def test_criterion_02_full_bracket_table(capsys):
    t0 = time.perf_counter()
    ok = True
    counts = {}
    for p in (1, 2):
        reports = relations.verify_table(p, 3)
        counts[p] = len(reports)
        ok = ok and len(reports) == 144 and all(r["passed"] for r in reports)
    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    announce(capsys, 2, "all 144 bracket rules, p in {1,2}, degree <= 3",
             ok, f" ({dt:.1f}s, {counts})")


def test_criterion_03_cell_triangle(capsys):
    ok = True
    for p in (1, 2, 3):
        out = fi.cells_check(p)
        ok = ok and out["passed"] and out["total_dim"] == 1 << (2 * p)
    announce(capsys, 3, "spinor cell triangle exact for p <= 3", ok)


def test_criterion_04_harmonic_tilings(capsys):
    ok = True
    for p in (1, 2):
        for total in range(0, 5):
            for a in range(total + 1):
                b = total - a
                rep = fi.symplectic_harmonic_decomposition(p, a, b)
                oracle = fi.harmonic_dim_oracle(p, a, b)
                ok = (ok and rep["passed"]
                      and rep["details"]["harmonic_dim"] == oracle)
                if not ok:
                    break
    announce(capsys, 4, "harmonic tilings with dimension oracle, "
                        "p in {1,2}, a+b <= 4", ok)


def test_criterion_05_sl2_structure(capsys):
    ok = True
    for p in (1, 2):
        for total in range(0, 5):
            for a in range(total + 1):
                b = total - a
                if a < b:
                    continue
                out = fi.sl2_module_checks(p, a, b)
                ok = ok and out["passed"]
    announce(capsys, 5, "ladder module checks, p <= 2, a+b <= 4", ok)


EXPECTED_EXCLUSIONS = {
    (1, 0, 0): {}, (1, 0, 1): {}, (1, 0, 2): {},
    (1, 1, 0): {2: "annihilated", 5: "annihilated", 6: "annihilated"},
    (1, 1, 1): {6: "coincides"},
    (1, 1, 2): {5: "annihilated", 6: "annihilated"},
    (2, 1, 0): {2: "annihilated", 13: "annihilated"},
    (2, 1, 1): {6: "coincides", 11: "annihilated"},
    (2, 1, 2): {6: "coincides"},
}


def test_criterion_06_sixteen_piece_grid(capsys):
    ok = True
    for (a, b, r), expected in EXPECTED_EXCLUSIONS.items():
        rep = fi.symplectic_harmonics_16_decomposition(2, a, b, r)
        got = {e["alpha"]: e["reason"] for e in rep["details"]["exclusions"]}
        ok = ok and rep["passed"] and got == expected
        ok = ok and rep["details"]["projection_orders_agree"]
        for e in rep["details"]["exclusions"]:
            if e["reason"] == "annihilated":
                ok = ok and bool(e["witness_source"]) and bool(e["factor"])
            else:
                ok = ok and e["kept_alpha"] == 5 and (
                    e["pair_union_rank"] == e["rank_5"] == e["rank_6"])
    announce(capsys, 6, "sixteen-factor grid at p=2 with rank witnesses",
             ok)


def test_criterion_07_graded_tilings_and_decompositions(capsys):
    rng = random.Random(20260816)
    ok = True
    for k in range(0, 4):
        out = fi.graded_tiling_check(1, k)
        expected = math.comb(k + 3, 3) * 4
        ok = (ok and out["passed"] and out["degree_dim"] == expected
              and out["degree_dim_expected"] == expected)
        for _ in range(25):
            F = SpinorPolynomial.zero(2)
            for a in range(k + 1):
                F = F + rand_combo(space_basis(1, a, k - a), rng, 2)
            rep = fi.decompose_polynomial(F, 1)
            rebuilt = SpinorPolynomial.zero(2)
            for c in rep.components:
                rebuilt = rebuilt + c["component"]
            ok = (ok and rep.passed and not rep.residual.terms
                  and rebuilt == F)
    announce(capsys, 7, "graded tilings p=1, k <= 3, plus 25 random "
                        "zero-residual splits per degree", ok)


def test_criterion_08_one_variable_families(capsys):
    ok = True
    for k in range(0, 5):
        out = fi.euclidean_fischer_dims(4, k)
        ok = ok and out["passed"]
        if k == 2:
            ok = ok and out["ambient_dim"] == 40
    for total in range(0, 4):
        for a in range(total + 1):
            out = fi.hermitian_fischer_dims(2, a, total - a)
            ok = ok and out["passed"]
    announce(capsys, 8, "four-variable and two-variable scalar families",
             ok)


def _random_harmonic(p, a, b, rng):
    if a < 0 or b < 0:
        return SpinorPolynomial.zero(2 * p)
    return rand_combo(fi.harmonic_space(p, a, b), rng, 2 * p)


def _laplace_case(rng):
    p, a, b = (1, 2, 2) if rng.random() < 0.5 else (2, 2, 1)
    T = _random_harmonic(p, a, b, rng)
    T = T + apply("mul_r2", _random_harmonic(p, a - 1, b - 1, rng))
    T = T + apply_word(("mul_r2", "mul_r2"),
                       _random_harmonic(p, a - 2, b - 2, rng))
    return "laplace", T, (p, a, b, 0)


def _p_case(rng):
    if rng.random() < 0.5:
        p, a, b, r = 2, 1, 1, 2
        C0 = rand_combo(space_basis(p, a, b, ("cell", 2, 2)), rng, 2 * p)
        C1 = rand_combo(space_basis(p, a, b, ("cell", 0, 0)), rng, 2 * p)
        T = C0 + apply("Q", C1)
    else:
        p, a, b, r = 1, 1, 0, 2
        C1 = rand_combo(space_basis(p, a, b, ("cell", 0, 0)), rng, 2 * p)
        T = apply("Q", C1)
    return "P", T, (p, a, b, r)


def _curly_case(rng):
    if rng.random() < 0.5:
        p, a, b = 1, 2, 2
        depth = 3
    else:
        p, a, b = 2, 1, 1
        depth = 2
    T = SpinorPolynomial.zero(2 * p)
    for i in range(depth):
        layer = rand_combo(
            fi.kernel_space(("curlyE",), p, a + i, b - i),
            rng, 2 * p)
        for _ in range(i):
            layer = apply("curlyE_dag", layer)
        T = T + layer
    return "curlyE", T, (p, a, b, 0)


def test_criterion_09_projection_formulas(capsys):
    rng = random.Random(99)
    makers = [_laplace_case] * 34 + [_p_case] * 33 + [_curly_case] * 33
    ok = True
    checked = 0
    for make in makers:
        kind, T, _ = make(rng)
        out = fi.project_ker(kind, T)
        lower = {"laplace": "laplace", "P": "P", "curlyE": "curlyE"}[kind]
        ok = ok and not apply(lower, out).terms
        ok = ok and fi.project_ker(kind, out) == out
        checked += 1
    ok = ok and checked == 100
    announce(capsys, 9, "kernel projections idempotent on 100 random "
                        "admissible inputs", ok)


def test_criterion_10_trivial_intersections(capsys):
    ok = True
    for p, a, b in [(1, 1, 0), (1, 2, 1), (1, 3, 0), (2, 1, 0),
                    (2, 2, 1)]:
        out = fi.trivial_intersection_check(p, a, b)
        ok = ok and out["passed"]
    announce(capsys, 10, "one-sided kernels meet the opposite tower "
                         "trivially", ok)
