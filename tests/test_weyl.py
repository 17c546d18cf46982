"""Normal forms in Weyl tensor End(S), and the bracket proof built on them.

A normal form is checked against the operator it stands for by acting
with it on every basis key of low degree.  The proof of the rule table
is checked against the degree-wise oracle, `verify_bracket` on every
rule and bidegree: the reports must be equal, with and without a
mutated rule, five mutants must each leave a nonempty residue, and a
rule refuted only above the grid still fails with the oracle's witness.
A doubled rule fails `cells_check` and the Euclidean system.  The
Euclidean and hermitian systems and the Fischer adjoint pairs of
tests/test_operators.py are proved in normal form for p = 1, 2, 3.
"""

import math
from fractions import Fraction

import pytest

from quatcliff import fischer, relations
from quatcliff.operators import REGISTRY, apply
from quatcliff.poly import space_basis
from quatcliff.relations import (EUCLIDEAN_RULES, HERMITIAN_RULES, RULE_INDEX,
                                 RULES, BracketRule, bidegrees_up_to,
                                 first_witness, residue, verify_bracket,
                                 verify_osp12_and_sl12, verify_table)
from quatcliff.weyl import compose, normal_form


def act(form, key, n):
    """x^X d^D tensor E_{o,i} on the key (alpha, beta, A): the product of
    e!/(e-d)! over the exponents e of alpha + beta times the shifted key
    when A = i, and zero otherwise; summed over the normal form."""
    alpha, beta, mask = key
    exps = alpha + beta
    out = {}
    for (X, D, o, i), c in form.items():
        if i != mask or any(d > e for d, e in zip(D, exps)):
            continue
        f = math.prod(math.perm(e, d) for e, d in zip(exps, D))
        moved = tuple(e - d + x for e, d, x in zip(exps, D, X))
        k = (moved[:n], moved[n:], o)
        out[k] = out.get(k, 0) + c * f
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_normal_form_is_the_operator(name, p):
    n = 2 * p
    form = normal_form(name, n)
    assert form
    for a, b in bidegrees_up_to(2):
        for F in space_basis(p, a, b):
            (key,) = F.terms
            assert act(form, key, n) == apply(name, F).terms, (name, key)


def test_leibniz_reorders_a_derivative_past_its_variable():
    # d x = x d + 1 and d^2 x^2 = x^2 d^2 + 4 x d + 2, in one variable of
    # the n = 1 block of z
    x = {((1, 0), (0, 0), 0, 0): 1}
    d = {((0, 0), (1, 0), 0, 0): 1}
    assert compose(d, x) == {((1, 0), (1, 0), 0, 0): 1,
                             ((0, 0), (0, 0), 0, 0): 1}
    assert compose(compose(d, d), compose(x, x)) == {
        ((2, 0), (2, 0), 0, 0): 1, ((1, 0), (1, 0), 0, 0): 4,
        ((0, 0), (0, 0), 0, 0): 2}


def degree_wise(rules, p, max_total_degree):
    """The report of verify_table for `rules`, built from verify_bracket
    on every rule and bidegree of the grid, with no normal form."""
    grid = bidegrees_up_to(max_total_degree)
    witnesses = {rule: None for rule in rules}
    for a, b in grid:
        basis = space_basis(p, a, b)
        cache = {}
        for rule in rules:
            w = verify_bracket(rule, a, b, cache, basis)
            if witnesses[rule] is None:
                witnesses[rule] = w
    out = []
    for rule in rules:
        entry = {"rule": rule.rule_id, "p": p,
                 "bidegrees": [list(ab) for ab in grid],
                 "passed": witnesses[rule] is None}
        if witnesses[rule] is not None:
            entry["witness"] = witnesses[rule]
        out.append(entry)
    return out


@pytest.mark.parametrize("p,degree", [(1, 3), (2, 2)])
def test_the_proof_agrees_with_the_degree_wise_table(p, degree):
    report = verify_table(p, degree)
    assert report == degree_wise(RULES, p, degree)
    assert all(entry["passed"] for entry in report)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_every_rule_has_an_empty_residue(p):
    rules = list(RULES) + list(EUCLIDEAN_RULES) + list(HERMITIAN_RULES)
    assert [rule.rule_id for rule in rules if residue(rule, 2 * p)] == []


def _mutant(rule_id, rhs=None, kind=None):
    rule = RULE_INDEX[rule_id]
    return BracketRule(rule.rule_id, kind or rule.kind, rule.left,
                       rule.right, rule.rhs if rhs is None else rhs)


MUTANTS = {
    "doubled_E_z": _mutant("g1-g-1:dz,mul_z",
                           ((2, 0, "E_z"), (1, 0, "beta"))),
    "half_laplace": _mutant("within-g1:dz,dz_dag",
                            ((Fraction(1, 2), 0, "laplace"),)),
    "extra_p_id": _mutant("g1-g-1:dzJ,mul_zJ",
                          RULE_INDEX["g1-g-1:dzJ,mul_zJ"].rhs
                          + ((0, 1, "id"),)),
    "comm_as_acomm": _mutant("within-g0:h_diff,curlyE", kind="acomm"),
    "wrong_weight": _mutant("g0-g-1:h_spin,mul_z", ((-1, 0, "mul_z"),)),
}


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_mutant_fails_the_proof_and_keeps_its_witness(monkeypatch, name,
                                                        p):
    mutant = MUTANTS[name]
    assert residue(mutant, 2 * p)
    rules = [mutant if rule.rule_id == mutant.rule_id else rule
             for rule in RULES]
    monkeypatch.setattr(relations, "RULES", rules)
    report = verify_table(p, 2)
    failed = [entry for entry in report if not entry["passed"]]
    assert [entry["rule"] for entry in failed] == [mutant.rule_id]
    assert failed == degree_wise([mutant], p, 2)
    assert failed[0]["witness"]["difference"]


@pytest.mark.parametrize("p", [1, 2])
def test_a_mutant_fails_above_the_grid(monkeypatch, p):
    # {dz, dz_dag} = laplace/2 holds in degrees 0 and 1, so the degree-wise
    # table at degree 1 passes it; its residue still fails it, with the
    # oracle's first witness, at (1, 1)
    mutant = MUTANTS["half_laplace"]
    assert degree_wise([mutant], p, 1)[0]["passed"]
    monkeypatch.setattr(relations, "RULES", [
        mutant if rule.rule_id == mutant.rule_id else rule for rule in RULES])
    failed = [entry for entry in verify_table(p, 1) if not entry["passed"]]
    assert [entry["rule"] for entry in failed] == [mutant.rule_id]
    witness = failed[0]["witness"]
    assert witness == degree_wise([mutant], p, 2)[0]["witness"]
    assert (witness["a"], witness["b"]) == (1, 1)


def test_a_residue_with_no_witness_raises(monkeypatch):
    # a refuted rule is never passed: an oracle that finds no witness in
    # degree d0 contradicts faithfulness, and the error names the rule
    monkeypatch.setattr(relations, "verify_bracket", lambda *args: None)
    mutant = MUTANTS["half_laplace"]
    with pytest.raises(RuntimeError, match=mutant.rule_id):
        first_witness(mutant, 1)
    assert first_witness(RULE_INDEX[mutant.rule_id], 1) is None


def doubled(rule):
    """The rule with every coefficient of its right-hand side doubled."""
    return BracketRule(rule.rule_id, rule.kind, rule.left, rule.right,
                       [(2 * c0, 2 * c1, name) for c0, c1, name in rule.rhs])


@pytest.mark.parametrize("p", [1, 2])
def test_a_doubled_rule_fails_cells_and_the_euclidean_system(monkeypatch,
                                                             p):
    pq = RULE_INDEX["within-g0:P,Q"]
    monkeypatch.setitem(relations.RULE_INDEX, pq.rule_id, doubled(pq))
    report = fischer.cells_check(p)
    assert report["checks"]["pq_commutator"] is False
    assert not report["passed"]

    # {dirac, dirac} = -4 laplace leaves the residue 2 laplace, first
    # nonzero in degree 2
    (rule,) = [r for r in EUCLIDEAN_RULES if r.rule_id == "osp12:dirac,dirac"]
    mutant = doubled(rule)
    monkeypatch.setattr(relations, "EUCLIDEAN_RULES", [
        mutant if r is rule else r for r in EUCLIDEAN_RULES])
    out = verify_osp12_and_sl12(p)
    failed = [e for e in out["euclidean"] + out["hermitian"]
              if not e["passed"]]
    assert [e["rule"] for e in failed] == [mutant.rule_id]
    assert failed[0]["witness"] == degree_wise([mutant], p, 2)[0]["witness"]
    assert not out["passed"]


def star(form):
    """The Fischer adjoint of a normal form: x^X d^D tensor E_{o,i} with
    coefficient c goes to x^D d^X tensor E_{i,o} with conj(c)."""
    return {(D, X, i, o): c.conjugate() for (X, D, o, i), c in form.items()}


# the pairs (op, adjoint, scale) of test_fischer_adjoint_is_exact_
# conjugate_transpose in tests/test_operators.py
FISCHER_PAIRS = [
    ("mul_z", "dz", 1), ("mul_z_dag", "dz_dag", 1), ("mul_zJ", "dzJ", 1),
    ("mul_z_dagJ", "dz_dagJ", 1), ("curlyE", "curlyE_dag", 1), ("P", "Q", 1),
    ("mul_r2", "laplace", Fraction(1, 4)), ("E_z", "E_z", 1),
    ("beta", "beta", 1)]


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("op,adjoint,scale", FISCHER_PAIRS)
def test_fischer_adjoint_holds_in_normal_form(op, adjoint, scale, p):
    n = 2 * p
    assert star(normal_form(op, n)) == {
        key: scale * c for key, c in normal_form(adjoint, n).items()}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_a_wrong_adjoint_scale_fails_in_normal_form(p):
    n = 2 * p
    assert star(normal_form("mul_r2", n)) != normal_form("laplace", n)
