"""The bracket rule table and its structural consequences.

The table itself is data; these tests replay it on exact matrices over
small bidegrees and check the derived module structure (sl(2) triples,
weight gradings, stability of the joint kernel).  The full p=2 sweep
lives in the acceptance suite.
"""

import pytest

from quatcliff import relations
from quatcliff.operators import REGISTRY
from quatcliff.poly import space_basis
from quatcliff.relations import (EUCLIDEAN_RULES, HERMITIAN_RULES, RULE_INDEX,
                                 RULES, SL2_TRIPLES, bidegrees_up_to,
                                 cartan_weight_report, verify_osp12_and_sl12,
                                 verify_qmonogenic_equivalence,
                                 verify_qmonogenic_stability,
                                 verify_sl2_triples, verify_table)


def test_table_shape():
    assert len(RULES) == 144
    ids = [r.rule_id for r in RULES]
    assert len(set(ids)) == len(ids)
    for rule in RULES:
        assert rule.kind in ("comm", "acomm")
        assert rule.left in REGISTRY and rule.right in REGISTRY
        for c0, c1, name in rule.rhs:
            assert name in REGISTRY


ODD = {"dz", "dz_dag", "dzJ", "dz_dagJ", "mul_z", "mul_z_dag", "mul_zJ",
       "mul_z_dagJ", "dirac", "dirac_I", "dirac_J", "dirac_K", "mul_X"}


def test_rule_parities():
    # anticommutators only between odd operators, commutators otherwise
    for rule in list(RULES) + list(EUCLIDEAN_RULES) + list(HERMITIAN_RULES):
        both_odd = rule.left in ODD and rule.right in ODD
        assert rule.kind == ("acomm" if both_odd else "comm"), rule.rule_id


def test_sub_table_sizes():
    assert len(EUCLIDEAN_RULES) == 10
    assert len(HERMITIAN_RULES) == 23
    for rule in list(EUCLIDEAN_RULES) + list(HERMITIAN_RULES):
        assert rule.kind in ("comm", "acomm")


def test_each_identity_is_stated_once():
    # a rule set shares an identity with RULES by naming its entry, so no
    # two distinct rule objects bracket the same pair of operators
    seen = {}
    restated = []
    for rule in list(RULES) + list(EUCLIDEAN_RULES) + list(HERMITIAN_RULES):
        key = (frozenset((rule.left, rule.right)), rule.kind)
        first = seen.setdefault(key, rule)
        if first is not rule:
            restated.append((first.rule_id, rule.rule_id))
    assert restated == []


def test_bidegree_grid():
    grid = bidegrees_up_to(2)
    assert grid == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_full_table_small():
    reports = verify_table(1, 2)
    assert len(reports) == 144
    bad = [r for r in reports if not r.passed]
    assert not bad, bad[:3]


def test_verify_table_deterministic_across_workers():
    seq = [(r.rule_id, r.passed) for r in verify_table(1, 1, workers=1)]
    par = [(r.rule_id, r.passed) for r in verify_table(1, 1, workers=2)]
    assert seq == par


@pytest.mark.parametrize("p,a,b", [(1, 1, 1), (1, 2, 1), (2, 1, 1)])
def test_sl2_triples(p, a, b):
    out = verify_sl2_triples(p, a, b)
    assert out["passed"], out
    assert set(out["triples"]) == set(SL2_TRIPLES)


def test_sl2_triples_read_the_rule_table(monkeypatch):
    rule = RULE_INDEX["within-g0:P,Q"]
    wrong = relations.BracketRule(rule.rule_id, rule.block, rule.kind,
                                  rule.left, rule.right, ((2, 0, "h_spin"),))
    monkeypatch.setitem(RULE_INDEX, rule.rule_id, wrong)
    out = verify_sl2_triples(1, 1, 1)
    assert out["triples"]["cell"]["[e,f]=h"] is False
    assert out["triples"]["cell"]["[h,e]=2e"] is True
    assert not out["passed"]


@pytest.mark.parametrize("p,a,b", [(1, 1, 1), (2, 1, 0)])
def test_cartan_weights(p, a, b):
    out = cartan_weight_report(p, a, b)
    assert out["consistent"], out


@pytest.mark.parametrize("h,gen,shown", [
    ("h_total", "mul_z", "1"),                # [h, O] = O
    ("P", "mul_z", "0"),                      # commute, O nonzero
    ("P", "mul_z_dag", "not proportional"),   # [P, O] is another generator
    ("h_total", "dz", None),                  # both sides vanish
    ("mul_z", "dz", "not proportional"),      # O vanishes, bracket does not
])
def test_weight_outcomes(h, gen, shown):
    basis = space_basis(1, 0, 0)
    assert relations._weight(((1, 0, h),), gen, basis, {})[1] == shown


@pytest.mark.parametrize("p,a,b", [(1, 1, 1), (1, 2, 1)])
def test_osp12_and_sl12(p, a, b):
    out = verify_osp12_and_sl12(p, a, b)
    assert out["passed"], out


@pytest.mark.parametrize("p,a,b", [(1, 1, 1), (1, 2, 1), (2, 1, 1)])
def test_qmonogenic_stability(p, a, b):
    out = verify_qmonogenic_stability(p, a, b)
    assert out["passed"], out


@pytest.mark.parametrize("p,a,b", [(1, 1, 1), (1, 2, 2), (2, 1, 1)])
def test_qmonogenic_equivalence(p, a, b):
    out = verify_qmonogenic_equivalence(p, a, b)
    assert out["passed"], out


def test_every_rule_renders():
    rules = list(RULES) + list(EUCLIDEAN_RULES) + list(HERMITIAN_RULES)
    rendered = {rule.rule_id: rule.rendered() for rule in rules}
    assert rendered["within-g0:h_diff,curlyE"] == "[h_diff, curlyE] = +2curlyE"
    assert rendered["within-g1:dz,dz_dag"] == "{dz, dz_dag} = +1/4laplace"
    assert rendered["g1-g-1:dz_dag,mul_z_dag"] == (
        "{dz_dag, mul_z_dag} = +E_z_dag +2p1 -beta")
    assert rendered["osp12:mul_X,dirac"] == (
        "{mul_X, dirac} = -2E_z -2E_z_dag -4p1")


def test_witness_on_forced_failure():
    # a deliberately wrong rule must fail with a concrete witness
    wrong = relations.BracketRule("test/wrong", "g1", "acomm", "dz",
                                  "dz_dag", ((1, 0, "laplace"),))
    report = relations.verify_bracket(wrong, 1, 1, 1, {},
                                      space_basis(1, 1, 1))
    assert not report.passed
    assert report.witness is not None


def test_worker_env_must_be_a_positive_integer():
    with pytest.raises(ValueError):
        verify_table(1, 0, workers=0)
