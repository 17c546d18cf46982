"""The bracket rule table and its structural consequences.

The table itself is data; these tests replay it on exact matrices over
small bidegrees and check the derived module structure.  The sl(2)
triples and the Cartan weights are rows of the table, which checks them
on every bidegree; here the table is shown to catch a wrong triple
weight or a wrong weight label on exactly its own row.  The alternate
hermitian Cartan element gives the odd generators weight +-3, and the
joint kernel is stable.  The full p=2 sweep lives in the acceptance
suite.
"""

from itertools import combinations

import pytest

from quatcliff import relations
from quatcliff.fischer import (verify_qmonogenic_equivalence,
                               verify_qmonogenic_stability)
from quatcliff.operators import REGISTRY, apply, apply_expression
from quatcliff.poly import space_basis
from quatcliff.relations import (EUCLIDEAN_RULES, HERMITIAN_RULES, RULE_INDEX,
                                 RULES, bidegrees_up_to, verify_bracket,
                                 verify_osp12_and_sl12, verify_table)
from quatcliff.scalars import xs

# Rule ids of [e, f], [h, e] and [h, f] for each triple (h, e, f).  The
# radial triple is (h_total, mul_r2/2, -laplace/2); its identities are
# these rules up to those scalings.
SL2_TRIPLES = {
    "radial": ("g2-g-2:laplace,mul_r2", "g0-g-2:h_total,mul_r2",
               "g0-g2:h_total,laplace"),
    "cell": ("within-g0:P,Q", "within-g0:h_spin,P", "within-g0:h_spin,Q"),
    "twist": ("within-g0:curlyE,curlyE_dag", "within-g0:h_diff,curlyE",
              "within-g0:h_diff,curlyE_dag"),
}

# The other sign variant of the hermitian Cartan element; kept out of the
# asserted rule set because it gives the odd generators weight +-3.
H_ALT = ((1, 0, "E_z"), (-1, 0, "E_z_dag"), (0, 2, "id"), (-2, 0, "beta"))


# The grade of each generator of the table, -(da + db) for its shifts
# of z- and zbar-degree; the odd generators are those of grade +-1.
GRADES = {
    "h_total": 0, "h_diff": 0, "h_spin": 0, "curlyE": 0, "curlyE_dag": 0,
    "P": 0, "Q": 0,
    "dz": 1, "dz_dag": 1, "dzJ": 1, "dz_dagJ": 1,
    "mul_z": -1, "mul_z_dag": -1, "mul_zJ": -1, "mul_z_dagJ": -1,
    "laplace": 2, "mul_r2": -2,
}


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


def test_every_generator_pair_is_bracketed_once():
    # every pair of the 17 generators, an odd one with itself included and
    # an even one with itself left out, under a block naming their grades
    want = {frozenset((x, y)) for x, y in combinations(GRADES, 2)}
    want |= {frozenset((x,)) for x, grade in GRADES.items() if grade % 2}
    got = [frozenset((rule.left, rule.right)) for rule in RULES]
    assert len(got) == len(set(got)) and set(got) == want
    for rule in RULES:
        x, y = GRADES[rule.left], GRADES[rule.right]
        block = f"within-g{x}" if x == y else f"g{x}-g{y}"
        assert rule.rule_id == f"{block}:{rule.left},{rule.right}"


def test_a_dropped_bracket_fails_exactly_its_own_rule(monkeypatch):
    # a pair the tables do not state brackets to zero, so leaving out
    # [P, Q] = h_spin fails that rule alone, with a witness
    monkeypatch.delitem(relations.BRACKETS, ("P", "Q"))
    rules = relations._build_rules()
    monkeypatch.undo()
    basis = space_basis(1, 1, 1)
    cache = {}
    witnesses = {rule.rule_id: verify_bracket(rule, 1, 1, cache, basis)
                 for rule in rules}
    failed = [rule_id for rule_id, w in witnesses.items() if w is not None]
    assert failed == ["within-g0:P,Q"]
    assert witnesses["within-g0:P,Q"]["difference"]


@pytest.mark.parametrize("pair", [("mul_r2", "laplace"), ("h_spin", "dz")])
def test_a_stray_bracket_raises(monkeypatch, pair):
    # a reversed pair is read by no generator pair, and a Cartan row is
    # already stated by WEIGHT_LABELS
    monkeypatch.setitem(relations.BRACKETS, pair, ((1, 0, "id"),))
    with pytest.raises(ValueError, match="no generator pair"):
        relations._build_rules()


def test_no_stated_bracket_is_zero():
    # the tables hold only nonzero brackets; zero is every other pair
    assert all(relations.BRACKETS.values())
    assert all(all(weights) for weights in relations.WEIGHT_LABELS.values())
    for _, rows in relations.SWAPS:
        assert all(entry[0] for row in rows.values() for entry in row if entry)


def test_bidegree_grid():
    grid = bidegrees_up_to(2)
    assert grid == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_full_table_small():
    reports = verify_table(1, 2)
    assert len(reports) == 144
    bad = [r for r in reports if not r["passed"]]
    assert not bad, bad[:3]


def test_sl2_triples_read_the_rule_table():
    # each triple (h, e, f) is stated by three rules: [e, f] is a multiple
    # of h, [h, e] of e and [h, f] of f; the table's checks of those rows
    # are the triple's checks
    generators = {}
    for tname, rule_ids in SL2_TRIPLES.items():
        assert all(rule_id in RULE_INDEX for rule_id in rule_ids), tname
        ef, he, hf = (RULE_INDEX[rule_id] for rule_id in rule_ids)
        h, e, f = he.left, he.right, hf.right
        assert hf.left == h and {ef.left, ef.right} == {e, f}, tname
        for rule, target in ((ef, h), (he, e), (hf, f)):
            assert [name for *_, name in rule.rhs] == [target], rule.rule_id
        generators[tname] = (h, e, f)
    # across triples every generator pair has a commuting rule
    commuting = {frozenset((r.left, r.right)) for r in RULES if not r.rhs}
    for t1, t2 in combinations(sorted(generators), 2):
        for x in generators[t1]:
            for y in generators[t2]:
                assert frozenset((x, y)) in commuting, (t1, t2, x, y)


def bracket_difference(rule, F):
    """L(R F) - R(L F) - rhs(F) of one rule (+ R(L F) for an
    anticommutator), through apply alone."""
    LR = apply(rule.left, apply(rule.right, F))
    RL = apply(rule.right, apply(rule.left, F))
    return (LR + RL if rule.kind == "acomm" else LR - RL) \
        - apply_expression(rule.rhs, F)


def doubled(rule):
    """The rule with twice its right-hand side."""
    return relations.BracketRule(
        rule.rule_id, rule.kind, rule.left, rule.right,
        [(2 * c0, 2 * c1, name) for c0, c1, name in rule.rhs])


@pytest.mark.parametrize("p,a,b", [(1, 1, 1), (1, 2, 1), (2, 1, 1)])
def test_sl2_triples(p, a, b):
    # the table tells each triple's weights +-2 from +-4 on P_{a,b} x S:
    # [h, e] and [h, f] stated with twice their right-hand side fail there
    # with a witness
    basis = space_basis(p, a, b)
    cache = {}
    for tname, (_, *weight_ids) in SL2_TRIPLES.items():
        for rule_id in weight_ids:
            witness = verify_bracket(doubled(RULE_INDEX[rule_id]), a, b,
                                     cache, basis)
            assert witness, (tname, rule_id)


@pytest.mark.parametrize("p,a,b", [(1, 1, 1), (2, 1, 0)])
def test_cartan_weights(monkeypatch, p, a, b):
    # the Cartan rows read WEIGHT_LABELS: a wrong label fails exactly its
    # own row, with a witness
    monkeypatch.setitem(relations.WEIGHT_LABELS, "mul_z", (1, 1, -1))
    rules = relations._build_rules()
    monkeypatch.undo()
    assert relations.WEIGHT_LABELS["mul_z"] == (1, 1, 1)
    basis = space_basis(p, a, b)
    cache = {}
    failed = [rule.rule_id for rule in rules
              if verify_bracket(rule, a, b, cache, basis) is not None]
    assert failed == ["g0-g-1:h_spin,mul_z"]


@pytest.mark.parametrize("gen,weight", [
    ("mul_z", 3), ("mul_z_dag", -3), ("dz", -3), ("dz_dag", 3)])
def test_alternate_hermitian_cartan_weights(gen, weight):
    # [H_ALT, gen] = weight * gen on every basis monomial of P_{1,1} x S
    basis = space_basis(1, 1, 1)
    images = [apply(gen, F) for F in basis]
    assert any(images)
    for F, gF in zip(basis, images):
        bracket = (apply_expression(H_ALT, gF)
                   - apply(gen, apply_expression(H_ALT, F)))
        assert bracket == gF.scale(weight), str(F)


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
    wrong = relations.BracketRule("test/wrong", "acomm", "dz", "dz_dag",
                                  ((1, 0, "laplace"),))
    witness = relations.verify_bracket(wrong, 1, 1, {}, space_basis(1, 1, 1))
    assert witness is not None
    assert (witness["a"], witness["b"]) == (1, 1) and witness["difference"]


@pytest.mark.parametrize("rule", [
    doubled(RULE_INDEX["within-g0:h_diff,curlyE"]),
    relations.BracketRule("test/wrong", "acomm", "dz", "dz_dag",
                          ((1, 0, "laplace"),)),
    # a right-hand side with the p-dependent part (0, 2, "id")
    doubled(RULE_INDEX["g1-g-1:dz_dag,mul_z_dag"])],
    ids=["comm", "acomm", "p_dependent_rhs"])
def test_witness_is_the_uncached_bracket_difference(rule):
    # the one-dict accumulation over single-term images of both sides
    # reports the first failing monomial and the same difference as
    # applying each side to it in turn
    basis = space_basis(2, 1, 1)
    witness = verify_bracket(rule, 1, 1, {}, basis)
    first = next(F for F in basis if bracket_difference(rule, F))
    assert witness["basis"] == str(first)
    assert witness["difference"] == str(bracket_difference(rule, first))


def test_a_true_rule_holds_on_a_two_term_polynomial():
    # F is not a basis monomial: the check extends linearly over its terms
    m1, m2 = space_basis(2, 1, 1)[5:7]
    F = m1.scale(xs(1, 2)) + m2.scale(xs(3, -1))
    for rule_id in ("g1-g-1:dz,mul_z", "within-g0:h_diff,curlyE"):
        rule = RULE_INDEX[rule_id]
        assert verify_bracket(rule, 1, 1, {}, [F]) is None
        wrong = doubled(rule)
        witness = verify_bracket(wrong, 1, 1, {}, [F])
        assert witness["difference"] == str(bracket_difference(wrong, F))


def test_verify_table_rejects_a_bad_rank_or_degree():
    # p >= 1 and degree >= 0, as ints that are not bools; an empty grid
    # would otherwise pass every rule
    for args in [(1, -1), (0, 1), (True, 1), (1, 1.0)]:
        with pytest.raises(ValueError):
            verify_table(*args)
