import copy
import pickle
import random

import pytest

from argos.errors import ArityError, GroundingError
from argos.logic import (
    And,
    Atom,
    AtomNode,
    Entity,
    ForAll,
    HornRule,
    Implies,
    Literal,
    Not,
    Predicate,
    Var,
    bind,
    ground,
    instantiate,
    iter_atoms,
    lit,
    rule_view,
    unify,
)
from argos.parser import parse_formula

from _oracles import related


def test_negate_flips_sign():
    l = lit("F", Entity("A"))
    assert str(l) == "F(A)"
    assert str(l.negate()) == "~F(A)"
    assert l.negate().negate() == l


def test_negate_involution_random():
    rng = random.Random(1)
    names = ["p", "q", "r"]
    ents = [Entity(n) for n in "ABC"]
    for _ in range(50):
        arity = rng.randint(0, 2)
        l = Literal(
            Atom(Predicate(rng.choice(names), arity), tuple(rng.choices(ents, k=arity))),
            positive=rng.random() < 0.5,
        )
        assert l.negate().negate() == l
        assert l.negate() != l


def test_arity_checked_on_construction():
    with pytest.raises(ArityError):
        Atom(Predicate("F", 2), (Entity("A"),))


def test_related_shares_entity():
    mother = lit("MotherOf", Entity("Alice"), Entity("Bob"))
    not_male = lit("Male", Entity("Alice"), positive=False)
    assert related(mother, not_male)


def test_related_identical_and_disjoint():
    fa = lit("F", Entity("A"))
    gb = lit("G", Entity("B"))
    assert related(fa, fa)
    assert not related(fa, gb)


def test_related_symmetric_reflexive_random():
    rng = random.Random(7)
    ents = [Entity(n) for n in "ABCD"]
    for _ in range(80):
        a1 = rng.randint(1, 2)
        a2 = rng.randint(1, 2)
        l1 = lit("f", *rng.choices(ents, k=a1))
        l2 = lit("g", *rng.choices(ents, k=a2))
        assert related(l1, l2) == related(l2, l1)
        assert related(l1, l1)


def test_zero_ary_literal_related_to_nothing():
    a = lit("A")
    assert not related(a, a)
    assert not related(a, lit("F", Entity("X")))


def test_ground_forall_expands_to_conjunction():
    f = parse_formula("forall x (F(x))")
    g = ground(f, [Entity("A"), Entity("B")])
    assert str(g) == "F(A) & F(B)"


def test_ground_exists_singleton_collapses():
    f = parse_formula("exists x (F(x))")
    g = ground(f, [Entity("A")])
    assert str(g) == "F(A)"


def test_ground_nested_two_by_two():
    # exactly the four hand-enumerated instantiations, conjoined
    f = parse_formula("forall x forall y (M(x, y) -> ~L(y))")
    g = ground(f, [Entity("A"), Entity("B")])

    def conjuncts(node):
        if isinstance(node, And):
            return conjuncts(node.left) + conjuncts(node.right)
        return [node]

    got = {str(c) for c in conjuncts(g)}
    assert got == {
        "M(A, A) -> ~L(A)",
        "M(A, B) -> ~L(B)",
        "M(B, A) -> ~L(A)",
        "M(B, B) -> ~L(B)",
    }


def test_ground_empty_universe_rejected():
    f = parse_formula("forall x (F(x))")
    with pytest.raises(GroundingError):
        ground(f, [])


def test_ground_depth_limit():
    f = parse_formula("forall x (F(x))")
    for _ in range(9):
        f = ForAll(Var("y"), f)
    with pytest.raises(GroundingError):
        ground(f, [Entity("A")])


def test_ground_output_has_no_variables():
    f = parse_formula("forall x exists y (Q(x, y) | P(x))")
    g = ground(f, [Entity("A"), Entity("B"), Entity("C")])
    assert all(a.is_ground for a in iter_atoms(g))


def test_grounding_matches_semantics_random():
    # grounded formula must evaluate identically to quantifier semantics,
    # assignment by assignment, over the shared ground-atom pool
    from _oracles import random_quantified_formula, semantic_models_mask

    rng = random.Random(42)
    universe = [Entity("A"), Entity("B"), Entity("C")]
    for _ in range(60):
        f = random_quantified_formula(rng, universe)
        mask_direct, atoms = semantic_models_mask(f, universe)
        mask_grounded, atoms2 = semantic_models_mask(ground(f, universe), universe)
        assert atoms == atoms2
        assert mask_direct == mask_grounded


def test_formula_structural_equality():
    a = AtomNode(Atom(Predicate("A", 0), ()))
    b = AtomNode(Atom(Predicate("B", 0), ()))
    assert Implies(a, b) == Implies(a, b)
    assert And(a, b) != And(b, a)
    assert Not(Not(a)) != a


def _counting(fn):
    calls = []

    def counted(f):
        calls.append(f)
        return fn(f)

    return counted, calls


def test_rule_view_passes_other_formulas_through():
    text, calls = _counting(str)
    accepted = HornRule((lit("F", Entity("A")),), lit("G", Entity("A"))).to_formula()
    unquantified = [parse_formula("x1 | ~x2 | x3"), parse_formula("F(A)"), accepted]
    assert isinstance(accepted, Implies)
    for f in unquantified * 2:
        assert rule_view(text, f) == str(f)
    assert calls == unquantified * 2
    assert not any(hasattr(f, "_views") for f in unquantified)


def test_rule_view_computes_once_per_rule_and_function():
    rule = parse_formula("forall x (F(x) -> G(x))")
    text, texts = _counting(str)
    horn, readings = _counting(HornRule.from_formula)
    assert [rule_view(text, rule) for _ in range(3)] == [str(rule)] * 3
    assert [rule_view(horn, rule) for _ in range(3)] == [HornRule.from_formula(rule)] * 3
    assert texts == [rule] and readings == [rule]
    # a None view is kept too: this rule has no Horn reading
    other = parse_formula("forall x (F(x) | G(x))")
    horn_other, calls = _counting(HornRule.from_formula)
    assert [rule_view(horn_other, other) for _ in range(2)] == [None, None]
    assert calls == [other]


def test_equal_rules_compute_their_own_views():
    rule = parse_formula("forall x (F(x) -> G(x))")
    twin = parse_formula(str(rule))
    text, calls = _counting(str)
    assert rule == twin and rule is not twin
    assert rule_view(text, rule) == rule_view(text, twin) == str(rule)
    assert calls == [rule, twin] and calls[1] is twin


def test_copied_rules_carry_no_views():
    rule = parse_formula("forall x forall y (F(x, y) -> G(y, x))")
    text, calls = _counting(str)
    rule_view(text, rule)
    assert calls == [rule]
    for copied in (pickle.loads(pickle.dumps(rule)), copy.deepcopy(rule), copy.copy(rule)):
        assert copied == rule and hash(copied) == hash(rule) and repr(copied) == repr(rule)
        assert not hasattr(copied, "_views")
        assert rule_view(text, copied) == str(rule)
        assert calls[-1] is copied
    assert len(calls) == 4


# --- matching --------------------------------------------------------------------

X, Y = Var("x"), Var("y")
A, B = Entity("A"), Entity("B")


def test_unify_binds_variables_and_keeps_constants():
    theta = {"y": B}
    assert unify(lit("F", X, Y), lit("F", A, B), theta) == {"x": A, "y": B}
    assert unify(lit("F", X, A), lit("F", B, A), {}) == {"x": B}
    assert unify(lit("F", X, X), lit("F", A, A), {}) == {"x": A}
    assert theta == {"y": B}


@pytest.mark.parametrize("pattern,fact,theta", [
    (lit("F", X, positive=False), lit("F", A), {}),  # sign
    (lit("F", X), lit("G", A), {}),  # predicate
    (lit("F", X, A), lit("F", A, B), {}),  # constant
    (lit("F", X, X), lit("F", A, B), {}),  # rebinding within the pattern
    (lit("F", X), lit("F", A), {"x": B}),  # rebinding what theta binds
])
def test_unify_fails_and_leaves_theta_unchanged(pattern, fact, theta):
    before = dict(theta)
    assert unify(pattern, fact, theta) is None
    assert theta == before


def test_bind_unifies_each_pattern_with_the_fact_beside_it():
    patterns = (lit("F", X, Y), lit("G", Y))
    theta = {}
    assert bind(patterns, (lit("F", A, B), lit("G", B)), theta) == {"x": A, "y": B}
    assert bind(patterns, (lit("F", A, B), lit("G", A)), theta) is None
    assert theta == {}


def test_instantiate_needs_every_variable_bound():
    assert instantiate(lit("F", X, A, positive=False), {"x": B}) == lit("F", B, A, positive=False)
    assert instantiate(lit("F", X, Y), {"x": A}) is None
    assert instantiate(lit("F", A), {}) == lit("F", A)
