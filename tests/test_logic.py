import random
import weakref

import pytest

from argos.errors import ArityError, GroundingError
from argos.logic import (
    RULE_MEMO_SIZE,
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
    ground,
    iter_atoms,
    lit,
    rule_memo,
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


def test_rule_memo_keeps_only_quantified_formulas():
    calls = []

    def text(f):
        calls.append(f)
        return str(f)

    memo = rule_memo()
    accepted = HornRule((lit("F", Entity("A")),), lit("G", Entity("A"))).to_formula()
    unquantified = [parse_formula("x1 | ~x2 | x3"), parse_formula("F(A)"), accepted]
    assert isinstance(accepted, Implies)
    for f in unquantified * 2:
        assert memo(text, f) == str(f)
    assert calls == unquantified * 2 and not memo.entries
    rule = parse_formula("forall x (F(x) -> G(x))")
    assert [memo(text, rule) for _ in range(3)] == [str(rule)] * 3
    assert calls[-1] is rule and len(calls) == 7
    # an entry is read only for the very object it was made for
    twin = parse_formula(str(rule))
    memo.entries[id(rule)] = (weakref.ref(twin), "stale")
    assert memo(text, rule) == str(rule)


def test_rule_memo_drops_the_entry_of_a_dead_formula():
    memo = rule_memo()
    kept, dropped = (parse_formula(f"forall x (F(x) -> {q}(x))") for q in "GH")
    assert [memo(str, kept), memo(str, dropped)] == [str(kept), str(dropped)]
    del dropped
    assert list(memo.entries) == [id(kept)]


def test_rule_memo_stays_within_its_bound():
    memo = rule_memo()
    body = Implies(AtomNode(Atom(Predicate("F", 1), (Var("x"),))),
                   AtomNode(Atom(Predicate("G", 0), ())))
    rules = [ForAll(Var(f"v{i}"), body) for i in range(RULE_MEMO_SIZE + 100)]
    for rule in rules + rules[:10] + rules[-10:]:
        assert memo(str, rule) == str(rule)
        assert len(memo.entries) <= RULE_MEMO_SIZE
    assert memo.entries
