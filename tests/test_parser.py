import random

import pytest

from argos.errors import ArityError, FormulaSyntaxError, UndeclaredEntityError
from argos.logic import (
    And,
    AtomNode,
    Entity,
    ForAll,
    Implies,
    Not,
    Var,
    format_formula,
)
from argos.parser import parse_formula, parse_literal


def test_implication_over_two_atoms():
    f = parse_formula("turns_white(fox, winter) -> reflects(fox, sun)")
    assert isinstance(f, Implies)
    assert isinstance(f.left, AtomNode)
    assert str(f.left.atom) == "turns_white(fox, winter)"
    assert str(f.right.atom) == "reflects(fox, sun)"


def test_negated_atom():
    f = parse_formula("~absorbs(white, sun)")
    assert isinstance(f, Not)
    assert str(f.operand.atom) == "absorbs(white, sun)"


def test_quantified_implication():
    f = parse_formula("forall x (MotherOf(x, Bob) -> ~Male(x))")
    assert isinstance(f, ForAll)
    assert f.var == Var("x")
    body = f.body
    assert isinstance(body, Implies)
    assert body.left.atom.args == (Var("x"), Entity("Bob"))


def test_chained_quantifiers():
    f = parse_formula("forall x forall y (M(x, y) -> ~L(y))")
    assert isinstance(f, ForAll)
    assert isinstance(f.body, ForAll)


def test_precedence():
    f = parse_formula("~A & B | C -> D <-> E")
    # ((((~A & B) | C) -> D) <-> E)
    assert format_formula(f) == "~A & B | C -> D <-> E"
    assert type(f).__name__ == "Iff"
    assert type(f.left).__name__ == "Implies"
    assert type(f.left.left).__name__ == "Or"
    assert type(f.left.left.left).__name__ == "And"
    assert type(f.left.left.left.left).__name__ == "Not"


def test_associativity():
    a, b, c = (parse_formula(t) for t in "ABC")
    assert parse_formula("A & B & C") == And(And(a, b), c)
    assert parse_formula("A -> B -> C") == Implies(a, Implies(b, c))


def test_syntax_error_carries_position():
    with pytest.raises(FormulaSyntaxError) as e:
        parse_formula("F(a) -> )")
    assert e.value.position == 8


def test_unexpected_character():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("F(a) + G(b)")


def test_arity_mismatch_within_one_parse():
    with pytest.raises(ArityError):
        parse_formula("F(a, b) & F(a)")


def test_arity_mismatch_across_shared_signature():
    sig = {}
    parse_formula("F(a, b)", signature=sig)
    with pytest.raises(ArityError):
        parse_formula("F(a)", signature=sig)


def test_strict_mode_rejects_undeclared_entities():
    with pytest.raises(UndeclaredEntityError):
        parse_formula("F(a)", entities=["b", "c"])
    parse_formula("F(b)", entities=["b", "c"])
    # bound variables are never entity references
    parse_formula("forall x (F(x))", entities=["b"])


def test_parse_literal():
    l = parse_literal("~absorbs(white, sun)")
    assert not l.positive
    with pytest.raises(FormulaSyntaxError):
        parse_literal("A & B")


def test_round_trip_fixed_cases():
    cases = [
        "A",
        "~~A",
        "A & (B & C)",
        "(A -> B) -> C",
        "A <-> (B <-> C)",
        "(A | B) & C",
        "~(A & B)",
        "forall x (F(x) | exists y (Q(x, y)))",
        "forall x forall y (Q(x, y))",
    ]
    for text in cases:
        f = parse_formula(text)
        printed = format_formula(f)
        assert parse_formula(printed) == f, text


def test_round_trip_random_formulas():
    from _oracles import random_quantified_formula

    rng = random.Random(9)
    universe = [Entity("A"), Entity("B"), Entity("C")]
    for _ in range(150):
        f = random_quantified_formula(rng, universe)
        printed = format_formula(f)
        assert parse_formula(printed) == f, printed
