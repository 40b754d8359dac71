import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argos import _satcore
from argos import cnf as cnf_mod
from argos.cnf import CnfBuilder
from argos.errors import GroundingError
from argos.kinship import generate_kinship
from argos.logic import (
    And,
    Atom,
    AtomNode,
    Entity,
    ForAll,
    Implies,
    Not,
    Or,
    Predicate,
    Var,
    ground,
)
from argos.parser import parse_formula
from argos.sat import SatSession

from _oracles import (
    cnf_models_mask,
    random_ground_formula,
    random_quantified_formula,
    semantic_models_mask,
    semantically_satisfiable,
)


def _clauses(formulas):
    builder = CnfBuilder()
    for f in formulas:
        builder.assert_formula(f)
    return builder.cs


def _satisfiable(cs) -> bool:
    solver = _satcore.Solver(cs.num_vars)
    solver.add_clauses(cs.clauses)
    return solver.solve() == _satcore.SAT


def test_implication_becomes_single_clause():
    cs = _clauses([parse_formula("A -> B")])
    a = cs.var_map[parse_formula("A").atom]
    b = cs.var_map[parse_formula("B").atom]
    assert cs.clauses == [[-a, b]]
    assert not cs.aux_vars


def test_contradiction_unsatisfiable():
    cs = _clauses([parse_formula("A & ~A")])
    assert not _satisfiable(cs)


def test_biconditional_models_match_truth_table():
    # models restricted to {a,b,c} must equal the truth table of (A|B) <-> C
    cs = _clauses([parse_formula("(A | B) <-> C")])
    names = ["A", "B", "C"]
    vars_ = {n: cs.var_map[parse_formula(n).atom] for n in names}
    projected = set()
    n_all = cs.num_vars
    for bits in itertools.product([False, True], repeat=n_all):
        assignment = {v: bits[v - 1] for v in range(1, n_all + 1)}
        if all(any(assignment[abs(l)] == (l > 0) for l in cl) for cl in cs.clauses):
            projected.add(tuple(assignment[vars_[n]] for n in names))
    expected = {
        (a, b, c)
        for a, b, c in itertools.product([False, True], repeat=3)
        if (a or b) == c
    }
    assert projected == expected


def test_var_map_covers_every_atom():
    f = parse_formula("~(P(a) & Q(a, b)) | (R <-> P(b))")
    cs = _clauses([f])
    names = {str(atom) for atom in cs.var_map}
    assert names == {"P(a)", "Q(a, b)", "R", "P(b)"}


def test_aux_vars_flagged_and_disjoint():
    cs = _clauses([parse_formula("(A & B) | (C & D)")])
    assert cs.aux_vars
    assert cs.aux_vars.isdisjoint(set(cs.var_map.values()))
    assert len(set(cs.var_map.values())) == len(cs.var_map)


def test_equisatisfiable_random_ground_formulas():
    rng = random.Random(31)
    for _ in range(200):
        f = random_ground_formula(rng, num_atoms=6)
        cs = _clauses([f])
        got = _satisfiable(cs)
        want = semantically_satisfiable(f, [])
        assert got == want


def test_equisatisfiable_random_quantified_formulas():
    rng = random.Random(5)
    universe = [Entity("A"), Entity("B")]
    for _ in range(100):
        f = random_quantified_formula(rng, universe, max_quantifiers=2, max_atoms=7)
        g = ground(f, universe)
        cs = _clauses([g])
        got = _satisfiable(cs)
        want = semantically_satisfiable(f, universe)
        assert got == want


def test_dimacs_export():
    cs = _clauses([parse_formula("A -> B"), parse_formula("A")])
    text = cs.to_dimacs()
    lines = text.strip().splitlines()
    header = [l for l in lines if l.startswith("p cnf")]
    assert header == [f"p cnf {cs.num_vars} {len(cs.clauses)}"]
    for line in lines:
        if not line.startswith(("c", "p")):
            assert line.endswith(" 0")


# --- quantified clauses as literal templates ---------------------------------

_ENTITIES = [Entity("A"), Entity("B"), Entity("C")]
_PREDICATES = [Predicate("p", 0), Predicate("q", 1), Predicate("r", 2)]


def _lit(atom, positive):
    node = AtomNode(atom)
    return node if positive else Not(node)


def _negated(lits):
    return [(atom, not positive) for atom, positive in lits]


@st.composite
def _disjunction(draw, lits):
    """A formula equivalent to the disjunction of ``lits``, written through
    Or, Implies, negated And and double negation."""
    if len(lits) == 1:
        atom, positive = lits[0]
        node = _lit(atom, positive)
        return Not(Not(node)) if draw(st.booleans()) else node
    cut = draw(st.integers(1, len(lits) - 1))
    left, right = lits[:cut], lits[cut:]
    shape = draw(st.sampled_from(["or", "implies", "not-and"]))
    if shape == "or":
        return Or(draw(_disjunction(left)), draw(_disjunction(right)))
    if shape == "implies":
        return Implies(draw(_conjunction(_negated(left))), draw(_disjunction(right)))
    return Not(draw(_conjunction(_negated(lits))))


@st.composite
def _conjunction(draw, lits):
    """A formula equivalent to the conjunction of ``lits``."""
    if len(lits) == 1:
        atom, positive = lits[0]
        return _lit(atom, positive)
    cut = draw(st.integers(1, len(lits) - 1))
    if draw(st.booleans()):
        return And(draw(_conjunction(lits[:cut])), draw(_conjunction(lits[cut:])))
    return Not(draw(_disjunction(_negated(lits))))


@st.composite
def _universal_clause(draw):
    """A universal clause over 0-3 variables with constants and repeated
    variables, and a universe of 1-3 entities."""
    members = _ENTITIES[: draw(st.integers(1, 3))]
    names = ["x", "y", "z"][: draw(st.integers(0, 3))]
    terms = st.sampled_from([Var(n) for n in names] + members)
    lits = []
    for _ in range(draw(st.integers(1, 3))):
        predicate = draw(st.sampled_from(_PREDICATES))
        args = tuple(draw(terms) for _ in range(predicate.arity))
        lits.append((Atom(predicate, args), draw(st.booleans())))
    f = draw(_disjunction(lits))
    for name in reversed(names):
        f = ForAll(Var(name), f)
    return f, members


def _projected_models(cs, atoms):
    """The semantic_models_mask-style mask of cs's models projected onto atoms."""
    n = cs.num_vars
    mask = cnf_models_mask(cs.clauses, n)
    index = [cs.var_map[a] - 1 for a in atoms]
    out = 0
    for i in range(1 << n):
        if mask >> i & 1:
            out |= 1 << sum(1 << j for j, bit in enumerate(index) if i >> bit & 1)
    return out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_universal_clause())
def test_template_models_match_semantics(case):
    f, members = case
    cs = SatSession([f], universe=members).clause_set()
    want, atoms = semantic_models_mask(f, members)
    assert set(cs.var_map) == set(atoms)
    assert not cs.aux_vars
    assert _projected_models(cs, atoms) == want


def _atom(name, *args):
    return AtomNode(Atom(Predicate(name, len(args)), args))


def _depth_nine():
    f = _atom("F", Var("x0"))
    for i in range(9):
        f = ForAll(Var(f"x{i}"), f)
    return f


_ERRORS = {
    "empty universe": (parse_formula("forall x (F(x))"), []),
    "unbound variable": (
        ForAll(Var("x"), Implies(_atom("F", Var("x"), Var("y")), _atom("G", Var("x")))),
        [Entity("A")],
    ),
    "unbound without quantifier": (
        Or(_atom("F", Var("x")), _atom("G", Entity("A"))),
        [Entity("A")],
    ),
    "depth above limit": (_depth_nine(), [Entity("A")]),
}


@pytest.mark.parametrize("case", sorted(_ERRORS))
def test_template_errors_match_ground(case):
    f, members = _ERRORS[case]
    with pytest.raises(GroundingError) as want:
        ground(f, members)
    with pytest.raises(GroundingError) as got:
        SatSession([f], universe=members)
    assert str(got.value) == str(want.value)


def test_shadowed_variable_falls_back_to_ground():
    # The inner x shadows the outer one, as ground() reads it.
    f = parse_formula("forall x forall x (F(x) -> G(x))")
    members = [Entity("A"), Entity("B")]
    cs = SatSession([f], universe=members).clause_set()
    want = SatSession([ground(f, members)]).clause_set()
    assert cs.clauses == want.clauses and cs.var_map == want.var_map


def test_mirrored_disjointness_pair_emits_each_instance_once():
    members = [Entity(name) for name in "ABC"]
    pair = [
        parse_formula("forall x forall y (aunt(x, y) -> ~brother(x, y))"),
        parse_formula("forall x forall y (brother(x, y) -> ~aunt(x, y))"),
    ]
    cs = SatSession(pair, universe=members).clause_set()
    assert len(cs.clauses) == len(members) ** 2
    assert len({frozenset(c) for c in cs.clauses}) == len(members) ** 2


class _NothingExpanded(set):
    """A builder's record of expanded templates that never holds a match,
    so that every template is expanded in full."""

    def __contains__(self, key):
        return False


def _expansions(monkeypatch) -> list:
    """Record the length of every template expansion's assignment product."""
    real = cnf_mod.product
    sizes = []

    def counted(*args, **kwargs):
        combos = list(real(*args, **kwargs))
        sizes.append(len(combos))
        return iter(combos)

    monkeypatch.setattr(cnf_mod, "product", counted)
    return sizes


def _distinct(clauses) -> list:
    """The clauses without a repeat of an earlier clause's literal set, in
    first-appearance order."""
    first: dict = {}
    for clause in clauses:
        first.setdefault(frozenset(clause), clause)
    return list(first.values())


def test_mirrored_template_pair_is_expanded_once(monkeypatch):
    members = [Entity(name) for name in "ABC"]
    pair = [
        parse_formula("forall x forall y (aunt(x, y) -> ~brother(x, y))"),
        parse_formula("forall y forall x (~aunt(x, y) | ~brother(x, y))"),
        parse_formula("forall x forall y (brother(x, y) -> ~aunt(x, y))"),
    ]
    sizes = _expansions(monkeypatch)
    cs = SatSession(pair, universe=members).clause_set()
    assert sizes == [len(members) ** 2]
    full = SatSession(universe=members)
    full.builder._expanded = _NothingExpanded()
    full.add_formulas(pair)
    assert sizes == [len(members) ** 2] * 4
    assert cs.clauses == _distinct(full.clause_set().clauses)
    assert cs.var_map == full.builder.cs.var_map


def test_template_skip_keeps_kinship_clauses():
    # Every kinship problem states its disjointness axioms in both
    # directions; skipping the mirrors leaves the clauses as they were.
    problems, _ = generate_kinship(6, 4, seed=404)
    for problem in problems:
        premises = list(problem.premises) + list(problem.withheld_rules)
        members = problem.universe()
        skipped = SatSession(premises, problem.query, universe=members)
        full = SatSession(universe=members)
        full.builder._expanded = _NothingExpanded()
        full.add_formulas(premises)
        full.set_query(problem.query)
        assert skipped.clause_set().clauses == _distinct(full.clause_set().clauses)
        assert skipped.builder.cs.var_map == full.builder.cs.var_map


def test_kinship_sessions_emit_no_repeated_clause():
    # Templates that overlap only in part could repeat an instance, and the
    # builder asserts such a repeat again; the kinship premises, rules and
    # queries never make one.
    problems, _ = generate_kinship(6, 4, seed=404)
    for problem in problems:
        premises = list(problem.premises) + list(problem.withheld_rules)
        session = SatSession(premises, problem.query, universe=problem.universe())
        clauses = session.clause_set().clauses
        assert len(_distinct(clauses)) == len(clauses)


def test_same_template_expanded_per_guard_and_per_universe(monkeypatch):
    f = parse_formula("forall x (F(x) -> G(x))")
    mirror = parse_formula("forall x (~G(x) -> ~F(x))")
    sizes = _expansions(monkeypatch)
    session = SatSession([f], universe=[Entity("A"), Entity("B")])
    session.add_guarded([f, mirror])
    assert sizes == [2, 2, 2]  # no guard, then two selectors
    one = CnfBuilder([Entity("A")])
    two = CnfBuilder([Entity("B"), Entity("A")])
    for builder in (one, two, one, two):
        builder.assert_formula(f)
    assert sizes[3:] == [1, 2]  # each builder expands it once, over its own universe
    assert len(one.cs.clauses) == 1 and len(two.cs.clauses) == 2
    assert [str(a) for a in two.cs.var_map] == ["F(A)", "G(A)", "F(B)", "G(B)"]


def test_duplicate_instances_kept_apart_by_guard():
    f = parse_formula("forall x (F(x) -> G(x))")
    session = SatSession([f], universe=[Entity("A")])
    session.add_guarded([f, f])
    assert len(session.clause_set().clauses) == 3


def test_quantifier_free_duplicates_keep_order():
    formulas = [parse_formula(t) for t in ["A | ~B", "B | C", "A | ~B", "~C | A | ~C"]]
    cs = _clauses(formulas)
    a, b, c = (cs.var_map[parse_formula(n).atom] for n in "ABC")
    assert cs.clauses == [[a, -b], [b, c], [a, -b], [-c, a, -c]]


def test_ground_horn_rule_is_one_clause():
    cs = _clauses([parse_formula("A & B -> C")])
    a, b, c = (cs.var_map[parse_formula(n).atom] for n in "ABC")
    assert cs.clauses == [[-a, -b, c]]
    assert not cs.aux_vars and cs.num_vars == 3
