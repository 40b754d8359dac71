import itertools
import random

from argos import _satcore
from argos.cnf import CnfBuilder
from argos.logic import Entity, ground
from argos.parser import parse_formula

from _oracles import (
    random_ground_formula,
    random_quantified_formula,
    semantically_satisfiable,
)


def _clauses(formulas):
    builder = CnfBuilder()
    for f in formulas:
        builder.assert_formula(f)
    return builder.cs


def _satisfiable(cs) -> bool:
    solver = _satcore.Solver(cs.num_vars)
    for cl in cs.clauses:
        solver.add_clause(cl)
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
