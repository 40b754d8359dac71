import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argos import _satcore
from argos.cnf import ClauseSet
from argos.errors import SolverBudgetExceeded
from argos.logic import And, AtomNode, Iff, Implies, Not, Or, make_atom
from argos.parser import parse_formula
from argos.sat import (
    ENTAILS_NOT_QUERY,
    ENTAILS_QUERY,
    INCONSISTENT,
    UNKNOWN,
    SatSession,
    compute_backbone,
    sat_solve,
)

from _oracles import brute_force_backbone, brute_force_sat, random_3cnf


def _cs_from_ints(clauses, n):
    from argos.logic import Atom, Predicate

    cs = ClauseSet()
    for v in range(1, n + 1):
        cs.var_map[Atom(Predicate(f"v{v}", 0), ())] = v
    cs.num_vars = n
    cs.clauses = [list(c) for c in clauses]
    return cs


def _kernel(cs):
    solver = _satcore.Solver(cs.num_vars)
    for cl in cs.clauses:
        solver.add_clause(cl)
    return solver


def test_unit_contradiction_unsat():
    cs = _cs_from_ints([[1], [-1]], 1)
    assert _kernel(cs).solve() == _satcore.UNSAT


def test_simple_clause_satisfiable_with_model():
    cs = _cs_from_ints([[1, 2]], 2)
    solver = _kernel(cs)
    assert solver.solve() == _satcore.SAT
    assert any(solver.model_value(abs(l)) == (l > 0) for l in [1, 2])


def test_model_present_iff_satisfiable():
    sat_solver = _kernel(_cs_from_ints([[1]], 1))
    unsat_solver = _kernel(_cs_from_ints([[1], [-1]], 1))
    assert sat_solver.solve() == _satcore.SAT
    assert unsat_solver.solve() == _satcore.UNSAT
    assert sat_solver.model is not None
    assert unsat_solver.model is None


def test_random_3cnf_matches_brute_force():
    rng = random.Random(1234)
    for _ in range(80):
        n = rng.randint(4, 12)
        m = rng.randint(n, 4 * n)
        clauses = random_3cnf(rng, n, m)
        cs = _cs_from_ints(clauses, n)
        got = _kernel(cs).solve() == _satcore.SAT
        assert got == brute_force_sat(clauses, n)


def test_assumptions():
    solver = _kernel(_cs_from_ints([[1, 2]], 2))
    assert solver.solve([-1]) == _satcore.SAT
    assert solver.solve([-1, -2]) == _satcore.UNSAT
    # assumptions do not poison later calls on the same solver
    assert solver.solve([]) == _satcore.SAT
    assert solver.solve([-2]) == _satcore.SAT


def test_backbone_unit_clause():
    cs = _cs_from_ints([[1]], 2)
    bb = compute_backbone(cs)
    assert {str(l) for l in bb.literals} == {"v1"}


def test_backbone_two_clause_example():
    # {{a,b},{~a,b}}: b true in all four... in all models
    cs = _cs_from_ints([[1, 2], [-1, 2]], 2)
    bb = compute_backbone(cs)
    assert {str(l) for l in bb.literals} == {"v2"}


def test_backbone_unsat_rejected():
    cs = _cs_from_ints([[1], [-1]], 1)
    with pytest.raises(ValueError):
        compute_backbone(cs)


def test_backbone_matches_brute_force_random():
    rng = random.Random(99)
    checked = 0
    for _ in range(60):
        n = rng.randint(4, 16)
        m = rng.randint(n, 4 * n)
        clauses = random_3cnf(rng, n, m)
        want = brute_force_backbone(clauses, n)
        if not brute_force_sat(clauses, n):
            continue
        cs = _cs_from_ints(clauses, n)
        bb = compute_backbone(cs)
        got = set()
        for l in bb.literals:
            v = cs.var_map[l.atom]
            got.add(v if l.positive else -v)
        assert got == want
        checked += 1
    assert checked > 10


def test_conflict_budget_degrades_distinctly():
    # three pigeons, two holes: unsatisfiable only via search conflicts
    php = [
        [1, 2], [3, 4], [5, 6],
        [-1, -3], [-1, -5], [-3, -5],
        [-2, -4], [-2, -6], [-4, -6],
    ]
    formulas = [
        parse_formula(" | ".join(f"v{l}" if l > 0 else f"~v{-l}" for l in cl))
        for cl in php
    ]
    conclusion, backbone = sat_solve(formulas, None, conflict_budget=0)
    assert conclusion.verdict == UNKNOWN
    assert conclusion.budget_exceeded is True
    assert backbone is None
    conclusion, _ = sat_solve(formulas, None)
    assert conclusion.verdict == INCONSISTENT
    assert conclusion.budget_exceeded is False
    cs = _cs_from_ints(php, 6)
    with pytest.raises(SolverBudgetExceeded):
        compute_backbone(cs, conflict_budget=0)
    assert _kernel(cs).solve() == _satcore.UNSAT


def test_sat_solve_modus_ponens():
    premises = [parse_formula("A"), parse_formula("A -> B")]
    conclusion, backbone = sat_solve(premises, parse_formula("B"))
    assert conclusion.verdict == ENTAILS_QUERY
    assert backbone is not None
    assert {str(l) for l in backbone.literals} == {"A", "B"}


def test_sat_solve_unknown_with_empty_backbone():
    premises = [parse_formula("A | B")]
    conclusion, backbone = sat_solve(premises, parse_formula("A"))
    assert conclusion.verdict == UNKNOWN
    assert backbone is not None
    assert len(backbone) == 0


def test_sat_solve_entails_negation():
    premises = [parse_formula("~B"), parse_formula("A -> B")]
    conclusion, _ = sat_solve(premises, parse_formula("A"))
    assert conclusion.verdict == ENTAILS_NOT_QUERY


def test_sat_solve_inconsistent_premises():
    premises = [parse_formula("A"), parse_formula("~A")]
    conclusion, backbone = sat_solve(premises, parse_formula("B"))
    assert conclusion.verdict == INCONSISTENT
    assert backbone is None


def test_sat_solve_excludes_query_only_atoms_from_backbone():
    premises = [parse_formula("A")]
    _, backbone = sat_solve(premises, parse_formula("Q | ~Q"))
    assert {str(l) for l in backbone.literals} == {"A"}


def test_sat_solve_verdict_in_backbone_for_literal_queries():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(3, 8)
        clauses = random_3cnf(rng, n, rng.randint(n, 3 * n))
        cs_formulas = []
        for cl in clauses:
            parts = [f"v{abs(l)}" if l > 0 else f"~v{abs(l)}" for l in cl]
            cs_formulas.append(parse_formula(" | ".join(parts)))
        q = parse_formula(f"v{rng.randint(1, n)}")
        conclusion, backbone = sat_solve(cs_formulas, q)
        if conclusion.verdict == ENTAILS_QUERY:
            assert str(q.atom) in {str(l) for l in backbone.literals if l.positive}
        elif conclusion.verdict == ENTAILS_NOT_QUERY:
            assert str(q.atom) in {
                str(l.atom) for l in backbone.literals if not l.positive
            }


def test_consistent():
    def verdict(premises, commonsense):
        conclusion, _ = sat_solve(premises + commonsense, None, with_backbone=False)
        return conclusion.verdict

    a, ab = parse_formula("A"), parse_formula("A -> B")
    assert verdict([a], [ab]) != INCONSISTENT
    assert verdict([], []) != INCONSISTENT
    chain = [parse_formula("A -> B"), parse_formula("B -> ~A")]
    # A with A->B and B->~A forces ~A against A (truth-table check by hand)
    assert verdict([a], chain) == INCONSISTENT


def test_determinism_same_inputs_same_outcome():
    rng = random.Random(8)
    clauses = random_3cnf(rng, 10, 30)
    cs1 = _cs_from_ints(clauses, 10)
    cs2 = _cs_from_ints(clauses, 10)
    s1, s2 = _kernel(cs1), _kernel(cs2)
    out1, out2 = s1.solve(), s2.solve()
    assert out1 == out2
    assert s1.model == s2.model
    if out1 == _satcore.SAT:
        bb1 = compute_backbone(cs1)
        bb2 = compute_backbone(cs2)
        assert bb1.literals == bb2.literals


def test_backbone_growth_under_new_implication():
    # with L1, L2 entailed and clause L1 & L2 -> R added consistently,
    # R joins the backbone
    premises = [parse_formula("L1"), parse_formula("L2")]
    _, bb = sat_solve(premises, None)
    assert {str(l) for l in bb.literals} == {"L1", "L2"}
    grown = premises + [parse_formula("L1 & L2 -> R")]
    _, bb2 = sat_solve(grown, None)
    assert "R" in {str(l) for l in bb2.literals}


# --- guarded clauses -----------------------------------------------------------

_ATOMS = [AtomNode(make_atom(f"p{i}")) for i in range(4)]
_FORMULAS = st.recursive(
    st.sampled_from(_ATOMS),
    lambda sub: st.one_of(
        sub.map(Not),
        st.builds(
            lambda op, left, right: op(left, right),
            st.sampled_from([And, Or, Implies, Iff]),
            sub,
            sub,
        ),
    ),
    max_leaves=4,
)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    st.lists(_FORMULAS, max_size=3),
    st.lists(_FORMULAS, min_size=1, max_size=3),
    _FORMULAS,
)
def test_guarded_clauses_match_fresh_sessions(premises, clauses, query):
    # One session, every clause behind a selector: each subset of selectors
    # must decide exactly as a fresh session holding only that subset.
    session = SatSession(premises, query)
    selectors = session.add_guarded(clauses)
    atom_vars = set(session.clause_set().var_map.values())
    assert not atom_vars & set(selectors)
    for mask in itertools.product((False, True), repeat=len(clauses)):
        chosen = [s for s, on in zip(selectors, mask) if on]
        subset = [c for c, on in zip(clauses, mask) if on]
        got, got_backbone = session.decide(assumptions=chosen)
        want, want_backbone = sat_solve(premises + subset, query)
        assert got.verdict == want.verdict
        if want_backbone is None:
            assert got_backbone is None
        else:
            assert all(l.atom is not None for l in got_backbone.literals)
            assert got_backbone.literals == want_backbone.literals
