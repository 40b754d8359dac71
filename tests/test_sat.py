import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argos import _satcore
from argos.cnf import ClauseSet
from argos.kinship import generate_kinship
from argos.logic import And, AtomNode, Iff, Implies, Literal, Not, Or, ground, make_atom
from argos.logic import iter_atoms
from argos.parser import parse_formula
from argos.sat import (
    ENTAILS_NOT_QUERY,
    ENTAILS_QUERY,
    INCONSISTENT,
    UNKNOWN,
    SatSession,
    compute_backbone,
)

from _oracles import brute_force_backbone, brute_force_sat, random_3cnf, reference_add_clause
from _oracles import random_ground_formula, semantic_models_mask, var_column


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
    solver.add_clauses(cs.clauses)
    return solver


def _backbone(cs, assumptions=()):
    """A kernel solve of a satisfiable ``cs``, then ``compute_backbone`` from its model."""
    solver = _kernel(cs)
    assert solver.solve(assumptions) == _satcore.SAT
    return compute_backbone(solver, cs, solver.model, assumptions)


def _random_batch(rng, n):
    """Clauses over up to n variables: with so few variables, tautologies,
    repeated literals and units come up often; an empty clause now and then."""
    batch = []
    for _ in range(rng.randint(0, 12)):
        size = 0 if rng.random() < 0.02 else rng.randint(1, 4)
        batch.append([rng.choice([1, -1]) * rng.randint(1, n) for _ in range(size)])
    return batch


def test_add_clauses_leaves_the_state_one_at_a_time_loading_leaves():
    # Batches on one reused pair of solvers, each batch after a solve or a
    # propagation, so that later batches meet literals fixed at level 0.
    rng = random.Random(2003)
    for _ in range(300):
        n = rng.randint(1, 8)
        start = rng.randint(0, n)
        batched, single = _satcore.Solver(start), _satcore.Solver(start)
        for _ in range(rng.randint(1, 5)):
            batch = _random_batch(rng, n)
            got = batched.add_clauses(batch)
            for cl in batch:
                reference_add_clause(single, cl)
            assert got == single.ok
            assert vars(batched) == vars(single)
            picked = rng.sample(range(1, n + 1), rng.randint(0, min(2, n)))
            assumed = [rng.choice([1, -1]) * v for v in picked]
            if rng.random() < 0.5:
                assert batched.solve(assumed) == single.solve(assumed)
            else:
                assert batched.propagated(assumed) == single.propagated(assumed)
            assert vars(batched) == vars(single)


def test_add_clauses_drops_what_level_zero_settles():
    solver = _satcore.Solver()
    assert solver.add_clauses([[1], [-1, 2, 3, 2], [3, -3, 4], [1, 5], [-1, 6, 7]])
    assert solver.num_vars == 7  # the clauses left out declare their variables too
    assert solver.trail == [2]  # the unit 1, as internal literal 2 * 1
    # -1 is false for good and the second 2 repeats: 2 | 3, then 6 | 7
    assert solver.clauses == [[4, 6], [12, 14]]
    assert solver.add_clauses([[-1], [8]]) is False
    assert solver.num_vars == 7  # nothing after the empty clause is read


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
    bb = _backbone(cs)
    assert {str(l) for l in bb.literals} == {"v1"}


def test_backbone_two_clause_example():
    # {{a,b},{~a,b}}: b true in all four... in all models
    cs = _cs_from_ints([[1, 2], [-1, 2]], 2)
    bb = _backbone(cs)
    assert {str(l) for l in bb.literals} == {"v2"}


def test_backbone_unsat_rejected():
    conclusion, backbone = SatSession([_clause_formula([1]), _clause_formula([-1])]).decide()
    assert conclusion.verdict == INCONSISTENT
    assert backbone is None


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
        bb = _backbone(cs)
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
    texts = [" | ".join(f"v{l}" if l > 0 else f"~v{-l}" for l in cl) for cl in php]
    formulas = [parse_formula(t) for t in texts]
    conclusion, backbone = SatSession(formulas, conflict_budget=0).decide()
    assert conclusion.verdict == UNKNOWN
    assert conclusion.budget_exceeded is True
    assert backbone is None
    conclusion, _ = SatSession(formulas).decide()
    assert conclusion.verdict == INCONSISTENT
    assert conclusion.budget_exceeded is False
    assert _kernel(_cs_from_ints(php, 6)).solve() == _satcore.UNSAT
    # ~y satisfies every clause, so the verdict solve needs no conflict, but
    # the backbone probe that assumes y must refute the pigeonhole instance
    session = SatSession([parse_formula(f"~y | {t}") for t in texts], conflict_budget=0)
    assert session.decide(with_backbone=False)[0].budget_exceeded is False
    conclusion, backbone = session.decide()
    assert conclusion.verdict == UNKNOWN
    assert conclusion.budget_exceeded is True
    assert backbone is None


def test_sat_solve_modus_ponens():
    premises = [parse_formula("A"), parse_formula("A -> B")]
    conclusion, backbone = SatSession(premises, parse_formula("B")).decide()
    assert conclusion.verdict == ENTAILS_QUERY
    assert backbone is not None
    assert {str(l) for l in backbone.literals} == {"A", "B"}


def test_sat_solve_unknown_with_empty_backbone():
    premises = [parse_formula("A | B")]
    conclusion, backbone = SatSession(premises, parse_formula("A")).decide()
    assert conclusion.verdict == UNKNOWN
    assert backbone is not None
    assert len(backbone) == 0


def test_sat_solve_entails_negation():
    premises = [parse_formula("~B"), parse_formula("A -> B")]
    conclusion, _ = SatSession(premises, parse_formula("A")).decide()
    assert conclusion.verdict == ENTAILS_NOT_QUERY


def test_sat_solve_inconsistent_premises():
    premises = [parse_formula("A"), parse_formula("~A")]
    conclusion, backbone = SatSession(premises, parse_formula("B")).decide()
    assert conclusion.verdict == INCONSISTENT
    assert backbone is None


@pytest.mark.parametrize(
    "premises, query, verdict, solves",
    [
        (["A", "A -> B"], "B", ENTAILS_QUERY, 2),
        (["A", "A -> B"], "~B", ENTAILS_NOT_QUERY, 2),
        (["~B", "A -> B"], "A", ENTAILS_NOT_QUERY, 2),
        (["~B", "A -> B"], "~A", ENTAILS_QUERY, 2),
        (["A | B"], "A", UNKNOWN, 2),
        (["A | B"], "~A", UNKNOWN, 2),
        (["A | B"], "A & ~B", UNKNOWN, 2),
        (["A", "~A"], "B", INCONSISTENT, 1),
        (["A | B"], None, UNKNOWN, 1),
    ],
)
def test_decide_makes_one_query_solve(monkeypatch, premises, query, verdict, solves):
    # The consistency solve's model shows one side of the query satisfiable,
    # so only the other side needs a solve, whichever side the model takes.
    solve = _satcore.Solver.solve
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(_satcore.Solver, "solve", counted)
    q = None if query is None else parse_formula(query)
    session = SatSession([parse_formula(t) for t in premises], q)
    conclusion, _ = session.decide(with_backbone=False)
    assert conclusion.verdict == verdict
    assert len(calls) == solves


def test_decide_verdicts_match_truth_tables_under_assumptions():
    # Random premises and queries, each decided under random assumptions on
    # one session, against the satisfiability of premises, assumptions and
    # the query, and of premises, assumptions and the negated query.
    rng = random.Random(1983)
    for _ in range(80):
        premises = [random_ground_formula(rng, 4) for _ in range(rng.randint(0, 3))]
        query = random_ground_formula(rng, 4)
        session = SatSession(premises, query)
        atoms = sorted(session.clause_set().var_map.items(), key=lambda kv: kv[1])
        for _ in range(3):
            picked = rng.sample(atoms, rng.randint(0, min(2, len(atoms))))
            signs = [rng.random() < 0.5 for _ in picked]
            assumed = [v if pos else -v for (_, v), pos in zip(picked, signs)]
            conclusion, _ = session.decide(with_backbone=False, assumptions=assumed)
            facts = [AtomNode(a) for a, _ in picked]
            facts = [f if pos else Not(f) for f, pos in zip(facts, signs)]
            held = [
                semantic_models_mask(functools.reduce(And, premises + facts + [q]), [])[0] != 0
                for q in (query, Not(query))
            ]
            want = {
                (True, True): UNKNOWN,
                (True, False): ENTAILS_QUERY,
                (False, True): ENTAILS_NOT_QUERY,
                (False, False): INCONSISTENT,
            }[tuple(held)]
            assert conclusion.verdict == want


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
        conclusion, backbone = SatSession(cs_formulas, q).decide()
        if conclusion.verdict == ENTAILS_QUERY:
            assert str(q.atom) in {str(l) for l in backbone.literals if l.positive}
        elif conclusion.verdict == ENTAILS_NOT_QUERY:
            assert str(q.atom) in {
                str(l.atom) for l in backbone.literals if not l.positive
            }


def test_consistent():
    def verdict(premises, commonsense):
        conclusion, _ = SatSession(premises + commonsense).decide(with_backbone=False)
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
        bb1 = compute_backbone(s1, cs1, s1.model)
        bb2 = compute_backbone(s2, cs2, s2.model)
        assert bb1.literals == bb2.literals


def test_backbone_growth_under_new_implication():
    # with L1, L2 entailed and clause L1 & L2 -> R added consistently,
    # R joins the backbone
    premises = [parse_formula("L1"), parse_formula("L2")]
    _, bb = SatSession(premises).decide()
    assert {str(l) for l in bb.literals} == {"L1", "L2"}
    grown = premises + [parse_formula("L1 & L2 -> R")]
    _, bb2 = SatSession(grown).decide()
    assert "R" in {str(l) for l in bb2.literals}


# --- guarded clauses -----------------------------------------------------------

def _binary(sub):
    return st.builds(
        lambda op, left, right: op(left, right),
        st.sampled_from([And, Or, Implies, Iff]),
        sub,
        sub,
    )


_ATOMS = [AtomNode(make_atom(f"p{i}")) for i in range(4)]
_FORMULAS = st.recursive(
    st.sampled_from(_ATOMS), lambda sub: st.one_of(sub.map(Not), _binary(sub)), max_leaves=4
)
# q0 and q1 occur in no premise or guarded formula, only in queries
_QUERY_ONLY = st.sampled_from([AtomNode(make_atom(f"q{i}")) for i in range(2)])
_COMPOUND_QUERIES = _binary(st.one_of(_FORMULAS, _QUERY_ONLY, _QUERY_ONLY.map(Not)))


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
        want, want_backbone = SatSession(premises + subset, query).decide()
        assert got.verdict == want.verdict
        if want_backbone is None:
            assert got_backbone is None
        else:
            assert all(l.atom is not None for l in got_backbone.literals)
            assert got_backbone.literals == want_backbone.literals


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.lists(_FORMULAS, max_size=3),
    st.lists(st.tuples(_FORMULAS, st.booleans()), max_size=2),
    _COMPOUND_QUERIES,
)
def test_sat_solve_excludes_query_only_atoms_from_backbone(premises, guarded, query):
    # The backbone domain is every atom, the query's included: an atom that
    # only the query names is free in the truth table, so never entailed.
    session = SatSession(premises, query)
    selectors = session.add_guarded(f for f, _ in guarded)
    chosen = [s for s, (_, on) in zip(selectors, guarded) if on]
    held = premises + [f for f, on in guarded if on]
    tautology = Or(_ATOMS[0], Not(_ATOMS[0]))  # keeps the conjunction of no formulas defined
    models, atoms = semantic_models_mask(functools.reduce(And, held, tautology), [])
    conclusion, backbone = session.decide(assumptions=chosen)
    if models == 0:
        assert conclusion.verdict == INCONSISTENT and backbone is None
        return
    columns = [(atom, var_column(j, len(atoms))) for j, atom in enumerate(atoms)]
    want = {Literal(a, True) for a, column in columns if models & ~column == 0}
    want |= {Literal(a, False) for a, column in columns if models & column == 0}
    assert backbone.literals == want
    named = {a for f in premises + [f for f, _ in guarded] for a in iter_atoms(f)}
    query_only = set(iter_atoms(query)) - named
    assert not query_only & {l.atom for l in backbone.literals}


# --- decision heap -------------------------------------------------------------


class _ScanSolver(_satcore.Solver):
    """The kernel deciding by an O(n) scan for the most active unassigned
    variable, the first found among equals: the order that the kernel's
    heap of bumped variables and its index scan of the unbumped ones keep."""

    def _pick_branch(self):
        best = -1
        best_act = -1.0
        for v in range(1, self.num_vars + 1):
            if self.value[v << 1] < 0 and self.activity[v] > best_act:
                best_act = self.activity[v]
                best = v
        return best


def _pair(clauses, n):
    heap, scan = _satcore.Solver(n), _ScanSolver(n)
    for solver in (heap, scan):
        solver.add_clauses(clauses)
    return heap, scan


def _solve_alike(heap, scan, rng, solves):
    for _ in range(solves):
        picked = rng.sample(range(1, heap.num_vars + 1), rng.randint(0, 4))
        assumed = [v if rng.random() < 0.5 else -v for v in picked]
        assert heap.solve(assumed) == scan.solve(assumed)
        assert heap.model == scan.model
        assert heap.conflict_count == scan.conflict_count
        assert heap.phase == scan.phase
        assert heap.activity == scan.activity


def test_decision_heap_matches_scan():
    # One reused solver per side, threshold-density 3-CNF so that conflicts
    # bump activities, and repeated solves under random assumptions.
    rng = random.Random(4242)
    conflicts = 0
    for _ in range(20):
        n = rng.randint(40, 80)
        heap, scan = _pair(random_3cnf(rng, n, round(4.26 * n)), n)
        _solve_alike(heap, scan, rng, solves=6)
        conflicts += heap.conflict_count
    assert conflicts > 1000


def test_decision_order_matches_scan_with_some_variables_bumped():
    # Under-constrained 3-CNF: the few conflicts bump some variables, so the
    # heap and the index scan of the unbumped ones both decide in each solve.
    rng = random.Random(3003)
    conflicts = mixed = 0
    for _ in range(30):
        n = rng.randint(40, 80)
        heap, scan = _pair(random_3cnf(rng, n, round(3.0 * n)), n)
        for _ in range(8):
            _solve_alike(heap, scan, rng, solves=1)
            bumped = sum(1 for a in heap.activity[1:] if a)
            mixed += 0 < bumped < n
        conflicts += heap.conflict_count
    assert conflicts > 100
    assert mixed > 100


def test_variables_declared_after_a_complete_assignment_are_decided():
    for solver in (_satcore.Solver(3), _ScanSolver(3)):
        solver.add_clauses([[1, 2], [-2, 3]])
        assert solver.solve() == _satcore.SAT
        solver.add_clauses([[1], [2], [3]])  # every variable fixed at level 0
        assert solver.solve() == _satcore.SAT
        solver.ensure_vars(5)
        solver.add_clauses([[4, -5]])
        assert solver.solve([-4]) == _satcore.SAT
        assert solver.model[1:] == [1, 1, 1, 0, 0]
        solver.ensure_vars(6)
        assert solver.solve() == _satcore.SAT
        assert -1 not in solver.model[1:]


def test_decision_heap_matches_scan_across_rescale():
    rng = random.Random(77)
    near = _satcore._RESCALE * 0.6
    rescaled = 0
    for _ in range(8):
        heap, scan = _pair(random_3cnf(rng, 50, 210), 50)
        heap.var_inc = scan.var_inc = near
        _solve_alike(heap, scan, rng, solves=4)
        rescaled += heap.var_inc < near
    assert rescaled >= 4


def test_decision_heap_reorders_ties_made_by_a_rescale():
    # Tiny activities underflow to equal zeros when a bump past _RESCALE
    # rescales them; the lowest index must then go first again.
    solver = _satcore.Solver(8)
    solver.var_inc = 1e-300
    for v in range(2, 9):
        solver._bump(v)  # the higher the index, the higher the activity
        solver.var_inc *= 2
    solver.var_inc = _satcore._RESCALE * 0.6
    solver._bump(1)
    solver._bump(1)
    assert solver.activity[2:] == [0.0] * 7
    assert [solver._pick_branch() for _ in range(8)] == list(range(1, 9))


def test_a_rescale_returns_zeroed_variables_to_the_scan():
    # Every variable bumped, decided and unassigned, so the index scan has
    # passed them all; then a rescale underflows seven activities to 0.0.
    solver = _satcore.Solver(8)
    solver.var_inc = 1e-300
    for v in range(1, 9):
        solver._bump(v)
        solver.var_inc *= 2
    assert solver.solve() == _satcore.SAT
    solver.var_inc = _satcore._RESCALE * 0.6
    solver._bump(1)
    solver._bump(1)
    assert solver.activity[2:] == [0.0] * 7
    assert solver.solve() == _satcore.SAT
    assert -1 not in solver.model[1:]


def test_decision_heap_stays_bounded_across_conflict_heavy_solves():
    # Every conflict leaves stale entries behind; 24 solves of up to 250
    # conflicts each on one reused solver must not let them pile up. The
    # budget stops each solve before its third restart, where _luby(4) raises.
    rng = random.Random(31)
    n = 150
    solver = _satcore.Solver(n)
    solver.add_clauses(random_3cnf(rng, n, round(4.26 * n)))
    bound = _satcore._HEAP_SLACK * n
    for _ in range(24):
        picked = rng.sample(range(1, n + 1), rng.randint(0, 3))
        solver.solve([v if rng.random() < 0.5 else -v for v in picked], conflict_budget=250)
        assert len(solver.heap) <= bound
    assert solver.conflict_count > 5000


def test_kinship_decide_without_conflicts_pushes_no_heap_entry(monkeypatch):
    # Every kinship solve meets 0 conflicts, so no activity leaves 0.0 and
    # every decision comes from the index scan.
    problem = generate_kinship(4, 4, seed=404)[0][0]
    members = sorted(problem.universe(), key=lambda e: e.name)
    session = SatSession(
        [ground(f, members) for f in problem.premises], ground(problem.query, members)
    )
    pushed = []
    monkeypatch.setattr(_satcore, "heappush", lambda heap, item: pushed.append(item))
    _, backbone = session.decide()
    assert backbone is not None and len(backbone) > 0
    assert session.solver.conflict_count == 0
    assert pushed == [] and session.solver.heap == []


def test_decision_heap_pops_a_bumped_variable_once_in_activity_order():
    solver = _satcore.Solver(6)
    for v, bumps in [(2, 3), (5, 1), (3, 3), (6, 2)]:
        for _ in range(bumps):
            solver._bump(v)
    want = sorted(range(1, 7), key=lambda v: (-solver.activity[v], v))
    assert want == [2, 3, 6, 5, 1, 4]
    assert [solver._pick_branch() for _ in range(7)] == want + [-1]


# --- preferred variables -------------------------------------------------------------


class _Recording(_satcore.Solver):
    """The kernel, recording each variable it picks to decide (-1: none left)."""

    def __init__(self, num_vars):
        super().__init__(num_vars)
        self.picked = []

    def _pick_branch(self):
        v = super()._pick_branch()
        self.picked.append(v)
        return v


def test_unbumped_decisions_follow_prefer_then_index_order():
    solver = _Recording(6)
    assert solver.solve(prefer=[5, 2, 4]) == _satcore.SAT
    assert solver.picked == [5, 2, 4, 1, 3, 6, -1]
    solver.picked.clear()
    assert solver.solve() == _satcore.SAT  # prefer holds for one solve only
    assert solver.picked == [1, 2, 3, 4, 5, 6, -1]


def test_bumped_variables_are_decided_before_preferred_ones():
    solver = _Recording(6)
    for v, bumps in [(6, 2), (3, 1)]:
        for _ in range(bumps):
            solver._bump(v)
    assert solver.solve(prefer=[5, 3, 1]) == _satcore.SAT
    # 3 is preferred but bumped: the heap decides it, and prefer skips it
    assert solver.picked == [6, 3, 5, 1, 2, 4, -1]


def test_assigned_preferred_variables_are_skipped():
    solver = _Recording(6)
    solver.add_clauses([[-2, 3]])
    solver.set_phases([2])
    assert solver.solve([-5], prefer=[5, 2, 3, 1]) == _satcore.SAT
    # 5 is assumed, and deciding 2 true propagates 3
    assert solver.picked == [2, 1, 4, 6, -1]


def test_a_backjump_resets_the_prefer_cursor():
    # Deciding 1, 3, 2 and 4 false falsifies (1 | 4 | 5) & (1 | 4 | -5); the
    # learnt clause (4 | 1) backjumps to level 1 and unassigns 3 and 2, which
    # no conflict bumped. After the heap's 5 they come from prefer again, in
    # its order, not from the index scan.
    solver = _Recording(6)
    solver.add_clauses([[1, 4, 5], [1, 4, -5]])
    assert solver.solve(prefer=[1, 3, 2, 4]) == _satcore.SAT
    assert solver.conflict_count == 1
    assert solver.picked == [1, 3, 2, 4, 5, 3, 2, 6, -1]


def test_decide_conflicts_on_threshold_3cnf_are_pinned():
    # Backbone probes prefer their candidates, but a variable that a conflict
    # bumped still goes first: the sum equals the one recorded before probes
    # had a preference. Every solve stays under 400 conflicts, where _luby(4)
    # raises.
    rng = random.Random(1)
    conflicts = []
    for _ in range(8):
        n = rng.randint(40, 70)
        session = SatSession([_clause_formula(c) for c in random_3cnf(rng, n, round(4.26 * n))])
        session.decide()
        conflicts.append(session.solver.conflict_count)
    assert max(conflicts) < 400
    assert sum(conflicts) == 1086


# --- search trajectory ------------------------------------------------------------


def _trajectory(seed, var_inc):
    """sha256 over every solve's (result, model, conflict_count, phase,
    activity, clauses), the total conflicts and the solvers that rescaled.

    Threshold 3-CNF, one reused solver per instance, solves under random
    assumptions. The budget stops each solve before its third restart, so
    the digest does not depend on the restart schedule past _luby(3).
    """
    rng = random.Random(seed)
    digest = hashlib.sha256()
    conflicts = rescaled = 0
    for _ in range(12):
        n = rng.randint(40, 80)
        solver = _satcore.Solver(n)
        solver.add_clauses(random_3cnf(rng, n, round(4.26 * n)))
        solver.var_inc = var_inc
        for _ in range(6):
            picked = rng.sample(range(1, n + 1), rng.randint(0, 4))
            assumed = [v if rng.random() < 0.5 else -v for v in picked]
            result = solver.solve(assumed, conflict_budget=300)
            state = (
                result, solver.model, solver.conflict_count, solver.phase, solver.activity,
                solver.clauses,
            )
            digest.update(repr(state).encode())
        conflicts += solver.conflict_count
        rescaled += solver.var_inc < var_inc
    return digest.hexdigest(), conflicts, rescaled


# Recorded from the kernel before its layout was flattened: a layout change
# must leave every decision, propagation and learnt clause alone, down to
# the order of the literals in each clause, also across an activity rescale.
@pytest.mark.parametrize(
    "seed, var_inc, want",
    [
        (1207, 1.0, "84f991f939ffbc62e0e482141ce6935fec8babaf56f51bc6bda4a4a32402f6b0"),
        (77, _satcore._RESCALE * 0.6,
         "d90e388f81375d7fe10db72a73ddc0c6e617848d5e534dc42f87b27ebe47d490"),
    ],
    ids=["fresh", "rescale"],
)
def test_search_trajectory_is_pinned(seed, var_inc, want):
    digest, conflicts, rescaled = _trajectory(seed, var_inc)
    assert conflicts > 1000
    assert rescaled == (0 if var_inc == 1.0 else 12)
    assert digest == want


# --- backbone against brute force -----------------------------------------------


def _literal(n):
    return st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def _kinship_shaped_clauses(draw, n):
    """Unit facts, at-most-one groups of negative binary clauses, and 3-clauses."""
    clauses = [[l] for l in draw(st.lists(_literal(n), max_size=3))]
    group = st.lists(st.integers(1, n), min_size=2, max_size=4, unique=True)
    for members in draw(st.lists(group, max_size=3)):
        clauses += [[-a, -b] for a, b in itertools.combinations(members, 2)]
    clauses += draw(st.lists(st.lists(_literal(n), min_size=3, max_size=3), max_size=2 * n))
    return clauses


_CNF = st.integers(3, 10).flatmap(lambda n: st.tuples(st.just(n), _kinship_shaped_clauses(n)))


def _clause_formula(clause):
    atoms = [AtomNode(make_atom(f"v{abs(l)}")) for l in clause]
    return functools.reduce(Or, [a if l > 0 else Not(a) for a, l in zip(atoms, clause)])


def _signed(backbone):
    return {int(l.atom.predicate.name[1:]) * (1 if l.positive else -1) for l in backbone.literals}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_CNF)
def test_backbone_matches_brute_force_property(case):
    n, clauses = case
    if not brute_force_sat(clauses, n):
        conclusion, backbone = SatSession([_clause_formula(c) for c in clauses]).decide()
        assert conclusion.verdict == INCONSISTENT and backbone is None
        return
    assert _signed(_backbone(_cs_from_ints(clauses, n))) == brute_force_backbone(clauses, n)


@st.composite
def _guarded_case(draw):
    n, premises = draw(_CNF)
    guarded = draw(st.lists(_kinship_shaped_clauses(n).filter(bool), min_size=1, max_size=3))
    width = len(guarded)
    mask = st.lists(st.booleans(), min_size=width, max_size=width)
    masks = draw(st.lists(mask, min_size=2, max_size=5))
    return n, premises, guarded, masks


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_guarded_case())
def test_guarded_backbones_match_brute_force(case):
    # Several decisions on one session, so each starts from the phases and
    # learned clauses that the earlier ones left behind.
    n, premises, guarded, masks = case
    session = SatSession([_clause_formula(c) for c in premises])
    selectors = session.add_guarded(
        functools.reduce(And, [_clause_formula(c) for c in clauses]) for clauses in guarded
    )
    for mask in masks:
        chosen = [s for s, on in zip(selectors, mask) if on]
        clauses = premises + [c for g, on in zip(guarded, mask) if on for c in g]
        conclusion, backbone = session.decide(assumptions=chosen)
        if brute_force_sat(clauses, n):
            assert _signed(backbone) == brute_force_backbone(clauses, n)
        else:
            assert conclusion.verdict == INCONSISTENT and backbone is None


def test_kinship_backbone_probe_count(monkeypatch):
    # Level-0 literals and steered countermodels settle this decision in 15
    # solves; probing its 108 domain variables one at a time took 111.
    problems, _ = generate_kinship(18, 4, seed=404)
    problem = problems[0]
    members = sorted(problem.universe(), key=lambda e: e.name)
    session = SatSession(
        [ground(f, members) for f in problem.premises], ground(problem.query, members)
    )
    solve = _satcore.Solver.solve
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(_satcore.Solver, "solve", counted)
    _, backbone = session.decide()
    assert backbone is not None and len(backbone) > 0
    assert len(calls) <= 20


# --- literals that the assumptions propagate ---------------------------------------


def test_propagated_returns_the_trail_or_none():
    solver = _kernel(_cs_from_ints([[1], [-1, 2], [-3, 4], [-4, -5]], 5))
    assert set(solver.propagated()) == {1, 2}
    assert set(solver.propagated([3])) == {1, 2, 3, 4, -5}
    assert solver.propagated([3, 5]) is None
    assert solver.propagated([-2]) is None
    assert solver.solve() == _satcore.SAT  # a conflict under assumptions is not global


@st.composite
def _selected_case(draw):
    n, clauses = draw(_CNF)
    selectors = list(range(n + 1, n + 4))
    for s in selectors:
        for clause in draw(st.lists(st.lists(_literal(n), min_size=1, max_size=3), max_size=3)):
            clauses.append(clause + [-s])
    chosen = draw(st.lists(st.sampled_from(selectors), unique=True, max_size=3))
    return n + 3, clauses, chosen


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_selected_case())
def test_backbone_under_selectors_matches_brute_force(case):
    n, clauses, chosen = case
    units = [[s] for s in chosen]
    if not brute_force_sat(clauses + units, n):
        return
    backbone = _backbone(_cs_from_ints(clauses, n), assumptions=chosen)
    assert _signed(backbone) == brute_force_backbone(clauses + units, n)


def test_selector_propagated_literals_get_no_probe(monkeypatch):
    session = SatSession([parse_formula("C | D")])
    selectors = session.add_guarded([parse_formula("A"), parse_formula("A -> B")])
    var_map = session.clause_set().var_map
    forced = {var_map[parse_formula(n).atom] for n in "AB"}
    solve = _satcore.Solver.solve
    probed = []

    def counted(self, assumptions=(), *args, **kwargs):
        if len(assumptions) > len(selectors):
            probed.append(abs(assumptions[-1]))
        return solve(self, assumptions, *args, **kwargs)

    monkeypatch.setattr(_satcore.Solver, "solve", counted)
    _, backbone = session.decide(assumptions=selectors)
    assert {str(l) for l in backbone.literals} == {"A", "B"}
    assert probed and not forced & set(probed)


def test_query_atom_joins_backbone_once_a_quantified_formula_names_it():
    from argos.logic import Entity

    session = SatSession([parse_formula("P(A)")], parse_formula("Q(A)"), universe=[Entity("A")])
    selectors = session.add_guarded([parse_formula("forall x (P(x) -> Q(x))")])
    conclusion, backbone = session.decide(assumptions=selectors)
    assert conclusion.verdict == ENTAILS_QUERY
    assert {str(l) for l in backbone.literals} == {"P(A)", "Q(A)"}
