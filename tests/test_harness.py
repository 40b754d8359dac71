import copy
import dataclasses
import gc
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from argos import backends, cnf, corpus, logic
from argos.backends import Context, OracleBackend, OracleKB, _render_formulas
from argos.corpus import Problem
from argos.engine import CommonsenseClause, Engine, EngineConfig, SolveResult
from argos.errors import ArgosError
from argos.harness import (
    ProblemRecord,
    corruption_check,
    cost_histogram_csv,
    flip_analysis,
    flips_csv,
    parse_system_names,
    records_csv,
    run_argos,
    run_sat_baseline,
    run_sc_baseline,
    run_suite,
    summary_csv,
    useful_clause_count,
)
from argos.kinship import generate_kinship
from argos.logic import Entity, ForAll, HornRule, formula_to_literal
from argos.parser import parse_formula, parse_literal
from argos.sat import SatSession

from _oracles import reference_corruption, reference_useful_count


def kinship_setup(count=8, depth=3, seed=7, reasoning_depth=0, noise=0.0):
    problems, kb = generate_kinship(count, depth, seed, validate=False)
    kb = dataclasses.replace(kb, reasoning_depth=reasoning_depth, noise=noise, seed=seed)
    config = EngineConfig(
        seed=seed, generation_style="entity_pair", score_style="truth"
    )
    return problems, kb, config, OracleBackend(kb)


def test_parse_system_names():
    assert parse_system_names(["argos", "sat", "sc20"]) == ["argos", "sat", "sc20"]
    with pytest.raises(ArgosError):
        parse_system_names(["warp-drive"])
    with pytest.raises(ArgosError):
        parse_system_names([])
    for no_samples in ("sc0", "sc00"):
        with pytest.raises(ArgosError, match=no_samples):
            parse_system_names(["argos", no_samples])


def test_sat_baseline_unknown_everywhere_and_silent():
    problems, kb, config, backend = kinship_setup()
    for p in problems:
        record = run_sat_baseline(p, config)
        assert record.decided_by == "unknown"
        assert record.cot_calls == 0


class _SampleCountingOracle(OracleBackend):
    """The oracle, counting the chain-of-thought samples it returns."""

    def __init__(self, kb):
        super().__init__(kb)
        self.samples = 0

    def _cot_samples(self, context, commonsense, query, k):
        samples = super()._cot_samples(context, commonsense, query, k)
        self.samples += len(samples)
        return samples


def test_sat_baseline_decides_what_the_premises_entail():
    signature = {}
    premises = [parse_formula(t, signature=signature) for t in ("p(A)", "forall x (p(x) -> q(x))")]
    for query, verdict in (("q(A)", True), ("~q(A)", False)):
        problem = Problem(id=query, entities={Entity("A")}, premises=premises,
                          query=parse_formula(query, signature=signature))
        record = run_sat_baseline(problem, EngineConfig())
        assert (record.verdict, record.decided_by, record.confidence) == (verdict, "sat", 1.0)


def test_sc_baseline_costs_exactly_n():
    problems, kb, config, _ = kinship_setup(count=4)
    backend = _SampleCountingOracle(kb)
    for p in problems:
        record = run_sc_baseline(p, config, backend, 7)
        assert record.cot_calls == 7
    assert backend.samples == 4 * 7


def _per_problem_views(problem, backend):
    """Everything the baselines derive from a problem's premises."""
    fresh = dataclasses.replace(problem)  # its universe is not kept yet
    members = fresh.universe()
    cs = SatSession(problem.premises, problem.query, universe=members).builder.cs
    return (
        members,
        cs.clauses,
        list(cs.var_map.items()),
        cs.aux_vars,
        backend._chain(Context(problem.premises), ()),
        _render_formulas(problem.premises),
    )


def test_shared_and_copied_rules_give_equal_outputs():
    # The kinship generator shares its rule objects across problems, so
    # they reuse the rule views; deep copies carry none and compute them.
    problems, _, _, backend = kinship_setup(30, 4, seed=606, reasoning_depth=2)
    for problem in problems:
        copied = dataclasses.replace(problem, premises=copy.deepcopy(problem.premises))
        assert _per_problem_views(problem, backend) == _per_problem_views(copied, backend)


def test_each_shared_rule_compiles_once(monkeypatch):
    problems, kb, config, backend = kinship_setup(30, 4, seed=606, reasoning_depth=2)
    # the generator shares each withheld rule among the problems that use it
    withheld = {id(f): str(f) for p in problems for f in p.withheld_rules}
    assert len(withheld) == len(set(withheld.values())) < sum(
        len(p.withheld_rules) for p in problems
    )
    compiled = {}

    def counting(name, fn):
        counts = compiled[name] = Counter()

        def wrapper(f):
            if isinstance(f, ForAll):
                counts[id(f)] += 1
            return fn(f)

        return wrapper

    monkeypatch.setattr(cnf, "_template", counting("template", cnf._template))
    monkeypatch.setattr(HornRule, "from_formula",
                        staticmethod(counting("horn", HornRule.from_formula)))
    monkeypatch.setattr(logic, "format_formula", counting("text", logic.format_formula))
    entities = counting("entities", logic.formula_entities)
    monkeypatch.setattr(corpus, "formula_entities", entities)
    monkeypatch.setattr(backends, "formula_entities", entities)
    for problem in problems:
        run_sat_baseline(problem, config)
        run_sc_baseline(problem, config, backend, 20)
        run_argos(problem, config, backend, kb)
    rules = {id(f) for p in problems for f in p.premises if isinstance(f, ForAll)}
    assert len(rules) == 132
    for name, counts in compiled.items():
        assert rules <= counts.keys(), name
        assert set(counts.values()) == {1}, name
    assert withheld.keys() <= compiled["template"].keys()
    assert withheld.keys() <= compiled["entities"].keys()


def _live_rules() -> int:
    gc.collect()
    return sum(isinstance(o, ForAll) for o in gc.get_objects())


def _baselines_suite() -> int:
    """Run the sat and sc20 baselines over a suite; the live rules at its end."""
    problems, _, config, backend = kinship_setup(12, 4, seed=606, reasoning_depth=2)
    for problem in problems:
        run_sat_baseline(problem, config)
        run_sc_baseline(problem, config, backend, 20)
    return _live_rules()


def test_a_finished_suite_leaves_no_rule_alive():
    # A rule's views live on the rule, so nothing keeps a rule once its
    # suite is gone.
    before = _live_rules()
    assert _baselines_suite() > before
    assert _live_rules() == before


def test_run_suite_end_to_end_noiseless():
    problems, kb, config, backend = kinship_setup(count=6)
    metrics = run_suite(
        problems, config, backend, systems=["argos", "sat", "sc5"], kb=kb
    )
    assert metrics.accuracy("argos") == 1.0
    assert all(r.decided_by == "sat" for r in metrics.records["argos"])
    assert metrics.corruption_count == 0
    assert all(r.corrupted is False for r in metrics.records["argos"])
    # at least one accepted clause carries the derivation on every problem
    assert all(1 <= r.useful_clauses <= r.iterations for r in metrics.records["argos"])
    assert set(metrics.records) == {"argos", "sat", "sc5"}
    assert len(metrics.traces) == 6
    # flips computed against sc5
    assert sum(b.count for b in metrics.flip_buckets) == 6


def test_run_suite_zero_problems():
    _, kb, config, backend = kinship_setup(count=0)
    metrics = run_suite([], config, backend, systems=["argos", "sat"], kb=kb)
    assert metrics.records == {} or all(not v for v in metrics.records.values())
    assert metrics.accuracy("argos") == 0.0


def test_run_suite_parallel_matches_serial():
    problems, kb, config, backend = kinship_setup(count=4, depth=2)
    serial = run_suite(problems, config, backend, systems=["argos", "sat"], kb=kb, jobs=1)
    parallel = run_suite(problems, config, backend, systems=["argos", "sat"], kb=kb, jobs=2)
    assert records_csv(serial.records["argos"]) == records_csv(parallel.records["argos"])
    assert records_csv(serial.records["sat"]) == records_csv(parallel.records["sat"])
    assert serial.traces == parallel.traces


class _QueryFailingOracle(OracleBackend):
    """The oracle, raising an error that is not an ``ArgosError`` on every
    vote about one query."""

    def __init__(self, kb, query):
        super().__init__(kb)
        self.query = query

    def _cot_samples(self, context, commonsense, query, k):
        if query == self.query:
            raise ValueError("scripted failure")
        return super()._cot_samples(context, commonsense, query, k)


@pytest.mark.parametrize("jobs", [0, -1])
def test_run_suite_rejects_a_worker_count_below_one(jobs):
    problems, kb, config, backend = kinship_setup(count=2, depth=2)
    with pytest.raises(ArgosError, match=f"jobs: expected an integer >= 1, got {jobs}"):
        run_suite(problems, config, backend, systems=["sat"], kb=kb, jobs=jobs)


def test_importing_argos_imports_no_process_pool():
    # the pool is imported when a run asks for workers, not with the package
    probe = (
        "import sys, argos; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "[]"


def test_run_suite_records_an_unexpected_error_on_its_row():
    problems, kb, config, _ = kinship_setup(count=4, depth=2)
    backend = _QueryFailingOracle(kb, problems[1].query)
    serial, parallel = (
        run_suite(problems, config, backend, systems=["argos", "sc5"], kb=kb, jobs=jobs)
        for jobs in (1, 2)
    )
    for system in ("argos", "sc5"):
        assert records_csv(serial.records[system]) == records_csv(parallel.records[system])
        assert len(serial.records[system]) == len(problems)
    errors = {r.problem_id: r.error for r in serial.records["sc5"] if r.error}
    assert errors == {problems[1].id: "ValueError: scripted failure"}


def test_a_solved_problem_leaves_the_backend_as_it_was():
    # every request about the problem keeps its state on the engine's context
    problems, kb, config, backend = kinship_setup(count=2)
    before = pickle.dumps(backend)
    for problem in problems:
        record, trace = run_argos(problem, config, backend, kb)
        assert record.decided_by == "sat" and record.iterations > 0
        assert any(e["event"] == "candidate" for e in trace)
    assert pickle.dumps(backend) == before


def test_run_suite_determinism_byte_identical():
    problems, kb, config, backend = kinship_setup(count=4)
    m1 = run_suite(problems, config, backend, systems=["argos", "sat", "sc5"], kb=kb)
    m2 = run_suite(problems, config, OracleBackend(kb), systems=["argos", "sat", "sc5"], kb=kb)
    assert summary_csv(m1) == summary_csv(m2)
    for system in m1.records:
        assert records_csv(m1.records[system]) == records_csv(m2.records[system])
    assert flips_csv(m1.flip_buckets) == flips_csv(m2.flip_buckets)
    assert cost_histogram_csv(m1) == cost_histogram_csv(m2)
    assert m1.traces == m2.traces


# --- corruption --------------------------------------------------------------


def _kinship_problem():
    problems, kb, config, backend = kinship_setup(count=2, depth=2)
    return problems[0], kb


def _engine(problem, accepted=()):
    """An engine on ``problem`` that has accepted ``accepted``, never solved."""
    engine = Engine(problem, EngineConfig(), OracleBackend(OracleKB(())))
    for clause in accepted:
        engine.accept(clause)
    return engine


def test_corruption_empty_accepted_is_clean():
    problem, kb = _kinship_problem()
    assert corruption_check(_engine(problem), kb) is False


def test_corruption_kb_instances_are_clean():
    problems, kb, config, backend = kinship_setup(count=4, depth=3)
    metrics = run_suite(problems, config, backend, kb=kb)
    for record in metrics.records["argos"]:
        assert record.corrupted is False


def test_restoring_the_kb_compiles_each_rule_once(monkeypatch):
    # Without withheld rules each corruption check restores the KB's rules,
    # the same formula objects for every problem, so the 44 KB rules compile
    # once each, as do the 132 exclusion axioms that the problems share.
    problems, kb, config, backend = kinship_setup(count=4)
    problems = [dataclasses.replace(p, withheld_rules=[]) for p in problems]
    compiled = []
    real = cnf._template
    monkeypatch.setattr(cnf, "_template", lambda f: compiled.append(f) or real(f))
    for problem in problems:
        record, _ = run_argos(problem, config, backend, kb)
        assert record.corrupted is False
    assert len(kb.rules) == 44
    assert len(compiled) == len({id(f) for f in compiled}) == 44 + 132
    assert kb.formulas() is kb.formulas()
    with pytest.raises(dataclasses.FrozenInstanceError):
        kb.rules = ()


def test_corruption_detects_adversarial_clause():
    problem, kb = _kinship_problem()
    facts = [f for f in problem.premises if not str(f).startswith("forall")]
    first = str(facts[0])
    rel, args = first.split("(")[0], first.split("(")[1].rstrip(")")
    x, y = (a.strip() for a in args.split(","))
    # force the negation of a stated fact: restored problem becomes inconsistent
    adversarial = CommonsenseClause(
        (parse_literal(f"{rel}({x}, {y})"),),
        parse_literal(f"~{rel}({x}, {y})").negate().negate(),
        1.0,
        1.0,
    )
    assert corruption_check(_engine(problem, [adversarial]), kb) is True


def _abduce_suite():
    """The criterion-4 suite's first 18 problems at oracle depth 0."""
    problems, kb = generate_kinship(18, 4, seed=404)
    kb = dataclasses.replace(kb, reasoning_depth=0, seed=404)
    config = EngineConfig(seed=404, generation_style="entity_pair", score_style="truth")
    return problems, kb, config, OracleBackend(kb)


def test_shared_session_checks_match_fresh_references():
    problems, kb, config, backend = _abduce_suite()
    for problem in problems:
        engine = Engine(problem, config, backend)
        result = engine.solve()
        assert result.commonsense
        assert corruption_check(engine, kb) == reference_corruption(
            problem, result.commonsense, kb
        )
        assert useful_clause_count(engine, result) == reference_useful_count(problem, result)
        # a clause that contradicts a stated fact must read as corruption too
        fact = next(f for f in problem.premises if formula_to_literal(f) is not None)
        stated = formula_to_literal(fact)
        adversarial = CommonsenseClause((stated,), stated.negate(), 1.0, 1.0)
        engine.accept(adversarial)
        accepted = result.commonsense + [adversarial]
        want = reference_corruption(problem, accepted, kb)
        assert want is True
        assert corruption_check(engine, kb) is want


def test_run_argos_builds_one_session_per_problem(monkeypatch):
    problems, kb, config, backend = _abduce_suite()
    built = []
    init = SatSession.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SatSession, "__init__", counting_init)
    for problem in problems:
        before = len(built)
        record, _ = run_argos(problem, config, backend, kb)
        assert record.corrupted is False and record.useful_clauses >= 1
        assert len(built) - before == 1


def test_corruption_requires_rules():
    problem, _ = _kinship_problem()
    problem = dataclasses.replace(problem, withheld_rules=[])
    with pytest.raises(ArgosError):
        corruption_check(_engine(problem), kb=None)


# --- useful clauses ------------------------------------------------------------


def _clause(antecedent, consequent):
    lits = tuple(parse_literal(t) for t in antecedent)
    return CommonsenseClause(lits, parse_literal(consequent), 1.0, 1.0)


def _sat_result(clauses):
    return SolveResult(
        verdict=True,
        decided_by="sat",
        confidence=1.0,
        commonsense=list(clauses),
        iterations=len(clauses),
        cot_calls=0,
        trace=[],
    )


def test_useful_clause_count_grounds_over_new_entities():
    # The problem of test_engine's regrounding test: the query closes only
    # once the rule is instantiated over the entity the clause introduces.
    sig = {}
    problem = Problem(
        id="rg",
        entities={Entity("A")},
        premises=[
            parse_formula("F(A)", signature=sig),
            parse_formula("forall x (G(x) -> H(x))", signature=sig),
        ],
        query=parse_formula("exists y (H(y))", signature=sig),
    )
    result = _sat_result([_clause(["F(A)"], "G(NewGuy)")])
    assert useful_clause_count(_engine(problem, result.commonsense), result) == 1


def test_useful_clause_count_skips_redundant_clause():
    sig = {}
    problem = Problem(
        id="uc",
        entities={Entity("A")},
        premises=[
            parse_formula("P(A)", signature=sig),
            parse_formula("forall x (P(x) -> T(x))", signature=sig),
            parse_formula("forall x (R(x) -> Q(x))", signature=sig),
        ],
        query=parse_formula("Q(A)", signature=sig),
    )
    necessary = _clause(["P(A)"], "R(A)")
    redundant = _clause(["P(A)"], "T(A)")  # already entailed by the premises
    for order in ([necessary, redundant], [redundant, necessary]):
        result = _sat_result(order)
        assert useful_clause_count(_engine(problem, order), result) == 1


# --- flips ---------------------------------------------------------------------


def _rec(pid, system, verdict, gold, iterations=0):
    return ProblemRecord(
        problem_id=pid,
        system=system,
        verdict=verdict,
        gold=gold,
        decided_by="sat",
        iterations=iterations,
        cot_calls=0,
        confidence=1.0,
    )


def test_flip_analysis_identical_runs_have_no_flips():
    argos = [_rec(f"p{i}", "argos", True, True) for i in range(4)]
    sc = [_rec(f"p{i}", "sc5", True, True) for i in range(4)]
    buckets = flip_analysis(argos, sc)
    assert sum(b.correct_flips for b in buckets) == 0
    assert sum(b.incorrect_flips for b in buckets) == 0


def test_flip_analysis_one_each_way():
    argos = [
        _rec("a", "argos", True, True),    # correct flip (sc wrong)
        _rec("b", "argos", False, True),   # incorrect flip (sc right)
        _rec("c", "argos", True, True),    # both right
        _rec("d", "argos", False, False),  # both right
    ]
    sc = [
        _rec("a", "sc5", False, True),
        _rec("b", "sc5", True, True),
        _rec("c", "sc5", True, True),
        _rec("d", "sc5", False, False),
    ]
    buckets = flip_analysis(argos, sc)
    assert sum(b.correct_flips for b in buckets) == 1
    assert sum(b.incorrect_flips for b in buckets) == 1
    assert sum(b.count for b in buckets) == 4


def test_flip_analysis_buckets_by_iterations():
    argos = [
        _rec("a", "argos", True, True, iterations=1),
        _rec("b", "argos", True, True, iterations=4),
        _rec("c", "argos", True, True, iterations=7),
    ]
    sc = [_rec(p, "sc5", True, True) for p in "abc"]
    buckets = flip_analysis(argos, sc)
    assert [b.count for b in buckets] == [1, 1, 1]
    assert [b.bucket for b in buckets] == ["0-2", "3-5", "6+"]


def test_flip_analysis_id_mismatch():
    with pytest.raises(ArgosError):
        flip_analysis([_rec("a", "argos", True, True)], [_rec("b", "sc5", True, True)])


# --- metrics conservation and CSV shape -------------------------------------------


def test_metrics_conservation():
    problems, kb, config, backend = kinship_setup(count=6)
    metrics = run_suite(problems, config, backend, systems=["argos", "sc5"], kb=kb)
    assert sum(b.count for b in metrics.flip_buckets) == len(problems)
    records = metrics.records["argos"]
    recomputed = sum(1 for r in records if r.correct) / len(records)
    assert metrics.accuracy("argos") == pytest.approx(recomputed)
    assert metrics.correct_flips + metrics.incorrect_flips <= len(problems)


def test_csv_headers():
    problems, kb, config, backend = kinship_setup(count=2, depth=2)
    metrics = run_suite(problems, config, backend, systems=["argos", "sat", "sc5"], kb=kb)
    assert summary_csv(metrics).splitlines()[0] == (
        "system,problems,accuracy,avg_iterations,avg_cot_calls,corruptions"
    )
    assert records_csv(metrics.records["argos"]).splitlines()[0].startswith(
        "problem_id,system,verdict,gold,correct"
    )
    assert flips_csv(metrics.flip_buckets).splitlines()[0] == (
        "bucket,problems,argos_accuracy,sc_accuracy,correct_flips,incorrect_flips"
    )
    assert cost_histogram_csv(metrics).splitlines()[0] == "system,cot_calls,problems"
    # every record row has the full column count
    for line in records_csv(metrics.records["argos"]).splitlines()[1:]:
        assert line.count(",") == 12


# Recorded from the CSV writers as they stood before they shared one row
# writer: a noisy 9-problem suite, so that the files hold fractions, empty
# cells, a corruption, an inconsistent record and empty flip buckets.
_PINNED_CSVS = {
    "summary.csv": (
        "system,problems,accuracy,avg_iterations,avg_cot_calls,corruptions\n"
        "argos,9,0.555556,1.000000,8.333333,1\n"
        "sat,9,0.666667,0.000000,0.000000,\n"
        "sc5,9,0.333333,0.000000,5.000000,\n"
    ),
    "flips.csv": (
        "bucket,problems,argos_accuracy,sc_accuracy,correct_flips,incorrect_flips\n"
        "0-2,9,0.555556,0.333333,2,0\n"
        "3-5,0,,,0,0\n"
        "6+,0,,,0,0\n"
        "total,9,0.555556,0.333333,2,0\n"
    ),
    "cost_histogram.csv": (
        "system,cot_calls,problems\n"
        "argos,5,5\n"
        "argos,10,2\n"
        "argos,15,2\n"
        "sat,0,9\n"
        "sc5,5,9\n"
    ),
    "records-argos.csv": (
        "problem_id,system,verdict,gold,correct,decided_by,iterations,"
        "cot_calls,confidence,inconsistent,corrupted,useful_clauses,error\n"
        "kinship-7-0000,argos,true,true,true,sat,1,5,1.000000,false,false,1,\n"
        "kinship-7-0001,argos,false,false,true,sat,2,10,1.000000,false,false,2,\n"
        "kinship-7-0002,argos,true,false,false,fallback,0,5,0.600000,false,false,0,\n"
        "kinship-7-0003,argos,true,false,false,fallback,2,15,0.600000,false,false,0,\n"
        "kinship-7-0004,argos,true,true,true,fallback,0,5,0.600000,false,false,0,\n"
        "kinship-7-0005,argos,false,false,true,fallback,2,15,0.600000,true,true,0,\n"
        "kinship-7-0006,argos,false,true,false,fallback,0,5,0.600000,false,false,0,\n"
        "kinship-7-0007,argos,false,true,false,fallback,1,10,0.600000,false,false,0,\n"
        "kinship-7-0008,argos,false,false,true,sat,1,5,1.000000,false,false,1,\n"
    ),
    "records-sat.csv": (
        "problem_id,system,verdict,gold,correct,decided_by,iterations,"
        "cot_calls,confidence,inconsistent,corrupted,useful_clauses,error\n"
        "kinship-7-0000,sat,false,true,false,unknown,0,0,0.500000,false,,,\n"
        "kinship-7-0001,sat,false,false,true,unknown,0,0,0.500000,false,,,\n"
        "kinship-7-0002,sat,false,false,true,unknown,0,0,0.500000,false,,,\n"
        "kinship-7-0003,sat,false,false,true,unknown,0,0,0.500000,false,,,\n"
        "kinship-7-0004,sat,false,true,false,unknown,0,0,0.500000,false,,,\n"
        "kinship-7-0005,sat,false,false,true,unknown,0,0,0.500000,false,,,\n"
        "kinship-7-0006,sat,false,true,false,unknown,0,0,0.500000,false,,,\n"
        "kinship-7-0007,sat,true,true,true,unknown,0,0,0.500000,false,,,\n"
        "kinship-7-0008,sat,false,false,true,unknown,0,0,0.500000,false,,,\n"
    ),
    "records-sc5.csv": (
        "problem_id,system,verdict,gold,correct,decided_by,iterations,"
        "cot_calls,confidence,inconsistent,corrupted,useful_clauses,error\n"
        "kinship-7-0000,sc5,false,true,false,self-consistency,0,5,0.600000,false,,,\n"
        "kinship-7-0001,sc5,false,false,true,self-consistency,0,5,0.600000,false,,,\n"
        "kinship-7-0002,sc5,true,false,false,self-consistency,0,5,0.600000,false,,,\n"
        "kinship-7-0003,sc5,true,false,false,self-consistency,0,5,0.600000,false,,,\n"
        "kinship-7-0004,sc5,true,true,true,self-consistency,0,5,0.600000,false,,,\n"
        "kinship-7-0005,sc5,true,false,false,self-consistency,0,5,0.600000,false,,,\n"
        "kinship-7-0006,sc5,false,true,false,self-consistency,0,5,0.600000,false,,,\n"
        "kinship-7-0007,sc5,false,true,false,self-consistency,0,5,0.600000,false,,,\n"
        "kinship-7-0008,sc5,false,false,true,self-consistency,0,5,0.600000,false,,,\n"
    ),
}


def test_csv_bytes_are_pinned():
    problems, kb, config, backend = kinship_setup(count=9, noise=0.2)
    metrics = run_suite(problems, config, backend, systems=["argos", "sat", "sc5"], kb=kb)
    written = {
        "summary.csv": summary_csv(metrics),
        "flips.csv": flips_csv(metrics.flip_buckets),
        "cost_histogram.csv": cost_histogram_csv(metrics),
    }
    for system, records in metrics.records.items():
        written[f"records-{system}.csv"] = records_csv(records)
    assert written == _PINNED_CSVS
