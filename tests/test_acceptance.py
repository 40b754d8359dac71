"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The kinship suite used
by criteria 4, 5 and 9 is built once per session and reused.
"""

import dataclasses
import itertools
import random
import time
from pathlib import Path

import pytest

from argos import _satcore
from argos.backends import OracleBackend, OracleKB
from argos.cnf import ClauseSet
from argos.corpus import load_problem_file
from argos.engine import CommonsenseClause, Engine, EngineConfig, trace_jsonl
from argos.harness import (
    cost_histogram_csv,
    records_csv,
    run_suite,
    summary_csv,
)
from argos.kinship import generate_kinship
from argos.logic import Atom, Entity, Literal, Predicate, ground
from argos.parser import parse_formula
from argos.sat import (
    ENTAILS_NOT_QUERY,
    ENTAILS_QUERY,
    INCONSISTENT,
    SatSession,
    compute_backbone,
)

from _oracles import (
    brute_force_backbone,
    brute_force_sat,
    random_3cnf,
    random_quantified_formula,
    semantic_models_mask,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN_TRACE = Path(__file__).resolve().parent / "data" / "winter_fox_trace.jsonl"

SUITE_SEED = 404


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {name} {detail}"


def _cs_from_ints(clauses, n) -> ClauseSet:
    cs = ClauseSet()
    for v in range(1, n + 1):
        cs.var_map[Atom(Predicate(f"v{v}", 0), ())] = v
    cs.num_vars = n
    cs.clauses = [list(c) for c in clauses]
    return cs


# --- criterion 1: backbone equals brute-force model intersection ------------------


def test_criterion_1_backbone_oracle_equivalence():
    rng = random.Random(101)
    start = time.monotonic()
    satisfiable_checked = 0
    for _ in range(200):
        n = rng.randint(4, 16)
        m = rng.randint(n, int(4.5 * n))
        clauses = random_3cnf(rng, n, m)
        want_sat = brute_force_sat(clauses, n)
        cs = _cs_from_ints(clauses, n)
        solver = _satcore.Solver(n)
        solver.add_clauses(cs.clauses)
        got_sat = solver.solve() == _satcore.SAT
        assert got_sat == want_sat
        if not want_sat:
            continue
        satisfiable_checked += 1
        bb = compute_backbone(solver, cs, solver.model)
        got = {
            cs.var_map[l.atom] if l.positive else -cs.var_map[l.atom]
            for l in bb.literals
        }
        assert got == brute_force_backbone(clauses, n)
    elapsed = time.monotonic() - start
    report(
        1,
        "backbone oracle equivalence",
        satisfiable_checked > 50 and elapsed < 30.0,
        f"200 instances, {satisfiable_checked} satisfiable, {elapsed:.1f}s",
    )


# --- criterion 2: grounding + normalization preserve satisfiability ----------------


def test_criterion_2_grounding_normalization_oracle():
    rng = random.Random(202)
    universe = [Entity("A"), Entity("B"), Entity("C")]
    mismatches = 0
    for _ in range(200):
        f = random_quantified_formula(rng, universe, max_quantifiers=3, max_atoms=10)
        mask, _ = semantic_models_mask(f, universe)
        want = mask != 0
        grounded = ground(f, universe)
        conclusion, _ = SatSession([grounded]).decide(with_backbone=False)
        got = conclusion.verdict != "inconsistent-premises"
        if got != want:
            mismatches += 1
    report(2, "grounding/normalization oracle", mismatches == 0, "200 formulas, exact match")


# --- criterion 3: winter-fox golden trace ------------------------------------------


def test_criterion_3_winter_fox_golden_trace():
    problem = load_problem_file(FIXTURES / "winter_fox" / "problem.json")
    kb = OracleKB.from_file(FIXTURES / "winter_fox" / "kb.json")
    result = Engine(problem, EngineConfig(use_sc_solver=False), OracleBackend(kb)).solve()
    clauses = [str(c) for c in result.commonsense]
    expected = [
        "turns_white(fox, winter) -> reflects(fox, sun)",
        "reflects(fox, sun) -> ~absorbs(fox, sun)",
        "turns_white(fox, winter) & ~absorbs(fox, sun) -> ~absorbs(white, sun)",
    ]
    golden = GOLDEN_TRACE.read_bytes()
    ok = (
        result.verdict is False
        and result.decided_by == "sat"
        and clauses == expected
        and trace_jsonl(result.trace).encode() == golden
    )
    report(3, "winter-fox golden trace", ok, "verdict False via sat, 3 clauses, bytes equal")


# --- criteria 4, 5, 9: the kinship abduction suite ----------------------------------


def _suite_config() -> EngineConfig:
    return EngineConfig(
        k=5,
        gamma0=1.0,
        alpha=0.1,
        tau=0.3,
        seed=SUITE_SEED,
        generation_style="entity_pair",
        score_style="truth",
    )


def _run_criterion4_suite(problems, kb):
    backend = OracleBackend(kb)
    metrics = run_suite(
        problems, _suite_config(), backend, systems=["argos", "sat"], kb=kb
    )
    bundle = {
        "summary.csv": summary_csv(metrics),
        "records-argos.csv": records_csv(metrics.records["argos"]),
        "records-sat.csv": records_csv(metrics.records["sat"]),
        "cost_histogram.csv": cost_histogram_csv(metrics),
    }
    for pid in sorted(metrics.traces):
        bundle[f"traces/{pid}.jsonl"] = trace_jsonl(metrics.traces[pid])
    return metrics, bundle


@pytest.fixture(scope="module")
def kinship_suite():
    problems, kb = generate_kinship(100, 4, seed=SUITE_SEED)
    kb = dataclasses.replace(kb, reasoning_depth=0, seed=SUITE_SEED)
    start = time.monotonic()
    metrics, bundle = _run_criterion4_suite(problems, kb)
    elapsed = time.monotonic() - start
    return problems, kb, metrics, bundle, elapsed


def test_criterion_4_end_to_end_abduction(kinship_suite):
    problems, kb, metrics, bundle, elapsed = kinship_suite
    sat_records = metrics.records["sat"]
    argos_records = metrics.records["argos"]
    all_unknown = all(r.decided_by == "unknown" for r in sat_records)
    accuracy = metrics.accuracy("argos")
    coin_accuracy = metrics.accuracy("sat")  # seeded coin flips: near one half
    sat_decided = sum(1 for r in argos_records if r.decided_by == "sat") / len(argos_records)
    corruption_free = all(r.corrupted is False for r in argos_records)
    ok = (
        len(argos_records) == 100
        and all_unknown
        and accuracy == 1.0
        and sat_decided >= 0.95
        and corruption_free
        and metrics.corruption_count == 0
        and 0.3 <= coin_accuracy <= 0.7
        and elapsed < 300.0
    )
    report(
        4,
        "end-to-end abduction",
        ok,
        f"accuracy={accuracy:.3f} sat_baseline={coin_accuracy:.2f} "
        f"sat_decided={sat_decided:.2f} corruptions={metrics.corruption_count} "
        f"runtime={elapsed:.0f}s",
    )


def test_criterion_5_cost_bound(kinship_suite):
    problems, kb, metrics, bundle, elapsed = kinship_suite
    config = _suite_config()
    bound = config.k * (config.gamma0 - 0.5) / config.alpha
    records = metrics.records["argos"]
    max_cot = max(r.cot_calls for r in records)
    max_iters = max(r.iterations for r in records)
    ok = all(r.cot_calls <= bound for r in records) and all(
        r.iterations <= 10 for r in records
    )
    report(
        5,
        "cost bound",
        ok,
        f"max cot_calls={max_cot} (bound {bound:.0f}), max iterations={max_iters}",
    )


def test_criterion_9_determinism(kinship_suite):
    problems, kb, metrics, bundle, elapsed = kinship_suite
    problems2, kb2 = generate_kinship(100, 4, seed=SUITE_SEED)
    kb2 = dataclasses.replace(kb2, reasoning_depth=0, seed=SUITE_SEED)
    _, bundle2 = _run_criterion4_suite(problems2, kb2)
    same_keys = set(bundle) == set(bundle2)
    diffs = [k for k in bundle if bundle.get(k) != bundle2.get(k)]
    ok = same_keys and not diffs
    report(9, "determinism", ok, f"{len(bundle)} artifacts byte-identical")


# --- criterion 6: flip direction under a depth-limited oracle ------------------------


def test_criterion_6_flip_direction():
    problems, kb = generate_kinship(100, 4, seed=606)
    kb = dataclasses.replace(kb, reasoning_depth=2, seed=606)
    backend = OracleBackend(kb)
    config = dataclasses.replace(_suite_config(), seed=606)
    metrics = run_suite(
        problems, config, backend, systems=["argos", "sc5"], kb=kb, check_corruption=False
    )
    buckets = [b for b in metrics.flip_buckets if b.count > 0]
    sc_accs = [b.sc_correct / b.count for b in buckets]
    argos_accs = [b.argos_correct / b.count for b in buckets]
    inversions = sum(
        1 for i in range(len(sc_accs) - 1) if sc_accs[i] < sc_accs[i + 1]
    )
    argos_at_least_sc = all(a >= s for a, s in zip(argos_accs, sc_accs))
    flips_ok = metrics.correct_flips > metrics.incorrect_flips
    ok = (
        len(buckets) >= 2
        and inversions <= 1
        and argos_at_least_sc
        and flips_ok
    )
    report(
        6,
        "flip direction",
        ok,
        f"sc_acc by bucket={[f'{a:.2f}' for a in sc_accs]} "
        f"argos={[f'{a:.2f}' for a in argos_accs]} "
        f"flips +{metrics.correct_flips}/-{metrics.incorrect_flips}",
    )


# --- criterion 7: verdicts do not depend on the commonsense subset --------------------


def test_criterion_7_well_definedness():
    rng = random.Random(707)
    atoms = [Atom(Predicate(f"a{i}", 0), ()) for i in range(1, 13)]

    def random_literal():
        return Literal(rng.choice(atoms), rng.random() < 0.5)

    def random_premises():
        out = []
        for _ in range(rng.randint(3, 8)):
            lits = [random_literal() for _ in range(rng.randint(1, 3))]
            text = " | ".join(str(l) for l in lits)
            out.append(parse_formula(text))
        return out

    checked = 0
    violations = 0
    attempts = 0
    while checked < 100 and attempts < 2000:
        attempts += 1
        premises = random_premises()
        pool = [
            CommonsenseClause(
                tuple(random_literal() for _ in range(rng.randint(0, 2))),
                random_literal(),
                1.0,
                1.0,
            )
            for _ in range(rng.randint(2, 4))
        ]
        joint, _ = SatSession(premises + [c.to_formula() for c in pool]).decide(
            with_backbone=False
        )
        if joint.verdict == INCONSISTENT:
            continue
        query = parse_formula(str(rng.choice(atoms)))
        decided = []
        for size in range(len(pool) + 1):
            for subset in itertools.combinations(pool, size):
                conclusion, _ = SatSession(
                    premises + [c.to_formula() for c in subset],
                    query,
                ).decide(with_backbone=False)
                if conclusion.verdict in (ENTAILS_QUERY, ENTAILS_NOT_QUERY):
                    decided.append(conclusion.verdict)
        if decided and len(set(decided)) > 1:
            violations += 1
        checked += 1
    report(
        7,
        "well-definedness over commonsense subsets",
        checked == 100 and violations == 0,
        f"{checked} consistent pairs, {violations} violations",
    )


# --- criterion 8: noise robustness ----------------------------------------------------


def test_criterion_8_noise_robustness():
    problems, kb = generate_kinship(100, 4, seed=SUITE_SEED)
    kb = dataclasses.replace(kb, reasoning_depth=0, noise=0.2, seed=SUITE_SEED)
    backend = OracleBackend(kb)
    metrics = run_suite(
        problems,
        _suite_config(),
        backend,
        systems=["argos", "sat"],
        kb=kb,
        check_corruption=False,
    )
    argos_records = metrics.records["argos"]
    crashes = [r for r in argos_records if r.error]
    inconsistent_records = [r for r in argos_records if r.inconsistent]
    routed = all(r.decided_by == "fallback" for r in inconsistent_records)
    argos_acc = metrics.accuracy("argos")
    sat_acc = metrics.accuracy("sat")
    ok = (
        not crashes
        and len(inconsistent_records) > 0
        and routed
        and argos_acc > sat_acc
    )
    report(
        8,
        "noise robustness",
        ok,
        f"crashes={len(crashes)} inconsistent={len(inconsistent_records)} "
        f"routed={routed} accuracy {argos_acc:.2f} vs sat {sat_acc:.2f}",
    )
