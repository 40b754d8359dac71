"""Suite runner, baselines, and the analysis quantities.

Systems: ``argos`` (the full loop), ``sat`` (solver only; an undecided
verdict becomes a seeded coin flip), and ``scN`` (one N-sample vote with
N >= 1, e.g. ``sc5``/``sc20``). Per-problem records aggregate into accuracy,
corruption counts, flip tables bucketed by abduction effort, and cost
histograms, all emitted as CSV with stable formatting.
"""

from __future__ import annotations

import hashlib
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .backends import Backend, Context
from .corpus import Problem
from .engine import (
    DECIDED_BY_FALLBACK,
    DECIDED_BY_SAT,
    DECIDED_BY_SC,
    Engine,
    EngineConfig,
    SolveResult,
)
from .errors import ArgosError
from .logic import conj, ground
from .sat import ENTAILS_NOT_QUERY, ENTAILS_QUERY, INCONSISTENT, UNKNOWN, SatSession

_SC_RE = re.compile(r"^sc(\d+)$")

BUCKETS = ((0, 2), (3, 5), (6, None))


def bucket_name(lo: int, hi: Optional[int]) -> str:
    return f"{lo}-{hi}" if hi is not None else f"{lo}+"


def bucket_of(iterations: int) -> str:
    for lo, hi in BUCKETS:
        if iterations >= lo and (hi is None or iterations <= hi):
            return bucket_name(lo, hi)
    raise ValueError(f"no bucket for {iterations}")


@dataclass
class ProblemRecord:
    problem_id: str
    system: str
    verdict: bool
    gold: Optional[bool]
    decided_by: str
    iterations: int
    cot_calls: int
    confidence: float
    inconsistent: bool = False
    corrupted: Optional[bool] = None
    useful_clauses: Optional[int] = None
    error: Optional[str] = None

    @property
    def correct(self) -> Optional[bool]:
        return None if self.gold is None else self.verdict == self.gold


@dataclass
class FlipBucket:
    bucket: str
    count: int = 0
    argos_correct: int = 0
    sc_correct: int = 0
    correct_flips: int = 0
    incorrect_flips: int = 0


@dataclass
class RunMetrics:
    records: dict[str, list[ProblemRecord]] = field(default_factory=dict)
    traces: dict[str, list[dict]] = field(default_factory=dict)
    flip_buckets: list[FlipBucket] = field(default_factory=list)
    corruption_count: int = 0

    def accuracy(self, system: str = "argos") -> float:
        recs = [r for r in self.records.get(system, []) if r.gold is not None]
        if not recs:
            return 0.0
        return sum(1 for r in recs if r.correct) / len(recs)

    @property
    def correct_flips(self) -> int:
        return sum(b.correct_flips for b in self.flip_buckets)

    @property
    def incorrect_flips(self) -> int:
        return sum(b.incorrect_flips for b in self.flip_buckets)


def _coin(seed: int, problem_id: str) -> bool:
    digest = hashlib.sha256(f"{seed}|sat-guess|{problem_id}".encode()).digest()
    return digest[0] % 2 == 0


def run_sat_baseline(problem: Problem, config: EngineConfig) -> ProblemRecord:
    """Solver only; an undecided problem is answered by a seeded coin flip."""
    members = problem.universe()
    session = SatSession(problem.premises, ground(problem.query, members), universe=members)
    conclusion, _ = session.decide(with_backbone=False)
    if conclusion.verdict == ENTAILS_QUERY:
        verdict, decided_by, confidence = True, DECIDED_BY_SAT, 1.0
    elif conclusion.verdict == ENTAILS_NOT_QUERY:
        verdict, decided_by, confidence = False, DECIDED_BY_SAT, 1.0
    else:
        verdict = _coin(config.seed, problem.id)
        decided_by, confidence = UNKNOWN, 0.5
    return ProblemRecord(
        problem_id=problem.id,
        system="sat",
        verdict=verdict,
        gold=problem.gold_label,
        decided_by=decided_by,
        iterations=0,
        cot_calls=0,
        confidence=confidence,
        inconsistent=conclusion.verdict == INCONSISTENT,
    )


def run_sc_baseline(
    problem: Problem, config: EngineConfig, backend: Backend, n: int
) -> ProblemRecord:
    """One n-sample vote on the bare premises; exactly n chain-of-thought calls."""
    vote = backend.solve(Context(problem.premises), (), problem.query, n)
    return ProblemRecord(
        problem_id=problem.id,
        system=f"sc{n}",
        verdict=vote.answer,
        gold=problem.gold_label,
        decided_by=DECIDED_BY_SC if not vote.degenerate else DECIDED_BY_FALLBACK,
        iterations=0,
        cot_calls=n,
        confidence=vote.vote_fraction,
    )


def corruption_check(engine: Engine, kb=None) -> bool:
    """True iff the engine's accepted clauses change the fully informed verdict.

    The fully informed problem restores the withheld rules (or, failing
    that, the oracle rule base); corruption means the restored-plus-accepted
    set decides differently or has become inconsistent. The restored rules
    join the engine's own session behind one selector, over its universe,
    so both verdicts are decisions under assumptions: that
    selector alone, then with the accepted clauses' selectors too.
    """
    problem = engine.problem
    restored = list(problem.withheld_rules)
    if not restored and kb is not None:
        restored = kb.formulas()
    if not restored:
        raise ArgosError(f"{problem.id}: no withheld rules and no rule base to restore")
    session = engine.session
    informed = session.add_guarded([conj(restored)])
    base, _ = session.decide(with_backbone=False, assumptions=informed)
    if base.verdict not in (ENTAILS_QUERY, ENTAILS_NOT_QUERY):
        raise ArgosError(f"{problem.id}: restored problem is undecided")
    augmented, _ = session.decide(
        with_backbone=False, assumptions=informed + engine.selectors
    )
    return augmented.verdict != base.verdict


def useful_clause_count(engine: Engine, result: SolveResult) -> int:
    """Clauses whose removal flips the verdict of premises plus commonsense.

    Leave-one-out on the engine's session: each accepted clause sits behind
    its selector, and dropping a clause is dropping its selector from the
    assumptions.
    """
    if result.decided_by != DECIDED_BY_SAT or not result.commonsense:
        return 0
    session, selectors = engine.session, engine.selectors
    full, _ = session.decide(with_backbone=False, assumptions=selectors)
    useful = 0
    for i in range(len(selectors)):
        rest = selectors[:i] + selectors[i + 1 :]
        conclusion, _ = session.decide(with_backbone=False, assumptions=rest)
        if conclusion.verdict != full.verdict:
            useful += 1
    return useful


def run_argos(
    problem: Problem,
    config: EngineConfig,
    backend: Backend,
    kb=None,
    check_corruption: bool = True,
) -> tuple[ProblemRecord, list[dict]]:
    engine = Engine(problem, config, backend)
    result = engine.solve()
    corrupted: Optional[bool] = None
    if check_corruption and (problem.withheld_rules or kb is not None):
        corrupted = corruption_check(engine, kb)
    record = ProblemRecord(
        problem_id=problem.id,
        system="argos",
        verdict=result.verdict,
        gold=problem.gold_label,
        decided_by=result.decided_by,
        iterations=result.iterations,
        cot_calls=result.cot_calls,
        confidence=result.confidence,
        inconsistent=result.inconsistent,
        corrupted=corrupted,
        useful_clauses=useful_clause_count(engine, result),
    )
    return record, result.trace


def _worker(args):
    problem, config, backend, kb, system, check_corruption = args
    try:
        if system == "argos":
            record, trace = run_argos(
                problem, config, backend, kb, check_corruption
            )
            return record, trace
        if system == "sat":
            return run_sat_baseline(problem, config), None
        m = _SC_RE.match(system)
        if m:
            return run_sc_baseline(problem, config, backend, int(m.group(1))), None
        raise ArgosError(f"unknown system {system!r}")
    except Exception as exc:  # one problem's failure is its row's, never the suite's
        error = str(exc) if isinstance(exc, ArgosError) else f"{type(exc).__name__}: {exc}"
        record = ProblemRecord(
            problem_id=problem.id,
            system=system,
            verdict=False,
            gold=problem.gold_label,
            decided_by="error",
            iterations=0,
            cot_calls=0,
            confidence=0.0,
            error=error,
        )
        return record, None


def parse_system_names(names: Iterable[str]) -> list[str]:
    out = []
    for name in names:
        name = name.strip().lower()
        if not name:
            continue
        m = _SC_RE.match(name)
        if name not in ("argos", "sat") and not m:
            raise ArgosError(f"unknown system {name!r}")
        if m and int(m.group(1)) < 1:
            raise ArgosError(f"system {name!r} needs at least one sample")
        if name not in out:
            out.append(name)
    if not out:
        raise ArgosError("no systems requested")
    return out


def run_suite(
    problems: Sequence[Problem],
    config: EngineConfig,
    backend: Backend,
    systems: Iterable[str] = ("argos",),
    kb=None,
    check_corruption: bool = True,
    jobs: int = 1,
) -> RunMetrics:
    """Run each of ``systems`` on every problem and aggregate the metrics.

    Per-problem failures are recorded (``error`` column) and the run keeps
    going. Records come back keyed by system, sorted by problem id; flips
    are computed between the abduction run and the first sc baseline.
    """
    systems = parse_system_names(systems)
    metrics = RunMetrics()
    tasks = [
        (problem, config, backend, kb, system, check_corruption)
        for system in systems
        for problem in problems
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_worker, tasks, chunksize=1))
    else:
        outcomes = [_worker(t) for t in tasks]
    for (record, trace) in outcomes:
        metrics.records.setdefault(record.system, []).append(record)
        if trace is not None:
            metrics.traces[record.problem_id] = trace
    for system in metrics.records:
        metrics.records[system].sort(key=lambda r: r.problem_id)
    argos_records = metrics.records.get("argos", [])
    metrics.corruption_count = sum(1 for r in argos_records if r.corrupted)
    sc_systems = sorted(s for s in metrics.records if _SC_RE.match(s))
    if argos_records and sc_systems:
        metrics.flip_buckets = flip_analysis(
            argos_records, metrics.records[sc_systems[0]]
        )
    return metrics


def flip_analysis(
    argos_records: Sequence[ProblemRecord], sc_records: Sequence[ProblemRecord]
) -> list[FlipBucket]:
    """Flip counts and per-system accuracy, bucketed by abduction iterations."""
    argos_by_id = {r.problem_id: r for r in argos_records}
    sc_by_id = {r.problem_id: r for r in sc_records}
    if set(argos_by_id) != set(sc_by_id):
        raise ArgosError("flip analysis needs the same problem ids in both runs")
    buckets = {bucket_name(lo, hi): FlipBucket(bucket_name(lo, hi)) for lo, hi in BUCKETS}
    for pid in sorted(argos_by_id):
        a, s = argos_by_id[pid], sc_by_id[pid]
        if a.gold is None:
            continue
        b = buckets[bucket_of(a.iterations)]
        b.count += 1
        b.argos_correct += bool(a.correct)
        b.sc_correct += bool(s.correct)
        if a.verdict != s.verdict:
            if a.correct:
                b.correct_flips += 1
            elif s.correct:
                b.incorrect_flips += 1
    return [buckets[bucket_name(lo, hi)] for lo, hi in BUCKETS]


# --- CSV emission ------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _csv(header: str, rows) -> str:
    """``header`` and one line per row, each value written by ``_fmt``."""
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def summary_csv(metrics: RunMetrics) -> str:
    rows = []
    for system in sorted(metrics.records):
        recs = metrics.records[system]
        n = len(recs)
        rows.append((
            system,
            n,
            metrics.accuracy(system),
            sum(r.iterations for r in recs) / n if n else 0.0,
            sum(r.cot_calls for r in recs) / n if n else 0.0,
            metrics.corruption_count if system == "argos" else None,
        ))
    return _csv("system,problems,accuracy,avg_iterations,avg_cot_calls,corruptions", rows)


def records_csv(records: Sequence[ProblemRecord]) -> str:
    return _csv(
        "problem_id,system,verdict,gold,correct,decided_by,iterations,"
        "cot_calls,confidence,inconsistent,corrupted,useful_clauses,error",
        (
            (r.problem_id, r.system, r.verdict, r.gold, r.correct, r.decided_by,
             r.iterations, r.cot_calls, r.confidence, r.inconsistent, r.corrupted,
             r.useful_clauses, r.error)
            for r in records
        ),
    )


def flips_csv(buckets: Sequence[FlipBucket]) -> str:
    total = FlipBucket(
        "total",
        sum(b.count for b in buckets),
        sum(b.argos_correct for b in buckets),
        sum(b.sc_correct for b in buckets),
        sum(b.correct_flips for b in buckets),
        sum(b.incorrect_flips for b in buckets),
    )
    return _csv(
        "bucket,problems,argos_accuracy,sc_accuracy,correct_flips,incorrect_flips",
        (
            (b.bucket, b.count,
             b.argos_correct / b.count if b.count else None,
             b.sc_correct / b.count if b.count else None,
             b.correct_flips, b.incorrect_flips)
            for b in [*buckets, total]
        ),
    )


def cost_histogram_csv(metrics: RunMetrics) -> str:
    """Distribution of per-problem chain-of-thought calls for each system."""
    rows = []
    for system in sorted(metrics.records):
        counts: dict[int, int] = {}
        for r in metrics.records[system]:
            counts[r.cot_calls] = counts.get(r.cot_calls, 0) + 1
        rows.extend((system, cot, counts[cot]) for cot in sorted(counts))
    return _csv("system,cot_calls,problems", rows)
