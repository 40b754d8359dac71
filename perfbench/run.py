#!/usr/bin/env python3
"""argos benchmark: run one workload, check every output, print the metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload abduce --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: problems run one at a time
in a closed loop (one client, ``jobs=1``), cycling through the workload's
inputs until ``--seconds`` have passed and every input has run once. The
loop is split into equal segments, and before each one, untimed by the
loop, a fresh interpreter imports argos and a fresh copy of the workload
sets up; the median of these samples is the set-up time, so they span the
run rather than one moment of the host's speed. Times and rates are taken
over the distinct inputs, so runs that repeat different parts of the suite
describe the same suite. ``--trace 1`` reports the per-layer
metrics: each problem of a fixed, seed-determined list runs once traced and
once untraced, back to back, alternating which goes first; the summed
difference in their times is the tracing overhead, and their outputs must
be equal. A problem that raises is a failure recorded with its exception
type; the run goes on, but any failure the workload does not tolerate
fails the output check. ``attempted`` and ``failed`` count distinct
inputs, so they depend on the workload alone, not on how many repeats the
host's speed allowed; a repeated input must give the same outputs as its
first run, or the output check fails. The last line of standard output is
one JSON object; the exit code is 1 when an output check fails and 2 when argos
cannot be imported. Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEGMENTS = 5  # of a timed loop, each preceded by one set-up sample

clock = time.perf_counter

# times `import argos` in a fresh interpreter: a module imports once per process
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import argos; print(time.perf_counter() - t)"
)


def import_argos() -> None:
    """Import argos from this checkout's ``src``, or exit 2."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import argos  # noqa: F401
        import workloads  # noqa: F401
    except ImportError as exc:
        print(f"cannot import argos from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(argos.__file__).resolve().parent != SRC / "argos":
        print(f"argos was imported from {argos.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def setup_seconds(workload) -> float:
    """One set-up sample: import argos in a fresh interpreter, then set up a
    fresh copy of the workload, so the running one keeps its state."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    t0 = clock()
    type(workload)(workload.seed).setup()
    return float(out.stdout) + clock() - t0


class Pass:
    """Per-problem results of one run over the inputs."""

    def __init__(self):
        self.times: dict[int, list[float]] = {}  # input index -> times of its runs
        self.failures: dict[int, str] = {}  # input index -> type of the exception it raised
        self.passed: set[int] = set()  # completed with every check passing
        self.accurate: set[int] = set()  # answer equals the reference
        self.errors: list[str] = []
        self.fingerprints: dict[int, str] = {}
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        """Distinct inputs run."""
        return len(self.times)

    @property
    def failed(self) -> set[int]:
        """Distinct inputs that raised."""
        return set(self.failures)

    def run(self, workload, index: int, item) -> None:
        """Run one problem and record its outcome; an exception is a failure.

        A repeat of an input already run is timed, and its outputs must equal
        the first run's; its checks and failure are recorded once.
        """
        first = index not in self.times
        t0 = clock()
        try:
            out = workload.run(item)
        except Exception as exc:  # a failed problem is recorded, never fatal
            t = clock() - t0
            kind = type(exc).__name__
            if first:
                if kind not in self.failures.values():
                    traceback.print_exc(file=sys.stderr)
                self.failures[index] = kind
                if not workload.tolerates(exc):
                    self.errors.append(f"input {index} raised {kind}: {exc}")
            fingerprint = f"raised {kind}: {exc}"
        else:
            t = clock() - t0
            if first:
                if not out.errors:
                    self.passed.add(index)
                if out.accurate:
                    self.accurate.add(index)
                self.errors += out.errors
            fingerprint = out.fingerprint
        if first:
            self.fingerprints[index] = fingerprint
        elif fingerprint != self.fingerprints[index]:
            self.errors.append(f"input {index} gave different outputs on a repeat")
        self.times.setdefault(index, []).append(t)

    def busy(self) -> float:
        """Summed time of every run, failed ones included."""
        return sum(sum(ts) for ts in self.times.values())

    def check_failures(self, workload) -> None:
        """More distinct failed inputs than the workload's known baseline fail the check."""
        if len(self.failed) > workload.known_failures:
            self.errors.append(
                f"{len(self.failed)} distinct inputs failed; the known baseline is "
                f"{workload.known_failures}"
            )


def percentiles(p: Pass) -> tuple[float, float]:
    """p50 and p90 over distinct inputs of each one's mean time.

    An input that failed counts at its time to failure. It cannot hide a
    slow problem behind a crash: ``check_failures`` rejects a run with more
    failed inputs than the workload's known baseline.
    """
    times = sorted(statistics.fmean(ts) for ts in p.times.values())
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    return statistics.median(times), p90


def end_to_end(workload, seconds: float) -> tuple[Pass, dict]:
    items = workload.setup()
    p = Pass()
    setups = []
    i = 0
    for segment in range(1, SEGMENTS + 1):
        setups.append(setup_seconds(workload))
        start = clock()
        while True:
            p.run(workload, i % len(items), items[i % len(items)])
            i += 1
            if p.wall + clock() - start >= seconds * segment / SEGMENTS and (
                segment < SEGMENTS or i >= len(items)
            ):
                break
        p.wall += clock() - start
    p.check_failures(workload)
    p50, p90 = percentiles(p)
    # one pass over the suite: each distinct input once, at its mean time
    suite_s = sum(statistics.fmean(ts) for ts in p.times.values())
    return p, {
        "problems_per_s": len(p.passed - p.failed) / suite_s,
        "problem_p50_s": p50,
        "problem_p90_s": p90,
        "setup_s": statistics.median(setups),
        "accuracy": len(p.accurate - p.failed) / len(p.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload) -> tuple[Pass, dict]:
    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        items = workload.setup()[: workload.traced]
    traced, plain = Pass(), Pass()
    for i, item in enumerate(items):
        for on in ((True, False) if i % 2 == 0 else (False, True)):
            if on:
                with tracing.installed(tracer):
                    traced.run(workload, i, item)
            else:
                plain.run(workload, i, item)
    traced.wall = traced.busy()
    traced.check_failures(workload)
    if plain.fingerprints != traced.fingerprints:
        traced.errors.append("outputs of the traced runs differ from the untraced runs")

    self_s, total_s, c = tracer.self_s, tracer.total_s, tracer.counts
    problems = traced.attempted

    def ratio(a, b):
        return a / b if b else 0.0

    overhead = traced.busy() - plain.busy()
    return traced, {
        "parser.parse_s": self_s["parser.parse"],
        "parser.parses": c["parser.parses"],
        "kinship.generate_s": self_s["kinship.generate"],
        "logic.ground_s": self_s["logic.ground"],
        "logic.grounds": c["logic.grounds"],
        "cnf.encode_s": self_s["cnf.encode"],
        "cnf.vars": c["cnf.vars"],
        "cnf.clauses": c["cnf.clauses"],
        "sat.decide_s": self_s["sat.decide"],
        "sat.decides": c["sat.decides"],
        "sat.verdict_solves": c["sat.verdict_solves"],
        "sat.sessions": c["sat.sessions"],
        "sat.backbone_s": self_s["sat.backbone"],
        "sat.backbones": c["sat.backbones"],
        "sat.backbone_probes": c["sat.backbone_probes"],
        "sat.backbone_literals": c["sat.backbone_literals"],
        "sat.probe_yield": ratio(c["sat.backbone_literals"], c["sat.backbone_probes"]),
        "satcore.solve_s": self_s["satcore.solve"],
        "satcore.solves": c["satcore.solves"],
        "satcore.conflicts": c["satcore.conflicts"],
        "backends.vote_s": self_s["backends.vote"],
        "backends.votes": c["backends.votes"],
        "backends.generate_s": self_s["backends.generate"],
        "backends.generates": c["backends.generates"],
        "backends.score_s": self_s["backends.score"],
        "backends.scores": c["backends.scores"],
        "backends.cot_calls_per_problem": ratio(c["backends.cot_calls"], problems),
        "backends.calls_per_problem": ratio(c["backends.generates"] + c["backends.scores"], problems),
        "engine.self_s": self_s["engine"],
        "engine.iterations": c["engine.iterations"],
        "engine.candidates": c["engine.candidates"],
        "engine.accept_yield": ratio(c["engine.accepted"], c["engine.candidates"]),
        "engine.regrounds": c["engine.regrounds"],
        "engine.sat_decided_frac": ratio(c["engine.sat_decided"], c["engine.solves"]),
        "harness.corruption_s": self_s["harness.corruption"],
        "harness.corruption_total_s": total_s["harness.corruption"],
        "harness.useful_s": self_s["harness.useful"],
        "harness.useful_total_s": total_s["harness.useful"],
        "harness.corruptions": c["harness.corruptions"],
        "trace.problems": problems,
        "trace.overhead_s": overhead,
        "trace.overhead_frac": ratio(overhead, plain.busy()),
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description="argos benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_argos()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        p, values = per_layer(workload)
        table = spec["per_layer"]
    else:
        p, values = end_to_end(workload, args.seconds)
        table = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}

    failed = len(p.failures)
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"attempted={p.attempted} failed={failed} "
          f"failed_frac={failed / max(p.attempted, 1):.4f} wall_s={p.wall:.3f}")
    for kind, n in sorted(Counter(p.failures.values()).items()):
        print(f"  failures: {n} x {kind}")
    for e in p.errors[:20]:
        print(f"  CHECK FAILED: {e}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    correct = not p.errors
    print(json.dumps({"correct": correct, "attempted": p.attempted, "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
