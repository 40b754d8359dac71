"""Self-test of the benchmark: tiny workloads, traced twice, counts equal.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

TIMED = {"trace.overhead_frac"}  # a ratio of two wall times; other timings end in _s


def _tiny(name: str):
    w = workloads.WORKLOADS[name](seed=1)
    if name == "abduce":
        w.pool, w.traced = 3, 2
    elif name == "baselines":
        w.pool = w.traced = 4
    else:
        w.traced = 12
    return w


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    runs = [run.per_layer(_tiny(name)) for _ in range(2)]
    for traced, _ in runs:
        assert not traced.errors, traced.errors
    counts = [
        {k: v for k, v in metrics.items() if not k.endswith("_s") and k not in TIMED}
        for _, metrics in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["satcore.solves"] > 0 and counts[0]["sat.sessions"] > 0
    assert runs[0][0].fingerprints == runs[1][0].fingerprints
    assert runs[0][0].failures == runs[1][0].failures


class Flaky(workloads.Workload):
    """Odd inputs raise; ``tolerated`` says whether that is a known defect."""

    name = "flaky"
    tolerated = False

    def setup(self):
        return [0, 1, 2, 3]

    def run(self, item):
        if item % 2:
            raise ValueError("boom")
        return workloads.Outcome(accurate=True, fingerprint=str(item))

    def tolerates(self, exc):
        return self.tolerated


def _one_pass(workload) -> run.Pass:
    p = run.Pass()
    for i, item in enumerate(workload.setup()):
        p.run(workload, i, item)
    p.check_failures(workload)
    return p


def test_failed_problem_is_recorded_and_run_continues(monkeypatch, capsys):
    p = _one_pass(Flaky(seed=1))
    assert (p.attempted, p.passed, p.failed) == (4, {0, 2}, {1, 3})
    assert p.failures == {1: "ValueError", 3: "ValueError"}
    assert p.errors  # an exception the workload does not tolerate fails the check

    monkeypatch.setattr(workloads, "WORKLOADS", {"flaky": Flaky})
    with pytest.raises(SystemExit) as exit_:
        run.main(["--workload", "flaky", "--seconds", "0.01"])
    assert exit_.value.code == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 4, 2)


def test_repeats_count_once_and_must_repeat_outputs():
    w = Flaky(seed=1)
    w.tolerated = True
    w.known_failures = 2
    p = _one_pass(w)
    for i, item in enumerate(w.setup()):
        p.run(w, i, item)
    assert (p.attempted, p.failed, p.errors) == (4, {1, 3}, [])
    assert [len(p.times[i]) for i in range(4)] == [2, 2, 2, 2]
    w.run = lambda item: workloads.Outcome(accurate=True, fingerprint="changed")
    p.run(w, 0, 0)
    assert p.errors == ["input 0 gave different outputs on a repeat"]


def test_traced_3cnf_inputs_do_not_depend_on_the_seed():
    picked = [
        sorted(item[0] for item in workloads.Backbone3Cnf(seed).setup()[: workloads.Backbone3Cnf.traced])
        for seed in (1, 2)
    ]
    assert picked[0] == picked[1] == list(range(workloads.Backbone3Cnf.traced))


def test_tolerated_failures_within_the_known_baseline_pass(monkeypatch):
    monkeypatch.setattr(Flaky, "tolerated", True)
    monkeypatch.setattr(Flaky, "known_failures", 2)
    assert not _one_pass(Flaky(seed=1)).errors
    monkeypatch.setattr(Flaky, "known_failures", 1)
    assert _one_pass(Flaky(seed=1)).errors


def test_percentiles_average_repeats_and_count_failed_inputs():
    p = run.Pass()
    p.times = {0: [1.0], 1: [2.0, 4.0], 2: [5.0], 3: [0.5]}
    p.failures = {3: "ValueError"}
    assert run.percentiles(p) == (2.0, 4.4)
