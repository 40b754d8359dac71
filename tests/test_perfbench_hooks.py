"""The benchmark's tracer wraps argos entry points by name; a refactor that
unbinds one of them fails here rather than in a benchmark run."""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from argos.backends import OracleBackend  # noqa: E402
from argos.engine import EngineConfig  # noqa: E402
from argos.harness import run_argos  # noqa: E402
from argos.kinship import generate_kinship  # noqa: E402
from perfbench.tracing import Tracer, installed  # noqa: E402


def test_tracer_sees_grounding_and_encoding():
    problems, kb = generate_kinship(2, 2, seed=404)
    kb = dataclasses.replace(kb, reasoning_depth=0, seed=404)
    config = EngineConfig(seed=404, generation_style="entity_pair", score_style="truth")
    tracer = Tracer()
    with installed(tracer):
        record, _ = run_argos(problems[0], config, OracleBackend(kb), kb)
    assert record.correct is True
    assert tracer.total_s["cnf.encode"] > 0 and tracer.counts["cnf.clauses"] > 0
    assert tracer.counts["logic.grounds"] > 0 and tracer.counts["sat.sessions"] > 0
    # zero if SatSession.decide stopped calling sat.compute_backbone by its
    # module name, or the backbone stopped probing under assumptions
    assert tracer.counts["sat.verdict_solves"] > 0
    assert tracer.counts["sat.backbones"] > 0 and tracer.counts["sat.backbone_probes"] > 0
    # the clause search's backend requests, as the tracer counts them on OracleBackend
    assert tracer.counts["backends.generates"] == 4
    assert tracer.counts["backends.scores"] == 2
    # the emitted clauses and the solver's path on this problem; a change to
    # either fails here rather than in a benchmark run
    assert tracer.counts["cnf.clauses"] == 624 and tracer.counts["cnf.vars"] == 108
    assert tracer.counts["satcore.solves"] == 35
    assert tracer.counts["sat.backbone_probes"] == 23
