"""Per-layer spans and counters, recorded from outside argos.

Each layer is timed by wrapping the public functions it is entered
through, under the name the caller looks them up by: ``ground`` is
imported by name into the engine and the harness, so all three module
bindings are wrapped; ``SatSession``, ``Solver`` and ``OracleBackend``
methods are wrapped on their classes. The recursive ``CnfBuilder.encode``
is deliberately not wrapped (it runs millions of times per run, so a
wrapper there would mostly measure itself); the CNF layer is timed at the
session calls that drive the builder (``add_formulas``, ``set_query``).

Spans stay in memory, summed by name. A span's self time is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from argos import _satcore, engine, harness, kinship, logic, parser, sat
from argos.backends import OracleBackend

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder: per-name self and total seconds, counters by name."""

    def __init__(self):
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, child seconds]

    def current(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    def enter(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def exit(self) -> None:
        end = _clock()
        name, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.self_s[name] += duration - child
        self.total_s[name] += duration


def _spanned(tracer: Tracer, name: str, fn: Callable, before=None, after=None) -> Callable:
    """``fn`` inside a span; ``before(args)`` returns the token ``after`` gets."""

    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        result = None
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.exit()
            if after is not None:
                after(token, args, result)

    return wrapper


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every layer's entry points for the duration of the block."""
    count = tracer.counts
    undo: list[tuple] = []

    def patch(owner, attr: str, wrapper_for: Callable[[Callable], Callable]) -> None:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        undo.append((owner, attr, original, had_own))
        setattr(owner, attr, wrapper_for(original))

    def counted(key: str):
        def after(token, args, result):
            count[key] += 1

        return after

    # parser and generator: kinship binds parse_formula by name
    for module in (parser, kinship):
        patch(module, "parse_formula",
              lambda fn: _spanned(tracer, "parser.parse", fn, after=counted("parser.parses")))
    patch(kinship, "generate_kinship",
          lambda fn: _spanned(tracer, "kinship.generate", fn))

    # grounding, under each name it is looked up by
    for module in (logic, engine, harness):
        patch(module, "ground",
              lambda fn: _spanned(tracer, "logic.ground", fn, after=counted("logic.grounds")))

    # CNF encoding, at the session calls that drive the builder
    def cnf_size(args):
        cs = args[0].builder.cs
        return cs.num_vars, len(cs.clauses)

    def cnf_growth(token, args, result):
        cs = args[0].builder.cs
        count["cnf.vars"] += cs.num_vars - token[0]
        count["cnf.clauses"] += len(cs.clauses) - token[1]

    for attr in ("add_formulas", "set_query"):
        patch(sat.SatSession, attr,
              lambda fn: _spanned(tracer, "cnf.encode", fn, before=cnf_size, after=cnf_growth))

    # SAT layer: sessions, verdict decisions, backbones
    patch(sat.SatSession, "__init__",
          lambda fn: _spanned(tracer, "sat.session", fn, after=counted("sat.sessions")))
    patch(sat.SatSession, "decide",
          lambda fn: _spanned(tracer, "sat.decide", fn, after=counted("sat.decides")))

    def backbone_done(token, args, result):
        count["sat.backbones"] += 1
        if result is not None:
            count["sat.backbone_literals"] += len(result)

    patch(sat, "compute_backbone",
          lambda fn: _spanned(tracer, "sat.backbone", fn, after=backbone_done))

    # CDCL kernel: every solve call, classified by the layer that made it
    def solve_start(args):
        caller = tracer.current()
        assumptions = args[1] if len(args) > 1 else ()
        if caller == "sat.decide":
            count["sat.verdict_solves"] += 1
        elif caller == "sat.backbone" and len(assumptions):
            count["sat.backbone_probes"] += 1
        return args[0].conflict_count

    def solve_done(token, args, result):
        count["satcore.solves"] += 1
        count["satcore.conflicts"] += args[0].conflict_count - token

    patch(_satcore.Solver, "solve",
          lambda fn: _spanned(tracer, "satcore.solve", fn, before=solve_start, after=solve_done))

    # stand-in model: vote (forward chaining), generation, scoring
    def vote_done(token, args, result):
        count["backends.votes"] += 1
        count["backends.cot_calls"] += args[4] if len(args) > 4 else 0

    patch(OracleBackend, "solve",
          lambda fn: _spanned(tracer, "backends.vote", fn, after=vote_done))
    patch(OracleBackend, "generate",
          lambda fn: _spanned(tracer, "backends.generate", fn, after=counted("backends.generates")))
    for attr in ("commonsense_score", "relevance_score"):
        patch(OracleBackend, attr,
              lambda fn: _spanned(tracer, "backends.score", fn, after=counted("backends.scores")))

    # engine loop: counts come from the SolveResult and its trace events
    def solve_result(token, args, result):
        if result is None:
            return
        count["engine.solves"] += 1
        count["engine.iterations"] += result.iterations
        count["engine.sat_decided"] += result.decided_by == engine.DECIDED_BY_SAT
        for event in result.trace:
            kind = event["event"]
            if kind == "candidate":
                count["engine.candidates"] += 1
            elif kind == "clause_accepted":
                count["engine.accepted"] += 1
            elif kind == "reground":
                count["engine.regrounds"] += 1

    patch(engine.Engine, "__init__", lambda fn: _spanned(tracer, "engine", fn))
    patch(engine.Engine, "solve", lambda fn: _spanned(tracer, "engine", fn, after=solve_result))

    # harness checks
    def corruption_done(token, args, result):
        count["harness.corruptions"] += result is True

    patch(harness, "corruption_check",
          lambda fn: _spanned(tracer, "harness.corruption", fn, after=corruption_done))
    patch(harness, "useful_clause_count", lambda fn: _spanned(tracer, "harness.useful", fn))

    try:
        yield
    finally:
        for owner, attr, original, had_own in reversed(undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
