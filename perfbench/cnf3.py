"""Seeded random 3-CNF instances near the satisfiability threshold.

The benchmark owns this generator so that no test refactor can change the
``backbone-3cnf`` workload. Instance ``i`` of the pool depends only on
``i``: its variable count is drawn from ``N_MIN..N_MAX`` and it has
``round(RATIO * n)`` clauses of three distinct variables with random signs.
The pool's verdicts and backbones are recorded once, by an independent
solver, in ``cnf3_answers.json`` (see ``record_answers.py``).
"""

from __future__ import annotations

import hashlib
import random

N_MIN, N_MAX = 60, 120
RATIO = 4.26


def instance(i: int) -> tuple[int, list[list[int]]]:
    """Variable count and signed-int clauses of pool instance ``i``."""
    rng = random.Random(i)
    n = rng.randint(N_MIN, N_MAX)
    clauses = []
    for _ in range(round(RATIO * n)):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return n, clauses


def digest(clauses: list[list[int]]) -> str:
    """Short fingerprint that ties a recorded answer to its exact clauses."""
    text = ";".join(" ".join(map(str, c)) for c in clauses)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
