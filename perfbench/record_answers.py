#!/usr/bin/env python3
"""Record the verdict and backbone of every 3-CNF pool instance with sympy.

sympy's ``dpll2`` shares no code with argos's CDCL kernel, so its answers
are an independent reference for the ``backbone-3cnf`` workload. The
backbone is settled literal by literal: a candidate literal is in the
backbone iff the formula plus its negation is unsatisfiable, and every
countermodel drops the candidates it disagrees with. This takes hours for
a few hundred instances, so it is run once and the output is committed.

Usage: python3 perfbench/record_answers.py COUNT [PROGRESS]
Each answer is appended to PROGRESS (JSON lines, by default
``perfbench/cnf3_answers.jsonl``) as soon as it is known, and instances
already there are skipped, so a recording can be resumed;
``--finish`` then writes instances 0..COUNT-1 to ``cnf3_answers.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from sympy import symbols
from sympy.assumptions.cnf import EncodedCNF
from sympy.logic.algorithms.dpll2 import dpll_satisfiable

HERE = Path(__file__).resolve().parent
ANSWERS = HERE / "cnf3_answers.json"

sys.path.insert(0, str(HERE))
import cnf3  # noqa: E402


def reference(n: int, clauses: list[list[int]]) -> dict:
    syms = symbols(f"x1:{n + 1}")
    encoding = {s: i + 1 for i, s in enumerate(syms)}

    def solve(extra=()):
        return dpll_satisfiable(EncodedCNF([set(c) for c in clauses] + list(extra), dict(encoding)))

    model = solve()
    if not model:
        return {"sat": False, "backbone": None}
    occurring = sorted({abs(l) for c in clauses for l in c})
    candidate = {v: bool(model[syms[v - 1]]) for v in occurring}
    backbone = []
    for v in occurring:
        if v not in candidate:
            continue
        want = candidate.pop(v)
        probe = -v if want else v
        counter = solve([{probe}])
        if not counter:
            backbone.append(v if want else -v)
            continue
        for u in list(candidate):
            if bool(counter.get(syms[u - 1], candidate[u])) != candidate[u]:
                del candidate[u]
    return {"sat": True, "backbone": sorted(backbone, key=abs)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("count", type=int)
    ap.add_argument("out", nargs="?", default=str(HERE / "cnf3_answers.jsonl"))
    ap.add_argument("--finish", action="store_true")
    args = ap.parse_args()
    out = Path(args.out)
    done = [json.loads(l) for l in out.read_text().splitlines()] if out.exists() else []
    if args.finish:
        rows = sorted(done, key=lambda r: r["i"])[: args.count]
        if [r["i"] for r in rows] != list(range(args.count)):
            sys.exit(f"{out} does not hold instances 0..{args.count - 1}")
        payload = {
            "generator": {"n_min": cnf3.N_MIN, "n_max": cnf3.N_MAX, "ratio": cnf3.RATIO},
            "solver": "sympy.logic.algorithms.dpll2",
            "instances": rows,
        }
        ANSWERS.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
        return
    have = {r["i"] for r in done}
    with out.open("a") as fh:
        for i in range(args.count):
            if i in have:
                continue
            n, clauses = cnf3.instance(i)
            row = {"i": i, "n": n, "digest": cnf3.digest(clauses)}
            row.update(reference(n, clauses))
            fh.write(json.dumps(row) + "\n")
            fh.flush()


if __name__ == "__main__":
    main()
