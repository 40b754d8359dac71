"""Command-line interface: solve, bench, gen, trace.

Every setting has one CLI key, listed in ``SETTINGS`` with the dataclass
field that holds it; that dataclass declares the default and the check.
Precedence is flags, then a JSON config file (--config), then a corpus
config.json (generation_style, score_style), then environment variables
(ARGOS_ENDPOINT, ARGOS_MODEL, ARGOS_API_TOKEN), then the defaults. An oracle
kb.json keeps its own reasoning_depth, noise and seed unless a flag or the
config file sets oracle_depth, oracle_noise or seed. A value from any source
that fails its check, an unknown key, or a file that is not a JSON object is
a usage error. The fully resolved configuration is printed to stderr before
any engine call so runs can be reproduced.

Exit codes: 0 on a verdict, 2 on usage/load errors, 3 on backend exhaustion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .backends import Context, OracleBackend, OracleKB, WireBackend
from .corpus import (
    load_corpus,
    load_corpus_config,
    load_exemplars,
    load_json_object,
    load_problem_file,
    save_problem,
)
from .engine import Engine, EngineConfig, trace_jsonl
from .errors import ArgosError, BackendError, CorpusError, check_setting, one_of
from .harness import (
    JOBS,
    RunMetrics,
    cost_histogram_csv,
    flips_csv,
    parse_system_names,
    records_csv,
    run_suite,
    summary_csv,
)
from .kinship import MAX_CHAIN_DEPTH, generate_kinship

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BACKEND = 3


def _optional_str(v) -> bool:
    return v is None or isinstance(v, str)


@dataclass
class RunConfig:
    """The run's own settings: the backend, where it is, and the workers."""

    backend: str = "oracle"
    endpoint: Optional[str] = None
    model: Optional[str] = None
    oracle_kb: Optional[str] = None
    jobs: int = 1

    # field -> (check, what the check wants); _resolve checks every value given
    FIELDS = {
        "backend": one_of("oracle", "wire"),
        "endpoint": (_optional_str, "null or a string"),
        "model": (_optional_str, "null or a string"),
        "oracle_kb": (_optional_str, "null or a string"),
        "jobs": JOBS,
    }


# CLI key -> (the dataclass whose field holds the value, that field, the
# flag's type, the flag's help)
SETTINGS = {
    "k": (EngineConfig, "k", int, "samples per vote"),
    "gamma": (EngineConfig, "gamma0", float, "initial vote threshold"),
    "alpha": (EngineConfig, "alpha", float, "threshold decay per accepted clause"),
    "tau": (EngineConfig, "tau", float, "score acceptance threshold"),
    "max_cot": (EngineConfig, "max_cot", int, "hard cap on chain-of-thought calls"),
    "seed": (EngineConfig, "seed", int, "seed for all stochastic choices"),
    "no_sc": (EngineConfig, "use_sc_solver", bool,
              "disable the self-consistency solver (symbolic-only ablation)"),
    "gen_style": (EngineConfig, "generation_style", str, "generation prompt style"),
    "score_style": (EngineConfig, "score_style", str, "commonsense scoring style"),
    "backend": (RunConfig, "backend", str, "backend kind"),
    "endpoint": (RunConfig, "endpoint", str, "completion endpoint URL (wire backend)"),
    "model": (RunConfig, "model", str, "model name (wire backend)"),
    "oracle_kb": (RunConfig, "oracle_kb", str, "oracle rule base JSON path"),
    "oracle_depth": (OracleKB, "reasoning_depth", int,
                     "oracle reasoning depth (rule applications per derivation)"),
    "oracle_noise": (OracleKB, "noise", float, "oracle noise epsilon"),
    "jobs": (RunConfig, "jobs", int, "parallel workers"),
}
ENVIRONMENT = {"endpoint": "ARGOS_ENDPOINT", "model": "ARGOS_MODEL"}


def _to_field(key: str, value):
    """A key's value as its field holds it, or back: no_sc negates."""
    return not value if key == "no_sc" else value


def _default(key: str):
    """The value of a key that no source gives. The oracle KB's knobs have
    none here: the kb.json's own value holds."""
    owner, field, _, _ = SETTINGS[key]
    return None if owner is OracleKB else _to_field(key, owner.__dataclass_fields__[field].default)


def _add_common_flags(p: argparse.ArgumentParser, keys) -> None:
    p.add_argument("--config", help="JSON object with a value for any key below")
    for key in keys:
        owner, field, kind, text = SETTINGS[key]
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, dest=key, action="store_true", default=None, help=text)
            continue
        default = "the kb.json's" if owner is OracleKB else json.dumps(_default(key))
        want = owner.FIELDS[field][1]
        p.add_argument(flag, dest=key, type=kind, help=f"{text}: {want} (default {default})")


def _resolve(args, corpus_dir: Path | None) -> tuple[EngineConfig, RunConfig, dict]:
    """The engine and run configs, and the kb.json overrides, from every
    source; each value a source gives must pass its field's check."""
    offered = [  # (key, value, where it came from), in precedence order
        (key, getattr(args, key), "--" + key.replace("_", "-"))
        for key in SETTINGS
        if getattr(args, key, None) is not None
    ]
    if args.config:
        data = load_json_object(args.config, dict.fromkeys(SETTINGS))
        offered += [(k, v, f"{args.config}: field {k!r}") for k, v in data.items()]
    given = {key for key, _, _ in offered}
    if corpus_dir is not None:
        cfg = corpus_dir / "config.json"
        # a corpus config.json names each setting by its field
        keys = {field: key for key, (_, field, _, _) in SETTINGS.items()}
        data = load_corpus_config(corpus_dir)
        offered += [(keys[name], v, f"{cfg}: field {name!r}") for name, v in data.items()]
    offered += [(key, os.environ[v], v) for key, v in ENVIRONMENT.items() if v in os.environ]
    for key, value, where in offered:
        owner, field, _, _ = SETTINGS[key]
        check_setting(where, value, owner.FIELDS[field])
    values = {key: _default(key) for key in SETTINGS}
    values.update((key, value) for key, value, _ in reversed(offered))
    print("config: " + json.dumps(values, sort_keys=True, default=str), file=sys.stderr)
    held = {EngineConfig: {}, RunConfig: {}, OracleKB: {}}
    for key, (owner, field, _, _) in SETTINGS.items():
        if owner is not OracleKB:
            held[owner][field] = _to_field(key, values[key])
        # a flag or --config overrides the kb.json knob of the field's name,
        # the seed among them; null, as by default, keeps the kb.json's value
        if key in given and field in OracleKB.FIELDS and values[key] is not None:
            held[OracleKB][field] = values[key]
    return EngineConfig(**held[EngineConfig]), RunConfig(**held[RunConfig]), held[OracleKB]


def _backend(run: RunConfig, overrides: dict, corpus_dir: Path | None):
    if run.backend == "wire":
        if not run.endpoint or not run.model:
            raise CorpusError("wire backend needs --endpoint and --model (or environment)")
        exemplars = load_exemplars(corpus_dir) if corpus_dir else []
        return WireBackend(
            run.endpoint,
            run.model,
            api_token=os.environ.get("ARGOS_API_TOKEN"),
            exemplars=exemplars,
        )
    kb_path = run.oracle_kb
    if kb_path is None and corpus_dir is not None:
        candidate = corpus_dir / "kb.json"
        if candidate.exists():
            kb_path = candidate
    if kb_path is None:
        raise CorpusError("oracle backend needs --oracle-kb (or a kb.json beside the corpus)")
    return OracleBackend(OracleKB.from_file(kb_path, **overrides))


def cmd_solve(args) -> int:
    path = Path(args.problem)
    corpus_dir = path.parent if path.parent.is_dir() else None
    config, run, overrides = _resolve(args, corpus_dir)
    problem = load_problem_file(path)
    backend = _backend(run, overrides, corpus_dir)
    engine = Engine(problem, config, backend)
    if args.dimacs:
        Path(args.dimacs).write_text(engine.session.clause_set().to_dimacs())
    result = engine.solve()
    plural = "" if len(result.commonsense) == 1 else "s"
    print(f"{result.verdict} ({result.decided_by}, {len(result.commonsense)} clause{plural})")
    for clause in result.commonsense:
        print(f"  + {clause} [commonsense={clause.commonsense_score:.3f},"
              f" relevance={clause.relevance_score:.3f}]")
    print(f"iterations={result.iterations} cot_calls={result.cot_calls}"
          f" confidence={result.confidence:.3f}")
    if args.trace:
        Path(args.trace).write_text(trace_jsonl(result.trace))
    return EXIT_OK


def cmd_bench(args) -> int:
    corpus_dir = Path(args.corpus)
    config, run, overrides = _resolve(args, corpus_dir)
    problems = load_corpus(corpus_dir)
    systems = parse_system_names(args.systems.split(","))
    backend = _backend(run, overrides, corpus_dir) if problems else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not problems:
        (out / "summary.csv").write_text(summary_csv(RunMetrics()))
        print("empty corpus: wrote an empty report")
        return EXIT_OK
    kb = backend.kb if isinstance(backend, OracleBackend) else None
    metrics = run_suite(
        problems,
        config,
        backend,
        systems=systems,
        kb=kb,
        jobs=run.jobs,
    )
    (out / "summary.csv").write_text(summary_csv(metrics))
    for system, records in metrics.records.items():
        (out / f"records-{system}.csv").write_text(records_csv(records))
    if metrics.flip_buckets:
        (out / "flips.csv").write_text(flips_csv(metrics.flip_buckets))
    (out / "cost_histogram.csv").write_text(cost_histogram_csv(metrics))
    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)
    for pid, trace in sorted(metrics.traces.items()):
        (traces_dir / f"{pid}.jsonl").write_text(trace_jsonl(trace))
    print(summary_csv(metrics), end="")
    return EXIT_OK


def cmd_gen(args) -> int:
    if not 2 <= args.depth <= MAX_CHAIN_DEPTH:
        print(f"error: --depth must be between 2 and {MAX_CHAIN_DEPTH}, got {args.depth}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.count < 0:
        print(f"error: --count must be non-negative, got {args.count}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        print(f"error: {out} exists and is not empty (use --force)", file=sys.stderr)
        return EXIT_USAGE
    out.mkdir(parents=True, exist_ok=True)
    problems, kb = generate_kinship(args.count, args.depth, args.seed)
    for i, problem in enumerate(problems):
        save_problem(problem, out / f"{i:04d}.json")
    kb.to_file(out / "kb.json")
    (out / "config.json").write_text(
        json.dumps(
            {"generation_style": "entity_pair", "score_style": "truth"}, indent=2
        )
        + "\n"
    )
    exemplar_problems, _ = generate_kinship(4, args.depth, args.seed + 10_000)
    exemplars = []
    for p in exemplar_problems:
        answer = "True" if p.gold_label else "False"
        exemplars.append(
            {
                "premises": [str(l) for l in Context(p.premises).facts],
                "commonsense": [],
                "query": str(p.query),
                "cot": f"{p.text} Working through the chain of relations step by"
                       f" step gives the answer. Answer: {answer}",
            }
        )
    (out / "exemplars.json").write_text(json.dumps(exemplars, indent=2) + "\n")
    print(f"wrote {len(problems)} problems + kb.json to {out}")
    return EXIT_OK


def cmd_trace(args) -> int:
    path = Path(args.trace_file)
    if not path.exists():
        print(f"error: {path} does not exist", file=sys.stderr)
        return EXIT_USAGE
    events = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if line.strip():
            try:
                event = json.loads(line)
            except ValueError as exc:
                raise CorpusError(f"{path}: line {number} is not JSON: {exc}") from exc
            if not isinstance(event, dict):
                raise CorpusError(f"{path}: line {number} is not a JSON object")
            events.append(event)
    if args.summary:
        counts: dict[str, int] = {}
        for e in events:
            counts[e.get("event", "?")] = counts.get(e.get("event", "?"), 0) + 1
        for name in sorted(counts):
            print(f"{name}: {counts[name]}")
        return EXIT_OK
    for e in events:
        kind = e.get("event", "?")
        rest = {k: v for k, v in e.items() if k not in ("event", "iteration", "cot")}
        print(f"[it={e.get('iteration')} cot={e.get('cot')}] {kind}: "
              + json.dumps(rest, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="argos",
        description="SAT-guided abductive reasoning over logic problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem file")
    p_solve.add_argument("problem", help="problem JSON file")
    p_solve.add_argument("--trace", help="write the event log to this path")
    p_solve.add_argument("--dimacs", help="export the initial clause set as DIMACS CNF")
    _add_common_flags(p_solve, [key for key in SETTINGS if key != "jobs"])

    p_bench = sub.add_parser("bench", help="run systems over a corpus directory")
    p_bench.add_argument("corpus", help="corpus directory")
    p_bench.add_argument("--systems", default="argos",
                         help="comma list: argos, sat, scN with N >= 1 (e.g. argos,sat,sc20)")
    p_bench.add_argument("--out", required=True, help="output directory for CSVs and traces")
    _add_common_flags(p_bench, SETTINGS)

    p_gen = sub.add_parser("gen", help="generate a kinship corpus")
    p_gen.add_argument("--out", required=True, help="destination directory")
    p_gen.add_argument("--count", type=int, default=100, help="number of problems")
    p_gen.add_argument("--depth", type=int, default=3,
                       help=f"maximum chain depth (2 to {MAX_CHAIN_DEPTH})")
    p_gen.add_argument("--seed", type=int, default=0, help="generator seed")
    p_gen.add_argument("--force", action="store_true", help="write into a non-empty directory")

    p_trace = sub.add_parser("trace", help="inspect a trace file")
    p_trace.add_argument("trace_file", help="trace .jsonl file")
    p_trace.add_argument("--summary", action="store_true", help="event counts only")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "bench": cmd_bench,
        "gen": cmd_gen,
        "trace": cmd_trace,
    }
    try:
        return handlers[args.command](args)
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except ArgosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
