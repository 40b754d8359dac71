"""Command-line interface: solve, bench, gen, trace.

Configuration precedence is flags, then a JSON config file (--config), then
environment variables (ARGOS_ENDPOINT, ARGOS_MODEL, ARGOS_API_TOKEN), then
defaults. An oracle kb.json keeps its own reasoning_depth, noise and seed
unless a flag or the config file sets oracle_depth, oracle_noise or seed.
The fully resolved configuration is printed to stderr before any
engine call so runs can be reproduced.

Exit codes: 0 on a verdict, 2 on usage/load errors, 3 on backend exhaustion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .backends import KB_FIELDS, OracleBackend, OracleKB, WireBackend
from .corpus import (
    load_corpus,
    load_corpus_config,
    load_exemplars,
    load_problem_file,
    save_problem,
)
from .engine import Engine, EngineConfig, trace_jsonl
from .errors import ArgosError, BackendError, CorpusError
from .harness import (
    RunMetrics,
    cost_histogram_csv,
    flips_csv,
    parse_system_names,
    records_csv,
    run_suite,
    summary_csv,
)
from .kinship import generate_kinship

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BACKEND = 3

_ENGINE_KEYS = (
    "k", "gamma", "alpha", "tau", "max_cot", "max_candidates_per_pair",
    "seed", "no_sc", "gen_style", "score_style", "backend", "endpoint",
    "model", "oracle_kb", "oracle_depth", "oracle_noise", "jobs",
)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--k", type=int, help="samples per vote (default 5)")
    p.add_argument("--gamma", type=float, help="initial vote threshold (default 1.0)")
    p.add_argument("--alpha", type=float, help="threshold decay per accepted clause (default 0.1)")
    p.add_argument("--tau", type=float, help="score acceptance threshold (default 0.3)")
    p.add_argument("--max-cot", type=int, dest="max_cot", help="hard cap on chain-of-thought calls")
    p.add_argument("--seed", type=int, help="seed for all stochastic choices (default 0)")
    p.add_argument("--no-sc", action="store_true", dest="no_sc", default=None,
                   help="disable the self-consistency solver (symbolic-only ablation)")
    p.add_argument("--gen-style", choices=["entity", "entity_pair"], dest="gen_style",
                   help="generation prompt style (default from corpus config)")
    p.add_argument("--score-style", choices=["contradiction", "truth"], dest="score_style",
                   help="commonsense scoring style (default from corpus config)")
    p.add_argument("--backend", choices=["oracle", "wire"], help="backend kind (default oracle)")
    p.add_argument("--endpoint", help="completion endpoint URL (wire backend)")
    p.add_argument("--model", help="model name (wire backend)")
    p.add_argument("--oracle-kb", dest="oracle_kb", help="oracle rule base JSON path")
    p.add_argument("--oracle-depth", type=int, dest="oracle_depth",
                   help="oracle reasoning depth (rule applications per derivation)")
    p.add_argument("--oracle-noise", type=float, dest="oracle_noise",
                   help="oracle noise epsilon in [0,1)")


# resolved keys that override a kb.json field, when a flag or --config gives them
_KB_OVERRIDES = {"oracle_depth": "reasoning_depth", "oracle_noise": "noise", "seed": "seed"}


def _resolve(args, corpus_dir: Path | None) -> tuple[dict, set[str]]:
    """Every engine key's value, and the keys whose value a flag or the
    --config file gave."""
    values: dict = {}
    given: set[str] = set()
    file_values: dict = {}
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CorpusError(f"--config {args.config}: {exc}") from exc
    corpus_values = load_corpus_config(corpus_dir) if corpus_dir else {}
    env = {
        "endpoint": os.environ.get("ARGOS_ENDPOINT"),
        "model": os.environ.get("ARGOS_MODEL"),
    }
    defaults = {
        "k": 5, "gamma": 1.0, "alpha": 0.1, "tau": 0.3, "max_cot": None,
        "max_candidates_per_pair": 3, "seed": 0, "no_sc": False,
        "gen_style": "entity", "score_style": "contradiction",
        "backend": "oracle", "endpoint": None, "model": None,
        "oracle_kb": None, "oracle_depth": None, "oracle_noise": None,
        "jobs": 1,
    }
    corpus_keys = {"gen_style": "generation_style", "score_style": "score_style"}
    for key in _ENGINE_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
            given.add(key)
        elif key in file_values:
            values[key] = file_values[key]
            given.add(key)
        elif key in corpus_keys and corpus_keys[key] in corpus_values:
            values[key] = corpus_values[corpus_keys[key]]
        elif env.get(key) is not None:
            values[key] = env[key]
        else:
            values[key] = defaults[key]
    noise = values["oracle_noise"]
    _, valid, want = KB_FIELDS["noise"]
    if noise is not None and (isinstance(noise, bool) or not valid(noise)):
        if args.oracle_noise is not None:
            where = "--oracle-noise"
        else:
            where = f"--config {args.config}: field 'oracle_noise'"
        raise CorpusError(f"{where}: expected {want}, got {noise!r}")
    return values, given


def _engine_config(values: dict) -> EngineConfig:
    return EngineConfig(
        k=values["k"],
        gamma0=values["gamma"],
        alpha=values["alpha"],
        tau=values["tau"],
        max_cot=values["max_cot"],
        max_candidates_per_pair=values["max_candidates_per_pair"],
        seed=values["seed"],
        use_sc_solver=not values["no_sc"],
        generation_style=values["gen_style"],
        score_style=values["score_style"],
    )


def _backend(values: dict, given: set[str], corpus_dir: Path | None):
    if values["backend"] == "wire":
        if not values["endpoint"] or not values["model"]:
            raise CorpusError("wire backend needs --endpoint and --model (or environment)")
        exemplars = load_exemplars(corpus_dir) if corpus_dir else []
        return WireBackend(
            values["endpoint"],
            values["model"],
            api_token=os.environ.get("ARGOS_API_TOKEN"),
            exemplars=exemplars,
        )
    kb_path = values["oracle_kb"]
    if kb_path is None and corpus_dir is not None:
        candidate = corpus_dir / "kb.json"
        if candidate.exists():
            kb_path = candidate
    if kb_path is None:
        raise CorpusError("oracle backend needs --oracle-kb (or a kb.json beside the corpus)")
    overrides = {field: values[key] for key, field in _KB_OVERRIDES.items() if key in given}
    return OracleBackend(OracleKB.from_file(kb_path, **overrides))


def _log_config(values: dict) -> None:
    print("config: " + json.dumps(values, sort_keys=True, default=str), file=sys.stderr)


def cmd_solve(args) -> int:
    path = Path(args.problem)
    corpus_dir = path.parent if path.parent.is_dir() else None
    values, given = _resolve(args, corpus_dir)
    _log_config(values)
    problem = load_problem_file(path)
    config = _engine_config(values)
    backend = _backend(values, given, corpus_dir)
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
    values, given = _resolve(args, corpus_dir)
    _log_config(values)
    problems = load_corpus(corpus_dir)
    systems = parse_system_names(args.systems.split(","))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not problems:
        (out / "summary.csv").write_text(summary_csv(RunMetrics()))
        print("empty corpus: wrote an empty report")
        return EXIT_OK
    config = _engine_config(values)
    backend = _backend(values, given, corpus_dir)
    kb = backend.kb if isinstance(backend, OracleBackend) else None
    metrics = run_suite(
        problems,
        config,
        backend,
        baselines=[s for s in systems if s != "argos"],
        kb=kb,
        run_argos_system="argos" in systems,
        jobs=values["jobs"],
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
    if args.depth < 2:
        print("error: --depth must be at least 2", file=sys.stderr)
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
        facts = [str(f) for f in p.premises if not str(f).startswith("forall")]
        exemplars.append(
            {
                "premises": facts,
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
    _add_common_flags(p_solve)

    p_bench = sub.add_parser("bench", help="run systems over a corpus directory")
    p_bench.add_argument("corpus", help="corpus directory")
    p_bench.add_argument("--systems", default="argos",
                         help="comma list: argos, sat, scN (e.g. argos,sat,sc20)")
    p_bench.add_argument("--out", required=True, help="output directory for CSVs and traces")
    p_bench.add_argument("--jobs", type=int, help="parallel workers (default 1)")
    _add_common_flags(p_bench)

    p_gen = sub.add_parser("gen", help="generate a kinship corpus")
    p_gen.add_argument("--out", required=True, help="destination directory")
    p_gen.add_argument("--count", type=int, default=100, help="number of problems")
    p_gen.add_argument("--depth", type=int, default=3, help="maximum chain depth (min 2)")
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
