import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from argos import cli
from argos.cli import main
from argos.engine import EngineConfig

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIXTURES.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_winter_fox_symbolic_only(capsys):
    code, out, err = run_cli(
        capsys,
        "solve", str(FIXTURES / "winter_fox" / "problem.json"),
        "--backend", "oracle",
        "--oracle-kb", str(FIXTURES / "winter_fox" / "kb.json"),
        "--no-sc",
    )
    assert code == 0
    assert out.startswith("False (sat, 3 clauses)")
    assert "turns_white(fox, winter) -> reflects(fox, sun)" in out
    assert err.startswith("config:")


def test_solve_missing_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "solve", "no/such/problem.json")
    assert code == 2
    assert "error" in err


def test_solve_max_cot_zero_reports_fallback(tmp_path, capsys):
    problem = {
        "id": "undecided",
        "entities": ["a"],
        "premises": ["p(a)"],
        "query": "q(a)",
    }
    path = tmp_path / "undecided.json"
    path.write_text(json.dumps(problem))
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps({"rules": []}))
    code, out, err = run_cli(
        capsys, "solve", str(path), "--oracle-kb", str(kb), "--max-cot", "0"
    )
    assert code == 0
    assert "(fallback, 0 clauses)" in out


def test_solve_writes_trace_and_dimacs(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    dimacs = tmp_path / "problem.cnf"
    code, out, err = run_cli(
        capsys,
        "solve", str(FIXTURES / "winter_fox" / "problem.json"),
        "--oracle-kb", str(FIXTURES / "winter_fox" / "kb.json"),
        "--no-sc", "--trace", str(trace), "--dimacs", str(dimacs),
    )
    assert code == 0
    events = [json.loads(l) for l in trace.read_text().splitlines()]
    assert events[0]["event"] == "sat_solve"
    assert events[-1]["event"] == "result"
    assert dimacs.read_text().splitlines()[0].startswith("c var 1 = ")
    assert any(l.startswith("p cnf ") for l in dimacs.read_text().splitlines())


def test_gen_solve_bench_round_trip(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    code, out, err = run_cli(
        capsys, "gen", "--out", str(corpus), "--count", "4", "--depth", "2",
        "--seed", "7",
    )
    assert code == 0
    files = sorted(f.name for f in corpus.iterdir())
    assert files == ["0000.json", "0001.json", "0002.json", "0003.json",
                     "config.json", "exemplars.json", "kb.json"]

    code, out, err = run_cli(
        capsys, "solve", str(corpus / "0000.json"), "--oracle-depth", "0"
    )
    assert code == 0
    assert "(sat, " in out

    out_dir = tmp_path / "report"
    code, out, err = run_cli(
        capsys, "bench", str(corpus), "--systems", "argos,sat,sc5",
        "--out", str(out_dir), "--oracle-depth", "0",
    )
    assert code == 0
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "records-argos.csv").exists()
    assert (out_dir / "records-sat.csv").exists()
    assert (out_dir / "records-sc5.csv").exists()
    assert (out_dir / "flips.csv").exists()
    assert (out_dir / "cost_histogram.csv").exists()
    traces = list((out_dir / "traces").glob("*.jsonl"))
    assert len(traces) == 4
    summary = (out_dir / "summary.csv").read_text()
    argos_row = [l for l in summary.splitlines() if l.startswith("argos,")][0]
    assert argos_row.split(",")[2] == "1.000000"


def test_gen_depth_one_usage_error(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "gen", "--out", str(tmp_path / "c"), "--count", "1", "--depth", "1"
    )
    assert code == 2


def test_gen_depth_beyond_every_chain_usage_error_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "c"
    code, out, err = run_cli(
        capsys, "gen", "--out", str(out_dir), "--count", "1", "--depth", "5"
    )
    assert code == 2
    assert "--depth" in err
    assert not out_dir.exists()


def test_gen_negative_count_usage_error_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "c"
    code, out, err = run_cli(
        capsys, "gen", "--out", str(out_dir), "--count", "-3", "--depth", "2"
    )
    assert code == 2
    assert "--count" in err
    assert not out_dir.exists()


def test_python_dash_m_argos_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "argos", "--help"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0
    assert "usage: argos" in done.stdout


def test_gen_existing_dir_needs_force(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "stale.json").write_text("{}")
    code, out, err = run_cli(
        capsys, "gen", "--out", str(corpus), "--count", "1", "--depth", "2"
    )
    assert code == 2
    code, out, err = run_cli(
        capsys, "gen", "--out", str(corpus), "--count", "1", "--depth", "2", "--force"
    )
    assert code == 0


def test_gen_rerun_same_seed_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        code, _, _ = run_cli(
            capsys, "gen", "--out", str(out_dir), "--count", "3", "--depth", "3",
            "--seed", "42",
        )
        assert code == 0
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes(), f.name


def test_bench_unknown_system_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    run_cli(capsys, "gen", "--out", str(corpus), "--count", "1", "--depth", "2")
    code, out, err = run_cli(
        capsys, "bench", str(corpus), "--systems", "argos,warp",
        "--out", str(tmp_path / "r"),
    )
    assert code == 2
    assert "unknown system" in err


def test_bench_zero_sample_system_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    run_cli(capsys, "gen", "--out", str(corpus), "--count", "2", "--depth", "2")
    code, out, err = run_cli(
        capsys, "bench", str(corpus), "--systems", "sc0", "--out", str(tmp_path / "r"),
    )
    assert code == 2
    assert "'sc0'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_bench_backend_that_fails_to_load_exits_2_writing_nothing(tmp_path, capsys, monkeypatch):
    for var in cli.ENVIRONMENT.values():
        monkeypatch.delenv(var, raising=False)
    corpus = tmp_path / "corpus"
    run_cli(capsys, "gen", "--out", str(corpus), "--count", "2", "--depth", "2")
    out = tmp_path / "r"
    code, _, err = run_cli(capsys, "bench", str(corpus), "--backend", "wire", "--out", str(out))
    assert code == 2
    assert "wire backend needs --endpoint" in err
    assert not out.exists()
    (corpus / "kb.json").write_text("{not json")
    code, _, err = run_cli(capsys, "bench", str(corpus), "--out", str(out))
    assert code == 2
    assert str(corpus / "kb.json") in err
    assert "Traceback" not in err
    assert not out.exists()


def test_solve_problem_with_a_non_string_premise_exits_2(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"id": "p", "entities": ["a"], "premises": [5], "query": "p(a)"}))
    code, _, err = run_cli(capsys, "solve", str(problem),
                           "--oracle-kb", str(FIXTURES / "winter_fox" / "kb.json"))
    assert code == 2
    assert f"error: {problem}: field 'premises'" in err
    assert "Traceback" not in err


def test_bench_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    code, out, err = run_cli(
        capsys, "bench", str(corpus), "--systems", "argos",
        "--out", str(tmp_path / "r"),
    )
    assert code == 0
    assert (tmp_path / "r" / "summary.csv").exists()


def test_trace_inspection(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    run_cli(
        capsys,
        "solve", str(FIXTURES / "winter_fox" / "problem.json"),
        "--oracle-kb", str(FIXTURES / "winter_fox" / "kb.json"),
        "--no-sc", "--trace", str(trace),
    )
    code, out, err = run_cli(capsys, "trace", str(trace))
    assert code == 0
    assert "sat_solve" in out
    code, out, err = run_cli(capsys, "trace", str(trace), "--summary")
    assert code == 0
    assert any(l.startswith("result: 1") for l in out.splitlines())
    code, out, err = run_cli(capsys, "trace", str(tmp_path / "missing.jsonl"))
    assert code == 2


def test_bad_oracle_kb_exits_2_naming_the_file(tmp_path, capsys):
    problem = str(FIXTURES / "winter_fox" / "problem.json")
    malformed = tmp_path / "kb.json"
    malformed.write_text("{not json")
    bad_field = tmp_path / "bad_field.json"
    bad_field.write_text(json.dumps({"rules": [], "reasoning_depth": "2"}))
    for kb in (malformed, tmp_path / "missing.json", bad_field):
        code, out, err = run_cli(capsys, "solve", problem, "--oracle-kb", str(kb))
        assert code == 2
        assert str(kb) in err


@pytest.mark.parametrize("rules, error", [
    (["forall x p(x)"], "rules[0]: expected LPAREN"),
    (["p(a)", "p(a) -> q(a) | r(a)"], "rules[1]: not a Horn rule"),
    (["p(a)", "~p(a)"], "mutually inconsistent"),
    (["p(a)", "forall x forall y (p(x) -> q(x, y))"], "rules[1]: rule consequent has a variable"),
    (["p(a)", "forall x exists y (r(x, y))"], "rules[1]: not a Horn rule"),
])
def test_bad_kb_rule_exits_2_naming_the_file_and_the_rule(tmp_path, capsys, rules, error):
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps({"rules": rules}))
    code, out, err = run_cli(
        capsys, "solve", str(FIXTURES / "winter_fox" / "problem.json"), "--oracle-kb", str(kb),
    )
    assert code == 2
    assert f"error: {kb}: " in err and error in err


@pytest.mark.parametrize("rule", [
    "forall x forall y (p(x) -> q(x, y))",
    "forall x (p(x))",
])
def test_kb_rule_with_an_unbound_consequent_variable_exits_2(tmp_path, capsys, rule):
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps({"rules": [rule]}))
    code, out, err = run_cli(
        capsys, "solve", str(FIXTURES / "winter_fox" / "problem.json"), "--oracle-kb", str(kb),
    )
    assert code == 2
    assert "does not bind" in err
    assert "Traceback" not in err


def test_bad_exemplars_exit_2_naming_the_file(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_bytes((FIXTURES / "winter_fox" / "problem.json").read_bytes())
    exemplars = tmp_path / "exemplars.json"
    wire = ("--backend", "wire", "--endpoint", "http://localhost:9", "--model", "m")
    for text in ("[{", "[1, 2]"):
        exemplars.write_text(text)
        code, out, err = run_cli(capsys, "solve", str(problem), *wire)
        assert code == 2
        assert str(exemplars) in err


def test_trace_with_a_non_json_line_exits_2(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    for bad in ("not json", "[1, 2]"):
        trace.write_text('{"event": "result"}\n' + bad + "\n")
        code, out, err = run_cli(capsys, "trace", str(trace))
        assert code == 2
        assert str(trace) in err and "line 2" in err


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"no_sc": True, "oracle_kb": str(FIXTURES / "winter_fox" / "kb.json")}))
    code, out, err = run_cli(
        capsys, "solve", str(FIXTURES / "winter_fox" / "problem.json"),
        "--config", str(cfg),
    )
    assert code == 0
    assert out.startswith("False (sat, 3 clauses)")
    # flags win over the file
    code, out, err = run_cli(
        capsys, "solve", str(FIXTURES / "winter_fox" / "problem.json"),
        "--config", str(cfg), "--tau", "0.99",
    )
    assert code == 0
    assert '"tau": 0.99' in err


def test_bench_and_solve_write_identical_traces(tmp_path, capsys):
    fox = FIXTURES / "winter_fox"
    solved = tmp_path / "solve.jsonl"
    code, out, err = run_cli(
        capsys, "solve", str(fox / "problem.json"), "--oracle-kb", str(fox / "kb.json"),
        "--no-sc", "--trace", str(solved),
    )
    assert code == 0
    code, out, err = run_cli(
        capsys, "bench", str(fox), "--systems", "argos", "--no-sc",
        "--out", str(tmp_path / "r"),
    )
    assert code == 0
    benched = tmp_path / "r" / "traces" / "winter-fox.jsonl"
    assert solved.read_bytes()
    assert benched.read_bytes() == solved.read_bytes()


def _kb_loaded(monkeypatch, capsys, kb_path, *flags):
    """The OracleKB that ``argos solve`` builds from ``kb_path`` under ``flags``."""
    loaded = []

    class Recording(cli.OracleBackend):
        def __init__(self, kb):
            loaded.append(kb)
            super().__init__(kb)

    monkeypatch.setattr(cli, "OracleBackend", Recording)
    problem = str(FIXTURES / "winter_fox" / "problem.json")
    code, out, err = run_cli(
        capsys, "solve", problem, "--oracle-kb", str(kb_path), "--no-sc", *flags
    )
    assert code == 0, err
    return loaded[0]


def test_kb_file_seed_and_noise_hold_unless_flags_or_config_set_them(
    tmp_path, monkeypatch, capsys
):
    data = json.loads((FIXTURES / "winter_fox" / "kb.json").read_text())
    kb_path = tmp_path / "kb.json"
    kb_path.write_text(json.dumps({**data, "seed": 7, "noise": 0.25}))
    kb = _kb_loaded(monkeypatch, capsys, kb_path)
    assert (kb.seed, kb.noise) == (7, 0.25)
    kb = _kb_loaded(monkeypatch, capsys, kb_path, "--seed", "3", "--oracle-noise", "0")
    assert (kb.seed, kb.noise) == (3, 0.0)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 5, "oracle_noise": 0.1}))
    kb = _kb_loaded(monkeypatch, capsys, kb_path, "--config", str(cfg))
    assert (kb.seed, kb.noise) == (5, 0.1)
    kb = _kb_loaded(monkeypatch, capsys, kb_path, "--config", str(cfg), "--seed", "2")
    assert (kb.seed, kb.noise) == (2, 0.1)


def test_out_of_range_oracle_noise_exits_2_naming_field_and_value(tmp_path, capsys):
    fox = FIXTURES / "winter_fox"
    solve = ("solve", str(fox / "problem.json"), "--oracle-kb", str(fox / "kb.json"))
    for bad in ("1.5", "-0.1", "1"):
        code, out, err = run_cli(capsys, *solve, "--oracle-noise", bad)
        assert code == 2
        assert "--oracle-noise" in err and repr(float(bad)) in err
        assert "Traceback" not in err
    cfg = tmp_path / "run.json"
    for bad in (1.5, "0.5", True):
        cfg.write_text(json.dumps({"oracle_noise": bad}))
        code, out, err = run_cli(capsys, *solve, "--config", str(cfg))
        assert code == 2
        assert "'oracle_noise'" in err and repr(bad) in err and str(cfg) in err


@pytest.mark.parametrize(
    "command, flags, config, corpus_config, named",
    [
        ("solve", [], {"k": "5"}, None, ["{config}", "'k'", "'5'"]),
        ("solve", [], {"tau": "0.3"}, None, ["{config}", "'tau'", "'0.3'"]),
        ("solve", ["--k", "0"], None, None, ["--k", "got 0"]),
        ("solve", ["--gamma", "1.5"], None, None, ["--gamma", "got 1.5"]),
        ("solve", [], {"gamma": True}, None, ["{config}", "'gamma'", "got True"]),
        ("solve", [], None, {"generation_style": "bogus"},
         ["{corpus_config}", "'generation_style'", "'bogus'"]),
        ("bench", [], {"jobs": "2"}, None, ["{config}", "'jobs'", "'2'"]),
        ("solve", ["--oracle-depth", "-3"], None, None, ["--oracle-depth", "got -3"]),
        ("solve", [], {"seed": "x"}, None, ["{config}", "'seed'", "'x'"]),
        ("solve", [], {"max_cot": -1}, None, ["{config}", "'max_cot'", "got -1"]),
        ("solve", [], {"no_sc": "yes"}, None, ["{config}", "'no_sc'", "'yes'"]),
        ("solve", [], {"score_style": "bogus"}, None, ["{config}", "'score_style'", "'bogus'"]),
        ("solve", [], {"backend": "bogus"}, None, ["{config}", "'backend'", "'bogus'"]),
        ("solve", [], {"bogus_key": 1}, None, ["{config}", "unknown key 'bogus_key'", "1"]),
        ("solve", [], [1], None, ["{config}", "expected a JSON object", "list"]),
    ],
    ids=[
        "config-k-string", "config-tau-string", "flag-k-zero", "flag-gamma-above-1",
        "config-gamma-bool", "corpus-generation-style", "bench-config-jobs-string",
        "flag-oracle-depth-negative", "config-seed-string", "config-max-cot-negative",
        "config-no-sc-string", "config-score-style", "config-backend",
        "config-unknown-key", "config-not-an-object",
    ],
)
def test_bad_setting_exits_2_naming_source_key_and_value(
    tmp_path, capsys, command, flags, config, corpus_config, named
):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("problem.json", "kb.json"):
        (corpus / name).write_bytes((FIXTURES / "winter_fox" / name).read_bytes())
    paths = {"config": tmp_path / "run.json", "corpus_config": corpus / "config.json"}
    if command == "solve":
        argv = ["solve", str(corpus / "problem.json")]
    else:
        argv = ["bench", str(corpus), "--out", str(tmp_path / "report")]
    if config is not None:
        paths["config"].write_text(json.dumps(config))
        argv += ["--config", str(paths["config"])]
    if corpus_config is not None:
        paths["corpus_config"].write_text(json.dumps(corpus_config))
    code, out, err = run_cli(capsys, *argv, *flags)
    assert code == 2
    assert "Traceback" not in err
    for text in named:
        assert text.format(**paths) in err


def test_every_engine_field_has_one_cli_key():
    owned = [field for owner, field, _, _ in cli.SETTINGS.values() if owner is EngineConfig]
    assert sorted(owned) == sorted(f.name for f in dataclasses.fields(EngineConfig))
