import json
from pathlib import Path

import pytest

from argos.corpus import (
    load_corpus,
    load_corpus_config,
    load_exemplars,
    load_problem_file,
    save_problem,
)
from argos.errors import CorpusError
from argos.kinship import generate_kinship

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_winter_fox_fixture_shape():
    problem = load_problem_file(FIXTURES / "winter_fox" / "problem.json")
    assert problem.id == "winter-fox"
    assert len(problem.premises) == 4
    assert str(problem.query) == "absorbs(white, sun)"
    assert problem.gold_label is None
    assert {e.name for e in problem.entities} >= {"fox", "winter", "sun"}


def test_empty_directory_is_empty_corpus(tmp_path):
    assert load_corpus(tmp_path) == []


def test_missing_directory_is_an_error(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "nope")


def test_malformed_formula_names_the_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "id": "bad", "entities": ["a"], "premises": ["p(a) ->"], "query": "q(a)",
    }))
    with pytest.raises(CorpusError) as e:
        load_problem_file(path)
    assert "premises" in str(e.value)


def test_missing_field_is_named(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"id": "bad", "entities": [], "query": "q"}))
    with pytest.raises(CorpusError) as e:
        load_problem_file(path)
    assert "premises" in str(e.value)


def test_undeclared_entity_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "id": "bad", "entities": ["a"], "premises": ["p(b)"], "query": "p(a)",
    }))
    with pytest.raises(CorpusError):
        load_problem_file(path)


def test_bad_label_value(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "id": "bad", "entities": ["a"], "premises": ["p(a)"], "query": "p(a)",
        "label": "maybe",
    }))
    with pytest.raises(CorpusError) as e:
        load_problem_file(path)
    assert "label" in str(e.value)


def test_restored_rules_must_decide(tmp_path):
    path = tmp_path / "undecided.json"
    path.write_text(json.dumps({
        "id": "u", "entities": ["a"], "premises": ["p(a)"], "query": "q(a)",
        "withheld_rules": ["forall x (p(x) -> r(x))"],
    }))
    with pytest.raises(CorpusError) as e:
        load_problem_file(path)
    assert "withheld_rules" in str(e.value)


def test_restored_rules_must_match_label(tmp_path):
    path = tmp_path / "mislabeled.json"
    path.write_text(json.dumps({
        "id": "m", "entities": ["a"], "premises": ["p(a)"], "query": "q(a)",
        "label": "false",
        "withheld_rules": ["forall x (p(x) -> q(x))"],
    }))
    with pytest.raises(CorpusError) as e:
        load_problem_file(path)
    assert "label" in str(e.value)


@pytest.mark.parametrize("key, value", [
    ("premises", [5]),
    ("premises", "p(a)"),
    ("withheld_rules", [7]),
    ("withheld_rules", "q"),
    ("withheld_rules", "p(a)"),
    ("withheld_rules", None),
    ("text", 5),
    ("entities", ["a", 1]),
    ("id", 7),
    ("query", ["p(a)"]),
])
def test_a_field_of_the_wrong_shape_is_named(tmp_path, key, value):
    # premises, withheld_rules and entities are arrays of strings, and id,
    # query and text strings
    path = tmp_path / "bad.json"
    data = {"id": "bad", "entities": ["a"], "premises": ["p(a)"], "query": "p(a)"}
    path.write_text(json.dumps({**data, key: value}))
    with pytest.raises(CorpusError) as e:
        load_problem_file(path)
    message = str(e.value)
    assert message.startswith(f"{path}: field {key!r}")
    assert "must be a string" in message or "must be a list of strings" in message


def test_an_unknown_problem_key_is_an_error(tmp_path):
    # a misspelt optional key would otherwise load without its label or rules
    path = tmp_path / "typo.json"
    data = {"id": "t", "entities": ["a"], "premises": ["p(a)"], "query": "p(a)"}
    for key, value in (("lable", "true"), ("withheld_rule", ["p(a)"])):
        path.write_text(json.dumps({**data, key: value}))
        with pytest.raises(CorpusError) as e:
            load_problem_file(path)
        assert str(e.value) == f"{path}: unknown key {key!r} (set to {value!r})"


def test_an_empty_entity_or_a_non_text_label_is_named(tmp_path):
    path = tmp_path / "bad.json"
    data = {"id": "bad", "entities": ["a"], "premises": ["p(a)"], "query": "p(a)"}
    for key, value, error in (
        ("entities", ["a", ""], "field 'entities' holds an empty name"),
        ("label", 5, "field 'label' must be \"true\" or \"false\""),
    ):
        path.write_text(json.dumps({**data, key: value}))
        with pytest.raises(CorpusError) as e:
            load_problem_file(path)
        assert str(e.value) == f"{path}: {error}"


def test_the_readme_problem_example_loads(tmp_path):
    # the schema README documents is the one the loader reads
    readme = (FIXTURES.parent / "README.md").read_text()
    section = readme.split("\n## Problem files\n", 1)[1]
    path = tmp_path / "example.json"
    path.write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
    problem = load_problem_file(path)
    assert problem.id == "kinship-7-0001"
    assert problem.gold_label is True
    assert len(problem.premises) == 3
    assert len(problem.withheld_rules) == 1


def test_save_load_round_trip(tmp_path):
    problems, _ = generate_kinship(3, 3, seed=2, validate=False)
    for i, p in enumerate(problems):
        save_problem(p, tmp_path / f"{i:04d}.json")
    loaded = load_corpus(tmp_path)
    assert [p.id for p in loaded] == [p.id for p in problems]
    for a, b in zip(loaded, problems):
        assert [str(f) for f in a.premises] == [str(f) for f in b.premises]
        assert str(a.query) == str(b.query)
        assert a.gold_label == b.gold_label
        assert [str(f) for f in a.withheld_rules] == [str(f) for f in b.withheld_rules]
        assert a.text == b.text and a.text


def test_reserved_files_skipped(tmp_path):
    problems, _ = generate_kinship(1, 2, seed=2, validate=False)
    save_problem(problems[0], tmp_path / "0000.json")
    (tmp_path / "kb.json").write_text(json.dumps({"rules": []}))
    (tmp_path / "config.json").write_text(json.dumps({"score_style": "truth"}))
    (tmp_path / "exemplars.json").write_text(json.dumps([{"query": "q"}]))
    loaded = load_corpus(tmp_path)
    assert len(loaded) == 1
    assert load_corpus_config(tmp_path) == {"score_style": "truth"}
    assert load_exemplars(tmp_path) == [{"query": "q"}]


def test_corpus_config_absent_is_empty(tmp_path):
    assert load_corpus_config(tmp_path) == {}
    assert load_exemplars(tmp_path) == []
