"""Problem representation and the on-disk corpus format.

A corpus is a directory of one-JSON-document-per-problem files, with three
reserved filenames: ``kb.json`` (oracle rule base), ``config.json``
(per-corpus engine keys such as the generation prompt style) and
``exemplars.json`` (few-shot annotations for the wire backend).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ArgosError, CorpusError
from .logic import Entity, Formula, formula_entities, rule_view
from .parser import parse_formula

RESERVED_FILES = {"kb.json", "config.json", "exemplars.json"}
# the EngineConfig fields config.json may set; the CLI checks their values
CONFIG_KEYS = {"generation_style": None, "score_style": None}


@dataclass
class Problem:
    id: str
    entities: set[Entity]
    premises: list[Formula]
    query: Formula
    text: Optional[str] = None
    gold_label: Optional[bool] = None
    withheld_rules: list[Formula] = field(default_factory=list)
    _universe: Optional[frozenset] = field(default=None, init=False, repr=False, compare=False)

    def universe(self) -> frozenset[Entity]:
        """The declared entities and every constant that a premise, the query
        or a withheld rule names; scanned on the first call, then kept."""
        if self._universe is None:
            formulas = [*self.premises, self.query, *self.withheld_rules]
            self._universe = frozenset(self.entities).union(
                *[rule_view(formula_entities, f) for f in formulas]
            )
        return self._universe


PROBLEM_KEYS = {"id": str, "text": str, "entities": list, "premises": list, "query": str,
                "label": None, "withheld_rules": list}


def load_problem_file(path) -> Problem:
    """Parse and validate one problem file.

    When ``withheld_rules`` are present the restored problem (premises plus
    withheld rules) must decide the query, and must agree with the label if
    one is given.
    """
    path = Path(path)
    data = load_json_object(path, PROBLEM_KEYS, ("id", "entities", "premises", "query"))
    entity_names = data["entities"]
    if "" in entity_names:
        raise CorpusError(f"{path}: field 'entities' holds an empty name")
    signature: dict[str, int] = {}

    def parse(text, field_name):
        try:
            return parse_formula(text, signature=signature, entities=entity_names)
        except ArgosError as exc:
            raise CorpusError(f"{path}: field {field_name!r}: {exc}") from exc

    premises = [parse(t, "premises") for t in data["premises"]]
    query = parse(data["query"], "query")
    label = data.get("label")
    if label not in (None, "true", "false"):
        raise CorpusError(f"{path}: field 'label' must be \"true\" or \"false\"")
    withheld = [parse(t, "withheld_rules") for t in data.get("withheld_rules", [])]

    problem = Problem(
        id=data["id"],
        entities={Entity(name) for name in entity_names},
        premises=premises,
        query=query,
        text=data.get("text"),
        gold_label=None if label is None else label == "true",
        withheld_rules=withheld,
    )
    if withheld:
        check_restored(problem, path)
    return problem


def check_restored(problem: Problem, where) -> None:
    """Fail unless the premises plus the withheld rules decide the query.

    A labelled problem must be decided as labelled. ``where`` (a file path
    or a problem id) prefixes the error.
    """
    from .logic import ground
    from .sat import ENTAILS_NOT_QUERY, ENTAILS_QUERY, SatSession

    universe = problem.universe()
    query = ground(problem.query, universe)
    formulas = problem.premises + problem.withheld_rules
    conclusion, _ = SatSession(formulas, query, universe=universe).decide(with_backbone=False)
    if conclusion.verdict not in (ENTAILS_QUERY, ENTAILS_NOT_QUERY):
        raise CorpusError(
            f"{where}: field 'withheld_rules': restoring them does not decide the query"
        )
    if problem.gold_label is not None:
        decided = conclusion.verdict == ENTAILS_QUERY
        if decided != problem.gold_label:
            raise CorpusError(
                f"{where}: field 'label': restored problem decides "
                f"{str(decided).lower()}, label says {str(problem.gold_label).lower()}"
            )


def save_problem(problem: Problem, path) -> None:
    payload = {
        "id": problem.id,
        "entities": sorted(e.name for e in problem.entities),
        "premises": [str(f) for f in problem.premises],
        "query": str(problem.query),
    }
    if problem.text is not None:
        payload["text"] = problem.text
    if problem.gold_label is not None:
        payload["label"] = "true" if problem.gold_label else "false"
    if problem.withheld_rules:
        payload["withheld_rules"] = [str(f) for f in problem.withheld_rules]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_corpus(path) -> list[Problem]:
    """Load every problem file in a directory, sorted by filename."""
    root = Path(path)
    if not root.is_dir():
        raise CorpusError(f"{root}: not a corpus directory")
    problems = []
    for f in sorted(root.glob("*.json")):
        if f.name in RESERVED_FILES:
            continue
        problems.append(load_problem_file(f))
    return problems


def _read_json(path):
    """The JSON document in ``path``; an error names the file."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CorpusError(f"{path}: unreadable JSON: {exc}") from exc


_KIND_NAMES = {str: "a string", list: "a list of strings"}


def _check_object(data, where, known: dict, required=()) -> dict:
    """``data``, which must be an object whose keys are all in ``known`` and
    include every ``required`` key; ``known`` maps each key to the kind its
    value must have: ``str``, ``list`` (of strings), or None when the value's
    owner checks it. An error starts with ``where``, then names the key."""
    if not isinstance(data, dict):
        raise CorpusError(f"{where}: expected a JSON object, got a {type(data).__name__}")
    for key, value in data.items():
        if key not in known:
            raise CorpusError(f"{where}: unknown key {key!r} (set to {value!r})")
        kind = known[key]
        if kind is not None and not (
            isinstance(value, kind) and (kind is str or all(isinstance(t, str) for t in value))
        ):
            raise CorpusError(f"{where}: field {key!r} must be {_KIND_NAMES[kind]}")
    for key in required:
        if key not in data:
            raise CorpusError(f"{where}: missing required field {key!r}")
    return data


def load_json_object(path, known: dict, required=()) -> dict:
    """The JSON object in ``path``, checked as :func:`_check_object` checks it;
    every error names the file."""
    return _check_object(_read_json(path), path, known, required)


def load_corpus_config(path) -> dict:
    """Per-corpus engine settings (``CONFIG_KEYS``), if present."""
    cfg = Path(path) / "config.json"
    return load_json_object(cfg, CONFIG_KEYS) if cfg.exists() else {}


EXEMPLAR_KEYS = {"premises": list, "commonsense": list, "query": str, "cot": str}


def load_exemplars(path) -> list[dict]:
    """The few-shot exemplars in ``path``'s ``exemplars.json``, if present.
    Each is an object whose keys are among :data:`EXEMPLAR_KEYS`: lists of
    formula texts under ``premises`` and ``commonsense``, and texts under
    ``query`` and ``cot``; an error names the file and the exemplar as ``[i]``."""
    f = Path(path) / "exemplars.json"
    if not f.exists():
        return []
    data = _read_json(f)
    if not isinstance(data, list):
        raise CorpusError(f"{f}: expected a JSON array of objects")
    return [_check_object(e, f"{f}: [{i}]", EXEMPLAR_KEYS) for i, e in enumerate(data)]
