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
from .logic import RULE_ENTITIES, Entity, Formula, formula_entities
from .parser import parse_formula

RESERVED_FILES = {"kb.json", "config.json", "exemplars.json"}
CONFIG_KEYS = ("generation_style", "score_style")  # the EngineConfig fields config.json may set


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
                *[RULE_ENTITIES(formula_entities, f) for f in formulas]
            )
        return self._universe


def _require(data: dict, key: str, kind, path, required: bool = True) -> object:
    """``data[key]``, which must be a ``kind``; a missing key is an error if
    ``required``, else None."""
    if key not in data:
        if not required:
            return None
        raise CorpusError(f"{path}: missing required field {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise CorpusError(f"{path}: field {key!r} has the wrong type")
    return value


def load_problem_file(path) -> Problem:
    """Parse and validate one problem file.

    When ``withheld_rules`` are present the restored problem (premises plus
    withheld rules) must decide the query, and must agree with the label if
    one is given.
    """
    path = Path(path)
    data = load_json_object(path)
    pid = _require(data, "id", str, path)
    entity_names = _require(data, "entities", list, path)
    premise_texts = _require(data, "premises", list, path)
    query_text = _require(data, "query", str, path)

    signature: dict[str, int] = {}
    entities = set()
    for name in entity_names:
        if not isinstance(name, str) or not name:
            raise CorpusError(f"{path}: field 'entities' holds a bad entry {name!r}")
        entities.add(Entity(name))

    def parse(text, field_name):
        if not isinstance(text, str):
            raise CorpusError(f"{path}: field {field_name!r} holds a non-string entry {text!r}")
        try:
            return parse_formula(text, signature=signature, entities=entity_names)
        except ArgosError as exc:
            raise CorpusError(f"{path}: field {field_name!r}: {exc}") from exc

    premises = [parse(t, "premises") for t in premise_texts]
    query = parse(query_text, "query")

    label = data.get("label")
    gold: Optional[bool] = None
    if label is not None:
        if label not in ("true", "false"):
            raise CorpusError(f"{path}: field 'label' must be \"true\" or \"false\"")
        gold = label == "true"

    withheld_texts = _require(data, "withheld_rules", list, path, required=False) or []
    withheld = [parse(t, "withheld_rules") for t in withheld_texts]

    problem = Problem(
        id=pid,
        entities=entities,
        premises=premises,
        query=query,
        text=_require(data, "text", str, path, required=False),
        gold_label=gold,
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


def load_json_object(path, known=None) -> dict:
    """The JSON object in ``path``, whose keys must all be in ``known`` when
    that is given; an error names the file."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CorpusError(f"{path}: unreadable JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CorpusError(f"{path}: expected a JSON object, got a {type(data).__name__}")
    unknown = [] if known is None else sorted(set(data) - set(known))
    if unknown:
        raise CorpusError(f"{path}: unknown key {unknown[0]!r} (set to {data[unknown[0]]!r})")
    return data


def load_corpus_config(path) -> dict:
    """Per-corpus engine settings (``CONFIG_KEYS``), if present."""
    cfg = Path(path) / "config.json"
    return load_json_object(cfg, CONFIG_KEYS) if cfg.exists() else {}


def load_exemplars(path) -> list[dict]:
    f = Path(path) / "exemplars.json"
    if not f.exists():
        return []
    try:
        data = json.loads(f.read_text())
    except (OSError, ValueError) as exc:
        raise CorpusError(f"{f}: unreadable exemplars: {exc}") from exc
    if not isinstance(data, list) or not all(isinstance(e, dict) for e in data):
        raise CorpusError(f"{f}: expected a JSON array of objects")
    return data
