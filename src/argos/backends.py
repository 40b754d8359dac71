"""Backends for the four language-model subroutines.

Two interchangeable implementations of the same interface:

* :class:`WireBackend` talks to a completion endpoint that exposes per-token
  log-probabilities (needed to recover the Yes/No logits for scoring).
* :class:`OracleBackend` is a deterministic, seeded knowledge-base stand-in
  used for reproducible testing: it forward-chains a Horn rule base with a
  bounded number of rule applications, so problems needing longer derivations
  look "hard" to it exactly the way deep proofs are hard for a real model.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import math
import random
import re
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .errors import ArgosError, BackendError, BackendExhausted, CorpusError
from .errors import check_fields, is_int, is_number
from .logic import (
    Atom,
    Entity,
    ForAll,
    Formula,
    HornRule,
    Implies,
    Literal,
    bind,
    formula_entities,
    formula_to_literal,
    instantiate,
    iter_atoms,
    lit,
    rule_view,
    signed_predicate,
    unify,
)

Target = Union[Entity, tuple, None]

CONTRADICTION_STYLE = "contradiction"
TRUTH_STYLE = "truth"


# per-request token ceilings on the wire backend
MAX_GENERATE_TOKENS = 25
MAX_SCORE_TOKENS = 1
MAX_COT_TOKENS = 300
# the wire backend's request policy: CoT sampling temperature, per-POST
# timeout, POSTs per request, and the first retry's wait, doubled per attempt
COT_TEMPERATURE = 0.7
REQUEST_TIMEOUT_S = 60.0
MAX_ATTEMPTS = 3
BACKOFF_S = 1.0
# The longest Retry-After a 429 may ask for before the request gives up.
MAX_RETRY_AFTER_S = 60


@dataclass(frozen=True)
class CotSample:
    """One chain-of-thought sample; answer None means the sample abstained."""

    answer: Optional[bool]
    token_confidence: float
    raw_text: str


@dataclass(frozen=True)
class SolveVote:
    answer: bool
    vote_fraction: float
    weighted_confidence: float
    samples: tuple[CotSample, ...]
    degenerate: bool = False


_ANSWER_RE = re.compile(r"\b(true|false)\b", re.IGNORECASE)


def extract_answer(text: str) -> Optional[bool]:
    """Last occurrence of a true/false token decides the sample's answer."""
    matches = _ANSWER_RE.findall(text)
    if not matches:
        return None
    return matches[-1].lower() == "true"


def assemble_vote(samples: Sequence[CotSample], k: int) -> SolveVote:
    """Modal answer over non-abstaining samples with the standard arithmetic.

    vote_fraction is (modal count)/k and the weighted confidence averages the
    modal samples' token confidences over k. If every sample abstains the
    vote is False by fixed convention and flagged degenerate.
    """
    answered = [s for s in samples if s.answer is not None]
    if not answered:
        return SolveVote(False, 0.0, 0.0, tuple(samples), degenerate=True)
    count = {True: 0, False: 0}
    conf = {True: 0.0, False: 0.0}
    for s in answered:
        count[s.answer] += 1
        conf[s.answer] += s.token_confidence
    if count[True] != count[False]:
        answer = count[True] > count[False]
    elif conf[True] != conf[False]:
        answer = conf[True] > conf[False]
    else:
        answer = True
    return SolveVote(
        answer=answer,
        vote_fraction=count[answer] / k,
        weighted_confidence=conf[answer] / k,
        samples=tuple(samples),
    )


class Context:
    """One problem's request state, made once per problem and passed to
    every request about it.

    It holds the premises as a tuple, so it is a snapshot of the sequence it
    was made from, and derives from them, once each and on first use, what
    backends and the engine read on many requests: their text, the entities
    they name, their predicate signature, and their split into facts and
    rules. It also keeps the oracle's last generation lookup, so a backend
    itself holds no state that a request writes.
    """

    def __init__(self, premises: Iterable[Formula]):
        self.premises = tuple(premises)
        # (backend, antecedent, its KB matches), replaced whole and read
        # once, so a thread never sees one key beside another key's value
        self.matches: Optional[tuple] = None

    @cached_property
    def text(self) -> str:
        """The premises as prompts show them, and as seeded keys name them."""
        return _render_formulas(self.premises)

    @cached_property
    def entities(self) -> frozenset[Entity]:
        """The entities the premises name."""
        return frozenset(e for f in self.premises for e in rule_view(formula_entities, f))

    @cached_property
    def signature(self) -> dict[str, int]:
        """Each predicate name of the premises with its first-seen arity."""
        signature: dict[str, int] = {}
        for f in self.premises:
            for a in iter_atoms(f):
                signature.setdefault(a.predicate.name, a.predicate.arity)
        return signature

    @cached_property
    def facts(self) -> tuple[Literal, ...]:
        """The premises that are ground literals, in order."""
        literals = map(formula_to_literal, self.premises)
        return tuple([l for l in literals if l is not None and l.is_ground])

    @cached_property
    def rules(self) -> tuple[HornRule, ...]:
        """The Horn readings of the premises that have an antecedent, in
        order. Only an implication, universally closed or not, has one."""
        read = HornRule.from_formula
        readings = [rule_view(read, f) for f in self.premises if isinstance(f, (ForAll, Implies))]
        return tuple([r for r in readings if r is not None and r.antecedent])


class Backend(ABC):
    """Uniform interface for solve, generate, and the two scorers.

    Every request about a problem's premises takes that problem's
    :class:`Context`; ``commonsense`` is the clauses accepted so far.
    """

    def solve(
        self,
        context: Context,
        commonsense: Sequence,
        query: Formula,
        k: int,
    ) -> SolveVote:
        if k < 1:
            raise ValueError("k must be at least 1")
        return assemble_vote(self._cot_samples(context, commonsense, query, k), k)

    @abstractmethod
    def _cot_samples(self, context, commonsense, query, k) -> list[CotSample]:
        ...

    @abstractmethod
    def generate(
        self,
        context: Context,
        commonsense: Sequence,
        antecedent: tuple[Literal, ...],
        target: Target,
    ) -> list[Literal]:
        """Candidate consequents of ``antecedent``, 0-2 distinct literals,
        about ``target``: an entity, an entity pair or None."""

    @abstractmethod
    def commonsense_score(self, clause, style: str = CONTRADICTION_STYLE) -> float:
        ...

    @abstractmethod
    def relevance_score(self, context, commonsense, clause) -> float:
        ...


# --- prompt templates --------------------------------------------------------


def _render_formulas(formulas: Iterable) -> str:
    return ". ".join([rule_view(str, f) for f in formulas])


def cot_prompt(context: Context, commonsense, query, exemplars=()) -> str:
    parts = []
    for ex in exemplars:
        parts.append(
            "Here are some facts and rules: "
            + _render_formulas(ex.get("premises", ()))
            + "\nHere is some additional info we found: "
            + _render_formulas(ex.get("commonsense", ()))
            + f"\nTrue or false: {ex.get('query', '')}?"
            + f"\nAnswer: {ex.get('cot', '')}\n"
        )
    parts.append(
        "Here are some facts and rules: "
        + context.text
        + "\nHere is some additional info we found: "
        + _render_formulas(commonsense)
        + f"\nTrue or false: {query}?"
        + "\nAnswer:"
    )
    return "\n".join(parts)


def generate_prompt_entity(antecedent_text, entity, known_predicates) -> str:
    blank = "__" if entity is None else f"__({entity})"
    return (
        f"Fill in the blank with a known predicate: {antecedent_text} implies {blank}.\n"
        f"Known predicates are: {', '.join(known_predicates)}\n"
        "Answer:"
    )


def generate_prompt_pair(antecedent_text, e1, e2) -> str:
    return f"If {antecedent_text} then __({e1},{e2}). Fill in the blank.\nAnswer:"


def commonsense_prompt(clause_text: str, style: str) -> str:
    question = (
        "Does the following rule seem contradictory?"
        if style == CONTRADICTION_STYLE
        else "Does the following rule seem true?"
    )
    return f"{question}\nRule: {clause_text}\nAnswer:"


def relevance_prompt(context: Context, commonsense, clause_text: str) -> str:
    shown = ". ".join(t for t in (context.text, _render_formulas(commonsense)) if t)
    return (
        f"Here are some facts and rules: {shown}\n"
        f"Does the following new rule seem contextually relevant to the facts and rules? {clause_text}\n"
        "Answer:"
    )


# --- the deterministic knowledge-base oracle ---------------------------------


@dataclass(frozen=True)
class OracleKB:
    """Rule base plus the knobs that shape the stand-in model's behaviour.

    ``reasoning_depth`` bounds how many rule applications a derivation may
    use before the solve subroutine gives up and guesses (None: unbounded).
    ``noise`` flips each scoring decision, and corrupts each generated
    candidate, independently with that probability (seeded). A KB is frozen,
    so the formulas it builds from its rules when it is made never go stale.
    """

    rules: tuple[HornRule, ...]
    reasoning_depth: Optional[int] = None
    noise: float = 0.0
    seed: int = 0

    # knob -> (check, what the check wants); a kb.json may set each knob
    FIELDS = {
        "reasoning_depth": (lambda v: v is None or is_int(v) and v >= 0,
                            "null or an integer >= 0"),
        "noise": (lambda v: is_number(v) and 0.0 <= v < 1.0, "a number in [0, 1)"),
        "seed": (is_int, "an integer"),
    }

    def __post_init__(self):
        check_fields(self, self.FIELDS)
        for r in self.rules:
            r.check()
        # built here, not per call, so every corruption check restores the
        # same formula objects; a value, not a field, so it stays out of
        # equality, repr and the knobs
        object.__setattr__(self, "_formulas", tuple(r.to_formula() for r in self.rules))

    @classmethod
    def from_formulas(cls, formulas: Iterable[Formula], check: bool = True, **knobs) -> "OracleKB":
        """The KB of ``formulas``; an error names the bad one as ``rules[i]``,
        its place in ``formulas``."""
        rules = []
        for i, f in enumerate(formulas):
            try:
                r = HornRule.from_formula(f)
                if r is None:
                    raise ArgosError(f"not a Horn rule: {f}")
                r.check()
            except ArgosError as exc:
                raise ArgosError(f"rules[{i}]: {exc}") from exc
            rules.append(r)
        rules.sort(key=str)
        kb = cls(tuple(rules), **knobs)
        if check and not kb.is_consistent():
            raise ArgosError("knowledge base rules are mutually inconsistent")
        return kb

    @classmethod
    def from_file(cls, path, **overrides) -> "OracleKB":
        """Load rules and knobs from JSON; ``overrides`` replace the file's knobs."""
        from .corpus import load_json_object
        from .parser import parse_formula

        data = load_json_object(path, {"rules": list, **dict.fromkeys(cls.FIELDS)}, ("rules",))
        signature: dict[str, int] = {}
        formulas = []
        for i, text in enumerate(data["rules"]):
            try:
                formulas.append(parse_formula(text, signature=signature))
            except ArgosError as exc:
                raise CorpusError(f"{path}: rules[{i}]: {exc}") from exc
        knobs = {key: data[key] for key in cls.FIELDS if key in data}
        try:
            kb = cls.from_formulas(formulas, **knobs)
        except ArgosError as exc:
            raise CorpusError(f"{path}: {exc}") from exc
        return replace(kb, **overrides)

    def to_file(self, path) -> None:
        payload = {"rules": [str(f) for f in self.formulas()]}
        payload.update((key, getattr(self, key)) for key in self.FIELDS)
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    def formulas(self) -> tuple[Formula, ...]:
        return self._formulas

    def is_consistent(self) -> bool:
        from .sat import INCONSISTENT, SatSession

        formulas = self.formulas()
        pool = {e for f in formulas for e in formula_entities(f)}
        pool |= {Entity(f"_e{i}") for i in range(1, 4)}
        conclusion, _ = SatSession(formulas, universe=pool).decide(with_backbone=False)
        return conclusion.verdict != INCONSISTENT


class OracleBackend(Backend):
    """Deterministic stand-in for the language model.

    Outputs depend only on the request content and the KB seed, never on
    call order, so concurrent suites reproduce serial runs exactly.
    """

    def __init__(self, kb: OracleKB):
        self.kb = kb
        # rules with an antecedent, each beside its place in the rule-text
        # order that generation answers in, keyed by the signed predicates of
        # the antecedent
        self._by_signature: dict[frozenset, list[tuple[int, HornRule]]] = {}
        ordered = sorted((rule for rule in kb.rules if rule.antecedent), key=str)
        for place, rule in enumerate(ordered):
            sig = frozenset(map(signed_predicate, rule.antecedent))
            self._by_signature.setdefault(sig, []).append((place, rule))
        # the KB's ground facts, in rule-base order
        self._facts = tuple(dict.fromkeys(
            r.consequent for r in kb.rules if not r.antecedent and r.consequent.is_ground
        ))
        # what noise may swap each consequent predicate for: the others of its arity
        predicates = sorted(
            {r.consequent.atom.predicate for r in kb.rules}, key=lambda p: (p.name, p.arity)
        )
        self._swaps = {
            p: [q for q in predicates if q.arity == p.arity and q != p] for p in predicates
        }

    # -- seeded randomness per request ------------------------------------

    def _rng(self, *key_parts) -> random.Random:
        h = hashlib.sha256()
        h.update(str(self.kb.seed).encode())
        for part in key_parts:
            h.update(b"\x1f")
            h.update(str(part).encode())
        return random.Random(int.from_bytes(h.digest()[:8], "big"))

    # -- solve: depth-bounded forward chaining ------------------------------

    def _chain(self, context: Context, commonsense) -> dict[Literal, int]:
        """Least rule-application counts for every derivable ground literal.

        A cost-ordered worklist (Knuth 1977, "A generalization of Dijkstra's
        algorithm"). Facts leave a heap cheapest first, and each is joined
        once: against the rules that use its signed predicate and, for a
        two-literal antecedent, against itself and the facts that left
        before it. A derived cost is its antecedents' costs plus one, so it
        exceeds each of them, and a fact that leaves later can never make
        one that left before it cheaper.
        """
        facts = dict.fromkeys(context.facts, 0)
        cap = math.inf if self.kb.reasoning_depth is None else self.kb.reasoning_depth
        if cap <= 0:
            return facts
        rules = [*self.kb.rules, *context.rules, *commonsense]
        # each rule under the signed predicate of each antecedent literal
        uses: dict[tuple, list[tuple[HornRule, int]]] = {}
        for rule in rules:
            if not rule.antecedent and rule.consequent.is_ground:
                facts[rule.consequent] = 0
            for place, l in enumerate(rule.antecedent):
                uses.setdefault(signed_predicate(l), []).append((rule, place))
        tie = itertools.count()  # Literal is not orderable
        heap = [(0, next(tie), l) for l in facts]
        done: dict[tuple, list[Literal]] = {}  # popped facts, by signed predicate
        while heap:
            cost, _, fact = heapq.heappop(heap)
            if cost > facts[fact] or cost >= cap:
                continue  # a cheaper entry was popped, or nothing it derives fits
            key = signed_predicate(fact)
            done.setdefault(key, []).append(fact)
            for rule, place in uses.get(key, ()):
                theta = unify(rule.antecedent[place], fact, {})
                if theta is None:
                    continue
                joins = [(theta, cost)]
                if len(rule.antecedent) == 2:
                    other = rule.antecedent[1 - place]
                    joins = [(unify(other, g, theta), cost + facts[g])
                             for g in done.get(signed_predicate(other), ())]
                for th, base in joins:
                    derived = None if th is None else instantiate(rule.consequent, th)
                    if derived is not None and base + 1 < facts.get(derived, cap + 1):
                        facts[derived] = base + 1
                        heapq.heappush(heap, (base + 1, next(tie), derived))
        return facts

    def _cot_samples(self, context, commonsense, query, k) -> list[CotSample]:
        facts = self._chain(context, commonsense)
        qlit = formula_to_literal(query)
        derived: Optional[bool] = None
        steps = 0
        if qlit is not None:
            if qlit in facts:
                derived, steps = True, facts[qlit]
            elif qlit.negate() in facts:
                derived, steps = False, facts[qlit.negate()]
        if derived is not None:
            text = f"Derived after {steps} rule application(s). Answer: {derived}"
            return [CotSample(derived, 1.0, text)] * k
        # Underived: the stand-in guesses. The sample set sits at the k-vote
        # majority floor (never unanimous), with the majority side a fair coin,
        # so an unsure oracle can never clear a vote threshold above 1/2.
        rng = self._rng(
            "solve",
            context.text,
            _render_formulas(commonsense),
            str(query),
            k,
        )
        majority = rng.random() < 0.5
        n_major = k // 2 + 1
        answers = [majority] * n_major + [not majority] * (k - n_major)
        rng.shuffle(answers)
        guess = "No derivation found within the step limit. Guessing. Answer: {}"
        return [CotSample(a, 0.5, guess.format(a)) for a in answers]

    # -- generation: KB rule lookup -----------------------------------------

    def _matching_consequents(self, antecedent: tuple[Literal, ...]) -> list[Literal]:
        """The ground consequents the KB derives from ``antecedent`` in one
        rule application; for the empty antecedent, the KB's ground facts."""
        if not antecedent:
            return list(self._facts)
        out: list[Literal] = []
        seen = set()
        ante_sig = set(map(signed_predicate, antecedent))
        # the rules whose signature is a subset of the antecedent's, in text order
        subsets = [frozenset([s]) for s in ante_sig]
        if len(ante_sig) == 2:
            subsets.append(frozenset(ante_sig))
        matching = sorted(e for sig in subsets for e in self._by_signature.get(sig, ()))
        for _, rule in matching:
            orders: list[tuple[Literal, ...]]
            if len(rule.antecedent) == 1:
                orders = [(p,) for p in antecedent]
            elif len(antecedent) == 2:
                orders = [antecedent, antecedent[::-1]]
            else:  # a two-literal rule may match one literal twice
                orders = [antecedent * 2]
            for order in orders:
                theta = bind(rule.antecedent, order, {})
                if theta is None:
                    continue
                derived = instantiate(rule.consequent, theta)
                if derived is not None and derived.is_ground and derived not in seen:
                    seen.add(derived)
                    out.append(derived)
        return out

    def _matches(self, context: Context, antecedent: tuple[Literal, ...]) -> list[Literal]:
        """``_matching_consequents(antecedent)``, kept on ``context`` while a
        search asks about one antecedent for several targets in a row."""
        last = context.matches
        if last is None or last[0] is not self or last[1] != antecedent:
            last = context.matches = (self, antecedent, self._matching_consequents(antecedent))
        return last[2]

    def generate(self, context, commonsense, antecedent, target) -> list[Literal]:
        candidates = self._matches(context, antecedent)  # shared: filtered into a new list
        if isinstance(target, Entity):
            candidates = [c for c in candidates if target in c.entities()]
        elif isinstance(target, tuple):
            candidates = [c for c in candidates if tuple(c.atom.args) == tuple(target)]
        else:
            candidates = list(candidates)
        if self.kb.noise > 0.0 and candidates:
            # the key names the first and last literal, so that seeded noisy
            # runs reproduce the outputs they always gave
            ends = (antecedent[0], antecedent[-1]) if antecedent else (None, None)
            rng = self._rng("generate", *ends, target, context.text, len(commonsense))
            corrupted = []
            for c in candidates:
                if rng.random() < self.kb.noise:
                    swaps = self._swaps[c.atom.predicate]
                    if swaps and rng.random() < 0.5:
                        c = Literal(Atom(rng.choice(swaps), c.atom.args), c.positive)
                    else:
                        c = c.negate()
                corrupted.append(c)
            candidates = corrupted
        return candidates

    # -- scoring -------------------------------------------------------------

    def _kb_decision(self, clause: HornRule) -> Optional[bool]:
        """True: the KB derives the consequent from the clause's antecedent or
        states it as a fact; False: likewise its negation; None: undecided."""
        derived = set(self._matching_consequents(clause.antecedent)).union(self._facts)
        if clause.consequent in derived:
            return True
        if clause.consequent.negate() in derived:
            return False
        return None

    def commonsense_score(self, clause, style: str = CONTRADICTION_STYLE) -> float:
        decision = self._kb_decision(clause)
        score = 1.0 if decision else 0.0
        if self.kb.noise > 0.0:
            rng = self._rng("commonsense", style, str(clause))
            if rng.random() < self.kb.noise:
                score = 1.0 - score
        return score

    def relevance_score(self, context, commonsense, clause) -> float:
        """1 iff every entity of ``clause`` is named by the premises or by an
        accepted clause, the context the wire prompt shows. An entity that
        the problem declares but never names is unknown here: the problem's
        whole universe would take one more parameter in every backend."""
        known = context.entities.union(*(c.entities() for c in commonsense))
        score = 1.0 if clause.entities() <= known else 0.0
        if self.kb.noise > 0.0:
            rng = self._rng("relevance", context.text, len(commonsense), str(clause))
            if rng.random() < self.kb.noise:
                score = 1.0 - score
        return score


# --- the wire backend ---------------------------------------------------------


# logprobs key -> the check each non-null entry of its list must pass
_LOGPROB_ENTRIES = {
    "tokens": lambda t: isinstance(t, str),
    "token_logprobs": is_number,
    "top_logprobs": lambda t: isinstance(t, dict)
    and all(isinstance(k, str) and is_number(v) for k, v in t.items()),
}


def _read_completion(data) -> tuple[str, dict]:
    """The text and logprobs of a completion body's first choice. The
    logprobs map each key of ``_LOGPROB_ENTRIES`` to a list whose entries are
    null or pass its check; logprobs, or one of their keys, absent or null
    reads as empty. Any other shape is a BackendError naming the body."""
    try:
        first = data["choices"][0]
        text, logprobs = first["text"], first.get("logprobs")
    except (KeyError, IndexError, TypeError):
        text = logprobs = None
    logprobs = {} if logprobs is None else logprobs
    if isinstance(text, str) and isinstance(logprobs, dict):
        read = {key: [] if logprobs.get(key) is None else logprobs[key] for key in _LOGPROB_ENTRIES}
        if all(
            isinstance(entries, list) and all(e is None or ok(e) for e in entries)
            for entries, ok in zip(read.values(), _LOGPROB_ENTRIES.values())
        ):
            return text, read
    raise BackendError(f"malformed completion response: {data!r}")


def _retry_after(resp, default: float) -> float:
    """Seconds a 429 response asks to wait: its ``Retry-After`` header when that
    is a whole number of seconds, else ``default``."""
    value = str((getattr(resp, "headers", None) or {}).get("Retry-After", "")).strip()
    if not (value.isascii() and value.isdigit()):
        return default  # absent, negative, fractional or an HTTP date
    seconds = int(value)
    if seconds > MAX_RETRY_AFTER_S:
        raise BackendExhausted(
            f"rate limited: Retry-After {seconds} s exceeds {MAX_RETRY_AFTER_S} s"
        )
    return seconds


class WireBackend(Backend):
    """Client for a completion server exposing per-token log-probabilities.

    The request body follows the common completions shape: ``model``,
    ``prompt``, ``max_tokens``, ``temperature`` and ``logprobs`` (top-k count);
    the response must carry ``choices[0].text`` and
    ``choices[0].logprobs.tokens`` / ``token_logprobs`` / ``top_logprobs``.
    Each request makes up to ``MAX_ATTEMPTS`` POSTs of ``REQUEST_TIMEOUT_S``
    each. Transport failures (``OSError``), 5xx and 429 responses retry after
    ``BACKOFF_S`` doubled per attempt. A 429 whose ``Retry-After`` header
    is a whole number of seconds waits that long instead, and one above
    ``MAX_RETRY_AFTER_S`` ends the request at once. Any other 4xx response or
    any other exception ends the request at once, and so does a body that is
    not JSON or not of the shape above, as a BackendError. ``post`` and
    ``sleep`` replace the transport and the wait.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_token: Optional[str] = None,
        exemplars: Sequence[dict] = (),
        post=None,
        sleep=time.sleep,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_token = api_token
        self.exemplars = list(exemplars)
        if post is None:
            import requests

            post = requests.post
        self._post = post
        self._sleep = sleep

    def _request(
        self, prompt: str, max_tokens: int, temperature: float, logprobs: int
    ) -> tuple[str, dict]:
        """The text and logprobs of the completion of ``prompt``."""
        headers = {"Content-Type": "application/json"}
        if self.api_token:
            headers["Authorization"] = f"Bearer {self.api_token}"
        body = {
            "model": self.model,
            "prompt": prompt,
            "max_tokens": max_tokens,
            "temperature": temperature,
            "logprobs": logprobs,
        }
        last_error: Optional[Exception] = None
        for attempt in range(MAX_ATTEMPTS):
            delay = BACKOFF_S * (2**attempt)
            try:
                resp = self._post(
                    self.endpoint, json=body, headers=headers, timeout=REQUEST_TIMEOUT_S
                )
                status = getattr(resp, "status_code", 200)
                if status == 429:
                    delay = _retry_after(resp, delay)
                    raise BackendError("rate limited with status 429")
                if status >= 500:
                    raise BackendError(f"server error {status}")
                if status >= 400:
                    raise BackendExhausted(f"request rejected with status {status}")
                break
            except BackendExhausted:
                raise
            except (OSError, BackendError) as exc:  # transport failure, 5xx or 429: retry
                last_error = exc
                if attempt + 1 < MAX_ATTEMPTS:
                    self._sleep(delay)
        else:
            raise BackendExhausted(f"all {MAX_ATTEMPTS} attempts failed: {last_error}")
        try:
            data = resp.json()
        except ValueError as exc:  # requests' JSONDecodeError is also an OSError
            body = getattr(resp, "text", "")[:200]
            raise BackendError(f"malformed completion response: {exc}: {body!r}") from exc
        return _read_completion(data)

    def _cot_samples(self, context, commonsense, query, k) -> list[CotSample]:
        prompt = cot_prompt(context, commonsense, query, self.exemplars)
        samples = []
        for _ in range(k):
            text, logprobs = self._request(prompt, MAX_COT_TOKENS, COT_TEMPERATURE, 5)
            answer = extract_answer(text)
            confidence = 0.0
            if answer is not None:
                confidence = self._answer_confidence(logprobs, answer)
            samples.append(CotSample(answer, confidence, text))
        return samples

    @staticmethod
    def _answer_confidence(logprobs: dict, answer: bool) -> float:
        """Generation probability of the sample's final answer token."""
        want = "true" if answer else "false"
        pairs = zip(reversed(logprobs["tokens"]), reversed(logprobs["token_logprobs"]))
        for tok, tok_lp in pairs:
            if tok is None or tok_lp is None:
                continue
            if tok.strip().lower() == want:
                return math.exp(tok_lp)
        return 0.5

    def _yes_no_probability(self, prompt: str, positive: str) -> float:
        _, logprobs = self._request(prompt, MAX_SCORE_TOKENS, 0.0, 20)
        top = logprobs["top_logprobs"]
        table = (top[0] if top else None) or {}
        best = {"yes": None, "no": None}
        for token, value in table.items():
            name = token.strip().lower()
            if name in best and (best[name] is None or value > best[name]):
                best[name] = value
        if best["yes"] is None or best["no"] is None:
            return 0.0
        e_yes = math.exp(best["yes"])
        e_no = math.exp(best["no"])
        chosen = e_yes if positive == "yes" else e_no
        return chosen / (e_yes + e_no)

    def commonsense_score(self, clause, style: str = CONTRADICTION_STYLE) -> float:
        prompt = commonsense_prompt(str(clause), style)
        positive = "no" if style == CONTRADICTION_STYLE else "yes"
        return self._yes_no_probability(prompt, positive)

    def relevance_score(self, context, commonsense, clause) -> float:
        prompt = relevance_prompt(context, commonsense, str(clause))
        return self._yes_no_probability(prompt, "yes")

    def generate(self, context, commonsense, antecedent, target) -> list[Literal]:
        antecedent_text = " & ".join(map(str, antecedent)) or "the context"
        # the predicate vocabulary: each name with its first-seen arity
        signature = dict(context.signature)
        for c in commonsense:
            for l in c.literals:
                signature.setdefault(l.atom.predicate.name, l.atom.predicate.arity)
        if isinstance(target, tuple):
            prompt = generate_prompt_pair(antecedent_text, target[0], target[1])
        else:
            prompt = generate_prompt_entity(antecedent_text, target, sorted(signature))
        text, _ = self._request(prompt, MAX_GENERATE_TOKENS, 0.0, 0)
        generated = self._parse_generated(text, target, signature)
        return [generated] if generated is not None else []

    @staticmethod
    def _parse_generated(text, target, signature: dict[str, int]) -> Optional[Literal]:
        """The ground literal the first line of ``text`` names, or None.

        A 0-ary answer to a targeted request takes the target's entities as
        its arguments. Untargeted, a 0-ary name the signature lacks is kept
        only on a propositional problem, one whose signature has no predicate
        of positive arity. An answer whose arity conflicts with the
        signature's is dropped.
        """
        from .parser import parse_literal

        line = (text.strip().splitlines() or [""])[0].strip().rstrip(".")
        try:
            parsed = parse_literal(line)
        except ArgosError:
            return None
        name = parsed.atom.predicate.name
        if parsed.atom.predicate.arity == 0:
            if target is not None:
                args = target if isinstance(target, tuple) else (target,)
                parsed = lit(name, *args, positive=parsed.positive)
            elif name not in signature and any(a > 0 for a in signature.values()):
                return None
        if name in signature and signature[name] != parsed.atom.predicate.arity:
            return None
        if not parsed.is_ground:
            return None
        return parsed
