"""The iterative solve/abduce loop and the backbone-guided clause search.

Each pass: try the SAT solver; if it decides the query, done. Otherwise take
a k-sample vote from the backend and stop if the vote fraction clears the
annealed threshold gamma. Otherwise search the backbone for one new
commonsense implication, add it (gamma shrinks by alpha), and repeat. The
search walks antecedents of up to two backbone literals, explicit facts (the
ground literal premises and accepted consequents) ahead of the literals the
solver derived, each group from the most entity-connected literals down; it
asks the backend for consequents and accepts the first candidate whose
commonsense and relevance scores both clear tau.

gamma and vote fractions are handled as exact rationals so threshold
comparisons never drift; traces are line-oriented JSON with deterministic
content (see README for the schema).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Collection, Iterator, Mapping, Optional, Sequence

from .backends import CONTRADICTION_STYLE, TRUTH_STYLE, Backend, Context, SolveVote
from .errors import BackendError, BackendExhausted, check_fields, is_int, is_number, one_of
from .logic import Entity, HornRule, Literal, formula_to_literal, ground
from .sat import ENTAILS_NOT_QUERY, ENTAILS_QUERY, INCONSISTENT, Backbone, SatSession

GENERATION_ENTITY = "entity"
GENERATION_ENTITY_PAIR = "entity_pair"
GENERATION_TARGETS = 3  # generation calls per antecedent: entities or entity pairs

DECIDED_BY_SAT = "sat"
DECIDED_BY_SC = "self-consistency"
DECIDED_BY_FALLBACK = "fallback"


def _in_unit(v) -> bool:
    return is_number(v) and 0.0 < v <= 1.0


@dataclass
class EngineConfig:
    """Hyperparameters of the loop; defaults match the reference settings."""

    k: int = 5
    gamma0: float = 1.0
    alpha: float = 0.1
    tau: float = 0.3
    max_cot: Optional[int] = None
    seed: int = 0
    use_sc_solver: bool = True
    generation_style: str = GENERATION_ENTITY
    score_style: str = CONTRADICTION_STYLE

    # field -> (check, what the check wants)
    FIELDS = {
        "k": (lambda v: is_int(v) and v >= 1, "an integer >= 1"),
        "gamma0": (_in_unit, "a number in (0, 1]"),
        "alpha": (_in_unit, "a number in (0, 1]"),
        "tau": (_in_unit, "a number in (0, 1]"),
        "max_cot": (lambda v: v is None or is_int(v) and v >= 0, "null or an integer >= 0"),
        "seed": (is_int, "an integer"),
        "use_sc_solver": (lambda v: isinstance(v, bool), "true or false"),
        "generation_style": one_of(GENERATION_ENTITY, GENERATION_ENTITY_PAIR),
        "score_style": one_of(CONTRADICTION_STYLE, TRUTH_STYLE),
    }

    def __post_init__(self):
        check_fields(self, self.FIELDS)


@dataclass(frozen=True)
class CommonsenseClause(HornRule):
    """An accepted implication: 0-2 backbone literals imply one new literal."""

    commonsense_score: float
    relevance_score: float


@dataclass
class SolveResult:
    verdict: bool
    decided_by: str
    confidence: float
    commonsense: list[CommonsenseClause]
    iterations: int
    cot_calls: int
    trace: list[dict]
    inconsistent: bool = False
    degenerate: bool = False


def trace_jsonl(trace: Sequence[dict]) -> str:
    """The one serialization of a trace: one sorted-key JSON object per line."""
    return "".join(
        json.dumps(e, sort_keys=True, separators=(", ", ": ")) + "\n" for e in trace
    )


def entity_scores(entities_of: Mapping[Literal, frozenset[Entity]]) -> dict[Literal, int]:
    """Each literal's count of the map's literals sharing an entity with it
    (itself included); 0-ary literals have no entities and score 0.
    ``entities_of`` maps each backbone literal to its entities."""
    naming: dict[Entity, set[Literal]] = {}
    for l, es in entities_of.items():
        for e in es:
            naming.setdefault(e, set()).add(l)
    return {l: len(set().union(*(naming[e] for e in es))) for l, es in entities_of.items()}


def pair_order(
    entities_of: Mapping[Literal, frozenset[Entity]], explicit: Collection[Literal]
) -> Iterator[tuple[Literal, ...]]:
    """Deterministic antecedent scan order for the clause search, lazily.

    The backbone is the keys of ``entities_of``, which maps each literal to
    its entities. Literals in ``explicit`` (the facts the problem states or
    the search accepted) sort ahead of the ones the solver derived; within
    each group, by descending entity-overlap score, ties broken by text. The
    scan yields the ordered outer-by-inner product, whose diagonal is the
    single-literal antecedent ``(l,)`` in its place, and ends with the empty
    antecedent, so every antecedent is still visited.
    """
    scores = entity_scores(entities_of)
    lits = sorted(scores, key=lambda l: (l not in explicit, -scores[l], str(l)))
    for a in lits:
        for b in lits:
            yield (a,) if a is b else (a, b)
    yield ()


def generation_targets(
    antecedent: tuple[Literal, ...],
    style: str,
    cap: int,
    entities_of: Mapping[Literal, frozenset[Entity]],
) -> list:
    """Targets for the per-candidate generation calls, most promising first.

    Entity style: one call per distinct antecedent entity. Pair style: one
    call per ordered entity pair, with pairs joining the two literals' outer
    endpoints ahead of the rest (a two-literal antecedent sharing a middle
    entity most plausibly concludes about its endpoints). ``entities_of``
    maps each antecedent literal to its entities, taken once per search.
    """
    sets = [entities_of[l] for l in antecedent]
    entities = sorted(set().union(*sets), key=lambda e: e.name)
    if not entities:
        return [None]  # empty or propositional antecedent: one untargeted call
    if style == GENERATION_ENTITY:
        return entities[:cap]
    primary: list[tuple[Entity, Entity]] = []
    if len(sets) == 2:
        s1, s2 = sets
        shared = s1 & s2
        for a in sorted(s1 - shared, key=lambda e: e.name):
            for b in sorted(s2 - shared, key=lambda e: e.name):
                primary.extend([(a, b), (b, a)])
    # the other ordered pairs in name order, made only as far as the cap
    seen = set(primary)
    rest = ((a, b) for a in entities for b in entities if a != b and (a, b) not in seen)
    return primary[:cap] + list(islice(rest, max(0, cap - len(primary))))


class Engine:
    """One engine instance solves one problem; no state is shared."""

    def __init__(self, problem, config: EngineConfig, backend: Backend):
        self.problem = problem
        self.config = config
        self.backend = backend
        self.context = Context(problem.premises)  # what every backend request reads
        self.trace: list[dict] = []
        self.accepted: list[CommonsenseClause] = []
        self.selectors: list[int] = []  # one per accepted clause, in order
        self.decided: set[tuple] = set()
        self.last_vote: Optional[SolveVote] = None
        self.cot = 0
        self.iteration = 0
        self.universe = problem.universe()
        # the problem's explicit facts, which the clause search scans first
        self.premise_literals = frozenset(
            l for l in map(formula_to_literal, problem.premises) if l is not None and l.is_ground
        )
        self._reground()

    # -- plumbing ------------------------------------------------------------

    def _reground(self) -> None:
        """The problem's one grounding: a session over the current universe,
        with every accepted clause behind its own selector."""
        query = ground(self.problem.query, self.universe)
        self.session = SatSession(self.problem.premises, query, universe=self.universe)
        self.selectors = self.session.add_guarded(c.to_formula() for c in self.accepted)

    def _emit(self, event: str, **fields) -> None:
        record = {"event": event, "iteration": self.iteration, "cot": self.cot}
        record.update(fields)
        self.trace.append(record)

    def _gamma(self) -> Fraction:
        gamma0 = Fraction(str(self.config.gamma0))
        alpha = Fraction(str(self.config.alpha))
        return gamma0 - alpha * len(self.accepted)

    def _vote_fraction(self, vote: SolveVote) -> Fraction:
        count = sum(1 for s in vote.samples if s.answer == vote.answer)
        return Fraction(count, self.config.k)

    def _can_vote(self) -> bool:
        if not self.config.use_sc_solver:
            return False
        if self.config.max_cot is not None and self.cot + self.config.k > self.config.max_cot:
            return False
        return True

    def _vote(self) -> SolveVote:
        vote = self.backend.solve(self.context, self.accepted, self.problem.query, self.config.k)
        self.cot += self.config.k
        self.last_vote = vote
        self._emit(
            "vote",
            answer=vote.answer,
            vote_fraction=float(self._vote_fraction(vote)),
            weighted_confidence=round(vote.weighted_confidence, 9),
            k=self.config.k,
            degenerate=vote.degenerate,
        )
        return vote

    def _result(
        self,
        verdict: bool,
        decided_by: str,
        confidence: float,
        reason: str,
        inconsistent: bool = False,
        degenerate: bool = False,
    ) -> SolveResult:
        self._emit(
            "result",
            verdict=verdict,
            decided_by=decided_by,
            confidence=round(confidence, 9),
            clauses=len(self.accepted),
            reason=reason,
            inconsistent=inconsistent,
            degenerate=degenerate,
        )
        return SolveResult(
            verdict=verdict,
            decided_by=decided_by,
            confidence=confidence,
            commonsense=list(self.accepted),
            iterations=len(self.accepted),
            cot_calls=self.cot,
            trace=self.trace,
            inconsistent=inconsistent,
            degenerate=degenerate,
        )

    def _vote_result(
        self, vote: SolveVote, decided_by: str, reason: str, inconsistent: bool = False
    ) -> SolveResult:
        """The result that ``vote`` decides, carrying its degenerate flag."""
        return self._result(
            vote.answer,
            decided_by,
            float(self._vote_fraction(vote)),
            reason,
            inconsistent=inconsistent,
            degenerate=vote.degenerate,
        )

    def _fallback(self, reason: str, inconsistent: bool = False) -> SolveResult:
        vote = self.last_vote
        if vote is None and self._can_vote():
            try:
                vote = self._vote()
            except BackendExhausted:
                self._emit("backend_error", error="transport exhausted during fallback vote")
                vote = None
        if vote is None:
            return self._result(
                False, DECIDED_BY_FALLBACK, 0.0, reason,
                inconsistent=inconsistent, degenerate=True,
            )
        return self._vote_result(vote, DECIDED_BY_FALLBACK, reason, inconsistent)

    # -- the main loop ---------------------------------------------------------

    def solve(self) -> SolveResult:
        try:
            return self._solve_loop()
        except BackendExhausted as exc:
            self._emit("backend_error", error=str(exc))
            if self.last_vote is None:
                raise BackendError(
                    "backend transport exhausted before any vote completed"
                ) from exc
            return self._vote_result(self.last_vote, DECIDED_BY_FALLBACK, "backend_exhausted")

    def _solve_loop(self) -> SolveResult:
        half = Fraction(1, 2)
        while True:
            gamma = self._gamma()
            if gamma <= 0:
                return self._fallback("gamma_exhausted")
            conclusion, backbone = self.session.decide(assumptions=self.selectors)
            self._emit(
                "sat_solve",
                verdict=conclusion.verdict,
                budget_exceeded=conclusion.budget_exceeded,
                backbone_size=len(backbone) if backbone is not None else None,
                backbone=(
                    sorted(str(l) for l in backbone.literals)
                    if backbone is not None
                    else None
                ),
            )
            if conclusion.verdict == ENTAILS_QUERY:
                return self._result(True, DECIDED_BY_SAT, 1.0, "sat_entails_query")
            if conclusion.verdict == ENTAILS_NOT_QUERY:
                return self._result(False, DECIDED_BY_SAT, 1.0, "sat_entails_negation")
            if conclusion.verdict == INCONSISTENT:
                self.last_vote = None  # the standing vote predates the contradiction
                return self._fallback("inconsistent_premises", inconsistent=True)

            if self.config.use_sc_solver:
                if gamma <= half:
                    # A fresh vote at gamma <= 1/2 is guaranteed to pass (a
                    # binary majority is at least (k//2+1)/k), so the standing
                    # vote already is the self-consistency answer; skipping the
                    # redundant round keeps the stated cost bound exact.
                    if self.last_vote is None and self._can_vote():
                        self._vote()
                    if self.last_vote is not None:
                        return self._vote_result(self.last_vote, DECIDED_BY_SC, "gamma_floor")
                    return self._fallback("gamma_floor_no_vote")
                if self._can_vote():
                    vote = self._vote()
                    if self._vote_fraction(vote) > gamma:
                        return self._vote_result(vote, DECIDED_BY_SC, "vote_above_gamma")
                else:
                    self._emit("vote_skipped", reason="max_cot")

            if backbone is None:
                backbone = Backbone(frozenset())
            clause = self.find_new_commonsense(backbone)
            if clause is None:
                return self._fallback("search_exhausted")
            self.accept(clause)
            self.iteration += 1

    def accept(self, clause: CommonsenseClause) -> None:
        """Add ``clause`` to the accepted set and to the session, behind a new
        selector; a clause naming a new entity regrounds the problem first."""
        self.accepted.append(clause)
        self.decided.add(clause.key())
        self._emit(
            "clause_accepted",
            clause=str(clause),
            commonsense_score=round(clause.commonsense_score, 9),
            relevance_score=round(clause.relevance_score, 9),
            index=len(self.accepted),
        )
        self._emit("gamma_update", gamma=float(self._gamma()))
        new_entities = clause.entities() - self.universe
        if new_entities:
            self.universe |= new_entities
            self._reground()
            self._emit(
                "reground",
                new_entities=sorted(e.name for e in new_entities),
                universe_size=len(self.universe),
            )
        else:
            self.selectors += self.session.add_guarded([clause.to_formula()])

    # -- the clause search -------------------------------------------------------

    def find_new_commonsense(self, backbone: Backbone) -> Optional[CommonsenseClause]:
        """The first candidate clause, scanned from ``backbone``, that passes tau.

        Candidates already accepted or rejected by this engine are skipped,
        and every candidate examined is recorded in the trace.
        """
        config = self.config
        backbone_lits = backbone.literals
        entities_of = {l: l.entities() for l in backbone_lits}
        explicit = self.premise_literals.union(c.consequent for c in self.accepted)
        for antecedent in pair_order(entities_of, explicit):
            targets = generation_targets(
                antecedent, config.generation_style, GENERATION_TARGETS, entities_of
            )
            for target in targets:
                candidates = self.backend.generate(self.context, self.accepted, antecedent, target)
                for cand in candidates:
                    clause = CommonsenseClause(antecedent, cand, 0.0, 0.0)
                    key = clause.key()
                    if key in self.decided:
                        continue
                    reject = self._admissibility(cand, antecedent, backbone_lits)
                    if reject is not None:
                        self.decided.add(key)
                        self._emit(
                            "candidate",
                            antecedent=[str(l) for l in antecedent],
                            consequent=str(cand),
                            status="rejected",
                            reason=reject,
                        )
                        continue
                    cs_score = self.backend.commonsense_score(
                        clause, config.score_style
                    )
                    rel_score = self.backend.relevance_score(self.context, self.accepted, clause)
                    accepted = cs_score > config.tau and rel_score > config.tau
                    self._emit(
                        "candidate",
                        antecedent=[str(l) for l in antecedent],
                        consequent=str(cand),
                        status="accepted" if accepted else "rejected",
                        reason=None if accepted else "below_tau",
                        commonsense_score=round(cs_score, 9),
                        relevance_score=round(rel_score, 9),
                    )
                    if accepted:
                        return replace(
                            clause,
                            commonsense_score=cs_score,
                            relevance_score=rel_score,
                        )
                    self.decided.add(key)
        return None

    @staticmethod
    def _admissibility(
        cand: Literal, antecedent: tuple[Literal, ...], backbone: frozenset[Literal]
    ) -> Optional[str]:
        if not cand.is_ground:
            return "not_ground"
        if cand in backbone:
            return "in_backbone"
        if cand in antecedent:
            return "vacuous"
        if cand.negate() in antecedent:
            return "contradicts_antecedent"
        return None


def solve(problem, config: Optional[EngineConfig] = None, backend: Backend = None) -> SolveResult:
    """Run the full loop on one problem and return the result with its trace."""
    if backend is None:
        raise ValueError("a backend is required")
    return Engine(problem, config or EngineConfig(), backend).solve()
