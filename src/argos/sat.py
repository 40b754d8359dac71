"""Entailment decisions and backbone computation on top of the CDCL kernel.

``SatSession`` is the solver feedback channel of the engine: it keeps one
incremental kernel per grounding, decides the query and its negation against
the premises plus accepted commonsense, and returns the backbone (literals
true in every model) over the problem's own atoms whenever the set is
satisfiable. Formulas can also be asserted behind selector variables and
switched on per decision by assumptions, so one session answers questions
about several subsets of them. ``sat_solve`` runs the same decision once on
a fresh session and serves every one-shot query (baselines, validation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import _satcore
from .cnf import ClauseSet, CnfBuilder
from .errors import SolverBudgetExceeded
from .logic import Entity, Formula, Literal, ground, is_quantifier_free, iter_atoms

DEFAULT_CONFLICT_BUDGET = 10**6

ENTAILS_QUERY = "entails-query"
ENTAILS_NOT_QUERY = "entails-not-query"
UNKNOWN = "unknown"
INCONSISTENT = "inconsistent-premises"


@dataclass(frozen=True)
class Backbone:
    """Literals entailed by a satisfiable clause set, non-auxiliary only."""

    literals: frozenset[Literal]

    def __contains__(self, l: Literal) -> bool:
        return l in self.literals

    def __len__(self) -> int:
        return len(self.literals)


@dataclass
class SatConclusion:
    verdict: str
    budget_exceeded: bool = False


def _load_solver(cs: ClauseSet) -> _satcore.Solver:
    s = _satcore.Solver(cs.num_vars)
    for cl in cs.clauses:
        s.add_clause(cl)
    return s


def compute_backbone(
    cs: ClauseSet,
    conflict_budget: int = DEFAULT_CONFLICT_BUDGET,
    restrict_vars: Optional[set[int]] = None,
    _solver: Optional[_satcore.Solver] = None,
    assumptions: Sequence[int] = (),
    _model: Optional[list[int]] = None,
) -> Backbone:
    """Exactly the literals L with ``cs AND assumptions AND not L`` unsatisfiable.

    Starts from one model: ``_model``, a ``Solver.model`` of ``cs`` under
    ``assumptions`` that the caller has just found, or else one solve. The
    literals that unit propagation sets from the clauses and the assumptions
    are entailed, so they join the backbone without a probe. Every other
    literal stays a candidate only while it has been true in every model
    seen, and each survivor is settled by one assumption-based solve whose
    countermodel prunes the rest. Before each probe the saved phases steer
    the search off every candidate (each gets the complement of its value,
    every other domain variable its value in the first model), so one
    countermodel can refute a candidate in each independent part of the
    formula at once.
    Restricted to non-auxiliary variables (optionally further via
    ``restrict_vars``).
    """
    solver = _solver if _solver is not None else _load_solver(cs)
    assumed = tuple(assumptions)
    if _model is None:
        res = solver.solve(assumed, conflict_budget)
        if res == _satcore.UNKNOWN:
            raise SolverBudgetExceeded(f"conflict budget of {conflict_budget} exceeded")
        if res == _satcore.UNSAT:
            raise ValueError("backbone of an unsatisfiable clause set is undefined")
        _model = solver.model

    domain = sorted(
        v for v in cs.var_map.values()
        if restrict_vars is None or v in restrict_vars
    )
    first = {v: v if _model[v] == 1 else -v for v in domain}
    implied = solver.propagated(assumed) or ()
    backbone = {abs(l): l for l in implied if abs(l) in first}
    candidate = {v: l for v, l in first.items() if v not in backbone}
    for v in domain:
        if v not in candidate:
            continue
        lit = candidate[v]
        solver.set_phases([-l if u in candidate else l for u, l in first.items()])
        res = solver.solve(assumed + (-lit,), conflict_budget)
        if res == _satcore.UNKNOWN:
            raise SolverBudgetExceeded(f"conflict budget of {conflict_budget} exceeded")
        if res == _satcore.UNSAT:
            backbone[v] = lit
            del candidate[v]
        else:
            for u, l in list(candidate.items()):
                if solver.model_value(u) != (l > 0):
                    del candidate[u]
    lits = frozenset(
        Literal(cs.atom_of(v), backbone[v] > 0) for v in domain if v in backbone
    )
    return Backbone(lits)


class SatSession:
    """Incremental entailment and backbone checks over a growing formula set.

    Formulas only accumulate, so learned clauses stay sound across calls and
    the premise encoding is paid once per problem rather than per iteration.
    Quantified formulas range over ``universe``; each universally quantified
    clause goes straight from its literal template into clauses.
    Query atoms that never occur in the asserted formulas are kept out of
    the backbone domain; so are selectors, which are auxiliary variables.
    """

    def __init__(
        self,
        premises: Iterable[Formula] = (),
        query: Optional[Formula] = None,
        conflict_budget: int = DEFAULT_CONFLICT_BUDGET,
        universe: Iterable[Entity] = (),
    ):
        self.builder = CnfBuilder()
        self.members = sorted(set(universe), key=lambda e: e.name)
        self.solver = _satcore.Solver()
        self.conflict_budget = conflict_budget
        self._loaded = 0
        self._query_lit: Optional[int] = None
        self._query_only: set[int] = set()
        self.add_formulas(premises)
        if query is not None:
            self.set_query(query)

    def add_formulas(self, formulas: Iterable[Formula], guard: Optional[int] = None) -> None:
        for f in formulas:
            self.builder.assert_formula(f, guard, self.members)
            if self._query_only:
                instances = f if is_quantifier_free(f) else ground(f, self.members)
                for atom in iter_atoms(instances):
                    self._query_only.discard(self.builder.cs.var_map.get(atom, 0))

    def add_guarded(self, formulas: Iterable[Formula]) -> list[int]:
        """Assert each formula behind a fresh selector; return the selectors.

        A formula holds in a decision only when its selector is among the
        decision's assumptions; left out, it constrains nothing.
        """
        selectors = []
        for f in formulas:
            selector = self.builder.new_aux()
            self.add_formulas([f], guard=selector)
            selectors.append(selector)
        return selectors

    def set_query(self, query: Formula) -> None:
        before = set(self.builder.cs.var_map.values())
        self._query_lit = self.builder.encode(query)
        self._query_only = set(self.builder.cs.var_map.values()) - before

    def clause_set(self) -> ClauseSet:
        """Every clause asserted so far, all of them loaded into the solver."""
        cs = self.builder.cs
        self.solver.ensure_vars(cs.num_vars)
        while self._loaded < len(cs.clauses):
            self.solver.add_clause(cs.clauses[self._loaded])
            self._loaded += 1
        return cs

    def _problem_vars(self) -> set[int]:
        return set(self.builder.cs.var_map.values()) - self._query_only

    def decide(
        self, with_backbone: bool = True, assumptions: Sequence[int] = ()
    ) -> tuple[SatConclusion, Optional[Backbone]]:
        """Check the verdict and (when satisfiable) compute the backbone, with
        every solve, backbone probes included, under ``assumptions``.

        The backbone starts from the last model a verdict solve found: each
        of them is a model under ``assumptions``, so it needs no solve of its
        own."""
        cs = self.clause_set()
        budget = self.conflict_budget
        assumed = tuple(assumptions)
        base = self.solver.solve(assumed, budget)
        if base == _satcore.UNKNOWN:
            return SatConclusion(UNKNOWN, budget_exceeded=True), None
        if base == _satcore.UNSAT:
            return SatConclusion(INCONSISTENT), None
        model = self.solver.model
        verdict = UNKNOWN
        qlit = self._query_lit
        if qlit is not None:
            not_q = self.solver.solve(assumed + (-qlit,), budget)
            if not_q == _satcore.UNKNOWN:
                return SatConclusion(UNKNOWN, budget_exceeded=True), None
            if not_q == _satcore.UNSAT:
                verdict = ENTAILS_QUERY
            else:
                model = self.solver.model
                with_q = self.solver.solve(assumed + (qlit,), budget)
                if with_q == _satcore.UNKNOWN:
                    return SatConclusion(UNKNOWN, budget_exceeded=True), None
                if with_q == _satcore.UNSAT:
                    verdict = ENTAILS_NOT_QUERY
                else:
                    model = self.solver.model
        if not with_backbone:
            return SatConclusion(verdict), None
        try:
            backbone = compute_backbone(
                cs,
                budget,
                restrict_vars=self._problem_vars(),
                _solver=self.solver,
                assumptions=assumed,
                _model=model,
            )
        except SolverBudgetExceeded:
            return SatConclusion(UNKNOWN, budget_exceeded=True), None
        return SatConclusion(verdict), backbone


def sat_solve(
    premises: Sequence[Formula],
    query: Optional[Formula] = None,
    conflict_budget: int = DEFAULT_CONFLICT_BUDGET,
    with_backbone: bool = True,
    universe: Iterable[Entity] = (),
) -> tuple[SatConclusion, Optional[Backbone]]:
    """Decide the query against the premises, quantified over ``universe``,
    with backbone.

    Verdicts: entails-query iff adding the negated query is unsatisfiable,
    entails-not-query iff adding the query is, inconsistent-premises iff the
    set itself is unsatisfiable, else unknown. The backbone is computed over
    the atoms of the premises (query-only atoms excluded) whenever the set
    is satisfiable. A blown conflict budget degrades to an unknown verdict
    with no backbone rather than raising.
    """
    session = SatSession(premises, query, conflict_budget, universe)
    return session.decide(with_backbone=with_backbone)
