"""Entailment decisions and backbone computation on top of the CDCL kernel.

``SatSession`` is the solver feedback channel of the engine: it keeps one
incremental kernel per grounding, decides the query and its negation against
the premises plus accepted commonsense, and returns the backbone (literals
true in every model) over every atom whenever the set is satisfiable.
Formulas can also be asserted behind selector variables and switched on per
decision by assumptions, so one session answers questions about several
subsets of them. ``SatSession.decide`` is the one way to run a query: a
one-shot check (baselines, validation) is a decide on a fresh session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import _satcore
from .cnf import ClauseSet, CnfBuilder
from .errors import SolverBudgetExceeded
from .logic import Entity, Formula, Literal

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


def _satisfiable(
    solver: _satcore.Solver, assumptions: tuple, conflict_budget: int, prefer: Sequence[int] = ()
) -> bool:
    res = solver.solve(assumptions, conflict_budget, prefer)
    if res == _satcore.UNKNOWN:
        raise SolverBudgetExceeded(f"conflict budget of {conflict_budget} exceeded")
    return res == _satcore.SAT


def compute_backbone(
    solver: _satcore.Solver,
    cs: ClauseSet,
    model: list[int],
    assumptions: Sequence[int] = (),
    conflict_budget: int = DEFAULT_CONFLICT_BUDGET,
) -> Backbone:
    """Exactly the atom literals L with ``cs AND assumptions AND not L``
    unsatisfiable; one step of :meth:`SatSession.decide`.

    ``solver`` holds every clause of ``cs`` and ``model`` is a
    ``Solver.model`` of them under ``assumptions``. The domain is every atom
    variable, never an auxiliary one. An atom that only the query names is
    never entailed: the query's definitional clauses admit every value of
    it. The literals that unit propagation sets from the clauses and
    the assumptions are entailed, so they join the backbone without a probe.
    Every other literal stays a candidate only while it has been true in
    every model seen, and each survivor is settled by one assumption-based
    solve whose countermodel prunes the rest. Before each probe the saved
    phases steer the search off every candidate (each gets the complement of
    its value, every other domain variable its value in the first model), so
    one countermodel can refute a candidate in each independent part of the
    formula at once. The probe decides the open candidates first, in domain
    order, once the variables that conflicts have bumped are assigned, so a
    probe's work follows its candidates, not every atom: the phases come
    from one snapshot taken here (an auxiliary variable keeps the phase it
    had then), and the candidates are filtered against each countermodel in
    one pass. Raises ``SolverBudgetExceeded`` when a
    probe exceeds ``conflict_budget``.
    """
    assumed = tuple(assumptions)
    atoms = {v: a for a, v in cs.var_map.items()}
    domain = sorted(atoms)
    first = {v: v if model[v] == 1 else -v for v in domain}
    implied = solver.propagated(assumed) or ()
    backbone = {abs(l): l for l in implied if abs(l) in first}
    candidate = {v: l for v, l in first.items() if v not in backbone}
    solver.set_phases(first.values())
    phases = solver.phase[:]
    for v in domain:
        if v not in candidate:
            continue
        lit = candidate[v]
        solver.restore_phases(phases)
        solver.set_phases([-l for l in candidate.values()])
        if not _satisfiable(solver, assumed + (-lit,), conflict_budget, list(candidate)):
            backbone[v] = lit
            del candidate[v]
        else:
            values = solver.model
            candidate = {u: l for u, l in candidate.items() if (values[u] == 1) == (l > 0)}
    return Backbone(
        frozenset(Literal(atoms[v], backbone[v] > 0) for v in domain if v in backbone)
    )


class SatSession:
    """Incremental entailment and backbone checks over a growing formula set.

    Formulas only accumulate, so learned clauses stay sound across calls and
    the premise encoding is paid once per problem rather than per iteration.
    Quantified formulas range over ``universe``; each universally quantified
    clause goes straight from its literal template into clauses.
    """

    def __init__(
        self,
        premises: Iterable[Formula] = (),
        query: Optional[Formula] = None,
        conflict_budget: int = DEFAULT_CONFLICT_BUDGET,
        universe: Iterable[Entity] = (),
    ):
        self.builder = CnfBuilder(universe)
        self.solver = _satcore.Solver()
        self.conflict_budget = conflict_budget
        self._loaded = 0
        self._query_lit: Optional[int] = None
        self.add_formulas(premises)
        if query is not None:
            self.set_query(query)

    def add_formulas(self, formulas: Iterable[Formula], guard: Optional[int] = None) -> None:
        for f in formulas:
            self.builder.assert_formula(f, guard)

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
        self._query_lit = self.builder.encode(query)

    def clause_set(self) -> ClauseSet:
        """Every clause asserted so far, all of them loaded into the solver."""
        cs = self.builder.cs
        self.solver.ensure_vars(cs.num_vars)
        self.solver.add_clauses(cs.clauses[self._loaded :])
        self._loaded = len(cs.clauses)
        return cs

    def decide(
        self, with_backbone: bool = True, assumptions: Sequence[int] = ()
    ) -> tuple[SatConclusion, Optional[Backbone]]:
        """Decide the query and, when asked, compute the backbone, with every
        solve, backbone probes included, under ``assumptions``.

        Verdicts: entails-query iff adding the negated query is
        unsatisfiable, entails-not-query iff adding the query is,
        inconsistent-premises iff the formulas are, else unknown. The
        consistency solve's model already shows one side satisfiable: the
        query where it holds there, its negation where it does not. So one
        query solve settles the verdict, the one of the other side; a
        consistent decide with a query makes two verdict solves, not three.
        The backbone starts from the last model a verdict solve found, so it
        needs no solve of its own. A blown conflict budget degrades to an
        unknown verdict with no backbone rather than raising.
        """
        cs = self.clause_set()
        solver, budget = self.solver, self.conflict_budget
        assumed = tuple(assumptions)
        qlit = self._query_lit
        backbone = None
        try:
            if not _satisfiable(solver, assumed, budget):
                return SatConclusion(INCONSISTENT), None
            model = solver.model
            verdict = UNKNOWN
            if qlit is not None:
                holds = solver.model_value(abs(qlit)) == (qlit > 0)
                other = -qlit if holds else qlit
                if not _satisfiable(solver, assumed + (other,), budget):
                    verdict = ENTAILS_QUERY if holds else ENTAILS_NOT_QUERY
                else:
                    model = solver.model
            if with_backbone:
                # a module-global lookup, so wrapping sat.compute_backbone reaches it
                backbone = compute_backbone(solver, cs, model, assumed, budget)
        except SolverBudgetExceeded:
            return SatConclusion(UNKNOWN, budget_exceeded=True), None
        return SatConclusion(verdict), backbone
