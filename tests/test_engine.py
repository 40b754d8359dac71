import dataclasses
import inspect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argos import engine as engine_mod
from argos.backends import (
    Backend,
    CotSample,
    OracleBackend,
    OracleKB,
)
from argos.corpus import Problem, load_problem_file
from argos.engine import (
    Engine,
    EngineConfig,
    entity_scores,
    generation_targets,
    pair_order,
    solve,
    trace_jsonl,
)
from argos.errors import BackendError, BackendExhausted, ConfigError
from argos.kinship import RELATIONS, generate_kinship
from argos.logic import Atom, Entity, Literal, lit, make_atom
from argos.parser import parse_formula, parse_literal
from argos.sat import Backbone, SatSession

from _oracles import reference_generation_targets, reference_pair_order


class StubBackend(Backend):
    """Scriptable backend: fixed votes, a candidate table, constant scores."""

    def __init__(
        self,
        answer=True,
        fraction=1.0,
        candidates=None,
        commonsense=1.0,
        relevance=1.0,
        fail_after_votes=None,
    ):
        self.answer = answer
        self.fraction = fraction
        self.candidates = candidates or {}
        self.commonsense = commonsense
        self.relevance = relevance
        self.fail_after_votes = fail_after_votes
        self.votes_issued = 0

    def _cot_samples(self, context, commonsense, query, k):
        if self.fail_after_votes is not None and self.votes_issued >= self.fail_after_votes:
            raise BackendExhausted("scripted failure")
        self.votes_issued += 1
        n_yes = round(self.fraction * k)
        samples = [CotSample(self.answer, 0.9, str(self.answer))] * n_yes
        samples += [CotSample(not self.answer, 0.4, str(not self.answer))] * (k - n_yes)
        return samples

    def generate(self, context, commonsense, antecedent, target):
        return list(self.candidates.get(frozenset(antecedent), []))

    def commonsense_score(self, clause, style="contradiction"):
        return self.commonsense

    def relevance_score(self, context, commonsense, clause):
        return self.relevance


def make_problem(premises, query, pid="t"):
    sig = {}
    return Problem(
        id=pid,
        entities=set(),
        premises=[parse_formula(t, signature=sig) for t in premises],
        query=parse_formula(query, signature=sig),
    )


FOX_RULES = [
    "turns_white(fox, winter) -> reflects(fox, sun)",
    "reflects(fox, sun) -> ~absorbs(fox, sun)",
    "~absorbs(fox, sun) & turns_white(fox, winter) -> ~absorbs(white, sun)",
]


def fox_problem():
    return load_problem_file("fixtures/winter_fox/problem.json")


def fox_backend():
    sig = {}
    kb = OracleKB.from_formulas([parse_formula(t, signature=sig) for t in FOX_RULES])
    return OracleBackend(kb)


# --- scoring and ordering ----------------------------------------------------


def _entities_of(*lits):
    return {l: l.entities() for l in lits}


def test_entity_scores_counts_shared_entities():
    f_a, g_a, h_b = lit("F", Entity("A")), lit("G", Entity("A")), lit("H", Entity("B"))
    scores = entity_scores(_entities_of(f_a, g_a, h_b))
    assert scores[f_a] == 2
    assert scores[h_b] == 1


def test_entity_scores_singleton_and_zero_ary():
    f_a = lit("F", Entity("A"))
    assert entity_scores(_entities_of(f_a))[f_a] == 1
    zero = lit("Z")
    assert entity_scores(_entities_of(zero, f_a))[zero] == 0


_ENTITIES = [Entity(name) for name in "abcd"]


@st.composite
def _literal(draw):
    arity = draw(st.integers(0, 3))
    name = draw(st.sampled_from(["p", "q"])) + str(arity)
    args = draw(st.lists(st.sampled_from(_ENTITIES), min_size=arity, max_size=arity))
    return Literal(make_atom(name, *args), draw(st.booleans()))


@st.composite
def _backbone_and_explicit(draw):
    # Four entities and two names per arity make repeated entities such as
    # p2(a, a), shared entities and both signs of one atom common.
    backbone = draw(st.frozensets(_literal(), max_size=24))
    members = sorted(backbone, key=str)
    explicit = draw(st.frozensets(st.sampled_from(members))) if members else frozenset()
    return backbone, explicit


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_backbone_and_explicit())
def test_pair_order_matches_pairwise_scoring(drawn):
    backbone, explicit = drawn
    order = list(pair_order(_entities_of(*backbone), explicit))
    assert order == reference_pair_order(backbone, explicit)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_backbone_and_explicit())
def test_explicit_first_order_permutes_the_score_order(drawn):
    backbone, explicit = drawn
    entities_of = _entities_of(*backbone)
    order = list(pair_order(entities_of, explicit))
    by_score = list(pair_order(entities_of, ()))
    assert len(order) == len(by_score) == len(backbone) ** 2 + 1
    assert set(order) == set(by_score)
    assert order[-1] == by_score[-1] == ()


def test_pair_order_puts_explicit_literals_first():
    # the derived literals share entities with more literals than the explicit one
    stated = lit("F", Entity("A"))
    derived = [lit("G", Entity("B")), lit("H", Entity("B")), lit("J", Entity("B"))]
    order = list(pair_order(_entities_of(stated, *derived), {stated}))
    assert order[0] == (stated,)
    assert order[1:4] == [(stated, d) for d in derived]
    assert list(pair_order(_entities_of(stated, *derived), ()))[0] == (derived[0],)


def test_pair_order_is_lazy():
    f_a, g_a = lit("F", Entity("A")), lit("G", Entity("A"))
    order = pair_order(_entities_of(f_a, g_a), ())
    assert inspect.isgenerator(order)  # not a built list of all n*n + 1
    assert next(order) == (f_a,)
    assert next(order) == (f_a, g_a)


def test_pair_order_matches_pairwise_scoring_on_kinship_backbones(monkeypatch):
    seen = []
    real = engine_mod.pair_order

    def recording(entities_of, explicit):
        seen.append((dict(entities_of), frozenset(explicit)))
        return real(entities_of, explicit)

    monkeypatch.setattr(engine_mod, "pair_order", recording)
    problems, kb = generate_kinship(18, 4, seed=404)
    backend = OracleBackend(dataclasses.replace(kb, reasoning_depth=0, seed=404))
    for problem in problems[:3]:
        Engine(problem, EngineConfig(use_sc_solver=False), backend).solve()
    assert seen and max(len(entities_of) for entities_of, _ in seen) > 50
    for entities_of, explicit in seen:
        # the backbone holds both explicit and derived literals
        assert 0 < len(explicit & entities_of.keys()) < len(entities_of)
        assert list(real(entities_of, explicit)) == reference_pair_order(
            list(entities_of), explicit
        )


def test_clause_search_cost_on_the_kinship_suite():
    # The abduce settings on the 18-problem suite. Scanning derived literals
    # (mostly disjointness negatives) first made 20,602 generate calls here.
    problems, kb = generate_kinship(18, 4, seed=404)
    kb = dataclasses.replace(kb, reasoning_depth=0, seed=404)
    calls = []

    class Counting(OracleBackend):
        def generate(self, context, commonsense, antecedent, target):
            calls.append(antecedent)
            return super().generate(context, commonsense, antecedent, target)

    backend = Counting(kb)
    config = EngineConfig(
        tau=0.3, seed=404, generation_style="entity_pair", score_style="truth"
    )
    accepted = sum(len(Engine(p, config, backend).solve().commonsense) for p in problems)
    assert accepted == 44
    assert len(calls) <= 4_000


def test_pair_order_takes_each_literals_entities_once(monkeypatch):
    people = [Entity(f"person{i}") for i in range(5)]
    backbone = {
        Literal(make_atom(name, a, b), positive)
        for name in sorted(RELATIONS)
        for a, b in itertools.permutations(people, 2)
        for positive in (True, False)
    }
    assert len(backbone) >= 300
    # the first antecedent's first generate call yields a clause that passes
    new = lit("newrel", people[0], people[1])

    class AlwaysNew(StubBackend):
        def generate(self, context, commonsense, antecedent, target):
            return [new]

    engine = Engine(
        make_problem(["father(person0, person1)"], "mother(person1, person2)"),
        EngineConfig(),
        AlwaysNew(),
    )
    calls = []
    real = Atom.entities

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Atom, "entities", counting)
    clause = engine.find_new_commonsense(Backbone(frozenset(backbone)))
    assert clause is not None and clause.consequent == new
    assert len(calls) == len(backbone)


def test_pair_order_first_and_last():
    f_a = lit("F", Entity("A"))
    g_a = lit("G", Entity("A"))
    h_b = lit("H", Entity("B"))
    order = list(pair_order(_entities_of(f_a, g_a, h_b), ()))
    assert order[0] == (f_a,)
    assert order[-1] == ()
    assert len(order) == 9 + 1


def test_pair_order_tie_broken_by_text():
    a, b = lit("beta", Entity("X")), lit("alpha", Entity("Y"))
    order = list(pair_order(_entities_of(a, b), ()))
    assert order[0] == (b,)  # equal scores: alphabetical text first


def test_pair_order_empty_backbone():
    assert list(pair_order({}, ())) == [()]


def test_generation_targets_entity_style():
    l1 = parse_literal("drinksCoffee(Rina)")
    l2 = parse_literal("Loves(Mary, Sam)")
    targets = generation_targets((l1, l2), "entity", 3, _entities_of(l1, l2))
    assert [e.name for e in targets] == ["Mary", "Rina", "Sam"]
    assert generation_targets((), "entity", 3, {}) == [None]


def test_generation_targets_pair_style_outer_endpoints_first():
    l1 = parse_literal("mom(Zoe, Amy)")
    l2 = parse_literal("sister(Amy, Cat)")
    targets = generation_targets((l1, l2), "entity_pair", 3, _entities_of(l1, l2))
    # the shared middle entity Amy is skipped in the primary pairs
    assert targets[0] == (Entity("Cat"), Entity("Zoe")) or targets[0] == (
        Entity("Zoe"),
        Entity("Cat"),
    )
    assert set(targets[:2]) == {
        (Entity("Zoe"), Entity("Cat")),
        (Entity("Cat"), Entity("Zoe")),
    }
    single = generation_targets((l1,), "entity_pair", 3, _entities_of(l1))
    assert (Entity("Amy"), Entity("Zoe")) in single


def test_generation_targets_match_the_full_sort():
    # Antecedents of up to two literals over 0-, 1- and 2-ary predicates and
    # up to five entities, every cap up to past the number of pairs.
    rng = random.Random(23)
    people = [Entity(n) for n in ("Ann", "Bob", "Cy", "Dee", "Eve")]
    shapes = [("p", 0), ("q", 1), ("r", 2), ("s", 2)]

    def literal():
        name, arity = rng.choice(shapes)
        return lit(name, *(rng.choice(people) for _ in range(arity)), positive=rng.random() < 0.6)

    for _ in range(400):
        pair = tuple(literal() for _ in range(rng.randint(0, 2)))
        if len(pair) == 2 and rng.random() < 0.2:
            pair = (pair[0], pair[0])
        antecedent = tuple(dict.fromkeys(pair))
        for style in ("entity", "entity_pair"):
            for cap in range(1, 22):
                want = reference_generation_targets(antecedent, style, cap)
                got = generation_targets(antecedent, style, cap, _entities_of(*antecedent))
                assert got == want


@pytest.mark.parametrize(
    "make, field, value",
    [
        (EngineConfig, "k", 0),
        (EngineConfig, "gamma0", 1.5),
        (EngineConfig, "tau", "0.3"),
        (EngineConfig, "max_cot", -1),
        (EngineConfig, "seed", "x"),
        (EngineConfig, "use_sc_solver", "yes"),
        (EngineConfig, "generation_style", "bogus"),
        (EngineConfig, "score_style", "bogus"),
        (lambda **kw: dataclasses.replace(EngineConfig(), **kw), "alpha", True),
        (lambda **kw: OracleKB((), **kw), "reasoning_depth", -3),
        (lambda **kw: OracleKB((), **kw), "noise", 1.0),
        (lambda **kw: dataclasses.replace(OracleKB(()), **kw), "seed", 7.0),
    ],
)
def test_bad_config_field_raises_a_config_error_that_is_a_value_error(make, field, value):
    with pytest.raises(ConfigError, match=f"field {field!r}: expected .*, got {value!r}") as info:
        make(**{field: value})
    assert isinstance(info.value, ValueError)


# --- the loop: short circuits ---------------------------------------------------


def test_sat_short_circuit_costs_nothing():
    problem = make_problem(["A", "A -> B"], "B")
    result = solve(problem, EngineConfig(), StubBackend())
    assert result.verdict is True
    assert result.decided_by == "sat"
    assert result.confidence == 1.0
    assert result.cot_calls == 0
    assert result.iterations == 0
    assert result.commonsense == []


def test_sat_decides_negation():
    problem = make_problem(["~B", "A -> B"], "A")
    result = solve(problem, EngineConfig(), StubBackend())
    assert result.verdict is False
    assert result.decided_by == "sat"


def test_inconsistent_premises_route_to_fallback_vote():
    problem = make_problem(["A", "~A"], "B")
    result = solve(problem, EngineConfig(), StubBackend(answer=True, fraction=0.8))
    assert result.inconsistent
    assert result.decided_by == "fallback"
    assert result.verdict is True
    assert result.cot_calls == 5


def test_sc_path_after_one_acceptance():
    # undecidable symbolically, but the backend votes unanimously: the second
    # pass compares 1.0 against gamma = 0.9 and concludes by self-consistency
    problem = make_problem(["A"], "Q")
    a = parse_literal("A")
    backend = StubBackend(
        answer=True,
        fraction=1.0,
        candidates={frozenset([a]): [parse_literal("B")]},
    )
    result = solve(problem, EngineConfig(), backend)
    assert result.decided_by == "self-consistency"
    assert result.verdict is True
    assert result.iterations == 1
    assert result.cot_calls == 10
    assert result.confidence == 1.0


def test_gamma_never_exceeded_by_vote_at_gamma0_one():
    # a unanimous first vote cannot strictly exceed gamma0 = 1.0
    problem = make_problem(["A"], "Q")
    backend = StubBackend(answer=True, fraction=1.0)
    result = solve(problem, EngineConfig(), backend)
    # no candidates: search fails immediately, falls back to the vote
    assert result.decided_by == "fallback"
    assert result.verdict is True
    assert result.cot_calls == 5


def test_search_exhausted_returns_best_guess():
    problem = make_problem(["A"], "Q")
    backend = StubBackend(answer=False, fraction=0.6)
    result = solve(problem, EngineConfig(), backend)
    assert result.decided_by == "fallback"
    assert result.verdict is False
    assert result.confidence == pytest.approx(0.6)


def test_max_cot_zero_is_degenerate_fallback():
    problem = make_problem(["A"], "Q")
    backend = StubBackend()
    result = solve(problem, EngineConfig(max_cot=0), backend)
    assert result.decided_by == "fallback"
    assert result.degenerate
    assert result.verdict is False
    assert result.cot_calls == 0
    assert backend.votes_issued == 0


def test_cot_bound_holds_when_search_never_ends():
    # an endless supply of fresh scored clauses: gamma anneals to zero and
    # votes only happen while gamma stays above the one-half floor
    problem = make_problem(["A"], "Q")
    a = parse_literal("A")
    counter = [0]

    class EndlessBackend(StubBackend):
        def generate(self, context, commonsense, antecedent, target):
            counter[0] += 1
            return [parse_literal(f"fresh_{counter[0]}(E)")]

    backend = EndlessBackend(answer=True, fraction=0.6)
    config = EngineConfig()
    result = solve(problem, config, backend)
    assert result.decided_by == "self-consistency"  # 0.6 > gamma once gamma <= 0.5
    assert result.iterations == 5
    assert result.cot_calls <= config.k * (config.gamma0 - 0.5) / config.alpha
    assert result.cot_calls == 25


def test_gamma_exhausts_when_votes_never_pass():
    # self-consistency disabled: acceptance keeps annealing gamma to zero
    problem = make_problem(["A"], "Q")
    counter = [0]

    class EndlessBackend(StubBackend):
        def generate(self, context, commonsense, antecedent, target):
            counter[0] += 1
            return [parse_literal(f"fresh_{counter[0]}(E)")]

    backend = EndlessBackend()
    result = solve(problem, EngineConfig(use_sc_solver=False), backend)
    assert result.decided_by == "fallback"
    assert result.degenerate
    assert result.iterations == 10  # ceil(gamma0 / alpha)
    assert result.cot_calls == 0


# --- the search -------------------------------------------------------------------


def test_find_new_commonsense_first_passing_candidate():
    problem = make_problem(["A"], "Q")
    a = parse_literal("A")
    backend = StubBackend(candidates={frozenset([a]): [parse_literal("B")]})
    _, backbone = SatSession(problem.premises, problem.query).decide()
    engine = Engine(problem, EngineConfig(tau=0.3), backend)
    clause = engine.find_new_commonsense(backbone)
    assert clause is not None
    assert str(clause) == "A -> B"
    assert clause.commonsense_score == 1.0


def test_find_new_commonsense_rejects_below_tau():
    problem = make_problem(["A"], "Q")
    a = parse_literal("A")
    backend = StubBackend(
        candidates={frozenset([a]): [parse_literal("B")]},
        commonsense=0.9,
        relevance=0.2,
    )
    _, backbone = SatSession(problem.premises, problem.query).decide()
    engine = Engine(problem, EngineConfig(tau=0.3), backend)
    assert engine.find_new_commonsense(backbone) is None


def test_find_new_commonsense_empty_backbone_no_candidates():
    problem = make_problem(["A | B"], "Q")
    backend = StubBackend()
    _, backbone = SatSession(problem.premises, problem.query).decide()
    assert len(backbone) == 0
    engine = Engine(problem, EngineConfig(tau=0.3), backend)
    assert engine.find_new_commonsense(backbone) is None


def test_admissibility_rejections():
    problem = make_problem(["A", "B"], "Q")
    a, b = parse_literal("A"), parse_literal("B")
    backend = StubBackend(
        candidates={
            frozenset([a]): [a, a.negate(), b],  # vacuous, contradictory, in backbone
        }
    )
    _, backbone = SatSession(problem.premises, problem.query).decide()
    engine = Engine(problem, EngineConfig(tau=0.3), backend)
    assert engine.find_new_commonsense(backbone) is None


def test_no_duplicate_clauses_accepted():
    problem = make_problem(["A"], "Q")
    a = parse_literal("A")
    backend = StubBackend(candidates={frozenset([a]): [parse_literal("B")]})
    result = solve(problem, EngineConfig(use_sc_solver=False), backend)
    keys = [c.key() for c in result.commonsense]
    assert len(keys) == len(set(keys))
    assert result.iterations == 1  # B enters the backbone; the repeat is inadmissible


# --- winter fox golden dynamics -----------------------------------------------------


def test_winter_fox_three_clauses_in_order():
    result = solve(fox_problem(), EngineConfig(use_sc_solver=False), fox_backend())
    assert result.verdict is False
    assert result.decided_by == "sat"
    assert [str(c) for c in result.commonsense] == [
        "turns_white(fox, winter) -> reflects(fox, sun)",
        "reflects(fox, sun) -> ~absorbs(fox, sun)",
        "turns_white(fox, winter) & ~absorbs(fox, sun) -> ~absorbs(white, sun)",
    ]
    assert result.cot_calls == 0


def test_winter_fox_antecedents_were_in_backbone():
    result = solve(fox_problem(), EngineConfig(use_sc_solver=False), fox_backend())
    backbones = [
        set(e["backbone"]) for e in result.trace if e["event"] == "sat_solve"
    ]
    for i, clause in enumerate(result.commonsense):
        for l in clause.antecedent:
            assert str(l) in backbones[i]


def test_growth_guarantee_consequent_enters_backbone():
    result = solve(fox_problem(), EngineConfig(use_sc_solver=False), fox_backend())
    backbones = [
        set(e["backbone"]) for e in result.trace if e["event"] == "sat_solve"
    ]
    for i, clause in enumerate(result.commonsense[:-1]):
        assert str(clause.consequent) in backbones[i + 1]


def test_sat_path_reproducible_without_backend():
    result = solve(fox_problem(), EngineConfig(use_sc_solver=False), fox_backend())
    problem = fox_problem()
    conclusion, _ = SatSession(
        problem.premises + [c.to_formula() for c in result.commonsense], problem.query
    ).decide()
    assert conclusion.verdict == "entails-not-query"


def test_determinism_identical_runs():
    r1 = solve(fox_problem(), EngineConfig(use_sc_solver=False), fox_backend())
    r2 = solve(fox_problem(), EngineConfig(use_sc_solver=False), fox_backend())
    assert r1.trace == r2.trace
    assert trace_jsonl(r1.trace) == trace_jsonl(r2.trace)
    assert [str(c) for c in r1.commonsense] == [str(c) for c in r2.commonsense]


# --- backend failure handling ----------------------------------------------------


def test_exhaustion_after_vote_falls_back():
    problem = make_problem(["A"], "Q")
    a = parse_literal("A")
    backend = StubBackend(
        answer=True,
        fraction=0.6,
        candidates={frozenset([a]): [parse_literal("B")]},
        fail_after_votes=1,
    )
    result = solve(problem, EngineConfig(), backend)
    assert result.decided_by == "fallback"
    assert result.verdict is True
    assert any(e["event"] == "backend_error" for e in result.trace)


class _AbstainingBackend(StubBackend):
    """Every sample abstains; generation fails at the transport."""

    def _cot_samples(self, context, commonsense, query, k):
        self.votes_issued += 1
        return [CotSample(None, 0.0, "no answer")] * k

    def generate(self, context, commonsense, antecedent, target):
        raise BackendExhausted("scripted failure")


def test_exhaustion_after_a_degenerate_vote_keeps_the_flag():
    problem = make_problem(["A"], "Q")
    result = solve(problem, EngineConfig(), _AbstainingBackend())
    assert result.decided_by == "fallback"
    assert result.degenerate
    assert result.verdict is False
    (vote,) = [e for e in result.trace if e["event"] == "vote"]
    final = result.trace[-1]
    assert vote["degenerate"] is True
    assert final["event"] == "result"
    assert final["reason"] == "backend_exhausted"
    assert final["degenerate"] is True


def test_exhaustion_before_any_vote_raises():
    problem = make_problem(["A"], "Q")
    backend = StubBackend(fail_after_votes=0)
    with pytest.raises(BackendError):
        solve(problem, EngineConfig(), backend)


# --- incremental re-grounding ------------------------------------------------------


def test_new_entities_trigger_regrounding():
    sig = {}
    problem = Problem(
        id="rg",
        entities={Entity("A")},
        premises=[
            parse_formula("F(A)", signature=sig),
            parse_formula("forall x (G(x) -> H(x))", signature=sig),
        ],
        query=parse_formula("exists y (H(y))", signature=sig),
    )
    f_a = parse_literal("F(A)")
    backend = StubBackend(
        candidates={frozenset([f_a]): [parse_literal("G(NewGuy)")]}
    )
    result = solve(problem, EngineConfig(use_sc_solver=False), backend)
    assert result.verdict is True
    assert result.decided_by == "sat"
    assert any(e["event"] == "reground" for e in result.trace)
    reground = next(e for e in result.trace if e["event"] == "reground")
    assert reground["new_entities"] == ["NewGuy"]
