import dataclasses
import heapq
import itertools
import json
import math
import random
import re
import types
from pathlib import Path

import pytest

import argos.backends as backends_module
from argos.backends import (
    CONTRADICTION_STYLE,
    TRUTH_STYLE,
    Context,
    CotSample,
    OracleBackend,
    OracleKB,
    WireBackend,
    assemble_vote,
    extract_answer,
)
from argos.corpus import Problem, load_problem_file
from argos.engine import CommonsenseClause
from argos.errors import ArgosError, BackendError, BackendExhausted, CorpusError
from argos.kinship import generate_kinship, kinship_kb
from argos.logic import Atom, Entity, HornRule, Literal, Predicate, Var, formula_to_literal
from argos.logic import lit_to_formula
from argos.parser import parse_formula, parse_literal

from _oracles import naive_chain, reference_kb_decision, reference_matching_consequents

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _clause(antecedent, consequent):
    return CommonsenseClause(tuple(antecedent), consequent, 0.0, 0.0)


def _kb(rule_texts, **kwargs):
    sig = {}
    return OracleKB.from_formulas(
        [parse_formula(t, signature=sig) for t in rule_texts], **kwargs
    )


FOX_RULES = [
    "turns_white(fox, winter) -> reflects(fox, sun)",
    "reflects(fox, sun) -> ~absorbs(fox, sun)",
    "~absorbs(fox, sun) & turns_white(fox, winter) -> ~absorbs(white, sun)",
]


# --- vote assembly -----------------------------------------------------------


def test_extract_answer_last_token_wins():
    assert extract_answer("I think True. No wait: false") is False
    assert extract_answer("TRUE") is True
    assert extract_answer("maybe") is None
    assert extract_answer("untrue falsehood") is None  # word boundaries only


def test_vote_arithmetic_worked_example():
    samples = [
        CotSample(True, 0.9, "True"),
        CotSample(True, 0.8, "True"),
        CotSample(False, 0.7, "False"),
        CotSample(True, 0.6, "True"),
        CotSample(False, 0.5, "False"),
    ]
    vote = assemble_vote(samples, 5)
    assert vote.answer is True
    assert vote.vote_fraction == pytest.approx(0.6)
    assert vote.weighted_confidence == pytest.approx((0.9 + 0.8 + 0.6) / 5)


def test_vote_all_abstain_is_degenerate_false():
    samples = [CotSample(None, 0.0, "no idea")] * 5
    vote = assemble_vote(samples, 5)
    assert vote.answer is False
    assert vote.vote_fraction == 0.0
    assert vote.degenerate


def test_vote_fraction_times_k_integral_and_weighted_below():
    rng = random.Random(11)
    for _ in range(100):
        k = rng.choice([1, 3, 5, 7])
        samples = [
            CotSample(
                rng.choice([True, False, None]),
                rng.random(),
                "",
            )
            for _ in range(k)
        ]
        samples = [
            dataclasses.replace(s, token_confidence=0.0) if s.answer is None else s
            for s in samples
        ]
        vote = assemble_vote(samples, k)
        assert abs(vote.vote_fraction * k - round(vote.vote_fraction * k)) < 1e-9
        assert vote.weighted_confidence <= vote.vote_fraction + 1e-9


# --- oracle: solve ------------------------------------------------------------


def test_oracle_derived_query_unanimous():
    kb = _kb(["forall x (penguin(x) -> bird(x))"])
    backend = OracleBackend(kb)
    premises = [parse_formula("penguin(tux)")]
    vote = backend.solve(Context(premises), (), parse_formula("bird(tux)"), 5)
    assert vote.answer is True
    assert vote.vote_fraction == 1.0


def test_oracle_derived_negative_query():
    kb = _kb(["forall x (penguin(x) -> ~flies(x))"])
    backend = OracleBackend(kb)
    vote = backend.solve(
        Context([parse_formula("penguin(tux)")]), (), parse_formula("flies(tux)"), 5
    )
    assert vote.answer is False
    assert vote.vote_fraction == 1.0


def test_oracle_beyond_depth_guesses_at_majority_floor():
    # two chained rules but only one application allowed: the oracle cannot
    # derive the query and guesses, never above the 3-of-5 majority floor
    kb = _kb(
        ["forall x (a(x) -> b(x))", "forall x (b(x) -> c(x))"], reasoning_depth=1
    )
    backend = OracleBackend(kb)
    vote = backend.solve(Context([parse_formula("a(e)")]), (), parse_formula("c(e)"), 5)
    assert vote.vote_fraction == pytest.approx(0.6)
    # within depth it derives fine
    kb2 = _kb(["forall x (a(x) -> b(x))", "forall x (b(x) -> c(x))"], reasoning_depth=2)
    context = Context([parse_formula("a(e)")])
    vote2 = OracleBackend(kb2).solve(context, (), parse_formula("c(e)"), 5)
    assert vote2.vote_fraction == 1.0
    assert vote2.answer is True


def test_oracle_depth_zero_answers_only_stated_facts():
    kb = _kb(["forall x (a(x) -> b(x))"], reasoning_depth=0)
    backend = OracleBackend(kb)
    vote = backend.solve(Context([parse_formula("a(e)")]), (), parse_formula("b(e)"), 5)
    assert vote.vote_fraction == pytest.approx(0.6)  # guesses


def test_oracle_chains_to_a_fixpoint_past_a_hundred_rounds():
    # reach(n120) is 120 rule applications from reach(n0), each needing the
    # one before it; an unbounded oracle must follow the chain to its end
    kb = _kb(
        ["forall x forall y (reach(x) & next(x, y) -> reach(y))"], reasoning_depth=None
    )
    premises = [parse_formula("reach(n0)")] + [
        parse_formula(f"next(n{i}, n{i + 1})") for i in range(120)
    ]
    vote = OracleBackend(kb).solve(Context(premises), (), parse_formula("reach(n120)"), 5)
    assert vote.answer is True
    assert vote.vote_fraction == 1.0
    assert all(s.raw_text.startswith("Derived after 120 ") for s in vote.samples)


def _chains_agree(backend, premises, commonsense=()):
    fast = backend._chain(premises, commonsense)
    assert fast == naive_chain(backend.kb, premises, commonsense)
    return fast


def test_depth_zero_chain_parses_no_rule(monkeypatch):
    # At depth 0 only the stated facts count, so no premise is read as a rule.
    rules = ["forall x (a(x) -> b(x))", "forall x forall y (b(x) & c(x, y) -> d(y))"]
    premises = [parse_formula(t) for t in ["a(e)", "c(e, f)", *rules, "~d(g)"]]
    real = HornRule.from_formula
    parsed = []
    monkeypatch.setattr(
        HornRule, "from_formula", staticmethod(lambda f: parsed.append(f) or real(f))
    )
    for depth, parses in ((0, 0), (1, 2)):
        backend = OracleBackend(_kb(rules, reasoning_depth=depth))
        parsed.clear()
        facts = backend._chain(premises, ())
        assert len(parsed) == parses, depth
        assert facts == naive_chain(backend.kb, premises, ())


def test_chain_matches_naive_on_the_long_chain():
    kb = _kb(
        ["forall x forall y (reach(x) & next(x, y) -> reach(y))"], reasoning_depth=None
    )
    premises = [parse_formula("reach(n0)")] + [
        parse_formula(f"next(n{i}, n{i + 1})") for i in range(120)
    ]
    facts = _chains_agree(OracleBackend(kb), premises)
    assert facts[parse_literal("reach(n120)")] == 120


def test_chain_matches_naive_on_winter_fox():
    problem = load_problem_file(FIXTURES / "winter_fox" / "problem.json")
    backend = OracleBackend(OracleKB.from_file(FIXTURES / "winter_fox" / "kb.json"))
    facts = _chains_agree(backend, problem.premises)
    assert facts[parse_literal("~absorbs(white, sun)")] == 3
    lit = parse_literal
    accepted = [
        _clause([lit("turns_white(fox, winter)")], lit("reflects(fox, sun)")),
        _clause([lit("reflects(fox, sun)")], lit("~absorbs(fox, sun)")),
    ]
    facts = _chains_agree(backend, problem.premises, accepted)
    assert facts[parse_literal("~absorbs(white, sun)")] == 3


def test_chain_matches_naive_on_the_flip_suite():
    # the criterion-6 setting: kinship problems under a depth-2 oracle
    problems, kb = generate_kinship(100, 4, seed=606, validate=False)
    backend = OracleBackend(dataclasses.replace(kb, reasoning_depth=2, seed=606))
    derived = 0
    for problem in problems:
        facts = _chains_agree(backend, problem.premises)
        derived += sum(1 for cost in facts.values() if cost > 0)
    assert derived > 0


# z(e) is first reached by a depth-3 tree of two-antecedent rules at cost 5
# (p, q = 1; r = p + q + 1 = 3; z = r + p + 1 = 5), and only later by the
# four-rule chain through m1, m2 and m3 at cost 4
DEARER_FIRST_RULES = [
    "forall x (a(x) & b(x) -> p(x))",
    "forall x (a(x) & b(x) -> q(x))",
    "forall x (p(x) & q(x) -> r(x))",
    "forall x (r(x) & p(x) -> z(x))",
    "forall x (a(x) -> m1(x))",
    "forall x (m1(x) -> m2(x))",
    "forall x (m2(x) -> m3(x))",
    "forall x (m3(x) -> z(x))",
]


def test_chain_lowers_a_cost_found_first_by_a_dearer_derivation():
    premises = [parse_formula("a(e)"), parse_formula("b(e)")]
    z = parse_literal("z(e)")
    for depth, cost in ((None, 4), (5, 4), (4, 4), (3, None)):
        backend = OracleBackend(_kb(DEARER_FIRST_RULES, reasoning_depth=depth))
        facts = _chains_agree(backend, premises)
        assert facts.get(z) == cost
        assert facts[parse_literal("r(e)")] == 3


def _random_literal(rng, predicates, terms):
    pred = rng.choice(predicates)
    args = tuple(rng.choice(terms) for _ in range(pred.arity))
    return Literal(Atom(pred, args), rng.random() < 0.8)


def _random_rule(rng, predicates, entities):
    variables = [Var("x"), Var("y")]
    antecedent = tuple(
        _random_literal(rng, predicates, variables + entities[:1])
        for _ in range(rng.choice((1, 2, 2)))
    )
    bound = [a for l in antecedent for a in l.atom.args if isinstance(a, Var)]
    return HornRule(antecedent, _random_literal(rng, predicates, bound + entities))


def _random_rule_sets(seed, n):
    """``n`` small random (KB rules, premises, commonsense) triples over
    unary and binary predicates and 2-3 entities; the KB also states ground
    facts, and the premises hold rules as well as facts."""
    rng = random.Random(seed)
    predicates = [Predicate(f"u{i}", 1) for i in range(3)] + [Predicate(f"b{i}", 2) for i in range(2)]
    for _ in range(n):
        entities = [Entity(f"e{i}") for i in range(rng.choice((2, 3)))]
        kb_rules = [_random_rule(rng, predicates, entities) for _ in range(rng.randint(1, 5))]
        kb_rules += [HornRule((), _random_literal(rng, predicates, entities))
                     for _ in range(rng.randint(0, 2))]
        premises = [lit_to_formula(_random_literal(rng, predicates, entities))
                    for _ in range(rng.randint(1, 5))]
        premises += [_random_rule(rng, predicates, entities).to_formula()
                     for _ in range(rng.randint(0, 2))]
        commonsense = [
            _clause([_random_literal(rng, predicates, entities)],
                    _random_literal(rng, predicates, entities))
            for _ in range(rng.randint(0, 2))
        ]
        yield tuple(kb_rules), premises, commonsense


def test_chain_matches_naive_on_random_rule_sets():
    derived = 0
    for kb_rules, premises, commonsense in _random_rule_sets(1977, 200):
        for depth in (None, 0, 1, 2, 3):
            backend = OracleBackend(OracleKB(kb_rules, reasoning_depth=depth))
            facts = _chains_agree(backend, premises, commonsense)
            derived += sum(1 for cost in facts.values() if cost > 1)
    assert derived > 0


def test_chain_pops_each_fact_once_at_its_final_cost(monkeypatch):
    # facts leave the worklist cheapest first, so each is joined once: a
    # later pop of the same fact carries a dearer, stale cost
    popped = []

    def heappop(heap):
        item = heapq.heappop(heap)
        popped.append((item[0], item[2]))
        return item

    monkeypatch.setattr(
        backends_module, "heapq", types.SimpleNamespace(heappop=heappop, heappush=heapq.heappush)
    )
    dearer_first = _kb(DEARER_FIRST_RULES).rules, [parse_formula("a(e)"), parse_formula("b(e)")], ()
    stale = 0
    for kb_rules, premises, commonsense in [dearer_first, *_random_rule_sets(1977, 200)]:
        for depth in (None, 2):
            popped.clear()
            backend = OracleBackend(OracleKB(kb_rules, reasoning_depth=depth))
            facts = backend._chain(premises, commonsense)
            costs = [cost for cost, _ in popped]
            assert costs == sorted(costs)
            final = [fact for cost, fact in popped if cost == facts[fact]]
            assert len(final) == len(set(final)) == len(facts)
            stale += len(popped) - len(final)
    assert stale > 0


def test_oracle_vote_skips_an_existential_premise():
    kb = _kb(["forall x (a(x) -> b(x))"], reasoning_depth=None)
    backend = OracleBackend(kb)
    premises = [parse_formula("a(e)"), parse_formula("forall x exists y (r(x, y))")]
    assert _chains_agree(backend, premises) == {
        parse_literal("a(e)"): 0, parse_literal("b(e)"): 1,
    }
    vote = backend.solve(Context(premises), (), parse_formula("b(e)"), 5)
    assert vote.answer is True
    assert vote.vote_fraction == 1.0


def test_oracle_uses_accepted_commonsense_in_derivations():
    kb = _kb(["forall x (never_fires(x) -> never_fires(x))"], reasoning_depth=1)
    backend = OracleBackend(kb)
    clause = _clause(
        [parse_literal("a(e)")], parse_literal("b(e)")
    )
    vote = backend.solve(
        Context([parse_formula("a(e)")]), [clause], parse_formula("b(e)"), 5
    )
    assert vote.answer is True
    assert vote.vote_fraction == 1.0


def test_oracle_solve_determinism_and_request_keying():
    kb = _kb(["forall x (a(x) -> b(x))"], reasoning_depth=0, seed=41)
    b1, b2 = OracleBackend(kb), OracleBackend(kb)
    premises = [parse_formula("a(e)")]
    q = parse_formula("c(e)")
    v1 = b1.solve(Context(premises), (), q, 5)
    v2 = b2.solve(Context(premises), (), q, 5)
    assert [s.raw_text for s in v1.samples] == [s.raw_text for s in v2.samples]
    # each request draws its own stream: no two underived queries guess alike
    def guesses(name):
        vote = b1.solve(Context(premises), (), parse_formula(f"{name}(e)"), 5)
        return tuple(s.answer for s in vote.samples)

    assert len({guesses(name) for name in "cdfgh"}) == 5


def test_cot_accounting():
    kb = _kb(FOX_RULES)
    backend = OracleBackend(kb)
    premises = [parse_formula("turns_white(fox, winter)")]
    query = parse_formula("absorbs(white, sun)")
    assert len(backend.solve(Context(premises), (), query, 5).samples) == 5
    assert len(backend.solve(Context(premises), (), query, 3).samples) == 3


# --- oracle: generation ---------------------------------------------------------


def test_oracle_generate_single_literal_rule_match():
    kb = _kb(FOX_RULES)
    backend = OracleBackend(kb)
    l = parse_literal("turns_white(fox, winter)")
    out = backend.generate(Context([]), (), (l,), Entity("fox"))
    assert [str(c) for c in out] == ["reflects(fox, sun)"]


def test_oracle_generate_composition_by_pair_target():
    kb = _kb(["forall x forall y forall z (mom(x, y) & sister(y, z) -> mom(x, z))"])
    backend = OracleBackend(kb)
    l1 = parse_literal("mom(A, B)")
    l2 = parse_literal("sister(B, C)")
    out = backend.generate(Context([]), (), (l1, l2), (Entity("A"), Entity("C")))
    assert [str(c) for c in out] == ["mom(A, C)"]
    # and in reversed argument roles
    out2 = backend.generate(Context([]), (), (l2, l1), (Entity("A"), Entity("C")))
    assert [str(c) for c in out2] == ["mom(A, C)"]


def test_oracle_generate_answers_in_rule_text_order():
    kb = _kb([
        "forall x forall y (mom(x, y) -> ancestor(x, y))",
        "forall x forall y forall z (mom(x, y) & sister(y, z) -> mom(x, z))",
    ])
    # a rule base that lists the two rules against their text order
    backend = OracleBackend(dataclasses.replace(kb, rules=kb.rules[::-1]))
    assert str(backend.kb.rules[0]) > str(backend.kb.rules[1])
    antecedent = (parse_literal("mom(A, B)"), parse_literal("sister(B, C)"))
    out = backend.generate(Context([]), (), antecedent, None)
    assert [str(c) for c in out] == ["mom(A, C)", "ancestor(A, B)"]


def test_rule_lookup_by_signature_matches_the_full_scan():
    # Random literal pairs over the kinship rule base, the same with rules
    # of one antecedent literal whose text sorts between its own, and the
    # winter-fox one, against a scan of every rule in text order.
    _, kinship = generate_kinship(3, 4, seed=404)
    texts = [str(f) for f in kinship.formulas()]
    mixed = texts + [
        f"forall x forall y ({name}(x, y) -> relative(x, y))"
        for name in ("aunt", "brother", "mother", "sister")
    ]
    mixed.append("forall x forall y (~father(x, y) -> ~grandfather(x, y))")
    rng = random.Random(17)
    for kb in (kinship, _kb(mixed), _kb(FOX_RULES)):
        backend = OracleBackend(kb)
        named = sorted({e for r in kb.rules for e in r.entities()}, key=lambda e: e.name)
        people = named or [Entity(n) for n in ("Ann", "Bob", "Cy", "Dee")]
        predicates = sorted(
            {l.atom.predicate for r in kb.rules for l in r.literals}, key=lambda p: p.name
        )

        def literal():
            p = rng.choice(predicates)
            args = tuple(rng.choice(people) for _ in range(p.arity))
            return Literal(Atom(p, args), rng.random() < 0.7)

        answered = 0
        for _ in range(1500):
            l1 = literal()
            l2 = rng.choice([None, l1, literal()])
            antecedent = (l1,) if l2 in (None, l1) else (l1, l2)
            got = backend._matching_consequents(antecedent)
            assert got == reference_matching_consequents(kb, antecedent)
            answered += bool(got)
        assert answered > 20
        assert backend._matching_consequents(()) == reference_matching_consequents(kb, ())


def test_oracle_generate_no_matching_rule_is_empty():
    kb = _kb(FOX_RULES)
    backend = OracleBackend(kb)
    l = parse_literal("shines(sun, winter)")
    assert backend.generate(Context([]), (), (l,), Entity("sun")) == []


def test_oracle_generate_noise_corrupts_deterministically():
    kb = _kb(FOX_RULES, noise=0.99, seed=5)
    backend = OracleBackend(kb)
    l = parse_literal("turns_white(fox, winter)")
    out1 = backend.generate(Context([]), (), (l,), Entity("fox"))
    out2 = backend.generate(Context([]), (), (l,), Entity("fox"))
    assert out1 == out2
    assert [str(c) for c in out1] != ["reflects(fox, sun)"]


def test_noisy_generation_outputs_are_pinned():
    # Recorded when generate took the antecedent as two literals (l1, l2):
    # the single literal a as (a, a) and the empty antecedent as (None, None).
    # The noise's random key still reads its first and last literal.
    kb = _kb([
        "forall x forall y (mom(x, y) -> parent(x, y))",
        "forall x forall y (mom(x, y) -> ancestor(x, y))",
        "forall x forall y forall z (mom(x, y) & sister(y, z) -> mom(x, z))",
        "forall x forall y (sister(x, y) -> sibling(x, y))",
        "forall x forall y (sister(x, y) -> female(x))",
        "parent(A, B)",
        "sibling(B, C)",
        "female(A)",
    ], noise=0.5, seed=11)
    backend = OracleBackend(kb)
    premises = [parse_formula("mom(A, B)"), parse_formula("sister(B, C)")]
    a, b = parse_literal("mom(A, B)"), parse_literal("sister(B, C)")
    A, B, C = Entity("A"), Entity("B"), Entity("C")
    pinned = [
        ((), A, ["~female(A)", "parent(A, B)"]),
        ((), B, ["~parent(A, B)", "sibling(B, C)"]),
        ((), (A, C), []),
        ((), (A, B), ["~parent(A, B)"]),
        ((), None, ["~female(A)", "parent(A, B)", "mom(B, C)"]),
        ((a,), A, ["ancestor(A, B)", "parent(A, B)"]),
        ((a,), B, ["ancestor(A, B)", "~parent(A, B)"]),
        ((a,), (A, C), []),
        ((a,), (A, B), ["ancestor(A, B)", "sibling(A, B)"]),
        ((a,), None, ["ancestor(A, B)", "~parent(A, B)"]),
        ((a, b), A, ["~mom(A, C)", "ancestor(A, B)", "~parent(A, B)"]),
        ((a, b), B, ["mom(A, B)", "~parent(A, B)", "~female(B)", "mom(B, C)"]),
        ((a, b), (A, C), ["mom(A, C)"]),
        ((a, b), (A, B), ["ancestor(A, B)", "~parent(A, B)"]),
        ((a, b), None,
         ["~mom(A, C)", "~ancestor(A, B)", "parent(A, B)", "female(B)", "sibling(B, C)"]),
        ((b, a), A, ["parent(A, C)", "ancestor(A, B)", "parent(A, B)"]),
        ((b, a), B, ["~ancestor(A, B)", "sibling(A, B)", "~female(B)", "sibling(B, C)"]),
        ((b, a), (A, C), ["mom(A, C)"]),
        ((b, a), (A, B), ["ancestor(A, B)", "~parent(A, B)"]),
        ((b, a), None,
         ["sibling(A, C)", "ancestor(A, B)", "~parent(A, B)", "female(B)", "sibling(B, C)"]),
    ]
    context = Context(premises)
    for antecedent, target, want in pinned:
        got = backend.generate(context, (), antecedent, target)
        assert [str(c) for c in got] == want, (antecedent, target)


def test_a_context_is_a_snapshot_of_its_premises():
    backend = OracleBackend(_kb(FOX_RULES))
    mom, sister = parse_formula("mom(A, B)"), parse_formula("sister(B, C)")
    clause = _clause([parse_literal("mom(A, B)")], parse_literal("mom(A, C)"))

    def ask(context):
        return (backend.relevance_score(context, (), clause),
                backend.solve(context, (), parse_formula("sister(B, C)"), 5))

    premises = [mom, sister]
    context = Context(premises)
    premises.remove(sister)  # before any request reads the context
    assert ask(context) == ask(Context([mom, sister])) != ask(Context(premises))


def test_noisy_oracle_renders_premises_once_per_context(monkeypatch):
    kb = _kb([
        "forall x forall y (mom(x, y) -> parent(x, y))",
        "forall x forall y (sister(x, y) -> sibling(x, y))",
        "forall x forall y (sister(x, y) -> female(x))",
    ], noise=0.5, seed=11)
    mom, sister = parse_formula("mom(A, B)"), parse_formula("sister(B, C)")
    a, b = parse_literal("mom(A, B)"), parse_literal("sister(B, C)")
    problems = [(mom, sister), (mom,)]
    antecedents = [(a,), (b,), (a, b), (a,)]
    clause = _clause([a], parse_literal("parent(A, B)"))
    query = parse_formula("parent(A, C)")  # underived: the vote guesses from a seeded key

    def ask(backend, context, antecedent):
        return (backend.generate(context, (), antecedent, Entity("A")),
                backend.relevance_score(context, (), clause),
                backend.solve(context, (), query, 5))

    fresh = [ask(OracleBackend(kb), Context(premises), antecedent)
             for premises in problems for antecedent in antecedents]
    renders = []
    real = backends_module._render_formulas
    monkeypatch.setattr(
        backends_module, "_render_formulas", lambda fs: renders.append(tuple(fs)) or real(fs)
    )
    shared = OracleBackend(kb)
    contexts = [Context(premises) for premises in problems]
    got = [ask(shared, context, antecedent) for context in contexts for antecedent in antecedents]
    assert got == fresh
    # the votes also render their (empty) commonsense, once per request
    assert [r for r in renders if r] == problems


@pytest.mark.parametrize("noise", [0.0, 0.2])
def test_oracle_generate_matches_each_antecedent_once(monkeypatch, noise):
    # The search asks about each antecedent for several targets in a row;
    # over one context the shared backend matches it once and answers as a
    # fresh one does.
    problems, kinship = generate_kinship(3, 4, seed=404)
    kb = dataclasses.replace(kinship, noise=noise, seed=9)
    premises = problems[0].premises
    facts = [l for l in map(formula_to_literal, premises) if l is not None]
    entities = sorted({e for l in facts for e in l.entities()}, key=lambda e: e.name)
    rng = random.Random(5)
    requests = []
    for _ in range(60):
        antecedent = tuple(rng.sample(facts, rng.randint(0, 2)))
        for _ in range(rng.randint(1, 3)):
            target = rng.choice(
                [None, rng.choice(entities), tuple(rng.sample(entities, 2))]
            )
            requests.append((antecedent, target))
    fresh = [OracleBackend(kb).generate(Context(premises), (), a, t) for a, t in requests]
    matched = []
    real = OracleBackend._matching_consequents
    monkeypatch.setattr(
        OracleBackend, "_matching_consequents",
        lambda self, a: matched.append(a) or real(self, a),
    )
    shared, context = OracleBackend(kb), Context(premises)
    for (antecedent, target), want in zip(requests, fresh):
        got = shared.generate(context, (), antecedent, target)
        assert got == want, (antecedent, target)
        got.append(None)  # a caller's list is its own
    runs = sum(1 for i, (a, _) in enumerate(requests) if i == 0 or requests[i - 1][0] != a)
    assert len(matched) == runs < len(requests)
    assert sum(map(bool, fresh)) > 10
    # the matches a context keeps are its last backend's: another KB matches anew
    antecedent, target = next(r for r, want in zip(requests, fresh) if want)
    assert shared.generate(context, (), antecedent, target)
    other = OracleBackend(dataclasses.replace(kb, rules=()))
    assert other.generate(context, (), antecedent, target) == []


def test_oracle_relevance_unions_premise_entities_once_per_context(monkeypatch):
    kb = _kb(FOX_RULES, noise=0.2, seed=4)
    mom, sister = parse_formula("mom(A, B)"), parse_formula("sister(B, C)")
    lit = parse_literal
    clauses = [
        _clause([lit("mom(A, B)")], lit("mom(A, C)")),
        _clause([lit("mom(A, B)")], lit("knows(A, D)")),
        _clause([lit("mom(A, B)")], lit("mom(D, B)")),
    ]
    problems = [[mom, sister], [mom]]
    requests = [((), 0), ((), 1), ((clauses[1],), 2), ((), 2), ((), 0)]
    fresh = [
        OracleBackend(kb).relevance_score(Context(premises), commonsense, clauses[c])
        for premises in problems for commonsense, c in requests
    ]
    unions = []
    real = backends_module.formula_entities
    monkeypatch.setattr(
        backends_module, "formula_entities", lambda f: unions.append(f) or real(f)
    )
    shared = OracleBackend(kb)
    got = [
        shared.relevance_score(context, commonsense, clauses[c])
        for context in map(Context, problems) for commonsense, c in requests
    ]
    assert got == fresh
    assert fresh[0] != fresh[len(requests)]  # only the first premises name C
    # one union per context: [mom, sister], then [mom]
    assert unions == [mom, sister, mom]


# --- oracle: scoring --------------------------------------------------------------


def test_oracle_scores_kb_instance_and_contradiction():
    kb = _kb(FOX_RULES)
    backend = OracleBackend(kb)
    good = _clause(
        [parse_literal("turns_white(fox, winter)")], parse_literal("reflects(fox, sun)")
    )
    bad = _clause(
        [parse_literal("turns_white(fox, winter)")], parse_literal("~reflects(fox, sun)")
    )
    assert backend.commonsense_score(good, "contradiction") == 1.0
    assert backend.commonsense_score(bad, "contradiction") == 0.0
    # complementary styles agree on KB-decided clauses: the raw yes-probability
    # of the truth question is one minus that of the contradiction question
    assert backend.commonsense_score(good, "truth") == 1.0
    assert backend.commonsense_score(bad, "truth") == 0.0


def test_oracle_weakened_antecedent_still_instantiates():
    kb = _kb(FOX_RULES)
    backend = OracleBackend(kb)
    clause = _clause(
        [parse_literal("turns_white(fox, winter)"), parse_literal("is_animal(fox)")],
        parse_literal("reflects(fox, sun)"),
    )
    assert backend.commonsense_score(clause) == 1.0


def _kinship_composition_clauses(kb):
    """r1(A, B) & r2(B, C) -> r3(A, C) or its negation, in both antecedent
    orders, for every three relations: 12**3 * 2 * 2 clauses."""
    relations = sorted({l.atom.predicate for r in kb.rules for l in r.literals},
                       key=lambda p: p.name)
    assert len(relations) == 12
    a, b, c = (Entity(n) for n in ("A", "B", "C"))
    clauses = []
    for r1, r2, r3 in itertools.product(relations, repeat=3):
        first, second = Literal(Atom(r1, (a, b)), True), Literal(Atom(r2, (b, c)), True)
        for antecedent in ((first, second), (second, first)):
            for positive in (True, False):
                clauses.append(_clause(antecedent, Literal(Atom(r3, (a, c)), positive)))
    return clauses


def _fox_clauses(kb):
    """Antecedents of at most two literals over the rules' atoms and their
    argument swaps, each with every signed literal over the rules'
    predicates and entities as consequent: 257 * 96 clauses for a rule base
    with 8 such atoms over 3 predicates and 4 entities."""
    atoms = {l.atom for r in kb.rules for l in r.literals}
    atoms |= {Atom(x.predicate, x.args[::-1]) for x in atoms}
    pool = sorted((Literal(x, s) for x in atoms for s in (True, False)), key=str)
    entities = sorted({e for r in kb.rules for e in r.entities()}, key=lambda e: e.name)
    consequents = [
        Literal(Atom(p, args), s)
        for p in sorted({x.predicate for x in atoms}, key=lambda p: p.name)
        for args in itertools.product(entities, repeat=p.arity)
        for s in (True, False)
    ]
    antecedents = [()] + [(l,) for l in pool] + list(itertools.permutations(pool, 2))
    return [_clause(ante, cons) for ante in antecedents for cons in consequents]


@pytest.mark.parametrize("case", ["kinship", "winter_fox", "winter_fox_facts"])
def test_scores_agree_with_the_rule_scan(case):
    if case == "kinship":
        kb = kinship_kb()
        clauses = _kinship_composition_clauses(kb)
        assert len(clauses) == 6912
    else:
        # the facts case keeps one rule and states two ground literals
        facts = ["reflects(white, sun)", "~absorbs(sun, white)"]
        kb = _kb(FOX_RULES if case == "winter_fox" else FOX_RULES[:1] + facts)
        clauses = _fox_clauses(kb)
        assert len(clauses) == 257 * 96
    backend = OracleBackend(kb)
    decisions = {True: 0, False: 0, None: 0}
    for clause in clauses:
        want = reference_kb_decision(kb, clause)
        decisions[want] += 1
        score = 1.0 if want else 0.0
        assert (
            backend._kb_decision(clause),
            backend.commonsense_score(clause, CONTRADICTION_STYLE),
            backend.commonsense_score(clause, TRUTH_STYLE),
        ) == (want, score, score), str(clause)
    assert min(decisions.values()) > 0, decisions


def test_oracle_relevance():
    kb = _kb(FOX_RULES)
    backend = OracleBackend(kb)
    premises = [parse_formula("mom(A, B)"), parse_formula("sister(B, C)")]
    on_topic = _clause([parse_literal("mom(A, B)")], parse_literal("mom(A, C)"))
    off_topic = _clause([], parse_literal("sky_is(blue)"))
    assert backend.relevance_score(Context(premises), (), on_topic) == 1.0
    assert backend.relevance_score(Context(premises), (), off_topic) == 0.0


def test_oracle_relevance_accepts_entities_from_prior_clauses():
    kb = _kb(FOX_RULES)
    backend = OracleBackend(kb)
    premises = [parse_formula("mom(A, B)")]
    prior = _clause([parse_literal("mom(A, B)")], parse_literal("knows(A, D)"))
    clause = _clause([parse_literal("mom(A, B)")], parse_literal("mom(D, B)"))
    assert backend.relevance_score(Context(premises), (), clause) == 0.0
    assert backend.relevance_score(Context(premises), [prior], clause) == 1.0


def test_oracle_relevance_knows_only_named_entities():
    backend = OracleBackend(_kb(FOX_RULES))
    sig = {}
    problem = Problem(
        id="rel",
        entities={Entity("A"), Entity("B"), Entity("Z")},  # Z is declared, never named
        premises=[parse_formula("mom(A, B)", signature=sig)],
        query=parse_formula("mom(B, A)", signature=sig),
    )
    lit = parse_literal
    introduced = _clause([lit("mom(A, B)")], lit("knows(A, New)"))
    assert backend.relevance_score(Context(problem.premises), [introduced], _clause(
        [lit("mom(A, B)")], lit("mom(New, B)"))) == 1.0
    assert backend.relevance_score(Context(problem.premises), [introduced], _clause(
        [lit("mom(A, B)")], lit("mom(Nobody, B)"))) == 0.0
    assert backend.relevance_score(Context(problem.premises), [introduced], _clause(
        [lit("mom(A, B)")], lit("mom(Z, B)"))) == 0.0


def test_oracle_score_noise_flips_deterministically():
    kb = _kb(FOX_RULES, noise=0.99, seed=3)
    backend = OracleBackend(kb)
    good = _clause(
        [parse_literal("turns_white(fox, winter)")], parse_literal("reflects(fox, sun)")
    )
    assert backend.commonsense_score(good) == 0.0
    assert backend.commonsense_score(good) == 0.0


# --- oracle KB loading ----------------------------------------------------------


def test_kb_rejects_inconsistent_rules():
    with pytest.raises(ArgosError):
        _kb(["p(a)", "~p(a)"])


def test_kb_rejects_wide_antecedents():
    with pytest.raises(ArgosError):
        _kb(["a & b & c -> d"])


@pytest.mark.parametrize("rule", [
    "forall x forall y (p(x) -> q(x, y))",
    "forall x (p(x))",
])
def test_kb_rejects_a_consequent_variable_the_antecedent_does_not_bind(rule):
    with pytest.raises(ArgosError, match="does not bind"):
        _kb([rule])


def test_kb_rejects_non_horn():
    with pytest.raises(ArgosError):
        _kb(["a -> b | c"])


def test_kb_file_round_trip(tmp_path):
    kb = _kb(
        ["forall x forall y forall z (mom(x, y) & sister(y, z) -> mom(x, z))"],
        reasoning_depth=2,
    )
    path = tmp_path / "kb.json"
    kb.to_file(path)
    loaded = OracleKB.from_file(path)
    assert loaded.rules == kb.rules
    assert loaded.reasoning_depth == 2
    overridden = OracleKB.from_file(path, reasoning_depth=0, noise=0.1, seed=9)
    assert overridden.reasoning_depth == 0
    assert overridden.noise == 0.1


@pytest.mark.parametrize(
    "kb",
    [kinship_kb(), OracleKB.from_file(FIXTURES / "winter_fox" / "kb.json")],
    ids=["kinship", "winter-fox"],
)
def test_horn_rule_formula_round_trip(kb):
    assert kb.rules
    for r in kb.rules:
        f = r.to_formula()
        assert f == parse_formula(str(f))
        assert HornRule.from_formula(f) == r


def test_kb_file_schema_error(tmp_path):
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(["not", "an", "object"]))
    with pytest.raises(ArgosError):
        OracleKB.from_file(path)


@pytest.mark.parametrize(
    "field, bad, good",
    [
        ("reasoning_depth", ["2", -1, 1.5, True], [None, 0, 3]),
        ("noise", ["0.1", -0.1, 1.0, float("nan"), False], [0, 0.0, 0.5]),
        ("seed", ["7", 7.0, None, True], [0, 7]),
    ],
)
def test_kb_file_malformed_field_names_file_and_field(tmp_path, field, bad, good):
    path = tmp_path / "kb.json"
    rules = ["forall x forall y (mom(x, y) -> parent(x, y))"]
    for value in bad:
        path.write_text(json.dumps({"rules": rules, field: value}))
        with pytest.raises(CorpusError, match=re.escape(f"{path}: field '{field}'")):
            OracleKB.from_file(path)
    for value in good:
        path.write_text(json.dumps({"rules": rules, field: value}))
        assert getattr(OracleKB.from_file(path), field) == value


# --- wire backend ----------------------------------------------------------------


class FakeResponse:
    def __init__(self, payload, status=200, headers=None):
        self.payload = payload
        self.status_code = status
        self.headers = headers or {}

    def json(self):
        return self.payload


def completion(text, tokens=None, token_logprobs=None, top=None):
    return {
        "choices": [
            {
                "text": text,
                "logprobs": {
                    "tokens": tokens or [],
                    "token_logprobs": token_logprobs or [],
                    "top_logprobs": top or [],
                },
            }
        ]
    }


def test_wire_cot_sampling_and_confidence():
    requests_seen = []

    def post(url, json=None, headers=None, timeout=None):
        requests_seen.append(json)
        return FakeResponse(
            completion(
                "The fox turns white so it reflects. Answer: False",
                tokens=["Answer", ":", " False"],
                token_logprobs=[-0.5, -0.1, -0.2231435513],
            )
        )

    backend = WireBackend("http://server/v1/completions", "test-model", post=post)
    vote = backend.solve(
        Context([parse_formula("turns_white(fox, winter)")]), (),
        parse_formula("absorbs(white, sun)"), 5,
    )
    assert vote.answer is False
    assert vote.vote_fraction == 1.0
    assert vote.weighted_confidence == pytest.approx(math.exp(-0.2231435513))
    assert len(requests_seen) == 5
    assert all(r["max_tokens"] == 300 for r in requests_seen)
    assert all(r["temperature"] == 0.7 for r in requests_seen)
    assert "True or false: absorbs(white, sun)?" in requests_seen[0]["prompt"]
    assert "Here is some additional info we found:" in requests_seen[0]["prompt"]


def test_wire_score_softmax_and_budget():
    requests_seen = []

    def post(url, json=None, headers=None, timeout=None):
        requests_seen.append(json)
        return FakeResponse(
            completion("Yes", top=[{" Yes": -0.4, " No": -1.2, "the": -0.1}])
        )

    backend = WireBackend("http://server", "m", post=post)
    clause = _clause([parse_literal("a(x1)")], parse_literal("b(x1)"))
    score = backend.commonsense_score(clause, "contradiction")
    # contradiction style returns P[No]
    e_yes, e_no = math.exp(-0.4), math.exp(-1.2)
    assert score == pytest.approx(e_no / (e_yes + e_no))
    assert backend.commonsense_score(clause, "truth") == pytest.approx(
        e_yes / (e_yes + e_no)
    )
    assert backend.relevance_score(Context([]), (), clause) == pytest.approx(
        e_yes / (e_yes + e_no)
    )
    assert all(r["max_tokens"] == 1 for r in requests_seen)
    assert all(r["temperature"] == 0.0 for r in requests_seen)


def test_wire_score_equal_logits_is_half():
    def post(url, json=None, headers=None, timeout=None):
        return FakeResponse(completion("", top=[{"Yes": -0.7, "No": -0.7}]))

    backend = WireBackend("http://server", "m", post=post)
    clause = _clause([], parse_literal("b(x1)"))
    assert backend.commonsense_score(clause) == pytest.approx(0.5)


def test_wire_score_missing_tokens_is_zero():
    def post(url, json=None, headers=None, timeout=None):
        return FakeResponse(completion("?", top=[{"maybe": -0.1}]))

    backend = WireBackend("http://server", "m", post=post)
    assert backend.commonsense_score(_clause([], parse_literal("b(x1)"))) == 0.0


def test_wire_generation_budget_and_parsing():
    requests_seen = []

    def post(url, json=None, headers=None, timeout=None):
        requests_seen.append(json)
        return FakeResponse(completion("productive"))

    backend = WireBackend("http://server", "m", post=post)
    premises = [parse_formula("drinksCoffee(Rina)"), parse_formula("Loves(Mary, Sam)")]
    antecedent = (parse_literal("drinksCoffee(Rina)"), parse_literal("Loves(Mary, Sam)"))
    out = backend.generate(Context(premises), (), antecedent, Entity("Rina"))
    assert [str(l) for l in out] == ["productive(Rina)"]
    assert requests_seen[0]["max_tokens"] == 25
    assert "Fill in the blank with a known predicate" in requests_seen[0]["prompt"]
    assert "drinksCoffee" in requests_seen[0]["prompt"]


def test_wire_generation_prompt_names_the_antecedent():
    prompts = []

    def post(url, json=None, headers=None, timeout=None):
        prompts.append(json["prompt"])
        return FakeResponse(completion("productive"))

    backend = WireBackend("http://server", "m", post=post)
    a, b = parse_literal("drinksCoffee(Rina)"), parse_literal("Loves(Mary, Sam)")
    context = Context([])
    for antecedent in [(a, b), (a,), ()]:
        backend.generate(context, (), antecedent, Entity("Rina"))
    backend.generate(context, (), (b, a), (Entity("Mary"), Entity("Sam")))
    for antecedent in [(a,), ()]:  # untargeted: a propositional blank
        backend.generate(context, (), antecedent, None)
    assert [p.splitlines()[0] for p in prompts] == [
        "Fill in the blank with a known predicate: "
        "drinksCoffee(Rina) & Loves(Mary, Sam) implies __(Rina).",
        "Fill in the blank with a known predicate: drinksCoffee(Rina) implies __(Rina).",
        "Fill in the blank with a known predicate: the context implies __(Rina).",
        "If Loves(Mary, Sam) & drinksCoffee(Rina) then __(Mary,Sam). Fill in the blank.",
        "Fill in the blank with a known predicate: drinksCoffee(Rina) implies __.",
        "Fill in the blank with a known predicate: the context implies __.",
    ]


def test_wire_generation_walks_the_premises_once_per_context(monkeypatch):
    prompts = []

    def post(url, json=None, headers=None, timeout=None):
        prompts.append(json["prompt"])
        return FakeResponse(completion("productive"))

    premises = [parse_formula("drinksCoffee(Rina)"), parse_formula("Loves(Mary, Sam)"),
                parse_formula("forall x (drinksCoffee(x) -> awake(x))")]
    a = parse_literal("drinksCoffee(Rina)")
    accepted = _clause([a], parse_literal("productive(Rina)"))
    requests = [((), (a,), Entity("Rina")), ((accepted,), (a,), None), ((), (), Entity("Sam"))]
    fresh = []
    for commonsense, antecedent, target in requests:
        backend = WireBackend("http://server", "m", post=post)
        fresh.append(backend.generate(Context(premises), commonsense, antecedent, target))
    walked = []
    real = backends_module.iter_atoms
    monkeypatch.setattr(backends_module, "iter_atoms", lambda f: walked.append(f) or real(f))
    backend, context = WireBackend("http://server", "m", post=post), Context(premises)
    got = [backend.generate(context, commonsense, antecedent, target)
           for commonsense, antecedent, target in requests]
    assert got == fresh
    assert prompts[len(requests):] == prompts[:len(requests)]
    assert "Known predicates are: Loves, awake, drinksCoffee, productive" in prompts[1]
    assert walked == premises


def test_wire_generation_unparseable_is_dropped():
    def post(url, json=None, headers=None, timeout=None):
        return FakeResponse(completion("???!"))

    backend = WireBackend("http://server", "m", post=post)
    out = backend.generate(Context([]), (), (parse_literal("a(x1)"),), Entity("x1"))
    assert out == []


def test_wire_generation_arity_conflict_is_dropped():
    def post(url, json=None, headers=None, timeout=None):
        return FakeResponse(completion("knows(Rina)"))

    backend = WireBackend("http://server", "m", post=post)
    premises = [parse_formula("knows(Rina, Sam)")]
    out = backend.generate(
        Context(premises), (), (parse_literal("knows(Rina, Sam)"),), Entity("Rina"),
    )
    assert out == []


def test_wire_retries_then_exhausts():
    calls = []
    sleeps = []

    def post(url, json=None, headers=None, timeout=None):
        calls.append(1)
        raise ConnectionError("refused")

    backend = WireBackend(
        "http://server", "m", post=post, retries=3, backoff=0.5, sleep=sleeps.append
    )
    with pytest.raises(BackendExhausted):
        backend.commonsense_score(_clause([], parse_literal("b(x1)")))
    assert len(calls) == 3
    assert sleeps == [0.5, 1.0]


def test_wire_programming_error_is_not_retried():
    calls = []

    def post(url, json=None, headers=None, timeout=None):
        calls.append(1)
        raise TypeError("unexpected keyword argument")

    backend = WireBackend("http://server", "m", post=post, sleep=lambda s: None)
    with pytest.raises(TypeError):
        backend.commonsense_score(_clause([], parse_literal("b(x1)")))
    assert len(calls) == 1


def test_wire_client_error_is_not_retried():
    calls = []

    def post(url, json=None, headers=None, timeout=None):
        calls.append(1)
        return FakeResponse({}, status=404)

    backend = WireBackend("http://server", "m", post=post, sleep=lambda s: None)
    with pytest.raises(BackendExhausted):
        backend.commonsense_score(_clause([], parse_literal("b(x1)")))
    assert len(calls) == 1


def _rate_limited(responses):
    """A transport that answers with ``responses`` in turn, then a score."""
    calls = []

    def post(url, json=None, headers=None, timeout=None):
        calls.append(1)
        if len(calls) <= len(responses):
            return responses[len(calls) - 1]
        return FakeResponse(completion("", top=[{"Yes": -0.2, "No": -0.9}]))

    return post, calls


def test_wire_rate_limit_retries_after_the_header():
    post, calls = _rate_limited([FakeResponse({}, 429, {"Retry-After": "7"})])
    sleeps = []
    backend = WireBackend("http://server", "m", post=post, backoff=0.5, sleep=sleeps.append)
    assert backend.relevance_score(Context([]), (), _clause([], parse_literal("b(x1)"))) > 0.5
    assert len(calls) == 2
    assert sleeps == [7]


def test_wire_rate_limit_unparseable_header_backs_off():
    post, calls = _rate_limited(
        [FakeResponse({}, 429, {"Retry-After": v}) for v in ("soon", "-3")]
    )
    sleeps = []
    backend = WireBackend("http://server", "m", post=post, backoff=0.5, sleep=sleeps.append)
    backend.relevance_score(Context([]), (), _clause([], parse_literal("b(x1)")))
    assert len(calls) == 3
    assert sleeps == [0.5, 1.0]


def test_wire_rate_limit_on_every_attempt_exhausts():
    post, calls = _rate_limited([FakeResponse({}, 429)] * 3)
    sleeps = []
    backend = WireBackend(
        "http://server", "m", api_token="tok-secret", post=post, retries=3, sleep=sleeps.append
    )
    with pytest.raises(BackendExhausted) as info:
        backend.commonsense_score(_clause([], parse_literal("b(x1)")))
    assert len(calls) == 3
    assert sleeps == [1.0, 2.0]
    assert "tok-secret" not in str(info.value)


def test_wire_rate_limit_oversized_retry_after_fails_at_once():
    post, calls = _rate_limited([FakeResponse({}, 429, {"Retry-After": "3600"})])
    sleeps = []
    backend = WireBackend(
        "http://server", "m", api_token="tok-secret", post=post, sleep=sleeps.append
    )
    with pytest.raises(BackendExhausted, match="3600") as info:
        backend.commonsense_score(_clause([], parse_literal("b(x1)")))
    assert len(calls) == 1
    assert sleeps == []
    assert "tok-secret" not in str(info.value)


def test_wire_retries_server_errors_then_succeeds():
    calls = []

    def post(url, json=None, headers=None, timeout=None):
        calls.append(1)
        if len(calls) < 3:
            return FakeResponse({}, status=503)
        return FakeResponse(completion("", top=[{"Yes": -0.2, "No": -0.9}]))

    backend = WireBackend("http://server", "m", post=post, sleep=lambda s: None)
    score = backend.relevance_score(Context([]), (), _clause([], parse_literal("b(x1)")))
    assert score > 0.5
    assert len(calls) == 3


def test_wire_malformed_response_is_backend_error():
    def post(url, json=None, headers=None, timeout=None):
        return FakeResponse({"unexpected": True})

    backend = WireBackend("http://server", "m", post=post, sleep=lambda s: None)
    with pytest.raises(BackendError):
        backend.commonsense_score(_clause([], parse_literal("b(x1)")))


def test_wire_auth_header():
    seen = {}

    def post(url, json=None, headers=None, timeout=None):
        seen.update(headers)
        return FakeResponse(completion("", top=[{"Yes": -0.2, "No": -0.9}]))

    backend = WireBackend("http://server", "m", api_token="secret", post=post)
    backend.relevance_score(Context([]), (), _clause([], parse_literal("b(x1)")))
    assert seen.get("Authorization") == "Bearer secret"
