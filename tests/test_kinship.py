import itertools

import pytest

from argos.errors import ArgosError
from argos.kinship import (
    MAX_CHAIN_DEPTH,
    RELATIONS,
    compose,
    composition_rules,
    derivable_relations,
    exclusion_axioms,
    generate_kinship,
    kinship_kb,
)
from argos.logic import ground
from argos.sat import ENTAILS_NOT_QUERY, ENTAILS_QUERY, SatSession

from _oracles import kinship_chains


def test_vocabulary_and_table_sizes():
    assert len(RELATIONS) == 12
    rules = composition_rules()
    assert len(rules) == 44
    assert len(exclusion_axioms()) == 12 * 11


def test_composition_gender_follows_first_relation():
    for r1 in RELATIONS:
        for r2 in RELATIONS:
            r3 = compose(r1, r2)
            if r3 is not None:
                assert RELATIONS[r3][1] == RELATIONS[r1][1]


def test_composition_table_coherent():
    # all ways of folding a three-step chain agree whenever both are defined
    for a, b, c in itertools.product(RELATIONS, repeat=3):
        left = compose(a, b)
        right = compose(b, c)
        via_left = compose(left, c) if left else None
        via_right = compose(a, right) if right else None
        if via_left and via_right:
            assert via_left == via_right, (a, b, c)


def test_composition_table_coherent_depth_four():
    # same agreement for every bracketing of four-step chains
    kinds = sorted({k for k, _ in RELATIONS.values()})
    rep = {k: next(n for n, (kk, _) in sorted(RELATIONS.items()) if kk == k) for k in kinds}
    for chain in itertools.product(rep.values(), repeat=4):
        results = set()
        for split in range(1, 4):
            def fold(rels):
                if len(rels) == 1:
                    return rels[0]
                out = rels[0]
                for r in rels[1:]:
                    out = compose(out, r) if out else None
                return out
            l, r = fold(list(chain[:split])), fold(list(chain[split:]))
            if l and r:
                whole = compose(l, r)
                if whole:
                    results.add(whole)
        assert len(results) <= 1, chain


def test_kb_rules_are_consistent():
    kb = kinship_kb()
    assert kb.is_consistent()


def test_generator_rejects_shallow_depth():
    with pytest.raises(ArgosError):
        generate_kinship(2, 1, seed=0)


def test_max_chain_depth_is_the_longest_chain_that_can_be_sampled():
    assert len(kinship_chains(MAX_CHAIN_DEPTH)) == 64
    assert kinship_chains(MAX_CHAIN_DEPTH + 1) == []


def test_generator_rejects_a_depth_no_chain_reaches():
    with pytest.raises(ArgosError, match="chain_depth"):
        generate_kinship(1, MAX_CHAIN_DEPTH + 1, 0)


def test_generator_label_balance():
    problems, _ = generate_kinship(100, 3, seed=7, validate=False)
    trues = sum(1 for p in problems if p.gold_label)
    assert 45 <= trues <= 55


def test_generator_depth_cycle_and_ids():
    problems, _ = generate_kinship(6, 4, seed=1, validate=False)
    depths = [len([f for f in p.premises if not str(f).startswith("forall")]) for p in problems]
    assert depths == [2, 3, 4, 2, 3, 4]
    assert [p.id for p in problems] == [f"kinship-1-{i:04d}" for i in range(6)]


def test_generator_soundness_restored_rules_decide_query():
    problems, _ = generate_kinship(10, 4, seed=3, validate=False)
    for p in problems:
        universe = sorted(p.universe(), key=lambda e: e.name)
        formulas = [ground(f, universe) for f in p.premises + p.withheld_rules]
        query = ground(p.query, universe)
        conclusion, _ = SatSession(formulas, query).decide(with_backbone=False)
        expected = ENTAILS_QUERY if p.gold_label else ENTAILS_NOT_QUERY
        assert conclusion.verdict == expected, p.id


def test_generator_shares_rule_objects_across_problems():
    problems, _ = generate_kinship(12, 4, seed=5, validate=False)
    exclusions = problems[0].premises[-132:]
    withheld: dict = {}
    for p in problems:
        assert all(a is b for a, b in zip(p.premises[-132:], exclusions))
        for f in p.withheld_rules:
            assert withheld.setdefault(str(f), f) is f
    assert len(withheld) < sum(len(p.withheld_rules) for p in problems)


def test_generator_determinism():
    a, _ = generate_kinship(5, 3, seed=11, validate=False)
    b, _ = generate_kinship(5, 3, seed=11, validate=False)
    assert [str(p.query) for p in a] == [str(p.query) for p in b]
    assert [p.text for p in a] == [p.text for p in b]
    c, _ = generate_kinship(5, 3, seed=12, validate=False)
    assert [p.text for p in a] != [p.text for p in c]


def test_derivable_relations_bound_respected():
    problems, _ = generate_kinship(20, 4, seed=5, validate=False)
    for p in problems:
        facts = [f for f in p.premises if not str(f).startswith("forall")]
        relations = [str(f).split("(")[0] for f in facts]
        derivable = derivable_relations(relations)
        assert len(derivable) - len(relations) <= 5


def test_derivable_relations_table():
    rel = derivable_relations(["mother", "sister"])
    assert rel[(0, 2)] == "mother"
    rel2 = derivable_relations(["sister", "mother"])
    assert rel2[(0, 2)] == "aunt"
