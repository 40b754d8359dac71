"""Synthetic family-relation problems that force abduction.

Each problem is a chain of relation facts between distinct people; the
composition rules that let a solver collapse the chain into the queried
relation are withheld from the premises and live in the oracle rule base
instead. Pairwise relation disjointness stays in the premises (both
directions of every pair), so a query about a wrong relation becomes
decidable once the right relation has been derived.

The relation vocabulary has 12 entries; the hand-written composition table
below is checked for coherence by the test suite (all ways of folding a
chain agree wherever they are defined).
"""

from __future__ import annotations

import random
from typing import Optional

from .backends import OracleKB
from .corpus import Problem, check_restored
from .errors import ArgosError
from .logic import Atom, AtomNode, Entity, ForAll, Formula, Implies, Not, Predicate, Var
from .parser import parse_formula

# kind encodes the genealogical role of x in "x is the <relation> of y"
PARENT, CHILD, SIBLING, GRANDPARENT, GRANDCHILD, PARENT_SIBLING = (
    "parent",
    "child",
    "sibling",
    "grandparent",
    "grandchild",
    "parent_sibling",
)

RELATIONS: dict[str, tuple[str, str]] = {
    "mother": (PARENT, "f"),
    "father": (PARENT, "m"),
    "daughter": (CHILD, "f"),
    "son": (CHILD, "m"),
    "sister": (SIBLING, "f"),
    "brother": (SIBLING, "m"),
    "grandmother": (GRANDPARENT, "f"),
    "grandfather": (GRANDPARENT, "m"),
    "granddaughter": (GRANDCHILD, "f"),
    "grandson": (GRANDCHILD, "m"),
    "aunt": (PARENT_SIBLING, "f"),
    "uncle": (PARENT_SIBLING, "m"),
}

_BY_KIND_GENDER = {(kind, g): name for name, (kind, g) in RELATIONS.items()}

# (kind of r1, kind of r2) -> kind of the composed relation, for
# "x r1 y" and "y r2 z"; the composed gender is always r1's. Families are
# taken to be full-sibling (siblings share both parents), which every rule
# below relies on.
KIND_COMPOSE: dict[tuple[str, str], str] = {
    (PARENT, PARENT): GRANDPARENT,
    (PARENT, SIBLING): PARENT,
    (PARENT, PARENT_SIBLING): GRANDPARENT,
    (SIBLING, PARENT): PARENT_SIBLING,
    (SIBLING, SIBLING): SIBLING,
    (SIBLING, CHILD): CHILD,
    (SIBLING, PARENT_SIBLING): PARENT_SIBLING,
    (CHILD, PARENT): SIBLING,
    (CHILD, CHILD): GRANDCHILD,
    (GRANDPARENT, SIBLING): GRANDPARENT,
    (PARENT_SIBLING, SIBLING): PARENT_SIBLING,
}


# (r1, r2) -> the relation composed from them, for every defined pair
_COMPOSED: dict[tuple[str, str], str] = {
    (r1, r2): _BY_KIND_GENDER[(KIND_COMPOSE[(k1, k2)], g1)]
    for r1, (k1, g1) in RELATIONS.items()
    for r2, (k2, _) in RELATIONS.items()
    if (k1, k2) in KIND_COMPOSE
}
# the constant lists the sampler draws from, sorted so draws repeat by seed
_SORTED = sorted(RELATIONS)
_FOLLOWERS = {r1: [r2 for r2 in _SORTED if (r1, r2) in _COMPOSED] for r1 in _SORTED}
_OTHERS = {r1: [r2 for r2 in _SORTED if r2 != r1] for r1 in _SORTED}


def compose(r1: str, r2: str) -> Optional[str]:
    """Relation of x to z given 'x r1 y' and 'y r2 z', if the vocabulary has it."""
    return _COMPOSED.get((r1, r2))


def composition_rule_text(r1: str, r2: str, r3: str) -> str:
    return f"forall x forall y forall z ({r1}(x, y) & {r2}(y, z) -> {r3}(x, z))"


def composition_rules() -> list[str]:
    """Every defined composition, as quantified implications (44 rules)."""
    return sorted(composition_rule_text(r1, r2, r3) for (r1, r2), r3 in _COMPOSED.items())


def exclusion_axioms() -> list[Formula]:
    """A person holds at most one vocabulary relation to another person.

    Both directions of every pair are emitted so a fact about one relation
    immediately yields the negations of the others under forward chaining.
    Each is built as the value that parsing
    ``forall x forall y (r1(x, y) -> ~r2(x, y))`` gives.
    """
    x, y = Var("x"), Var("y")
    atoms = {r: AtomNode(Atom(Predicate(r, 2), (x, y))) for r in _SORTED}
    negated = {r: Not(a) for r, a in atoms.items()}
    return [
        ForAll(x, ForAll(y, Implies(atoms[r1], negated[r2])))
        for r1 in _SORTED
        for r2 in _OTHERS[r1]
    ]


def kinship_kb(**knobs) -> OracleKB:
    """The full composition rule base as an oracle knowledge base, with the
    given ``OracleKB`` knobs."""
    signature: dict[str, int] = {}
    formulas = [parse_formula(t, signature=signature) for t in composition_rules()]
    return OracleKB.from_formulas(formulas, check=False, **knobs)


_NAMES = [
    "Alice", "Amos", "Anna", "Ben", "Bella", "Carl", "Cara", "Dan", "Dora",
    "Eli", "Elsa", "Finn", "Faye", "Gus", "Gina", "Hank", "Hana", "Ivan",
    "Iris", "Jack", "Jade", "Kurt", "Kira", "Liam", "Lena", "Mark", "Mona",
    "Nils", "Nina", "Omar", "Opal", "Pete", "Pia", "Quinn", "Rhea", "Ross",
    "Ruth", "Seth", "Sara", "Theo", "Tess", "Umit", "Una", "Vito", "Vera",
    "Walt", "Wren", "Yuri",
]


def derivable_relations(relations: list[str]) -> dict[tuple[int, int], str]:
    """Relation of person i to person j for every derivable subchain (i, j).

    A span is derivable when some split point yields two derivable halves
    whose composition is in the vocabulary; the table's coherence makes the
    result independent of the split.
    """
    d = len(relations)
    rel: dict[tuple[int, int], str] = {
        (i, i + 1): relations[i] for i in range(d)
    }
    for span in range(2, d + 1):
        for i in range(0, d - span + 1):
            j = i + span
            for k in range(i + 1, j):
                if (i, k) in rel and (k, j) in rel:
                    c = _COMPOSED.get((rel[(i, k)], rel[(k, j)]))
                    if c is not None:
                        rel[(i, j)] = c
                        break
    return rel


# The clause search may visit derivable intermediate relations in any order
# before it reaches the queried endpoint relation, and the vote threshold
# anneals from 1.0 in steps of 0.1 down to its 0.5 floor: chains are
# therefore restricted to at most 5 derivable non-fact relations so the
# solver always closes the query before the threshold floor is reached.
_MAX_DERIVABLE = 5

# The longest chain that _sample_chain can return: 64 relation sequences of
# length 4 keep their left fold in the vocabulary and their derivable
# relations within _MAX_DERIVABLE, and none of length 5 does. Each further
# relation adds at least one derivable relation besides its own fact (the
# fold of the whole chain), so no longer chain does either.
MAX_CHAIN_DEPTH = 4


def _sample_chain(
    rng: random.Random, depth: int, fits: dict[tuple[str, ...], bool]
) -> tuple[list[str], str]:
    """Relation sequence whose left fold stays inside the vocabulary.

    ``fits`` keeps, for each chain drawn before, whether its derivable
    relations stay within ``_MAX_DERIVABLE``: most draws are rejected, and
    the same chains recur.
    """
    while True:
        relations = [rng.choice(_SORTED)]
        folded = relations[0]
        ok = True
        for _ in range(depth - 1):
            options = _FOLLOWERS[folded]
            if not options:
                ok = False
                break
            nxt = rng.choice(options)
            relations.append(nxt)
            folded = _COMPOSED[(folded, nxt)]
        if not ok:
            continue
        chain = tuple(relations)
        if chain not in fits:
            fits[chain] = len(derivable_relations(relations)) - depth <= _MAX_DERIVABLE
        if fits[chain]:
            return relations, folded


def _story(facts: list[tuple[str, str, str]], query: tuple[str, str, str]) -> str:
    lines = [f"{x} is the {rel} of {y}." for rel, x, y in facts]
    rel, x, y = query
    lines.append(f"Is {x} the {rel} of {y}?")
    return " ".join(lines)


def generate_kinship(
    count: int, chain_depth: int, seed: int, validate: bool = True
) -> tuple[list[Problem], OracleKB]:
    """Generate problems with depths cycling over 2..chain_depth, where
    chain_depth is at most ``MAX_CHAIN_DEPTH``.

    Labels are balanced exactly: half the problems query the true derived
    relation (label true), the rest a uniformly random different relation
    between the same two people (label false). With ``validate`` (the
    default) every problem is checked to be decided, with the matching
    verdict, once the withheld rules are restored; ``validate=False`` skips
    that check.

    Facts, queries and exclusion axioms are built as formula values, equal
    to what parsing their text gives; only the composition rules are parsed.
    """
    if not 2 <= chain_depth <= MAX_CHAIN_DEPTH:
        raise ArgosError(
            f"chain_depth must be between 2 and {MAX_CHAIN_DEPTH}, got {chain_depth}"
        )
    if count < 0:
        raise ArgosError("count must be non-negative")
    rng = random.Random(seed)
    labels = [True] * (count // 2) + [False] * (count - count // 2)
    rng.shuffle(labels)
    depths = list(range(2, chain_depth + 1))
    exclusions = exclusion_axioms()
    # one value per relation and per person, shared by every problem's facts
    predicates = {r: Predicate(r, 2) for r in _SORTED}
    entities = {name: Entity(name) for name in _NAMES}

    def fact(rel: str, x: str, y: str) -> Formula:
        return AtomNode(Atom(predicates[rel], (entities[x], entities[y])))

    signature: dict[str, int] = {}
    rules: dict[tuple[str, str], Formula] = {}  # each withheld rule parsed once, shared
    fits: dict[tuple[str, ...], bool] = {}
    problems = []
    for i in range(count):
        depth = depths[i % len(depths)]
        relations, folded = _sample_chain(rng, depth, fits)
        people = rng.sample(_NAMES, depth + 1)
        facts = [
            (relations[j], people[j], people[j + 1]) for j in range(depth)
        ]
        label = labels[i]
        query = (folded if label else rng.choice(_OTHERS[folded]), people[0], people[-1])
        used: dict[tuple[str, str], Formula] = {}  # in order of first use
        folded_so_far = relations[0]
        for r in relations[1:]:
            pair = (folded_so_far, r)
            folded_so_far = _COMPOSED[pair]
            if pair not in rules:
                text = composition_rule_text(*pair, folded_so_far)
                rules[pair] = parse_formula(text, signature=signature)
            used[pair] = rules[pair]
        problem = Problem(
            id=f"kinship-{seed}-{i:04d}",
            entities={entities[p] for p in people},
            premises=[fact(*f) for f in facts] + exclusions,
            query=fact(*query),
            text=_story(facts, query),
            gold_label=label,
            withheld_rules=list(used.values()),
        )
        if validate:
            check_restored(problem, problem.id)
        problems.append(problem)
    return problems, kinship_kb(seed=seed)
