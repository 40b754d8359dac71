"""Independent reference implementations used to check the real ones.

The truth-table oracles work by exhaustive enumeration, bit-parallel over
Python bigints: assignment index i has variable v true iff bit v of i is
set, and a formula evaluates to a 2**n-bit mask of its models. None of them
shares any code path with the CDCL kernel or the clause-form builder.

The other references are the plain forms of optimised code: the harness
checks, each on a fresh grounding and fresh one-shot solves, the naive
forward-chaining loop of the oracle backend, the oracle's rule lookup
scanning every rule, its clause scorer unifying every rule's consequent and
trying each ordering of the clause's antecedent, the clause search's pair
order scored one literal pair at a time by the entity-overlap relation
``related``, its generation targets built in full and sorted, the kernel's
clause loader taking one clause at a time, and the kinship generator's
relation chains enumerated in full.
"""

from __future__ import annotations

import itertools
import random
from argos.backends import _bind, _instantiate, _unify
from argos.errors import ArgosError
from argos.kinship import _MAX_DERIVABLE, RELATIONS, compose, derivable_relations
from argos.logic import (
    And,
    Atom,
    AtomNode,
    Entity,
    Exists,
    ForAll,
    Formula,
    HornRule,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    formula_to_literal,
    ground,
)
from argos.sat import ENTAILS_NOT_QUERY, ENTAILS_QUERY, SatSession


def var_column(v: int, n: int) -> int:
    """Bigint truth-table column for variable v among n variables."""
    block = (1 << (1 << v)) - 1  # 2^v ones
    period = 1 << (v + 1)
    col = 0
    for start in range(1 << v, 1 << n, period):
        col |= block << start
    return col


def cnf_models_mask(clauses: list[list[int]], n: int) -> int:
    """Bitmask of satisfying assignments of a signed-int CNF over vars 1..n."""
    full = (1 << (1 << n)) - 1
    cols = {v: var_column(v - 1, n) for v in range(1, n + 1)}
    mask = full
    for cl in clauses:
        cmask = 0
        for l in cl:
            c = cols[abs(l)]
            cmask |= c if l > 0 else (full & ~c)
        mask &= cmask
    return mask


def brute_force_sat(clauses: list[list[int]], n: int) -> bool:
    return cnf_models_mask(clauses, n) != 0


def brute_force_backbone(clauses: list[list[int]], n: int) -> set[int]:
    """Signed backbone literals = intersection of all models. Empty set if unsat."""
    full = (1 << (1 << n)) - 1
    mask = cnf_models_mask(clauses, n)
    if mask == 0:
        return set()
    out = set()
    for v in range(1, n + 1):
        col = var_column(v - 1, n)
        if mask & ~col == 0:
            out.add(v)
        elif mask & col == 0:
            out.add(-v)
    return out


def random_3cnf(rng: random.Random, n: int, m: int) -> list[list[int]]:
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


# --- the kernel's clause loader, one clause at a time ----------------------------


def reference_add_clause(solver, lits) -> bool:
    """Load one clause into a ``_satcore.Solver`` at level 0, as the kernel
    loaded clauses before ``add_clauses``: every variable declared first,
    then one value lookup per literal."""
    if not solver.ok:
        return False
    for l in lits:
        solver.ensure_vars(abs(l))
    internal, seen_here = [], set()
    for l in lits:
        il = (l << 1) if l > 0 else (((-l) << 1) | 1)
        if il ^ 1 in seen_here:
            return True  # tautology
        if il in seen_here:
            continue
        val = solver.value[il]
        if val == 1 and solver.level[il >> 1] == 0:
            return True  # already satisfied forever
        if val == 0 and solver.level[il >> 1] == 0:
            continue  # falsified forever, drop literal
        seen_here.add(il)
        internal.append(il)
    if not internal:
        solver.ok = False
        return False
    if len(internal) == 1:
        l = internal[0]
        if solver.value[l] == 0:
            solver.ok = False
            return False
        if solver.value[l] == -1:
            solver._enqueue(l, None)
        return True
    solver.clauses.append(internal)
    solver.watches[internal[0]].append(internal)
    solver.watches[internal[1]].append(internal)
    return True


# --- semantic evaluation of (possibly quantified) formulas -----------------


def collect_ground_atoms(f: Formula, universe: list[Entity]) -> list[Atom]:
    """All ground atoms obtainable by instantiating the formula's atoms."""
    out: set[Atom] = set()

    def assignments(args, env):
        if not args:
            yield ()
            return
        head, *rest = args
        if isinstance(head, Var):
            if head.name in env:
                for tail in assignments(rest, env):
                    yield (env[head.name], *tail)
            else:
                for c in universe:
                    for tail in assignments(rest, {**env, head.name: c}):
                        yield (c, *tail)
        else:
            for tail in assignments(rest, env):
                yield (head, *tail)

    def walk(node):
        if isinstance(node, AtomNode):
            for ground_args in assignments(list(node.atom.args), {}):
                out.add(Atom(node.atom.predicate, ground_args))
        elif isinstance(node, Not):
            walk(node.operand)
        elif isinstance(node, (And, Or, Implies, Iff)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (ForAll, Exists)):
            walk(node.body)
    walk(f)
    return sorted(out, key=str)


def semantic_models_mask(f: Formula, universe: list[Entity]) -> tuple[int, list[Atom]]:
    """Evaluate a quantified formula directly over all ground-atom assignments.

    Returns (mask, atoms): bit i of mask is set iff the assignment where
    atom j is true exactly when bit j of i is set satisfies the formula
    under finite-universe quantifier semantics. Independent of ground().
    """
    atoms = collect_ground_atoms(f, universe)
    n = len(atoms)
    full = (1 << (1 << n)) - 1
    col = {a: var_column(j, n) for j, a in enumerate(atoms)}

    def ev(node, env) -> int:
        if isinstance(node, AtomNode):
            args = tuple(env[a.name] if isinstance(a, Var) else a for a in node.atom.args)
            return col[Atom(node.atom.predicate, args)]
        if isinstance(node, Not):
            return full & ~ev(node.operand, env)
        if isinstance(node, And):
            return ev(node.left, env) & ev(node.right, env)
        if isinstance(node, Or):
            return ev(node.left, env) | ev(node.right, env)
        if isinstance(node, Implies):
            return (full & ~ev(node.left, env)) | ev(node.right, env)
        if isinstance(node, Iff):
            l, r = ev(node.left, env), ev(node.right, env)
            return (l & r) | (full & ~l & ~r)
        if isinstance(node, ForAll):
            out = full
            for e in universe:
                out &= ev(node.body, {**env, node.var.name: e})
            return out
        if isinstance(node, Exists):
            out = 0
            for e in universe:
                out |= ev(node.body, {**env, node.var.name: e})
            return out
        raise TypeError(node)

    return ev(f, {}), atoms


def semantically_satisfiable(f: Formula, universe: list[Entity]) -> bool:
    mask, _ = semantic_models_mask(f, universe)
    return mask != 0


# --- random formula generation ----------------------------------------------


def random_quantified_formula(
    rng: random.Random,
    universe: list[Entity],
    max_quantifiers: int = 3,
    max_atoms: int = 10,
) -> Formula:
    """Random formula over a small fixed signature: p/1, q/2, r/0."""
    preds = [("p", 1), ("q", 2), ("r", 0)]
    budget = [rng.randint(2, max_atoms)]
    quants = [max_quantifiers]

    def atom(node_vars):
        name, arity = preds[rng.randrange(len(preds))]
        args = []
        for _ in range(arity):
            if node_vars and rng.random() < 0.6:
                args.append(Var(rng.choice(node_vars)))
            else:
                args.append(rng.choice(universe))
        from argos.logic import Predicate

        return AtomNode(Atom(Predicate(name, arity), tuple(args)))

    def build(node_vars, depth):
        budget[0] -= 1
        if budget[0] <= 0 or (depth > 4 and rng.random() < 0.7):
            return atom(node_vars)
        roll = rng.random()
        if roll < 0.15 and quants[0] > 0:
            quants[0] -= 1
            vname = f"x{max_quantifiers - quants[0]}"
            cls = ForAll if rng.random() < 0.5 else Exists
            return cls(Var(vname), build(node_vars + [vname], depth + 1))
        if roll < 0.3:
            return Not(build(node_vars, depth + 1))
        cls = rng.choice([And, Or, Implies, Iff])
        return cls(build(node_vars, depth + 1), build(node_vars, depth + 1))

    return build([], 0)


def random_ground_formula(rng: random.Random, num_atoms: int = 6) -> Formula:
    """Random quantifier-free formula over 0-ary atoms a1..aN."""
    from argos.logic import Predicate

    atoms = [AtomNode(Atom(Predicate(f"a{i}", 0), ())) for i in range(1, num_atoms + 1)]

    def build(depth):
        if depth > 3 or rng.random() < 0.3:
            return rng.choice(atoms)
        roll = rng.random()
        if roll < 0.2:
            return Not(build(depth + 1))
        cls = rng.choice([And, Or, Implies, Iff])
        return cls(build(depth + 1), build(depth + 1))

    return build(0)


# --- the harness checks, each on a fresh grounding -----------------------------


def fresh_grounding(problem, extra=(), accepted=()):
    """Premises plus ``extra``, and the query, ground over the problem's
    universe and every entity that the ``accepted`` clauses name."""
    universe = set(problem.universe())
    for clause in accepted:
        universe |= clause.entities()
    premises = [ground(f, universe) for f in list(problem.premises) + list(extra)]
    return premises, ground(problem.query, universe)


def reference_corruption(problem, accepted, kb=None) -> bool:
    """Whether ``accepted`` changes the verdict once the withheld rules (or
    the rule base) are restored, from two one-shot solves."""
    restored = list(problem.withheld_rules) or kb.formulas()
    premises, query = fresh_grounding(problem, restored, accepted)
    base, _ = SatSession(premises, query).decide(with_backbone=False)
    assert base.verdict in (ENTAILS_QUERY, ENTAILS_NOT_QUERY)
    clauses = [c.to_formula() for c in accepted]
    augmented, _ = SatSession(premises + clauses, query).decide(with_backbone=False)
    return augmented.verdict != base.verdict


def reference_useful_count(problem, result) -> int:
    """Leave-one-out over the accepted clauses, one one-shot solve each."""
    if result.decided_by != "sat" or not result.commonsense:
        return 0
    premises, query = fresh_grounding(problem, accepted=result.commonsense)
    clauses = [c.to_formula() for c in result.commonsense]

    def verdict(kept):
        return SatSession(premises + kept, query).decide(with_backbone=False)[0].verdict

    full = verdict(clauses)
    return sum(
        1 for i in range(len(clauses)) if verdict(clauses[:i] + clauses[i + 1 :]) != full
    )


# --- the clause search's pair order, scored pair by pair -------------------------


def related(l1, l2) -> bool:
    """True iff the two ground literals share at least one entity.

    Symmetric and, for literals with arguments, reflexive. 0-ary literals
    have empty entity sets and are related to nothing.
    """
    if not (l1.is_ground and l2.is_ground):
        raise ValueError("related() requires ground literals")
    return not l1.entities().isdisjoint(l2.entities())


def reference_pair_order(backbone, explicit=()) -> list[tuple]:
    """``engine.pair_order`` with each literal scored against the whole
    backbone, one ``related`` test per pair (0-ary literals score 0), and
    the explicit literals ranked as a block ahead of the derived ones."""

    def score(l):
        if not l.entities():
            return 0
        return sum(1 for other in backbone if related(l, other))

    def ranked(group):
        return sorted(group, key=lambda l: (-score(l), str(l)))

    lits = set(backbone)
    lits = ranked(lits & set(explicit)) + ranked(lits - set(explicit))
    order = [(l1,) if l1 == l2 else (l1, l2) for l1 in lits for l2 in lits]
    order.append(())
    return order


def reference_generation_targets(antecedent, style, cap) -> list:
    """``engine.generation_targets`` building every ordered entity pair,
    sorting the pairs that are not primary by name, and then cutting at ``cap``."""
    if not antecedent:
        return [None]
    entities = sorted({e for l in antecedent for e in l.entities()}, key=lambda e: e.name)
    if not entities:
        return [None]
    if style == "entity":
        return entities[:cap]
    primary = []
    if len(antecedent) == 2:
        s1, s2 = antecedent[0].entities(), antecedent[1].entities()
        shared = s1 & s2
        for a in sorted(s1 - shared, key=lambda e: e.name):
            for b in sorted(s2 - shared, key=lambda e: e.name):
                primary.extend([(a, b), (b, a)])
    seen = set(primary)
    rest = [(a, b) for a in entities for b in entities if a != b and (a, b) not in seen]
    rest.sort(key=lambda p: (p[0].name, p[1].name))
    return (primary + rest)[:cap]


# --- the oracle's rule lookup, one scan over every rule ----------------------------


def reference_matching_consequents(kb, antecedent) -> list:
    """``OracleBackend._matching_consequents`` testing every rule of ``kb``,
    in rule-text order, for a signature within the antecedent's."""
    out, seen = [], set()
    if not antecedent:
        for rule in kb.rules:
            fact = rule.consequent
            if not rule.antecedent and fact.is_ground and fact not in seen:
                seen.add(fact)
                out.append(fact)
        return out
    ante_sig = {(l.atom.predicate, l.positive) for l in antecedent}
    for rule in sorted((r for r in kb.rules if r.antecedent), key=str):
        if not {(l.atom.predicate, l.positive) for l in rule.antecedent} <= ante_sig:
            continue
        if len(rule.antecedent) == 1:
            orders = [(p,) for p in antecedent]
        elif len(antecedent) == 2:
            orders = [(antecedent[0], antecedent[1]), (antecedent[1], antecedent[0])]
        else:
            orders = [(antecedent[0], antecedent[0])]
        for order in orders:
            theta = _bind(rule.antecedent, order, {})
            if theta is None:
                continue
            derived = _instantiate(rule.consequent, theta)
            if derived is not None and derived.is_ground and derived not in seen:
                seen.add(derived)
                out.append(derived)
    return out


def reference_kb_decision(kb, clause):
    """``OracleBackend._kb_decision`` as a scan of every rule, twice: True
    when a rule's consequent unifies with the clause's and its antecedent
    binds to an ordering of the clause's antecedent, False when the same
    holds for the negated consequent, None otherwise."""
    ante = clause.antecedent
    cons = clause.consequent
    for flip, expected in ((False, True), (True, False)):
        want = cons.negate() if flip else cons
        for rule in kb.rules:
            theta0 = _unify(rule.consequent, want, {})
            if theta0 is None:
                continue
            n = len(rule.antecedent)
            if n == 0:
                if _instantiate(rule.consequent, theta0) == want:
                    return expected
                continue
            pool = list(ante)
            if n > len(pool) and len(pool) == 1:
                pool = pool * 2
            if n > len(pool):
                continue
            for order in itertools.permutations(pool, n):
                theta = _bind(rule.antecedent, order, theta0)
                if theta is not None and _instantiate(rule.consequent, theta) == want:
                    return expected
    return None


# --- the kinship generator's chains, enumerated ------------------------------------


def kinship_chains(depth) -> list[list[str]]:
    """Every relation sequence of length ``depth`` that the kinship generator
    may sample: its left fold stays inside the vocabulary at every step, and
    its subchains derive at most ``_MAX_DERIVABLE`` relations beyond its
    facts."""
    chains = [[r] for r in RELATIONS]
    folds = list(RELATIONS)
    for _ in range(depth - 1):
        grown = [(c + [r], compose(f, r)) for c, f in zip(chains, folds) for r in RELATIONS]
        chains = [c for c, f in grown if f is not None]
        folds = [f for _, f in grown if f is not None]
    return [c for c in chains if len(derivable_relations(c)) - depth <= _MAX_DERIVABLE]


# --- naive forward chaining ------------------------------------------------------


def naive_chain(kb, premises, commonsense) -> dict:
    """Least rule-application counts, by joining every rule against every
    fact each round until a round changes nothing."""
    facts = {}
    rules = list(kb.rules)
    for f in premises:
        l = formula_to_literal(f)
        if l is not None and l.is_ground:
            facts[l] = 0
            continue
        try:
            r = HornRule.from_formula(f)
        except ArgosError:
            r = None
        if r is not None and r.antecedent:
            rules.append(r)
    rules.extend(commonsense)
    limit = kb.reasoning_depth
    if limit is not None and limit <= 0:
        return facts
    by_pred = {}

    def index(l):
        by_pred.setdefault((l.atom.predicate, l.positive), []).append(l)

    for l in facts:
        index(l)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if not rule.antecedent:
                derived = rule.consequent
                if derived.is_ground and facts.get(derived, 10**9) > 0:
                    facts[derived] = 0
                    index(derived)
                    changed = True
                continue
            first = rule.antecedent[0]
            for f1 in list(by_pred.get((first.atom.predicate, first.positive), ())):
                th1 = _unify(first, f1, {})
                if th1 is None:
                    continue
                if len(rule.antecedent) == 1:
                    matches = [((f1,), th1)]
                else:
                    second = rule.antecedent[1]
                    matches = []
                    for f2 in list(by_pred.get((second.atom.predicate, second.positive), ())):
                        th2 = _unify(second, f2, th1)
                        if th2 is not None:
                            matches.append(((f1, f2), th2))
                for used, theta in matches:
                    derived = _instantiate(rule.consequent, theta)
                    if derived is None or not derived.is_ground:
                        continue
                    cost = sum(facts[u] for u in used) + 1
                    if limit is not None and cost > limit:
                        continue
                    if cost < facts.get(derived, 10**9):
                        if derived not in facts:
                            index(derived)
                        facts[derived] = cost
                        changed = True
    return facts
