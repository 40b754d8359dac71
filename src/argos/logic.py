"""Logical structures: entities, predicates, atoms, literals, formula trees
and the Horn rules that the oracle holds and the clause search abduces.

Everything here is immutable and hashable, so values can be shared freely
across threads. Grounding (quantifier expansion over a finite entity
universe) also lives here. Concrete syntax is handled by :mod:`argos.parser`,
clause-form conversion by :mod:`argos.cnf`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .errors import ArityError, GroundingError


@dataclass(frozen=True, slots=True)
class Entity:
    """A constant symbol (case-sensitive)."""

    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("entity name must be non-empty")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Var:
    """A quantified variable occurring inside a formula."""

    name: str

    def __str__(self) -> str:
        return self.name


Term = Union[Entity, Var]


@dataclass(frozen=True, slots=True)
class Predicate:
    """A relation symbol with a fixed arity (0-ary acts as a plain proposition)."""

    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate applied to terms; ground when every term is an Entity."""

    predicate: Predicate
    args: tuple

    def __post_init__(self):
        if len(self.args) != self.predicate.arity:
            raise ArityError(
                f"{self.predicate.name} expects {self.predicate.arity} "
                f"argument(s), got {len(self.args)}"
            )

    @property
    def is_ground(self) -> bool:
        return all(isinstance(a, Entity) for a in self.args)

    def entities(self) -> frozenset[Entity]:
        return frozenset(a for a in self.args if isinstance(a, Entity))

    def __str__(self) -> str:
        if not self.args:
            return self.predicate.name
        return f"{self.predicate.name}({', '.join(str(a) for a in self.args)})"


def make_atom(name: str, *args: Term) -> Atom:
    return Atom(Predicate(name, len(args)), tuple(args))


@dataclass(frozen=True, slots=True)
class Literal:
    """A signed atom: the unit of the backbone and of abduced clauses."""

    atom: Atom
    positive: bool = True

    def negate(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    @property
    def is_ground(self) -> bool:
        return self.atom.is_ground

    def entities(self) -> frozenset[Entity]:
        return self.atom.entities()

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"~{self.atom}"


def lit(name: str, *args: Term, positive: bool = True) -> Literal:
    return Literal(make_atom(name, *args), positive)


# --- formula trees ---------------------------------------------------------


class Formula:
    """Base class for formula nodes. Subclasses are frozen dataclasses."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True, slots=True)
class AtomNode(Formula):
    atom: Atom


@dataclass(frozen=True, slots=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


class _WeaklyReferable(Formula):
    """A rule_memo entry lives only as long as its formula. Only ForAll needs
    this slot: it would make every other node bigger."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class ForAll(_WeaklyReferable):
    var: Var
    body: Formula


@dataclass(frozen=True, slots=True)
class Exists(Formula):
    var: Var
    body: Formula


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-fold a sequence into a conjunction; singletons pass through."""
    parts = list(parts)
    if not parts:
        raise ValueError("conj() of nothing")
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        raise ValueError("disj() of nothing")
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def lit_to_formula(l: Literal) -> Formula:
    node: Formula = AtomNode(l.atom)
    return node if l.positive else Not(node)


def formula_to_literal(f: Formula) -> Literal | None:
    """Inverse of lit_to_formula, squashing double negation; None if compound."""
    positive = True
    while isinstance(f, Not):
        positive = not positive
        f = f.operand
    if isinstance(f, AtomNode):
        return Literal(f.atom, positive)
    return None


def iter_atoms(f: Formula) -> Iterator[Atom]:
    """Yield every atom occurrence, left to right."""
    if isinstance(f, AtomNode):
        yield f.atom
    elif isinstance(f, Not):
        yield from iter_atoms(f.operand)
    elif isinstance(f, (And, Or, Implies, Iff)):
        yield from iter_atoms(f.left)
        yield from iter_atoms(f.right)
    elif isinstance(f, (ForAll, Exists)):
        yield from iter_atoms(f.body)
    else:
        raise TypeError(f"not a formula node: {f!r}")


def formula_entities(f: Formula) -> frozenset[Entity]:
    out: set[Entity] = set()
    for atom in iter_atoms(f):
        out.update(atom.entities())
    return frozenset(out)


# --- per-rule memos ----------------------------------------------------------

RULE_MEMO_SIZE = 4096  # entries a memo holds before it is cleared


def rule_memo():
    """A memo for a pure function of formulas: ``memo(fn, f)`` is ``fn(f)``,
    computed once per universally quantified formula object.

    A suite's problems share one rule base: a generator or loader builds
    each rule once and lists the same object in every problem, while facts
    and queries are new per problem. So the memo keeps ``fn(f)`` for a
    ``ForAll`` formula, keyed by ``id(f)``, and calls ``fn`` straight
    through for any other formula. Equality would be the wrong key: a rule's
    hash recurses through its frozen dataclasses in Python and costs about
    as much as the work it would save. The memo is a closure, not an object
    with ``__call__``, because calling one costs less, and a plain clause
    set sends every one of its clauses through it.

    An entry holds a weak reference to its formula and is read only for
    that same object. It is dropped when the formula dies, before the id
    can be reused, so a memo never keeps the rules of a suite that is gone,
    and threads that race on it may compute a value twice but never read a
    wrong one. ``memo.entries`` holds at most :data:`RULE_MEMO_SIZE` of
    them and is cleared when full. Each memo serves one function, and its
    values must be immutable, because every caller gets the same one.
    """
    entries: dict[int, tuple] = {}

    def memo(fn, f):
        if not isinstance(f, ForAll):
            return fn(f)
        key = id(f)
        entry = entries.get(key)
        if entry is not None and entry[0]() is f:
            return entry[1]
        value = fn(f)
        if len(entries) >= RULE_MEMO_SIZE:
            entries.clear()

        def drop(ref):
            if entries.get(key, (None,))[0] is ref:
                entries.pop(key, None)

        entries[key] = (weakref.ref(f, drop), value)
        return value

    memo.entries = entries
    return memo


RULE_ENTITIES = rule_memo()  # formula_entities


# --- Horn rules --------------------------------------------------------------


@dataclass(frozen=True)
class HornRule:
    """Up to two antecedent literals imply one consequent literal.

    The one rule shape: the oracle's rule base holds pattern rules over
    variables, and the clause search abduces ground ones.
    """

    antecedent: tuple[Literal, ...]
    consequent: Literal

    @property
    def literals(self) -> tuple[Literal, ...]:
        return self.antecedent + (self.consequent,)

    def entities(self) -> frozenset[Entity]:
        return frozenset(e for l in self.literals for e in l.entities())

    def key(self) -> tuple:
        return (frozenset(self.antecedent), self.consequent)

    def to_formula(self) -> Formula:
        """The implication, universally closed over its variables in name order."""
        body = lit_to_formula(self.consequent)
        if self.antecedent:
            body = Implies(conj(lit_to_formula(l) for l in self.antecedent), body)
        names = {a.name for l in self.literals for a in l.atom.args if isinstance(a, Var)}
        for name in sorted(names, reverse=True):
            body = ForAll(Var(name), body)
        return body

    @classmethod
    def from_formula(cls, f: Formula) -> Optional["HornRule"]:
        """Horn reading of a formula, or None when it does not fit the shape
        (an existential never does)."""
        while isinstance(f, ForAll):
            f = f.body
        if not isinstance(f, Implies):
            l = formula_to_literal(f)
            return None if l is None else cls((), l)
        antecedent: list[Literal] = []
        parts = [f.left]
        while parts:
            part = parts.pop()
            if isinstance(part, And):
                parts += [part.right, part.left]
                continue
            l = formula_to_literal(part)
            if l is None:
                return None
            antecedent.append(l)
        consequent = formula_to_literal(f.right)
        if consequent is None or len(antecedent) > 2:
            return None
        return cls(tuple(antecedent), consequent)

    def __str__(self) -> str:
        if not self.antecedent:
            return str(self.consequent)
        return " & ".join(str(l) for l in self.antecedent) + f" -> {self.consequent}"


# --- grounding -------------------------------------------------------------

DEPTH_LIMIT = 8  # quantifier nesting that grounding expands


def ground(f: Formula, universe: Iterable[Entity]) -> Formula:
    """Expand quantifiers over a finite universe.

    Every ``forall x phi`` becomes a conjunction over the universe and every
    ``exists x phi`` a disjunction; the result contains no quantifiers or
    variables. Entities are instantiated in sorted name order so the output
    is deterministic. An empty universe is an error as soon as a quantifier
    needs expanding; purely propositional formulas pass through unchanged.
    """
    members = sorted(set(universe), key=lambda e: e.name)

    def sub_atom(atom: Atom, env: dict[str, Entity]) -> Atom:
        new_args = []
        for a in atom.args:
            if isinstance(a, Var):
                if a.name not in env:
                    raise GroundingError(f"unbound variable {a.name!r} in {atom}")
                new_args.append(env[a.name])
            else:
                new_args.append(a)
        return Atom(atom.predicate, tuple(new_args))

    def g(node: Formula, env: dict[str, Entity], depth: int) -> Formula:
        if isinstance(node, AtomNode):
            return AtomNode(sub_atom(node.atom, env))
        if isinstance(node, Not):
            return Not(g(node.operand, env, depth))
        if isinstance(node, (And, Or, Implies, Iff)):
            return type(node)(g(node.left, env, depth), g(node.right, env, depth))
        if isinstance(node, (ForAll, Exists)):
            if not members:
                raise GroundingError("cannot ground a quantified formula over an empty universe")
            if depth + 1 > DEPTH_LIMIT:
                raise GroundingError(f"quantifier nesting exceeds depth limit {DEPTH_LIMIT}")
            parts = [
                g(node.body, {**env, node.var.name: e}, depth + 1) for e in members
            ]
            return conj(parts) if isinstance(node, ForAll) else disj(parts)
        raise TypeError(f"not a formula node: {node!r}")

    return g(f, {}, 0)


# --- printing --------------------------------------------------------------

_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_NOT = 5
_PREC_ATOM = 6


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse(format(f)) rebuilds f exactly."""
    return _fmt(f, 0)


def _fmt(f: Formula, parent_prec: int) -> str:
    if isinstance(f, AtomNode):
        return str(f.atom)
    if isinstance(f, Not):
        text = "~" + _fmt(f.operand, _PREC_NOT)
        prec = _PREC_NOT
    elif isinstance(f, And):
        # left-associative: equal precedence on the right needs parens
        text = _fmt(f.left, _PREC_AND) + " & " + _fmt(f.right, _PREC_AND + 1)
        prec = _PREC_AND
    elif isinstance(f, Or):
        text = _fmt(f.left, _PREC_OR) + " | " + _fmt(f.right, _PREC_OR + 1)
        prec = _PREC_OR
    elif isinstance(f, Implies):
        # right-associative: equal precedence on the left needs parens
        text = _fmt(f.left, _PREC_IMPLIES + 1) + " -> " + _fmt(f.right, _PREC_IMPLIES)
        prec = _PREC_IMPLIES
    elif isinstance(f, Iff):
        text = _fmt(f.left, _PREC_IFF + 1) + " <-> " + _fmt(f.right, _PREC_IFF)
        prec = _PREC_IFF
    elif isinstance(f, (ForAll, Exists)):
        kw = "forall" if isinstance(f, ForAll) else "exists"
        if isinstance(f.body, (ForAll, Exists)):
            body = _fmt(f.body, 0)
        else:
            body = "(" + _fmt(f.body, 0) + ")"
        text = f"{kw} {f.var.name} {body}"
        prec = _PREC_ATOM
    else:
        raise TypeError(f"not a formula node: {f!r}")
    if prec < parent_prec:
        return "(" + text + ")"
    return text
