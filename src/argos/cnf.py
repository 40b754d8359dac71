"""Clause-form conversion: quantified clauses as literal templates, and a
definitional (Tseitin) encoding for every other formula.

A universally quantified clause is a ``forall`` prefix over a disjunction of
literals, reached through Or, Implies, Not and negated And, as in
``forall x forall y (aunt(x, y) -> ~brother(x, y))``. Each such formula
object compiles once per process into a literal template, with the readers
that pick each instance's atoms (:func:`argos.logic.rule_memo`): a suite's
problems share their rule objects, so a builder only interns the template's
predicates and constants. Its instances over the universe go straight into
integer clauses: no ground formula tree is built, and an atom already seen
is found by its predicate and entity ids without building it again. Each
template is expanded once per guard: one with the same signed literals and
bound names as a template expanded before, such as the mirror
``forall x forall y (brother(x, y) -> ~aunt(x, y))`` of the clause above,
adds nothing. Single instances are not deduplicated: a clause that two
templates overlapping only in part both produce is asserted twice, which
changes no model. A quantifier-free clause becomes one clause, literals in
written order, with no auxiliary variable and no deduplication.

Every other formula (an ``Exists``, an ``Iff``, a non-clausal body) is
grounded by :func:`argos.logic.ground`, with its errors, and encoded with
definitional auxiliary variables whose full biconditional encodings make
models of the clause set project exactly onto models of the source
formulas. Auxiliary variables are tracked separately: the backbone and the
abduction search never see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import Iterable, Optional

from . import logic
from .errors import GroundingError
from .logic import And, Atom, AtomNode, Entity, ForAll, Formula, Iff, Implies, Not, Or, Var


@dataclass
class ClauseSet:
    """CNF clauses over 1-indexed variables (negative int = negated).

    ``var_map`` is a bijection between ground atoms and the non-auxiliary
    variables; ``aux_vars`` holds the definitional variables introduced by
    normalization.
    """

    clauses: list[list[int]] = field(default_factory=list)
    var_map: dict[Atom, int] = field(default_factory=dict)
    aux_vars: set[int] = field(default_factory=set)
    num_vars: int = 0

    def to_dimacs(self) -> str:
        """Standard DIMACS CNF rendering for cross-checks with external solvers,
        with comment lines naming each atom's variable and the aux variables."""
        lines = []
        for atom, v in sorted(self.var_map.items(), key=lambda kv: kv[1]):
            lines.append(f"c var {v} = {atom}")
        if self.aux_vars:
            aux = " ".join(str(v) for v in sorted(self.aux_vars))
            lines.append(f"c aux {aux}")
        lines.append(f"p cnf {self.num_vars} {len(self.clauses)}")
        for cl in self.clauses:
            lines.append(" ".join(str(l) for l in cl) + " 0")
        return "\n".join(lines) + "\n"


class CnfBuilder:
    """Incrementally encode formulas into one ClauseSet; quantified formulas
    range over the universe ``members``."""

    def __init__(self, members: Iterable[Entity] = ()):
        self.cs = ClauseSet()
        self._defs: dict[Formula, int] = {}
        self._ids: dict[object, int] = {}  # predicate or term -> symbol id
        self._symbols: list = []  # symbol id -> predicate or term
        self._atom_vars: dict[tuple[int, ...], int] = {}  # (predicate id, *term ids) -> var
        self._expanded: set[tuple] = set()  # keys of the templates expanded so far
        self._members = sorted(set(members), key=lambda e: e.name)
        self._member_ids = tuple(map(self._intern, self._members))

    def _intern(self, symbol) -> int:
        i = self._ids.get(symbol)
        if i is None:
            i = self._ids[symbol] = len(self._symbols)
            self._symbols.append(symbol)
        return i

    def atom_var(self, atom: Atom) -> int:
        v = self.cs.var_map.get(atom)
        if v is None:
            key = tuple(map(self._intern, (atom.predicate,) + atom.args))
            v = self._new_atom_var(atom, key)
        return v

    def _new_atom_var(self, atom: Atom, key: tuple[int, ...]) -> int:
        self.cs.num_vars += 1
        v = self.cs.num_vars
        self.cs.var_map[atom] = v
        self._atom_vars[key] = v
        return v

    def new_aux(self) -> int:
        self.cs.num_vars += 1
        self.cs.aux_vars.add(self.cs.num_vars)
        return self.cs.num_vars

    def _add(self, clause: list[int]) -> None:
        self.cs.clauses.append(clause)

    def encode(self, f: Formula) -> int:
        """Return a literal equivalent to the ground formula f, adding
        definitional clauses."""
        f = _squash(f)
        if isinstance(f, AtomNode):
            return self.atom_var(f.atom)
        if isinstance(f, Not):
            return -self.encode(f.operand)
        if not isinstance(f, (And, Or, Implies, Iff)):
            raise GroundingError(
                "formulas must be grounded before clause conversion"
            )
        cached = self._defs.get(f)
        if cached is not None:
            return cached
        x = self.encode(f.left)
        y = self.encode(f.right)
        d = self.new_aux()
        if isinstance(f, And):
            self._add([-d, x])
            self._add([-d, y])
            self._add([d, -x, -y])
        elif isinstance(f, Or):
            self._add([-d, x, y])
            self._add([d, -x])
            self._add([d, -y])
        elif isinstance(f, Implies):
            self._add([-d, -x, y])
            self._add([d, x])
            self._add([d, -y])
        else:
            self._add([-d, -x, y])
            self._add([-d, x, -y])
            self._add([d, x, y])
            self._add([d, -x, -y])
        self._defs[f] = d
        return d

    def assert_formula(self, f: Formula, guard: Optional[int] = None) -> None:
        """Constrain the clause set so that f holds over the universe, only
        while ``guard`` is true when one is given: every clause asserted for
        f then holds -guard."""
        off = [] if guard is None else [-guard]
        parts = [f]
        while parts:
            g = _squash(parts.pop())
            if isinstance(g, And):
                parts += [g.right, g.left]
                continue
            template = _TEMPLATES(_template, g)
            if template is None or (template[0] and not self._members):
                self._assert_ground(logic.ground(g, self._members), off)
                continue
            names, literals, instances_key, readers, tail = template
            if names:
                self._assert_instances(len(names), instances_key, readers, tail, off)
            else:
                clause = [self.atom_var(a) if pos else -self.atom_var(a) for a, pos in literals]
                self._add(clause + off)

    def _assert_instances(
        self, k: int, instances_key: tuple, readers: tuple, tail: tuple, off
    ) -> None:
        """One clause per assignment of the universe to a template's ``k``
        names (the first name outermost, as :func:`argos.logic.ground`
        expands them); see :func:`_template` for the other arguments.

        A template with the same signed literals, bound names and guard as
        one expanded before has only instances asserted before, so it is not
        expanded again.
        """
        key = (instances_key, tuple(off))
        if key in self._expanded:
            return
        self._expanded.add(key)
        tail_ids = tuple(map(self._intern, tail))
        atom_vars, clauses, symbols = self._atom_vars, self.cs.clauses, self._symbols
        for combo in product(self._member_ids, repeat=k):
            vals = combo + tail_ids
            clause = []
            for read, positive, predicate in readers:
                key = read(vals)
                v = atom_vars.get(key)
                if v is None:
                    atom = Atom(predicate, tuple(symbols[i] for i in key[1:]))
                    v = self._new_atom_var(atom, key)
                clause.append(v if positive else -v)
            clause += off
            clauses.append(clause)

    def _assert_ground(self, f: Formula, off: list[int]) -> None:
        """The tree encoding of a ground formula."""
        f = _squash(f)
        if isinstance(f, And):
            self._assert_ground(f.left, off)
            self._assert_ground(f.right, off)
            return
        if isinstance(f, Iff):
            x = self.encode(f.left)
            y = self.encode(f.right)
            self._add([-x, y] + off)
            self._add([x, -y] + off)
            return
        self._add([self.encode(d) for d in _disjuncts(f)] + off)


def _template(f: Formula) -> Optional[tuple]:
    """A universally quantified clause compiled apart from any builder, or
    None when f is not one that the template path takes: a repeated or
    unbound variable name, or more than :data:`argos.logic.DEPTH_LIMIT`
    quantifiers, go to ``ground``.

    The template is ``(names, literals, instances_key, readers, tail)``:
    the bound names, outermost first, and the signed atoms in written order.
    When there are names, ``instances_key`` is what two templates with the
    same instances share, and ``readers`` hold, per literal, an
    ``itemgetter`` that picks its atom's key out of ``combo + tail ids``,
    its sign and its predicate. ``combo`` holds the entity ids of one
    assignment, and ``tail`` the predicates and constants that a builder
    interns, in the order it interns them. A quantifier-free clause has
    None for the last three.
    """
    names = []
    while isinstance(f, ForAll):
        names.append(f.var.name)
        f = f.body
    if len(names) > logic.DEPTH_LIMIT or len(set(names)) < len(names):
        return None
    literals = _clause_literals(f, True)
    if literals is None:
        return None
    bound = set(names)
    for atom, _ in literals:
        for a in atom.args:
            if isinstance(a, Var) and a.name not in bound:
                return None
    if not names:
        return (), literals, None, None, None
    k = len(names)
    slot = {name: i for i, name in enumerate(names)}
    tail: list = []
    readers = []
    for atom, positive in literals:
        positions = [k + len(tail)]
        tail.append(atom.predicate)
        for a in atom.args:
            if isinstance(a, Var):
                positions.append(slot[a.name])
            else:
                positions.append(k + len(tail))
                tail.append(a)
        if len(positions) == 1:  # keyed by its predicate id alone, still a tuple
            read = itemgetter(slice(positions[0], positions[0] + 1))
        else:
            read = itemgetter(*positions)
        readers.append((read, positive, atom.predicate))
    key = (frozenset(literals), frozenset(names))
    return tuple(names), tuple(literals), key, tuple(readers), tuple(tail)


_TEMPLATES = logic.rule_memo()  # _template


def _clause_literals(f: Formula, positive: bool) -> Optional[list[tuple[Atom, bool]]]:
    """The literals of the disjunction equivalent to f (to ~f when not
    ``positive``), left to right, or None when there is none."""
    if isinstance(f, AtomNode):
        return [(f.atom, positive)]
    if isinstance(f, Not):
        return _clause_literals(f.operand, not positive)
    if positive and isinstance(f, Or):
        left, right = _clause_literals(f.left, True), _clause_literals(f.right, True)
    elif positive and isinstance(f, Implies):
        left, right = _clause_literals(f.left, False), _clause_literals(f.right, True)
    elif not positive and isinstance(f, And):
        left, right = _clause_literals(f.left, False), _clause_literals(f.right, False)
    else:
        return None
    if left is None or right is None:
        return None
    return left + right


def _squash(f: Formula) -> Formula:
    while isinstance(f, Not) and isinstance(f.operand, Not):
        f = f.operand.operand
    return f


def _disjuncts(f: Formula) -> list[Formula]:
    f = _squash(f)
    if isinstance(f, Or):
        return _disjuncts(f.left) + _disjuncts(f.right)
    if isinstance(f, Implies):
        return _disjuncts(Not(f.left)) + _disjuncts(f.right)
    return [f]

