"""Equisatisfiable clause-form conversion for ground formulas.

Complex subformulas get definitional auxiliary variables with full
biconditional encodings, so models of the clause set project exactly onto
models of the source formulas. Auxiliary variables are tracked separately:
the backbone and the abduction search never see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import GroundingError
from .logic import And, Atom, AtomNode, Formula, Iff, Implies, Not, Or


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

    def atom_of(self, var: int) -> Optional[Atom]:
        rev = getattr(self, "_rev", None)
        if rev is None or len(rev) != len(self.var_map):
            rev = {v: a for a, v in self.var_map.items()}
            self._rev = rev
        return rev.get(var)

    def to_dimacs(self, comments: bool = True) -> str:
        """Standard DIMACS CNF rendering for cross-checks with external solvers."""
        lines = []
        if comments:
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
    """Incrementally encode ground formulas into one ClauseSet."""

    def __init__(self):
        self.cs = ClauseSet()
        self._defs: dict[Formula, int] = {}

    def atom_var(self, atom: Atom) -> int:
        v = self.cs.var_map.get(atom)
        if v is None:
            self.cs.num_vars += 1
            v = self.cs.num_vars
            self.cs.var_map[atom] = v
        return v

    def new_aux(self) -> int:
        self.cs.num_vars += 1
        self.cs.aux_vars.add(self.cs.num_vars)
        return self.cs.num_vars

    def _add(self, clause: list[int]) -> None:
        self.cs.clauses.append(clause)

    def encode(self, f: Formula) -> int:
        """Return a literal equivalent to f, adding definitional clauses."""
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
        """Constrain the clause set so that f must hold (only while ``guard``
        is true, when given: every clause asserted for f then holds -guard)."""
        off = [] if guard is None else [-guard]
        f = _squash(f)
        if isinstance(f, And):
            self.assert_formula(f.left, guard)
            self.assert_formula(f.right, guard)
            return
        if isinstance(f, Iff):
            x = self.encode(f.left)
            y = self.encode(f.right)
            self._add([-x, y] + off)
            self._add([x, -y] + off)
            return
        self._add([self.encode(d) for d in _disjuncts(f)] + off)


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

