"""Recursive-descent parser for the ASCII formula grammar.

Grammar (precedence ``~`` > ``&`` > ``|`` > ``->`` > ``<->``; ``&``/``|``
left-associative, ``->``/``<->`` right-associative)::

    formula := iff
    iff     := impl ("<->" iff)?
    impl    := or ("->" impl)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | quant | atom | "(" formula ")"
    quant   := ("forall" | "exists") IDENT (quant | "(" formula ")")
    atom    := IDENT ["(" IDENT ("," IDENT)* ")"]

Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``; ``forall``/``exists`` are
reserved. An argument identifier names the innermost quantified variable of
that name if one is in scope, otherwise an entity constant.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .errors import ArityError, FormulaSyntaxError, UndeclaredEntityError
from .logic import (
    And,
    Atom,
    AtomNode,
    Entity,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Predicate,
    Var,
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<IFF><->)|(?P<IMPLIES>->)"
    r"|(?P<NOT>~)|(?P<AND>&)|(?P<OR>\|)"
    r"|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<COMMA>,))"
)

_KEYWORDS = ("forall", "exists")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise FormulaSyntaxError(
                f"unexpected character {stripped[0]!r}", len(text) - len(stripped)
            )
        kind = m.lastgroup
        assert kind is not None
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(
        self,
        text: str,
        signature: Optional[dict[str, int]],
        entities: Optional[frozenset[str]],
    ):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.signature = signature if signature is not None else {}
        self.entities = entities
        self.bound: list[str] = []

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise FormulaSyntaxError(
                f"expected {kind}, got {tok[1]!r}" if tok[1] else f"expected {kind}",
                tok[2],
            )
        return tok

    def parse(self) -> Formula:
        f = self.iff()
        tok = self.peek()
        if tok[0] != "EOF":
            raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return f

    def iff(self) -> Formula:
        left = self.impl()
        if self.peek()[0] == "IFF":
            self.next()
            return Iff(left, self.iff())
        return left

    def impl(self) -> Formula:
        left = self.or_()
        if self.peek()[0] == "IMPLIES":
            self.next()
            return Implies(left, self.impl())
        return left

    def or_(self) -> Formula:
        out = self.and_()
        while self.peek()[0] == "OR":
            self.next()
            out = Or(out, self.and_())
        return out

    def and_(self) -> Formula:
        out = self.unary()
        while self.peek()[0] == "AND":
            self.next()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "NOT":
            self.next()
            return Not(self.unary())
        if kind == "LPAREN":
            self.next()
            f = self.iff()
            self.expect("RPAREN")
            return f
        if kind == "IDENT" and value in _KEYWORDS:
            return self.quant()
        if kind == "IDENT":
            return self.atom()
        raise FormulaSyntaxError(
            f"expected a formula, got {value!r}" if value else "unexpected end of input",
            pos,
        )

    def quant(self) -> Formula:
        _, kw, _ = self.next()
        _, var_name, var_pos = self.expect("IDENT")
        if var_name in _KEYWORDS:
            raise FormulaSyntaxError(f"{var_name!r} cannot name a variable", var_pos)
        self.bound.append(var_name)
        try:
            nxt = self.peek()
            if nxt[0] == "IDENT" and nxt[1] in _KEYWORDS:
                body = self.quant()
            else:
                self.expect("LPAREN")
                body = self.iff()
                self.expect("RPAREN")
        finally:
            self.bound.pop()
        cls = ForAll if kw == "forall" else Exists
        return cls(Var(var_name), body)

    def atom(self) -> Formula:
        _, name, pos = self.next()
        args: list = []
        if self.peek()[0] == "LPAREN":
            self.next()
            args.append(self.term())
            while self.peek()[0] == "COMMA":
                self.next()
                args.append(self.term())
            self.expect("RPAREN")
        known = self.signature.get(name)
        if known is None:
            self.signature[name] = len(args)
        elif known != len(args):
            raise ArityError(
                f"{name} used with {len(args)} argument(s) at position {pos}, "
                f"previously {known}"
            )
        return AtomNode(Atom(Predicate(name, len(args)), tuple(args)))

    def term(self):
        _, name, pos = self.expect("IDENT")
        if name in _KEYWORDS:
            raise FormulaSyntaxError(f"{name!r} cannot name a term", pos)
        if name in self.bound:
            return Var(name)
        if self.entities is not None and name not in self.entities:
            raise UndeclaredEntityError(
                f"entity {name!r} at position {pos} is not declared"
            )
        return Entity(name)


def parse_formula(
    text: str,
    *,
    signature: Optional[dict[str, int]] = None,
    entities: Optional[Iterable[str]] = None,
) -> Formula:
    """Parse one formula.

    ``signature`` is an optional mutable name->arity map shared across calls
    so arities stay consistent within a problem. When ``entities`` is given,
    free identifiers must appear in it.
    """
    ents = frozenset(entities) if entities is not None else None
    return _Parser(text, signature, ents).parse()


def parse_literal(text: str, *, signature: Optional[dict[str, int]] = None) -> "Literal":
    """Parse a literal (an atom with optional leading ``~``)."""
    from .logic import formula_to_literal

    f = parse_formula(text, signature=signature)
    l = formula_to_literal(f)
    if l is None:
        raise FormulaSyntaxError("expected a literal, got a compound formula", 0)
    return l
