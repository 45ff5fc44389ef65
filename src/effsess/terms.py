"""Imperative effect-calculus terms: AST, parser, and basic term operations.

The source language is tiny: variables, single-binder ``let``, unary
operation application, and constants.  ``get`` is a constant and ``put``
a unary operation; both are monomorphic at the store type declared in the
enclosing program header.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce


class ValueType(Enum):
    UNIT = "unit"
    NAT = "nat"

    def __str__(self) -> str:
        return self.value


def parse_value_type(text: str) -> ValueType:
    for vt in ValueType:
        if vt.value == text:
            return vt
    raise ValueError(f"unknown value type {text!r}")


class _Node:
    """Base of the term constructors.  Two terms are equal when their
    constructors and fields are, compared with an explicit stack, and the
    hash is that of the printed text; neither recurses, so deep terms
    compare and key a dict."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if type(a) is not type(b) or getattr(a, _LEAF_FIELD[type(a)]) != getattr(b, _LEAF_FIELD[type(b)]):
                    return False
                stack += zip(subterms(a), subterms(b))
        return True

    def __hash__(self):
        return hash(format_term(self))


@dataclass(frozen=True, eq=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False)
class Let(_Node):
    name: str
    bound: "Term"
    body: "Term"


@dataclass(frozen=True, eq=False)
class OpApp(_Node):
    op: str
    arg: "Term"


@dataclass(frozen=True, eq=False)
class Const(_Node):
    const: str


Term = Var | Let | OpApp | Const

# Surface grammar name sets.  Signatures live in `infer`; the parser only
# needs to know which identifiers take an argument.
OP_NAMES = ("suc", "put")
CONST_NAMES = ("zero", "unit", "get")


@dataclass(frozen=True)
class Program:
    """A source file: one declared store plus a root term.

    ``init`` is an ``int`` for a nat store and ``None`` for a unit store.
    """

    store_type: ValueType
    init: int | None
    root: Term


# The fields of each constructor that hold subterms, in preorder, and the one that does not.
_SUBTERM_FIELDS = {Var: (), Const: (), Let: ("bound", "body"), OpApp: ("arg",)}
_LEAF_FIELD = {Var: "name", Const: "const", Let: "name", OpApp: "op"}


def subterms(t: Term) -> tuple[Term, ...]:
    """The immediate subterms of ``t``, in preorder."""
    return tuple(getattr(t, name) for name in _SUBTERM_FIELDS[type(t)])


def with_subterms(t: Term, kids) -> Term:
    """``t`` with its immediate subterms replaced, listed as ``subterms``
    lists them."""
    return replace(t, **dict(zip(_SUBTERM_FIELDS[type(t)], kids)))


def fold(root, ctx, enter, leave):
    """The package's traversal, for processes, session types, terms and
    values alike: a bottom-up fold of ``root``, walked with an explicit
    stack.  ``enter(node, ctx)`` gives a note and the node's subterms, each
    with its context; ``leave(node, note, results)`` gives the node's result
    from its subterms' results, in order.  Nodes are entered in pre-order,
    left to right, and each is left once its subterms are."""
    out: list = []
    stack: list = [(root, ctx)]
    while stack:
        frame = stack.pop()
        if len(frame) == 2:  # a node to enter, and its context
            note, kids = enter(*frame)
            stack.append((frame[0], note, len(kids)))
            stack.extend(reversed(kids))
            continue
        node, note, n = frame
        results = out[len(out) - n:]
        del out[len(out) - n:]
        out.append(leave(node, note, results))
    return out[0]


def free_vars(t: Term) -> frozenset[str]:
    """The free variables of ``t``, from its subterms' by one `fold`."""

    def leave(u: Term, _, kids: list[frozenset[str]]) -> frozenset[str]:
        if type(u) is Let:
            return kids[0] | (kids[1] - {u.name})
        return frozenset((u.name,)) if type(u) is Var else frozenset().union(*kids)

    return fold(t, None, lambda u, _: (None, [(kid, None) for kid in subterms(u)]), leave)


def all_names(t: Term) -> frozenset[str]:
    """Every variable name occurring in ``t``, free or bound."""
    names: set[str] = set()
    todo = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, (Var, Let)):
            names.add(u.name)
        todo.extend(subterms(u))
    return frozenset(names)


def fresh_name(base: str, avoid) -> str:
    """The first of ``base``, ``base1``, ``base2``, ... not in ``avoid``."""
    if base not in avoid:
        return base
    k = 1
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


def substitute(t: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution ``t[replacement/name]``: one `fold`
    whose context maps names to replacements and their free names.  A
    binder that shadows an entry removes it, one that would capture a free
    name of a replacement adds ``binder ↦ fresh``, and a subterm that no
    entry reaches is kept whole."""

    def enter(u: Term, m: dict) -> tuple:
        if type(u) is not Let or not m:
            kids = [(kid, m) for kid in subterms(u)] if m else []
            return (m[u.name][0] if type(u) is Var and u.name in m else u), kids
        binder, inner = u.name, {k: r for k, r in m.items() if k != u.name}
        captured = [k for k, (_, names) in inner.items() if binder in names]
        if captured and not free_vars(u.body).isdisjoint(captured):
            binder = fresh_name(binder, all_names(u.body).union(*(names for _, names in inner.values())))
            inner[u.name] = (Var(binder), frozenset({binder}))
        return binder, [(u.bound, m), (u.body, inner)]

    return fold(t, {name: (replacement, free_vars(replacement))}, enter,
                lambda u, note, kids: note if not kids else Let(note, *kids) if type(u) is Let else OpApp(u.op, *kids))


def format_term(t: Term) -> str:
    """The concrete syntax of ``t``, emitted in pre-order by one `fold`: the
    text between two subterms is a subterm of its own, a string, so a deep
    term prints in time linear in its text."""
    out: list[str] = []

    def enter(u, _) -> tuple[None, list]:
        if type(u) is Let:
            parts = [f"let {u.name} = ", u.bound, " in ", u.body]
        elif type(u) is OpApp:
            parts = [f"{u.op} (", u.arg, ")"] if type(u.arg) is Let else [f"{u.op} ", u.arg]
        else:
            parts = [u if type(u) is str else u.name if type(u) is Var else u.const]
        out.append(parts[0])
        return None, [(part, None) for part in parts[1:]]

    fold(t, None, enter, lambda *_: None)
    return "".join(out)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


_KEYWORDS = ("let", "in", "store", "init")


class _Lexer:
    """Shared word/punctuation lexer with `--` line comments."""

    def __init__(self, text: str, punct: tuple[str, ...]):
        self.text = text
        # the punctuation by its first character, longest first: ">>" before ">"
        self.punct = {p[0]: sorted((q for q in punct if q[0] == p[0]), key=len, reverse=True) for p in punct}
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[tuple[str, str, int, int]] = []
        self._scan()
        self.index = 0

    def _advance(self, n: int) -> None:
        for ch in self.text[self.pos : self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def _scan(self) -> None:
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
                continue
            if text.startswith("--", self.pos):
                end = text.find("\n", self.pos)
                self._advance((end - self.pos) if end != -1 else len(text) - self.pos)
                continue
            line, col = self.line, self.col
            if ch.isalpha() or ch == "_":
                j = self.pos
                while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                    j += 1
                word = text[self.pos : j]
                self._advance(j - self.pos)
                self.tokens.append(("word", word, line, col))
                continue
            if ch.isdigit():
                j = self.pos
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("num", text[self.pos : j], line, col))
                self._advance(j - self.pos)
                continue
            for p in self.punct.get(ch, ()):
                if text.startswith(p, self.pos):
                    self.tokens.append(("punct", p, line, col))
                    self._advance(len(p))
                    break
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)

    def peek(self) -> tuple[str, str, int, int] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> tuple[str, str, int, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.line, self.col)
        self.index += 1
        return tok

    def expect(self, value: str) -> tuple[str, str, int, int]:
        tok = self.next()
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "word" and tok[1] == word

    def at_punct(self, p: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "punct" and tok[1] == p

    def end(self) -> None:
        """Raise unless the input is used up."""
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])

    def take(self, p: str) -> bool:
        """Consume the punctuation ``p`` if it comes next."""
        found = self.at_punct(p)
        if found:
            self.index += 1
        return found

    def sequence(self, item, sep: str = ",", stop: tuple[str, ...] = ()) -> list:
        """Items read by ``item`` and separated by ``sep``; none when the
        next token is punctuation in ``stop``."""
        if any(self.at_punct(p) for p in stop):
            return []
        out = [item()]
        while self.take(sep):
            out.append(item())
        return out

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        if tok is None:
            return ParseError(message, self.line, self.col)
        return ParseError(message, tok[2], tok[3])


class _TermParser:
    def __init__(self, lex: _Lexer):
        self.lex = lex

    def term(self) -> Term:
        lets = []
        while self.lex.at_word("let"):
            self.lex.next()
            tok = self.lex.next()
            if tok[0] != "word" or tok[1] in _KEYWORDS or tok[1] in OP_NAMES or tok[1] in CONST_NAMES:
                raise ParseError(f"expected binder name, found {tok[1]!r}", tok[2], tok[3])
            self.lex.expect("=")
            lets.append((tok[1], self.term()))
            self.lex.expect("in")
        t = self.app()
        for name, bound in reversed(lets):
            t = Let(name, bound, t)
        return t

    def app(self) -> Term:
        """An atom under a chain of operations, read in a loop."""
        ops = []
        tok = self.lex.peek()
        while tok is not None and tok[0] == "word" and tok[1] in OP_NAMES:
            self.lex.next()
            nxt = self.lex.peek()
            if nxt is None or (nxt[0] == "word" and nxt[1] in ("in",)) or (nxt[0] == "punct" and nxt[1] == ")"):
                raise ParseError(f"{tok[1]} requires an argument", tok[2], tok[3])
            ops.append(tok[1])
            tok = nxt
        return reduce(lambda t, op: OpApp(op, t), reversed(ops), self.atom())

    def atom(self) -> Term:
        tok = self.lex.next()
        if tok[0] == "punct" and tok[1] == "(":
            inner = self.term()
            self.lex.expect(")")
            return inner
        if tok[0] == "word":
            if tok[1] in CONST_NAMES:
                return Const(tok[1])
            if tok[1] in _KEYWORDS:
                raise ParseError(f"unexpected keyword {tok[1]!r}", tok[2], tok[3])
            return Var(tok[1])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])


def parse_term(text: str) -> Term:
    lex = _Lexer(text, punct=("(", ")", "="))
    t = _TermParser(lex).term()
    lex.end()
    return t


def parse_program(text: str) -> Program:
    """Parse a program file: a ``store TYPE init LITERAL`` header, then a term."""
    lex = _Lexer(text, punct=("(", ")", "="))
    lex.expect("store")
    tok = lex.next()
    try:
        store_type = parse_value_type(tok[1])
    except ValueError:
        raise ParseError(f"store type must be nat or unit, found {tok[1]!r}", tok[2], tok[3]) from None
    lex.expect("init")
    tok = lex.next()
    init: int | None
    if store_type is ValueType.NAT:
        if tok[0] != "num":
            raise ParseError(f"nat store needs a numeric init, found {tok[1]!r}", tok[2], tok[3])
        init = int(tok[1])
    else:
        if tok[1] != "unit":
            raise ParseError(f"unit store needs init unit, found {tok[1]!r}", tok[2], tok[3])
        init = None
    root = _TermParser(lex).term()
    lex.end()
    return Program(store_type, init, root)
