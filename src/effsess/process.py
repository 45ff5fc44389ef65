"""Processes of the session pi-calculus: AST, binder table, printer, parser.

Channels are endpoint pairs: `c` and its opposite endpoint `~c` share one
base name.  Communication in the semantics happens between the two
polarities of a restricted base, and `new` binds both.

The binder table `FORMS` has one entry per constructor: its fields in
declaration order, each with the role it plays, and its concrete syntax.
A name slot holds an occurrence of one of four kinds:

- endpoint: a channel endpoint, `c` or `~c`;
- value: a variable inside a payload or a call argument;
- shared: the shared channel of an `accept` or a `request`;
- definition: the definition a call invokes.

Endpoint, value and shared names form one namespace, so a binder binds its
name in all three.  Definition names form a namespace of their own.  What
each constructor binds:

- `c?(x). P`, `accept k(x). P`, `request k(x). P`: x in P;
- `new x. P`: x in P;
- `def X(xs; cs) = P in Q`: xs and cs in P, and X in both P and Q;
- sends, select, branch, calls, parallel composition and `0` bind nothing.

Every name-aware operation walks this table: free names, simultaneous
capture-avoiding substitution, structural equality, kind resolution, and
the interned shapes of `normalize`, which are the package's one
alpha-invariant encoding of a process.  So do `format_process` and
`parse_process`: a row's syntax is a template of literal text and field
names, which the printer fills and the parser reads field by field, by
role.  The parser picks a form by its first token, or by the token after
its subject.  A form that ends in a process (a prefix's continuation, the
body of `new`, the scope of `def`) leaves that process to a loop, so a
chain of prefixes costs no recursion, nor does a chain of `suc`s.  Three
cases are special: `Par` is n-ary, `(P | Q | R)`; `new a, b. P` restricts
a list of names; and a `~` payload makes a send a `SendChan`.  Every
rebuild of a process is one `terms.fold`, the package's one explicit-stack
walk, which session types, terms and values (`fold_value`) share:
substitution, kind resolution, interning (`normalize`) and type synthesis
(`session_check`).

The surface syntax cannot distinguish a received value from a received
channel (`c?(x).P` covers both), so the parser reads every receive as a
`RecvVal` and resolves binder and payload kinds from usage: names that
appear in subject position, in call channel arguments, or dual-marked are
channels; everything else is a value.  Free names can be forced to channel
kind via `known_channels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple

from .sessions import SessionType, _TypeParser, format_session_type
from .terms import ParseError, ValueType, _Lexer, fold, fresh_name, parse_value_type


@dataclass(frozen=True)
class Endpoint:
    name: str
    dual: bool = False

    def flip(self) -> "Endpoint":
        return Endpoint(self.name, not self.dual)

    def __str__(self) -> str:
        return ("~" if self.dual else "") + self.name


# ---------------------------------------------------------------- values

@dataclass(frozen=True)
class NatLit:
    n: int


@dataclass(frozen=True)
class UnitLit:
    pass


@dataclass(frozen=True)
class VarRef:
    name: str


class _Compound:
    """Base of the values with subvalues.  They compare and hash as their
    constructors in pre-order, each leaf as itself (its own equality tells
    ``VarRef(3)`` from ``NatLit(3)``), a key computed once, without recursion."""

    _key = cached_property(
        lambda self: fold_value(self, lambda u: (u,), lambda a: (SucOf, *a), lambda a, b: (Pair, *a, *b)))
    _hash = cached_property(lambda self: hash(self._key))

    def __eq__(self, other):
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, eq=False)
class SucOf(_Compound):
    arg: "Value"


@dataclass(frozen=True, eq=False)
class Pair(_Compound):
    fst: "Value"
    snd: "Value"


Value = NatLit | UnitLit | VarRef | SucOf | Pair
UNIT_VALUE = UnitLit()


# The fields of each value constructor that hold subvalues.
_SUBVALUES = {SucOf: ("arg",), Pair: ("fst", "snd")}


def fold_value(v: Value, leaf, suc=SucOf, pair=Pair):
    """``v`` folded bottom-up: ``leaf(u)`` for a literal or a variable, and
    ``suc(r)`` and ``pair(r1, r2)`` from the subvalues' results; the
    defaults rebuild.  A chain of `suc`s is peeled in a loop, so nearly
    every value takes no stack; a pair takes one `terms.fold`."""
    sucs = 0
    while type(v) is SucOf:
        v, sucs = v.arg, sucs + 1
    if type(v) is Pair:
        r = fold(v, None, lambda u, _: (None, [(getattr(u, f), None) for f in _SUBVALUES.get(type(u), ())]),
                 lambda u, _, kids: pair(*kids) if type(u) is Pair else suc(*kids) if kids else leaf(u))
    else:
        r = leaf(v)
    for _ in range(sucs):
        r = suc(r)
    return r


def eval_value(v: Value) -> Value:
    """Collapse successor applications over closed naturals; symbolic
    values (free variables) stay symbolic."""
    return fold_value(v, lambda u: u, lambda a: NatLit(a.n + 1) if type(a) is NatLit else SucOf(a))


def value_var_names(v: Value) -> tuple[str, ...]:
    """The variables of ``v``, left to right."""
    return fold_value(v, lambda u: (u.name,) if type(u) is VarRef else (), lambda a: a, lambda a, b: a + b)


def format_value(v: Value, name=str) -> str:
    """The concrete syntax of ``v``: ``name`` spells a variable."""
    leaf = lambda u: name(u.name) if type(u) is VarRef else "unit" if type(u) is UnitLit else str(u.n)
    return fold_value(v, leaf, lambda a: f"suc {a}", lambda a, b: f"({a}, {b})")


# -------------------------------------------------------------- processes

class _Node:
    """Base of the process constructors.  Equality is structural, through
    `process_equal`, and the hash is that of the printed text, a function
    of every field that equality compares; neither recurses, so deep
    processes can key a dict."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return process_equal(self, other)

    def __hash__(self):
        return hash(format_process(self))


@dataclass(frozen=True, eq=False)
class RecvVal(_Node):
    chan: Endpoint
    binder: str
    cont: "Process"


@dataclass(frozen=True, eq=False)
class SendVal(_Node):
    chan: Endpoint
    value: Value
    cont: "Process"


@dataclass(frozen=True, eq=False)
class RecvChan(_Node):
    chan: Endpoint
    binder: str
    cont: "Process"


@dataclass(frozen=True, eq=False)
class SendChan(_Node):
    chan: Endpoint
    sent: Endpoint
    cont: "Process"


@dataclass(frozen=True, eq=False)
class Branch(_Node):
    chan: Endpoint
    branches: tuple[tuple[str, "Process"], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.branches]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate branch label in {labels}")
        if not labels:
            raise ValueError("branch must offer at least one label")

    def get(self, label: str) -> "Process | None":
        return dict(self.branches).get(label)


@dataclass(frozen=True, eq=False)
class Select(_Node):
    chan: Endpoint
    label: str
    cont: "Process"


@dataclass(frozen=True, eq=False)
class Def(_Node):
    name: str
    val_params: tuple[tuple[str, ValueType | None], ...]
    chan_params: tuple[tuple[str, SessionType | None], ...]
    body: "Process"
    scope: "Process"


@dataclass(frozen=True, eq=False)
class Call(_Node):
    name: str
    val_args: tuple[Value, ...]
    chan_args: tuple[Endpoint, ...]


@dataclass(frozen=True, eq=False)
class New(_Node):
    name: str
    annotation: SessionType | None
    body: "Process"


@dataclass(frozen=True, eq=False)
class Par(_Node):
    left: "Process"
    right: "Process"


@dataclass(frozen=True, eq=False)
class Nil(_Node):
    pass


@dataclass(frozen=True, eq=False)
class Accept(_Node):
    shared: str
    binder: str
    cont: "Process"


@dataclass(frozen=True, eq=False)
class Request(_Node):
    shared: str
    binder: str
    cont: "Process"


Process = (
    RecvVal | SendVal | RecvChan | SendChan | Branch | Select
    | Def | Call | New | Par | Nil | Accept | Request
)
NIL = Nil()


def new(names, body: Process, annotation: SessionType | None = None) -> Process:
    """Nest restrictions: new(["a", "b"], p) == New a. New b. p."""
    if isinstance(names, str):
        names = [names]
    for name in reversed(list(names)):
        body = New(name, annotation, body)
        annotation = None
    return body


def par(*procs: Process) -> Process:
    procs = [p for p in procs if not isinstance(p, Nil)]
    if not procs:
        return NIL
    result = procs[-1]
    for p in reversed(procs[:-1]):
        result = Par(p, result)
    return result


# ------------------------------------------------------------ binder table

# Roles of a constructor's fields.  Name slots:
ENDPOINT, ENDPOINTS = "endpoint", "endpoints"
VALUE, VALUES = "value", "values"
SHARED = "shared"
DEFINITION = "definition"
# Binders.  Term binders and parameters scope over the node's SCOPED
# subterms; DEFINES binds a definition name in all of the node's subterms.
CHANNEL_BINDER, VALUE_BINDER = "channel binder", "value binder"
CHANNEL_PARAMS, VALUE_PARAMS = "channel params", "value params"
DEFINES = "defines"
# Subterms, and fields that hold no names:
SCOPED, OPEN, ARMS = "scoped", "open", "arms"
LABEL, ANNOTATION = "label", "annotation"

_PARAMS = (CHANNEL_PARAMS, VALUE_PARAMS)
_BINDERS = (CHANNEL_BINDER, VALUE_BINDER) + _PARAMS
# Fields of these roles hold lists, which the parser reads as sequences.
_SEQUENCES = (ENDPOINTS, VALUES) + _PARAMS


class Form(NamedTuple):
    """A row of the binder table: the tag that spells the constructor in a
    shape's digest, its fields in declaration order with their roles, and
    its concrete syntax: literal text and field names, in field order."""

    tag: str
    fields: tuple[tuple[str, str], ...]
    syntax: tuple[str, ...]


_SESSION = (("shared", SHARED), ("binder", CHANNEL_BINDER), ("cont", SCOPED))
_RECEIVE = ("chan", "?(", "binder", ")", "cont")

FORMS: dict[type, Form] = {
    RecvVal: Form("rv", (("chan", ENDPOINT), ("binder", VALUE_BINDER), ("cont", SCOPED)), _RECEIVE),
    SendVal: Form("sv", (("chan", ENDPOINT), ("value", VALUE), ("cont", OPEN)), ("chan", "!<", "value", ">", "cont")),
    RecvChan: Form("rc", (("chan", ENDPOINT), ("binder", CHANNEL_BINDER), ("cont", SCOPED)), _RECEIVE),
    SendChan: Form("sc", (("chan", ENDPOINT), ("sent", ENDPOINT), ("cont", OPEN)), ("chan", "!<", "sent", ">", "cont")),
    Branch: Form("br", (("chan", ENDPOINT), ("branches", ARMS)), ("chan", " >> {", "branches", "}")),
    Select: Form("sel", (("chan", ENDPOINT), ("label", LABEL), ("cont", OPEN)), ("chan", " <+ ", "label", "cont")),
    Def: Form("def", (("name", DEFINES), ("val_params", VALUE_PARAMS), ("chan_params", CHANNEL_PARAMS),
                      ("body", SCOPED), ("scope", OPEN)),
              ("def ", "name", "(", "val_params", "; ", "chan_params", ") = ", "body", " in ", "scope")),
    Call: Form("call", (("name", DEFINITION), ("val_args", VALUES), ("chan_args", ENDPOINTS)),
               ("name", "<", "val_args", "; ", "chan_args", ">")),
    New: Form("new", (("name", CHANNEL_BINDER), ("annotation", ANNOTATION), ("body", SCOPED)),
              ("new ", "name", "annotation", ". ", "body")),
    Par: Form("par", (("left", OPEN), ("right", OPEN)), ("(", "left", " | ", "right", ")")),
    Nil: Form("nil", (), ("0",)),
    Accept: Form("acc", _SESSION, ("accept ", "shared", "(", "binder", ")", "cont")),
    Request: Form("req", _SESSION, ("request ", "shared", "(", "binder", ")", "cont")),
}


def _binders(role: str, x) -> tuple[str, ...]:
    """The term names a binder field binds."""
    return tuple(name for name, _ in x) if role in _PARAMS else (x,)


class FreeNames(NamedTuple):
    """``terms``: every free endpoint base, value variable and shared name,
    in order of first occurrence (pre-order, fields in table order).
    ``endpoints``: the free endpoints with their polarity; the two
    polarities of one base are distinct linear resources.
    ``definitions``: called definition names no enclosing ``def`` binds."""

    terms: dict[str, None]
    endpoints: set[Endpoint]
    definitions: set[str]


def free_names(p: Process) -> FreeNames:
    out = FreeNames({}, set(), set())
    # every row lists its subterms after its names, so a stack of subterms
    # meets the names in pre-order
    stack = [(p, frozenset(), frozenset())]
    while stack:
        q, bound, defs = stack.pop()
        inner, kids = bound, []
        for field, role in FORMS[type(q)].fields:
            x = getattr(q, field)
            if role is ENDPOINT or role is ENDPOINTS:
                for e in (x,) if role is ENDPOINT else x:
                    if e.name not in bound:
                        out.endpoints.add(e)
                        out.terms[e.name] = None
            elif role is SCOPED or role is OPEN:
                kids.append((x, inner if role is SCOPED else bound, defs))
            elif role is VALUE or role is VALUES:
                for v in (x,) if role is VALUE else x:
                    for name in value_var_names(v):
                        if name not in bound:
                            out.terms[name] = None
            elif role is SHARED:
                if x not in bound:
                    out.terms[x] = None
            elif role in _BINDERS:
                inner = inner.union(_binders(role, x))
            elif role is ARMS:
                kids.extend((cont, bound, defs) for _, cont in x)
            elif role is DEFINES:
                defs = defs | {x}
            elif role is DEFINITION and x not in defs:
                out.definitions.add(x)
        stack.extend(reversed(kids))
    return out


def free_endpoints(p: Process) -> frozenset[Endpoint]:
    """Endpoints (base name with polarity) occurring free in ``p``."""
    return frozenset(free_names(p).endpoints)


# ------------------------------------------------------------ substitution

Replacement = Endpoint | Value


def substitute(
    p: Process, mapping: dict[str, Replacement] | None = None, definitions: dict[str, Call] | None = None
) -> Process:
    """Simultaneous, capture-avoiding substitution of free names.

    ``mapping`` sends a term name to an endpoint or a value.  An endpoint
    replaces endpoint occurrences polarity-wise (with x -> ~d, a use of ~x
    becomes d) and renames value and shared occurrences to its base name.  A
    value replaces value occurrences; a variable also renames endpoint and
    shared occurrences, and any other value leaves them alone.
    ``definitions`` sends a definition name to a partial call: a call of the
    name becomes a call of the partial call's name, its arguments first.
    A binder that would capture a name the substitution brings in is renamed.
    """
    mapping, definitions = mapping or {}, definitions or {}
    # the context `renamed` takes: the mappings, and the names they may
    # bring in, which a binder of that spelling would capture
    introduced = set().union(
        *((r.name,) if isinstance(r, Endpoint) else value_var_names(r) for r in mapping.values()),
        *(free_names(call).terms for call in definitions.values()),
    )
    return fold(p, (mapping, definitions, introduced, {call.name for call in definitions.values()}),
                lambda q, ctx: renamed(q, ctx) if ctx[0] or ctx[1] else (q, ()),
                lambda q, node, kids: with_subterms(node, kids) if kids else node)


def renamed(q: Process, ctx: tuple) -> tuple[Process, list]:
    """`substitute`'s step at one node: ``q`` with its own names replaced
    under the context ``ctx`` (``q`` itself when none changes), and its
    subterms, each with the context that holds under it.  A binder keeps
    its name unless it would capture a name the mapping may bring in: one
    it holds, or the fresh name of a binder renamed further out."""
    m, dm, intro, dintro = ctx
    out, kids, changed = [], [], False
    inner, inner_intro, partial = m, intro, None
    fields = FORMS[type(q)].fields
    for field, role in fields:
        x = y = getattr(q, field)
        if role is ENDPOINT:
            y = _endpoint(x, m)
        elif role is SCOPED:
            kids.append((x, (inner, dm, inner_intro, dintro)))
        elif role is OPEN:
            kids.append((x, (m, dm, intro, dintro)))
        elif role is VALUE:
            y = _value(x, m)
        elif role in _BINDERS:
            names = []
            for name in _binders(role, x):
                if name in inner:
                    inner = {k: r for k, r in inner.items() if k != name}
                if inner and name in inner_intro:
                    scoped = [free_names(getattr(q, f)).terms for f, r in fields if r is SCOPED]
                    siblings = [_binders(r, getattr(q, f)) for f, r in fields if r in _BINDERS]
                    fresh = fresh_name(name, inner_intro.union(inner, *scoped, *siblings))
                    inner, inner_intro, name = {**inner, name: Endpoint(fresh)}, inner_intro | {fresh}, fresh
                names.append(name)
            y = tuple(zip(names, [t for _, t in x])) if role in _PARAMS else names[0]
        elif role is ARMS:
            kids.extend((cont, (m, dm, intro, dintro)) for _, cont in x)
        elif role is SHARED:
            r = m.get(x)
            y = r.name if isinstance(r, (Endpoint, VarRef)) else x
        elif role is ENDPOINTS:
            y = (partial.chan_args if partial is not None else ()) + tuple([_endpoint(e, m) for e in x])
        elif role is VALUES:
            y = (partial.val_args if partial is not None else ()) + tuple([_value(v, m) for v in x])
        elif role is DEFINES and dm:
            if y in dm:
                dm = {k: call for k, call in dm.items() if k != y}
            if dm and y in dintro:
                y = fresh_name(y, dintro.union(dm, free_names(q).definitions))
                dm, dintro = {**dm, x: Call(y, (), ())}, dintro | {y}
        elif role is DEFINITION:
            partial = dm.get(x)
            y = x if partial is None else partial.name
        changed = changed or (y is not x and y != x)
        out.append(y)
    return (type(q)(*out) if changed else q), kids


def _endpoint(e: Endpoint, m: dict) -> Endpoint:
    r = m.get(e.name)
    if isinstance(r, Endpoint):
        return Endpoint(r.name, r.dual != e.dual)
    return Endpoint(r.name, e.dual) if isinstance(r, VarRef) else e


def _value(v: Value, m: dict) -> Value:
    def leaf(u: Value) -> Value:
        r = m.get(u.name, u) if type(u) is VarRef else u
        return VarRef(r.name) if isinstance(r, Endpoint) else r

    return fold_value(v, leaf)


# --------------------------------------------- subterms, key and equality

def subterms(p: Process) -> list[Process]:
    """The immediate subprocesses of ``p``, in field order."""
    out: list[Process] = []
    for field, role in FORMS[type(p)].fields:
        if role is SCOPED or role is OPEN:
            out.append(getattr(p, field))
        elif role is ARMS:
            out.extend(cont for _, cont in getattr(p, field))
    return out


def with_subterms(p: Process, kids: list) -> Process:
    """``p`` with its immediate subprocesses replaced, listed as
    ``subterms`` lists them; ``p`` itself when each is the one it had."""
    kids_left = iter(kids)
    out, changed = [], False
    for field, role in FORMS[type(p)].fields:
        x = getattr(p, field)
        if role is SCOPED or role is OPEN:
            y = next(kids_left)
            changed = changed or y is not x
            x = y
        elif role is ARMS:
            y = tuple([(label, next(kids_left)) for label, _ in x])
            changed = changed or any(a is not b for (_, a), (_, b) in zip(x, y))
            x = y
        out.append(x)
    return type(p)(*out) if changed else p


def process_equal(p: Process, q: Process) -> bool:
    """Structural equality, walked with an explicit stack so that deep
    processes compare without deep recursion."""
    stack = [(p, q)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        for field, role in FORMS[type(a)].fields:
            x, y = getattr(a, field), getattr(b, field)
            if role is ARMS:
                if [label for label, _ in x] != [label for label, _ in y]:
                    return False
                stack.extend((cx, cy) for (_, cx), (_, cy) in zip(x, y))
            elif role is SCOPED or role is OPEN:
                stack.append((x, y))
            elif x != y:
                return False
    return True


# ------------------------------------------------------- concrete syntax

_PROC_PUNCT = (
    "![", "?[", "+{", "&{", ">>", "<+",
    "?", "!", "<", ">", "(", ")", ".", ",", ":", ";", "|", "~", "{", "}", "=", "]",
)
_PROC_KEYWORDS = ("def", "in", "new", "accept", "request", "zero", "unit", "suc", "end", "mu")
# Each row's template as steps: a field name with its role, or a literal
# with no role and its tokens.
_STEPS = {
    cls: tuple(
        (item, dict(form.fields).get(item), tuple(tok[1] for tok in _Lexer(item, _PROC_PUNCT).tokens))
        for item in form.syntax
    )
    for cls, form in FORMS.items()
}
# How a field that holds no process prints, by role; a name prints as itself.
_TEXT = {
    ENDPOINT: str,
    VALUE: format_value,
    ENDPOINTS: lambda x: ", ".join(map(str, x)),
    VALUES: lambda x: ", ".join(map(format_value, x)),
    VALUE_PARAMS: lambda x: ", ".join([n if t is None else f"{n}: {t}" for n, t in x]),
    CHANNEL_PARAMS: lambda x: ", ".join([n if t is None else f"{n}: {format_session_type(t)}" for n, t in x]),
    ANNOTATION: lambda x: "" if x is None else f": {format_session_type(x)}",
}
# The form a token opens, as the first token of a process (False) or as the
# token after a subject (True).  Receives and sends read as the first rows
# with their token, RecvVal and SendVal.
_OPENS: dict[tuple[bool, str], type] = {}
for _cls, _steps in _STEPS.items():
    _first = next(tokens for _, role, tokens in _steps if role is None)[0]
    _OPENS.setdefault((_steps[0][1] is not None, _first), _cls)


def format_process(p: Process) -> str:
    """The concrete syntax of ``p``, walked with an explicit stack, so that
    deep processes print at any recursion limit."""
    out: list[str] = []
    stack: list = [p]
    while stack:
        q = stack.pop()
        if type(q) is str:
            out.append(q)
            continue
        stack.extend(reversed(_syntax(q)))
    return "".join(out)


def _syntax(q: Process) -> list:
    """The concrete syntax of ``q`` as strings and subprocesses, in order:
    its row's template, filled in.  A prefix's ``cont`` prints as ". P", and
    not at all when P is 0.  Nested parallel compositions print as one."""
    if type(q) is Par:
        parts, todo = [], [q]
        while todo:
            node = todo.pop()
            if isinstance(node, Par):
                todo += [node.right, node.left]
            else:
                parts += [" | ", node]
        return ["(", *parts[1:], ")"]
    out = [""]  # text and subprocesses, in turn
    for item, role, _ in _STEPS[type(q)]:
        x = item if role is None else getattr(q, item)
        if role is SCOPED or role is OPEN:
            if item == "cont" and type(x) is Nil:
                continue
            out[-1] += ". " if item == "cont" else ""
            out += [x, ""]
        elif role is ARMS:
            for k, (label, arm) in enumerate(x):
                out[-1] += f"{', ' if k else ''}{label}: "
                out += [arm, ""]
        else:  # a literal, or a field that holds no process
            out[-1] += x if role is None else _TEXT.get(role, str)(x)
    return out


class _ProcParser:
    def __init__(self, lex: _Lexer):
        self.lex = lex
        self.types = _TypeParser(lex)

    def endpoint(self) -> Endpoint:
        dual = self.lex.take("~")
        return Endpoint(self.ident("a channel name"), dual)

    def ident(self, what: str) -> str:
        tok = self.lex.next()
        if tok[0] != "word" or tok[1] in _PROC_KEYWORDS:
            raise ParseError(f"expected {what}, found {tok[1]!r}", tok[2], tok[3])
        return tok[1]

    def value(self) -> Value:
        """A value; a chain of `suc`s is read in a loop."""
        tok, sucs = self.lex.next(), 0
        while tok[1] == "suc":
            tok, sucs = self.lex.next(), sucs + 1
        if tok[0] == "num":
            v = NatLit(int(tok[1]))
        elif tok[1] == "zero" or tok[1] == "unit":
            v = NatLit(0) if tok[1] == "zero" else UNIT_VALUE
        elif tok[0] == "punct" and tok[1] == "(":
            fst = self.value()
            self.lex.expect(",")
            v = Pair(fst, self.value())
            self.lex.expect(")")
        elif tok[0] != "word" or tok[1] in _PROC_KEYWORDS:
            # a dual endpoint is a channel payload, which a send reads itself
            raise ParseError(f"unexpected token {tok[1]!r} in value", tok[2], tok[3])
        else:
            v = VarRef(tok[1])
        return reduce(lambda inner, _: SucOf(inner), range(sucs), v)

    def param(self, role: str) -> tuple[str, ValueType | SessionType | None]:
        """A parameter and its annotation, if any."""
        name = self.ident("a parameter")
        if not self.lex.take(":"):
            return name, None
        if role is CHANNEL_PARAMS:
            return name, self.types.type()
        tok = self.lex.next()
        try:
            return name, parse_value_type(tok[1])
        except ValueError as exc:
            raise ParseError(str(exc), tok[2], tok[3]) from None

    def arm(self) -> tuple[str, Process]:
        label = self.ident("a label")
        self.lex.expect(":")
        return label, self.proc()

    def proc(self) -> Process:
        """A process.  The chain of forms that each end in the next (a
        prefix's continuation, the body of `new`, the scope of `def`) is
        read in a loop and built from its end."""
        chain = []
        q = self.node()
        while type(q) is tuple:
            chain.append(q)
            q = self.node()
        for make, args in reversed(chain):
            q = make(*args, q)
        return q

    def node(self):
        """One form, read by its row's template.  A form that ends in a
        process stops there and comes back as its constructor and the
        fields read so far; any other comes back built."""
        tok = self.lex.peek()
        cls, args = _OPENS.get((False, tok[1])) if tok is not None else None, []
        if cls is Par:  # n-ary
            self.lex.next()
            parts = self.lex.sequence(self.proc, sep="|")
            self.lex.expect(")")
            return reduce(lambda right, left: Par(left, right), reversed(parts))
        if cls is None:
            subject = self.endpoint()
            nxt = self.lex.peek()
            cls = _OPENS.get((True, nxt[1])) if nxt is not None else None
            if cls is None or (cls is Call and subject.dual):
                raise self.lex.error(f"expected a prefix after {subject}")
            args.append(subject.name if cls is Call else subject)
        make, missing, tail = cls, False, FORMS[cls].syntax[-1]
        for item, role, tokens in _STEPS[cls][len(args):]:
            if tokens == (";",):  # between two lists; it may go when the second is empty
                missing = not self.lex.take(";")
            elif role is None:
                for t in tokens:
                    self.lex.expect(t)
            elif role is SCOPED or role is OPEN:
                if item == "cont" and not self.lex.take("."):
                    args.append(NIL)
                elif item == tail:
                    return make, args
                else:
                    args.append(self.proc())
            elif role is VALUE and self.lex.at_punct("~"):  # a dual endpoint: a channel send
                make = SendChan
                args.append(self.endpoint())
            elif role is ENDPOINT:
                args.append(self.endpoint())
            elif role is VALUE:
                args.append(self.value())
            elif role in _SEQUENCES:
                read = {ENDPOINTS: self.endpoint, VALUES: self.value}.get(role) or (lambda: self.param(role))
                args.append(() if missing else tuple(self.lex.sequence(read, stop=(";", ">", ")"))))
            elif role is ARMS:
                args.append(tuple(self.lex.sequence(self.arm)))
            elif role is ANNOTATION:
                args.append(self.types.type() if self.lex.take(":") else None)
            elif cls is New:  # a list of names, one restriction each
                make = lambda names, annotation, body: new(names, body, annotation)
                args.append(self.lex.sequence(lambda: self.ident("a channel name")))
            else:
                args.append(self.ident(f"a {item}"))
        try:
            return make(*args)
        except ValueError as exc:
            raise ParseError(str(exc), tok[2], tok[3]) from None


def parse_process(text: str, known_channels=()) -> Process:
    lex = _Lexer(text, punct=_PROC_PUNCT)
    p = _ProcParser(lex).proc()
    lex.end()
    return resolve_kinds(p, known_channels=frozenset(known_channels))


# ------------------------------------------------------- kind resolution

def resolve_kinds(p: Process, known_channels: frozenset[str] = frozenset()) -> Process:
    """Canonicalize receive nodes and bare-identifier payloads.

    A receive binder becomes a channel binder exactly when it occurs free
    in an endpoint slot of its scope; a bare identifier payload is a channel
    send exactly when the name is channel-kind where it occurs.  A name is
    channel-kind under a channel binder or channel parameter, and value-kind
    under a value binder or value parameter.

    One walk finds the receives whose binder is used as an endpoint, with
    an explicit stack; a `fold` rebuilds the process.
    """
    used: set[int] = set()
    stack: list = [(p, {})]  # a subterm, and the receive binding each name in scope, if one does
    while stack:
        q, env = stack.pop()
        inner = env
        for field, role in FORMS[type(q)].fields:
            x = getattr(q, field)
            if role is ENDPOINT or role is ENDPOINTS:
                used.update(env[e.name] for e in ((x,) if role is ENDPOINT else x) if env.get(e.name) is not None)
            elif role in _BINDERS:
                receive = id(q) if type(q) is RecvVal or type(q) is RecvChan else None
                inner = {**inner, **dict.fromkeys(_binders(role, x), receive)}
            elif role is SCOPED or role is OPEN:
                stack.append((x, inner if role is SCOPED else env))
            elif role is ARMS:
                stack.extend((cont, env) for _, cont in x)

    def enter(q: Process, chans: frozenset[str]) -> tuple[Process, list]:
        if type(q) is RecvVal or type(q) is RecvChan:
            cls = RecvChan if id(q) in used else RecvVal
            q = q if type(q) is cls else cls(q.chan, q.binder, q.cont)
        elif type(q) is SendVal and isinstance(q.value, VarRef) and q.value.name in chans:
            q = SendChan(q.chan, Endpoint(q.value.name, False), q.cont)
        kids, inner = [], chans
        for field, role in FORMS[type(q)].fields:
            x = getattr(q, field)
            if role is SCOPED:
                kids.append((x, inner))
            elif role is OPEN:
                kids.append((x, chans))
            elif role is ARMS:
                kids.extend((cont, chans) for _, cont in x)
            elif role is CHANNEL_BINDER or role is CHANNEL_PARAMS:
                inner = inner.union(_binders(role, x))
            elif role is VALUE_BINDER or role is VALUE_PARAMS:
                inner = inner.difference(_binders(role, x))
        return q, kids

    return fold(p, known_channels, enter, lambda q, node, kids: with_subterms(node, kids))
