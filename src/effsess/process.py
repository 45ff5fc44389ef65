"""Processes of the session pi-calculus: AST, binder table, printer, parser.

Channels are endpoint pairs: `c` and its opposite endpoint `~c` share one
base name.  Communication in the semantics happens between the two
polarities of a restricted base, and `new` binds both.

The binder table `FORMS` has one entry per constructor: its fields in
declaration order, each with the role it plays.  A name slot holds an
occurrence of one of four kinds:

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
capture-avoiding substitution, the alpha-invariant serialization,
structural equality, kind resolution, and the interned shapes of
`normalize`.

The surface syntax cannot distinguish a received value from a received
channel (`c?(x).P` covers both), so the parser resolves binder and payload
kinds from usage: names that appear in subject position, in call channel
arguments, or dual-marked are channels; everything else is a value.  Free
names can be forced to channel kind via `known_channels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .sessions import SessionType, _TypeParser, format_session_type
from .terms import ParseError, ValueType, _Lexer, fresh_name, parse_value_type


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


@dataclass(frozen=True)
class SucOf:
    arg: "Value"


@dataclass(frozen=True)
class Pair:
    fst: "Value"
    snd: "Value"


Value = NatLit | UnitLit | VarRef | SucOf | Pair
UNIT_VALUE = UnitLit()


def eval_value(v: Value) -> Value:
    """Collapse successor applications over closed naturals; symbolic
    values (free variables) stay symbolic."""
    if isinstance(v, SucOf):
        inner = eval_value(v.arg)
        if isinstance(inner, NatLit):
            return NatLit(inner.n + 1)
        return SucOf(inner)
    if isinstance(v, Pair):
        return Pair(eval_value(v.fst), eval_value(v.snd))
    return v


def value_var_names(v: Value) -> tuple[str, ...]:
    """The variables of ``v``, left to right."""
    if isinstance(v, VarRef):
        return (v.name,)
    if isinstance(v, SucOf):
        return value_var_names(v.arg)
    if isinstance(v, Pair):
        return value_var_names(v.fst) + value_var_names(v.snd)
    return ()


def format_value(v: Value) -> str:
    if isinstance(v, NatLit):
        return str(v.n)
    if isinstance(v, UnitLit):
        return "unit"
    if isinstance(v, VarRef):
        return v.name
    if isinstance(v, SucOf):
        return f"suc {format_value(v.arg)}"
    if isinstance(v, Pair):
        return f"({format_value(v.fst)}, {format_value(v.snd)})"
    raise TypeError(f"not a value: {v!r}")


# -------------------------------------------------------------- processes

class _Node:
    """Base of the process constructors.  Equality is structural, through
    `process_equal`, and the hash is that of the serialization; neither
    recurses, so deep processes can key a dict."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return process_equal(self, other)

    def __hash__(self):
        return hash(serialize_process(self))


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
# Consecutive fields of these roles serialize as one group "(a;b)".
_SEQUENCES = (ENDPOINTS, VALUES) + _PARAMS


class Form(NamedTuple):
    """A row of the binder table: the constructor's serialization tag and
    its fields, in declaration order, with their roles."""

    tag: str
    fields: tuple[tuple[str, str], ...]


_SESSION = (("shared", SHARED), ("binder", CHANNEL_BINDER), ("cont", SCOPED))

FORMS: dict[type, Form] = {
    RecvVal: Form("rv", (("chan", ENDPOINT), ("binder", VALUE_BINDER), ("cont", SCOPED))),
    SendVal: Form("sv", (("chan", ENDPOINT), ("value", VALUE), ("cont", OPEN))),
    RecvChan: Form("rc", (("chan", ENDPOINT), ("binder", CHANNEL_BINDER), ("cont", SCOPED))),
    SendChan: Form("sc", (("chan", ENDPOINT), ("sent", ENDPOINT), ("cont", OPEN))),
    Branch: Form("br", (("chan", ENDPOINT), ("branches", ARMS))),
    Select: Form("sel", (("chan", ENDPOINT), ("label", LABEL), ("cont", OPEN))),
    Def: Form("def", (("name", DEFINES), ("val_params", VALUE_PARAMS), ("chan_params", CHANNEL_PARAMS),
                      ("body", SCOPED), ("scope", OPEN))),
    Call: Form("call", (("name", DEFINITION), ("val_args", VALUES), ("chan_args", ENDPOINTS))),
    New: Form("new", (("name", CHANNEL_BINDER), ("annotation", ANNOTATION), ("body", SCOPED))),
    Par: Form("par", (("left", OPEN), ("right", OPEN))),
    Nil: Form("nil", ()),
    Accept: Form("acc", _SESSION),
    Request: Form("req", _SESSION),
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

    def go(q: Process, bound: frozenset[str], defs: frozenset[str]) -> None:
        inner = bound
        for field, role in FORMS[type(q)].fields:
            x = getattr(q, field)
            if role is ENDPOINT or role is ENDPOINTS:
                for e in (x,) if role is ENDPOINT else x:
                    if e.name not in bound:
                        out.endpoints.add(e)
                        out.terms[e.name] = None
            elif role is SCOPED or role is OPEN:
                go(x, inner if role is SCOPED else bound, defs)
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
                for _, cont in x:
                    go(cont, bound, defs)
            elif role is DEFINES:
                defs = defs | {x}
            elif role is DEFINITION and x not in defs:
                out.definitions.add(x)

    go(p, frozenset(), frozenset())
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
    return _rewrite(p, mapping or {}, definitions or {})


def _rewrite(p: Process, mapping: dict, definitions: dict) -> Process:
    """Rebuild ``p`` with free names replaced through the mappings; binders
    keep their names unless they would capture.  A subterm that is not a
    process node is kept as it is."""
    introduced = set().union(
        *((r.name,) if isinstance(r, Endpoint) else value_var_names(r) for r in mapping.values()),
        *(free_names(call).terms for call in definitions.values()),
    )
    introduced_defs = {call.name for call in definitions.values()}

    # ``intro`` holds the names the mapping in scope may bring in: the
    # mapping's own, plus the fresh names of binders renamed further out,
    # which a nested binder of that spelling would otherwise capture.
    def bind(name: str, m: dict, intro: set, q: Process) -> tuple[str, dict, set]:
        if name in m:
            m = {k: r for k, r in m.items() if k != name}
        if not m or name not in intro:
            return name, m, intro
        fields = FORMS[type(q)].fields
        scoped = [free_names(getattr(q, f)).terms for f, role in fields if role is SCOPED]
        siblings = [_binders(role, getattr(q, f)) for f, role in fields if role in _BINDERS]
        fresh = fresh_name(name, intro.union(m, *scoped, *siblings))
        return fresh, {**m, name: Endpoint(fresh)}, intro | {fresh}

    def bind_definition(name: str, dm: dict, intro: set, q: Process) -> tuple[str, dict, set]:
        if name in dm:
            dm = {k: call for k, call in dm.items() if k != name}
        if not dm or name not in intro:
            return name, dm, intro
        fresh = fresh_name(name, intro.union(dm, free_names(q).definitions))
        return fresh, {**dm, name: Call(fresh, (), ())}, intro | {fresh}

    def endpoint(e: Endpoint, m: dict) -> Endpoint:
        r = m.get(e.name)
        if isinstance(r, Endpoint):
            return Endpoint(r.name, r.dual != e.dual)
        return Endpoint(r.name, e.dual) if isinstance(r, VarRef) else e

    def value(v: Value, m: dict) -> Value:
        if isinstance(v, VarRef):
            r = m.get(v.name, v)
            return VarRef(r.name) if isinstance(r, Endpoint) else r
        if isinstance(v, SucOf):
            return SucOf(value(v.arg, m))
        if isinstance(v, Pair):
            return Pair(value(v.fst, m), value(v.snd, m))
        return v

    def go(q: Process, m: dict, dm: dict, intro: set, dintro: set) -> Process:
        fields = FORMS[type(q)].fields if isinstance(q, _Node) else ()
        if not fields or (not m and not dm):
            return q
        out = []
        inner, inner_intro, partial = m, intro, None
        for field, role in fields:
            x = getattr(q, field)
            if role is ENDPOINT:
                x = endpoint(x, m)
            elif role is SCOPED:
                x = go(x, inner, dm, inner_intro, dintro)
            elif role is OPEN:
                x = go(x, m, dm, intro, dintro)
            elif role is VALUE:
                x = value(x, m)
            elif role is CHANNEL_BINDER or role is VALUE_BINDER:
                x, inner, inner_intro = bind(x, inner, inner_intro, q)
            elif role is ARMS:
                arms = []
                for label, cont in x:
                    arms.append((label, go(cont, m, dm, intro, dintro)))
                x = tuple(arms)
            elif role is SHARED:
                r = m.get(x)
                x = r.name if isinstance(r, (Endpoint, VarRef)) else x
            elif role is ENDPOINTS:
                x = (partial.chan_args if partial is not None else ()) + tuple([endpoint(e, m) for e in x])
            elif role is VALUES:
                x = (partial.val_args if partial is not None else ()) + tuple([value(v, m) for v in x])
            elif role in _PARAMS:
                params = []
                for name, annotation in x:
                    name, inner, inner_intro = bind(name, inner, inner_intro, q)
                    params.append((name, annotation))
                x = tuple(params)
            elif role is DEFINES:
                x, dm, dintro = bind_definition(x, dm, dintro, q)
            elif role is DEFINITION:
                partial = dm.get(x)
                x = x if partial is None else partial.name
            out.append(x)
        return type(q)(*out)

    return go(p, mapping, definitions, introduced, introduced_defs)


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


def with_subterms(p: Process, kids: list[Process]) -> Process:
    """``p`` with its immediate subprocesses replaced, listed as
    ``subterms`` lists them.  Branch arms come back sorted by label: their
    order carries no meaning, and a canonical form needs one order."""
    kids_left = iter(kids)
    out = []
    for field, role in FORMS[type(p)].fields:
        x = getattr(p, field)
        if role is SCOPED or role is OPEN:
            x = next(kids_left)
        elif role is ARMS:
            x = tuple(sorted(((label, next(kids_left)) for label, _ in x), key=lambda arm: arm[0]))
        out.append(x)
    return type(p)(*out) if kids else p


def serial_pieces(p, free, expand=None) -> Iterator[str]:
    """The alpha-invariant serialization of ``p``, piece by piece, walked
    with an explicit stack.  Binders are de-Bruijn levels, so it never
    depends on bound-name spelling; ``free(name, mark)`` spells a free name
    (``mark`` is "~" on a dual endpoint).  ``expand`` turns a subterm into a
    node first: a caller whose subterms are not `Process` nodes walks them
    lazily, and a comparison of two serializations stops at the first
    piece that differs."""
    stack: list = [(p, {}, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            yield item
            continue
        q, env, depth = item
        stack.extend(reversed(node_pieces(expand(q) if expand is not None else q, env, depth, free)))


def node_pieces(q: Process, env: dict[str, int], depth: int, free) -> list:
    """The serialization of the node ``q`` alone: strings, and in place of
    each subterm ``(subterm, env, depth)``, the levels of the names bound
    over it and the next level."""

    def name(n: str, mark: str = "") -> str:
        return f" <{env[n]}{mark}>" if n in env else " " + free(n, mark)

    def value(v: Value) -> str:
        if isinstance(v, VarRef):
            return name(v.name)[1:]
        if isinstance(v, SucOf):
            return f"suc {value(v.arg)}"
        if isinstance(v, Pair):
            return f"({value(v.fst)},{value(v.snd)})"
        return format_value(v)

    form = FORMS[type(q)]
    parts, group = ["(" + form.tag], []
    inner, inner_depth = env, depth
    for field, role in form.fields:
        x = getattr(q, field)
        if group and role not in _SEQUENCES:
            parts.append(f" ({';'.join(group)})")
            group = []
        if role is ENDPOINT:
            parts.append(name(x.name, "~" if x.dual else ""))
        elif role is SCOPED or role is OPEN:
            parts += [" ", (x, inner, inner_depth) if role is SCOPED else (x, env, depth)]
        elif role is VALUE:
            parts.append(" " + value(x))
        elif role is SHARED:
            parts.append(name(x))
        elif role in _BINDERS:
            inner = dict(inner)
            for bound in _binders(role, x):
                inner[bound] = inner_depth
                inner_depth += 1
            if role in _PARAMS:
                group.append(str(len(x)))
        elif role is ARMS:
            for label, cont in x:
                parts += [" " + label, " ", (cont, env, depth)]
        elif role is ENDPOINTS:
            group.append(" ".join([name(e.name, "~" if e.dual else "")[1:] for e in x]))
        elif role is VALUES:
            group.append(" ".join([value(v) for v in x]))
        elif role is not ANNOTATION:
            parts.append(" " + x)
    if group:
        parts.append(f" ({';'.join(group)})")
    parts.append(")")
    return parts


def serialize_process(p: Process, erase: frozenset[str] = frozenset()) -> str:
    """A total, alpha-invariant textual key.  Free names in ``erase`` are
    hidden (polarity kept) and the key describes the wiring-free skeleton;
    other free names print concretely."""
    return "".join(serial_pieces(p, lambda n, mark: f"<nu{mark}>" if n in erase else mark + n))


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


# ---------------------------------------------------------------- printer

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
    """The concrete syntax of ``q`` as strings and subprocesses, in order."""
    cont = [] if isinstance(getattr(q, "cont", NIL), Nil) else [". ", q.cont]
    if isinstance(q, Nil):
        return ["0"]
    if isinstance(q, (RecvVal, RecvChan)):
        return [f"{q.chan}?({q.binder})", *cont]
    if isinstance(q, SendVal):
        return [f"{q.chan}!<{format_value(q.value)}>", *cont]
    if isinstance(q, SendChan):
        return [f"{q.chan}!<{q.sent}>", *cont]
    if isinstance(q, Branch):
        arms = [x for label, arm in q.branches for x in (", ", f"{label}: ", arm)]
        return [f"{q.chan} >> {{", *arms[1:], "}"]
    if isinstance(q, Select):
        return [f"{q.chan} <+ {q.label}", *cont]
    if isinstance(q, Def):
        vals = ", ".join(n if t is None else f"{n}: {t}" for n, t in q.val_params)
        chans = ", ".join(n if t is None else f"{n}: {format_session_type(t)}" for n, t in q.chan_params)
        return [f"def {q.name}({vals}; {chans}) = ", q.body, " in ", q.scope]
    if isinstance(q, Call):
        vals = ", ".join(format_value(v) for v in q.val_args)
        chans = ", ".join(str(ep) for ep in q.chan_args)
        return [f"{q.name}<{vals}; {chans}>"]
    if isinstance(q, New):
        annot = f": {format_session_type(q.annotation)}" if q.annotation is not None else ""
        return [f"new {q.name}{annot}. ", q.body]
    if isinstance(q, Par):
        parts, todo = [], [q]
        while todo:
            node = todo.pop()
            if isinstance(node, Par):
                todo += [node.right, node.left]
            else:
                parts += [" | ", node]
        return ["(", *parts[1:], ")"]
    if isinstance(q, (Accept, Request)):
        return [f"{'accept' if isinstance(q, Accept) else 'request'} {q.shared}({q.binder})", *cont]
    raise TypeError(f"not a process: {q!r}")


# ----------------------------------------------------------------- parser

_PROC_PUNCT = (
    "![", "?[", "+{", "&{", ">>", "<+",
    "?", "!", "<", ">", "(", ")", ".", ",", ":", ";", "|", "~", "{", "}", "=", "]",
)
_PROC_KEYWORDS = ("def", "in", "new", "accept", "request", "zero", "unit", "suc", "end", "mu")


class _ProcParser:
    def __init__(self, lex: _Lexer):
        self.lex = lex
        self.types = _TypeParser(lex)

    def endpoint(self) -> Endpoint:
        dual = False
        if self.lex.at_punct("~"):
            self.lex.next()
            dual = True
        tok = self.lex.next()
        if tok[0] != "word" or tok[1] in _PROC_KEYWORDS:
            raise ParseError(f"expected a channel name, found {tok[1]!r}", tok[2], tok[3])
        return Endpoint(tok[1], dual)

    def ident(self, what: str) -> str:
        tok = self.lex.next()
        if tok[0] != "word" or tok[1] in _PROC_KEYWORDS:
            raise ParseError(f"expected {what}, found {tok[1]!r}", tok[2], tok[3])
        return tok[1]

    def value(self) -> Value:
        tok = self.lex.peek()
        if tok is None:
            raise self.lex.error("expected a value")
        if tok[0] == "num":
            self.lex.next()
            return NatLit(int(tok[1]))
        if tok[0] == "punct" and tok[1] == "~":
            # dual endpoints are unambiguous channel payloads; the caller
            # turns them into channel sends
            raise ParseError("dual endpoint in value position", tok[2], tok[3])
        if tok[0] == "punct" and tok[1] == "(":
            self.lex.next()
            fst = self.value()
            self.lex.expect(",")
            snd = self.value()
            self.lex.expect(")")
            return Pair(fst, snd)
        if tok[0] == "word":
            self.lex.next()
            if tok[1] == "zero":
                return NatLit(0)
            if tok[1] == "unit":
                return UNIT_VALUE
            if tok[1] == "suc":
                return SucOf(self.value())
            if tok[1] in _PROC_KEYWORDS:
                raise ParseError(f"unexpected keyword {tok[1]!r} in value", tok[2], tok[3])
            return VarRef(tok[1])
        raise ParseError(f"unexpected token {tok[1]!r} in value", tok[2], tok[3])

    def cont(self) -> Process:
        if self.lex.at_punct("."):
            self.lex.next()
            return self.proc()
        return NIL

    def proc(self) -> Process:
        tok = self.lex.peek()
        if tok is None:
            raise self.lex.error("expected a process")
        if tok[0] == "num" and tok[1] == "0":
            self.lex.next()
            return NIL
        if tok[0] == "punct" and tok[1] == "(":
            self.lex.next()
            parts = [self.proc()]
            while self.lex.at_punct("|"):
                self.lex.next()
                parts.append(self.proc())
            self.lex.expect(")")
            result = parts[-1]
            for part in reversed(parts[:-1]):
                result = Par(part, result)
            return result
        if tok[0] == "word" and tok[1] == "new":
            self.lex.next()
            names = [self.ident("a channel name")]
            while self.lex.at_punct(","):
                self.lex.next()
                names.append(self.ident("a channel name"))
            annotation = None
            if self.lex.at_punct(":"):
                self.lex.next()
                annotation = self.types.type()
            self.lex.expect(".")
            return new(names, self.proc(), annotation)
        if tok[0] == "word" and tok[1] == "def":
            return self.parse_def()
        if tok[0] == "word" and tok[1] in ("accept", "request"):
            self.lex.next()
            shared = self.ident("a shared channel name")
            self.lex.expect("(")
            binder = self.ident("a session binder")
            self.lex.expect(")")
            cls = Accept if tok[1] == "accept" else Request
            return cls(shared, binder, self.cont())
        # endpoint-led forms or a call
        if tok[0] == "punct" and tok[1] == "~":
            subject = self.endpoint()
            return self.prefixed(subject)
        if tok[0] == "word":
            name = self.ident("a process")
            nxt = self.lex.peek()
            if nxt is not None and nxt[0] == "punct" and nxt[1] == "<":
                return self.parse_call(name)
            return self.prefixed(Endpoint(name, False))
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])

    def prefixed(self, subject: Endpoint) -> Process:
        tok = self.lex.next()
        if tok[1] == "?":
            self.lex.expect("(")
            binder = self.ident("a binder")
            self.lex.expect(")")
            return RecvVal(subject, binder, self.cont())
        if tok[1] == "!":
            self.lex.expect("<")
            if self.lex.at_punct("~"):
                self.lex.next()
                sent = Endpoint(self.ident("a channel name"), True)
                self.lex.expect(">")
                return SendChan(subject, sent, self.cont())
            value = self.value()
            self.lex.expect(">")
            return SendVal(subject, value, self.cont())
        if tok[1] == ">>":
            self.lex.expect("{")
            branches = []
            while True:
                label = self.ident("a label")
                self.lex.expect(":")
                branches.append((label, self.proc()))
                sep = self.lex.next()
                if sep[1] == "}":
                    break
                if sep[1] != ",":
                    raise ParseError(f"expected ',' or '}}', found {sep[1]!r}", sep[2], sep[3])
            try:
                return Branch(subject, tuple(branches))
            except ValueError as exc:
                raise ParseError(str(exc), tok[2], tok[3]) from None
        if tok[1] == "<+":
            label = self.ident("a label")
            return Select(subject, label, self.cont())
        raise ParseError(f"expected a prefix after {subject}, found {tok[1]!r}", tok[2], tok[3])

    def parse_call(self, name: str) -> Process:
        self.lex.expect("<")
        val_args: list[Value] = []
        chan_args: list[Endpoint] = []
        if not self.lex.at_punct(";") and not self.lex.at_punct(">"):
            val_args.append(self.value())
            while self.lex.at_punct(","):
                self.lex.next()
                val_args.append(self.value())
        if self.lex.at_punct(";"):
            self.lex.next()
            if not self.lex.at_punct(">"):
                chan_args.append(self.endpoint())
                while self.lex.at_punct(","):
                    self.lex.next()
                    chan_args.append(self.endpoint())
        self.lex.expect(">")
        return Call(name, tuple(val_args), tuple(chan_args))

    def parse_def(self) -> Process:
        self.lex.expect("def")
        name = self.ident("a definition name")
        self.lex.expect("(")
        val_params: list[tuple[str, ValueType | None]] = []
        chan_params: list[tuple[str, SessionType | None]] = []

        def param(target, is_chan: bool):
            pname = self.ident("a parameter")
            annot = None
            if self.lex.at_punct(":"):
                self.lex.next()
                if is_chan:
                    annot = self.types.type()
                else:
                    tok = self.lex.next()
                    annot = parse_value_type(tok[1])
            target.append((pname, annot))

        if not self.lex.at_punct(";") and not self.lex.at_punct(")"):
            param(val_params, False)
            while self.lex.at_punct(","):
                self.lex.next()
                param(val_params, False)
        if self.lex.at_punct(";"):
            self.lex.next()
            if not self.lex.at_punct(")"):
                param(chan_params, True)
                while self.lex.at_punct(","):
                    self.lex.next()
                    param(chan_params, True)
        self.lex.expect(")")
        self.lex.expect("=")
        body = self.proc()
        self.lex.expect("in")
        scope = self.proc()
        return Def(name, tuple(val_params), tuple(chan_params), body, scope)


def parse_process(text: str, known_channels=()) -> Process:
    lex = _Lexer(text, punct=_PROC_PUNCT)
    parser = _ProcParser(lex)
    p = parser.proc()
    tok = lex.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
    return resolve_kinds(p, known_channels=frozenset(known_channels))


# ------------------------------------------------------- kind resolution

def resolve_kinds(p: Process, known_channels: frozenset[str] = frozenset()) -> Process:
    """Canonicalize receive nodes and bare-identifier payloads.

    A receive binder becomes a channel binder exactly when it occurs free
    in an endpoint slot of its scope; a bare identifier payload is a channel
    send exactly when the name is channel-kind where it occurs.  A name is
    channel-kind under a channel binder or channel parameter, and value-kind
    under a value binder or value parameter.
    """

    def go(q: Process, chans: frozenset[str]) -> Process:
        cls = type(q)
        if cls is RecvVal or cls is RecvChan:
            used = any(e.name == q.binder for e in free_names(q.cont).endpoints)
            cls = RecvChan if used else RecvVal
        elif cls is SendVal and isinstance(q.value, VarRef) and q.value.name in chans:
            return SendChan(q.chan, Endpoint(q.value.name, False), go(q.cont, chans))
        out = []
        inner = chans
        for field, role in FORMS[cls].fields:
            x = getattr(q, field)
            if role is SCOPED:
                x = go(x, inner)
            elif role is OPEN:
                x = go(x, chans)
            elif role is ARMS:
                arms = []
                for label, cont in x:
                    arms.append((label, go(cont, chans)))
                x = tuple(arms)
            elif role is CHANNEL_BINDER or role is CHANNEL_PARAMS:
                inner = inner.union(_binders(role, x))
            elif role is VALUE_BINDER or role is VALUE_PARAMS:
                inner = inner.difference(_binders(role, x))
            out.append(x)
        return cls(*out)

    return go(p, known_channels)
