"""Binary session types: duality, equi-recursive equality, select-width subtyping.

Payloads are either value types or session types (channel delegation).
Recursive types use mu-binders compared equi-recursively: a `Mu` is
interchangeable with its unfolding.

Equality, subtyping and duality are one coinductive walk over pairs of
types (`_related`), set by two flags (Gay & Hole, *Subtyping for session
types in the pi calculus*, 2005):

- ``flip`` pairs each constructor with its dual (send with receive, select
  with branch) instead of with itself;
- ``width`` lets the selecting side offer fewer labels than the other side
  (the left select in subtyping, the select facing a branch in duality).

Payloads are always compared for equality, by the same walk.  Every
relation is a conjunction of pair obligations, so the walk is a worklist
loop that never backtracks or recurses on type depth.  Without ``flip``, a
pair of one object with itself holds at once, since a type is equal to and
a subtype of itself: consecutive annotations of a `let` chain share their
tail, so comparing them walks only where they differ.  Duality still walks
such a pair.  A pair is recorded as an assumption only when a mu is
unfolded (a `Mu` on either side): a walk can meet a pair again only through
an unfolding, so a mu-free type hashes nothing.  Assumptions are keyed by
structure, since unfolding builds new objects.  A session type compares by
`_same`, a stack walk, and hashes its printed text, which each node builds
once from its subterms' texts and keeps.  Printing, `dual`, substitution
and the well-formedness check are each one `terms.fold`, so no walk
recurses on type depth.

Duality is complete duality (Bernardi, Dardha, Gay & Kouzapas, *On duality
relations for session types*, 2014): constructors flip along
continuations, but a payload keeps its type, so a payload's free mu
variables are first closed with the mu-types they stood for.  Without
that, ``dual(mu a. ![a]. a)`` would be ``mu a. ?[a]. a``, whose payload
names the dual type instead of the original one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_

from .terms import ParseError, ValueType, _Lexer, fold, parse_value_type


class _Type:
    """Base of the session-type constructors.  Equality is structural
    (`_same`), and the hash is that of the printed text, which a node keeps
    once `format_session_type` has built it; neither recurses, so deep types
    can key a dict, as `process._Node` does for processes."""

    _text: str | None = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _same(self, other)

    def __hash__(self):
        return hash(self._text or format_session_type(self))


@dataclass(frozen=True, eq=False)
class Send(_Type):
    payload: object
    cont: "SessionType"


@dataclass(frozen=True, eq=False)
class Recv(_Type):
    payload: object
    cont: "SessionType"


def _norm_choices(choices) -> tuple[tuple[str, "SessionType"], ...]:
    pairs = tuple(choices.items()) if isinstance(choices, dict) else tuple(choices)
    if not pairs:
        raise ValueError("label map must be nonempty")
    labels = [label for label, _ in pairs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in {labels}")
    return tuple(sorted(pairs))


@dataclass(frozen=True, eq=False)
class _Choice(_Type):
    """A select or a branch: its labelled continuations, sorted by label."""

    choices: tuple[tuple[str, "SessionType"], ...]

    def __post_init__(self):
        object.__setattr__(self, "choices", _norm_choices(self.choices))

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.choices)

    def get(self, label: str) -> "SessionType | None":
        return dict(self.choices).get(label)


class Select(_Choice):
    """Internal choice: this side picks one of the labels."""


class Branch(_Choice):
    """External choice: this side offers every label."""


@dataclass(frozen=True, eq=False)
class Mu(_Type):
    var: str
    body: "SessionType"


@dataclass(frozen=True, eq=False)
class TVar(_Type):
    name: str


@dataclass(frozen=True, eq=False)
class End(_Type):
    pass


SessionType = Send | Recv | Select | Branch | Mu | TVar | End
END = End()


def is_value_payload(payload) -> bool:
    return isinstance(payload, ValueType)


def subterms(s) -> tuple:
    """The subterms of ``s``: its payload, for a prefix, then its
    continuations in label order.  A value type has none."""
    if isinstance(s, (Send, Recv)):
        return (s.payload, s.cont)
    if isinstance(s, Mu):
        return (s.body,)
    if isinstance(s, _Choice):
        return tuple(cont for _, cont in s.choices)
    return ()


def _same(s: SessionType, t: SessionType) -> bool:
    """Structural equality (mu variables by name), walked with an explicit
    stack; a select never equals a branch."""
    todo = [(s, t)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if (
            type(a) is not type(b)
            or isinstance(a, ValueType)
            or isinstance(a, _Choice) and a.labels() != b.labels()
            or isinstance(a, Mu) and a.var != b.var
            or isinstance(a, TVar) and a.name != b.name
        ):
            return False
        todo += zip(subterms(a), subterms(b))
    return True


def assert_wellformed(s: SessionType, bound: frozenset[str] = frozenset()) -> None:
    """Closedness and contractivity: TVar under a binding Mu, Mu bodies
    not immediately a type variable.  The first fault in pre-order is
    raised."""

    def enter(t, bound):
        if isinstance(t, TVar):
            if t.name not in bound:
                raise ValueError(f"unbound session variable {t.name!r}")
        elif isinstance(t, Mu):
            if isinstance(t.body, TVar):
                raise ValueError(f"non-contractive mu {t.var!r}")
            bound = bound | {t.var}
        elif not isinstance(t, (Send, Recv, Select, Branch, End)):
            raise TypeError(f"not a session type: {t!r}")
        kids = subterms(t)
        if isinstance(t, (Send, Recv)) and is_value_payload(t.payload):
            kids = kids[1:]
        return None, [(kid, bound) for kid in kids]

    fold(s, bound, enter, lambda t, note, results: None)


# Each constructor and the one its dual pairs with.
_FLIP = {Send: Recv, Recv: Send, Select: Branch, Branch: Select, End: End}


def dual(s: SessionType) -> SessionType:
    """Complete duality: flip every constructor along the continuations, and
    close each session payload over the mu-types whose variables it names."""
    return fold(s, ({}, True), _enter_map, _leave_map)


def _subst(s: SessionType, env: dict[str, SessionType]) -> SessionType:
    """Replace the free type variables of ``s`` that ``env`` names; a
    subterm that no name of ``env`` reaches is kept as is."""
    return fold(s, (env, False), _enter_map, _leave_map)


def _enter_map(t, ctx):
    """The step of `dual` and `_subst` into ``t``, under a context of type
    variables and whether to flip.  A payload is only substituted.  Under a
    mu, `dual` binds its variable to the mu-type it stands for, closed, and
    `_subst` lets the mu shadow it."""
    env, flip = ctx
    if not (env or flip):
        return ctx, ()
    if isinstance(t, Mu):
        env = {**env, t.var: _subst(t, env)} if flip else {k: v for k, v in env.items() if k != t.var}
        ctx = env, flip
    kids = [(kid, ctx) for kid in subterms(t)]
    if isinstance(t, (Send, Recv)):
        kids[0] = (t.payload, (env, False))
    return ctx, kids


def _leave_map(t, ctx, kids):
    env, flip = ctx
    if isinstance(t, TVar):
        return t if flip else env.get(t.name, t)
    if not kids or not flip and all(map(is_, kids, subterms(t))):
        return t  # end, a value payload, or nothing replaced
    if isinstance(t, Mu):
        return Mu(t.var, kids[0])
    head = _FLIP[type(t)] if flip else type(t)
    return head(tuple(zip(t.labels(), kids))) if isinstance(t, _Choice) else head(*kids)


def unfold(s: SessionType) -> SessionType:
    """Unfold top-level mu-binders until the head is a proper constructor."""
    while isinstance(s, Mu):
        s = _subst(s.body, {s.var: s})
    return s


def _related(s: SessionType, t: SessionType, flip: bool, width: bool) -> bool:
    """The relation walker (see the module docstring): every pair the walk
    meets must match head to head.  A pair with a mu on either side is
    assumed to hold from its first visit on, which closes every cycle."""
    assumed: set[tuple[SessionType, SessionType, bool, bool]] = set()
    todo = [(s, t, flip, width)]
    while todo:
        a, b, flip, width = todo.pop()
        if a is b and not flip:
            continue  # a type equals itself, so it is also its own subtype
        if isinstance(a, Mu) or isinstance(b, Mu):
            key = (a, b, flip, width)
            if key in assumed:
                continue
            assumed.add(key)
            a, b = unfold(a), unfold(b)
        head = type(a)
        if head not in _FLIP or type(b) is not (_FLIP[head] if flip else head):
            return False
        if head is Send or head is Recv:
            p, q = a.payload, b.payload
            if is_value_payload(p) or is_value_payload(q):
                if p is not q:
                    return False
            else:
                todo.append((p, q, False, False))
            todo.append((a.cont, b.cont, flip, width))
        elif head is not End:
            left, right = dict(a.choices), dict(b.choices)
            if width and head is Select:
                fits = left.keys() <= right.keys()
            elif width and flip:
                fits = right.keys() <= left.keys()
            else:
                fits = left.keys() == right.keys()
            if not fits:
                return False
            todo.extend((cont, right[label], flip, width) for label, cont in left.items() if label in right)
    return True


def type_equal(s: SessionType, t: SessionType) -> bool:
    """Equality up to alpha-renaming of mu-binders and finite unfolding."""
    return _related(s, t, flip=False, width=False)


def select_subtype(s: SessionType, t: SessionType) -> bool:
    """Width subtyping on selects only: ``s`` is ``t`` with select label
    sets narrowed, covariantly through continuations and up to unfolding.
    Branch labels and payloads must match exactly."""
    return _related(s, t, flip=False, width=True)


def dual_compatible(s: SessionType, t: SessionType) -> bool:
    """Duality modulo select widening, the condition discharged at channel
    restriction: there is a widening ``s'`` of the select nodes such that
    ``s'`` equals ``dual(t)`` (applied symmetrically on either side)."""
    return _related(s, t, flip=True, width=True)


def format_session_type(s: SessionType) -> str:
    """The concrete syntax of ``s``.  A node's text is built once, from its
    subterms' texts, and kept on the node: type variables are spelled by
    name, so a node prints the same wherever it occurs."""
    return fold(s, None, _enter_print, _leave_print)


def _enter_print(t, _):
    return None, () if getattr(t, "_text", None) else [(kid, None) for kid in subterms(t)]


def _leave_print(t, _, texts):
    if is_value_payload(t):
        return str(t)
    if not isinstance(t, _Type):
        raise TypeError(f"not a session type: {t!r}")
    if t._text is None:
        if isinstance(t, (Send, Recv)):
            text = f"{'![' if isinstance(t, Send) else '?['}{texts[0]}]. {texts[1]}"
        elif isinstance(t, _Choice):
            arms = ", ".join(f"{label}: {text}" for label, text in zip(t.labels(), texts))
            text = f"{'+{' if isinstance(t, Select) else '&{'}{arms}}}"
        elif isinstance(t, Mu):
            text = f"mu {t.var}. {texts[0]}"
        else:
            text = t.name if isinstance(t, TVar) else "end"
        object.__setattr__(t, "_text", text)
    return t._text


_TYPE_PUNCT = ("![", "?[", "]", "+{", "&{", "}", ":", ",", ".", "(", ")")


# Words that cannot name a mu variable.
_TYPE_KEYWORDS = ("end", "mu", "nat", "unit")


class _TypeParser:
    def __init__(self, lex: _Lexer):
        self.lex = lex

    def type(self) -> SessionType:
        """A session type.  Its chain of prefixes and mu binders is read in
        a loop and built from its end."""
        chain: list[tuple[type, object]] = []
        while True:
            tok = self.lex.next()
            if tok[1] in ("![", "?["):
                payload = self.payload()
                self.lex.expect("]")
                chain.append((Send if tok[1] == "![" else Recv, payload))
                if not self.lex.take("."):
                    s = END
                    break
            elif tok[0] == "word" and tok[1] == "mu":
                var = self.lex.next()
                if var[0] != "word" or var[1] in _TYPE_KEYWORDS:
                    raise ParseError(f"expected a type variable, found {var[1]!r}", var[2], var[3])
                self.lex.expect(".")
                chain.append((Mu, var[1]))
            else:
                s = self.atom(tok)
                break
        for cls, x in reversed(chain):
            s = cls(x, s)
        return s

    def atom(self, tok) -> SessionType:
        """The session type that ``tok`` opens, other than a prefix or a mu."""
        if tok[1] in ("+{", "&{"):
            choices = self.lex.sequence(self.choice)
            self.lex.expect("}")
            try:
                return (Select if tok[1] == "+{" else Branch)(tuple(choices))
            except ValueError as exc:
                raise ParseError(str(exc), tok[2], tok[3]) from None
        if tok[0] == "word":
            return END if tok[1] == "end" else TVar(tok[1])
        raise ParseError(f"unexpected token {tok[1]!r} in session type", tok[2], tok[3])

    def choice(self) -> tuple[str, SessionType]:
        label = self.lex.next()
        if label[0] != "word":
            raise ParseError(f"expected a label, found {label[1]!r}", label[2], label[3])
        self.lex.expect(":")
        return label[1], self.type()

    def payload(self):
        tok = self.lex.peek()
        if tok is not None and tok[0] == "word" and tok[1] in ("nat", "unit"):
            self.lex.next()
            return parse_value_type(tok[1])
        return self.type()


def parse_session_type(text: str) -> SessionType:
    lex = _Lexer(text, punct=_TYPE_PUNCT)
    s = _TypeParser(lex).type()
    lex.end()
    assert_wellformed(s)
    return s
