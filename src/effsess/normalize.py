"""Structural-congruence normal forms, built from interned components.

A normal form flattens parallel composition, drops nil and unused
restrictions, hoists restrictions to the top of their parallel context,
sorts the components and drops type annotations.  Congruent inputs, alpha
variants included, have one normal form.

An `InternTable` holds each distinct node once, as a `Shape`: its
constructor and fields with no name spelled.  A free name is a hole,
numbered by first occurrence; a bound name is spelled by its binder's
position, locally nameless style; a subterm is a child shape wired to holes
and binders of the parent.  A `Term` fills a shape's holes: a hole is one
name at one polarity, ``(name, kind)``, kind 0 for a value or shared
occurrence, 1 for an endpoint, 2 for a dual endpoint.

Invariant: a shape is a function of its children's shapes and wirings
alone, never of where the node sits.  So each distinct node is
canonicalized once, bottom-up, one pass is a fixpoint, a subterm's normal
form reappears unchanged in any process that contains it, and renaming free
names (nearly every execution step) rewrites a term's arguments only,
unless it merges two names.

Each shape carries a digest: 16 bytes of BLAKE2b over its key, the form
spelled by its `FORMS` tag, a child by its digest and wiring, a value by
`format_value` with holes written ``$i``.  A digest depends on structure
alone, not on the table, and distinct shapes are assumed to have distinct
digests (a 128-bit collision is not detected).  Components sort by digest,
then by their free names as spelled: the normal form's restrictions as
`<nu>`, other free names alike whatever their polarity.  That order is
canonical.  Components that tie sort again with free names spelled, and
any that still tie are arranged every way (up to 720 arrangements) for the
least result.
A shape whose order names decided is marked ``symmetric``: renaming a free
name of a symmetric term rebuilds it, a binder above it hides its names
(spelled by position at the binder, sorting before every visible name),
and a normal form whose restrictions such a component uses tries every
order of them (`InternTable.normal`).  So no spelling of a bound name
decides an order, except that a normal form formed again after a
substitution keeps the order its restrictions were given.

Putting a value in, or merging two names, changes a term's shape, and
`InternTable.subst` forms each such result once per table.  Its memo maps
a shape and a *pattern* to the result's shape and *wiring*.  The pattern
gives each hole the index of the name its occurrence becomes, among the
distinct names in first-occurrence order, and its kind; or the value it
receives, and the index of its own name, which a shared occurrence keeps.
The wiring spells each argument of the result as such an index and a kind,
and a hit fills it with the real names and looks up no node.  Invariant:
the result depends on the pattern alone.  Outside symmetric shapes the
rebuild is name-blind: `_nest` spells free names ``#``, and marks every
tie that names decide.  So the memo declines where names may decide: a
symmetric term, and a result that is symmetric or has been marked so
since, are rebuilt as if there were no memo.  A miss forms the result with
`InternTable.term` on the real names, so the table gains the shapes, in the
order, that the rebuild gives.

`view` spells a node afresh on every call, with fresh stand-ins for its
binders.  `InternTable.head` views a term once per table and keeps the
node: execution looks at the heads of the same components step after step.
Invariant: a kept head's stand-in binders may be shared by every use of it,
so each one is filled (by a receive, an accept or a request) before its
continuation enters a configuration.  ``view_hits`` and ``view_misses``
count the heads found and the ones viewed.  One-shot views (`term`,
`open`, `process`) are not kept.
"""

from __future__ import annotations

from hashlib import blake2b
from itertools import count, groupby, permutations, product
from math import factorial, prod
from typing import NamedTuple

from . import process as P
from .terms import fold

_MAX_TIE_ARRANGEMENTS = 720
# Names that stand in for bound names start with this character, which no
# parsed or generated name contains: "\0<j>:<k>" for the binder in position
# j of its node, "\0:<k>" for a restriction; k is a serial number of the
# table, so no two stand-ins are spelled alike.
_HIDDEN = "\x00"
_SPINE = (P.Par, P.New, P.Nil)


class Shape:
    """An interned node.  ``key`` is its constructor and encoded fields,
    and ``digest`` the 16 bytes that order it among components, a function
    of its structure alone (see the module docstring).  ``base`` is the
    largest ``height`` of its subterms, and ``height`` adds the names the
    node binds.  ``symmetric`` marks a normal form, or a node above one,
    whose component order names decided."""

    __slots__ = ("key", "digest", "base", "height", "symmetric")


class Term(NamedTuple):
    shape: Shape
    args: tuple[tuple[str, int], ...]


def _vars(v: P.Value, f) -> P.Value:
    """``v`` with each variable ``x`` replaced by ``VarRef(f(x))``."""
    return P.fold_value(v, lambda u: P.VarRef(f(u.name)) if type(u) is P.VarRef else u)


def _digest(key: tuple) -> bytes:
    """The digest of a shape's key: its form by tag, a child by digest and
    wiring, a value by its text with holes written ``$i``."""
    form, *fields = key
    spelled: list = [P.FORMS[form].tag]
    for (_, role), x in zip(P.FORMS[form].fields, fields):
        if role is P.VALUE:
            x = P.format_value(x, "${}".format)
        elif role is P.VALUES:
            x = tuple(P.format_value(v, "${}".format) for v in x)
        elif role is P.SCOPED or role is P.OPEN:
            x = x[0].digest, x[1]
        elif role is P.ARMS:
            x = tuple((label, (kid.digest, wiring)) for label, (kid, wiring) in x)
        spelled.append(x)
    return blake2b(repr(tuple(spelled)).encode(), digest_size=16).digest()


def _ordered(t: Term, free) -> tuple[bytes, tuple[str, ...]]:
    """The sort key of a component: its shape's digest, then its free names
    as ``free(name, mark)`` spells them."""
    return t.shape.digest, tuple([free(n, "~" if k == 2 else "") for n, k in t.args])


def _tied(comps: list[Term], free) -> list[list[Term]]:
    """``comps`` sorted by `_ordered` under ``free``, in runs that tie."""
    key = lambda t: _ordered(t, free)
    return [list(run) for _, run in groupby(sorted(comps, key=key), key)]


def arrangements(comps: list[Term], free, names=None) -> tuple[list[list[Term]], bool]:
    """``comps`` sorted by `_ordered` under ``free``, runs that tie sorted
    again under ``names`` if given; then every arrangement of what still
    ties, or the sorted order past the bound, and whether ``names`` ordered."""
    groups = _tied(comps, free)
    named = names is not None and any(len(set(g)) > 1 for g in groups)
    if named:
        groups = [sub for g in groups for sub in (_tied(g, names) if len(set(g)) > 1 else [g])]
    tied = [g for g in groups if len(set(g)) > 1]
    if not tied or prod(factorial(len(g)) for g in tied) > _MAX_TIE_ARRANGEMENTS:
        return [[c for g in groups for c in g]], named
    orders = (permutations(g) if len(set(g)) > 1 else (g,) for g in groups)
    return [[c for g in combo for c in g] for combo in product(*orders)], named


def _spelled(name: str, mark: str) -> str:
    """A free name for a tie-break; a stand-in shows only its position, and
    sorts before every name."""
    return mark + ("!" + name[1:name.index(":")] if name.startswith(_HIDDEN) else name)


class InternTable:
    """The shapes of one exploration, or of one `normalize` call.  ``hits``
    and ``misses`` count the lookups of a node that found its shape and
    that had to create it; ``memo_hits`` and ``memo_misses`` the
    substitutions that found their result in the memo and that formed it;
    ``view_hits`` and ``view_misses`` the calls of `head` that found the
    term's node and that viewed it."""

    def __init__(self):
        self._shapes: dict[tuple, Shape] = {}
        self._serial = count()
        # (shape, pattern) -> (result shape, wiring), or None where the
        # result is symmetric; see the module docstring
        self._memo: dict[tuple, tuple[Shape, tuple[tuple[int, int], ...]] | None] = {}
        self._heads: dict[Term, P.Process] = {}
        self.hits = self.misses = 0
        self.memo_hits = self.memo_misses = 0
        self.view_hits = self.view_misses = 0

    # ------------------------------------------------------------ nodes

    def node(self, q) -> Term:
        """The term of ``q``: a process node whose subterms are terms and
        whose other fields are spelled with names.  A subterm may be any
        term, a normal form or not: interning a process node by node, with
        no spine normalized, gives its alpha-invariant encoding."""
        holes: dict[tuple[str, int], int] = {}

        def hole(atom: tuple[str, int]) -> int:
            return holes.setdefault(atom, len(holes))

        def wire(t: Term, scope: dict[str, int]) -> tuple[Shape, tuple[int, ...]]:
            kids.append(t.shape)
            return t.shape, tuple(-1 - 3 * scope[n] - k if n in scope else hole((n, k)) for n, k in t.args)

        key: list = [type(q)]
        kids: list[Shape] = []
        bound: dict[str, int] = {}
        binders = 0
        for field, role in P.FORMS[type(q)].fields:
            x = getattr(q, field)
            if role is P.ENDPOINT or role is P.ENDPOINTS:
                x = tuple(hole((e.name, 2 if e.dual else 1)) for e in ((x,) if role is P.ENDPOINT else x))
            elif role is P.VALUE:
                x = _vars(x, lambda n: hole((n, 0)))
            elif role is P.VALUES:
                x = tuple(_vars(v, lambda n: hole((n, 0))) for v in x)
            elif role is P.SHARED:
                x = hole((x, 0))
            elif role in P._BINDERS:
                for name in P._binders(role, x):
                    bound[name] = binders
                    binders += 1
                x = len(x) if role in P._PARAMS else None
            elif role is P.SCOPED:
                if x.shape.symmetric and not all(n.startswith(_HIDDEN) for n in bound):
                    # names ordered components under here: hide the bound
                    # ones, which every spelling of them orders alike
                    hidden = {n: f"{_HIDDEN}{j}:{next(self._serial)}" for n, j in bound.items()}
                    x = self.subst(x, {n: P.Endpoint(h) for n, h in hidden.items()})
                    bound = {hidden[n]: j for n, j in bound.items()}
                x = wire(x, bound)
            elif role is P.OPEN:
                x = wire(x, {})
            elif role is P.ARMS:  # arms, and the holes they number, in label order: it carries no meaning
                x = tuple([(label, wire(t, {})) for label, t in sorted(x, key=lambda arm: arm[0])])
            elif role is P.ANNOTATION:
                x = None
            key.append(x)
        key = tuple(key)
        shape = self._shapes.get(key)
        if shape is None:
            self.misses += 1
            shape = self._shapes[key] = Shape()
            shape.key, shape.digest = key, _digest(key)
            shape.base = max((k.height for k in kids), default=0)
            shape.height = shape.base + binders
            shape.symmetric = any(k.symmetric for k in kids)
        else:
            self.hits += 1
        return Term(shape, tuple(holes))

    def view(self, t: Term, names=None):
        """The root node of ``t``, spelled: its subterms are terms, and its
        bound names come from the iterator ``names``, or are stand-ins."""
        shape, args = t
        if names is None:
            names = (f"{_HIDDEN}{j}:{next(self._serial)}" for j in count())
        bound: list[str] = []

        def child(c: tuple[Shape, tuple[int, ...]]) -> Term:
            return Term(c[0], tuple([args[w] if w >= 0 else (bound[(-1 - w) // 3], (-1 - w) % 3) for w in c[1]]))

        form, *fields = shape.key
        out = []
        for (_, role), x in zip(P.FORMS[form].fields, fields):
            if role is P.ENDPOINT or role is P.ENDPOINTS:
                x = tuple([P.Endpoint(args[i][0], args[i][1] == 2) for i in x])
                x = x[0] if role is P.ENDPOINT else x
            elif role is P.VALUE:
                x = _vars(x, lambda i: args[i][0])
            elif role is P.VALUES:
                x = tuple(_vars(v, lambda i: args[i][0]) for v in x)
            elif role is P.SHARED:
                x = args[x][0]
            elif role is P.CHANNEL_BINDER or role is P.VALUE_BINDER:
                x = next(names)
                bound.append(x)
            elif role in P._PARAMS:
                x = tuple((next(names), None) for _ in range(x))
                bound.extend(name for name, _ in x)
            elif role is P.SCOPED or role is P.OPEN:
                x = child(x)
            elif role is P.ARMS:
                x = tuple((label, child(c)) for label, c in x)
            out.append(x)
        return form(*out)

    def head(self, t: Term) -> P.Process:
        """`view` of ``t`` with stand-in binders, viewed once per table and
        kept; its binders are shared (see the module docstring)."""
        node = self._heads.get(t)
        if node is None:
            self.view_misses += 1
            node = self._heads[t] = self.view(t)
        else:
            self.view_hits += 1
        return node

    def subst(self, t: Term, mapping: dict[str, P.Replacement]) -> Term:
        """``t`` with free names replaced as `process.substitute` replaces
        them.  Renaming to names ``t`` does not use rewrites its arguments
        alone; merging names, or putting a value in, forms the result once
        per shape and pattern (see the module docstring)."""
        args, filled = [], False
        for name, kind in t.args:
            r = mapping.get(name)
            if isinstance(r, P.Endpoint):
                args.append((r.name, 3 - kind if kind and r.dual else kind))
            elif isinstance(r, P.VarRef):
                args.append((r.name, kind))
            elif r is None or kind:  # other values leave endpoint occurrences alone
                args.append((name, kind))
            elif P.value_var_names(r):
                return self.term(t, mapping)
            else:  # a value; its hole's name stays in shared occurrences
                args.append((name, r))
                filled = True
        if t.shape.symmetric:
            return self.term(t, mapping)
        if not filled and len(set(args)) == len(args):
            return Term(t.shape, tuple(args))
        index: dict[str, int] = {}
        pattern = tuple((index.setdefault(name, len(index)), x) for name, x in args)
        key = (t.shape, pattern)
        if key not in self._memo:
            self.memo_misses += 1
            out = self.term(t, mapping)
            self._memo[key] = None if out.shape.symmetric else (out.shape, tuple((index[n], k) for n, k in out.args))
            return out
        memo = self._memo[key]
        if memo is None or memo[0].symmetric:  # names may order the result
            return self.term(t, mapping)
        self.memo_hits += 1
        names = list(index)
        return Term(memo[0], tuple((names[i], k) for i, k in memo[1]))

    def term(self, root, mapping: dict[str, P.Replacement] | None = None) -> Term:
        """The normal form of ``root``, a process or a term, with free names
        replaced through ``mapping``: a `terms.fold` whose context is the
        substitution in scope.  A term it leaves alone is kept whole.  A
        `Par`/`New`/`Nil` spine is one node over its components, left as a
        normal form.  Any other node, viewed if it is a term, is renamed by
        `process.renamed`, the step of `substitute`, and interned over its
        subterms' terms.  A process with a mapping is interned first and
        then substituted as a term, so its restrictions, hidden, neither
        take the mapping nor capture what it puts in."""
        if mapping and type(root) is not Term:
            return self.subst(self.term(root), mapping)

        def enter(u, ctx):
            if type(u) is Term:
                names = {n for n, _ in u.args}
                m = {n: r for n, r in ctx[0].items() if n in names}
                if not m:
                    return None, ()
                ctx = (m, *ctx[1:])
                if u.shape.key[0] in _SPINE:
                    restricted, comps = self.open(u)
                    return set(restricted), [(c, ctx) for c in comps]
                u = self.view(u)
            elif type(u) in _SPINE:  # hide the restrictions once the components are done
                restricted, leaves = self._spine(u)
                return (restricted, [env for _, env in leaves]), [(q, ctx) for q, _ in leaves]
            # a view binds only names the mapping does not hold
            return P.renamed(u, ctx) if ctx[0] else (u, [(kid, ctx) for kid in P.subterms(u)])

        def leave(u, note, kids: list[Term]) -> Term:
            if note is None:
                return u
            if type(note) is set:
                # formed anew after a substitution, a term's normal form keeps
                # the order its restrictions were given (see `normal`)
                return self._nest(note, kids)
            if type(note) is tuple:
                restricted, envs = note
                return self.normal(restricted, [self.subst(c, env) if env else c for c, env in zip(kids, envs)])
            return self.node(P.with_subterms(note, kids))

        return fold(root, P.substitution(mapping or {}, {}), enter, leave)

    # ----------------------------------------------------- normal forms

    def _spine(self, p: P.Process, env: dict | None = None) -> tuple[list[str], list[tuple[P.Process, dict]]]:
        """The restrictions of the `Par`/`New` spine of ``p``, hidden, and its
        other nodes, each with the renaming of the restrictions over it,
        which extends ``env``."""
        restricted, leaves, stack = [], [], [(p, env or {})]
        while stack:
            q, env = stack.pop()
            if type(q) is P.Par:
                stack += [(q.right, env), (q.left, env)]
            elif type(q) is P.New:
                restricted.append(f"{_HIDDEN}:{next(self._serial)}")
                stack.append((q.body, {**env, q.name: P.Endpoint(restricted[-1])}))
            elif type(q) is not P.Nil:
                leaves.append((q, env))
        return restricted, leaves

    def open(self, t: Term, names=None) -> tuple[list[str], list[Term]]:
        """The restricted names and the components of the normal form
        ``t``; the restrictions are spelled as `view` spells binders."""
        restricted, comps, stack = [], [], [t]
        while stack:
            u = stack.pop()
            v = self.view(u, names) if u.shape.key[0] in _SPINE else None
            if type(v) is P.Par:
                stack += [v.right, v.left]
            elif type(v) is P.New:
                restricted.append(v.name)
                stack.append(v.body)
            elif v is None:
                comps.append(u)
        return restricted, comps

    def normal(self, restricted, comps: list[Term]) -> Term:
        """The normal form of ``new restricted. (comps)``, where no
        component has `Par`, `New` or `Nil` at its root.  Where names
        ordered components inside some of ``comps``, the restrictions among
        those names are spelled by position in every order, and the least
        result is kept, so that no spelling of theirs decides."""
        if not comps:
            return self.node(P.NIL)
        restricted = set(restricted)
        tied = [n for n in dict.fromkeys(n for c in comps if c.shape.symmetric for n, _ in c.args) if n in restricted]
        if not tied or factorial(len(tied)) > _MAX_TIE_ARRANGEMENTS:
            return self._nest(restricted, comps)
        forms = []
        for order in permutations(range(len(tied))):
            spelled = {n: P.Endpoint(f"{_HIDDEN}{j}:{next(self._serial)}") for n, j in zip(tied, order)}
            inner = (restricted - set(tied)) | {e.name for e in spelled.values()}
            forms.append(self._nest(inner, [self.subst(c, spelled) for c in comps]))
        return min(forms, key=lambda t: _ordered(t, _spelled))

    def _nest(self, restricted: set[str], comps: list[Term]) -> Term:
        """`normal` once the order of the restrictions cannot matter."""
        orders, named = arrangements(comps, lambda n, mark: f"<nu{mark}>" if n in restricted else "#", _spelled)
        forms = []
        for arranged in orders:
            body = arranged[-1]
            for c in reversed(arranged[:-1]):
                body = self.node(P.Par(c, body))
            for name in reversed(list(dict.fromkeys(n for n, _ in body.args if n in restricted))):
                body = self.node(P.New(name, None, body))
            forms.append(body)
        best = min(forms, key=lambda t: _ordered(t, _spelled))
        if named or len(set(forms)) > 1:
            best.shape.symmetric = True
        return best

    # ------------------------------------------------------- processes

    def process(self, t: Term, names=None) -> P.Process:
        """``t`` as a process.  Binders take their names from ``names``, an
        iterator consumed in pre-order, or else `%h` after their height, so
        that a subterm is spelled alike wherever it sits; free names that
        look like `%h` are not avoided."""

        def enter(u: Term, _) -> tuple[P.Process, list]:
            view = self.view(u, names if names is not None else (f"%{k}" for k in count(u.shape.base)))
            return view, [(kid, None) for kid in P.subterms(view)]

        return fold(t, None, enter, lambda u, view, kids: P.with_subterms(view, kids))


def normalize(p: P.Process) -> P.Process:
    """The canonical structural-congruence normal form of ``p``; it is
    idempotent, and alpha-equivalent or congruent inputs give one output."""
    table = InternTable()
    return table.process(table.term(p))
