"""Structural-congruence normal forms, built from interned components.

A normal form flattens parallel composition, drops nil and unused
restrictions, hoists restrictions to the top of their parallel context,
sorts the components and drops type annotations.  Congruent inputs, alpha
variants included, have one normal form.  Definition names count as
spelled, as free names do: `def X` and `def Y` variants keep their names,
and their normal forms differ.

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
`<nu>`, other free names alike whatever their polarity; then with free
names spelled.  A shape whose order names decided is marked ``symmetric``:
renaming a free name of a symmetric term rebuilds it, and a binder above it
hides its names.  A stand-in is spelled by its binder's height, so those of
nested binders never print alike, and sorts before every visible name.

Components still tied, and the inside of a symmetric one that uses a
restriction, are ordered by the restricted names alone.  For them one
search, `InternTable.canonical`, serves normal forms and `semantics` state
keys: a canonical labeling of those names by individualization and
refinement (McKay & Piperno, *Practical graph isomorphism, II*, 2014).
Components are coloured by their sort keys (symmetric ones all alike, no
position read), names by where they occur, both refined until stable; a
cell of names left is split by individualizing each member in turn, or all
at once if each exchanges with the first.  At a leaf every name is renamed
by its label and the least sorted leaf wins.  A member is skipped if its
exchange with one tried, or an automorphism that fixes the names above,
maps it onto one tried.  Two equal leaves show an automorphism; one equal
to the first sends the search back to the first path.  There is no bound.

Putting a value in, or merging two names, changes a term's shape, and
`InternTable.subst` forms each such result once per table.  Its memo maps
a shape and a *pattern* to the result's shape and *wiring*.  The pattern
gives each hole the index of the name its occurrence becomes, among the
distinct names in first-occurrence order, and its kind; or the value it
receives, and the index of its own name, which a shared occurrence keeps.
The wiring spells each argument of the result as such an index and a kind,
and a hit fills it with the real names and looks up no node.  Invariant:
the result depends on the pattern alone.  Outside symmetric shapes the
rebuild is name-blind: `normal` spells free names ``#`` first, and marks
every tie that names decide.  So the memo declines where names may decide:
a symmetric term, and a result that is symmetric or has been marked so
since, are rebuilt as if there were no memo.  A miss rebuilds from shape
keys and builds no process: a hole takes its new name or value, a binder
stays a position, and a spine is formed again by `normal`.

`view` spells a node afresh on every call, with fresh stand-ins for its
binders.  `InternTable.head` views a term once per table and keeps the
node: execution looks at the heads of the same components step after step.
Invariant: a kept head's stand-in binders may be shared by every use of it,
so each one is filled (by a receive, an accept or a request) before its
continuation enters a configuration.  ``view_hits`` and ``view_misses``
count the heads found and the ones viewed.
"""
from __future__ import annotations

from collections import Counter
from hashlib import blake2b
from itertools import count
from typing import NamedTuple

from . import process as P
from .terms import fold

# Names that stand in for bound names start with this character, which no
# parsed or generated name contains: "\0<h>:<k>" for a binder at height h
# (its node's base and its position there), "\0:<k>" for a restriction, and
# "\0r<j>:<k>" for a restriction labelled j; k is a serial number of the
# table, so no two stand-ins are spelled alike.
_HIDDEN = "\x00"
_SPINE = (P.Par, P.New, P.Nil)
_PAR = P.Par(P.NIL, P.NIL)  # `InternTable.node` reads no subterm of it


class Shape:
    """An interned node, made from its ``key``: its constructor and encoded
    fields; ``digest`` orders it (see the module docstring).  ``height`` is
    ``base``, the largest height of its subterms, plus the names it binds.
    ``symmetric`` marks a normal form, or a node above one, whose component
    order names decided.  ``shared`` lists the holes with a shared occurrence
    in or under the node, ``children`` its subterms' shapes and wirings."""

    __slots__ = ("key", "digest", "base", "height", "symmetric", "shared", "children")

    def __init__(self, key: tuple):
        form, *fields = key
        spelled, kids, binders, shared, base, symmetric = [P.FORMS[form].tag], [], 0, set(), 0, False
        for (_, role), x in zip(P.FORMS[form].fields, fields):
            if role is P.VALUE:
                x = P.format_value(x, "${}".format)
            elif role is P.VALUES:
                x = tuple(P.format_value(v, "${}".format) for v in x)
            elif role is P.SCOPED or role is P.OPEN:
                kids.append(x)
                x = x[0].digest, x[1]
            elif role is P.ARMS:
                kids += [c for _, c in x]
                x = tuple((label, (kid.digest, wiring)) for label, (kid, wiring) in x)
            elif role is P.SHARED:
                shared.add(x)
            elif role in P._BINDERS:
                binders += x if role in P._PARAMS else 1
            spelled.append(x)
        for kid, wiring in kids:
            base, symmetric = max(base, kid.height), symmetric or kid.symmetric
            if kid.shared:
                shared.update([wiring[i] for i in kid.shared if wiring[i] >= 0])
        self.key, self.digest = key, blake2b(repr(tuple(spelled)).encode(), digest_size=16).digest()
        self.base, self.height, self.symmetric = base, base + binders, symmetric
        self.shared, self.children = tuple(shared), tuple(kids)


class Term(NamedTuple):
    shape: Shape
    args: tuple[tuple[str, int], ...]


def _vars(v: P.Value, f) -> P.Value:
    """``v`` with each variable ``x`` replaced by the value ``f(x)``."""
    if type(v) is P.VarRef:
        return f(v.name)
    return v if type(v) is P.NatLit else P.fold_value(v, lambda u: f(u.name) if type(u) is P.VarRef else u)


def _wired(t, holes: dict, bound: dict, args=()) -> tuple[Shape, tuple[int, ...]]:
    """The term ``t`` as a child: a name ``bound`` holds by its binder's
    position, any other argument by its hole, which ``holes`` numbers on
    first occurrence; or a kept child, a shape and wiring over ``args``."""
    if type(t) is not Term:
        return t[0], tuple([w if w < 0 else holes.setdefault(args[w], len(holes)) for w in t[1]])
    wiring = []
    for atom in t.args:
        j = bound.get(atom[0])
        wiring.append(holes.setdefault(atom, len(holes)) if j is None else -1 - 3 * j - atom[1])
    return t.shape, tuple(wiring)


def _moved(args: tuple, mapping: dict[str, P.Replacement]) -> tuple[list, list[P.Value]]:
    """``args`` with ``mapping`` applied as `process.substitute` applies it, each
    a name and kind, or the old name and the value that fills it; and those values."""
    out, filled = [], []
    for name, kind in args:
        r = mapping.get(name)
        if type(r) is P.Endpoint:
            out.append((r.name, 3 - kind if kind and r.dual else kind))
        elif type(r) is P.VarRef:
            out.append((r.name, kind))
        elif r is None or kind:  # other values leave endpoint occurrences alone
            out.append((name, kind))
        else:
            out.append((name, r))
            filled.append(r)
    return out, filled


def _spelled_child(c: tuple[Shape, tuple[int, ...]], args: tuple, bound: list[str]) -> Term:
    """The child ``c`` of a node over ``args`` as a term, binders spelled by ``bound``."""
    return Term(c[0], tuple([args[w] if w >= 0 else (bound[(-1 - w) // 3], (-1 - w) % 3) for w in c[1]]))


def _ordered(t: Term, free) -> tuple[bytes, tuple[str, ...]]:
    """The sort key of a component: its shape's digest, then its free names
    as ``free(name, mark)`` spells them."""
    return t.shape.digest, tuple([free(n, "~" if k == 2 else "") for n, k in t.args])


def _sorted(comps, key) -> tuple[list, list[Term]]:
    """The keys of ``comps`` in order, and ``comps`` sorted by them."""
    keys = [key(c) for c in comps]
    order = sorted(range(len(comps)), key=keys.__getitem__)
    return [keys[i] for i in order], [comps[i] for i in order]


def _ties(keys: list, comps: list[Term]) -> bool:
    """Whether two distinct components sorted next to each other tie."""
    return any(k == l and c != d for k, l, c, d in zip(keys, keys[1:], comps, comps[1:]))


def _ranks(signatures: list) -> list[int]:
    """Each signature's rank among the distinct ones."""
    rank = {sig: r for r, sig in enumerate(sorted(set(signatures)))}
    return [rank[sig] for sig in signatures]


def _split(colours: list[int], other: list[int], incidence: list) -> list[int]:
    """``colours`` refined by the colours in ``other`` of what each meets, where, at which kind."""
    return _ranks([(c, tuple(sorted((p, other[x], k) for x, p, k in row))) for c, row in zip(colours, incidence)])


def _spelled(name: str, mark: str) -> str:
    """A free name for a tie-break; a stand-in shows only its height, or its
    label, and sorts before every name."""
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
        # (shape, pattern) -> (result shape, wiring), or None: see the module docstring
        self._memo: dict[tuple, tuple[Shape, tuple[tuple[int, int], ...]] | None] = {}
        self._heads: dict[Term, P.Process] = {}
        self.hits = self.misses = 0
        self.memo_hits = self.memo_misses = 0
        self.view_hits = self.view_misses = 0

    # ------------------------------------------------------------ nodes

    def _intern(self, key: tuple) -> Shape:
        shape = self._shapes.get(key)
        self.hits += shape is not None
        if shape is None:
            self.misses += 1
            shape = self._shapes[key] = Shape(key)
        return shape

    def node(self, q: P.Process, kids: list[Term]) -> Term:
        """The term of the process node ``q`` over ``kids``, its subterms'
        terms as `process.subterms` lists them.  A subterm may be any term,
        a normal form or not: interning a process node by node, with no spine
        normalized, gives its alpha-invariant encoding."""
        holes: dict[tuple[str, int], int] = {}
        key, bound, binders, rest = [type(q)], {}, 0, iter(kids)
        for field, role in P.FORMS[type(q)].fields:
            x = getattr(q, field)
            if role is P.ENDPOINT or role is P.ENDPOINTS:
                x = (x,) if role is P.ENDPOINT else x
                x = tuple([holes.setdefault((e.name, 2 if e.dual else 1), len(holes)) for e in x])
            elif role is P.SCOPED:
                t = next(rest)
                if t.shape.symmetric and not all(n.startswith(_HIDDEN) for n in bound):
                    # names ordered components under here: hide the bound
                    # ones, which every spelling of them orders alike
                    base = max(k.shape.height for k in kids)
                    hidden = {n: f"{_HIDDEN}{base + j}:{next(self._serial)}" for n, j in bound.items()}
                    t = self.subst(t, {n: P.Endpoint(h) for n, h in hidden.items()})
                    bound = {hidden[n]: j for n, j in bound.items()}
                x = _wired(t, holes, bound)
            elif role is P.OPEN:
                x = _wired(next(rest), holes, {})
            elif role is P.VALUE or role is P.VALUES:
                hole = lambda n: P.VarRef(holes.setdefault((n, 0), len(holes)))
                x = _vars(x, hole) if role is P.VALUE else tuple([_vars(v, hole) for v in x])
            elif role is P.SHARED:
                x = holes.setdefault((x, 0), len(holes))
            elif role in P._BINDERS:
                for name in P._binders(role, x):
                    bound[name], binders = binders, binders + 1
                x = len(x) if role in P._PARAMS else None
            elif role is P.ARMS:  # arms, and the holes they number, in label order: it carries no meaning
                arms = sorted(zip([label for label, _ in x], rest), key=lambda arm: arm[0])
                x = tuple([(label, _wired(t, holes, {})) for label, t in arms])
            elif role is P.ANNOTATION:
                x = None
            key.append(x)
        return Term(self._intern(tuple(key)), tuple(holes))

    def view(self, t: Term) -> P.Process:
        """The root node of ``t``, spelled: its subterms are terms, and its
        bound names are stand-ins."""
        return t.shape.key[0](*self._spell(t)[0])

    def _spell(self, t: Term, names=None) -> tuple[list, list[Term]]:
        """The fields of `view`, and the terms among them in order."""
        shape, args = t
        if names is None:
            names = (f"{_HIDDEN}{h}:{next(self._serial)}" for h in count(shape.base))
        form, *fields = shape.key
        out, bound, kids = [], [], []
        for (_, role), x in zip(P.FORMS[form].fields, fields):
            if role is P.ENDPOINT or role is P.ENDPOINTS:
                x = tuple([P.Endpoint(args[i][0], args[i][1] == 2) for i in x])
                x = x[0] if role is P.ENDPOINT else x
            elif role is P.VALUE or role is P.VALUES:
                var = lambda i: P.VarRef(args[i][0])
                x = _vars(x, var) if role is P.VALUE else tuple(_vars(v, var) for v in x)
            elif role is P.SHARED:
                x = args[x][0]
            elif role in P._BINDERS:
                spelled = [next(names) for _ in range(x if role in P._PARAMS else 1)]
                bound += spelled
                x = tuple((name, None) for name in spelled) if role in P._PARAMS else spelled[0]
            elif role is P.SCOPED or role is P.OPEN:
                x = _spelled_child(x, args, bound)
                kids.append(x)
            elif role is P.ARMS:
                x = tuple((label, _spelled_child(c, args, bound)) for label, c in x)
                kids += [t for _, t in x]
            out.append(x)
        return out, kids

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
        args, filled = _moved(t.args, mapping)
        if t.shape.symmetric or filled and any(P.value_var_names(v) for v in filled):
            return self._rebuild(t, mapping)
        if not filled and len(set(args)) == len(args):
            return Term(t.shape, tuple(args))
        index: dict[str, int] = {}
        key = (t.shape, tuple((index.setdefault(name, len(index)), x) for name, x in args))  # the pattern
        if key not in self._memo:
            self.memo_misses += 1
            out = self._rebuild(t, mapping)
            self._memo[key] = None if out.shape.symmetric else (out.shape, tuple((index[n], k) for n, k in out.args))
            return out
        memo = self._memo[key]
        if memo is None or memo[0].symmetric:  # names may order the result
            return self._rebuild(t, mapping)
        self.memo_hits += 1
        names = list(index)
        return Term(memo[0], tuple((names[i], k) for i, k in memo[1]))

    def _rebuild(self, t: Term, mapping: dict[str, P.Replacement]) -> Term:
        """`subst` formed anew: a `terms.fold` down the terms that hold a
        mapped name.  A child that holds none is kept whole, as its shape and
        wiring; one that does is spelled, its parent's binders by stand-ins."""

        def enter(u, _):
            if type(u) is not Term or not any(n in mapping for n, _ in u.args):
                return None, ()
            if u.shape.key[0] in _SPINE:
                restricted, comps = self.open(u)
                return set(restricted), [(c, None) for c in comps]
            kids, bound = [], []
            for c in u.shape.children:
                if any(w >= 0 and u.args[w][0] in mapping for w in c[1]):
                    if not bound:
                        bound = [f"{_HIDDEN}{h}:{next(self._serial)}" for h in range(u.shape.base, u.shape.height)]
                    c = _spelled_child(c, u.args, bound)
                kids.append((c, None))
            return {name: j for j, name in enumerate(bound)}, kids

        def leave(u, bound, kids: list) -> Term:
            if type(bound) is not dict:  # a term kept whole, or a spine
                return u if bound is None else self.normal(bound, kids)
            args, holes, kids = u.args, {}, iter(kids)
            moved = _moved(args, mapping)[0]
            # an endpoint or shared occurrence keeps its name where a value comes in
            hole = lambda i: holes.setdefault(moved[i] if type(moved[i][1]) is int else args[i], len(holes))
            var = lambda n: P.VarRef(holes.setdefault((n, 0), len(holes)))
            value = lambda i: _vars(P.VarRef(moved[i][0]) if type(moved[i][1]) is int else moved[i][1], var)
            form, *fields = u.shape.key
            key = [form]
            for (_, role), x in zip(P.FORMS[form].fields, fields):
                if role is P.ENDPOINT or role is P.ENDPOINTS:
                    x = tuple([hole(i) for i in x])
                elif role is P.SHARED:
                    x = hole(x)
                elif role is P.VALUE or role is P.VALUES:
                    x = _vars(x, value) if role is P.VALUE else tuple([_vars(v, value) for v in x])
                elif role is P.SCOPED or role is P.OPEN:
                    x = _wired(next(kids), holes, bound, args)
                elif role is P.ARMS:
                    x = tuple([(label, _wired(next(kids), holes, bound, args)) for label, _ in x])
                key.append(x)
            return Term(self._intern(tuple(key)), tuple(holes))

        return fold(t, None, enter, leave)

    def term(self, root: P.Process) -> Term:
        """The normal form of the process ``root``: a `terms.fold` that
        interns it node by node.  A `Par`/`New`/`Nil` spine is one node over
        its components, its restrictions hidden, left as a normal form."""

        def enter(u: P.Process, _):
            if type(u) in _SPINE:  # hide the restrictions once the components are done
                restricted, leaves = self._spine(u)
                return (restricted, [env for _, env in leaves]), [(q, None) for q, _ in leaves]
            return None, [(kid, None) for kid in P.subterms(u)]

        def leave(u: P.Process, note, kids: list[Term]) -> Term:
            if note is None:
                return self.node(u, kids)
            restricted, envs = note
            return self.normal(restricted, [self.subst(c, env) if env else c for c, env in zip(kids, envs)])

        return fold(root, None, enter, leave)

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
        """The restricted names and the components of the normal form ``t``,
        read from its keys; the restrictions are named from ``names``, or else stand-ins."""
        restricted, comps, stack = [], [], [t]
        while stack:
            u = stack.pop()
            form = u.shape.key[0]
            if form is P.New:
                restricted.append(next(names) if names is not None else f"{_HIDDEN}:{next(self._serial)}")
            if form is P.Par or form is P.New:  # a restriction binds in position 0
                stack += reversed([_spelled_child(c, u.args, restricted[-1:]) for c in u.shape.children])
            elif form is not P.Nil:
                comps.append(u)
        return restricted, comps

    def normal(self, restricted, comps: list[Term]) -> Term:
        """The normal form of ``new restricted. (comps)``, where no
        component has `Par`, `New` or `Nil` at its root.  Where distinct
        components tie, or a symmetric one uses a restriction, every
        restriction is first spelled by a `canonical` labeling."""
        if not comps:
            return self.node(P.NIL, [])
        restricted = set(restricted)
        blind = lambda n, mark: f"<nu{mark}>" if n in restricted else "#"
        keys, comps = _sorted(comps, lambda c: _ordered(c, blind))
        symmetric = _ties(keys, comps)  # names ordered components
        if symmetric:
            keys, comps = _sorted(comps, lambda c: (_ordered(c, blind), _ordered(c, _spelled)))
        tied = symmetric and _ties(keys, comps)
        if tied or any(c.shape.symmetric and any(n in restricted for n, _ in c.args) for c in comps):
            serial = next(self._serial)
            labels = [f"{_HIDDEN}r{j}:{serial}" for j in range(len(restricted))]
            comps, restricted = self.canonical(comps, keys, restricted, labels), set(labels)
        body = comps[-1]
        for c in reversed(comps[:-1]):
            body = self.node(_PAR, [c, body])
        for name in reversed(list(dict.fromkeys(n for n, _ in body.args if n in restricted))):
            body = self.node(P.New(name, None, P.NIL), [body])
        body.shape.symmetric |= symmetric
        return body

    def canonical(self, comps: list[Term], keys: list, restricted, targets: list[str]) -> list[Term]:
        """``comps`` renamed by a canonical labeling of the ``restricted`` names, label j to ``targets[j]``,
        and sorted; their ``keys``, spelling those names alike, colour them first (see the module docstring)."""
        names = list(dict.fromkeys(n for c in comps for n, _ in c.args if n in restricted))
        # each component's restricted occurrences, and each name's: the other, position (none if symmetric), kind
        incident = [[(names.index(n), -1 if c.shape.symmetric else p, k)
                     for p, (n, k) in enumerate(c.args) if n in restricted] for c in comps]
        occurs = [[(i, p, k) for i, row in enumerate(incident) for x, p, k in row if x == j] for j in range(len(names))]
        automorphisms, seen, best = [], {}, []  # found as lists of name indices; leaves by keys; the least leaf

        def swaps(u: int, w: int) -> bool:  # whether exchanging two names maps the components onto themselves
            swap = {names[u]: names[w], names[w]: names[u]}
            touched = [comps[i] for i in {i for i, _, _ in occurs[u] + occurs[w]}]
            return Counter(touched) == Counter(Term(c.shape, tuple([(swap.get(n, n), k) for n, k in c.args]))
                                               for c in touched)

        def search(ncol: list[int], ccol: list[int]) -> bool:  # whether to go back to the first path
            first = not seen  # on the path to the first leaf
            while True:
                cells = -1  # refine both colourings until they are stable
                while cells < (cells := len(set(ncol)) + len(set(ccol))):
                    ncol, ccol = _split(ncol, ccol, occurs), _split(ccol, ncol, incident)
                cell = min((c for c, size in Counter(ncol).items() if size > 1), default=None)
                members = [j for j, c in enumerate(ncol) if c == cell]
                if cell is None or not all(swaps(members[0], w) for w in members[1:]):
                    break  # else each member exchanges with the first, so they take labels in any order
                ncol = _ranks([(c, members.index(j) if c == cell else 0) for j, c in enumerate(ncol)])
            if cell is None:  # a leaf: every name has a label of its own
                mapping = {n: P.Endpoint(targets[ncol[j]]) for j, n in enumerate(names)}
                cert, out = _sorted([self.subst(c, mapping) for c in comps], lambda c: _ordered(c, lambda n, m: m + n))
                other = seen.setdefault(tuple(cert), ncol)
                if other is not ncol:  # each name to the one labelled alike in the other leaf
                    automorphisms.append([other.index(c) for c in ncol])
                if not best or cert < best[0]:
                    best[:] = cert, out
                return not first and other is next(iter(seen.values()))  # all below is a copy of the first path's
            tried: list[int] = []
            for w in members:
                kept = [g for g in automorphisms if all(ncol[x] == c for x, c in zip(g, ncol))]  # fix the names above
                orbit, grown = set(), {w}
                while grown:
                    orbit |= grown
                    grown = {g[x] for g in kept for x in grown} - orbit
                if orbit.isdisjoint(tried) and not any(swaps(u, w) for u in tried):
                    tried.append(w)
                    if search(_ranks([(c, j != w) for j, c in enumerate(ncol)]), ccol) and not first:
                        return True
            return False

        search([0] * len(names), _ranks([() if c.shape.symmetric else k for c, k in zip(comps, keys)]))
        return best[1]

    # ------------------------------------------------------- processes

    def process(self, t: Term, names=None) -> P.Process:
        """``t`` as a process, each node built once.  Binders take their
        names from ``names``, an iterator consumed in pre-order, or else
        `%h` after their height, so that a subterm is spelled alike wherever
        it sits; free names that look like `%h` are not avoided."""

        def enter(u: Term, _) -> tuple[list, list]:
            fields, kids = self._spell(u, names if names is not None else (f"%{k}" for k in count(u.shape.base)))
            return fields, [(kid, None) for kid in kids]

        def leave(u: Term, fields: list, kids: list[P.Process]) -> P.Process:
            kids, form = iter(kids), u.shape.key[0]
            return form(*[next(kids) if type(x) is Term else tuple([(label, next(kids)) for label, _ in x])
                          if role is P.ARMS else x for (_, role), x in zip(P.FORMS[form].fields, fields)])

        return fold(t, None, enter, leave)


def normalize(p: P.Process) -> P.Process:
    """The canonical structural-congruence normal form of ``p``; it is
    idempotent, and alpha-equivalent or congruent inputs give one output."""
    table = InternTable()
    return table.process(table.term(p))
