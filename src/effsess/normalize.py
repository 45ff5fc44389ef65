"""Structural-congruence normal forms for processes.

The canonical form flattens parallel composition, removes nil units and
garbage restrictions, hoists restrictions to the top of their parallel
context, sorts components by a structural key, and renames restricted and
bound names to a canonical scheme (`#k` for hoisted restrictions, `%k` for
binders).  Alpha-equivalent inputs produce identical outputs; the function
is idempotent.

Type annotations are runtime-irrelevant and are stripped: the normal form
is the execution-facing shape of a process.

Components whose name-erased skeletons tie are canonicalized by taking the
lexicographically least renaming over the tied permutations; the group
sizes this tool encounters are tiny, and pathological tie groups fall back
to a deterministic (input-order) arrangement.
"""

from __future__ import annotations

from itertools import permutations, product

from . import process as P

_MAX_TIE_ARRANGEMENTS = 720


class ComponentSteps:
    """The per-component steps of a normalization pass.  Each is a pure
    function of a component's structure; this class computes them afresh on
    every call, and `semantics.ComponentTable` memoizes them for one
    exploration."""

    def leaf(self, p: P.Process) -> tuple[P.Process, dict[str, None]]:
        """A component with its subterms normalized, and its free names."""
        kids = []
        for sub in P.subterms(p):
            restricted, comps = canonical_parts(*_decompose(sub, self), self)
            kids.append(P.new(restricted, P.par(*comps)))
        comp = P.with_subterms(p, kids)
        return comp, P.free_names(comp).terms

    def binders(self, c: P.Process, names: dict[str, None]) -> P.Process:
        """`canonical_binders` of a component whose free names are ``names``."""
        return P.canonical_binders(c, names)

    def skeleton(self, c: P.Process, erase: frozenset[str]) -> str:
        """The sort key of a component; ``erase`` holds only free names of it."""
        return P.serialize_process(c, erase)

    def renamed(self, c: P.Process, renames: tuple[tuple[str, str], ...]) -> P.Process:
        """``c`` with free names renamed to `#k` targets.  ``c`` has canonical
        binders, which are spelled `%k`, so no binder can capture a target."""
        return P.substitute(c, {old: P.Endpoint(new) for old, new in renames})

    def key(self, c: P.Process) -> str:
        """The serialization of a canonical component."""
        return P.serialize_process(c)


_STEPS = ComponentSteps()


def _decompose(
    p: P.Process, steps: ComponentSteps = _STEPS
) -> tuple[list[str], list[P.Process], list[dict[str, None]]]:
    """Flatten to (hoisted restricted names, parallel components, free
    names of each component).  The subterms of each component are
    normalized once, by recursion into this function alone, so a level of
    process nesting costs one Python frame."""
    cls = type(p)
    if cls is P.Nil:
        return [], [], []
    if cls is P.Par:
        r1, c1, f1 = _decompose(p.left, steps)
        r2, c2, f2 = _decompose(p.right, steps)
        if not r1 and not r2:  # no restriction to keep apart
            return [], c1 + c2, f1 + f2
        taken = set(r1).union(*f1)
        renames: dict[str, str] = {}
        for name in r2:
            if name in taken:
                fresh = P.fresh_name(name, taken | set(r2) | set(renames.values()))
                renames[name] = fresh
                taken.add(fresh)
            else:
                taken.add(name)
        if renames:
            c2, f2 = _renamed(c2, renames)
            r2 = [renames.get(name, name) for name in r2]
        other_free = set().union(*f2)
        clash = [name for name in r1 if name in other_free]
        if clash:
            renames1 = {}
            avoid = taken | other_free
            for name in clash:
                fresh = P.fresh_name(name, avoid)
                renames1[name] = fresh
                avoid.add(fresh)
            c1, f1 = _renamed(c1, renames1)
            r1 = [renames1.get(name, name) for name in r1]
        return r1 + r2, c1 + c2, f1 + f2
    if cls is P.New:
        names = []
        while type(p) is P.New:
            names.append(p.name)
            p = p.body
        r, c, f = _decompose(p, steps)
        # drop a restriction an inner one shadows entirely, or one unused
        used = set().union(*f)
        bound = set(r)
        kept = []
        for name in reversed(names):
            if name not in bound and name in used:
                kept.append(name)
                bound.add(name)
        return kept[::-1] + r, c, f
    comp, names = steps.leaf(p)
    return [], [comp], [names]


def _renamed(comps: list[P.Process], renames: dict[str, str]):
    mapping = {old: P.Endpoint(new) for old, new in renames.items()}
    comps = [P.substitute(comp, mapping) for comp in comps]
    return comps, [P.free_names(comp).terms for comp in comps]


def canonical_parts(
    restricted: list[str],
    comps: list[P.Process],
    frees: list[dict[str, None]],
    steps: ComponentSteps = _STEPS,
) -> tuple[list[str], list[P.Process]]:
    """Sort components and rename restricted names canonically.  ``frees``
    holds the free names of each component, as `_decompose` returns them.

    Sorting uses de-Bruijn skeletons, so it is independent of both bound
    names and the restricted names being (re)assigned; binder names are
    normalized only once positions are fixed, which makes the whole pass
    idempotent.
    """
    # Renaming binders changes neither the free names nor where they first
    # occur, so one walk per component serves the whole pass.
    occurring = set().union(*frees)
    live = [n for n in restricted if n in occurring]
    erase = frozenset(live)
    # Binder names move into the %k namespace first: afterwards no binder
    # can collide with (or capture) a #k restriction target.
    parts = [(steps.binders(c, names), names) for c, names in zip(comps, frees)]
    keyed = sorted(
        ((steps.skeleton(c, erase.intersection(names)), (c, names)) for c, names in parts), key=lambda kv: kv[0]
    )

    groups: list[list[tuple[P.Process, dict[str, None]]]] = []
    group_keys: list[str] = []
    for key, part in keyed:
        if group_keys and group_keys[-1] == key:
            groups[-1].append(part)
        else:
            group_keys.append(key)
            groups.append([part])

    total = 1
    for g in groups:
        for i in range(2, len(g) + 1):
            total *= i
    if total > _MAX_TIE_ARRANGEMENTS:
        arrangements = [[part for g in groups for part in g]]
    else:
        arrangements = [
            [part for perm in combo for part in perm]
            for combo in product(*(list(permutations(g)) for g in groups))
        ]

    # Canonical `#k` targets must avoid names occurring free in the
    # components (an enclosing normalization's restrictions look free from
    # here and must not be captured).
    free_names = occurring - erase
    targets: list[str] = []
    k = 0
    while len(targets) < len(live):
        name = f"#{k}"
        if name not in free_names:
            targets.append(name)
        k += 1

    best: tuple[str, list[str], list[P.Process]] | None = None
    for arranged in arrangements:
        order: dict[str, None] = {}
        for _, names in arranged:
            for n in names:
                if n in erase:
                    order[n] = None
        mapping = dict(zip(order, targets))
        renamed = []
        for c, names in arranged:
            renames = tuple((n, mapping[n]) for n in names if n in mapping and mapping[n] != n)
            renamed.append(steps.renamed(c, renames) if renames else c)
        if len(arrangements) == 1:
            return targets[: len(order)], renamed
        key = "\n".join(steps.key(c) for c in renamed)
        if best is None or key < best[0]:
            best = (key, targets[: len(order)], renamed)
    return best[1], best[2]


def _normalize_once(p: P.Process) -> P.Process:
    restricted, comps = canonical_parts(*_decompose(p))
    return P.new(restricted, P.par(*comps))


def normalize(p: P.Process) -> P.Process:
    """Canonical structural-congruence normal form (idempotent).

    A single pass renames as it sorts, and the new spellings can reorder
    parallel components nested under prefixes on the next pass, so iterate
    to the (small, in practice <= 3 rounds) fixpoint.
    """
    for _ in range(8):
        q = _normalize_once(p)
        if P.process_equal(q, p):
            return p
        p = q
    return p
