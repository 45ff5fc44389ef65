"""Early labelled semantics over canonical configurations.

A configuration is a flattened parallel composition together with its
restricted names, a definition environment, and the set of observable free
channels.  All internal synchronization (value and channel exchange,
select/branch, accept/request pairing, call unfolding) is tau; actions on
free observables appear as visible labels, with inputs enumerated over a
finite value domain and channel inputs drawn from a canonical fresh-name
supply.

Components are terms of one `normalize.InternTable` per system, which
`make_configuration` creates, walking the spine of the process (no normal
form of the whole is built), and every derived configuration carries.
`run` keeps that first configuration on the process object, with the end
of its chain, so later runs of the same object share its table rather than
build one per exploration;
`make_configuration` and `equivalence.build_lts` build a fresh one.  A
head is viewed one node deep once per table (`InternTable.head`, counted by
the table's ``view_hits`` and ``view_misses``), so a step views only the
components it creates.  Their continuations are terms already, so filling
a binder with a name rewrites a term's arguments, and only a value or a
merge of two names rebuilds the nodes on the way to their occurrences.  No
component has a `Par`, `New`, `Nil` or `Def` root, so a successor keeps the
untouched components as they are and opens only the new continuations
(`_assemble`).  A surfacing restriction gets a fresh name, and restricted
names are renamed only among themselves, to order tied components
(`InternTable.canonical`).  The state key abstracts them: it sorts
components as `normalize` does, numbers the restrictions by first
occurrence, and lists each component's shape digest and wiring (a restricted
hole's number, an unrestricted hole's name and kind), then the definitions'
names.  So exploration is finite whenever the process is, and a key does not
depend on the table.  The table's ``hits`` and ``misses`` count the nodes
steps looked up and the ones they interned; an untouched component costs
neither, and nor does a value put in where the same value went before:
`InternTable.subst` finds the result in the table's memo (``memo_hits``,
``memo_misses``).

Keys are computed for kept states only.  A configuration computes its key
on first read and keeps it (`Configuration.ordered`), and its
``components`` keep the order they were assembled in, read or not; the
links of a chain are never keyed, and a target of `transitions` only if
it is read.  `transitions` and `Configuration.residual_process` take the
components in key order; `find_store_value` takes them in any.

Exploration folds eligible chains.  A tau step is *eligible* in two
cases.  It synchronizes a send or select with its matching receive or
branch on a restricted name that occurs free in those two components and
in no other, and `_sync_mismatch` finds nothing; or it unfolds a call of a
known definition with the right arity (`_unfold`, which `transitions`
shares).  Either way its continuations keep every name of the fresh supply
(``@k``) that the components it consumes use.  (A channel input draws the
first unused ``@k``, so a step that drops the last occurrence of one would
change the label of every later input.)  Accept/request pairing never is.
A head that an eligible step consumes can take only that step, so the
step commutes with every other step, which keeps its label, and stays
enabled after them.  Folding such steps keeps branching, hence weak,
bisimilarity (Groote & Sellink, *Confluence for process verification*,
1996; Groote & van de Pol, *State space reduction using partial
tau-confluence*, 2000).  A chain unfolds each definition at most once
(`fold_chain` keeps the names it has unfolded): a call that would repeat
one is left to `transitions`, where its unfolding starts a chain of its
own.  That proviso rules out an endless chain of unfoldings, as the cycle
condition of ample sets does (Godefroid, 1996), and a synchronization
consumes two prefixes, so every chain is finite.  `fold_chain` takes the
first eligible step in component order, so a configuration has one chain.
`run` and `equivalence.build_lts` follow it from every configuration they
reach to its end, counting each step against fuel; the links between are
never keyed, and only chain ends are deduplicated.  `transitions` stays
the full one-step relation.  `_eligible_step` finds the first eligible
step by scanning the arguments of every component, so it still reads the
components a step leaves untouched.

"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from typing import Iterator

from . import process as P
from .normalize import InternTable, Term, _ordered, _sorted, _ties


class RuntimeSafetyViolation(Exception):
    pass


class FuelExhausted(Exception):
    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class StateCapExceeded(Exception):
    pass


# ------------------------------------------------------------------ labels

@dataclass(frozen=True)
class Tau:
    pass


@dataclass(frozen=True)
class OutVal:
    chan: P.Endpoint
    value: P.Value


@dataclass(frozen=True)
class InVal:
    chan: P.Endpoint
    value: P.Value


@dataclass(frozen=True)
class OutChan:
    chan: P.Endpoint
    name: str


@dataclass(frozen=True)
class InChan:
    chan: P.Endpoint
    name: str


@dataclass(frozen=True)
class SelectL:
    chan: P.Endpoint
    label: str


@dataclass(frozen=True)
class OfferL:
    chan: P.Endpoint
    label: str


@dataclass(frozen=True)
class SharedInit:
    shared: str


TransitionLabel = Tau | OutVal | InVal | OutChan | InChan | SelectL | OfferL | SharedInit
TAU = Tau()


def format_label(label: TransitionLabel) -> str:
    if isinstance(label, Tau):
        return "tau"
    if isinstance(label, OutVal):
        return f"{label.chan}!<{P.format_value(label.value)}>"
    if isinstance(label, InVal):
        return f"{label.chan}?({P.format_value(label.value)})"
    if isinstance(label, OutChan):
        return f"{label.chan}!<{label.name}>"
    if isinstance(label, InChan):
        return f"{label.chan}?({label.name})"
    if isinstance(label, SelectL):
        return f"{label.chan}<+{label.label}"
    if isinstance(label, OfferL):
        return f"{label.chan}>>{label.label}"
    if isinstance(label, SharedInit):
        return f"init {label.shared}"
    raise TypeError(f"not a label: {label!r}")


# ------------------------------------------------------------ configuration

DefClosure = tuple[tuple[str, ...], tuple[str, ...], Term]


@dataclass(frozen=True)
class Configuration:
    """``components`` keep the order they were assembled in, and
    ``restricted`` may hold names no component uses."""

    restricted: tuple[str, ...]
    components: tuple[Term, ...]
    defs: tuple[tuple[str, DefClosure], ...]
    observables: frozenset[str]
    table: InternTable = field(compare=False, repr=False)

    @cached_property
    def ordered(self) -> tuple[tuple, tuple[Term, ...], tuple[str, ...]]:
        """The state key, and the components and live restrictions in its
        order; computed on first read, and kept."""
        key, comps, live = _key(set(self.restricted), self.components, self.defs, self.table)
        return key, tuple(comps), tuple(live)

    @property
    def key(self) -> tuple:
        return self.ordered[0]

    def residual_process(self) -> P.Process:
        """The configuration as a process, in key order: restrictions are
        spelled `#k` by first occurrence, and binders `%k` in pre-order
        within each component."""
        _, ordered, restricted = self.ordered
        free = {name for comp in ordered for name, _ in comp.args} - set(restricted)
        targets = (name for name in (f"#{k}" for k in count()) if name not in free)
        mapping = {name: P.Endpoint(next(targets)) for name in restricted}
        comps = []
        for comp in ordered:
            comp = self.table.subst(comp, mapping)
            avoid = {name for name, _ in comp.args}
            comps.append(self.table.process(comp, (n for n in (f"%{k}" for k in count()) if n not in avoid)))
        return P.new([e.name for e in mapping.values()], P.par(*comps))


def make_configuration(p: P.Process, observables: frozenset[str] = frozenset()) -> Configuration:
    """The configuration of ``p``.  Other nodes of its `Par`/`New`/`Def`
    spine are interned alone and renamed into place; a definition goes into
    the environment and its scope back onto the spine, unless it captures a
    restricted name or reuses a definition's name (`_assemble` takes those).
    Restrictions are then named ``#k``, apart from every name in use."""
    table = InternTable()
    hidden, comps, defs, stack = [], [], {}, [(p, {})]
    while stack:
        more, found = table._spine(*stack.pop())
        hidden += more
        for leaf, env in found:
            if type(leaf) is P.Def and leaf.name not in defs:
                closure = _close_def(leaf, table)
                if not any(name in env for name, _ in closure[2].args):
                    defs[leaf.name] = closure
                    stack.append((leaf.scope, env))
                    continue
            comps.append(table.subst(table.term(leaf), env))
    fresh = _fresh(hidden, (comps,), defs.items(), observables)
    named = {h: P.Endpoint(next(fresh)) for h in hidden}
    comps = [table.subst(c, named) for c in comps]
    return _assemble([e.name for e in named.values()], (), comps, tuple(sorted(defs.items())), observables, table)


def _assemble(
    restricted: list[str],
    kept: tuple[Term, ...],
    new: list[Term] | tuple[Term, ...],
    defs: tuple[tuple[str, DefClosure], ...],
    observables: frozenset[str],
    table: InternTable,
) -> Configuration:
    """The configuration of the components ``kept``, taken as they are,
    and ``new``, which may be whole normal forms: these are flattened,
    their restrictions given fresh names and definitions pulled into the
    environment (``defs``, sorted by name) as they surface."""
    fresh = _fresh(tuple(restricted), (kept, new), defs, observables)
    pending, flat, env = list(new), [], None
    for term in pending:  # a surfaced definition's scope goes on the end
        more, parts = table.open(term, fresh)
        restricted += more
        for part in parts:
            if part.shape.key[0] is P.Def:
                env = dict(defs) if env is None else env
                pending.append(_define(table.process(part), restricted, env, table))
            else:
                flat.append(part)
    if env is not None:
        defs = tuple(sorted(env.items()))
    return Configuration(tuple(restricted), kept + tuple(flat), defs, observables, table)


def _taken(restricted, groups, defs, observables: frozenset[str]) -> set[str]:
    """The names a fresh name must avoid: the restrictions and observables,
    the definitions and the free names of their bodies, and the free names
    of the components in ``groups``."""
    taken = {*restricted, *observables}
    for name, (_, _, body) in defs:
        taken.add(name)
        taken.update(n for n, _ in body.args)
    for term in (t for group in groups for t in group):
        taken.update(name for name, _ in term.args)
    return taken


def _fresh(restricted, groups, defs, observables: frozenset[str]) -> Iterator[str]:
    """The names ``#k`` that are not `_taken`, gathered on the first draw: a
    step that surfaces no restriction gathers none."""
    taken = _taken(restricted, groups, defs, observables)
    yield from (name for name in (f"#{k}" for k in count()) if name not in taken)


def _without(comps: tuple[Term, ...], *drop: int) -> tuple[Term, ...]:
    """``comps`` less the positions ``drop``."""
    out, start = (), 0
    for k in sorted(drop):
        out, start = out + comps[start:k], k + 1
    return out + comps[start:]


def _key(restricted: set[str], comps: tuple[Term, ...], defs, table: InternTable) -> tuple:
    """The state key, and the components and live restrictions in its order.
    A component is listed by its shape's digest and its wiring, so the key
    does not depend on the table.  Components sort by digest and free names,
    restricted ones alike; a tie, or a symmetric component that uses a
    restriction, is left to `InternTable.canonical`, which renames them."""
    free = lambda name, mark: f"<nu{mark}>" if name in restricted else mark + name
    keys, comps = _sorted(comps, lambda c: _ordered(c, free))
    if _ties(keys, comps) or any(c.shape.symmetric and any(n in restricted for n, _ in c.args) for c in comps):
        comps = table.canonical(comps, keys, restricted, sorted(restricted))
    numbers: dict[str, int] = {}
    key = [len(comps)]
    for comp in comps:
        key.append(comp.shape.digest)
        for name, kind in comp.args:
            if name in restricted:
                key.append(-1 - 3 * numbers.setdefault(name, len(numbers)) - kind)
            else:
                key.append((name, kind))
    key += [name for name, _ in defs]
    return tuple(key), comps, list(numbers)


def _define(d: P.Def, restricted: list[str], defs: dict[str, DefClosure], table: InternTable) -> Term:
    """Move a surfaced definition into the environment, renaming it if a
    different definition holds its name; the term of its scope."""
    d = _close_over_restricted(d, restricted)
    closure = _close_def(d, table)
    if d.name in defs and defs[d.name][2] != closure[2]:
        fresh = P.fresh_name(d.name, set(defs) | P.free_names(d).definitions)
        renamed = {d.name: P.Call(fresh, (), ())}
        d = P.Def(fresh, d.val_params, d.chan_params, *(P.substitute(q, definitions=renamed) for q in (d.body, d.scope)))
        closure = _close_def(d, table)
    defs[d.name] = closure
    return table.term(d.scope)


def _close_over_restricted(d: P.Def, restricted: list[str]) -> P.Def:
    """Closure conversion: definitions live in one global environment, out
    of reach of restrictions, so the restricted names a definition body
    uses become leading value parameters and every call passes them."""
    private = set(restricted)
    own = P.free_names(P.Def(d.name, d.val_params, d.chan_params, d.body, P.NIL)).terms
    captured = tuple(name for name in own if name in private)
    if not captured:
        return d
    partial = {d.name: P.Call(d.name, tuple(P.VarRef(name) for name in captured), ())}
    return P.Def(
        d.name,
        tuple((name, None) for name in captured) + d.val_params,
        d.chan_params,
        P.substitute(d.body, definitions=partial),
        P.substitute(d.scope, definitions=partial),
    )


def _close_def(d: P.Def, table: InternTable) -> DefClosure:
    """A definition body with positional parameter names, as a term."""
    val_names = tuple(f"%v{i}" for i in range(len(d.val_params)))
    chan_names = tuple(f"%c{i}" for i in range(len(d.chan_params)))
    mapping: dict[str, P.Replacement] = {old: P.VarRef(new) for (old, _), new in zip(d.val_params, val_names)}
    mapping.update({old: P.Endpoint(new) for (old, _), new in zip(d.chan_params, chan_names)})
    return (val_names, chan_names, table.subst(table.term(d.body), mapping))


# ------------------------------------------------------------- transitions

_SEND_HEADS = (P.SendVal, P.SendChan)
_RECV_HEADS = (P.RecvVal, P.RecvChan)
_ACTIVE_HEADS = (*_SEND_HEADS, P.Select)  # the side that counts a synchronization


def _sync_mismatch(a: P.Process, b: P.Process) -> str | None:
    """A reason string when the send or select ``a`` cannot synchronize
    safely with the head ``b`` on the dual endpoint."""
    if isinstance(a, P.Select):
        if not isinstance(b, P.Branch):
            return f"select on {a.chan} meets {type(b).__name__}"
        if b.get(a.label) is None:
            return f"selected label {a.label} is not offered on {b.chan}"
        return None
    if isinstance(b, _RECV_HEADS):
        return None
    return f"send on {a.chan} meets {type(b).__name__}"


def _exchange(table: InternTable, a: P.Process, b: P.Process) -> tuple[Term, Term]:
    """The continuations of a send or select ``a`` and its matching
    receive or branch ``b`` once they synchronize."""
    if isinstance(a, P.Select):
        return a.cont, b.get(a.label)
    payload = P.eval_value(a.value) if isinstance(a, P.SendVal) else a.sent
    return a.cont, _receive(table, b, payload)


def _receive(table: InternTable, head: P.Process, payload: P.Replacement) -> Term:
    """The continuation of a receiving head, the payload in its binder.  A
    value other than a variable leaves endpoint and shared occurrences alone
    (see `process.substitute`), so it may not fill a binder used as a channel."""
    args, x = head.cont.args, head.binder
    if ((x, 1) in args or (x, 2) in args or (x, 0) in args and args.index((x, 0)) in head.cont.shape.shared) \
            and not isinstance(payload, (P.Endpoint, P.VarRef)):
        raise RuntimeSafetyViolation(
            f"receive on {head.chan} gets the value {P.format_value(payload)} for a name used as a channel")
    return table.subst(head.cont, {x: payload})


def _unfold(table: InternTable, call: P.Call, defs: dict[str, DefClosure]) -> Term:
    """The body of the definition ``call`` names, the call's arguments in
    its parameters."""
    closure = defs.get(call.name)
    if closure is None:
        raise RuntimeSafetyViolation(f"call to unknown definition {call.name!r}")
    val_names, chan_names, body = closure
    if len(val_names) != len(call.val_args) or len(chan_names) != len(call.chan_args):
        raise RuntimeSafetyViolation(f"arity mismatch calling {call.name!r}")
    mapping: dict[str, P.Replacement] = {name: P.eval_value(value) for name, value in zip(val_names, call.val_args)}
    mapping.update(zip(chan_names, call.chan_args))
    return table.subst(body, mapping)


def transitions(
    cfg: Configuration, value_domain: tuple[P.Value, ...] = (P.NatLit(0), P.NatLit(1))
) -> list[tuple[TransitionLabel, Configuration]]:
    out: list[tuple[TransitionLabel, Configuration]] = []
    table = cfg.table
    _, comps, live = cfg.ordered
    # the heads, one node deep and viewed once per table: their subterms
    # are terms
    heads = [table.head(c) for c in comps]
    restricted = set(live)
    defs = dict(cfg.defs)

    def rebuild(kept: tuple[Term, ...], *new: Term, new_restricted=None) -> Configuration:
        return _assemble(
            list(new_restricted if new_restricted is not None else live),
            kept,
            new,
            cfg.defs,
            cfg.observables,
            table,
        )

    taken: set[str] = set()

    def fresh(template: str) -> str:
        """The first ``template.format(k)`` that is no name of ``cfg``; the
        names are gathered once per call."""
        if not taken:
            taken.update(_taken(live, (comps,), cfg.defs, cfg.observables))
        k = 0
        while template.format(k) in taken:
            k += 1
        return template.format(k)

    # the heads by what they can do, each in order: on a channel (by
    # subject, and the active sides among them), accepts, requests, calls
    by_subject: dict[P.Endpoint, list[int]] = {}
    on_channels, active, accepts, requests, calls = [], [], [], [], []
    for i, a in enumerate(heads):
        kind = type(a)
        if kind is P.Call:
            calls.append(i)
        elif kind is P.Accept:
            accepts.append(i)
        elif kind is P.Request:
            requests.append(i)
        else:
            on_channels.append(i)
            by_subject.setdefault(a.chan, []).append(i)
            if kind in _ACTIVE_HEADS:
                active.append(i)

    # internal synchronization on dual endpoints, each pair counted once,
    # from the active side; partners are found by subject, in order
    for i in active:
        a = heads[i]
        for j in by_subject.get(a.chan.flip(), ()):
            b = heads[j]
            reason = _sync_mismatch(a, b)
            if reason is not None:
                if a.chan.name in restricted:
                    raise RuntimeSafetyViolation(reason)
                continue
            out.append((TAU, rebuild(_without(comps, i, j), *_exchange(table, a, b))))

    # accept/request pairing on shared names
    for i in accepts:
        a = heads[i]
        for j in requests:
            b = heads[j]
            if b.shared != a.shared:
                continue
            session = fresh("s{}'")
            acc = _receive(table, a, P.Endpoint(session, False))
            req = _receive(table, b, P.Endpoint(session, True))
            target = rebuild(_without(comps, i, j), acc, req, new_restricted=list(live) + [session])
            label: TransitionLabel = (
                SharedInit(a.shared) if a.shared in cfg.observables else TAU
            )
            out.append((label, target))

    # call unfolding
    for i in calls:
        out.append((TAU, rebuild(_without(comps, i), _unfold(table, heads[i], defs))))

    # visible actions on observable free endpoints; names drawn from the
    # canonical fresh supply (@k) are observable by construction
    for i in on_channels:
        a = heads[i]
        subj = a.chan
        if subj.name in restricted:
            continue
        if subj.name not in cfg.observables and not subj.name.startswith("@"):
            continue
        if isinstance(a, P.SendVal):
            out.append((OutVal(subj, P.eval_value(a.value)), rebuild(_without(comps, i), a.cont)))
        elif isinstance(a, P.SendChan):
            sent = a.sent
            if sent.name in restricted:
                supply = fresh("@{}")
                renamed = tuple(table.subst(c, {sent.name: P.Endpoint(supply)}) for c in (*_without(comps, i), a.cont))
                rest = [n for n in live if n != sent.name]
                target = rebuild(renamed[:-1], renamed[-1], new_restricted=rest)
                out.append((OutChan(subj, str(P.Endpoint(supply, sent.dual))), target))
            else:
                out.append((OutChan(subj, str(sent)), rebuild(_without(comps, i), a.cont)))
        elif isinstance(a, P.RecvVal):
            for v in value_domain:
                out.append((InVal(subj, v), rebuild(_without(comps, i), _receive(table, a, v))))
        elif isinstance(a, P.RecvChan):
            supply = fresh("@{}")
            received = _receive(table, a, P.Endpoint(supply, False))
            out.append((InChan(subj, supply), rebuild(_without(comps, i), received)))
        elif isinstance(a, P.Select):
            out.append((SelectL(subj, a.label), rebuild(_without(comps, i), a.cont)))
        elif isinstance(a, P.Branch):
            for label, cont in a.branches:
                out.append((OfferL(subj, label), rebuild(_without(comps, i), cont)))
    return out


# ------------------------------------------------------ eligible chains

_SYNC_HEADS = frozenset({*_SEND_HEADS, *_RECV_HEADS, P.Select, P.Branch})


def _drops_supply(used: tuple[Term, ...], conts: tuple[Term, ...]) -> bool:
    """Whether a name of the fresh supply (``@k``) in the terms ``used`` is
    in none of the continuations ``conts``."""
    kept = {n for t in conts for n, _ in t.args}
    return any(n[0] == "@" and n not in kept for t in used for n, _ in t.args)


def _eligible_step(cfg: Configuration, unfolded: set[str]) -> Configuration | None:
    """The target of the first eligible step of ``cfg`` (see the module
    docstring), or None if it has none.  ``unfolded`` holds the definitions
    its chain has unfolded so far, and an eligible call unfolding adds its
    own; a call that `transitions` reports unsafe is not eligible."""
    comps, table = cfg.components, cfg.table
    restricted = set(cfg.restricted)
    waiting: dict[tuple[str, int], int] = {}
    for j, comp in enumerate(comps):
        head = comp.shape.key[0]
        if head is P.Call:
            call = table.head(comp)
            if call.name in unfolded:
                continue
            try:
                body = _unfold(table, call, dict(cfg.defs))
            except RuntimeSafetyViolation:  # `transitions` raises it
                continue
            if _drops_supply((comp,), (body,)):
                continue
            unfolded.add(call.name)
            return _assemble(list(cfg.restricted), _without(comps, j), (body,), cfg.defs, cfg.observables, table)
        if head not in _SYNC_HEADS:
            continue
        name, kind = comp.args[0]  # a head's subject is its first hole
        i = waiting.get((name, 3 - kind))
        waiting.setdefault((name, kind), j)
        if i is None or name not in restricted:
            continue
        if any(n == name for k, c in enumerate(comps) if k != i and k != j for n, _ in c.args):
            continue
        a, b = table.head(comps[i]), table.head(comps[j])
        if isinstance(b, _ACTIVE_HEADS):
            a, b = b, a
        elif not isinstance(a, _ACTIVE_HEADS):  # two passive heads: no step
            continue
        if _sync_mismatch(a, b) is not None:
            continue
        conts = _exchange(table, a, b)
        if _drops_supply((comps[i], comps[j]), conts):
            continue
        return _assemble(list(cfg.restricted), _without(comps, i, j), conts, cfg.defs, cfg.observables, table)
    return None


def fold_chain(cfg: Configuration, steps: int, fuel: int) -> tuple[Configuration, int]:
    """Fire eligible steps from ``cfg``, reached after ``steps`` steps, to
    the end of their chain, or until ``steps`` reaches ``fuel``; the end,
    and its step count.  The chain unfolds each definition at most once,
    and the links between are never keyed."""
    unfolded: set[str] = set()
    while steps < fuel:
        link = _eligible_step(cfg, unfolded)
        if link is None:
            break
        cfg, steps = link, steps + 1
    return cfg, steps


# -------------------------------------------------------------- execution

@dataclass(frozen=True)
class Outcome:
    emitted: tuple[P.Value, ...]
    store: P.Value | None
    residual: str
    steps: int

    def residual_hash(self) -> str:
        return hashlib.sha256(self.residual.encode()).hexdigest()[:12]


def find_store_value(cfg: Configuration) -> P.Value | None:
    """Read the current store contents out of the waiting store agents: the
    payload of the get branch of a {get, put, stop} offer (possibly behind
    an accept).  Of several, the least by `format_value`, so the answer
    does not depend on the order of the components."""

    table = cfg.table

    def from_branch(b: P.Process) -> P.Value | None:
        if isinstance(b, P.Branch) and set(dict(b.branches)) == {"get", "put", "stop"}:
            get_cont = table.view(b.get("get"))
            if isinstance(get_cont, P.SendVal):
                return P.eval_value(get_cont.value)
        return None

    # only the components' own heads are kept; the views behind them are
    # one-shot
    stores = []
    for comp in cfg.components:
        head = table.head(comp)
        found = from_branch(head)
        if found is None and isinstance(head, P.Accept):
            found = from_branch(table.view(head.cont))
        if found is not None:
            stores.append(found)
    return min(stores, key=P.format_value, default=None)


def _executable(label: TransitionLabel, observables: frozenset[str]) -> bool:
    if isinstance(label, (Tau, SharedInit)):
        return True
    if isinstance(label, OutVal):
        return label.chan.name in observables
    return False


def run(
    p: P.Process,
    mode: str = "all",
    *,
    seed: int = 0,
    fuel: int = 10_000,
    cap: int = 100_000,
    observables: frozenset[str] = frozenset({"r"}),
    store_reader=None,
) -> tuple[Outcome, ...]:
    """Execute to quiescence; internal steps are taus, shared-channel
    initiations, and outputs on observable channels (recorded in order).

    ``mode`` is "one" (a seeded deterministic schedule) or "all"
    (exhaustive over internal nondeterminism, deduplicated by canonical
    configuration).  Both fold eligible chains, call unfoldings among them
    (see the module docstring), and ``steps`` and ``fuel`` count the folded
    steps.  An unfolding is folded, not chosen, so on a nondeterministic
    system ``run(p, "one", seed=s)`` can take another schedule than it did
    when unfoldings were choices; its outcome is one of ``run(p, "all")``.

    The first configuration of ``p``, before its chain is folded, is kept
    on ``p`` per ``observables`` set, and with it its `InternTable`; so is
    the end of that chain with its step count, if the chain ended on its
    own below the fuel of the call that folded it.  They live as long as
    ``p`` does.  A later call on the same object starts from the kept end
    if its step count is below the call's fuel, and otherwise folds the
    first configuration again; either way it shares the table that earlier
    calls filled.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    if mode not in ("one", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    observables = frozenset(observables)
    kept = p.__dict__.setdefault("_configurations", {})
    if observables not in kept:
        kept[observables] = make_configuration(p, observables=observables)
    ends = p.__dict__.setdefault("_chain_ends", {})
    if observables in ends and ends[observables][1] < fuel:
        initial, start = ends[observables]
    else:
        initial, start = fold_chain(kept[observables], 0, fuel)
        if start < fuel:  # the chain ended on its own
            ends[observables] = initial, start

    def outcome(cfg: Configuration, emitted: tuple[P.Value, ...], steps: int) -> Outcome:
        store = store_reader(cfg) if store_reader is not None else None
        return Outcome(emitted, store, P.format_process(cfg.residual_process()), steps)

    def steps_of(cfg: Configuration) -> list[tuple[TransitionLabel, Configuration]]:
        # an execution takes no input, so no input value is offered
        return [(label, target) for label, target in transitions(cfg, ()) if _executable(label, observables)]

    if mode == "one":
        rng = random.Random(seed)
        cfg, emitted, steps = initial, (), start
        while True:
            enabled = steps_of(cfg)
            if not enabled:
                return (outcome(cfg, emitted, steps),)
            if steps >= fuel:
                raise FuelExhausted(
                    f"no quiescence within {fuel} steps", partial=outcome(cfg, emitted, steps)
                )
            label, cfg = rng.choice(enabled)
            if isinstance(label, OutVal):
                emitted = emitted + (label.value,)
            cfg, steps = fold_chain(cfg, steps + 1, fuel)

    outcomes: set[Outcome] = set()
    seen: set[tuple[tuple, tuple[P.Value, ...]]] = set()
    stack: list[tuple[Configuration, tuple[P.Value, ...], int]] = [(initial, (), start)]
    seen.add((initial.key, ()))
    while stack:
        cfg, emitted, steps = stack.pop()
        enabled = steps_of(cfg)
        if not enabled:
            outcomes.add(outcome(cfg, emitted, steps))
            continue
        if steps >= fuel:
            raise FuelExhausted(
                f"a schedule exceeded {fuel} steps", partial=outcome(cfg, emitted, steps)
            )
        for label, target in enabled:
            emitted2 = emitted + (label.value,) if isinstance(label, OutVal) else emitted
            target, steps2 = fold_chain(target, steps + 1, fuel)
            state = (target.key, emitted2)
            if state in seen:
                continue
            if len(seen) >= cap:
                raise StateCapExceeded(f"more than {cap} configurations explored")
            seen.add(state)
            stack.append((target, emitted2, steps2))
    if not outcomes:
        raise FuelExhausted("execution diverges: every schedule cycles without quiescing")
    return tuple(sorted(outcomes, key=lambda o: (o.residual, str(o.emitted), str(o.store))))
