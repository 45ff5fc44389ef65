"""Early labelled semantics over canonical configurations.

A configuration is a flattened parallel composition together with its
hoisted restricted names, a definition environment, and the set of
observable free channels.  All internal synchronization (value and channel
exchange, select/branch, accept/request pairing, call unfolding) is tau;
actions on free observables appear as visible labels, with inputs
enumerated over a finite value domain and channel inputs drawn from a
canonical fresh-name supply.

States are interned by the structural-congruence normal form, so
exploration is finite whenever the process is.  Each exploration has one
component table (`ComponentTable`): `make_configuration` creates it, every
configuration derived from that one carries it, and it memoizes the steps
of building a normal form that are pure functions of one component (its
subterms' normal forms and free names, canonical binders, sort key,
renaming and serialization).  A transition therefore normalizes only the
continuations it creates and looks up every component it leaves alone,
and keys and successors are those an uncached normalization gives.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from . import process as P
from .normalize import ComponentSteps, canonical_parts, _decompose, _renamed


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

DefClosure = tuple[tuple[str, ...], tuple[str, ...], P.Process]


class ComponentTable(ComponentSteps):
    """The per-component steps of a normalization pass, memoized for one
    exploration, and each component's free names.  Components key the
    memos by structure (a step's other arguments follow from the component,
    except the erased names and the renaming, which join the key);
    `process._Node` caches each node's hash, so an untouched component
    costs one lookup.  The memos die with the configurations that carry
    the table."""

    def __init__(self):
        self._leaves: dict[P.Process, tuple[P.Process, dict[str, None]]] = {}
        self._binders: dict[P.Process, P.Process] = {}
        self._skeletons: dict[tuple[P.Process, frozenset[str]], str] = {}
        self._renamed: dict[tuple[P.Process, tuple[tuple[str, str], ...]], P.Process] = {}
        self._keys: dict[P.Process, str] = {}
        self._free: dict[P.Process, dict[str, None]] = {}

    @property
    def normalized(self) -> int:
        """How many components had their subterms normalized: the leaf
        step's misses, at every level of nesting."""
        return len(self._leaves)

    def leaf(self, p):
        found = self._leaves.get(p)
        if found is None:
            found = self._leaves[p] = super().leaf(p)
        return found

    def binders(self, c, names):
        found = self._binders.get(c)
        if found is None:
            found = self._binders[c] = super().binders(c, names)
        return found

    def skeleton(self, c, erase):
        found = self._skeletons.get((c, erase))
        if found is None:
            found = self._skeletons[c, erase] = super().skeleton(c, erase)
        return found

    def renamed(self, c, renames):
        found = self._renamed.get((c, renames))
        if found is None:
            found = self._renamed[c, renames] = super().renamed(c, renames)
        return found

    def key(self, c):
        found = self._keys.get(c)
        if found is None:
            found = self._keys[c] = super().key(c)
        return found

    def free_names(self, c: P.Process) -> dict[str, None]:
        found = self._free.get(c)
        if found is None:
            found = self._free[c] = P.free_names(c).terms
        return found


@dataclass(frozen=True)
class Configuration:
    restricted: tuple[str, ...]
    components: tuple[P.Process, ...]
    defs: tuple[tuple[str, DefClosure], ...]
    observables: frozenset[str]
    key: str
    table: ComponentTable = field(compare=False, repr=False)

    def all_names(self) -> set[str]:
        """Names a fresh name must avoid: the restricted and observable
        names, the definitions, and the free names of the components and of
        the definition bodies."""
        names = set(self.restricted) | self.observables
        for comp in self.components:
            names.update(self.table.free_names(comp))
        for name, (_, _, body) in self.defs:
            names.add(name)
            names.update(self.table.free_names(body))
        return names

    def residual_process(self) -> P.Process:
        return P.new(self.restricted, P.par(*self.components))


def make_configuration(p: P.Process, observables: frozenset[str] = frozenset()) -> Configuration:
    return _assemble([], [p], {}, observables, ComponentTable())


def _assemble(
    restricted: list[str],
    comps: list[P.Process],
    defs: dict[str, DefClosure],
    observables: frozenset[str],
    table: ComponentTable,
) -> Configuration:
    # Reduction exposes fresh structure (restrictions, parallels,
    # definitions) at component roots, so rebuild and re-flatten the whole
    # soup, pulling definitions into the environment as they surface.
    restricted, pending, pending_frees = _decompose(P.new(restricted, P.par(*comps)), table)
    comps, frees = [], []
    while pending:
        comp, names = pending.pop(0), pending_frees.pop(0)
        if isinstance(comp, P.Def):
            comp = _close_over_restricted(comp, restricted)
            name = comp.name
            scope = comp.scope
            def_body = comp.body
            if name in defs and defs[name][2] != _close_def(comp)[2]:
                fresh = P.fresh_name(name, set(defs) | P.free_names(comp).definitions)
                renamed = {name: P.Call(fresh, (), ())}
                def_body = P.substitute(def_body, definitions=renamed)
                scope = P.substitute(scope, definitions=renamed)
                name = fresh
            defs[name] = _close_def(P.Def(name, comp.val_params, comp.chan_params, def_body, P.NIL))
            sub_restricted, sub_comps, sub_frees = _decompose(scope, table)
            taken = set(restricted).union(*frees, *pending_frees)
            renames = {}
            for sub in sub_restricted:
                if sub in taken:
                    fresh = P.fresh_name(sub, taken | set(sub_restricted))
                    renames[sub] = fresh
                    sub = fresh
                restricted.append(sub)
                taken.add(sub)
            if renames:
                sub_comps, sub_frees = _renamed(sub_comps, renames)
            pending, pending_frees = sub_comps + pending, sub_frees + pending_frees
        else:
            comps.append(comp)
            frees.append(names)
    restricted, comps = canonical_parts(restricted, comps, frees, table)
    key_parts = [",".join(restricted)]
    key_parts.extend(table.key(c) for c in comps)
    key_parts.append("|defs:" + ",".join(sorted(name for name, _ in sorted(defs.items()))))
    return Configuration(
        restricted=tuple(restricted),
        components=tuple(comps),
        defs=tuple(sorted(defs.items())),
        observables=observables,
        key="\n".join(key_parts),
        table=table,
    )


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


def _close_def(d: P.Def) -> DefClosure:
    """Canonicalize a definition body with positional parameter names."""
    val_names = tuple(f"%v{i}" for i in range(len(d.val_params)))
    chan_names = tuple(f"%c{i}" for i in range(len(d.chan_params)))
    mapping: dict[str, P.Replacement] = {old: P.VarRef(new) for (old, _), new in zip(d.val_params, val_names)}
    mapping.update({old: P.Endpoint(new) for (old, _), new in zip(d.chan_params, chan_names)})
    return (val_names, chan_names, P.substitute(d.body, mapping))


# ------------------------------------------------------------- transitions

_SEND_HEADS = (P.SendVal, P.SendChan)
_RECV_HEADS = (P.RecvVal, P.RecvChan)


def _receive(cont_holder: P.Process, payload) -> P.Process:
    """Substitute an incoming item (value or endpoint) for the binder."""
    return P.substitute(cont_holder.cont, {cont_holder.binder: payload})


def _sync_mismatch(a: P.Process, b: P.Process) -> str | None:
    """A reason string when two dual heads cannot synchronize safely."""
    if isinstance(a, _SEND_HEADS):
        if isinstance(b, _RECV_HEADS):
            return None
        return f"send on {a.chan} meets {type(b).__name__}"
    if isinstance(a, _RECV_HEADS):
        if isinstance(b, _SEND_HEADS):
            return None
        return f"receive on {a.chan} meets {type(b).__name__}"
    if isinstance(a, P.Select):
        if isinstance(b, P.Branch):
            if b.get(a.label) is None:
                return f"selected label {a.label} is not offered on {b.chan}"
            return None
        return f"select on {a.chan} meets {type(b).__name__}"
    if isinstance(a, P.Branch):
        if isinstance(b, P.Select):
            return _sync_mismatch(b, a)
        return f"branch on {a.chan} meets {type(b).__name__}"
    return f"{type(a).__name__} meets {type(b).__name__}"


def transitions(
    cfg: Configuration, value_domain: tuple[P.Value, ...] = (P.NatLit(0), P.NatLit(1))
) -> list[tuple[TransitionLabel, Configuration]]:
    out: list[tuple[TransitionLabel, Configuration]] = []
    comps = cfg.components
    restricted = set(cfg.restricted)
    defs = dict(cfg.defs)

    def rebuild(new_comps: list[P.Process], new_restricted=None) -> Configuration:
        return _assemble(
            list(new_restricted if new_restricted is not None else cfg.restricted),
            [c for c in new_comps if not isinstance(c, P.Nil)],
            dict(defs),
            cfg.observables,
            cfg.table,
        )

    taken: set[str] = set()

    def fresh(template: str) -> str:
        """The first ``template.format(k)`` that is no name of ``cfg``; the
        names are gathered once per call."""
        if not taken:
            taken.update(cfg.all_names())
        k = 0
        while template.format(k) in taken:
            k += 1
        return template.format(k)

    def replaced(i: int, *new: P.Process) -> list[P.Process]:
        return [c for k, c in enumerate(comps) if k != i] + list(new)

    def replaced2(i: int, j: int, *new: P.Process) -> list[P.Process]:
        return [c for k, c in enumerate(comps) if k not in (i, j)] + list(new)

    # internal synchronization on dual endpoints, each pair counted once,
    # from the active side; partners are found by subject, in order
    by_subject: dict[P.Endpoint, list[int]] = {}
    for j, b in enumerate(comps):
        subj_b = getattr(b, "chan", None)
        if subj_b is not None:
            by_subject.setdefault(subj_b, []).append(j)
    for i, a in enumerate(comps):
        if not isinstance(a, _SEND_HEADS) and not isinstance(a, P.Select):
            continue
        for j in by_subject.get(a.chan.flip(), ()):
            b = comps[j]
            reason = _sync_mismatch(a, b)
            if reason is not None:
                if a.chan.name in restricted:
                    raise RuntimeSafetyViolation(reason)
                continue
            if isinstance(a, _SEND_HEADS):
                payload = P.eval_value(a.value) if isinstance(a, P.SendVal) else a.sent
                target = rebuild(replaced2(i, j, a.cont, _receive(b, payload)))
            else:
                target = rebuild(replaced2(i, j, a.cont, b.get(a.label)))
            out.append((TAU, target))

    # accept/request pairing on shared names
    for i, a in enumerate(comps):
        if not isinstance(a, P.Accept):
            continue
        for j, b in enumerate(comps):
            if not isinstance(b, P.Request) or b.shared != a.shared:
                continue
            session = fresh("s{}'")
            acc = _receive(a, P.Endpoint(session, False))
            req = _receive(b, P.Endpoint(session, True))
            target = rebuild(replaced2(i, j, acc, req), list(cfg.restricted) + [session])
            label: TransitionLabel = (
                SharedInit(a.shared) if a.shared in cfg.observables else TAU
            )
            out.append((label, target))

    # call unfolding
    for i, a in enumerate(comps):
        if not isinstance(a, P.Call):
            continue
        closure = defs.get(a.name)
        if closure is None:
            raise RuntimeSafetyViolation(f"call to unknown definition {a.name!r}")
        val_names, chan_names, body = closure
        if len(val_names) != len(a.val_args) or len(chan_names) != len(a.chan_args):
            raise RuntimeSafetyViolation(f"arity mismatch calling {a.name!r}")
        mapping: dict[str, P.Replacement] = {
            name: P.eval_value(value) for name, value in zip(val_names, a.val_args)
        }
        mapping.update(zip(chan_names, a.chan_args))
        out.append((TAU, rebuild(replaced(i, P.substitute(body, mapping)))))

    # visible actions on observable free endpoints; names drawn from the
    # canonical fresh supply (@k) are observable by construction
    for i, a in enumerate(comps):
        subj = getattr(a, "chan", None)
        if subj is None or subj.name in restricted:
            continue
        if subj.name not in cfg.observables and not subj.name.startswith("@"):
            continue
        if isinstance(a, P.SendVal):
            out.append((OutVal(subj, P.eval_value(a.value)), rebuild(replaced(i, a.cont))))
        elif isinstance(a, P.SendChan):
            sent = a.sent
            if sent.name in restricted:
                supply = fresh("@{}")
                renamed = [P.substitute(c, {sent.name: P.Endpoint(supply)}) for c in replaced(i, a.cont)]
                rest = [n for n in cfg.restricted if n != sent.name]
                out.append(
                    (OutChan(subj, str(P.Endpoint(supply, sent.dual))), rebuild(renamed, rest))
                )
            else:
                out.append((OutChan(subj, str(sent)), rebuild(replaced(i, a.cont))))
        elif isinstance(a, P.RecvVal):
            for v in value_domain:
                out.append((InVal(subj, v), rebuild(replaced(i, _receive(a, v)))))
        elif isinstance(a, P.RecvChan):
            supply = fresh("@{}")
            out.append((InChan(subj, supply), rebuild(replaced(i, _receive(a, P.Endpoint(supply, False))))))
        elif isinstance(a, P.Select):
            out.append((SelectL(subj, a.label), rebuild(replaced(i, a.cont))))
        elif isinstance(a, P.Branch):
            for label, cont in a.branches:
                out.append((OfferL(subj, label), rebuild(replaced(i, cont))))
    return out


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
    """Read the current store contents out of a waiting store agent: the
    payload of the get branch of a {get, put, stop} offer (possibly behind
    an accept)."""

    def from_branch(b: P.Process) -> P.Value | None:
        if isinstance(b, P.Branch) and set(dict(b.branches)) == {"get", "put", "stop"}:
            get_cont = b.get("get")
            if isinstance(get_cont, P.SendVal):
                return P.eval_value(get_cont.value)
        return None

    for comp in cfg.components:
        found = from_branch(comp)
        if found is None and isinstance(comp, P.Accept):
            found = from_branch(comp.cont)
        if found is not None:
            return found
    return None


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
    value_domain: tuple[P.Value, ...] = (P.NatLit(0), P.NatLit(1)),
    store_reader=None,
) -> tuple[Outcome, ...]:
    """Execute to quiescence; internal steps are taus, shared-channel
    initiations, and outputs on observable channels (recorded in order).

    ``mode`` is "one" (a seeded deterministic schedule) or "all"
    (exhaustive over internal nondeterminism, deduplicated by canonical
    configuration).
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    initial = make_configuration(p, observables=observables)

    def outcome(cfg: Configuration, emitted: tuple[P.Value, ...], steps: int) -> Outcome:
        store = store_reader(cfg) if store_reader is not None else None
        return Outcome(emitted, store, P.format_process(cfg.residual_process()), steps)

    def steps_of(cfg: Configuration) -> list[tuple[TransitionLabel, Configuration]]:
        return [
            (label, target)
            for label, target in transitions(cfg, value_domain)
            if _executable(label, observables)
        ]

    if mode == "one":
        rng = random.Random(seed)
        cfg, emitted, steps = initial, (), 0
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
            steps += 1

    if mode != "all":
        raise ValueError(f"unknown mode {mode!r}")

    outcomes: set[Outcome] = set()
    seen: set[tuple[str, tuple[P.Value, ...]]] = set()
    stack: list[tuple[Configuration, tuple[P.Value, ...], int]] = [(initial, (), 0)]
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
            state = (target.key, emitted2)
            if state in seen:
                continue
            if len(seen) >= cap:
                raise StateCapExceeded(f"more than {cap} configurations explored")
            seen.add(state)
            stack.append((target, emitted2, steps + 1))
    if not outcomes:
        raise FuelExhausted("execution diverges: every schedule cycles without quiescing")
    return tuple(sorted(outcomes, key=lambda o: (o.residual, str(o.emitted), str(o.store))))
