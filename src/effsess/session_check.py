"""Session typing for processes: linear channel environments, duality at
restriction, select-width subtyping, and shared-channel signatures.

The checker threads the linear environment (Walker, *Substructural Type
Systems*, 2005; Vasconcelos, *Fundamentals of Session Types*, 2012).  The
session environment (delta) maps endpoints to the protocol they still owe;
checking a process consumes the entries it uses and returns the rest, its
leftover.  Parallel composition checks the right side under what the left
side left over, so an endpoint one side uses is gone for the other.

- A prefix ends its own endpoint: once its continuation is checked, the
  endpoint must be ``end`` or gone.  So do the scopes of ``new``, a channel
  receive, ``accept``/``request`` and a definition body for the endpoints
  they bind, and the top level for all of delta.  Only these report
  ``leftover``.
- A binder sets aside the outer entries for the endpoints it binds and
  restores them, untouched, when its scope ends.
- Only when a side of a parallel composition fails are both sides' free
  endpoints computed; a shared one (which always fails a side, since the
  other consumed it) makes the error ``linearity``, naming the first.

Select subtyping is granted only where restriction or a shared-channel
signature introduces the endpoint, matching the rule that widening happens
when duality is discharged.  Restricted channels without an annotation get
their types synthesized from usage when possible (value chains, selects,
branches, call signatures); delegation payloads generally need an
annotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import process as P
from . import sessions as S
from .terms import ValueType


class SessionTypeError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass
class ProcEnv:
    """Gamma for processes: value typings, definition signatures, and
    shared-channel typings (stored as the accept-side session type)."""

    vars: dict[str, ValueType] = field(default_factory=dict)
    defs: dict[str, tuple[tuple[ValueType, ...], tuple[S.SessionType, ...]]] = field(default_factory=dict)
    shared: dict[str, S.SessionType] = field(default_factory=dict)


SessionEnv = dict[P.Endpoint, S.SessionType]


def value_type(gamma: dict[str, ValueType], v: P.Value) -> ValueType:
    if isinstance(v, P.NatLit):
        return ValueType.NAT
    if isinstance(v, P.UnitLit):
        return ValueType.UNIT
    if isinstance(v, P.VarRef):
        if v.name not in gamma:
            raise SessionTypeError("unbound", f"unbound variable {v.name!r}")
        return gamma[v.name]
    if isinstance(v, P.SucOf):
        inner = value_type(gamma, v.arg)
        if inner is not ValueType.NAT:
            raise SessionTypeError("payload", f"suc applied to a {inner} value")
        return ValueType.NAT
    if isinstance(v, P.Pair):
        raise SessionTypeError("payload", "pair values have no sendable type")
    raise TypeError(f"not a value: {v!r}")


def session_check(env: ProcEnv, delta: SessionEnv, p: P.Process) -> None:
    """Raise SessionTypeError unless ``p`` checks under exactly ``delta``."""
    leftover = _check(env, dict(env.vars), dict(delta), p, frozenset())
    _close(leftover, list(leftover), "the process")


def _take(delta: SessionEnv, p: P.Process, shape: type, verb: str) -> S.SessionType:
    """Consume ``p.chan``'s entry, unfolded, which must be of ``shape``."""
    if p.chan not in delta:
        raise SessionTypeError(
            "unbound", f"endpoint {p.chan} is not available here (untyped, already consumed, or owned elsewhere)"
        )
    s = S.unfold(delta.pop(p.chan))
    if not isinstance(s, shape):
        raise SessionTypeError("shape", f"{p.chan} {verb} but its type is {S.format_session_type(s)}")
    return s


def _close(delta: SessionEnv, eps, where: str) -> None:
    """End the scope of ``eps``: each must be used up, ``end`` or gone."""
    for e in eps:
        s = delta.pop(e, S.END)
        if not S.type_equal(s, S.END):
            raise SessionTypeError(
                "leftover", f"endpoint {e} still owes {S.format_session_type(s)} at the end of {where}"
            )


def _bind(delta: SessionEnv, scopes: list, name: str, where: str) -> tuple[P.Endpoint, P.Endpoint]:
    """Open the scope of a binder of ``name``: set aside the outer entries
    for both endpoints it binds, to restore when the scope ends."""
    eps = (P.Endpoint(name, False), P.Endpoint(name, True))
    scopes.append((eps, {e: delta.pop(e) for e in eps if e in delta}, where))
    return eps


def _signature(d: P.Def):
    """A definition's parameter types, or None when one is unannotated."""
    vals, chans = tuple(t for _, t in d.val_params), tuple(t for _, t in d.chan_params)
    return None if any(t is None for t in vals + chans) else (vals, chans)


def _check(env: ProcEnv, gamma: dict, delta: SessionEnv, p: P.Process, width: frozenset[str]) -> SessionEnv:
    """Check ``p`` under ``delta``, consuming its entries in place, and
    return the leftover.  A run of prefixes and binders is one loop, whose
    scopes end in reverse once the run does; only parallel composition,
    branching and definition bodies take a Python frame."""
    scopes: list[tuple[tuple[P.Endpoint, ...], SessionEnv, str]] = []
    while True:
        if isinstance(p, (P.RecvVal, P.RecvChan)):
            s = _take(delta, p, S.Recv, "performs a receive")
            delta[p.chan] = s.cont
            scopes.append(((p.chan,), {}, "its prefix"))
            eps = _bind(delta, scopes, p.binder, f"the scope of {p.binder}")
            if S.is_value_payload(s.payload):
                gamma = {**gamma, p.binder: s.payload}
            else:
                # receive of a channel; the binder owns the delegated endpoint
                delta[eps[0]] = s.payload
            width = width - {p.binder}
            p = p.cont

        elif isinstance(p, P.SendVal):
            s = _take(delta, p, S.Send, "performs a send")
            if not S.is_value_payload(s.payload):
                # session payload: accept a bare name the parser left as a value
                if not isinstance(p.value, P.VarRef):
                    raise SessionTypeError(
                        "payload", f"{p.chan} expects a channel payload, got value {P.format_value(p.value)}"
                    )
                delta[p.chan] = s
                p = P.SendChan(p.chan, P.Endpoint(p.value.name), p.cont)
                continue
            actual = value_type(gamma, p.value)
            if actual is not s.payload:
                raise SessionTypeError("payload", f"{p.chan} expects a {s.payload} payload, got {actual}")
            delta[p.chan] = s.cont
            scopes.append(((p.chan,), {}, "its prefix"))
            p = p.cont

        elif isinstance(p, P.SendChan):
            s = _take(delta, p, S.Send, "delegates a channel")
            if S.is_value_payload(s.payload):
                raise SessionTypeError(
                    "shape", f"{p.chan} delegates a channel but its type is {S.format_session_type(s)}"
                )
            sent_type = delta.pop(p.sent, None)
            if sent_type is None:
                raise SessionTypeError("unbound", f"delegated endpoint {p.sent} is not available here")
            if not S.type_equal(sent_type, s.payload):
                raise SessionTypeError(
                    "payload",
                    f"delegated endpoint {p.sent} has type {S.format_session_type(sent_type)}, "
                    f"expected {S.format_session_type(s.payload)}",
                )
            delta[p.chan] = s.cont
            scopes.append(((p.chan,), {}, "its prefix"))
            p = p.cont

        elif isinstance(p, P.Select):
            s = _take(delta, p, S.Select, "selects")
            cont_type = s.get(p.label)
            if cont_type is None:
                raise SessionTypeError("label", f"label {p.label} is not offered by {S.format_session_type(s)}")
            if len(s.choices) > 1 and p.chan.name not in width:
                raise SessionTypeError(
                    "label",
                    f"{p.chan} selects {p.label} from a multi-label type; width subtyping only "
                    f"applies at restriction and shared-channel introduction",
                )
            delta[p.chan] = cont_type
            scopes.append(((p.chan,), {}, "its prefix"))
            p = p.cont

        elif isinstance(p, P.New):
            eps = _bind(delta, scopes, p.name, f"the scope of new {p.name}")
            if p.annotation is not None:
                s_plain: S.SessionType | None = p.annotation
                s_dual: S.SessionType | None = S.dual(p.annotation)
            else:
                s_plain, s_dual = _synthesize(env, gamma, delta, eps, p.body)
                if s_plain is None and s_dual is None:
                    raise SessionTypeError(
                        "annotation",
                        f"cannot synthesize a session type for restricted channel {p.name}; annotate it",
                    )
                if s_plain is None:
                    s_plain = S.dual(s_dual)
                elif s_dual is None:
                    s_dual = S.dual(s_plain)
                elif not S.dual_compatible(s_plain, s_dual):
                    raise SessionTypeError(
                        "duality",
                        f"restricted channel {p.name} has incompatible endpoint types "
                        f"{S.format_session_type(s_plain)} and {S.format_session_type(s_dual)}",
                    )
            delta[eps[0]], delta[eps[1]] = s_plain, s_dual
            width = width | {p.name}
            p = p.body

        elif isinstance(p, (P.Accept, P.Request)):
            if p.shared not in env.shared:
                raise SessionTypeError("unbound", f"unknown shared channel {p.shared!r}")
            side = env.shared[p.shared]
            eps = _bind(delta, scopes, p.binder, f"the scope of {p.binder}")
            delta[eps[0]] = side if isinstance(p, P.Accept) else S.dual(side)
            width = width | {p.binder}
            p = p.cont

        elif isinstance(p, P.Def):
            sig = _signature(p)
            if sig is None:
                raise SessionTypeError(
                    "annotation", f"definition {p.name} needs parameter type annotations to be checked"
                )
            env = replace(env, defs={**env.defs, p.name: sig})
            body_delta = {P.Endpoint(name): t for name, t in p.chan_params}
            body = _check(env, {**gamma, **dict(p.val_params)}, body_delta, p.body, width)
            _close(body, list(body), f"the body of {p.name}")
            p = p.scope

        elif isinstance(p, P.Par):
            try:
                delta = _check(env, gamma, _check(env, gamma, delta, p.left, width), p.right, width)
            except SessionTypeError:
                shared = P.free_endpoints(p.left) & P.free_endpoints(p.right)
                if not shared:
                    raise
                name = sorted(str(e) for e in shared)[0]
                raise SessionTypeError(
                    "linearity", f"endpoint {name} is used by both sides of a parallel composition"
                ) from None
            break

        elif isinstance(p, P.Branch):
            s = _take(delta, p, S.Branch, "offers branches")
            offered = tuple(sorted(label for label, _ in p.branches))
            if offered != s.labels():
                raise SessionTypeError(
                    "label",
                    f"{p.chan} offers {{{', '.join(offered)}}} but its type offers {{{', '.join(s.labels())}}}",
                )
            arms = []
            for label, cont in p.branches:
                arm = _check(env, gamma, {**delta, p.chan: s.get(label)}, cont, width)
                _close(arm, (p.chan,), "its prefix")
                arms.append(arm)
            # what one arm uses, every arm must use up
            delta = {e: t for e, t in delta.items() if all(e in arm for arm in arms)}
            for arm in arms:
                _close(arm, [e for e in arm if e not in delta], f"a branch on {p.chan}")
            break

        elif isinstance(p, P.Call):
            if p.name not in env.defs:
                raise SessionTypeError("unbound", f"call to unknown definition {p.name!r}")
            val_sig, chan_sig = env.defs[p.name]
            if len(val_sig) != len(p.val_args) or len(chan_sig) != len(p.chan_args):
                raise SessionTypeError("arity", f"call to {p.name} has the wrong number of arguments")
            for v, expected in zip(p.val_args, val_sig):
                actual = value_type(gamma, v)
                if actual is not expected:
                    raise SessionTypeError(
                        "payload", f"call to {p.name}: argument {P.format_value(v)} is {actual}, expected {expected}"
                    )
            for ep, expected in zip(p.chan_args, chan_sig):
                actual_type = delta.pop(ep, None)
                if actual_type is None:
                    raise SessionTypeError("unbound", f"call to {p.name}: endpoint {ep} is not available here")
                if not S.type_equal(actual_type, expected):
                    raise SessionTypeError(
                        "payload",
                        f"call to {p.name}: endpoint {ep} has type {S.format_session_type(actual_type)}, "
                        f"expected {S.format_session_type(expected)}",
                    )
            break

        elif isinstance(p, P.Nil):
            break

        else:
            raise TypeError(f"not a process: {p!r}")

    for eps, saved, where in reversed(scopes):
        _close(delta, eps, where)
        delta.update(saved)
    return delta


# ------------------------------------------------------------- synthesis

_UNUSED = object()


def _synthesize(env: ProcEnv, gamma: dict, delta: SessionEnv, eps: tuple[P.Endpoint, ...], p: P.Process) -> list:
    """Best-effort session types of the endpoints ``eps`` (the two ends of
    one channel) from their usage, in one `process.fold`; None for an
    endpoint whose usage involves information only the other side can
    provide."""

    defs = dict(env.defs)
    unused = [_UNUSED] * len(eps)

    def end(r):
        return S.END if r is _UNUSED else r

    def enter(q: P.Process, g: dict) -> tuple:
        """What ``q``'s result needs of its own fields (for a node with no
        subterms, its result), and its subterms with their value typings."""
        if isinstance(q, P.Nil) or isinstance(q, P.New) and q.name == eps[0].name:
            return unused, ()
        if isinstance(q, (P.Accept, P.Request)) and q.binder == eps[0].name:
            return unused, ()
        if isinstance(q, (P.RecvVal, P.RecvChan)):
            if q.binder == eps[0].name:
                return [None if q.chan == e else _UNUSED for e in eps], ()
            # a payload type comes from the sender
            return None, [(q.cont, {**g, q.binder: None})]
        if isinstance(q, (P.SendVal, P.SendChan)):
            payload = None
            if q.chan in eps and isinstance(q, P.SendVal):
                try:
                    payload = value_type(g, q.value)  # None when the value was received
                except SessionTypeError:
                    pass
            elif q.chan in eps:
                payload = delta.get(q.sent)
            return payload, [(q.cont, g)]
        if isinstance(q, P.Def):
            sig = _signature(q)
            if sig is not None:
                defs[q.name] = sig
            return None, [(q.scope, g)]
        if isinstance(q, P.Call):
            sig = defs.get(q.name)
            known = sig is not None and len(sig[1]) == len(q.chan_args)
            return [
                next(((sig[1][i] if known else None) for i, ep in enumerate(q.chan_args) if ep == e), _UNUSED)
                for e in eps
            ], ()
        if type(q) not in P.FORMS:
            raise TypeError(f"not a process: {q!r}")
        return None, [(kid, g) for kid in P.subterms(q)]  # a parallel composition, branch, select or binder

    def leave(q: P.Process, note, results: list) -> list:
        """Per endpoint: its type in ``q``, None if unknown, or _UNUSED if
        ``q`` does not use it."""
        if not results:
            return note
        if isinstance(q, P.Par):
            return [r if l is _UNUSED else l if r is _UNUSED else None for l, r in zip(*results)]
        if isinstance(q, P.Branch):
            out = []
            for e, arms in zip(eps, zip(*results)):
                if q.chan == e:
                    conts = tuple((label, end(r)) for (label, _), r in zip(q.branches, arms))
                    out.append(None if any(c is None for _, c in conts) else S.Branch(conts))
                elif all(r is _UNUSED for r in arms):
                    out.append(_UNUSED)
                else:
                    first, *rest = map(end, arms)
                    agree = first is not None and all(r is not None and S.type_equal(r, first) for r in rest)
                    out.append(first if agree else None)
            return out
        out = []  # a prefix, or a binder whose result is its scope's
        for e, r in zip(eps, results[0]):
            if isinstance(q, (P.RecvVal, P.RecvChan)) and q.chan == e:
                r = None
            elif isinstance(q, (P.SendVal, P.SendChan)) and q.chan == e:
                r = None if note is None or r is None else S.Send(note, end(r))
            elif isinstance(q, P.SendChan) and q.sent == e:
                r = end(r)  # a delegated endpoint counts as used
            elif isinstance(q, P.Select) and q.chan == e:
                r = None if r is None else S.Select(((q.label, end(r)),))
            out.append(r)
        return out

    return [end(r) for r in P.fold(p, gamma, enter, leave)]
