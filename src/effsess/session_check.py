"""Session typing for processes: linear channel environments, duality at
restriction, select-width subtyping, and shared-channel signatures.

The checker is algorithmic: the session environment (delta) maps endpoints
to the protocol they still owe, prefixes consume it, and parallel
composition must split it disjointly.  Select subtyping is granted only
where restriction or a shared-channel signature introduces the endpoint,
matching the rule that widening happens when duality is discharged.

Restricted channels without an annotation get their types synthesized from
usage when possible (value chains, selects, branches, call signatures);
delegation payloads generally need an annotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _try_value_type(gamma: dict[str, ValueType | None], v: P.Value) -> ValueType | None:
    try:
        known = {k: t for k, t in gamma.items() if t is not None}
        return value_type(known, v)
    except SessionTypeError:
        return None


def session_check(env: ProcEnv, delta: SessionEnv, p: P.Process) -> None:
    """Raise SessionTypeError unless ``p`` checks under exactly ``delta``."""
    _check(env, dict(env.vars), dict(delta), p, frozenset())


def _take(delta: SessionEnv, e: P.Endpoint) -> S.SessionType:
    if e not in delta:
        raise SessionTypeError(
            "unbound", f"endpoint {e} is not available here (untyped, already consumed, or owned elsewhere)"
        )
    return S.unfold(delta.pop(e))


def _leftover_end(delta: SessionEnv, where: str) -> None:
    for e, s in delta.items():
        if not S.type_equal(s, S.END):
            raise SessionTypeError(
                "leftover", f"endpoint {e} still owes {S.format_session_type(s)} at {where}"
            )


def _check(env: ProcEnv, gamma: dict, delta: SessionEnv, p: P.Process, width: frozenset[str]) -> None:
    if isinstance(p, P.Nil):
        _leftover_end(delta, "0")
        return

    if isinstance(p, P.Par):
        left_eps = P.free_endpoints(p.left)
        right_eps = P.free_endpoints(p.right)
        overlap = left_eps & right_eps
        if overlap:
            name = sorted(str(e) for e in overlap)[0]
            raise SessionTypeError(
                "linearity", f"endpoint {name} is used by both sides of a parallel composition"
            )
        d_left = {e: s for e, s in delta.items() if e in left_eps or e not in right_eps}
        d_right = {e: s for e, s in delta.items() if e not in d_left}
        _check(env, gamma, d_left, p.left, width)
        _check(env, gamma, d_right, p.right, width)
        return

    if isinstance(p, (P.RecvVal, P.RecvChan)):
        s = _take(delta, p.chan)
        if not isinstance(s, S.Recv):
            raise SessionTypeError(
                "shape", f"{p.chan} performs a receive but its type is {S.format_session_type(s)}"
            )
        delta[p.chan] = s.cont
        if S.is_value_payload(s.payload):
            gamma2 = dict(gamma)
            gamma2[p.binder] = s.payload
            _check(env, gamma2, delta, p.cont, width)
        else:
            # receive of a channel; the binder owns the delegated endpoint
            delta[P.Endpoint(p.binder, False)] = s.payload
            _check(env, gamma, delta, p.cont, width)
        return

    if isinstance(p, P.SendVal):
        s = _take(delta, p.chan)
        if not isinstance(s, S.Send):
            raise SessionTypeError(
                "shape", f"{p.chan} performs a send but its type is {S.format_session_type(s)}"
            )
        if S.is_value_payload(s.payload):
            actual = value_type(gamma, p.value)
            if actual is not s.payload:
                raise SessionTypeError(
                    "payload", f"{p.chan} expects a {s.payload} payload, got {actual}"
                )
            delta[p.chan] = s.cont
            _check(env, gamma, delta, p.cont, width)
            return
        # session payload: accept a bare name the parser left as a value
        if isinstance(p.value, P.VarRef):
            delta[p.chan] = S.Send(s.payload, s.cont)
            _check(env, gamma, delta, P.SendChan(p.chan, P.Endpoint(p.value.name, False), p.cont), width)
            return
        raise SessionTypeError(
            "payload", f"{p.chan} expects a channel payload, got value {P.format_value(p.value)}"
        )

    if isinstance(p, P.SendChan):
        s = _take(delta, p.chan)
        if not isinstance(s, S.Send) or S.is_value_payload(s.payload):
            raise SessionTypeError(
                "shape",
                f"{p.chan} delegates a channel but its type is {S.format_session_type(s)}",
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
        _check(env, gamma, delta, p.cont, width)
        return

    if isinstance(p, P.Branch):
        s = _take(delta, p.chan)
        if not isinstance(s, S.Branch):
            raise SessionTypeError(
                "shape", f"{p.chan} offers branches but its type is {S.format_session_type(s)}"
            )
        offered = tuple(sorted(label for label, _ in p.branches))
        if offered != s.labels():
            raise SessionTypeError(
                "label",
                f"{p.chan} offers {{{', '.join(offered)}}} but its type offers {{{', '.join(s.labels())}}}",
            )
        for label, cont in p.branches:
            d2 = dict(delta)
            d2[p.chan] = s.get(label)
            _check(env, gamma, d2, cont, width)
        return

    if isinstance(p, P.Select):
        s = _take(delta, p.chan)
        if not isinstance(s, S.Select):
            raise SessionTypeError(
                "shape", f"{p.chan} selects but its type is {S.format_session_type(s)}"
            )
        cont_type = s.get(p.label)
        if cont_type is None:
            raise SessionTypeError(
                "label", f"label {p.label} is not offered by {S.format_session_type(s)}"
            )
        if len(s.choices) > 1 and p.chan.name not in width:
            raise SessionTypeError(
                "label",
                f"{p.chan} selects {p.label} from a multi-label type; width subtyping only "
                f"applies at restriction and shared-channel introduction",
            )
        delta[p.chan] = cont_type
        _check(env, gamma, delta, p.cont, width)
        return

    if isinstance(p, P.Def):
        if any(t is None for _, t in p.val_params) or any(t is None for _, t in p.chan_params):
            raise SessionTypeError(
                "annotation", f"definition {p.name} needs parameter type annotations to be checked"
            )
        sig = (tuple(t for _, t in p.val_params), tuple(t for _, t in p.chan_params))
        env2 = ProcEnv(dict(env.vars), dict(env.defs), dict(env.shared))
        env2.defs[p.name] = sig
        gamma_body = dict(gamma)
        for name, t in p.val_params:
            gamma_body[name] = t
        delta_body = {P.Endpoint(name, False): t for name, t in p.chan_params}
        _check(env2, gamma_body, delta_body, p.body, width)
        _check(env2, gamma, delta, p.scope, width)
        return

    if isinstance(p, P.Call):
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
        _leftover_end(delta, f"call to {p.name}")
        return

    if isinstance(p, P.New):
        name = p.name
        body = p.body
        if any(e.name == name for e in delta):
            fresh = P.fresh_name(name, P.free_names(body).terms.keys() | {e.name for e in delta})
            body = P.subst_endpoint(body, name, P.Endpoint(fresh))
            name = fresh
        plain, dual_ep = P.Endpoint(name, False), P.Endpoint(name, True)
        if p.annotation is not None:
            s_plain: S.SessionType | None = p.annotation
            s_dual: S.SessionType | None = S.dual(p.annotation)
        else:
            s_plain = _synthesize(env, gamma, delta, plain, body)
            s_dual = _synthesize(env, gamma, delta, dual_ep, body)
            if s_plain is None and s_dual is None:
                raise SessionTypeError(
                    "annotation",
                    f"cannot synthesize a session type for restricted channel {name}; annotate it",
                )
            if s_plain is None:
                s_plain = S.dual(s_dual)
            elif s_dual is None:
                s_dual = S.dual(s_plain)
            elif not S.dual_compatible(s_plain, s_dual):
                raise SessionTypeError(
                    "duality",
                    f"restricted channel {name} has incompatible endpoint types "
                    f"{S.format_session_type(s_plain)} and {S.format_session_type(s_dual)}",
                )
        delta2 = dict(delta)
        delta2[plain] = s_plain
        delta2[dual_ep] = s_dual
        _check(env, gamma, delta2, body, width | {name})
        return

    if isinstance(p, (P.Accept, P.Request)):
        if p.shared not in env.shared:
            raise SessionTypeError("unbound", f"unknown shared channel {p.shared!r}")
        side = env.shared[p.shared]
        session = side if isinstance(p, P.Accept) else S.dual(side)
        binder, cont = p.binder, p.cont
        if any(e.name == binder for e in delta):
            fresh = P.fresh_name(binder, P.free_names(cont).terms.keys() | {e.name for e in delta})
            cont = P.subst_endpoint(cont, binder, P.Endpoint(fresh))
            binder = fresh
        delta2 = dict(delta)
        delta2[P.Endpoint(binder, False)] = session
        _check(env, gamma, delta2, cont, width | {binder})
        return

    raise TypeError(f"not a process: {p!r}")


# ------------------------------------------------------------- synthesis

def _synthesize(env: ProcEnv, gamma: dict, delta: SessionEnv, e: P.Endpoint, p: P.Process):
    """Best-effort session type of one endpoint from its usage; None when
    the usage involves information only the other side can provide."""

    defs = dict(env.defs)

    def go(q: P.Process, g: dict) -> S.SessionType | None:
        if isinstance(q, P.Nil):
            return S.END
        if isinstance(q, P.Par):
            in_left = e in P.free_endpoints(q.left)
            in_right = e in P.free_endpoints(q.right)
            if in_left and in_right:
                return None
            if in_left:
                return go(q.left, g)
            if in_right:
                return go(q.right, g)
            return S.END
        if isinstance(q, (P.RecvVal, P.RecvChan)):
            if q.chan == e:
                return None  # payload type comes from the sender
            g2 = dict(g)
            g2[q.binder] = None
            if q.binder == e.name:
                return S.END
            return go(q.cont, g2)
        if isinstance(q, P.SendVal):
            if q.chan == e:
                payload = _try_value_type(g, q.value)
                if payload is None:
                    return None
                rest = go(q.cont, g)
                return None if rest is None else S.Send(payload, rest)
            return go(q.cont, g)
        if isinstance(q, P.SendChan):
            if q.chan == e:
                payload = delta.get(q.sent)
                if payload is None:
                    return None
                rest = go(q.cont, g)
                return None if rest is None else S.Send(payload, rest)
            return go(q.cont, g)
        if isinstance(q, P.Select):
            if q.chan == e:
                rest = go(q.cont, g)
                return None if rest is None else S.Select(((q.label, rest),))
            return go(q.cont, g)
        if isinstance(q, P.Branch):
            if q.chan == e:
                conts = [(label, go(cont, g)) for label, cont in q.branches]
                if any(c is None for _, c in conts):
                    return None
                return S.Branch(tuple(conts))
            results = [go(cont, g) for _, cont in q.branches]
            if any(r is None for r in results):
                return None
            first = results[0]
            if all(S.type_equal(r, first) for r in results[1:]):
                return first
            return None
        if isinstance(q, P.Def):
            if all(t is not None for _, t in q.val_params) and all(t is not None for _, t in q.chan_params):
                defs[q.name] = (
                    tuple(t for _, t in q.val_params),
                    tuple(t for _, t in q.chan_params),
                )
            return go(q.scope, g)
        if isinstance(q, P.Call):
            sig = defs.get(q.name)
            for i, ep in enumerate(q.chan_args):
                if ep == e:
                    if sig is None or len(sig[1]) != len(q.chan_args):
                        return None
                    return sig[1][i]
            return S.END
        if isinstance(q, P.New):
            if q.name == e.name:
                return S.END
            return go(q.body, g)
        if isinstance(q, (P.Accept, P.Request)):
            if q.binder == e.name:
                return S.END
            return go(q.cont, g)
        raise TypeError(f"not a process: {q!r}")

    gamma0: dict = {k: v for k, v in gamma.items()}
    return go(p, gamma0)
