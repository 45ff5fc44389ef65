"""Session typing for processes: linear channel environments, duality at
restriction, select-width subtyping, and shared-channel signatures.

The checker threads the linear environment (Walker, *Substructural Type
Systems*, 2005; Vasconcelos, *Fundamentals of Session Types*, 2012): delta
maps endpoints to the protocol they still owe, and checking a process
consumes the entries it uses.  The check is one loop over one stack of
tasks, each "check this process" or "end this scope", so nodes are visited
in pre-order, left to right, and none takes a Python frame.  A parallel
composition pushes its right side, then its left, on the same delta, so an
endpoint one side uses is gone for the other; a branch pushes the join of
its arms, then each arm on its own copy of delta.

- Delta, the value typings, the names that may select by width and the
  definition signatures are each one mutable map.  A prefix or binder
  pushes the end of its scope, then its continuation.  A binder shadows
  its names' outer entries, and the end of its scope restores them.
- The end of a scope ends its endpoints, which must be ``end`` or gone: a
  prefix its own, ``new``, a channel receive and ``accept``/``request`` the
  ones they bind, a definition body and the top level all of their delta.
  Only these report ``leftover``.
- Only when a check fails are free endpoints computed: the outermost open
  parallel composition whose sides share one (the other side consumed it)
  makes the error ``linearity``, naming the first.

Select subtyping is granted only where restriction or a shared-channel
signature introduces the endpoint, matching the rule that widening happens
when duality is discharged.  Restricted channels without an annotation get
their types synthesized from usage when possible; delegation payloads
generally need an annotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import process as P
from . import sessions as S
from .terms import ValueType, fold


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
    """The type of ``v``; a chain of `suc`s is peeled in a loop."""
    whole = v
    while isinstance(v, P.SucOf):
        v = v.arg
    if isinstance(v, P.NatLit):
        inner = ValueType.NAT
    elif isinstance(v, P.UnitLit):
        inner = ValueType.UNIT
    elif isinstance(v, P.VarRef):
        if v.name not in gamma:
            raise SessionTypeError("unbound", f"unbound variable {v.name!r}")
        inner = gamma[v.name]
    elif isinstance(v, P.Pair):
        raise SessionTypeError("payload", "pair values have no sendable type")
    else:
        raise TypeError(f"not a value: {v!r}")
    if whole is not v and inner is not ValueType.NAT:
        raise SessionTypeError("payload", f"suc applied to a {inner} value")
    return inner


def session_check(env: ProcEnv, delta: SessionEnv, p: P.Process) -> None:
    """Raise SessionTypeError unless ``p`` checks under exactly ``delta``."""
    todo: list[tuple] = []
    try:
        _check(env, dict(delta), p, todo)
    except SessionTypeError:
        for task in todo:  # the parallel compositions still open, outermost first
            if task[0] is _PAR and (shared := P.free_endpoints(task[1].left) & P.free_endpoints(task[1].right)):
                raise SessionTypeError(
                    "linearity", f"endpoint {min(map(str, shared))} is used by both sides of a parallel composition"
                ) from None
        raise


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


def _hand_over(delta: SessionEnv, ep: P.Endpoint, expected: S.SessionType, what: str) -> None:
    """Consume ``ep``, handed over as ``what``; its type must be ``expected``."""
    actual = delta.pop(ep, None)
    if actual is None:
        raise SessionTypeError("unbound", f"{what} {ep} is not available here")
    if not S.type_equal(actual, expected):
        raise SessionTypeError(
            "payload",
            f"{what} {ep} has type {S.format_session_type(actual)}, expected {S.format_session_type(expected)}",
        )


# Tasks: check a process, end a scope, end a parallel composition, join a branch's arms.
_CHECK, _END, _PAR, _JOIN = "check", "end", "par", "join"
_ABSENT = object()


def _scope(todo: list, delta: SessionEnv, eps, where: str) -> list:
    """Push the end of a scope over ``eps`` (None: all of delta); the list returned keeps what it restores."""
    saved: list = []
    todo.append((_END, delta, eps, where, saved))
    return saved


def _shadow(saved: list, m: dict, key, value=_ABSENT) -> None:
    """Give ``key`` the entry ``value`` in ``m`` (none, for _ABSENT) until the scope ends."""
    saved.append((m, key, m.pop(key, _ABSENT)))
    if value is not _ABSENT:
        m[key] = value


def _bind(todo: list, delta: SessionEnv, name: str, where: str) -> tuple[tuple[P.Endpoint, P.Endpoint], list]:
    """Open the scope of a binder of ``name``, shadowing both its endpoints."""
    eps = (P.Endpoint(name, False), P.Endpoint(name, True))
    saved = _scope(todo, delta, eps, where)
    for e in eps:
        _shadow(saved, delta, e)
    return eps, saved


def _signature(d: P.Def):
    """A definition's parameter types, or None when one is unannotated."""
    vals, chans = tuple(t for _, t in d.val_params), tuple(t for _, t in d.chan_params)
    return None if any(t is None for t in vals + chans) else (vals, chans)


def _check(env: ProcEnv, delta: SessionEnv, root: P.Process, todo: list) -> None:
    """Check ``root`` under ``delta`` in one loop over the stack ``todo``."""
    gamma, defs, width = dict(env.vars), dict(env.defs), {}
    _scope(todo, delta, None, "the process")
    todo.append((_CHECK, root, delta))
    while todo:
        task = todo.pop()
        if task[0] is not _CHECK:
            if task[0] is _END:
                _, delta, eps, where, saved = task
                _close(delta, list(delta) if eps is None else eps, where)
                for m, key, value in saved:
                    m.pop(key, None)
                    if value is not _ABSENT:
                        m[key] = value
            elif task[0] is _JOIN:
                _, p, delta, arms = task
                # what one arm uses, every arm must use up
                for e in [e for e in delta if not all(e in arm for arm in arms)]:
                    del delta[e]
                for arm in arms:
                    _close(arm, [e for e in arm if e not in delta], f"a branch on {p.chan}")
            continue
        _, p, delta = task
        if isinstance(p, (P.RecvVal, P.RecvChan)):
            s = _take(delta, p, S.Recv, "performs a receive")
            delta[p.chan] = s.cont
            _scope(todo, delta, (p.chan,), "its prefix")
            eps, saved = _bind(todo, delta, p.binder, f"the scope of {p.binder}")
            if S.is_value_payload(s.payload):
                _shadow(saved, gamma, p.binder, s.payload)
            else:  # receive of a channel; the binder owns the delegated endpoint
                delta[eps[0]] = s.payload
            _shadow(saved, width, p.binder)
            todo.append((_CHECK, p.cont, delta))
        elif isinstance(p, (P.SendVal, P.SendChan)):
            s = _take(delta, p, S.Send, "performs a send" if isinstance(p, P.SendVal) else "delegates a channel")
            if isinstance(p, P.SendVal) and S.is_value_payload(s.payload):
                actual = value_type(gamma, p.value)
                if actual is not s.payload:
                    raise SessionTypeError("payload", f"{p.chan} expects a {s.payload} payload, got {actual}")
            elif isinstance(p, P.SendVal) and not isinstance(p.value, P.VarRef):
                raise SessionTypeError(
                    "payload", f"{p.chan} expects a channel payload, got value {P.format_value(p.value)}"
                )
            elif S.is_value_payload(s.payload):
                raise SessionTypeError(
                    "shape", f"{p.chan} delegates a channel but its type is {S.format_session_type(s)}"
                )
            else:  # a bare name the parser left as a value is the delegated endpoint
                sent = p.sent if isinstance(p, P.SendChan) else P.Endpoint(p.value.name)
                _hand_over(delta, sent, s.payload, "delegated endpoint")
            delta[p.chan] = s.cont
            _scope(todo, delta, (p.chan,), "its prefix")
            todo.append((_CHECK, p.cont, delta))
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
            _scope(todo, delta, (p.chan,), "its prefix")
            todo.append((_CHECK, p.cont, delta))
        elif isinstance(p, P.New):
            eps, saved = _bind(todo, delta, p.name, f"the scope of new {p.name}")
            if p.annotation is None:
                delta[eps[0]], delta[eps[1]] = _synthesize(defs, gamma, delta, eps, p.body)
            else:
                delta[eps[0]], delta[eps[1]] = p.annotation, S.dual(p.annotation)
            _shadow(saved, width, p.name, True)
            todo.append((_CHECK, p.body, delta))
        elif isinstance(p, (P.Accept, P.Request)):
            if p.shared not in env.shared:
                raise SessionTypeError("unbound", f"unknown shared channel {p.shared!r}")
            side = env.shared[p.shared]
            eps, saved = _bind(todo, delta, p.binder, f"the scope of {p.binder}")
            delta[eps[0]] = side if isinstance(p, P.Accept) else S.dual(side)
            _shadow(saved, width, p.binder, True)
            todo.append((_CHECK, p.cont, delta))
        elif isinstance(p, P.Def):
            sig = _signature(p)
            if sig is None:
                raise SessionTypeError(
                    "annotation", f"definition {p.name} needs parameter type annotations to be checked"
                )
            # the signature holds in the body and the scope, value parameters only in the body
            _shadow(_scope(todo, delta, (), "its scope"), defs, p.name, sig)
            todo.append((_CHECK, p.scope, delta))
            body = {P.Endpoint(name): t for name, t in p.chan_params}
            saved = _scope(todo, body, None, f"the body of {p.name}")
            for name, t in dict(p.val_params).items():
                _shadow(saved, gamma, name, t)
            todo.append((_CHECK, p.body, body))
        elif isinstance(p, P.Par):
            todo += [(_PAR, p), (_CHECK, p.right, delta), (_CHECK, p.left, delta)]
        elif isinstance(p, P.Branch):
            s = _take(delta, p, S.Branch, "offers branches")
            offered = tuple(sorted(label for label, _ in p.branches))
            if offered != s.labels():
                raise SessionTypeError(
                    "label",
                    f"{p.chan} offers {{{', '.join(offered)}}} but its type offers {{{', '.join(s.labels())}}}",
                )
            arms = [{**delta, p.chan: s.get(label)} for label, _ in p.branches]
            todo.append((_JOIN, p, delta, arms))
            for (_, cont), arm in zip(reversed(p.branches), reversed(arms)):
                _scope(todo, arm, (p.chan,), "its prefix")
                todo.append((_CHECK, cont, arm))
        elif isinstance(p, P.Call):
            if p.name not in defs:
                raise SessionTypeError("unbound", f"call to unknown definition {p.name!r}")
            val_sig, chan_sig = defs[p.name]
            if len(val_sig) != len(p.val_args) or len(chan_sig) != len(p.chan_args):
                raise SessionTypeError("arity", f"call to {p.name} has the wrong number of arguments")
            for v, expected in zip(p.val_args, val_sig):
                actual = value_type(gamma, v)
                if actual is not expected:
                    raise SessionTypeError(
                        "payload", f"call to {p.name}: argument {P.format_value(v)} is {actual}, expected {expected}"
                    )
            for ep, expected in zip(p.chan_args, chan_sig):
                _hand_over(delta, ep, expected, f"call to {p.name}: endpoint")
        elif not isinstance(p, P.Nil):
            raise TypeError(f"not a process: {p!r}")


# ------------------------------------------------------------- synthesis

_UNUSED = object()


def _synthesize(defs: dict, gamma: dict, delta: SessionEnv, eps: tuple[P.Endpoint, ...], p: P.Process) -> tuple:
    """The session types of ``eps``, the two ends of a restricted channel,
    from their usage in ``p``, in one `terms.fold`.  An endpoint whose
    usage involves information only the other side can provide gets the
    other's dual; the two must be dual when both are known."""
    defs = dict(defs)
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

    s_plain, s_dual = map(end, fold(p, gamma, enter, leave))
    if s_plain is None and s_dual is None:
        raise SessionTypeError(
            "annotation", f"cannot synthesize a session type for restricted channel {eps[0].name}; annotate it"
        )
    if s_plain is None or s_dual is None:
        return (S.dual(s_dual), s_dual) if s_plain is None else (s_plain, S.dual(s_plain))
    if not S.dual_compatible(s_plain, s_dual):
        raise SessionTypeError(
            "duality",
            f"restricted channel {eps[0].name} has incompatible endpoint types "
            f"{S.format_session_type(s_plain)} and {S.format_session_type(s_dual)}",
        )
    return s_plain, s_dual
