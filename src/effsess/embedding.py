"""Translations between the effect calculus and the session pi-calculus.

The effect/session correspondence sends an annotation to a chain of
single-label selects ending in `end`; the term translation threads one
effect channel through the computation (received on `ei`, handed on via
`eo`) and emits the result on a dedicated channel.  The store itself is a
recursive branching agent; a shared-channel variant initiates one short
session per effect operation, which serializes concurrent access at the
cost of forgetting effect order in the types.

Both term embeddings read a `let` chain in one pass, in a loop: each
binding is typed once, by `infer` on the binding alone, and the session
still owed after it (its `ea` annotation) is built from the chain's end, so
consecutive annotations share their tail and no `let` body is re-typed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import process as P
from . import sessions as S
from .effects import EffectAnnotation, Get, IDENTITY, Put
from .infer import EffectTypeError, TypeEnv, infer
from .terms import Const, Let, OpApp, Program, Term, ValueType, Var, all_names, free_vars


class EmbeddingError(Exception):
    pass


class NotInImage(Exception):
    pass


RESERVED_RESULT = "r"
RESERVED_EFFECT = "eff"


# ------------------------------------------------- effect/session bijection

def effect_to_session(f: EffectAnnotation, tail: S.SessionType = S.END) -> S.SessionType:
    """The select chain of ``f``, continuing as ``tail`` (``end`` in the
    image of an annotation)."""
    s = tail
    for token in reversed(f):
        if isinstance(token, Get):
            s = S.Select((("get", S.Recv(token.param, s)),))
        else:
            s = S.Select((("put", S.Send(token.param, s)),))
    return s


def session_to_effect(s: S.SessionType) -> EffectAnnotation:
    """The unique preimage under the effect interpretation."""
    tokens = []
    while not isinstance(s, S.End):
        label, cont = s.choices[0] if isinstance(s, S.Select) and len(s.choices) == 1 else (None, None)
        if label == "get" and isinstance(cont, S.Recv) and S.is_value_payload(cont.payload):
            tokens.append(Get(cont.payload))
        elif label == "put" and isinstance(cont, S.Send) and S.is_value_payload(cont.payload):
            tokens.append(Put(cont.payload))
        else:
            raise NotInImage(f"{S.format_session_type(s)} is not the image of an effect annotation")
        s = cont.cont
    return tuple(tokens)


# ----------------------------------------------------------- store agents

def _served_type(store_type: ValueType, then: S.SessionType) -> S.SessionType:
    """The type of `_serve`'s branch, continuing as ``then``."""
    return S.Branch((("get", S.Send(store_type, then)), ("put", S.Recv(store_type, then)), ("stop", S.END)))


def store_session_type(store_type: ValueType) -> S.SessionType:
    return S.Mu("a", _served_type(store_type, S.TVar("a")))


def _serve(c: P.Endpoint, chans: tuple[P.Endpoint, ...]) -> P.Process:
    """One store request on ``c``: send the value ``x`` or receive a new
    one ``y``, then call ``Store`` again with ``chans``; or stop."""
    return P.Branch(
        c,
        (
            ("get", P.SendVal(c, P.VarRef("x"), P.Call("Store", (P.VarRef("x"),), chans))),
            ("put", P.RecvVal(c, "y", P.Call("Store", (P.VarRef("y"),), chans))),
            ("stop", P.NIL),
        ),
    )


def store_agent(init: P.Value, c: P.Endpoint, store_type: ValueType) -> P.Process:
    """The recursive variable agent, instantiated at (init, c)."""
    s = P.Endpoint("s")
    return P.Def(
        "Store",
        (("x", store_type),),
        (("s", store_session_type(store_type)),),
        _serve(s, (s,)),
        P.Call("Store", (init,), (c,)),
    )


def get_op(c: P.Endpoint, binder: str, cont: P.Process) -> P.Process:
    """get(c)(x).P: select get on the opposite endpoint, then receive."""
    d = c.flip()
    return P.Select(d, "get", P.RecvVal(d, binder, cont))


def put_op(c: P.Endpoint, value: P.Value, cont: P.Process) -> P.Process:
    """put(c)<V>.P: select put on the opposite endpoint, then send."""
    d = c.flip()
    return P.Select(d, "put", P.SendVal(d, value, cont))


# -------------------------------------------------------- shared channels

def shared_store_type(store_type: ValueType) -> S.SessionType:
    """Accept-side type of one store session; every session serves one
    effect operation, so ordering information is gone."""
    return _served_type(store_type, S.END)


def shared_store_agent(init: P.Value, k: str, store_type: ValueType) -> P.Process:
    """The store behind a shared channel: accept a session, serve one
    request atomically, recurse.  The shared name is ambient in the body
    since definition signatures carry only value and session types."""
    body = P.Accept(k, "c", _serve(P.Endpoint("c"), ()))
    return P.Def("Store", (("x", store_type),), (), body, P.Call("Store", (init,), ()))


def shared_get(k: str, binder: str, cont: P.Process) -> P.Process:
    c = P.fresh_name("c", P.free_names(cont).terms.keys() | {binder, k})
    ep = P.Endpoint(c)
    return P.Request(k, c, P.Select(ep, "get", P.RecvVal(ep, binder, cont)))


def shared_put(k: str, value: P.Value, cont: P.Process) -> P.Process:
    c = P.fresh_name("c", P.free_names(cont).terms.keys() | {k, *P.value_var_names(value)})
    ep = P.Endpoint(c)
    return P.Request(k, c, P.Select(ep, "put", P.SendVal(ep, value, cont)))


# ------------------------------------------------------------ name supply

@dataclass
class NameSupply:
    """Deterministic fresh names following the proof conventions: the bare
    base first (q, ea), then numbered (q1, q2, ...).  Names are only ever
    added to ``taken``, so each base resumes where its last draw stopped."""

    taken: set[str] = field(default_factory=set)
    _next: dict[str, int] = field(default_factory=dict, init=False, repr=False)

    def fresh(self, base: str) -> str:
        k = self._next.get(base, 0)
        name = f"{base}{k or ''}"
        while name in self.taken:
            k += 1
            name = f"{base}{k}"
        self._next[base] = k + 1
        self.taken.add(name)
        return name


def _supply_for(t: Term, *extra: str) -> NameSupply:
    return NameSupply(set(all_names(t)) | {RESERVED_RESULT, RESERVED_EFFECT} | set(extra))


_PURE_CONST_VALUES = {"zero": P.NatLit(0), "unit": P.UNIT_VALUE}
_PURE_OP_VALUES = {"suc": P.SucOf}


# ----------------------------------------------------------- pure fragment

def embed_pure(
    t: Term,
    r: P.Endpoint,
    env: TypeEnv | None = None,
    store_type: ValueType = ValueType.NAT,
    supply: NameSupply | None = None,
    then: P.Process = P.NIL,
) -> P.Process:
    """CBV embedding of a pure term: the result travels over ``r``, and
    ``then`` runs after the result is sent.

    Restriction annotations are attached when a typing environment is
    supplied; otherwise the output is bare.
    """
    supply = supply or _supply_for(t, r.name)

    def annot(term: Term, env: TypeEnv | None) -> S.SessionType | None:
        return None if env is None else S.Send(infer(env, store_type, term)[0], S.END)

    def go(term: Term, res: P.Endpoint, env: TypeEnv | None, then: P.Process) -> P.Process:
        # a let chain in a loop: each binding sends on its own q, which the
        # rest of the chain receives
        links = []
        if isinstance(term, Let) and env is not None:
            env = dict(env)  # extended in place along the chain
        while isinstance(term, Let):
            q = supply.fresh("q")
            ann = annot(term.bound, env)
            links.append((q, ann, term.name, go(term.bound, P.Endpoint(q), env, P.NIL)))
            if env is not None:
                env[term.name] = ann.payload
            term = term.body
        if isinstance(term, Var):
            p = P.SendVal(res, P.VarRef(term.name), then)
        elif isinstance(term, Const):
            if term.const not in _PURE_CONST_VALUES:
                raise EmbeddingError(f"constant {term.const} is effectful; no pure embedding")
            p = P.SendVal(res, _PURE_CONST_VALUES[term.const], then)
        elif isinstance(term, OpApp):
            if term.op not in _PURE_OP_VALUES:
                raise EmbeddingError(f"operation {term.op} is effectful; no pure embedding")
            q = supply.fresh("q")
            x = supply.fresh("x")
            qe = P.Endpoint(q)
            payload = _PURE_OP_VALUES[term.op](P.VarRef(x))
            p = P.New(
                q,
                annot(term.arg, env),
                P.par(go(term.arg, qe, env, P.NIL), P.RecvVal(qe.flip(), x, P.SendVal(res, payload, then))),
            )
        else:
            raise TypeError(f"not a term: {term!r}")
        for q, ann, x, left in reversed(links):
            p = P.New(q, ann, P.par(left, P.RecvVal(P.Endpoint(q, True), x, p)))
        return p

    return go(t, r, env, then)


# ----------------------------------------------------- intermediate layer

def embed_intermediate(
    t: Term,
    ei: P.Endpoint,
    eo: P.Endpoint,
    r: P.Endpoint,
    env: TypeEnv | None = None,
    store_type: ValueType = ValueType.NAT,
    supply: NameSupply | None = None,
) -> P.Process:
    """Effect-threading embedding: receive the effect channel on ``ei``,
    perform the term's effects on it, hand it on via the opposite endpoint
    of ``eo``.
    """
    return _embed_effectful(t, ei, eo, r, env, store_type, supply, commuting=False)


def _embed_effectful(t: Term, ei: P.Endpoint, eo: P.Endpoint, r: P.Endpoint, env: TypeEnv | None,
                     store_type: ValueType, supply: NameSupply | None, commuting: bool) -> P.Process:
    """`embed_intermediate`, and with ``commuting`` `optimize_commuting`."""
    supply = supply or _supply_for(t, ei.name, eo.name, r.name)

    def commuting_pair(term: Let, env: TypeEnv):
        # let x = M in (let y = N in P) with M pure, or the mirror image
        # let y = N in (let x = M in P) with M pure: (x, M, M's type),
        # (y, N) and P
        outer, inner = term, term.body
        if not isinstance(inner, Let) or outer.name == inner.name:
            return None
        for (x, m), (y, n) in (((outer.name, outer.bound), (inner.name, inner.bound)),
                               ((inner.name, inner.bound), (outer.name, outer.bound))):
            try:
                sigma_m, m_eff = infer(env, store_type, m)
            except EffectTypeError:
                continue
            if m_eff == IDENTITY and x not in free_vars(n) and y not in free_vars(m):
                return (x, m, sigma_m), (y, n), inner.body
        return None

    def chain(term: Term, ei: P.Endpoint, eo: P.Endpoint, res: P.Endpoint, env: TypeEnv,
              owed: S.SessionType, commuting: bool = False) -> P.Process:
        # Type each binding alone, in chain order.  A link binds one name,
        # or a commuting pair whose pure first binding runs beside the second.
        links, scope = [], dict(env)
        pair = commuting and isinstance(term, Let) and commuting_pair(term, scope)
        if pair:
            (x, m, sigma_m), (y, n), term = pair
            sigma_n, f = infer(scope, store_type, n)
            links.append((((x, m, sigma_m), (y, n, sigma_n)), f))
            scope[x], scope[y] = sigma_m, sigma_n
        while isinstance(term, Let):
            sigma, f = infer(scope, store_type, term.bound)
            links.append((((term.name, term.bound, sigma),), f))
            scope[term.name] = sigma
            term = term.body
        _, f = infer(scope, store_type, term)
        # The session still owed after each link, built from the chain's end
        # so that consecutive annotations share their tail.
        afters = []
        for _, f_link in reversed(links):
            owed = effect_to_session(f, tail=owed)
            afters.append(owed)
            f = f_link
        afters.reverse()
        # Names and bindings in chain order; the process from the chain's end.
        built, scope = [], dict(env)
        for (bindings, _), after in zip(links, afters):
            chans = [supply.fresh(base) for base, _ in zip("qs", bindings)]
            ea = supply.fresh("ea")
            *pure, (_, bound, _) = bindings
            lefts = [embed_pure(m, P.Endpoint(c), scope, store_type, supply) for (_, m, _), c in zip(pure, chans)]
            args = (bound, ei, P.Endpoint(ea), P.Endpoint(chans[-1]), scope)
            lefts.append(chain(*args, after) if isinstance(bound, Let) else clause(*args))
            for x, _, sigma in bindings:
                scope[x] = sigma
            built.append((bindings, chans, ea, after, lefts))
            ei = P.Endpoint(ea)
        p = clause(term, ei, eo, res, scope)
        for bindings, chans, ea, after, lefts in reversed(built):
            for (x, _, _), c in zip(reversed(bindings), reversed(chans)):
                p = P.RecvVal(P.Endpoint(c, True), x, p)
            p = P.New(ea, S.Recv(after, S.END), P.par(*lefts, p))
            for (_, _, sigma), c in zip(reversed(bindings), reversed(chans)):
                p = P.New(c, S.Send(sigma, S.END), p)
        return p

    def clause(term: Term, ei: P.Endpoint, eo: P.Endpoint, res: P.Endpoint, env: TypeEnv) -> P.Process:
        # a term that is not a let: its effects, then the channel handed on
        eo_bar = eo.flip()
        if (
            isinstance(term, Var)
            or (isinstance(term, Const) and term.const in _PURE_CONST_VALUES)
            or (isinstance(term, OpApp) and term.op in _PURE_OP_VALUES)
        ):
            c = supply.fresh("c")
            forward = P.SendChan(eo_bar, P.Endpoint(c), P.NIL)
            return P.RecvChan(ei, c, embed_pure(term, res, env, store_type, supply, forward))
        if isinstance(term, Const):
            if term.const == "get":
                c = supply.fresh("c")
                x = supply.fresh("x")
                ce = P.Endpoint(c)
                done = P.SendVal(res, P.VarRef(x), P.SendChan(eo_bar, ce, P.NIL))
                return P.RecvChan(ei, c, get_op(ce.flip(), x, done))
            raise EmbeddingError(f"effectful constant {term.const} has no embedding clause")
        if isinstance(term, OpApp):
            if term.op == "put":
                q = supply.fresh("q")
                c = supply.fresh("c")
                x = supply.fresh("x")
                qe, ce = P.Endpoint(q), P.Endpoint(c)
                done = P.SendVal(res, P.UNIT_VALUE, P.SendChan(eo_bar, ce, P.NIL))
                doput = P.RecvChan(ei, c, P.RecvVal(qe.flip(), x, put_op(ce.flip(), P.VarRef(x), done)))
                pure = embed_pure(term.arg, qe, env, store_type, supply)
                return P.New(q, S.Send(store_type, S.END), P.par(pure, doput))
            raise EmbeddingError(f"effectful operation {term.op} has no embedding clause")
        raise TypeError(f"not a term: {term!r}")

    return chain(t, ei, eo, r, {} if env is None else env, S.END, commuting)


# -------------------------------------------------------------- top level

@dataclass(frozen=True)
class EmbeddingResult:
    process: P.Process
    delta: dict[P.Endpoint, S.SessionType]
    gamma: dict[str, ValueType]
    source_type: ValueType
    source_effect: EffectAnnotation


def embed_term_top(
    t: Term,
    env: TypeEnv | None = None,
    store_type: ValueType = ValueType.NAT,
    eff: P.Endpoint = P.Endpoint(RESERVED_EFFECT),
    r: P.Endpoint = P.Endpoint(RESERVED_RESULT),
    optimize: bool = False,
    send_stop: bool = False,
) -> EmbeddingResult:
    """Wrap the intermediate embedding with the channel-feeding harness:
    the effect channel goes in over a fresh ei, and the leftover channel
    comes back over a fresh eo where it is dropped (or told to stop)."""
    env = {} if env is None else env
    tau, f_eff = infer(env, store_type, t)
    supply = NameSupply(set(all_names(t)) | set(env) | {eff.name, r.name})
    ei = supply.fresh("ei")
    eo = supply.fresh("eo")
    build = optimize_commuting if optimize else embed_intermediate
    body = build(t, P.Endpoint(ei), P.Endpoint(eo), r, env, store_type, supply)

    leftover: S.SessionType = S.Select((("stop", S.END),)) if send_stop else S.END
    eff_session = effect_to_session(f_eff, tail=leftover)
    c = supply.fresh("c")
    tail_proc: P.Process = P.NIL if not send_stop else P.Select(P.Endpoint(c), "stop", P.NIL)
    harness = P.SendChan(P.Endpoint(ei, True), eff, P.RecvChan(P.Endpoint(eo), c, tail_proc))
    process = P.New(
        ei,
        S.Recv(eff_session, S.END),
        P.New(eo, S.Recv(leftover, S.END), P.par(body, harness)),
    )
    delta = {
        r: S.Send(tau, S.END),
        eff: eff_session,
    }
    return EmbeddingResult(process, delta, dict(env), tau, f_eff)


def embed_top(prog: Program, optimize: bool = False, send_stop: bool = False) -> EmbeddingResult:
    return embed_term_top(prog.root, {}, prog.store_type, optimize=optimize, send_stop=send_stop)


def initial_store_value(prog: Program) -> P.Value:
    if prog.store_type is ValueType.NAT:
        return P.NatLit(prog.init or 0)
    return P.UNIT_VALUE


def compose_with_store(result: EmbeddingResult, init: P.Value, store_type: ValueType) -> P.Process:
    """The runnable system: the translated program in parallel with the
    store agent holding ``init``, with the effect channel restricted."""
    agent = store_agent(init, P.Endpoint(RESERVED_EFFECT, True), store_type)
    return P.New(RESERVED_EFFECT, None, P.par(agent, result.process))


# ----------------------------------------------------- concurrent variants

def naive_parallel_encode(
    m: Term,
    n: Term,
    eff: P.Endpoint = P.Endpoint(RESERVED_EFFECT),
    r: P.Endpoint = P.Endpoint(RESERVED_RESULT),
    env: TypeEnv | None = None,
    store_type: ValueType = ValueType.NAT,
) -> P.Process:
    """The rejected parallel encoding: both encodings share the effect
    channel, so the session checker reports a linearity violation.  Shipped
    as a negative-test constructor only."""
    env = {} if env is None else env
    names = set(all_names(m)) | set(all_names(n)) | set(env) | {eff.name, r.name}
    supply = NameSupply(names)
    q1 = supply.fresh("q1")
    q2 = supply.fresh("q2")
    x = supply.fresh("x")
    y = supply.fresh("y")
    left = embed_term_top(m, env, store_type, eff, P.Endpoint(q1))
    right = embed_term_top(n, env, store_type, eff, P.Endpoint(q2))
    collect = P.RecvVal(
        P.Endpoint(q1, True),
        x,
        P.RecvVal(
            P.Endpoint(q2, True),
            y,
            P.SendVal(r, P.Pair(P.VarRef(x), P.VarRef(y)), P.NIL),
        ),
    )
    tau1 = S.Send(left.source_type, S.END)
    tau2 = S.Send(right.source_type, S.END)
    return P.New(q1, tau1, P.New(q2, tau2, P.par(left.process, right.process, collect)))


def optimize_commuting(
    t: Term,
    ei: P.Endpoint,
    eo: P.Endpoint,
    r: P.Endpoint,
    env: TypeEnv | None = None,
    store_type: ValueType = ValueType.NAT,
    supply: NameSupply | None = None,
) -> P.Process:
    """Compile a commuting let pair to the parallel form: the pure binding
    runs as a sibling of the effectful one.  Anything else falls back to
    the standard embedding."""
    return _embed_effectful(t, ei, eo, r, env, store_type, supply, commuting=True)
