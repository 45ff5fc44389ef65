import inspect
import sys

import pytest

from effsess import embedding
from effsess.process import (
    Endpoint,
    NatLit,
    NIL,
    New,
    Par,
    RecvChan,
    RecvVal,
    Select as PSelect,
    SendChan,
    SendVal,
    SucOf,
    UnitLit,
    parse_process,
)
from effsess.sessions import (
    Branch,
    END,
    Mu,
    Recv,
    Select,
    Send,
    TVar,
    dual,
    parse_session_type,
)
from effsess.session_check import ProcEnv, SessionTypeError, session_check
from effsess.terms import ValueType, parse_program

NAT = ValueType.NAT
EFF = Endpoint("eff")
STORE_TYPE = embedding.store_session_type(NAT)


def test_store_agent_checks_against_mu_type():
    agent = embedding.store_agent(NatLit(0), EFF, NAT)
    session_check(ProcEnv(), {EFF: STORE_TYPE}, agent)


def test_nil_under_end():
    session_check(ProcEnv(), {Endpoint("c"): END}, NIL)


def test_nil_with_leftover_rejected():
    with pytest.raises(SessionTypeError) as exc:
        session_check(ProcEnv(), {Endpoint("c"): Send(NAT, END)}, NIL)
    assert exc.value.kind == "leftover"


def test_par_linearity_violation_names_endpoint():
    p = Par(SendVal(EFF, NatLit(0), NIL), SendVal(EFF, NatLit(1), NIL))
    with pytest.raises(SessionTypeError) as exc:
        session_check(ProcEnv(), {EFF: Send(NAT, Send(NAT, END))}, p)
    assert exc.value.kind == "linearity"
    assert "eff" in str(exc.value)


def test_nested_par_linearity_names_the_outermost_sharing_composition():
    # the error arises in the inner composition, whose sides share c; the
    # outermost enclosing composition whose sides share an endpoint names it
    a, b, c = Endpoint("a"), Endpoint("b"), Endpoint("c")
    inner = Par(SendVal(c, NatLit(0), NIL), SendVal(c, NatLit(1), NIL))
    delta = {e: Send(NAT, END) for e in (a, b, c)}
    for right, named in ((SendVal(b, NatLit(1), NIL), "b"), (SendVal(a, NatLit(1), NIL), "c")):
        with pytest.raises(SessionTypeError) as exc:
            session_check(ProcEnv(), dict(delta), Par(SendVal(b, NatLit(0), inner), right))
        assert exc.value.kind == "linearity"
        assert str(exc.value) == f"endpoint {named} is used by both sides of a parallel composition"


def test_get_put_derived_judgements():
    # get(eff)(x).P checks at ~eff : +{get: ?[tau].S} whenever P checks at
    # ~eff : S with x added; same shape for put
    for s_text, build in [
        ("end", lambda cont: embedding.get_op(EFF, "x", cont)),
        ("![nat]. end", lambda cont: embedding.get_op(EFF, "x", cont)),
    ]:
        s = parse_session_type(s_text)
        cont = NIL if s is END or s == END else SendVal(EFF.flip(), NatLit(0), NIL)
        proc = build(cont)
        delta = {EFF.flip(): Select((("get", Recv(NAT, s)),))}
        session_check(ProcEnv(), delta, proc)
    putp = embedding.put_op(EFF, NatLit(3), NIL)
    session_check(ProcEnv(), {EFF.flip(): Select((("put", Send(NAT, END)),))}, putp)


def test_value_payload_mismatch():
    p = SendVal(Endpoint("c"), NatLit(0), NIL)
    with pytest.raises(SessionTypeError) as exc:
        session_check(ProcEnv(), {Endpoint("c"): Send(ValueType.UNIT, END)}, p)
    assert exc.value.kind == "payload"


def test_label_not_offered():
    p = parse_process("c <+ flush")
    with pytest.raises(SessionTypeError) as exc:
        session_check(ProcEnv(), {Endpoint("c"): Select((("get", END),))}, p)
    assert exc.value.kind == "label"


def test_select_width_requires_restriction():
    # a free endpoint must select from a singleton type
    p = parse_process("c <+ get")
    wide = Select((("get", END), ("put", END)))
    with pytest.raises(SessionTypeError):
        session_check(ProcEnv(), {Endpoint("c"): wide}, p)


def test_restriction_synthesis_value_chain():
    p = parse_process("new c. (c!<zero> | ~c?(y))")
    session_check(ProcEnv(), {}, p)


def test_restriction_synthesis_on_long_chains_at_default_recursion_limit():
    # the synthesized type of c is 1,500 sends deep
    sends = ". ".join(f"c!<{i}>" for i in range(1500))
    receives = ". ".join(f"~c?(y{i})" for i in range(1500))
    p = parse_process(f"new c. ({sends} | {receives})")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        session_check(ProcEnv(), {}, p)
    finally:
        sys.setrecursionlimit(limit)


def test_restriction_duality_failure():
    p = parse_process("new c. (c!<zero> | ~c!<zero>)")
    with pytest.raises(SessionTypeError):
        session_check(ProcEnv(), {}, p)


def test_restriction_with_select_width_against_store():
    # a stop-terminated client composes with the recursive store under one
    # restriction: duality modulo select widening
    client = embedding.get_op(Endpoint("c"), "x", parse_process("~c <+ stop"))
    agent = embedding.store_agent(NatLit(0), Endpoint("c"), NAT)
    from effsess.process import New

    system = New("c", None, Par(agent, client))
    session_check(ProcEnv(), {}, system)


def test_restriction_mismatched_client_rejected():
    from effsess.process import New, Select as PSelect

    bad_client = PSelect(Endpoint("c", True), "flush", NIL)
    agent = embedding.store_agent(NatLit(0), Endpoint("c"), NAT)
    with pytest.raises(SessionTypeError):
        session_check(ProcEnv(), {}, New("c", None, Par(agent, bad_client)))


def test_unannotated_delegation_needs_annotation():
    # the delegated endpoint is itself received, so neither side's type is
    # synthesizable without an annotation
    p = parse_process("new c. (~d?(e). c!<e> | ~c?(f). f?(x))")
    delta = {Endpoint("d", True): Recv(Recv(NAT, END), END)}
    with pytest.raises(SessionTypeError) as exc:
        session_check(ProcEnv(), delta, p)
    assert exc.value.kind == "annotation"


def test_def_requires_annotations():
    p = parse_process("def X(x; c) = c!<x> in X<0; d>")
    with pytest.raises(SessionTypeError) as exc:
        session_check(ProcEnv(), {Endpoint("d"): Send(NAT, END)}, p)
    assert exc.value.kind == "annotation"


def test_call_leftovers_must_be_end():
    p = parse_process("def X(; c: end) = 0 in X<; d>")
    session_check(ProcEnv(), {Endpoint("d"): END, Endpoint("e"): END}, p)
    with pytest.raises(SessionTypeError):
        session_check(
            ProcEnv(), {Endpoint("d"): END, Endpoint("e"): Send(NAT, END)}, p
        )


def test_shared_channel_accept_request():
    env = ProcEnv(shared={"k": embedding.shared_store_type(NAT)})
    agent = embedding.shared_store_agent(NatLit(0), "k", NAT)
    session_check(env, {}, agent)
    client = embedding.shared_get("k", "x", NIL)
    session_check(env, {}, client)
    put_client = embedding.shared_put("k", NatLit(2), NIL)
    session_check(env, {}, put_client)
    session_check(env, {}, Par(agent, Par(client, put_client)))


def test_shared_channel_unknown():
    client = embedding.shared_get("nope", "x", NIL)
    with pytest.raises(SessionTypeError) as exc:
        session_check(ProcEnv(), {}, client)
    assert exc.value.kind == "unbound"


def test_pair_payload_rejected():
    p = parse_process("c!<(zero, zero)>")
    with pytest.raises(SessionTypeError) as exc:
        session_check(ProcEnv(), {Endpoint("c"): Send(NAT, END)}, p)
    assert exc.value.kind == "payload"


def test_recursive_def_checks_via_mu_unfolding():
    # the call site types its channel by unfolding the signature's mu
    agent = embedding.store_agent(NatLit(0), EFF, NAT)
    unfolded = Branch(
        (
            ("get", Send(NAT, STORE_TYPE)),
            ("put", Recv(NAT, STORE_TYPE)),
            ("stop", END),
        )
    )
    session_check(ProcEnv(), {EFF: unfolded}, agent)


# ------------------------------------------------------------- shadowing

C, B = Endpoint("c"), Endpoint("b")


def _kind(env, delta, p):
    try:
        session_check(env, delta, p)
    except SessionTypeError as exc:
        return exc.kind
    return None


def test_channel_receive_binder_does_not_drop_an_outer_obligation():
    # the binder b shadows the outer b, which never sends its nat
    p = RecvChan(C, "b", NIL)
    delta = {C: Recv(END, END), B: Send(NAT, END)}
    assert _kind(ProcEnv(), delta, p) == "leftover"
    assert _kind(ProcEnv(), {C: Recv(END, END), B: END}, p) is None


def test_received_channel_gets_no_select_width_from_an_outer_restriction():
    # the received endpoint must select from its multi-label type exactly,
    # whatever its binder is called
    wide = Select((("a", END), ("b", END)))
    for binder in ("z", "c"):
        got = Endpoint(binder)
        p = New("c", Recv(wide, END), Par(RecvChan(C, binder, PSelect(got, "a", NIL)), SendChan(C.flip(), B, NIL)))
        assert _kind(ProcEnv(), {B: wide}, p) == "label"


def test_new_shadows_an_outer_endpoint():
    inner = New("c", None, Par(SendVal(C, NatLit(1), NIL), RecvVal(C.flip(), "x", NIL)))
    delta = {C: Send(NAT, END)}
    assert _kind(ProcEnv(), delta, Par(inner, SendVal(C, NatLit(0), NIL))) is None
    assert _kind(ProcEnv(), delta, SendVal(C, NatLit(0), inner)) is None
    assert _kind(ProcEnv(), delta, inner) == "leftover"
    reused = New("c", Send(NAT, END), Par(SendVal(C, NatLit(1), NIL), RecvVal(C.flip(), "x", SendVal(C, NatLit(0), NIL))))
    assert _kind(ProcEnv(), delta, reused) == "linearity"


def test_accept_shadows_an_outer_endpoint():
    env = ProcEnv(shared={"k": embedding.shared_store_type(NAT)})
    agent = embedding.shared_store_agent(NatLit(0), "k", NAT)
    delta = {C: Send(NAT, END)}
    assert _kind(env, delta, Par(agent, SendVal(C, NatLit(0), NIL))) is None
    assert _kind(env, delta, SendVal(C, NatLit(0), agent)) is None
    assert _kind(env, delta, agent) == "leftover"


# ------------------------------------------------------------ get/put chains

def _chain(n: int):
    lets = " ".join(f"let x{i} = get in let u{i} = put (suc x{i}) in" for i in range(n))
    return embedding.embed_top(parse_program(f"store nat init 0\n{lets} get"))


def test_well_typed_chain_computes_no_free_names(monkeypatch):
    from effsess import process

    result = _chain(40)
    calls = []
    real = process.free_names
    monkeypatch.setattr(process, "free_names", lambda p: calls.append(p) or real(p))
    session_check(ProcEnv(), result.delta, result.process)
    assert len(calls) == 0


def test_chain_checks_at_default_recursion_limit():
    # the default limit of 1,000 frames, counted from this test's frame; the
    # chain nests about a thousand parallel compositions
    result = _chain(1000)
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 1000)
    try:
        session_check(ProcEnv(), result.delta, result.process)
    finally:
        sys.setrecursionlimit(limit)


def test_chain_compares_its_annotations_in_linear_time(monkeypatch):
    # consecutive annotations share their tail, so each delegation compares
    # a type with itself, which the relation walker answers at once
    from effsess import sessions

    calls = []
    real = sessions.is_value_payload
    monkeypatch.setattr(sessions, "is_value_payload", lambda payload: calls.append(None) or real(payload))
    counts = []
    for n in (100, 200):
        result = _chain(n)
        calls.clear()
        session_check(ProcEnv(), result.delta, result.process)
        counts.append(len(calls))
    assert counts[1] <= 2.2 * counts[0]


def _sucs(v, n):
    for _ in range(n):
        v = SucOf(v)
    return v


def test_deep_suc_payload_at_default_recursion_limit():
    # c!<suc(...suc(v)...)> with 1,500 sucs: well typed on 0, a payload error on unit
    c = Endpoint("c")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        session_check(ProcEnv(), {c: Send(NAT, END)}, SendVal(c, _sucs(NatLit(0), 1500), NIL))
        with pytest.raises(SessionTypeError) as exc:
            session_check(ProcEnv(), {c: Send(NAT, END)}, SendVal(c, _sucs(UnitLit(), 1500), NIL))
    finally:
        sys.setrecursionlimit(limit)
    assert exc.value.kind == "payload"
    assert str(exc.value) == "suc applied to a unit value"


def test_deep_recursive_type_checks_at_default_recursion_limit():
    # mu a. ![nat]. ... a with 1,500 sends: after them c owes the mu again
    c = Endpoint("c")
    t = parse_session_type("mu a. " + "![nat]. " * 1500 + "a")
    p = NIL
    for i in range(1500):
        p = SendVal(c, NatLit(i), p)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(SessionTypeError) as exc:
            session_check(ProcEnv(), {c: t}, p)
    finally:
        sys.setrecursionlimit(limit)
    assert exc.value.kind == "leftover"
    assert str(exc.value).startswith("endpoint c still owes mu a. ![nat]. ")


@pytest.mark.parametrize(
    "text, plain",
    [
        # a branch on c gives c a branch type, an unused arm `end`
        ("new c. (c >> {l: c!<0>, m: 0} | ~c <+ l. ~c?(y))", "&{l: ![nat]. end, m: end}"),
        # a branch elsewhere whose arms use c alike, or not at all
        ("new c. (d >> {l: c!<0>, m: c!<1>} | ~c?(y))", "![nat]. end"),
        ("new c. (d >> {l: 0, m: 0} | c!<0> | ~c?(y))", "![nat]. end"),
    ],
)
def test_restriction_synthesis_through_a_branch(text, plain):
    from effsess.session_check import _synthesize
    from effsess.sessions import format_session_type

    p = parse_process(text, known_channels={"d"})
    eps = (Endpoint("c"), Endpoint("c", True))
    types = _synthesize({}, {}, {}, eps, p.body)
    assert [format_session_type(s) for s in types] == [plain, format_session_type(dual(parse_session_type(plain)))]
    delta = {Endpoint("d"): parse_session_type("&{l: end, m: end}")} if "d >>" in text else {}
    session_check(ProcEnv(), delta, p)


@pytest.mark.parametrize("arm", ["0", "c <+ l"])
def test_restriction_synthesis_through_disagreeing_arms_needs_an_annotation(arm):
    p = parse_process(f"new c. (d >> {{l: c!<0>, m: {arm}}} | ~c?(y))", known_channels={"d"})
    with pytest.raises(SessionTypeError) as exc:
        session_check(ProcEnv(), {Endpoint("d"): parse_session_type("&{l: end, m: end}")}, p)
    assert exc.value.kind == "annotation"
