import hashlib
import random
from itertools import product

import pytest

from effsess import cli, embedding, sessions
from effsess.effects import Get, IDENTITY, Put
from effsess.infer import EffectTypeError, infer
from effsess.process import (
    Endpoint,
    NatLit,
    New,
    NIL,
    Par,
    RecvChan,
    RecvVal,
    SendChan,
    SendVal,
    VarRef,
    free_endpoints,
    parse_process,
)
from effsess.sessions import Branch, END, Recv, Select, Send, format_session_type, type_equal
from effsess.session_check import ProcEnv, SessionTypeError, session_check
from effsess.terms import ValueType, parse_program, parse_term

from oracle import corpus, gen_term

NAT, UNIT = ValueType.NAT, ValueType.UNIT
TOKENS = (Get(NAT), Put(NAT), Get(UNIT), Put(UNIT))


def strip_annotations(p):
    if isinstance(p, New):
        return New(p.name, None, strip_annotations(p.body))
    if isinstance(p, Par):
        return Par(strip_annotations(p.left), strip_annotations(p.right))
    if isinstance(p, (RecvVal, RecvChan)):
        return type(p)(p.chan, p.binder, strip_annotations(p.cont))
    if isinstance(p, SendVal):
        return SendVal(p.chan, p.value, strip_annotations(p.cont))
    if isinstance(p, SendChan):
        return SendChan(p.chan, p.sent, strip_annotations(p.cont))
    from effsess.process import Branch as PBranch, Select as PSelect

    if isinstance(p, PBranch):
        return PBranch(p.chan, tuple((l, strip_annotations(c)) for l, c in p.branches))
    if isinstance(p, PSelect):
        return PSelect(p.chan, p.label, strip_annotations(p.cont))
    return p


# ------------------------------------------------------ effect <-> session

def test_effect_to_session_examples():
    assert embedding.effect_to_session(IDENTITY) == END
    assert embedding.effect_to_session((Get(NAT),)) == Select((("get", Recv(NAT, END)),))
    two = embedding.effect_to_session((Get(NAT), Put(NAT)))
    assert format_session_type(two) == "+{get: ?[nat]. +{put: ![nat]. end}}"


def test_session_to_effect_examples():
    assert embedding.session_to_effect(END) == IDENTITY
    assert embedding.session_to_effect(Select((("put", Send(UNIT, END)),))) == (Put(UNIT),)
    with pytest.raises(embedding.NotInImage):
        embedding.session_to_effect(Branch((("get", Send(NAT, END)),)))
    with pytest.raises(embedding.NotInImage):
        embedding.session_to_effect(Select((("get", Recv(NAT, END)), ("put", Send(NAT, END)))))


def all_annotations(max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [f + (t,) for f in frontier for t in TOKENS]
        out.extend(frontier)
    return out


def test_bijection_roundtrip_exhaustive():
    from effsess.effects import well_causal

    for store in (NAT, UNIT):
        for f in all_annotations(4):
            if well_causal(f, store):
                assert embedding.session_to_effect(embedding.effect_to_session(f)) == f


def test_monoid_homomorphism_shape():
    for f in all_annotations(3):
        for g in all_annotations(2):
            lhs = embedding.effect_to_session(f + g)
            rhs = embedding.effect_to_session(f, tail=embedding.effect_to_session(g))
            assert lhs == rhs


# -------------------------------------------------------------- pure layer

def test_embed_pure_var():
    assert embedding.embed_pure(parse_term("x"), Endpoint("r")) == SendVal(
        Endpoint("r"), VarRef("x"), NIL
    )


def test_embed_pure_zero():
    assert embedding.embed_pure(parse_term("zero"), Endpoint("r")) == SendVal(
        Endpoint("r"), NatLit(0), NIL
    )


def test_embed_pure_let_shape():
    p = embedding.embed_pure(parse_term("let x = zero in suc x"), Endpoint("r"))
    expected = parse_process("new q. (q!<zero> | ~q?(x). new q1. (q1!<x> | ~q1?(x1). r!<suc x1>))")
    assert strip_annotations(p) == expected


def test_embed_pure_rejects_effects():
    with pytest.raises(embedding.EmbeddingError):
        embedding.embed_pure(parse_term("get"), Endpoint("r"))
    with pytest.raises(embedding.EmbeddingError):
        embedding.embed_pure(parse_term("put zero"), Endpoint("r"))


# ------------------------------------------------------- intermediate layer

EI, EO, R = Endpoint("ei"), Endpoint("eo"), Endpoint("r")


def test_intermediate_var_shape():
    p = embedding.embed_intermediate(parse_term("x"), EI, EO, R, {"x": NAT})
    assert p == RecvChan(EI, "c", SendVal(R, VarRef("x"), SendChan(EO.flip(), Endpoint("c"), NIL)))


def test_intermediate_get_shape():
    p = embedding.embed_intermediate(parse_term("get"), EI, EO, R)
    expected = parse_process("ei?(c). c <+ get. c?(x). r!<x>. ~eo!<c>")
    assert strip_annotations(p) == expected


def test_intermediate_put_shape():
    p = embedding.embed_intermediate(parse_term("put zero"), EI, EO, R)
    expected = parse_process("new q. (q!<zero> | ei?(c). ~q?(x). c <+ put. c!<x>. r!<unit>. ~eo!<c>)")
    assert strip_annotations(p) == expected


def test_intermediate_let_introduces_ea():
    p = embedding.embed_intermediate(parse_term("let x = get in put (suc x)"), EI, EO, R)
    # new q. new ea. (lhs | ~q?(x). rhs)
    assert isinstance(p, New) and isinstance(p.body, New)
    assert p.name == "q" and p.body.name == "ea"


def test_intermediate_requires_welltyped():
    with pytest.raises(EffectTypeError):
        embedding.embed_intermediate(parse_term("suc get"), EI, EO, R)
    with pytest.raises(EffectTypeError):
        embedding.embed_intermediate(parse_term("put get"), EI, EO, R)


# --------------------------------------------------------------- top level

def test_top_shape_matches_harness():
    res = embedding.embed_term_top(parse_term("zero"))
    p = res.process
    assert isinstance(p, New) and p.name == "ei"
    assert isinstance(p.body, New) and p.body.name == "eo"
    body = p.body.body
    assert isinstance(body, Par)
    harness = body.right
    assert harness == SendChan(
        Endpoint("ei", True), Endpoint("eff"), RecvChan(Endpoint("eo"), "c1", NIL)
    )


def test_top_delta_is_result_and_effect():
    t = parse_term("let x = get in put (suc x)")
    res = embedding.embed_term_top(t)
    assert res.delta[Endpoint("r")] == Send(UNIT, END)
    assert res.delta[Endpoint("eff")] == embedding.effect_to_session(res.source_effect)
    assert res.source_effect == (Get(NAT), Put(NAT))


def test_top_checks_under_expected_delta():
    t = parse_term("let x = get in put (suc x)")
    res = embedding.embed_term_top(t)
    session_check(ProcEnv(), res.delta, res.process)


def test_type_preservation_generated_corpus():
    rng = random.Random(42)
    for _ in range(40):
        t = gen_term(rng, {}, 5)
        res = embedding.embed_term_top(t)
        session_check(ProcEnv(vars=dict(res.gamma)), res.delta, res.process)


def test_send_stop_harness_extends_delta():
    res = embedding.embed_term_top(parse_term("get"), send_stop=True)
    eff_type = res.delta[Endpoint("eff")]
    assert format_session_type(eff_type) == "+{get: ?[nat]. +{stop: end}}"
    session_check(ProcEnv(), res.delta, res.process)


# ---------------------------------------------------------------- variants

def test_naive_parallel_is_rejected_with_linearity_on_eff():
    m = parse_term("let x = get in put (suc (suc x))")
    n = parse_term("let x = get in put (suc x)")
    naive = embedding.naive_parallel_encode(m, n)
    delta = {
        Endpoint("eff"): embedding.effect_to_session(infer({}, NAT, m)[1]),
        Endpoint("r"): Send(NAT, END),
    }
    with pytest.raises(SessionTypeError) as exc:
        session_check(ProcEnv(), delta, naive)
    assert exc.value.kind == "linearity"
    assert "eff" in str(exc.value)


def test_naive_parallel_rejected_even_with_pure_component():
    m = parse_term("zero")
    n = parse_term("let x = get in put x")
    naive = embedding.naive_parallel_encode(m, n)
    with pytest.raises(SessionTypeError) as exc:
        session_check(
            ProcEnv(),
            {Endpoint("eff"): embedding.effect_to_session(infer({}, NAT, n)[1])},
            naive,
        )
    assert exc.value.kind == "linearity"


def test_optimizer_emits_parallel_siblings():
    t = parse_term("let x = zero in let y = get in put x")
    p = embedding.optimize_commuting(t, EI, EO, R)
    # new q. new s. new ea. (pure M | enc N | collector)
    assert isinstance(p, New) and p.name == "q"
    inner = p.body.body.body
    assert isinstance(inner, Par)
    parts = []
    stack = [inner]
    while stack:
        node = stack.pop()
        if isinstance(node, Par):
            stack.extend((node.right, node.left))
        else:
            parts.append(node)
    assert len(parts) == 3
    assert parts[0] == SendVal(Endpoint("q"), NatLit(0), NIL)  # [[M]]_q sibling
    assert isinstance(parts[2], RecvVal) and parts[2].chan == Endpoint("q", True)


def test_optimizer_mirror_orientation():
    t = parse_term("let y = get in let x = zero in put x")
    p = embedding.optimize_commuting(t, EI, EO, R)
    assert isinstance(p, New) and p.name == "q"


def test_optimizer_falls_back_when_impure():
    t = parse_term("let x = get in let y = get in put y")
    p = embedding.optimize_commuting(t, EI, EO, R)
    q = embedding.embed_intermediate(t, EI, EO, R)
    assert strip_annotations(p) == strip_annotations(q)


def test_store_agent_shape():
    agent = embedding.store_agent(NatLit(0), Endpoint("eff"), NAT)
    text = (
        "def Store(x: nat; s: mu a. &{get: ![nat]. a, put: ?[nat]. a, stop: end}) = "
        "s >> {get: s!<x>. Store<x; s>, put: s?(y). Store<y; s>, stop: 0} in Store<0; eff>"
    )
    assert agent == parse_process(text)


def test_shared_store_agent_checks():
    env = ProcEnv(shared={"k": embedding.shared_store_type(NAT)})
    agent = embedding.shared_store_agent(NatLit(0), "k", NAT)
    session_check(env, {}, agent)


# ------------------------------------------------------- one-pass embedding

def _chain(n):
    lets = " ".join(f"let x{i} = get in let u{i} = put (suc x{i}) in" for i in range(n))
    return parse_program(f"store nat init 0\n{lets} get")


def test_chain_annotations_share_their_tail(monkeypatch):
    # each let's ea annotation is the next one's with a select consed on,
    # so the selects built grow linearly with the chain
    calls = []
    norm = sessions._norm_choices

    def counting(choices):
        calls.append(None)
        return norm(choices)

    monkeypatch.setattr(sessions, "_norm_choices", counting)
    counts = []
    for n in (100, 200):
        calls.clear()
        embedding.embed_top(_chain(n))
        counts.append(len(calls))
    assert counts[1] <= 2.2 * counts[0]


# sha256 of every corpus translation, by (optimize, send_stop); frozen
# before the embedding read let chains in one pass
TRANSLATION_DIGESTS = {
    (False, False): "8f00893426dbfa0d5cad693fc45dc08ef187e6a36b54a22d5bb6a48362a4b0c9",
    (False, True): "3c9583d61999dbfbe310ee1c61266d20ad9873b699efb421f5d9974084e4d4a1",
    (True, False): "b30a3074f15323f43e1f1b81d14e4825c69c27cd37adec56325c1419869b0c1d",
    (True, True): "166783710796a5b71f395559befe6d8ab5a13004669e04303a18ed8c5b4141b7",
}


@pytest.mark.parametrize("optimize, send_stop", sorted(TRANSLATION_DIGESTS))
def test_corpus_translations_are_frozen(optimize, send_stop):
    digest = hashlib.sha256()
    for seed in range(10):
        for prog in corpus(seed, 12, 6):
            result = embedding.embed_top(prog, optimize=optimize, send_stop=send_stop)
            digest.update(cli.render_translation(result).encode())
    assert digest.hexdigest() == TRANSLATION_DIGESTS[optimize, send_stop]
