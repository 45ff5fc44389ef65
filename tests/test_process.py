import re
import sys

import pytest

import oracle

from effsess.process import (
    Accept,
    Branch,
    Call,
    Def,
    Endpoint,
    NatLit,
    New,
    NIL,
    Par,
    RecvChan,
    RecvVal,
    Request,
    Select,
    SendChan,
    SendVal,
    SucOf,
    UnitLit,
    VarRef,
    eval_value,
    format_process,
    free_endpoints,
    free_names,
    parse_process,
    resolve_kinds,
    substitute,
)
from effsess.terms import ParseError


def test_parse_new_par_send_recv():
    p = parse_process("new c. (c!<zero>.0 | ~c?(y).0)")
    assert p == New(
        "c",
        None,
        Par(SendVal(Endpoint("c"), NatLit(0), NIL), RecvVal(Endpoint("c", True), "y", NIL)),
    )


def test_parse_select_chain():
    p = parse_process("c <+ get . c?(x). r!<x>.0")
    assert p == Select(
        Endpoint("c"),
        "get",
        RecvVal(Endpoint("c"), "x", SendVal(Endpoint("r"), VarRef("x"), NIL)),
    )


def test_duplicate_branch_labels_rejected():
    with pytest.raises(ParseError):
        parse_process("c >> { get: 0, get: 0 }")


def test_trailing_nil_elision():
    assert parse_process("r!<unit>") == SendVal(Endpoint("r"), UnitLit(), NIL)


def test_channel_binder_resolution():
    p = parse_process("ei?(c). c <+ get. 0")
    assert isinstance(p, RecvChan)
    q = parse_process("ei?(x). r!<x>. 0")
    assert isinstance(q, RecvVal)


def test_payload_kind_from_known_channels():
    p = parse_process("~ei!<eff>. 0", known_channels={"eff"})
    assert p == SendChan(Endpoint("ei", True), Endpoint("eff"), NIL)
    q = parse_process("~ei!<eff>. 0")
    assert q == SendVal(Endpoint("ei", True), VarRef("eff"), NIL)


def test_parse_def_and_call():
    text = "def X(x: nat; c: ![nat]. end) = c!<x> in X<0; ~d>"
    p = parse_process(text)
    assert isinstance(p, Def)
    assert p.val_params[0][0] == "x"
    assert p.scope == Call("X", (NatLit(0),), (Endpoint("d", True),))


def test_parse_accept_request():
    p = parse_process("accept k(c). c >> {get: 0} ")
    assert isinstance(p, Accept)
    q = parse_process("request k(c). c <+ get")
    assert isinstance(q, Request)


def test_format_parse_roundtrip():
    texts = [
        "new c. (c!<zero> | ~c?(y))",
        "c <+ get. c?(x). r!<x>",
        "def X(x: nat; c: mu a. ![nat]. a) = c!<x>. X<x; c> in (X<0; d> | ~d?(z))",
        "accept k(c). c >> {get: c!<0>, put: c?(y), stop: 0}",
        "new a, b. (a!<(zero, suc zero)> | ~a?(p) | b!<1> | ~b?(q))",
    ]
    # and the printed embeddings, alone and composed with their store
    texts += [format_process(p) for pair in oracle.embedded_corpus() for p in pair]
    for text in texts:
        p = parse_process(text)
        assert parse_process(format_process(p)) == p


@pytest.mark.parametrize(
    "link, end",
    [
        ("c!<{i}>. ", "c!<x>"),
        ("c?(x{i}). ", "c?(y)"),
        ("new c{i}. ", "0"),
        ("accept k(c{i}). c{i} <+ l. ", "k!<0>"),
        ("def X{i}(x; d) = 0 in ", "X0<1; e>"),
    ],
)
def test_long_chains_parse_and_print_at_default_recursion_limit(link, end):
    text = "".join(link.format(i=i) for i in range(1500)) + end
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        p = parse_process(text)
        printed = format_process(p)
        # rename the first free name; the chain of restrictions has none
        name = next(iter(free_names(p).terms), "c")
        renamed = format_process(substitute(p, {name: Endpoint("z")}))
    finally:
        sys.setrecursionlimit(limit)
    assert printed == text
    assert renamed == re.sub(rf"\b{name}\b", "z", text)


def test_malformed_parameter_type_is_a_parse_error():
    with pytest.raises(ParseError, match="1:10: unknown value type 'foo'"):
        parse_process("def X(x: foo; ) = 0 in X<0; >")


def test_free_endpoints_polarity():
    p = parse_process("(c!<zero> | ~c?(y))")
    assert free_endpoints(p) == {Endpoint("c"), Endpoint("c", True)}


def test_subst_endpoint_polarity_flip():
    p = parse_process("(c!<zero> | ~c?(y))")
    out = substitute(p, {"c": Endpoint("d", True)})
    assert free_endpoints(out) == {Endpoint("d"), Endpoint("d", True)}
    assert isinstance(out, Par)
    assert out.left.chan == Endpoint("d", True)
    assert out.right.chan == Endpoint("d")


def test_subst_endpoint_respects_binders():
    p = parse_process("c?(d). d!<zero>. 0")
    p = resolve_kinds(p)
    out = substitute(p, {"d": Endpoint("e")})
    assert out == p  # binder shadows


def test_subst_keeps_what_it_does_not_touch():
    p = resolve_kinds(parse_process("new c. (c!<zero>. ~c?(y). a >> {l: 0, m: r!<y>. 0} | b!<zero>. 0)"))
    assert substitute(p, {"z": Endpoint("b")}) is p
    out = substitute(p, {"b": Endpoint("d")})
    assert out is not p and out.body.left is p.body.left


def test_subst_value():
    p = parse_process("r!<suc x>. 0")
    out = substitute(p, {"x": NatLit(1)})
    assert out == SendVal(Endpoint("r"), SucOf(NatLit(1)), NIL)


def test_eval_value():
    assert eval_value(SucOf(SucOf(NatLit(0)))) == NatLit(2)
    sym = SucOf(VarRef("x"))
    assert eval_value(sym) == sym
