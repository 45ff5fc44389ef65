"""Scoping regressions: substitution under every binder, private shared
channels, and normalization of deep processes."""

import sys

from effsess import embedding
from effsess.normalize import InternTable, normalize
from effsess.process import (
    Accept,
    Call,
    Def,
    Endpoint,
    NatLit,
    New,
    NIL,
    Par,
    SendVal,
    UNIT_VALUE,
    VarRef,
    format_process,
    par,
    substitute,
)
from effsess.semantics import run
from effsess.terms import ValueType, parse_program

from oracle import alpha_key

NAT = ValueType.NAT


def test_value_substitution_renames_a_capturing_restriction():
    p = New("y", None, SendVal(Endpoint("a"), VarRef("x"), NIL))
    out = substitute(p, {"x": VarRef("y")})
    assert isinstance(out, New) and out.name != "y"
    assert out.body == SendVal(Endpoint("a"), VarRef("y"), NIL)


def test_value_substitution_renames_a_capturing_session_binder():
    p = Accept("k", "y", SendVal(Endpoint("y"), VarRef("x"), NIL))
    out = substitute(p, {"x": VarRef("y")})
    assert isinstance(out, Accept) and out.binder != "y"
    assert out.cont == SendVal(Endpoint(out.binder), VarRef("y"), NIL)


def test_value_substitution_renames_a_capturing_parameter():
    body = SendVal(Endpoint("a"), VarRef("x"), Call("D", (VarRef("y"), VarRef("y1")), ()))
    p = Def("D", (("y", None), ("y1", None)), (), body, Call("D", (VarRef("x"), NatLit(0)), ()))
    out = substitute(p, {"x": VarRef("y")})
    param = out.val_params[0][0]
    assert param not in ("y", "y1") and out.val_params[1][0] == "y1"
    assert out.body == SendVal(Endpoint("a"), VarRef("y"), Call("D", (VarRef(param), VarRef("y1")), ()))
    assert out.scope == Call("D", (VarRef("y"), NatLit(0)), ())


def test_renamed_binder_is_not_captured_by_a_nested_binder():
    # renaming the outer y to avoid the incoming y must not hand its
    # occurrences to a nested binder spelled like the new name
    inner = New("y1", None, SendVal(Endpoint("y"), UNIT_VALUE, NIL))
    p = New("y", None, Par(SendVal(Endpoint("a"), VarRef("x"), NIL), inner))
    out = substitute(p, {"x": Endpoint("y")})
    renamed_inner = New("w", None, SendVal(Endpoint("z"), UNIT_VALUE, NIL))
    expected = New("z", None, Par(SendVal(Endpoint("a"), VarRef("y"), NIL), renamed_inner))
    table = InternTable()
    assert alpha_key(out, table) == alpha_key(expected, table)


def test_renamed_definition_is_not_captured_by_a_nested_definition():
    # X := Y renames the outer def Y; the nested def Y1 must not capture it
    p = Def("Y", (), (), NIL, Par(Call("X", (), ()), Def("Y1", (), (), NIL, Call("Y", (), ()))))
    out = substitute(p, definitions={"X": Call("Y", (), ())})
    nested = out.scope.right
    assert out.name not in ("X", "Y") and out.scope.left == Call("Y", (), ())
    assert nested.name != out.name and nested.scope == Call(out.name, (), ())


def _private_store_world(init: int):
    """new k. (shared store holding init | one client that reads it onto r)"""
    store = embedding.shared_store_agent(NatLit(init), "k", NAT)
    client = embedding.shared_get("k", "x", SendVal(Endpoint("r"), VarRef("x"), NIL))
    return New("k", None, par(store, client))


def test_private_shared_stores_do_not_merge():
    outcomes = run(par(_private_store_world(0), _private_store_world(5)), "all")
    assert {o.emitted for o in outcomes} == {(NatLit(0), NatLit(5)), (NatLit(5), NatLit(0))}


def _chain_system(n: int):
    lets = " ".join(f"let x{i} = get in let u{i} = put (suc x{i}) in" for i in range(n))
    prog = parse_program(f"store nat init 0\n{lets} get")
    result = embedding.embed_top(prog)
    return embedding.compose_with_store(result, embedding.initial_store_value(prog), prog.store_type)


def test_normalize_deep_chain_at_default_recursion_limit():
    system = _chain_system(30)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        normal = normalize(system)
        again = normalize(normal)
    finally:
        sys.setrecursionlimit(limit)
    assert format_process(again) == format_process(normal)


def test_normal_form_of_a_long_chain_prints_at_default_recursion_limit():
    system = _chain_system(200)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        printed = format_process(normalize(system))
    finally:
        sys.setrecursionlimit(limit)
    # every get and put of the chain is still there, in one printed form
    assert (printed.count("<+ get"), printed.count("<+ put")) == (201, 200)
