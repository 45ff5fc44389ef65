import sys

import pytest

from effsess.effects import Get, Put
from effsess.infer import infer
from effsess.terms import (
    Const,
    Let,
    OpApp,
    ParseError,
    Var,
    ValueType,
    all_names,
    format_term,
    free_vars,
    parse_program,
    parse_term,
    substitute,
)


def test_parse_let_get_put():
    t = parse_term("let x = get in put (suc x)")
    assert t == Let("x", Const("get"), OpApp("put", OpApp("suc", Var("x"))))


def test_parse_zero():
    assert parse_term("zero") == Const("zero")


def test_parse_bare_put_is_error():
    with pytest.raises(ParseError):
        parse_term("put")


def test_parse_nested_ops_without_parens():
    assert parse_term("put suc suc zero") == OpApp("put", OpApp("suc", OpApp("suc", Const("zero"))))


def test_let_is_right_nested():
    t = parse_term("let a = zero in let b = a in b")
    assert isinstance(t, Let) and isinstance(t.body, Let)


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_term("let x = in x")
    assert exc.value.line == 1


def test_comments_ignored():
    t = parse_term("-- a comment\nzero -- trailing")
    assert t == Const("zero")


def test_free_vars():
    assert free_vars(Var("x")) == {"x"}
    assert free_vars(Let("x", Const("get"), Var("x"))) == frozenset()
    assert free_vars(OpApp("put", Var("y"))) == {"y"}
    assert free_vars(Let("x", Var("x"), Var("x"))) == {"x"}


def test_substitute_capture_avoiding():
    # (let y = zero in x)[y/x] must not capture
    t = Let("y", Const("zero"), Var("x"))
    out = substitute(t, "x", Var("y"))
    assert isinstance(out, Let)
    assert out.name != "y"
    assert out.body == Var("y")


def test_substitute_shadowed():
    t = Let("x", Var("x"), Var("x"))
    out = substitute(t, "x", Const("zero"))
    assert out == Let("x", Const("zero"), Var("x"))
    # a `let` under the shadowing binder is kept whole
    t = parse_term("let x = x in let y = x in suc (let z = y in x)")
    out = substitute(t, "x", Const("zero"))
    assert format_term(out) == "let x = zero in let y = x in suc (let z = y in x)"
    assert out.body is t.body


def test_parse_program_header():
    prog = parse_program("store nat init 3\nsuc zero")
    assert prog.store_type is ValueType.NAT
    assert prog.init == 3
    prog2 = parse_program("store unit init unit\nunit")
    assert prog2.store_type is ValueType.UNIT
    assert prog2.init is None


def test_parse_program_bad_header():
    with pytest.raises(ParseError):
        parse_program("store bool init 0\nzero")
    with pytest.raises(ParseError):
        parse_program("store nat init unit\nzero")


def test_long_let_chain_at_default_recursion_limit():
    # 2,000 lets: parsing, inference and printing follow let bodies in a loop
    text = " ".join(f"let x{i} = get in let u{i} = put suc x{i} in" for i in range(1000)) + " get"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        t = parse_term(text)
        typing = infer({}, ValueType.NAT, t)
        printed = format_term(t)
        names = (free_vars(t), len(all_names(t)))
    finally:
        sys.setrecursionlimit(limit)
    # compared as text: term == still recurses on depth
    assert printed == text
    assert typing == (ValueType.NAT, (Get(ValueType.NAT), Put(ValueType.NAT)) * 1000 + (Get(ValueType.NAT),))
    assert names == (frozenset(), 2000)
