import random
import sys

import pytest

from effsess.effects import STATE_ALGEBRA
from effsess.equations import RewriteError, apply_equation, subterm_at
from effsess.infer import infer
from effsess.terms import Const, Let, OpApp, ValueType, Var, format_term, free_vars, parse_term

from oracle import gen_term

NAT = ValueType.NAT


def test_unitR_forward():
    t = parse_term("let x = get in x")
    assert apply_equation(t, "unitR", 0, {}, NAT) == Const("get")


def test_unitR_shape_guard():
    with pytest.raises(RewriteError):
        apply_equation(parse_term("let x = get in put x"), "unitR", 0, {}, NAT)


def test_unitL_substitutes():
    t = parse_term("let y = x in put y")
    out = apply_equation(t, "unitL", 0, {"x": NAT}, NAT)
    assert out == OpApp("put", Var("x"))


def test_unitL_needs_bound_variable_shape():
    with pytest.raises(RewriteError):
        apply_equation(parse_term("let y = zero in y"), "unitL", 0, {}, NAT)


def test_comm_rejects_impure_first_binding():
    t = parse_term("let x = get in let y = get in put y")
    with pytest.raises(RewriteError) as exc:
        apply_equation(t, "comm", 0, {}, NAT)
    assert "pure" in str(exc.value)


def test_comm_swaps_pure_binding():
    t = parse_term("let x = zero in let y = get in put x")
    out = apply_equation(t, "comm", 0, {}, NAT)
    assert out == parse_term("let y = get in let x = zero in put x")


def test_comm_free_variable_side_conditions():
    t = parse_term("let x = zero in let y = suc x in put y")
    with pytest.raises(RewriteError):
        apply_equation(t, "comm", 0, {}, NAT)


def test_assoc_roundtrip():
    t = parse_term("let y = (let x = get in put (suc x)) in y")
    out = apply_equation(t, "assoc", 0, {}, NAT)
    assert out == parse_term("let x = get in (let y = put (suc x) in y)")
    assert apply_equation(out, "assoc_inv", 0, {}, NAT) == t


def test_assoc_capture_side_condition():
    # x free in the outer body blocks reassociation
    t = Let("y", Let("x", Const("zero"), Var("x")), Var("x"))
    with pytest.raises(RewriteError):
        apply_equation(t, "assoc", 0, {"x": NAT}, NAT)


def test_rewrite_at_inner_path():
    t = parse_term("let a = zero in let x = get in x")
    # path 2 addresses the inner let (root=0, bound zero=1, body=2)
    assert subterm_at(t, 2) == parse_term("let x = get in x")
    out = apply_equation(t, "unitR", 2, {}, NAT)
    assert out == parse_term("let a = zero in get")


def test_unitR_inverse_introduces_fresh_binder():
    t = parse_term("put x")
    out = apply_equation(t, "unitR_inv", 0, {"x": NAT}, NAT)
    assert isinstance(out, Let)
    assert out.body == Var(out.name)
    assert out.name not in free_vars(t)


REWRITE_CASES = [
    ("unitR", "let x = get in x", {}),
    ("unitR", "let x = put zero in x", {}),
    ("unitL", "let y = x in put y", {"x": NAT}),
    ("unitL", "let y = x in y", {"x": NAT}),
    ("comm", "let x = zero in let y = get in put x", {}),
    ("comm", "let a = suc zero in let b = get in put a", {}),
    ("assoc", "let y = (let x = get in put (suc x)) in y", {}),
    ("assoc", "let b = (let a = zero in put a) in get", {}),
]


@pytest.mark.parametrize("rule,text,env", REWRITE_CASES)
def test_rewrites_preserve_typing(rule, text, env):
    t = parse_term(text)
    before = infer(env, NAT, t)
    out = apply_equation(t, rule, 0, env, NAT)
    after = infer(env, NAT, out)
    assert after[0] is before[0]
    assert STATE_ALGEBRA.equal(after[1], before[1])
    assert free_vars(out) <= free_vars(t)


def test_unitr_roundtrip_preserves_typing_on_generated_terms():
    rng = random.Random(13)
    for _ in range(40):
        t = gen_term(rng, {}, 4)
        before = infer({}, NAT, t)
        wrapped = apply_equation(t, "unitR_inv", 0, {}, NAT)
        assert infer({}, NAT, wrapped) == before
        assert apply_equation(wrapped, "unitR", 0, {}, NAT) == t


def _preorder(t):
    """Every node of ``t`` in preorder, found without `equations`."""
    if isinstance(t, Let):
        return [t, *_preorder(t.bound), *_preorder(t.body)]
    if isinstance(t, OpApp):
        return [t, *_preorder(t.arg)]
    return [t]


def test_subterm_at_is_the_preorder_node():
    rng = random.Random(29)
    for _ in range(60):
        t = gen_term(rng, {}, 5)
        nodes = _preorder(t)
        assert all(subterm_at(t, i) is node for i, node in enumerate(nodes))
        for past in (len(nodes), len(nodes) + 7, -1):
            with pytest.raises(RewriteError) as exc:
                subterm_at(t, past)
            assert exc.value.kind == "path"
            with pytest.raises(RewriteError) as exc:
                apply_equation(t, "unitR_inv", past, {}, NAT)
            assert exc.value.kind == "path"


def test_rewrite_deep_in_a_long_chain_at_default_recursion_limit():
    n = 2000
    text = " ".join(f"let x{i} = get in" for i in range(n))
    t = parse_term(f"{text} x{n - 1}")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        # the last let stands at 2 (n - 1): each let is followed by its bound get
        out = format_term(apply_equation(t, "unitR", 2 * (n - 1), {}, NAT))
        with pytest.raises(RewriteError) as exc:
            subterm_at(t, 2 * n + 1)
    finally:
        sys.setrecursionlimit(limit)
    assert out == text.rsplit(" let ", 1)[0] + " get"
    assert exc.value.kind == "path"


def test_unitL_substitutes_along_a_long_chain_at_default_recursion_limit():
    n = 2000
    text = " ".join(f"let v{i} = y in" for i in range(n))
    t = parse_term(f"let y = x in {text} y")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out = format_term(apply_equation(t, "unitL", 0, {"x": NAT}, NAT))
    finally:
        sys.setrecursionlimit(limit)
    assert out == " ".join(f"let v{i} = x in" for i in range(n)) + " x"


def test_unitL_renames_a_capturing_binder_and_stops_at_a_shadowing_one():
    # the binder x would capture the x that y becomes; the inner y shadows
    t = parse_term("let y = x in let x = y in let w = put y in let y = zero in suc (let u = y in x)")
    out = apply_equation(t, "unitL", 0, {"x": NAT}, NAT)
    assert format_term(out) == "let x1 = x in let w = put x in let y = zero in suc (let u = y in x1)"
