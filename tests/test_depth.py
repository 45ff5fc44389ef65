"""Depth safety at the default recursion limit: each value form and each
term slot nested 1,500 deep, through every function that walks values or
terms by `terms.fold`, through the parsers' `suc` loops and through
`infer`, which peels a chain of operations in a loop.  Terms are
mostly compared by their printed text; term `==` and `hash` are checked on
their own."""

import sys

import pytest

from effsess import process as P
from effsess import semantics as M
from effsess.cli import main
from effsess.effects import IDENTITY
from effsess.infer import EffectTypeError, infer
from effsess.normalize import InternTable, normalize
from effsess.terms import Const, Let, OpApp, ValueType, Var, format_term, free_vars, parse_term, substitute

N = 1500
C, D, R = P.Endpoint("c"), P.Endpoint("d"), P.Endpoint("r")


@pytest.fixture(autouse=True)
def default_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def sucs(v: P.Value, n: int = N) -> P.Value:
    for _ in range(n):
        v = P.SucOf(v)
    return v


def pairs(left: bool, base: P.Value = P.VarRef("x")) -> P.Value:
    v = base
    for _ in range(N):
        v = P.Pair(v, P.NatLit(1)) if left else P.Pair(P.NatLit(1), v)
    return v


def values() -> dict[str, tuple[P.Value, str, tuple[str, ...]]]:
    """Each deep value, its printed text and its variables."""
    return {
        "suc over a literal": (sucs(P.NatLit(0)), "suc " * N + "0", ()),
        "suc over a variable": (sucs(P.VarRef("x")), "suc " * N + "x", ("x",)),
        "pair nested left": (pairs(True), "(" * N + "x" + ", 1)" * N, ("x",)),
        "pair nested right": (pairs(False), "(1, " * N + "x" + ")" * N, ("x",)),
    }


def test_values_evaluate():
    for name, (v, _, _) in values().items():
        expected = P.NatLit(N) if name == "suc over a literal" else v
        assert P.eval_value(v) == expected, name
    assert P.eval_value(P.Pair(sucs(P.NatLit(0)), sucs(P.VarRef("x"), 2))) == P.Pair(
        P.NatLit(N), P.SucOf(P.SucOf(P.VarRef("x"))))


def test_values_print_and_name_their_variables():
    for name, (v, text, variables) in values().items():
        assert P.format_value(v) == text, name
        assert P.value_var_names(v) == variables, name


def test_values_compare_and_hash_without_recursion():
    again = values()
    for name, (v, _, _) in values().items():
        w = again[name][0]
        assert v is not w and v == w and hash(v) == hash(w), name
        assert {v: name}[w] == name
    # a variable and a literal spelled alike differ at any depth, also once
    # the normal form has put hole numbers in place of names
    assert sucs(P.VarRef(3)) != sucs(P.NatLit(3))
    assert len({sucs(P.VarRef(3)), sucs(P.NatLit(3)), pairs(True, P.VarRef(3)), pairs(True, P.NatLit(3))}) == 4
    assert pairs(True) != pairs(False)
    assert sucs(P.NatLit(0)) != sucs(P.NatLit(0), N - 1)


def test_values_substitute_serialize_and_normalize():
    again = values()
    for name, (v, text, _) in values().items():
        send = P.RecvVal(C, "x", P.SendVal(D, v, P.NIL))
        out = P.substitute(P.SendVal(D, v, P.NIL), {"x": P.VarRef("y")})
        assert P.format_process(out) == "d!<" + text.replace("x", "y") + ">", name
        same = P.RecvVal(C, "x", P.SendVal(D, again[name][0], P.NIL))
        assert send == same and hash(send) == hash(same) and {send: name}[same] == name, name
        assert P.format_process(normalize(send)) == "c?(%0). d!<" + text.replace("x", "%0") + ">", name


def received_send() -> P.Process:
    """A send of `N` `suc`s over a received variable, and its sender."""
    receiver = P.RecvVal(C.flip(), "x", P.SendVal(R, sucs(P.VarRef("x")), P.NIL))
    return P.New("c", None, P.Par(P.SendVal(C, P.NatLit(0), P.NIL), receiver))


def test_a_deep_send_over_a_received_variable_runs():
    p = received_send()
    assert P.format_process(normalize(p)) == "new %1. (%1!<0> | ~%1?(%0). r!<" + "suc " * N + "%0>)"
    cfg = M.make_configuration(p, frozenset({"r"}))
    assert len(cfg.components) == 2 and {cfg.key: 1}[cfg.key] == 1
    text = P.format_process(p)
    assert P.format_process(P.substitute(p, {"r": P.Endpoint("s")})) == text.replace("r!<", "s!<")
    (outcome,) = M.run(p, "all")
    assert outcome.emitted == (P.NatLit(N),)
    assert M.run(p, "one")[0].emitted == (P.NatLit(N),)


def test_a_value_fills_a_binder_under_a_deep_prefix_chain():
    # the receive's continuation is rebuilt down `N` binding prefixes to
    # the one occurrence of its binder
    chain = P.SendVal(R, P.VarRef("x"), P.NIL)
    for _ in range(N):
        chain = P.RecvVal(D, "y", P.SendVal(R, P.VarRef("y"), chain))
    expected = P.format_process(normalize(P.substitute(chain, {"x": P.NatLit(5)})))
    assert expected.endswith("r!<%0>. r!<5>")
    table = InternTable()
    filled = table.subst(table.term(chain), {"x": P.NatLit(5)})
    assert P.format_process(table.process(filled)) == expected
    p = P.New("c", None, P.Par(P.SendVal(C, P.NatLit(5), P.NIL), P.RecvVal(C.flip(), "x", chain)))
    (outcome,) = M.run(p, "all")  # a residual spells binders in pre-order
    assert outcome.residual.count("d?(") == N and outcome.residual.endswith(f"r!<%{N - 1}>. r!<5>")


def test_a_suc_chain_parses_in_a_loop():
    text = "r!<" + "suc " * N + "0>"
    p = P.parse_process(text)
    assert p == P.SendVal(R, sucs(P.NatLit(0)), P.NIL)
    for v in (sucs(P.NatLit(0)), sucs(P.VarRef("x"))):
        send = P.RecvVal(C, "x", P.SendVal(R, v, P.NIL))
        assert P.parse_process(P.format_process(send)) == send
    assert format_term(parse_term("suc " * N + "zero")) == "suc " * N + "zero"


def test_pi_check_reads_a_deep_send(tmp_path, capsys):
    path = tmp_path / "deep.pi"
    path.write_text("-- delta r : ![nat]. end\nr!<" + "suc " * N + "0>\n")
    assert main(["pi-check", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def terms() -> dict[str, tuple[object, str]]:
    """A term nested `N` deep in each subterm slot, over the free `y`, and
    its printed text."""
    arg, bound, body = Var("y"), Var("y"), Var("y")
    for _ in range(N):
        arg, bound, body = OpApp("suc", arg), Let("x", bound, Var("x")), Let("x", Const("get"), body)
    return {
        "OpApp.arg": (arg, "suc " * N + "y"),
        "Let.bound": (bound, "let x = " * N + "y" + " in x" * N),
        "Let.body": (body, "let x = get in " * N + "y"),
    }


def test_terms_print_and_parse():
    for slot, (t, text) in terms().items():
        assert format_term(t) == text, slot
        if slot != "Let.bound":  # a `let` in binding position still recurses in the parser
            assert format_term(parse_term(text)) == text, slot


def test_terms_compare_and_hash():
    # the parsed 2,000-let chain, and each slot nested N deep
    text = " ".join(f"let x{i} = get in" for i in range(2000)) + " get"
    chain, again, other = parse_term(text), parse_term(text), parse_term(text.replace("x1999", "y"))
    assert chain == again and hash(chain) == hash(again) and len({chain, again}) == 1
    assert chain != other and other != again
    for slot, (t, _) in terms().items():
        u, changed = terms()[slot][0], substitute(t, "y", Const("zero"))
        assert t == u and hash(t) == hash(u) and t != changed, slot


def test_terms_free_vars():
    for slot, (t, _) in terms().items():
        assert free_vars(t) == {"y"}, slot


def test_terms_substitute():
    for slot, (t, text) in terms().items():
        assert format_term(substitute(t, "y", Const("zero"))) == text.replace("y", "zero"), slot
        assert format_term(substitute(t, "x", Const("zero"))) == text, slot


def test_infer_peels_an_operation_chain():
    (t, _), nat = terms()["OpApp.arg"], ValueType.NAT
    assert infer({"y": nat}, nat, t) == (nat, IDENTITY)
    # the innermost operation still fails first
    deep = parse_term("put (" + "suc " * N + "get)")
    with pytest.raises(EffectTypeError, match="argument of suc must be pure, but get has effect"):
        infer({}, nat, deep)
    deep = parse_term("suc " * N + "unit")
    with pytest.raises(EffectTypeError, match="suc expects a nat argument, got unit"):
        infer({}, nat, deep)


def test_check_reads_a_deep_put(tmp_path, capsys):
    path = tmp_path / "deep.eff"
    path.write_text("store nat init 0\nput (" + "suc " * N + "zero)\n")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "unit, [P nat]"
