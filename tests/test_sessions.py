import random
import sys

import pytest

from effsess.sessions import (
    Branch,
    END,
    Mu,
    Recv,
    Select,
    Send,
    TVar,
    assert_wellformed,
    dual,
    dual_compatible,
    format_session_type,
    is_value_payload,
    parse_session_type,
    select_subtype,
    type_equal,
    unfold,
)
from effsess.effects import Get, Put
from effsess.embedding import effect_to_session
from effsess.terms import ParseError, ValueType

NAT, UNIT = ValueType.NAT, ValueType.UNIT

STORE = Mu("a", Branch((("get", Send(NAT, TVar("a"))), ("put", Recv(NAT, TVar("a"))), ("stop", END))))


def gen_type(rng: random.Random, depth: int, bound=()):
    choices = ["end"]
    if bound:
        choices.append("tvar")
    if depth > 0:
        choices += ["send", "recv", "select", "branch", "mu"]
    kind = rng.choice(choices)
    if kind == "end":
        return END
    if kind == "tvar":
        return TVar(rng.choice(bound))
    if kind in ("send", "recv"):
        payload = rng.choice([NAT, UNIT, gen_type(rng, depth - 1, bound)])
        cont = gen_type(rng, depth - 1, bound)
        return Send(payload, cont) if kind == "send" else Recv(payload, cont)
    if kind in ("select", "branch"):
        labels = rng.sample(["a", "b", "c", "d"], rng.randint(1, 3))
        choices_t = tuple((l, gen_type(rng, depth - 1, bound)) for l in labels)
        return Select(choices_t) if kind == "select" else Branch(choices_t)
    var = f"t{len(bound)}"
    body = gen_type(rng, depth - 1, bound + (var,))
    if isinstance(body, TVar):
        body = Send(NAT, body)  # keep contractive
    return Mu(var, body)


def open_payload(s) -> bool:
    """Whether a payload of ``s``, or a payload nested in one, mentions a mu
    variable bound outside it."""
    if isinstance(s, Mu):
        return open_payload(s.body)
    if isinstance(s, (Send, Recv)):
        if not is_value_payload(s.payload) and (_free_tvars(s.payload) or open_payload(s.payload)):
            return True
        return open_payload(s.cont)
    if isinstance(s, (Select, Branch)):
        return any(open_payload(c) for _, c in s.choices)
    return False


def _free_tvars(s, bound=frozenset()) -> set:
    if isinstance(s, TVar):
        return set() if s.name in bound else {s.name}
    if isinstance(s, Mu):
        return _free_tvars(s.body, bound | {s.var})
    if isinstance(s, (Send, Recv)):
        out = _free_tvars(s.cont, bound)
        if not is_value_payload(s.payload):
            out |= _free_tvars(s.payload, bound)
        return out
    if isinstance(s, (Select, Branch)):
        return set().union(*(_free_tvars(c, bound) for _, c in s.choices))
    return set()


def test_dual_examples():
    assert dual(Send(NAT, END)) == Recv(NAT, END)
    assert dual(Select((("get", Recv(NAT, END)),))) == Branch((("get", Send(NAT, END)),))
    s = Mu("a", Branch((("get", Send(NAT, TVar("a"))),)))
    assert dual(dual(s)) == s


def test_dual_involution_generated():
    # Complete duality closes open payloads, so only types without one come
    # back spelled the same; every type comes back equal up to unfolding.
    rng = random.Random(5)
    for _ in range(300):
        s = gen_type(rng, 5)
        assert type_equal(dual(dual(s)), s)
        if not open_payload(s):
            assert dual(dual(s)) == s


def test_dual_closes_payload_mu_variables():
    s = Mu("a", Send(TVar("a"), TVar("a")))
    assert dual(s) == Mu("a", Recv(s, TVar("a")))
    assert dual_compatible(s, dual(s))
    assert dual_compatible(dual(s), s)


def test_dual_is_dual_compatible_generated():
    rng = random.Random(5)
    for _ in range(2000):
        s = gen_type(rng, 5)
        assert dual_compatible(s, dual(s))
        assert dual_compatible(dual(s), s)


def test_type_equal_unfolding():
    s = Mu("a", Send(NAT, TVar("a")))
    assert type_equal(s, unfold(s))
    assert type_equal(s, Send(NAT, s))
    assert not type_equal(END, Send(NAT, END))


def test_type_equal_alpha():
    s = Mu("a", Branch((("get", TVar("a")),)))
    t = Mu("b", Branch((("get", TVar("b")),)))
    assert type_equal(s, t)


def test_type_equal_is_equivalence_and_dual_respects_it():
    rng = random.Random(11)
    sample = [gen_type(rng, 4) for _ in range(40)]
    for s in sample:
        assert type_equal(s, s)
    for s in sample:
        for t in sample:
            if type_equal(s, t):
                assert type_equal(t, s)
                assert type_equal(dual(s), dual(t))


def test_select_subtype_width():
    narrow = Select((("get", Recv(NAT, END)),))
    wide = Select((("get", Recv(NAT, END)), ("put", Send(NAT, END))))
    assert select_subtype(narrow, wide)
    assert not select_subtype(wide, narrow)


def test_select_subtype_reflexive_transitive():
    rng = random.Random(3)
    sample = [gen_type(rng, 4) for _ in range(30)]
    for s in sample:
        assert select_subtype(s, s)
    trip = [
        (
            Select((("a", END),)),
            Select((("a", END), ("b", END))),
            Select((("a", END), ("b", END), ("c", END))),
        )
    ]
    for s, t, u in trip:
        assert select_subtype(s, t) and select_subtype(t, u) and select_subtype(s, u)


def test_branch_width_not_included():
    narrow = Branch((("get", END),))
    wide = Branch((("get", END), ("put", END)))
    assert not select_subtype(narrow, wide)


def test_select_subtype_through_mu():
    narrow = Select((("get", Recv(NAT, Select((("stop", END),)))),))
    wide = dual(STORE)
    assert select_subtype(narrow, wide)
    assert dual_compatible(narrow, STORE)


def test_dual_compatible_rejects_missing_label():
    sel = Select((("flush", END),))
    assert not dual_compatible(sel, STORE)


def test_parse_and_format_roundtrip():
    texts = [
        "end",
        "![nat]. end",
        "?[unit]. ![nat]. end",
        "+{get: ?[nat]. end, put: ![nat]. end}",
        "&{get: ![nat]. a, put: ?[nat]. a, stop: end}",
        "mu a. &{get: ![nat]. a, put: ?[nat]. a, stop: end}",
        "![?[nat]. end]. end",
    ]
    for text in texts[:4] + texts[5:]:
        s = parse_session_type(text)
        assert parse_session_type(format_session_type(s)) == s


def test_parse_rejects_unbound_tvar_and_duplicates():
    with pytest.raises(ValueError):
        parse_session_type("&{get: ![nat]. a, stop: end}")
    with pytest.raises(Exception):
        parse_session_type("+{get: end, get: end}")


@pytest.mark.parametrize("text", ["mu (. end", "mu 3. end", "mu end. end", "mu nat. ![nat]. end"])
def test_mu_binder_must_be_a_name(text):
    with pytest.raises(ParseError):
        parse_session_type(text)


def test_long_prefix_chain_parses_at_default_recursion_limit():
    text = "mu a. " + "![nat]. ?[unit]. " * 750 + "+{l: a, m: end}"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        printed = format_session_type(parse_session_type(text))
    finally:
        sys.setrecursionlimit(limit)
    assert printed == text


def test_deep_recursive_type_at_default_recursion_limit():
    # unfolding, ==, hash and type_equal walk with explicit stacks
    text = "mu a. " + "![nat]. " * 1500 + "a"
    s, t = parse_session_type(text), parse_session_type(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        unfolded = unfold(s)
        verdicts = (s == t, hash(s) == hash(t), type_equal(s, t), type_equal(unfolded, t), s == unfolded)
        printed = format_session_type(unfolded)
    finally:
        sys.setrecursionlimit(limit)
    assert verdicts == (True, True, True, True, False)
    assert printed == "![nat]. " * 1500 + text


def test_select_never_equals_branch():
    choices = (("a", END), ("b", Send(NAT, END)))
    assert Select(choices) != Branch(choices)
    assert Select(choices) == Select(tuple(reversed(choices)))
    assert len({Select(choices), Branch(choices), Select(choices)}) == 2


def test_store_type_matches_display():
    assert format_session_type(STORE) == "mu a. &{get: ![nat]. a, put: ?[nat]. a, stop: end}"


def test_long_effect_chain_prints_and_checks_at_default_recursion_limit():
    f = tuple(Get(NAT) if i % 2 == 0 else Put(NAT) for i in range(3000))
    chain, open_chain = effect_to_session(f), effect_to_session(f, tail=TVar("a"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        printed = format_session_type(chain)
        assert_wellformed(chain)
        with pytest.raises(ValueError, match="unbound session variable 'a'"):
            assert_wellformed(open_chain)
    finally:
        sys.setrecursionlimit(limit)
    steps = "".join("+{get: ?[nat]. " if i % 2 == 0 else "+{put: ![nat]. " for i in range(3000))
    assert printed == steps + "end" + "}" * 3000
