import random
import sys

import pytest

from effsess import embedding
from effsess.equivalence import PartialLTS, build_lts, weak_bisimilar
from effsess.normalize import normalize
from effsess.process import Endpoint, NatLit, parse_process
from effsess.semantics import InChan, OutVal, StateCapExceeded, format_label
from effsess.terms import ValueType, parse_term

from oracle import embedded_corpus, full_lts

OBS = frozenset({"r", "eff"})


def lts_of_term(text, env=None, observables=OBS):
    res = embedding.embed_term_top(parse_term(text), env or {}, ValueType.NAT)
    return build_lts(res.process, observables)


def test_two_state_output():
    lts = build_lts(parse_process("r!<zero>"), {"r"})
    assert lts.n_states == 2
    edges = lts.edges[lts.initial]
    assert list(edges) == [OutVal(Endpoint("r"), NatLit(0))]


def test_forwarder_linear_chain():
    from effsess.process import NIL, RecvChan, SendChan

    fwd = RecvChan(Endpoint("ei"), "c", SendChan(Endpoint("eo", True), Endpoint("c"), NIL))
    lts = build_lts(fwd, {"ei", "eo"})
    assert lts.n_states == 3
    first = list(lts.edges[lts.initial])
    assert first == [InChan(Endpoint("ei"), "@0")]


def test_effect_side_labels_in_order():
    # the translated sample program interacts on eff exactly as its
    # annotation [G nat, P nat] prescribes
    lts = lts_of_term("let x = get in put (suc x)")
    labels = []
    state = lts.initial
    while lts.edges[state]:
        visible = [l for l in lts.edges[state] if format_label(l) != "tau"]
        labels_here = visible or list(lts.edges[state])
        label = labels_here[0]
        labels.append(format_label(label))
        state = sorted(lts.edges[state][label])[0]
    effectful = [l for l in labels if l.startswith("eff")]
    assert effectful[0] == "eff<+get"
    assert effectful[1].startswith("eff?(")
    assert effectful[2] == "eff<+put"
    assert effectful[3].startswith("eff!<")


def test_reflexive():
    a = lts_of_term("let x = get in x")
    assert weak_bisimilar(a, a).equivalent


def test_symmetric_on_samples():
    pairs = [
        ("get", "let x = get in x"),
        ("put zero", "let u = put zero in u"),
    ]
    for s, t in pairs:
        a, b = lts_of_term(s), lts_of_term(t)
        assert weak_bisimilar(a, b).equivalent == weak_bisimilar(b, a).equivalent


def test_unitr_pair_bisimilar():
    assert weak_bisimilar(lts_of_term("let x = get in x"), lts_of_term("get")).equivalent


def test_distinct_puts_not_bisimilar_with_trace():
    verdict = weak_bisimilar(lts_of_term("put zero"), lts_of_term("put (suc zero)"))
    assert not verdict.equivalent
    trace = verdict.formatted_trace()
    assert trace
    assert any(l.startswith("eff!<") for l in trace)


def test_strong_implies_weak():
    cases = [
        ("get", "get"),
        ("let x = get in x", "get"),
        ("put zero", "put zero"),
        ("zero", "suc zero"),
    ]
    for s, t in cases:
        a, b = lts_of_term(s), lts_of_term(t)
        strong = weak_bisimilar(a, b, weak=False)
        weak = weak_bisimilar(a, b)
        if strong.equivalent:
            assert weak.equivalent


def test_structural_congruence_soundness():
    p = parse_process("new c. (c!<zero>. r!<unit> | ~c?(y))")
    q = parse_process("new d. (~d?(z) | d!<zero>. r!<unit>)")
    assert normalize(p) == normalize(q)
    a = build_lts(p, {"r"})
    b = build_lts(q, {"r"})
    assert weak_bisimilar(a, b).equivalent


def test_tight_tau_loop_is_a_complete_lts():
    # a self-looping definition folds into finitely many states
    lts = build_lts(parse_process("def X(; c: end) = X<; c> in X<; d>"), set())
    assert not lts.partial
    assert weak_bisimilar(lts, lts).equivalent


def test_partial_lts_rejected():
    # each unfolding grows the state, so a depth bound leaves a frontier
    text = "def X(; c: end) = (e!<0> | X<; c>) in X<; d>"
    lts = build_lts(parse_process(text), {"e"}, fuel=3)
    assert lts.partial
    with pytest.raises(PartialLTS):
        weak_bisimilar(lts, lts)


def test_state_cap():
    deep = lts_of_term("let a = get in let b = get in let c = get in a")
    with pytest.raises(StateCapExceeded):
        build_lts(
            embedding.embed_term_top(
                parse_term("let a = get in let b = get in let c = get in a")
            ).process,
            OBS,
            cap=5,
        )


def test_transitivity_spot_check():
    a = lts_of_term("get")
    b = lts_of_term("let x = get in x")
    c = lts_of_term("let y = (let x = get in x) in y")
    ab = weak_bisimilar(a, b).equivalent
    bc = weak_bisimilar(b, c).equivalent
    ac = weak_bisimilar(a, c).equivalent
    assert ab and bc and ac


def test_reduced_lts_is_weakly_bisimilar_to_full():
    # each corpus program alone (eff visible) and composed with its store
    for pair in embedded_corpus():
        for p in pair:
            full, reduced = full_lts(p, OBS), build_lts(p, OBS)
            assert reduced.n_states <= full.n_states
            assert weak_bisimilar(full, reduced).equivalent


def test_step_that_drops_a_received_name_is_not_folded():
    # the private exchange discards @0, the name received first; folding it
    # would let the second input draw @0 again instead of @1
    from effsess.process import NIL, New, RecvChan, SendChan, par

    ei, c = Endpoint("ei"), Endpoint("c")
    p = RecvChan(ei, "x", New("c", None, par(
        SendChan(c, Endpoint("x"), NIL),
        RecvChan(c.flip(), "y", NIL),
        RecvChan(ei, "z", SendChan(Endpoint("eo"), Endpoint("z"), NIL)),
    )))
    full, reduced = full_lts(p, {"ei", "eo"}), build_lts(p, {"ei", "eo"})
    assert weak_bisimilar(full, reduced).equivalent


def test_a_trace_longer_than_the_recursion_limit():
    # r!<0>. ... r!<0>. r!<b> for b = 0 and 1: only the last of 300 outputs
    # tells them apart, so the witness is 300 labels long
    from effsess.process import NIL, SendVal

    ltss = []
    for last in (0, 1):
        p = SendVal(Endpoint("r"), NatLit(last), NIL)
        for _ in range(299):
            p = SendVal(Endpoint("r"), NatLit(0), p)
        ltss.append(build_lts(p, {"r"}))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        result = weak_bisimilar(*ltss)
    finally:
        sys.setrecursionlimit(limit)
    assert not result.equivalent
    assert result.formatted_trace() == ["r!<0>"] * 300
