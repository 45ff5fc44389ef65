import random

from effsess.normalize import normalize
from effsess.process import (
    Endpoint,
    NatLit,
    New,
    NIL,
    Par,
    RecvVal,
    SendVal,
    parse_process,
)


def test_nil_unit_removed():
    p = parse_process("(0 | c!<zero>)")
    assert normalize(p) == normalize(parse_process("c!<zero>"))


def test_garbage_restriction_removed():
    p = parse_process("new c. d!<zero>")
    assert normalize(p) == normalize(parse_process("d!<zero>"))


def test_par_commutative():
    p = parse_process("(c!<zero> | d?(x))")
    q = parse_process("(d?(x) | c!<zero>)")
    assert normalize(p) == normalize(q)


def test_par_associative_flattening():
    p = parse_process("((a!<0> | b!<0>) | c!<0>)")
    q = parse_process("(a!<0> | (b!<0> | c!<0>))")
    assert normalize(p) == normalize(q)


def test_alpha_equivalent_restrictions():
    p = parse_process("new c. (c!<zero> | ~c?(y))")
    q = parse_process("new d. (d!<zero> | ~d?(z))")
    assert normalize(p) == normalize(q)


def test_alpha_equivalence_with_wiring():
    p = parse_process("new a. new b. (a!<0> | ~a?(x) | b?(y))")
    q = parse_process("new u. new v. (v!<0> | ~v?(x) | u?(y))")
    assert normalize(p) == normalize(q)


def test_idempotent():
    samples = [
        "new c. (c!<zero> | ~c?(y) | 0)",
        "(new a. a!<0> | new a. a?(x))",
        "def X(x: nat; c: end) = 0 in (X<0; d> | e!<1>)",
        "c?(x). new q. (q!<x> | ~q?(y). r!<suc y>)",
        "accept k(c). c >> {get: c!<0>, stop: 0, put: c?(v)}",
    ]
    for text in samples:
        p = normalize(parse_process(text))
        assert normalize(p) == p


def test_restriction_hoisted_through_par():
    p = parse_process("(new c. (c!<0> | ~c?(x)) | d!<1>)")
    out = normalize(p)
    assert isinstance(out, New)


def test_shadowed_restriction():
    p = parse_process("new c. new c. c!<0>")
    out = normalize(p)
    # only the inner restriction binds; exactly one New remains
    assert isinstance(out, New) and not isinstance(out.body, New)


def test_branch_label_order_canonical():
    p = parse_process("c >> {put: 0, get: 0}")
    q = parse_process("c >> {get: 0, put: 0}")
    assert normalize(p) == normalize(q)


def test_annotations_stripped():
    p = parse_process("new c: ![nat]. end. (c!<0> | ~c?(x))")
    out = normalize(p)
    assert isinstance(out, New) and out.annotation is None


def _random_proc(rng: random.Random, depth: int, free):
    kind = rng.choice(["send", "recv", "par", "new", "nil"] if depth > 0 else ["send", "nil"])
    if kind == "nil":
        return NIL
    if kind == "send":
        return SendVal(Endpoint(rng.choice(free)), NatLit(rng.randrange(2)), _random_proc(rng, depth - 1, free))
    if kind == "recv":
        return RecvVal(Endpoint(rng.choice(free), True), f"b{depth}", _random_proc(rng, depth - 1, free))
    if kind == "par":
        return Par(_random_proc(rng, depth - 1, free), _random_proc(rng, depth - 1, free))
    name = f"n{depth}{rng.randrange(100)}"
    return New(name, None, _random_proc(rng, depth - 1, free + [name]))


def test_idempotence_on_random_processes():
    rng = random.Random(23)
    for _ in range(120):
        p = _random_proc(rng, 5, ["a", "b"])
        once = normalize(p)
        assert normalize(once) == once


def test_alpha_invariance_on_random_renamings():
    from effsess.process import Branch, Def, RecvChan, Select, SendChan, substitute

    def rename_restrictions(q, counter):
        # a fresh spelling for every New binder, applied bottom-up
        if isinstance(q, New):
            body = rename_restrictions(q.body, counter)
            fresh = f"w{counter[0]}"
            counter[0] += 1
            return New(fresh, q.annotation, substitute(body, {q.name: Endpoint(fresh)}))
        if isinstance(q, Par):
            return Par(rename_restrictions(q.left, counter), rename_restrictions(q.right, counter))
        if isinstance(q, (RecvVal, RecvChan)):
            return type(q)(q.chan, q.binder, rename_restrictions(q.cont, counter))
        if isinstance(q, SendVal):
            return SendVal(q.chan, q.value, rename_restrictions(q.cont, counter))
        return q

    rng = random.Random(31)
    for _ in range(80):
        p = _random_proc(rng, 4, ["a", "b"])
        variant = rename_restrictions(p, [0])
        assert normalize(variant) == normalize(p)
