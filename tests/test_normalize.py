import hashlib
import random
from functools import partial

import pytest
from test_scoping import _chain_system

from effsess.normalize import InternTable, normalize
from effsess.process import (
    Endpoint,
    NatLit,
    New,
    NIL,
    Par,
    RecvVal,
    SendVal,
    format_process,
    parse_process,
    substitute,
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


def _respelled(p, serial):
    """``p`` with every binder spelled afresh (`w0`, `w1`, ...)."""
    if isinstance(p, (New, RecvVal)):
        fresh = f"w{next(serial)}"
        old = p.name if isinstance(p, New) else p.binder
        inner = substitute(p.body if isinstance(p, New) else p.cont, {old: Endpoint(fresh)})
        inner = _respelled(inner, serial)
        return New(fresh, None, inner) if isinstance(p, New) else RecvVal(p.chan, fresh, inner)
    if isinstance(p, SendVal):
        return SendVal(p.chan, p.value, _respelled(p.cont, serial))
    if isinstance(p, Par):
        return Par(_respelled(p.left, serial), _respelled(p.right, serial))
    return p


def _permuted(p, rng):
    """``p`` with the two sides of some parallel compositions swapped."""
    if isinstance(p, New):
        return New(p.name, None, _permuted(p.body, rng))
    if isinstance(p, RecvVal):
        return RecvVal(p.chan, p.binder, _permuted(p.cont, rng))
    if isinstance(p, SendVal):
        return SendVal(p.chan, p.value, _permuted(p.cont, rng))
    if isinstance(p, Par):
        left, right = _permuted(p.left, rng), _permuted(p.right, rng)
        return Par(right, left) if rng.random() < 0.5 else Par(left, right)
    return p


# Normal-form classes of 60 seeded random processes, each followed by a
# respelled and a permuted copy; classes are numbered in order of first
# appearance.  Frozen from the normalizer that renamed binders from the root
# and iterated to a fixpoint; a normalizer that decides the same congruence
# draws the same partition.
FROZEN_PARTITION = [
    0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 2, 2, 2, 5, 5, 5, 6, 6, 6, 2, 2, 2, 7, 7, 7, 8, 8, 8, 9, 9, 9,
    10, 10, 10, 11, 11, 11, 12, 12, 12, 2, 2, 2, 13, 13, 13, 14, 14, 14, 1, 1, 1, 2, 2, 2, 2, 2, 2, 15, 15, 15,
    16, 16, 16, 17, 17, 17, 2, 2, 2, 18, 18, 18, 19, 19, 19, 20, 20, 20, 21, 21, 21, 22, 22, 22, 23, 23, 23,
    2, 2, 2, 24, 24, 24, 25, 25, 25, 26, 26, 26, 1, 1, 1, 27, 27, 27, 28, 28, 28, 29, 29, 29, 30, 30, 30,
    2, 2, 2, 31, 31, 31, 2, 2, 2, 32, 32, 32, 33, 33, 33, 34, 34, 34, 1, 1, 1, 1, 1, 1, 35, 35, 35, 34, 34, 34,
    28, 28, 28, 2, 2, 2, 2, 2, 2, 36, 36, 36, 37, 37, 37, 38, 38, 38, 39, 39, 39, 2, 2, 2, 2, 2, 2, 40, 40, 40,
]


def test_partition_by_normal_form_is_frozen():
    from itertools import count

    rng = random.Random(41)
    procs = []
    for _ in range(60):
        p = _random_proc(rng, 5, ["a", "b"])
        procs += [p, _respelled(p, count()), _permuted(p, rng)]
    classes: dict = {}
    labels = [classes.setdefault(normalize(p), len(classes)) for p in procs]
    assert labels == FROZEN_PARTITION


def test_tied_components_told_apart_only_by_bound_names():
    # under a prefix, two components differ only in names bound further
    # out: restrictions, or parameters of one definition
    variants = [
        ("new r1. new r2. (r1!<0> | a!<0>. (r1!<1> | r2!<1>))", "new r2. new r1. (r2!<0> | a!<0>. (r2!<1> | r1!<1>))"),
        ("new r1. new r2. (r1!<0> | a!<0>. (r1!<1> | r2!<1>))", "new r1. new r2. (r1!<0> | a!<0>. (r2!<1> | r1!<1>))"),
        ("def X(a, b; ) = c?(q). (a!<0> | b!<0>) in X<1, 2; >", "def X(b, a; ) = c?(q). (a!<0> | b!<0>) in X<1, 2; >"),
        ("c?(x). c?(y). (x!<0> | y!<0>)", "c?(y). c?(x). (x!<0> | y!<0>)"),
    ]
    for left, right in variants:
        assert normalize(parse_process(left)) == normalize(parse_process(right))


def test_many_components_differing_only_in_free_names():
    # more arrangements than the tie bound: free names order them
    sends = [f"{name}!<0>" for name in "abcdefgh"] + ["~a!<0>", "~b!<0>"]
    outputs = set()
    for seed in range(4):
        random.Random(seed).shuffle(sends)
        outputs.add(format_process(normalize(parse_process("(" + " | ".join(sends) + ")"))))
    assert len(outputs) == 1


def test_substitution_memo_declines_where_names_order_components():
    # a value that makes two components tie, and a term whose components
    # tie already: names order the result, so one result cannot serve
    # another spelling of the same pattern; each result is checked against
    # the term read back, substituted and interned again
    table = InternTable()
    made_symmetric = table.term(parse_process("(x!<v> | y!<zero>)"))
    symmetric = table.term(parse_process("(x!<v> | y!<v>)"))
    for t in (made_symmetric, symmetric):
        for mapping in ({"v": NatLit(0)}, {"v": NatLit(0), "x": Endpoint("z")}):
            assert table.subst(t, mapping) == table.term(substitute(table.process(t), mapping))
    assert table.memo_hits == 0


def test_term_of_a_process_with_a_mapping_is_its_substitution():
    # a restriction of the spine neither takes the mapping nor captures a
    # name the mapping puts in
    cases = [
        ("new a. (a!<0> | ~a?(y))", {"a": Endpoint("b")}),
        ("new a. (a!<x> | ~a?(y))", {"x": Endpoint("a")}),
        ("new a. (a!<x> | ~a?(y). b!<y>)", {"x": NatLit(1), "b": Endpoint("a")}),
    ]
    for text, mapping in cases:
        p, table = parse_process(text), InternTable()
        expected = format_process(normalize(substitute(p, mapping)))
        assert format_process(table.process(table.subst(table.term(p), mapping))) == expected


def test_chain_composes_only_the_prefixes_its_comparisons_read():
    # the normal form of the composed n=40 chain, pinned
    table = InternTable()
    printed = format_process(table.process(table.term(_chain_system(40))))
    assert len(printed) == 10_263
    assert hashlib.sha256(printed.encode()).hexdigest() == "96d043ece473f1341356923d5d0b34ca3cc33ba07b6b529b5259aa27ea11b37c"


def _spellings(restricted: list[str], comps: list[str], seed, count: int = 10) -> list:
    """``count`` spellings of ``new restricted. (comps)``, each component a
    format string over the restricted names: the components shuffled, and
    the restrictions renamed and bound in a shuffled order."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        names = {n: f"q{j}" for n, j in zip(restricted, rng.sample(range(1000), len(restricted)))}
        binders = "".join(f"new {names[n]}. " for n in rng.sample(restricted, len(restricted)))
        shuffled = [c.format(**names) for c in rng.sample(comps, len(comps))]
        out.append(parse_process(binders + "(" + " | ".join(shuffled) + ")"))
    return out


def _ring(k: int, first: int = 0) -> tuple[list[str], list[str]]:
    """``x0!<x1> | x1!<x2> | ... | x(k-1)!<x0>``."""
    names = [f"x{first + i}" for i in range(k)]
    return names, [f"{{{a}}}!<{{{b}}}>" for a, b in zip(names, names[1:] + names[:1])]


def _rings(*sizes: int) -> tuple[list[str], list[str]]:
    """Disjoint rings of the given sizes."""
    rings = [_ring(k, sum(sizes[:j])) for j, k in enumerate(sizes)]
    return [n for names, _ in rings for n in names], [c for _, comps in rings for c in comps]


def _clients(k: int, private: int) -> tuple[list[str], list[str]]:
    """``k`` pairs ``c_i!<0>. r!<0> | ~c_i?(y). 0``, or with a second private
    channel ``c_i!<0>. d_i!<0>. r!<0> | ~c_i?(y). ~d_i?(z). 0``; ``r`` is free."""
    names = [f"{c}{i}" for i in range(k) for c in "cd"[:private]]
    sends = [". ".join(f"{{{c}{i}}}!<0>" for c in "cd"[:private]) + ". r!<0>" for i in range(k)]
    receives = [". ".join(f"~{{{c}{i}}}?({v})" for c, v in zip("cd"[:private], "yz")) + ". 0" for i in range(k)]
    return names, sends + receives


def _hub(k: int) -> tuple[list[str], list[str]]:
    """A hub ``~h?(q). ~h?(w). 0`` and ``k`` pairs ``h!<c_i>. d_i!<0>. r!<0> |
    ~c_i?(y). ~d_i?(z). 0``, every name restricted."""
    names = ["h", "r", *(f"{c}{i}" for i in range(k) for c in "cd")]
    sends = [f"{{h}}!<{{c{i}}}>. {{d{i}}}!<0>. {{r}}!<0>" for i in range(k)]
    receives = [f"~{{c{i}}}?(y). ~{{d{i}}}?(z). 0" for i in range(k)]
    return names, ["~{h}?(q). ~{h}?(w). 0", *sends, *receives]


# components that tie in runs past any bound on their arrangements, each
# with the restrictions that tell them apart
TIED = {
    **{f"ring-{k}": partial(_ring, k) for k in (7, 8, 10, 12)},
    **{f"clients-{k}": partial(_clients, k, 1) for k in (5, 6, 8, 10)},
    **{f"private-pairs-{k}": partial(_clients, k, 2) for k in (5, 6, 8)},
    **{f"rings-{r}": partial(_rings, *[3] * r) for r in range(3, 7)},
    # a search that jumps back at a leaf equal to any earlier one, not only
    # at one equal to the first, gives two normal forms here
    "rings-4-4-5-5": partial(_rings, 4, 4, 5, 5),
    **{f"hub-{k}": partial(_hub, k) for k in range(4, 9)},
}


@pytest.mark.parametrize("label", sorted(TIED))
def test_tied_components_have_one_normal_form(label):
    forms = {normalize(p) for p in _spellings(*TIED[label](), label)}
    assert len(forms) == 1
    (form,) = forms
    assert normalize(form) == form
