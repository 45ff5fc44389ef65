"""Laws of the binder table and of normalization, checked on generated
processes.

A generated shape fixes a process up to the spelling of its binders: each
name occurrence is free (`a` or `b`) or refers to an enclosing binder, and
binders are spelled by a function of their pre-order position, and a
receive whose binder is used as an endpoint is a channel receive.  Two
spellings of one shape are alpha-equivalent.
"""

from importlib import import_module
from itertools import count

from hypothesis import assume, example, given, settings, strategies as st

from effsess import process as P
from effsess.equivalence import build_lts, weak_bisimilar
from effsess.normalize import InternTable, normalize
from effsess.semantics import RuntimeSafetyViolation, StateCapExceeded, make_configuration

from oracle import alpha_key
from test_normalize import _spellings

N = import_module("effsess.normalize")  # the package exports its function `normalize`
FREE = ("a", "b")

occurrences = st.tuples(st.sampled_from(("free", "bound")), st.integers(0, 3))
leaves = st.one_of(st.just(("nil",)), st.tuples(st.just("call"), occurrences, occurrences))


def _extend(kids):
    return st.one_of(
        st.tuples(st.sampled_from(("send", "sendch")), occurrences, occurrences, kids),
        st.tuples(st.sampled_from(("recv", "select", "acc", "req")), occurrences, kids),
        st.tuples(st.just("branch"), occurrences, kids, kids),
        st.tuples(st.just("new"), kids),
        st.tuples(st.sampled_from(("par", "def")), kids, kids),
    )


shapes = st.recursive(leaves, _extend, max_leaves=10)


def build(shape, spell) -> P.Process:
    serial = count()

    def name(occ, env):
        kind, i = occ
        return env[-1 - i % len(env)] if kind == "bound" and env else FREE[i % len(FREE)]

    def go(s, env):
        tag = s[0]
        if tag == "nil":
            return P.NIL
        if tag == "call":
            return P.Call("D", (P.VarRef(name(s[1], env)),), (P.Endpoint(name(s[2], env)),))
        if tag == "send":
            return P.SendVal(P.Endpoint(name(s[1], env)), P.VarRef(name(s[2], env)), go(s[3], env))
        if tag == "sendch":
            return P.SendChan(P.Endpoint(name(s[1], env)), P.Endpoint(name(s[2], env), True), go(s[3], env))
        if tag == "select":
            return P.Select(P.Endpoint(name(s[1], env)), "l", go(s[2], env))
        if tag == "branch":
            return P.Branch(P.Endpoint(name(s[1], env), True), (("l", go(s[2], env)), ("m", go(s[3], env))))
        if tag == "par":
            return P.Par(go(s[1], env), go(s[2], env))
        x = spell(next(serial))
        if tag == "recv":
            return P.RecvVal(P.Endpoint(name(s[1], env)), x, go(s[2], env + [x]))
        if tag in ("acc", "req"):
            cls = P.Accept if tag == "acc" else P.Request
            return cls(name(s[1], env), x, go(s[2], env + [x]))
        if tag == "new":
            return P.New(x, None, go(s[1], env + [x]))
        return P.Def("D", ((x, None),), (), go(s[1], env + [x]), go(s[2], env))

    return P.resolve_kinds(go(shape, []))


def plain(j: int) -> str:
    return f"v{j}"


def tricky(j: int) -> str:
    # the canonical namespaces of normalize, and names plain() also uses
    return ("%{}", "#{}", "v{}")[j % 3].format(j // 3)


def clashing(j: int) -> str:
    # substituting v0 renames a capturing binder v0 to the fresh name v01
    return ("v0", "v01")[j % 2]


def _check_substitution(p: P.Process, x: str, y: str, as_endpoint: bool) -> None:
    free = P.free_names(p).terms
    replacement = P.Endpoint(y) if as_endpoint else P.VarRef(y)
    q = P.substitute(p, {x: replacement})
    # x is gone, y comes in where x was, and nothing else changes
    assert set(P.free_names(q).terms) == (set(free) - {x}) | ({y} if x in free else set())
    # nothing is captured: with x and y hidden, the two are alpha-equivalent
    table = InternTable()
    assert alpha_key(q, table, y) == alpha_key(p, table, x)


@settings(max_examples=150, deadline=None)
@given(shapes, st.sampled_from(FREE), st.sampled_from(("v0", "v1", "v2", "c")), st.booleans())
def test_substitution_replaces_exactly_the_free_occurrences(shape, x, y, as_endpoint):
    _check_substitution(build(shape, plain), x, y, as_endpoint)


@settings(max_examples=150, deadline=None)
@given(shapes, st.sampled_from(FREE), st.booleans())
def test_substitution_is_not_captured_by_binders_spelled_like_fresh_names(shape, x, as_endpoint):
    # a renamed binder's new name must not be captured by nested binders
    _check_substitution(build(shape, clashing), x, "v0", as_endpoint)


@settings(max_examples=100, deadline=None)
@given(shapes)
def test_simultaneous_swap_is_an_involution(shape):
    p = build(shape, plain)
    swap = {"a": P.Endpoint("b"), "b": P.Endpoint("a")}
    table = InternTable()
    assert alpha_key(P.substitute(P.substitute(p, swap), swap), table) == alpha_key(p, table)


def _one_changed(s: tuple):
    """Each copy of the shape ``s`` with one occurrence changed: a free one
    to the other free name, or a bound one made free."""
    for k, x in enumerate(s):
        if type(x) is tuple:
            changed = [("free", x[1] + (x[0] == "free"))] if x[0] in ("free", "bound") else _one_changed(x)
            yield from (s[:k] + (y,) + s[k + 1:] for y in changed)


@settings(max_examples=100, deadline=None)
@given(shapes)
def test_alpha_key_tells_exactly_the_alpha_variants(shape):
    # the key the substitution laws compare is not vacuous: two spellings
    # of a shape get one key, and changing one occurrence changes it
    table = InternTable()
    p = build(shape, plain)
    assert alpha_key(build(shape, tricky), table) == alpha_key(p, table)
    for other in _one_changed(shape):
        q = build(other, plain)
        # a bound occurrence with no binder over it is free already
        if P.format_process(q) != P.format_process(p):
            assert alpha_key(q, table) != alpha_key(p, table)


@settings(max_examples=150, deadline=None)
@given(shapes)
def test_printed_processes_parse_back_to_their_text(shape):
    text = P.format_process(build(shape, plain))
    assert P.format_process(P.parse_process(text)) == text


@settings(max_examples=150, deadline=None)
@given(shapes)
def test_normalize_is_alpha_invariant(shape):
    p, variant = build(shape, plain), build(shape, tricky)
    assert P.format_process(normalize(variant)) == P.format_process(normalize(p))


@settings(max_examples=100, deadline=None)
@given(shapes)
# a?(v0). a!<~v0>. new v1. 0: a receive whose binder is sent as an
# endpoint, which `build` makes a channel receive
@example(("recv", ("free", 0), ("sendch", ("free", 0), ("bound", 0), ("new", ("nil",)))))
def test_normalize_preserves_weak_bisimilarity(shape):
    p = build(shape, plain)
    try:
        ltss = [build_lts(q, FREE, (P.NatLit(0), P.NatLit(1)), cap=300) for q in (p, normalize(p))]
    except (RuntimeSafetyViolation, StateCapExceeded):
        # ill-formed (a reachable call of the wrong arity, a label clash on
        # a private channel) or too large to explore: no law to check
        assume(False)
    assert weak_bisimilar(*ltss).equivalent


@settings(max_examples=150, deadline=None)
@given(shapes, st.lists(shapes, max_size=3))
def test_digests_do_not_depend_on_the_table(shape, others):
    # interned after unrelated processes, a process gets the digests, and
    # its components the sort keys, that it gets in a table of its own
    seen = []
    for before in ((), others):
        table = InternTable()
        for other in before:
            table.term(build(other, tricky))
        t = table.term(build(shape, plain))
        restricted, comps = table.open(t)
        free = lambda n, mark: f"<nu{mark}>" if n in restricted else mark + n
        runs = sorted(N._ordered(c, free) for c in comps)
        digests = [s.digest for s in table._shapes.values()]
        assert len(set(digests)) == len(digests)
        seen.append(((t.shape.digest, t.args, runs), set(digests)))
    (alone, own), (after, shared) = seen
    assert alone == after and own <= shared


def _components(p: P.Process) -> list[P.Process]:
    """The parallel components of a normal form, under its restrictions."""
    while isinstance(p, P.New):
        p = p.body
    out, todo = [], [p]
    while todo:
        q = todo.pop()
        if isinstance(q, P.Par):
            todo += [q.right, q.left]
        elif not isinstance(q, P.Nil):
            out.append(q)
    return out


@settings(max_examples=150, deadline=None)
@given(shapes, shapes)
def test_normal_forms_are_context_independent(shape, other):
    p = build(shape, plain)
    normal = normalize(p)
    # under a prefix, the normal form of p reappears as it is
    assert normalize(P.SendVal(P.Endpoint("a"), P.NatLit(0), p)).cont == normal
    # beside a process that shares no free name with p, so do its
    # components, when no restriction of p's normal form binds them
    q = P.substitute(build(other, plain), {"a": P.Endpoint("c"), "b": P.Endpoint("d")})
    if not isinstance(normal, P.New):
        combined = _components(normalize(P.Par(p, q)))
        assert all(any(c == d for d in combined) for c in _components(normal))


names = st.builds(P.Endpoint, st.sampled_from(("a", "b", "c")), st.booleans())
values = st.builds(P.NatLit, st.integers(0, 1))


@settings(max_examples=150, deadline=None)
@given(shapes, st.booleans(), st.data())
def test_memoized_substitution_agrees_with_the_rebuild(shape, beside, data):
    # beside a literal send, a value put in can make two components tie,
    # so that names order them
    table = InternTable()
    p = build(shape, plain)
    t = table.term(P.Par(P.SendVal(P.Endpoint("a"), P.NatLit(0), P.NIL), p) if beside else p)
    # a value for a name with a value or shared occurrence, or else a name;
    # two names may meet in one
    mapping = {
        n: data.draw(st.one_of(values, names) if any(k == 0 for m, k in t.args if m == n) else names)
        for n in dict.fromkeys(n for n, _ in t.args)
    }
    # a respelled term with other targets, which order the other way, and
    # the other values: the same shape and name pattern, other names or values
    respell = {n: P.Endpoint(f"z{i}") for i, n in enumerate(mapping)}
    reverse = {"a": "y2", "b": "y1", "c": "y0"}
    other = {
        respell[n].name: P.Endpoint(reverse[r.name], r.dual) if isinstance(r, P.Endpoint) else r
        for n, r in mapping.items()
    }
    swapped = {n: P.NatLit(1 - r.n) if isinstance(r, P.NatLit) else r for n, r in mapping.items()}
    # the first call forms the result, the repeated ones find it; each is
    # checked against the term read back, substituted by the binder table's
    # capture-avoiding `substitute`, and interned again
    for u, m in ((t, mapping), (t, mapping), (table.subst(t, respell), other), (t, swapped)):
        assert table.subst(u, m) == table.term(P.substitute(table.process(u), m))


# def D(v0; ) = def D(v1; ) = (D<a; v0> | D<b; v1>) in 0 in 0: once a and b
# become one value or one name, the two calls tie, and only the binders
# over them order them
NESTED_TIE = ("def", ("def", ("par", ("call", ("free", 0), ("bound", 1)), ("call", ("free", 1), ("bound", 0))), ("nil",)), ("nil",))


def test_a_substitution_that_ties_components_under_nested_binders_agrees_with_the_rebuild():
    processes = [build(NESTED_TIE, spell) for spell in (plain, tricky, clashing)]
    # calls of two shapes, which one value makes one
    processes.append(P.parse_process("def D(v0; ) = def D(v1; ) = (D<0; v0> | D<a; v1>) in 0 in 0"))
    for p in processes:
        for x, y in (("a", "b"), ("b", "a"), ("z1", "z0"), ("c", "d")):
            q = P.substitute(p, {"a": P.VarRef(x), "b": P.VarRef(y)})
            for target in (P.NatLit(0), P.VarRef("e")):
                table = InternTable()
                t = table.term(q)
                m = {n: target for n, _ in t.args}
                assert table.subst(t, m) == table.term(P.substitute(table.process(t), m)), (P.format_process(q), m)


# A component of a spine: prefixes on its holes 0-2, each a send of 0 or
# of a hole, or a receive, and then nothing or two sends in parallel.
prefixes = st.tuples(st.sampled_from(("send", "sendch", "recv")), st.integers(0, 2), st.integers(0, 2))
forks = st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2))
templates = st.tuples(st.lists(prefixes, min_size=1, max_size=3), forks)
SPINE_NAMES = ("n0", "n1", "n2", "n3", "n4", "a")  # all but `a` restricted


def _component(template, holes: tuple[str, ...]) -> str:
    """The component ``template`` over ``holes``, restricted ones as format fields."""
    spelled = [n if n == "a" else "{" + n + "}" for n in holes]
    chain, fork = template
    parts = [f"{spelled[i]}!<0>" if tag == "send" else f"{spelled[i]}!<{spelled[j]}>" if tag == "sendch"
             else f"~{spelled[i]}?(y{j})" for tag, i, j in chain]
    return ". ".join(parts + [f"({spelled[fork[0]]}!<1> | {spelled[fork[1]]}!<1>)" if fork else "0"])


@settings(max_examples=100, deadline=None)
@given(st.lists(templates, min_size=1, max_size=3), st.data())
def test_spines_of_few_shapes_have_one_normal_form_and_one_key(kinds, data):
    # up to 10 components of at most 3 shapes, shuffled, their restrictions
    # renamed: many tie, and only a canonical labeling tells them apart
    holes = st.tuples(*[st.sampled_from(SPINE_NAMES)] * 3)
    comps = data.draw(st.lists(st.tuples(st.sampled_from(kinds), holes), min_size=1, max_size=10))
    spellings = _spellings(list(SPINE_NAMES[:-1]), [_component(*c) for c in comps], data.draw(st.integers(0, 9)), 3)
    assert len({P.format_process(normalize(p)) for p in spellings}) == 1
    assert len({make_configuration(p, frozenset({"a"})).key for p in spellings}) == 1
