import sys
from functools import partial

import pytest

from effsess import embedding
from effsess import semantics as M
from effsess.equivalence import build_lts, weak_bisimilar
from effsess.normalize import _HIDDEN
from effsess.process import (
    Call,
    Def,
    Endpoint,
    NatLit,
    New,
    NIL,
    Par,
    RecvVal,
    SendChan,
    SendVal,
    SucOf,
    VarRef,
    format_process,
    par,
    parse_process,
)
from effsess.semantics import (
    FuelExhausted,
    InVal,
    OutVal,
    RuntimeSafetyViolation,
    SelectL,
    Tau,
    find_store_value,
    format_label,
    make_configuration,
    run,
    transitions,
)
from effsess.terms import ValueType, parse_program

from oracle import corpus, embedded_corpus, full_lts, full_run, reference_configuration
from test_golden import CASES
from test_normalize import TIED, _spellings

NAT = ValueType.NAT


def labels_of(p, observables=frozenset(), domain=(NatLit(0), NatLit(1))):
    cfg = make_configuration(p, observables=frozenset(observables))
    return transitions(cfg, domain)


def test_single_tau_communication():
    out = labels_of(parse_process("new c. (c!<zero>.0 | ~c?(y).0)"))
    assert len(out) == 1
    label, target = out[0]
    assert isinstance(label, Tau)
    assert target.components == ()


def test_visible_output_on_free_channel():
    out = labels_of(parse_process("r!<zero>"), {"r"})
    assert [format_label(l) for l, _ in out] == ["r!<0>"]


def test_select_on_free_channel_matches_get_shape():
    # first visible action of the get operation: select get on the store's
    # opposite endpoint
    p = embedding.get_op(Endpoint("eff").flip(), "x", NIL)
    out = labels_of(p, {"eff"})
    assert [l for l, _ in out] == [SelectL(Endpoint("eff"), "get")]


def test_free_input_enumerates_value_domain():
    out = labels_of(parse_process("c?(x). r!<x>"), {"c", "r"})
    assert [l for l, _ in out] == [InVal(Endpoint("c"), NatLit(0)), InVal(Endpoint("c"), NatLit(1))]


def test_offer_labels_per_branch():
    out = labels_of(parse_process("c >> {get: 0, put: 0}"), {"c"})
    assert sorted(format_label(l) for l, _ in out) == ["c>>get", "c>>put"]


def test_sync_shape_mismatch_raises():
    p = parse_process("new c. (c!<zero> | ~c >> {get: 0})")
    with pytest.raises(RuntimeSafetyViolation):
        labels_of(p)


def test_free_mismatch_is_not_an_error():
    # shape mismatch on a free channel: no sync, just the visible actions
    out = labels_of(parse_process("(c!<zero> | ~c >> {get: 0})"), {"c"})
    assert all(not isinstance(l, Tau) for l, _ in out)


def test_run_store_example():
    prog = parse_program("store nat init 0\nlet x = get in put (suc x)")
    result = embedding.embed_top(prog)
    system = embedding.compose_with_store(result, NatLit(0), NAT)
    outcomes = run(system, "all", store_reader=find_store_value)
    assert len(outcomes) == 1
    (outcome,) = outcomes
    assert outcome.emitted == (parse_process("r!<unit>").value,)
    assert outcome.store == NatLit(1)


def test_store_get_emits_initial_value():
    # composed with get(eff)(x).r!<x>: r emits the initial value
    client = embedding.get_op(Endpoint("eff"), "x", parse_process("r!<x>"))
    agent = embedding.store_agent(NatLit(7), Endpoint("eff"), NAT)
    system = parse_process("0")
    from effsess.process import New, Par

    system = New("eff", None, Par(agent, client))
    outcomes = run(system, "all", store_reader=find_store_value)
    assert len(outcomes) == 1
    assert outcomes[0].emitted == (NatLit(7),)
    assert outcomes[0].store == NatLit(7)


def test_store_put_then_get():
    from effsess.process import New, Par

    client = embedding.put_op(
        Endpoint("eff"),
        NatLit(5),
        embedding.get_op(Endpoint("eff"), "x", parse_process("r!<x>")),
    )
    agent = embedding.store_agent(NatLit(0), Endpoint("eff"), NAT)
    system = New("eff", None, Par(agent, client))
    outcomes = run(system, "all", store_reader=find_store_value)
    assert outcomes[0].emitted == (NatLit(5),)
    assert outcomes[0].store == NatLit(5)


def test_store_value_does_not_depend_on_component_order():
    # of two waiting stores, the least value by its text, in either order
    stores = [embedding.shared_store_agent(NatLit(5), "k", NAT), embedding.shared_store_agent(NatLit(0), "l", NAT)]
    for comps in (stores, stores[::-1]):
        (outcome,) = run(par(*comps), "all", observables=frozenset(), store_reader=find_store_value)
        assert outcome.store == NatLit(0)


def test_distinct_shapes_have_distinct_digests():
    # an encoding of keys that spelled two of them alike would give two
    # shapes of one table one digest
    shapes = 0
    for compose in _composers():
        p = compose()
        for observables in (frozenset({"r"}), frozenset()):
            run(p, "all", observables=observables)
        for cfg in p._configurations.values():
            digests = [s.digest for s in cfg.table._shapes.values()]
            assert len(set(digests)) == len(digests)
            shapes += len(digests)
    assert shapes > 1_000


def test_intro_race_outcomes():
    store = embedding.shared_store_agent(NatLit(0), "k", NAT)
    plus2 = embedding.shared_get("k", "x", embedding.shared_put("k", SucOf(SucOf(VarRef("x"))), NIL))
    plus1 = embedding.shared_get("k", "x", embedding.shared_put("k", SucOf(VarRef("x")), NIL))
    race = par(store, plus2, plus1)
    outcomes = run(race, "all", observables=frozenset(), store_reader=find_store_value)
    assert sorted(o.store.n for o in outcomes) == [1, 2, 3]
    assert outcomes == full_run(race, observables=frozenset(), store_reader=find_store_value)


def test_infinite_call_loop_exhausts_fuel():
    p = parse_process("def X(; c: end) = X<; c> in X<; d>")
    with pytest.raises(FuelExhausted):
        run(p, "all", fuel=10, observables=frozenset())
    with pytest.raises(FuelExhausted):
        run(p, "one", fuel=10, observables=frozenset())


def test_one_schedule_deterministic():
    prog = parse_program("store nat init 0\nlet x = get in let y = get in put (suc x)")
    result = embedding.embed_top(prog)
    system = embedding.compose_with_store(result, NatLit(0), NAT)
    a = run(system, "one", seed=3, store_reader=find_store_value)
    b = run(system, "one", seed=3, store_reader=find_store_value)
    assert a == b


def test_sequential_determinacy_for_pure_terms():
    prog = parse_program("store nat init 0\nlet x = zero in suc (suc x)")
    result = embedding.embed_top(prog)
    system = embedding.compose_with_store(result, NatLit(0), NAT)
    outcomes = run(system, "all", store_reader=find_store_value)
    assert len(outcomes) == 1
    assert outcomes[0].emitted == (NatLit(2),)


def test_transitions_commute_with_normalization():
    p = parse_process("new c. (c!<zero>.r!<unit> | ~c?(y))")
    q = parse_process("new d. (~d?(z) | d!<zero>.r!<unit>)")
    ca = make_configuration(p, observables=frozenset({"r"}))
    cb = make_configuration(q, observables=frozenset({"r"}))
    # keys do not depend on the table, so two explorations agree on them
    assert ca.key == cb.key
    assert format_process(ca.residual_process()) == format_process(cb.residual_process())
    ta = transitions(ca)
    tb = transitions(cb)
    assert [(format_label(l), format_process(t.residual_process())) for l, t in ta] == [
        (format_label(l), format_process(t.residual_process())) for l, t in tb
    ]


def _idle(k: int) -> list:
    """k idle components, half of them blocked on a private channel."""
    return [
        New(f"e{i}", None, SendVal(Endpoint(f"e{i}"), NatLit(i), NIL))
        if i % 2 == 0
        else RecvVal(Endpoint(f"a{i}"), "x", SendVal(Endpoint(f"b{i}"), VarRef("x"), NIL))
        for i in range(k)
    ]


def _idle_and_pair(k: int, messages: int = 4):
    """`_idle` components and a pair that exchanges ``messages`` values on
    a channel of its own."""
    idle = _idle(k)
    sender, receiver = NIL, NIL
    for j in reversed(range(messages)):
        sender = SendVal(Endpoint("c"), NatLit(j), sender)
        receiver = RecvVal(Endpoint("c", True), f"y{j}", receiver)
    return par(*idle, New("c", None, par(sender, receiver)))


def _relay(messages: int):
    """A pair that exchanges ``messages`` values; the receiver hands each
    one on through a private channel before it takes the next."""
    sender, receiver = NIL, NIL
    for j in reversed(range(messages)):
        sender = SendVal(Endpoint("c"), NatLit(j), sender)
        hand_on = par(SendVal(Endpoint("d"), VarRef("y"), NIL), RecvVal(Endpoint("d", True), "z", receiver))
        receiver = RecvVal(Endpoint("c", True), "y", New("d", None, hand_on))
    return New("c", None, par(sender, receiver))


def _misses_per_step(p) -> list[int]:
    """The shapes each step of the one schedule of ``p`` interns."""
    cfg = make_configuration(p)
    counts = []
    while True:
        before = cfg.table.misses
        successors = transitions(cfg)
        if not successors:
            return counts
        counts.append(cfg.table.misses - before)
        ((_, cfg),) = successors


def test_step_cost_does_not_grow_with_untouched_components():
    few, many = _misses_per_step(_idle_and_pair(2)), _misses_per_step(_idle_and_pair(8))
    assert len(few) == len(many) == 4
    assert few == many


def _counting_opens(table) -> list:
    """The terms ``table.open`` is called on from now on."""
    opened, real_open = [], table.open
    table.open = lambda t, names=None: opened.append(t) or real_open(t, names)
    return opened


def _fold_costs(p) -> list[tuple[int, int]]:
    """The heads viewed and the terms opened by each step of the eligible
    chain from the first configuration of ``p``."""
    cfg = make_configuration(p)
    table, costs = cfg.table, []
    opened = _counting_opens(table)
    while True:
        misses, opens = table.view_misses, len(opened)
        link = M._eligible_step(cfg, set())
        if link is None:
            return costs
        cfg = link
        costs.append((table.view_misses - misses, len(opened) - opens))


def test_fold_step_views_and_opens_only_what_it_changes():
    few, many = _fold_costs(_idle_and_pair(2, 20)), _fold_costs(_idle_and_pair(64, 20))
    # a step views the two heads it consumes and opens the two
    # continuations it creates
    assert few == many == [(2, 2)] * 20
    # so does a relay, whose private channels are restricted as they surface
    some, more = (_fold_costs(par(*_idle(k), _relay(8))) for k in (32, 64))
    assert len(some) == 16 and some == more


def _transition_costs(p) -> list[tuple[int, int]]:
    """The heads viewed and the terms opened by each step of the one
    schedule of ``p``."""
    cfg = make_configuration(p)
    table, costs = cfg.table, []
    opened = _counting_opens(table)
    while True:
        misses, opens = table.view_misses, len(opened)
        successors = transitions(cfg)
        if not successors:
            return costs
        costs.append((table.view_misses - misses, len(opened) - opens))
        ((_, cfg),) = successors


def test_transitions_view_only_the_heads_a_step_creates():
    few, many = _transition_costs(_idle_and_pair(2, 20)), _transition_costs(_idle_and_pair(64, 20))
    assert len(few) == len(many) == 20
    # the first call views every head; each later one only the two new
    # ones, and every call opens the two continuations of its one target
    assert few[0] == (4, 2) and many[0] == (66, 2)
    assert set(few[1:]) == set(many[1:]) == {(2, 2)}


def test_step_cost_does_not_grow_with_the_continuation_it_creates():
    # each value received goes into a nested normal form: a few new shapes
    # per step, however long the rest of the exchange is
    short, long = _misses_per_step(_relay(4)), _misses_per_step(_relay(16))
    assert len(short) == 8 and len(long) == 32
    # a receive and a hand-on per message; the last message ends both alike
    assert short[-2:] == long[-2:]
    assert all(steps[i:i + 2] == short[:2] for steps in (short, long) for i in range(0, len(steps) - 2, 2))
    assert 0 < max(short) <= 3


def _store_and_client():
    """A store holding 1 and a client that gets its value and puts it
    back, forever."""
    d = Endpoint("d")
    round_trip = embedding.get_op(d, "v", embedding.put_op(d, VarRef("v"), Call("Client", (), (d,))))
    client = Def("Client", (), (("d", None),), round_trip, Call("Client", (), (Endpoint("c", True),)))
    return New("c", None, par(embedding.store_agent(NatLit(1), Endpoint("c", True), NAT), client))


def test_step_cost_does_not_repeat_for_a_repeated_value():
    # a round unfolds both calls and puts the store's value into the store
    # and into the client; after the first round each of those is a shape
    # and pattern seen before, and a step looks up no node
    cfg = make_configuration(_store_and_client())
    table, seen, first_round = cfg.table, {cfg.key}, 0
    while True:
        cfg = transitions(cfg)[0][1]
        first_round += 1
        if cfg.key in seen:
            break
        seen.add(cfg.key)
    lookups = table.hits + table.misses
    for _ in range(5 * first_round):
        cfg = transitions(cfg)[0][1]
    assert table.hits + table.misses == lookups
    assert table.memo_hits >= 5 * 3


# ------------------------------------------------- first configurations

def test_spine_walk_matches_the_normal_form_route():
    # the two routes make their shapes in other orders; a key lists shape
    # digests, which do not depend on the table
    for pair in embedded_corpus():
        for p in pair:
            for observables in (frozenset({"r"}), frozenset({"r", "eff"})):
                ours, ref = make_configuration(p, observables), reference_configuration(p, observables)
                assert ours.key == ref.key
                assert format_process(ours.residual_process()) == format_process(ref.residual_process())


def test_flat_parallel_builds_no_par_shape():
    a = SendVal(Endpoint("r"), NatLit(0), NIL)
    b = RecvVal(Endpoint("s"), "x", SendVal(Endpoint("r"), VarRef("x"), NIL))
    cfg = make_configuration(par(a, b), frozenset({"r", "s"}))
    assert len(cfg.components) == 2
    assert not any(key[0] is Par for key in cfg.table._shapes)


def test_run_one_on_a_long_composed_chain_at_default_recursion_limit():
    n = 400
    lets = " ".join(f"let x{i} = get in let u{i} = put (suc x{i}) in" for i in range(n))
    prog = parse_program(f"store nat init 0\n{lets} get")
    result = embedding.embed_top(prog)
    system = embedding.compose_with_store(result, embedding.initial_store_value(prog), prog.store_type)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        (outcome,) = run(system, "one", fuel=100_000, store_reader=find_store_value)
    finally:
        sys.setrecursionlimit(limit)
    # each put stores the successor of what the get before it read
    assert outcome.emitted == (NatLit(n),) and outcome.store == NatLit(n)


# ------------------------------------------------------ eligible chains

def test_run_matches_full_exploration():
    for _, system in embedded_corpus():
        every = run(system, "all", store_reader=find_store_value)
        assert every == full_run(system, store_reader=find_store_value)
        for seed in range(5):
            assert set(run(system, "one", seed=seed, store_reader=find_store_value)) <= set(every)


def test_endpoint_in_a_third_component_is_not_folded():
    # two receivers race for the one send on c: no step on c is eligible
    p = parse_process("new c. (c!<zero> | ~c?(y). r!<y> | ~c?(z). r!<suc z>)")
    assert {o.emitted for o in run(p, "all")} == {(NatLit(0),), (NatLit(1),)}


@pytest.mark.parametrize(
    "text",
    [
        "new c. new d. (c!<zero> | ~c >> {get: 0} | d!<zero> | ~d?(y))",  # beside an eligible pair
        "new c. new d. (d!<zero>. c!<zero> | ~d?(y). ~c >> {get: 0})",  # behind one
    ],
)
def test_mismatch_survives_folding(text):
    p = parse_process(text)
    for mode in ("one", "all"):
        with pytest.raises(RuntimeSafetyViolation):
            run(p, mode, observables=frozenset())
    with pytest.raises(RuntimeSafetyViolation):
        build_lts(p, frozenset())


def test_a_value_cannot_fill_a_binder_used_as_an_endpoint():
    # a literal leaves endpoint occurrences alone, so filling such a binder
    # would leave its hidden stand-in in a residual, a label or a state key
    parsed = parse_process("new c. (c!<0> | ~c?(x). x!<1>)")  # a channel receive
    for mode in ("one", "all"):
        with pytest.raises(RuntimeSafetyViolation, match="receive on"):
            run(parsed, mode, observables=frozenset())
    # a?(v0). a!<~v0>. new v1. 0, built with its kinds unresolved
    built = RecvVal(Endpoint("a"), "v0", SendChan(Endpoint("a"), Endpoint("v0", True), New("v1", None, NIL)))
    with pytest.raises(RuntimeSafetyViolation, match="receive on a"):
        labels_of(built, {"a"})
    with pytest.raises(RuntimeSafetyViolation, match="receive on a"):
        build_lts(built, frozenset({"a"}))
    # a variable still renames the binder, endpoint occurrences included
    (outcome,) = run(parse_process("new c. (c!<y> | ~c?(x). x!<1>)"), "all", observables=frozenset({"y"}))
    assert outcome.emitted == (NatLit(1),) and _HIDDEN not in outcome.residual


def test_a_value_cannot_fill_a_binder_used_as_a_shared_name():
    # nor does a literal rename shared occurrences: the residual would
    # accept or request on the binder's hidden stand-in
    for prefix in ("accept", "request"):
        p = parse_process(f"new c. (c!<0> | ~c?(x). {prefix} x(y). y!<1>)")
        assert isinstance(p.body.right, RecvVal)
        for mode in ("one", "all"):
            with pytest.raises(RuntimeSafetyViolation, match="receive on"):
                run(p, mode, observables=frozenset())
        # under another prefix and a binder, as an input from outside
        q = parse_process(f"c?(x). d!<1>. e?(z). {prefix} x(y). y!<z>")
        with pytest.raises(RuntimeSafetyViolation, match="receive on c"):
            build_lts(q, frozenset({"c", "d", "e"}))
        # a variable still renames the binder
        (outcome,) = run(parse_process(f"new c. (c!<k> | ~c?(x). {prefix} x(y). 0)"), "all", observables=frozenset())
        assert outcome.residual == f"{prefix} k(%0)"


def test_fuel_counts_folded_steps():
    chain = _idle_and_pair(0, messages=6)  # one eligible chain of six steps
    for mode in ("one", "all"):
        with pytest.raises(FuelExhausted):
            run(chain, mode, fuel=5, observables=frozenset())
        assert [o.steps for o in run(chain, mode, fuel=6, observables=frozenset())] == [6]
    assert build_lts(chain, frozenset(), fuel=6).partial
    lts = build_lts(chain, frozenset(), fuel=7)
    assert not lts.partial and lts.n_states == 1 and lts.folded == 6


@pytest.mark.parametrize(
    "text, folded",
    [
        ("new c. (c!<zero> | ~c?(y). 0 | a!<c>)", 0),  # a third component sends c
        ("new c. (c!<zero> | ~c?(y). 0 | a?(x). c!<x>)", 0),  # or uses it later
        ("new c. (c!<zero>. ~c?(z). r!<z> | ~c?(y). c!<suc y>)", 2),  # both ends in each
        ("new c. new d. (d!<zero> | ~d?(x). c!<x> | ~c?(y). r!<y>)", 2),  # a pair once d is done
    ],
)
def test_eligibility_counts_every_occurrence(text, folded):
    cfg = make_configuration(parse_process(text), frozenset({"a", "r"}))
    assert M.fold_chain(cfg, 0, 100)[1] == folded


def _no_stand_ins(cfg: M.Configuration) -> None:
    for term in (*cfg.components, *(body for _, (_, _, body) in cfg.defs)):
        assert not any(name.startswith(_HIDDEN) for name, _ in term.args), term


def test_no_stand_in_binder_reaches_a_configuration(monkeypatch):
    # heads are viewed once per table, so their stand-in binders are
    # shared: every one must be filled before its continuation is assembled
    assemble, built = M._assemble, []

    def checked(*args):
        cfg = assemble(*args)
        _no_stand_ins(cfg)
        built.append(len(cfg.components))
        return cfg

    monkeypatch.setattr(M, "_assemble", checked)
    for program, system in embedded_corpus():
        full_run(system, store_reader=find_store_value)
        full_lts(program, {"r", "eff"})
    store = embedding.shared_store_agent(NatLit(0), "k", NAT)
    clients = [
        embedding.shared_get("k", "x", embedding.shared_put("k", SucOf(VarRef("x")), NIL)) for _ in range(3)
    ]
    outcomes = full_run(par(store, *clients), observables=frozenset(), store_reader=find_store_value)
    assert sorted({o.store.n for o in outcomes}) == [1, 2, 3]
    assert len(built) > 1000


# ------------------------------------------------------- one table per system

SCHEDULES = (0, 7, 99)


def _compose(prog):
    """``prog`` composed with its store: a new object, equal to every other
    composition of ``prog``."""
    result = embedding.embed_top(prog)
    return embedding.compose_with_store(result, embedding.initial_store_value(prog), prog.store_type)


def _composers(seeds=range(4), count: int = 10, depth: int = 6):
    """For each `corpus` program, a function that composes it anew."""
    return [partial(_compose, prog) for seed in seeds for prog in corpus(seed, count, depth)]


def test_later_runs_on_one_system_match_a_fresh_system():
    # run keeps a system's first configuration and table for later calls;
    # each answer must be the one a fresh system gives, steps included
    kw = {"store_reader": find_store_value}
    for compose in _composers():
        every = run(compose(), "all", **kw)
        one = {s: run(compose(), "one", seed=s, **kw) for s in SCHEDULES}
        silent = run(compose(), "all", observables=frozenset(), **kw)
        p = compose()
        assert run(p, "all", **kw) == every
        for s in SCHEDULES:  # one after all
            assert run(p, "one", seed=s, **kw) == one[s]
        assert run(p, "all", **kw) == every  # a second all
        assert run(p, "all", observables=frozenset(), **kw) == silent  # other observables
        q = compose()
        assert run(q, "all", observables=frozenset(), **kw) == silent
        assert run(q, "one", seed=SCHEDULES[1], **kw) == one[SCHEDULES[1]]  # the default set after another
        assert run(q, "all", **kw) == every  # all after one


def _exhausted(p, mode: str, fuel: int, **kw) -> M.Outcome:
    with pytest.raises(FuelExhausted) as info:
        run(p, mode, fuel=fuel, **kw)
    return info.value.partial


def test_fuel_is_counted_afresh_on_one_system():
    # a run keeps the end of its first configuration's chain only if the
    # chain ended on its own, and a later run reuses it only below its own
    # fuel; else it folds the kept first configuration again
    kw = {"store_reader": find_store_value}
    tried = 0
    for compose in _composers():
        every = run(compose(), "all", **kw)
        if min(o.steps for o in every) <= 2:
            continue
        short = {mode: _exhausted(compose(), mode, 2, **kw) for mode in ("all", "one")}
        p = compose()
        for mode in ("all", "one"):
            assert _exhausted(p, mode, 2, **kw) == short[mode]
        assert run(p, "all", **kw) == every
        assert run(p, "one", seed=7, **kw) == run(compose(), "one", seed=7, **kw)
        q = compose()
        assert run(q, "all", **kw) == every
        for mode in ("all", "one"):  # a small fuel after the default
            assert _exhausted(q, mode, 2, **kw) == short[mode]
        tried += 1
    assert tried > 10


def test_one_configuration_per_system(monkeypatch):
    made = []

    def counted(*args, **kwargs):
        made.append(args[0])
        return make_configuration(*args, **kwargs)

    monkeypatch.setattr(M, "make_configuration", counted)
    compose = _composers(seeds=[0], count=1)[0]
    p = compose()
    run(p, "one", seed=3)
    every = run(p, "all")
    assert run(p, "all", observables={"r"}) == every  # any collection of names, as build_lts takes
    assert len(made) == 1
    made.clear()
    a, b = compose(), compose()
    assert a == b and a is not b
    run(a, "all")
    run(b, "all")
    assert len(made) == 2


def test_unknown_mode_is_refused_before_any_work(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a configuration was built")

    monkeypatch.setattr(M, "make_configuration", refused)
    p = _store_and_client()
    before = dict(vars(p))
    with pytest.raises(ValueError, match="unknown mode"):
        run(p, "bogus")
    assert vars(p) == before


def test_build_lts_after_run_matches_a_fresh_system():
    # a table shared with earlier runs holds their shapes too; the LTS, its
    # keys included, is the one a fresh table gives
    def race():
        store = embedding.shared_store_agent(NatLit(0), "k", NAT)
        incs = (SucOf(VarRef("x")), SucOf(SucOf(VarRef("x"))), SucOf(VarRef("x")))
        return par(store, *(embedding.shared_get("k", "x", embedding.shared_put("k", v, NIL)) for v in incs))

    cases = [(race, frozenset())] + [(compose, frozenset({"r"})) for compose in _composers(seeds=[0], count=6)]
    for compose, observables in cases:
        p = compose()
        run(p, "all", observables=observables)
        warm, fresh = build_lts(p, observables), build_lts(compose(), observables)
        assert (warm.keys, warm.edges, warm.n_states) == (fresh.keys, fresh.edges, fresh.n_states)


def test_a_sent_restricted_name_is_extruded():
    # r!<c> sends the restricted c: it leaves as the first fresh name @0,
    # which the other component then receives on from outside
    lts = build_lts(parse_process("new c. (r!<c> | ~c?(x). r!<x>)"), {"r"})
    edges = [{format_label(l): sorted(ts) for l, ts in out.items()} for out in lts.edges]
    assert edges == [{"r!<@0>": [1]}, {"~@0?(0)": [2], "~@0?(1)": [3]}, {"r!<0>": [4]}, {"r!<1>": [4]}, {}]
    assert lts.folded == 0


@pytest.mark.parametrize(
    "text, reason",
    [
        ("new c. (c <+ m | ~c >> {l: 0})", "selected label m is not offered on ~#0"),
        ("new c. (c <+ l | ~c?(y))", "select on #0 meets RecvVal"),
        ("new c. (~c?(y) | c <+ l)", "select on #0 meets RecvVal"),  # the select listed second
    ],
)
def test_a_select_its_partner_cannot_take_is_a_violation(text, reason):
    p = parse_process(text)
    cfg = make_configuration(p)
    assert M.fold_chain(cfg, 0, 100)[1] == 0
    with pytest.raises(RuntimeSafetyViolation, match=reason):
        transitions(cfg)
    with pytest.raises(RuntimeSafetyViolation, match=reason):
        build_lts(p, frozenset())
    for mode in ("one", "all"):
        with pytest.raises(RuntimeSafetyViolation, match=reason):
            run(p, mode, observables=frozenset())


@pytest.mark.parametrize("text", ["new c. (c?(x) | ~c?(y))", "new c. (c >> {l: 0} | ~c?(y))"])
def test_two_passive_ends_are_stuck(text):
    # neither end sends or selects: no step, no violation, nothing folded
    p = parse_process(text)
    cfg = make_configuration(p)
    assert transitions(cfg) == []
    assert M.fold_chain(cfg, 0, 100) == (cfg, 0)
    lts = build_lts(p, frozenset())
    assert (lts.n_states, lts.edges, lts.folded) == (1, [{}], 0)
    (outcome,) = run(p, "all", observables=frozenset())
    assert outcome.steps == 0 and outcome.residual.startswith("new #0. ")


@pytest.mark.parametrize("label", sorted(TIED))
def test_tied_components_have_one_state_key(label):
    keys = {make_configuration(p, frozenset({"r"})).key for p in _spellings(*TIED[label](), label)}
    assert len(keys) == 1


@pytest.mark.parametrize("k", [6, 7, 8, 10])
def test_independent_clients_have_one_state_per_multiset_of_positions(k):
    # each client sends on r, then passes 0 to its partner, which sends it
    # on s: up to congruence a state is how many clients are at each of
    # three positions, in every spelling
    names = [f"c{i}" for i in range(k)]
    pairs = [f"r!<0>. {{c{i}}}!<0>. 0" for i in range(k)] + [f"~{{c{i}}}?(y). s!<y>. 0" for i in range(k)]
    for p in _spellings(names, pairs, k, count=3):
        assert build_lts(p, {"r", "s"}).n_states == (k + 1) * (k + 2) // 2


# ------------------------------------------------------------ call unfolding

def _expanded(monkeypatch, explore) -> list[tuple[M.Configuration, list]]:
    """Each configuration ``explore`` calls `transitions` on, and its steps."""
    real, seen = M.transitions, []

    def recorded(cfg, *args):
        out = real(cfg, *args)
        seen.append((cfg, out))
        return out

    monkeypatch.setattr(M, "transitions", recorded)
    explore()
    monkeypatch.setattr(M, "transitions", real)
    return seen


def _only_unfolding(cfg: M.Configuration, out: list) -> bool:
    """Whether the one step of ``cfg`` unfolds a call: a call head always
    has its unfolding among the steps."""
    return len(out) == 1 and any(type(cfg.table.head(c)) is Call for c in cfg.components)


@pytest.mark.parametrize("label", ["intro-race", "private-worlds"])
def test_no_expanded_state_only_unfolds_a_call(monkeypatch, label):
    # a call unfolding is folded into the chain that reaches it, so no
    # state is kept whose one step is that unfolding; the full relation has
    # such states, so the check is not vacuous
    build, run_obs, lts_obs = CASES[label]
    explorations = {
        "run": lambda: run(build(), "all", observables=run_obs),
        "build_lts": lambda: build_lts(build(), lts_obs),
        "full_lts": lambda: full_lts(build(), lts_obs),
    }
    found = {name: [_only_unfolding(*s) for s in _expanded(monkeypatch, x)] for name, x in explorations.items()}
    assert any(found["full_lts"])
    assert found["run"] and found["build_lts"]
    assert not any(found["run"]) and not any(found["build_lts"])


DIVERGENT = ["def X(;) = X<;> in X<;>", "def X(;) = new c. (c!<0>. 0 | ~c?(y). X<;>) in X<;>"]


@pytest.mark.parametrize("text", DIVERGENT)
def test_a_definition_that_calls_itself_diverges(text):
    # a chain unfolds a definition once, so it ends, and the loop shows as
    # a cycle of kept states
    p = parse_process(text)
    with pytest.raises(FuelExhausted, match="execution diverges"):
        run(p, "all", observables=frozenset())
    with pytest.raises(FuelExhausted):
        run(p, "one", fuel=60, observables=frozenset())
    lts = build_lts(p, frozenset())
    assert not lts.partial
    assert weak_bisimilar(lts, full_lts(p, frozenset())).equivalent


@pytest.mark.parametrize("text, reason", [
    ("Y<;>", "unknown definition 'Y'"),
    ("def X(v;) = r!<v>. 0 in X<;>", "arity mismatch calling 'X'"),
])
def test_an_unsafe_call_is_not_folded_but_reported(text, reason):
    p = parse_process(text)
    assert M.fold_chain(make_configuration(p, frozenset({"r"})), 0, 100)[1] == 0
    for mode in ("one", "all"):
        with pytest.raises(RuntimeSafetyViolation, match=reason):
            run(p, mode)
    with pytest.raises(RuntimeSafetyViolation, match=reason):
        build_lts(p, frozenset({"r"}))


@pytest.mark.parametrize("body, folded", [("0", False), ("c!<0>. 0", True)])
def test_an_unfolding_that_drops_a_received_name_is_not_folded(body, folded):
    # dropping @0 would let the second input draw @0 again, not @1
    p = parse_process(f"def X(; c) = {body} in r?(c). (X<; c> | r?(d). d!<0>)")
    lts = build_lts(p, {"r"})
    assert weak_bisimilar(lts, full_lts(p, {"r"})).equivalent
    (received,) = [t for label, t in transitions(make_configuration(p, frozenset({"r"}))) if str(label.name) == "@0"]
    assert M.fold_chain(received, 0, 100)[1] == folded


def _counting_eligible(monkeypatch) -> list:
    """A list that grows by one on each `_eligible_step` call from now on."""
    real, calls = M._eligible_step, []
    monkeypatch.setattr(M, "_eligible_step", lambda *args: calls.append(None) or real(*args))
    return calls


@pytest.mark.parametrize("label", ["corpus-0", "corpus-4", "corpus-9", "intro-race", "private-worlds"])
def test_a_later_run_starts_from_the_kept_chain_end(monkeypatch, label):
    # a second run of one system folds its initial chain no more: it calls
    # `_eligible_step` as often as a first run less the calls of that chain
    build, run_obs, _ = CASES[label]
    start = M.fold_chain(make_configuration(build(), run_obs), 0, 10_000)[1]
    calls = _counting_eligible(monkeypatch)
    first = run(build(), "all", observables=run_obs)
    alone = len(calls)
    for before in ("all", "one"):
        p = build()
        run(p, before, observables=run_obs)
        calls.clear()
        assert run(p, "all", observables=run_obs) == first
        assert len(calls) == alone - (start + 1)


def _answer(p, mode: str, **kw):
    """The outcomes of ``run``, or the message and partial outcome of the
    `FuelExhausted` it raises."""
    try:
        return run(p, mode, **kw)
    except FuelExhausted as exhausted:
        return str(exhausted), exhausted.partial


@pytest.mark.parametrize("label", ["corpus-0", "corpus-4", "corpus-9"])
@pytest.mark.parametrize("fuel", [1, 3, 8])
def test_a_kept_chain_end_is_reused_only_below_the_fuel(monkeypatch, label, fuel):
    # a chain cut by a small fuel is not kept, and a kept end is not reused
    # by a run whose fuel it reaches: each answer is a fresh system's, and
    # so is the number of states it expands
    build, run_obs, _ = CASES[label]
    kw = {"observables": run_obs, "store_reader": find_store_value}

    def answer(p, mode: str, **more):
        got = []
        expanded = _expanded(monkeypatch, lambda: got.append(_answer(p, mode, **kw, **more)))
        return got[0], len(expanded)

    assert M.fold_chain(make_configuration(build(), run_obs), 0, 10_000)[1] > 0
    for mode in ("all", "one"):
        short, default = answer(build(), mode, fuel=fuel), answer(build(), mode)
        p = build()
        assert answer(p, mode) == default
        assert answer(p, mode, fuel=fuel) == short
        q = build()
        assert answer(q, mode, fuel=fuel) == short
        assert answer(q, mode) == default
