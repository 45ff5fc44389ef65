"""The four workloads.  Each builds its items from the seed; an item is one
call into ``effsess`` (timed) plus a reference check (not timed).

Every workload fixes the *shape* of its inputs (sizes, client counts, rule
mix) and lets the seed choose the content, so one pass costs about the same
on every seed while no two seeds run the same programs.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import oracle
import reference as R
from effsess import embedding, equivalence, semantics, terms
from effsess import process as P
from effsess.equations import RULES, RewriteError, apply_equation
from effsess.terms import Const, Let, OpApp, Program, ValueType, Var

# The package re-exports these functions under their modules' names, so
# ``from effsess import infer`` would give the function, not the module.
infer, normalize, session_check = (
    importlib.import_module(f"effsess.{name}") for name in ("infer", "normalize", "session_check")
)

NAT = ValueType.NAT
TOP_OBS = frozenset({embedding.RESERVED_RESULT, embedding.RESERVED_EFFECT})
DOMAIN = (0, 1)


@dataclass
class Item:
    label: str
    call: Callable[[], object]
    # reason string when the answer disagrees with the reference, else None
    check: Callable[[object], str | None]
    # an answer matching a documented baseline defect (see README)
    known_defect: Callable[[object], bool] = lambda answer: False


def _plain(v):
    if isinstance(v, P.NatLit):
        return v.n
    if isinstance(v, P.UnitLit):
        return "unit"
    return repr(v)


def _stratified(candidates, quotas: dict, key, keep=lambda t: True) -> list[Program]:
    """Keep each candidate program that ``keep`` accepts while the quota of
    its ``key`` has room, until every quota is met."""
    kept: dict = {k: [] for k in quotas}
    missing = sum(quotas.values())
    for tries, prog in enumerate(candidates):
        if not missing:
            break
        if tries > 100_000:
            raise RuntimeError("quotas not met; the generator changed")
        k = key(prog.root)
        if k in kept and len(kept[k]) < quotas[k] and keep(prog.root):
            kept[k].append(prog)
            missing -= 1
    return [p for k in quotas for p in kept[k]]


def _generated(rng: random.Random, depths, generate):
    """Generator output, round-robin over ``depths``."""
    return (generate(rng, depths[i % len(depths)]) for i in itertools.count())


# ------------------------------------------------------------ compile-chain

# Dense at the cheap end, so that many items lie near the median latency;
# short enough that two passes fit in a 25 s run.  The median chain, n=8,
# also runs with the two other initial stores, so that the median latency
# rests on six calls per run and not on two; as many items lie above it as
# below.
CHAIN_LADDER = (*range(1, 15), 32, 40)
MEDIAN_CHAIN = 8
DEEP_CHAIN = 500


def compile_chain(seed: int) -> list[Item]:
    """The static pipeline on get/put chains; nothing executes."""
    init = random.Random(seed).randrange(3)
    items = [_chain_item(n, init, idempotence=(n == CHAIN_LADDER[0])) for n in CHAIN_LADDER]
    for other in ((init + 1) % 3, (init + 2) % 3):
        items.append(_chain_item(MEDIAN_CHAIN, other, False, f"chain-{MEDIAN_CHAIN}-store{other}"))
    items.append(_deep_front_end_item(DEEP_CHAIN, init))
    return items


def _chain_item(n: int, init: int, idempotence: bool, label: str = "") -> Item:
    text = R.chain_source(n, init)

    def call():
        prog = terms.parse_program(text)
        typing = infer.infer({}, prog.store_type, prog.root)
        result = embedding.embed_top(prog)
        session_check.session_check(session_check.ProcEnv(), result.delta, result.process)
        system = embedding.compose_with_store(result, embedding.initial_store_value(prog), prog.store_type)
        return typing, normalize.normalize(system)

    def check(answer):
        typing, normal = answer
        reason = R.check_chain_typing(n, typing)
        if reason is None and idempotence and normalize.normalize(normal) != normal:
            reason = f"chain n={n}: normalize is not idempotent"
        return reason

    return Item(label or f"chain-{n}", call, check)


def _deep_front_end_item(n: int, init: int) -> Item:
    text = R.chain_source(n, init)

    def call():
        prog = terms.parse_program(text)
        return infer.infer({}, prog.store_type, prog.root), terms.format_term(prog.root)

    def check(answer):
        typing, printed = answer
        reason = R.check_chain_typing(n, typing)
        if reason is None and printed != R.chain_printed(n):
            reason = f"chain n={n}: format_term output differs from the source"
        return reason

    return Item(f"deep-front-end-{n}", call, check)


# -------------------------------------------------------------- exec-corpus

# Run time grows with term size (log-log correlation 0.96 over 120
# programs), and at equal size with the number of effects, so a fixed quota
# per (size, effects) keeps the cost of a pass and its median item about the
# same on every seed.  The quotas follow the generator's own distribution up
# to 14 nodes, which covers 79% of its output; above 5 nodes, by size only.
EXEC_QUOTAS = {
    (1, 0): 14, (1, 1): 19, (2, 0): 6, (2, 1): 9, (3, 0): 3, (3, 1): 7,
    (4, 0): 2, (4, 1): 4, (4, 2): 1, (5, 0): 1, (5, 1): 3, (5, 2): 1,
    **{size: 3 for size in range(6, 15)},
}
EXEC_DEPTHS = (5, 6, 7)


def _exec_key(t):
    size = R.node_count(t)
    return (size, R.effect_count(t)) if size <= 5 else size


# Depth-7 corpus programs on which run("all") reports an outcome that never
# emitted the result: corpus(seed, ., 7)[index].
CONFIRMED_DEFECTS = ((77, 9), (77, 25), (79, 27))


def exec_programs(seed: int) -> list[Program]:
    progs = _stratified(_generated(random.Random(seed), EXEC_DEPTHS, oracle.gen_program), EXEC_QUOTAS, _exec_key)
    return progs + [oracle.corpus(s, i + 1, 7)[i] for s, i in CONFIRMED_DEFECTS]


def exec_corpus(seed: int) -> list[Item]:
    """Random well-typed programs through the `effsess run` user path."""
    schedules = random.Random(~seed)
    return [_exec_item(f"prog-{k}", prog, schedules.randrange(1 << 16))
            for k, prog in enumerate(exec_programs(seed))]


def program_text(prog: Program) -> str:
    return f"store nat init {prog.init}\n{R.source_text(prog.root)}"


def _exec_item(label: str, prog: Program, schedule_seed: int) -> Item:
    text = program_text(prog)
    value, store = oracle.evaluate_program(prog)
    expected = ((value,), store)

    def call():
        parsed = terms.parse_program(text)
        infer.infer({}, parsed.store_type, parsed.root)
        result = embedding.embed_top(parsed)
        session_check.session_check(session_check.ProcEnv(), result.delta, result.process)
        system = embedding.compose_with_store(
            result, embedding.initial_store_value(parsed), parsed.store_type
        )
        reader = semantics.find_store_value
        one = semantics.run(system, "one", seed=schedule_seed, store_reader=reader)
        every = semantics.run(system, "all", store_reader=reader)
        return one, every

    def observed(outcomes):
        return [(tuple(_plain(v) for v in o.emitted), None if o.store is None else _plain(o.store))
                for o in outcomes]

    def check(answer):
        one, every = (observed(outcomes) for outcomes in answer)
        if one != [expected] or every != [expected]:
            return f"{label}: one={one} all={every}, expected {[expected]}"
        return None

    def known_defect(answer):
        # besides the reference outcome, only outcomes that never emitted a result
        one, every = (observed(outcomes) for outcomes in answer)
        missing = [o for o in every if o != expected]
        return bool(missing) and all(o[0] == () for o in missing) and one[0] in every

    return Item(label, call, check, known_defect)


# ------------------------------------------------------------- race-explore

# (clients, distinct increments?, races per pass).  Increments with distinct
# subset sums never let two interleavings meet in one store value, so the
# state space depends on the client count alone; equal increments make the
# clients interchangeable, which the configuration dedup folds.  Most races
# share one shape, so the median latency lies inside that group.
RACE_SHAPES = ((3, False, 2), (3, True, 9), (4, True, 1))


def race_explore(seed: int) -> list[Item]:
    """The intro shared-store race, widened to 3 and 4 clients."""
    rng = random.Random(seed)
    items = []
    for clients, distinct, count in RACE_SHAPES:
        for _ in range(count):
            if distinct:
                while True:
                    incs = tuple(rng.randint(1, 9) for _ in range(clients))
                    if R.distinct_subset_sums(incs):
                        break
            else:
                incs = (rng.randint(1, 9),) * clients
            items.append(_race_item(len(items), rng.randrange(3), incs))
    return items


def _increment(k: int) -> P.Value:
    v: P.Value = P.VarRef("x")
    for _ in range(k):
        v = P.SucOf(v)
    return v


def _race_item(index: int, init: int, increments: tuple[int, ...]) -> Item:
    store = embedding.shared_store_agent(P.NatLit(init), "k", NAT)
    clients = [
        embedding.shared_get("k", "x", embedding.shared_put("k", _increment(inc), P.NIL))
        for inc in increments
    ]
    system = P.par(store, *clients)

    def call():
        return semantics.run(
            system, "all", observables=frozenset(), store_reader=semantics.find_store_value
        )

    def check(outcomes):
        if any(o.emitted or o.store is None for o in outcomes):
            return f"race {increments}: an outcome emitted values or lost the store"
        return R.check_race(init, increments, {_plain(o.store) for o in outcomes})

    return Item(f"race-{index}-{'-'.join(map(str, increments))}", call, check)


# ------------------------------------------------------------- verify-pairs

PAIR_DEPTHS = (3, 4)
# Pairs per kind; each kind takes 40% of its terms from sizes 5-7, 40% from
# 8-9 and the rest from 10-12.  Below 5 nodes no term has two nested lets,
# which most rules and the optimizer need.
REWRITES = {"assoc": 16, "assoc_inv": 16, "comm": 16, "unitL": 12, "unitR": 16, "unitR_inv": 24}
OPTIMIZER_PAIRS = CONTROLS = 20


def _size_band(t):
    size = R.node_count(t)
    return 0 if 5 <= size <= 7 else 1 if 8 <= size <= 9 else 2 if 10 <= size <= 12 else None


def _band_quotas(count: int) -> dict:
    small = mid = round(0.4 * count)
    return {0: small, 1: mid, 2: count - small - mid}


def verify_pairs(seed: int) -> list[Item]:
    """Translation validation: rewrites and optimizer output must be weakly
    bisimilar to their source, and negative controls must not be."""
    rng = random.Random(seed)
    stream = (p for p in _generated(rng, PAIR_DEPTHS, _gen_closed) if _size_band(p.root) is not None)
    # One stream of terms feeds every kind; a term serves one pair at most.
    pool: list[Program] = []
    taken: set[int] = set()

    def candidates():
        for i in itertools.count():
            if i == len(pool):
                pool.append(next(stream))
            if id(pool[i]) not in taken:
                yield pool[i]

    def sample(count, keep):
        chosen = _stratified(candidates(), _band_quotas(count), _size_band, keep)
        taken.update(map(id, chosen))
        return [p.root for p in chosen]

    items = []
    for rule, count in REWRITES.items():
        for k, t in enumerate(sample(count, lambda t: bool(_rewrites(t, rule)))):
            items.append(_pair_item(f"rewrite-{rule}-{k}", t, rng.choice(_rewrites(t, rule)), True))
    for k, t in enumerate(sample(OPTIMIZER_PAIRS, R.commuting_let)):
        items.append(_optimizer_item(f"optimize-{k}", t))
    for k, t in enumerate(sample(CONTROLS, lambda t: bool(_mutants(t)))):
        items.append(_pair_item(f"control-{k}", t, rng.choice(_mutants(t)), False))
    return items


def _gen_closed(rng: random.Random, depth: int) -> Program:
    return Program(NAT, 0, oracle.gen_term(rng, {}, depth))


def _rewrites(t, rule: str) -> list:
    """``rule`` applied at each position where its shape and side conditions hold."""
    out = []
    for pos in range(R.node_count(t)):
        try:
            out.append(apply_equation(t, rule, pos, {}, NAT))
        except RewriteError:
            continue
    return out


def _mutants(t) -> list:
    """Single edits (``zero`` to ``suc zero``, ``suc M`` to ``M``, ``put M``
    to ``put (suc M)``) that change the observable traces."""
    edits = []

    def walk(node, rebuild):
        if isinstance(node, Const) and node.const == "zero":
            edits.append(rebuild(OpApp("suc", node)))
        if isinstance(node, OpApp):
            edits.append(rebuild(OpApp(node.op, OpApp("suc", node.arg)) if node.op == "put" else node.arg))
            walk(node.arg, lambda n, node=node: rebuild(OpApp(node.op, n)))
        if isinstance(node, Let):
            walk(node.bound, lambda n, node=node: rebuild(Let(node.name, n, node.body)))
            walk(node.body, lambda n, node=node: rebuild(Let(node.name, node.bound, n)))

    walk(t, lambda n: n)
    before = R.observable_traces(t, DOMAIN)
    return [m for m in edits if R.observable_traces(m, DOMAIN) != before]


def _bisim(left: P.Process, right: P.Process):
    a = equivalence.build_lts(left, TOP_OBS, tuple(P.NatLit(v) for v in DOMAIN))
    b = equivalence.build_lts(right, TOP_OBS, tuple(P.NatLit(v) for v in DOMAIN))
    verdict = equivalence.weak_bisimilar(a, b)
    return verdict.equivalent, verdict.formatted_trace()


def _pair_item(label: str, lhs, rhs, expect_equivalent: bool) -> Item:
    def call():
        return _bisim(
            embedding.embed_top(Program(NAT, 0, lhs)).process,
            embedding.embed_top(Program(NAT, 0, rhs)).process,
        )

    def check(answer):
        same = R.observable_traces(lhs, DOMAIN) == R.observable_traces(rhs, DOMAIN)
        if same != expect_equivalent:
            return f"{label}: the rewritten term does not behave like its source"
        reason = R.check_verdict(expect_equivalent, *answer)
        return reason and f"{label}: {reason}"

    def known_defect(answer):
        # the missing-result defect of exec-corpus (see README) splits a pair
        # that should be bisimilar
        return expect_equivalent and not answer[0] and any(map(_loses_result, (lhs, rhs)))

    return Item(label, call, check, known_defect)


def _loses_result(t) -> bool:
    """Some run of ``t`` against a store in the value domain ends without
    sending the result."""
    for init in DOMAIN:
        prog = Program(NAT, init, t)
        system = embedding.compose_with_store(embedding.embed_top(prog), embedding.initial_store_value(prog), NAT)
        if any(not o.emitted for o in semantics.run(system, "all", store_reader=semantics.find_store_value)):
            return True
    return False


def _optimizer_item(label: str, t) -> Item:
    prog = Program(NAT, 0, t)

    def call():
        default = embedding.embed_top(prog).process
        optimized = embedding.embed_top(prog, optimize=True).process
        return optimized != default, *_bisim(default, optimized)

    def check(answer):
        fired, equivalent, trace = answer
        if not fired:
            return f"{label}: the optimizer left a commuting let unchanged"
        return R.check_verdict(True, equivalent, trace)

    return Item(label, call, check)


# ------------------------------------------------------- traced-run probes

CALIBRATION = Program(NAT, 1, Let("x", Const("get"), OpApp("put", OpApp("suc", Var("x")))))


def calibration_item() -> Item:
    """One small program through every traced layer, so that each traced
    pass measures every layer, including those its workload never calls."""
    ran = _exec_item("calibration", CALIBRATION, 0)
    rhs = Let("y", CALIBRATION.root, Var("y"))  # unitR read right to left

    def call():
        system = embedding.compose_with_store(embedding.embed_top(CALIBRATION), P.NatLit(1), NAT)
        normalize.normalize(system)
        return ran.call(), _bisim(embedding.embed_top(CALIBRATION).process,
                                  embedding.embed_top(Program(NAT, 1, rhs)).process)

    def check(answer):
        outcomes, verdict = answer
        return ran.check(outcomes) or R.check_verdict(True, *verdict)

    return Item("calibration", call, check)


def cli_item(label: str, prog: Program, root, workdir) -> Item:
    """`effsess --json run --all-schedules` in a fresh interpreter."""
    value, store = oracle.evaluate_program(prog)

    def call():
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"{label}.eff"
        path.write_text(program_text(prog))
        try:
            out = subprocess.run(
                [sys.executable, "-m", "effsess.cli", "--json", "run", "--all-schedules", str(path)],
                cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
                capture_output=True, text=True, timeout=120, check=True,
            )
        finally:
            path.unlink()
        return [json.loads(line) for line in out.stdout.splitlines()]

    def check(records):
        got = [(tuple(r["result_values"]), r.get("store")) for r in records]
        return None if got == [((value,), store)] else f"{label}: the CLI printed {got}"

    return Item(label, call, check)


WORKLOADS = {
    "compile-chain": compile_chain,
    "exec-corpus": exec_corpus,
    "verify-pairs": verify_pairs,
    "race-explore": race_explore,
}
