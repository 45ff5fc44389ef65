"""Independent test oracles: a direct big-step evaluator for the effect
calculus, a deterministic generator of well-typed terms, and full
exploration of the one-step relation.

The evaluator never touches the process machinery, so it can arbitrate the
translation's execution behavior.  Values are plain ints for nat and the
string "unit" for unit.  `full_run` and `full_lts` explore every
interleaving of `semantics.transitions`, folding no eligible chain, so they
are the reference that `semantics.run` and `equivalence.build_lts` reduce.
`reference_configuration` builds a first configuration from the normal
form of the whole process, the route that `semantics.make_configuration`
shortcuts by walking the spine.  `alpha_key` reads alpha-equivalence from
an intern table, normalizing nothing.
"""

from __future__ import annotations

import random

from effsess import embedding
from effsess import process as P
from effsess import semantics as M
from effsess.equivalence import LTS
from effsess.normalize import InternTable
from effsess.terms import Const, Let, OpApp, Program, Term, ValueType, Var, fold


def evaluate(t: Term, env: dict, store):
    """Big-step, left-to-right: returns (value, store')."""
    if isinstance(t, Var):
        return env[t.name], store
    if isinstance(t, Const):
        if t.const == "zero":
            return 0, store
        if t.const == "unit":
            return "unit", store
        if t.const == "get":
            return store, store
        raise ValueError(f"unknown constant {t.const}")
    if isinstance(t, OpApp):
        arg, store = evaluate(t.arg, env, store)
        if t.op == "suc":
            return arg + 1, store
        if t.op == "put":
            return "unit", arg
        raise ValueError(f"unknown operation {t.op}")
    if isinstance(t, Let):
        bound, store = evaluate(t.bound, env, store)
        env2 = dict(env)
        env2[t.name] = bound
        return evaluate(t.body, env2, store)
    raise TypeError(f"not a term: {t!r}")


def evaluate_program(prog: Program):
    store = prog.init if prog.store_type is ValueType.NAT else "unit"
    return evaluate(prog.root, {}, store)


# ------------------------------------------------------------- generation

def gen_pure(rng: random.Random, env: dict, depth: int, want: ValueType) -> Term:
    """A pure term of the wanted type."""
    leaves = []
    if want is ValueType.NAT:
        leaves.append(Const("zero"))
    else:
        leaves.append(Const("unit"))
    for name, tau in env.items():
        if tau is want:
            leaves.append(Var(name))
    if depth <= 0:
        return rng.choice(leaves)
    roll = rng.random()
    if roll < 0.4:
        return rng.choice(leaves)
    if roll < 0.7 and want is ValueType.NAT:
        return OpApp("suc", gen_pure(rng, env, depth - 1, ValueType.NAT))
    name = f"v{len(env)}"
    bound_type = rng.choice([ValueType.NAT, ValueType.UNIT])
    bound = gen_pure(rng, env, depth - 1, bound_type)
    env2 = dict(env)
    env2[name] = bound_type
    return Let(name, bound, gen_pure(rng, env2, depth - 1, want))


def gen_term(rng: random.Random, env: dict, depth: int, want: ValueType | None = None) -> Term:
    """A well-typed, possibly effectful term over a nat store."""
    if want is None:
        want = rng.choice([ValueType.NAT, ValueType.UNIT])
    options = ["leaf"]
    if depth > 0:
        options += ["let", "let", "suc" if want is ValueType.NAT else "put", "get" if want is ValueType.NAT else "put"]
    choice = rng.choice(options)
    if choice == "leaf":
        leaves: list[Term] = []
        if want is ValueType.NAT:
            leaves += [Const("zero"), Const("get")]
        else:
            leaves.append(Const("unit"))
        for name, tau in env.items():
            if tau is want:
                leaves.append(Var(name))
        return rng.choice(leaves)
    if choice == "suc":
        return OpApp("suc", gen_pure(rng, env, depth - 1, ValueType.NAT))
    if choice == "put":
        return OpApp("put", gen_pure(rng, env, depth - 1, ValueType.NAT))
    if choice == "get":
        return Const("get")
    name = f"v{len(env)}"
    bound_type = rng.choice([ValueType.NAT, ValueType.UNIT])
    bound = gen_term(rng, env, depth - 1, bound_type)
    env2 = dict(env)
    env2[name] = bound_type
    return Let(name, bound, gen_term(rng, env2, depth - 1, want))


def gen_program(rng: random.Random, depth: int = 5) -> Program:
    return Program(ValueType.NAT, rng.randrange(3), gen_term(rng, {}, depth))


def corpus(seed: int, count: int, depth: int = 5) -> list[Program]:
    rng = random.Random(seed)
    return [gen_program(rng, depth) for _ in range(count)]


def embedded_corpus(seeds=range(20, 34), count: int = 12, depth: int = 6) -> list[tuple[P.Process, P.Process]]:
    """Each `corpus` program embedded, alone and composed with its store."""
    out = []
    for seed in seeds:
        for prog in corpus(seed, count, depth):
            result = embedding.embed_top(prog)
            store = embedding.initial_store_value(prog)
            out.append((result.process, embedding.compose_with_store(result, store, prog.store_type)))
    return out


# ------------------------------------------------------- full exploration

DOMAIN = (P.NatLit(0), P.NatLit(1))


def full_run(p: P.Process, observables=frozenset({"r"}), store_reader=None) -> tuple[M.Outcome, ...]:
    """``run(p, "all")`` by depth-first search over every executable step,
    deduplicated by state key and emitted values."""
    initial = M.make_configuration(p, observables=observables)
    outcomes, seen, stack = set(), {(initial.key, ())}, [(initial, (), 0)]
    while stack:
        cfg, emitted, steps = stack.pop()
        enabled = [(l, t) for l, t in M.transitions(cfg, DOMAIN) if M._executable(l, observables)]
        if not enabled:
            store = store_reader(cfg) if store_reader is not None else None
            outcomes.add(M.Outcome(emitted, store, P.format_process(cfg.residual_process()), steps))
        for label, target in enabled:
            emitted2 = emitted + (label.value,) if isinstance(label, M.OutVal) else emitted
            if (target.key, emitted2) not in seen:
                seen.add((target.key, emitted2))
                stack.append((target, emitted2, steps + 1))
    return tuple(sorted(outcomes, key=lambda o: (o.residual, str(o.emitted), str(o.store))))


def full_lts(p: P.Process, observables, value_domain=DOMAIN) -> LTS:
    """Breadth-first closure of ``transitions`` with every state keyed."""
    initial = M.make_configuration(p, observables=frozenset(observables))
    index, configs, edges = {initial.key: 0}, [initial], []
    while len(edges) < len(configs):
        out: dict = {}
        for label, target in M.transitions(configs[len(edges)], value_domain):
            if target.key not in index:
                index[target.key] = len(configs)
                configs.append(target)
            out.setdefault(label, set()).add(index[target.key])
        edges.append({label: frozenset(ts) for label, ts in out.items()})
    return LTS(0, edges, [c.key for c in configs], frozenset(observables), False)


def reference_configuration(p: P.Process, observables=frozenset()) -> M.Configuration:
    """The first configuration of ``p``, opened from the normal form of all
    of ``p``: its restrictions are named by the sorted order."""
    table = InternTable()
    return M._assemble([], (), [table.term(p)], (), frozenset(observables), table)


def alpha_key(p: P.Process, table: InternTable, hidden: str | None = None) -> tuple:
    """``p`` up to alpha-equivalence: its root shape, interned node by node
    in ``table`` with no spine normalized, and its free names, the name
    ``hidden`` spelled as one marker.  Two processes get equal keys from
    one table exactly when they are alpha-equivalent, up to type
    annotations and the order of branch arms; definition names count as
    spelled, as they do in `normalize`."""
    t = fold(p, None, lambda q, _: (None, [(kid, None) for kid in P.subterms(q)]),
             lambda q, _, kids: table.node(q, kids))
    return t.shape, tuple((None if n == hidden else n, k) for n, k in t.args)
