"""Golden verdict table for ``session_check``.

Verdicts are frozen from the checker that split the linear environment by
free names at every parallel composition, before it was replaced by the
leftover-context checker, so that threading the environment cannot change
an answer.  The cases come from ``oracle.corpus`` seeds 0-3 (50 programs
each, depth 6); the groups:

- ``plain`` / ``optimized``: the embedding, plain and with the
  commuting-let optimizer, under its own delta.
- ``store``: the plain embedding composed with its store agent, under the
  result endpoint alone.
- ``retyped``: the plain embedding with ``r`` retyped (nat and unit swapped).
- ``dropped``: the plain embedding with ``eff`` dropped from delta.
- ``naive``: the naive parallel encoding of consecutive program pairs.
- ``mutant``: three seeded one-node mutants of each plain embedding: a
  subterm replaced by ``0``, a subterm ``Q`` replaced by ``Q | Q``, and a
  prefix dropped (replaced by its continuation).

Every ``store`` case is rejected with ``duality``: the program side only
delegates ``eff``, so synthesis gives that endpoint ``end``, which is not
dual to the store's type.

Each verdict is one letter: ``.`` for accepted, else the error kind's
letter from ``KIND_LETTERS``.  Mutants pin only accept (``.``) or reject
(``x``): a mutant may carry two faults, and which is reported first
depends on the order the checker visits them in.
"""

import random

from effsess import embedding
from effsess import process as P
from effsess.infer import infer
from effsess.session_check import ProcEnv, SessionTypeError, session_check
from effsess.sessions import END, Send
from effsess.terms import ValueType

from oracle import corpus

NAT, UNIT = ValueType.NAT, ValueType.UNIT
EFF, R = P.Endpoint("eff"), P.Endpoint("r")
SEEDS = range(4)
PREFIXES = (P.RecvVal, P.SendVal, P.RecvChan, P.SendChan, P.Select)

KIND_LETTERS = {
    "annotation": "A",
    "arity": "R",
    "duality": "D",
    "label": "B",
    "leftover": "L",
    "linearity": "N",
    "payload": "P",
    "shape": "S",
    "unbound": "U",
}


def programs(seed: int):
    return corpus(seed, 50, depth=6)


def verdict(delta, p, exact: bool = True) -> str:
    try:
        session_check(ProcEnv(), delta, p)
    except SessionTypeError as exc:
        return KIND_LETTERS[exc.kind] if exact else "x"
    return "."


def positions(p: P.Process) -> list[P.Process]:
    """Every subterm of ``p``, in pre-order."""
    out, stack = [], [p]
    while stack:
        q = stack.pop()
        out.append(q)
        stack.extend(reversed(P.subterms(q)))
    return out


def replace_at(p: P.Process, k: int, f) -> P.Process:
    """``p`` with its ``k``-th subterm in pre-order ``q`` replaced by ``f(q)``."""

    def go(q: P.Process, index: int) -> tuple[P.Process, int]:
        if index == k:
            return f(q), index + len(positions(q))
        index += 1
        kids = []
        for kid in P.subterms(q):
            kid, index = go(kid, index)
            kids.append(kid)
        return P.with_subterms(q, kids), index

    return go(p, 0)[0]


def mutate(p: P.Process, kind: str, rng: random.Random) -> P.Process:
    nodes = positions(p)
    if kind == "drop":
        prefixes = [k for k, q in enumerate(nodes) if isinstance(q, PREFIXES)]
        return replace_at(p, rng.choice(prefixes), lambda q: q.cont)
    k = rng.randrange(len(nodes))
    if kind == "nil":
        return replace_at(p, k, lambda q: P.NIL)
    return replace_at(p, k, lambda q: P.Par(q, q))


def group_verdicts(group: str, seed: int) -> str:
    progs = programs(seed)
    if group == "naive":
        out = []
        for m, n in zip(progs[0::2], progs[1::2]):
            naive = embedding.naive_parallel_encode(m.root, n.root)
            delta = {EFF: embedding.effect_to_session(infer({}, NAT, m.root)[1]), R: Send(NAT, END)}
            out.append(verdict(delta, naive))
        return "".join(out)
    if group == "mutant":
        rng = random.Random(1000 + seed)
        out = []
        for prog in progs:
            result = embedding.embed_top(prog)
            for kind in ("nil", "dup", "drop"):
                out.append(verdict(result.delta, mutate(result.process, kind, rng), exact=False))
        return "".join(out)
    out = []
    for prog in progs:
        result = embedding.embed_top(prog, optimize=group == "optimized")
        delta, p = dict(result.delta), result.process
        if group == "store":
            delta = {R: delta[R]}
            p = embedding.compose_with_store(result, embedding.initial_store_value(prog), prog.store_type)
        elif group == "retyped":
            delta[R] = Send(UNIT if result.source_type is NAT else NAT, END)
        elif group == "dropped":
            del delta[EFF]
        out.append(verdict(delta, p))
    return "".join(out)


GOLDEN = {
    "plain": """
        ..................................................
        ..................................................
        ..................................................
        ..................................................
    """,
    "optimized": """
        ..................................................
        ..................................................
        ..................................................
        ..................................................
    """,
    "store": """
        DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
        DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
        DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
        DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
    """,
    "retyped": """
        PPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPP
        PPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPP
        PPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPP
        PPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPP
    """,
    "dropped": """
        UUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUU
        UUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUU
        UUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUU
        UUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUU
    """,
    "naive": """
        NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN
        NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN
    """,
    "mutant": """
        .xxxxxxxxxxxxxxxxxxxxxxxx.x..xxxx.xxxxxxxxxxxxxxx.
        xxxxxxxxxx..xxxxxxxxxx.xxxxxxxxx.xxxx.xxx.x.xxxxx.
        .xxxxxxxxxxxxxx.xxxxxxxxxx.xx.xxxxxxxxxxxxxxxxxxxx
        xxxxxxxxx.xxxxxxxxxxxxxxxxxxxx.xxxxxxxxxxx.xxxxxxx
        x.xxx.xxxxxxx.xxx.xxxxxxxxxxxxxxxxxxxxxx.xxxxxxxxx
        xxxxxx.x.xxxxx.xxxxxxxxxxxxxxxxxx.xx.xxxxx.xx.xxxx
        .xxxxxxxxxxxx.xxxxxxxxxxxxx.xxxxxxxx.xxxxxxxxxxxxx
        xx.xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx.xxxxx
        xxxxxxxxx.x.xxxxxxxxxxxxxxxxxxxx.xxxxxxxxxxxxxx.xx
        xxxxxxxxxx.xxxx.xxxxxxxx.xxxxxxxxxxxxxxxxxxxx.xxxx
        xxxxxxxxxxxxxxxxxxx.xxxxxxxxxxxx.xxxx.xxxxxxxxxxxx
        xxxxx.xxxxxxxxxxxxxxxxx..xxxxxxxxxxx.xxxxxxxxxxx.x
    """,
}


def _check_group(group: str):
    assert "".join(group_verdicts(group, seed) for seed in SEEDS) == "".join(GOLDEN[group].split())


def test_golden_plain():
    _check_group("plain")


def test_golden_optimized():
    _check_group("optimized")


def test_golden_store():
    _check_group("store")


def test_golden_retyped():
    _check_group("retyped")


def test_golden_dropped():
    _check_group("dropped")


def test_golden_naive():
    _check_group("naive")


def test_golden_mutant():
    _check_group("mutant")
