"""Golden verdict table for the three session-type relations.

``type_equal``, ``select_subtype`` and ``dual_compatible`` are evaluated on
seeded pairs and compared with verdicts frozen from the three separate
walkers that preceded the single relation walker, so that folding them
into one cannot change an answer.  The groups:

- ``gen``: a generated type against an independent one, itself, its
  top-level unfolding, or an alpha-renaming of its mu-binders.
- ``narrow``: a generated type against a label-narrowed variant of it
  (select labels only, or select and branch labels), in both orders.
- ``dual``: a type with no mu variable in a payload, where ``dual`` is
  plain constructor flipping, against the dual of itself or of a narrowed
  variant, in both orders.

Each verdict is three letters: ``type_equal``, ``select_subtype``,
``dual_compatible`` of the pair, T or F.  The last test walks a select
chain far deeper than the recursion limit.
"""

import random
import sys

from effsess.effects import Get, Put
from effsess.embedding import effect_to_session, session_to_effect
from effsess.sessions import (
    Branch,
    Mu,
    Recv,
    Select,
    Send,
    TVar,
    dual,
    dual_compatible,
    is_value_payload,
    select_subtype,
    type_equal,
    unfold,
)

from test_sessions import NAT, gen_type, open_payload


def narrow(s, rng: random.Random, branches: bool):
    """Drop labels at random (keeping at least one) from every select, and
    from every branch too when ``branches`` is set."""
    if isinstance(s, Mu):
        return Mu(s.var, narrow(s.body, rng, branches))
    if isinstance(s, (Send, Recv)):
        return type(s)(s.payload, narrow(s.cont, rng, branches))
    if isinstance(s, (Select, Branch)):
        choices = list(s.choices)
        if isinstance(s, Select) or branches:
            keep = rng.randint(1, len(choices))
            choices = rng.sample(choices, keep)
        return type(s)(tuple((label, narrow(c, rng, branches)) for label, c in choices))
    return s


def rename(s, suffix: str):
    """Alpha-rename every mu-binder of ``s``."""
    if isinstance(s, TVar):
        return TVar(s.name + suffix)
    if isinstance(s, Mu):
        return Mu(s.var + suffix, rename(s.body, suffix))
    if isinstance(s, (Send, Recv)):
        payload = s.payload if is_value_payload(s.payload) else rename(s.payload, suffix)
        return type(s)(payload, rename(s.cont, suffix))
    if isinstance(s, (Select, Branch)):
        return type(s)(tuple((label, rename(c, suffix)) for label, c in s.choices))
    return s


def gen_pairs():
    rng = random.Random(2024)
    out = []
    for _ in range(100):
        s = gen_type(rng, 4)
        kind = rng.choice(["indep", "same", "unfolded", "renamed"])
        t = {
            "indep": lambda: gen_type(rng, 4),
            "same": lambda: s,
            "unfolded": lambda: unfold(s),
            "renamed": lambda: rename(s, "x"),
        }[kind]()
        out.append((s, t))
    return out


def narrow_pairs():
    rng = random.Random(2025)
    out = []
    for _ in range(50):
        s = gen_type(rng, 4)
        n = narrow(s, rng, branches=rng.random() < 0.3)
        out.append((n, s))
        out.append((s, n))
    return out


def dual_pairs():
    rng = random.Random(2026)
    out = []
    while len(out) < 100:
        s = gen_type(rng, 4)
        if open_payload(s):
            continue
        n = narrow(s, rng, branches=rng.random() < 0.3)
        kind = rng.choice(["self", "narrow-left", "narrow-right"])
        a, b = {"self": (s, dual(s)), "narrow-left": (n, dual(s)), "narrow-right": (s, dual(n))}[kind]
        out.append((a, b))
        out.append((b, a))
    return out


def verdicts(pairs) -> list[str]:
    return ["".join("T" if rel(a, b) else "F" for rel in (type_equal, select_subtype, dual_compatible)) for a, b in pairs]


GOLDEN = {
    "gen": """
        TTF TTF FFF TTF TTF FFF TTF FFF TTF TTF FFF FFF TTF FFF TTF FFF TTF TTF TTF TTF
        FFF TTF TTF TTF TTF TTF TTF TTT FFF TTF TTF TTT FFF FFF TTF TTF TTF TTT TTT TTF
        TTF FFF FFF TTT FFF FFF FFF FFF TTF TTF TTT TTF TTF FFF TTF FFF TTT TTF TTF FFF
        TTF TTT TTF TTF TTF FFF TTF TTF TTF TTF TTF TTF TTF TTF FFF TTF TTF TTT TTF FFF
        TTF TTF FFF TTF TTF FFF TTF TTF TTT FFF TTF TTF TTF TTF FFF TTF TTF TTF FFF TTF
    """,
    "narrow": """
        TTF TTF TTT TTT TTF TTF TTT TTT TTF TTF TTF TTF TTF TTF TTF TTF FTF FFF TTF TTF
        TTT TTT TTT TTT FTF FFF TTT TTT TTT TTT FTF FFF TTT TTT FTF FFF TTF TTF TTF TTF
        TTF TTF TTF TTF FFF FFF FTF FFF FTF FFF FTF FFF TTT TTT TTT TTT TTT TTT FTF FFF
        FFF FFF TTF TTF TTF TTF FTF FFF FTF FFF TTT TTT FTF FFF TTF TTF FTF FFF FTF FFF
        FFF FFF TTF TTF TTF TTF TTT TTT TTF TTF FTF FFF TTF TTF TTF TTF TTF TTF TTF TTF
    """,
    "dual": """
        TTT TTT TTT TTT FFF FFF FFT FFT TTT TTT FFT FFT FFT FFT FFT FFT TTT TTT FFT FFT
        FFT FFT TTT TTT FFT FFT FFT FFT FFT FFT FFT FFT FFT FFT FFT FFT FFT FFT FFT FFT
        FFT FFT FFT FFT FFT FFT FFT FFT TTT TTT TTT TTT FFT FFT FFT FFT FFT FFT FFT FFT
        FFT FFT FFT FFT FFT FFT FFT FFT FFT FFT FFF FFF FFT FFT FFT FFT FFT FFT FFT FFT
        FFT FFT FFT FFT FFT FFT FFF FFF FFT FFT TTT TTT FFT FFT FFF FFF TTT TTT TTT TTT
    """,
}


def test_golden_verdicts_gen():
    assert verdicts(gen_pairs()) == GOLDEN["gen"].split()


def test_golden_verdicts_narrow():
    assert verdicts(narrow_pairs()) == GOLDEN["narrow"].split()


def test_golden_verdicts_dual():
    assert verdicts(dual_pairs()) == GOLDEN["dual"].split()


def _long_chain_verdicts(f) -> tuple[bool, ...]:
    s = effect_to_session(f)
    return (
        type_equal(s, effect_to_session(f)),
        not type_equal(s, effect_to_session(f[:-1])),
        select_subtype(s, s),
        dual_compatible(s, dual(s)),
        dual_compatible(dual(s), s),
        session_to_effect(s) == f,
    )


def test_relations_walk_a_long_effect_chain_without_recursing():
    f = tuple(Get(NAT) if i % 2 == 0 else Put(NAT) for i in range(3000))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        verdicts = _long_chain_verdicts(f)
    except RecursionError:
        verdicts = "RecursionError"
    finally:
        sys.setrecursionlimit(limit)
    assert verdicts == (True,) * 6
