"""Golden differential test: execution outcomes and LTS sizes frozen from
the uncached exploration, before the component table existed, so that a
faster exploration cannot change what it explores.

Each case pins every ``run("all")`` outcome (emitted values, store,
residual hash, steps), and the state and transition counts of the full LTS
(`oracle.full_lts`, which folds no eligible chain) with a digest of its
state keys in discovery order.  The key digests were frozen again when
keys began to spell free names instead of numbering them, and again when
the first configuration came to be built from the spine of the process
(which creates its shapes in another order); each time the old and new key
lists matched position by position under one bijection per case, of names
to numbers the first time and of shape ids the second.  `GOLDEN_REDUCED` pins the same three for
``build_lts``, which folds eligible chains into their ends.
The cases: corpus programs up to depth 6, the introduction's shared-store
race, two private shared-store worlds side by side, and two criterion-3
equation pairs.
"""

import hashlib

import pytest

from effsess import embedding
from effsess import process as P
from effsess.equations import apply_equation
from effsess.equivalence import build_lts, weak_bisimilar
from effsess.semantics import find_store_value, run
from effsess.terms import ValueType, parse_term

from oracle import corpus, full_lts

NAT = ValueType.NAT
TOP_OBS = frozenset({"r", "eff"})
DOMAIN = (P.NatLit(0), P.NatLit(1))


def _sizes(lts):
    transitions = sum(len(targets) for table in lts.edges for targets in table.values())
    return (lts.n_states, transitions, hashlib.sha256(repr(lts.keys).encode()).hexdigest()[:12])


def _observe(system, run_obs, lts_obs):
    outcomes = run(system, "all", observables=run_obs, store_reader=find_store_value)
    return (
        sorted(
            (
                tuple(P.format_value(v) for v in o.emitted),
                None if o.store is None else P.format_value(o.store),
                o.residual_hash(),
                o.steps,
            )
            for o in outcomes
        ),
        _sizes(full_lts(system, lts_obs, DOMAIN)),
    )


def _corpus_system(index: int):
    prog = corpus(seed=3, count=11, depth=6)[index]
    result = embedding.embed_top(prog)
    return embedding.compose_with_store(result, embedding.initial_store_value(prog), prog.store_type)


def _race():
    store = embedding.shared_store_agent(P.NatLit(0), "k", NAT)
    plus2 = embedding.shared_get("k", "x", embedding.shared_put("k", P.SucOf(P.SucOf(P.VarRef("x"))), P.NIL))
    plus1 = embedding.shared_get("k", "x", embedding.shared_put("k", P.SucOf(P.VarRef("x")), P.NIL))
    return P.par(store, plus2, plus1)


def _private_world(init: int):
    store = embedding.shared_store_agent(P.NatLit(init), "k", NAT)
    client = embedding.shared_get("k", "x", P.SendVal(P.Endpoint("r"), P.VarRef("x"), P.NIL))
    return P.New("k", None, P.par(store, client))


def _equation_side(text: str, rule: str | None):
    term = parse_term(text)
    if rule is not None:
        term = apply_equation(term, rule, 0, {}, NAT)
    return embedding.embed_term_top(term, {}, NAT).process


CASES = {
    **{f"corpus-{i}": (lambda i=i: _corpus_system(i), frozenset({"r"}), TOP_OBS) for i in (0, 1, 4, 7, 9, 10)},
    "intro-race": (_race, frozenset(), frozenset()),
    "private-worlds": (lambda: P.par(_private_world(0), _private_world(5)), frozenset({"r"}), frozenset({"r"})),
    **{
        f"{rule}-{side}": (lambda text=text, rule=rule if side == "rhs" else None: _equation_side(text, rule),
                           TOP_OBS, TOP_OBS)
        for rule, text in (("unitR", "let x = get in x"), ("comm", "let x = zero in let y = get in put x"))
        for side in ("lhs", "rhs")
    },
}

GOLDEN = {
    "comm-lhs": ([((), None, "ce5144517a0a", 3)], (14, 14, "f514888a3cf2")),
    "comm-rhs": ([((), None, "74424759d883", 1)], (14, 14, "664c1c2f20b7")),
    "corpus-0": ([(("1",), "0", "94bc2154a61e", 11)], (19, 25, "4a870bf1f218")),
    "corpus-1": ([(("unit",), "0", "94bc2154a61e", 9)], (17, 24, "e180c40b7644")),
    "corpus-10": ([(("unit",), "3", "7787c9317b21", 13)], (33, 56, "01fdc4bd97eb")),
    "corpus-4": ([(("unit",), "1", "3425f5ea34ec", 42)], (70, 98, "37627ffc1c9f")),
    "corpus-7": ([(("unit",), "1", "3425f5ea34ec", 14)], (37, 64, "9104eb1d1c8b")),
    "corpus-9": ([(("1",), "3", "7787c9317b21", 31)], (56, 82, "f44da4fe49c8")),
    "intro-race": ([((), "1", "79cf8a29f91f", 17), ((), "2", "93fa725feee4", 17), ((), "3", "566f232be8c2", 17)],
                   (54, 55, "ff8314f5380c")),
    "private-worlds": ([(("0", "5"), "0", "2f6529ae4af6", 12), (("5", "0"), "0", "2f6529ae4af6", 12)],
                       (64, 128, "b9cb25eafb85")),
    "unitR-lhs": ([((), None, "bc793545a39c", 1)], (11, 11, "b48ed10d5544")),
    "unitR-rhs": ([((), None, "fb3597f2911a", 1)], (7, 7, "d1c8fea54d62")),
}

# build_lts folds eligible chains; frozen when the folding was introduced
GOLDEN_REDUCED = {
    "comm-lhs": (6, 6, "1bca00647f59"),
    "comm-rhs": (6, 6, "4e8b668d4773"),
    "corpus-0": (5, 5, "2c0eb4895cf5"),
    "corpus-1": (5, 5, "d50fb33afe32"),
    "corpus-10": (5, 5, "566e0e7ce45f"),
    "corpus-4": (10, 10, "393875317f39"),
    "corpus-7": (5, 5, "836670e6fa89"),
    "corpus-9": (8, 8, "8412da8295d4"),
    "intro-race": (26, 27, "ac8bbe8f1904"),
    "private-worlds": (36, 72, "265067ac0a6d"),
    "unitR-lhs": (5, 5, "d3ff87f4c25d"),
    "unitR-rhs": (5, 5, "d44269a8572e"),
}


@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_outcomes_and_lts_sizes(label):
    build, run_obs, lts_obs = CASES[label]
    assert _observe(build(), run_obs, lts_obs) == GOLDEN[label]


@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_reduced_lts_sizes(label):
    build, _, lts_obs = CASES[label]
    assert _sizes(build_lts(build(), lts_obs, DOMAIN)) == GOLDEN_REDUCED[label]


def test_golden_equation_pairs_stay_bisimilar():
    for rule in ("unitR", "comm"):
        sides = [build_lts(CASES[f"{rule}-{side}"][0](), TOP_OBS, DOMAIN) for side in ("lhs", "rhs")]
        assert weak_bisimilar(*sides).equivalent
