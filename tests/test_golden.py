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
to numbers the first time and of shape ids the second.  They were frozen a
third time, with the residual hashes of `comm-lhs`, `comm-rhs` and
`private-worlds`, when components came to be ordered by their shapes'
structural digests rather than by their serializations, and keys came to
list a digest where they had listed a shape id.  That time every emitted
tuple, store and step count and every state and transition count stayed;
each full and reduced LTS was strongly bisimilar to the one it replaced;
and each moved residual normalized to one text with the residual before
it, under the old order and under the new.  The key digests of `corpus-10`
and `private-worlds` (full and reduced) were frozen a fourth time when
tied components came to be ordered by a canonical labeling rather than by
the least of their arrangements; every outcome, residual, step, state and
transition count stayed, and each LTS was strongly bisimilar to the one
it replaced.  `GOLDEN_REDUCED` pins the same three for ``build_lts``,
which folds eligible chains into their ends.  When call unfoldings came to
be folded into those chains, the eight reduced rows whose systems call a
definition were frozen again, with fewer states: each new reduced LTS was
weakly bisimilar to the full LTS and to the reduced LTS it replaced, and
`GOLDEN` stayed.
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
    "comm-lhs": ([((), None, "799fb7fa0a58", 3)], (14, 14, "b14cd1de88d4")),
    "comm-rhs": ([((), None, "fdc14a857848", 1)], (14, 14, "06428136dc9c")),
    "corpus-0": ([(("1",), "0", "94bc2154a61e", 11)], (19, 25, "de219e424182")),
    "corpus-1": ([(("unit",), "0", "94bc2154a61e", 9)], (17, 24, "4d59974c7dbf")),
    "corpus-10": ([(("unit",), "3", "7787c9317b21", 13)], (33, 56, "f3fd389561c6")),
    "corpus-4": ([(("unit",), "1", "3425f5ea34ec", 42)], (70, 98, "7c5fa11a5dcb")),
    "corpus-7": ([(("unit",), "1", "3425f5ea34ec", 14)], (37, 64, "b8d9f456bcd5")),
    "corpus-9": ([(("1",), "3", "7787c9317b21", 31)], (56, 82, "ffa4550443e3")),
    "intro-race": ([((), "1", "79cf8a29f91f", 17), ((), "2", "93fa725feee4", 17), ((), "3", "566f232be8c2", 17)],
                   (54, 55, "ad6d26437f8d")),
    "private-worlds": ([(("0", "5"), "0", "21150beb2d56", 12), (("5", "0"), "0", "21150beb2d56", 12)],
                       (64, 128, "f4c5060b8ead")),
    "unitR-lhs": ([((), None, "bc793545a39c", 1)], (11, 11, "fb7108a78c64")),
    "unitR-rhs": ([((), None, "fb3597f2911a", 1)], (7, 7, "43c063d16f9c")),
}

# build_lts folds eligible chains; frozen when the folding was introduced,
# and the rows with a call unfolding again when chains came to fold those
GOLDEN_REDUCED = {
    "comm-lhs": (6, 6, "2fe1e30e97f2"),
    "comm-rhs": (6, 6, "8c51843bfa4e"),
    "corpus-0": (3, 3, "d1bb778f3515"),
    "corpus-1": (3, 3, "e63edc09deaf"),
    "corpus-10": (3, 3, "1dd52f342e2a"),
    "corpus-4": (5, 4, "86bdf03c9166"),
    "corpus-7": (3, 3, "b2b83e6f0c01"),
    "corpus-9": (4, 3, "906959c5549e"),
    "intro-race": (13, 14, "676a963d4ec8"),
    "private-worlds": (12, 20, "47bdb03ecc74"),
    "unitR-lhs": (5, 5, "1ba9492b725a"),
    "unitR-rhs": (5, 5, "4e62cf011df8"),
}

# the shapes one `run("all")` creates in its table, and the substitutions
# it forms anew (memo misses); frozen when substitution came to rebuild its
# results from shape keys instead of from spelled processes, which created
# these same counts
SHAPE_COUNTS = {
    "comm-lhs": (30, 1),
    "comm-rhs": (23, 0),
    "corpus-0": (26, 4),
    "corpus-1": (21, 3),
    "corpus-10": (30, 8),
    "corpus-4": (54, 9),
    "corpus-7": (41, 5),
    "corpus-9": (85, 10),
    "intro-race": (46, 11),
    "private-worlds": (29, 4),
    "unitR-lhs": (10, 0),
    "unitR-rhs": (8, 0),
}


@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_outcomes_and_lts_sizes(label):
    build, run_obs, lts_obs = CASES[label]
    assert _observe(build(), run_obs, lts_obs) == GOLDEN[label]


@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_reduced_lts_sizes(label):
    build, _, lts_obs = CASES[label]
    assert _sizes(build_lts(build(), lts_obs, DOMAIN)) == GOLDEN_REDUCED[label]


@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_reduced_lts_is_weakly_bisimilar_to_the_full_one(label):
    build, _, lts_obs = CASES[label]
    assert weak_bisimilar(build_lts(build(), lts_obs, DOMAIN), full_lts(build(), lts_obs, DOMAIN)).equivalent


def test_golden_equation_pairs_stay_bisimilar():
    for rule in ("unitR", "comm"):
        sides = [build_lts(CASES[f"{rule}-{side}"][0](), TOP_OBS, DOMAIN) for side in ("lhs", "rhs")]
        assert weak_bisimilar(*sides).equivalent


@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_shape_counts(label):
    build, run_obs, _ = CASES[label]
    system = build()
    run(system, "all", observables=run_obs, store_reader=find_store_value)
    table = system._configurations[run_obs].table
    assert (table.misses, table.memo_misses) == SHAPE_COUNTS[label]
