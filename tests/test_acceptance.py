"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Tolerances are exact unless a time budget is stated.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

import pytest

from effsess import embedding
from effsess.effects import Get, IDENTITY, Put, STATE_ALGEBRA, well_causal
from effsess.equations import apply_equation
from effsess.equivalence import build_lts, weak_bisimilar
from effsess.infer import infer
from effsess.normalize import normalize
from effsess import process as P
from effsess.semantics import find_store_value, run
from effsess.session_check import ProcEnv, SessionTypeError, session_check
from effsess.sessions import END, Recv, Select, Send, dual, type_equal
from effsess.terms import Program, ValueType, parse_term

from oracle import corpus, evaluate_program
from test_sessions import gen_type, open_payload

NAT, UNIT = ValueType.NAT, ValueType.UNIT
TOKENS = (Get(NAT), Put(NAT), Get(UNIT), Put(UNIT))
TOP_OBS = frozenset({"r", "eff"})
LEMMA_OBS = frozenset({"r", "ei", "eo", "r2"})
DOMAIN = (P.NatLit(0), P.NatLit(1))


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.time() - start
    note = f" [{elapsed:.2f}s]"
    print(f"PASS criterion {number}: {description}{note}")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s"


def top_lts(term_text_or_term, env=None):
    term = parse_term(term_text_or_term) if isinstance(term_text_or_term, str) else term_text_or_term
    res = embedding.embed_term_top(term, env or {}, NAT)
    return build_lts(res.process, TOP_OBS, DOMAIN)


def test_criterion_01_type_preservation():
    with criterion(1, "translate | pi-check succeeds on a 100-program corpus", budget=10.0):
        programs = corpus(seed=2024, count=100, depth=5)
        assert len(programs) >= 100
        for prog in programs:
            tau, eff = infer({}, prog.store_type, prog.root)
            result = embedding.embed_top(prog)
            expected = {
                P.Endpoint("r"): Send(tau, END),
                P.Endpoint("eff"): embedding.effect_to_session(eff),
            }
            assert result.delta == expected
            session_check(ProcEnv(), result.delta, result.process)


def test_criterion_02_bijection_roundtrip():
    with criterion(2, "effect/session bijection roundtrip, exhaustive to length 6", budget=1.0):
        anns = [()]
        frontier = [()]
        for _ in range(6):
            frontier = [f + (t,) for f in frontier for t in TOKENS]
            anns.extend(frontier)
        checked = 0
        for store in (NAT, UNIT):
            for f in anns:
                if well_causal(f, store):
                    assert embedding.session_to_effect(embedding.effect_to_session(f)) == f
                    checked += 1
        assert checked > 2 * 2 ** 6


EQUATION_INSTANCES = {
    "unitR": [
        ("let x = get in x", {}),
        ("let u = put zero in u", {}),
        ("let z = (let x = get in put (suc x)) in z", {}),  # eq-5 program inside
    ],
    "unitL": [
        ("let y = x in put y", {"x": NAT}),
        ("let y = x in y", {"x": NAT}),
        ("let y = x in suc y", {"x": NAT}),
    ],
    "assoc": [
        ("let y = (let x = get in put (suc x)) in y", {}),  # eq-5 program inside
        ("let b = (let a = zero in put a) in get", {}),
        ("let w = (let v = get in v) in put w", {}),
    ],
    "comm": [
        ("let x = zero in let y = get in put x", {}),
        ("let a = suc zero in let b = get in put a", {}),
        ("let p = unit in let q = get in q", {}),
    ],
}


def test_criterion_03_soundness_theorem_instances():
    with criterion(
        3, "each Fig.-4 equation is validated by weak bisimulation, plus a negative control", budget=60.0
    ):
        for rule, cases in EQUATION_INSTANCES.items():
            assert len(cases) >= 3
            for text, env in cases:
                lhs = parse_term(text)
                rhs = apply_equation(lhs, rule, 0, env, NAT)
                assert rhs != lhs
                a = top_lts(lhs, env)
                b = top_lts(rhs, env)
                assert a.n_states < 10_000 and b.n_states < 10_000
                verdict = weak_bisimilar(a, b)
                assert verdict.equivalent, f"{rule} failed on {text}: {verdict.formatted_trace()}"
        control = weak_bisimilar(top_lts("put zero"), top_lts("put (suc zero)"))
        assert not control.equivalent
        assert control.formatted_trace()


FORWARDING_TERMS = ["zero", "get", "put zero", "let x = get in put (suc x)", "suc zero", "unit"]


def test_criterion_04_forwarding_lemma():
    with criterion(4, "forwarding holds in both directions for sampled terms"):
        ei, eo, ea, r = (P.Endpoint(n) for n in ("ei", "eo", "ea", "r"))
        contexts = [P.NIL, P.SendVal(P.Endpoint("r2"), P.NatLit(0), P.NIL)]
        checked = 0
        for text in FORWARDING_TERMS:
            term = parse_term(text)
            for ctx in contexts:
                rhs = P.par(embedding.embed_intermediate(term, ei, eo, r, {}, NAT), ctx)
                b = build_lts(rhs, LEMMA_OBS, DOMAIN)
                out_fwd = P.RecvChan(ea, "c", P.SendChan(eo.flip(), P.Endpoint("c"), P.NIL))
                lhs1 = P.New(
                    "ea", None, P.par(embedding.embed_intermediate(term, ei, ea, r, {}, NAT), out_fwd, ctx)
                )
                assert weak_bisimilar(build_lts(lhs1, LEMMA_OBS, DOMAIN), b).equivalent
                in_fwd = P.RecvChan(ei, "c", P.SendChan(ea.flip(), P.Endpoint("c"), P.NIL))
                lhs2 = P.New(
                    "ea", None, P.par(embedding.embed_intermediate(term, ea, eo, r, {}, NAT), in_fwd, ctx)
                )
                assert weak_bisimilar(build_lts(lhs2, LEMMA_OBS, DOMAIN), b).equivalent
                checked += 1
        assert checked >= 5


PURE_TERMS = [
    "zero",
    "unit",
    "suc zero",
    "let x = zero in suc x",
    "let x = zero in let y = suc x in suc y",
]


def test_criterion_05_purity_lemma():
    with criterion(5, "pure intermediate encodings factor through the pure embedding"):
        ei, eo, r = (P.Endpoint(n) for n in ("ei", "eo", "r"))
        obs = frozenset({"ei", "r2"})
        p_conts = [P.NIL, P.SendVal(P.Endpoint("r2"), P.NatLit(0), P.NIL)]
        assert any(text.startswith("let") for text in PURE_TERMS)
        for text in PURE_TERMS:
            term = parse_term(text)
            assert infer({}, NAT, term)[1] == IDENTITY
            for p_cont in p_conts:
                ctx = [P.RecvChan(eo, "c", p_cont), P.RecvVal(r.flip(), "x", P.NIL)]
                lhs = P.new(["r", "eo"], P.par(embedding.embed_intermediate(term, ei, eo, r, {}, NAT), *ctx))
                fwd = P.RecvChan(ei, "c", P.SendChan(eo.flip(), P.Endpoint("c"), P.NIL))
                rhs = P.new(["r", "eo"], P.par(fwd, embedding.embed_pure(term, r, {}, NAT), *ctx))
                verdict = weak_bisimilar(build_lts(lhs, obs, DOMAIN), build_lts(rhs, obs, DOMAIN))
                assert verdict.equivalent, f"purity failed on {text}: {verdict.formatted_trace()}"


def test_criterion_06_intro_race():
    with criterion(6, "shared-store race yields exactly {1, 2, 3}", budget=10.0):
        store = embedding.shared_store_agent(P.NatLit(0), "k", NAT)
        plus2 = embedding.shared_get(
            "k", "x", embedding.shared_put("k", P.SucOf(P.SucOf(P.VarRef("x"))), P.NIL)
        )
        plus1 = embedding.shared_get("k", "x", embedding.shared_put("k", P.SucOf(P.VarRef("x")), P.NIL))
        outcomes = run(
            P.par(store, plus2, plus1), "all", observables=frozenset(), store_reader=find_store_value
        )
        assert sorted({o.store.n for o in outcomes}) == [1, 2, 3]


def test_criterion_07_linearity_rejection():
    with criterion(7, "the naive parallel encoding fails with a linearity diagnostic naming eff"):
        m = parse_term("let x = get in put (suc (suc x))")
        n = parse_term("let x = get in put (suc x)")
        naive = embedding.naive_parallel_encode(m, n)
        delta = {
            P.Endpoint("eff"): embedding.effect_to_session(infer({}, NAT, m)[1]),
            P.Endpoint("r"): Send(NAT, END),
        }
        with pytest.raises(SessionTypeError) as exc:
            session_check(ProcEnv(), delta, naive)
        assert exc.value.kind == "linearity"
        assert "eff" in str(exc.value)


COMMUTING_PROGRAMS = [
    "let x = zero in let y = get in put x",
    "let a = suc zero in let b = get in put a",
    "let u = unit in let v = get in suc v",
]


def test_criterion_08_optimizer_soundness():
    with criterion(8, "commuting-let optimization is weakly bisimilar and runs the pure binding in parallel"):
        for text in COMMUTING_PROGRAMS:
            prog = Program(NAT, 0, parse_term(text))
            default = embedding.embed_top(prog)
            optimized = embedding.embed_top(prog, optimize=True)
            assert optimized.process != default.process
            verdict = weak_bisimilar(
                build_lts(default.process, TOP_OBS, DOMAIN),
                build_lts(optimized.process, TOP_OBS, DOMAIN),
            )
            assert verdict.equivalent, f"optimizer unsound on {text}: {verdict.formatted_trace()}"
            # structural check: the pure binding and the encoding of the
            # effectful one are sibling parallel components
            node = optimized.process
            while isinstance(node, P.New):
                node = node.body
            body = node.left  # translated body | harness
            while isinstance(body, P.New):
                body = body.body
            parts = []
            stack = [body]
            while stack:
                item = stack.pop()
                if isinstance(item, P.Par):
                    stack.extend((item.right, item.left))
                else:
                    parts.append(item)
            assert len(parts) == 3
            # [[M]]_q uses only its result channel; the encoding of N holds
            # the effect-channel input ei; the collector joins both
            assert {e.name for e in P.free_names(parts[0]).endpoints} == {"q"}
            assert "ei" in {e.name for e in P.free_names(parts[1]).endpoints}
            assert isinstance(parts[2], P.RecvVal) and parts[2].chan == P.Endpoint("q", True)
            session_check(ProcEnv(), optimized.delta, optimized.process)


def test_criterion_09_execution_oracle():
    with criterion(9, "translated executions agree with the big-step evaluator on 50 programs"):
        programs = corpus(seed=77, count=50, depth=5)
        for prog in programs:
            expected_value, expected_store = evaluate_program(prog)
            result = embedding.embed_top(prog)
            system = embedding.compose_with_store(
                result, embedding.initial_store_value(prog), prog.store_type
            )
            outcomes = run(system, "all", store_reader=find_store_value)
            assert len(outcomes) == 1, f"nondeterministic outcome for {prog}"
            (outcome,) = outcomes
            assert len(outcome.emitted) == 1
            emitted = outcome.emitted[0]
            if expected_value == "unit":
                assert emitted == P.UNIT_VALUE
            else:
                assert emitted == P.NatLit(expected_value)
            assert outcome.store == P.NatLit(expected_store)


def test_criterion_10_property_suites():
    with criterion(10, "monoid laws, dual involution, normalize idempotence, bisimulation sanity"):
        alg = STATE_ALGEBRA
        anns = [()]
        frontier = [()]
        for _ in range(4):
            frontier = [f + (t,) for f in frontier for t in TOKENS]
            anns.extend(frontier)
        for f in anns:
            assert alg.equal(alg.combine(f, alg.identity()), f)
            assert alg.equal(alg.combine(alg.identity(), f), f)
        for f in anns:
            row = [alg.combine(f, g) for g in anns]
            for gi, g in enumerate(anns):
                fg = row[gi]
                for h in anns:
                    if alg.combine(fg, h) != alg.combine(f, alg.combine(g, h)):
                        raise AssertionError("associativity violated")
        for f in anns:
            for g in anns:
                assert alg.no_inverses(f, g)

        rng = random.Random(9)
        for _ in range(200):
            s = gen_type(rng, 5)
            if not open_payload(s):
                assert dual(dual(s)) == s
            assert type_equal(dual(dual(s)), s)

        from test_normalize import _random_proc

        rng2 = random.Random(41)
        for _ in range(60):
            p = _random_proc(rng2, 5, ["a", "b"])
            once = normalize(p)
            assert normalize(once) == once

        a = top_lts("let x = get in x")
        b = top_lts("get")
        assert weak_bisimilar(a, a).equivalent
        assert weak_bisimilar(a, b).equivalent == weak_bisimilar(b, a).equivalent
