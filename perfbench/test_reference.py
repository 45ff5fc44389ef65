"""Each reference checker rejects a deliberately wrong answer.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH.parent / "tests"), str(BENCH)]

import reference as R  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from effsess import cli, embedding  # noqa: E402
from effsess import process as P  # noqa: E402
from effsess.semantics import Outcome  # noqa: E402
from effsess.terms import Const, Let, OpApp, Program, ValueType, Var, parse_term  # noqa: E402

NAT = ValueType.NAT


def outcome(values, store):
    return Outcome(tuple(values), None if store is None else P.NatLit(store), "", 0)


def test_chain_typing_rejects_a_wrong_effect():
    ty, eff = R.chain_type_and_effect(3)
    assert R.check_chain_typing(3, (ty, eff)) is None
    assert R.check_chain_typing(3, (ty, eff[:-1])) is not None
    assert R.check_chain_typing(3, (ValueType.UNIT, eff)) is not None


def test_chain_item_rejects_a_form_that_is_not_normal():
    item = workloads._chain_item(1, 0, idempotence=True)
    typing, normal = item.call()
    assert item.check((typing, normal)) is None
    unnormalized = P.Par(normal, P.NIL)
    assert item.check((typing, unnormalized)) is not None


def test_deep_item_rejects_a_wrong_print():
    item = workloads._deep_front_end_item(3, 0)
    typing = R.chain_type_and_effect(3)
    assert item.check((typing, R.chain_printed(3))) is None
    assert item.check((typing, R.chain_printed(3).replace("suc", "", 1))) is not None


def test_exec_check_rejects_a_wrong_value_and_names_the_known_defect():
    prog = Program(NAT, 1, Let("x", Const("get"), OpApp("put", OpApp("suc", Var("x")))))
    item = workloads._exec_item("p", prog, 0)
    right = [outcome([P.UNIT_VALUE], 2)]
    assert item.check((right, right)) is None
    wrong = [outcome([P.UNIT_VALUE], 1)]
    assert item.check((wrong, wrong)) is not None
    assert not item.known_defect((wrong, wrong))
    extra = right + [outcome([], 1)]
    assert item.check((right, extra)) is not None
    assert item.known_defect((right, extra))
    no_result = [outcome([], 2)]
    assert item.check((no_result, no_result)) is not None
    assert item.known_defect((no_result, no_result))
    assert not item.known_defect((right, extra + wrong))


def test_race_model_matches_the_intro_and_rejects_a_missing_outcome():
    assert R.race_outcomes(0, (2, 1)) == {1, 2, 3}
    assert R.race_outcomes(1, (3, 2)) == {3, 4, 6}
    assert R.check_race(0, (2, 1), {1, 2, 3}) is None
    assert R.check_race(0, (2, 1), {1, 3}) is not None
    assert R.check_race(0, (2, 1), {1, 2, 3, 4}) is not None


def test_distinct_subset_sums():
    assert R.distinct_subset_sums((1, 2, 4, 8))
    assert not R.distinct_subset_sums((1, 2, 3))
    assert not R.distinct_subset_sums((5, 5))


def test_verdict_check_rejects_wrong_verdicts_and_missing_traces():
    assert R.check_verdict(True, True, []) is None
    assert R.check_verdict(False, False, ["eff<+put"]) is None
    assert R.check_verdict(True, False, ["eff<+put"]) is not None
    assert R.check_verdict(False, True, []) is not None
    assert R.check_verdict(False, False, []) is not None


def test_observable_traces_tell_programs_apart():
    same = R.observable_traces(parse_term("let x = get in x"), (0, 1))
    assert same == R.observable_traces(parse_term("get"), (0, 1))
    assert R.observable_traces(parse_term("put zero"), (0, 1)) != R.observable_traces(
        parse_term("put (suc zero)"), (0, 1)
    )


def test_pair_item_rejects_a_rewrite_that_changes_behaviour():
    lhs, rhs = parse_term("put zero"), parse_term("put (suc zero)")
    item = workloads._pair_item("bad-rewrite", lhs, rhs, True)
    assert item.check((True, [])) is not None


def test_commuting_let_matches_the_optimizer():
    for text in ("let x = zero in let y = get in put x", "let y = get in let x = zero in put y"):
        prog = Program(NAT, 0, parse_term(text))
        assert R.commuting_let(prog.root)
        assert embedding.embed_top(prog, optimize=True).process != embedding.embed_top(prog).process
    assert not R.commuting_let(parse_term("let x = get in let y = get in put x"))


def test_source_text_round_trips():
    t = parse_term("let a = (let b = get in suc b) in put (suc a)")
    assert parse_term(R.source_text(t)) == t


def test_tracer_rebinds_callers_and_restores_them():
    original = cli.parse_program
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.parse_program is not original
        tracer.recording = True
        cli.parse_program("store nat init 0\nget")
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert cli.parse_program is original
    assert tracer.counts["terms.parse_program.calls"] == 1
    assert tracer.counts["terms.parse_program.nodes"] == 1
    assert tracer.layer_times()["terms.parse_program"]["s"] > 0


def test_tally_counts_items_not_calls():
    import run

    def fail():
        raise RecursionError

    items = [workloads.Item("ok", lambda: 1, lambda answer: None), workloads.Item("bad", fail, lambda answer: None)]
    tally = run.Tally()
    for rescale in (False, True, True):
        run.run_pass(items, tally, rescale=rescale)
    assert (tally.attempted, tally.failed, tally.flaky()) == (2, 1, [])
    assert len(tally.all_samples()) == 6 and min(tally.all_samples()) >= 0


def test_pair_defect_is_named_only_when_a_side_loses_its_result():
    # found on verify_pairs(104), item rewrite-unitR_inv-20
    lhs = parse_term("suc (let v0 = let v1 = let v2 = zero in unit in suc zero in suc zero)")
    losing = workloads._pair_item("p", lhs, Let("x", lhs, Var("x")), True)
    assert losing.check((False, ["r!<2>"])) is not None
    assert losing.known_defect((False, ["r!<2>"]))
    sound = workloads._pair_item("q", lhs, lhs, True)
    assert not sound.known_defect((False, ["r!<2>"]))
