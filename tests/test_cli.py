import hashlib
import json
import sys

import pytest

from effsess import cli, embedding, semantics
from effsess.cli import main, render_translation
from effsess.terms import parse_program

SAMPLE = "store nat init 0\nlet x = get in put (suc x)\n"


@pytest.fixture
def sample(tmp_path):
    path = tmp_path / "sample.eff"
    path.write_text(SAMPLE)
    return str(path)


def test_check_prints_type_and_effect(sample, capsys):
    assert main(["check", sample]) == 0
    assert capsys.readouterr().out.strip() == "unit, [G nat, P nat]"


def test_check_type_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.eff"
    path.write_text("store nat init 0\nsuc get\n")
    assert main(["check", str(path)]) == 1
    assert "pure" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.eff"
    path.write_text("store nat init 0\nput\n")
    assert main(["check", str(path)]) == 2


def test_translate_delta_annotation(sample, capsys):
    assert main(["translate", sample]) == 0
    out = capsys.readouterr().out
    assert "-- delta eff : +{get: ?[nat]. +{put: ![nat]. end}}" in out
    assert "-- delta r : ![unit]. end" in out


def test_translate_pure_program_has_end_delta(tmp_path, capsys):
    path = tmp_path / "pure.eff"
    path.write_text("store nat init 0\nsuc zero\n")
    assert main(["translate", str(path)]) == 0
    assert "-- delta eff : end" in capsys.readouterr().out


def test_translate_then_pi_check(sample, tmp_path, capsys):
    assert main(["translate", sample]) == 0
    translated = tmp_path / "sample.pi"
    translated.write_text(capsys.readouterr().out)
    assert main(["pi-check", str(translated)]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_pi_check_rejects_tampered_delta(sample, tmp_path, capsys):
    assert main(["translate", sample]) == 0
    text = capsys.readouterr().out
    tampered = text.replace("+{get: ?[nat]. +{put: ![nat]. end}}", "end")
    path = tmp_path / "bad.pi"
    path.write_text(tampered)
    assert main(["pi-check", str(path)]) == 1


@pytest.mark.parametrize(
    "text, where",
    [
        ("def X(x: foo; ) = 0 in X<0; >\n", "1:10: unknown value type 'foo'"),
        ("-- delta r : mu a. b\nr!<0>\n", "1:14: non-contractive mu 'a'"),
        ("-- gamma x : bool\n0\n", "1:14: unknown value type 'bool'"),
        ("-- delta r : ![nat]. end\n-- delta q : ![nat\nr!<0>\n", "2:19: unexpected end of input"),
    ],
)
def test_pi_check_malformed_annotation_is_a_parse_error(tmp_path, capsys, text, where):
    path = tmp_path / "bad.pi"
    path.write_text(text)
    assert main(["pi-check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"parse error: {where}\n"


def test_run_reports_store_and_result(sample, capsys):
    assert main(["run", sample, "--all-schedules"]) == 0
    out = capsys.readouterr().out
    assert "result=[unit]" in out
    assert "store=1" in out


def test_run_json_schema(sample, capsys):
    assert main(["--json", "run", sample, "--all-schedules"]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["schema"] == 1
    assert record["result_values"] == ["unit"]
    assert record["store"] == 1
    assert "residual_hash" in record and "steps" in record


def test_run_send_stop_terminates_store(sample, capsys):
    assert main(["--json", "run", sample, "--all-schedules", "--send-stop"]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert "store" not in record  # the agent shut down cleanly


def test_equiv_unitr(tmp_path, capsys):
    a = tmp_path / "a.eff"
    b = tmp_path / "b.eff"
    a.write_text("store nat init 0\nlet x = get in x\n")
    b.write_text("store nat init 0\nget\n")
    assert main(["equiv", str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "BISIMILAR"


def test_equiv_negative_with_trace(tmp_path, capsys):
    a = tmp_path / "a.eff"
    b = tmp_path / "b.eff"
    a.write_text("store nat init 0\nput zero\n")
    b.write_text("store nat init 0\nput (suc zero)\n")
    assert main(["equiv", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("NOT BISIMILAR")
    assert "eff" in out


def test_deterministic_output(sample, capsys):
    main(["translate", sample])
    first = capsys.readouterr().out
    main(["translate", sample])
    assert capsys.readouterr().out == first


def test_translate_optimize_flag(tmp_path, capsys):
    path = tmp_path / "opt.eff"
    path.write_text("store nat init 0\nlet x = zero in let y = get in put x\n")
    assert main(["translate", str(path), "--optimize"]) == 0
    unoptimized = capsys.readouterr()
    assert main(["translate", str(path)]) == 0
    default = capsys.readouterr()
    assert unoptimized.out != default.out


def test_missing_file(capsys):
    assert main(["check", "/nonexistent/x.eff"]) == 2


def test_run_out_of_fuel_exits_3(sample, capsys):
    assert main(["run", sample, "--fuel", "3"]) == 3
    assert "no answer (fuel)" in capsys.readouterr().err


def test_run_out_of_fuel_json_record(sample, capsys):
    assert main(["--json", "run", sample, "--all-schedules", "--fuel", "3"]) == 3
    record = json.loads(capsys.readouterr().out.strip())
    assert record["schema"] == 1 and record["ok"] is False
    assert record["kind"] == "fuel" and "3 steps" in record["error"]


def test_equiv_partial_lts_exits_3(tmp_path, capsys):
    a = tmp_path / "a.eff"
    a.write_text("store nat init 0\nlet x = get in x\n")
    assert main(["--json", "equiv", str(a), str(a), "--fuel", "2"]) == 3
    assert json.loads(capsys.readouterr().out.strip())["kind"] == "partial-lts"


@pytest.mark.parametrize(
    "error, kind",
    [
        (semantics.StateCapExceeded("more than 1 configurations explored"), "state-cap"),
        (semantics.RuntimeSafetyViolation("send on #0 meets Branch"), "runtime-safety"),
    ],
)
def test_run_exploration_errors_exit_3(sample, capsys, monkeypatch, error, kind):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(semantics, "run", fail)
    assert main(["--json", "run", sample]) == 3
    record = json.loads(capsys.readouterr().out.strip())
    assert record == {"schema": 1, "ok": False, "kind": kind, "error": str(error)}


@pytest.mark.parametrize("command", ["run", "equiv"])
def test_nonpositive_fuel_is_a_usage_error(sample, capsys, command):
    files = [sample] if command == "run" else [sample, sample]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *files, "--fuel", "0"])
    assert exit_info.value.code == 2
    assert "fuel must be positive" in capsys.readouterr().err


# sha256 of `effsess translate` on the `deep` program
DEEP_TRANSLATION_DIGEST = "928e57c5cc95221977a8ec43d4a5e7bb2db571e8ab2448511c19db87c31c37d3"


@pytest.fixture
def deep(tmp_path):
    path = tmp_path / "deep.eff"
    lets = " ".join(f"let x{i} = get in" for i in range(2000))
    path.write_text(f"store nat init 0\n{lets} get\n")
    return str(path)


def test_deep_program_is_checked(deep, capsys):
    assert main(["check", deep]) == 0
    assert capsys.readouterr().out == "nat, [" + ", ".join(["G nat"] * 2001) + "]\n"


def test_deep_program_translates_at_default_recursion_limit(deep, capsys):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code = main(["translate", deep])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    out = capsys.readouterr().out
    (eff,) = [line for line in out.splitlines() if line.startswith("-- delta eff : ")]
    assert eff == "-- delta eff : " + "+{get: ?[nat]. " * 2001 + "end" + "}" * 2001
    # the whole translation, byte for byte (32,357,980 bytes)
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_TRANSLATION_DIGEST


def test_chain_prints_each_annotation_node_once(monkeypatch):
    # consecutive annotations share their tail, and a node keeps its text once
    # printed, so printing the translation visits each node about once
    from effsess import sessions

    calls = []
    real = sessions.is_value_payload
    monkeypatch.setattr(sessions, "is_value_payload", lambda payload: calls.append(None) or real(payload))
    counts = []
    for n in (100, 200):
        lets = " ".join(f"let x{i} = get in let u{i} = put (suc x{i}) in" for i in range(n))
        result = embedding.embed_top(parse_program(f"store nat init 0\n{lets} get"))
        calls.clear()
        render_translation(result)
        counts.append(len(calls))
    assert counts[1] <= 2.2 * counts[0]


def _nested_too_deeply(*args, **kwargs):
    raise RecursionError("maximum recursion depth exceeded")


def test_deep_program_is_a_depth_error(deep, capsys, monkeypatch):
    monkeypatch.setattr(cli, "infer", _nested_too_deeply)
    assert main(["check", deep]) == 3
    assert capsys.readouterr().err.startswith("no answer (depth): ")


def test_deep_program_json_record(deep, capsys, monkeypatch):
    monkeypatch.setattr(cli, "infer", _nested_too_deeply)
    assert main(["--json", "check", deep]) == 3
    record = json.loads(capsys.readouterr().out.strip())
    assert record["schema"] == 1 and record["ok"] is False and record["kind"] == "depth"


# Every command's output, frozen: each command and mode, answering or not.
_PROGRAMS = {
    "sample.eff": SAMPLE,
    "bad.eff": "store nat init 0\nsuc get\n",
    "unparsed.eff": "store nat init 0\nput\n",
    "let.eff": "store nat init 0\nlet x = get in x\n",
    "get.eff": "store nat init 0\nget\n",
    "put0.eff": "store nat init 0\nput zero\n",
    "put1.eff": "store nat init 0\nput (suc zero)\n",
}
_SAMPLE_DELTA = "+{get: ?[nat]. +{put: ![nat]. end}}"
_SAMPLE_PROCESS = (
    "new ei: ?[+{get: ?[nat]. +{put: ![nat]. end}}]. end. new eo: ?[end]. end. (new q: ![nat]. end. "
    "new ea: ?[+{put: ![nat]. end}]. end. (ei?(c). c <+ get. c?(x1). q!<x1>. ~ea!<c> | ~q?(x). "
    "new q1: ![nat]. end. (new q2: ![nat]. end. (q2!<x> | ~q2?(x3). q1!<suc x3>) | ea?(c1). ~q1?(x2). "
    "c1 <+ put. c1!<x2>. r!<unit>. ~eo!<c1>)) | ~ei!<eff>. eo?(c2))"
)
_SAMPLE_TRANSLATION = f"-- delta eff : {_SAMPLE_DELTA}\n-- delta r : ![unit]. end\n{_SAMPLE_PROCESS}\n"
_TYPE_ERROR = "argument of suc must be pure, but get has effect [G nat]"
_SAMPLE_RUN = '{"schema": 1, "result_values": ["unit"], "residual_hash": "3425f5ea34ec", "steps": 14, "store": 1}\n'

FROZEN_OUTPUTS = [
    # argv, exit code, stdout, stderr
    (["check", "sample.eff"], 0, "unit, [G nat, P nat]\n", ""),
    (["check", "bad.eff"], 1, f"type error: {_TYPE_ERROR}\n", ""),
    (["check", "unparsed.eff"], 2, "", "parse error: 2:1: put requires an argument\n"),
    (["translate", "sample.eff"], 0, _SAMPLE_TRANSLATION, ""),
    (["translate", "bad.eff"], 1, "", f"type error: {_TYPE_ERROR}\n"),
    (["pi-check", "sample.pi"], 0, "OK\n", ""),
    (["pi-check", "tampered.pi"], 1, "session type error (shape): c selects but its type is end\n", ""),
    (["equiv", "let.eff", "get.eff"], 0, "BISIMILAR\n", ""),
    (["equiv", "put0.eff", "put1.eff"], 1, "NOT BISIMILAR\n  eff<+put\n  eff!<0>\n", ""),
    (["equiv", "let.eff", "let.eff", "--fuel", "2"], 3, "",
     "no answer (partial-lts): bisimulation requires complete transition systems\n"),
    (["run", "sample.eff"], 0, "result=[unit] store=1 steps=14 residual=3425f5ea34ec\n", ""),
    (["run", "sample.eff", "--all-schedules", "--send-stop"], 0, "result=[unit] steps=15 residual=5feceb66ffc8\n", ""),
    (["run", "bad.eff"], 1, "", f"type error: {_TYPE_ERROR}\n"),
    (["run", "sample.eff", "--fuel", "3"], 3, "", "no answer (fuel): no quiescence within 3 steps\n"),
    (["--json", "check", "sample.eff"], 0, '{"schema": 1, "ok": true, "type": "unit", "effect": "[G nat, P nat]"}\n', ""),
    (["--json", "check", "bad.eff"], 1,
     f'{{"schema": 1, "ok": false, "error": "{_TYPE_ERROR}", "kind": "impure-argument"}}\n', ""),
    (["--json", "check", "unparsed.eff"], 2,
     '{"schema": 1, "ok": false, "kind": "parse", "error": "2:1: put requires an argument"}\n', ""),
    (["check", "missing.eff"], 2, "", "cannot read missing.eff\n"),
    (["--json", "check", "missing.eff"], 2,
     '{"schema": 1, "ok": false, "kind": "read", "error": "cannot read missing.eff"}\n', ""),
    (["--json", "translate", "sample.eff"], 0,
     f'{{"schema": 1, "process": "{_SAMPLE_PROCESS}", "delta": {{"r": "![unit]. end", "eff": "{_SAMPLE_DELTA}"}}, '
     '"gamma": {}}\n', ""),
    (["--json", "pi-check", "sample.pi"], 0, '{"schema": 1, "ok": true}\n', ""),
    (["--json", "pi-check", "tampered.pi"], 1,
     '{"schema": 1, "ok": false, "kind": "shape", "error": "c selects but its type is end"}\n', ""),
    (["--json", "equiv", "let.eff", "get.eff"], 0, '{"schema": 1, "bisimilar": true, "trace": null}\n', ""),
    (["--json", "equiv", "put0.eff", "put1.eff"], 1,
     '{"schema": 1, "bisimilar": false, "trace": ["eff<+put", "eff!<0>"]}\n', ""),
    (["--json", "equiv", "let.eff", "let.eff", "--fuel", "2"], 3,
     '{"schema": 1, "ok": false, "kind": "partial-lts", "error": "bisimulation requires complete transition systems"}\n',
     ""),
    (["--json", "run", "sample.eff"], 0, _SAMPLE_RUN, ""),
    (["--json", "run", "sample.eff", "--all-schedules"], 0, _SAMPLE_RUN, ""),
    (["--json", "run", "sample.eff", "--fuel", "3"], 3,
     '{"schema": 1, "ok": false, "kind": "fuel", "error": "no quiescence within 3 steps"}\n', ""),
]


@pytest.fixture
def programs(tmp_path, monkeypatch):
    for name, text in _PROGRAMS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "sample.pi").write_text(_SAMPLE_TRANSLATION)
    (tmp_path / "tampered.pi").write_text(_SAMPLE_TRANSLATION.replace(_SAMPLE_DELTA, "end"))
    (tmp_path / "unparsed.pi").write_text("-- delta r : ![nat]. end\nr!<0> |\n")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv, code, out, err", FROZEN_OUTPUTS, ids=[" ".join(case[0]) for case in FROZEN_OUTPUTS])
def test_frozen_output(programs, capsys, argv, code, out, err):
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("command", [["check"], ["translate"], ["run"], ["equiv", "get.eff"]])
def test_json_type_error_is_a_record(programs, capsys, command):
    # every command that infers a type reports a type error as `check` does
    assert main(["--json", command[0], "bad.eff", *command[1:]]) == 1
    record = f'{{"schema": 1, "ok": false, "error": "{_TYPE_ERROR}", "kind": "impure-argument"}}\n'
    assert capsys.readouterr() == (record, "")


@pytest.mark.parametrize("argv", [["check", "unparsed.eff"], ["translate", "unparsed.eff"], ["run", "unparsed.eff"],
                                  ["equiv", "get.eff", "unparsed.eff"], ["pi-check", "unparsed.pi"]], ids=" ".join)
def test_json_parse_error_is_a_record(programs, capsys, argv):
    # on stdout, and still exit 2; text mode prints the same error on stderr
    assert main(argv) == 2
    error = capsys.readouterr().err.removeprefix("parse error: ").rstrip("\n")
    assert main(["--json", *argv]) == 2
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out) == {"schema": 1, "ok": False, "kind": "parse", "error": error}
    assert out.count("\n") == 1


@pytest.mark.parametrize("command", [["check"], ["translate"], ["pi-check"], ["run"], ["equiv", "get.eff"]])
def test_json_read_error_is_a_record(programs, capsys, command):
    assert main(["--json", command[0], "missing.eff", *command[1:]]) == 2
    record = '{"schema": 1, "ok": false, "kind": "read", "error": "cannot read missing.eff"}\n'
    assert capsys.readouterr() == (record, "")


def test_equiv_type_error_is_reported(programs, capsys):
    # on stderr, as `translate` and `run` report theirs
    assert main(["equiv", "bad.eff", "get.eff"]) == 1
    assert capsys.readouterr() == ("", f"type error: {_TYPE_ERROR}\n")
