"""Command line front end: check, translate, pi-check, run, equiv.

Exit codes: 0 success (or BISIMILAR), 1 negative analysis verdict, 2
usage or parse errors, 3 a command that stopped without an answer: fuel
exhausted, state cap exceeded, runtime safety violation, an LTS left
partial by its fuel, or a program nested too deeply for Python's recursion
limit (kinds ``fuel``, ``state-cap``, ``runtime-safety``, ``partial-lts``
and ``depth``).  ``--json`` switches every subcommand to versioned
machine-readable records (schema 1), one emitter writing them all: a type
error prints ``{"schema": 1, "ok": false, "error": ..., "kind": ...}``, and
a parse error, a file that cannot be read (both exit 2) and an exit code 3
``{"schema": 1, "ok": false, "kind": ..., "error": ...}``, with kind
``parse`` or ``read`` for the first two.  Without it, a type error of
`translate`, `run` or `equiv`, a parse or read error and a ``no answer
(kind): ...`` line go to stderr.  A usage error (an unknown subcommand or
option, a missing argument, a fuel that is not positive) is argparse's:
text on stderr, exit 2, in either mode.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import embedding, equivalence, semantics
from . import process as P
from . import sessions as S
from .infer import EffectTypeError, infer
from .effects import format_effect
from .session_check import ProcEnv, SessionTypeError, session_check
from .terms import ParseError, ValueType, parse_program, parse_value_type

SCHEMA = 1
NO_ANSWER = 3

# The kind each no-answer error reports.
_NO_ANSWER_KINDS = {
    semantics.FuelExhausted: "fuel",
    semantics.StateCapExceeded: "state-cap",
    semantics.RuntimeSafetyViolation: "runtime-safety",
    equivalence.PartialLTS: "partial-lts",
    RecursionError: "depth",
}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _json_value(v: P.Value):
    if isinstance(v, P.NatLit):
        return v.n
    if isinstance(v, P.UnitLit):
        return "unit"
    return P.format_value(v)


def _emit(args, record: dict, text: str, err: bool = False) -> None:
    """Print one result: with ``--json`` the versioned ``record``, or else
    ``text``, on stderr if ``err``."""
    if args.json:
        print(json.dumps({"schema": SCHEMA, **record}))
    else:
        print(text, file=sys.stderr if err else sys.stdout)


def cmd_check(args) -> int:
    prog = parse_program(_read(args.file))
    tau, eff = infer({}, prog.store_type, prog.root)
    _emit(args, {"ok": True, "type": str(tau), "effect": format_effect(eff)}, f"{tau}, {format_effect(eff)}")
    return 0


def _translation(result: embedding.EmbeddingResult, process: str) -> str:
    """A translation's `-- gamma` and `-- delta` lines, then ``process``, its text."""
    lines = [f"-- gamma {name} : {tau}" for name, tau in sorted(result.gamma.items())]
    for ep, session in sorted(result.delta.items(), key=lambda kv: str(kv[0])):
        lines.append(f"-- delta {ep} : {S.format_session_type(session)}")
    return "\n".join(lines + [process])


def render_translation(result: embedding.EmbeddingResult) -> str:
    return _translation(result, P.format_process(result.process)) + "\n"


def cmd_translate(args) -> int:
    result = embedding.embed_top(parse_program(_read(args.file)), optimize=args.optimize)
    process = P.format_process(result.process)
    record = {
        "process": process,
        "delta": {str(ep): S.format_session_type(s) for ep, s in result.delta.items()},
        "gamma": {name: str(t) for name, t in result.gamma.items()},
    }
    _emit(args, record, _translation(result, process))
    return 0


def parse_translation(text: str) -> tuple[ProcEnv, dict[P.Endpoint, S.SessionType], P.Process]:
    """Read a translated file: `-- delta`/`-- gamma` directives plus the
    process text (the directives are ordinary comments to the parser)."""
    delta: dict[P.Endpoint, S.SessionType] = {}
    gamma: dict[str, ValueType] = {}
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        for directive in ("-- delta ", "-- gamma "):
            if stripped.startswith(directive):
                payload = stripped[len(directive):]
                name, _, type_text = payload.partition(":")
                name, type_text = name.strip(), type_text.strip()
                start = line.rfind(type_text) + 1
                try:
                    if directive == "-- delta ":
                        dualized = name.startswith("~")
                        ep = P.Endpoint(name.lstrip("~"), dualized)
                        delta[ep] = S.parse_session_type(type_text)
                    else:
                        gamma[name] = parse_value_type(type_text)
                except ParseError as exc:  # a syntax error inside the type
                    raise ParseError(exc.message, number, start + exc.column - 1) from None
                except ValueError as exc:  # an ill-formed type, or no type at all
                    raise ParseError(str(exc), number, start) from None
    known = {ep.name for ep in delta}
    proc = P.parse_process(text, known_channels=known)
    env = ProcEnv(vars=gamma)
    return env, delta, proc


def cmd_pi_check(args) -> int:
    session_check(*parse_translation(_read(args.file)))
    _emit(args, {"ok": True}, "OK")
    return 0


def cmd_run(args) -> int:
    prog = parse_program(_read(args.file))
    result = embedding.embed_top(prog, optimize=args.optimize, send_stop=args.send_stop)
    system = embedding.compose_with_store(
        result, embedding.initial_store_value(prog), prog.store_type
    )
    mode = "all" if args.all_schedules else "one"
    outcomes = semantics.run(
        system,
        mode,
        seed=args.seed,
        fuel=args.fuel,
        store_reader=semantics.find_store_value,
    )
    for outcome in outcomes:
        record = {
            "result_values": [_json_value(v) for v in outcome.emitted],
            "residual_hash": outcome.residual_hash(),
            "steps": outcome.steps,
        }
        if outcome.store is not None:
            record["store"] = _json_value(outcome.store)
        store = "" if outcome.store is None else f" store={record['store']}"
        values = ", ".join(P.format_value(v) for v in outcome.emitted)
        _emit(args, record, f"result=[{values}]{store} steps={outcome.steps} residual={record['residual_hash']}")
    return 0


def cmd_equiv(args) -> int:
    progs = [parse_program(_read(path)) for path in (args.file1, args.file2)]
    domain = tuple(P.NatLit(int(v)) for v in args.values.split(","))
    observables = frozenset({embedding.RESERVED_RESULT, embedding.RESERVED_EFFECT})
    ltss = []
    for prog in progs:
        result = embedding.embed_top(prog)
        ltss.append(
            equivalence.build_lts(result.process, observables, domain, fuel=args.fuel)
        )
    verdict = equivalence.weak_bisimilar(ltss[0], ltss[1])
    trace = verdict.formatted_trace()
    text = "\n".join(["BISIMILAR" if verdict.equivalent else "NOT BISIMILAR"] + [f"  {line}" for line in trace])
    _emit(args, {"bisimilar": verdict.equivalent, "trace": trace or None}, text)
    return 0 if verdict.equivalent else 1


def _fuel(text: str) -> int:
    fuel = int(text)
    if fuel <= 0:
        raise argparse.ArgumentTypeError(f"fuel must be positive, not {fuel}")
    return fuel


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effsess",
        description="Effect-calculus to session-calculus compiler and verifier",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="type-and-effect check a program")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_tr = sub.add_parser("translate", help="translate a program to the session calculus")
    p_tr.add_argument("file")
    p_tr.add_argument("--optimize", action="store_true", help="parallelize commuting lets")
    p_tr.set_defaults(func=cmd_translate)

    p_pc = sub.add_parser("pi-check", help="session-check a translated process")
    p_pc.add_argument("file")
    p_pc.set_defaults(func=cmd_pi_check)

    p_run = sub.add_parser("run", help="execute a program against the store agent")
    p_run.add_argument("file")
    p_run.add_argument("--all-schedules", action="store_true")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--fuel", type=_fuel, default=10_000)
    p_run.add_argument("--optimize", action="store_true")
    p_run.add_argument("--send-stop", action="store_true", help="shut the store down cleanly")
    p_run.set_defaults(func=cmd_run)

    p_eq = sub.add_parser("equiv", help="weak bisimilarity of two translated programs")
    p_eq.add_argument("file1")
    p_eq.add_argument("file2")
    p_eq.add_argument("--values", default="0,1", help="finite input domain, e.g. 0,1")
    p_eq.add_argument("--fuel", type=_fuel, default=10_000)
    p_eq.set_defaults(func=cmd_equiv)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _emit(args, {"ok": False, "kind": "parse", "error": str(exc)}, f"parse error: {exc}", True)
        return 2
    except FileNotFoundError as exc:
        error = f"cannot read {exc.filename}"
        _emit(args, {"ok": False, "kind": "read", "error": error}, error, True)
        return 2
    except EffectTypeError as exc:  # the answer of `check`; `translate`, `run` and `equiv` stop at it
        _emit(args, {"ok": False, "error": str(exc), "kind": exc.kind}, f"type error: {exc}", args.func is not cmd_check)
        return 1
    except SessionTypeError as exc:  # the answer of `pi-check`
        _emit(args, {"ok": False, "kind": exc.kind, "error": str(exc)}, f"session type error ({exc.kind}): {exc}")
        return 1
    except tuple(_NO_ANSWER_KINDS) as exc:
        kind = _NO_ANSWER_KINDS[type(exc)]
        _emit(args, {"ok": False, "kind": kind, "error": str(exc)}, f"no answer ({kind}): {exc}", True)
        return NO_ANSWER


if __name__ == "__main__":
    sys.exit(main())
