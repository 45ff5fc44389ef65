"""effsess benchmark: one closed-loop caller, one item at a time, one thread.

    python3 perfbench/run.py --workload exec-corpus --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  ``--trace 0`` times whole passes over the
workload's items and prints the end-to-end metrics; ``--trace 1`` runs two
traced passes between two untraced ones and prints the per-layer metrics.  A
table for people comes first; the last line of standard output is one JSON
object.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed  # this script's own directory is on sys.path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 9
SPEED_PROBES = 5  # per set-up probe
CLI_SAMPLE = 3  # exec-corpus items also run through the CLI in traced passes
CHILD_TIMEOUT = 170
# A probe sees the machine's speed over a few milliseconds.  That tracks a
# call of up to about a second; a longer call averages the speed over its own
# run, and in runs of the 5 s four-client race its CPU time alone spread less
# than its time rescaled by the probes around it.
LONG_CALL_S = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "effsess" / "__init__.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        print(f"perfbench: no effsess sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        # CPU seconds since the process began, then the machine's speed now
        setup = time.process_time()
        print(setup, statistics.median(speed.probe() for _ in range(SPEED_PROBES)), flush=True)
        return 0
    if args.trace:
        return traced_run(args, workloads)
    return timed_run(args, workloads)


# ------------------------------------------------------------------ passes


class Tally:
    """Items attempted and failed, and their times, over every pass of one run.

    Every pass calls the same items, so ``attempted`` and ``failed`` count
    items, not calls: they depend on the seed alone, not on how many passes
    fit in the run.  An item fails when any of its calls failed.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.reasons: dict[str, set[str]] = {}
        self.passes_failed: dict[str, int] = {}
        self.wrong: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for n in self.passes_failed.values() if n)

    def record(self, item, seconds: float, answer, error) -> None:
        self.samples.setdefault(item.label, []).append(seconds)
        if error is not None:
            reason = f"{item.label}: {type(error).__name__}"
        else:
            try:
                reason = item.check(answer)
                if reason is not None and not item.known_defect(answer):
                    self.wrong.append(reason)
                elif reason is not None:
                    reason = f"{item.label}: known defect"
            except Exception as exc:  # a malformed answer is a wrong answer
                reason = f"{item.label}: check raised {type(exc).__name__}: {exc}"
                self.wrong.append(reason)
        self.passes_failed[item.label] = self.passes_failed.get(item.label, 0) + (reason is not None)
        if reason is not None:
            self.reasons.setdefault(item.label, set()).add(reason)

    def all_samples(self) -> list[float]:
        return [t for times in self.samples.values() for t in times]

    def typical_pass(self) -> float:
        """One pass as the sum of each item's median time over the passes."""
        return sum(statistics.median(times) for times in self.samples.values())

    def flaky(self) -> list[str]:
        """Items that failed in some passes and not in others."""
        return [label for label, n in self.passes_failed.items() if 0 < n < len(self.samples[label])]


def run_pass(items, tally: Tally, tracer=None, clock=time.process_time, rescale=False) -> float:
    """Call every item once; returns the summed time of the calls.

    Items are timed in CPU seconds of this process by default: the calls
    are single-threaded and do no I/O, so that is their wall time less the
    time the machine gave the core to other jobs.  Items that work in a
    subprocess pass ``clock=time.perf_counter``.  With ``rescale``, the
    speed probe runs before every item and after the last, and the tally
    keeps the time of each call shorter than ``LONG_CALL_S`` at the
    reference speed, from the median of the two probes before and the two
    after it.
    """
    total = 0.0
    probes = []
    for item in items:
        if rescale:
            probes.append(speed.probe())
        error = answer = None
        if tracer is not None:
            tracer.recording = True
        start = clock()
        try:
            answer = item.call()
        except Exception as exc:  # counted as a failure, never fatal
            error = exc
        seconds = clock() - start
        if tracer is not None:
            tracer.recording = False
        total += seconds
        tally.record(item, seconds, answer, error)
    if rescale:
        probes.append(speed.probe())
        for k, item in enumerate(items):
            if tally.samples[item.label][-1] < LONG_CALL_S:
                # probes[k] ran just before item k and probes[k + 1] just after it
                tally.samples[item.label][-1] *= speed.REFERENCE_S / statistics.median(probes[max(k - 1, 0):k + 3])
    return total


def setup_seconds(args) -> list[float]:
    """Interpreter start to first item, in fresh processes: import effsess
    and build the workload's inputs.  Each child reports its CPU seconds up
    to that point, for the reason given in ``run_pass``, and then the speed
    probe's time, by which its set-up time is rescaled."""
    times = []
    for _ in range(SETUP_PROBES):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        if child.returncode != 0:
            raise RuntimeError(f"setup probe failed: {child.stderr.strip()}")
        setup, probe = map(float, child.stdout.split())
        times.append(setup * speed.REFERENCE_S / probe)
    return times


def load_items(args, workloads) -> list:
    items = workloads.WORKLOADS[args.workload](args.seed)
    if len({item.label for item in items}) != len(items):
        raise RuntimeError(f"{args.workload}: two items share a label, so the tally would merge them")
    return items


def settle(workloads) -> None:
    """Warm the interpreter on every layer, then move the benchmark's own
    objects out of the collector's way so passes see only the program's."""
    run_pass([workloads.calibration_item()], Tally())
    gc.collect()
    gc.freeze()


def timed_run(args, workloads) -> int:
    setup = setup_seconds(args)
    items = load_items(args, workloads)
    settle(workloads)
    tally = Tally()
    passes: list[float] = []  # wall time
    cpu: list[float] = []  # CPU time of the calls, not rescaled
    began = time.perf_counter()
    # whole passes only; stop before a pass that would overrun --seconds
    while not passes or time.perf_counter() - began + statistics.median(passes) <= args.seconds:
        start = time.perf_counter()
        cpu.append(run_pass(items, tally, rescale=True))
        passes.append(time.perf_counter() - start)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = tally.all_samples()
    rows = [
        ("setup_s", statistics.median(setup), "s", len(setup)),
        ("pass_s", tally.typical_pass(), "s", len(samples)),
        ("item_s.p50", statistics.median(samples), "s", len(samples)),
        ("peak_rss_mb", rss_mb, "MB", 1),
        ("ok_frac", (tally.attempted - tally.failed) / tally.attempted, "1", tally.attempted),
    ]
    extra = [
        ("failed_frac", tally.failed / tally.attempted, "1", tally.attempted),
        ("pass_cpu_s", statistics.median(cpu), "s", len(cpu)),
    ]
    if len(samples) >= 100:  # at least ten samples beyond the 90th percentile
        extra.append(("item_s.p90", statistics.quantiles(samples, n=10)[-1], "s", len(samples)))
    walls = ", ".join(f"{w:.3f}" for w in passes)
    report(args, f"{len(items)} items, {len(passes)} passes of {walls} s wall time", rows, extra, tally, tally.wrong)
    return 0


# ------------------------------------------------------------------- trace


def traced_run(args, workloads) -> int:
    import spans as tracing

    items = load_items(args, workloads)
    cli_sample = (workloads.exec_programs(args.seed)[:CLI_SAMPLE] if args.workload == "exec-corpus"
                  else [workloads.CALIBRATION])
    cli_items = [workloads.cli_item(f"cli-{k}", prog, ROOT, WORKDIR) for k, prog in enumerate(cli_sample)]
    tally = Tally()
    settle(workloads)
    untraced = [run_pass(items, tally)]
    tracer = tracing.Tracer()
    tracer.install()
    passes = []
    try:
        for _ in range(2):
            tracer.reset()
            # the calibration item and the CLI reach every layer, so no
            # per-layer value is a default
            probe_tally = Tally()
            run_pass([workloads.calibration_item()], probe_tally, tracer)
            cli_s = run_pass(cli_items, probe_tally, tracer, clock=time.perf_counter)
            tally.wrong += probe_tally.wrong
            wall = run_pass(items, tally, tracer)
            passes.append((wall, cli_s, tracer.layer_times(), dict(tracer.counts), tracer.spans))
    finally:
        tracer.uninstall()
    # untraced passes on both sides of the traced ones, so drift cancels
    untraced.append(run_pass(items, tally))

    counts = passes[0][3]
    mismatch = [k for k in sorted(set(counts) | set(passes[1][3])) if counts.get(k) != passes[1][3].get(k)]
    problems = list(tally.wrong) + [f"count {k} differs between traced passes" for k in mismatch]

    def layer(name, field):
        return statistics.median(p[2].get(name, {}).get(field, 0.0) for p in passes)

    def count(name):
        return counts.get(name, 0)

    calls = count("semantics.transitions.calls")
    rows = [
        ("terms.parse_program.s", layer("terms.parse_program", "s"), "s"),
        ("terms.parse_program.nodes", count("terms.parse_program.nodes"), "count"),
        ("infer.infer.s", layer("infer.infer", "s"), "s"),
        ("embedding.embed_top.s", layer("embedding.embed_top", "s"), "s"),
        ("embedding.embed_top.out_chars", count("embedding.embed_top.out_chars"), "chars"),
        ("session_check.session_check.s", layer("session_check.session_check", "s"), "s"),
        ("normalize.normalize.s", layer("normalize.normalize", "s"), "s"),
        ("normalize.normalize.out_chars", count("normalize.normalize.out_chars"), "chars"),
        ("semantics.make_configuration.s", layer("semantics.make_configuration", "s"), "s"),
        ("semantics.make_configuration.calls", count("semantics.make_configuration.calls"), "count"),
        ("semantics.transitions.s", layer("semantics.transitions", "s"), "s"),
        ("semantics.transitions.calls", calls, "count"),
        ("semantics.transitions.edges", count("semantics.transitions.edges"), "count"),
        ("semantics.transitions.ms_per_call", 1000 * layer("semantics.transitions", "s") / max(calls, 1), "ms"),
        ("semantics.transitions.new_ratio",
         count("semantics.transitions.first_seen") / max(count("semantics.transitions.edges"), 1),
         "ratio"),
        ("semantics.run.self_s", layer("semantics.run", "self_s"), "s"),
        ("semantics.run.steps", count("semantics.run.steps"), "count"),
        ("semantics.run.outcomes", count("semantics.run.outcomes"), "count"),
        ("equivalence.build_lts.self_s", layer("equivalence.build_lts", "self_s"), "s"),
        ("equivalence.build_lts.states", count("equivalence.build_lts.states"), "count"),
        ("equivalence.build_lts.transitions", count("equivalence.build_lts.transitions"), "count"),
        ("equivalence.weak_bisimilar.s", layer("equivalence.weak_bisimilar", "s"), "s"),
        ("cli.run.s", statistics.median(p[1] for p in passes), "s"),
        ("trace.overhead_s", statistics.mean(p[0] for p in passes) - statistics.mean(untraced), "s"),
    ]
    WORKDIR.mkdir(parents=True, exist_ok=True)
    spans_file = WORKDIR / f"spans-{args.workload}-{args.seed}.json"
    spans_file.write_text(json.dumps([p[4] for p in passes]))
    rows = [(name, value, unit, 2) for name, value, unit in rows]
    report(args, f"2 untraced and 2 traced passes of {len(items)} items; spans in {spans_file.relative_to(ROOT)}",
           rows, [], tally, problems)
    return 0


# ------------------------------------------------------------------ output


def report(args, what: str, rows, extra, tally: Tally, problems: list[str]) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: {what}")
    print(f"  {'metric':36} {'value':>14}  {'unit':6} samples")
    for name, value, unit, n in rows + extra:
        print(f"  {name:36} {value:14.6g}  {unit:6} {n}")
    for label, n in tally.passes_failed.items():
        if n:
            print(f"  failed in {n} of {len(tally.samples[label])} passes: {'; '.join(sorted(tally.reasons[label]))}")
    for label in tally.flaky():
        print(f"  note: {label} failed in some passes only; it counts as failed")
    for problem in problems:
        print(f"  WRONG: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }), flush=True)


def run_all(args, names) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, text=True, stdout=subprocess.PIPE, timeout=2 * CHILD_TIMEOUT,
        )
        print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
        status = status or child.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
