"""Spans around calls into ``effsess``, recorded from outside the package.

``Tracer.install`` rebinds each traced public function in every loaded
module namespace that holds it, which is where its callers look it up (the
package itself, sibling modules that imported it by name, the defining
module for calls through ``module.function``, and the benchmark's own
code).  Spans are ``(name, start, end, parent)`` tuples kept in memory; a
layer's self time is its span minus the time its child spans cover.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from effsess import process as P
from reference import node_count


def _count_parse(tracer, parent, result):
    tracer.count("terms.parse_program.nodes", node_count(result.root))


def _count_embed(tracer, parent, result):
    tracer.count("embedding.embed_top.out_chars", len(P.format_process(result.process)))


def _count_normalize(tracer, parent, result):
    tracer.count("normalize.normalize.out_chars", len(P.format_process(result)))


def _count_transitions(tracer, parent, result):
    tracer.count("semantics.transitions.edges", len(result))
    seen = tracer.seen_keys[parent]
    for _, target in result:
        if target.key not in seen:
            seen.add(target.key)
            tracer.count("semantics.transitions.first_seen", 1)


def _count_run(tracer, parent, result):
    tracer.count("semantics.run.steps", sum(o.steps for o in result))
    tracer.count("semantics.run.outcomes", len(result))


def _count_lts(tracer, parent, result):
    tracer.count("equivalence.build_lts.states", result.n_states)
    tracer.count("equivalence.build_lts.transitions",
                 sum(len(targets) for table in result.edges for targets in table.values()))


# (module, function, hook on the result of each completed call)
TRACED = (
    ("effsess.terms", "parse_program", _count_parse),
    ("effsess.infer", "infer", None),
    ("effsess.embedding", "embed_top", _count_embed),
    ("effsess.session_check", "session_check", None),
    ("effsess.normalize", "normalize", _count_normalize),
    ("effsess.semantics", "make_configuration", None),
    ("effsess.semantics", "transitions", _count_transitions),
    ("effsess.semantics", "run", _count_run),
    ("effsess.equivalence", "build_lts", _count_lts),
    ("effsess.equivalence", "weak_bisimilar", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.recording = False
        # first-seen target keys, per enclosing span (one run or build_lts)
        self.seen_keys: dict[int, set[str]] = defaultdict(set)
        self.hook_time: dict[int, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self.seen_keys = defaultdict(set)
        self.hook_time = defaultdict(float)

    def _wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            # untraced outside items, and a recursive call stays in its span
            if not self.recording or (self._stack and self.spans[self._stack[-1]][0] == name):
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            self.counts[f"{name}.calls"] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, parent, result)
                # the hook ran inside the parent span; keep it out of its self time
                self.hook_time[parent] += perf_counter() - end
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, hook in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(f"{module_name.removeprefix('effsess.')}.{attr}", original, hook)
            for module in list(sys.modules.values()):
                if getattr(module, attr, None) is original and module.__name__ != "builtins":
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: total duration ``s`` and ``self_s`` (duration less
        the time covered by direct children)."""
        child_time = [self.hook_time.get(i, 0.0) for i in range(len(self.spans))]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name]["s"] += end - start
            out[name]["self_s"] += end - start - child_time[i]
        return out
