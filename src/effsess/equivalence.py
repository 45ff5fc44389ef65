"""Finite labelled transition systems and weak bisimulation checking.

Weak bisimilarity is decided by tau-saturating the transition relation
(weak steps are tau* . label . tau*, plus the reflexive tau* move) and then
running naive partition refinement over the disjoint union of the two
systems.  When the initial states land in different blocks, the refinement
history yields a minimal-depth distinguishing observation sequence.

`build_lts` folds eligible chains (see `semantics`): its states are chain
ends, an edge ``s --l--> t`` points to the end of ``t``'s chain, and
``LTS.folded`` counts the tau steps folded into chain ends.  The result is
branching, hence weakly, bisimilar to the full closure of
`semantics.transitions`, with at most its states.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import process as P
from . import semantics as M


class PartialLTS(Exception):
    pass


@dataclass
class LTS:
    initial: int
    edges: list[dict[M.TransitionLabel, frozenset[int]]]
    keys: list[tuple]
    observables: frozenset[str]
    partial: bool
    folded: int = 0

    @property
    def n_states(self) -> int:
        return len(self.edges)


def build_lts(
    p: P.Process,
    observables,
    value_domain: tuple[P.Value, ...] = (P.NatLit(0), P.NatLit(1)),
    fuel: int = 10_000,
    cap: int = 100_000,
) -> LTS:
    """Breadth-first closure of the transition relation, each target
    followed to the end of its eligible chain (`semantics.fold_chain`);
    ``fuel`` bounds the steps to a state, folded ones included (a state at
    the bound is not expanded, and the LTS is marked partial), and ``cap``
    bounds the state count (exceeding it raises)."""
    observables = frozenset(observables)
    initial, steps = M.fold_chain(M.make_configuration(p, observables=observables), 0, fuel)
    index: dict[tuple, int] = {initial.key: 0}
    configs, depths = [initial], [steps]
    edges: list[dict[M.TransitionLabel, frozenset[int]]] = []
    partial = False
    folded = steps
    while len(edges) < len(configs):  # states are expanded in the order found
        depth, out = depths[len(edges)], {}
        if depth >= fuel:
            partial = True
        else:
            for label, target in M.transitions(configs[len(edges)], value_domain):
                target, steps = M.fold_chain(target, depth + 1, fuel)
                folded += steps - depth - 1
                tid = index.get(target.key)
                if tid is None:
                    if len(configs) >= cap:
                        raise M.StateCapExceeded(f"more than {cap} states in the LTS")
                    tid = index[target.key] = len(configs)
                    configs.append(target)
                    depths.append(steps)
                out.setdefault(label, set()).add(tid)
        edges.append({label: frozenset(ts) for label, ts in out.items()})
    return LTS(0, edges, [c.key for c in configs], observables, partial, folded)


@dataclass
class BisimResult:
    equivalent: bool
    trace: list[M.TransitionLabel] | None

    def formatted_trace(self) -> list[str]:
        return [M.format_label(label) for label in self.trace or []]


def _tau_closure(edges, n: int) -> list[frozenset[int]]:
    closures: list[frozenset[int]] = []
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            q = stack.pop()
            for t in edges[q].get(M.TAU, frozenset()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        closures.append(frozenset(seen))
    return closures


def weak_bisimilar(a: LTS, b: LTS, weak: bool = True) -> BisimResult:
    """Decide (weak) bisimilarity of the initial states; on failure return
    a distinguishing observation sequence of minimal refinement depth."""
    if a.partial or b.partial:
        raise PartialLTS("bisimulation requires complete transition systems")

    n = a.n_states + b.n_states
    shift = a.n_states
    edges: list[dict[M.TransitionLabel, frozenset[int]]] = []
    for st in a.edges:
        edges.append(dict(st))
    for st in b.edges:
        edges.append({label: frozenset(t + shift for t in ts) for label, ts in st.items()})

    visible = sorted(
        {label for st in edges for label in st if not isinstance(label, M.Tau)},
        key=M.format_label,
    )

    # Weak successor sets: tau* . label . tau* for visible labels and the
    # reflexive tau* for the tau move; strong mode uses direct successors.
    if weak:
        closure = _tau_closure(edges, n)
        weak_succ: list[dict[M.TransitionLabel, frozenset[int]]] = []
        for s in range(n):
            table: dict[M.TransitionLabel, frozenset[int]] = {M.TAU: closure[s]}
            for label in visible:
                mids: set[int] = set()
                for q in closure[s]:
                    mids |= edges[q].get(label, frozenset())
                if mids:
                    targets: set[int] = set()
                    for mid in mids:
                        targets |= closure[mid]
                    table[label] = frozenset(targets)
            weak_succ.append(table)
    else:
        weak_succ = [
            {label: ts for label, ts in edges[s].items()} for s in range(n)
        ]
        for s in range(n):
            weak_succ[s].setdefault(M.TAU, frozenset())

    labels = [M.TAU] + visible
    blocks = [0] * n
    history = [list(blocks)]
    while True:
        signatures: dict[tuple, int] = {}
        new_blocks = [0] * n
        for s in range(n):
            sig = (
                blocks[s],
                frozenset(
                    (i, blocks[t])
                    for i, label in enumerate(labels)
                    for t in weak_succ[s].get(label, frozenset())
                ),
            )
            new_blocks[s] = signatures.setdefault(sig, len(signatures))
        if new_blocks == blocks:
            break
        blocks = new_blocks
        history.append(list(blocks))

    init_a, init_b = a.initial, b.initial + shift
    if blocks[init_a] == blocks[init_b]:
        return BisimResult(True, None)

    def first_diff_round(s: int, t: int) -> int:
        for rnd, snapshot in enumerate(history):
            if snapshot[s] != snapshot[t]:
                return rnd
        return len(history)

    def unmatched(s: int, t: int):
        """A move of ``s`` or ``t`` that the other cannot match in the round
        before they split: its label, its target, and the other's moves."""
        prev = history[first_diff_round(s, t) - 1]
        for who, them in ((s, t), (t, s)):
            for label in labels:
                candidates = weak_succ[them].get(label, frozenset())
                for s2 in weak_succ[who].get(label, frozenset()):
                    if all(prev[t2] != prev[s2] for t2 in candidates):
                        return label, s2, candidates
        return None

    # follow unmatched moves, each to the pair that splits earliest, in a loop
    trace, s, t = [], init_a, init_b
    while (move := unmatched(s, t)) is not None:
        label, s, candidates = move
        trace.append(label)
        if not candidates:
            break
        t = min(candidates, key=lambda t2: first_diff_round(s, t2))
    return BisimResult(False, trace)
