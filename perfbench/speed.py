"""How fast this machine runs plain Python right now.

The benchmark shares its cores with other jobs, and the CPU time of the
same call drifts by 10-20% from one minute to the next.  ``probe`` times a
fixed piece of pure Python that calls no ``effsess`` code: frozen dataclasses,
tuple hashing, dict updates and recursion, the kind of work the program does.
Dividing an item's CPU time by the probe times around it and multiplying by
``REFERENCE_S`` gives its time at a fixed machine speed, so a change in the
program moves the result and a change in the machine mostly does not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# The probe's CPU time on the machine the baseline in README.md was taken on
# (median of 200 probes, Python 3.11).  Only ratios matter; this constant
# keeps the rescaled times in seconds of about that size.
REFERENCE_S = 0.008


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def _depth(node, d=0) -> int:
    return d if not isinstance(node, _Node) else max(_depth(node.left, d + 1), _depth(node.right, d + 1))


def _work() -> int:
    seen: dict = {}
    tree: object = 0
    for i in range(2500):
        key = _Node(i % 97, (i % 13, f"k{i % 31}"))
        seen[key] = seen.get(key, 0) + 1
        tree = _Node(tree, i) if i % 50 else 0
    return len(seen) + _depth(tree)


def probe() -> float:
    """CPU seconds of one fixed piece of work, about 10 ms."""
    start = time.process_time()
    _work()
    return time.process_time() - start
