"""Reference answers that share no logic with the code under test.

Each checker returns ``None`` when an answer agrees with its reference and a
short reason when it does not.  They only read the data classes of
``effsess`` (terms, values, effect tokens); the big-step evaluator comes
from ``tests/oracle.py``.
"""

from __future__ import annotations

from effsess.effects import Get, Put
from effsess.terms import Const, Let, OpApp, ValueType, Var

# ------------------------------------------------------------ compile-chain


def chain_source(n: int, init: int) -> str:
    """``let x0 = get in let u0 = put (suc x0) in ... get`` over a nat store."""
    parts = [f"let x{i} = get in let u{i} = put (suc x{i}) in" for i in range(n)]
    return f"store nat init {init}\n" + " ".join(parts + ["get"])


def chain_printed(n: int) -> str:
    """The chain as ``format_term`` prints it: operations take no parentheses."""
    parts = [f"let x{i} = get in let u{i} = put suc x{i} in" for i in range(n)]
    return " ".join(parts + ["get"])


def chain_type_and_effect(n: int):
    """Closed form: a nat result and the effect ``(G nat, P nat)^n, G nat``."""
    return ValueType.NAT, (Get(ValueType.NAT), Put(ValueType.NAT)) * n + (Get(ValueType.NAT),)


def check_chain_typing(n: int, inferred) -> str | None:
    expected = chain_type_and_effect(n)
    if tuple(inferred) != expected:
        return f"chain n={n}: inferred {inferred[0]} with {len(inferred[1])} tokens, expected nat with {2 * n + 1}"
    return None


# ------------------------------------------------------------- exec-corpus


def source_text(t) -> str:
    """Surface syntax for a term, with every compound operand parenthesized."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.const
    if isinstance(t, OpApp):
        arg = source_text(t.arg)
        return f"{t.op} ({arg})" if isinstance(t.arg, (Let, OpApp)) else f"{t.op} {arg}"
    if isinstance(t, Let):
        return f"let {t.name} = ({source_text(t.bound)}) in ({source_text(t.body)})"
    raise TypeError(f"not a term: {t!r}")


def node_count(t) -> int:
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Let):
            stack += (node.bound, node.body)
        elif isinstance(node, OpApp):
            stack.append(node.arg)
    return count


def effect_count(t) -> int:
    """Occurrences of ``get`` and ``put``."""
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Const):
            count += node.const == "get"
        elif isinstance(node, OpApp):
            count += node.op == "put"
            stack.append(node.arg)
        elif isinstance(node, Let):
            stack += (node.bound, node.body)
    return count


# ------------------------------------------------------------- race-explore


DONE = "done"  # not True, which equals the read value 1


def race_outcomes(init: int, increments: tuple[int, ...]) -> frozenset[int]:
    """Final store values of clients that each read the store atomically and
    later write back ``read + increment``, under every interleaving."""
    finals: set[int] = set()
    seen: set[tuple] = set()
    # a client is pending (None), holding its read value (int), or done
    stack = [(init, (None,) * len(increments))]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        store, clients = state
        if all(c is DONE for c in clients):
            finals.add(store)
            continue
        for i, c in enumerate(clients):
            if c is DONE:
                continue
            if c is None:
                stack.append((store, clients[:i] + (store,) + clients[i + 1:]))
            else:
                stack.append((c + increments[i], clients[:i] + (DONE,) + clients[i + 1:]))
    return frozenset(finals)


def check_race(init: int, increments: tuple[int, ...], finals) -> str | None:
    expected = race_outcomes(init, increments)
    if frozenset(finals) != expected:
        return f"race {increments}: got {sorted(finals)}, expected {sorted(expected)}"
    return None


def distinct_subset_sums(values) -> bool:
    """No two sub-multisets of ``values`` have the same sum."""
    sums = {0}
    for v in values:
        shifted = {s + v for s in sums}
        if shifted & sums:
            return False
        sums |= shifted
    return True


# ------------------------------------------------------------- verify-pairs


def observable_traces(t, domain: tuple[int, ...]) -> frozenset[tuple]:
    """What the translated term shows on its effect and result channels when
    the environment answers every ``get`` with any value of ``domain``: the
    set of event sequences ``("get", v)``, ``("put", v)``, ending in
    ``("result", v)``.  Unit values are the string ``"unit"``."""
    out = set()
    for events, value in _traces(t, {}, domain):
        out.add(events + (("result", value),))
    return frozenset(out)


def _traces(t, env: dict, domain):
    if isinstance(t, Var):
        yield (), env[t.name]
    elif isinstance(t, Const):
        if t.const == "get":
            for v in domain:
                yield (("get", v),), v
        else:
            yield (), 0 if t.const == "zero" else "unit"
    elif isinstance(t, OpApp):
        for events, arg in _traces(t.arg, env, domain):
            if t.op == "suc":
                yield events, arg + 1
            else:
                yield events + (("put", arg),), "unit"
    elif isinstance(t, Let):
        for events, bound in _traces(t.bound, env, domain):
            for more, value in _traces(t.body, {**env, t.name: bound}, domain):
                yield events + more, value
    else:
        raise TypeError(f"not a term: {t!r}")


def is_pure(t) -> bool:
    """A term has the identity effect exactly when it names no get or put."""
    if isinstance(t, Const):
        return t.const != "get"
    if isinstance(t, OpApp):
        return t.op != "put" and is_pure(t.arg)
    if isinstance(t, Let):
        return is_pure(t.bound) and is_pure(t.body)
    return True


def free_names(t) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, OpApp):
        return free_names(t.arg)
    if isinstance(t, Let):
        return free_names(t.bound) | (free_names(t.body) - {t.name})
    return frozenset()


def commuting_let(t) -> bool:
    """The shape the commuting-let optimizer rewrites: ``let a = A in let b =
    B in P`` where one of the two bindings is pure, the binders differ, and
    neither binding mentions the other's binder."""
    if not (isinstance(t, Let) and isinstance(t.body, Let)):
        return False
    outer, inner = t, t.body
    if outer.name == inner.name:
        return False
    if outer.name in free_names(inner.bound) or inner.name in free_names(outer.bound):
        return False
    return is_pure(outer.bound) or is_pure(inner.bound)


def check_verdict(expect_equivalent: bool, equivalent: bool, trace) -> str | None:
    if equivalent != expect_equivalent:
        want = "BISIMILAR" if expect_equivalent else "NOT BISIMILAR"
        return f"verdict {'BISIMILAR' if equivalent else 'NOT BISIMILAR'}, expected {want}"
    if not equivalent and not trace:
        return "NOT BISIMILAR without a distinguishing trace"
    return None
