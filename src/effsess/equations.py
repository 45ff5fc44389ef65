"""Equational rewriting over effect-calculus terms.

The four equations form an equational theory: let-reassociation, left and
right unit laws, and commutation of a pure binding past an adjacent one.
Rewrites target an explicit preorder position so they are deterministic and
testable; side conditions are enforced, not assumed.
"""

from __future__ import annotations

from .effects import IDENTITY, format_effect
from .infer import TypeEnv, infer
from .terms import Let, Term, ValueType, Var, all_names, free_vars, fresh_name, subterms, substitute, with_subterms

# Rule names: forward orientations of Fig.-style equations plus the
# inverse orientations that have a canonical result.  The reverse of
# unitL would have to invent occurrences, so it is not provided.
RULES = ("assoc", "assoc_inv", "unitL", "unitR", "unitR_inv", "comm")


class RewriteError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _trail(t: Term, path: int) -> list[tuple[int, Term]]:
    """The nodes from ``t`` down to its ``path``-th node in preorder, each
    with its index among its parent's subterms: one walk, in preorder."""
    trail: list[tuple[int, Term]] = []
    todo = [(0, 0, t)]
    seen = 0
    while todo:
        depth, index, u = todo.pop()
        del trail[depth:]
        trail.append((index, u))
        if seen == path:
            return trail
        seen += 1
        todo.extend((depth + 1, i, kid) for i, kid in reversed(list(enumerate(subterms(u)))))
    raise RewriteError("path", f"position {path} does not exist")


def subterm_at(t: Term, path: int) -> Term:
    return _trail(t, path)[-1][1]


def apply_equation(t: Term, rule: str, path: int, env: TypeEnv, store_type: ValueType) -> Term:
    """Rewrite the subterm at ``path`` with the named equation, in the
    typing environment in scope there."""
    if rule not in RULES:
        raise RewriteError("rule", f"unknown rule {rule!r}")
    trail = _trail(t, path)
    steps = list(zip(trail, trail[1:]))
    local_env = dict(env)
    for (_, parent), (index, _) in steps:
        if isinstance(parent, Let) and index == 1:
            local_env[parent.name] = infer(local_env, store_type, parent.bound)[0]
    new = _REWRITES[rule](trail[-1][1], local_env, store_type)
    for (_, parent), (index, _) in reversed(steps):
        kids = list(subterms(parent))
        kids[index] = new
        new = with_subterms(parent, kids)
    return new


def _rw_assoc(sub: Term, env: TypeEnv, store_type: ValueType) -> Term:
    # let y = (let x = M in N) in P  ==>  let x = M in (let y = N in P)
    if not (isinstance(sub, Let) and isinstance(sub.bound, Let)):
        raise RewriteError("shape", "assoc expects let y = (let x = M in N) in P")
    y, inner, p = sub.name, sub.bound, sub.body
    x, m, n = inner.name, inner.bound, inner.body
    if x in free_vars(p):
        raise RewriteError("side-condition", f"assoc requires {x!r} not free in the outer body")
    return Let(x, m, Let(y, n, p))


def _rw_assoc_inv(sub: Term, env: TypeEnv, store_type: ValueType) -> Term:
    # let x = M in (let y = N in P)  ==>  let y = (let x = M in N) in P
    if not (isinstance(sub, Let) and isinstance(sub.body, Let)):
        raise RewriteError("shape", "assoc_inv expects let x = M in (let y = N in P)")
    x, m, inner = sub.name, sub.bound, sub.body
    y, n, p = inner.name, inner.bound, inner.body
    if x in free_vars(p):
        raise RewriteError("side-condition", f"assoc_inv requires {x!r} not free in the final body")
    return Let(y, Let(x, m, n), p)


def _rw_unit_l(sub: Term, env: TypeEnv, store_type: ValueType) -> Term:
    # let y = x in M  ==>  M[x/y]
    if not (isinstance(sub, Let) and isinstance(sub.bound, Var)):
        raise RewriteError("shape", "unitL expects let y = x in M with a variable binding")
    x = sub.bound.name
    if x not in env:
        raise RewriteError("side-condition", f"unitL requires {x!r} to be bound in the context")
    return substitute(sub.body, sub.name, Var(x))


def _rw_unit_r(sub: Term, env: TypeEnv, store_type: ValueType) -> Term:
    # let x = M in x  ==>  M
    if not (isinstance(sub, Let) and isinstance(sub.body, Var) and sub.body.name == sub.name):
        raise RewriteError("shape", "unitR expects let x = M in x")
    return sub.bound


def _rw_unit_r_inv(sub: Term, env: TypeEnv, store_type: ValueType) -> Term:
    # M  ==>  let x = M in x, with x fresh
    x = fresh_name("x", all_names(sub))
    return Let(x, sub, Var(x))


def _rw_comm(sub: Term, env: TypeEnv, store_type: ValueType) -> Term:
    # let x = M in (let y = N in P)  ==>  let y = N in (let x = M in P)
    if not (isinstance(sub, Let) and isinstance(sub.body, Let)):
        raise RewriteError("shape", "comm expects let x = M in (let y = N in P)")
    x, m, inner = sub.name, sub.bound, sub.body
    y, n, p = inner.name, inner.bound, inner.body
    if x == y:
        raise RewriteError("side-condition", "comm requires distinct binders")
    if x in free_vars(n):
        raise RewriteError("side-condition", f"comm requires {x!r} not free in the second binding")
    if y in free_vars(m):
        raise RewriteError("side-condition", f"comm requires {y!r} not free in the first binding")
    _, m_effect = infer(env, store_type, m)
    if m_effect != IDENTITY:
        raise RewriteError(
            "side-condition",
            f"comm requires a pure first binding, but it has effect {format_effect(m_effect)}",
        )
    return Let(y, n, Let(x, m, p))


_REWRITES = {
    "assoc": _rw_assoc,
    "assoc_inv": _rw_assoc_inv,
    "unitL": _rw_unit_l,
    "unitR": _rw_unit_r,
    "unitR_inv": _rw_unit_r_inv,
    "comm": _rw_comm,
}
