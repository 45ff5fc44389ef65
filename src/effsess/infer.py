"""Type-and-effect inference for the effect calculus.

Syntax-directed rules: variables are pure, ``let`` composes effects left to
right, and operation/constant signatures come from a registry.  Operation
arguments must be pure (effect identity); ``put``'s argument additionally
must inhabit the declared store type.
"""

from __future__ import annotations

from typing import Callable

from .effects import EffectAnnotation, Get, IDENTITY, Put, format_effect
from .terms import Const, Let, OpApp, Term, ValueType, Var, format_term

TypeEnv = dict[str, ValueType]


class EffectTypeError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


# Signatures are indexed by the declared store type so that get/put stay
# monomorphic at it.  Each entry maps store_type -> (arg, result, effect)
# for operations and store_type -> (type, effect) for constants.  New
# symbols may be registered, but effectful ones also need an embedding
# clause before they can be translated (see `embedding`).
OpSignature = Callable[[ValueType], tuple[ValueType, ValueType, EffectAnnotation]]
ConstSignature = Callable[[ValueType], tuple[ValueType, EffectAnnotation]]

OPERATIONS: dict[str, OpSignature] = {
    "suc": lambda store: (ValueType.NAT, ValueType.NAT, IDENTITY),
    "put": lambda store: (store, ValueType.UNIT, (Put(store),)),
}

CONSTANTS: dict[str, ConstSignature] = {
    "zero": lambda store: (ValueType.NAT, IDENTITY),
    "unit": lambda store: (ValueType.UNIT, IDENTITY),
    "get": lambda store: (store, (Get(store),)),
}


def infer(env: TypeEnv, store_type: ValueType, t: Term) -> tuple[ValueType, EffectAnnotation]:
    """The type and effect of ``t``.  A chain of ``let``s is followed in a
    loop that extends one copy of ``env``, since each binder is in scope
    for the rest of the chain; the effects compose left to right, their
    tokens collected in order and the annotation built once.  A chain of
    operations is peeled in a loop too, and checked from the innermost
    argument out."""
    tokens = []
    if isinstance(t, Let):
        env = dict(env)
    while isinstance(t, Let):
        bound_type, f = infer(env, store_type, t.bound)
        env[t.name] = bound_type
        tokens += f
        t = t.body
    if isinstance(t, Var):
        if t.name not in env:
            raise EffectTypeError("unbound", f"unbound variable {t.name!r}")
        tau, g = env[t.name], IDENTITY
    elif isinstance(t, Const):
        if t.const not in CONSTANTS:
            raise EffectTypeError("unknown", f"unknown constant {t.const!r}")
        tau, g = CONSTANTS[t.const](store_type)
    elif isinstance(t, OpApp):
        apps = []
        while isinstance(t, OpApp):
            if t.op not in OPERATIONS:
                raise EffectTypeError("unknown", f"unknown operation {t.op!r}")
            apps.append(t)
            t = t.arg
        tau, g = infer(env, store_type, t)
        while apps:
            app = apps.pop()
            arg_type, result, effect = OPERATIONS[app.op](store_type)
            if g != IDENTITY:
                raise EffectTypeError(
                    "impure-argument",
                    f"argument of {app.op} must be pure, but {format_term(app.arg)} "
                    f"has effect {format_effect(g)}",
                )
            if tau is not arg_type:
                raise EffectTypeError(
                    "mismatch",
                    f"{app.op} expects a {arg_type} argument, got {tau}",
                )
            tau, g = result, effect
    else:
        raise TypeError(f"not a term: {t!r}")
    return tau, (*tokens, *g)
