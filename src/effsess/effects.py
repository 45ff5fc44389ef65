"""Causal state effects: token lists under a monoidal effect algebra.

Annotations are ordered lists (tuples) of get/put tokens.  Concatenation is
the monoid operation and the empty annotation is the identity; the ordering
records the exact sequence of store interactions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import ValueType


@dataclass(frozen=True)
class Get:
    param: ValueType


@dataclass(frozen=True)
class Put:
    param: ValueType


EffectToken = Get | Put
EffectAnnotation = tuple[EffectToken, ...]

IDENTITY: EffectAnnotation = ()


def format_effect(f: EffectAnnotation) -> str:
    parts = []
    for token in f:
        letter = "G" if isinstance(token, Get) else "P"
        parts.append(f"{letter} {token.param}")
    return "[" + ", ".join(parts) + "]"


def well_causal(f: EffectAnnotation, store_type: ValueType) -> bool:
    """Every get token's type must match the nearest preceding put, or the
    declared store type when no put precedes it."""
    current = store_type
    for token in f:
        if isinstance(token, Put):
            current = token.param
        elif token.param is not current:
            return False
    return True


class StateEffectAlgebra:
    """The monoid of annotations: concatenation with the empty list as
    identity.  Lists are already canonical monoid elements, so equality is
    plain structural equality with no normalization."""

    def combine(self, f: EffectAnnotation, g: EffectAnnotation) -> EffectAnnotation:
        return f + g

    def identity(self) -> EffectAnnotation:
        return IDENTITY

    def equal(self, f: EffectAnnotation, g: EffectAnnotation) -> bool:
        return f == g

    def no_inverses(self, f: EffectAnnotation, g: EffectAnnotation) -> bool:
        """Check the no-inverse condition on one pair: if ``f . g`` is the
        identity then both components must themselves be the identity."""
        return f + g != IDENTITY or f == g == IDENTITY


STATE_ALGEBRA = StateEffectAlgebra()
