"""effsess: a compiler from a small imperative effect calculus into the
session pi-calculus, with type checkers for both ends, an executable
semantics, and a weak-bisimulation engine for checking the translation's
equational soundness."""

from .effects import (
    EffectAnnotation,
    Get,
    IDENTITY,
    Put,
    STATE_ALGEBRA,
    StateEffectAlgebra,
    format_effect,
    well_causal,
)
from .embedding import (
    EmbeddingResult,
    compose_with_store,
    effect_to_session,
    embed_intermediate,
    embed_pure,
    embed_term_top,
    embed_top,
    get_op,
    naive_parallel_encode,
    optimize_commuting,
    put_op,
    session_to_effect,
    shared_get,
    shared_put,
    shared_store_agent,
    shared_store_type,
    store_agent,
    store_session_type,
)
from .equations import RULES, RewriteError, apply_equation
from .equivalence import LTS, BisimResult, PartialLTS, build_lts, weak_bisimilar
from .infer import EffectTypeError, TypeEnv, infer
from .normalize import normalize
from .process import Endpoint, Process, Value, format_process, parse_process
from .semantics import (
    Configuration,
    FuelExhausted,
    Outcome,
    RuntimeSafetyViolation,
    StateCapExceeded,
    find_store_value,
    make_configuration,
    run,
    transitions,
)
from .session_check import ProcEnv, SessionTypeError, session_check
from .sessions import (
    SessionType,
    dual,
    dual_compatible,
    format_session_type,
    parse_session_type,
    select_subtype,
    type_equal,
)
from .terms import ParseError, Program, Term, ValueType, free_vars, parse_program, parse_term

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
