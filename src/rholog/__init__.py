"""Interpreter for a strategy-based transformation language over unranked
terms, with sequence and context variables, finitary matching, builtin
strategy combinators, and proximity-aware (fuzzy) matching.

Typical use::

    from rholog import load_program, parse_program, parse_query, solve

    db = load_program(parse_program(source_text))
    for answer in solve(db, parse_query("?(st :: (a,b) ==> s_X, Result).")):
        ...
"""

from .engine import (
    Answer,
    BUILTIN_STRATEGIES,
    ClauseDB,
    EngineConfig,
    load_program,
    solve,
)
from .errors import (
    ArityError,
    DegreeRangeError,
    DuplicateBuiltinError,
    HoleInGoalError,
    KindMismatchError,
    LoadError,
    NonGroundRedexError,
    NonNumericError,
    NonTermResultError,
    ParseError,
    RhoError,
    StepLimitError,
    ThresholdRangeError,
    UnknownPredicateError,
    UnknownStrategyError,
    UnsupportedFeatureError,
)
from .matching import enumerate_contexts, match_hedge, match_term
from .parser import (
    parse_literal,
    parse_program,
    parse_proximity_decls,
    parse_query,
    parse_sequence,
    parse_term,
)
from .printer import (
    render_answer,
    render_bindings,
    render_clause,
    render_program,
    render_query,
    render_sequence,
)
from .program import (
    NotGoal,
    PredAtom,
    PredClause,
    Query,
    RhoAtom,
    RhoClause,
    SourceProgram,
    StrategyAbbrev,
)
from .proximity import (
    DegreedMatcher,
    ProximityRelation,
    hedge_proximity,
    prox_match_hedge,
    term_proximity,
)
from .terms import (
    EMPTY_SUBST,
    HOLE,
    Compound,
    CtxApply,
    CtxVar,
    FunVar,
    Hole,
    IndVar,
    SeqVar,
    Subst,
    Sym,
    apply_context,
    atom,
    free_vars,
    hole_count,
    is_ground,
    mk,
    seq,
)

__version__ = "0.1.0"
