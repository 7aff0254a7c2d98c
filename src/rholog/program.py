"""Program-level syntax: literals, clauses, programs, and queries."""

from __future__ import annotations

from .terms import Record, hole_count, subst_hedge, subst_term


class RhoAtom(Record):
    """``strategy :: lhs ==> rhs`` (or its negation with ``=\\=>``)."""

    __slots__ = ("strategy", "lhs", "rhs", "positive")
    _defaults = (True,)


class PredAtom(Record):
    """Ordinary predicate atom; the head may be a function variable."""

    __slots__ = ("head", "args")
    _defaults = ((),)


class NotGoal(Record):
    """Negation as failure around another literal."""

    __slots__ = ("inner",)


class RhoClause(Record):
    __slots__ = ("strategy", "lhs", "rhs", "body")
    _defaults = ((),)


class PredClause(Record):
    __slots__ = ("name", "params", "body")
    _defaults = ((), ())


class StrategyAbbrev(Record):
    """``lhs := rhs`` shorthand, expanded into a clause at load time."""

    __slots__ = ("lhs", "rhs")


class SourceProgram(Record):
    __slots__ = ("clauses",)
    _defaults = ((),)


class Query(Record):
    """A parsed query: goal literals plus the answer-capture markers.

    ``threshold`` is None for exact-mode queries; threshold queries also
    name the variable that receives the approximation degree.
    """

    __slots__ = ("goal", "result_var", "threshold", "degree_var")
    _defaults = ("Result", None, None)


def apply_to_literal(subst: dict, lit):
    if isinstance(lit, RhoAtom):
        return RhoAtom(
            subst_term(subst, lit.strategy),
            subst_hedge(subst, lit.lhs),
            subst_hedge(subst, lit.rhs),
            lit.positive,
        )
    if isinstance(lit, PredAtom):
        return PredAtom(subst_term(subst, lit.head), subst_hedge(subst, lit.args))
    return NotGoal(apply_to_literal(subst, lit.inner))  # load and solve admit no other literal


def literal_hole_count(lit) -> int | None:
    if isinstance(lit, RhoAtom):
        return hole_count(lit.strategy) + hole_count(lit.lhs) + hole_count(lit.rhs)
    if isinstance(lit, PredAtom):
        return hole_count(lit.args)
    if isinstance(lit, NotGoal):
        return literal_hole_count(lit.inner)
    # None for a non-literal: _literal_parts rejects it when load or solve reads it
