"""Program-level syntax: literals, clauses, programs, and queries."""

from __future__ import annotations

from decimal import Decimal

from .terms import Record, Subst, hole_count


class RhoAtom(Record):
    """``strategy :: lhs ==> rhs`` (or its negation with ``=\\=>``)."""

    __slots__ = ("strategy", "lhs", "rhs", "positive")

    def __init__(self, strategy, lhs: tuple, rhs: tuple, positive: bool = True):
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "positive", positive)


class PredAtom(Record):
    """Ordinary predicate atom; the head may be a function variable."""

    __slots__ = ("head", "args")

    def __init__(self, head, args: tuple = ()):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "args", args)


class NotGoal(Record):
    """Negation as failure around another literal."""

    __slots__ = ("inner",)

    def __init__(self, inner):
        object.__setattr__(self, "inner", inner)


class RhoClause(Record):
    __slots__ = ("strategy", "lhs", "rhs", "body")

    def __init__(self, strategy, lhs: tuple, rhs: tuple, body: tuple = ()):
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "body", body)


class PredClause(Record):
    __slots__ = ("name", "params", "body")

    def __init__(self, name: str, params: tuple = (), body: tuple = ()):
        Record.__init__(self, name, params, body)


class StrategyAbbrev(Record):
    """``lhs := rhs`` shorthand, expanded into a clause at load time."""

    __slots__ = ("lhs", "rhs")


class SourceProgram(Record):
    __slots__ = ("clauses",)

    def __init__(self, clauses: tuple = ()):
        Record.__init__(self, clauses)


class Query(Record):
    """A parsed query: goal literals plus the answer-capture markers.

    ``threshold`` is None for exact-mode queries; threshold queries also
    name the variable that receives the approximation degree.
    """

    __slots__ = ("goal", "result_var", "threshold", "degree_var")

    def __init__(self, goal: tuple, result_var: str = "Result",
                 threshold: Decimal | None = None, degree_var: str | None = None):
        Record.__init__(self, goal, result_var, threshold, degree_var)


def apply_to_literal(subst: Subst, lit):
    if isinstance(lit, RhoAtom):
        return RhoAtom(
            subst.apply_term(lit.strategy),
            subst.apply_hedge(lit.lhs),
            subst.apply_hedge(lit.rhs),
            lit.positive,
        )
    if isinstance(lit, PredAtom):
        return PredAtom(subst.apply_head(lit.head), subst.apply_hedge(lit.args))
    if isinstance(lit, NotGoal):
        return NotGoal(apply_to_literal(subst, lit.inner))
    raise TypeError(f"not a literal: {lit!r}")


def literal_hole_count(lit) -> int:
    if isinstance(lit, RhoAtom):
        return hole_count(lit.strategy) + hole_count(lit.lhs) + hole_count(lit.rhs)
    if isinstance(lit, PredAtom):
        return hole_count(lit.args)
    if isinstance(lit, NotGoal):
        return literal_hole_count(lit.inner)
    raise TypeError(f"not a literal: {lit!r}")
