"""Program-level syntax: literals, clauses, programs, and queries."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Union

from .terms import Subst, hole_count, iter_vars


@dataclass(frozen=True)
class RhoAtom:
    """``strategy :: lhs ==> rhs`` (or its negation with ``=\\=>``)."""

    strategy: object
    lhs: tuple
    rhs: tuple
    positive: bool = True


@dataclass(frozen=True)
class PredAtom:
    """Ordinary predicate atom; the head may be a function variable."""

    head: object
    args: tuple = ()


@dataclass(frozen=True)
class NotGoal:
    """Negation as failure around another literal."""

    inner: "Literal"


Literal = Union[RhoAtom, PredAtom, NotGoal]


@dataclass(frozen=True)
class RhoClause:
    strategy: object
    lhs: tuple
    rhs: tuple
    body: tuple = ()


@dataclass(frozen=True)
class PredClause:
    name: str
    params: tuple = ()
    body: tuple = ()


@dataclass(frozen=True)
class StrategyAbbrev:
    """``lhs := rhs`` shorthand, expanded into a clause at load time."""

    lhs: object
    rhs: object


@dataclass(frozen=True)
class SourceProgram:
    clauses: tuple = ()


@dataclass(frozen=True)
class Query:
    """A parsed query: goal literals plus the answer-capture markers.

    ``threshold`` is None for exact-mode queries; threshold queries also
    name the variable that receives the approximation degree.
    """

    goal: tuple
    result_var: str = "Result"
    threshold: Decimal | None = None
    degree_var: str | None = None


def literal_vars(lit):
    """All variable occurrences of a literal, in preorder."""
    while isinstance(lit, NotGoal):
        lit = lit.inner
    if isinstance(lit, RhoAtom):
        return iter_vars(((lit.strategy,) + lit.lhs, lit.rhs))
    if isinstance(lit, PredAtom):
        return iter_vars((lit.head, lit.args))
    raise TypeError(f"not a literal: {lit!r}")


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
