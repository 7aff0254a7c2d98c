"""Rendering of terms, sequences, answers, clauses, and programs.

Round trip: parsing the rendering of a ground value gives the value
back, and reparsing a rendered parsed program gives the same clauses.
Answers print in the transcript style ``[v ---> value, ...]``.
"""

from __future__ import annotations

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
from .terms import Compound, Sym, render_sequence

BINDING_ARROW = "--->"


def render_answer(answer) -> str:
    """``[v ---> value, ...]`` in the order of ``answer.bindings``, each value
    as ``Subst``'s ``repr`` shows it."""
    inner = ", ".join(
        f"{v!r} {BINDING_ARROW} {render_sequence(b)}"
        for v, b in answer.bindings.items()
    )
    return "[" + inner + "]"


def render_literal(lit) -> str:
    if isinstance(lit, RhoAtom):
        arrow = "==>" if lit.positive else "=\\=>"
        return (
            f"{lit.strategy!r} :: {render_sequence(lit.lhs)} "
            f"{arrow} {render_sequence(lit.rhs)}"
        )
    if isinstance(lit, PredAtom):
        return repr(Compound(lit.head, lit.args))
    if isinstance(lit, NotGoal):
        return f"not({render_literal(lit.inner)})"
    raise TypeError(f"not a literal: {lit!r}")


def render_clause(clause) -> str:
    if isinstance(clause, RhoClause):
        head = render_literal(RhoAtom(clause.strategy, clause.lhs, clause.rhs))
        return _with_body(head, clause.body)
    if isinstance(clause, PredClause):
        head = render_literal(PredAtom(Sym(clause.name), clause.params))
        return _with_body(head, clause.body)
    if isinstance(clause, StrategyAbbrev):
        return f"{clause.lhs!r} := {clause.rhs!r}."
    raise TypeError(f"not a clause: {clause!r}")


def _with_body(head: str, body) -> str:
    if not body:
        return head + "."
    return head + " :- " + ", ".join(render_literal(lit) for lit in body) + "."


def render_program(program: SourceProgram) -> str:
    return "\n".join(render_clause(c) for c in program.clauses)


def render_query(query: Query) -> str:
    parts = [render_literal(lit) for lit in query.goal]
    if query.threshold is not None:
        parts.append(format(query.threshold, "f"))
        parts.append(query.degree_var)
    parts.append(query.result_var)
    return "?(" + ", ".join(parts) + ")."
