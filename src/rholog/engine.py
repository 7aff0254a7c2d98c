"""Clause database, goal resolution, builtin strategies and predicates.

Resolution is depth-first with leftmost literal selection. Selecting a
positive transformation literal ``st :: s1 ==> s2`` requires ``st`` and
``s1`` to be ground (checked at run time). A program clause
``st' :: s1' ==> s2' :- body`` whose head matches with substitution
``sigma`` replaces the literal by ``sigma(body)`` followed by the
continuation ``id :: sigma(s2') ==> s2``; threshold-mode queries use
``prox(lam)`` as the continuation instead. Clause heads themselves are
always matched exactly; approximation enters only through ``prox``.

Heads are matched as stored: the redex is ground, so no renaming is
needed to match. Each hit then gives the clause's local variables (those
of the rhs and body that the head lacks, found once at load) fresh names
``v~n``, extending ``sigma`` before it is applied once to rhs and body.

Negative literals and ``not(...)`` succeed exactly when the positive
form has no answers. The degree of an answer is the minimum over the
degrees of all proximity steps in its derivation (1 if there are none).

Builtin strategies: ``id``, ``prox``/``prox(lam)``, ``compose``,
``choice``, ``first_one``, ``first_all``, ``map``, ``nf``. Builtin
predicates: the numeric comparisons ``=<  <  >  >=``.
"""

from __future__ import annotations

import itertools
import logging
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Iterator

from .errors import (
    ArityError,
    DuplicateBuiltinError,
    LoadError,
    NonGroundRedexError,
    NonNumericError,
    NonTermResultError,
    StepLimitError,
    UnknownPredicateError,
    UnknownStrategyError,
)
from .matching import ONE, exact_degree, match_hedge, scored_match_hedge
from .printer import render_clause, render_literal
from .program import (
    NotGoal,
    PredAtom,
    PredClause,
    Query,
    RhoAtom,
    RhoClause,
    SourceProgram,
    StrategyAbbrev,
    apply_to_literal,
    clause_locals,
    goal_vars,
    literal_hole_count,
    literal_is_ground,
    literal_vars,
)
from .proximity import EMPTY_RELATION, check_threshold
from .terms import (
    EMPTY_SUBST,
    HOLE,
    Compound,
    CtxApply,
    CtxVar,
    FunVar,
    SeqVar,
    Subst,
    Sym,
    atom,
    hole_count,
    is_ground,
    iter_vars,
)

log = logging.getLogger(__name__)

BUILTIN_STRATEGIES = frozenset(
    {"id", "prox", "compose", "choice", "first_one", "first_all", "map", "nf"}
)

COMPARISONS: dict[str, Callable] = {
    "=<": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_NUMERAL = re.compile(r"\d+(\.\d+)?$")


@dataclass
class EngineConfig:
    nf_step_limit: int | None = None
    answer_limit: int | None = None
    trace: bool = False
    trace_sink: Callable[[str], None] | None = None


@dataclass(frozen=True)
class Answer:
    """Bindings restricted to the query variables, plus the degree."""

    bindings: Subst
    degree: Decimal


class ClauseDB:
    """Loaded program: transformation and predicate clauses in source order,
    indexed by name as ``(clause, clause_locals(clause))`` pairs."""

    def __init__(self, rho_clauses=(), pred_clauses=()):
        self.rho_clauses = tuple(rho_clauses)
        self.pred_clauses = tuple(pred_clauses)
        self._rho_index = {}
        for clause in self.rho_clauses:
            self._rho_index.setdefault(clause.strategy.head.name, []).append(
                (clause, clause_locals(clause)))
        self._pred_index = {}
        for clause in self.pred_clauses:
            self._pred_index.setdefault(clause.name, []).append(
                (clause, clause_locals(clause)))

    def rho_for(self, name: str):
        return self._rho_index.get(name, ())

    def preds_for(self, name: str):
        return self._pred_index.get(name)


def load_program(program: SourceProgram) -> ClauseDB:
    """Expand abbreviations, validate clause heads, and index the clauses."""
    rho, preds = [], []
    fresh = itertools.count(1)
    for clause in program.clauses:
        if isinstance(clause, StrategyAbbrev):
            n = next(fresh)
            left = SeqVar(f"s__Abbrev{n}L")
            right = SeqVar(f"s__Abbrev{n}R")
            clause = RhoClause(
                clause.lhs,
                (left,),
                (right,),
                (RhoAtom(clause.rhs, (left,), (right,)),),
            )
        if isinstance(clause, RhoClause):
            _validate_rho_clause(clause)
            rho.append(clause)
        elif isinstance(clause, PredClause):
            _validate_pred_clause(clause)
            preds.append(clause)
        else:
            raise LoadError(f"unsupported clause: {clause!r}")
    return ClauseDB(rho, preds)


def _validate_rho_clause(clause: RhoClause) -> None:
    st = clause.strategy
    if not (isinstance(st, Compound) and isinstance(st.head, Sym)):
        raise LoadError(f"strategy head must be symbol-headed: {render_clause(clause)}")
    if st.head.name in BUILTIN_STRATEGIES:
        raise DuplicateBuiltinError(
            f"strategy {st.head.name!r} shadows a builtin strategy"
        )
    if (
        hole_count(st) + hole_count(clause.lhs) + hole_count(clause.rhs)
        or any(literal_hole_count(lit) for lit in clause.body)
    ):
        raise LoadError(f"hole is not allowed in clauses: {render_clause(clause)}")
    for message in _lint_rho_clause(clause):
        log.warning("%s: %s", message, render_clause(clause))


def _validate_pred_clause(clause: PredClause) -> None:
    if clause.name in COMPARISONS or clause.name == "not":
        raise DuplicateBuiltinError(
            f"predicate {clause.name!r} shadows a builtin predicate"
        )
    if hole_count(clause.params) or any(
        literal_hole_count(lit) for lit in clause.body
    ):
        raise LoadError(f"hole is not allowed in clauses: {render_clause(clause)}")


def _lint_rho_clause(clause: RhoClause):
    """Best-effort grounding lint: flag variables that may be unbound when
    their literal is selected (head matching binds strategy and lhs vars)."""
    bound = set(iter_vars(clause.strategy)) | set(iter_vars(clause.lhs))
    for lit in clause.body:
        if isinstance(lit, RhoAtom):
            needed = set(iter_vars(lit.strategy)) | set(iter_vars(lit.lhs))
            for v in sorted(needed - bound, key=lambda v: v.name):
                yield f"variable {v!r} may be unbound when its literal is selected"
            if lit.positive:
                bound |= set(iter_vars(lit.rhs))
        else:
            for v in sorted(set(literal_vars(lit)) - bound, key=lambda v: v.name):
                yield f"variable {v!r} may be unbound when its literal is selected"
    for v in sorted(set(iter_vars(clause.rhs)) - bound, key=lambda v: v.name):
        yield f"right-hand side variable {v!r} may never be bound"


def numeral_value(t) -> Decimal | None:
    """Decimal value of a numeric constant term, else None."""
    if isinstance(t, Compound) and isinstance(t.head, Sym) and not t.args:
        if _NUMERAL.match(t.head.name):
            return Decimal(t.head.name)
    return None


class _Solver:
    """Search state for one query: mode, configuration, fresh-name counter."""

    def __init__(self, db, relation, config, threshold):
        self.db = db
        self.rel = relation if relation is not None else EMPTY_RELATION
        self.cfg = config or EngineConfig()
        self.lam = check_threshold(threshold) if threshold is not None else None
        self._fresh = itertools.count(1)
        if self.lam is None:
            self._continuation = atom("id")
            self._sym_degree, self._floor = exact_degree, ONE
        else:
            self._continuation = Compound(Sym("prox"), (atom(str(self.lam)),))
            self._sym_degree, self._floor = self.rel.degree, self.lam

    # -- plumbing ------------------------------------------------------------

    def _trace(self, kind: str, render, item) -> None:
        """Report ``kind: render(item)``; nothing is rendered with tracing off."""
        if self.cfg.trace:
            sink = self.cfg.trace_sink or (lambda s: print(s, file=sys.stderr))
            sink(f"{kind}: {render(item)}")

    def _with_fresh_locals(self, sigma, local_vars):
        """``sigma`` plus fresh names, under one new counter value, for a
        clause's local variables; fresh names never reach answers."""
        if not local_vars:
            return sigma
        n = next(self._fresh)
        mapping = dict(sigma.items())
        for v in local_vars:
            new = type(v)(f"{v.name}~{n}")
            if isinstance(v, SeqVar):
                new = (new,)
            elif isinstance(v, CtxVar):
                new = CtxApply(new, HOLE)
            mapping[v] = new
        return Subst(mapping, _checked=True)

    def _has_answer(self, literal) -> bool:
        for _ in self._solve((literal,), EMPTY_SUBST, ONE):
            return True
        return False

    # -- resolution ----------------------------------------------------------

    def run(self, literals) -> Iterator[tuple]:
        yield from self._solve(tuple(literals), EMPTY_SUBST, ONE)

    def _solve(self, literals, acc, degree):
        if not literals:
            yield acc, degree
            return
        lit, rest = literals[0], literals[1:]
        if isinstance(lit, RhoAtom):
            if lit.positive:
                yield from self._solve_rho(lit, rest, acc, degree)
            else:
                self._require_ground_redex(lit)
                self._trace("negation", render_literal, lit)
                positive = RhoAtom(lit.strategy, lit.lhs, lit.rhs, True)
                if not self._has_answer(positive):
                    yield from self._solve(rest, acc, degree)
        elif isinstance(lit, NotGoal):
            if not literal_is_ground(lit.inner):
                raise NonGroundRedexError(
                    f"negated goal is not ground: {render_literal(lit)}"
                )
            self._trace("negation", render_literal, lit)
            if not self._has_answer(lit.inner):
                yield from self._solve(rest, acc, degree)
        elif isinstance(lit, PredAtom):
            yield from self._solve_pred(lit, rest, acc, degree)
        else:
            raise TypeError(f"not a literal: {lit!r}")

    def _require_ground_redex(self, lit: RhoAtom) -> None:
        if not (is_ground(lit.strategy) and is_ground(lit.lhs)):
            raise NonGroundRedexError(
                "strategy and left-hand side must be ground when selected: "
                + render_literal(lit)
            )
        if hole_count(lit.strategy) or hole_count(lit.lhs):
            raise ValueError(
                f"hole is not allowed in goals: {render_literal(lit)}"
            )

    def _step(self, theta, step_degree, rest, acc, degree):
        """Propagate one binding step into the remaining goal."""
        rest = tuple(apply_to_literal(theta, lit) for lit in rest)
        yield from self._solve(rest, acc.compose(theta), min(degree, step_degree))

    def _solve_rho(self, lit, rest, acc, degree):
        self._require_ground_redex(lit)
        self._trace("select", render_literal, lit)
        name = lit.strategy.head.name
        if name in BUILTIN_STRATEGIES:
            yield from self._builtin(name, lit, rest, acc, degree)
            return
        clauses = self.db.rho_for(name)
        if not clauses:
            raise UnknownStrategyError(f"unknown strategy: {name!r}")
        subject = (lit.strategy,) + lit.lhs
        for clause, local_vars in clauses:
            for sigma in match_hedge((clause.strategy,) + clause.lhs, subject):
                self._trace("clause", render_clause, clause)
                sigma = self._with_fresh_locals(sigma, local_vars)
                continuation = RhoAtom(
                    self._continuation,
                    sigma.apply_hedge(clause.rhs),
                    lit.rhs,
                )
                body = tuple(apply_to_literal(sigma, b) for b in clause.body)
                yield from self._solve(body + (continuation,) + rest, acc, degree)

    def _solve_pred(self, lit, rest, acc, degree):
        if isinstance(lit.head, FunVar) or not is_ground(lit.args):
            raise NonGroundRedexError(
                f"predicate call is not ground: {render_literal(lit)}"
            )
        self._trace("select", render_literal, lit)
        name = lit.head.name
        if name in COMPARISONS:
            if len(lit.args) != 2:
                raise ArityError(f"{name} takes two arguments")
            values = []
            for arg in lit.args:
                value = numeral_value(arg)
                if value is None:
                    raise NonNumericError(
                        f"{name} needs numeric constants: {render_literal(lit)}"
                    )
                values.append(value)
            if COMPARISONS[name](*values):
                yield from self._solve(rest, acc, degree)
            return
        clauses = self.db.preds_for(name)
        if clauses is None:
            raise UnknownPredicateError(f"unknown predicate: {name!r}")
        for clause, local_vars in clauses:
            for sigma in match_hedge(clause.params, lit.args):
                self._trace("clause", render_clause, clause)
                sigma = self._with_fresh_locals(sigma, local_vars)
                body = tuple(apply_to_literal(sigma, b) for b in clause.body)
                yield from self._solve(body + rest, acc, degree)

    # -- builtin strategies ----------------------------------------------------

    def _builtin(self, name, lit, rest, acc, degree):
        args, lhs, rhs = lit.strategy.args, lit.lhs, lit.rhs
        if name == "id":
            if args:
                raise ArityError("id takes no arguments")
            for theta in match_hedge(rhs, lhs):
                yield from self._step(theta, ONE, rest, acc, degree)
            return
        if name == "prox":
            if len(args) > 1:
                raise ArityError("prox takes at most one argument")
            if args:
                mu = numeral_value(args[0])
                if mu is None:
                    raise NonNumericError("prox needs a numeric threshold")
                mu = check_threshold(mu)
            else:
                mu = self.lam if self.lam is not None else ONE
            for theta, d in scored_match_hedge(rhs, lhs, self.rel.degree, mu):
                yield from self._step(theta, d, rest, acc, degree)
            return

        outputs = self._builtin_outputs(name, args, lhs)
        steps = self._outputs_into_rhs(outputs, rhs)
        if name == "first_one":
            # one answer for this literal only; later literals still backtrack
            steps = itertools.islice(steps, 1)
        for theta, d in steps:
            yield from self._step(theta, d, rest, acc, degree)

    def _outputs_into_rhs(self, outputs, rhs):
        for out, d in outputs:
            for theta, d2 in scored_match_hedge(
                rhs, out, self._sym_degree, self._floor
            ):
                yield theta, min(d, d2)

    def _builtin_outputs(self, name, args, lhs):
        if name == "compose":
            if len(args) < 2:
                raise ArityError("compose takes at least two strategies")
            return self._chain(args, lhs)
        if name == "choice":
            if not args:
                raise ArityError("choice takes at least one strategy")
            return itertools.chain.from_iterable(
                self._apply(st, lhs) for st in args
            )
        if name in ("first_one", "first_all"):
            if not args:
                raise ArityError(f"{name} takes at least one strategy")
            return self._first_outputs(name, args, lhs)
        if name == "map":
            if len(args) != 1:
                raise ArityError("map takes exactly one strategy")
            return self._map_outputs(args[0], lhs)
        if name == "nf":
            if len(args) != 1:
                raise ArityError("nf takes exactly one strategy")
            return self._nf_outputs(args[0], lhs, 0)
        raise AssertionError(name)

    def _apply(self, strategy, input_hedge):
        """Outputs of a strategy on a ground sequence, with step degrees."""
        out = SeqVar(f"s_Out~{next(self._fresh)}")
        literal = RhoAtom(strategy, input_hedge, (out,))
        for subst, d in self._solve((literal,), EMPTY_SUBST, ONE):
            value = subst.get(out)
            yield (value if value is not None else input_hedge), d

    def _chain(self, strategies, input_hedge):
        first, remaining = strategies[0], strategies[1:]
        for mid, d1 in self._apply(first, input_hedge):
            if not remaining:
                yield mid, d1
            else:
                for out, d2 in self._chain(remaining, mid):
                    yield out, min(d1, d2)

    def _first_outputs(self, name, strategies, lhs):
        for st in strategies:
            it = self._apply(st, lhs)
            first = next(it, None)
            if first is None:
                continue
            if name == "first_one":
                yield first
            else:
                yield first
                yield from it
            return

    def _map_outputs(self, strategy, items):
        if not items:
            yield (), ONE
            return
        head, tail = items[0], items[1:]
        for out, d1 in self._apply(strategy, (head,)):
            if len(out) != 1:
                raise NonTermResultError(
                    "map needs term-to-term strategies, got a result of length "
                    f"{len(out)}"
                )
            for rest_out, d2 in self._map_outputs(strategy, tail):
                yield (out[0],) + rest_out, min(d1, d2)

    def _nf_outputs(self, strategy, current, depth):
        it = self._apply(strategy, current)
        first = next(it, None)
        if first is None:
            yield current, ONE
            return
        limit = self.cfg.nf_step_limit
        if limit is not None and depth >= limit:
            raise StepLimitError(f"nf exceeded the step limit of {limit}")
        for out, d1 in itertools.chain((first,), it):
            for final, d2 in self._nf_outputs(strategy, out, depth + 1):
                yield final, min(d1, d2)


def solve(db: ClauseDB, query: Query, relation=None, config=None) -> Iterator[Answer]:
    """Lazily enumerate the answers of a query, depth first.

    Answers carry the accumulated substitution restricted to the query
    variables and the derivation degree (1 in exact mode). In threshold
    mode, answers whose degree falls below the query threshold are
    dropped.
    """
    config = config or EngineConfig()
    solver = _Solver(db, relation, config, query.threshold)
    order = goal_vars(query.goal)

    def answers():
        for subst, degree in solver.run(query.goal):
            if query.threshold is not None and degree < query.threshold:
                continue
            yield Answer(subst.restrict(order), degree)

    stream = answers()
    if config.answer_limit is not None:
        stream = itertools.islice(stream, config.answer_limit)
    return stream
