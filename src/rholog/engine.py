"""Clause database, goal resolution, builtin strategies and predicates.

Resolution is depth-first with leftmost selection: one loop over a goal
list and a stack of choice points, the control of Warren's Abstract
Machine without its term store. A selected goal gives an alternative
``(goals, theta, degree)`` (goals to run first, the step's bindings, its
degree), None, or a choice point: an iterator of alternatives. Only the
loop builds states from them; a state with no goals is an answer. A lone
clause whose head has at most one matcher, and a step whose pattern has
at most one, leave no choice point behind. A step's bindings reach the
goals up to the first pending clause continuation: they bind names made
since it was queued (query variables if none is), which no later goal holds.

Selecting ``st :: s1 ==> s2`` requires ``st`` and ``s1`` to be ground, which
is known at load (``_facts``). A clause ``st' :: s1' ==> s2' :- body`` whose
stored head matches with ``sigma`` (extended by fresh names ``v~n`` for its
local variables) gives the goals ``sigma(body)``, then
``C :: sigma(s2') ==> s2``, where ``C`` is ``id``, or ``prox(lam)`` in
threshold mode, built when it is selected, after the body. A head match runs
its clause's test: the leading guard (``id``, ``prox``, a comparison or its
negation) once its variables are bound (``_test_at``), on the dict's ground
sides, so a failing candidate is never yielded; without one, the hit report.
Builtins become goals too: ``compose(s1,...,sk) :: l ==> r`` gives
``s1 :: l ==> s_Out~1``, ..., ``sk :: s_Out~(k-1) ==> s_Out~k``,
``C :: s_Out~k ==> r``. ``map(st)`` over m items names ``s_Out~1``, ...,
``s_Out~m`` at once and queues one item's step at a time, each followed by
a machine-only check that its output is one term, then ``C :: outputs ==> r``.
Three barriers are machine-only goals naming their choice point's stack
height: ``first_one`` cuts after its first output and its first rhs match;
``nf`` and ``first_all`` soft-cut (an output drops only the untried
alternatives), the nf one carrying the step limit; negation cuts and fails
once the positive form has an answer.

Clauses are indexed by name, then by the head symbol of the first lhs
item (first param); other first items go to the name's variable bucket.
A selection tries its subject's bucket merged with that one by source
position. Heads match exactly, and a keyed item faces the subject's first
item, so only clauses that cannot match drop out, and no order changes.

Every step binds ground values and query variables are never renamed,
so answers record just the steps' bindings of query variables. The
degree of an answer is the minimum over its proximity steps (1 if none).
The builtins are ``BUILTIN_STRATEGIES`` and ``COMPARISONS``.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Iterator

from .errors import (
    ArityError,
    DuplicateBuiltinError,
    HoleInGoalError,
    LoadError,
    NonGroundRedexError,
    NonNumericError,
    NonTermResultError,
    StepLimitError,
    UnknownPredicateError,
    UnknownStrategyError,
)
from .matching import ONE, at_most_one_matcher, match_hedge, scored_match_hedge
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
    literal_hole_count,
)
from .proximity import EMPTY_RELATION, _proximity_walk, check_threshold
from .terms import (
    Compound,
    FunVar,
    IndVar,
    Record,
    SeqVar,
    Subst,
    Sym,
    atom,
    hole_count,
    identity_value,
    is_ground,
    iter_vars,
    numeral_value,
    subst_hedge,
    subst_term,
)

BUILTIN_STRATEGIES = frozenset(
    {"id", "prox", "compose", "choice", "first_one", "first_all", "map", "nf"}
)

COMPARISONS: dict[str, Callable] = {
    "=<": operator.le, "<": operator.lt, ">": operator.gt, ">=": operator.ge
}

class EngineConfig:
    __slots__ = ("nf_step_limit", "trace_sink")  # trace_sink gets each trace line; None: off

    def __init__(self, nf_step_limit: int | None = None,
                 trace_sink: Callable[[str], None] | None = None):
        self.nf_step_limit = nf_step_limit
        self.trace_sink = trace_sink


class Answer(Record):
    """Bindings restricted to the query variables, plus the degree."""

    __slots__ = ("bindings", "degree")


class ClauseDB:
    """Loaded program: clauses in source order and, per name, a map from the
    head symbol of the first lhs item (first param) to its clauses, and a
    variable bucket for the rest; a lookup merges the two in source order.
    Entries are ``(position, clause, (head, at, cell), facts)``: ``_index``, ``_facts``."""

    def __init__(self, rho_clauses=(), pred_clauses=()):
        self.rho_clauses = tuple(rho_clauses)
        self.pred_clauses = tuple(pred_clauses)
        self._rho_index = _index(
            (c.strategy.head.name, c.lhs, c, (c.strategy,) + c.lhs) for c in self.rho_clauses
        )
        self._pred_index = _index((c.name, c.params, c, c.params) for c in self.pred_clauses)

    def rho_for(self, name: str, lhs: tuple):
        return _candidates(self._rho_index, name, lhs)

    def preds_for(self, name: str, args: tuple):
        return _candidates(self._pred_index, name, args)


def _first_key(items):
    """The name of the first item's head symbol, if it has one; else None."""
    if items and isinstance(items[0], Compound) and isinstance(items[0].head, Sym):
        return items[0].head.name


def _index(clauses):
    """The index ``{name: (keyed, free)}`` of ``(name, first items, clause, head)``;
    each entry keeps ``(head, _test_at(head, guard), cell)``, the cell ``[]`` for the
    compiled code that ``match_hedge`` keeps if the head may have several matchers, else None."""
    index = {}
    for position, (name, first, clause, head) in enumerate(clauses):
        keyed, free = index.setdefault(name, ({}, []))
        key = _first_key(first)
        bucket = free if key is None else keyed.setdefault(key, [])
        facts = _facts(clause, head)
        cell = None if facts[1] else []
        bucket.append((position, clause, (head, _test_at(head, facts[3]), cell), facts))
    return index


def _test_at(head, guard):
    """Where the head matcher tests ``guard``, so that a test stands for one matcher:
    after the last top-level item with a variable of it, if only a new sequence
    variable follows; else, and always for no guard (None), at the end."""
    if guard is None:
        return len(head)
    names = set(itertools.chain(*_literal_parts(guard)))
    at = max((k + 1 for k, x in enumerate(head) if names.intersection(iter_vars(x))), default=0)
    last = head[-1] if at == len(head) - 1 else None
    return at if isinstance(last, SeqVar) and last not in iter_vars(head[:at]) else len(head)


def _facts(clause, head):
    """``(locals, single, ready, guard)``: the rhs and body variables the head
    lacks, distinct and in order, whether the head has at most one matcher,
    whether each body literal and the continuation is ground when selected,
    and the leading guard; lints a transformation clause. The head, the rhs
    and each body literal are walked once for all four."""
    rho = isinstance(clause, RhoClause)
    head_vars, rhs_vars = iter_vars(head), iter_vars(clause.rhs) if rho else []
    bound = set(head_vars)
    if clause.body:
        parts = [_literal_parts(lit) for lit in clause.body]
        unbound = _unbound_when_selected(bound, clause.body, parts, rhs_vars if rho else None)
        guard = _leading_guard(clause.body[0], bound, parts[0])
        occurring = itertools.chain(rhs_vars, *(n + r for n, r in parts))
    else:  # nothing to walk past the rhs
        unbound, guard, occurring = [set(rhs_vars) - bound] if rho else [], None, rhs_vars
    for k, names in enumerate(unbound if rho else ()):
        for v in sorted(names, key=lambda v: v.name):
            message = (f"variable {v!r} may be unbound when its literal is selected"
                       if k < len(clause.body) else
                       f"right-hand side variable {v!r} may never be bound")
            import logging  # here, not at the top: only a lint pays for importing it
            logging.getLogger(__name__).warning("%s: %s", message, render_clause(clause))
    local_vars = tuple(v for v in dict.fromkeys(occurring) if v not in bound)
    return local_vars, at_most_one_matcher(head_vars), tuple(not n for n in unbound), guard


def _literal_parts(lit) -> tuple:
    """A literal's variable occurrences in two lists: those it needs bound when
    selected (a rho atom's strategy and lhs, else all) and the rest (its rhs)."""
    if isinstance(lit, RhoAtom):
        redex = (lit.strategy,) + lit.lhs
        needed = [] if is_ground(redex) else iter_vars(redex)  # cached for compounds
        return needed, iter_vars(lit.rhs)
    if isinstance(lit, NotGoal):
        needed, rest = _literal_parts(lit.inner)
        return needed + rest, []
    if isinstance(lit, PredAtom):
        return iter_vars((lit.head, lit.args)), []
    raise TypeError(f"not a literal: {lit!r}")


def _unbound_when_selected(bound, literals, parts, rhs_vars=None):
    """Per literal, with its ``_literal_parts``, the variables it needs and lacks
    when selected; then those of ``rhs_vars``, if given."""
    bound, unbound = set(bound), []
    for lit, (needed, rest) in zip(literals, parts):
        unbound.append(set(needed) - bound)
        if isinstance(lit, RhoAtom) and lit.positive:
            bound.update(rest)
    return unbound if rhs_vars is None else unbound + [set(rhs_vars) - bound]


def _leading_guard(lit, head_vars, parts):
    """``lit``, with its ``_literal_parts``, if its variables are all ``head_vars``
    and it is an ``id`` or ``prox`` step or a comparison, maybe negated or headed
    by an ``f_`` variable; ``_guard`` raises the errors selecting it raises."""
    call = lit.inner if isinstance(lit, NotGoal) else lit
    if isinstance(call, RhoAtom):
        st = call.strategy
        guard = (call is lit and call.positive and isinstance(st, Compound)
                 and st.head.name in ("id", "prox"))
    else:
        guard = isinstance(call, PredAtom) and (
            isinstance(call.head, FunVar) or call.head.name in COMPARISONS)
    return lit if guard and head_vars.issuperset(itertools.chain(*parts)) else None


def _candidates(index, name, items):
    """The clauses of ``name`` whose first item can match that of the ground
    hedge ``items``, in source order; None if ``name`` has no clauses at all."""
    if name in index:
        keyed, free = index[name]
        hits = keyed.get(_first_key(items), ())
        return sorted(hits + free) if hits and free else hits or free


def load_program(program: SourceProgram) -> ClauseDB:
    """Expand abbreviations, validate clause heads, and index the clauses."""
    rho, preds = [], []
    fresh = itertools.count(1)
    for clause in program.clauses:
        if isinstance(clause, StrategyAbbrev):
            n = next(fresh)
            left, right = SeqVar(f"s__Abbrev{n}L"), SeqVar(f"s__Abbrev{n}R")
            clause = RhoClause(clause.lhs, (left,), (right,),
                               (RhoAtom(clause.rhs, (left,), (right,)),))
        if isinstance(clause, RhoClause):
            st = clause.strategy
            if not (isinstance(st, Compound) and isinstance(st.head, Sym)):
                raise LoadError(f"strategy head must be symbol-headed: {render_clause(clause)}")
            kind, name, shadows = "strategy", st.head.name, st.head.name in BUILTIN_STRATEGIES
            holes, into = hole_count(st) + hole_count(clause.lhs) + hole_count(clause.rhs), rho
        elif isinstance(clause, PredClause):
            kind, name, holes, into = "predicate", clause.name, hole_count(clause.params), preds
            shadows = name in COMPARISONS or name == "not"
        else:
            raise LoadError(f"unsupported clause: {clause!r}")
        if shadows:
            raise DuplicateBuiltinError(f"{kind} {name!r} shadows a builtin {kind}")
        if holes or any(literal_hole_count(lit) for lit in clause.body):
            raise LoadError(f"hole is not allowed in clauses: {render_clause(clause)}")
        into.append(clause)
    return ClauseDB(rho, preds)


class _Cut(Record):
    """Machine-only goal: commit to the choice point at ``height``. A hard
    cut drops it and every choice point above it, a soft cut only its own
    remaining alternatives; ``fail`` fails right after the cut."""

    __slots__ = ("height", "soft", "fail")
    _defaults = (False, False)


class _Nf(Record):
    """Machine-only goal reached by an output of nf step ``depth``: soft-cut
    at ``height``, then step ``depth + 1`` by ``lit``, ``nf(st) :: out ==> rhs``."""

    __slots__ = ("lit", "depth", "height")


class _Into(Record):
    """Machine-only goal: the continuation ``C :: sigma(clause_rhs) ==> rhs`` of a
    clause hit, ``sigma`` a dict. Its body runs first and binds only ``locals``' fresh names."""

    __slots__ = ("sigma", "locals", "clause_rhs", "rhs")


class _Map(Record):
    """Machine-only goal after the step of ``map`` item ``at - 1`` into ``out``:
    check that ``out`` is one term, add it to ``done``, go on (``_Solver._map``)."""

    __slots__ = ("strategy", "out", "at", "items", "outs", "done", "rhs")


_PASS = ((), None, ONE)  # the alternative of a step that binds nothing
_SPENT = (iter(()), (), {}, ONE)  # what a soft cut leaves of a choice point


class _Unready(Record):
    """Machine-only goal: a goal flagged at load as not ground when selected."""

    __slots__ = ("goal",)
    messages = {RhoAtom: "strategy and left-hand side must be ground when selected: ",
                PredAtom: "predicate call is not ground: ",
                NotGoal: "negated goal is not ground: "}


class _Solver:
    """One query's search: mode, configuration, fresh names, query variables."""

    def __init__(self, db, relation, config, threshold, keep):
        self.db = db
        self.rel = relation if relation is not None else EMPTY_RELATION
        self.cfg = config or EngineConfig()
        self.lam = check_threshold(threshold) if threshold is not None else None
        self._keep = frozenset(keep)
        self._fresh = itertools.count(1)
        self._continuation = atom("id") if self.lam is None else Compound(
            Sym("prox"), (atom(format(self.lam, "f")),))

    # -- plumbing ------------------------------------------------------------

    def _trace(self, kind: str, render, item) -> None:
        """Report ``kind: render(item)``; nothing is rendered with tracing off."""
        if self.cfg.trace_sink is not None:
            self.cfg.trace_sink(f"{kind}: {render(item)}")

    def _tried(self, clause, local_vars):
        """Report a head matcher of ``clause``; the counter value naming its locals."""
        self._trace("clause", render_clause, clause)
        return next(self._fresh) if local_vars else None

    def _with_fresh_locals(self, sigma, local_vars, n):
        """Bind a clause's local variables in its head matcher ``sigma`` to fresh
        names under counter value ``n``, in place: the matcher hands each ``sigma``
        over as a new dict. Fresh names never reach answers."""
        for v in local_vars:
            sigma[v] = identity_value(type(v)(f"{v.name}~{n}"))

    def _fresh_out(self):
        return (SeqVar(f"s_Out~{next(self._fresh)}"),)

    def _into(self, out, rhs):
        """The continuation literal ``C :: out ==> rhs``."""
        return RhoAtom(self._continuation, out, rhs)

    def _through(self, strategy, lhs, rhs, barrier, after):
        """Goals that run ``strategy`` on ``lhs`` into a fresh output, pass
        ``barrier``, then match the output against ``rhs``."""
        out = self._fresh_out()
        return (RhoAtom(strategy, lhs, out),) + barrier + (self._into(out, rhs),) + after

    # -- resolution ----------------------------------------------------------

    def run(self, literals) -> Iterator[tuple]:
        """Depth-first resolution, the one place that builds a state. A choice
        point is pushed as ``(alternatives, rest, answer, degree)``; an
        alternative ``(goals, theta, degree)`` runs its goals before ``rest``,
        which ``theta`` instantiates up to its first continuation, adds its
        bindings of query variables to the answer and keeps the lower degree."""
        stack, goals, answer, degree = [], tuple(literals), {}, ONE
        while True:
            if goals:
                alt, rest = self._select(goals[0], stack), goals[1:]
                if not (alt is None or isinstance(alt, tuple)):
                    stack.append((alt, rest, answer, degree))
                    alt = None
            else:
                yield answer, degree
                alt = None
            while alt is None:  # backtrack
                if not stack:
                    return
                alts, rest, answer, degree = stack[-1]
                alt = next(alts, None)
                if alt is None:
                    stack.pop()
            body, theta, step = alt
            if theta:
                kept = {v: x for v, x in theta.items() if v in self._keep}
                if kept:
                    answer = {**answer, **kept}
                # theta binds names made after the first continuation in rest was
                # queued (query variables if none is), so no goal after it holds one
                walked = []
                for goal in rest:
                    walked.append(_instantiate(theta, goal))
                    if isinstance(goal, _Into):
                        break
                rest = (*walked, *rest[len(walked):])
            dead = body and isinstance(body[-1], _Cut) and body[-1].fail  # rest never runs
            goals, degree = body if dead else body + rest, step if step < degree else degree

    def _select(self, goal, stack):
        """What a selected goal leads to: one alternative, None for failure,
        or a choice point (an iterator of alternatives) to push on ``stack``."""
        ready = not isinstance(goal, _Unready)
        goal = goal if ready else goal.goal
        if isinstance(goal, _Into):
            goal = self._into(subst_hedge(goal.sigma, goal.clause_rhs), goal.rhs)
        if not ready:
            raise NonGroundRedexError(_Unready.messages[type(goal)] + render_literal(goal))
        if isinstance(goal, RhoAtom):
            if goal.positive:
                return self._solve_rho(goal, len(stack))
            positive = RhoAtom(goal.strategy, goal.lhs, goal.rhs, True)
        elif isinstance(goal, PredAtom):
            return self._solve_pred(goal)
        elif isinstance(goal, _Cut):
            if goal.soft:
                stack[goal.height] = _SPENT
            else:
                del stack[goal.height:]
            return None if goal.fail else _PASS
        elif isinstance(goal, _Nf):
            limit = self.cfg.nf_step_limit
            if limit is not None and goal.depth >= limit:
                raise StepLimitError(f"nf exceeded the step limit of {limit}")
            stack[goal.height] = _SPENT
            return self._nf(goal.lit, goal.depth + 1, len(stack))
        elif isinstance(goal, _Map):
            if len(goal.out) != 1:
                raise NonTermResultError("map needs term-to-term strategies, got a "
                                         f"result of length {len(goal.out)}")
            done = (goal.done, goal.out[0])
            return self._map(goal.strategy, goal.at, goal.items, goal.outs, done, goal.rhs)
        else:  # a NotGoal: solve and load_program admit no other literal
            positive = goal.inner
        # negation as failure: an answer of the positive form reaches a cut
        # that drops this choice point, continuing alternative included, and fails
        self._trace("negation", render_literal, goal)
        return iter([((positive, _Cut(len(stack), fail=True)), None, ONE), _PASS])

    def _solve_rho(self, lit, height):
        self._trace("select", render_literal, lit)
        name = lit.strategy.head.name
        if name in BUILTIN_STRATEGIES:
            return self._builtin(name, lit, height)
        clauses = self.db.rho_for(name, lit.lhs)
        if clauses is None:
            raise UnknownStrategyError(f"unknown strategy: {name!r}")
        subject = (lit.strategy,) + lit.lhs
        return self._resolve(clauses, subject, lit.rhs)

    def _solve_pred(self, lit):
        self._trace("select", render_literal, lit)
        name = lit.head.name
        if name in COMPARISONS:
            if len(lit.args) != 2:
                raise ArityError(f"{name} takes two arguments")
            values = [numeral_value(arg) for arg in lit.args]
            if None in values:
                raise NonNumericError(f"{name} needs numeric constants: {render_literal(lit)}")
            return _PASS if COMPARISONS[name](*values) else None
        clauses = self.db.preds_for(name, lit.args)
        if clauses is None:
            raise UnknownPredicateError(f"unknown predicate: {name!r}")
        return self._resolve(clauses, lit.args, None)

    def _resolve(self, clauses, subject, rhs):
        """An alternative per clause hit, in source order: the clause body, then
        for a transformation clause the continuation ``C :: sigma(rhs') ==> rhs``."""

        def hits():
            for _, clause, (head, at, cell), (local_vars, _, ready, guard) in clauses:
                test = at, self._guard(clause, guard, local_vars)
                for sigma, (n, used, step) in match_hedge(head, subject, _test=test, _cell=cell):
                    self._with_fresh_locals(sigma, local_vars, n)
                    body = tuple(apply_to_literal(sigma, b) for b in clause.body[used:])
                    if rhs is not None:
                        body += (_Into(sigma, local_vars, clause.rhs, rhs),)
                    if False in ready:
                        flags = ready[used:]
                        body = tuple(g if ok else _Unready(g) for g, ok in zip(body, flags))
                    yield body, None, step

        return next(hits(), None) if len(clauses) == 1 and clauses[0][3][1] else hits()

    def _guard(self, clause, lit, local_vars):
        """The head matcher's test of ``clause``'s leading guard ``lit`` on a dict binding
        its variables, as a hit and then selection would do it: None if it fails, else the
        locals' counter value, the body literals it used up (0 if an ``f_`` head names
        no comparison) and the degree of its step. With no guard (None): the hit report."""
        if lit is None:
            return lambda d: (self._tried(clause, local_vars), 0, ONE)
        negated = isinstance(lit, NotGoal)
        call = lit.inner if negated else lit
        rho = isinstance(call, RhoAtom)
        head, lhs = (call.strategy, _reader(call.lhs)) if rho else (call.head, _reader(call.args))
        rhs, known = _reader(call.rhs) if rho else None, []  # known: a ground head's floor
        tried = local_vars or self.cfg.trace_sink is not None  # else _tried does nothing

        def test(d):
            n = self._tried(clause, local_vars) if tried else None
            if not rho:
                name = d.get(head, head)
                if name.name not in COMPARISONS:
                    return n, 0, ONE
                pred = PredAtom(name, lhs(d))
                if negated:
                    self._trace("negation", render_literal, NotGoal(pred))
                failed = self._solve_pred(pred) is None
                return (n, 1, ONE) if failed == negated else None
            st, left, right = head if head._ground else subst_term(d, head), lhs(d), rhs(d)
            if self.cfg.trace_sink is not None:
                self._trace("select", render_literal, RhoAtom(st, left, right))
            if not known or not head._ground:
                known[:] = [self._floor(st)]
            floor = known[0]
            if floor is None:  # id: the sides are equal
                return (n, 1, ONE) if left == right else None
            got = _proximity_walk(self.rel, right, left, floor)
            return (n, 1, got) if got else None
        return test

    # -- builtin strategies ----------------------------------------------------

    def _floor(self, st):
        """The least degree the step ``st``, ``id`` or ``prox(mu)``, admits, None
        for ``id``, which is exact; a wrong arity or threshold raises."""
        name, args = st.head.name, st.args
        if name == "id" and args:
            raise ArityError("id takes no arguments")
        if len(args) > 1:
            raise ArityError("prox takes at most one argument")
        if not args:
            return None if name == "id" else ONE if self.lam is None else self.lam
        mu = numeral_value(args[0])
        if mu is None:
            raise NonNumericError("prox needs a numeric threshold")
        return check_threshold(mu)

    def _builtin(self, name, lit, height):
        args, lhs, rhs = lit.strategy.args, lit.lhs, lit.rhs
        if name in ("id", "prox"):
            floor = self._floor(lit.strategy)
            matches = scored_match_hedge(rhs, lhs, None if floor is None else self.rel.degree,
                                         ONE if floor is None else floor, _checked=True)
            steps = (((), theta, d) for theta, d in matches)
            return next(steps, None) if at_most_one_matcher(iter_vars(rhs)) else steps
        if name == "compose":
            if len(args) < 2:
                raise ArityError("compose takes at least two strategies")
            goals, source = (), lhs
            for st in args:
                out = self._fresh_out()
                goals += (RhoAtom(st, source, out),)
                source = out
            return goals + (self._into(source, rhs),), None, ONE
        if name in ("choice", "first_one", "first_all"):
            if not args:
                raise ArityError(f"{name} takes at least one strategy")
            # first_one keeps the first output and its first rhs match,
            # first_all every output of the first strategy that has one
            cut = () if name == "choice" else (_Cut(height, soft=name == "first_all"),)
            after = cut if name == "first_one" else ()
            return ((self._through(st, lhs, rhs, cut, after), None, ONE) for st in args)
        if len(args) != 1:  # map or nf
            raise ArityError(f"{name} takes exactly one strategy")
        if name == "nf":
            return self._nf(lit, 0, height)
        outs = tuple(self._fresh_out() for _ in lhs)  # named up front, in order
        return self._map(args[0], 0, lhs, outs, None, rhs)

    def _map(self, strategy, at, items, outs, done, rhs):
        """The goals of a map with outputs ``done``, a list linked backwards: the
        step of item ``at`` into its fresh name, or after the last ``C :: done ==> rhs``."""
        if at < len(items):
            following = _Map(strategy, outs[at], at + 1, items, outs, done, rhs)
            return (RhoAtom(strategy, items[at:at + 1], outs[at]), following), None, ONE
        outputs = []
        while done:  # copying done at every item would cost O(m^2) for m items
            done, term = done
            outputs.append(term)
        return (self._into(tuple(reversed(outputs)), rhs),), None, ONE

    def _nf(self, lit, depth, height):
        """Choice point of nf step ``depth``: go on from every output of the
        step, or, if it has none, match the input against the rhs."""
        out = self._fresh_out()
        step = RhoAtom(lit.strategy.args[0], lit.lhs, out)
        following = _Nf(RhoAtom(lit.strategy, out, lit.rhs), depth, height)
        yield (step, following), None, ONE
        yield (self._into(lit.lhs, lit.rhs),), None, ONE


def _reader(hedge):
    """A function from a dict binding the variables of ``hedge`` to its instance."""
    if hedge and all(isinstance(x, IndVar) for x in hedge):
        get = operator.itemgetter(*hedge)
        return get if len(hedge) > 1 else lambda d: (get(d),)
    return lambda d: subst_hedge(d, hedge)


def _instantiate(theta, goal):
    if isinstance(goal, _Into):
        sigma = dict(goal.sigma)
        for v in goal.locals:
            sigma[v] = (subst_hedge if isinstance(v, SeqVar) else subst_term)(theta, sigma[v])
        return _Into(sigma, goal.locals, goal.clause_rhs, goal.rhs)
    if isinstance(goal, _Cut):
        return goal
    if isinstance(goal, _Nf):
        return _Nf(apply_to_literal(theta, goal.lit), goal.depth, goal.height)
    if isinstance(goal, _Map):
        return _Map(goal.strategy, subst_hedge(theta, goal.out), goal.at, goal.items,
                    goal.outs, goal.done, goal.rhs)
    if isinstance(goal, _Unready):
        return _Unready(_instantiate(theta, goal.goal))
    return apply_to_literal(theta, goal)


def solve(db: ClauseDB, query: Query, relation=None, config=None) -> Iterator[Answer]:
    """Lazily enumerate the answers of a query, depth first.

    Answers carry the bindings of the query variables and the derivation
    degree (1 in exact mode). In threshold mode, answers whose degree
    falls below the query threshold are dropped. Every error of the query,
    such as a threshold out of range or a goal that contains ``hole``, is
    raised by the answer stream, when the first answer is asked for.
    ``itertools.islice(solve(...), n)`` searches for the first n answers only.
    """
    parts = [_literal_parts(lit) for lit in query.goal]
    order = tuple(dict.fromkeys(v for needed, rest in parts for v in needed + rest))
    solver = _Solver(db, relation, config, query.threshold, order)
    for lit in query.goal:
        if literal_hole_count(lit):
            raise HoleInGoalError(f"hole is not allowed in goals: {render_literal(lit)}")
    unbound = _unbound_when_selected((), query.goal, parts)
    goals = [_Unready(lit) if names else lit for lit, names in zip(query.goal, unbound)]
    for bindings, degree in solver.run(goals):
        if query.threshold is not None and degree < query.threshold:
            continue
        yield Answer(Subst({v: bindings[v] for v in order if v in bindings}), degree)
