"""Matching of variable patterns against ground sequences.

A matching problem pairs a pattern sequence with a ground, hole-free
subject sequence. It can have zero, one, or many solutions (matchers);
the functions here enumerate all of them lazily, without duplicates,
in a fixed canonical order that the golden-output tests pin down:

* the first sequence variable bound along a search path takes the
  shortest candidate segment first; every sequence variable bound
  after it takes the longest remaining segment first;
* a context variable tries the subject's hole positions in preorder,
  so the whole term comes before its arguments, left to right;
* individual variables, function variables, and fixed symbols are
  forced by position and add no alternatives.

A sequence variable skips widths that leave fewer items than the rest
of the pattern needs (one per term, the length of each bound sequence
variable), and takes the one width left if no unbound sequence variable
follows; skipped widths have no matchers, so the order does not change.

Symbol comparison is pluggable so the proximity layer can reuse the
same enumeration with degrees; exact matching compares symbols by
identity, which scores every pair 1 or 0.

The matcher is one loop. It consumes forced items in place, enters a
compound by saving the rest of its level on a linked list, and recurses
only at choices: a sequence variable with several widths, and a context
variable. Long and deep patterns therefore cost no stack.

Only the engine passes the private ``_checked=True``, which skips the input
check: its redexes are ground by a load-time analysis, goals hole-free at
the query and clauses at load, and matcher values plug every hole they bring.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from decimal import Decimal

from .errors import InvalidValueError
from .terms import (
    HOLE,
    Compound,
    CtxVar,
    IndVar,
    SeqVar,
    Subst,
    Sym,
    hole_count,
    is_ground,
)

ZERO = Decimal(0)
ONE = Decimal(1)

SymDegree = "Callable[[Sym, Sym], Decimal]"


def enumerate_contexts(subject) -> Iterator[tuple]:
    """All ``(context, plugged)`` decompositions of a ground term, lazily.

    Ordered by the position of the hole in preorder: the identity
    context first, then holes descending into arguments left to right.
    """
    yield HOLE, subject
    if isinstance(subject, Compound):
        for i, item in enumerate(subject.args):
            for ctx, plugged in enumerate_contexts(item):
                wrapped = Compound(
                    subject.head, subject.args[:i] + (ctx,) + subject.args[i + 1:]
                )
                yield wrapped, plugged


def at_most_one_matcher(pattern_vars) -> bool:
    """Whether a pattern hedge with the variable occurrences ``pattern_vars``
    has at most one matcher against any subject: it has if it has no context
    variable and one sequence variable at most, which force every width."""
    kinds = list(map(type, pattern_vars))
    return CtxVar not in kinds and kinds.count(SeqVar) <= 1


def _check_inputs(pattern, subject) -> None:
    if hole_count(pattern) != 0:
        raise InvalidValueError("pattern must be hole-free")
    if not is_ground(subject):
        raise InvalidValueError("subject must be ground")
    if hole_count(subject) != 0:
        raise InvalidValueError("subject must be hole-free")


def scored_match_hedge(
    pattern, subject, sym_degree: SymDegree | None = None, floor: Decimal = ONE,
    *, _checked: bool = False,
) -> Iterator[tuple]:
    """``(matcher, degree)`` pairs, lazily; degree is the min over symbol pairs.

    Pairs scoring below ``floor`` (or exactly 0) prune the branch, so
    every degree lies in ``[floor, 1]``; without ``sym_degree``, symbols
    match exactly, by identity. The inputs are checked on the call.
    """
    if not _checked:
        _check_inputs(pattern, subject)
    return _match_items(
        tuple(pattern), 0, tuple(subject), 0, {}, ONE, False, sym_degree, floor, None
    )


def match_hedge(pattern, subject, *, _checked: bool = False) -> Iterator[Subst]:
    """All matchers of a pattern sequence against a ground sequence."""
    for subst, _ in scored_match_hedge(pattern, subject, _checked=_checked):
        yield subst


def match_term(pattern, subject) -> Iterator[Subst]:
    """All matchers of a term pattern against a ground term."""
    yield from match_hedge((pattern,), (subject,))


def _match_items(items, i, subject, j, subst, degree, greedy, sym_degree, floor, more):
    """Match ``items[i:]`` with ``subject[j:]``, then each level left in the
    linked list ``more = (items, i, subject, j, more)``; yield ``(matcher,
    degree)``. ``subst`` is a plain dict: a binding makes a new one for its
    search path, and a ``Subst`` is built only for a yielded matcher.
    ``greedy``: a sequence variable is bound on this path."""
    while True:
        if i == len(items):
            if j != len(subject):
                return
            if more is None:
                yield Subst(subst, _checked=True), degree
                return
            items, i, subject, j, more = more
            continue
        first = items[i]
        i += 1

        if isinstance(first, SeqVar):
            bound = subst.get(first)
            if bound is not None:
                n = j + len(bound)
                if subject[j:n] != bound:
                    return
                j = n
                continue
            need, free = 0, False
            for item in items[i:]:
                if not isinstance(item, SeqVar):
                    need += 1
                elif (later := subst.get(item)) is not None:
                    need += len(later)
                else:
                    free = True
            top = len(subject) - j - need
            if top < 0:
                return
            if free:
                for w in range(top, -1, -1) if greedy else range(top + 1):
                    yield from _match_items(
                        items, i, subject, j + w, {**subst, first: subject[j:j + w]},
                        degree, True, sym_degree, floor, more,
                    )
                return
            subst, j, greedy = {**subst, first: subject[j:j + top]}, j + top, True
            continue

        if j == len(subject):
            return
        t = subject[j]
        j += 1

        if isinstance(first, IndVar):
            bound = subst.get(first)
            if bound is None:
                subst = {**subst, first: t}
            elif bound != t:
                return
        elif isinstance(first, Compound):  # so is t: a ground, hole-free term
            head = first.head
            if isinstance(head, Sym):
                if sym_degree is None:
                    if head is not t.head:
                        return
                else:
                    d = sym_degree(head, t.head)
                    if d == 0 or d < floor:
                        return
                    if d < degree:
                        degree = d
            else:  # function variable: binds the subject head verbatim
                bound = subst.get(head)
                if bound is None:
                    subst = {**subst, head: t.head}
                elif bound is not t.head:
                    return
            more = (items, i, subject, j, more)
            items, i, subject, j = first.args, 0, t.args, 0
        else:  # a context variable applied to a term; patterns are hole-free
            bound = subst.get(first.var)
            more = (items, i, subject, j, more)
            for ctx, plugged in enumerate_contexts(t):
                if bound is None:
                    here = {**subst, first.var: ctx}
                elif ctx != bound:
                    continue
                else:
                    here = subst
                yield from _match_items(
                    (first.arg,), 0, (plugged,), 0, here, degree, greedy, sym_degree,
                    floor, more,
                )
            return
