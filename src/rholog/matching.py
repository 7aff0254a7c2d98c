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
same enumeration with degrees; exact matching scores pairs 1 or 0.

Only the engine passes the private ``_checked=True``, which skips the input
check: it checks a redex ground when it selects it, goals hole-free at the
query and clauses at load, and matcher values plug every hole they bring.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Callable, Iterator

from .terms import (
    HOLE,
    Compound,
    CtxApply,
    CtxVar,
    IndVar,
    SeqVar,
    Subst,
    Sym,
    EMPTY_SUBST,
    hole_count,
    is_ground,
    iter_vars,
)

ZERO = Decimal(0)
ONE = Decimal(1)

SymDegree = Callable[[Sym, Sym], Decimal]


def exact_degree(a: Sym, b: Sym) -> Decimal:
    return ONE if a == b else ZERO


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


def at_most_one_matcher(pattern) -> bool:
    """Whether a pattern hedge has at most one matcher against any subject:
    so it does if it has no context variable and one sequence variable at
    most, since every position and width is then forced."""
    if is_ground(pattern):
        return True
    kinds = [type(v) for v in iter_vars(pattern)]
    return CtxVar not in kinds and kinds.count(SeqVar) <= 1


def _check_inputs(pattern, subject) -> None:
    if hole_count(pattern) != 0:
        raise ValueError("pattern must be hole-free")
    if not is_ground(subject):
        raise ValueError("subject must be ground")
    if hole_count(subject) != 0:
        raise ValueError("subject must be hole-free")


def scored_match_hedge(
    pattern,
    subject,
    sym_degree: SymDegree = exact_degree,
    floor: Decimal = ONE,
    subst: Subst = EMPTY_SUBST,
    *,
    _checked: bool = False,
) -> Iterator[tuple]:
    """Yield ``(matcher, degree)`` pairs; degree is the min over symbol pairs.

    Pairs scoring below ``floor`` (or exactly 0) prune the branch, so
    every yielded degree lies in ``[floor, 1]``.
    """
    if not _checked:
        _check_inputs(pattern, subject)
    for found, degree, _ in _match_items(
        tuple(pattern), tuple(subject), subst, ONE, False, sym_degree, floor
    ):
        yield found, degree


def match_hedge(pattern, subject, *, _checked: bool = False) -> Iterator[Subst]:
    """All matchers of a pattern sequence against a ground sequence."""
    for subst, _ in scored_match_hedge(pattern, subject, _checked=_checked):
        yield subst


def match_term(pattern, subject) -> Iterator[Subst]:
    """All matchers of a term pattern against a ground term."""
    yield from match_hedge((pattern,), (subject,))


def _match_items(items, subject, subst, degree, greedy, sym_degree, floor):
    if not items:
        if not subject:
            yield subst, degree, greedy
        return
    first, rest = items[0], items[1:]

    if isinstance(first, SeqVar):
        bound = subst.get(first)
        if bound is not None:
            n = len(bound)
            if subject[:n] == bound:
                yield from _match_items(
                    rest, subject[n:], subst, degree, greedy, sym_degree, floor
                )
            return
        need, free = 0, False
        for item in rest:
            if not isinstance(item, SeqVar):
                need += 1
            elif (later := subst.get(item)) is not None:
                need += len(later)
            else:
                free = True
        top = len(subject) - need
        if top < 0:
            return
        widths = range(top + 1) if free else (top,)
        if greedy:
            widths = reversed(widths)
        for w in widths:
            extended = subst._extend(first, subject[:w])
            yield from _match_items(
                rest, subject[w:], extended, degree, True, sym_degree, floor
            )
        return

    if not subject:
        return
    for subst2, degree2, greedy2 in _match_one(
        first, subject[0], subst, degree, greedy, sym_degree, floor
    ):
        yield from _match_items(
            rest, subject[1:], subst2, degree2, greedy2, sym_degree, floor
        )


def _match_one(pat, t, subst, degree, greedy, sym_degree, floor):
    """Match a single width-one pattern item against one subject term."""
    if isinstance(pat, IndVar):
        bound = subst.get(pat)
        if bound is not None:
            if bound == t:
                yield subst, degree, greedy
        else:
            yield subst._extend(pat, t), degree, greedy
        return

    if isinstance(pat, Compound):
        if not isinstance(t, Compound):
            return
        head = pat.head
        if isinstance(head, Sym):
            d = sym_degree(head, t.head)
            if d == 0 or d < floor:
                return
            here = subst
            degree = min(degree, d)
        else:  # function variable: binds the subject head verbatim
            bound = subst.get(head)
            if bound is not None:
                if bound != t.head:
                    return
                here = subst
            else:
                here = subst._extend(head, t.head)
        yield from _match_items(
            pat.args, t.args, here, degree, greedy, sym_degree, floor
        )
        return

    if isinstance(pat, CtxApply):
        bound = subst.get(pat.var)
        for ctx, plugged in enumerate_contexts(t):
            if bound is not None:
                if ctx != bound:
                    continue
                here = subst
            else:
                here = subst._extend(pat.var, ctx)
            yield from _match_one(
                pat.arg, plugged, here, degree, greedy, sym_degree, floor
            )
