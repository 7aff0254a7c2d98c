"""Symbol proximity relations and approximate matching.

A proximity relation assigns degrees in (0, 1] to pairs of symbols.
It is reflexive by convention (every symbol is close to itself with
degree 1), symmetric, and deliberately not transitive. Degree 0 means
the symbols are unrelated. Degrees are carried as ``Decimal`` so that
tests and transcripts compare them exactly, with no float drift.

Proximity of ground terms and sequences is the minimum of the degrees
of all corresponding symbol pairs; any structural mismatch (different
argument counts, term vs sequence shape) gives 0.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from decimal import Decimal, InvalidOperation

from .errors import DegreeRangeError, InvalidValueError, ThresholdRangeError
from .matching import ITEMS, ONE, ZERO, scored_match_hedge
from .terms import Record, Sym, hole_count, is_ground


class ProximityRelation:
    """Symmetric map from symbol pairs to degrees in (0, 1].

    Later declarations for the same pair overwrite earlier ones. A degree
    is stored under both orders of its ``(Sym, Sym)`` pair, so ``degree``
    is an identity test and at most one dict lookup.
    """

    def __init__(self, entries: Iterable[tuple] = ()):
        self._degrees = {}
        for a, b, degree in entries:
            self.add(a, b, degree)

    def add(self, a, b, degree) -> None:
        a = a if isinstance(a, Sym) else Sym(a)
        b = b if isinstance(b, Sym) else Sym(b)
        degree = check_degree(degree)
        self._degrees[a, b] = self._degrees[b, a] = degree

    def degree(self, a: Sym, b: Sym) -> Decimal:
        if a is b:
            return ONE
        return self._degrees.get((a, b), ZERO)

    def pairs(self):
        return {(a.name, b.name): d for (a, b), d in self._degrees.items() if a.name < b.name}

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}~{b}:{d}" for (a, b), d in sorted(self.pairs().items()))
        return "ProximityRelation(" + inner + ")"


EMPTY_RELATION = ProximityRelation()


class DegreedMatcher(Record):
    """A matcher (a ``Subst``) together with its approximation degree."""

    __slots__ = ("subst", "degree")


def check_degree(value) -> Decimal:
    return _unit_decimal(value, DegreeRangeError, "proximity degree must be in (0, 1]", ZERO)


def check_threshold(value) -> Decimal:
    return _unit_decimal(value, ThresholdRangeError, "threshold must be in [0, 1]")


def _unit_decimal(value, error, message, excluded=None) -> Decimal:
    """``value`` as a Decimal in [0, 1] other than ``excluded``; anything
    else, an unreadable value or NaN too, raises ``error``."""
    try:
        number = Decimal(value)
    except (InvalidOperation, TypeError, ValueError):
        number = None
    if number is None or number.is_nan() or not 0 <= number <= 1 or number == excluded:
        raise error(f"{message}, got {value}")
    return number


def prox_match_hedge(rel, pattern, subject, threshold) -> Iterator[DegreedMatcher]:
    """All matchers whose instantiated pattern is close to the subject.

    Every emitted degree ``d`` satisfies ``threshold <= d <= 1``; exact
    matches come out with degree 1. At threshold 1 this emits exactly
    the exact matchers.
    """
    threshold = check_threshold(threshold)
    for subst, degree in scored_match_hedge(pattern, subject, rel.degree, threshold):
        yield DegreedMatcher(subst, degree)


def hedge_proximity(rel, h1, h2) -> Decimal:
    """Proximity degree of two ground, hole-free sequences: the degree of the one
    matcher of ``h1`` against ``h2`` (0 if none). The inputs are checked on the call."""
    h = (*h1, *h2)  # both hedges' items
    if bad := [x for x in h if not isinstance(x, ITEMS)]:
        raise TypeError(f"not a term or a sequence variable: {bad[0]!r}")
    if not is_ground(h) or hole_count(h) != 0:
        raise InvalidValueError("proximity is defined on ground, hole-free terms and hedges")
    return _proximity_walk(rel, h1, h2, ZERO)


def _proximity_walk(rel, h1, h2, floor) -> Decimal:
    """``hedge_proximity`` of trusted hedges, walked as the matcher walks, with no
    stack; 0 if a symbol pair scores below ``floor``. A clause's ``prox`` guard
    calls it directly: its sides are ground by a load-time analysis."""
    degree, i, more = ONE, 0, None
    while True:
        if i == len(h1) or i == len(h2):
            if len(h1) != len(h2):
                return ZERO
            if more is None:
                return degree
            h1, h2, i, more = more
            continue
        p, s = h1[i], h2[i]
        d = rel.degree(p.head, s.head)
        if d == 0 or d < floor:
            return ZERO
        if d < degree:
            degree = d
        h1, h2, i, more = p.args, s.args, 0, (h1, h2, i + 1, more)
