"""Brute-force reference implementations used to cross-check the engine.

Everything here favours obviousness over speed: candidate material is
enumerated from the subject, assignments are built from it one variable
at a time, and a candidate substitution counts as a matcher exactly when
applying it to the pattern reproduces the subject. The brute-force
matcher decides that by walking the pattern against the subject, without
building the instance, and drops a partial assignment as soon as the
walk fails before it meets an unbound variable; ``apply_items`` builds
the instance for the strategy oracle.

Matchers here are plain dicts from variables to values, applied by this
module's own ``apply_items``; only the term constructors come from the
package, so a fault in ``Subst`` or the matcher cannot cancel out.
"""

import functools
from decimal import Decimal

from rholog import (
    HOLE,
    Compound,
    CtxApply,
    CtxVar,
    FunVar,
    IndVar,
    SeqVar,
)

ONE = Decimal(1)
ZERO = Decimal(0)


# -- positions, the long way (paths of argument indices) ---------------------

def term_paths(t):
    yield ()
    if isinstance(t, Compound):
        for i, child in enumerate(t.args):
            for path in term_paths(child):
                yield (i,) + path


def subterm_at(t, path):
    for i in path:
        t = t.args[i]
    return t


def replace_at(t, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    args = t.args[:i] + (replace_at(t.args[i], rest, new),) + t.args[i + 1:]
    return Compound(t.head, args)


def holed_versions(t):
    """All (one-hole context, plugged-out subterm) pairs of a ground term."""
    return [(replace_at(t, p, HOLE), subterm_at(t, p)) for p in term_paths(t)]


# -- candidate material of a ground subject ----------------------------------

def subject_terms(subject):
    """Every subterm of every item of a ground hedge, deduplicated."""
    seen = {}

    def walk(t):
        seen.setdefault(t, None)
        if isinstance(t, Compound):
            for child in t.args:
                walk(child)

    for item in subject:
        walk(item)
    return list(seen)


def subject_hedges(subject):
    """Every contiguous subhedge of the top hedge or of any argument list."""
    seen = {(): None}

    def segments(h):
        for i in range(len(h)):
            for j in range(i + 1, len(h) + 1):
                seen.setdefault(h[i:j], None)

    def walk_args(t):
        if isinstance(t, Compound):
            segments(t.args)
            for child in t.args:
                walk_args(child)

    segments(tuple(subject))
    for item in subject:
        walk_args(item)
    return list(seen)


def subject_heads(subject):
    seen = {}

    def walk(t):
        if isinstance(t, Compound):
            seen.setdefault(t.head, None)
            for child in t.args:
                walk(child)

    for item in subject:
        walk(item)
    return list(seen)


def subject_contexts(subject):
    seen = {}
    for t in subject_terms(subject):
        for ctx, _ in holed_versions(t):
            seen.setdefault(ctx, None)
    return list(seen)


@functools.lru_cache(maxsize=4096)
def subject_pools(subject):
    """The candidate values of each variable kind over a ground hedge, built
    once per subject: a corpus pairs every pattern with every subject."""
    return {
        IndVar: tuple(subject_terms(subject)),
        SeqVar: tuple(subject_hedges(subject)),
        FunVar: tuple(subject_heads(subject)),
        CtxVar: tuple(subject_contexts(subject)),
    }


# -- substitutions as plain dicts ---------------------------------------------

def plain(sigma):
    """A matcher (a ``Subst`` or a dict) as a hashable set of its bindings."""
    return frozenset(dict(sigma.items()).items())


def pattern_vars(pattern):
    """Distinct variables of a pattern hedge, in order of first occurrence."""
    seen = {}

    def walk(x):
        if isinstance(x, (IndVar, SeqVar)):
            seen.setdefault(x, None)
        elif isinstance(x, CtxApply):
            seen.setdefault(x.var, None)
            walk(x.arg)
        elif isinstance(x, Compound):
            if isinstance(x.head, FunVar):
                seen.setdefault(x.head, None)
            for item in x.args:
                walk(item)

    for item in pattern:
        walk(item)
    return tuple(seen)


def plug(ctx, t):
    """Put ``t`` in place of the hole of a one-hole context."""
    (path,) = [p for p in term_paths(ctx) if subterm_at(ctx, p) == HOLE]
    return replace_at(ctx, path, t)


def apply_items(sigma, pattern):
    """Instance of a pattern hedge under a dict binding all its variables."""
    out = []
    for item in pattern:
        if isinstance(item, SeqVar):
            out.extend(sigma[item])
        else:
            out.append(apply_term(sigma, item))
    return tuple(out)


def apply_term(sigma, t):
    if isinstance(t, IndVar):
        return sigma[t]
    if isinstance(t, CtxApply):
        return plug(sigma[t.var], apply_term(sigma, t.arg))
    if isinstance(t, Compound):
        head = sigma[t.head] if isinstance(t.head, FunVar) else t.head
        return Compound(head, apply_items(sigma, t.args))
    return t


def brute_force_matchers(pattern, subject):
    """All matchers over subject material, found by enumerate-and-filter,
    as a set of ``plain`` matchers. Variables take every value of their
    kind's pool in order of first occurrence, which is the order the walk
    meets them, so a walk that fails before the first unbound variable
    fails for every value the rest could take."""
    pattern = tuple(pattern)
    subject = tuple(subject)
    variables = pattern_vars(pattern)
    pools = subject_pools(subject)
    found = set()

    def extend(sigma, bound):
        matched = items_match(sigma, pattern, subject)
        if matched is None:  # the walk met variables[bound], still unbound
            var = variables[bound]
            for value in pools[type(var)]:
                extend({**sigma, var: value}, bound + 1)
        elif matched:
            found.add(plain(sigma))

    extend({}, 0)
    return found


def items_match(sigma, pattern, subject):
    """Whether ``apply_items(sigma, pattern) == subject``, found by walking
    the pattern against the subject: it stops at the first mismatch and
    builds no instance. None if it meets a variable ``sigma`` leaves
    unbound before any mismatch."""
    at, end = 0, len(subject)
    for item in pattern:
        if isinstance(item, SeqVar):
            value = sigma.get(item)
            if value is None:
                return None
            if subject[at:at + len(value)] != value:
                return False
            at += len(value)
        elif at < end:
            matched = term_matches(sigma, item, subject[at])
            if not matched:
                return matched
            at += 1
        else:
            return False
    return at == end


def term_matches(sigma, p, t):
    """Whether ``apply_term(sigma, p) == t``, by the same walk; None as above."""
    if isinstance(p, Compound):
        head = sigma.get(p.head) if isinstance(p.head, FunVar) else p.head
        if head is None:
            return None
        return (isinstance(t, Compound) and t.head == head
                and items_match(sigma, p.args, t.args))
    if isinstance(p, IndVar):
        value = sigma.get(p)
        return None if value is None else value == t
    if isinstance(p, CtxApply):
        # follow the context's hole down t; off that path the two must agree
        ctx = sigma.get(p.var)
        if ctx is None:
            return None
        while ctx is not HOLE:  # every context here is built around HOLE itself
            if not (isinstance(t, Compound) and t.head == ctx.head
                    and len(t.args) == len(ctx.args)):
                return False
            (i,) = [k for k, arg in enumerate(ctx.args) if has_hole(arg)]
            if ctx.args[:i] != t.args[:i] or ctx.args[i + 1:] != t.args[i + 1:]:
                return False
            ctx, t = ctx.args[i], t.args[i]
        return term_matches(sigma, p.arg, t)
    return p == t


def has_hole(t):
    return t is HOLE or isinstance(t, Compound) and any(map(has_hole, t.args))


# -- the documented matcher order, without pruning ----------------------------

def ordered_matchers(pattern, subject):
    """All matchers as dicts, in the order the ``rholog.matching`` docstring
    states. A sequence variable tries every width: shortest first while no
    sequence variable is bound yet on the path, longest first after one is.
    A context variable tries hole positions in preorder (``term_paths``).
    Nothing is pruned early."""

    def items(ps, ts, sigma):
        if not ps:
            if not ts:
                yield sigma
            return
        p, rest = ps[0], ps[1:]
        if not isinstance(p, SeqVar):
            if ts:
                for sigma2 in one(p, ts[0], sigma):
                    yield from items(rest, ts[1:], sigma2)
        elif p in sigma:
            n = len(sigma[p])
            if ts[:n] == sigma[p]:
                yield from items(rest, ts[n:], sigma)
        else:
            widths = list(range(len(ts) + 1))
            if any(isinstance(v, SeqVar) for v in sigma):
                widths.reverse()
            for w in widths:
                yield from items(rest, ts[w:], {**sigma, p: ts[:w]})

    def bind(var, value, sigma):
        if var not in sigma:
            return [{**sigma, var: value}]
        return [sigma] if sigma[var] == value else []

    def one(p, t, sigma):
        if isinstance(p, IndVar):
            yield from bind(p, t, sigma)
        elif isinstance(p, CtxApply):
            for ctx, plugged in holed_versions(t):
                for sigma2 in bind(p.var, ctx, sigma):
                    yield from one(p.arg, plugged, sigma2)
        elif isinstance(p, Compound) and isinstance(t, Compound):
            if isinstance(p.head, FunVar):
                heads = bind(p.head, t.head, sigma)
            else:
                heads = [sigma] if p.head == t.head else []
            for sigma2 in heads:
                yield from items(p.args, t.args, sigma2)

    return list(items(tuple(pattern), tuple(subject), {}))


# -- independent degree computation -------------------------------------------

def min_fold_proximity(rel, h1, h2):
    """Minimum symbol-pair degree between two ground hedges, 0 on any
    structural mismatch. Folds pairs explicitly, bottom up."""
    if len(h1) != len(h2):
        return ZERO
    best = ONE
    for a, b in zip(h1, h2):
        if not (isinstance(a, Compound) and isinstance(b, Compound)):
            return ZERO
        d = rel.degree(a.head, b.head)
        if d == 0:
            return ZERO
        inner = min_fold_proximity(rel, a.args, b.args)
        if inner == 0:
            return ZERO
        best = min(best, d, inner)
    return best
