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

The engine reaches the matcher by two private doors that skip the input check:
its redexes are ground by a load-time analysis, goals hole-free at the query
and clauses at load, and matcher values plug every hole they bring. An ``id``
or ``prox`` step passes ``scored_match_hedge`` ``_checked=True``; a clause try
passes ``match_hedge`` its ``_test``, its guard or else its hit report, which runs
on a search path's dict inside the match and must not keep it. Both get plain
dicts, each a new one that the engine may write into. They stay keywords of the
public functions because the benchmark's tracer counts calls by these names.

A clause head that may have several matchers (the engine's load-time flag
``single`` is false) runs this order specialised to it (``_head_source``): a fixed
nest of loops, compiled on its first try, once per shape, and kept in the clause's
index entry. Heads with a context variable take the loop below, as do public and
scored matching and heads with at most one matcher, which a rule base tries once each.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from decimal import Decimal

from .errors import InvalidValueError
from .terms import (
    HOLE,
    Compound,
    CtxApply,
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
ITEMS = (Compound, IndVar, SeqVar, CtxApply, type(HOLE))  # the classes of a hedge's items

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
    if bad := [x for x in pattern + subject if not isinstance(x, ITEMS)]:
        raise TypeError(f"not a term or a sequence variable: {bad[0]!r}")
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
    pattern, subject = tuple(pattern), tuple(subject)
    found = _match_items(pattern, 0, subject, 0, {}, ONE, False, sym_degree, floor, None, -1, None)
    if _checked:
        return found
    _check_inputs(pattern, subject)
    return ((Subst(m), degree) for m, degree in found)


def match_hedge(pattern, subject, *, _test=None, _cell=None) -> Iterator[Subst]:
    """All matchers of a pattern sequence against a ground sequence, lazily; the
    inputs are checked on the call. A clause try passes its ``_test``, ``(at, test)``
    of ``_match_items``, and its ``_cell``, a list keeping its head's compiled code
    (None: the head has at most one matcher), and gets ``(dict, test result)`` pairs."""
    if _test is None:
        return (subst for subst, _ in scored_match_hedge(pattern, subject))
    if _cell is not None:
        if not _cell:  # the first try: the head's code, or None (``_head_source``)
            _cell.append((source := _head_source(pattern, _test[0])) and _maker(source)(pattern))
        if _cell[0]:
            return _cell[0](subject, _test[1])
    return _match_items(pattern, 0, subject, 0, {}, ONE, False, None, ONE, None, *_test)


def match_term(pattern, subject) -> Iterator[Subst]:
    """All matchers of a term pattern against a ground term."""
    yield from match_hedge((pattern,), (subject,))


def _match_items(items, i, subject, j, subst, degree, greedy, sym_degree, floor, more, at, test):
    """Match ``items[i:]`` with ``subject[j:]``, then each level left in the
    linked list ``more = (items, i, subject, j, more)``; yield ``(matcher,
    degree)``. ``subst`` is a plain dict: a binding makes a new one for its
    search path, so each yielded matcher is a new dict that no other shares.
    ``greedy``: a sequence variable is bound on this path. An exact match may
    ``test`` ``subst`` once a path has matched the top-level ``items[:at]`` (and,
    if that is all of them, the subject); it must not keep the dict. None ends
    the path, anything else stands in for the degree; -1 is no position."""
    while True:
        if i == len(items):
            if j != len(subject):
                return
            if more is None:
                if i == at and (degree := test(subst)) is None:
                    return
                yield subst, degree
                return
            items, i, subject, j, more = more
            continue
        if i == at and more is None and (degree := test(subst)) is None:
            return
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
                        degree, True, sym_degree, floor, more, at, test,
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
                    floor, more, at, test,
                )
            return


@functools.lru_cache(maxsize=256)
def _maker(source):
    """The ``make`` of a head shape's source, compiled once while it is in use."""
    exec(source, namespace := {"ONE": ONE})
    return namespace["make"]


def _head_source(head, at):
    """The source of ``make(head)``: it reads the head's slots and returns ``m(subject,
    test)``, which tests and yields as ``_match_items(head, 0, subject, 0, {}, ONE, False,
    None, ONE, None, at, test)`` does; None for a context variable, or past 16 loops
    or 32 levels, which keeps the source linear in the head."""
    make, body, value, loops, fail = [], [], {}, 0, "return"  # value: var -> key, value names
    items, path, s, n, i, base, off, more = head, "head", "subject", "n", 0, "", 0, None

    def put(line):
        body.append("    " * (loops + 2) + line)

    def read(slot):  # a name for the part of the head at ``slot``
        make.append(f"    K{len(make)} = {slot}")
        return f"K{len(make) - 1}"

    def bind(var, slot, expr):  # the variable at ``slot``, whose value here is ``expr``
        if var in value:
            return put(f"if {expr} != {value[var][1]}: {fail}")
        value[var] = read(slot), f"x{len(value)}"
        put(f"{value[var][1]} = {expr}")

    def matcher():
        return "{" + ", ".join(f"{key}: {x}" for key, x in value.values()) + "}"

    put("n = len(subject)")
    while True:
        pos = f"{base} + {off}" if base and off else base or str(off)
        if i == len(items):
            put(f"if {pos} != {n}: {fail}")
            if more is not None:
                items, path, s, n, i, base, off, more = more
                continue
        if i == at and more is None:
            put(f"if (got := test({matcher()})) is None: {fail}")
        if i == len(items):
            break
        x, slot, i = items[i], f"{path}[{i}]", i + 1
        if isinstance(x, SeqVar):  # as _match_items: leave what the rest of the level needs
            base, off = f"j{len(body)}", 0
            seqs = [y for y in items[i:] if isinstance(y, SeqVar)]
            hi = n + "".join(f" - len({value[y][1]})" for y in seqs if y in value)
            hi += f" - {len(items) - i - len(seqs)}"
            if x in value:
                put(f"{base} = {pos} + len({value[x][1]})")
            elif any(y not in value for y in seqs):  # the first sequence variable ascends
                put(f"for {base} in " + (f"range({hi}, {pos} - 1, -1):" if any(
                    isinstance(v, SeqVar) for v in value) else f"range({pos}, {hi} + 1):"))
                loops, fail = loops + 1, "continue"
            else:
                put(f"if ({base} := {hi}) < {pos}: {fail}")
            bind(x, slot, f"{s}[{pos}:{base}]")
            continue
        if isinstance(x, CtxApply) or slot.count(".args") == 32:
            return None
        put(f"if {pos} == {n}: {fail}")
        t, off = f"{s}[{pos}]", off + 1
        if isinstance(x, IndVar):
            bind(x, slot, t)
        elif x._ground:
            put(f"if {t} != {read(slot)}: {fail}")
        else:  # a compound: its head, then its arguments as a level of their own
            k = len(body)  # a new name, as j{len(body)} is: a line follows each
            if isinstance(x.head, Sym):
                put(f"if (t{k} := {t}).head is not {read(slot + '.head')}: {fail}")
            else:
                bind(x.head, f"{slot}.head", f"(t{k} := {t}).head")
            more = (items, path, s, n, i, base, off, more)
            items, path, s, n, i, base, off = x.args, f"{slot}.args", f"s{k}", f"n{k}", 0, "", 0
            put(f"{s}, {n} = t{k}.args, len(t{k}.args)")
    put(f"yield {matcher()}, {'got' if 0 <= at <= len(head) else 'ONE'}")
    lines = ["def make(head):", *make, "    def m(subject, test):", *body, "    return m"]
    return "\n".join(lines) if loops <= 16 else None  # Python nests at most 20 blocks
