"""Reference semantics of the builtin strategies, over bodiless rules.

A rule system maps strategy names to ``(lhs, rhs)`` pattern pairs in
source order. The outputs of a named strategy on a ground hedge are the
instances of its right-hand sides, clause by clause, one per matcher of
the left-hand side in the order ``tests.oracles.ordered_matchers``
states; instances are built by ``tests.oracles.apply_items``. The
combinators follow their textbook definitions, written as generators so
that ``first_one`` and ``first_all`` stop where the definition stops:

* ``id`` outputs its input;
* ``compose(s1,...,sk)`` feeds every output of one stage to the next;
* ``choice(s1,...,sk)`` lists the outputs of each strategy in turn;
* ``first_one``/``first_all`` take the first output / all outputs of the
  first strategy that has any;
* ``map(s)`` takes the cartesian product of ``s`` on each item, first
  item outermost, and raises ``NotATerm`` at the first output that is not
  a single term;
* ``nf(s)`` is a breadth-first closure: every derivation is extended a
  level at a time until ``s`` has no output. Its normal forms are listed
  by derivation path (the index of the output taken at each level), which
  is depth-first order, one entry per derivation.

Nothing here imports ``rholog.engine``; the rule generator keeps every
rule size-decreasing, so that ``nf`` closures are finite.
"""

from collections import Counter

from rholog import Compound, CtxApply, IndVar, SeqVar, Sym, atom

from tests.genrand import ground_hedge, ground_subst_for, rule_sides
from tests.oracles import apply_items, ordered_matchers

RULE_NAMES = ("r1", "r2")


class NotATerm(Exception):
    """``map`` met an output that is not a single term."""


# -- size-decreasing rules ---------------------------------------------------

def _measure(pattern):
    """Symbols (function variables included, since each stands for one) and
    the occurrence counts of the other variables of a pattern hedge."""
    symbols, occurrences = 0, Counter()

    def walk(x):
        nonlocal symbols
        if isinstance(x, (IndVar, SeqVar)):
            occurrences[x] += 1
        elif isinstance(x, CtxApply):
            occurrences[x.var] += 1
            walk(x.arg)
        elif isinstance(x, Compound):
            symbols += 1
            for item in x.args:
                walk(item)

    for item in pattern:
        walk(item)
    return symbols, occurrences


def shrinks(lhs, rhs):
    """Every instance of ``rhs`` has fewer symbols than the same instance of
    ``lhs``: fewer fixed symbols, and no variable occurs more often."""
    lhs_symbols, lhs_occ = _measure(lhs)
    rhs_symbols, rhs_occ = _measure(rhs)
    return rhs_symbols < lhs_symbols and all(
        n <= lhs_occ[v] for v, n in rhs_occ.items()
    )


_LEFT, _RIGHT = SeqVar("s_Left"), SeqVar("s_Right")


def random_rules(rng, names=RULE_NAMES, max_clauses=3):
    """Name -> list of size-decreasing ``(lhs, rhs)`` clauses. Half of them
    rewrite anywhere in a hedge: ``(s_Left, l, s_Right) ==> (s_Left, r, s_Right)``."""
    rules = {}
    for name in names:
        clauses = []
        while len(clauses) < rng.randrange(1, max_clauses + 1):
            sides = rule_sides(rng, accept=shrinks)
            if sides is None:
                continue
            if rng.random() < 0.5:
                sides = tuple((_LEFT,) + side + (_RIGHT,) for side in sides)
            clauses.append(sides)
        rules[name] = clauses
    return rules


def random_input(rng, rules):
    """A ground hedge: usually an instance of a rule's lhs, so rules fire."""
    if rng.random() < 0.2:
        return ground_hedge(rng, 3, 2)
    lhs_pool = [lhs for clauses in rules.values() for lhs, _ in clauses]
    lhs = rng.choice(lhs_pool)
    return apply_items(dict(ground_subst_for(rng, lhs).items()), lhs)


# -- random strategy terms ---------------------------------------------------

def _call(name, *args):
    return Compound(Sym(name), tuple(args))


def random_strategy(rng, depth=2, in_nf=False, with_map=True, with_nf=True):
    """A strategy term over the rules and the combinators. An ``nf``
    argument never contains ``id``, ``nf`` or ``map``: the first two make
    it diverge, and an error inside it would be met in a different order
    by a breadth-first closure. ``map`` and ``nf`` never share a term, for
    the same reason."""
    leaves = RULE_NAMES if in_nf else RULE_NAMES + ("id",)
    if depth <= 0 or rng.random() < 0.3:
        return atom(rng.choice(leaves))
    kinds = ["compose", "choice", "first_one", "first_all"]
    if not in_nf and with_map:
        kinds.append("map")
    if not in_nf and with_nf:
        kinds.append("nf")
    kind = rng.choice(kinds)
    if kind == "map":
        return _call(kind, random_strategy(rng, depth - 1, in_nf, True, False))
    if kind == "nf":
        return _call(kind, random_strategy(rng, depth - 1, True, False, True))
    low = 2 if kind == "compose" else 1
    args = []
    for _ in range(rng.randrange(low, 4)):
        args.append(random_strategy(rng, depth - 1, in_nf, with_map, with_nf))
        if _has(args[-1], "map"):
            with_nf = False
        if _has(args[-1], "nf"):
            with_map = False
    return _call(kind, *args)


def _has(strategy, name):
    return strategy.head.name == name or any(_has(a, name) for a in strategy.args)


# -- the reference -----------------------------------------------------------

def outputs(rules, strategy, hedge):
    """Outputs of a strategy term on a ground hedge, in reference order."""
    name, args = strategy.head.name, strategy.args
    if name == "id":
        yield hedge
    elif name in rules:
        for lhs, rhs in rules[name]:
            for sigma in ordered_matchers(lhs, hedge):
                yield apply_items(sigma, rhs)
    elif name == "compose":
        yield from _compose(rules, args, hedge)
    elif name == "choice":
        for st in args:
            yield from outputs(rules, st, hedge)
    elif name in ("first_one", "first_all"):
        for st in args:
            found = outputs(rules, st, hedge)
            first = next(found, None)
            if first is not None:
                yield first
                if name == "first_all":
                    yield from found
                return
    elif name == "map":
        yield from _map(rules, args[0], hedge)
    elif name == "nf":
        yield from normal_forms(rules, args[0], hedge)
    else:
        raise ValueError(f"not a strategy of the reference: {strategy!r}")


def _compose(rules, strategies, hedge):
    if not strategies:
        yield hedge
        return
    for middle in outputs(rules, strategies[0], hedge):
        yield from _compose(rules, strategies[1:], middle)


def _map(rules, strategy, items):
    if not items:
        yield ()
        return
    for out in outputs(rules, strategy, items[:1]):
        if len(out) != 1:
            raise NotATerm(out)
        for rest in _map(rules, strategy, items[1:]):
            yield out + rest


def normal_forms(rules, strategy, hedge):
    """Breadth-first closure of ``strategy`` from ``hedge``; the normal
    forms, one per derivation, sorted by derivation path."""
    found, level = [], [((), hedge)]
    while level:
        following = []
        for path, current in level:
            outs = list(outputs(rules, strategy, current))
            if not outs:
                found.append((path, current))
            following.extend((path + (i,), out) for i, out in enumerate(outs))
        level = following
    return [h for _, h in sorted(found, key=lambda pair: pair[0])]


def drain(stream, error):
    """The items of a stream up to its end, and whether ``error`` ended it."""
    items = []
    try:
        for item in stream:
            items.append(item)
    except error:
        return items, True
    return items, False
