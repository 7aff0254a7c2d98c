"""Seeded random generators for the property tests."""

import random
from decimal import Decimal

from rholog import (
    HOLE,
    Compound,
    CtxApply,
    CtxVar,
    FunVar,
    IndVar,
    NotGoal,
    PredAtom,
    RhoAtom,
    RhoClause,
    SeqVar,
    Subst,
    Sym,
    atom,
    free_vars,
    mk,
)
from rholog.proximity import ProximityRelation

SYMS = ("a", "b", "c", "f", "g")


def make_rng(seed):
    return random.Random(seed)


def ground_term(rng, depth=2):
    if depth <= 0 or rng.random() < 0.45:
        return atom(rng.choice(SYMS))
    width = rng.randrange(0, 3)
    return mk(rng.choice(SYMS), *(ground_term(rng, depth - 1) for _ in range(width)))


def ground_hedge(rng, max_len=4, depth=2):
    return tuple(ground_term(rng, depth) for _ in range(rng.randrange(0, max_len + 1)))


def ground_context(rng, depth=2):
    """A ground one-hole context, built top down."""
    if depth <= 0 or rng.random() < 0.35:
        return HOLE
    width = rng.randrange(0, 3)
    where = rng.randrange(0, width + 1)
    args = []
    for i in range(width + 1):
        if i == where:
            args.append(ground_context(rng, depth - 1))
        else:
            args.append(ground_term(rng, depth - 1))
    return mk(rng.choice(SYMS), *args)


class _PatternBuilder:
    """Random pattern hedges with capped counts of each variable kind."""

    def __init__(self, rng, n_seq=2, n_ind=2, n_fun=1, n_ctx=1):
        self.rng = rng
        self.caps = {"s": n_seq, "i": n_ind, "f": n_fun, "c": n_ctx}
        self.used = {"s": [], "i": [], "f": [], "c": []}

    def _var(self, kind, ctor):
        used = self.used[kind]
        # reuse sometimes, so non-linear patterns show up
        if used and (len(used) >= self.caps[kind] or self.rng.random() < 0.3):
            return ctor(self.rng.choice(used))
        name = f"{kind}_P{len(used) + 1}"
        used.append(name)
        return ctor(name)

    def item(self, depth):
        roll = self.rng.random()
        if roll < 0.22 and (self.used["s"] or self.caps["s"]):
            return self._var("s", SeqVar)
        return self.term(depth)

    def term(self, depth):
        roll = self.rng.random()
        if roll < 0.2 and (self.used["i"] or self.caps["i"]):
            return self._var("i", IndVar)
        if roll < 0.28 and (self.used["c"] or self.caps["c"]) and depth > 0:
            return CtxApply(self._var("c", CtxVar), self.term(depth - 1))
        if depth <= 0 or roll < 0.55:
            return atom(self.rng.choice(SYMS))
        width = self.rng.randrange(0, 3)
        args = tuple(self.item(depth - 1) for _ in range(width))
        if roll < 0.68 and (self.used["f"] or self.caps["f"]):
            return Compound(self._var("f", FunVar), args)
        return Compound(Sym(self.rng.choice(SYMS)), args)

    def hedge(self, max_items=4, depth=2):
        return tuple(self.item(depth) for _ in range(self.rng.randrange(0, max_items + 1)))


def pattern_hedge(rng, max_items=4, depth=2, **caps):
    return _PatternBuilder(rng, **caps).hedge(max_items, depth)


def rule_sides(rng, max_items=3, depth=2, tries=20, accept=lambda lhs, rhs: True):
    """A random ``(lhs, rhs)`` pair of pattern hedges whose rhs uses only
    variables of the lhs, so every instance of a matched rule is ground.
    Draws up to ``tries`` right-hand sides and returns the first that
    ``accept`` allows, or None."""
    builder = _PatternBuilder(rng, n_seq=2, n_ind=2, n_fun=1, n_ctx=1)
    lhs = builder.hedge(max_items, depth)
    builder.caps = dict.fromkeys(builder.caps, 0)  # reuse lhs variables only
    for _ in range(tries):
        rhs = builder.hedge(max_items, depth)
        if accept(lhs, rhs):
            return lhs, rhs
    return None


def rho_clause_with_body(rng, max_literals=4):
    """A random ``st :: lhs ==> rhs :- body`` with body literals of every
    kind (rho atoms either way round, predicate calls, negations), drawing
    on one variable pool: literals read head variables, rhs variables of
    earlier literals, and locals that only a later literal, or none, binds."""
    builder = _PatternBuilder(rng, n_seq=3, n_ind=3, n_fun=1, n_ctx=1)
    lhs = builder.hedge(3, 1)
    body = []
    for _ in range(rng.randrange(1, max_literals + 1)):
        if rng.random() < 0.6:
            strategy = builder.term(1)
            lit = RhoAtom(strategy, builder.hedge(2, 1), builder.hedge(2, 1), rng.random() < 0.8)
        else:
            head = builder._var("f", FunVar) if rng.random() < 0.3 else Sym("p")
            lit = PredAtom(head, builder.hedge(2, 1))
        body.append(NotGoal(lit) if rng.random() < 0.2 else lit)
    return RhoClause(atom("st"), lhs, builder.hedge(3, 1), tuple(body))


def ground_subst_for(rng, pattern):
    """A random ground, kind-correct binding for every pattern variable."""
    mapping = {}
    for v in free_vars(pattern):
        if isinstance(v, IndVar):
            mapping[v] = ground_term(rng, 2)
        elif isinstance(v, SeqVar):
            mapping[v] = ground_hedge(rng, 2, 1)
        elif isinstance(v, FunVar):
            mapping[v] = Sym(rng.choice(SYMS))
        elif isinstance(v, CtxVar):
            mapping[v] = ground_context(rng, 2)
    return Subst(mapping)


_DEGREES = tuple(Decimal(f"0.{k}") for k in range(1, 10))


def random_relation(rng, max_pairs=4):
    """A random relation over SYMS; distinct pairs never get degree 1."""
    rel = ProximityRelation()
    for _ in range(rng.randrange(0, max_pairs + 1)):
        a, b = rng.sample(SYMS, 2)
        rel.add(a, b, rng.choice(_DEGREES))
    return rel


def perturb_hedge(rng, rel, hedge, chance=0.3):
    """Rename some symbol occurrences to related ones, so that proximity
    matches against the original hedge come out with degrees below 1."""
    related = {}
    for (a, b), _ in rel.pairs().items():
        related.setdefault(a, []).append(b)
        related.setdefault(b, []).append(a)

    def term(t):
        head = t.head
        options = related.get(head.name)
        if options and rng.random() < chance:
            head = Sym(rng.choice(options))
        return Compound(head, tuple(term(child) for child in t.args))

    return tuple(term(item) for item in hedge)
