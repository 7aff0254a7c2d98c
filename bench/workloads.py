"""Seeded workload generators and engine-independent reference checkers.

Each workload turns a seed into the text the interpreter receives (query
strings, and for some workloads a generated program or proximity file)
and, for every query, the answer block a correct interpreter prints in
batch mode. The references never import ``rholog``: sorting uses
``sorted``, rewriting and proximity merging work on this module's own
tuple terms, and rendering is done by ``render`` below.

Query order follows a fixed cycle of sizes, so a time-bounded run
attempts nearly the same mix whatever the seed; the seed picks contents.
The cycles put the median and the 90th percentile inside a group of
similar queries rather than on the edge between two groups.

BENCHMARK.json lists rulebase and proximity, with the reason for each;
sort and rewrite run by name or with ``--workload all``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from decimal import Decimal

POOL = 1000  # queries generated per run; a run stops early at its deadline


@dataclass
class Query:
    text: str
    expected: object  # what ``block`` needs to render the reference answers


@dataclass
class Workload:
    name: str
    sizes: dict
    argv: list  # --load/--prox arguments, relative to the checkout root
    files: dict = field(default_factory=dict)  # generated file name -> text
    queries: list = field(default_factory=list)
    block: object = None  # Query.expected -> list of expected stdout lines
    trace_queries: int = 0  # fixed query count for traced runs


# -- terms of the reference side: (head, args) tuples; constants have () ----


def render(term) -> str:
    head, args = term
    if not args:
        return head
    return head + "(" + ",".join(render(a) for a in args) + ")"


def render_seq(items) -> str:
    if not items:
        return "eps"
    if len(items) == 1:
        return render(items[0])
    return "(" + ",".join(render(t) for t in items) + ")"


def const(name):
    return (name, ())


def single_answer_block(var, items, degree=None):
    lines = [] if degree is None else [f"Degree = {degree},"]
    lines.append(f"Result = [{var} ---> {render_seq(items)}] ;")
    return lines + ["false."]


# -- sort: bubble_sort(=<) from programs/sorting.rho ------------------------


def make_sort(rng: random.Random) -> Workload:
    """The matcher does the work (Subst.bind, hole_count), with no contexts
    and no proximity; the reversed lists make nf chains of 231 steps."""
    # None marks a reversed list: 2 in 10, so the 90th percentile falls
    # inside that group and the median inside the random lists.
    lengths = [12, 15, None, 13, 16, 14, 17, None, 15, 14]
    w = Workload(
        "sort",
        {"list_length": "12-17 random; 2 in 10 queries a reversed list of 22",
         "values": "integers 0-99"},
        ["--load", "programs/sorting.rho"],
        trace_queries=16,
    )
    for i in range(POOL):
        length = lengths[i % len(lengths)]
        if length is None:
            xs = sorted(rng.sample(range(100), 22), reverse=True)
        else:
            xs = [rng.randrange(100) for _ in range(length)]
        text = f"?(bubble_sort(=<) :: ({','.join(map(str, xs))}) ==> s_X, Result)."
        w.queries.append(Query(text, sorted(xs)))
    w.block = lambda xs: single_answer_block("s_X", [const(str(x)) for x in xs])
    return w


# -- rewrite: rewrite_step(st) from programs/rewriting.rho, all answers -----


def _spine_term(rng: random.Random, depth: int, a_leaves: int):
    """A term whose spine is ``depth`` levels deep, with ``a_leaves`` leaves
    ``a`` placed at random among all leaves and the others from b, c, d."""
    leaves = []

    def build(d):
        if d == 0:
            leaf = ["?"]
            leaves.append(leaf)
            return leaf
        arity = rng.randint(1, 3)
        spine = rng.randrange(arity)
        args = []
        for k in range(arity):
            if k == spine:
                args.append(build(d - 1))
            elif rng.random() < 0.3:
                inner = [["?"] for _ in range(rng.randint(1, 2))]
                leaves.extend(inner)
                args.append([rng.choice("gh"), inner])
            else:
                leaf = ["?"]
                leaves.append(leaf)
                args.append(leaf)
        return [rng.choice("fgh"), args]

    skeleton = build(depth)
    chosen = set(rng.sample(range(len(leaves)), min(a_leaves, len(leaves))))
    for n, leaf in enumerate(leaves):
        leaf[0] = "a" if n in chosen else rng.choice("bcd")

    def freeze(node):
        if len(node) == 1:
            return const(node[0])
        return (node[0], tuple(freeze(x) for x in node[1]))

    return freeze(skeleton)


def a_rewrites(term):
    """Every term obtained by replacing one leaf ``a`` by ``b``, in preorder
    of the replaced position (leftmost-outermost first)."""
    head, args = term
    if term == const("a"):
        return [const("b")]
    out = []
    for i, arg in enumerate(args):
        for new in a_rewrites(arg):
            out.append((head, args[:i] + (new,) + args[i + 1:]))
    return out


def make_rewrite(rng: random.Random) -> Workload:
    """Context variables do the work (enumerate_contexts, apply_context,
    hole_count); tens of large answers load the printer, so first-answer
    latency differs from query time here and almost nowhere else."""
    depths = list(range(25, 51))
    random.Random(0).shuffle(depths)  # one fixed order, the same for every seed
    w = Workload(
        "rewrite",
        {"spine_depth": "25-50", "a_leaves": "depth/3",
         "symbols": "f,g,h (arity 1-3), leaves a,b,c,d"},
        ["--load", "programs/rewriting.rho"],
        trace_queries=24,
    )
    for i in range(POOL):
        depth = depths[i % len(depths)]
        term = _spine_term(rng, depth, depth // 3)
        text = f"?(rewrite_step(st) :: {render(term)} ==> s_Out, Result)."
        w.queries.append(Query(text, term))

    def block(term):
        lines = [f"Result = [s_Out ---> {render(t)}] ;" for t in a_rewrites(term)]
        return lines + ["false."]

    w.block = block
    return w


# -- rulebase: a generated program of many one-symbol clauses ---------------

RULES = 3000
# 3 in 10 queries have one item, 4 two and 3 three: the median falls in
# the middle of the two-item group and the 90th percentile among three.
ITEMS = [1, 2, 3, 2, 1, 2, 3, 2, 1, 3]


def make_rulebase(rng: random.Random) -> Workload:
    program = "".join(f"st :: c{k}(s_X) ==> d{k}(s_X).\n" for k in range(RULES))
    w = Workload(
        "rulebase",
        {"clauses": RULES, "items_per_query": "1-3, cycling (3x1, 4x2, 3x3)",
         "item_args": "0-2 constants"},
        ["--load", "rules.rho"],
        files={"rules.rho": program},
        trace_queries=12,
    )
    for i in range(POOL):
        items = []
        for _ in range(ITEMS[i % len(ITEMS)]):
            k = rng.randrange(RULES)
            args = tuple(const(rng.choice("xyz")) for _ in range(rng.randint(0, 2)))
            items.append((k, args))
        lhs = render_seq([(f"c{k}", args) for k, args in items])
        text = f"?(map(st) :: {lhs} ==> s_R, Result)."
        w.queries.append(Query(text, [(f"d{k}", args) for k, args in items]))
    w.block = lambda items: single_answer_block("s_R", items)
    return w


# -- proximity: merge_all_proximals from programs/proximity.rho -------------

SYMBOLS = [f"q{n}" for n in range(30)]
DEGREES = ["0.3", "0.45", "0.5", "0.6", "0.75", "0.8", "0.9"]
THRESHOLDS = ["0.4", "0.5", "0.6", "0.7"]
RELATED_PAIRS = 42


def merge_greedy(items, lam, degree_of):
    """Repeatedly drop the first item that has a later item within ``lam``;
    the step's degree comes from the last such later item. Returns the
    normal form and the minimum step degree (1 with no steps)."""
    items = list(items)
    overall = Decimal(1)
    while True:
        for i in range(len(items)):
            js = [j for j in range(i + 1, len(items))
                  if degree_of(items[i], items[j]) >= lam]
            if js:
                overall = min(overall, degree_of(items[i], items[js[-1]]))
                del items[i]
                break
        else:
            return items, overall


def make_proximity(rng: random.Random) -> Workload:
    # A fixed number of related pairs with a fixed multiset of degrees, so
    # that seeds change which symbols are close but not how many.
    all_pairs = [(SYMBOLS[a], SYMBOLS[b])
                 for a in range(len(SYMBOLS)) for b in range(a + 1, len(SYMBOLS))]
    chosen = rng.sample(all_pairs, RELATED_PAIRS)
    pairs = {pair: DEGREES[n % len(DEGREES)] for n, pair in enumerate(chosen)}
    decls = "".join(f"prox({a}, {b}, {d}).\n" for (a, b), d in pairs.items())

    def degree_of(x, y):
        if x == y:
            return Decimal(1)
        return Decimal(pairs.get((x, y)) or pairs.get((y, x)) or 0)

    lengths = list(range(24, 37))
    random.Random(0).shuffle(lengths)
    w = Workload(
        "proximity",
        {"symbols": len(SYMBOLS), "related_pairs": len(pairs),
         "sequence_length": "24-36, cycling", "thresholds": ",".join(THRESHOLDS)},
        ["--load", "programs/proximity.rho", "--prox", "relation.prox"],
        files={"relation.prox": decls},
        trace_queries=20,
    )
    for i in range(POOL):
        seq = [rng.choice(SYMBOLS) for _ in range(lengths[i % len(lengths)])]
        lam = THRESHOLDS[i % len(THRESHOLDS)]
        text = (f"?(merge_all_proximals :: ({','.join(seq)}) ==> s_Ans, "
                f"{lam}, Degree, Result).")
        w.queries.append(Query(text, (seq, Decimal(lam))))

    def block(expected):
        seq, lam = expected
        rest, degree = merge_greedy(seq, lam, degree_of)
        return single_answer_block("s_Ans", [const(x) for x in rest], degree)

    w.block = block
    return w


MAKERS = {
    "sort": make_sort,
    "rewrite": make_rewrite,
    "rulebase": make_rulebase,
    "proximity": make_proximity,
}


def make(name: str, seed: int) -> Workload:
    return MAKERS[name](random.Random(f"{name}:{seed}"))
