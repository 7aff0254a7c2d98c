"""The engine's builtin strategies against ``tests.strategy_oracle``.

Random bodiless rule systems, random strategy terms over them and random
ground inputs. Exact queries bind the whole output to ``s_Out`` and must
give the reference's outputs in the reference's order, which also pins
the single output of ``first_one``; with a two-way split as the rhs they
give every split of every output, but ``first_one`` only its first one.
Threshold queries ask for a ground rhs and must give one answer per
reference output whose proximity to it (``tests.oracles.min_fold_proximity``)
reaches the threshold, with that degree, in the same order.
"""

from decimal import Decimal

import pytest

from rholog import (
    Compound,
    NonTermResultError,
    RhoAtom,
    RhoClause,
    SeqVar,
    SourceProgram,
    Sym,
    load_program,
    solve,
)
from rholog.program import Query

from tests.genrand import make_rng, perturb_hedge, random_relation
from tests.oracles import min_fold_proximity, ordered_matchers
from tests.strategy_oracle import (
    NotATerm,
    drain,
    outputs,
    random_input,
    random_rules,
    random_strategy,
)

OUT = SeqVar("s_Out")
SPLIT = (SeqVar("s_L"), SeqVar("s_R"))
THRESHOLDS = tuple(Decimal(x) for x in ("0.2", "0.5", "0.8", "1"))


def load(rules):
    return load_program(SourceProgram(tuple(
        RhoClause(Compound(Sym(name)), lhs, rhs)
        for name, clauses in rules.items()
        for lhs, rhs in clauses
    )))


def case(seed):
    rng = make_rng(seed)
    rules = random_rules(rng)
    return rng, rules, random_strategy(rng, 3), random_input(rng, rules)


@pytest.mark.parametrize("block", range(10))
def test_exact_outputs_in_reference_order(block):
    for seed in range(block * 100, block * 100 + 100):
        _, rules, strategy, hedge = case(seed)
        expected, expected_error = drain(outputs(rules, strategy, hedge), NotATerm)
        query = Query((RhoAtom(strategy, hedge, (OUT,)),))
        got, error = drain(solve(load(rules), query), NonTermResultError)
        got = [answer.bindings.get(OUT) for answer in got]
        assert (got, error) == (expected, expected_error), (seed, strategy, hedge)


@pytest.mark.parametrize("block", range(3))
def test_rhs_matches_in_reference_order(block):
    # every split of every output, except that first_one keeps only the
    # first split of its first output
    for seed in range(20_000 + block * 100, 20_000 + block * 100 + 100):
        _, rules, strategy, hedge = case(seed)
        expected, expected_error = drain(outputs(rules, strategy, hedge), NotATerm)
        splits = [
            (sigma[SPLIT[0]], sigma[SPLIT[1]])
            for out in expected
            for sigma in ordered_matchers(SPLIT, out)
        ]
        if strategy.head.name == "first_one":
            splits = splits[:1]
        query = Query((RhoAtom(strategy, hedge, SPLIT),))
        got, error = drain(solve(load(rules), query), NonTermResultError)
        got = [(a.bindings.get(SPLIT[0]), a.bindings.get(SPLIT[1])) for a in got]
        assert (got, error) == (splits, expected_error), (seed, strategy, hedge)


def test_exact_corpus_reaches_both_outcomes_of_maps_check():
    failing = sum(
        drain(outputs(rules, strategy, hedge), NotATerm)[1]
        for _, rules, strategy, hedge in map(case, range(1000))
    )
    assert 0 < failing < 100


@pytest.mark.parametrize("block", range(6))
def test_threshold_degrees_are_min_fold_proximities(block):
    below_one = 0
    for seed in range(10_000 + block * 100, 10_000 + block * 100 + 100):
        rng, rules, strategy, hedge = case(seed)
        expected, expected_error = drain(outputs(rules, strategy, hedge), NotATerm)
        rel = random_relation(rng)
        lam = rng.choice(THRESHOLDS)
        if expected and rng.random() < 0.8:
            rhs = perturb_hedge(rng, rel, rng.choice(expected))
        else:
            rhs = random_input(rng, rules)
        if strategy == Compound(Sym("id")):
            # a bare id matches the rhs exactly; every other output reaches
            # it through the prox(lam) continuation
            degrees = [Decimal(1) for out in expected if out == rhs]
        else:
            degrees = [min_fold_proximity(rel, rhs, out) for out in expected]
            degrees = [d for d in degrees if d > 0 and d >= lam]
        query = Query((RhoAtom(strategy, hedge, rhs),), threshold=lam, degree_var="Degree")
        got, error = drain(solve(load(rules), query, rel), NonTermResultError)
        assert error == expected_error, (seed, strategy, hedge)
        assert [str(a.degree) for a in got] == [str(d) for d in degrees], (
            seed, strategy, hedge, rhs, lam)
        below_one += any(d < 1 for d in degrees)
    assert below_one
