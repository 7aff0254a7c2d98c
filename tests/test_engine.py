import hashlib
import importlib.util
import itertools
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest

import rholog.engine
import rholog.matching
import rholog.terms
from rholog import (
    Compound,
    CtxVar,
    EngineConfig,
    FunVar,
    IndVar,
    NotGoal,
    PredAtom,
    PredClause,
    ProximityRelation,
    RhoAtom,
    RhoClause,
    SeqVar,
    SourceProgram,
    Subst,
    Sym,
    atom,
    is_ground,
    load_program,
    parse_program,
    parse_proximity_decls,
    parse_query,
    parse_sequence,
    parse_term,
    render_answer,
    render_clause,
    render_sequence,
    solve,
)
from rholog.engine import _facts
from rholog.errors import (
    ArityError,
    DuplicateBuiltinError,
    HoleInGoalError,
    LoadError,
    NonGroundRedexError,
    NonNumericError,
    NonTermResultError,
    RhoError,
    StepLimitError,
    ThresholdRangeError,
    UnknownPredicateError,
    UnknownStrategyError,
)
from rholog.program import Query, apply_to_literal

from tests.genrand import (
    SYMS,
    ground_hedge,
    ground_subst_for,
    make_rng,
    pattern_hedge,
    perturb_hedge,
    random_relation,
    rho_clause_with_body,
    rule_sides,
)
from tests.oracles import apply_items, ordered_matchers
from tests.strategy_oracle import drain, random_input, random_rules, random_strategy
from tests.test_strategy_oracle import OUT, THRESHOLDS, case, load

D = Decimal
T = parse_term
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
H = parse_sequence


def db_of(text=""):
    return load_program(parse_program(text))


def answers(query_text, program="", rel=None, config=None):
    return list(solve(db_of(program), parse_query(query_text), rel, config))


def results(query_text, program="", rel=None, config=None):
    """Answers projected onto (rendered bindings, degree) for easy asserts."""
    return [
        (render_answer(a), a.degree)
        for a in answers(query_text, program, rel, config)
    ]


REV = "rev :: eps ==> eps.\nrev :: (i_X, s_R) ==> (s_Y, i_X) :- rev :: (s_R) ==> (s_Y).\n"

REL = ProximityRelation([("a", "b", D("0.6")), ("b", "c", D("0.8"))])


class TestLoad:
    def test_abbreviation_expands_to_a_clause(self):
        db = db_of(
            "swap :: (s_X, i_I, i_J, s_Y) ==> (s_X, i_J, i_I, s_Y).\n"
            "sort_once := first_one(nf(swap)).\n"
        )
        assert len(db.rho_clauses) == 2
        expanded = db.rho_clauses[1]
        assert expanded.strategy == T("sort_once")
        assert len(expanded.body) == 1
        assert expanded.body[0].strategy == T("first_one(nf(swap))")
        assert expanded.lhs == expanded.body[0].lhs
        assert expanded.rhs == expanded.body[0].rhs

    def test_empty_program(self):
        db = db_of("")
        assert db.rho_clauses == () and db.pred_clauses == ()

    def test_builtin_strategy_shadowing(self):
        with pytest.raises(DuplicateBuiltinError):
            db_of("compose :: a ==> b.")
        with pytest.raises(DuplicateBuiltinError):
            db_of("id := something.")

    def test_builtin_predicate_shadowing(self):
        with pytest.raises(DuplicateBuiltinError):
            db_of("not(a).")

    def test_variable_headed_strategy_is_rejected(self):
        with pytest.raises(LoadError):
            db_of("f_S :: a ==> b.")

    def test_holes_are_rejected_in_clauses(self):
        with pytest.raises(LoadError):
            db_of("st :: hole ==> a.")

    def test_a_clause_of_no_known_kind_is_a_load_error(self):
        with pytest.raises(LoadError, match="^unsupported clause: 42$"):
            load_program(SourceProgram((42,)))

    def test_a_body_item_that_is_no_literal_is_a_type_error(self):
        clause = RhoClause(atom("st"), (), (), (42,))
        with pytest.raises(TypeError, match="^not a literal: 42$"):
            load_program(SourceProgram((clause,)))

    def test_a_goal_that_is_no_literal_is_a_type_error(self):
        with pytest.raises(TypeError, match="^not a literal: 42$"):
            next(solve(db_of(), Query((42,))))

    def test_grounding_lint_warns(self, caplog):
        with caplog.at_level("WARNING", logger="rholog.engine"):
            db_of("st :: s_X ==> s_Y :- other :: s_Z ==> s_Y.")
        assert any("s_Z" in message for message in caplog.messages)


class TestLoadOutcomes:
    """What load works out per clause, pinned by a digest: every index entry's
    position, clause and facts, over the bundled programs and random clauses."""

    DIGEST = "9301d60de4f2539a515de840ff3b59a58d2620dad3ce62ac6b65cff45fb6c1b3"

    def test_index_entries_match_the_pinned_digest(self):
        clauses = [clause for path in sorted(PROGRAMS.glob("*.rho"))
                   for clause in parse_program(path.read_text(encoding="utf-8")).clauses]
        rng = make_rng(149)
        for _ in range(400):
            clauses.append(rho_clause_with_body(rng))
            sides = rule_sides(rng)
            if sides is not None:
                clauses.append(RhoClause(atom("rule"), *sides))
            clauses.append(PredClause("p", pattern_hedge(rng), rho_clause_with_body(rng).body))
        db = load_program(SourceProgram(tuple(clauses)))
        rows = []
        for index in (db._rho_index, db._pred_index):
            entries = [e for keyed, free in index.values()
                       for bucket in (free, *keyed.values()) for e in bucket]
            rows.append([(position, render_clause(clause), repr(facts))
                         for position, clause, _, facts in sorted(entries, key=lambda e: e[0])])
        assert sum(map(len, rows)) > 1000
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.DIGEST


def call(name, *args):
    return Compound(Sym(name), args)


class TestSolveOutcomes:
    """What ``solve`` gives, pinned by digests: per query of a seeded corpus, the
    rendered answers with their degrees, or the error's class and message; and,
    in a digest of their own, the trace lines, fresh-name numbering included.

    Each program holds size-decreasing rules (``tests.strategy_oracle``),
    clauses with random bodies (``tests.genrand``), clauses whose bodies pass
    locals on or negate a step, clauses with leading guards, and predicate
    clauses. Queries have one to three literals, in exact and threshold mode
    (threshold 0 included), under a small ``nf`` step limit."""

    ANSWERS = "1b14678a5034cc9cb56ba3d2257632b05c6bc0bce85369211cb9653fde36c06f"
    TRACES = "e76da7150eb30f5343db2637ddf9e5eee23ae91de2cebd47d215ef57c6c1776b"
    X, Y, Z, S, R = IndVar("i_X"), IndVar("i_Y"), IndVar("i_Z"), SeqVar("s_X"), SeqVar("s_Z")
    A, B, C, OUT, REST = SeqVar("s_A"), SeqVar("s_B"), SeqVar("s_C"), OUT, SeqVar("s_Y")
    THRESHOLDS = tuple(D(x) for x in ("0", "0", "0.3", "0.5", "0.8", "1"))
    NUMERALS = ("1", "2", "3", "4", "5", "0.5", "a")  # a makes a comparison fail

    def program(self, rng):
        """The rules by name and the clauses of a random program."""
        X, Y, S, R, A, B, C, REST = self.X, self.Y, self.S, self.R, self.A, self.B, self.C, self.REST
        rules = random_rules(rng, ("r1", "r2", "a", "f"))
        clauses = [RhoClause(atom(name), lhs, rhs)
                   for name, sides in rules.items() for lhs, rhs in sides]
        clauses += [rho_clause_with_body(rng, 3) for _ in range(rng.randrange(1, 4))]
        compare = PredAtom(Sym(rng.choice(("=<", "<", ">", ">="))), (X, Y))
        guard = RhoAtom(rng.choice((atom("id"), atom("prox"), call("prox", atom("0.5")))),
                        (X,), (Y,))
        near, pipe = (A, X, B, Y, C), atom("pipe")
        clauses += [
            RhoClause(atom("cmp"), (A, X, Y, B), (X, Y), (compare,)),
            RhoClause(atom("cmp"), (A, X, Y, B), (Y, X), (NotGoal(compare),)),
            RhoClause(atom("near"), near, (X, Y), (RhoAtom(atom("prox"), (X,), (Y,)),)),
            RhoClause(atom("near"), near, (Y, X), (guard,)),
            RhoClause(atom("near"), near, (Y,), (RhoAtom(atom("prox"), (X,), (Y,)),
                                                 RhoAtom(atom("r1"), (Y,), (self.OUT,)))),
            RhoClause(pipe, (S,), (R,), (RhoAtom(random_strategy(rng, 1), (S,), (REST,)),
                                         RhoAtom(random_strategy(rng, 1), (REST,), (R,)))),
            RhoClause(pipe, (X, S), (REST, X), (RhoAtom(random_strategy(rng, 1), (S,), (REST,)),)),
            RhoClause(pipe, (atom(rng.choice(SYMS)), S), (S,),
                      (NotGoal(RhoAtom(random_strategy(rng, 1), (S,), (REST,))),)),
            RhoClause(atom("dup"), (X,), (X, X)),
            RhoClause(atom("dup"), (Compound(FunVar("f_F"), (S,)),), (S,)),
        ]
        for _ in range(rng.randrange(0, 4)):  # a p clause never calls p
            body = tuple(lit for lit in rho_clause_with_body(rng, 2).body
                         if isinstance(getattr(lit, "inner", lit), RhoAtom))
            clauses.append(PredClause("p", pattern_hedge(rng, 2, 1),
                                      body if rng.random() < 0.5 else ()))
        rng.shuffle(clauses)
        return rules, clauses

    def first_literal(self, rng, rules, clauses, rel):
        out, two = (self.OUT,), (self.OUT, self.REST)
        roll = rng.random()
        if roll < 0.45:
            return RhoAtom(random_strategy(rng, 2), random_input(rng, rules), rng.choice((out, two)))
        if roll < 0.6:
            pipe, dup = atom("pipe"), atom("dup")
            st = rng.choice((pipe, call("first_one", pipe), call("map", pipe), call("nf", pipe),
                             call("choice", pipe, atom("r2")), call("map", dup),
                             call("map", call("choice", dup, atom("id")))))
            return RhoAtom(st, random_input(rng, rules), rng.choice((out, two)))
        if roll < 0.7:
            st = atom("st")
            st = rng.choice((st, call("first_one", st), call("map", st),
                             call("first_all", st, atom("r1"))))
            lhs = rng.choice([c.lhs for c in clauses if getattr(c, "strategy", None) == atom("st")])
            return RhoAtom(st, apply_items(dict(ground_subst_for(rng, lhs).items()), lhs), out)
        if roll < 0.85:
            cmp = atom("cmp")
            st = rng.choice((cmp, call("first_one", cmp), call("nf", cmp), call("first_all", cmp)))
            return RhoAtom(st, tuple(atom(rng.choice(self.NUMERALS))
                                     for _ in range(rng.randrange(2, 6))), out)
        near, close = atom("near"), [name for pair in rel.pairs() for name in pair]
        st = rng.choice((near, call("choice", near, atom("id")), call("nf", near)))
        return RhoAtom(st, tuple(atom(rng.choice(close or SYMS)) for _ in range(rng.randrange(1, 5))),
                       rng.choice((out, (self.REST, self.Z))))

    def next_literal(self, rng):
        out, rest = (self.OUT,), (self.REST,)
        roll = rng.random()
        if roll < 0.3:
            return RhoAtom(random_strategy(rng, 1), out, rest)
        if roll < 0.5:
            return PredAtom(Sym("p"), out)
        if roll < 0.65:
            return NotGoal(RhoAtom(atom(rng.choice(("r1", "r2"))), out, rest))
        if roll < 0.8:
            return RhoAtom(atom("id"), out, pattern_hedge(rng, 2, 1))
        if roll < 0.9:
            return PredAtom(Sym(rng.choice(("=<", ">"))), (self.Z, atom("3")))
        return RhoAtom(atom("st"), out, rest)

    def corpus(self):
        """``(clauses, relation, query, nf step limit)``: four queries a program."""
        rng = make_rng(151)
        for _ in range(300):
            rules, clauses = self.program(rng)
            rel = random_relation(rng)
            for _ in range(4):
                goal = [self.first_literal(rng, rules, clauses, rel)]
                goal += [self.next_literal(rng) for _ in range(rng.choice((0, 0, 1, 1, 2)))]
                near = goal[0].strategy.head.name in ("near", "choice")
                if rng.random() < (0.7 if near else 0.4):
                    if rng.random() < 0.5:  # a rhs close to the input, not equal
                        lit = goal[0]
                        goal[0] = RhoAtom(lit.strategy, lit.lhs,
                                          perturb_hedge(rng, rel, lit.lhs, 0.5))
                    query = Query(tuple(goal), threshold=rng.choice(self.THRESHOLDS),
                                  degree_var="Degree")
                else:
                    query = Query(tuple(goal))
                yield clauses, rel, query, rng.choice((1, 2, 3))

    def test_outcomes_match_the_pinned_digests(self, caplog):
        caplog.set_level("ERROR", logger="rholog.engine")  # the load lint is not pinned
        rows, traces, db, loaded = [], [], None, None
        for clauses, rel, query, limit in self.corpus():
            lines = []
            try:
                if loaded is not clauses:
                    db, loaded = load_program(SourceProgram(tuple(clauses))), clauses
                config = EngineConfig(nf_step_limit=limit, trace_sink=lines.append)
                got = [(render_answer(a), str(a.degree))
                       for a in itertools.islice(solve(db, query, rel, config), 6)]
            except Exception as exc:  # a mutant may raise anything
                got = (type(exc).__name__, str(exc))
            rows.append(got)
            traces.append(lines)
        answers = [answer for got in rows if isinstance(got, list) for answer in got]
        errors = Counter(got[0] for got in rows if isinstance(got, tuple))
        assert len(answers) > 500 and sum(d != "1" for _, d in answers) > 10
        assert sum(map(len, traces)) > 10_000
        assert errors["StepLimitError"] > 50 and min(errors[name] for name in (
            "NonGroundRedexError", "NonTermResultError", "NonNumericError",
            "UnknownPredicateError", "UnknownStrategyError")) > 5
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.ANSWERS
        assert hashlib.sha256(repr(traces).encode()).hexdigest() == self.TRACES


class TestIdAndProx:
    def test_id_on_identical_ground_sides(self):
        assert results("?(id :: a ==> a, Result).") == [("[]", D(1))]

    def test_id_enumerates_splits(self):
        got = answers("?(id :: (a,b) ==> (s_X, s_Y), Result).")
        assert [a.bindings.get(SeqVar("s_X")) for a in got] == [
            (),
            H("a"),
            H("(a,b)"),
        ]

    def test_id_failure(self):
        assert answers("?(id :: a ==> b, Result).") == []

    def test_id_arity(self):
        with pytest.raises(ArityError):
            answers("?(id(x) :: a ==> a, Result).")

    def test_prox_scores_ground_pair(self):
        assert results("?(prox(0.5) :: c ==> b, Result).", rel=REL) == [
            ("[]", D("0.8"))
        ]

    def test_prox_below_threshold_fails(self):
        assert answers("?(prox(0.7) :: b ==> a, Result).", rel=REL) == []

    def test_bare_prox_defaults_to_exact_in_exact_mode(self):
        assert answers("?(prox :: c ==> b, Result).", rel=REL) == []
        assert results("?(prox :: c ==> c, Result).", rel=REL) == [("[]", D(1))]

    def test_bare_prox_uses_query_threshold(self):
        got = results("?(prox :: c ==> b, 0.5, Degree, Result).", rel=REL)
        assert got == [("[]", D("0.8"))]

    def test_prox_threshold_validation(self):
        with pytest.raises(ThresholdRangeError):
            answers("?(prox(1.5) :: a ==> a, Result).")
        with pytest.raises(NonNumericError):
            answers("?(prox(x) :: a ==> a, Result).")


class TestCombinators:
    def test_compose_identity_chain(self):
        assert results("?(compose(id, id) :: (a,b) ==> s_X, Result).") == [
            ("[s_X ---> (a,b)]", D(1))
        ]

    def test_compose_two_swap_passes(self):
        program = (
            "swap(f_O) :: (s_X, i_I, i_J, s_Y) ==> (s_X, i_J, i_I, s_Y) :- "
            "not(f_O(i_I, i_J)).\n"
        )
        got = answers(
            "?(compose(swap(=<), swap(=<)) :: (3,2,1) ==> s_X, Result).", program
        )
        outs = [a.bindings.get(SeqVar("s_X")) for a in got]
        # single swaps from (3,2,1) give (2,3,1) and (3,1,2); one more swap
        # from each gives exactly these two outcomes
        assert outs == [H("(2,1,3)"), H("(1,3,2)")]

    def test_compose_failing_stage(self):
        assert answers("?(compose(st, id) :: a ==> s_X, Result).", "st :: b ==> c.") == []

    def test_compose_arity(self):
        with pytest.raises(ArityError):
            answers("?(compose(id) :: a ==> s_X, Result).")

    def test_choice_single_branch_is_that_branch(self):
        assert results("?(choice(id) :: (a,b) ==> s_X, Result).") == results(
            "?(id :: (a,b) ==> s_X, Result)."
        )

    def test_choice_skips_failing_branches(self):
        got = results("?(choice(st, id) :: a ==> i_X, Result).", "st :: b ==> c.")
        assert got == [("[i_X ---> a]", D(1))]

    def test_choice_keeps_duplicates(self):
        got = results("?(choice(id, id) :: a ==> i_X, Result).")
        assert got == [("[i_X ---> a]", D(1)), ("[i_X ---> a]", D(1))]

    def test_choice_arity(self):
        with pytest.raises(ArityError):
            answers("?(choice :: a ==> s_X, Result).")

    def test_first_one_returns_single_answer(self):
        assert len(answers("?(first_one(choice(id, id)) :: a ==> i_X, Result).")) == 1

    def test_first_all_returns_all_of_first_succeeding(self):
        got = answers("?(first_all(choice(id, id)) :: a ==> i_X, Result).")
        assert len(got) == 2

    def test_first_one_skips_failing_strategies(self):
        got = results(
            "?(first_one(st, id) :: a ==> i_X, Result).", "st :: b ==> c."
        )
        assert got == [("[i_X ---> a]", D(1))]

    def test_first_one_of_failing_strategy(self):
        assert answers("?(first_one(st) :: a ==> s_X, Result).", "st :: b ==> c.") == []

    def test_first_one_caps_only_its_own_literal(self):
        # the goal after first_one keeps all of its alternatives
        got = answers(
            "?(first_one(id) :: a ==> i_X, choice(id, id) :: b ==> i_Y, Result)."
        )
        assert len(got) == 2

    def test_first_one_commits_to_the_first_result(self):
        # both rules apply; the committed first result is b, so matching the
        # right-hand side against c fails rather than falling through
        program = "st :: a ==> b.\nst :: a ==> c.\n"
        assert answers("?(first_one(st) :: a ==> c, Result).", program) == []
        assert results("?(first_one(st) :: a ==> b, Result).", program) == [
            ("[]", D(1))
        ]

    def test_map_rewrites_elementwise(self):
        got = results("?(map(st) :: (a,a) ==> s_X, Result).", "st :: a ==> b.")
        assert got == [("[s_X ---> (b,b)]", D(1))]

    def test_map_on_empty_sequence(self):
        assert results("?(map(st) :: eps ==> s_X, Result).", "st :: a ==> b.") == [
            ("[s_X ---> eps]", D(1))
        ]

    def test_map_fails_if_any_element_fails(self):
        assert answers("?(map(st) :: (a,c) ==> s_X, Result).", "st :: a ==> b.") == []

    def test_map_cartesian_order(self):
        program = "st :: a ==> b.\nst :: a ==> c.\n"
        got = answers("?(map(st) :: (a,a) ==> s_X, Result).", program)
        outs = [a.bindings.get(SeqVar("s_X")) for a in got]
        assert outs == [H("(b,b)"), H("(b,c)"), H("(c,b)"), H("(c,c)")]

    def test_map_requires_term_results(self):
        with pytest.raises(NonTermResultError):
            answers("?(map(st) :: a ==> s_X, Result).", "st :: a ==> (b,b).")

    def test_map_arity(self):
        with pytest.raises(ArityError):
            answers("?(map(id, id) :: a ==> s_X, Result).")


class TestNormalForm:
    ONE_STEP = "st :: (s_X, a, s_Y) ==> (s_X, b, s_Y).\n"

    def test_irreducible_input_is_its_own_normal_form(self):
        got = results("?(nf(st) :: (b,c) ==> s_X, Result).", self.ONE_STEP)
        assert got == [("[s_X ---> (b,c)]", D(1))]

    def test_derivations_may_repeat_answers(self):
        got = answers("?(nf(st) :: (a,a) ==> s_X, Result).", self.ONE_STEP)
        outs = [a.bindings.get(SeqVar("s_X")) for a in got]
        assert outs == [H("(b,b)"), H("(b,b)")]

    def test_nf_sorts_via_swap(self):
        program = (
            "swap(f_O) :: (s_X, i_I, i_J, s_Y) ==> (s_X, i_J, i_I, s_Y) :- "
            "not(f_O(i_I, i_J)).\n"
        )
        got = answers("?(first_one(nf(swap(=<))) :: (1,3,4,3,2) ==> s_X, Result).", program)
        assert [a.bindings.get(SeqVar("s_X")) for a in got] == [H("(1,2,3,3,4)")]

    def test_step_limit(self):
        program = "st :: a ==> a.\n"
        config = EngineConfig(nf_step_limit=10)
        with pytest.raises(StepLimitError):
            answers("?(nf(st) :: a ==> s_X, Result).", program, config=config)

    def test_step_limit_allows_exactly_that_many_steps(self):
        program = "dec :: (a, s_X) ==> (s_X).\n"
        query = "?(nf(dec) :: (a,a,a) ==> s_X, Result)."
        got = results(query, program, config=EngineConfig(nf_step_limit=3))
        assert got == [("[s_X ---> eps]", D(1))]
        with pytest.raises(StepLimitError, match="step limit of 2"):
            answers(query, program, config=EngineConfig(nf_step_limit=2))

    def test_nf_arity(self):
        with pytest.raises(ArityError):
            answers("?(nf :: a ==> s_X, Result).")


class TestPredicates:
    def test_comparisons(self):
        assert results("?(st :: a ==> b, Result).", "st :: a ==> b :- 3 =< 4.") == [
            ("[]", D(1))
        ]
        assert answers("?(st :: a ==> b, Result).", "st :: a ==> b :- 4 =< 3.") == []
        assert results("?(st :: a ==> b, Result).", "st :: a ==> b :- 0.5 < 2.") == [
            ("[]", D(1))
        ]

    def test_negated_comparison(self):
        assert results(
            "?(st :: a ==> b, Result).", "st :: a ==> b :- not(4 =< 3)."
        ) == [("[]", D(1))]

    def test_comparison_needs_numerals(self):
        with pytest.raises(NonNumericError):
            answers("?(st :: a ==> b, Result).", "st :: a ==> b :- a =< 3.")

    def test_user_predicates(self):
        # calls must arrive ground; facts and rule bodies chain fine
        program = (
            "small(1). small(2).\n"
            "tiny(i_X) :- small(i_X), i_X =< 1.\n"
            "st :: i_X ==> ok :- tiny(i_X).\n"
        )
        assert results("?(st :: 1 ==> s_R, Result).", program) == [
            ("[s_R ---> ok]", D(1))
        ]
        assert answers("?(st :: 2 ==> s_R, Result).", program) == []
        assert answers("?(st :: 9 ==> s_R, Result).", program) == []

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicateError):
            answers("?(st :: a ==> b, Result).", "st :: a ==> b :- missing(a).")

    def test_predicate_calls_must_be_ground(self):
        with pytest.raises(NonGroundRedexError):
            answers("?(st :: a ==> b, Result).", "st :: a ==> b :- p(i_Unbound).\np(a).")


class TestResolution:
    def test_unknown_strategy(self):
        with pytest.raises(UnknownStrategyError):
            answers("?(missing :: a ==> b, Result).")

    def test_clause_with_matching_head_symbol_but_failing_match_just_fails(self):
        assert answers("?(st(x) :: a ==> s_X, Result).", "st(y) :: a ==> b.") == []

    def test_nonground_redex(self):
        with pytest.raises(NonGroundRedexError):
            answers("?(st :: s_X ==> s_Y, Result).", "st :: a ==> b.")

    def test_negation_as_failure_on_transformations(self):
        program = "st :: a ==> b.\ncheck :: i_X ==> ok :- st :: i_X =\\=> c.\n"
        assert results("?(check :: a ==> s_R, Result).", program) == [
            ("[s_R ---> ok]", D(1))
        ]
        program2 = "st :: a ==> b.\ncheck :: i_X ==> ok :- st :: i_X =\\=> b.\n"
        assert answers("?(check :: a ==> s_R, Result).", program2) == []

    def test_negated_goal_must_be_ground(self):
        with pytest.raises(NonGroundRedexError):
            answers(
                "?(st :: a ==> b, Result).",
                "st :: a ==> b :- not(p(i_U)).\np(a).",
            )

    def test_body_variables_flow_into_continuation(self):
        program = "st :: a ==> b.\nwrap(i_S) :: c_C(i_X) ==> c_C(i_Y) :- i_S :: i_X ==> i_Y.\n"
        got = results("?(wrap(st) :: f(a,g(a)) ==> s_Out, Result).", program)
        assert [r for r, _ in got] == [
            "[s_Out ---> f(b,g(a))]",
            "[s_Out ---> f(a,g(b))]",
        ]

    def test_clause_order_is_source_order(self):
        program = "st :: a ==> first.\nst :: a ==> second.\n"
        got = [r for r, _ in results("?(st :: a ==> i_X, Result).", program)]
        assert got == ["[i_X ---> first]", "[i_X ---> second]"]

    def test_answer_replay_is_sound(self):
        program = "st :: (s_X, a, s_Y) ==> (s_X, b, s_Y).\n"
        db = db_of(program)
        query = parse_query("?(st :: (a,c,a) ==> s_Out, Result).")
        seen = 0
        for answer in solve(db, query):
            out = render_sequence(answer.bindings.get(SeqVar("s_Out")))
            replayed = parse_query(f"?(st :: (a,c,a) ==> {out}, Result).")
            assert list(solve(db, replayed))
            seen += 1
        assert seen == 2

    def test_an_answer_keeps_the_bindings_of_every_step(self):
        # the first goal binds i_X, the second i_Y
        program = "st :: a ==> b.\nst :: b ==> c.\n"
        got = results("?(st :: a ==> i_X, st :: i_X ==> i_Y, Result).", program)
        assert got == [("[i_X ---> b, i_Y ---> c]", D(1))]

    def test_exact_mode_degree_is_one(self):
        program = "st :: a ==> b.\n"
        assert all(d == D(1) for _, d in results("?(st :: a ==> i_X, Result).", program))


class TestProximityMode:
    MERGE = (
        "merge_proximals :: (s_X, i_X, s_Y, i_Y, s_Z) ==> (s_X, s_Y, i_Y, s_Z) :- "
        "prox :: i_X ==> i_Y.\n"
        "merge_all_proximals := first_one(nf(merge_proximals)).\n"
    )

    def test_threshold_answers_carry_exact_decimals(self):
        got = results(
            "?(merge_all_proximals :: (a,b,d,b,c) ==> s_Ans, 0.5, Degree, Result).",
            self.MERGE,
            REL,
        )
        assert got == [("[s_Ans ---> (d,c)]", D("0.6"))]

    def test_clause_heads_match_exactly_even_in_threshold_mode(self):
        program = "p :: f(a) ==> done.\n"
        assert answers("?(p :: f(b) ==> s_X, 0.5, Degree, Result).", program, REL) == []
        assert results("?(p :: f(a) ==> s_X, 0.5, Degree, Result).", program, REL) == [
            ("[s_X ---> done]", D(1))
        ]

    def test_continuations_in_threshold_mode_accept_proximal_results(self):
        # the clause produces f(b); the query asks for f(c), which is close
        program = "p :: i_X ==> f(b).\n"
        got = results("?(p :: a ==> f(c), 0.5, Degree, Result).", program, REL)
        assert got == [("[]", D("0.8"))]

    def test_answers_below_query_threshold_are_dropped(self):
        # the explicit prox(0.1) step succeeds at 0.6, but the query demands 0.7
        program = "p :: (i_X, i_Y) ==> ok :- prox(0.1) :: i_X ==> i_Y.\n"
        assert answers("?(p :: (a,b) ==> s_R, 0.7, Degree, Result).", program, REL) == []
        got = results("?(p :: (a,b) ==> s_R, 0.5, Degree, Result).", program, REL)
        assert got == [("[s_R ---> ok]", D("0.6"))]

    def test_threshold_zero_matches_no_unrelated_symbol(self):
        rel = ProximityRelation([("a", "b", D("0.5"))])
        assert answers("?(prox :: a ==> c, 0, Degree, Result).", rel=rel) == []
        got = results("?(prox :: a ==> b, 0, Degree, Result).", rel=rel)
        assert got == [("[]", D("0.5"))]

    def test_degree_is_minimum_over_derivation(self):
        program = (
            "p :: (i_A, i_B) ==> ok :- prox :: i_A ==> b, prox :: i_B ==> b.\n"
        )
        got = results("?(p :: (a,c) ==> s_R, 0.5, Degree, Result).", program, REL)
        assert got == [("[s_R ---> ok]", D("0.6"))]

    def test_degrees_thread_through_compose_and_map(self):
        program = "to_b :: i_X ==> b :- prox :: i_X ==> b.\n"
        got = results(
            "?(compose(to_b, to_b) :: a ==> s_X, 0.5, Degree, Result).", program, REL
        )
        assert got == [("[s_X ---> b]", D("0.6"))]
        got = results("?(map(to_b) :: (a,c) ==> s_X, 0.5, Degree, Result).", program, REL)
        assert got == [("[s_X ---> (b,b)]", D("0.6"))]
        assert answers(
            "?(map(to_b) :: (a,c) ==> s_X, 0.7, Degree, Result).", program, REL
        ) == []

    def test_thresholds_with_many_decimals_reach_the_continuation(self):
        # 0.0000001 prints as 1E-7 by default, which is no numeral
        program = "p :: a ==> b.\n"
        for goal in ("p :: a ==> b", "compose(id, id) :: a ==> a"):
            got = results(f"?({goal}, 0.0000001, Degree, Result).", program, REL)
            assert got == [("[]", D(1))]

    def test_negation_respects_the_query_threshold(self):
        program = "neg_check :: i_X ==> ok :- prox :: i_X =\\=> b.\n"
        # a is close to b at 0.5 but not at 0.7, so the negation flips
        assert answers(
            "?(neg_check :: a ==> s_R, 0.5, Degree, Result).", program, REL
        ) == []
        got = results("?(neg_check :: a ==> s_R, 0.7, Degree, Result).", program, REL)
        assert got == [("[s_R ---> ok]", D(1))]


class TestClauseSelection:
    """Heads are matched as stored; only a hit instantiates a clause."""

    def test_failed_heads_instantiate_nothing(self, monkeypatch):
        calls = []
        original = rholog.engine.apply_to_literal

        def counted(subst, lit):
            calls.append(lit)
            return original(subst, lit)

        monkeypatch.setattr(rholog.engine, "apply_to_literal", counted)
        counts = []
        for n in (1, 50):
            program = "".join(
                f"st :: b{k} ==> i_Y :- id :: c ==> i_Y.\n" for k in range(n)
            )
            program += "st :: a ==> i_Y :- id :: d ==> i_Y.\n"
            calls.clear()
            got = results("?(st :: a ==> i_X, Result).", program)
            assert got == [("[i_X ---> d]", D(1))]
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_locals_of_a_transformation_clause(self):
        (clause,) = parse_program(
            "st(i_A) :: (i_X, s_R) ==> (s_Z, i_X, i_Y) :- "
            "i_A :: i_X ==> (i_Y, s_W), c :: s_Z ==> c_C(i_V)."
        ).clauses
        assert _facts(clause, (clause.strategy,) + clause.lhs)[0] == (
            SeqVar("s_Z"), IndVar("i_Y"), SeqVar("s_W"), CtxVar("c_C"), IndVar("i_V")
        )

    def test_locals_of_a_predicate_clause(self):
        (clause,) = parse_program(
            "p(i_X, f_F(s_A)) :- q(i_Z, i_X), f_F(s_B), not(r(i_Z, s_A))."
        ).clauses
        assert _facts(clause, clause.params)[0] == (IndVar("i_Z"), SeqVar("s_B"))

    def test_locals_of_an_expanded_abbreviation(self):
        (clause,) = db_of("st := compose(a1, a2).").rho_clauses
        locals_ = _facts(clause, (clause.strategy,) + clause.lhs)[0]
        assert locals_ == (clause.rhs[0],) == (SeqVar("s__Abbrev1R"),)

    def test_recursive_clause_keeps_each_hits_locals_apart(self):
        # every pending continuation holds s_U and s_R of an outer hit while
        # the inner hit of the same clause runs
        program = (
            "rev :: eps ==> eps.\n"
            "rev :: (i_H, s_T) ==> s_R :- rev :: s_T ==> s_U, id :: (s_U, i_H) ==> s_R.\n"
        )
        assert results("?(rev :: (a,b,c,d) ==> s_X, Result).", program) == [
            ("[s_X ---> (d,c,b,a)]", D(1))
        ]


# first items keyed a, -, a, -, b, -, -, - (- is the variable bucket)
INDEXED_HEADS = (
    "a", "s_X", "a(s_Y)", "i_X", "b", "c_C(a)", "f_F(s_Z)", "(s_W, a)"
)
# per subject: the clauses a linear scan would match, in source order, and
# how many of the eight are candidates (the subject's bucket and the free one)
INDEXED_SCAN = {
    "a": ([1, 2, 3, 4, 6, 7, 8], 7),
    "a(x)": ([2, 3, 4, 7], 7),
    "b": ([2, 4, 5, 7], 6),
    "z": ([2, 4, 7], 5),
    "eps": ([2], 5),
}


def matcher_patterns(monkeypatch):
    """Patch the engine's ``match_hedge`` to collect the pattern of each call."""
    patterns = []
    original = rholog.engine.match_hedge

    def counted(pattern, subject, **kwargs):
        patterns.append(pattern)
        return original(pattern, subject, **kwargs)

    monkeypatch.setattr(rholog.engine, "match_hedge", counted)
    return patterns


class TestFirstArgumentIndex:
    """A selection tries only the clauses whose first lhs item (first param)
    can match the subject's, in source order."""

    @pytest.mark.parametrize("subject", list(INDEXED_SCAN))
    def test_transformation_clauses(self, monkeypatch, subject):
        program = "".join(
            f"st :: {lhs} ==> r{k}.\n" for k, lhs in enumerate(INDEXED_HEADS, 1)
        )
        hits, candidates = INDEXED_SCAN[subject]
        patterns = matcher_patterns(monkeypatch)
        got = results(f"?(st :: {subject} ==> s_R, Result).", program)
        assert got == [(f"[s_R ---> r{k}]", D(1)) for k in hits]
        assert len([p for p in patterns if p[:1] == (T("st"),)]) == candidates

    @pytest.mark.parametrize("subject", list(INDEXED_SCAN))
    def test_predicate_clauses(self, monkeypatch, subject):
        heads = [f"p({params})" for params in INDEXED_HEADS]
        hits, candidates = INDEXED_SCAN[subject]
        patterns = matcher_patterns(monkeypatch)
        lines = []
        config = EngineConfig(trace_sink=lines.append)
        got = answers(f"?(p({subject}), Result).", ".\n".join(heads) + ".", config=config)
        assert len(got) == len(hits)
        assert [line for line in lines if line.startswith("clause:")] == [
            f"clause: {render_sequence(H(heads[k - 1]))}." for k in hits
        ]
        assert len(patterns) == candidates  # a predicate call has no continuation

    def test_candidates_hold_every_clause_the_oracle_matches(self):
        for seed in range(300):
            rng = make_rng(seed)
            sides = [rule_sides(rng) for _ in range(rng.randrange(1, 9))]
            rules = [(f"st{rng.randrange(2)}", lhs, rhs) for lhs, rhs in sides]
            program = SourceProgram(tuple(
                clause
                for name, lhs, rhs in rules
                for clause in (RhoClause(atom(name), lhs, rhs), PredClause(name, lhs))
            ))
            db = load_program(program)
            for _ in range(5):
                name, lhs, _ = rng.choice(rules)
                if rng.random() < 0.5:
                    subject = ground_subst_for(rng, lhs).apply_hedge(lhs)
                else:
                    subject = ground_hedge(rng)
                for clauses, found in (
                    ([c for c in db.rho_clauses if c.strategy == atom(name)],
                     db.rho_for(name, subject)),
                    ([c for c in db.pred_clauses if c.name == name],
                     db.preds_for(name, subject)),
                ):
                    picked = [clause for _, clause, _, _ in found]
                    at = [next(i for i, c in enumerate(clauses) if c is p) for p in picked]
                    assert at == sorted(set(at))
                    for clause in clauses:
                        head = clause.lhs if isinstance(clause, RhoClause) else clause.params
                        if ordered_matchers(head, subject):
                            assert any(clause is p for p in picked)

    def test_a_name_without_candidates_fails_quietly(self):
        program = "p(a).\nst :: a ==> b.\n"
        assert answers("?(p(c), Result).", program) == []
        assert answers("?(st :: c ==> s_X, Result).", program) == []
        assert results("?(not(p(c)), Result).", program) == [("[]", D(1))]
        with pytest.raises(UnknownPredicateError):
            answers("?(q(c), Result).", program)
        with pytest.raises(UnknownStrategyError):
            answers("?(other :: a ==> s_X, Result).", program)

    def test_a_rule_base_tries_one_clause_per_item(self, monkeypatch):
        program = "".join(f"st :: c{k}(s_X) ==> d{k}(s_X).\n" for k in range(3000))
        db = db_of(program)
        patterns = matcher_patterns(monkeypatch)
        query = parse_query("?(map(st) :: (c7(x), c2999, c7(y,z)) ==> s_R, Result).")
        assert [render_answer(a) for a in solve(db, query)] == [
            "[s_R ---> (d7(x),d2999,d7(y,z))]"
        ]
        assert len([p for p in patterns if p[:1] == (T("st"),)]) == 3


def in_fresh_interpreter(code):
    """Run ``code`` in a new interpreter and return its stdout. The
    interpreter starts at its default recursion limit, whatever limit the
    test process runs at."""
    src = Path(rholog.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestMachine:
    """One resolution loop: depth costs no Python stack, and cuts and soft
    cuts commit where the combinators say."""

    def test_step_limit_is_reached_at_the_default_recursion_limit(self):
        out = in_fresh_interpreter(
            "import sys\n"
            "from rholog import *\n"
            "db = load_program(parse_program('st :: a ==> a.'))\n"
            "query = parse_query('?(nf(st) :: a ==> s_X, Result).')\n"
            "try:\n"
            "    list(solve(db, query, config=EngineConfig(nf_step_limit=10000)))\n"
            "except StepLimitError as exc:\n"
            "    print(sys.getrecursionlimit(), exc)\n"
        )
        limit, message = out.split(" ", 1)
        assert int(limit) < 10000
        assert message.strip() == "nf exceeded the step limit of 10000"

    def test_long_nf_chain_at_the_default_recursion_limit(self):
        out = in_fresh_interpreter(
            "import sys\n"
            "from rholog import *\n"
            "db = load_program(parse_program('dec :: (a, s_X) ==> (s_X).'))\n"
            "items = ','.join(['a'] * 1500 + ['b'])\n"
            "query = parse_query(f'?(nf(dec) :: ({items}) ==> s_X, Result).')\n"
            "print(sys.getrecursionlimit(), [render_answer(a) for a in solve(db, query)])\n"
        )
        limit, got = out.split(" ", 1)
        assert int(limit) < 1500
        assert got.strip() == "['[s_X ---> b]']"

    def test_memory_of_an_nf_chain_grows_linearly(self):
        # each nf step soft-cuts the step before; a cut choice point that stayed
        # alive would hold its step's O(n) sequence, a quadratic peak in all
        db = db_of("dec :: (a, s_X) ==> (s_X).")

        def peak(n):
            items = ",".join(["a"] * n + ["b"])
            query = parse_query(f"?(nf(dec) :: ({items}) ==> s_X, Result).")
            tracemalloc.start()
            try:
                assert [render_answer(a) for a in solve(db, query)] == ["[s_X ---> b]"]
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2000)  # the first run also interns the fresh names
        assert peak(2000) < 3 * peak(1000)

    def test_a_negated_goal_instantiates_no_goal_after_it(self, monkeypatch):
        # the positive form's steps bind only its own fresh names, and the
        # goals after the negation run only if it has no answer
        instantiated = []
        apply = rholog.engine.apply_to_literal

        def counted(subst, lit):
            instantiated.append(lit)
            return apply(subst, lit)

        monkeypatch.setattr(rholog.engine, "apply_to_literal", counted)
        query = "?(not(compose(id, id, id) :: a ==> b), id :: c ==> s_Y, Result)."
        assert results(query) == [("[s_Y ---> c]", D(1))]
        assert instantiated  # the positive form's own steps
        assert RhoAtom(atom("id"), (T("c"),), (SeqVar("s_Y"),)) not in instantiated

    @pytest.mark.parametrize("query, item", [
        ("?(map(st) :: ({}) ==> s_R, Result).", "c(a)"),
        ("?(rev :: ({}) ==> s_R, Result).", "a"),
    ], ids=["map", "rev"])
    def test_instantiations_grow_linearly_with_the_items(self, monkeypatch, query, item):
        # a step's bindings reach the goals up to the first pending clause
        # continuation; walking every pending goal made this quadratic
        calls = [0]
        original = rholog.engine._instantiate

        def counted(theta, goal):
            calls[0] += 1
            return original(theta, goal)

        monkeypatch.setattr(rholog.engine, "_instantiate", counted)
        db = db_of("st :: c(s_X) ==> d(s_X).\n" + REV)

        def count(m):
            calls[0] = 0
            (answer,) = solve(db, parse_query(query.format(",".join([item] * m))))
            assert len(answer.bindings.get(SeqVar("s_R"))) == m
            return calls[0]

        assert count(400) <= 2.2 * count(200)

    def test_a_step_in_a_body_instantiates_no_goal_after_its_continuation(self, monkeypatch):
        walked = []
        original = rholog.engine._instantiate

        def recorded(theta, goal):
            walked.append((dict(theta.items()), goal))
            return original(theta, goal)

        monkeypatch.setattr(rholog.engine, "_instantiate", recorded)
        program = "st :: i_X ==> s_Y :- id :: (i_X, i_X) ==> s_Y.\n"
        query = "?(st :: a ==> s_X, id :: c ==> s_Z, Result)."
        assert results(query, program) == [("[s_X ---> (a,a), s_Z ---> c]", D(1))]
        later = RhoAtom(atom("id"), (T("c"),), (SeqVar("s_Z"),))
        in_body = [goal for theta, goal in walked if SeqVar("s_X") not in theta]
        assert in_body  # the body's step reaches its clause's continuation
        assert later not in in_body
        assert later in [goal for theta, goal in walked if SeqVar("s_X") in theta]

    def test_first_answer_tries_no_clause_of_a_later_choice(self, monkeypatch):
        heads = []
        original = rholog.engine.match_hedge

        def counted(pattern, subject, **kwargs):
            heads.append(pattern[0])
            return original(pattern, subject, **kwargs)

        monkeypatch.setattr(rholog.engine, "match_hedge", counted)
        program = "st1 :: a ==> b.\nst1 :: a ==> c.\nst2 :: a ==> d.\nst2 :: a ==> e.\n"
        stream = solve(db_of(program), parse_query("?(choice(st1, st2) :: a ==> i_X, Result)."))
        assert render_answer(next(stream)) == "[i_X ---> b]"
        tried = [h for h in heads if h in (T("st1"), T("st2"))]
        assert tried == [T("st1")]
        assert [render_answer(a) for a in stream] == [
            "[i_X ---> c]", "[i_X ---> d]", "[i_X ---> e]"
        ]
        tried = [h for h in heads if h in (T("st1"), T("st2"))]
        assert tried == [T("st1"), T("st1"), T("st2"), T("st2")]

    def test_first_all_commits_to_the_first_strategy_with_a_result(self):
        # st1 has a result (b), so st2's c is never offered to the rhs;
        # choice, which does not commit, does reach it
        program = "st1 :: a ==> b.\nst2 :: a ==> c.\n"
        assert answers("?(first_all(st1, st2) :: a ==> c, Result).", program) == []
        assert len(answers("?(first_all(st1, st2) :: a ==> b, Result).", program)) == 1
        assert len(answers("?(choice(st1, st2) :: a ==> c, Result).", program)) == 1


class TestHolesInGoals:
    @pytest.mark.parametrize("query", [
        "?(id :: f(hole) ==> s_X, Result).",
        "?(id :: a ==> f(hole), Result).",
        "?(p(hole), Result).",
        "?(not(p(f(hole))), Result).",
    ])
    def test_hole_in_a_goal_is_an_error_of_the_answer_stream(self, query):
        stream = solve(db_of(), parse_query(query))
        with pytest.raises(HoleInGoalError, match="hole is not allowed in goals"):
            next(stream)

    def test_threshold_out_of_range_is_an_error_of_the_answer_stream(self):
        goal = parse_query("?(id :: a ==> a, Result).").goal
        stream = solve(db_of(), Query(goal, threshold=Decimal(2)))
        with pytest.raises(ThresholdRangeError, match="threshold must be in"):
            next(stream)


class TestDeterminism:
    def test_identical_runs_yield_identical_streams(self):
        program = "st :: (s_X, a, s_Y) ==> (s_X, b, s_Y).\n"
        query = "?(nf(st) :: (a,c,a) ==> s_Out, Result)."
        first = results(query, program)
        second = results(query, program)
        assert first == second and first

    def test_moderately_deep_normalization(self):
        program = (
            "swap(f_O) :: (s_X, i_I, i_J, s_Y) ==> (s_X, i_J, i_I, s_Y) :- "
            "not(f_O(i_I, i_J)).\n"
        )
        seq = ",".join(str(k) for k in range(20, 0, -1))
        got = answers(f"?(first_one(nf(swap(=<))) :: ({seq}) ==> s_X, Result).", program)
        expected = H("(" + ",".join(str(k) for k in range(1, 21)) + ")")
        assert [a.bindings.get(SeqVar("s_X")) for a in got] == [expected]


class TestConfig:
    def test_settable_fields(self):
        # an answer limit is itertools.islice over the lazy stream, not a field
        names = list(EngineConfig.__slots__)
        assert names == ["nf_step_limit", "trace_sink"]

    def test_trace_reports_selections_and_clauses(self):
        lines = []
        config = EngineConfig(trace_sink=lines.append)
        answers("?(st :: a ==> i_X, Result).", "st :: a ==> b.", config=config)
        assert any(line.startswith("select:") for line in lines)
        assert any(line.startswith("clause:") for line in lines)

    def test_trace_off_renders_nothing(self, monkeypatch):
        programs = Path(__file__).resolve().parent.parent / "programs"

        def read(name):
            return (programs / name).read_text(encoding="utf-8")

        sorting = load_program(parse_program(read("sorting.rho")))
        merging = load_program(parse_program(read("proximity.rho")))
        rel = ProximityRelation(parse_proximity_decls(read("proximity.prox")))

        def fail(*args):
            raise AssertionError("rendered a trace line with tracing off")

        monkeypatch.setattr(rholog.engine, "render_literal", fail)
        monkeypatch.setattr(rholog.engine, "render_clause", fail)
        off = EngineConfig()
        got = solve(
            sorting,
            parse_query("?(bubble_sort(=<) :: (1,3,4,3,2) ==> s_X, Result)."),
            config=off,
        )
        assert [(render_answer(a), a.degree) for a in got] == [
            ("[s_X ---> (1,2,3,3,4)]", D(1))
        ]
        got = solve(
            merging,
            parse_query(
                "?(merge_all_proximals :: (a,b,d,b,c) ==> s_Ans, 0.5, Degree, Result)."
            ),
            rel,
            off,
        )
        assert [(render_answer(a), a.degree) for a in got] == [
            ("[s_Ans ---> (d,c)]", D("0.6"))
        ]


class TestLateContinuation:
    """A clause hit's continuation ``C :: sigma(rhs') ==> rhs`` is built when
    it is selected, after the body, with the body's bindings of the locals."""

    def test_contexts_are_plugged_once_per_answer(self, monkeypatch):
        calls, depth = [], [0]
        original = rholog.terms.apply_context

        def counted(ctx, t):
            calls.append(depth[0] == 0)
            depth[0] += 1
            try:
                return original(ctx, t)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(rholog.terms, "apply_context", counted)
        program = (PROGRAMS / "rewriting.rho").read_text(encoding="utf-8")
        got = results("?(rewrite_step(st) :: f(b,g(c,d),a) ==> s_Out, Result).", program)
        assert got == [("[s_Out ---> f(b,g(c,d),b)]", D(1))]
        # one outermost plug for the one answer (and its one nested call),
        # not one for each of the six contexts tried
        assert sum(calls) == len(got)
        assert len(calls) == 2

    def test_locals_bound_by_the_body_behind_a_choice_point(self):
        program = (
            "st :: i_X ==> f(i_Y) :- st2 :: i_X ==> i_Y.\n"
            "st2 :: a ==> b.\n"
            "st2 :: a ==> c.\n"
        )
        assert results("?(st :: a ==> i_Z, Result).", program) == [
            ("[i_Z ---> f(b)]", D(1)),
            ("[i_Z ---> f(c)]", D(1)),
        ]

    def test_locals_of_every_kind(self):
        program = (
            "kinds :: i_X ==> (s_S, f_F(i_Y), c_C(a)) :- st2 :: i_X ==> i_Y, "
            "id :: (d, e) ==> s_S, id :: g(h(b)) ==> f_F(c_C(b)).\n"
            "st2 :: a ==> b.\n"
            "st2 :: a ==> c.\n"
        )
        assert results("?(kinds :: a ==> s_Z, Result).", program) == [
            ("[s_Z ---> (d,e,g(b),h(a))]", D(1)),
            ("[s_Z ---> (d,e,g(c),h(a))]", D(1)),
        ]


class TestTrustedMatcherInputs:
    """The engine calls the matchers by their private doors, which skip the input
    check (``scored_match_hedge(..., _checked=True)``, ``match_hedge(..., _test=...)``);
    every input it passes must still pass that check."""

    @pytest.fixture
    def checked(self, monkeypatch):
        def checking(original):
            def wrapper(pattern, subject, *args, **kwargs):
                rholog.matching._check_inputs(pattern, subject)
                return original(pattern, subject, *args, **kwargs)
            return wrapper

        for name in ("match_hedge", "scored_match_hedge"):
            original = getattr(rholog.engine, name)
            monkeypatch.setattr(rholog.engine, name, checking(original))

    def test_bundled_examples(self, checked):
        def read(name):
            return (PROGRAMS / name).read_text(encoding="utf-8")

        rel = ProximityRelation(parse_proximity_decls(read("proximity.prox")))
        assert results(
            "?(bubble_sort(=<) :: (1,3,4,3,2) ==> s_X, Result).", read("sorting.rho")
        ) == [("[s_X ---> (1,2,3,3,4)]", D(1))]
        assert results(
            "?(merge_all_proximals :: (a,b,d,b,c) ==> s_Ans, 0.5, Degree, Result).",
            read("proximity.rho"),
            rel,
        ) == [("[s_Ans ---> (d,c)]", D("0.6"))]
        assert results(
            "?(rewrite_step(st) :: f(a,g(a,b)) ==> s_Out, Result).", read("rewriting.rho")
        ) == [("[s_Out ---> f(b,g(a,b))]", D(1)), ("[s_Out ---> f(a,g(b,b))]", D(1))]

    def test_clause_bodies(self, checked):
        # recursion through a rho clause and through a predicate, and a body
        # whose locals pass through map, compose, nf and first_all
        program = REV + (
            "even(eps).\n"
            "even(i_X, i_Y, s_R) :- even(s_R).\n"
            "dec :: (a, s_X) ==> (s_X).\n"
            "twice :: i_X ==> i_Y :- id :: i_X ==> i_Y.\n"
            "mix :: (s_X) ==> g(s_A, s_B, s_C, s_D) :- even(s_X), "
            "map(twice) :: (s_X) ==> s_A, compose(rev, rev) :: (s_A) ==> s_B, "
            "nf(dec) :: (s_B) ==> s_C, first_all(rev, dec) :: (s_C) ==> s_D.\n"
        )
        assert results("?(rev :: (a,b,c,d) ==> s_R, Result).", program) == [
            ("[s_R ---> (d,c,b,a)]", D(1))
        ]
        assert results("?(mix :: (a,a,b,a) ==> s_Out, Result).", program) == [
            ("[s_Out ---> g(a,a,b,a,a,a,b,a,b,a,a,b)]", D(1))
        ]
        assert results("?(mix :: (a,b,a) ==> s_Out, Result).", program) == []

    def test_strategy_oracle_corpus(self, checked):
        for seed in (*range(100), *range(10_000, 10_100)):
            rng, rules, strategy, hedge = case(seed)
            if seed < 10_000:
                query = Query((RhoAtom(strategy, hedge, (OUT,)),))
                rel = None
            else:
                rel = random_relation(rng)
                query = Query(
                    (RhoAtom(strategy, hedge, (OUT,)),),
                    threshold=rng.choice(THRESHOLDS),
                    degree_var="Degree",
                )
            drain(solve(load(rules), query, rel), NonTermResultError)


class TestHeadMatcherOwnership:
    """``_with_fresh_locals`` writes a clause's fresh names into the head matcher the
    matcher hands over; every head matcher of one stream is held until it ends."""

    def test_a_clause_with_locals_and_two_head_matchers(self, monkeypatch):
        held, original = [], rholog.engine.match_hedge

        def holding(pattern, subject, **kwargs):
            for m in original(pattern, subject, **kwargs):
                held.append(m)
                yield m

        monkeypatch.setattr(rholog.engine, "match_hedge", holding)
        program = "two :: (s_A, s_B) ==> s_C :- id :: (s_B, s_A) ==> s_C.\n"
        assert results("?(two :: (a) ==> s_X, Result).", program) == [("[s_X ---> a]", D(1))] * 2
        a, b, c = SeqVar("s_A"), SeqVar("s_B"), SeqVar("s_C")
        assert [m[0] for m in held if a in m[0]] == [
            {a: (), b: H("a"), c: (SeqVar("s_C~1"),)},
            {a: H("a"), b: (), c: (SeqVar("s_C~2"),)},
        ]


class TestOneClauseTry:
    """The engine calls ``match_hedge`` only to try a clause, and always with the
    clause's test: its leading guard, or else the report of its hit."""

    EXAMPLES = [
        ("sorting.rho", "?(bubble_sort(=<) :: (1,3,4,3,2) ==> s_X, Result).", None),
        ("proximity.rho", "?(merge_all_proximals :: (a,b,d,b,c) ==> s_Ans, 0.5, Degree, "
         "Result).", "proximity.prox"),
        ("rewriting.rho", "?(rewrite_step(st) :: f(a,g(a,b)) ==> s_Out, Result).", None),
    ]

    @pytest.mark.parametrize("program, query, prox", EXAMPLES, ids=["sort", "merge", "rewrite"])
    def test_bundled_examples(self, monkeypatch, program, query, prox):
        calls, original = [], rholog.engine.match_hedge

        def recorded(pattern, subject, **kwargs):
            calls.append((pattern, kwargs.get("_test")))
            return original(pattern, subject, **kwargs)

        monkeypatch.setattr(rholog.engine, "match_hedge", recorded)
        db = db_of((PROGRAMS / program).read_text(encoding="utf-8"))
        rel = prox and ProximityRelation(
            parse_proximity_decls((PROGRAMS / prox).read_text(encoding="utf-8")))
        assert list(solve(db, parse_query(query), rel))
        heads = {(c.strategy,) + c.lhs for c in db.rho_clauses} | {
            c.params for c in db.pred_clauses}
        assert calls
        assert all(test is not None and test[1] is not None for _, test in calls)
        assert all(pattern in heads for pattern, _ in calls)


def traced(query_text, program, rel=None):
    """The trace lines and answers, or the error, of a query."""
    lines = []
    config = EngineConfig(trace_sink=lines.append)
    try:
        got = [(render_answer(a), a.degree) for a in solve(
            db_of(program), parse_query(query_text), rel, config)]
    except RhoError as exc:
        got = f"{type(exc).__name__}: {exc}"
    return lines, got


class TestReadiness:
    """Whether a goal is ground when selected is worked out at load; an
    unready goal raises where the selection-time check raised."""

    PROGRAM = (
        "st :: a ==> b.\nst :: b ==> c.\n"
        "later :: i_X ==> i_Y :- st :: i_Z ==> i_Y, st :: i_X ==> i_Z.\n"
        "neg :: i_X ==> i_Y :- st :: i_X =\\=> i_Z, st :: i_Z ==> i_Y.\n"
        "under :: i_X ==> i_Y :- not(st :: i_X ==> i_Z), st :: i_Z ==> i_Y.\n"
        "open :: i_X ==> (i_Y, s_Q) :- st :: i_X ==> i_Y.\n"
        "pcall :: i_X ==> ok :- p(i_X).\n"
        "p(i_A) :- st :: i_A ==> i_B, q(i_C).\nq(a).\n"
        "bare :: i_X ==> (i_X, s_Q).\n"
    )

    @pytest.mark.parametrize("query, lines, error", [
        ("?(later :: a ==> s_R, Result).", [
            "select: later :: a ==> s_R",
            "clause: later :: i_X ==> i_Y :- st :: i_Z ==> i_Y, st :: i_X ==> i_Z.",
        ], "strategy and left-hand side must be ground when selected: st :: i_Z~1 ==> i_Y~1"),
        ("?(neg :: c ==> s_R, Result).", [
            "select: neg :: c ==> s_R",
            "clause: neg :: i_X ==> i_Y :- st :: i_X =\\=> i_Z, st :: i_Z ==> i_Y.",
            "negation: st :: c =\\=> i_Z~1",
            "select: st :: c ==> i_Z~1",
        ], "strategy and left-hand side must be ground when selected: st :: i_Z~1 ==> i_Y~1"),
        ("?(under :: c ==> s_R, Result).", [
            "select: under :: c ==> s_R",
            "clause: under :: i_X ==> i_Y :- not(st :: i_X ==> i_Z), st :: i_Z ==> i_Y.",
        ], "negated goal is not ground: not(st :: c ==> i_Z~1)"),
        ("?(open :: a ==> s_R, Result).", [
            "select: open :: a ==> s_R",
            "clause: open :: i_X ==> (i_Y,s_Q) :- st :: i_X ==> i_Y.",
            "select: st :: a ==> i_Y~1",
            "clause: st :: a ==> b.",
            "select: id :: b ==> i_Y~1",
        ], "strategy and left-hand side must be ground when selected: id :: (b,s_Q~1) ==> s_R"),
        ("?(bare :: a ==> s_R, Result).", [
            "select: bare :: a ==> s_R",
            "clause: bare :: i_X ==> (i_X,s_Q).",
        ], "strategy and left-hand side must be ground when selected: id :: (a,s_Q~1) ==> s_R"),
        ("?(pcall :: a ==> s_R, Result).", [
            "select: pcall :: a ==> s_R",
            "clause: pcall :: i_X ==> ok :- p(i_X).",
            "select: p(a)",
            "clause: p(i_A) :- st :: i_A ==> i_B, q(i_C).",
            "select: st :: a ==> i_B~1",
            "clause: st :: a ==> b.",
            "select: id :: b ==> i_B~1",
        ], "predicate call is not ground: q(i_C~1)"),
        ("?(st :: a ==> s_X, st :: s_Y ==> s_Z, Result).", [
            "select: st :: a ==> s_X",
            "clause: st :: a ==> b.",
            "select: id :: b ==> s_X",
        ], "strategy and left-hand side must be ground when selected: st :: s_Y ==> s_Z"),
    ])
    def test_unready_goals_raise_when_selected(self, query, lines, error):
        assert traced(query, self.PROGRAM) == (lines, f"NonGroundRedexError: {error}")

    def test_an_unready_goal_that_is_never_selected_raises_nothing(self):
        lines, got = traced("?(st :: c ==> s_X, st :: s_Y ==> s_Z, Result).", self.PROGRAM)
        assert (lines, got) == (["select: st :: c ==> s_X"], [])

    def test_grounding_lint_reads_the_readiness_pass(self, caplog):
        with caplog.at_level("WARNING", logger="rholog.engine"):
            db_of(self.PROGRAM)
        later = "later :: i_X ==> i_Y :- st :: i_Z ==> i_Y, st :: i_X ==> i_Z."
        under = "under :: i_X ==> i_Y :- not(st :: i_X ==> i_Z), st :: i_Z ==> i_Y."
        assert caplog.messages == [
            f"variable i_Z may be unbound when its literal is selected: {later}",
            "variable i_Z may be unbound when its literal is selected: "
            "neg :: i_X ==> i_Y :- st :: i_X =\\=> i_Z, st :: i_Z ==> i_Y.",
            f"variable i_Z may be unbound when its literal is selected: {under}",
            f"variable i_Z may be unbound when its literal is selected: {under}",
            "right-hand side variable s_Q may never be bound: "
            "open :: i_X ==> (i_Y,s_Q) :- st :: i_X ==> i_Y.",
            "right-hand side variable s_Q may never be bound: bare :: i_X ==> (i_X,s_Q).",
        ]

    def test_flags_agree_with_the_groundness_of_instances(self):
        def needed(lit):
            if isinstance(lit, RhoAtom):
                return (lit.strategy,) + lit.lhs
            if isinstance(lit, PredAtom):
                return (Compound(lit.head),) + lit.args
            return needed(lit.inner) + needed_rhs(lit.inner)

        def needed_rhs(lit):
            return lit.rhs if isinstance(lit, RhoAtom) else ()

        flags = []
        for seed in range(300):
            rng = make_rng(seed)
            clause = rho_clause_with_body(rng)
            sigma = ground_subst_for(rng, (clause.strategy,) + clause.lhs)
            ((_, _, _, (_, _, ready, _)),) = db_of_clauses(clause).rho_for(
                "st", sigma.apply_hedge(clause.lhs))
            assert len(ready) == len(clause.body) + 1
            for lit, flag in zip(clause.body, ready):
                instance = apply_to_literal(dict(sigma.items()), lit)
                assert flag == is_ground(needed(instance)), (seed, lit)
                if isinstance(lit, RhoAtom) and lit.positive:
                    # the step binds whatever of its rhs is still free
                    more = ground_subst_for(rng, instance.rhs)
                    sigma = Subst({**dict(sigma.items()), **dict(more.items())})
            assert ready[-1] == is_ground(sigma.apply_hedge(clause.rhs)), seed
            flags += ready
        assert flags.count(True) > 200 and flags.count(False) > 200


def db_of_clauses(*clauses):
    return load_program(SourceProgram(clauses))


class TestGuards:
    """A clause's leading guard is tested in the clause-try loop, with the
    trace lines, degrees and errors its selection gives."""

    PROGRAM = (
        "g :: (i_X, i_Y) ==> i_X :- id :: i_X ==> i_Y.\n"
        "g :: (i_X, s_Y) ==> none.\n"
        "p :: (s_A, i_X, s_B, i_Y, s_C) ==> (i_X, i_Y) :- prox :: i_X ==> i_Y.\n"
        "p5 :: (s_A, i_X, s_B, i_Y, s_C) ==> (i_X, i_Y) :- "
        "prox(0.5) :: i_X ==> i_Y, id :: i_X ==> s_Z.\n"
        "le :: (s_A, i_X, i_Y, s_B) ==> (i_X, i_Y) :- i_X =< i_Y.\n"
        "nle :: (s_A, i_X, i_Y, s_B) ==> (i_X, i_Y) :- not(=<(i_X, i_Y)).\n"
        "by(f_F) :: (s_A, i_X, i_Y, s_B) ==> (i_X, i_Y) :- f_F(i_X, i_Y), id :: i_X ==> s_Z.\n"
        "small(1). small(2).\n"
        "up(i_X, i_Y) :- i_X < i_Y, small(i_X).\n"
    )
    REL = ProximityRelation([("a", "b", D("0.6")), ("b", "c", D("0.8"))])
    P = "p :: (s_A,i_X,s_B,i_Y,s_C) ==> (i_X,i_Y) :- prox :: i_X ==> i_Y."
    P5 = ("p5 :: (s_A,i_X,s_B,i_Y,s_C) ==> (i_X,i_Y) :- "
          "prox(0.5) :: i_X ==> i_Y, id :: i_X ==> s_Z.")
    LE = "le :: (s_A,i_X,i_Y,s_B) ==> (i_X,i_Y) :- =<(i_X,i_Y)."
    NLE = "nle :: (s_A,i_X,i_Y,s_B) ==> (i_X,i_Y) :- not(=<(i_X,i_Y))."
    BY = "by(f_F) :: (s_A,i_X,i_Y,s_B) ==> (i_X,i_Y) :- f_F(i_X,i_Y), id :: i_X ==> s_Z."
    UP = "up(i_X,i_Y) :- <(i_X,i_Y), small(i_X)."

    @pytest.mark.parametrize("query, lines, got", [
        ("?(g :: (a,b) ==> s_R, Result).", [
            "select: g :: (a,b) ==> s_R",
            "clause: g :: (i_X,i_Y) ==> i_X :- id :: i_X ==> i_Y.",
            "select: id :: a ==> b",
            "clause: g :: (i_X,s_Y) ==> none.",
            "select: id :: none ==> s_R",
        ], [("[s_R ---> none]", D(1))]),
        ("?(p :: (a,d,b) ==> s_R, 0.5, Degree, Result).", [
            "select: p :: (a,d,b) ==> s_R",
            f"clause: {P}", "select: prox :: a ==> b", "select: prox(0.5) :: (a,b) ==> s_R",
            f"clause: {P}", "select: prox :: a ==> d",
            f"clause: {P}", "select: prox :: d ==> b",
        ], [("[s_R ---> (a,b)]", D("0.6"))]),
        # the failed first hit still takes a fresh-name number (s_Z~1)
        ("?(p5 :: (a,b,c) ==> s_R, Result).", [
            "select: p5 :: (a,b,c) ==> s_R",
            f"clause: {P5}", "select: prox(0.5) :: a ==> c",
            f"clause: {P5}", "select: prox(0.5) :: a ==> b",
            "select: id :: a ==> s_Z~2", "select: id :: (a,b) ==> s_R",
            f"clause: {P5}", "select: prox(0.5) :: b ==> c",
            "select: id :: b ==> s_Z~3", "select: id :: (b,c) ==> s_R",
        ], [("[s_R ---> (a,b)]", D("0.6")), ("[s_R ---> (b,c)]", D("0.8"))]),
        ("?(le :: (3,1,2) ==> s_R, Result).", [
            "select: le :: (3,1,2) ==> s_R",
            f"clause: {LE}", "select: =<(3,1)",
            f"clause: {LE}", "select: =<(1,2)", "select: id :: (1,2) ==> s_R",
        ], [("[s_R ---> (1,2)]", D(1))]),
        ("?(nle :: (3,1,2) ==> s_R, Result).", [
            "select: nle :: (3,1,2) ==> s_R",
            f"clause: {NLE}", "negation: not(=<(3,1))", "select: =<(3,1)",
            "select: id :: (3,1) ==> s_R",
            f"clause: {NLE}", "negation: not(=<(1,2))", "select: =<(1,2)",
        ], [("[s_R ---> (3,1)]", D(1))]),
        ("?(by(=<) :: (3,1,2) ==> s_R, Result).", [
            "select: by(=<) :: (3,1,2) ==> s_R",
            f"clause: {BY}", "select: =<(3,1)",
            f"clause: {BY}", "select: =<(1,2)",
            "select: id :: 1 ==> s_Z~2", "select: id :: (1,2) ==> s_R",
        ], [("[s_R ---> (1,2)]", D(1))]),
        # f_F names a user predicate: no guard, the body runs as selected
        ("?(by(up) :: (3,1,2) ==> s_R, Result).", [
            "select: by(up) :: (3,1,2) ==> s_R",
            f"clause: {BY}", "select: up(3,1)", f"clause: {UP}", "select: <(3,1)",
            f"clause: {BY}", "select: up(1,2)", f"clause: {UP}", "select: <(1,2)",
            "select: small(1)", "clause: small(1).",
            "select: id :: 1 ==> s_Z~2", "select: id :: (1,2) ==> s_R",
        ], [("[s_R ---> (1,2)]", D(1))]),
        ("?(up(1, 3), up(3, 4), Result).", [
            "select: up(1,3)", f"clause: {UP}", "select: <(1,3)",
            "select: small(1)", "clause: small(1).",
            "select: up(3,4)", f"clause: {UP}", "select: <(3,4)", "select: small(3)",
        ], []),
        ("?(le :: (1,a) ==> s_R, Result).", [
            "select: le :: (1,a) ==> s_R", f"clause: {LE}", "select: =<(1,a)",
        ], "NonNumericError: =< needs numeric constants: =<(1,a)"),
    ])
    def test_traces_and_degrees(self, query, lines, got):
        assert traced(query, self.PROGRAM, self.REL) == (lines, got)

    EDGES = (
        "e1 :: (i_X, i_Y) ==> ok :- prox(abc) :: i_X ==> i_Y.\n"
        "e2 :: (i_X, i_Y) ==> ok :- prox(0.5, 0.6) :: i_X ==> i_Y.\n"
        "e3 :: (i_X, i_Y) ==> ok :- id(a) :: i_X ==> i_Y.\n"
        "e4 :: (i_X, i_Y) ==> ok :- =<(i_X, i_Y, i_X).\n"
        "e5 :: (i_X, i_Y) ==> ok :- not(=<(i_X, i_Y, i_X)).\n"
        "e6 :: (i_X, s_Y) ==> ok :- =<(i_X, s_Y).\n"
        "e7 :: (i_X, s_Y) ==> ok :- not(=<(i_X, s_Y)).\n"
        "e8(f_F) :: (i_X, s_Y) ==> ok :- not(f_F(i_X, s_Y)).\n"
        "e9(f_F) :: (i_X, i_Y, i_Z) ==> ok :- f_F(i_X, i_Y, i_Z).\n"
        "e10(i_M) :: (i_X, i_Y) ==> ok :- prox(i_M) :: i_X ==> i_Y.\n"
        "e11(i_M) :: (i_X, i_Y) ==> ok :- id(i_M) :: i_X ==> i_Y.\n"
    )
    E6 = "e6 :: (i_X,s_Y) ==> ok :- =<(i_X,s_Y)."
    E7 = "e7 :: (i_X,s_Y) ==> ok :- not(=<(i_X,s_Y))."
    E8 = "e8(f_F) :: (i_X,s_Y) ==> ok :- not(f_F(i_X,s_Y))."
    E9 = "e9(f_F) :: (i_X,i_Y,i_Z) ==> ok :- f_F(i_X,i_Y,i_Z)."
    E10 = "e10(i_M) :: (i_X,i_Y) ==> ok :- prox(i_M) :: i_X ==> i_Y."
    OK = ["select: id :: ok ==> s_R"]
    ONE_OK = [("[s_R ---> ok]", D(1))]
    NOT_TWO = "ArityError: =< takes two arguments"

    # whether the engine tests a first literal as a guard or not, it gives
    # the lines, answers and errors that selecting it in the body gives
    @pytest.mark.parametrize("redex, clause, lines, got", [
        ("e1 :: (a,b)", "e1 :: (i_X,i_Y) ==> ok :- prox(abc) :: i_X ==> i_Y.",
         ["select: prox(abc) :: a ==> b"], "NonNumericError: prox needs a numeric threshold"),
        ("e2 :: (a,b)", "e2 :: (i_X,i_Y) ==> ok :- prox(0.5,0.6) :: i_X ==> i_Y.",
         ["select: prox(0.5,0.6) :: a ==> b"], "ArityError: prox takes at most one argument"),
        ("e3 :: (a,b)", "e3 :: (i_X,i_Y) ==> ok :- id(a) :: i_X ==> i_Y.",
         ["select: id(a) :: a ==> b"], "ArityError: id takes no arguments"),
        ("e4 :: (1,2)", "e4 :: (i_X,i_Y) ==> ok :- =<(i_X,i_Y,i_X).",
         ["select: =<(1,2,1)"], NOT_TWO),
        ("e5 :: (1,2)", "e5 :: (i_X,i_Y) ==> ok :- not(=<(i_X,i_Y,i_X)).",
         ["negation: not(=<(1,2,1))", "select: =<(1,2,1)"], NOT_TWO),
        ("e6 :: 1", E6, ["select: =<(1)"], NOT_TWO),
        ("e6 :: (1,2)", E6, ["select: =<(1,2)"] + OK, ONE_OK),
        ("e6 :: (2,1)", E6, ["select: =<(2,1)"], []),
        ("e6 :: (1,2,3)", E6, ["select: =<(1,2,3)"], NOT_TWO),
        ("e7 :: 1", E7, ["negation: not(=<(1))", "select: =<(1)"], NOT_TWO),
        ("e7 :: (1,2)", E7, ["negation: not(=<(1,2))", "select: =<(1,2)"], []),
        ("e7 :: (2,1)", E7, ["negation: not(=<(2,1))", "select: =<(2,1)"] + OK, ONE_OK),
        ("e7 :: (1,2,3)", E7, ["negation: not(=<(1,2,3))", "select: =<(1,2,3)"], NOT_TWO),
        ("e8(=<) :: (2,1)", E8, ["negation: not(=<(2,1))", "select: =<(2,1)"] + OK, ONE_OK),
        ("e8(=<) :: (1,2)", E8, ["negation: not(=<(1,2))", "select: =<(1,2)"], []),
        ("e8(<) :: (1,a)", E8, ["negation: not(<(1,a))", "select: <(1,a)"],
         "NonNumericError: < needs numeric constants: <(1,a)"),
        ("e9(=<) :: (1,2,3)", E9, ["select: =<(1,2,3)"], NOT_TWO),
        ("e9(<) :: (a,b,c)", E9, ["select: <(a,b,c)"], "ArityError: < takes two arguments"),
        ("e10(0.5) :: (a,b)", E10, ["select: prox(0.5) :: a ==> b"] + OK,
         [("[s_R ---> ok]", D("0.6"))]),
        ("e10(0.7) :: (a,b)", E10, ["select: prox(0.7) :: a ==> b"], []),
        ("e10(abc) :: (a,b)", E10, ["select: prox(abc) :: a ==> b"],
         "NonNumericError: prox needs a numeric threshold"),
        ("e11(a) :: (a,b)", "e11(i_M) :: (i_X,i_Y) ==> ok :- id(i_M) :: i_X ==> i_Y.",
         ["select: id(a) :: a ==> b"], "ArityError: id takes no arguments"),
    ])
    def test_guard_edge_cases_select_as_the_body_would(self, redex, clause, lines, got):
        want = [f"select: {redex} ==> s_R", f"clause: {clause}"] + lines
        assert traced(f"?({redex} ==> s_R, Result).", self.EDGES, self.REL) == (want, got)

    def test_which_first_literals_are_guards(self):
        program = (
            "s :: (i_X, i_Y) ==> ok :- id :: i_X ==> i_Y.\n"
            "s :: (i_X, i_Y) ==> ok :- prox(0.5) :: i_X ==> i_Y.\n"
            "s(f_F) :: (i_X, i_Y) ==> ok :- not(f_F(i_X, i_Y)).\n"
            "s :: (i_X, i_Y) ==> ok :- not(f_F(i_X, i_Y)).\n"
            "s :: (i_X, i_Y) ==> ok :- prox(abc) :: i_X ==> i_Y.\n"
            "s :: (i_X, i_Y) ==> ok :- =<(i_X, i_Y, i_X).\n"
            "s :: (i_X, s_Y) ==> ok :- =<(i_X, s_Y).\n"
            "s :: (i_X, i_Y) ==> ok :- id(a) :: i_X ==> i_Y.\n"
            "s :: (i_X, i_Y) ==> ok :- id :: i_X ==> i_Z.\n"
            "s :: (i_X, i_Y) ==> ok :- id :: i_X =\\=> i_Y.\n"
            "s :: (i_X, i_Y) ==> ok :- small(i_X).\n"
        )
        entries = db_of(program).rho_for("s", (T("a"), T("b")))
        guards = [facts[3] is not None for _, _, _, facts in entries]
        assert guards == [True] * 3 + [False] + [True] * 4 + [False] * 3

    def test_failed_guards_build_no_body(self, monkeypatch):
        degree_calls, instantiated = [], []
        degree, apply = ProximityRelation.degree, rholog.engine.apply_to_literal

        def counted_degree(rel, a, b):
            degree_calls.append((a, b))
            return degree(rel, a, b)

        def counted_apply(subst, lit):
            instantiated.append(lit)
            return apply(subst, lit)

        monkeypatch.setattr(ProximityRelation, "degree", counted_degree)
        monkeypatch.setattr(rholog.engine, "apply_to_literal", counted_apply)
        bundled = (PROGRAMS / "proximity.rho").read_text(encoding="utf-8")
        rel = ProximityRelation(parse_proximity_decls(
            (PROGRAMS / "proximity.prox").read_text(encoding="utf-8")))
        query = "?(merge_proximals :: (a,b,d,b,c) ==> s_Ans, 0.5, Degree, Result)."
        want = [
            ("[s_Ans ---> (b,d,b,c)]", D("0.6")), ("[s_Ans ---> (b,d,b,c)]", D("0.6")),
            ("[s_Ans ---> (a,d,b,c)]", D("0.8")), ("[s_Ans ---> (a,d,b,c)]", D(1)),
            ("[s_Ans ---> (a,b,d,c)]", D("0.8")),
        ]
        # ten heads hit, each guard asks for one degree, five pass
        assert results(query, bundled, rel) == want
        assert len(degree_calls) == 10 and instantiated == []
        # with a second body literal, only the five hits that pass build it
        degree_calls.clear()
        longer = bundled.replace("prox :: i_X ==> i_Y.", "prox :: i_X ==> i_Y, id :: a ==> a.")
        assert results(query, longer, rel) == want
        assert len(degree_calls) == 10 and len(instantiated) == 5


class TestSequenceHeadGuards:
    """``TestGuards``' edge cases on heads with sequence variables, which run compiled
    code: each gives the trace lines, answers and errors that selecting the guard in
    the body gives, traced or not, and a guard no candidate reaches raises nothing."""

    EDGES = (
        "e1 :: (s_A, i_X, s_B, i_Y, s_C) ==> ok :- prox(abc) :: i_X ==> i_Y.\n"
        "e2 :: (s_A, i_X, s_B, i_Y, s_C) ==> ok :- prox(0.5, 0.6) :: i_X ==> i_Y.\n"
        "e3 :: (s_A, i_X, s_B, i_Y, s_C) ==> ok :- id(a) :: i_X ==> i_Y.\n"
        "e4 :: (s_A, i_X, s_B, i_Y, s_C) ==> (i_X, i_Y) :- prox(0.5) :: i_X ==> i_Y.\n"
        "e5 :: (s_A, i_X, s_B, i_Y, s_C) ==> i_X :- id :: i_X ==> i_Y.\n"
        "e6(i_M) :: (s_A, i_X, s_B, i_Y, s_C) ==> ok :- prox(i_M) :: i_X ==> i_Y.\n"
        "e7 :: (s_A, i_X, s_B, i_Y, s_C) ==> ok :- =<(i_X, i_Y, i_X).\n"
    )
    NUMERIC = "NonNumericError: prox needs a numeric threshold"

    @pytest.mark.parametrize("redex, got", [
        ("e1 :: (a,b,c)", NUMERIC),
        ("e1 :: a", []),
        ("e2 :: (a,b,c)", "ArityError: prox takes at most one argument"),
        ("e2 :: eps", []),
        ("e3 :: (a,b)", "ArityError: id takes no arguments"),
        ("e3 :: a", []),
        ("e4 :: (a,b,c)", [("[s_R ---> (a,b)]", D("0.6")), ("[s_R ---> (b,c)]", D("0.8"))]),
        ("e5 :: (a,b,a,b)", [("[s_R ---> a]", D(1)), ("[s_R ---> b]", D(1))]),
        ("e6(0.7) :: (a,b,c)", [("[s_R ---> ok]", D("0.8"))]),
        ("e6(abc) :: (a,b,c)", NUMERIC),
        ("e7 :: (1,2)", "ArityError: =< takes two arguments"),
        ("e7 :: 1", []),
    ])
    def test_guards_select_as_the_body_would(self, monkeypatch, redex, got):
        query = f"?({redex} ==> s_R, Result)."
        lines, found = traced(query, self.EDGES, REL)
        assert found == got
        assert lines[0] == f"select: {redex} ==> s_R"
        db = db_of(self.EDGES)
        try:  # untraced
            plain = [(render_answer(a), a.degree) for a in solve(db, parse_query(query), REL)]
        except RhoError as exc:
            plain = f"{type(exc).__name__}: {exc}"
        assert plain == got
        (_, _, (_, _, cell), _), *_ = db.rho_for(redex[:2], (T("a"),))
        assert cell[0]  # the head's compiled code ran
        monkeypatch.setattr(rholog.engine, "_leading_guard", lambda lit, head_vars, parts: None)
        assert traced(query, self.EDGES, REL) == (lines, found)


def bench_workload(name):
    """The queries and files of a bench workload at seed 7 (``bench/workloads.py``)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module.make(name, 7)


class TestCompiledShapes:
    """A clause head that may have several matchers is compiled on its first try and
    kept in its index entry, its shape's source compiled once; a head with at most
    one is never compiled."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        sources, source_of = [], rholog.matching._head_source

        def counted(head, at):
            sources.append(source_of(head, at))
            return sources[-1]

        monkeypatch.setattr(rholog.matching, "_head_source", counted)
        rholog.matching._maker.cache_clear()
        return sources

    def test_a_rule_base_of_single_matcher_heads_compiles_nothing(self, compiled):
        workload = bench_workload("rulebase")
        db = db_of(workload.files["rules.rho"])
        assert len(db.rho_clauses) == 3000
        for query in workload.queries[:100]:
            assert len(list(solve(db, parse_query(query.text)))) == 1
        assert compiled == []
        assert rholog.matching._maker.cache_info().misses == 0

    def test_the_proximity_queries_compile_one_shape(self, compiled):
        workload = bench_workload("proximity")
        db = db_of((PROGRAMS / "proximity.rho").read_text(encoding="utf-8"))
        rel = ProximityRelation(parse_proximity_decls(workload.files["relation.prox"]))
        for query in workload.queries[:60]:
            assert len(list(solve(db, parse_query(query.text), rel))) == 1
        assert len(compiled) == 1 and rholog.matching._maker.cache_info().misses == 1

    def test_heads_of_one_shape_share_one_compile(self, compiled):
        program = "".join(f"{name} :: (s_A, i_X, s_B) ==> i_X.\n" for name in ("p", "q"))
        program += "r :: (s_A, f(i_X), s_B) ==> i_X.\n"
        db = db_of(program)
        for name in "pqrpqr":
            assert list(solve(db, parse_query(f"?({name} :: (a, f(b)) ==> s_R, Result).")))
        assert len(compiled) == 3 and rholog.matching._maker.cache_info().misses == 2

    def test_a_head_with_a_list_of_arguments(self):
        # Compound takes a list of arguments, which has no hash
        i_X, s_A, s_B = IndVar("i_X"), SeqVar("s_A"), SeqVar("s_B")
        clause = RhoClause(atom("d"), (s_A, Compound(Sym("f"), [i_X]), s_B), (i_X,), ())
        redex = (atom("a"), Compound(Sym("f"), [atom("b")]), call("f", atom("c")))
        query = Query((RhoAtom(atom("d"), redex, (SeqVar("s_R"),)),))
        got = [str(a.bindings) for a in solve(db_of_clauses(clause), query)]
        assert got == ["{s_R -> b}", "{s_R -> c}"]


class TestGuardPosition:
    """The head matcher tests a leading guard just after the last top-level head
    item holding one of its variables if only a sequence variable new there
    follows, and else at the end of the head, once the subject is used up: each
    test stands for one matcher the head has without it, in the same order."""

    REL = ProximityRelation([("a", "b", D("0.6")), ("b", "c", D("0.8"))])
    REFUTABLE = "r :: (s_A,i_X,i_Y,s_B,z) ==> ok :- =<(i_X,i_Y)."
    TWO_TAILS = "w :: (s_A,i_X,i_Y,s_B,s_C) ==> (i_X,i_Y) :- =<(i_X,i_Y)."
    PAIR = "t :: (i_X,i_Y) ==> ok :- =<(i_X,i_Y)."
    FROM_HEAD = "h :: (s_A,p(i_T,i_X,i_Y),s_B) ==> (i_X,i_Y) :- prox(i_T) :: i_X ==> i_Y."
    LOCAL = "l :: (s_A,i_X,i_Y,s_B) ==> s_Z :- =<(i_X,i_Y), id :: i_X ==> s_Z."

    def test_no_test_where_the_rest_of_the_head_cannot_match(self):
        # testing right after i_Y would compare a and b and raise NonNumericError
        query = "?(r :: (a,b,c) ==> s_R, Result)."
        assert traced(query, self.REFUTABLE) == (["select: r :: (a,b,c) ==> s_R"], [])

    def test_no_end_test_while_the_subject_has_items_left(self):
        query = "?(t :: (1,2,3) ==> s_R, Result)."
        assert traced(query, self.PAIR) == (["select: t :: (1,2,3) ==> s_R"], [])
        lines, got = traced("?(t :: (2,1) ==> s_R, Result).", self.PAIR)
        assert lines == ["select: t :: (2,1) ==> s_R", f"clause: {self.PAIR}",
                         "select: =<(2,1)"] and got == []

    def test_one_guard_test_per_full_head_matcher(self):
        clause = f"clause: {self.TWO_TAILS}"
        step = "select: id :: ({}) ==> s_R".format
        assert traced("?(w :: (1,2,3) ==> s_R, Result).", self.TWO_TAILS) == ([
            "select: w :: (1,2,3) ==> s_R",
            clause, "select: =<(1,2)", step("1,2"),
            clause, "select: =<(1,2)", step("1,2"),
            clause, "select: =<(2,3)", step("2,3"),
        ], [("[s_R ---> (1,2)]", D(1))] * 2 + [("[s_R ---> (2,3)]", D(1))])

    def test_the_bundled_merge_yields_only_candidates_that_pass(self, monkeypatch):
        yielded, original = [], rholog.engine.match_hedge

        def recorded(pattern, subject, **kwargs):
            for item in original(pattern, subject, **kwargs):
                if pattern[0] == T("merge_proximals"):
                    yielded.append(item[0] if isinstance(item, tuple) else item)
                yield item

        monkeypatch.setattr(rholog.engine, "match_hedge", recorded)
        rel = ProximityRelation(parse_proximity_decls(
            (PROGRAMS / "proximity.prox").read_text(encoding="utf-8")))
        query = "?(merge_proximals :: (a,b,d,b,c) ==> s_Ans, 0.5, Degree, Result)."
        got = results(query, (PROGRAMS / "proximity.rho").read_text(encoding="utf-8"), rel)
        assert len(got) == len(yielded) == 5
        i_x, i_y = IndVar("i_X"), IndVar("i_Y")
        assert all(rel.degree(s.get(i_x).head, s.get(i_y).head) >= D("0.5") for s in yielded)

    def test_a_threshold_from_the_head_is_read_per_candidate(self):
        query = "?(h :: (p(0.5,a,b), p(0.7,a,b), p(0.5,b,c)) ==> s_R, Result)."
        lines, got = traced(query, self.FROM_HEAD, self.REL)
        assert [line for line in lines if line.startswith("select: prox(")] == [
            "select: prox(0.5) :: a ==> b", "select: prox(0.7) :: a ==> b",
            "select: prox(0.5) :: b ==> c"]
        assert got == [("[s_R ---> (a,b)]", D("0.6")), ("[s_R ---> (b,c)]", D("0.8"))]

    def test_failed_guards_still_take_fresh_names(self):
        lines, got = traced("?(l :: (3,2,1,2) ==> s_R, Result).", self.LOCAL)
        assert lines == [
            "select: l :: (3,2,1,2) ==> s_R",
            f"clause: {self.LOCAL}", "select: =<(3,2)",
            f"clause: {self.LOCAL}", "select: =<(2,1)",
            f"clause: {self.LOCAL}", "select: =<(1,2)",
            "select: id :: 1 ==> s_Z~3", "select: id :: 1 ==> s_R",
        ]
        assert got == [("[s_R ---> 1]", D(1))]

    def test_a_guard_asks_for_the_degrees_its_step_would(self, monkeypatch):
        # the pair (d, a) scores 0: the walk stops there, as the matcher does
        asked, degree = [], ProximityRelation.degree

        def counted(rel, a, b):
            asked.append((a.name, b.name))
            return degree(rel, a, b)

        monkeypatch.setattr(ProximityRelation, "degree", counted)
        program = "z :: (i_X, i_Y) ==> ok :- prox :: g(i_X, i_Y) ==> g(d, i_Y)."
        assert results("?(z :: (a, b) ==> s_R, 0, Degree, Result).", program, self.REL) == []
        assert asked == [("g", "g"), ("d", "a")]
