from decimal import Decimal

import pytest

from rholog import (
    Compound,
    CtxApply,
    FunVar,
    IndVar,
    NotGoal,
    PredAtom,
    PredClause,
    RhoAtom,
    RhoClause,
    SeqVar,
    SourceProgram,
    StrategyAbbrev,
    Sym,
    parse_literal,
    parse_program,
    parse_proximity_decls,
    parse_query,
    parse_sequence,
    parse_term,
    render_program,
    render_sequence,
)
from rholog.errors import (
    DegreeRangeError,
    ParseError,
    RhoError,
    ThresholdRangeError,
    UnsupportedFeatureError,
)
from rholog.parser import Token, tokenize

from tests.genrand import ground_hedge, make_rng, pattern_hedge, rule_sides
from tests.test_engine import in_fresh_interpreter

SORTING = """
swap(f_Ordering) :: (s_X, i_I, i_J, s_Y) ==> (s_X, i_J, i_I, s_Y) :-
    not(f_Ordering(i_I, i_J)).
bubble_sort(f_Ordering) := first_one(nf(swap(f_Ordering))).
"""


class TestPrograms:
    def test_sorting_program_shapes(self):
        program = parse_program(SORTING)
        swap, abbrev = program.clauses
        assert isinstance(swap, RhoClause)
        assert swap.strategy == parse_term("swap(f_Ordering)")
        assert swap.lhs == parse_sequence("(s_X, i_I, i_J, s_Y)")
        assert swap.rhs == parse_sequence("(s_X, i_J, i_I, s_Y)")
        assert swap.body == (
            NotGoal(PredAtom(FunVar("f_Ordering"), (IndVar("i_I"), IndVar("i_J")))),
        )
        assert isinstance(abbrev, StrategyAbbrev)
        assert abbrev.lhs == parse_term("bubble_sort(f_Ordering)")
        assert abbrev.rhs == parse_term("first_one(nf(swap(f_Ordering)))")

    def test_empty_input(self):
        assert parse_program("").clauses == ()
        assert parse_program("  % only a comment\n").clauses == ()

    def test_unclosed_paren_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("f(a")
        assert err.value.line == 1
        assert err.value.col == 4

    def test_where_is_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_program("st :: s_X ==> s_Y where r :- other :: s_X ==> s_Y.")

    def test_fact_and_rule_predicates(self):
        program = parse_program("p(a). q(i_X) :- p(i_X).")
        fact, rule = program.clauses
        assert fact == PredClause("p", (parse_term("a"),))
        assert rule == PredClause(
            "q", (IndVar("i_X"),), (PredAtom(Sym("p"), (IndVar("i_X"),)),)
        )

    def test_negated_clause_head_is_rejected(self):
        with pytest.raises(ParseError):
            parse_program("st :: a =\\=> b.")

    def test_comparison_symbol_as_strategy_argument(self):
        clause = parse_program("p(=<) :: a ==> b.").clauses[0]
        assert clause.strategy == Compound(Sym("p"), (Compound(Sym("=<")),))

    def test_clause_ends_matter(self):
        with pytest.raises(ParseError):
            parse_program("st :: a ==> b")


class TestTermsAndSequences:
    def test_variable_kinds_from_prefixes(self):
        assert parse_term("i_X") == IndVar("i_X")
        assert parse_sequence("s_X") == (SeqVar("s_X"),)
        assert parse_term("f_X(a)") == Compound(FunVar("f_X"), (parse_term("a"),))
        assert parse_term("c_X(a)") == CtxApply(parse_term("c_X(a)").var, parse_term("a"))

    def test_empty_variable_base_is_an_error(self):
        with pytest.raises(ParseError):
            parse_term("i_")

    def test_eps_normalizes_away(self):
        assert parse_sequence("(a, eps, b)") == parse_sequence("(a,b)")
        assert parse_sequence("eps") == ()

    def test_nested_parens_splice(self):
        assert parse_sequence("((a,b),c)") == parse_sequence("(a,b,c)")
        assert parse_term("f((a,b),c)") == parse_term("f(a,b,c)")

    def test_sequence_variable_not_allowed_as_context_argument(self):
        with pytest.raises(ParseError):
            parse_term("c_X(s_Y)")

    def test_numbers(self):
        assert parse_sequence("(1,3,4,3,2)") == tuple(
            Compound(Sym(k)) for k in "13432"
        )
        assert parse_term("0.5") == Compound(Sym("0.5"))

    def test_trailing_clause_dot_after_integer(self):
        clause = parse_program("p(5).").clauses[0]
        assert clause == PredClause("p", (Compound(Sym("5")),))

    def test_hole_parses(self):
        assert parse_term("f(hole)") == Compound(Sym("f"), (parse_term("hole"),))

    def test_empty_groups_splice_away(self):
        assert parse_sequence("(a, (), b)") == parse_sequence("(a,b)")
        assert parse_term("f((), a)") == parse_term("f(a)")

    def test_non_decimal_digits_make_an_identifier(self):
        assert [t.kind for t in tokenize("² 1² 7")] == ["ident", "ident", "num", "eof"]


class TestLiterals:
    def test_infix_comparison(self):
        assert parse_literal("3 =< 4") == PredAtom(
            Sym("=<"), (Compound(Sym("3")), Compound(Sym("4")))
        )

    def test_prefix_comparison(self):
        assert parse_literal("=<(3, 4)") == parse_literal("3 =< 4")

    def test_not_wraps_literals(self):
        lit = parse_literal("not(4 =< 3)")
        assert lit == NotGoal(parse_literal("4 =< 3"))

    def test_rho_literal(self):
        lit = parse_literal("st :: eps ==> s_X")
        assert lit == RhoAtom(parse_term("st"), (), (SeqVar("s_X"),))

    def test_negative_rho_literal(self):
        lit = parse_literal("st :: a =\\=> b")
        assert not lit.positive


class TestQueries:
    def test_two_argument_form(self):
        q = parse_query("?(bubble_sort(=<) :: (1,3,4,3,2) ==> s_X, Result).")
        assert q.threshold is None
        assert not q.wants_degree
        assert q.result_var == "Result"
        (goal,) = q.goal
        assert isinstance(goal, RhoAtom)
        assert goal.rhs == (SeqVar("s_X"),)

    def test_four_argument_form(self):
        q = parse_query(
            "?(merge_all_proximals :: (a,b,d,b,c) ==> s_Ans, 0.5, Degree, Result)."
        )
        assert q.threshold == Decimal("0.5")
        assert q.degree_var == "Degree"
        assert q.result_var == "Result"

    def test_empty_lhs(self):
        q = parse_query("?(st :: eps ==> s_X, Result).")
        assert q.goal[0].lhs == ()

    def test_threshold_out_of_range(self):
        with pytest.raises(ThresholdRangeError):
            parse_query("?(a :: b ==> c, 1.5, D, R).")

    def test_missing_result_variable(self):
        with pytest.raises(ParseError):
            parse_query("?(st :: a ==> b).")

    def test_marker_in_goal_position(self):
        with pytest.raises(ParseError):
            parse_query("?(Oops, st :: a ==> b, Result).")

    def test_multi_literal_goal(self):
        q = parse_query("?(st :: a ==> i_X, i_X =< 4, Result).")
        assert len(q.goal) == 2

    def test_short_marker_names(self):
        q = parse_query("?(a :: b ==> c, 0.9, D, R).")
        assert q.degree_var == "D"
        assert q.result_var == "R"

    @pytest.mark.parametrize("threshold", ["nan", "NaN", "sNaN", "0E5"])
    def test_threshold_must_be_a_number(self, threshold):
        with pytest.raises(ParseError):
            parse_query(f"?(st :: a ==> s_X, {threshold}, D, R).")


class TestProximityDecls:
    def test_two_entries(self):
        got = parse_proximity_decls("prox(a,b,0.6). prox(b,c,0.8).")
        assert got == [
            (Sym("a"), Sym("b"), Decimal("0.6")),
            (Sym("b"), Sym("c"), Decimal("0.8")),
        ]

    def test_empty_file(self):
        assert parse_proximity_decls("") == []

    def test_zero_degree_is_rejected(self):
        with pytest.raises(DegreeRangeError):
            parse_proximity_decls("prox(a,b,0).")

    def test_variables_are_not_symbols(self):
        with pytest.raises(ParseError):
            parse_proximity_decls("prox(i_X,b,0.5).")

    def test_comments_and_numerals(self):
        got = parse_proximity_decls("% close enough\nprox(3, 4, 0.9).")
        assert got == [(Sym("3"), Sym("4"), Decimal("0.9"))]

    def test_non_decimal_digits_are_not_a_degree(self):
        with pytest.raises(ParseError):
            parse_proximity_decls("prox(a, b, ²).")


class TestPositions:
    def test_tokens_after_comments_crlf_and_tabs(self):
        tokens = tokenize("a % note\r\n\tb(\t1.5)\r\n  % end\n  c")
        assert [(t.kind, t.text, t.line, t.col) for t in tokens] == [
            ("ident", "a", 1, 1),
            ("ident", "b", 2, 2),
            ("punct", "(", 2, 3),
            ("num", "1.5", 2, 5),
            ("punct", ")", 2, 8),
            ("ident", "c", 4, 3),
            ("eof", "", 4, 4),
        ]

    def test_unexpected_character_on_line_three(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(a).\n% q(b).\nq(b) ! r.")
        assert (err.value.line, err.value.col) == (3, 6)
        assert str(err.value) == "unexpected character '!' at line 3, column 6"

    def test_end_of_input_after_a_trailing_comment(self):
        assert tokenize("a % tail")[-1] == Token("eof", "", 1, 9)
        assert tokenize("a\n% x")[-1] == Token("eof", "", 2, 4)
        with pytest.raises(ParseError) as err:
            parse_program("st :: a ==> b % no dot")
        assert (err.value.line, err.value.col) == (1, 23)
        assert err.value.expected == ("'.'",)


# Shapes and slot fillers for the leak fuzz: the grammar's tokens, words
# that are not grammar numbers (nan, 0E5, ²) and reserved words out of place.
_SLOTS = {
    "T": ("a", "f(a)", "i_X", "c_C(a)", "f_F(s_X)", "hole", "eps", "=<", "g((), a)", "where"),
    "S": ("eps", "s_X", "(a, s_X)", "()", "(a, (), b)", "b", "i_"),
    "N": ("0", "1", "0.5", "1.5", "nan", "NaN", "²", "0E5", "a"),
    "M": ("R", "D", "r", "i_X"),
}
_SHAPES = (
    "T :: S ==> S .", "T :: S ==> S :- T :: S =\\=> S , T =< T .", "T := T .",
    "T :- not ( T ) .", "T :: S ==> S where T .", "? ( T :: S ==> S , M ) .",
    "? ( T :: S ==> S , N , M , M ) .", "prox ( T , T , N ) .", "T", "S",
    "not ( T :: S ==> S )",
)
_POOL = tuple(
    "( ) , . ? :: ==> =\\=> :- := =< < > >= a f st not prox R D i_X s_X f_F c_C "
    "0 1 0.5 1.5 nan ² hole eps where".split()
)
_PARSERS = (parse_program, parse_query, parse_term, parse_sequence, parse_literal,
            parse_proximity_decls)


def _fuzz_text(rng):
    words = []
    for part in rng.choice(_SHAPES).split():
        words.extend(rng.choice(_SLOTS[part]).split() if part in _SLOTS else [part])
    for _ in range(rng.choice((0, 0, 1, 2))):
        at = rng.randrange(len(words) + 1)
        edit = rng.randrange(3)
        if edit == 0 and at < len(words):
            del words[at]
        elif edit == 1:
            words.insert(at, rng.choice(_POOL))
        elif at < len(words):
            words[at] = rng.choice(_POOL)
    return " ".join(words)


class TestDeepNesting:
    """Nesting deeper than the Python stack allows is a ``ParseError``. Run in
    a new interpreter, which starts at its default recursion limit."""

    def test_too_deep_a_term_is_a_parse_error(self):
        out = in_fresh_interpreter(
            "from rholog import *\n"
            "from rholog.errors import ParseError\n"
            "def nest(d): return 'f(' * d + 'a' + ')' * d\n"
            "def depth(t):\n"
            "    d = 0\n"
            "    while t.args:\n"
            "        t, d = t.args[0], d + 1\n"
            "    return d\n"
            "print(depth(parse_term(nest(330))), depth(parse_sequence(nest(330))[0]))\n"
            "deep = nest(2000)\n"
            "for parse, text in [(parse_term, deep), (parse_sequence, deep),\n"
            "                    (parse_literal, f'p({deep})'),\n"
            "                    (parse_program, f'p({deep}).'),\n"
            "                    (parse_query, f'?(p({deep}), R).')]:\n"
            "    try:\n"
            "        parse(text)\n"
            "    except ParseError as exc:\n"
            "        print(str(exc).split(' at ')[0])\n"
        )
        assert out.splitlines() == ["330 330"] + ["term nested too deeply"] * 5


class TestNoLeaks:
    def test_parsers_raise_only_rho_errors(self):
        rng = make_rng(97)
        for _ in range(3000):
            text = _fuzz_text(rng)
            for parse in _PARSERS:
                try:
                    parse(text)
                except RhoError:
                    pass


class TestRoundTrip:
    def test_ground_sequence_round_trip_goldens(self):
        for text in ("eps", "a", "(a,b)", "f(a,g(b,c))", "(f(),g(a))", "(1,2,3,3,4)"):
            h = parse_sequence(text)
            assert parse_sequence(render_sequence(h)) == h

    def test_ground_sequence_round_trip_random(self):
        rng = make_rng(41)
        for _ in range(300):
            h = ground_hedge(rng)
            assert parse_sequence(render_sequence(h)) == h

    def test_program_render_reparse_fixpoint(self):
        program = parse_program(SORTING)
        once = render_program(program)
        assert parse_program(once) == program
        assert render_program(parse_program(once)) == once

    def test_pattern_round_trip_random(self):
        rng = make_rng(43)
        for _ in range(500):
            h = pattern_hedge(rng)
            assert parse_sequence(render_sequence(h)) == h

    def test_rule_program_round_trip_random(self):
        rng = make_rng(47)
        clauses = []
        while len(clauses) < 200:
            sides = [rule_sides(rng) for _ in range(3)]
            if None in sides:
                continue
            (lhs, rhs), (b_lhs, b_rhs), (n_lhs, n_rhs) = sides
            body = (
                RhoAtom(Compound(Sym("st2")), b_lhs, b_rhs, rng.random() < 0.7),
                NotGoal(RhoAtom(Compound(Sym("st3")), n_lhs, n_rhs)),
                PredAtom(Sym("=<"), (Compound(Sym("1")), Compound(Sym("2.5")))),
            )[: rng.randrange(1, 4)]
            clauses.append(RhoClause(Compound(Sym("st"), (IndVar("i_S"),)), lhs, rhs, body))
        program = SourceProgram(tuple(clauses))
        assert parse_program(render_program(program)) == program
