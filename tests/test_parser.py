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
from rholog.terms import numeral_value

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
        assert [numeral_value(parse_term(t)) for t in ("²", "1²", "7")] == [None, None, 7]
        # an identifier takes arguments, a number does not
        assert parse_term("1²(a)") == Compound(Sym("1²"), (Compound(Sym("a")),))
        with pytest.raises(ParseError):
            parse_term("7(a)")


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
        assert q.degree_var is None
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

    def test_degree_marker_cannot_be_the_result_marker(self):
        with pytest.raises(ParseError) as err:
            parse_query("?(id :: a ==> s_X,\n  0.5, R, R).")
        assert str(err.value) == (
            "marker R names both the degree and the result at line 2, column 11"
        )

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
        # one error at each token of "a % note\r\n\tb(\t1.5)\r\n  % end\n  c",
        # made by changing the text at that token and at none before it
        cases = [
            (") % note", 1, 1),
            ("a % note\r\n\tb(\t1.5)", 2, 2),
            ("  % note\r\n\tb,\t1.5)", 2, 3),
            ("  % note\r\n\tb(\t:- )", 2, 5),
            ("  % note\r\n\tb(\t1.5.", 2, 8),
            ("  % note\r\n\tb(\t1.5)\r\n  % end\n  c", 4, 3),
            ("  % note\r\n\tb(\t1.5,\r\n  % end\n  c", 4, 4),
        ]
        for text, line, col in cases:
            with pytest.raises(ParseError) as err:
                parse_term(text)
            assert (err.value.line, err.value.col) == (line, col), text

    def test_unexpected_character_on_line_three(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(a).\n% q(b).\nq(b) ! r.")
        assert (err.value.line, err.value.col) == (3, 6)
        assert str(err.value) == "unexpected character '!' at line 3, column 6"

    def test_end_of_input_after_a_trailing_comment(self):
        for text, line, col in (("a % tail", 1, 9), ("a\n% x", 2, 4)):
            with pytest.raises(ParseError) as err:
                parse_program(text)
            assert (err.value.line, err.value.col) == (line, col)
            assert str(err.value).startswith("unexpected end of input")
        with pytest.raises(ParseError) as err:
            parse_program("st :: a ==> b % no dot")
        assert (err.value.line, err.value.col) == (1, 23)
        assert err.value.expected == ("'.'",)


# (parser, text, message, line, column, expected): one case or more per place
# in parser.py that raises a ParseError, over one-line, multi-line, CRLF and
# tab inputs. The message is given without its position and hint.
_ERROR_GOLDENS = [
    # the scan: a character no token starts with
    (parse_program, "p(a).\n% q(b).\nq(b) ! r.", "unexpected character '!'", 3, 6, ()),
    (parse_program, "p(a).\r\n\tq(b) $", "unexpected character '$'", 2, 7, ()),
    # expect_punct
    (parse_program, "f(a", "unexpected end of input", 1, 4, ("')'",)),
    (parse_program, "st :: a ==> b % no dot", "unexpected end of input", 1, 23, ("'.'",)),
    (parse_program, "st :: a\n\t  b.", "unexpected 'b'", 2, 4, ("'==>'",)),
    (parse_program, "st :: a ==> b\nst2 :: a ==> b.", "unexpected 'st2'", 2, 1, ("'.'",)),
    (parse_sequence, "(a,\n\t b", "unexpected end of input", 2, 4, ("')'",)),
    (parse_query, "?(st :: a ==> s_X, Result)", "unexpected end of input", 1, 27, ("'.'",)),
    (parse_query, "(st :: a ==> s_X, R).", "unexpected '('", 1, 1, ("'?'",)),
    # expect_eof
    (parse_term, "f(a) g", "unexpected trailing 'g'", 1, 6, ("end of input",)),
    (parse_term, "f(a)\n\t)", "unexpected trailing ')'", 2, 2, ("end of input",)),
    (parse_term, "1(a)", "unexpected trailing '('", 1, 2, ("end of input",)),
    (parse_literal, "f :: a ==> b c", "unexpected trailing 'c'", 1, 14, ("end of input",)),
    (parse_query, "?(st :: a ==> s_X, Result).\n  ?", "unexpected trailing '?'", 2, 3,
     ("end of input",)),
    # _make: rejected names
    (parse_program, "p(i_).\n", "variable name 'i_' must be i_<base>", 1, 3, ()),
    (parse_program, "p(f_).\n", "variable name 'f_' must be f_<base>", 1, 3, ()),
    (parse_program, "p(c_(a)).\n", "variable name 'c_' must be c_<base>", 1, 3, ()),
    (parse_proximity_decls, "prox(a,\r\n\t i_X, 0.5).",
     "symbol name 'i_X' starts with a variable prefix", 2, 3, ()),
    (parse_proximity_decls, "prox(hole, b, 0.5).", "'hole' is a reserved word", 1, 6, ()),
    # term
    (parse_term, "eps", "eps is the empty sequence, not a term", 1, 1, ()),
    (parse_term, "s_X", "sequence variable not allowed here (only inside a sequence)", 1, 1, ()),
    (parse_term, "c_X(\r\n  s_Y)",
     "sequence variable not allowed here (only inside a sequence)", 2, 3, ()),
    (parse_term, "", "unexpected end of input", 1, 1, ("a term",)),
    (parse_term, "  \r\n\t", "unexpected end of input", 2, 2, ("a term",)),
    (parse_term, "f(,)", "unexpected ','", 1, 3, ("a term",)),
    (parse_program, "p(a) :-\n  .", "unexpected '.'", 2, 3, ("a term",)),
    # literal and literal_or_term
    (parse_literal, "hole", "expected a literal", 1, 5, ()),
    (parse_literal, "not(hole)", "expected a literal", 1, 9, ()),
    (parse_program, "p(a) :-\n  hole :: a ==> b, hole.", "expected a literal", 2, 24, ()),
    (parse_literal, "st :: a", "expected an arrow after the left-hand side", 1, 8,
     ("'==>'", "'=\\=>'")),
    (parse_literal, "st :: i_X\n  s_Y", "expected an arrow after the left-hand side", 2, 3,
     ("'==>'", "'=\\=>'")),
    (parse_program, "p(a) :-\n  st :: a b.", "expected an arrow after the left-hand side", 2, 11,
     ("'==>'", "'=\\=>'")),
    # clause
    (parse_program, "st :: a ==> b.\r\n\tst :: a =\\=> b.", "a clause head cannot be negated",
     2, 10, ()),
    (parse_program, "p(a).\n  i_X :- q.", "a predicate clause head must be symbol-headed",
     2, 7, ()),
    (parse_program, "p(a)\n\tq(b).", "unexpected 'q'", 2, 2, ("'::'", "':='", "':-'", "'.'")),
    # queries
    (parse_query, "?(st :: a ==> s_X, result).",
     "a query must end with a result variable (a capitalized identifier)", 1, 28, ()),
    (parse_query, "?(st :: a ==> s_X,\r\n\tR, Result).", "unexpected variable R in the goal",
     2, 13, ()),
    (parse_query, "?(hole, Result).", "not a literal: hole", 1, 17, ()),
    (parse_query, "?(Result).", "query has no goal literals", 1, 11, ()),
    # proximity declarations
    (parse_proximity_decls, "prox(a, b, 0.5).\n\tpx(a, b, 0.5).", "unexpected 'px'", 2, 2,
     ("'prox'",)),
    (parse_proximity_decls, "prox(a, b, c).", "unexpected 'c'", 1, 12, ("a degree",)),
    (parse_proximity_decls, "prox(a, b,", "unexpected end of input", 1, 11, ("a degree",)),
    (parse_proximity_decls, "prox(a, (, 0.5).", "unexpected '('", 1, 9, ("a symbol",)),
    (parse_proximity_decls, "prox(a, b, 0.5).\nprox(\n", "unexpected end of input", 3, 1,
     ("a symbol",)),
]


class TestErrorGoldens:
    @pytest.mark.parametrize(
        "parse, text, message, line, col, expected", _ERROR_GOLDENS,
        ids=[f"{case[0].__name__}:{case[1]!r}" for case in _ERROR_GOLDENS],
    )
    def test_error(self, parse, text, message, line, col, expected):
        with pytest.raises(ParseError) as err:
            parse(text)
        hint = " (expected " + " or ".join(expected) + ")" if expected else ""
        assert str(err.value) == f"{message} at line {line}, column {col}{hint}"
        assert (err.value.line, err.value.col, err.value.expected) == (line, col, expected)

    def test_where_is_unsupported_at_its_position(self):
        with pytest.raises(UnsupportedFeatureError) as err:
            parse_program("p(a).\n\tst :: a ==> b where c.")
        assert str(err.value) == "'where' constraints are not supported at line 2, column 16"
        assert (err.value.line, err.value.col, err.value.expected) == (2, 16, ())

    def test_too_deep_a_nesting_is_reported_inside_it(self):
        # The column is where the stack ran out, which depends on the stack a
        # parse uses, so it is pinned to a token of the nest, more than 300
        # levels in, of a fresh interpreter at its default recursion limit.
        out = in_fresh_interpreter(
            "from rholog import parse_program, parse_sequence, parse_term\n"
            "from rholog.errors import ParseError\n"
            "nest = 'f(' * 2000 + 'a' + ')' * 2000\n"
            "for parse, text in [(parse_term, nest), (parse_term, 'g(a,\\n' + nest),\n"
            "                    (parse_sequence, '\\r\\n\\t' + nest),\n"
            "                    (parse_program, 'p(a).\\nq(' + nest + ').')]:\n"
            "    try:\n"
            "        parse(text)\n"
            "    except ParseError as exc:\n"
            "        line = text.split('\\n')[exc.line - 1]\n"
            "        level = line[:exc.col - 1].count('f(') - line.startswith('g')\n"
            "        print(repr((str(exc), exc.line, exc.col, exc.expected,\n"
            "                    line[exc.col - 1], level > 300)))\n"
        )
        for printed, line in zip(out.splitlines(), (1, 2, 2, 2), strict=True):
            message, at_line, col, expected, char, deep = eval(printed)
            assert message == f"term nested too deeply at line {line}, column {col}"
            assert (at_line, expected, char in "f(", deep) == (line, (), True, True)


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
