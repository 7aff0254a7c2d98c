from decimal import Decimal

from rholog import (
    IndVar,
    SeqVar,
    Subst,
    parse_literal,
    parse_program,
    parse_query,
    parse_sequence,
    parse_term,
    render_program,
    render_query,
    render_sequence,
)
from rholog.engine import Answer
from rholog.printer import render_answer, render_literal


def render_bindings(subst):
    """An answer of ``subst`` at degree 1, rendered."""
    return render_answer(Answer(subst, Decimal(1)))


def test_sequence_rendering():
    assert render_sequence(()) == "eps"
    assert render_sequence(parse_sequence("a")) == "a"
    assert render_sequence(parse_sequence("(a,b)")) == "(a,b)"
    assert render_sequence(parse_sequence("(f(a,g(b)),c)")) == "(f(a,g(b)),c)"


def test_binding_list_style():
    subst = Subst({SeqVar("s_X"): parse_sequence("(1,2,3,3,4)")})
    assert render_bindings(subst.restrict((SeqVar("s_X"),))) == "[s_X ---> (1,2,3,3,4)]"
    subst = Subst({IndVar("i_X"): parse_term("a")})
    assert render_bindings(subst.restrict((IndVar("i_X"),))) == "[i_X ---> a]"


def test_answers_and_substitutions_render_values_alike():
    subst = Subst({SeqVar("s_X"): parse_sequence("(a,b)"), IndVar("i_Y"): parse_term("f(a)")})
    assert render_bindings(subst) == "[s_X ---> (a,b), i_Y ---> f(a)]"
    assert repr(subst) == "{s_X -> (a,b), i_Y -> f(a)}"
    assert render_sequence(parse_term("f(a)")) == render_sequence((parse_term("f(a)"),))


def test_bindings_follow_first_occurrence_order():
    subst = Subst(
        {
            IndVar("i_B"): parse_term("b"),
            SeqVar("s_A"): parse_sequence("eps"),
        }
    )
    order = (SeqVar("s_A"), IndVar("i_B"))
    assert render_bindings(subst.restrict(order)) == "[s_A ---> eps, i_B ---> b]"


def test_answer_rendering():
    subst = Subst({SeqVar("s_Ans"): parse_sequence("(d,c)")})
    answer = Answer(subst, Decimal("0.6"))
    assert render_answer(answer) == "[s_Ans ---> (d,c)]"


def test_empty_answer_renders_brackets():
    answer = Answer(Subst({}), Decimal(1))
    assert render_answer(answer) == "[]"


def test_literal_rendering_round_trips():
    for text in (
        "st :: (a,b) ==> s_X",
        "st :: eps =\\=> eps",
        "not(f_O(i_I, i_J))",
        "3 =< 4",
        "p(a,b)",
        "p",
    ):
        lit = parse_literal(text)
        assert parse_literal(render_literal(lit)) == lit


def test_query_rendering_round_trips():
    for text in (
        "?(st :: (a,b) ==> s_X, Result).",
        "?(merge :: (a,b) ==> s_X, 0.5, Degree, Result).",
        "?(merge :: (a,b) ==> s_X, 0.0000001, Degree, Result).",
    ):
        q = parse_query(text)
        assert parse_query(render_query(q)) == q


def test_program_rendering_round_trips():
    text = """
    rewrite_step(i_Str) :: c_Ctx(i_X) ==> c_Ctx(i_Y) :- i_Str :: i_X ==> i_Y.
    st :: a ==> b.
    short := compose(st, st).
    p(a).
    """
    program = parse_program(text)
    assert parse_program(render_program(program)) == program
