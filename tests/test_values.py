"""The value classes' contract: equality by type and fields, hashes that
agree with it, a field-by-field ``repr``, immutability, and copies and
pickles that compare equal to what they copy."""

import copy
import inspect
import pickle
from decimal import Decimal

import pytest

from rholog import (
    HOLE,
    Answer,
    Compound,
    CtxApply,
    CtxVar,
    IndVar,
    NotGoal,
    PredClause,
    Query,
    SeqVar,
    SourceProgram,
    StrategyAbbrev,
    Subst,
    Sym,
    parse_literal,
    parse_program,
    parse_query,
    parse_term,
)
from rholog.engine import _Cut, _Into, _Map, _Nf, _Unready
from rholog.program import PredAtom, RhoAtom, RhoClause
from rholog.proximity import DegreedMatcher
from rholog.terms import Record

PROGRAM = "st :: f(i_X, s_Y) ==> g(s_Y) :- id :: i_X ==> a, not(p(i_X)).\np(b).\nabb(1) := st."
QUERY = "?(st :: f(a, b) ==> s_X, 0.5, D, Result)."
NEGATED = "st :: f(a) =\\=> c_X(hole)"


def values():
    """One value of each kind, with the field each test changes; every call
    builds them afresh, so two calls give equal values that are distinct."""
    program = parse_program(PROGRAM)
    rho_clause, pred_clause, abbrev = program.clauses
    return [
        (program, "clauses"),
        (rho_clause, "body"),
        (pred_clause, "params"),
        (abbrev, "rhs"),
        (parse_query(QUERY), "goal"),
        (parse_literal(NEGATED), "positive"),
        (parse_literal("not(p(a))"), "inner"),
        (Answer(Subst({IndVar("i_X"): parse_term("a")}), Decimal("0.5")), "degree"),
        (DegreedMatcher(Subst(), Decimal("1")), "subst"),
        (parse_term("f(a, g(i_X))"), "args"),
        (Compound(Sym("f"), (HOLE, IndVar("i_Y"))), "_holes"),
        (CtxApply(CtxVar("c_X"), HOLE), "arg"),
        (HOLE, "name"),
        (_Cut(3, fail=True), "height"),
        (parse_literal("p(a, i_X)"), "args"),
        (_Nf(parse_literal("nf(st) :: a ==> s_X"), 2, 5), "depth"),
        (_Into(Subst({IndVar("i_X"): parse_term("a")}), (IndVar("i_X"),),
               (parse_term("g(i_X)"),), (SeqVar("s_Y"),)), "rhs"),
        (_Map(parse_term("st"), (parse_term("a"),), 1, (parse_term("b"), parse_term("c")),
              ((SeqVar("s_Out~1"),), (SeqVar("s_Out~2"),)), None, (SeqVar("s_X"),)), "out"),
        (_Unready(parse_literal(NEGATED)), "goal"),
    ]


KINDS = [type(value).__name__ for value, _ in values()]


@pytest.mark.parametrize("k", range(len(KINDS)), ids=KINDS)
class TestEachValue:
    def test_equal_fields_give_equal_values_and_hashes(self, k):
        (a, _), (b, _) = values()[k], values()[k]
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_a_field_can_be_neither_set_nor_deleted(self, k):
        value, name = values()[k]
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert repr(value) == before

    def test_copies_and_pickles_compare_equal(self, k):
        value, _ = values()[k]
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


class TestEquality:
    def test_equal_fields_of_another_type_are_not_equal(self):
        strategy, lhs, rhs = parse_term("st"), (parse_term("a"),), (parse_term("b"),)
        assert RhoAtom(strategy, lhs, rhs, ()) != RhoClause(strategy, lhs, rhs, ())
        assert Answer(Subst(), Decimal(1)) != DegreedMatcher(Subst(), Decimal(1))
        assert RhoAtom(strategy, lhs, rhs) != (strategy, lhs, rhs, True)

    def test_one_different_field_makes_values_unequal(self):
        assert parse_literal("st :: a ==> b") != parse_literal("st :: a =\\=> b")
        assert parse_term("f(a, b)") != parse_term("f(a, c)")
        assert parse_term("f(a)") != parse_term("g(a)")
        assert _Cut(3) != _Cut(3, soft=True)

    def test_a_value_is_not_equal_to_a_value_of_another_class(self):
        # False, not None: each __eq__ defers to the other operand, then to identity
        assert (parse_term("a") == HOLE) is False
        assert (RhoAtom(parse_term("st"), (), ()) == 5) is False

    def test_a_set_keeps_one_of_each_equal_value(self):
        items = [value for value, _ in values()] + [value for value, _ in values()]
        assert len(set(items)) == len(KINDS)


class TestRepr:
    def test_a_literal_names_its_fields(self):
        assert repr(parse_literal(NEGATED)) == (
            "RhoAtom(strategy=st, lhs=(f(a),), rhs=(c_X(hole),), positive=False)")
        assert repr(PredAtom(Sym("=<"), (parse_term("4"), parse_term("3")))) == (
            "PredAtom(head==<, args=(4, 3))")

    def test_a_clause_names_its_fields(self):
        assert repr(parse_program(PROGRAM).clauses[0]) == (
            "RhoClause(strategy=st, lhs=(f(i_X,s_Y),), rhs=(g(s_Y),), "
            "body=(RhoAtom(strategy=id, lhs=(i_X,), rhs=(a,), positive=True), "
            "NotGoal(inner=PredAtom(head=p, args=(i_X,)))))")

    def test_a_query_names_its_fields(self):
        assert repr(parse_query(QUERY)) == (
            "Query(goal=(RhoAtom(strategy=st, lhs=(f(a,b),), rhs=(s_X,), positive=True),), "
            "result_var='Result', threshold=Decimal('0.5'), degree_var='D')")

    def test_a_machine_goal_names_its_fields(self):
        assert repr(_Cut(3, fail=True)) == "_Cut(height=3, soft=False, fail=True)"

    def test_terms_print_as_terms(self):
        assert repr(parse_term("f(a, g(i_X))")) == "f(a,g(i_X))"
        assert repr(CtxApply(CtxVar("c_X"), HOLE)) == "c_X(hole)"
        assert repr(HOLE) == "hole"


class TestCopies:
    @pytest.mark.parametrize("text, holes, ground", [
        ("f(a, g(b))", 0, True), ("f(a, i_X)", 0, False), ("f(c_X(hole), a)", 1, False),
    ])
    def test_a_compound_keeps_its_hole_count_and_groundness(self, text, holes, ground):
        term = Compound(Sym("h"), (parse_term(text),))
        for other in (copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
            assert other == term
            assert (other._holes, other._ground) == (term._holes, term._ground) == (holes, ground)
            assert (other.args[0]._holes, other.args[0]._ground) == (holes, ground)

    def test_a_parsed_program_and_query_survive_a_round_trip(self):
        program, query = parse_program(PROGRAM), parse_query(QUERY)
        for copied in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            assert copied(program) == program
            assert copied(query) == query
            assert copied(query).threshold == Decimal("0.5")


def record_classes(cls=Record):
    """Every class that derives from ``cls``, at any depth."""
    for sub in cls.__subclasses__():
        yield sub
        yield from record_classes(sub)


SIGNATURES = {
    Answer: "bindings, degree",
    Compound: "head, args=()",
    CtxApply: "var, arg",
    DegreedMatcher: "subst, degree",
    NotGoal: "inner",
    PredAtom: "head, args=()",
    PredClause: "name, params=(), body=()",
    Query: "goal, result_var='Result', threshold=None, degree_var=None",
    RhoAtom: "strategy, lhs, rhs, positive=True",
    RhoClause: "strategy, lhs, rhs, body=()",
    SourceProgram: "clauses=()",
    StrategyAbbrev: "lhs, rhs",
}


class TestEveryValueClass:
    def test_each_value_class_has_a_sample(self):
        sampled = {type(value) for value, _ in values()}
        missing = [cls.__qualname__ for cls in record_classes() if cls not in sampled]
        assert not missing, f"no sample in values() for {missing}"

    @pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
    def test_a_public_constructor_takes_the_fields_in_order(self, cls):
        found = [p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                 for p in inspect.signature(cls).parameters.values()]
        assert ", ".join(found) == SIGNATURES[cls]


@pytest.mark.parametrize("k", range(len(KINDS)), ids=KINDS)
class TestArgumentCounts:
    def test_an_extra_argument_is_a_type_error_naming_the_class(self, k):
        value, _ = values()[k]
        cls, fields = value.__reduce__()
        with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\.__init__\(\) takes "):
            cls(*fields, None)
        with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
            cls(*fields, extra=None)

    def test_a_missing_argument_is_a_type_error_naming_it(self, k):
        cls = type(values()[k][0])
        required = [p.name for p in inspect.signature(cls).parameters.values()
                    if p.default is p.empty]
        if not required:
            cls()
            return
        with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\.__init__\(\) missing") as caught:
            cls()
        assert all(repr(name) in str(caught.value) for name in required)

