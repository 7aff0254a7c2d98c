import inspect
from decimal import Decimal

import pytest

from rholog import (
    HOLE,
    Compound,
    CtxVar,
    FunVar,
    IndVar,
    InvalidValueError,
    ProximityRelation,
    SeqVar,
    Subst,
    Sym,
    enumerate_contexts,
    hedge_proximity,
    match_hedge,
    match_term,
    parse_sequence,
    parse_term,
    prox_match_hedge,
)
from rholog.matching import (
    ONE,
    _head_source,
    _match_items,
    at_most_one_matcher,
    scored_match_hedge,
)
from rholog.terms import iter_vars

from tests.genrand import ground_hedge, ground_subst_for, make_rng, pattern_hedge
from tests.oracles import brute_force_matchers, ordered_matchers, plain
from tests.test_engine import in_fresh_interpreter

T = parse_term
H = parse_sequence


def matchers(ptext, stext):
    return list(match_hedge(H(ptext), H(stext)))


def compiled_heads(rng, count, **caps):
    """Of ``count`` random heads without a context variable, those that may have
    several matchers: the heads whose clause tries run compiled code."""
    heads = (pattern_hedge(rng, n_ctx=0, **caps) for _ in range(count))
    return [head for head in heads if not at_most_one_matcher(iter_vars(head))]


def subject_for(rng, k, head):
    """A random ground hedge for odd ``k``, else an instance of ``head``."""
    return ground_hedge(rng, max_len=6) if k % 2 else ground_subst_for(rng, head).apply_hedge(head)


class TestGoldenOrders:
    def test_two_matchers_of_a_segmented_pattern(self):
        got = matchers("(s_1, f(i_X), s_2)", "(f(a), f(b), c)")
        assert got == [
            Subst({SeqVar("s_1"): (), IndVar("i_X"): T("a"), SeqVar("s_2"): H("(f(b),c)")}),
            Subst({SeqVar("s_1"): H("f(a)"), IndVar("i_X"): T("b"), SeqVar("s_2"): H("c")}),
        ]

    def test_two_sequence_variables_split_shortest_prefix_first(self):
        got = matchers("(s_X, s_Y)", "(a,b,c)")
        splits = [(len(m.get(SeqVar("s_X"))), len(m.get(SeqVar("s_Y")))) for m in got]
        assert splits == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_later_sequence_variables_take_longest_first(self):
        got = matchers("(s_A, i_P, s_B, i_Q, s_C)", "(a,b,c,d)")
        # while s_A stays empty (first, so lazy), i_P is pinned to the first
        # element and s_B (greedy) makes i_Q scan right to left
        head = [m for m in got if m.get(SeqVar("s_A")) == ()]
        picks = [m.get(IndVar("i_Q")) for m in head]
        assert picks == [T("d"), T("c"), T("b")]

    def test_context_variable_alone(self):
        got = list(match_term(T("c_X(a)"), T("f(a, g(a))")))
        assert got == [
            Subst({CtxVar("c_X"): T("f(hole,g(a))")}),
            Subst({CtxVar("c_X"): T("f(a,g(hole))")}),
        ]

    def test_context_with_function_variable_binds_plugged_head(self):
        # the plugged subterm must itself match f_Y(a), so only g(a) fits
        got = list(match_term(T("c_X(f_Y(a))"), T("f(a, g(a))")))
        assert got == [
            Subst({CtxVar("c_X"): T("f(a,hole)"), FunVar("f_Y"): Sym("g")})
        ]


class TestEnumerateContexts:
    def test_constant(self):
        assert list(enumerate_contexts(T("a"))) == [(HOLE, T("a"))]

    def test_two_arguments(self):
        assert list(enumerate_contexts(T("f(a,b)"))) == [
            (HOLE, T("f(a,b)")),
            (T("f(hole,b)"), T("a")),
            (T("f(a,hole)"), T("b")),
        ]

    def test_preorder_left_to_right(self):
        plugged = [t for _, t in enumerate_contexts(T("f(a,g(a))"))]
        assert plugged == [T("f(a,g(a))"), T("a"), T("g(a)"), T("a")]

    def test_first_decomposition_builds_no_others(self):
        deep = T("a")
        for _ in range(3000):
            deep = Compound(Sym("g"), (deep,))
        ctx, plugged = next(enumerate_contexts(deep))
        assert ctx is HOLE and plugged is deep


class TestBasics:
    def test_individual_variable_takes_any_term(self):
        t = T("f(g(a),b)")
        assert list(match_term(IndVar("i_X"), t)) == [Subst({IndVar("i_X"): t})]

    def test_sequence_variable_vs_empty(self):
        assert matchers("s_X", "eps") == [Subst({SeqVar("s_X"): ()})]

    def test_empty_pattern(self):
        assert matchers("eps", "eps") == [Subst({})]
        assert matchers("eps", "(a)") == []

    def test_nonlinear_sequence_variable(self):
        assert matchers("(s_X, s_X)", "(a,b,a,b)") == [
            Subst({SeqVar("s_X"): H("(a,b)")})
        ]
        assert matchers("(s_X, s_X)", "(a,b)") == []

    def test_nonlinear_individual_variable(self):
        assert matchers("(i_X, i_X)", "(a,a)") == [Subst({IndVar("i_X"): T("a")})]
        assert matchers("(i_X, i_X)", "(a,b)") == []

    def test_function_variable_matches_head_only(self):
        got = list(match_term(T("f_Y(a)"), T("g(a)")))
        assert got == [Subst({FunVar("f_Y"): Sym("g")})]
        assert list(match_term(T("f_Y(a)"), T("g(a,b)"))) == []

    def test_function_variable_with_empty_args(self):
        got = list(match_term(Compound(FunVar("f_Y")), T("a")))
        assert got == [Subst({FunVar("f_Y"): Sym("a")})]
        assert list(match_term(Compound(FunVar("f_Y")), T("f(a)"))) == []

    def test_symbol_mismatch_fails(self):
        assert matchers("f(a)", "g(a)") == []

    def test_rejects_holes_in_pattern(self):
        with pytest.raises(ValueError):
            list(match_hedge(H("(hole)"), H("(a)")))

    def test_rejects_nonground_subject(self):
        with pytest.raises(ValueError):
            list(match_hedge(H("(i_X)"), H("(s_Y)")))

    @pytest.mark.parametrize("pattern, subject", [("(hole)", "(a)"), ("(i_X)", "(s_Y)")])
    def test_scored_matcher_checks_its_inputs(self, pattern, subject):
        with pytest.raises(ValueError):
            list(scored_match_hedge(H(pattern), H(subject)))

    @pytest.mark.parametrize("match", [
        match_hedge,
        scored_match_hedge,
        lambda pattern, subject: prox_match_hedge(ProximityRelation(), pattern, subject, 1),
    ], ids=["match_hedge", "scored_match_hedge", "prox_match_hedge"])
    @pytest.mark.parametrize("pattern, subject", [
        ((IndVar("i_X"),), [IndVar("i_Y")]),  # a list that holds a variable
        ([HOLE], (T("a"),)),  # a list that holds a hole
    ], ids=["variable", "hole"])
    def test_a_list_is_checked_as_the_hedge_it_holds(self, match, pattern, subject):
        with pytest.raises(InvalidValueError):
            list(match(pattern, subject))

    def test_a_floor_of_zero_prunes_an_unrelated_symbol_pair(self):
        rel = ProximityRelation([("a", "b", Decimal("0.5"))])
        zero = Decimal(0)
        assert list(scored_match_hedge(H("c"), H("a"), rel.degree, zero)) == []
        assert list(scored_match_hedge(H("b"), H("a"), rel.degree, zero)) == [
            (Subst(), Decimal("0.5"))
        ]


MARK = IndVar("i_Mark")


class TestMatcherOwnership:
    """The engine writes into each matcher that a clause try's ``match_hedge(...,
    _test=...)`` yields, so each must be a new dict that no other matcher of the stream
    shares: every one is held and written into until the stream ends, then compared."""

    @pytest.mark.parametrize("pattern, subject, count", [
        ("(s_X, s_Y)", "(a,b,c,d,e,f)", 7),
        # the second c_X is bound: its branch passes the path's dict on unchanged
        ("(c_X(i_Y), c_X(i_Y))", "(f(a,a), f(a,a))", 3),
    ])
    def test_each_engine_matcher_is_a_dict_of_its_own(self, pattern, subject, count):
        held = []
        for k, (m, _) in enumerate(match_hedge(H(pattern), H(subject), _test=(-1, None))):
            m[MARK] = k  # as the engine binds a clause's locals
            held.append(m)
        expected = [dict(m.items()) for m in match_hedge(H(pattern), H(subject))]
        assert len(expected) == count
        assert held == [{**m, MARK: k} for k, m in enumerate(expected)]


class TestTwoDoors:
    """``match_hedge`` without ``_test`` checks its input and yields ``Subst``s; a
    clause try passes ``_test`` and ``_cell`` and gets ``(dict, test result)`` pairs,
    from its head's compiled code or from ``_match_items``, with no ``Subst`` built."""

    def test_the_public_door_yields_substs(self):
        found = list(match_hedge(H("(s_X, s_Y)"), H("(a, b)")))
        assert len(found) == 3 and {type(m) for m in found} == {Subst}

    @pytest.mark.parametrize("pattern, subject, compiled", [
        ("(s_X, i_Y, s_Z)", "(a, b, c)", True),  # may have several matchers
        ("(c_X(i_Y), s_Z)", "(f(a), b)", False),  # a context variable: _match_items
        ("(s_X, i_Y)", "(a, b)", None),  # at most one matcher: no cell
    ])
    def test_a_clause_try_yields_dicts_and_test_results(self, pattern, subject, compiled):
        pattern, subject, cell, tested = H(pattern), H(subject), [], []

        def test(d):
            tested.append(dict(d))
            return len(tested)

        found = list(match_hedge(pattern, subject, _test=(len(pattern), test),
                                 _cell=None if compiled is None else cell))
        expected = [dict(m.items()) for m in match_hedge(pattern, subject)]
        assert found == [(m, k + 1) for k, m in enumerate(expected)] and tested == expected
        assert {type(d) for d, _ in found} == {dict}
        assert cell == [] if compiled is None else bool(cell[0]) == compiled

    def test_a_clause_try_runs_the_code_its_cell_keeps(self):
        cell = [lambda subject, test: iter([(subject, test)])]
        test = (-1, None)
        assert list(match_hedge(H("(s_X, s_Y)"), H("a"), _test=test, _cell=cell)) == [
            (H("a"), None)]

    @pytest.mark.parametrize("function", [Subst, hedge_proximity, match_hedge])
    def test_no_switch_chooses_a_public_contract(self, function):
        assert {"_checked", "_floor"}.isdisjoint(inspect.signature(function).parameters)


class TestProperties:
    def test_soundness_on_random_patterns(self):
        rng = make_rng(11)
        for _ in range(300):
            pattern = pattern_hedge(rng)
            sigma = ground_subst_for(rng, pattern)
            subject = sigma.apply_hedge(pattern)
            for found in match_hedge(pattern, subject):
                assert found.apply_hedge(pattern) == subject

    def test_determinism(self):
        rng = make_rng(12)
        for _ in range(50):
            pattern = pattern_hedge(rng)
            subject = ground_hedge(rng)
            assert list(match_hedge(pattern, subject)) == list(
                match_hedge(pattern, subject)
            )

    def test_no_duplicate_matchers(self):
        rng = make_rng(13)
        for _ in range(200):
            pattern = pattern_hedge(rng)
            subject = ground_hedge(rng)
            found = list(match_hedge(pattern, subject))
            assert len(found) == len(set(found))

    def test_agrees_with_brute_force_on_spot_checks(self):
        cases = [
            ("(s_1, f(i_X), s_2)", "(f(a), f(b), c)"),
            ("(s_X, s_Y)", "(a,b,c)"),
            ("(s_X, i_X, s_Y, i_Y, s_Z)", "(a,b,a)"),
            ("(c_X(a))", "(f(a, g(a)))"),
            ("(c_X(f_Y(a)))", "(f(a, g(a)))"),
            ("(f_Y(s_1))", "(f(a,b))"),
            ("(s_X, s_X)", "(a,a)"),
            ("(f(s_1, g(i_X)))", "(f(a, g(b)))"),
        ]
        for ptext, stext in cases:
            pattern, subject = H(ptext), H(stext)
            assert set(map(plain, match_hedge(pattern, subject))) == brute_force_matchers(
                pattern, subject
            )


class TestOrderOracle:
    """The matcher's exact output lists against ``ordered_matchers``, a
    reference written from the module docstring's order rules that tries
    every sequence-variable width and keeps plain-dict bindings."""

    @staticmethod
    def check(pattern, subject):
        got = list(match_hedge(pattern, subject))
        assert [dict(s.items()) for s in got] == ordered_matchers(pattern, subject)
        assert len(set(map(plain, got))) == len(got)
        return len(got)

    def test_criterion_06_corpus(self):
        from tests.test_acceptance import _all_patterns, _all_subjects

        subjects = _all_subjects()
        found = sum(self.check(p, s) for p in _all_patterns() for s in subjects)
        assert found > 0

    def test_repeated_and_bound_sequence_variables(self):
        cases = [
            ("(s_1, a, s_1)", "(b, a, b)"),
            ("(s_1, a, s_1)", "(a, a, a, a, a)"),
            ("(s_1, s_2, a, s_1)", "(b, c, a, b, c)"),
            ("(s_1, s_2, s_1, s_2)", "(a, b, a, a, b, a)"),
            ("(s_1, f(s_1), s_2)", "(a, b, f(a, b), c)"),
            ("(s_1, i_X, s_2, i_X, s_3)", "(a, b, a, b, a)"),
            ("(f(s_1, a), s_2, g(s_1))", "(f(b, a), c, d, g(b))"),
            ("(s_1, c_X(f(s_2)), s_2, s_1)", "(a, g(f(b)), b, a)"),
        ]
        found = sum(self.check(H(p), H(s)) for p, s in cases)
        assert found >= len(cases)

    def test_compiled_heads(self):
        rng = make_rng(16)
        found = 0
        for k, head in enumerate(compiled_heads(rng, 1200, max_items=5, n_seq=3)):
            subject = subject_for(rng, k, head)
            cell = []
            got = [d for d, _ in match_hedge(head, subject, _test=(-1, None), _cell=cell)]
            assert cell[0] and got == ordered_matchers(head, subject), (head, subject)
            found += len(got)
        assert found >= 200

    def test_random_patterns(self):
        rng = make_rng(14)
        found = 0
        for k in range(400):
            pattern = pattern_hedge(rng, max_items=5, n_seq=3)
            if k % 2:
                subject = ground_hedge(rng, max_len=5)
            else:
                subject = ground_subst_for(rng, pattern).apply_hedge(pattern)
            found += self.check(pattern, subject)
        assert found >= 200


class TestCompiledHeads:
    """A head's compiled code, as ``match_hedge`` runs it for a clause try, against
    ``_match_items``, the loop it specialises: the same matchers in the same order,
    each a new dict with its keys in the same order, and the same ``test`` calls,
    with the test at each position of the head or none."""

    @staticmethod
    def run(matcher, at):
        tests = []

        def test(d):  # every third test fails, so failing tests cut paths too
            tests.append(list(d.items()))
            return None if len(tests) % 3 == 0 else len(tests)

        found = list(matcher(test if at >= 0 else None))
        assert len({id(d) for d, _ in found}) == len(found)
        return [(list(d.items()), got) for d, got in found], tests

    def test_random_heads_and_subjects(self):
        rng = make_rng(15)
        found = tested = 0
        for k, head in enumerate(compiled_heads(rng, 3000, max_items=6, n_seq=3)):
            subject, at = subject_for(rng, k, head), rng.randrange(-1, len(head) + 1)
            cell = []
            want = self.run(lambda test: _match_items(
                head, 0, subject, 0, {}, ONE, False, None, ONE, None, at, test), at)
            got = self.run(lambda test: match_hedge(
                head, subject, _test=(at, test), _cell=cell), at)
            assert cell[0] and got == want, (head, subject, at)
            found, tested = found + len(want[0]), tested + len(want[1])
        assert found > 300 and tested > 300

    @pytest.mark.parametrize("pattern, compiled", [
        ("(c_X(a), s_Y, s_Z)", False),
        ("(f(s_A, g(c_X(i_Y))), s_B, s_C)", False),
        ("(" + ", ".join(f"s_{k}" for k in range(17)) + ")", True),  # 16 nested loops
        ("(" + ", ".join(f"s_{k}" for k in range(18)) + ")", False),
        ("(" + "f(" * 32 + "s_X" + ")" * 32 + ", s_Y, s_Z)", True),
        ("(" + "f(" * 33 + "s_X" + ")" * 33 + ", s_Y, s_Z)", False),
    ])
    def test_heads_left_to_the_loop(self, pattern, compiled):
        assert (_head_source(H(pattern), -1) is not None) == compiled


class TestDefaultRecursionLimit:
    """The matcher recurses only at choices, so a long or deep pattern whose
    items are all forced matches at the default recursion limit."""

    def test_flat_pattern_of_5000_individual_variables(self):
        out = in_fresh_interpreter(
            "import sys\n"
            "from rholog import IndVar, atom, match_hedge\n"
            "pattern = tuple(IndVar(f'i_X{k}') for k in range(5000))\n"
            "subject = tuple(atom(f'a{k}') for k in range(5000))\n"
            "found = list(match_hedge(pattern, subject))\n"
            "print(sys.getrecursionlimit(), len(found), len(found[0].items()),\n"
            "      found[0].get(IndVar('i_X4999')))\n"
        )
        assert out.split()[1:] == ["1", "5000", "a4999"]
        assert int(out.split()[0]) < 5000

    def test_pattern_nested_5000_deep(self):
        # f(...f(i_X, s_Y)..., s_Y) against f(...f(a, b)..., b)
        out = in_fresh_interpreter(
            "import sys\n"
            "from rholog import Compound, IndVar, SeqVar, Sym, atom, match_hedge\n"
            "f, s_Y = Sym('f'), SeqVar('s_Y')\n"
            "pattern = Compound(f, (IndVar('i_X'), s_Y))\n"
            "subject = Compound(f, (atom('a'), atom('b')))\n"
            "for _ in range(4999):\n"
            "    pattern = Compound(f, (pattern, s_Y))\n"
            "    subject = Compound(f, (subject, atom('b')))\n"
            "found = list(match_hedge((pattern,), (subject,)))\n"
            "print(sys.getrecursionlimit(), len(found), found[0])\n"
        )
        limit, rest = out.split(" ", 1)
        assert int(limit) < 5000
        assert rest.strip() == "1 {i_X -> a, s_Y -> b}"
