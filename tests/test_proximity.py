from decimal import Decimal

import pytest

from rholog import (
    HOLE,
    IndVar,
    InvalidValueError,
    ProximityRelation,
    Subst,
    Sym,
    hedge_proximity,
    match_hedge,
    parse_proximity_decls,
    parse_sequence,
    parse_term,
    prox_match_hedge,
)
from rholog.errors import DegreeRangeError, ThresholdRangeError
from rholog.proximity import check_threshold

from tests.genrand import (
    ground_hedge,
    ground_subst_for,
    make_rng,
    pattern_hedge,
    perturb_hedge,
    random_relation,
)
from tests.oracles import min_fold_proximity

T = parse_term
H = parse_sequence

D = Decimal


@pytest.fixture
def rel():
    return ProximityRelation([("a", "b", D("0.6")), ("b", "c", D("0.8"))])


class TestRelation:
    def test_reflexive(self, rel):
        assert rel.degree(Sym("a"), Sym("a")) == 1

    def test_stored_pair(self, rel):
        assert rel.degree(Sym("a"), Sym("b")) == D("0.6")

    def test_symmetric(self, rel):
        assert rel.degree(Sym("b"), Sym("a")) == D("0.6")
        assert rel.degree(Sym("c"), Sym("b")) == D("0.8")

    def test_unrelated(self, rel):
        assert rel.degree(Sym("a"), Sym("c")) == 0

    def test_degree_range(self):
        with pytest.raises(DegreeRangeError):
            ProximityRelation([("a", "b", D("0"))])
        with pytest.raises(DegreeRangeError):
            ProximityRelation([("a", "b", D("1.2"))])
        ProximityRelation([("a", "b", D("1"))])  # 1 is allowed

    @pytest.mark.parametrize("degree", ["nan", "abc", "sNaN", D("NaN"), float("nan"), None])
    def test_unreadable_or_nan_degree_is_a_range_error(self, degree):
        with pytest.raises(DegreeRangeError, match="proximity degree must be in"):
            ProximityRelation().add("a", "b", degree)

    def test_later_entry_overwrites(self):
        rel = ProximityRelation([("a", "b", D("0.5")), ("b", "a", D("0.9"))])
        assert rel.degree(Sym("a"), Sym("b")) == D("0.9")

    def test_a_reflexive_declaration_is_ignored(self):
        rel = ProximityRelation(parse_proximity_decls("prox(a, a, 0.5)."))
        assert rel.degree(Sym("a"), Sym("a")) == 1
        assert rel.pairs() == {}

    def test_repr_lists_each_pair_once_in_name_order(self):
        rel = ProximityRelation([("c", "b", D("0.80")), ("b", "a", D("0.6")), ("a", "a", D("1"))])
        assert repr(rel) == "ProximityRelation(a~b:0.6, b~c:0.80)"
        assert repr(ProximityRelation()) == "ProximityRelation()"


class TestTermProximity:
    def test_identical_terms(self, rel):
        assert hedge_proximity(rel, (T("f(a)"),), (T("f(a)"),)) == 1

    def test_symbol_pair(self, rel):
        assert hedge_proximity(rel, (T("b"),), (T("c"),)) == D("0.8")

    def test_minimum_over_positions(self, rel):
        got = hedge_proximity(rel, (T("f(a,b)"),), (T("f(b,c)"),))
        assert got == D("0.6")
        assert got == min_fold_proximity(rel, H("(f(a,b))"), H("(f(b,c))"))

    def test_arity_mismatch_is_zero(self, rel):
        assert hedge_proximity(rel, (T("f(a)"),), (T("f(a,a)"),)) == 0
        assert hedge_proximity(rel, (T("a"),), (T("f(a)"),)) == 0

    def test_symmetry_on_random_terms(self):
        rng = make_rng(31)
        partial = 0
        for _ in range(150):
            rel = random_relation(rng)
            h1 = ground_hedge(rng)
            for h2 in (ground_hedge(rng), perturb_hedge(rng, rel, h1)):
                got = hedge_proximity(rel, h1, h2)
                assert got == hedge_proximity(rel, h2, h1)
                assert got == min_fold_proximity(rel, h1, h2)
                partial += 0 < got < 1
        assert partial > 0

    def test_requires_ground_terms(self, rel):
        with pytest.raises(ValueError):
            hedge_proximity(rel, (T("i_X"),), (T("a"),))

    @pytest.mark.parametrize("h1, h2", [("(hole)", "(a)"), ("(a)", "(s_Y)")])
    def test_hedge_proximity_requires_ground_hole_free_hedges(self, rel, h1, h2):
        with pytest.raises(ValueError):
            hedge_proximity(rel, H(h1), H(h2))

    @pytest.mark.parametrize("h1, h2", [
        ([IndVar("i_X")], (T("a"),)),  # a list that holds a variable
        ((T("a"),), [HOLE]),  # a list that holds a hole
    ], ids=["variable", "hole"])
    def test_a_list_is_checked_as_the_hedge_it_holds(self, rel, h1, h2):
        with pytest.raises(InvalidValueError):
            hedge_proximity(rel, h1, h2)


class TestProxMatch:
    def test_ground_pair_scores_its_degree(self, rel):
        got = list(prox_match_hedge(rel, H("b"), H("c"), D("0.5")))
        assert len(got) == 1
        assert got[0].subst == next(iter(match_hedge(H("b"), H("b"))))
        assert got[0].degree == D("0.8")

    def test_variable_binds_verbatim_with_degree_one(self, rel):
        got = list(prox_match_hedge(rel, H("i_Y"), H("b"), D("0.5")))
        assert [(m.subst.get(T("i_Y")), m.degree) for m in got] == [(T("b"), D(1))]

    def test_exact_match_of_itself(self, rel):
        subject = H("(f(a), b)")
        got = list(prox_match_hedge(rel, subject, subject, D(1)))
        assert [(m.subst, m.degree) for m in got] == [(Subst(), D(1))]

    def test_segment_alternatives_carry_degrees(self, rel):
        got = list(prox_match_hedge(rel, H("(s_X, b, s_Y)"), H("(a, c)"), D("0.5")))
        assert [m.degree for m in got] == [D("0.6"), D("0.8")]

    def test_threshold_prunes(self, rel):
        got = list(prox_match_hedge(rel, H("(s_X, b, s_Y)"), H("(a, c)"), D("0.7")))
        assert [m.degree for m in got] == [D("0.8")]

    def test_threshold_range(self, rel):
        with pytest.raises(ThresholdRangeError):
            list(prox_match_hedge(rel, H("a"), H("a"), D("1.5")))

    @pytest.mark.parametrize("threshold", ["nan", "abc", "sNaN", D("NaN"), float("nan")])
    def test_unreadable_or_nan_threshold_is_a_range_error(self, rel, threshold):
        with pytest.raises(ThresholdRangeError, match="threshold must be in"):
            check_threshold(threshold)
        with pytest.raises(ThresholdRangeError):
            list(prox_match_hedge(rel, H("a"), H("a"), threshold))

    @pytest.mark.parametrize("pattern, subject", [("(hole)", "(a)"), ("(i_X)", "(s_Y)")])
    def test_checks_its_inputs(self, rel, pattern, subject):
        with pytest.raises(ValueError):
            list(prox_match_hedge(rel, H(pattern), H(subject), D("0.5")))

    def test_at_threshold_one_equals_exact_matching(self):
        rng = make_rng(32)
        for _ in range(150):
            rel = random_relation(rng)
            pattern = pattern_hedge(rng, n_ctx=0, n_fun=1)
            subject = ground_hedge(rng)
            exact = list(match_hedge(pattern, subject))
            prox = list(prox_match_hedge(rel, pattern, subject, D(1)))
            assert [m.subst for m in prox] == exact
            assert all(m.degree == 1 for m in prox)

    def test_threshold_monotonicity_random(self):
        rng = make_rng(33)
        for _ in range(150):
            rel = random_relation(rng)
            pattern = pattern_hedge(rng)
            subject = ground_hedge(rng)
            low = {(m.subst, m.degree) for m in prox_match_hedge(rel, pattern, subject, D("0.5"))}
            high = {(m.subst, m.degree) for m in prox_match_hedge(rel, pattern, subject, D("0.8"))}
            assert high <= low

    def test_degree_equals_independent_min_fold(self):
        rng = make_rng(34)
        checked = 0
        approximate = 0
        for _ in range(200):
            rel = random_relation(rng)
            pattern = pattern_hedge(rng, n_ctx=0)
            sigma = ground_subst_for(rng, pattern)
            subject = perturb_hedge(rng, rel, sigma.apply_hedge(pattern))
            for m in prox_match_hedge(rel, pattern, subject, D("0.3")):
                instantiated = m.subst.apply_hedge(pattern)
                assert m.degree == min_fold_proximity(rel, instantiated, subject)
                assert D("0.3") <= m.degree <= 1
                checked += 1
                approximate += m.degree < 1
        assert checked > 100
        assert approximate > 20

    def test_term_level_wrapper(self, rel):
        got = list(prox_match_hedge(rel, (T("g(b)"),), (T("g(c)"),), D("0.5")))
        assert [m.degree for m in got] == [D("0.8")]
