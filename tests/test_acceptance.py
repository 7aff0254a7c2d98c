"""Acceptance suite: one test per shipped behavioral guarantee.

Each test prints a PASS line when it completes, so running this module
with ``pytest -v`` (or ``-s``) gives one line per criterion. Expected
values are either fixed transcripts of the bundled example programs,
value sets computed by the brute-force reference implementations in
``tests.oracles``, or randomized properties with frozen seeds.
"""

import itertools
from decimal import Decimal
from pathlib import Path

from rholog import (
    Compound,
    CtxVar,
    FunVar,
    IndVar,
    ProximityRelation,
    SeqVar,
    Subst,
    Sym,
    apply_context,
    load_program,
    match_hedge,
    match_term,
    parse_program,
    parse_proximity_decls,
    parse_query,
    parse_sequence,
    parse_term,
    prox_match_hedge,
    render_program,
    render_sequence,
    solve,
)

from tests.genrand import (
    ground_hedge,
    ground_subst_for,
    make_rng,
    pattern_hedge,
    perturb_hedge,
    random_relation,
)
from tests.oracles import brute_force_matchers, holed_versions, plain

D = Decimal
T = parse_term
H = parse_sequence

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def load_example(name, prox=None):
    db = load_program(parse_program((PROGRAMS / name).read_text(encoding="utf-8")))
    rel = None
    if prox:
        rel = ProximityRelation(
            parse_proximity_decls((PROGRAMS / prox).read_text(encoding="utf-8"))
        )
    return db, rel


def test_criterion_01_bubble_sort_single_sorted_answer():
    db, _ = load_example("sorting.rho")
    query = parse_query("?(bubble_sort(=<) :: (1,3,4,3,2) ==> s_X, Result).")
    got = list(solve(db, query))
    assert len(got) == 1
    assert got[0].bindings == Subst({SeqVar("s_X"): H("(1,2,3,3,4)")})
    assert got[0].degree == D(1)
    print("criterion 01 bubble sort single sorted answer: PASS")


def test_criterion_02a_hedge_matcher_pair_in_printed_order():
    got = list(match_hedge(H("(s_1, f(i_X), s_2)"), H("(f(a), f(b), c)")))
    assert got == [
        Subst({SeqVar("s_1"): (), IndVar("i_X"): T("a"), SeqVar("s_2"): H("(f(b),c)")}),
        Subst({SeqVar("s_1"): H("f(a)"), IndVar("i_X"): T("b"), SeqVar("s_2"): H("c")}),
    ]
    print("criterion 02a hedge matcher pair in printed order: PASS")


def test_criterion_02b_context_function_variable_matcher_pair():
    # The golden pair once stated here for f(a,g(a)) was
    # {c_X -> f(hole,g(a)), f_Y -> f} and {c_X -> f(a,g(hole)), f_Y -> g}.
    # Neither is a matcher: applied to the pattern they give f(f(a),g(a))
    # and f(a,g(g(a))). Those c_X values are the matchers of c_X(a), with
    # f_Y naming the symbol above the hole; but sigma(c_X(t)) plugs sigma(t)
    # into the hole, so f_Y binds the head of the plugged subterm, which
    # must itself match f_Y(a). The expected lists below are derived by
    # hand from that rule, walking the holes in preorder, and agree with
    # the brute-force oracle.
    pattern = T("c_X(f_Y(a))")
    cases = [
        # Only g(a) has the shape F(a), so there is exactly one matcher.
        ("f(a,g(a))", [
            Subst({CtxVar("c_X"): T("f(a,hole)"), FunVar("f_Y"): Sym("g")}),
        ]),
        # The subject the stated first matcher actually solves. Which
        # subject the criterion meant is not recorded; this one has a
        # matcher pair, and the pair comes in preorder of the hole.
        ("f(f(a),g(a))", [
            Subst({CtxVar("c_X"): T("f(hole,g(a))"), FunVar("f_Y"): Sym("f")}),
            Subst({CtxVar("c_X"): T("f(f(a),hole)"), FunVar("f_Y"): Sym("g")}),
        ]),
    ]
    for subject, expected in cases:
        for sigma in expected:
            assert sigma.apply_hedge((pattern,)) == (T(subject),), sigma
        assert set(map(plain, expected)) == brute_force_matchers((pattern,), (T(subject),))
        assert list(match_term(pattern, T(subject))) == expected, subject
    print("criterion 02b context+function variable matcher pair: PASS")


def test_criterion_03_proximity_merge_transcripts():
    db, rel = load_example("proximity.rho", "proximity.prox")
    expected = [
        ("(a,b,d,b,c)", "0.5", D("0.6"), "(d,c)"),
        ("(a,b,d,b,c)", "0.7", D("0.8"), "(a,d,c)"),
        ("(b,d,b,c,a)", "0.5", D("0.6"), "(d,c,a)"),
        ("(b,d,b,c,a)", "0.7", D("0.8"), "(d,c,a)"),
    ]
    for subject, lam, degree, result in expected:
        query = parse_query(
            f"?(merge_all_proximals :: {subject} ==> s_Ans, {lam}, Degree, Result)."
        )
        got = list(solve(db, query, rel))
        assert len(got) == 1, (subject, lam)
        assert got[0].bindings == Subst({SeqVar("s_Ans"): H(result)})
        assert got[0].degree == degree  # bit-exact decimal
    print("criterion 03 proximity merge transcripts: PASS")


def test_criterion_04_rewriting_three_answers_leftmost_outermost():
    db, _ = load_example("rewriting.rho")
    query = parse_query("?(rewrite_step(st) :: f(f(g(a),a),a) ==> s_Out, Result).")
    got = [a.bindings.get(SeqVar("s_Out")) for a in solve(db, query)]
    assert len(got) == 3
    assert got[0] == H("f(f(g(b),a),a)")
    subject, replaced, replacement = T("f(f(g(a),a),a)"), T("a"), T("b")
    oracle = {
        (apply_context(ctx, replacement),)
        for ctx, plugged in holed_versions(subject)
        if plugged == replaced
    }
    assert set(got) == oracle
    assert oracle == {
        H("f(f(g(b),a),a)"),
        H("f(f(g(a),b),a)"),
        H("f(f(g(a),a),b)"),
    }
    print("criterion 04 rewriting three answers, leftmost-outermost first: PASS")


def test_criterion_05_matcher_soundness_and_generated_completeness():
    rng = make_rng(105)
    failures = 0
    for _ in range(1000):
        pattern = pattern_hedge(rng)
        sigma = ground_subst_for(rng, pattern)
        subject = sigma.apply_hedge(pattern)
        found = list(match_hedge(pattern, subject))
        if sigma not in found:
            failures += 1
        for m in found:
            if m.apply_hedge(pattern) != subject:
                failures += 1
    assert failures == 0
    print("criterion 05 matcher soundness on 1000 generated pairs: PASS")


# -- criterion 06: exhaustive comparison against the brute-force oracle ------

ALPHABET = ("a", "f", "g")


def _ground_terms(n, _cache={}):
    if n not in _cache:
        out = []
        if n >= 1:
            for name in ALPHABET:
                for h in _ground_hedges(n - 1):
                    out.append(Compound(Sym(name), h))
        _cache[n] = out
    return _cache[n]


def _ground_hedges(n, _cache={}):
    if n not in _cache:
        if n == 0:
            out = [()]
        else:
            out = []
            for k in range(1, n + 1):
                for t in _ground_terms(k):
                    for rest in _ground_hedges(n - k):
                        out.append((t,) + rest)
        _cache[n] = out
    return _cache[n]


def _all_subjects(max_symbols=4):
    return [h for n in range(max_symbols + 1) for h in _ground_hedges(n)]


def _all_patterns():
    """Flat patterns over a small item pool, plus nested shapes covering
    function and context variables; at most 2 sequence variables, 1
    context variable, and 1 function variable per pattern."""
    pool = [T("a"), T("f(a)"), IndVar("i_1"), SeqVar("s_1"), SeqVar("s_2")]
    patterns = [()]
    for k in (1, 2, 3):
        patterns += [tuple(p) for p in itertools.product(pool, repeat=k)]
    nested = [
        "f(s_1)", "f(s_1, g(i_1))", "g(f_1(s_1))", "f_1(a)", "f_1(s_1)", "f_1(i_1)",
        "c_1(a)", "c_1(i_1)", "c_1(f(a))", "c_1(f_1(a))", "c_1(f(s_1))", "c_1(g(s_1))",
        "(s_1, c_1(a), s_2)", "(s_1, f_1(s_2))", "(i_1, c_1(i_1))",
        "(s_1, c_1(g(i_1)), s_2)", "f(c_1(a))", "(f_1(a), s_1)", "(c_1(i_1), s_1, s_2)",
        "(s_1, c_1(f_1(a)), s_2)", "c_1(f_1(s_1))",
        "(c_1(a), c_1(a))", "(c_1(a), c_1(i_1))", "(f_1(a), f_1(i_1))",
    ]
    patterns += [H(text) for text in nested]
    patterns.append((Compound(FunVar("f_1")),))
    return patterns


def test_criterion_06_matcher_completeness_vs_oracle():
    subjects = _all_subjects()
    patterns = _all_patterns()
    discrepancies = 0
    pairs = 0
    for pattern in patterns:
        for subject in subjects:
            got = set(map(plain, match_hedge(pattern, subject)))
            want = brute_force_matchers(pattern, subject)
            if got != want:
                discrepancies += 1
            pairs += 1
    assert discrepancies == 0
    print(
        f"criterion 06 completeness vs oracle on {pairs} exhaustive pairs: PASS"
    )


def test_criterion_07_threshold_one_equals_exact_matching():
    rng = make_rng(107)
    nonempty = 0
    for k in range(500):
        rel = random_relation(rng)
        pattern = pattern_hedge(rng)
        if k % 2 == 0:
            subject = ground_subst_for(rng, pattern).apply_hedge(pattern)
        else:
            subject = ground_hedge(rng)
        exact = list(match_hedge(pattern, subject))
        prox = list(prox_match_hedge(rel, pattern, subject, D(1)))
        assert [m.subst for m in prox] == exact
        assert all(m.degree == D(1) for m in prox)
        nonempty += bool(exact)
    assert nonempty >= 200
    print("criterion 07 threshold 1 equals exact matching on 500 pairs: PASS")


def test_criterion_08_threshold_monotonicity():
    rng = make_rng(108)
    violations = 0
    nontrivial = 0
    for _ in range(300):
        rel = random_relation(rng)
        pattern = pattern_hedge(rng, n_ctx=0)
        sigma = ground_subst_for(rng, pattern)
        subject = perturb_hedge(rng, rel, sigma.apply_hedge(pattern))
        low = {(m.subst, m.degree) for m in prox_match_hedge(rel, pattern, subject, D("0.5"))}
        high = {(m.subst, m.degree) for m in prox_match_hedge(rel, pattern, subject, D("0.8"))}
        if not high <= low:
            violations += 1
        if low and high < low:
            nontrivial += 1

    # end to end: one merge step enumerated fully at both thresholds
    program = (
        "merge :: (s_X, i_X, s_Y, i_Y, s_Z) ==> (s_X, s_Y, i_Y, s_Z) :- "
        "prox :: i_X ==> i_Y.\n"
    )
    db = load_program(parse_program(program))
    for _ in range(50):
        rel = random_relation(rng)
        subject = render_sequence(
            tuple(T(rng.choice("abcd")) for _ in range(rng.randrange(2, 6)))
        )
        sets = {}
        for lam in ("0.5", "0.8"):
            query = parse_query(f"?(merge :: {subject} ==> s_Out, {lam}, Degree, Result).")
            sets[lam] = {(a.bindings, a.degree) for a in solve(db, query, rel)}
        if not sets["0.8"] <= sets["0.5"]:
            violations += 1
    assert violations == 0
    assert nontrivial >= 10  # enough strict-subset cases to be meaningful
    print("criterion 08 threshold monotonicity, matcher and engine level: PASS")


def test_criterion_09_parser_round_trips():
    for name in ("sorting.rho", "rewriting.rho", "proximity.rho"):
        text = (PROGRAMS / name).read_text(encoding="utf-8")
        program = parse_program(text)
        rendered = render_program(program)
        assert parse_program(rendered) == program
        assert render_program(parse_program(rendered)) == rendered
    rng = make_rng(109)
    for _ in range(1000):
        h = ground_hedge(rng)
        assert parse_sequence(render_sequence(h)) == h
    print("criterion 09 parser round trips (examples + 1000 sequences): PASS")


def test_criterion_10_normal_forms_are_irreducible():
    rng = make_rng(110)
    step_template = (
        "rewrite_step(i_Str) :: c_Ctx(i_X) ==> c_Ctx(i_Y) :- i_Str :: i_X ==> i_Y.\n"
    )
    checked = 0
    for _ in range(60):
        redex = rng.choice("abc")
        replacement_pool = [s for s in ("a", "b", "c", "f", "g") if s != redex]

        def build(depth):
            if depth <= 0 or rng.random() < 0.5:
                return Compound(Sym(rng.choice(replacement_pool)))
            width = rng.randrange(0, 3)
            return Compound(
                Sym(rng.choice(replacement_pool)),
                tuple(build(depth - 1) for _ in range(width)),
            )

        replacement = build(2)  # never contains the redex: terminating
        program = f"r :: {redex} ==> {replacement!r}.\n" + step_template
        db = load_program(parse_program(program))

        def subject_term(depth):
            if depth <= 0 or rng.random() < 0.4:
                return Compound(Sym(rng.choice(("a", "b", "c"))))
            width = rng.randrange(1, 3)
            return Compound(
                Sym(rng.choice(("f", "g"))),
                tuple(subject_term(depth - 1) for _ in range(width)),
            )

        subject = repr(subject_term(2))
        query = parse_query(
            f"?(nf(rewrite_step(r)) :: {subject} ==> s_Out, Result)."
        )
        for answer in solve(db, query):
            out = render_sequence(answer.bindings.get(SeqVar("s_Out")))
            again = parse_query(f"?(rewrite_step(r) :: {out} ==> s_Probe, Result).")
            assert list(solve(db, again)) == [], (program, subject, out)
            checked += 1
    assert checked >= 60
    print(f"criterion 10 nf answers irreducible ({checked} answers checked): PASS")
