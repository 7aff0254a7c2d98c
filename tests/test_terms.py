import copy
import pickle
import threading
import uuid

import pytest

from rholog import (
    HOLE,
    Compound,
    CtxApply,
    CtxVar,
    FunVar,
    IndVar,
    ProximityRelation,
    RhoError,
    SeqVar,
    Subst,
    Sym,
    apply_context,
    hedge_proximity,
    hole_count,
    is_ground,
    match_hedge,
    parse_sequence,
    parse_term,
)
from rholog.errors import InvalidValueError, KindMismatchError
from rholog.program import NotGoal, RhoAtom
from rholog.terms import iter_vars

from tests.genrand import (
    free_vars,
    ground_context,
    ground_subst_for,
    ground_term,
    make_rng,
    pattern_hedge,
    rho_clause_with_body,
)
from tests.test_engine import in_fresh_interpreter


def T(text):
    return parse_term(text)


def H(text):
    return parse_sequence(text)


class TestApplyContext:
    def test_plug_context_into_context(self):
        ctx = T("f(i_X,g(i_Y,hole),a)")
        assert apply_context(ctx, T("g(b,hole)")) == T("f(i_X,g(i_Y,g(b,hole)),a)")

    def test_plug_term_into_context(self):
        ctx = T("f(i_X,g(i_Y,hole),a)")
        assert apply_context(ctx, T("g(b,c)")) == T("f(i_X,g(i_Y,g(b,c)),a)")

    def test_identity_context(self):
        t = T("f(a,b)")
        assert apply_context(HOLE, t) == t

    def test_hole_count_is_preserved(self):
        ctx = T("f(hole,b)")
        assert hole_count(apply_context(ctx, T("g(hole)"))) == 1
        assert hole_count(apply_context(ctx, T("g(a)"))) == 0

    def test_rejects_non_context(self):
        with pytest.raises(ValueError):
            apply_context(T("f(a)"), T("b"))


class TestApplySubst:
    def test_extension_to_sequences(self):
        sigma = Subst(
            {
                CtxVar("c_Ctx"): T("f(hole)"),
                IndVar("i_Term"): T("g(s_X)"),
                FunVar("f_Funct"): Sym("g"),
                SeqVar("s_Seq1"): (),
                SeqVar("s_Seq2"): H("(b,c)"),
            }
        )
        s = H("(c_Ctx(i_Term), f_Funct(s_Seq1,a,s_Seq2))")
        assert sigma.apply_hedge(s) == H("(f(g(s_X)), g(a,b,c))")

    def test_empty_subst_is_identity(self):
        rng = make_rng(7)
        for _ in range(100):
            pattern = pattern_hedge(rng)
            assert Subst().apply_hedge(pattern) == pattern

    def test_function_variable_head(self):
        sigma = Subst({FunVar("f_F"): Sym("g")})
        assert sigma.apply_term(T("f_F(a,b)")) == T("g(a,b)")

    def test_empty_splice(self):
        sigma = Subst({SeqVar("s_X"): ()})
        assert sigma.apply_hedge(H("(a, s_X, b)")) == H("(a,b)")

    def test_splice_and_flatten(self):
        sigma = Subst({SeqVar("s_X"): H("(a,b)")})
        assert sigma.apply_hedge(H("(s_X, s_X)")) == H("(a,b,a,b)")

    def test_unbound_variables_stay(self):
        sigma = Subst({IndVar("i_X"): T("a")})
        assert sigma.apply_hedge(H("(i_X, i_Y, s_Z)")) == H("(a, i_Y, s_Z)")

    def test_context_binding_to_bare_hole(self):
        sigma = Subst({CtxVar("c_X"): HOLE})
        assert sigma.apply_term(T("c_X(f(a))")) == T("f(a)")


class TestStructure:
    def test_is_ground(self):
        assert is_ground(H("(f(a),b)"))
        assert not is_ground(H("s_X"))
        assert not is_ground(T("f(i_X)"))

    def test_free_vars_order(self):
        assert free_vars(T("c_X(f_Y(a))")) == (CtxVar("c_X"), FunVar("f_Y"))
        assert free_vars(H("(s_A, i_B, s_A)")) == (SeqVar("s_A"), IndVar("i_B"))

    def test_hole_count(self):
        assert hole_count(T("f(hole,g(a))")) == 1
        assert hole_count(T("f(a)")) == 0
        assert hole_count(H("(hole, f(hole))")) == 2

    def test_numerals_are_constants(self):
        assert T("3") == Compound(Sym("3"))
        assert T("0.5") == Compound(Sym("0.5"))


class TestValidation:
    def test_symbol_name_restrictions(self):
        with pytest.raises(ValueError):
            Sym("hole")
        with pytest.raises(ValueError):
            Sym("eps")
        with pytest.raises(ValueError):
            Sym("i_bad")
        with pytest.raises(ValueError):
            Sym("")

    def test_variable_name_restrictions(self):
        with pytest.raises(ValueError):
            IndVar("x")
        with pytest.raises(ValueError):
            SeqVar("s_")

    def test_kind_mismatches(self):
        with pytest.raises(KindMismatchError):
            Subst({IndVar("i_X"): H("(a,b)")})
        with pytest.raises(KindMismatchError):
            Subst({SeqVar("s_X"): T("a")})
        with pytest.raises(KindMismatchError):
            Subst({FunVar("f_X"): T("a")})
        with pytest.raises(KindMismatchError):
            Subst({CtxVar("c_X"): T("f(a)")})  # no hole
        with pytest.raises(KindMismatchError):
            Subst({IndVar("i_X"): T("f(hole)")})  # hole leaks into a term

    def test_bind_checks_kinds(self):
        bad = [
            (SeqVar("s_X"), H("(a, g(hole))")),  # hole leaks into a sequence
            (CtxVar("c_X"), T("f(hole,hole)")),  # two holes
        ]
        for var, value in bad:
            with pytest.raises(KindMismatchError):
                Subst({var: value})

    def test_identity_bindings_normalize_away(self):
        assert Subst({IndVar("i_X"): IndVar("i_X")}) == Subst()
        assert Subst({SeqVar("s_X"): (SeqVar("s_X"),)}) == Subst()
        assert Subst({CtxVar("c_X"): CtxApply(CtxVar("c_X"), HOLE)}) == Subst()

    def test_bind_normalizes_identity(self):
        # An identity binding beside real ones is dropped; the others stay.
        sigma = Subst({IndVar("i_X"): IndVar("i_X"), IndVar("i_Y"): T("a"),
                       SeqVar("s_X"): (SeqVar("s_X"),)})
        assert sigma == Subst({IndVar("i_Y"): T("a")})
        assert [v for v, _ in sigma.items()] == [IndVar("i_Y")]

    def test_repr_renders_sequence_bindings_as_the_printer_does(self):
        sigma = Subst({IndVar("i_X"): T("f(a)"), SeqVar("s_E"): (),
                       SeqVar("s_One"): H("(g(b))"), SeqVar("s_Three"): H("(a,f(b),c)")})
        assert repr(sigma) == "{i_X -> f(a), s_E -> eps, s_One -> g(b), s_Three -> (a,f(b),c)}"
        assert repr(Subst()) == "{}"


REFUSED_VALUES = {
    "empty symbol name": lambda: Sym(""),
    "reserved symbol name": lambda: Sym("eps"),
    "symbol with a variable prefix": lambda: Sym("s_X"),
    "variable without a base": lambda: SeqVar("s_"),
    "context without a hole": lambda: apply_context(T("f(a)"), T("b")),
    "pattern with a hole": lambda: list(match_hedge(H("(hole)"), H("(a)"))),
    "subject with a variable": lambda: list(match_hedge(H("(i_X)"), H("(s_Y)"))),
    "subject with a hole": lambda: list(match_hedge(H("(i_X)"), H("(hole)"))),
    "proximity of a variable": lambda: hedge_proximity(ProximityRelation(), H("(i_X)"), H("(a)")),
}


@pytest.mark.parametrize("refuse", REFUSED_VALUES.values(), ids=REFUSED_VALUES)
def test_a_refused_value_is_a_rho_error_and_a_value_error(refuse):
    with pytest.raises(InvalidValueError) as raised:
        refuse()
    assert isinstance(raised.value, RhoError) and isinstance(raised.value, ValueError)


def _ref_holes(x):
    if isinstance(x, tuple):
        return sum(_ref_holes(item) for item in x)
    if x == HOLE:
        return 1
    if isinstance(x, CtxApply):
        return _ref_holes(x.arg)
    if isinstance(x, Compound):
        return _ref_holes(x.args)
    return 0


def _ref_ground(x):
    if isinstance(x, tuple):
        return all(_ref_ground(item) for item in x)
    if isinstance(x, Compound):
        return isinstance(x.head, Sym) and _ref_ground(x.args)
    return x == HOLE


def _compounds(x):
    if isinstance(x, tuple):
        for item in x:
            yield from _compounds(item)
    elif isinstance(x, CtxApply):
        yield from _compounds(x.arg)
    elif isinstance(x, Compound):
        yield x
        yield from _compounds(x.args)


class TestCachedInvariants:
    """Compound carries its hole count and groundness from construction."""

    def samples(self):
        rng = make_rng(30)
        for _ in range(300):
            yield (ground_term(rng),)
            yield (ground_context(rng),)
            pattern = pattern_hedge(rng)
            yield pattern
            yield ground_subst_for(rng, pattern).apply_hedge(pattern)
            yield (apply_context(ground_context(rng), ground_context(rng)),)
            if pattern and not isinstance(pattern[0], SeqVar):
                yield (apply_context(ground_context(rng), pattern[0]),)
        yield H("(f(c_X(g(hole)), i_Y), c_Z(hole), f_F(hole, s_S))")

    def test_cache_matches_recursive_reference(self):
        compounds = 0
        for hedge in self.samples():
            assert hole_count(hedge) == _ref_holes(hedge)
            assert is_ground(hedge) == _ref_ground(hedge)
            for t in _compounds(hedge):
                assert (hole_count(t), is_ground(t)) == (_ref_holes(t), _ref_ground(t))
                compounds += 1
        assert compounds > 1000

    def test_cache_stays_out_of_eq_hash_and_repr(self):
        text = "f(g(a, hole), c_X(b), s_Y)"
        used, fresh = T(text), T(text)
        assert (hole_count(used), is_ground(used)) == (1, False)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == text.replace(" ", "")
        # even a cache that disagreed would not change equality or printing
        object.__setattr__(fresh, "_holes", 7)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)


def _ref_vars(x):
    """Variable occurrences in preorder, by plain recursion, ground or not."""
    if isinstance(x, tuple):
        return [v for item in x for v in _ref_vars(item)]
    if isinstance(x, (IndVar, SeqVar, FunVar, CtxVar)):
        return [x]
    if isinstance(x, Compound):
        return _ref_vars(x.head) + _ref_vars(x.args)
    if isinstance(x, CtxApply):
        return [x.var] + _ref_vars(x.arg)
    return []


class TestIterVars:
    """``iter_vars`` walks with an explicit stack and skips ground compounds."""

    def samples(self):
        rng = make_rng(31)
        for _ in range(300):
            yield (ground_term(rng),)
            yield (ground_context(rng),)
            pattern = pattern_hedge(rng)
            yield pattern
            # some variables bound: ground compounds inside non-ground ones
            sigma = ground_subst_for(rng, pattern)
            yield sigma.restrict(free_vars(pattern)[::2]).apply_hedge(pattern)
            if pattern and not isinstance(pattern[0], SeqVar):
                yield (apply_context(ground_context(rng), pattern[0]),)
            clause = rho_clause_with_body(rng)
            yield clause.lhs
            yield clause.rhs
            for lit in clause.body:
                lit = lit.inner if isinstance(lit, NotGoal) else lit
                if isinstance(lit, RhoAtom):
                    yield (lit.strategy,) + lit.lhs
                    yield lit.rhs
                else:
                    yield (Compound(lit.head, lit.args),)
                    yield lit.args

    def test_walk_matches_recursive_reference(self):
        repeats = ground_inside = 0
        for hedge in self.samples():
            want = _ref_vars(hedge)
            assert list(iter_vars(hedge)) == want
            for item in hedge:
                assert list(iter_vars(item)) == _ref_vars(item)
            assert free_vars(hedge) == tuple(dict.fromkeys(want))
            repeats += len(set(want)) < len(want)
            ground_inside += bool(want) and any(
                is_ground(t) and t.args for t in _compounds(hedge))
        assert repeats > 100 and ground_inside > 200

    def test_heads_and_atoms(self):
        assert list(iter_vars(FunVar("f_F"))) == [FunVar("f_F")]
        assert list(iter_vars(Sym("f"))) == list(iter_vars(HOLE)) == []
        assert list(iter_vars(T("g(c_C(f_F(i_X, s_Y)), i_X)"))) == [
            CtxVar("c_C"), FunVar("f_F"), IndVar("i_X"), SeqVar("s_Y"), IndVar("i_X")
        ]

    def test_deep_clause_at_the_default_recursion_limit(self):
        out = in_fresh_interpreter(
            "from rholog import *\n"
            "from rholog.program import RhoClause, RhoAtom, SourceProgram\n"
            "from rholog.terms import iter_vars\n"
            "t = SeqVar('s_X')\n"
            "for _ in range(10_000):\n"
            "    t = Compound(Sym('f'), (t,))\n"
            "body = (RhoAtom(atom('id'), (t,), (SeqVar('s_Y'),)),)\n"
            "g = Sym('g')\n"
            "clause = RhoClause(atom('st'), (t,), (Compound(g, (SeqVar('s_Y'),)), t), body)\n"
            "print(list(iter_vars(clause.lhs)),\n"
            "      tuple(dict.fromkeys(iter_vars((t, Compound(g, (t, IndVar('i_Z'))))))))\n"
            "db = load_program(SourceProgram((clause,)))\n"
            "print(db.rho_for('st', (atom('f'),))[0][3][:3])\n"
        )
        assert out.splitlines() == ["[s_X] (s_X, i_Z)", "((s_Y,), True, (True, True))"]


ATOM_KINDS = [(Sym, "a"), (IndVar, "i_X"), (SeqVar, "s_X"), (FunVar, "f_X"), (CtxVar, "c_X")]


class TestInternedAtoms:
    """One object per kind and name, so ``==`` and ``hash`` are identity."""

    @pytest.mark.parametrize("kind, name", ATOM_KINDS)
    def test_one_object_per_kind_and_name(self, kind, name):
        assert kind(name) is kind(name)
        assert kind(name).name == name and repr(kind(name)) == name

    def test_kinds_do_not_share_objects(self):
        assert IndVar("i_X") is not SeqVar("s_X")
        assert Sym("a") != Compound(Sym("a"))

    @pytest.mark.parametrize("kind, name", ATOM_KINDS)
    def test_name_cannot_be_set(self, kind, name):
        atom = kind(name)
        with pytest.raises(AttributeError):
            atom.name = "other"
        assert atom.name == name

    @pytest.mark.parametrize("kind, bad", [
        (Sym, "hole"), (Sym, "i_bad"), (Sym, ""), (IndVar, "x"), (IndVar, "i_"),
        (SeqVar, "i_X"), (FunVar, "s_F"), (CtxVar, "f_C"),
    ])
    def test_an_invalid_name_raises_every_time(self, kind, bad):
        for _ in range(3):
            with pytest.raises(ValueError):
                kind(bad)

    @pytest.mark.parametrize("kind, name", ATOM_KINDS)
    def test_copies_and_pickles_are_the_same_object(self, kind, name):
        atom = kind(name)
        assert copy.copy(atom) is atom
        assert copy.deepcopy(atom) is atom
        assert pickle.loads(pickle.dumps(atom)) is atom
        term = T("f(i_X, g(a), s_X)")
        assert copy.deepcopy(term) == term and pickle.loads(pickle.dumps(term)) == term

    def test_threads_racing_on_fresh_names_get_one_object_each(self):
        names = [f"s_Race{uuid.uuid4().hex}~{n}" for n in range(500)]
        start = threading.Barrier(4)
        made = [None] * 4

        def make(k):
            start.wait()
            made[k] = [SeqVar(name) for name in names]

        threads = [threading.Thread(target=make, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for row in zip(*made):
            assert all(var is row[0] for var in row)
        assert [SeqVar(name) for name in names] == made[0]

    @pytest.mark.parametrize("kind", [Sym, IndVar, SeqVar, FunVar, CtxVar])
    def test_equality_and_hash_are_objects(self, kind):
        # a Python-level __eq__ or __hash__ (a dataclass, say) would run on
        # every substitution lookup and symbol comparison
        assert kind.__eq__ is object.__eq__
        assert kind.__hash__ is object.__hash__


def test_random_context_application_keeps_hole_count():
    rng = make_rng(3)
    from tests.genrand import ground_context

    for _ in range(200):
        ctx = ground_context(rng)
        t = ground_term(rng)
        assert hole_count(apply_context(ctx, t)) == 0
        assert hole_count(apply_context(ctx, T("g(hole)"))) == 1
