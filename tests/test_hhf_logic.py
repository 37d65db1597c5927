import itertools
import random
import re

import pytest

from lfhh.hhf_logic import (
    ClauseSet,
    FAtom,
    FForall,
    FImplies,
    FTop,
    SArrow,
    SBase,
    TM,
    TY,
    encode_term,
    erase_type,
    open_leaves,
    print_clauses,
    print_formula,
    print_simple_type,
    translate,
    translate_query,
)
from lfhh.lf_syntax import (
    App,
    Bound,
    Const,
    HEigen,
    HMeta,
    Lam,
    Meta,
    NO_ANNOT,
    TYPE,
    instantiate,
    make_app,
    parse_expr_text,
    parse_signature,
)
from lfhh.lf_typecheck import checked_signature
from corpus import (
    list_elems,
    list_term,
    random_nat,
    random_signature_case,
    substitute,
)


# -- erasure --------------------------------------------------------------------


def test_erase_constructor(append_sig):
    assert erase_type(append_sig.lookup("cons").classifier) == SArrow(TM, SArrow(TM, TM))


def test_erase_family_kind(append_sig):
    assert erase_type(append_sig.lookup("append").classifier) == SArrow(TM, SArrow(TM, SArrow(TM, TY)))
    assert erase_type(append_sig.lookup("nat").classifier) == TY


def test_erase_type_constant():
    assert erase_type(TYPE) == TY


def test_simple_type_printing():
    t = SArrow(SArrow(TM, TM), TY)
    assert print_simple_type(t) == "(tm -> tm) -> ty"


# -- term encoding ----------------------------------------------------------------


def test_encode_first_order():
    e = parse_expr_text("cons z nil")
    assert encode_term(e) == App(App(Const("cons"), Const("z")), Const("nil"))


def test_encode_with_metas():
    m = HMeta("K", 1, 0)
    e = make_app(Const("append"), [Const("nil"), Meta("K"), Meta("K")])
    t = encode_term(e, {"K": m})
    assert t == App(App(App(Const("append"), Const("nil")), m), m)


def test_encode_drops_annotations():
    e = Lam("x", Const("nat"), App(Const("s"), Bound(0)))
    assert encode_term(e) == Lam("x", NO_ANNOT, App(Const("s"), Bound(0)))


def test_encode_commutes_with_substitution(append_sig):
    # target-side substitution oracle: replace a constant by a term
    def h_subst(t, name, v):
        match t:
            case Const(n) if n == name:
                return v
            case App(f, a):
                return App(h_subst(f, name, v), h_subst(a, name, v))
            case Lam(h, annot, b):
                return Lam(h, annot, h_subst(b, name, v))
            case _:
                return t

    rng = random.Random(17)
    for _ in range(150):
        elems = list_elems(rng, 3)
        m = list_term(elems + [Const("xv")])  # xv free
        n = random_nat(rng)
        lhs = encode_term(substitute(m, {"xv": n}))
        rhs = h_subst(encode_term(m), "xv", encode_term(n))
        assert lhs == rhs


# -- substitution against a named reference ------------------------------------------


def random_hterm(rng, scope, size):
    """A random term whose loose indices are below `scope`, over two
    constants, a unification variable and an eigenvariable."""
    if size <= 1 or rng.random() < 0.2:
        r = rng.random()
        if scope and r < 0.6:
            return Bound(rng.randrange(scope))
        if r < 0.7:
            return HMeta("V", 7)
        if r < 0.8:
            return HEigen("e", 3, 1)
        return Const(rng.choice("cd"))
    if rng.random() < 0.4:
        return Lam("x", NO_ANNOT, random_hterm(rng, scope + 1, size - 1))
    k = rng.randrange(1, size)
    return App(random_hterm(rng, scope, k), random_hterm(rng, scope, size - k))


def named(t, env, fresh):
    """`t` with every variable written as a name: `env` names the loose
    indices, innermost last, and each abstraction binds a fresh name."""
    match t:
        case Bound(k):
            return ("var", env[-1 - k])
        case Lam(_, _, b):
            x = f"n{next(fresh)}"
            return ("lam", x, named(b, env + [x], fresh))
        case App(f, a):
            return ("app", named(f, env, fresh), named(a, env, fresh))
        case _:
            return ("leaf", t)


def subst(t, sub):
    """Named substitution; no binder name is free in a value, so nothing is
    captured and nothing is renamed."""
    match t:
        case ("var", x):
            return sub.get(x, t)
        case ("lam", x, b):
            return ("lam", x, subst(b, sub))
        case ("app", f, a):
            return ("app", subst(f, sub), subst(a, sub))
        case _:
            return t


def unnamed(t, env):
    """The de Bruijn term of the named term `t` over the names `env`."""
    match t:
        case ("var", x):
            return Bound(env[::-1].index(x))
        case ("lam", x, b):
            return Lam("x", NO_ANNOT, unnamed(b, env + [x]))
        case ("app", f, a):
            return App(unnamed(f, env), unnamed(a, env))
        case ("leaf", leaf):
            return leaf


def test_instantiate_and_apply_agree_with_named_substitution():
    # a body over outer variables, the n variables being replaced and `depth`
    # local ones, innermost last; values over the outer variables only
    rng = random.Random(20111)
    fresh = itertools.count()
    open_values = 0
    for _ in range(500):
        outer = [f"o{i}" for i in range(rng.randrange(3))]
        replaced = [f"v{i}" for i in range(rng.randint(1, 2))]
        local = [f"l{i}" for i in range(rng.randrange(3))]
        body = random_hterm(rng, len(outer) + len(replaced) + len(local), rng.randint(1, 9))
        values = [random_hterm(rng, len(outer), rng.randint(1, 5)) for _ in replaced]
        open_values += any(v.scope != 0 for v in values)
        sub = {x: named(v, outer, fresh) for x, v in zip(replaced, values)}
        want = unnamed(subst(named(body, outer + replaced + local, fresh), sub), outer + local)
        assert instantiate(body, values, len(local)) == want, (body, values, len(local))
        v = values[-1]
        lam = Lam("y", NO_ANNOT, random_hterm(rng, len(outer) + 1, rng.randint(1, 9)))
        want = unnamed(subst(named(lam.body, outer + ["y"], fresh), {"y": named(v, outer, fresh)}), outer)
        assert instantiate(lam.body, (v,)) == want
        if v.scope == 0:
            # a closed value is put in place as it is
            assert instantiate(Bound(len(local)), [v], len(local)) is v
    assert open_values > 250


# -- clause translation -------------------------------------------------------------


def _assert_matches_golden(sig, mode, golden):
    # bound variables print as x1, x2, ...; with no constant named so, equal
    # texts are equal formulas
    assert not [e.name for e in sig if re.fullmatch(r"x\d+", e.name)]
    assert print_clauses(translate(sig, mode)) == golden.read_text()


def test_simple_translation_matches_reference_clauses(append_sig, golden_dir):
    _assert_matches_golden(append_sig, "naive", golden_dir / "append_naive.hh")


def test_optimized_translation_matches_reference_clauses(append_sig, golden_dir):
    _assert_matches_golden(append_sig, "optimized", golden_dir / "append_optimized.hh")


def test_clause_origins_and_order(append_sig):
    cs = translate(append_sig, "naive")
    assert [c.origin for c in cs] == ["z", "s", "nil", "cons", "appNil", "appCons"]
    assert cs.mode == "naive"


def test_families_contribute_no_clauses(append_sig):
    names = {c.origin for c in translate(append_sig, "optimized")}
    assert "nat" not in names and "append" not in names


def _optimized_clause(sig, name):
    (f,) = [c.formula for c in translate(sig, "optimized") if c.origin == name]
    return f


def test_optimized_decl_single(append_sig):
    f = _optimized_clause(append_sig, "appNil")
    assert print_formula(f) == "forall x1:tm. top => hastype (appNil x1) (append nil x1 x1)"


def test_remark_guard_retained(remark_sig):
    f = _optimized_clause(remark_sig, "mk")
    assert print_formula(f) == (
        "forall x1:tm -> tm. (forall x2:tm. hastype x2 nat => hastype (x1 x2) (num z))"
        " => hastype (mk x1) (chk (x1 z))"
    )


def test_mode_agreement_structure(append_sig, remark_sig):
    def stripped_eq(n, o):
        match (n, o):
            case (FForall(_, s1, b1), FForall(_, s2, b2)):
                return s1 == s2 and stripped_eq(b1, b2)
            case (FImplies(a1, c1), FImplies(a2, c2)):
                return (isinstance(a2, FTop) or stripped_eq(a1, a2)) and stripped_eq(c1, c2)
            case (FAtom(s1, c1), FAtom(s2, c2)):
                return s1 == s2 and c1 == c2
            case _:
                return n == o

    rng = random.Random(41)
    sigs = [append_sig, remark_sig] + [random_signature_case(rng)[0] for _ in range(10)]
    for sig in sigs:
        naive = translate(sig, "naive")
        opt = translate(sig, "optimized")
        assert len(naive) == len(opt)
        for cn, co in zip(naive, opt):
            assert cn.origin == co.origin
            assert stripped_eq(cn.formula, co.formula)


# -- query translation ---------------------------------------------------------------


def test_query_base(append_sig):
    q = parse_expr_text("append (cons z nil) (cons (s z) nil) K")
    from lfhh.lf_syntax import parse_query

    q = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
    goal, proof, metas = translate_query(append_sig, q, "optimized")
    assert isinstance(goal, FAtom)
    assert goal.subject == proof and proof.name == "M"
    assert metas == {"L": HMeta("L", 1)}
    assert open_leaves(goal, HMeta, []) == [proof, metas["L"]]


def test_query_trivial_base(append_sig):
    goal, proof, _ = translate_query(append_sig, Const("nat"), "naive")
    assert goal == FAtom(proof, Const("nat"))


def test_query_pi_case(append_sig):
    goal, proof, _ = translate_query(append_sig, parse_expr_text("{x:nat} nat"), "optimized")
    match goal:
        case FForall(_, st, FImplies(FAtom(gs, gc), FAtom(s2, c2))):
            assert st == TM
            assert gs == Bound(0) and gc == Const("nat")
            assert s2 == App(proof, Bound(0)) and c2 == Const("nat")
        case _:
            pytest.fail(f"unexpected goal shape {goal}")


def test_query_proof_meta_name_avoids_collision(append_sig):
    q = make_app(Const("append"), [Meta("M"), Meta("M"), Const("nil")])
    goal, proof, _ = translate_query(append_sig, q, "optimized")
    assert proof.name != "M"


# -- text format -----------------------------------------------------------------------


def test_print_empty_clause_set():
    assert print_clauses(ClauseSet((), "naive")) == ""


def test_print_deterministic_bound_names(append_sig):
    text = print_clauses(translate(append_sig, "naive"))
    assert "forall x1:tm." in text
    assert text.splitlines()[1] == "forall x1:tm. hastype x1 nat => hastype (s x1) nat."


def test_print_abstraction_does_not_capture_a_quantifier():
    # quantifiers are numbered across the clause, so the name `x3` that an
    # abstraction under two quantifiers takes can be one of them: it is
    # renamed when its body refers to that quantifier (c), and kept when it
    # does not (d), so the two clauses print apart
    sig = checked_signature(
        parse_signature(
            "nat : type. z : nat. p : (nat -> nat) -> type."
            " c : {f:nat -> nat} {n:nat} p ([x:nat] f n)."
            " d : {f:nat -> nat} {n:nat} p ([x:nat] f x)."
        )
    )
    guard = "(forall x2:tm. hastype x2 nat => hastype (x1 x2) nat)"
    c, d = (print_formula(cl.formula) for cl in translate(sig, "naive").clauses[1:])
    assert c == f"forall x1:tm -> tm. {guard} => (forall x3:tm. hastype x3 nat => hastype (c x1 x3) (p (\\x4. x1 x3)))"
    assert d == f"forall x1:tm -> tm. {guard} => (forall x3:tm. hastype x3 nat => hastype (d x1 x3) (p (\\x3. x1 x3)))"


def test_golden_clause_files(append_sig, golden_dir):
    naive = print_clauses(translate(append_sig, "naive"))
    opt = print_clauses(translate(append_sig, "optimized"))
    assert naive == (golden_dir / "append_naive.hh").read_text()
    assert opt == (golden_dir / "append_optimized.hh").read_text()


# -- well-sortedness oracle ---------------------------------------------------------

PROP = SBase("o")  # the sort of formulas


def formula_sort(f, consts, env=()):
    """Independent sort checker for clause formulas; returns the proposition
    sort or raises."""

    def term_sort(t, env):
        match t:
            case Const(n):
                return consts[n]
            case Bound(k):
                return env[-1 - k]
            case HMeta() as m:
                return m.stype
            case Lam():
                raise AssertionError("bare lambda needs an expected type")
            case App(fn, a):
                ft = term_sort(fn, env)
                assert isinstance(ft, SArrow), f"over-application: {t}"
                check_term(a, ft.dom, env)
                return ft.cod
        raise AssertionError(f"bad term {t}")

    def check_term(t, want, env):
        if isinstance(t, Lam):
            assert isinstance(want, SArrow), f"lambda at base sort: {t}"
            check_term(t.body, want.cod, env + (want.dom,))
            return
        assert term_sort(t, env) == want, f"sort mismatch at {t}"

    match f:
        case FTop():
            return PROP
        case FAtom(s, c):
            check_term(s, TM, env)
            check_term(c, TY, env)
            return PROP
        case FImplies(a, b):
            assert formula_sort(a, consts, env) == PROP
            return formula_sort(b, consts, env)
        case FForall(_, st, b):
            assert st != PROP and not _mentions_prop(st)
            return formula_sort(b, consts, env + (st,))
    raise AssertionError(f"bad formula {f}")


def _mentions_prop(st):
    match st:
        case SArrow(d, c):
            return _mentions_prop(d) or _mentions_prop(c)
        case _:
            return st == PROP


def test_all_clauses_well_sorted_and_closed(append_sig, remark_sig):
    rng = random.Random(43)
    sigs = [append_sig, remark_sig] + [random_signature_case(rng)[0] for _ in range(15)]
    for sig in sigs:
        consts = {e.name: erase_type(e.classifier) for e in sig}
        for mode in ("naive", "optimized"):
            cs = translate(sig, mode)
            for c in cs:
                # the sort walk also catches loose indices (env underflow)
                assert formula_sort(c.formula, consts) == PROP
                assert open_leaves(c.formula, HMeta, []) == []
