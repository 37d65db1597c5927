import random
import tracemalloc

import pytest

from lfhh.lf_syntax import (
    NO_ANNOT,
    App,
    Bound,
    Const,
    HEigen,
    HMeta,
    Lam,
    Meta,
    Pi,
    Signature,
    TYPE,
    beta_normalize,
    make_app,
    normalize,
    parse_expr_text,
    parse_signature,
)
from lfhh.lf_typecheck import (
    Derivation,
    KernelError,
    check_kind,
    check_object,
    check_type,
    checked_signature,
)

from corpus import STLC_BLOCK, STLC_TEXT, append_proof, extend, list_elems, list_term, substitute, substitution_instance, to_sexpr


def recount(d: Derivation) -> int:
    """Independent size oracle: walk the tree, ignore the cached field."""
    return 1 + sum(recount(p) for p in d.premises)


# -- signatures ---------------------------------------------------------------


def test_append_context_accepted(append_text):
    *prefix, last = checked_signature(parse_signature(append_text)).entries
    d = check_type(Signature(prefix), last.classifier)
    assert d.rule == "PiFam"
    assert d.size == recount(d)


def test_empty_context():
    assert len(checked_signature(Signature())) == 0


def test_unbound_constant_in_context():
    with pytest.raises(KernelError, match="unbound constant 'd'"):
        checked_signature(parse_signature("c : d."))


def test_undeclared_constant_named_like_a_binder_is_unbound():
    # the binder [y:a] is printed as y1, since y is declared; the constant y1
    # in its body is still undeclared, not that binder
    with pytest.raises(KernelError, match="unbound constant 'y1'"):
        checked_signature(parse_signature("a : type. y : a. f : (a -> a) -> type. d : f ([y:a] y1)."))


@pytest.mark.parametrize(
    "text, message",
    [
        ("a : type. b : c. c : type.", "unbound constant 'c' [BackchainFam] at a |- c : type"),
        ("a : type. b : a -> a. f : b -> type. c : type.", "'b' is not a type family [BackchainFam] at a,b |- b : type"),
        ("nat : type. f : {x:nat} x. g : type.", "'x' is not a type family [BackchainFam] at nat,x |- x : type"),
    ],
)
def test_a_declaration_is_checked_against_the_earlier_ones_only(text, message):
    # a declaration is added once its check returns, so a judgment in its
    # error names the declarations before it and none after
    with pytest.raises(KernelError) as info:
        checked_signature(parse_signature(text))
    assert str(info.value) == message


def test_checked_signature_memory_is_linear():
    # each declaration's derivation is dropped once it is checked, and the
    # signature is one table entry per name: 3000 declarations peak at about
    # 0.7 MiB
    raw = parse_signature("".join(STLC_BLOCK.replace("{t}", f"_{i}") for i in range(200)))
    tracemalloc.start()
    try:
        sig = checked_signature(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sig) == 3000 and peak < 2 * 2**20
    assert sig.fingerprint() == ",".join(e.name for e in raw)


def test_checked_signature_normalizes():
    # classifiers arrive raw: a beta redex and an eta-short argument both
    # become canonical at the boundary
    raw = parse_signature(
        "nat : type. z : nat. s : nat -> nat."
        " d : ([x:nat] nat) z."
        " p : (nat -> nat) -> type."
        " h : p s."
    )
    sig = checked_signature(raw)
    assert sig.lookup("d").classifier == Const("nat")
    assert sig.lookup("h").classifier == App(
        Const("p"), Lam("x", Const("nat"), App(Const("s"), Bound(0)))
    )


# -- kinds ----------------------------------------------------------------------


def test_kind_type(append_sig):
    assert check_kind(append_sig, TYPE).rule == "TypeKind"


def test_kind_indexed_family(append_sig):
    d = check_kind(append_sig, parse_expr_text("{n:nat} type"))
    assert d.rule == "PiKind" and d.size == recount(d)


def test_kind_expected_error(append_sig):
    with pytest.raises(KernelError, match="kind expected"):
        check_kind(append_sig, parse_expr_text("{n:nat} nat"))


# -- families -------------------------------------------------------------------


def test_type_backchain(append_sig):
    d = check_type(append_sig, parse_expr_text("append nil nil nil"))
    assert d.rule == "BackchainFam" and len(d.premises) == 3
    assert d.size == recount(d) == 4


def test_type_pi_classifier(append_sig):
    d = check_type(append_sig, append_sig.lookup("appNil").classifier)
    assert d.rule == "PiFam"


def test_type_sort_confusion(append_sig):
    with pytest.raises(KernelError, match="expected list|constructs nat"):
        check_type(append_sig, parse_expr_text("append z nil nil"))


def test_family_arity_errors(append_sig):
    with pytest.raises(KernelError, match="fully applied"):
        check_type(append_sig, parse_expr_text("append nil nil"))
    with pytest.raises(KernelError, match="too many arguments"):
        check_type(append_sig, parse_expr_text("nat nil"))


# -- objects --------------------------------------------------------------------


def test_object_backchain_size(append_sig):
    d = check_object(append_sig, parse_expr_text("appNil nil"), parse_expr_text("append nil nil nil"))
    assert d.rule == "BackchainObj" and d.head == "appNil"
    # frozen golden from the independent recount oracle
    assert d.size == recount(d) == 2


def test_object_identity(append_sig):
    d = check_object(append_sig, parse_expr_text("[x:nat] x"), parse_expr_text("{x:nat} nat"))
    assert d.rule == "AbsObj"


def test_object_example_inhabitant(append_sig):
    proof = parse_expr_text("appCons z nil (cons (s z) nil) (cons (s z) nil) (appNil (cons (s z) nil))")
    ty = parse_expr_text("append (cons z nil) (cons (s z) nil) (cons z (cons (s z) nil))")
    d = check_object(append_sig, proof, ty)
    assert d.size == recount(d) == 16


def test_object_shape_errors(append_sig):
    with pytest.raises(KernelError, match="abstraction against a base type"):
        check_object(append_sig, Lam("x", Const("nat"), Bound(0)), Const("nat"))
    with pytest.raises(KernelError, match="must be an abstraction"):
        check_object(append_sig, Const("z"), parse_expr_text("{x:nat} nat"))
    with pytest.raises(KernelError, match="constructs"):
        check_object(append_sig, Const("z"), Const("list"))


def test_kernel_rejects_metas(append_sig):
    with pytest.raises(KernelError, match="meta-variables"):
        check_object(append_sig, Meta("M"), Const("nat"))
    with pytest.raises(KernelError, match="meta-variables"):
        check_type(append_sig, make_app(Const("append"), [Const("nil"), Meta("K"), Meta("K")]))


def test_kernel_rejects_a_meta_deep_inside_a_closed_term(append_sig):
    # the check reads the meta flag at the root, so a variable 250 list cells
    # down, or under a binder, is rejected before any rule runs
    elems = [Const("z")] * 300
    holed = elems[:250] + [Meta("X")] + elems[251:]
    ty = make_app(Const("append"), [list_term(elems), Const("nil"), list_term(elems)])
    holed_ty = make_app(Const("append"), [list_term(holed), Const("nil"), list_term(elems)])
    with pytest.raises(KernelError, match="meta-variables") as e:
        check_type(append_sig, holed_ty)
    assert e.value.rule == "BackchainFam"
    with pytest.raises(KernelError, match="meta-variables") as e:
        check_object(append_sig, append_proof(holed, []), ty)
    assert e.value.rule == "BackchainObj"
    under = Pi("x", Const("nat"), make_app(Const("append"), [list_term(holed), Const("nil"), Bound(0)]))
    with pytest.raises(KernelError, match="meta-variables"):
        check_type(append_sig, under)
    check_object(append_sig, append_proof(elems, []), ty)  # the closed one is accepted


_VAR, _EIGEN, _LAM = HMeta("X", 1), HEigen("c!1", 1, 1), Lam("x", NO_ANNOT, Bound(0))
_TM = Const("tm")


@pytest.mark.parametrize(
    "subject, classifier, rule, shown",
    [
        (_VAR, "tm", "BackchainObj", "?X"),
        (make_app(Const("app"), [_VAR, _VAR]), "tm", "BackchainObj", "app ?X ?X"),
        (Lam("y", _TM, App(App(Const("app"), Bound(0)), _VAR)), "tm -> tm", "BackchainObj", "app y ?X"),
        (_EIGEN, "tm", "BackchainObj", "c!1"),
        (make_app(Const("app"), [_EIGEN, _EIGEN]), "tm", "BackchainObj", "|- c!1 : tm"),
        (Lam("y", _TM, App(App(Const("app"), Bound(0)), _EIGEN)), "tm -> tm", "BackchainObj", "y |- c!1 : tm"),
        (_LAM, "tm -> tm", "AbsObj", "[x:_] x"),
        (make_app(Const("lam"), [Const("base"), _LAM]), "tm", "AbsObj", "[x:_] x"),
        (Lam("y", _TM, _LAM), "tm -> tm -> tm", "AbsObj", "[x:_] x"),
    ],
    ids=[f"{node}-{where}" for node in ("var", "eigen", "lam") for where in ("top", "in-app", "in-lam")],
)
def test_kernel_rejects_the_provers_nodes(subject, classifier, rule, shown):
    # a variable, an eigenvariable or an abstraction with no annotation, at
    # the top, under an application or under an annotated abstraction, is a
    # kernel error whose judgment prints the node
    sig = checked_signature(parse_signature(STLC_TEXT))
    with pytest.raises(KernelError) as e:
        check_object(sig, subject, parse_expr_text(classifier))
    assert e.value.rule == rule
    assert shown in str(e.value)


def test_loose_index_is_a_kernel_error(append_sig):
    # an index beyond its binders has no classifier; the judgment in the
    # message names it `#k`, counted from outside the binders
    with pytest.raises(KernelError, match=r"headed by a declared family .* nat,.*,x \|- #2 : type$"):
        check_type(append_sig, Pi("x", Const("nat"), Bound(3)))
    with pytest.raises(KernelError, match=r"argument 1 of 's': object head .* \|- #0 : nat$"):
        check_object(append_sig, Lam("x", Const("nat"), App(Const("s"), Bound(1))), parse_expr_text("nat -> nat"))
    with pytest.raises(KernelError, match=r"argument 2 of 'append'"):
        check_type(append_sig, make_app(Const("append"), [Const("nil"), Bound(0), Const("nil")]))


def test_error_reports_carry_rule_and_judgment(append_sig):
    try:
        check_object(append_sig, Const("z"), Const("list"))
    except KernelError as e:
        assert e.rule == "BackchainObj"
        assert e.judgment is not None and "z" in str(e.judgment)
    else:
        pytest.fail("expected a kernel error")


# -- properties -----------------------------------------------------------------


def test_substitution_lemma_seeded(append_sig):
    rng = random.Random(23)
    for _ in range(60):
        extended, x, b, n, m, a = substitution_instance(rng, append_sig)
        check_object(extended, m, a)  # premise sanity
        check_object(append_sig, n, b)
        m2 = beta_normalize(substitute(m, {x: n}))
        a2 = beta_normalize(substitute(a, {x: n}))
        check_object(append_sig, m2, a2)


def test_weakening(append_sig):
    proof = parse_expr_text("appNil nil")
    ty = parse_expr_text("append nil nil nil")
    base = check_object(append_sig, proof, ty)
    wider = extend(extend(append_sig, "extra", Const("nat"), "type"), "wider", parse_expr_text("nat -> type"), "kind")
    again = check_object(wider, proof, ty)
    assert again.rule == base.rule and again.size == base.size


def test_determinism(append_sig):
    proof = parse_expr_text("cons (s z) nil")
    a = check_object(append_sig, proof, Const("list"))
    b = check_object(append_sig, proof, Const("list"))
    assert a == b


def test_accepted_subjects_are_canonical(append_sig):
    rng = random.Random(31)
    for _ in range(30):
        l = list_elems(rng)
        k = list_elems(rng)
        proof = append_proof(l, k)
        from corpus import list_term

        ty = make_app(Const("append"), [list_term(l), list_term(k), list_term(l + k)])
        check_object(append_sig, proof, ty)
        assert normalize(proof, ty, append_sig) == proof
        assert normalize(ty, TYPE, append_sig) == ty


def test_sexpr_serialization(append_sig, golden_dir):
    d = check_object(append_sig, parse_expr_text("appNil nil"), parse_expr_text("append nil nil nil"))
    s = to_sexpr(d)
    assert s.startswith("(BackchainObj ")
    assert "(BackchainObj " in s[1:]  # the nil premise
    assert s.count("(") == s.count(")")
    assert s + "\n" == (golden_dir / "appnil_check.sexpr").read_text()
