import random

import pytest

from lfhh import lf_syntax
from lfhh.lf_syntax import (
    KIND,
    App,
    Bound,
    Const,
    Lam,
    LfSyntaxError,
    Meta,
    NormalizeError,
    Pi,
    Signature,
    TYPE,
    beta_normalize,
    free_names,
    make_app,
    normalize,
    parse_expr_text,
    parse_query,
    parse_signature,
    pretty_print,
)

from lfhh.lf_typecheck import checked_signature
from lfhh.reconstruct import QuerySession

from corpus import (
    APPEND_TEXT,
    REMARK_TEXT,
    STLC_TEXT,
    extend,
    list_term,
    malformed_texts,
    nat_term,
    random_list,
    random_nat,
    substitute,
    syntax_error_report,
)


# -- parsing ------------------------------------------------------------------


def test_parse_three_entry_signature():
    sig = parse_signature("nat : type. z : nat. s : nat -> nat.")
    assert [e.name for e in sig] == ["nat", "z", "s"]
    s = sig.lookup("s")
    assert s.classifier == Pi("_", Const("nat"), Const("nat"))
    assert s.sort == "type"
    assert sig.lookup("nat").sort == "kind"


def test_parse_empty_signature():
    assert len(parse_signature("")) == 0
    assert len(parse_signature("% only a comment\n")) == 0


def test_parse_append_signature():
    sig = parse_signature(APPEND_TEXT)
    assert len(sig) == 9
    assert sig.entries[-1].name == "appCons"


def test_parse_duplicate_name():
    with pytest.raises(LfSyntaxError, match="duplicate"):
        parse_signature("a : type. a : type.")


def test_parse_syntax_error_has_location():
    with pytest.raises(LfSyntaxError) as e:
        parse_signature("a : type\nb : type.")
    assert e.value.line == 2  # the missing '.' is noticed at 'b'


def test_syntax_errors_golden(append_sig, golden_dir):
    # message and line:col of every parser on a seeded set of malformed texts
    got = syntax_error_report(append_sig, malformed_texts(random.Random(13), 300))
    assert got == (golden_dir / "syntax_errors.txt").read_text(encoding="utf-8")


def test_end_of_input_after_a_trailing_comment():
    # the end of input stands past the comment, not where the comment starts
    with pytest.raises(LfSyntaxError) as e:
        parse_signature("a : type.\nb : a % trailing")
    assert str(e.value) == "2:17: expected '.', found 'eof'"


def test_parse_query_metavars(append_sig):
    q = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
    assert list(QuerySession(append_sig, q, "optimized").metas) == ["L"]
    head_args = pretty_print(q)
    assert head_args == "append (cons z nil) (cons (s z) nil) L"


def test_parse_query_closed(append_sig):
    q = parse_query("nat", append_sig)
    assert q == Const("nat") and QuerySession(append_sig, q, "optimized").metas == {}


def test_parse_query_shared_meta(append_sig):
    q = parse_query("append L L nil", append_sig)
    assert list(QuerySession(append_sig, q, "optimized").metas) == ["L"]
    assert q == make_app(Const("append"), [Meta("L"), Meta("L"), Const("nil")])


def test_parse_query_meta_at_binder(append_sig):
    with pytest.raises(LfSyntaxError, match="binder position"):
        parse_query("{X:nat} append nil nil nil", append_sig)


def test_lowercase_binders_allowed_in_query(append_sig):
    q = parse_query("{x:nat} nat", append_sig)
    assert isinstance(q, Pi) and QuerySession(append_sig, q, "optimized").metas == {}


def test_uppercase_binders_allowed_in_signatures():
    sig = parse_signature("a : type. f : {X:a} type.")
    assert sig.lookup("f").sort == "kind"


# -- substitution -------------------------------------------------------------


def test_substitute_append_head():
    e = make_app(Const("append"), [Const("nil"), Meta("K"), Meta("K")])
    v = list_term([nat_term(0)])
    r = substitute(e, {"K": v})
    assert r == make_app(Const("append"), [Const("nil"), v, v])


def test_substitute_disjoint_variable():
    assert substitute(Const("x"), {"y": Const("n")}) == Const("x")


def test_substitute_capture_avoidance():
    # [y:nat] x, substituting y for x: the binder must not capture
    e = Lam("y", Const("nat"), Const("x"))
    r = substitute(e, {"x": Const("y")})
    assert r == Lam("w", Const("nat"), Const("y"))
    assert "[y:" not in pretty_print(r) or pretty_print(r).count("y") == 1
    # printing freshens the display name away from the free 'y'
    assert pretty_print(r) != "[y:nat] y"


def _random_object(rng):
    return random_list(rng) if rng.random() < 0.5 else random_nat(rng)


def test_substitution_composition_seeded():
    # e[N/x][P/y] == e[{x: N[P/y], y: P}]   when x not free in P
    rng = random.Random(7)
    for _ in range(200):
        base = _random_object(rng)
        # sprinkle free variables into the term
        e = make_app(Const("cons"), [Const("x"), make_app(Const("cons"), [Const("y"), base])])
        n = make_app(Const("s"), [Const("y")]) if rng.random() < 0.5 else random_nat(rng)
        p = random_nat(rng)
        assert "x" not in free_names(p)
        lhs = substitute(substitute(e, {"x": n}), {"y": p})
        rhs = substitute(e, {"x": substitute(n, {"y": p}), "y": p})
        assert lhs == rhs


# -- normalization ------------------------------------------------------------


def test_normalize_canonical_unchanged(append_sig):
    e = Lam("x", Const("nat"), App(Const("s"), Bound(0)))
    nn = parse_expr_text("nat -> nat")
    assert normalize(e, nn, append_sig) is e


def test_normalize_eta_expands_bare_head(append_sig):
    nn = parse_expr_text("nat -> nat")
    assert normalize(Const("s"), nn, append_sig) == Lam("x", Const("nat"), App(Const("s"), Bound(0)))


@pytest.mark.parametrize("name", ["append", "stlc", "vec", "remark"])
def test_normalize_returns_canonical_classifiers_themselves(name, golden_dir):
    text = {
        "append": APPEND_TEXT,
        "stlc": STLC_TEXT,
        "vec": (golden_dir / "vec.lf").read_text(),
        "remark": REMARK_TEXT,
    }[name]
    sig = checked_signature(parse_signature(text))
    prefix = Signature()
    for entry in sig:
        c = entry.classifier
        assert normalize(c, KIND if entry.sort == "kind" else TYPE, prefix) is c, entry.name
        prefix = extend(prefix, entry.name, c, entry.sort)


@pytest.mark.parametrize(
    "text, query",
    [
        (APPEND_TEXT, "append (cons z (cons (s z) nil)) (cons z nil) L"),
        (STLC_TEXT, "of (lam base ([x:tm] lam base ([y:tm] y))) T"),
    ],
    ids=["append", "stlc"],
)
def test_normalize_returns_a_decoded_proof_itself(text, query):
    sig = checked_signature(parse_signature(text))
    q = parse_query(query, sig)
    _, ans = QuerySession(sig, q, "optimized").first_answer(iterative=True)
    assert ans.certified
    assert normalize(ans.lf_type, TYPE, sig) is ans.lf_type
    assert normalize(ans.lf_proof, ans.lf_type, sig) is ans.lf_proof


def test_normalize_still_eta_expands_inside_a_classifier():
    # `M : tm -> tm` occurs unapplied in the raw declaration of `ofLam`
    raw = parse_signature(STLC_TEXT)
    sig = checked_signature(raw)
    c = raw.lookup("ofLam").classifier
    got = normalize(c, TYPE, sig)
    assert got is not c and got == sig.lookup("ofLam").classifier
    assert "lam A ([x:tm] M x)" in pretty_print(got)
    assert normalize(got, TYPE, sig) is got


def test_normalize_single_beta_step(append_sig):
    e = App(Lam("x", Const("nat"), App(Const("s"), Bound(0))), Const("z"))
    assert normalize(e, Const("nat"), append_sig) == App(Const("s"), Const("z"))


def test_normalize_idempotent_seeded(append_sig):
    rng = random.Random(11)
    nn = parse_expr_text("nat -> nat")
    for _ in range(100):
        e = rng.choice(
            [
                random_list(rng),
                random_nat(rng),
                Const("s"),
                Lam("x", Const("nat"), App(Const("s"), Bound(0))),
            ]
        )
        cls = Const("list") if "cons" in pretty_print(e) or e == Const("nil") else (
            nn if e == Const("s") or isinstance(e, Lam) else Const("nat")
        )
        once = normalize(e, cls, append_sig)
        assert normalize(once, cls, append_sig) == once


def test_normalize_budget_guard():
    omega = Lam("x", Const("t"), App(Bound(0), Bound(0)))
    with pytest.raises(NormalizeError, match="budget"):
        normalize(App(omega, omega), Const("t"), None, budget=100)


def test_normalize_shape_mismatch(append_sig):
    with pytest.raises(NormalizeError, match="eta-expand"):
        normalize(Lam("x", Const("nat"), Bound(0)), Const("nat"), append_sig)


def test_normalize_substitutes_without_capture():
    # the argument `y` of the inner redex lands under the binder `z`; it
    # used to be captured by it, giving `[z:tm] z`
    sig = checked_signature(parse_signature(STLC_TEXT))
    q = parse_query("of (lam base ([y:tm] ([x:tm] lam (arr base base) ([z:tm] x)) y)) T", sig)
    got = pretty_print(normalize(q, TYPE, sig))
    assert got == "of (lam base ([y:tm] lam (arr base base) ([z:tm] y))) T"
    redex = parse_expr_text("[y:tm] ([x:tm] [z:tm] x) y")
    assert beta_normalize(redex) == parse_expr_text("[y:tm] [z:tm] y")


def test_beta_normalize_deep():
    two_step = App(
        Lam("f", parse_expr_text("nat -> nat"), App(Bound(0), App(Bound(0), Const("z")))),
        Const("s"),
    )
    assert beta_normalize(two_step) == App(Const("s"), App(Const("s"), Const("z")))


# -- alpha equality -----------------------------------------------------------


def test_alpha_eq_renamed_identity():
    assert Lam("x", Const("nat"), Bound(0)) == Lam("y", Const("nat"), Bound(0))


def test_alpha_eq_distinguishes():
    assert not App(Const("s"), Const("z")) == Const("z")


def test_alpha_eq_equivalence_seeded():
    rng = random.Random(3)
    terms = [random_list(rng) for _ in range(20)] + [random_nat(rng) for _ in range(20)]
    for t in terms:
        assert t == t
    for a in terms[:10]:
        for b in terms[:10]:
            assert (a == b) == (b == a)
            for c in terms[:5]:
                if a == b and b == c:
                    assert a == c


def test_alpha_eq_invariant_under_renaming():
    a = Pi("K", Const("list"), make_app(Const("append"), [Const("nil"), Bound(0), Bound(0)]))
    b = Pi("Q", Const("list"), make_app(Const("append"), [Const("nil"), Bound(0), Bound(0)]))
    assert a == b


# -- printing round trips -----------------------------------------------------


def test_signature_round_trip():
    for text in [APPEND_TEXT, "a : type. f : {X:a} type. g : ({x:a} a) -> a."]:
        sig = parse_signature(text)
        again = parse_signature("".join(f"{e.name} : {pretty_print(e.classifier)}.\n" for e in sig))
        assert again == sig


def test_expression_round_trip_seeded(append_sig):
    rng = random.Random(5)
    for _ in range(100):
        e = rng.choice([random_list(rng), random_nat(rng)])
        assert parse_expr_text(pretty_print(e)) == e
    ac = append_sig.lookup("appCons").classifier
    assert parse_expr_text(pretty_print(ac)) == ac
    # long arrow chains under binders, their parts naming the binders
    parts = ["nat", "x", "y", "(list x)", "(nat -> y)", "({z:nat} list z)", "list"]
    for k in (1, 7, 60):
        text = "{x:nat} {y:nat} " + " -> ".join(rng.choice(parts) for _ in range(k + 1))
        e = parse_expr_text(text)
        assert parse_expr_text(pretty_print(e)) == e


def _arrow_chain(k):
    return "{x:a} " + "a -> " * k + "x"


def test_arrow_chain_parses_in_linear_work(monkeypatch):
    # each arrow adds one product and one left side; the right side is not
    # rebuilt for every arrow to its left
    built = [0]
    for node in (Pi, Lam, App, Bound, Const):
        def counted(self, *args, _init=node.__init__):
            built[0] += 1
            _init(self, *args)

        monkeypatch.setattr(node, "__init__", counted)
    counts = {}
    for k in (50, 100, 200):
        built[0] = 0
        parse_expr_text(_arrow_chain(k))
        counts[k] = built[0]
    assert counts[200] - counts[100] == 2 * (counts[100] - counts[50])
    assert counts[200] <= 3 * 200


def test_arrow_chain_indices_count_the_anonymous_binders():
    k = 30
    e = parse_expr_text(_arrow_chain(k)).body
    for _ in range(k):
        assert isinstance(e, Pi) and e.annot == Const("a")
        e = e.body
    assert e == Bound(k)


def test_print_avoids_shadowing_free_constants():
    # binder hint collides with a free constant in the body
    e = Lam("z", Const("nat"), App(Const("s"), Const("z")))  # body refers to the constant z
    printed = pretty_print(e)
    reparsed = parse_expr_text(printed)
    assert reparsed == e


def _nested_lams(k):
    """`[x:a] … [x:a] c #k-1 … #0` with k binders, each named by the printer."""
    e = make_app(Const("c"), [Bound(i) for i in range(k - 1, -1, -1)])
    for _ in range(k):
        e = Lam("x", Const("a"), e)
    return e


def test_printing_nested_binders_walks_bodies_in_linear_work(monkeypatch):
    # the constants of the outermost named binder's body are collected once;
    # an inner binder walks its own body only when its name is among them
    walked = [0]  # nodes that `free_names` visits

    def counted(e, _real=lf_syntax.free_names):
        walked[0] += _size(e)
        return _real(e)

    monkeypatch.setattr(lf_syntax, "free_names", counted)
    counts = {}
    for k in (50, 100, 200):
        walked[0] = 0
        text = pretty_print(_nested_lams(k))
        counts[k] = walked[0]
        names = ["x"] + [f"x{i}" for i in range(1, k)]
        assert text == " ".join(f"[{n}:a]" for n in names) + " c " + " ".join(names)
    assert counts[200] - counts[100] == 2 * (counts[100] - counts[50])


def _size(e):
    """The number of nodes of `e` as a tree."""
    if isinstance(e, App):
        return 1 + _size(e.fn) + _size(e.arg)
    if isinstance(e, (Pi, Lam)):
        return 1 + _size(e.annot) + _size(e.body)
    return 1


def test_print_names_binders_apart_from_their_own_constants():
    # the inner binder's first candidate `x1` is a constant of its body
    e = Lam("x", Const("a"), Lam("x", Const("a"), App(App(Const("x1"), Bound(0)), Bound(1))))
    assert pretty_print(e) == "[x:a] [x2:a] x1 x2 x"
    # a binder inside an annotation avoids the annotation's constants, which
    # the body of the binder it annotates does not have
    e = Lam("z", Pi("x", Const("a"), App(Const("x"), Bound(0))), Bound(0))
    assert pretty_print(e) == "[z:{x1:a} x x1] z"
    assert parse_expr_text(pretty_print(e)) == e


def test_print_renders_loose_index_as_hash():
    # an index beyond its binders prints as `#k`, the raw index where it stands
    assert pretty_print(Bound(0)) == "#0"
    assert pretty_print(Lam("x", Const("nat"), App(App(Const("f"), Bound(0)), Bound(2)))) == "[x:nat] f x #2"
    # an arrow's binder has no name, and a loose index under it does not count it
    assert pretty_print(Pi("x", Const("nat"), Pi("_", Const("nat"), App(Bound(1), Bound(3))))) == "{x:nat} nat -> x #2"
