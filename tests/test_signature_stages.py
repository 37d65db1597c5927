"""The signature stages on de Bruijn indices: clause translations and
rigidity pinned on higher-order and dependent signatures, and `normalize`
against the normalizer that opened every binder with a fresh named constant
and abstracted it back."""

import random

import pytest

from lfhh.lf_syntax import (
    KIND,
    TYPE,
    App,
    Bound,
    Const,
    Lam,
    LfExpr,
    Meta,
    NormalizeError,
    Pi,
    TypeKind,
    _Budget,
    beta_normalize,
    fresh_name,
    free_names,
    instantiate,
    make_app,
    normalize,
    parse_signature,
    spine,
)
from lfhh.lf_typecheck import checked_signature

from corpus import APPEND_TEXT, REMARK_TEXT, STLC_TEXT, append_query_corpus, random_signature_case
from test_cli import run_cli

# -- translation and rigidity ---------------------------------------------------


@pytest.fixture(scope="module")
def signature_files(tmp_path_factory, golden_dir):
    stlc = tmp_path_factory.mktemp("sig") / "stlc.lf"
    stlc.write_text(STLC_TEXT)
    return {"stlc": str(stlc), "vec": str(golden_dir / "vec.lf")}


@pytest.mark.parametrize("name", ["stlc", "vec"])
@pytest.mark.parametrize("mode", ["naive", "optimized"])
def test_translate_pinned(signature_files, golden_dir, name, mode):
    # guard domains with loose indices (`of x A`, `vec N`, `vec (G M)`)
    # under nested quantifiers, and higher-order subjects
    code, out, err = run_cli("translate", signature_files[name], "--mode", mode)
    assert (code, err) == (0, "")
    assert out == (golden_dir / f"{name}_{mode}.hh").read_text()


@pytest.mark.parametrize("name", ["stlc", "vec"])
def test_analyze_pinned(signature_files, golden_dir, name):
    code, out, err = run_cli("analyze", signature_files[name])
    assert (code, err) == (0, "")
    assert out == (golden_dir / f"{name}.analyze").read_text()


def test_loose_head_in_a_domain_is_rigid(golden_dir):
    # `vfold`'s second domain is ({M:nat} vec (G M)) -> tp: inside the guard
    # G is a loose index at a spine head, which does not make M guarded
    lines = (golden_dir / "vec_optimized.hh").read_text().splitlines()
    assert "(forall x5:tm. top => hastype (x4 x5) (vec (x1 x5)))" in lines[-1]


# -- normalize against the named normalizer ---------------------------------------


def abstract(e, name, depth=0):
    """Turn free occurrences of Const(name) into Bound(depth): the inverse of
    opening a binder with a fresh constant."""
    match e:
        case Const(n) if n == name:
            return Bound(depth)
        case Bound(k):
            return Bound(k + 1) if k >= depth else e
        case App(f, a):
            return App(abstract(f, name, depth), abstract(a, name, depth))
        case Pi(h, annot, inner):
            return Pi(h, abstract(annot, name, depth), abstract(inner, name, depth + 1))
        case Lam(h, annot, inner):
            return Lam(h, abstract(annot, name, depth), abstract(inner, name, depth + 1))
        case _:
            return e


def named_normalize(e, classifier, sig=None, budget=10**6):
    """`normalize` as it was: every binder is opened with a fresh named
    constant, and the inner result is abstracted back."""
    b = _Budget(budget)
    e = beta_normalize(e, b)
    if isinstance(classifier, LfExpr):
        classifier = beta_normalize(classifier, b)
    env = {}

    def head_classifier(h):
        match h:
            case Const(n):
                if n in env:
                    return env[n]
                if sig is not None:
                    entry = sig.lookup(n)
                    if entry is not None:
                        return entry.classifier
                return None
            case _:
                return None

    def eta_spine(t):
        head, args = spine(t)
        if not args:
            return t
        cls = head_classifier(head)
        if cls is None:
            return t
        out = []
        for a in args:
            if not isinstance(cls, Pi):
                raise NormalizeError("cannot eta-expand: head applied beyond its arity")
            out.append(eta(a, cls.annot))
            cls = beta_normalize(instantiate(cls.body, (a,)), b)
        return make_app(head, out)

    def opened(h, annot, body, cls):
        x = fresh_name(h, env, sig or (), free_names(body))
        env[x] = annot_n = eta(annot, TYPE)
        inner = eta(instantiate(body, (Const(x),)), cls)
        del env[x]
        return annot_n, abstract(inner, x)

    def eta(t, cls):
        if cls == KIND:
            match t:
                case TypeKind():
                    return t
                case Pi(h, annot, body):
                    return Pi(h, *opened(h, annot, body, KIND))
                case _:
                    raise NormalizeError("cannot eta-expand: kind expected")
        if isinstance(cls, TypeKind):
            match t:
                case Pi(h, annot, body):
                    return Pi(h, *opened(h, annot, body, TYPE))
                case Lam():
                    raise NormalizeError("cannot eta-expand: abstraction at kind 'type'")
                case TypeKind():
                    raise NormalizeError("cannot eta-expand: 'type' is not a type")
                case _:
                    return eta_spine(t)
        if isinstance(cls, Pi):
            if isinstance(t, Lam):
                x = fresh_name(t.hint, env, sig or (), free_names(t.body))
                env[x] = annot_n = eta(t.annot, TYPE)
                inner = eta(
                    beta_normalize(instantiate(t.body, (Const(x),)), b),
                    beta_normalize(instantiate(cls.body, (Const(x),)), b),
                )
                del env[x]
                return Lam(t.hint, annot_n, abstract(inner, x))
            if isinstance(t, (Pi, TypeKind)):
                raise NormalizeError("cannot eta-expand: head shape does not match classifier")
            x = fresh_name(cls.hint, env, sig or (), free_names(t))
            env[x] = annot_n = eta(cls.annot, TYPE)
            inner = eta(App(t, Const(x)), beta_normalize(instantiate(cls.body, (Const(x),)), b))
            del env[x]
            return Lam(cls.hint, annot_n, abstract(inner, x))
        if isinstance(t, (Lam, Pi, TypeKind)):
            raise NormalizeError("cannot eta-expand: head shape does not match classifier")
        return eta_spine(t)

    return eta(e, classifier)


def outcome(fn, *args, **kw):
    """The result with its binder hints (repr shows them, `==` does not), or
    the error message."""
    try:
        return repr(fn(*args, **kw))
    except NormalizeError as err:
        return f"error: {err}"


def agrees(e, cls, sig, budget=10**6):
    want = outcome(named_normalize, e, cls, sig, budget)
    assert outcome(normalize, e, cls, sig, budget) == want, (e, cls)
    if not want.startswith("error"):
        once = normalize(e, cls, sig, budget)
        assert normalize(once, cls, sig) == once
    return want


def test_normalize_agrees_on_the_corpus(golden_dir):
    texts = [APPEND_TEXT, REMARK_TEXT, STLC_TEXT, HOAS_TEXT, (golden_dir / "vec.lf").read_text()]
    rng = random.Random(20108)
    for _ in range(20):
        sig, queries = random_signature_case(rng)
        for q, _ in queries:
            agrees(q, TYPE, sig)
    for text in texts:
        raw = parse_signature(text)
        checked = checked_signature(raw)
        for entry in raw:
            agrees(entry.classifier, KIND if entry.sort == "kind" else TYPE, checked)
    append = checked_signature(parse_signature(APPEND_TEXT))
    for q, _ in append_query_corpus(random.Random(20109), 50):
        agrees(q, TYPE, append)


HOAS_TEXT = """\
tp : type.
base : tp.
arr : tp -> tp -> tp.
tm : type.
app : tm -> tm -> tm.
lam : tp -> (tm -> tm) -> tm.
of : tm -> tp -> type.
nat : type.
z : nat.
s : nat -> nat.
vec : nat -> type.
kk : {m:nat} tm -> vec m -> tm.
dep : {n:nat} ({x:tm} vec n -> tm) -> tm.
t1 : {N:nat} {F:({x:tm} vec N -> tm) -> tm} of (F (kk N)) base.
t2 : {G:nat -> nat} {N:nat} vec (G N) -> of (dep (G N) (kk (G N))) base.
"""

TM, TP, NAT = Const("tm"), Const("tp"), Const("nat")
TM_TM = Pi("_", TM, TM)
NAT_NAT = Pi("_", NAT, NAT)
CLOSED_TM = make_app(Const("lam"), [Const("base"), Lam("x", TM, Bound(0))])


class Gen:
    """Random classifiers over `HOAS_TEXT` in de Bruijn form, with
    eta-short arguments, partial applications and beta-redexes, so that
    `normalize` has to expand and reduce under dependent heads, including
    heads bound by the classifier itself."""

    def __init__(self, rng):
        self.rng = rng

    def var(self, ctx, sort):
        hits = [i for i, s in enumerate(reversed(ctx)) if s == sort]
        return Bound(self.rng.choice(hits)) if hits else None

    def leaf(self, ctx, sort):
        v = self.var(ctx, sort)
        if v is not None and self.rng.random() < 0.7:
            return v
        return {
            "tm": CLOSED_TM if self.rng.random() < 0.5 else make_app(Const("lam"), [Const("base"), App(Const("app"), CLOSED_TM)]),
            "tp": Const("base"),
            "nat": Const("z"),
            "tm->tm": App(Const("app"), CLOSED_TM),
            "nat->nat": Const("s"),
        }[sort]

    def obj(self, ctx, sort, size):
        rng = self.rng
        if size <= 1 or rng.random() < 0.2:
            return self.leaf(ctx, sort)
        r = rng.random()
        if sort == "tm":
            if r < 0.3:
                return make_app(Const("app"), [self.obj(ctx, "tm", size // 2), self.obj(ctx, "tm", size // 2)])
            if r < 0.55:
                return make_app(Const("lam"), [self.obj(ctx, "tp", 2), self.obj(ctx, "tm->tm", size - 1)])
            if r < 0.75 and (f := self.var(ctx, "tm->tm")) is not None:
                return App(f, self.obj(ctx, "tm", size - 1))
            if r < 0.82:
                n = self.obj(ctx, "nat", size - 1)
                return make_app(Const("dep"), [n, App(Const("kk"), n)])
            if r < 0.9:
                return App(Lam("x", TM, self.obj(ctx + ["tm"], "tm", size // 2)), self.obj(ctx, "tm", size // 2))
            return self.leaf(ctx, "tm")
        if sort == "tp":
            return make_app(Const("arr"), [self.obj(ctx, "tp", size // 2), self.obj(ctx, "tp", size // 2)])
        if sort == "nat":
            if r < 0.5 and (g := self.var(ctx, "nat->nat")) is not None:
                return App(g, self.obj(ctx, "nat", size - 1))
            return App(Const("s"), self.obj(ctx, "nat", size - 1))
        if sort == "tm->tm":
            if r < 0.4:
                return App(Const("app"), self.obj(ctx, "tm", size - 1))
            return Lam("y", TM, self.obj(ctx + ["tm"], "tm", size - 1))
        return Lam("n", NAT, self.obj(ctx + ["nat"], "nat", size - 1))

    def domain(self, ctx, size):
        r = self.rng.random()
        for sort, annot in (("tm", TM), ("tp", TP), ("nat", NAT), ("tm->tm", TM_TM), ("nat->nat", NAT_NAT)):
            if r < 0.12:
                return sort, annot
            r -= 0.12
        if r < 0.2:
            return "vec", App(Const("vec"), self.obj(ctx, "nat", size))
        return "of", make_app(Const("of"), [self.obj(ctx, "tm", size), self.obj(ctx, "tp", 2)])

    def classifier(self, ctx, binders, size):
        if binders == 0:
            return self.domain(ctx, size)[1]
        sort, annot = self.domain(ctx, size)
        if self.rng.random() < 0.3:
            # a product domain whose own binder the body mentions
            inner_sort, inner = self.domain(ctx, 2)
            annot = Pi("w", inner, self.classifier(ctx + [inner_sort], 0, size))
            sort = "fn"
        return Pi("x", annot, self.classifier(ctx + [sort], binders - 1, size))


def test_normalize_agrees_on_random_hoas_and_dependent_classifiers():
    sig = checked_signature(parse_signature(HOAS_TEXT))
    gen = Gen(random.Random(20110))
    results = [agrees(gen.classifier([], gen.rng.randint(0, 4), gen.rng.randint(1, 6)), TYPE, sig) for _ in range(400)]
    changed = 0
    for _ in range(200):
        ctx_sort = gen.rng.choice(["tm->tm", "nat->nat"])
        e = gen.obj([], ctx_sort, gen.rng.randint(1, 6))
        cls = TM_TM if ctx_sort == "tm->tm" else NAT_NAT
        results.append(agrees(e, cls, sig))
        changed += normalize(e, cls, sig) != e
    assert sum(r.startswith("error") for r in results) == 0
    assert changed >= 40  # eta-short and redex-carrying inputs really occur
    # budgets fail at the same point
    for _ in range(50):
        e = gen.classifier([], 3, 5)
        for budget in (0, 1, 2):
            agrees(e, TYPE, sig, budget)


def test_normalize_leaves_loose_and_meta_heads_alone():
    sig = checked_signature(parse_signature(HOAS_TEXT))
    for e in (App(Bound(3), Const("z")), App(Meta("F"), Const("s"))):
        assert normalize(e, TM, sig) == named_normalize(e, TM, sig) == e
