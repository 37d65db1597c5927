"""The `scope` and `has_meta` fields of LF expressions: agreement with a
plain recursive reference on every node the front end, the kernel's helpers
and the decoder build, substitution and beta normalization against versions
with no shortcut, closed and normal subterms returned as the same object, and
`fresh_name` over separate containers against the old set union, and
signatures that share storage with their extensions.  Also the
node classes' equality and hashing, which ignore binder hints, and their
`repr` text, and those of signature entries and kernel derivations."""

import random
import tracemalloc

import pytest

from lfhh.lf_syntax import (
    OPEN,
    TYPE,
    App,
    Bound,
    Const,
    Lam,
    LfSyntaxError,
    Meta,
    NormalizeError,
    Pi,
    Signature,
    TypeKind,
    _shift,
    beta_normalize,
    fresh_name,
    instantiate,
    make_app,
    normalize,
    parse_query,
    parse_signature,
    spine,
    substitute,
)
from lfhh.hhf_logic import HApp, HBound, HConst, HLam, HMeta, encode_term
from lfhh.hhf_prover import Limits
from lfhh.lf_typecheck import Derivation, Judgment, check_type, checked_signature
from lfhh.reconstruct import QuerySession, ReconstructError, _Closing, decode_term

from corpus import STLC_TEXT


def ref_scope(e):
    """1 + highest loose index (0 if none), or OPEN with a beta-redex
    anywhere in `e`."""
    match e:
        case Bound(k):
            return k + 1
        case App(f, a):
            sf, sa = ref_scope(f), ref_scope(a)
            if isinstance(f, Lam) or OPEN in (sf, sa):
                return OPEN
            return max(sf, sa)
        case Pi(_, annot, body) | Lam(_, annot, body):
            sa, sb = ref_scope(annot), ref_scope(body)
            if OPEN in (sa, sb):
                return OPEN
            return max(sa, sb - 1, 0)
        case _:
            return 0


def ref_instantiate(body, value, depth=0):
    """Capture-free substitution: `value` is shifted by the number of
    binders it lands under."""
    match body:
        case Bound(k):
            if k == depth:
                return ref_shift(value, depth, 0)
            if k > depth:
                return Bound(k - 1)
            return body
        case App(f, a):
            return App(ref_instantiate(f, value, depth), ref_instantiate(a, value, depth))
        case Pi(h, annot, inner):
            return Pi(h, ref_instantiate(annot, value, depth), ref_instantiate(inner, value, depth + 1))
        case Lam(h, annot, inner):
            return Lam(h, ref_instantiate(annot, value, depth), ref_instantiate(inner, value, depth + 1))
        case _:
            return body


def ref_shift(e, by, cutoff):
    match e:
        case Bound(k):
            return Bound(k + by) if k >= cutoff else e
        case App(f, a):
            return App(ref_shift(f, by, cutoff), ref_shift(a, by, cutoff))
        case Pi(h, annot, body):
            return Pi(h, ref_shift(annot, by, cutoff), ref_shift(body, by, cutoff + 1))
        case Lam(h, annot, body):
            return Lam(h, ref_shift(annot, by, cutoff), ref_shift(body, by, cutoff + 1))
        case _:
            return e


def ref_beta_normalize(e, budget):
    left = [budget]

    def go(t):
        match t:
            case App(f, a):
                fn = go(f)
                if isinstance(fn, Lam):
                    left[0] -= 1
                    if left[0] < 0:
                        raise NormalizeError("normalization budget exceeded")
                    return go(ref_instantiate(fn.body, a))
                return App(fn, go(a))
            case Pi(h, annot, body):
                return Pi(h, go(annot), go(body))
            case Lam(h, annot, body):
                return Lam(h, go(annot), go(body))
            case _:
                return t

    return go(e)


def ref_fresh_name(base, avoid):
    """`fresh_name` as it was, over one set of names."""
    base = base if base and base != "_" else "x"
    if base not in avoid and base != "type":
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def random_expr(rng, binders=0, size=6):
    """Mostly redex-free expressions, with products, abstractions,
    meta-variables, loose indices and redexes mixed in."""
    r = rng.random()
    if size <= 1 or r < 0.3:
        leaf = rng.random()
        if leaf < 0.45:
            return Const(rng.choice(["z", "nil", "s", "cons", "tm", "c"]))
        if leaf < 0.8:
            # mostly bound by an enclosing binder, sometimes loose
            return Bound(rng.randrange(binders + 2))
        if leaf < 0.95:
            return Meta(rng.choice(["X", "Y"]))
        return TYPE

    def annot():
        return random_expr(rng, binders, 2)

    if r < 0.45:
        return Lam("x", annot(), random_expr(rng, binders + 1, size - 1))
    if r < 0.55:
        return Pi("y", annot(), random_expr(rng, binders + 1, size - 1))
    if r < 0.62:
        fn = Lam("x", annot(), random_expr(rng, binders + 1, size // 2))
        return App(fn, random_expr(rng, binders, size // 2))
    head = rng.choice([Const("s"), Const("cons"), Const("app"), Meta("F"), Bound(binders)])
    n = rng.randint(1, 3)
    return make_app(head, [random_expr(rng, binders, size // n) for _ in range(n)])


def subterms(e):
    yield e
    match e:
        case App(f, a):
            yield from subterms(f)
            yield from subterms(a)
        case Pi(_, annot, body) | Lam(_, annot, body):
            yield from subterms(annot)
            yield from subterms(body)


@pytest.fixture(scope="module")
def exprs():
    rng = random.Random(20106)
    return [random_expr(rng, 0, rng.randint(1, 12)) for _ in range(600)]


VALUES = (Const("nil"), Meta("V"), Bound(0), Lam("w", Const("tm"), Bound(1)))


def test_generated_expressions_cover_every_shape(exprs):
    nodes = [u for e in exprs for u in subterms(e)]
    assert sum(e.scope == 0 for e in exprs) >= 100
    assert sum(e.scope > 0 for e in exprs) >= 100
    assert sum(e.scope == OPEN for e in exprs) >= 30
    for kind in (Pi, Lam, Meta, TypeKind):
        assert any(isinstance(u, kind) for u in nodes)
    assert any(isinstance(u, Pi) and u.scope > 0 for u in nodes)


def test_scope_agrees_with_reference(exprs):
    for e in exprs:
        for u in subterms(e):
            assert u.scope == ref_scope(u), u


def test_scope_is_invisible_to_equality_hash_and_repr():
    a = Lam("x", Const("tm"), App(Bound(0), Bound(1)))
    b = Lam("y", Const("tm"), App(Bound(0), Bound(1)))
    assert a == b and hash(a) == hash(b)
    assert "scope" not in repr(a)
    match a:
        case Lam(h, annot, body):
            assert (h, annot, body) == ("x", Const("tm"), App(Bound(0), Bound(1)))


def rehint(e, hint):
    """`e` with the hint of every binder replaced by `hint`."""
    match e:
        case App(f, a):
            return App(rehint(f, hint), rehint(a, hint))
        case Pi(_, annot, body):
            return Pi(hint, rehint(annot, hint), rehint(body, hint))
        case Lam(_, annot, body):
            return Lam(hint, rehint(annot, hint), rehint(body, hint))
        case _:
            return e


def test_equality_and_hash_ignore_binder_hints(exprs):
    for e in exprs:
        for u in subterms(e):
            v = rehint(u, "renamed")
            assert v == u and hash(v) == hash(u), u
    assert Pi("x", Const("a"), Bound(0)) != Pi("x", Const("a"), Bound(1))
    assert Lam("x", Const("a"), Bound(0)) != Lam("x", Const("b"), Bound(0))
    assert Pi("x", Const("a"), Bound(0)) != Lam("x", Const("a"), Bound(0))


def test_repr_of_every_node_class():
    # `repr` reaches error messages, so its text is pinned
    assert repr(TYPE) == "TypeKind()"
    assert repr(Pi("x", Const("a"), Bound(0))) == "Pi(hint='x', annot=Const(name='a'), body=Bound(index=0))"
    assert repr(Lam("y", Meta("M"), App(Bound(0), Const("c")))) == (
        "Lam(hint='y', annot=Meta(name='M'), body=App(fn=Bound(index=0), arg=Const(name='c')))"
    )
    sig = parse_signature("a : type. f : {x:a} a.")
    assert repr(sig.entries[1]) == (
        "SigEntry(name='f', classifier=Pi(hint='x', annot=Const(name='a'), body=Const(name='a')), sort='type')"
    )
    f = sig.entries[1].classifier
    d = check_type(Signature(sig.entries[:1]), f)
    fp = d.conclusion.context
    assert repr(d.conclusion) == f"Judgment(context={fp!r}, binders=(), subject={f!r}, classifier=TypeKind())"
    assert repr(d).startswith(f"Derivation(rule='PiFam', conclusion={d.conclusion!r}, premises=(Derivation(")
    assert repr(d).endswith(f"size={d.size}, head=None, instantiation=())")


def copy_derivation(d):
    """`d` rebuilt from new nodes that share only its fingerprints."""
    c = d.conclusion
    return Derivation(
        d.rule,
        Judgment(c.context, tuple(c.binders), c.subject, c.classifier),
        tuple(copy_derivation(p) for p in d.premises),
        d.head,
        d.instantiation,
    )


def test_kernel_derivations_compare_every_field():
    *prefix, f = checked_signature(parse_signature("a : type. b : a -> type. f : {x:a} b x -> a.")).entries
    d = check_type(Signature(prefix), f.classifier)
    copy = copy_derivation(d)
    assert copy is not d and copy == d and hash(copy) == hash(d) and repr(copy) == repr(d)
    assert d.size > 1
    # binder hints are part of a judgment; separate signatures have separate
    # fingerprints, which compare by identity
    again = check_type(Signature(prefix), f.classifier)
    assert again != d
    leaf = d
    while leaf.premises:
        leaf = leaf.premises[-1]
    c = leaf.conclusion
    assert Judgment(c.context, c.binders + ("y",), c.subject, c.classifier) != c


def test_instantiate_agrees_with_reference(exprs):
    for e in exprs:
        for depth in (0, 1, 2):
            for v in VALUES:
                assert instantiate(e, v, depth) == ref_instantiate(e, v, depth)


def test_shift_agrees_with_reference(exprs):
    for e in exprs:
        for cutoff in (0, 1, 2):
            assert _shift(e, 1, cutoff) == ref_shift(e, 1, cutoff)


def test_beta_normalize_agrees_with_reference(exprs):
    budget = 200
    for e in exprs:
        try:
            want = ref_beta_normalize(e, budget)
        except NormalizeError:
            with pytest.raises(NormalizeError):
                beta_normalize(e, budget)
            continue
        got = beta_normalize(e, budget)
        assert got == want, e
        assert got.scope != OPEN


def test_closed_and_normal_subterms_come_back_unchanged(exprs):
    seen = 0
    for e in exprs:
        for u in subterms(e):
            if u.scope == OPEN:
                continue
            assert beta_normalize(u) is u
            for depth in range(u.scope, u.scope + 2):
                for v in VALUES:
                    assert instantiate(u, v, depth) is u
            assert _shift(u, 1, u.scope) is u
            seen += u.scope == 0
    assert seen >= 500


def test_fresh_name_agrees_with_the_set_union():
    rng = random.Random(20107)
    pool = ["x", "x1", "x2", "y", "y1", "M", "M1", "type", "type1", "_", "a", "a2"]
    for _ in range(400):
        sig = Signature()
        for name in rng.sample(pool, rng.randint(0, 5)):
            sig = sig.extend(name, TYPE, "kind")
        env = {n: Const("tm") for n in rng.sample(pool, rng.randint(0, 3))}
        local = tuple(rng.sample(pool, rng.randint(0, 3)))
        for base in ("", "_", "x", "y", "M", "type", "a"):
            union = {e.name for e in sig} | set(env) | set(local)
            assert fresh_name(base, sig, env, local) == ref_fresh_name(base, union)


def test_an_older_signature_never_sees_later_names():
    base = Signature()
    for name in ("nat", "z"):
        base = base.extend(name, TYPE, "kind")
    older = base.extend("s", TYPE, "kind")
    newer = older.extend("t", TYPE, "kind").extend("u", TYPE, "kind")
    for sig, names in ((base, ["nat", "z"]), (older, ["nat", "z", "s"]), (newer, ["nat", "z", "s", "t", "u"])):
        assert [e.name for e in sig] == names and len(sig) == len(names)
        assert sig.fingerprint() == ",".join(names)
        assert sig.entries == tuple(newer.lookup(n) for n in names)
        for name in ("nat", "z", "s", "t", "u", "v"):
            assert (name in sig) == (name in names)
            assert (sig.lookup(name) is not None) == (name in names)
    with pytest.raises(LfSyntaxError, match="duplicate"):
        older.extend("z", TYPE, "kind")
    # a name already taken by a longer signature is still free for the older one
    assert "t" in base.extend("t", Const("nat"), "type")


def test_extending_one_parent_twice_gives_independent_signatures():
    parent = Signature(parse_signature("nat : type. z : nat.").entries)
    left = parent.extend("a", TYPE, "kind")
    right = parent.extend("b", Const("nat"), "type")
    left2 = left.extend("c", TYPE, "kind")
    right2 = right.extend("a", Const("nat"), "type")  # the name `left` took
    assert [e.name for e in left2] == ["nat", "z", "a", "c"]
    assert [e.name for e in right2] == ["nat", "z", "b", "a"]
    assert left2.lookup("a").sort == "kind" and right2.lookup("a").sort == "type"
    assert "b" not in left2 and "c" not in right2 and "a" not in right
    assert [e.name for e in parent] == ["nat", "z"] and parent.fingerprint() == "nat,z"
    assert left != right and left2 != right2 and parent == Signature(parent.entries)


def test_extend_does_not_grow_with_the_signature():
    # extending copied the whole entry tuple and name index, so the memory
    # that 200 extensions hold was proportional to the signature: about 8
    # times more at 6000 declarations than at 750; now they hold the same
    def held_by_extensions(n):
        sig = Signature()
        for i in range(n):
            sig = sig.extend(f"c{i}", TYPE, "kind")
        kept = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(200):
                sig = sig.extend(f"d{i}", TYPE, "kind")
                kept.append(sig)
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    small, large = held_by_extensions(750), held_by_extensions(6000)
    assert large < 2 * small, (small, large)


def test_extend_keeps_index_and_fingerprint():
    sig = Signature()
    assert sig.fingerprint() == "."
    for i, name in enumerate(["nat", "z", "s"]):
        sig = sig.extend(name, TYPE, "kind")
        assert sig.lookup(name).name == name and len(sig) == i + 1
    assert sig.fingerprint() == "nat,z,s"
    assert sig == Signature(sig.entries)
    assert Signature(sig.entries).fingerprint() == sig.fingerprint()
    wider = sig.extend("x", Const("nat"), "type")
    assert "x" in wider and "x" not in sig and sig.lookup("x") is None


def ref_has_meta(e):
    match e:
        case Meta():
            return True
        case App(f, a) | Pi(_, f, a) | Lam(_, f, a):
            return ref_has_meta(f) or ref_has_meta(a)
        case _:
            return False


def assert_meta_flags(e):
    for u in subterms(e):
        assert u.has_meta == ref_has_meta(u), u


def test_meta_flag_agrees_with_reference_after_substitution(exprs):
    rng = random.Random(20108)
    assert sum(e.has_meta for e in exprs) >= 100 and sum(not e.has_meta for e in exprs) >= 100
    for e in exprs:
        assert_meta_flags(e)
        for v in VALUES:
            assert_meta_flags(instantiate(e, v, rng.randrange(3)))
        assert_meta_flags(_shift(e, rng.randint(1, 2), rng.randrange(2)))
        assert_meta_flags(substitute(e, {"X": Const("c"), "z": Meta("Z")}))
        assert_meta_flags(substitute(e, {"Y": Lam("w", Const("tm"), Meta("W")), "F": Const("s")}))


def random_stlc_query(rng):
    """`of M A` over the STLC signature with query variables in term and
    type positions, function-typed ones (the argument of `lam`) included."""

    def tp(size):
        r = rng.random()
        if size <= 1 or r < 0.4:
            return rng.choice(["base", "A", "B"])
        return f"(arr {tp(size - 1)} {tp(size - 1)})"

    def term(binders, size):
        r = rng.random()
        if size <= 1 or r < 0.3:
            return rng.choice(binders + ["M", "N"])
        if r < 0.55:
            x = f"x{len(binders)}"
            return f"(lam {tp(2)} ([{x}:tm] {term(binders + [x], size - 1)}))"
        if r < 0.7:
            return f"(lam {tp(2)} {rng.choice(['F', 'G'])})"
        return f"(app {term(binders, size // 2)} {term(binders, size // 2)})"

    return f"of {term([], rng.randint(1, 6))} {tp(3)}"


# a closed value for each residual classifier of the STLC queries
STLC_VALUES = {
    Const("tm"): HApp(HApp(HConst("lam"), HConst("base")), HLam("x", HBound(0))),
    Const("tp"): HConst("base"),
}


def test_meta_flag_agrees_with_reference_through_the_query_pipeline():
    # parse, normalize, close with every variable still unbound (each is
    # closed by an auxiliary search where the decoder meets it, or raises
    # when it is applied), decode the encoded subject, and certify
    sig = checked_signature(parse_signature(STLC_TEXT))
    rng = random.Random(20109)
    closed = function_typed = searched = applied_raised = 0
    for i in range(150):
        q, _ = parse_query(random_stlc_query(rng), sig)
        assert_meta_flags(q)
        sess = QuerySession(sig, q, "optimized", Limits(depth=4, budget=5000))
        qn, classifiers = sess.query_type, sess.classifiers
        assert_meta_flags(qn)
        assert all(c.scope == 0 and not c.has_meta for c in classifiers.values())
        try:
            out = _Closing(sess, {}).close_query(qn, None)
        except ReconstructError as e:
            assert "is applied" in str(e) or "uninhabited" in str(e), e
        else:
            assert_meta_flags(out)
            assert not out.has_meta
            searched += qn.has_meta
        subject = spine(qn)[1][0]
        metas = {n: HMeta(n, k + 1) for k, n in enumerate(sess.metas)}
        try:
            out = decode_term(sig, encode_term(subject, metas), Const("tm"), close=lambda m, cls: STLC_VALUES[cls])
        except ReconstructError as e:
            assert "is applied" in str(e), e
            applied_raised += 1
        else:
            assert_meta_flags(out)
            assert not out.has_meta
        applied = any(isinstance(c, Pi) for c in classifiers.values())
        if i < 40 or applied:
            found = sess.first_answer(iterative=True)
            if found is not None and found[1].certified:
                closed += 1
                function_typed += applied
                assert_meta_flags(found[1].lf_proof)
                assert_meta_flags(found[1].lf_type)
                assert not found[1].lf_proof.has_meta and not found[1].lf_type.has_meta
                # the reported bindings are exactly what closed the query type
                assert normalize(substitute(qn, found[1].bindings), TYPE, sig) == found[1].lf_type
    assert searched >= 100 and applied_raised >= 20 and closed >= 20 and function_typed >= 5
    # a residual under a binder is closed at its classifier, and the
    # abstraction is decoded around its value
    t = HLam("x", HApp(HApp(HConst("app"), HMeta("P", 1)), HMeta("Q", 2)))
    met = []
    out = decode_term(
        sig, t, Pi("x", Const("tm"), Const("tm")), close=lambda m, cls: met.append((m.name, cls)) or STLC_VALUES[cls]
    )
    assert_meta_flags(out)
    assert not out.has_meta and met == [("P", Const("tm")), ("Q", Const("tm"))]
