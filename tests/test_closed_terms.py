"""The closed flag on target terms: `scope`, `lam_free` and closedness
(`scope == 0`) against plain recursive reference definitions, the one
`instantiate`, `_shift` and `_uses_bound` on target terms against
references, and the traversals that return closed subterms unchanged.  Also the term and
formula classes' equality and hashing, which ignore binder hints, and their
`repr` text, and those of clauses and the prover's records."""

import random
from collections import Counter

import pytest

from lfhh.hhf_logic import (
    TM,
    Clause,
    ClauseSet,
    FAtom,
    FForall,
    FImplies,
    FTop,
    translate,
)
from lfhh.hhf_prover import Counters, Limits, Solution, Solver, resolve_term
from lfhh.lf_syntax import (
    NO_ANNOT,
    OPEN,
    App,
    Bound,
    Const,
    HEigen,
    HMeta,
    Lam,
    _shift,
    _uses_bound,
    instantiate,
    make_app,
    parse_query,
)
from lfhh.reconstruct import QuerySession, certify


def ref_closed(t, depth=0):
    match t:
        case Const():
            return True
        case Bound(k):
            return k < depth
        case Lam(_, _, b):
            return ref_closed(b, depth + 1)
        case App(f, a):
            return not isinstance(f, Lam) and ref_closed(f, depth) and ref_closed(a, depth)
        case _:
            return False


def ref_scope(t):
    """1 + highest loose index (0 if none), or OPEN with a meta-variable, an
    eigenvariable or a redex at a spine head anywhere in `t`."""
    match t:
        case Const():
            return 0
        case Bound(k):
            return k + 1
        case Lam(_, _, b):
            s = ref_scope(b)
            return OPEN if s == OPEN else max(s - 1, 0)
        case App(f, a):
            sf, sa = ref_scope(f), ref_scope(a)
            if isinstance(f, Lam) or OPEN in (sf, sa):
                return OPEN
            return max(sf, sa)
        case _:
            return OPEN


def ref_lam_free(t):
    """No abstraction anywhere in `t`."""
    match t:
        case Lam():
            return False
        case App(f, a):
            return ref_lam_free(f) and ref_lam_free(a)
        case _:
            return True


# The generated abstractions are unannotated: their annotation, `NO_ANNOT`,
# is carried over as it is.


def ref_instantiate(body, values, depth=0):
    match body:
        case Bound(k):
            if k < depth:
                return body
            i = len(values) - 1 - (k - depth)
            return ref_shift(values[i], depth) if i >= 0 else Bound(k - len(values))
        case App(f, a):
            return App(ref_instantiate(f, values, depth), ref_instantiate(a, values, depth))
        case Lam(h, annot, b):
            return Lam(h, annot, ref_instantiate(b, values, depth + 1))
        case _:
            return body


def ref_shift(t, by, cutoff=0):
    """`t` with every index at or above `cutoff` raised by `by`."""
    match t:
        case Bound(k):
            return Bound(k + by) if k >= cutoff else t
        case App(f, a):
            return App(ref_shift(f, by, cutoff), ref_shift(a, by, cutoff))
        case Lam(h, annot, b):
            return Lam(h, annot, ref_shift(b, by, cutoff + 1))
        case _:
            return t


def ref_uses_bound(t, k):
    """Whether `t` has the loose index `k`."""
    match t:
        case Bound(i):
            return i == k
        case App(f, a):
            return ref_uses_bound(f, k) or ref_uses_bound(a, k)
        case Lam(_, _, b):
            return ref_uses_bound(b, k + 1)
        case _:
            return False


METAS = [HMeta(f"G{i}", 100 + i, 0) for i in range(3)]
EIGENS = [HEigen(f"e!{i}", 200 + i, 1) for i in range(2)]


def random_term(rng, binders=0, size=6):
    """Mostly closed terms, with λs, metas, eigenvariables, loose indices
    and redexes mixed in."""
    r = rng.random()
    if size <= 1 or r < 0.3:
        leaf = rng.random()
        if leaf < 0.55:
            return Const(rng.choice(["z", "nil", "s", "cons", "c"]))
        if leaf < 0.85:
            # mostly bound by an enclosing λ, sometimes loose
            return Bound(rng.randrange(binders + 2))
        if leaf < 0.93:
            return rng.choice(METAS)
        return rng.choice(EIGENS)
    if r < 0.5:
        return Lam("x", NO_ANNOT, random_term(rng, binders + 1, size - 1))
    if r < 0.55:
        fn = Lam("x", NO_ANNOT, random_term(rng, binders + 1, size // 2))
        return App(fn, random_term(rng, binders, size // 2))
    head = Const(rng.choice(["s", "cons", "c", "app"]))
    n = rng.randint(1, 3)
    return make_app(head, [random_term(rng, binders, size // n) for _ in range(n)])


def subterms(t):
    yield t
    match t:
        case App(f, a):
            yield from subterms(f)
            yield from subterms(a)
        case Lam(_, _, b):
            yield from subterms(b)


@pytest.fixture(scope="module")
def terms():
    rng = random.Random(20101)
    return [random_term(rng, 0, rng.randint(1, 12)) for _ in range(600)]


def test_generated_terms_cover_every_shape(terms):
    nodes = [u for t in terms for u in subterms(t)]
    assert len(terms) >= 500
    assert sum(t.scope == 0 for t in terms) >= 100
    assert sum(t.scope != 0 for t in terms) >= 100
    for kind in (Lam, HMeta, HEigen):
        assert any(isinstance(u, kind) for u in nodes)
    assert all(u.annot is NO_ANNOT for u in nodes if isinstance(u, Lam))
    assert any(isinstance(u, App) and isinstance(u.fn, Lam) for u in nodes)
    assert any(u.scope > 0 for u in nodes if isinstance(u, App))  # loose index


def test_is_closed_and_scope_agree_with_reference(terms):
    for t in terms:
        for u in subterms(t):
            assert (u.scope == 0) == ref_closed(u), u
            assert u.scope == ref_scope(u), u


def test_lam_free_agrees_with_reference(terms):
    seen = Counter()
    for t in terms:
        for u in subterms(t):
            if u.scope != OPEN:
                assert u.lam_free == ref_lam_free(u), u
                seen[u.lam_free, type(u)] += 1
    assert seen[True, App] >= 100 and seen[False, App] >= 30


def rehint(x, hint):
    """A term or formula with the hint of every binder replaced by `hint`."""
    match x:
        case App(f, a):
            return App(rehint(f, hint), rehint(a, hint))
        case Lam(_, annot, b):
            return Lam(hint, annot, rehint(b, hint))
        case FAtom(s, c):
            return FAtom(rehint(s, hint), rehint(c, hint))
        case FImplies(a, b):
            return FImplies(rehint(a, hint), rehint(b, hint))
        case FForall(_, st, b):
            return FForall(hint, st, rehint(b, hint))
        case _:
            return x


def test_equality_and_hash_ignore_binder_hints(append_sig, terms):
    formulas = [c.formula for mode in ("naive", "optimized") for c in translate(append_sig, mode)]
    assert any(isinstance(f, FForall) for f in formulas)
    for x in [u for t in terms for u in subterms(t)] + formulas:
        y = rehint(x, "renamed")
        assert y == x and hash(y) == hash(x), x
    for mode in ("naive", "optimized"):
        program = translate(append_sig, mode)
        renamed = ClauseSet(tuple(Clause(c.origin, rehint(c.formula, "renamed")) for c in program), mode)
        assert renamed == program and hash(renamed) == hash(program)
        assert renamed.clauses != program.clauses[::-1]
    assert Lam("x", NO_ANNOT, Bound(0)) != Lam("x", NO_ANNOT, Bound(1))
    assert FForall("x", TM, FTop()) != FForall("x", TM, FAtom(Bound(0), Const("tm")))


def test_repr_of_every_node_class():
    # `repr` reaches error messages, so its text is pinned
    assert repr(App(Lam("x", NO_ANNOT, Bound(0)), Const("z"))) == (
        "App(fn=Lam(hint='x', annot=NoAnnot(), body=Bound(index=0)), arg=Const(name='z'))"
    )
    assert repr(HMeta("X", 3, 1)) == "HMeta(name='X', id=3, level=1)"
    assert repr(HEigen("e!4", 4, 2)) == "HEigen(name='e!4', id=4, level=2)"
    f = FForall("x", TM, FImplies(FTop(), FAtom(Bound(0), Const("tm"))))
    assert repr(f) == (
        "FForall(hint='x', stype=SBase(name='tm'), body=FImplies(antecedent=FTop(), "
        "consequent=FAtom(subject=Bound(index=0), classifier=Const(name='tm'))))"
    )
    assert repr(Clause("z", FAtom(Const("z"), Const("nat")))) == (
        "Clause(origin='z', formula=FAtom(subject=Const(name='z'), classifier=Const(name='nat')))"
    )
    assert repr(ClauseSet((), "naive")) == "ClauseSet(clauses=(), mode='naive')"
    assert repr(Limits()) == "Limits(depth=512, budget=10000000)"
    assert repr(Counters()) == "Counters(backchain_steps=0, top_steps=0, unify_calls=0)"


def test_closed_terms_come_back_unchanged(append_sig, terms):
    solver = Solver(translate(append_sig, "optimized"))
    bindings = {m.id: Const("z") for m in METAS}
    m = HMeta("M", 1, 0)
    values = (Const("nil"), HMeta("V", 7, 0))
    seen = 0
    for t in terms:
        for u in subterms(t):
            if u.scope != 0:
                continue
            seen += 1
            assert solver._invert(u, m, {}, 0, 0) is u
            assert resolve_term(bindings, u) is u
            assert instantiate(u, values) is u
            assert _shift(u, 2, 0) is u
            assert not _uses_bound(u, 0)
    assert seen >= 500


def test_instantiate_agrees_with_reference(terms):
    # the values include loose indices, which are shifted where they land
    values = (Const("nil"), HMeta("V", 7, 0), HEigen("e!9", 9, 1), App(Const("s"), Bound(1)))
    checked = Counter()
    for t in terms:
        for depth in (0, 1, 2):
            assert instantiate(t, values, depth) == ref_instantiate(t, values, depth)
            assert _shift(t, 2, depth) == ref_shift(t, 2, depth)
            used = _uses_bound(t, depth)
            assert used == ref_uses_bound(t, depth)
            checked[used] += 1
    assert checked[True] >= 100 and checked[False] >= 100, checked


def test_closed_lambda_free_terms_unify_exactly_when_equal(append_sig, terms):
    # unification compares two closed λ-free terms by equality: it binds
    # nothing and uses up no eigenvariable id, whatever the verdict
    pool = [u for t in terms for u in subterms(t) if u.scope == 0 and u.lam_free]
    rng = random.Random(20261019)
    pairs = [(a, a) for a in pool] + [(a, rehint(a, "copy")) for a in pool]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(3000)]
    solver = Solver(translate(append_sig, "optimized"))
    eigen = solver._next_eigen
    verdicts = Counter()
    for a, b in pairs:
        verdict = solver.unify(a, b)
        assert verdict == (a == b), (a, b)
        verdicts[verdict] += 1
    assert solver.bindings == {} and solver.trail == []
    assert solver._next_eigen == eigen
    assert verdicts[True] >= 1000 and verdicts[False] >= 1000, verdicts


def test_binding_to_a_long_ground_list_stores_the_list_itself(append_sig):
    t = Const("nil")
    for _ in range(1000):
        t = make_app(Const("cons"), [Const("z"), t])
    assert t.scope == 0
    solver = Solver(translate(append_sig, "optimized"))
    m = HMeta("M", 1, 0)
    assert solver.unify(m, t)
    assert solver.bindings[m.id] is t
    assert solver.resolve(m) is t


def test_certify_rejects_closed_proof_with_undeclared_head(append_sig):
    # a closed proof is still decoded, so its undeclared head is rejected
    q = parse_query("append nil nil nil", append_sig)
    sess = QuerySession(append_sig, q, "optimized")
    sol, ans = sess.first_answer()
    assert ans.certified
    bad = dict(sol.bindings)
    bad[sess.proof_meta.id] = App(Const("appMissing"), Const("nil"))
    assert resolve_term(bad, sess.proof_meta).scope == 0
    verdict = certify(sess, Solution(bad, sol.counters, ()))
    assert verdict.status == "rejected"
    assert "appMissing" in verdict.reason
