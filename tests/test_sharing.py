"""Shared proofs: a term whose subterms are shared gets the same verdict, the
same derivation text, the same error text and the same trace as an unshared
copy of it, and the work of checking one grows with its distinct nodes.  A
term made of constants, bound variables and applications is one object from
the query through the search's store and the decoded proof to the kernel."""

import pytest

from lfhh import lf_typecheck, reconstruct
from lfhh.cli import _append_check
from lfhh.hhf_logic import (
    TM,
    Clause,
    ClauseSet,
    FAtom,
    FForall,
    FImplies,
    FTop,
    encode_term,
    inhabitation_goal,
    translate,
)
from lfhh.hhf_prover import Solver
from lfhh.lf_syntax import (
    TYPE,
    App,
    Bound,
    Const,
    HMeta,
    Lam,
    Meta,
    NO_ANNOT,
    Pi,
    SigEntry,
    Signature,
    make_app,
    parse_expr_text,
    parse_query,
    spine,
)
from lfhh.lf_typecheck import KernelError, check_object, checked_signature
from lfhh.reconstruct import QuerySession, decode_term

from corpus import list_term, to_sexpr


def unshare(e):
    """A copy of `e` in which no node occurs twice."""
    match e:
        case App(f, a):
            return App(unshare(f), unshare(a))
        case Pi(h, annot, body):
            return Pi(h, unshare(annot), unshare(body))
        case Lam(h, annot, body):
            return Lam(h, unshare(annot), unshare(body))
        case Const(n):
            return Const(n)
        case Bound(k):
            return Bound(k)
        case _:
            return e


def nodes(e, seen):
    """The number of node occurrences in `e`; `seen` collects the distinct
    nodes by id."""
    seen[id(e)] = e
    children = [getattr(e, f) for f in ("fn", "arg", "annot", "body") if hasattr(e, f)]
    return 1 + sum(nodes(c, seen) for c in children)


def test_shared_proof_has_the_derivation_of_its_unshared_copy(append_sig):
    ty, proof = _append_check([Const("z")] * 8)
    copy_ty, copy_proof = unshare(ty), unshare(proof)
    shared_nodes, copied_nodes = {}, {}
    assert nodes(proof, shared_nodes) == nodes(copy_proof, copied_nodes) == len(copied_nodes)
    assert copy_proof == proof and len(shared_nodes) < len(copied_nodes)
    shared = check_object(append_sig, proof, ty)
    unshared = check_object(append_sig, copy_proof, copy_ty)
    assert to_sexpr(shared) == to_sexpr(unshared)
    assert shared.size == unshared.size


def test_ill_typed_element_of_a_shared_suffix_is_rejected_with_the_same_text(append_sig):
    # `nil` is a list, not a nat: it sits in a suffix that the type and
    # several proof steps share
    elems = [Const("z")] * 8
    elems[5] = Const("nil")
    ty, proof = _append_check(elems)
    with pytest.raises(KernelError) as shared:
        check_object(append_sig, proof, ty)
    with pytest.raises(KernelError) as unshared:
        check_object(append_sig, unshare(proof), unshare(ty))
    assert str(shared.value) == str(unshared.value)
    assert "'nil' constructs list, expected nat" in str(shared.value)


def test_closed_lambda_unified_with_itself_uses_the_same_eigenvariables():
    # comparing a term with an abstraction inside uses up eigenvariable ids
    # whether or not the two sides are one object; the guard's universal
    # shows the next id in the trace
    # forall x1:tm. (forall x2:tm. top) => hastype (k x1) x1
    f = FForall("x1", TM, FImplies(FForall("x2", TM, FTop()), FAtom(App(Const("k"), Bound(0)), Bound(0))))
    program = ClauseSet((Clause("k", f),), "optimized")
    term = App(Const("c"), Lam("y", NO_ANNOT, App(Const("s"), Bound(0))))
    traces = []
    for other in (term, App(Const("c"), Lam("y", NO_ANNOT, App(Const("s"), Bound(0))))):
        assert other == term
        solver = Solver(program, trace=True)
        sol = next(solver.solve(FAtom(App(Const("k"), term), other)))
        traces.append(sol.trace)
    assert traces[0] == traces[1]
    assert "all x2!2" in traces[0]


def test_unify_calls_per_step_of_the_ground_check_do_not_grow(append_sig, cli_limits):
    program = translate(append_sig, "optimized")

    class Counting(Solver):
        calls = 0

        def _uni(self, a, b):
            self.calls += 1
            return super()._uni(a, b)

    for n in (64, 512):
        ty, proof = _append_check([Const("z")] * n)
        solver = Counting(program, cli_limits(2 * n))
        goal = inhabitation_goal(append_sig, ty, encode_term(proof), "optimized")
        assert next(solver.solve(goal), None) is not None
        assert solver.counters.backchain_steps == n + 1
        assert solver.calls <= 20 * (n + 1)


def test_certifying_the_output_search_grows_with_distinct_nodes(append_sig, monkeypatch, cli_limits):
    counts = {"backchain": 0, "decode": 0}

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(lf_typecheck, "_backchain", counting("backchain", lf_typecheck._backchain))
    # the decoder and the closing of the query type look up one head per visit
    monkeypatch.setattr(reconstruct, "head_classifier", counting("decode", reconstruct.head_classifier))
    seen = {}
    for n in (256, 512):
        ty, _ = _append_check([Const("z")] * n)
        counts.update(backchain=0, decode=0)
        sess = QuerySession(append_sig, App(ty.fn, Meta("Out")), "optimized", cli_limits(2 * n))
        _, answer = sess.first_answer()
        assert answer.certified
        seen[n] = dict(counts)
    for name in counts:
        assert seen[512][name] <= 2.2 * seen[256][name], (name, seen)


def test_a_term_of_constants_variables_and_applications_is_its_own_encoding():
    e = parse_expr_text("append (cons z nil) nil (cons z nil)")
    assert encode_term(e) is e
    under = App(Const("s"), Bound(2))
    assert encode_term(under) is under
    # only the query variable and the abstraction are copied
    query = make_app(Const("append"), [e.fn.fn.arg, Const("nil"), Meta("Out")])
    metas = {"Out": HMeta("Out", 1)}
    encoded = encode_term(query, metas)
    assert encoded.arg is metas["Out"] and encoded.fn is query.fn
    lam = App(Const("lam"), Lam("x", Const("tm"), App(Const("s"), Bound(0))))
    body = encode_term(lam).arg
    assert body.__class__ is Lam and body.annot is NO_ANNOT and body.body is lam.arg.body


def test_decoding_a_term_without_abstractions_gives_it_back(append_sig):
    t = list_term([Const("z"), App(Const("s"), Const("z"))])
    assert decode_term(append_sig, t, Const("list")) is t
    under = App(Const("s"), Bound(0))
    assert decode_term(append_sig, under, Const("nat"), [Const("nat")]) is under
    # at a product classifier the term is eta-expanded, so it is rebuilt
    assert decode_term(append_sig, Const("s"), Pi("x", Const("nat"), Const("nat"))) == Lam(
        "x", Const("nat"), App(Const("s"), Bound(0))
    )


def test_an_answers_lists_are_one_object_from_query_to_kernel(append_sig, cli_limits):
    n = 12
    query = make_app(Const("append"), [list_term([Const("z")] * n), Const("nil"), Meta("Out")])
    sess = QuerySession(append_sig, query, "optimized", cli_limits(2 * n))
    sol, answer = sess.first_answer()
    assert answer.certified
    stored = sol.value(sess.proof_meta)
    proof = decode_term(append_sig, stored, answer.lf_type)
    assert proof is stored  # decoding copies nothing
    derivation = check_object(append_sig, proof, answer.lf_type)
    suffixes = [sess.query_type.fn.fn.arg]
    for _ in range(n):
        suffixes.append(suffixes[-1].arg)
    assert spine(answer.lf_proof)[1][1] is suffixes[1]
    for suffix in suffixes[1:]:
        head, args = spine(proof)
        # the input suffix is the query's, held in a register, never bound,
        # and the kernel's derivation holds the arguments as they are
        assert head == Const("appCons") and args[1] is suffix
        assert all(a is b for a, b in zip(args[:4], derivation.instantiation[:4]))
        proof, derivation = args[4], derivation.premises[4]
    assert proof.fn == Const("appNil")


@pytest.mark.parametrize("mode", ["naive", "optimized"])
def test_an_answers_type_and_proof_share_the_lists_built_in_the_store(append_sig, mode):
    # the output list is built by the search; the query variable and the
    # proof are resolved through one memo, so the proof's output argument
    # is the tail of the closed type's Out, not an equal copy
    query = parse_query("append (cons z (cons z nil)) nil Out", append_sig)
    sess = QuerySession(append_sig, query, mode)
    _, ans = sess.first_answer(iterative=True)
    assert ans.certified
    out = spine(ans.lf_type)[1][2]
    assert spine(ans.lf_proof)[1][3] is out.arg
    assert ans.bindings["Out"] is out


def test_a_shared_open_subterm_under_a_binder_is_derived_once(monkeypatch):
    nat = Const("nat")
    sig = checked_signature(
        Signature(
            [
                SigEntry("nat", TYPE, "kind"),
                SigEntry("s", Pi("_", nat, nat), "type"),
                SigEntry("p", Pi("_", nat, Pi("_", nat, nat)), "type"),
            ]
        )
    )
    p = sig.lookup("p").classifier
    assert p.annot is p.body.annot  # both arguments are checked at one object
    sx = App(Const("s"), Bound(0))
    proof = Lam("x", nat, make_app(Const("p"), [sx, sx]))
    built = []
    real = lf_typecheck.Derivation
    monkeypatch.setattr(lf_typecheck, "Derivation", lambda *args: built.append(args[0]) or real(*args))
    d = check_object(sig, proof, Pi("x", nat, nat))
    # `x`, `s x` and `p` bottom up, then AbsObj: the second `s x` reuses the
    # first's derivation
    assert built == ["BackchainObj", "BackchainObj", "BackchainObj", "AbsObj"]
    pair = d.premises[0]
    assert pair.premises[0] is pair.premises[1]
    assert d.size == 6
    # an unshared copy gets an equal derivation, built node by node
    built.clear()
    copy = check_object(sig, unshare(proof), Pi("x", nat, nat))
    assert len(built) == 6 and to_sexpr(copy) == to_sexpr(d)
