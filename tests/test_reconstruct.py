import random
import sys

import pytest

from lfhh.hhf_logic import (
    HApp,
    HBound,
    HConst,
    HLam,
    HMeta,
    encode_term,
    happs,
    open_leaves,
)
from lfhh.hhf_prover import Limits, Solution, Solver, resolve_term
from lfhh.lf_syntax import Const, LfExpr, parse_expr_text, parse_query, parse_signature, pretty_print
from lfhh.lf_typecheck import check_object, checked_signature
from lfhh import reconstruct
from lfhh.reconstruct import (
    QuerySession,
    ReconstructError,
    certify,
    decode_term,
    finalize_metavars,
)

from corpus import APPEND_TEXT, STLC_TEXT, append_query_corpus


# -- decoding --------------------------------------------------------------------


def test_decode_lambda_with_annotations(append_sig):
    t = HLam("x", HApp(HConst("s"), HBound(0)))
    d = decode_term(append_sig, t, parse_expr_text("{x:nat} nat"))
    assert d == parse_expr_text("[x:nat] s x")
    assert encode_term(d) == t


def test_decode_constant(append_sig):
    assert decode_term(append_sig, HConst("z"), Const("nat")) == Const("z")


def test_decode_eta_expands(append_sig):
    d = decode_term(append_sig, HConst("s"), parse_expr_text("{x:nat} nat"))
    assert d == parse_expr_text("[x:nat] s x")


def test_decode_rejects_junk(append_sig):
    with pytest.raises(ReconstructError, match="not an encoding"):
        decode_term(append_sig, HConst("bogus"), Const("nat"))
    with pytest.raises(ReconstructError, match="under-applied"):
        decode_term(append_sig, HConst("cons"), Const("list"))
    with pytest.raises(ReconstructError, match="applied too far"):
        decode_term(append_sig, HApp(HConst("z"), HConst("z")), Const("nat"))


def test_decode_closes_unbound_variable_where_met(append_sig):
    # each occurrence is handed to `close` at its classifier, and the value
    # it returns is decoded in its place
    x = HMeta("X", 901, 0)
    met = []
    t = happs(HConst("cons"), [x, happs(HConst("cons"), [x, HConst("nil")])])
    d = decode_term(append_sig, t, Const("list"), close=lambda m, cls: met.append((m, cls)) or HConst("z"))
    assert pretty_print(d) == "cons z (cons z nil)"
    assert met == [(x, Const("nat")), (x, Const("nat"))]


def test_decode_rejects_applied_residual(append_sig):
    f = HMeta("F", 902, 0)
    with pytest.raises(ReconstructError, match=r"residual variable \?F is applied"):
        decode_term(append_sig, HApp(f, HConst("z")), Const("nat"), close=lambda m, cls: HConst("z"))


def test_decode_without_close_rejects_unbound_variable(append_sig):
    with pytest.raises(ReconstructError, match="unresolved variable"):
        decode_term(append_sig, HMeta("X", 903, 0), Const("nat"))


def test_decode_example_proof_round_trip(append_sig):
    q, _ = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
    sess = QuerySession(append_sig, q, "optimized")
    sol, ans = sess.first_answer()
    assert ans.certified
    reencoded = encode_term(ans.lf_proof)
    assert reencoded == resolve_term(sol.bindings, sess.proof_meta)
    check_object(append_sig, ans.lf_proof, ans.lf_type)


# -- finalize ---------------------------------------------------------------------


def test_finalize_pass_through_when_closed(append_sig):
    q, _ = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
    sess = QuerySession(append_sig, q, "optimized")
    sol = next(sess.solver.solve(sess.goal))
    ty, proof, bindings = finalize_metavars(sess, sol)
    assert pretty_print(ty) == "append (cons z nil) (cons (s z) nil) (cons z (cons (s z) nil))"
    # idempotence on the closed solution
    ty2, proof2, bindings2 = finalize_metavars(sess, sol)
    assert ty2 == ty and proof2 == proof and bindings2 == bindings


def test_a_session_leaves_the_recursion_limit_alone(append_sig):
    # only the command line raises the limit for the whole process; a
    # library caller keeps the one it set, whatever the depth bound
    limit = sys.getrecursionlimit()
    q, _ = parse_query("append (cons z nil) K L", append_sig)
    sess = QuerySession(append_sig, q, "optimized", Limits(depth=5000))
    _, ans = sess.first_answer()
    assert ans.certified and sess.binding_report(ans)
    assert sys.getrecursionlimit() == limit


def test_finalize_nothing_residual_for_first_inhabitant(append_sig):
    sess = QuerySession(append_sig, Const("nat"), "optimized")
    sol, ans = sess.first_answer()
    assert ans.certified and ans.lf_proof == Const("z")


def test_finalize_residual_binds_first_inhabitant(append_sig):
    # the head instantiation leaves the shared variable open; closing picks
    # the first inhabitant in clause order
    q, _ = parse_query("append nil K K", append_sig)
    sess = QuerySession(append_sig, q, "optimized")
    raw = next(Solver(sess.program).solve(sess.goal))
    assert open_leaves(raw.value(sess.proof_meta), HMeta, []) != []  # flagged open before closing
    sol, ans = sess.first_answer()
    assert ans.certified
    assert pretty_print(ans.lf_type) == "append nil nil nil"
    assert pretty_print(ans.lf_proof) == "appNil nil"
    assert pretty_print(sess.binding_report(ans)["K"]) == "nil"


@pytest.mark.parametrize(
    "text, query, walks, searches",
    [
        ("append", "append nil K K", 3, 1),
        ("append", "append (cons X (cons Y nil)) nil L", 4, 2),
        ("append", "append (cons z nil) nil L", 2, 0),
        ("stlc", "of (lam T ([x:tm] lam S ([y:tm] x))) U", 4, 2),
    ],
)
def test_certify_decodes_each_occurrence_once(monkeypatch, text, query, walks, searches):
    # one decoder walk per query-variable occurrence and one for the proof,
    # and one auxiliary search per residual variable, however often it occurs
    sig = checked_signature(parse_signature({"append": APPEND_TEXT, "stlc": STLC_TEXT}[text]))
    q, _ = parse_query(query, sig)
    sess = QuerySession(sig, q, "optimized")
    sol = next(sess.solver.solve(sess.goal))
    counts = {"walks": 0, "searches": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(reconstruct, "decode_term", counted("walks", reconstruct.decode_term))
    monkeypatch.setattr(reconstruct, "inhabitation_goal", counted("searches", reconstruct.inhabitation_goal))
    assert certify(sess, sol).certified
    assert counts == {"walks": walks, "searches": searches}


def test_finalize_returns_the_certified_proof(append_sig):
    # the proof decoded while closing is the one certification checks
    q, _ = parse_query("append nil K K", append_sig)
    sess = QuerySession(append_sig, q, "optimized")
    sol = next(sess.solver.solve(sess.goal))
    ty, proof, _ = finalize_metavars(sess, sol)
    ans = certify(sess, sol)
    assert isinstance(proof, LfExpr)
    assert ans.certified and proof == ans.lf_proof and ty == ans.lf_type


def test_finalize_uninhabited_residual(append_sig):
    # an empty family: no clauses can close the residual variable
    sig = checked_signature(
        parse_signature(
            "nat : type. z : nat. s : nat -> nat. empty : type."
            " f : empty -> type. w : {e:empty} f e."
        )
    )
    q, _ = parse_query("f E", sig)
    sess = QuerySession(sig, q, "optimized", Limits(depth=24))
    sol = next(sess.solver.solve(sess.goal))
    with pytest.raises(ReconstructError, match="uninhabited residual type"):
        finalize_metavars(sess, sol)


# -- certification -----------------------------------------------------------------


def test_certify_example_answer_both_modes(append_sig):
    for mode, iterative in (("optimized", False), ("naive", True)):
        q, _ = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
        sess = QuerySession(append_sig, q, mode)
        sol, ans = sess.first_answer(iterative=iterative)
        assert ans.certified
        assert ans.kernel_derivation is not None and ans.kernel_derivation.size == 16


def test_certify_trivial_query(append_sig):
    sess = QuerySession(append_sig, Const("nat"), "optimized")
    sol, ans = sess.first_answer()
    assert ans.certified and ans.kernel_derivation.size == 1


def _swap_const(t, a, b):
    match t:
        case HConst(n) if n == a:
            return HConst(b)
        case HApp(f, x):
            return HApp(_swap_const(f, a, b), _swap_const(x, a, b))
        case HLam(h, body):
            return HLam(h, _swap_const(body, a, b))
        case _:
            return t


def test_certify_rejects_corrupted_binding(append_sig):
    q, _ = parse_query("append (cons z nil) nil L", append_sig)
    sess = QuerySession(append_sig, q, "optimized")
    sol, ans = sess.first_answer()
    assert ans.certified
    bad = dict(sol.bindings)
    bad[sess.proof_meta.id] = _swap_const(resolve_term(bad, sess.proof_meta), "z", "nil")
    verdict = certify(sess, Solution(bad, sol.counters, ()))
    assert verdict.status == "rejected"
    assert "nat" in verdict.reason and "list" in verdict.reason


def test_certify_never_rejects_solver_output(append_sig):
    rng = random.Random(71)
    rejected = []
    for q, _expect in append_query_corpus(rng, 30):
        for mode in ("naive", "optimized"):
            sess = QuerySession(append_sig, q, mode, Limits(depth=32))
            got = sess.first_answer(iterative=True)
            if got is not None and not got[1].certified:
                rejected.append((mode, pretty_print(q), got[1].reason))
    assert rejected == []


def test_higher_order_guard_search(remark_sig):
    # assumption-scoped search instantiates a function-typed binder and the
    # decoded answer re-checks
    q, _ = parse_query("num N", remark_sig)
    sess = QuerySession(remark_sig, q, "optimized")
    sol, ans = sess.first_answer()
    assert ans.certified
    assert pretty_print(ans.lf_proof) == "num_n z"
    assert pretty_print(ans.lf_type) == "num z"


@pytest.mark.parametrize("query", ["of (lam base M) (arr base base)", "of (lam base ([x:tm] M x)) (arr base base)"])
def test_session_normalizes_a_parsed_query_itself(query):
    # a library caller passes the parsed, unnormalized query; the session
    # records M's classifier `tm -> tm` while normalizing it
    sig = checked_signature(parse_signature(STLC_TEXT))
    q, _ = parse_query(query, sig)
    sess = QuerySession(sig, q, "optimized")
    _, ans = sess.first_answer()
    assert ans.certified, ans.reason
    assert pretty_print(ans.lf_type) == "of (lam base ([x:tm] x)) (arr base base)"
    assert {n: pretty_print(v) for n, v in sess.binding_report(ans).items()} == {"M": "[x:tm] x"}
