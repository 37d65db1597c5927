import random
import sys

import pytest

from lfhh import hhf_logic, hhf_prover
from lfhh.hhf_logic import (
    encode_term,
    open_leaves,
)
from lfhh.hhf_prover import Limits, Solution, Solver, resolve_term
from lfhh.lf_syntax import (
    App,
    Bound,
    Const,
    HMeta,
    Lam,
    LfExpr,
    NO_ANNOT,
    make_app,
    parse_expr_text,
    parse_query,
    parse_signature,
    pretty_print,
)
from lfhh.lf_typecheck import check_object, checked_signature
from lfhh import reconstruct
from lfhh.reconstruct import (
    QuerySession,
    ReconstructError,
    certify,
    decode_term,
    finalize_metavars,
)

from corpus import APPEND_TEXT, RIGID_GUARD_TEXT, STLC_TEXT, append_query_corpus, rigid_guard_query


# -- decoding --------------------------------------------------------------------


def test_decode_lambda_with_annotations(append_sig):
    t = Lam("x", NO_ANNOT, App(Const("s"), Bound(0)))
    d = decode_term(append_sig, t, parse_expr_text("{x:nat} nat"))
    assert d == parse_expr_text("[x:nat] s x")
    assert encode_term(d) == t


def test_decode_constant(append_sig):
    assert decode_term(append_sig, Const("z"), Const("nat")) == Const("z")


def test_decode_eta_expands(append_sig):
    d = decode_term(append_sig, Const("s"), parse_expr_text("{x:nat} nat"))
    assert d == parse_expr_text("[x:nat] s x")


def test_decode_rejects_junk(append_sig):
    with pytest.raises(ReconstructError, match="not an encoding"):
        decode_term(append_sig, Const("bogus"), Const("nat"))
    with pytest.raises(ReconstructError, match="under-applied"):
        decode_term(append_sig, Const("cons"), Const("list"))
    with pytest.raises(ReconstructError, match="applied too far"):
        decode_term(append_sig, App(Const("z"), Const("z")), Const("nat"))


def test_decode_closes_unbound_variable_where_met(append_sig):
    # each occurrence is handed to `close` at its classifier, and the value
    # it returns is decoded in its place
    x = HMeta("X", 901, 0)
    met = []
    t = make_app(Const("cons"), [x, make_app(Const("cons"), [x, Const("nil")])])
    d = decode_term(append_sig, t, Const("list"), close=lambda m, cls: met.append((m, cls)) or Const("z"))
    assert pretty_print(d) == "cons z (cons z nil)"
    assert met == [(x, Const("nat")), (x, Const("nat"))]


def test_decode_rejects_applied_residual(append_sig):
    f = HMeta("F", 902, 0)
    with pytest.raises(ReconstructError, match=r"residual variable \?F is applied"):
        decode_term(append_sig, App(f, Const("z")), Const("nat"), close=lambda m, cls: Const("z"))


def test_decode_without_close_rejects_unbound_variable(append_sig):
    with pytest.raises(ReconstructError, match="unresolved variable"):
        decode_term(append_sig, HMeta("X", 903, 0), Const("nat"))


def test_decode_example_proof_round_trip(append_sig):
    q = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
    sess = QuerySession(append_sig, q, "optimized")
    sol, ans = sess.first_answer()
    assert ans.certified
    reencoded = encode_term(ans.lf_proof)
    assert reencoded == resolve_term(sol.bindings, sess.proof_meta)
    check_object(append_sig, ans.lf_proof, ans.lf_type)


# -- finalize ---------------------------------------------------------------------


def test_finalize_pass_through_when_closed(append_sig):
    q = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
    sess = QuerySession(append_sig, q, "optimized")
    sol = next(sess.solutions(sess.search()))
    ty, proof, bindings = finalize_metavars(sess, sol)
    assert pretty_print(ty) == "append (cons z nil) (cons (s z) nil) (cons z (cons (s z) nil))"
    # idempotence on the closed solution
    ty2, proof2, bindings2 = finalize_metavars(sess, sol)
    assert ty2 == ty and proof2 == proof and bindings2 == bindings


def test_a_session_leaves_the_recursion_limit_alone(append_sig):
    # only the command line raises the limit for the whole process; a
    # library caller keeps the one it set, whatever the depth bound
    limit = sys.getrecursionlimit()
    q = parse_query("append (cons z nil) K L", append_sig)
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
    q = parse_query("append nil K K", append_sig)
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
    q = parse_query(query, sig)
    sess = QuerySession(sig, q, "optimized")
    sol = next(sess.solutions(sess.search()))
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
    q = parse_query("append nil K K", append_sig)
    sess = QuerySession(append_sig, q, "optimized")
    sol = next(sess.solutions(sess.search()))
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
    q = parse_query("f E", sig)
    sess = QuerySession(sig, q, "optimized", Limits(depth=24))
    sol = next(sess.solutions(sess.search()))
    with pytest.raises(ReconstructError, match="uninhabited residual type"):
        finalize_metavars(sess, sol)


# -- certification -----------------------------------------------------------------


def test_certify_example_answer_both_modes(append_sig):
    for mode, iterative in (("optimized", False), ("naive", True)):
        q = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
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
        case Const(n) if n == a:
            return Const(b)
        case App(f, x):
            return App(_swap_const(f, a, b), _swap_const(x, a, b))
        case Lam(h, annot, body):
            return Lam(h, annot, _swap_const(body, a, b))
        case _:
            return t


def test_certify_rejects_corrupted_binding(append_sig):
    q = parse_query("append (cons z nil) nil L", append_sig)
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
    q = parse_query("num N", remark_sig)
    sess = QuerySession(remark_sig, q, "optimized")
    sol, ans = sess.first_answer()
    assert ans.certified
    assert pretty_print(ans.lf_proof) == "num_n z"
    assert pretty_print(ans.lf_type) == "num z"


@pytest.mark.parametrize("query", ["of (lam base M) (arr base base)", "of (lam base ([x:tm] M x)) (arr base base)"])
def test_session_normalizes_a_parsed_query_itself(query):
    # a library caller passes the parsed, unnormalized query; the session
    # normalizes it, and closing decodes M at `tm -> tm`, the classifier
    # its position fixes
    sig = checked_signature(parse_signature(STLC_TEXT))
    q = parse_query(query, sig)
    sess = QuerySession(sig, q, "optimized")
    _, ans = sess.first_answer()
    assert ans.certified, ans.reason
    assert pretty_print(ans.lf_type) == "of (lam base ([x:tm] x)) (arr base base)"
    assert {n: pretty_print(v) for n, v in sess.binding_report(ans).items()} == {"M": "[x:tm] x"}


def test_applied_variable_at_open_classifiers_is_named(golden_dir):
    # `M v n` applies M to distinct binders out of order, and v's classifier
    # `vec n` depends on n: no classifier of M is fixed by the position, and
    # certification rejects the answer with an error that names M
    sig = checked_signature(parse_signature((golden_dir / "vec.lf").read_text()))
    sess = QuerySession(sig, parse_query("{n:nat} {v:vec n} vec (M v n)", sig), "optimized")
    _, ans = sess.first_answer()
    assert not ans.certified
    assert ans.reason == "applied query variable M has no classifier fixed by its position"
    # in order, the same binders give M the classifier `{x:nat} vec x -> nat`
    sess = QuerySession(sig, parse_query("{n:nat} {v:vec n} vec (M n v)", sig), "optimized")
    _, ans = sess.first_answer()
    assert ans.certified, ans.reason
    assert {n: pretty_print(v) for n, v in sess.binding_report(ans).items()} == {"M": "[x:nat] [x1:vec x] x"}


def test_variables_under_rigid_guards_agree_across_modes():
    # each query has a variable that the optimized goal does not mention;
    # the session's table still holds it, search numbers its own variables
    # past it, and closing gives it the value that naive search finds
    sig = checked_signature(parse_signature(RIGID_GUARD_TEXT))
    rng = random.Random(29)
    for _ in range(12):
        text = rigid_guard_query(rng)
        q = parse_query(text, sig)
        answers = {}
        for mode in ("naive", "optimized"):
            sess = QuerySession(sig, q, mode)
            in_goal = {m.name for m in open_leaves(sess.goal, HMeta, [])}
            assert (set(sess.metas) <= in_goal) == (mode == "naive"), text
            found = sess.first_answer(iterative=True)
            assert found is not None, (mode, text)
            _, ans = found
            assert ans.certified, (mode, text, ans.reason)
            answers[mode] = ans.lf_type, ans.lf_proof, sess.binding_report(ans)
        assert answers["naive"] == answers["optimized"], text


def test_each_search_of_a_session_starts_afresh(append_sig):
    # every `answers()` call runs a new search, so iterating twice gives the
    # same answers with the same counters and traces
    q = parse_query("append L K (cons z nil)", append_sig)
    sess = QuerySession(append_sig, q, "optimized", trace=True)
    runs = [[(sol.counters, sol.trace, ans.lf_proof) for sol, ans in sess.answers()] for _ in range(2)]
    assert runs[0] == runs[1]
    assert [(c.backchain_steps, c.top_steps, c.unify_calls) for c, _, _ in runs[0]] == [(1, 1, 2), (3, 6, 6)]
    assert all(trace for _, trace, _ in runs[0])


def test_closing_walks_no_store(append_sig, monkeypatch):
    # `{u1: append nil K1 K1} … {uk: …} append L nil Out` for a list L of n
    # elements: the answer's store grows with n, and each Ki is closed by an
    # auxiliary search over the last solution that numbers its variables
    # past that solution's.  So closing walks the auxiliary goals only: the
    # same nodes whatever n, and a number linear in k
    def walked(n, k):
        hyps = "".join(f"{{u{i}: append nil K{i} K{i}}} " for i in range(k))
        lst = "nil"
        for _ in range(n):
            lst = f"(cons z {lst})"
        sess = QuerySession(append_sig, parse_query(f"{hyps}append {lst} nil Out", append_sig), "optimized")
        sol = next(sess.solutions(sess.search()))
        count = 0
        real = hhf_logic.open_leaves

        def counted(*args):
            nonlocal count
            count += 1
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(hhf_logic, "open_leaves", counted)
            m.setattr(hhf_prover, "open_leaves", counted)
            finalize_metavars(sess, sol)
        return count

    few, some, many = (walked(50, k) for k in (10, 40, 160))
    assert some >= 40 and some == walked(200, 40) and many == walked(200, 160)
    # from k = 40 to 160 each residual costs at most what one did from 10 to 40
    assert many - some <= 4 * (some - few)


@pytest.mark.parametrize("mode", ["naive", "optimized"])
def test_a_search_leaves_the_session_as_it_was(append_sig, mode):
    # iterative deepening runs each round at its own bound, and a stream that
    # is closed after its first answer undoes its bindings, so the session's
    # next search finds every split, as a fresh session does
    q = parse_query("append L K (cons z (cons z (cons z nil)))", append_sig)
    sess = QuerySession(append_sig, q, mode)
    solver = sess.search()
    assert sess.first_answer(True, solver) is not None
    assert solver.limits == Limits() and solver.bindings == {}
    assert len(list(sess.answers())) == len(list(QuerySession(append_sig, q, mode).answers())) == 4
