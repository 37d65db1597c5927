import gc
import random
import weakref

import pytest

from lfhh import hhf_prover
from lfhh.hhf_logic import (
    FAtom,
    FForall,
    FTop,
    HApp,
    HBound,
    HConst,
    HEigen,
    HLam,
    HMeta,
    TM,
    collect_metas,
    encode_term,
    happs,
    inhabitation_goal,
    translate,
    translate_query,
)
from lfhh.hhf_prover import (
    Limits,
    Solver,
    _term_eigens,
    check_depth_equivalence,
    counters,
    pattern_unify,
    solve,
)
from lfhh.lf_syntax import Const, make_app, parse_expr_text, parse_query, parse_signature
from lfhh.lf_typecheck import checked_signature

from corpus import append_proof, append_query_corpus, list_elems, list_term


@pytest.fixture(scope="module")
def programs(append_sig):
    return {m: translate(append_sig, m) for m in ("naive", "optimized")}


# -- basic goals -----------------------------------------------------------------


def test_ground_membership_naive(append_sig, programs):
    goal = FAtom(encode_term(parse_expr_text("cons (s z) nil")), HConst("list"))
    sols = list(solve(programs["naive"], goal))
    assert len(sols) == 1
    assert sols[0].counters.backchain_steps == 4


def test_top_goal(programs):
    sols = list(solve(programs["optimized"], FTop()))
    assert len(sols) == 1
    assert sols[0].counters.backchain_steps == 0
    assert sols[0].counters.top_steps == 1


def test_example_query_optimized(append_sig, programs):
    q, _ = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
    goal, proof = translate_query(append_sig, q, "optimized")
    metas = collect_metas(goal)
    solver = Solver(programs["optimized"])
    sol = next(solver.solve(goal))
    assert sol.value(metas["L"]) == encode_term(parse_expr_text("cons z (cons (s z) nil)"))
    assert sol.value(proof) == encode_term(
        parse_expr_text("appCons z nil (cons (s z) nil) (cons (s z) nil) (appNil (cons (s z) nil))")
    )


def test_example_query_naive_iterative(append_sig, programs):
    q, _ = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
    goal, proof = translate_query(append_sig, q, "naive")
    metas = collect_metas(goal)
    sol = next(Solver(programs["naive"]).solve(goal, iterative=True))
    assert sol.value(metas["L"]) == encode_term(parse_expr_text("cons z (cons (s z) nil)"))


def test_finite_failure_vs_resource(append_sig, programs):
    q, _ = parse_query("append nil nil (cons z nil)", append_sig)
    goal, _ = translate_query(append_sig, q, "optimized")
    solver = Solver(programs["optimized"], Limits(depth=16))
    assert list(solver.solve(goal)) == []
    assert not solver.depth_hit and not solver.budget_hit


def test_depth_exhaustion_flag(append_sig, programs):
    goal = FAtom(encode_term(parse_expr_text("s (s (s (s z)))")), HConst("nat"))
    solver = Solver(programs["optimized"], Limits(depth=3))
    assert list(solver.solve(goal)) == []
    assert solver.depth_hit


def test_budget_exhaustion_flag(append_sig, programs):
    q, _ = parse_query("append (cons z nil) nil Out", append_sig)
    goal, _ = translate_query(append_sig, q, "naive")
    solver = Solver(programs["naive"], Limits(budget=5))
    assert list(solver.solve(goal)) == []
    assert solver.budget_hit


def test_counters_accessor(programs):
    solver = Solver(programs["optimized"])
    next(solver.solve(FAtom(HConst("z"), HConst("nat"))))
    snap = counters(solver)
    assert snap.backchain_steps == 1
    assert snap is not solver.counters


# -- counter law -------------------------------------------------------------------


def test_optimized_backchain_law(append_sig, programs):
    for n in (0, 1, 2, 5, 9):
        elems = [Const("z")] * n
        ty = make_app(Const("append"), [list_term(elems), Const("nil"), list_term(elems)])
        goal = inhabitation_goal(append_sig, ty, encode_term(append_proof(elems, [])), "optimized")
        solver = Solver(programs["optimized"])
        assert next(solver.solve(goal), None) is not None
        assert solver.counters.backchain_steps == n + 1
        assert solver.counters.top_steps == 4 * n + 1


# -- all-solutions enumeration -------------------------------------------------------


def test_enumerates_inhabitants_in_clause_order(append_sig, programs):
    goal, proof = translate_query(append_sig, Const("nat"), "optimized")
    solver = Solver(programs["optimized"], Limits(depth=3))
    got = [sol.value(proof) for sol in solver.solve(goal)]
    assert got[0] == HConst("z")
    assert got[1] == HApp(HConst("s"), HConst("z"))
    assert len(got) == 3  # one backchain per depth level: z, s z, s (s z)


# -- dynamic clauses and eigenvariables ----------------------------------------------


def test_hypothetical_goal(append_sig, programs):
    goal, proof = translate_query(append_sig, parse_expr_text("{x:nat} nat"), "optimized")
    sol = next(Solver(programs["optimized"]).solve(goal))
    assert sol.value(proof) == HLam("x", HBound(0))


def test_solution_bindings_are_eigen_free(append_sig, programs):
    goal, proof = translate_query(append_sig, parse_expr_text("{x:nat} nat"), "optimized")
    for sol in Solver(programs["optimized"]).solve(goal):
        assert _term_eigens(sol.value(proof)) == []
        break


def test_scope_violation_rejected(programs):
    solver = Solver(programs["optimized"])
    m = HMeta("F", 501, TM, 0)
    e = HEigen("c", 900, 5)
    assert not pattern_unify(m, e, solver)  # binding would leak the eigenvariable


# -- pattern unification ----------------------------------------------------------------


def test_first_order_head_unification(programs):
    solver = Solver(programs["optimized"])
    l = HMeta("l", 601, TM, 0)
    k = HMeta("K", 602, TM, 0)
    a = happs(HConst("append"), [HConst("nil"), l, l])
    b = happs(HConst("append"), [HConst("nil"), encode_term(parse_expr_text("cons z nil")), k])
    assert pattern_unify(a, b, solver)
    assert solver.resolve(k) == encode_term(parse_expr_text("cons z nil"))
    assert solver.resolve(l) == solver.resolve(k)


def test_self_unification_noop(programs):
    solver = Solver(programs["optimized"])
    m = HMeta("M", 603, TM, 0)
    assert pattern_unify(m, m, solver)
    assert solver.bindings == {}


def test_pattern_inversion(programs):
    solver = Solver(programs["optimized"])
    f = HMeta("F", 604, TM, 0)
    x = HEigen("x", 901, 0)
    y = HEigen("y", 902, 0)
    assert pattern_unify(happs(f, [x, y]), happs(HConst("cons"), [x, y]), solver)
    assert solver.resolve(f) == HLam("w", HLam("w", happs(HConst("cons"), [HBound(1), HBound(0)])))


def test_non_pattern_diagnostic(programs):
    solver = Solver(programs["optimized"])
    f = HMeta("F", 605, TM, 0)
    assert not pattern_unify(HApp(f, HApp(HConst("s"), HConst("z"))), HConst("z"), solver)
    assert solver.non_pattern_seen


def test_occurs_check(programs):
    solver = Solver(programs["optimized"])
    f = HMeta("F", 606, TM, 0)
    assert not pattern_unify(f, HApp(HConst("s"), f), solver)


def test_eta_respecting_rigid_compare(programs):
    solver = Solver(programs["optimized"])
    assert pattern_unify(HLam("x", HApp(HConst("s"), HBound(0))), HConst("s"), solver)


def test_transactional_rollback(programs):
    solver = Solver(programs["optimized"])
    k = HMeta("K", 607, TM, 0)
    bad = happs(HConst("append"), [HConst("nil"), k, HConst("nil")])
    worse = happs(HConst("append"), [HConst("z"), HConst("z"), HConst("z")])
    before = dict(solver.bindings)
    assert not pattern_unify(bad, worse, solver)
    assert solver.bindings == before


# -- naive/optimized equivalence ------------------------------------------------------


def test_optimization_completeness_on_ground_checks(append_sig, programs):
    # success within depth d in naive mode implies success within d optimized
    rng = random.Random(51)
    for _ in range(25):
        l = list_elems(rng, 3)
        k = list_elems(rng, 2)
        ty = make_app(Const("append"), [list_term(l), list_term(k), list_term(l + k)])
        proof = encode_term(append_proof(l, k))
        for d in (8, 16, 64):
            sn = Solver(programs["naive"], Limits(depth=d))
            ok_n = next(sn.solve(inhabitation_goal(append_sig, ty, proof, "naive")), None) is not None
            so = Solver(programs["optimized"], Limits(depth=d))
            ok_o = next(so.solve(inhabitation_goal(append_sig, ty, proof, "optimized")), None) is not None
            if ok_n:
                assert ok_o


def test_check_depth_equivalence_shared_goal(append_sig, programs):
    rng = random.Random(53)
    for q, expect in append_query_corpus(rng, 40):
        goal, _ = translate_query(append_sig, q, "optimized")
        naive_goal, _ = translate_query(append_sig, q, "naive")
        if goal != naive_goal:
            continue  # only base-type queries share the formula
        rep = check_depth_equivalence(
            programs["naive"], programs["optimized"], goal, Limits(depth=48), iterative=True
        )
        assert rep.agree, f"disagreement on {q}"
        if expect is not None:
            assert rep.success_b == expect


# -- traces ------------------------------------------------------------------------------


def test_trace_golden_ground_check(append_sig, programs, golden_dir):
    goal = FAtom(encode_term(parse_expr_text("cons (s z) nil")), HConst("list"))
    solver = Solver(programs["naive"], trace=True)
    sol = next(solver.solve(goal))
    assert "\n".join(sol.trace) + "\n" == (golden_dir / "cons_list_naive.trace").read_text()


def test_trace_golden_example_query(append_sig, programs, golden_dir):
    q, _ = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
    goal, _ = translate_query(append_sig, q, "optimized")
    solver = Solver(programs["optimized"], trace=True)
    sol = next(solver.solve(goal))
    assert "\n".join(sol.trace) + "\n" == (golden_dir / "example_query_optimized.trace").read_text()


def test_trace_alignment_top_events(append_sig, programs):
    # the optimized trace marks each discharged guard so runs can be aligned
    elems = [Const("z")] * 2
    ty = make_app(Const("append"), [list_term(elems), Const("nil"), list_term(elems)])
    goal = inhabitation_goal(append_sig, ty, encode_term(append_proof(elems, [])), "optimized")
    solver = Solver(programs["optimized"], trace=True)
    sol = next(solver.solve(goal))
    bc = [t for t in sol.trace if t.startswith("bc ")]
    tops = [t for t in sol.trace if t == "top"]
    assert len(bc) == 3 and len(tops) == 9


def test_assumption_trace_event(append_sig, programs):
    goal, _ = translate_query(append_sig, parse_expr_text("{x:nat} nat"), "optimized")
    solver = Solver(programs["optimized"], trace=True)
    sol = next(solver.solve(goal))
    assert any(t.startswith("all ") for t in sol.trace)
    assert any(t.startswith("imp+ ") for t in sol.trace)


# -- compiled clauses and head indexing ---------------------------------------------------

# Naive output search `append (cons z (cons z nil)) (cons z nil) Out` with
# iterative deepening, as measured before clauses were compiled and indexed:
# the index must leave the committed steps and the trace, variable names
# included, as they were, and only save unification attempts.
NAIVE_OUT_STEPS = 101
NAIVE_OUT_UNIFY_UNINDEXED = 739
NAIVE_OUT_TRACE = (
    "bc appCons z (cons z nil) (cons z nil) ?M540 ?x541",
    "bc z",
    "bc cons z nil",
    "bc z",
    "bc nil",
    "bc cons z nil",
    "bc z",
    "bc nil",
    "bc cons ?x560 ?x1561",
    "bc z",
    "bc cons ?x635 ?x1636",
    "bc z",
    "bc nil",
    "bc appCons z nil (cons z nil) (cons z nil) ?x646",
    "bc z",
    "bc nil",
    "bc cons z nil",
    "bc z",
    "bc nil",
    "bc cons z nil",
    "bc z",
    "bc nil",
    "bc appNil (cons z nil)",
    "bc cons z nil",
    "bc z",
    "bc nil",
)


def test_index_keeps_steps_and_trace_naive_output_search(append_sig, programs):
    q, _ = parse_query("append (cons z (cons z nil)) (cons z nil) Out", append_sig)
    goal, _ = translate_query(append_sig, q, "naive")
    solver = Solver(programs["naive"], trace=True)
    sol = next(solver.solve(goal, iterative=True))
    assert sol.counters.backchain_steps == NAIVE_OUT_STEPS
    assert sol.counters.unify_calls < NAIVE_OUT_UNIFY_UNINDEXED
    assert sol.trace == NAIVE_OUT_TRACE


# Simply typed lambda terms in higher-order abstract syntax.  Inferring the
# type of `lam base ([x] lam base ([y] y))` proves guards under eigenvariables,
# where the goal's subject is a variable older than the clauses' fresh ones:
# a skipped clause must also use up the ids that pruning them would have
# taken (`?B107111` below).  Trace as measured before indexing.
STLC_TEXT = """\
tp : type.
base : tp.
arr : tp -> tp -> tp.
tm : type.
app : tm -> tm -> tm.
lam : tp -> (tm -> tm) -> tm.
of : tm -> tp -> type.
ofApp : {M:tm} {N:tm} {A:tp} {B:tp} of M (arr A B) -> of N A -> of (app M N) B.
ofLam : {A:tp} {B:tp} {M:tm -> tm} ({x:tm} of x A -> of (M x) B) -> of (lam A M) (arr A B).
"""
HOAS_UNIFY_UNINDEXED = 70
HOAS_TRACE = (
    "bc ofLam base ?B79 (\\x1. lam base (\\x2. x2)) ?x81",
    "top",
    "top",
    "top",
    "all x!11",
    "imp+ hastype x!11 tm",
    "all x2!12",
    "imp+ hastype x2!12 (of x!11 ?A78)",
    "bc ofLam base ?B107111 (\\x1. x1) ?x109113",
    "top",
    "top",
    "top",
    "all x!14",
    "imp+ hastype x!14 tm",
    "all x2!15",
    "imp+ hastype x2!15 (of x!14 ?A106)",
    "bc assumption",
)


def test_index_keeps_variable_names_under_binders():
    sig, _ = checked_signature(parse_signature(STLC_TEXT))
    q, _ = parse_query("of (lam base ([x:tm] lam base ([y:tm] y))) T", sig)
    goal, _ = translate_query(sig, q, "optimized")
    solver = Solver(translate(sig, "optimized"), trace=True)
    sol = next(solver.solve(goal, iterative=True))
    assert sol.counters.backchain_steps == 6
    assert sol.counters.unify_calls < HOAS_UNIFY_UNINDEXED
    assert sol.trace == HOAS_TRACE


def test_eigenvariable_subject_tries_no_static_clause(programs):
    goal = FForall("x", TM, FAtom(HBound(0), HConst("nat")))
    solver = Solver(programs["naive"])
    assert list(solver.solve(goal)) == []
    assert solver.counters.unify_calls == 0


def test_skipped_clauses_still_raise_non_pattern_flag(programs):
    # no clause has family `vec`, but binding `F (s z)` to any clause's
    # subject would have left the pattern fragment
    f = HMeta("F", 701, TM, 0)
    goal = FAtom(HApp(f, HApp(HConst("s"), HConst("z"))), HConst("vec"))
    solver = Solver(programs["naive"])
    assert list(solver.solve(goal)) == []
    assert solver.counters.unify_calls == 0
    assert solver.non_pattern_seen


def test_solvers_share_one_compiled_program(append_sig):
    module_state = dict(vars(hhf_prover))
    program = translate(append_sig, "naive")
    assert program.compiled is None
    first = Solver(program)
    second = Solver(program)
    assert first.static is second.static is program.compiled
    assert len(program.compiled) == len(program)
    assert dict(vars(hhf_prover)) == module_state
    # the compiled clauses live exactly as long as their set
    clause = weakref.ref(program.compiled[0])
    del program, first, second
    gc.collect()
    assert clause() is None
