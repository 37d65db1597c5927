import gc
import random
import time
import tracemalloc
import weakref

import pytest

from lfhh import hhf_prover
from lfhh.cli import _append_check
from lfhh.hhf_logic import (
    FAtom,
    FForall,
    FTop,
    TM,
    encode_term,
    inhabitation_goal,
    open_leaves,
    print_formula,
    translate,
    translate_query,
)
from lfhh.hhf_prover import (
    Limits,
    Solver,
    compile_clause,
    solve,
)
from lfhh.lf_syntax import (
    NO_ANNOT,
    App,
    Bound,
    Const,
    HEigen,
    HMeta,
    Lam,
    make_app,
    parse_expr_text,
    parse_query,
    parse_signature,
)
from lfhh.lf_typecheck import checked_signature

from corpus import APPEND_TEXT, STLC_TEXT, append_proof, append_query_corpus, list_elems, list_term


@pytest.fixture(scope="module")
def programs(append_sig):
    return {m: translate(append_sig, m) for m in ("naive", "optimized")}


# -- basic goals -----------------------------------------------------------------


def test_ground_membership_naive(append_sig, programs):
    goal = FAtom(encode_term(parse_expr_text("cons (s z) nil")), Const("list"))
    sols = list(solve(programs["naive"], goal))
    assert len(sols) == 1
    assert sols[0].counters.backchain_steps == 4


def test_top_goal(programs):
    sols = list(solve(programs["optimized"], FTop()))
    assert len(sols) == 1
    assert sols[0].counters.backchain_steps == 0
    assert sols[0].counters.top_steps == 1


def test_example_query_optimized(append_sig, programs):
    q = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
    goal, proof, metas = translate_query(append_sig, q, "optimized")
    solver = Solver(programs["optimized"])
    sol = next(solver.solve(goal))
    assert sol.value(metas["L"]) == encode_term(parse_expr_text("cons z (cons (s z) nil)"))
    assert sol.value(proof) == encode_term(
        parse_expr_text("appCons z nil (cons (s z) nil) (cons (s z) nil) (appNil (cons (s z) nil))")
    )


def test_example_query_naive_iterative(append_sig, programs):
    q = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
    goal, proof, metas = translate_query(append_sig, q, "naive")
    sol = next(Solver(programs["naive"]).solve(goal, iterative=True))
    assert sol.value(metas["L"]) == encode_term(parse_expr_text("cons z (cons (s z) nil)"))


def test_finite_failure_vs_resource(append_sig, programs):
    q = parse_query("append nil nil (cons z nil)", append_sig)
    goal, _, _ = translate_query(append_sig, q, "optimized")
    solver = Solver(programs["optimized"], Limits(depth=16))
    assert list(solver.solve(goal)) == []
    assert not solver.depth_hit and not solver.budget_hit


def test_depth_exhaustion_flag(append_sig, programs):
    goal = FAtom(encode_term(parse_expr_text("s (s (s (s z)))")), Const("nat"))
    solver = Solver(programs["optimized"], Limits(depth=3))
    assert list(solver.solve(goal)) == []
    assert solver.depth_hit


def test_budget_exhaustion_flag(append_sig, programs):
    q = parse_query("append (cons z nil) nil Out", append_sig)
    goal, _, _ = translate_query(append_sig, q, "naive")
    solver = Solver(programs["naive"], Limits(budget=5))
    assert list(solver.solve(goal)) == []
    assert solver.budget_hit


@pytest.mark.parametrize("mode", ["naive", "optimized"])
def test_each_solve_has_its_whole_budget(append_sig, programs, mode):
    # a search starts from zero counters: repeated on one Solver whose
    # budget one search just fits, each finds the answer, with the same
    # counters
    ty, proof = _append_check([Const("z")] * 4)
    goal = inhabitation_goal(append_sig, ty, encode_term(proof), mode)
    need = next(Solver(programs[mode]).solve(goal)).counters.unify_calls
    solver = Solver(programs[mode], Limits(budget=need))
    runs = [next(solver.solve(goal), None) for _ in range(2)]
    assert None not in runs and not solver.budget_hit
    assert runs[0].counters == runs[1].counters == solver.counters


def test_counters_accessor(programs):
    solver = Solver(programs["optimized"])
    next(solver.solve(FAtom(Const("z"), Const("nat"))))
    snap = solver.counters.copy()
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


@pytest.mark.parametrize("mode, steps, unify_calls", [("naive", 562, 1124), ("optimized", 17, 34)])
def test_ground_check_binds_no_variable(append_sig, programs, mode, steps, unify_calls):
    # `bench`'s ground check at n = 16: every clause binder meets a closed
    # term and is kept in a register, so the store stays empty; when each
    # binder was a variable bound in the store, it held one entry per binder
    ty, proof = _append_check([Const("z")] * 16)
    solver = Solver(programs[mode])
    assert next(solver.solve(inhabitation_goal(append_sig, ty, encode_term(proof), mode)), None) is not None
    assert solver.bindings == {} and solver.trail == []
    assert (solver.counters.backchain_steps, solver.counters.unify_calls) == (steps, unify_calls)


@pytest.mark.parametrize(
    "mode, steps, growth",
    [("naive", lambda n: 2 * n * n + 3 * n + 2, 8), ("optimized", lambda n: n + 1, 2)],
)
def test_ground_check_memory_does_not_grow_with_its_steps(append_sig, programs, cli_limits, mode, steps, growth):
    # the index leaves one clause for every step of the ground check, so no
    # step pushes a choice point and the search keeps no state per step: the
    # peak grows with the goals still open, not with the steps taken (it
    # grew 19x and 3.7x from n = 64 to 256 when every step kept one).  A
    # full collection first empties the interpreter's free lists, whose
    # freed goal tuples would otherwise count as they were left by the tests
    # run before this one
    peaks = []
    for n in (64, 256):
        ty, proof = _append_check([Const("z")] * n)
        goal = inhabitation_goal(append_sig, ty, encode_term(proof), mode)
        solver = Solver(programs[mode], cli_limits(2 * n))
        gc.collect()
        tracemalloc.start()
        try:
            assert next(solver.solve(goal), None) is not None
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert solver.counters.backchain_steps == steps(n)
    assert peaks[1] < growth * peaks[0], peaks


# -- all-solutions enumeration -------------------------------------------------------


def test_enumerates_inhabitants_in_clause_order(append_sig, programs):
    goal, proof, _ = translate_query(append_sig, Const("nat"), "optimized")
    solver = Solver(programs["optimized"], Limits(depth=3))
    got = [sol.value(proof) for sol in solver.solve(goal)]
    assert got[0] == Const("z")
    assert got[1] == App(Const("s"), Const("z"))
    assert len(got) == 3  # one backchain per depth level: z, s z, s (s z)


Z3 = "cons z (cons z (cons z nil))"
SPLITS = [("nil", Z3), ("cons z nil", "cons z (cons z nil)"), ("cons z (cons z nil)", "cons z nil"), (Z3, "nil")]


@pytest.mark.parametrize(
    "mode, iterative, counters",
    [
        ("naive", True, [(47, 0, 95), (66, 0, 133), (90, 0, 181), (115, 0, 231)]),
        ("optimized", False, [(1, 1, 2), (3, 6, 6), (5, 11, 10), (7, 16, 14)]),
    ],
)
def test_enumerates_every_split_resuming_after_each_answer(append_sig, programs, mode, iterative, counters):
    # each answer after the first resumes the search from its choice points
    q = parse_query(f"append L K ({Z3})", append_sig)
    goal, _, metas = translate_query(append_sig, q, mode)
    solver = Solver(programs[mode])
    sols = list(solver.solve(goal, iterative=iterative))
    want = [tuple(encode_term(parse_expr_text(t)) for t in split) for split in SPLITS]
    assert [(sol.value(metas["L"]), sol.value(metas["K"])) for sol in sols] == want
    steps = [(sol.counters.backchain_steps, sol.counters.top_steps, sol.counters.unify_calls) for sol in sols]
    assert steps == counters


def test_dropping_a_deep_search_is_cheap(append_sig, programs, cli_limits):
    # closing the search after its first answer frees a list of choice
    # points; with one suspended generator chain per backchain step it took
    # 0.33 s at n = 3000 on a 2-vCPU host, longer than the search itself.
    # The bound is relative to the search, timed in the same process, so a
    # loaded host slows both sides alike.
    solver = Solver(programs["optimized"], cli_limits(10000))  # deep enough for the goal's terms too
    ty, proof = _append_check([Const("z")] * 3000)
    search = solver.solve(inhabitation_goal(append_sig, ty, encode_term(proof), "optimized"))
    t0 = time.perf_counter()
    assert next(search).counters.backchain_steps == 3001
    searched = time.perf_counter() - t0
    t0 = time.perf_counter()
    search.close()
    assert time.perf_counter() - t0 < searched / 10


# -- dynamic clauses and eigenvariables ----------------------------------------------


def test_hypothetical_goal(append_sig, programs):
    goal, proof, _ = translate_query(append_sig, parse_expr_text("{x:nat} nat"), "optimized")
    sol = next(Solver(programs["optimized"]).solve(goal))
    assert sol.value(proof) == Lam("x", NO_ANNOT, Bound(0))


def test_solution_bindings_are_eigen_free(append_sig, programs):
    goal, proof, _ = translate_query(append_sig, parse_expr_text("{x:nat} nat"), "optimized")
    for sol in Solver(programs["optimized"]).solve(goal):
        assert open_leaves(sol.value(proof), HEigen, []) == []
        break


def test_scope_violation_rejected(programs):
    solver = Solver(programs["optimized"])
    m = HMeta("F", 501, 0)
    e = HEigen("c", 900, 5)
    assert not solver.unify(m, e)  # binding would leak the eigenvariable


# -- pattern unification ----------------------------------------------------------------


def test_first_order_head_unification(programs):
    solver = Solver(programs["optimized"])
    l = HMeta("l", 601, 0)
    k = HMeta("K", 602, 0)
    a = make_app(Const("append"), [Const("nil"), l, l])
    b = make_app(Const("append"), [Const("nil"), encode_term(parse_expr_text("cons z nil")), k])
    assert solver.unify(a, b)
    assert solver.resolve(k) == encode_term(parse_expr_text("cons z nil"))
    assert solver.resolve(l) == solver.resolve(k)


def test_self_unification_noop(programs):
    solver = Solver(programs["optimized"])
    m = HMeta("M", 603, 0)
    assert solver.unify(m, m)
    assert solver.bindings == {}


def test_pattern_inversion(programs):
    solver = Solver(programs["optimized"])
    f = HMeta("F", 604, 0)
    x = HEigen("x", 901, 0)
    y = HEigen("y", 902, 0)
    assert solver.unify(make_app(f, [x, y]), make_app(Const("cons"), [x, y]))
    assert solver.resolve(f) == Lam("w", NO_ANNOT, Lam("w", NO_ANNOT, make_app(Const("cons"), [Bound(1), Bound(0)])))


def test_non_pattern_diagnostic(programs):
    solver = Solver(programs["optimized"])
    f = HMeta("F", 605, 0)
    assert not solver.unify(App(f, App(Const("s"), Const("z"))), Const("z"))
    assert solver.non_pattern_seen


def test_occurs_check(programs):
    solver = Solver(programs["optimized"])
    f = HMeta("F", 606, 0)
    assert not solver.unify(f, App(Const("s"), f))


def test_eta_respecting_rigid_compare(programs):
    solver = Solver(programs["optimized"])
    assert solver.unify(Lam("x", NO_ANNOT, App(Const("s"), Bound(0))), Const("s"))


def test_flex_flex_narrowing(programs):
    # F x y = F x z keeps only the first position: F := \w1 \w2. G w1
    solver = Solver(programs["optimized"])
    f = HMeta("F", 608, 1)
    x, y, z = (HEigen(n, 910 + i, 0) for i, n in enumerate("xyz"))
    assert solver.unify(make_app(f, [x, y]), make_app(f, [x, z]))
    g = solver.resolve(f).body.body.fn
    assert isinstance(g, HMeta) and g.level == 1
    assert solver.resolve(f) == Lam("w", NO_ANNOT, Lam("w", NO_ANNOT, App(g, Bound(1))))
    assert solver.unify(make_app(f, [x, y]), x)
    assert solver.resolve(make_app(f, [y, z])) == y


def test_pruning_drops_an_eigenvariable_out_of_scope(programs):
    # M = c (G e) with e newer than M: G may not use e, so G := \w. G'
    solver = Solver(programs["optimized"])
    m = HMeta("M", 609, 0)
    g = HMeta("G", 610, 1)
    e = HEigen("e", 913, 1)
    assert solver.unify(m, App(Const("c"), App(g, e)))
    narrowed = solver.resolve(App(g, e))
    assert isinstance(narrowed, HMeta) and narrowed.level == 0
    assert solver.resolve(m) == App(Const("c"), narrowed)
    assert not solver.unify(App(g, e), e)


def test_raising_keeps_a_spine_eigenvariable_usable(programs):
    # M e = c G with G as new as e: G := G' e, so G may still be e
    solver = Solver(programs["optimized"])
    m = HMeta("M", 611, 0)
    g = HMeta("G", 612, 1)
    e = HEigen("e", 914, 1)
    assert solver.unify(App(m, e), App(Const("c"), g))
    assert solver.unify(g, e)
    assert solver.resolve(m) == Lam("w", NO_ANNOT, App(Const("c"), Bound(0)))


def test_transactional_rollback(programs):
    solver = Solver(programs["optimized"])
    k = HMeta("K", 607, 0)
    bad = make_app(Const("append"), [Const("nil"), k, Const("nil")])
    worse = make_app(Const("append"), [Const("z"), Const("z"), Const("z")])
    before = dict(solver.bindings)
    assert not solver.unify(bad, worse)
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
        goal, proof, metas = translate_query(append_sig, q, "optimized")
        naive_goal, _, _ = translate_query(append_sig, q, "naive")
        if goal != naive_goal:
            continue  # only base-type queries share the formula
        first_n = next(Solver(programs["naive"], Limits(depth=48)).solve(goal, iterative=True), None)
        first_o = next(Solver(programs["optimized"], Limits(depth=48)).solve(goal, iterative=True), None)
        assert (first_n is None) == (first_o is None), f"disagreement on {q}"
        if first_n is not None:
            assert all(first_n.value(m) == first_o.value(m) for m in (*metas.values(), proof)), f"disagreement on {q}"
        if expect is not None:
            assert (first_o is not None) == expect


# -- traces ------------------------------------------------------------------------------


def test_trace_golden_ground_check(append_sig, programs, golden_dir):
    goal = FAtom(encode_term(parse_expr_text("cons (s z) nil")), Const("list"))
    solver = Solver(programs["naive"], trace=True)
    sol = next(solver.solve(goal))
    assert "\n".join(sol.trace) + "\n" == (golden_dir / "cons_list_naive.trace").read_text()


def test_trace_golden_example_query(append_sig, programs, golden_dir):
    q = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
    goal, _, _ = translate_query(append_sig, q, "optimized")
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
    goal, _, _ = translate_query(append_sig, parse_expr_text("{x:nat} nat"), "optimized")
    solver = Solver(programs["optimized"], trace=True)
    sol = next(solver.solve(goal))
    assert any(t.startswith("all ") for t in sol.trace)
    assert any(t.startswith("imp+ ") for t in sol.trace)


# -- compiled clauses and head indexing ---------------------------------------------------


# Each guard that mentions its own binder is proved just after the last later
# guard that mentions that binder, nested premises included; the others keep
# their order.  Pairs are (scope, printed guard); `#0` is the guard's own
# binder and `#k` the one k places before it.
GUARD_ORDER = {
    ("stlc", "naive", "ofApp"): [
        (5, "hastype #0 (of #4 (arr #2 #1))"),
        (1, "hastype #0 tm"),
        (4, "hastype #0 tp"),
        (6, "hastype #0 (of #4 #3)"),
        (2, "hastype #0 tm"),
        (3, "hastype #0 tp"),
    ],
    ("stlc", "optimized", "ofApp"): [
        (1, "top"),
        (2, "top"),
        (4, "top"),
        (5, "hastype #0 (of #4 (arr #2 #1))"),
        (6, "hastype #0 (of #4 #3)"),
        (3, "hastype #0 tp"),
    ],
    ("stlc", "naive", "ofLam"): [
        (4, "forall x1:tm. hastype x1 tm => (forall x2:tm. hastype x2 (of x1 #5) => hastype (#2 x1 x2) (of (#3 x1) #4))"),
        (1, "hastype #0 tp"),
        (2, "hastype #0 tp"),
        (3, "forall x1:tm. hastype x1 tm => hastype (#1 x1) tm"),
    ],
    ("stlc", "optimized", "ofLam"): [
        (1, "top"),
        (2, "top"),
        (3, "top"),
        (4, "forall x1:tm. hastype x1 tm => (forall x2:tm. hastype x2 (of x1 #5) => hastype (#2 x1 x2) (of (#3 x1) #4))"),
    ],
    ("append", "naive", "appCons"): [
        (1, "hastype #0 nat"),
        (5, "hastype #0 (append #3 #2 #1)"),
        (2, "hastype #0 list"),
        (3, "hastype #0 list"),
        (4, "hastype #0 list"),
    ],
}


@pytest.mark.parametrize("key", GUARD_ORDER, ids=lambda k: "-".join(k))
def test_guards_follow_the_premises_that_fix_their_binders(key):
    text, mode, origin = key
    sig = checked_signature(parse_signature(STLC_TEXT if text == "stlc" else APPEND_TEXT))
    (clause,) = [c for c in translate(sig, mode).clauses if c.origin == origin]
    guards = [(scope, print_formula(g)) for scope, g, _ in compile_clause(clause).guards]
    assert guards == GUARD_ORDER[key]


# Naive output search `append (cons z (cons z nil)) (cons z nil) Out` with
# iterative deepening: the index leaves the committed steps and the trace,
# variable names included, as an unindexed search has them (see
# `test_index_is_transparent`), and only saves unification attempts.
NAIVE_OUT_STEPS = 41
NAIVE_OUT_UNIFY_UNINDEXED = 265
NAIVE_OUT_TRACE = (
    "bc appCons z (cons z nil) (cons z nil) ?M144 ?x145",
    "bc z",
    "bc appCons z nil (cons z nil) ?M153 ?x154",
    "bc z",
    "bc appNil (cons z nil)",
    "bc cons z nil",
    "bc z",
    "bc nil",
    "bc nil",
    "bc cons z nil",
    "bc z",
    "bc nil",
    "bc cons z nil",
    "bc z",
    "bc nil",
    "bc cons z nil",
    "bc z",
    "bc nil",
    "bc cons z nil",
    "bc z",
    "bc nil",
    "bc cons z (cons z nil)",
    "bc z",
    "bc cons z nil",
    "bc z",
    "bc nil",
)


def test_index_keeps_steps_and_trace_naive_output_search(append_sig, programs):
    q = parse_query("append (cons z (cons z nil)) (cons z nil) Out", append_sig)
    goal, _, _ = translate_query(append_sig, q, "naive")
    solver = Solver(programs["naive"], trace=True)
    sol = next(solver.solve(goal, iterative=True))
    assert sol.counters.backchain_steps == NAIVE_OUT_STEPS
    assert sol.counters.unify_calls < NAIVE_OUT_UNIFY_UNINDEXED
    assert sol.trace == NAIVE_OUT_TRACE


# In the simply typed lambda calculus of `STLC_TEXT`, inferring the type of
# `lam base ([x] lam base ([y] y))` proves guards under eigenvariables,
# where the goal's subject is a variable older than the clauses' fresh ones.
# Its classifier is unified first, so a clause skipped on its family would
# have failed before anything was narrowed, and uses up only its binders'
# ids: `?B8184` below is `?B81` narrowed once.
HOAS_UNIFY_UNINDEXED = 41
HOAS_TRACE = (
    "bc ofLam base ?B65 (\\x1. lam base (\\x2. x2)) ?x67",
    "top",
    "top",
    "top",
    "all x!11",
    "imp+ hastype x!11 tm",
    "all x2!12",
    "imp+ hastype x2!12 (of x!11 base)",
    "bc ofLam base ?B8184 (\\x1. x1) (?x8385 x!11 x2!12)",
    "top",
    "top",
    "top",
    "all x!14",
    "imp+ hastype x!14 tm",
    "all x2!15",
    "imp+ hastype x2!15 (of x!14 base)",
    "bc assumption",
)


def test_index_keeps_variable_names_under_binders():
    sig = checked_signature(parse_signature(STLC_TEXT))
    q = parse_query("of (lam base ([x:tm] lam base ([y:tm] y))) T", sig)
    goal, _, _ = translate_query(sig, q, "optimized")
    solver = Solver(translate(sig, "optimized"), trace=True)
    sol = next(solver.solve(goal, iterative=True))
    assert sol.counters.backchain_steps == 6
    assert sol.counters.unify_calls < HOAS_UNIFY_UNINDEXED
    assert sol.trace == HOAS_TRACE


@pytest.mark.parametrize("mode", ["naive", "optimized"])
@pytest.mark.parametrize(
    "text, query",
    [
        (APPEND_TEXT, "append (cons z (cons z nil)) (cons z nil) Out"),
        (STLC_TEXT, "of (lam base ([x:tm] lam base ([y:tm] y))) T"),
        (STLC_TEXT, "of (lam base ([x:tm] lam base ([y:tm] x))) T"),
        (STLC_TEXT, "of (lam (arr base base) ([f:tm] lam base ([x:tm] app f x))) T"),
        (STLC_TEXT, "of (lam base ([y:tm] ([x:tm] lam (arr base base) ([z:tm] x)) y)) T"),
    ],
    ids=["append", "inner", "outer", "apply", "redex"],
)
def test_index_is_transparent(mode, text, query):
    # with every clause tried, the first answer has the same trace, names
    # included, and the same steps as with the index; only unification
    # attempts are saved
    sig = checked_signature(parse_signature(text))
    q = parse_query(query, sig)
    runs = []
    for indexed in (True, False):
        goal, _, _ = translate_query(sig, q, mode)
        solver = Solver(translate(sig, mode), trace=True)
        if not indexed:
            solver._plan = lambda goal, plan=solver._plan: (None, None, plan(goal)[2])
        sol = next(solver.solve(goal, iterative=True))
        runs.append((sol.trace, sol.counters.backchain_steps, sol.counters.unify_calls))
    (trace, steps, calls), (trace_all, steps_all, calls_all) = runs
    assert trace == trace_all and steps == steps_all
    assert calls < calls_all


@pytest.mark.parametrize("mode", ["naive", "optimized"])
def test_sibling_guard_does_not_see_earlier_guard_assumptions(mode):
    # mk's first guard assumes `hastype x r` for a fresh x; its second guard,
    # `hastype M r`, is proved after the first succeeds and must not try that
    # assumption: 5 unifications, where trying it made 7 (its classifier
    # unifies, then its subject `x` is out of M's scope)
    sig = checked_signature(parse_signature("q : type. r : type. s : type. mk : (r -> q) -> r -> s. g : q."))
    goal, _, _ = translate_query(sig, Const("s"), mode)
    solver = Solver(translate(sig, mode))
    assert list(solver.solve(goal)) == []
    assert solver.counters.unify_calls == 5


def test_eigenvariable_subject_tries_no_static_clause(programs):
    goal = FForall("x", TM, FAtom(Bound(0), Const("nat")))
    solver = Solver(programs["naive"])
    assert list(solver.solve(goal)) == []
    assert solver.counters.unify_calls == 0


def test_index_keeps_non_pattern_flag_and_variable_ids(programs):
    # the subject `F (s z)` is not a pattern, and the classifier is unified
    # first: a clause of another family fails on it before the subject is
    # met, so skipping the clause changes neither the flag nor the ids used
    # up; a clause of the goal's family meets the subject and raises the
    # flag either way.  No clause has family `vec`.
    f = HMeta("F", 701, 0)
    for family, flagged in (("vec", False), ("nat", True)):
        runs = []
        for indexed in (True, False):
            goal = FAtom(App(f, App(Const("s"), Const("z"))), Const(family))
            solver = Solver(programs["naive"])
            if not indexed:
                solver._plan = lambda goal, plan=solver._plan: (None, None, plan(goal)[2])
            assert list(solver.solve(goal)) == []
            runs.append((solver.non_pattern_seen, solver._next_meta, solver.counters.unify_calls))
        (flag, ids, calls), (flag_all, ids_all, calls_all) = runs
        assert flag == flag_all == flagged and ids == ids_all
        assert calls < calls_all


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
