"""Acceptance gate: one test per shipped criterion, each printing a verdict
line (run with `pytest tests/test_acceptance.py -v -s`)."""

import random
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lfhh.hhf_logic import (
    FForall,
    FImplies,
    FTop,
    encode_term,
    inhabitation_goal,
    print_clauses,
    translate,
)
from lfhh.hhf_prover import Limits, Solution, Solver, resolve_term
from lfhh.lf_syntax import TYPE, App, Const, Lam, make_app, normalize, parse_expr_text, parse_query, pretty_print
from lfhh.lf_typecheck import KernelError, check_object
from lfhh.reconstruct import QuerySession, certify
from lfhh.rigidity import guard_plan

from corpus import (
    append_proof,
    append_query_corpus,
    list_term,
    random_signature_case,
    substitute,
    substitution_instance,
)

RESULTS: dict[str, object] = {}


@contextmanager
def criterion(n: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_golden_translation(append_sig, golden_dir):
    with criterion(1, "golden translation fidelity"):
        t0 = time.perf_counter()
        naive = translate(append_sig, "naive")
        opt = translate(append_sig, "optimized")
        # bound variables print as x1, x2, ...; with no constant named so,
        # equal texts are equal formulas
        assert not [e.name for e in append_sig if re.fullmatch(r"x\d+", e.name)]
        assert print_clauses(naive) == (golden_dir / "append_naive.hh").read_text(), "simple translation deviates"
        assert print_clauses(opt) == (golden_dir / "append_optimized.hh").read_text(), "optimized translation deviates"
        # guard placement: one truth guard on the base clause, four on the
        # step clause with the recursive premise retained
        tops_per_clause = [_count_top_guards(c.formula) for c in opt]
        assert tops_per_clause == [0, 0, 0, 0, 1, 4]
        assert time.perf_counter() - t0 < 1.0


def _count_top_guards(f):
    match f:
        case FForall(_, _, b):
            return _count_top_guards(b)
        case FImplies(a, b):
            return (1 if isinstance(a, FTop) else 0) + _count_top_guards(b)
        case _:
            return 0


def test_criterion_2_query_reproduction(append_sig):
    with criterion(2, "query reproduction"):
        t0 = time.perf_counter()
        expected_l = parse_expr_text("cons z (cons (s z) nil)")
        answers = {}
        for mode, iterative in (("optimized", False), ("naive", True)):
            q = parse_query("append (cons z nil) (cons (s z) nil) L", append_sig)
            sess = QuerySession(append_sig, q, mode)
            assert list(sess.metas) == ["L"]
            got = sess.first_answer(iterative=iterative)
            assert got is not None, f"{mode}: no solution"
            sol, ans = got
            assert ans.certified, f"{mode}: {ans.reason}"
            bindings = sess.binding_report(ans)
            assert bindings["L"] == expected_l, f"{mode}: L = {pretty_print(bindings['L'])}"
            check_object(append_sig, ans.lf_proof, ans.lf_type)
            answers[mode] = (sol, ans, sess)
        assert answers["naive"][1].lf_proof == answers["optimized"][1].lf_proof
        assert time.perf_counter() - t0 < 1.0
        RESULTS["c2"] = answers


def test_criterion_3_quadratic_vs_linear(append_sig):
    with criterion(3, "quadratic-vs-linear redundancy"):
        t0 = time.perf_counter()
        sizes = [8, 16, 32, 64]
        programs = {m: translate(append_sig, m) for m in ("naive", "optimized")}
        steps = {"naive": [], "optimized": []}
        for n in sizes:
            elems = [Const("z")] * n
            ty = make_app(Const("append"), [list_term(elems), Const("nil"), list_term(elems)])
            proof_lf = append_proof(elems, [])
            check_object(append_sig, proof_lf, ty)  # kernel certifies each bench subject
            proof = encode_term(proof_lf)
            for mode in ("naive", "optimized"):
                solver = Solver(programs[mode])
                goal = inhabitation_goal(append_sig, ty, proof, mode)
                assert next(solver.solve(goal), None) is not None
                steps[mode].append(solver.counters.backchain_steps)
        # exact linear law for the optimized program
        assert steps["optimized"] == [n + 1 for n in sizes], steps["optimized"]
        # quadratic fit for the naive program
        xs = np.array(sizes, dtype=float)
        ys = np.array(steps["naive"], dtype=float)
        coeffs = np.polyfit(xs, ys, 2)
        fitted = np.polyval(coeffs, xs)
        ss_res = float(np.sum((ys - fitted) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot
        assert coeffs[0] > 0, f"leading coefficient {coeffs[0]}"
        assert r2 >= 0.999, f"R^2 = {r2}"
        # doubling ratios
        naive_ratio = steps["naive"][3] / steps["naive"][2]
        opt_ratio = steps["optimized"][3] / steps["optimized"][2]
        assert naive_ratio >= 3.5, naive_ratio
        assert opt_ratio <= 2.1, opt_ratio
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, elapsed
        print(
            f"\n  naive steps {steps['naive']} (R^2={r2:.6f}, a={coeffs[0]:.3f},"
            f" ratio {naive_ratio:.2f}); optimized {steps['optimized']} (ratio {opt_ratio:.2f})"
        )


def _run_both_modes(sig, q, depth):
    out = {}
    for mode in ("naive", "optimized"):
        sess = QuerySession(sig, q, mode, Limits(depth=depth))
        got = sess.first_answer(iterative=True)
        out[mode] = (sess, got)
    return out


def test_criterion_4_equivalence_suite(append_sig):
    with criterion(4, "naive/optimized equivalence"):
        rng = random.Random(2024)
        disagreements = []
        certified_pool = []
        rejections = []
        n_queries = 0
        n_success = 0

        def run_case(sig, q, expect, depth):
            nonlocal n_queries, n_success
            n_queries += 1
            both = _run_both_modes(sig, q, depth)
            got_n, got_o = both["naive"][1], both["optimized"][1]
            if (got_n is None) != (got_o is None):
                disagreements.append(("success", pretty_print(q)))
                return
            if expect is not None and (got_o is not None) != expect:
                disagreements.append(("expectation", pretty_print(q)))
                return
            if got_o is None:
                return
            n_success += 1
            for mode in ("naive", "optimized"):
                sess, (sol, ans) = both[mode][0], both[mode][1]
                if not ans.certified:
                    rejections.append((mode, pretty_print(q), ans.reason))
                    return
            (sol_n, ans_n) = got_n
            (sol_o, ans_o) = got_o
            if ans_n.lf_type != ans_o.lf_type or ans_n.lf_proof != ans_o.lf_proof:
                disagreements.append(("first answer", pretty_print(q)))
                return
            sess_o = both["optimized"][0]
            # the reported bindings are exactly what closed the query type
            assert normalize(substitute(sess_o.query_type, ans_o.bindings), TYPE, sig) == ans_o.lf_type
            certified_pool.append((sess_o, sol_o, ans_o))

        for q, expect in append_query_corpus(rng, 200):
            run_case(append_sig, q, expect, depth=28)
        n_sigs = 0
        while n_sigs < 50:
            sig, queries = random_signature_case(rng)
            n_sigs += 1
            for q, expect in queries:
                run_case(sig, q, expect, depth=20)

        assert disagreements == [], disagreements[:5]
        assert rejections == [], rejections[:5]
        assert n_queries >= 250 and n_sigs >= 50
        assert n_success >= 100  # the corpus is not vacuously unsolvable
        RESULTS["c4_pool"] = certified_pool
        RESULTS["c4_rejections"] = rejections
        print(f"\n  {n_queries} queries over append/nat + {n_sigs} random signatures,"
              f" {n_success} solvable, 0 disagreements")


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


def test_criterion_5_soundness_oracle(append_sig):
    with criterion(5, "soundness oracle and mutation check"):
        # every certified answer gathered by criteria 2 and 4 already passed
        # the kernel; re-assert and then corrupt bindings
        assert RESULTS.get("c4_rejections") == [], "criterion 4 recorded rejections"
        pool = list(RESULTS.get("c4_pool", []))
        assert pool, "criterion 4 must run first"
        for sess, sol, ans in pool:
            assert ans.certified
        mutated = 0
        rng = random.Random(99)
        swaps = [("z", "nil"), ("nil", "z"), ("s", "cons"), ("cons", "s"), ("b0", "good")]
        for sess, sol, ans in pool:
            if mutated >= 25:
                break
            term = resolve_term(sol.bindings, sess.proof_meta)
            for a, b in rng.sample(swaps, len(swaps)):
                corrupted = _swap_const(term, a, b)
                if corrupted != term:
                    bad = dict(sol.bindings)
                    bad[sess.proof_meta.id] = corrupted
                    verdict = certify(sess, Solution(bad, sol.counters, ()))
                    assert verdict.status == "rejected", (
                        f"corruption {a}->{b} on {pretty_print(sess.query_type)} slipped through"
                    )
                    mutated += 1
                    break
        assert mutated >= 20, f"only {mutated} mutations exercised"
        print(f"\n  {len(pool)} certified answers re-checked, {mutated} corrupted bindings all rejected")


def test_criterion_6_rigidity_negative_control(remark_sig):
    with criterion(6, "rigidity negative control"):
        # static analysis: the binder occurring as (t z) stays guarded
        assert guard_plan(remark_sig, "mk").binders == (("t", False),)
        from lfhh.cli import main as cli_main
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli_main(["analyze", "tests/golden/remark.lf"]) == 0
        assert "mk: t=guarded" in buf.getvalue()

        # the optimized clause keeps a real guard (no truth replacement)
        (clause,) = [c.formula for c in translate(remark_sig, "optimized") if c.origin == "mk"]
        match clause:
            case FForall(_, _, FImplies(guard, _)):
                assert not isinstance(guard, FTop)
                assert isinstance(guard, FForall)
            case _:
                pytest.fail(f"unexpected clause shape: {clause}")

        # a hand-built ill-typed candidate is refused by the kernel and by
        # search in both modes; the well-typed variant is accepted everywhere
        target = parse_expr_text("chk (num_n z)")
        bad = parse_expr_text("mk ([x:nat] num_n x)")
        good = parse_expr_text("mk ([x:nat] num_n z)")
        with pytest.raises(KernelError):
            check_object(remark_sig, bad, target)
        check_object(remark_sig, good, target)
        for mode in ("naive", "optimized"):
            program = translate(remark_sig, mode)
            bad_goal = inhabitation_goal(remark_sig, target, encode_term(bad), mode)
            solver = Solver(program, Limits(depth=64))
            assert next(solver.solve(bad_goal), None) is None, f"{mode} accepted ill-typed term"
            good_goal = inhabitation_goal(remark_sig, target, encode_term(good), mode)
            solver2 = Solver(program, Limits(depth=64))
            assert next(solver2.solve(good_goal), None) is not None, f"{mode} refused well-typed term"


def test_criterion_7_substitution_lemma(append_sig):
    with criterion(7, "kernel substitution lemma"):
        from lfhh.lf_syntax import beta_normalize

        t0 = time.perf_counter()
        rng = random.Random(500)
        failures = 0
        for _ in range(500):
            extended, x, b, n, m, a = substitution_instance(rng, append_sig)
            check_object(extended, m, a)
            check_object(append_sig, n, b)
            try:
                check_object(
                    append_sig,
                    beta_normalize(substitute(m, {x: n})),
                    beta_normalize(substitute(a, {x: n})),
                )
            except KernelError:
                failures += 1
        elapsed = time.perf_counter() - t0
        assert failures == 0
        assert elapsed < 5.0, elapsed
        print(f"\n  500 substitution instances, 0 failures, {elapsed:.2f}s")
