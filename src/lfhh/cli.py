"""Command-line front end: check, analyze, translate, solve, bench, compare.

Exit codes are a stable contract: 0 success, 1 input error or definitive
failure (no inhabitant), 2 resource exhaustion (depth or budget), 3 internal
invariant violation (the kernel rejected a solver answer).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time

from . import hhf_prover, lf_syntax
from .hhf_logic import encode_term, inhabitation_goal, print_clauses, translate
from .hhf_prover import Limits, Solver, check_depth_equivalence
from .lf_syntax import App, Const, LfError, LfExpr, Meta, make_app, parse_query, parse_signature, pretty_print
from .lf_typecheck import KernelError, checked_signature
from .reconstruct import QuerySession
from .rigidity import guard_plan

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOURCE = 2
EXIT_INTERNAL = 3

# The running example used by `bench`: naturals, lists, and list concatenation
# as a three-place relation with one clause per list constructor.
APPEND_SIGNATURE = """\
nat : type.
z : nat.
s : nat -> nat.
list : type.
nil : list.
cons : nat -> list -> list.
append : list -> list -> list -> type.
appNil : {K:list} append nil K K.
appCons : {X:nat} {L:list} {K:list} {M:list} (append L K M) -> (append (cons X L) K (cons X M)).
"""


def _load_signature(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    raw = parse_signature(text)
    return checked_signature(raw)


def _limits(args) -> Limits:
    if args.depth < 1:
        raise LfError("--depth must be at least 1")
    if args.budget < 1:
        raise LfError("--budget must be at least 1")
    return Limits(depth=args.depth, budget=args.budget)


def cmd_check(args) -> int:
    try:
        sig, _ = _load_signature(args.file)
    except (LfError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    print(f"ok ({len(sig)} declarations)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        sig, _ = _load_signature(args.file)
    except (LfError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    for entry in sig:
        if entry.sort != "type":
            continue
        plan = guard_plan(sig, entry.name)
        cells = ", ".join(f"{n}={'rigid' if r else 'guarded'}" for n, r in plan.binders)
        print(f"{entry.name}: {cells}")
    return EXIT_OK


def cmd_translate(args) -> int:
    try:
        sig, _ = _load_signature(args.file)
    except (LfError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(print_clauses(translate(sig, args.mode)))
    return EXIT_OK


def _print_answer(sess: QuerySession, sol, answer) -> None:
    for name, value in sess.binding_report(sol, answer).items():
        print(f"{name} = {pretty_print(value)}")
    print(f"proof = {pretty_print(answer.lf_proof)}")
    print(f"type = {pretty_print(answer.lf_type)}")
    print(f"certified (kernel derivation size {answer.kernel_derivation.size})")
    c = sol.counters
    print(f"counters: backchain_steps={c.backchain_steps} top_steps={c.top_steps} unify_calls={c.unify_calls}")


def cmd_solve(args) -> int:
    try:
        sig, _ = _load_signature(args.file)
        goal_type, _metas = parse_query(args.query, sig)
        goal_type = lf_syntax.normalize(goal_type, lf_syntax.TYPE, sig)
    except (LfError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    sess = QuerySession(sig, goal_type, args.mode, _limits(args), trace=args.trace)
    found = False
    for sol, answer in sess.answers(iterative=args.iterdeep):
        if not answer.certified:
            print(f"internal error: kernel rejected a solver answer: {answer.reason}", file=sys.stderr)
            return EXIT_INTERNAL
        if found:
            print("---")
        _print_answer(sess, sol, answer)
        if args.trace:
            for line in sol.trace:
                print(f"# {line}")
        found = True
        if not args.all:
            break
    if found:
        return EXIT_OK
    if sess.solver.budget_hit:
        print(f"no solution: unification budget ({args.budget}) exceeded")
        return EXIT_RESOURCE
    if sess.solver.depth_hit:
        print(f"no solution within depth {args.depth}")
        return EXIT_RESOURCE
    print(f"no solution within depth {args.depth} (search space exhausted)")
    if sess.solver.non_pattern_seen:
        print("note: a unification problem left the pattern fragment on a failed branch", file=sys.stderr)
    return EXIT_INPUT


def _list_of(elems: list[LfExpr]) -> LfExpr:
    e: LfExpr = Const("nil")
    for x in reversed(elems):
        e = make_app(Const("cons"), [x, e])
    return e


def _append_proof(l: list[LfExpr], k: list[LfExpr]) -> LfExpr:
    if not l:
        return App(Const("appNil"), _list_of(k))
    return make_app(
        Const("appCons"),
        [l[0], _list_of(l[1:]), _list_of(k), _list_of(l[1:] + k), _append_proof(l[1:], k)],
    )


def cmd_bench(args) -> int:
    if args.family != "append":
        print(f"error: unknown bench family {args.family!r}", file=sys.stderr)
        return EXIT_INPUT
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        print(f"error: bad --sizes {args.sizes!r}", file=sys.stderr)
        return EXIT_INPUT
    sig, _ = checked_signature(parse_signature(APPEND_SIGNATURE))
    modes = ["naive", "optimized"] if args.mode == "both" else [args.mode]
    programs = {m: translate(sig, m) for m in modes}
    rows: list[tuple[int, str, int, int, int]] = []
    for n in sizes:
        elems = [Const("z")] * n
        ty = make_app(Const("append"), [_list_of(elems), Const("nil"), _list_of(elems)])
        for mode in modes:
            solver = Solver(programs[mode], _limits(args))
            if args.search:
                open_ty = make_app(Const("append"), [_list_of(elems), Const("nil"), Meta("Out")])
                sess = QuerySession(sig, open_ty, mode, _limits(args), program=programs[mode])
                solver = sess.solver
                t0 = time.perf_counter_ns()
                got = next(solver.solve(sess.goal), None)
                wall = time.perf_counter_ns() - t0
                ok = got is not None
            else:
                goal = inhabitation_goal(sig, ty, encode_term(_append_proof(elems, [])), mode)
                t0 = time.perf_counter_ns()
                got = next(solver.solve(goal), None)
                wall = time.perf_counter_ns() - t0
                ok = got is not None
            if not ok:
                print(f"error: bench query n={n} mode={mode} failed", file=sys.stderr)
                return EXIT_INTERNAL
            rows.append((n, mode, solver.counters.backchain_steps, solver.counters.unify_calls, wall))
    if args.format == "csv":
        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(["n", "mode", "backchain_steps", "unify_calls", "wall_ns"])
        w.writerows(rows)
        sys.stdout.write(out.getvalue())
    else:
        print(f"{'n':>6} {'mode':>10} {'backchain':>10} {'unify':>10} {'wall_ns':>12}")
        for n, mode, bc, uc, wall in rows:
            print(f"{n:>6} {mode:>10} {bc:>10} {uc:>10} {wall:>12}")
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        sig, _ = _load_signature(args.file)
        goal_type, _ = parse_query(args.query, sig)
        goal_type = lf_syntax.normalize(goal_type, lf_syntax.TYPE, sig)
    except (LfError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    limits = _limits(args)
    sess_n = QuerySession(sig, goal_type, "naive", limits)
    sess_o = QuerySession(sig, goal_type, "optimized", limits)
    res_n = sess_n.first_answer(iterative=True)
    res_o = sess_o.first_answer(iterative=True)
    ok_n = res_n is not None
    ok_o = res_o is not None
    print(f"naive: {'solution' if ok_n else 'no solution'}")
    print(f"optimized: {'solution' if ok_o else 'no solution'}")
    if ok_n != ok_o:
        print("DISAGREEMENT: success differs between modes")
        return EXIT_INTERNAL
    if not ok_n:
        exhausted = sess_n.solver.depth_hit or sess_n.solver.budget_hit or sess_o.solver.depth_hit or sess_o.solver.budget_hit
        print("agreement: both modes fail" + (" (resource limited)" if exhausted else " (finitely)"))
        return EXIT_RESOURCE if exhausted else EXIT_OK
    sol_n, ans_n = res_n
    sol_o, ans_o = res_o
    for mode, ans in (("naive", ans_n), ("optimized", ans_o)):
        if not ans.certified:
            print(f"internal error: {mode} answer rejected by kernel: {ans.reason}", file=sys.stderr)
            return EXIT_INTERNAL
    same_type = ans_n.lf_type == ans_o.lf_type
    same_proof = ans_n.lf_proof == ans_o.lf_proof
    print(f"certified: both | type agreement: {same_type} | proof agreement: {same_proof}")
    if sess_n.goal == sess_o.goal:
        rep = check_depth_equivalence(sess_n.program, sess_o.program, sess_o.goal, limits, iterative=True)
        print(
            f"shared-goal run: naive steps={rep.counters_a.backchain_steps}"
            f" optimized steps={rep.counters_b.backchain_steps}"
            f" bindings agree: {rep.bindings_agree}"
        )
    if not (same_type and same_proof):
        print("DISAGREEMENT: first answers differ")
        return EXIT_INTERNAL
    print(f"type = {pretty_print(ans_o.lf_type)}")
    print(f"proof = {pretty_print(ans_o.lf_proof)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lfhh", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_limits(sp):
        sp.add_argument("--depth", type=int, default=hhf_prover.DEFAULT_DEPTH, help="backchain depth limit")
        sp.add_argument("--budget", type=int, default=hhf_prover.DEFAULT_BUDGET, help="unification call budget")

    sp = sub.add_parser("check", help="type-check a signature file")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("analyze", help="report per-binder rigidity")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("translate", help="emit clauses for a signature")
    sp.add_argument("file")
    sp.add_argument("--mode", choices=["naive", "optimized"], required=True)
    sp.set_defaults(fn=cmd_translate)

    sp = sub.add_parser("solve", help="run an inhabitation query")
    sp.add_argument("file")
    sp.add_argument("query")
    sp.add_argument("--mode", choices=["naive", "optimized"], default="optimized")
    sp.add_argument("--all", action="store_true", help="enumerate all answers")
    sp.add_argument("--trace", action="store_true", help="print the search trace")
    sp.add_argument("--iterdeep", action="store_true", help="iterative deepening on the depth bound")
    add_limits(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("bench", help="count inference steps on generated queries")
    sp.add_argument("--family", default="append")
    sp.add_argument("--sizes", default="8,16,32,64")
    sp.add_argument("--mode", choices=["naive", "optimized", "both"], default="both")
    sp.add_argument("--format", choices=["csv", "text"], default="csv")
    sp.add_argument("--search", action="store_true", help="leave the output list as a meta-variable")
    add_limits(sp)
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("compare", help="run a query in both modes and diff the answers")
    sp.add_argument("file")
    sp.add_argument("query")
    add_limits(sp)
    sp.set_defaults(fn=cmd_compare)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KernelError, LfError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
