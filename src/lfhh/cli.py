"""Command-line front end: check, analyze, translate, solve, bench, compare.

Exit codes are a stable contract: 0 success, 1 input error or definitive
failure (no inhabitant), 2 resource exhaustion (depth or budget, in `solve`,
`compare` and `bench`, or input nested too deeply for the interpreter
stack), 3 internal invariant violation (a solver answer was not certified:
residual closing, decoding or the kernel rejected it; or a `bench` query
failed within its limits).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
import time

from . import hhf_prover
from .hhf_logic import encode_term, inhabitation_goal, print_clauses, translate
from .hhf_prover import Limits, Solver
from .lf_syntax import App, Const, LfError, LfExpr, Meta, Signature, make_app, parse_query, parse_signature, pretty_print
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


def _load_signature(path: str) -> Signature:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    raw = parse_signature(text)
    return checked_signature(raw)


def _load_query(args) -> tuple[Signature, LfExpr]:
    """The checked signature of `args.file` and `args.query` parsed against
    it; the `QuerySession` normalizes the query."""
    sig = _load_signature(args.file)
    goal_type, _ = parse_query(args.query, sig)
    return sig, goal_type


def _limits(args) -> Limits:
    """The search limits of `args`.  Commands call this once their input is
    parsed, and it raises the recursion limit with the depth: search keeps
    its goals on lists, but encoding, resolving, decoding and kernel-checking
    an answer recurse on term depth, which grows with the search depth.
    `main` puts back the limit it found."""
    if args.depth < 1:
        raise LfError("--depth must be at least 1")
    if args.budget < 1:
        raise LfError("--budget must be at least 1")
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 1000 + 16 * args.depth))
    return Limits(depth=args.depth, budget=args.budget)


def cmd_check(args) -> int:
    sig = _load_signature(args.file)
    print(f"ok ({len(sig)} declarations)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    sig = _load_signature(args.file)
    for entry in sig:
        if entry.sort != "type":
            continue
        plan = guard_plan(sig, entry.name)
        cells = ", ".join(f"{n}={'rigid' if r else 'guarded'}" for n, r in plan.binders)
        print(f"{entry.name}: {cells}")
    return EXIT_OK


def cmd_translate(args) -> int:
    sig = _load_signature(args.file)
    sys.stdout.write(print_clauses(translate(sig, args.mode)))
    return EXIT_OK


def _print_answer(sess: QuerySession, sol, answer) -> None:
    for name, value in sess.binding_report(answer).items():
        print(f"{name} = {pretty_print(value)}")
    print(f"proof = {pretty_print(answer.lf_proof)}")
    print(f"type = {pretty_print(answer.lf_type)}")
    print(f"certified (kernel derivation size {answer.kernel_derivation.size})")
    c = sol.counters
    print(f"counters: backchain_steps={c.backchain_steps} top_steps={c.top_steps} unify_calls={c.unify_calls}")


def cmd_solve(args) -> int:
    sig, goal_type = _load_query(args)
    sess = QuerySession(sig, goal_type, args.mode, _limits(args), trace=args.trace)
    found = False
    for sol, answer in sess.answers(iterative=args.iterdeep):
        if not answer.certified:
            print(f"internal error: a solver answer was not certified: {answer.reason}", file=sys.stderr)
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
    if (code := _exhausted(sess.solver, args)) is not None:
        return code
    print(f"no solution within depth {args.depth} (search space exhausted)")
    if sess.solver.non_pattern_seen:
        print("note: a unification problem left the pattern fragment on a failed branch", file=sys.stderr)
    return EXIT_INPUT


def _exhausted(solver: Solver, args) -> int | None:
    """When a search that found nothing hit the budget or the depth bound,
    say which and return the resource exit code; otherwise None."""
    if solver.budget_hit:
        print(f"no solution: unification budget ({args.budget}) exceeded")
        return EXIT_RESOURCE
    if solver.depth_hit:
        print(f"no solution within depth {args.depth}")
        return EXIT_RESOURCE
    return None


def _append_check(elems: list[LfExpr]) -> tuple[LfExpr, LfExpr]:
    """The type `append L nil L` for the list L of `elems`, and its proof.
    Each suffix list of L is built once and shared by the type and by every
    step of the proof that mentions it, so both have O(n) distinct nodes."""
    nil = Const("nil")
    suffix = nil  # the list of elems[i:], for i from n down to 0
    proof: LfExpr = App(Const("appNil"), nil)
    for x in reversed(elems):
        proof = make_app(Const("appCons"), [x, suffix, nil, suffix, proof])
        suffix = make_app(Const("cons"), [x, suffix])
    return make_app(Const("append"), [suffix, nil, suffix]), proof


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
        if any(n < 0 for n in sizes):
            raise ValueError
    except ValueError:
        print(f"error: bad --sizes {args.sizes!r}", file=sys.stderr)
        return EXIT_INPUT
    limits = _limits(args)
    sig = checked_signature(parse_signature(APPEND_SIGNATURE))
    modes = ["naive", "optimized"] if args.mode == "both" else [args.mode]
    programs = {m: translate(sig, m) for m in modes}
    rows: list[tuple[int, str, int, int, int]] = []
    for n in sizes:
        ty, proof = _append_check([Const("z")] * n)
        for mode in modes:
            if args.search:
                open_ty = App(ty.fn, Meta("Out"))  # append L nil Out
                sess = QuerySession(sig, open_ty, mode, limits, program=programs[mode])
                solver, goal = sess.solver, sess.goal
            else:
                solver = Solver(programs[mode], limits)
                goal = inhabitation_goal(sig, ty, encode_term(proof), mode)
            t0 = time.perf_counter_ns()
            ok = next(solver.solve(goal), None) is not None
            wall = time.perf_counter_ns() - t0
            if not ok:
                if (code := _exhausted(solver, args)) is not None:
                    return code
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
    sig, goal_type = _load_query(args)
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
            print(f"internal error: the {mode} answer was not certified: {ans.reason}", file=sys.stderr)
            return EXIT_INTERNAL
    same_type = ans_n.lf_type == ans_o.lf_type
    same_proof = ans_n.lf_proof == ans_o.lf_proof
    print(f"certified: both | type agreement: {same_type} | proof agreement: {same_proof}")
    if sess_n.goal == sess_o.goal:
        agree = all(sol_n.value(m) == sol_o.value(m) for m in (*sess_o.metas.values(), sess_o.proof_meta))
        print(
            f"shared-goal run: naive steps={sol_n.counters.backchain_steps}"
            f" optimized steps={sol_o.counters.backchain_steps}"
            f" bindings agree: {agree}"
        )
    if not (same_type and same_proof):
        print("DISAGREEMENT: first answers differ")
        return EXIT_INTERNAL
    print(f"type = {pretty_print(ans_o.lf_type)}")
    print(f"proof = {pretty_print(ans_o.lf_proof)}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and each call gets a fresh namespace."""
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
    sp.add_argument(
        "--iterdeep",
        action="store_true",
        help="iterative deepening on the depth bound; with --all, the answers of the first bound that has any",
    )
    add_limits(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("bench", help="count inference steps on generated queries")
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
    # `_limits` raises the recursion limit for the whole process; putting
    # back the one found here keeps a call's verdict on deep input from
    # depending on the calls made before it in the same process
    limit = sys.getrecursionlimit()
    try:
        return args.fn(args)
    except (KernelError, LfError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_RESOURCE
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    sys.exit(main())
