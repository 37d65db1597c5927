import csv
import gc
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

import lfhh
from lfhh.cli import build_parser, main
from lfhh.lf_syntax import Const, parse_signature, pretty_print
from lfhh.lf_typecheck import checked_signature
from lfhh.reconstruct import QuerySession

from corpus import (
    RIGID_GUARD_TEXT,
    STLC_BLOCK,
    STLC_TEXT,
    append_query_corpus,
    append_signature,
    church_numeral,
    random_stlc_query,
)


APPEND_LF = str(pathlib.Path(__file__).parent / "golden" / "append.lf")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def append_lf():
    return APPEND_LF


@pytest.fixture(scope="module")
def remark_lf(golden_dir):
    return str(golden_dir / "remark.lf")


# -- check ------------------------------------------------------------------------


def test_check_ok(append_lf):
    code, out, _ = run_cli("check", append_lf)
    assert code == 0 and out.strip() == "ok (9 declarations)"


def test_check_empty(tmp_path):
    f = tmp_path / "empty.lf"
    f.write_text("")
    code, out, _ = run_cli("check", str(f))
    assert code == 0 and out.strip() == "ok (0 declarations)"


def test_check_unbound(tmp_path):
    f = tmp_path / "bad.lf"
    f.write_text("c : d.\n")
    code, out, err = run_cli("check", str(f))
    assert code == 1
    assert "unbound constant 'd'" in err


def test_kernel_error_names_binders_apart_from_undeclared_constants(tmp_path):
    # the binder `y` is named apart from the declared `y` and from the
    # undeclared constant `y1` of the subject
    f = tmp_path / "bad.lf"
    f.write_text("a : type. y : a. f : (a -> a) -> type. d : f ([y:a] y1).\n")
    code, out, err = run_cli("check", str(f))
    assert code == 1 and out == ""
    assert err == "error: argument 1 of 'f': unbound constant 'y1' [BackchainObj] at a,y,f,y2 |- y1 : a\n"




def test_check_of_3000_declarations_scales(tmp_path):
    # every binder the kernel crossed used to copy the whole signature:
    # about 6 s on a 2-vCPU host
    f = tmp_path / "stlc3000.lf"
    f.write_text("".join(STLC_BLOCK.replace("{t}", f"_{i}") for i in range(200)))
    t0 = time.perf_counter()
    code, out, _ = run_cli("check", str(f))
    elapsed = time.perf_counter() - t0
    assert code == 0 and out == "ok (3000 declarations)\n"
    assert elapsed < 3.0


def test_check_missing_file(tmp_path):
    missing = tmp_path / "missing.lf"
    code, out, err = run_cli("check", str(missing))
    assert code == 1 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"


def test_check_syntax_error_location(tmp_path):
    f = tmp_path / "syn.lf"
    f.write_text("a : type\nb : type.\n")
    code, _, err = run_cli("check", str(f))
    assert code == 1 and "2:" in err


# -- analyze -----------------------------------------------------------------------


def test_analyze_append(append_lf):
    code, out, _ = run_cli("analyze", append_lf)
    assert code == 0
    lines = dict(l.split(":", 1) for l in out.strip().splitlines())
    assert lines["appNil"].strip() == "K=rigid"
    assert lines["s"].strip() == "arg1=guarded"
    assert lines["appCons"].strip() == "X=rigid, L=rigid, K=rigid, M=rigid, arg5=guarded"


def test_analyze_remark_non_rigid(remark_lf):
    code, out, _ = run_cli("analyze", remark_lf)
    assert code == 0
    assert "mk: t=guarded" in out
    assert "num_n: n=rigid" in out


# -- translate ---------------------------------------------------------------------


def test_translate_golden(append_lf, golden_dir):
    code, out, _ = run_cli("translate", append_lf, "--mode", "naive")
    assert code == 0 and out == (golden_dir / "append_naive.hh").read_text()
    code, out, _ = run_cli("translate", append_lf, "--mode", "optimized")
    assert code == 0 and out == (golden_dir / "append_optimized.hh").read_text()


def test_translate_empty(tmp_path):
    f = tmp_path / "empty.lf"
    f.write_text("")
    code, out, _ = run_cli("translate", str(f), "--mode", "naive")
    assert code == 0 and out == ""


# -- solve -------------------------------------------------------------------------


def test_solve_example_query(append_lf):
    code, out, _ = run_cli("solve", append_lf, "append (cons z nil) (cons (s z) nil) L")
    assert code == 0
    assert "L = cons z (cons (s z) nil)" in out
    assert "certified" in out


def test_solve_naive_iterdeep(append_lf):
    code, out, _ = run_cli(
        "solve", append_lf, "append (cons z nil) (cons (s z) nil) L", "--mode", "naive", "--iterdeep"
    )
    assert code == 0 and "L = cons z (cons (s z) nil)" in out


def test_solve_first_inhabitant(append_lf):
    code, out, _ = run_cli("solve", append_lf, "nat")
    assert code == 0 and "proof = z" in out


def test_solve_no_solution(append_lf):
    code, out, _ = run_cli("solve", append_lf, "append nil nil (cons z nil)", "--depth", "16")
    assert code == 1
    assert "no solution within depth 16" in out


def test_solve_resource_exhaustion(append_lf):
    code, out, _ = run_cli(
        "solve", append_lf, "append (cons z nil) (cons (s z) nil) L", "--depth", "1"
    )
    assert code == 2 and "no solution" in out


def test_solve_all_enumerates(append_lf):
    code, out, _ = run_cli("solve", append_lf, "nat", "--all", "--depth", "2")
    assert code == 0
    assert out.count("proof =") == 2  # z and s z within depth 2


def test_solve_trace(append_lf):
    code, out, _ = run_cli("solve", append_lf, "list", "--trace")
    assert code == 0 and "# bc nil" in out


def test_iterdeep_trace_keeps_only_the_answer_round(append_lf):
    # the round at depth 1 fails: its events are dropped, while eigenvariable
    # ids keep counting, so the answer's round introduces x!2
    code, out, _ = run_cli(
        "solve", append_lf, "nat -> append nil nil nil", "--iterdeep", "--trace", "--mode", "naive"
    )
    assert code == 0
    trace = [line for line in out.splitlines() if line.startswith("# ")]
    assert trace == ["# all x!2", "# imp+ hastype x!2 nat", "# bc appNil nil", "# bc nil"]
    assert "counters: backchain_steps=3 top_steps=0 unify_calls=10" in out


def test_solve_bad_depth(append_lf):
    code, _, err = run_cli("solve", append_lf, "nat", "--depth", "0")
    assert code == 1 and "--depth" in err


# -- bench --------------------------------------------------------------------------


def test_bench_csv_counters():
    code, out, _ = run_cli("bench", "--sizes", "0,4", "--format", "csv")
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()]
    assert rows[0] == ["n", "mode", "backchain_steps", "unify_calls", "wall_ns"]
    table = {(r[0], r[1]): int(r[2]) for r in rows[1:]}
    assert table[("4", "optimized")] == 5
    assert table[("0", "optimized")] == 1
    assert table[("0", "naive")] >= 1
    for n in ("4",):
        assert table[(n, "naive")] > table[(n, "optimized")]


def test_bench_naive_strictly_exceeds_optimized():
    code, out, _ = run_cli("bench", "--sizes", "1,2,3,4,5")
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    table = {(r[0], r[1]): int(r[2]) for r in rows}
    for n in ("1", "2", "3", "4", "5"):
        assert table[(n, "naive")] > table[(n, "optimized")]


@pytest.mark.parametrize("sizes", ["-3,2", "2,-1", "4,x"])
def test_bench_bad_sizes_are_an_input_error(sizes):
    assert run_cli("bench", f"--sizes={sizes}") == (1, "", f"error: bad --sizes {sizes!r}\n")


@pytest.mark.parametrize("sizes", ["", "2"])
@pytest.mark.parametrize("flag", ["--depth", "--budget"])
def test_bench_bad_limits_are_an_input_error(sizes, flag):
    # the limits are checked before the first row, so an empty size list
    # does not turn a bad limit into a header-only success
    assert run_cli("bench", f"--sizes={sizes}", flag, "0") == (1, "", f"error: {flag} must be at least 1\n")


def test_bench_text_format():
    code, out, _ = run_cli("bench", "--sizes", "2", "--format", "text", "--mode", "optimized")
    assert code == 0 and "optimized" in out and "backchain" in out


@pytest.mark.parametrize("n", [256, 2048])
def test_bench_optimized_ground_check_scales(n):
    # the optimized check binds each variable to a ground term in O(1);
    # rebuilding the bound term on every bind made n=256 take about two
    # minutes on a 2-vCPU host, and unifying a shared list with itself node
    # by node made n=2048 take about 53 s
    t0 = time.perf_counter()
    code, out, _ = run_cli("bench", "--sizes", str(n), "--mode", "optimized", "--format", "csv", "--depth", "10000")
    elapsed = time.perf_counter() - t0
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["n"], r["mode"], r["backchain_steps"]) for r in rows] == [(str(n), "optimized", str(n + 1))]
    assert elapsed < 10.0


@pytest.mark.parametrize(
    "limit, message",
    [
        (("--mode", "optimized", "--depth", "10"), "no solution within depth 10\n"),
        (("--mode", "naive", "--budget", "50"), "no solution: unification budget (50) exceeded\n"),
        (("solve", APPEND_LF, "append L nil (cons z (cons z nil))", "--depth", "2"), "no solution within depth 2\n"),
        (("solve", APPEND_LF, "append L K (cons z nil)", "--mode", "naive", "--budget", "3"),
         "no solution: unification budget (3) exceeded\n"),
    ],
)
def test_bench_resource_limit_exits_2(limit, message):
    # a search that hits the depth or budget limit is resource exhaustion,
    # in `bench` (a row of 16 elements) as in `solve`, not an internal error
    argv = limit if limit[0] == "solve" else ("bench", "--sizes", "16", *limit)
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == message
    assert err == ""


def test_bench_search_variant():
    code, out, _ = run_cli("bench", "--sizes", "2,4", "--search", "--mode", "optimized")
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    # search instantiates the output list: same backchain law holds
    assert int(rows[0][2]) == 3 and int(rows[1][2]) == 5


def test_certified_solve_of_128_element_append_scales(append_lf):
    # the kernel and the decoder used to walk every argument again after
    # each binder they crossed: about 4 s on a 2-vCPU host
    elems = [i % 3 for i in range(128)]
    spelled = "nil"
    for x in reversed(elems):
        spelled = f"(cons {'(s ' * x}z{')' * x} {spelled})"
    t0 = time.perf_counter()
    code, out, _ = run_cli("solve", append_lf, f"append {spelled} nil Out")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert f"Out = {spelled[1:-1]}\n" in out
    assert "certified (kernel derivation size " in out
    assert "backchain_steps=129 " in out
    assert elapsed < 3.0


# -- compare ------------------------------------------------------------------------


def test_compare_agreement(append_lf):
    code, out, _ = run_cli("compare", append_lf, "append (cons z nil) (cons (s z) nil) L")
    assert code == 0
    assert "type agreement: True" in out and "proof agreement: True" in out


def test_compare_both_fail(append_lf):
    code, out, _ = run_cli("compare", append_lf, "append nil nil (cons z nil)")
    assert code == 0
    assert "both modes fail (finitely)" in out


def test_compare_one_mode_out_of_depth_is_a_resource_verdict(append_lf):
    # a naive proof is deeper because of its guards, so depth 3 cuts naive
    # mode only: that is the same resource verdict `solve` gives, not a
    # disagreement
    query = "append nil (cons (s z) nil) Out"
    code, out, _ = run_cli("compare", append_lf, query, "--depth", "3")
    assert code == 2
    assert out == "naive: no solution\noptimized: solution\nnaive: no solution within depth 3\n"
    assert run_cli("solve", append_lf, query, "--mode", "naive", "--iterdeep", "--depth", "3")[0] == 2


def test_compare_one_mode_exhausted_is_a_disagreement(append_lf, monkeypatch):
    # a mode whose search ended within its bounds while the other answered
    # is a bug, whatever the other mode's limits
    real = QuerySession.first_answer
    monkeypatch.setattr(
        QuerySession, "first_answer", lambda self, *a: None if self.mode == "naive" else real(self, *a)
    )
    code, out, _ = run_cli("compare", append_lf, "append nil (cons (s z) nil) Out")
    assert code == 3
    assert out.endswith("DISAGREEMENT: success differs between modes\n")


def test_compare_first_answers_that_differ_are_each_proved_by_the_other_mode(append_lf):
    # iterative deepening finds each mode's shallowest proof: optimized mode
    # puts the whole list in K, and naive mode, whose guard on K makes a long
    # K deep to prove, puts it in L; each mode proves the other's answer too
    query = "append L K (cons z (cons (s z) (cons (s (s z)) nil)))"
    code, out, _ = run_cli("compare", append_lf, query)
    assert code == 0
    assert "type agreement: False | proof agreement: False" in out
    assert "first answers differ: each mode proves the other's answer\n" in out


def test_compare_mode_that_cannot_prove_the_other_answer_is_a_disagreement(append_lf, monkeypatch):
    # a proof term that inhabits nothing, in place of the optimized answer's
    # proof, stands for an answer the other mode cannot prove
    real = QuerySession.first_answer

    def first_answer(self, *a):
        found = real(self, *a)
        if found is not None and self.mode == "optimized":
            found[1].lf_proof = Const("nil")
        return found

    monkeypatch.setattr(QuerySession, "first_answer", first_answer)
    code, out, _ = run_cli("compare", append_lf, "append L K (cons z (cons (s z) (cons (s (s z)) nil)))")
    assert code == 3
    assert out.endswith("DISAGREEMENT: naive mode cannot prove the other mode's answer\n")


@pytest.mark.parametrize("command", ["solve", "compare"])
@pytest.mark.parametrize("query, name", [("append L K (cons nil)", "cons"), ("append L K", "append")])
def test_under_applied_constant_in_a_query_with_variables_is_an_input_error(append_lf, command, query, name):
    # neither an uncertified answer nor a search that finds no inhabitant
    code, out, err = run_cli(command, append_lf, query)
    assert (code, out, err) == (1, "", f"error: constant {name!r} is under-applied\n")


@pytest.mark.parametrize("command", ["solve", "compare"])
@pytest.mark.parametrize(
    "query",
    [
        "{x:s z} nat",
        "s z -> nat",
        "append nil nil -> nat",
        "s z",
        "append nil nil",
        "nat -> append nil nil",
        "{x:nat} s x",
    ],
)
def test_ill_formed_closed_query_is_an_input_error(append_lf, command, query):
    # the session kernel-checks a query type without variables before any
    # search: it is neither an uncertified answer (exit 3) nor an exhausted
    # search (exit 1 with `no solution`, or `both modes fail` and exit 0)
    code, out, err = run_cli(command, append_lf, query)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and ("type family" in err or "not fully applied" in err)


def test_function_typed_query_variable_certifies(tmp_path):
    # `normalize` eta-expands M to `[x:tm] M x`; closing decodes the applied
    # occurrence at `tm -> tm`, the classifier its position fixes, and
    # `binding_report` prints M at it
    f = tmp_path / "stlc.lf"
    f.write_text(STLC_TEXT)
    query = "of (lam base M) (arr base base)"
    code, out, err = run_cli("solve", str(f), query)
    assert code == 0 and err == ""
    assert out.splitlines()[:4] == [
        "M = [x:tm] x",
        "proof = ofLam base base ([x:tm] x) ([x:tm] [x1:of x base] x1)",
        "type = of (lam base ([x:tm] x)) (arr base base)",
        "certified (kernel derivation size 8)",
    ]
    code, out, err = run_cli("compare", str(f), query)
    assert code == 0 and err == ""
    assert "certified: both | type agreement: True | proof agreement: True" in out
    assert "type = of (lam base ([x:tm] x)) (arr base base)" in out


def test_applied_query_variable_certifies(tmp_path):
    # M is applied to the variable of the binder around it: closing decodes
    # it at `tm -> tm`, that binder's classifier over `tm`
    f = tmp_path / "stlc.lf"
    f.write_text(STLC_TEXT)
    query = "of (lam base ([x:tm] M x)) (arr base base)"
    code, out, err = run_cli("solve", str(f), query)
    assert code == 0 and err == ""
    assert out.splitlines()[:4] == [
        "M = [x:tm] x",
        "proof = ofLam base base ([x:tm] x) ([x:tm] [x1:of x base] x1)",
        "type = of (lam base ([x:tm] x)) (arr base base)",
        "certified (kernel derivation size 8)",
    ]
    code, out, err = run_cli("compare", str(f), query)
    assert code == 0 and err == ""
    assert "certified: both | type agreement: True | proof agreement: True" in out


@pytest.mark.parametrize(
    "query, binding",
    [
        ("of (lam base ([x:tm] lam base ([y:tm] F y x))) T", "F = [x:tm] [x1:tm] x"),
        ("of (lam base ([x:tm] lam base ([y:tm] F x))) T", "F = [x:tm] x"),
    ],
)
def test_variable_applied_to_any_distinct_binders_certifies(tmp_path, query, binding):
    # F is applied to binders out of order, or to an outer one only; their
    # classifiers and `tm` are closed, so F's position fixes its classifier
    f = tmp_path / "stlc.lf"
    f.write_text(STLC_TEXT)
    for mode in ("naive", "optimized"):
        code, out, err = run_cli("solve", str(f), query, "--mode", mode)
        assert code == 0 and err == "", (mode, err)
        lines = out.splitlines()
        assert lines[0] == binding and lines[1] == "T = arr base (arr base base)"
        assert lines[4] == "certified (kernel derivation size 20)"
    code, out, err = run_cli("compare", str(f), query)
    assert code == 0 and err == ""
    assert "certified: both | type agreement: True | proof agreement: True" in out


@pytest.mark.parametrize(
    "query, name",
    [("{nat : x} append nil nil X", "x"), ("append nil (cons bogus nil) X", "bogus"), ("append nil nil X -> foo", "foo")],
)
@pytest.mark.parametrize("command", ["solve", "compare"])
def test_unbound_constant_in_a_query_with_variables_is_an_input_error(append_lf, command, query, name):
    # read off the walk that numbers the query's variables, before search
    code, out, err = run_cli(command, append_lf, query)
    assert (code, out, err) == (1, "", f"error: unbound constant {name!r}\n")


def test_an_undeclared_constant_in_a_corpus_query_is_an_input_error(tmp_path):
    # one constant of each seeded append and STLC query is renamed to an
    # undeclared one; neither command searches, and neither ends in exit 3
    # or a traceback
    f = tmp_path / "stlc.lf"
    f.write_text(STLC_TEXT)
    rng = random.Random(33)
    append_sig, stlc_sig = append_signature(), checked_signature(parse_signature(STLC_TEXT))
    cases = [(APPEND_LF, append_sig, pretty_print(q)) for q, _ in append_query_corpus(rng, 50)]
    cases += [(str(f), stlc_sig, random_stlc_query(rng)) for _ in range(50)]
    for path, sig, text in cases:
        spots = [m for m in re.finditer(r"[A-Za-z_][A-Za-z0-9_']*", text) if m.group() in sig]
        spot = rng.choice(spots)
        mutated = text[: spot.start()] + "undeclared" + text[spot.end() :]
        for command in ("solve", "compare"):
            code, _, err = run_cli(command, path, mutated, "--depth", "6", "--budget", "20000")
            assert code == 1 and "unbound constant 'undeclared'" in err, (command, mutated, code, err)


@pytest.fixture(scope="module")
def rigid_guard_lf(tmp_path_factory):
    f = tmp_path_factory.mktemp("rigid") / "rigid.lf"
    f.write_text(RIGID_GUARD_TEXT)
    return str(f)


# N occurs only in the guard of the rigid binder v, which the optimized goal
# drops.  In the last query naive search leaves X and Y unbound, and closing
# P binds a guard variable of `mk` in an auxiliary search, which must not
# take the id of either.
RIGID_GUARD_ANSWERS = [
    ("({v: vec N} ok v) -> q", ["N = z", "proof = [x:{v:vec z} ok v] cq", "type = ({v:vec z} ok v) -> q"]),
    (
        "({v: vec N} ok v) -> {w: vec z} ok w",
        ["N = z", "proof = [x:{v:vec z} ok v] [w:vec z] x w", "type = ({v:vec z} ok v) -> {w:vec z} ok w"],
    ),
    (
        "({u: pf P} q) -> ({w: lv X} okl w) -> ({v: lv Y} okl v) -> q",
        [
            "P = mk z",
            "X = bb",
            "Y = bb",
            "proof = [x:pf (mk z) -> q] [x1:{w:lv bb} okl w] [x2:{v:lv bb} okl v] cq",
            "type = (pf (mk z) -> q) -> ({w:lv bb} okl w) -> ({v:lv bb} okl v) -> q",
        ],
    ),
]


@pytest.mark.parametrize("query, answer", RIGID_GUARD_ANSWERS)
def test_variable_under_a_rigid_guard_certifies(rigid_guard_lf, query, answer):
    for mode in ("naive", "optimized"):
        code, out, err = run_cli("solve", rigid_guard_lf, query, "--mode", mode)
        assert code == 0 and err == ""
        assert out.splitlines()[: len(answer)] == answer
    code, out, err = run_cli("compare", rigid_guard_lf, query)
    assert code == 0 and err == ""
    assert "certified: both | type agreement: True | proof agreement: True" in out


@pytest.mark.parametrize("argv", [("solve", "--mode", "naive"), ("solve", "--mode", "optimized"), ("compare",)])
def test_variable_with_no_target_is_an_input_error(rigid_guard_lf, stlc_lf, argv):
    # X stands for a type, not for an argument of one, so it has no target
    # variable, in either mode and whether or not the goal keeps its position
    for f, query in ((rigid_guard_lf, "({v: X} ok v) -> q"), (stlc_lf, "of (lam base ([x:X] x)) T")):
        code, out, err = run_cli(argv[0], f, query, *argv[1:])
        assert (code, out, err) == (1, "", "error: meta-variable 'X' has no target assignment\n")


# Optimized-mode queries with a variable that occurs only in rigid positions,
# so search leaves it unbound and certification closes it by an auxiliary
# inhabitation search.  `residual_closing.txt` pins their `solve` output.
RESIDUAL_QUERIES = [
    ("append.lf", "append nil K K"),
    ("append.lf", "append L K L"),
    ("append.lf", "append (cons X nil) K (cons X K)"),
    ("append.lf", "{x:nat} append (cons x nil) K (cons x K)"),
    ("append.lf", "append (cons X (cons Y nil)) nil L"),
    ("append.lf", "append X Y Z"),
    ("stlc.lf", "of (lam T ([x:tm] x)) U"),
    ("stlc.lf", "of (lam T ([x:tm] lam S ([y:tm] x))) U"),
    ("stlc.lf", "of (lam T ([x:tm] lam S ([y:tm] y))) U"),
]


def test_residual_closing_output_is_pinned(golden_dir, tmp_path):
    # each query solved plain, with `--all --depth 5` and with `--iterdeep
    # --depth 20`: the command, its output and its exit code
    files = {"append.lf": golden_dir / "append.lf", "stlc.lf": tmp_path / "stlc.lf"}
    files["stlc.lf"].write_text(STLC_TEXT)
    runs = []
    for name, query in RESIDUAL_QUERIES:
        for flags in ((), ("--all", "--depth", "5"), ("--iterdeep", "--depth", "20")):
            code, out, err = run_cli("solve", str(files[name]), query, "--mode", "optimized", *flags)
            runs.append(f"$ solve {name} '{query}' {' '.join(flags)}".rstrip() + f"\n{out}{err}exit {code}\n")
    assert "".join(runs) == (golden_dir / "residual_closing.txt").read_text()


# Type inference in the simply typed lambda calculus: bodies that use an outer
# bound variable need on-the-fly raising when a guard's proof variable, made
# under the inner binder, is bound from under the outer one.
STLC_INFERENCE = [
    ("lam base ([x:tm] lam base ([y:tm] x))", "arr base (arr base base)"),
    ("lam (arr base base) ([f:tm] lam base ([x:tm] app f x))", "arr (arr base base) (arr base base)"),
    ("lam base ([y:tm] ([x:tm] lam (arr base base) ([z:tm] x)) y)", "arr base (arr (arr base base) base)"),
    # K, S and B at base types
    ("lam base ([x:tm] lam (arr base base) ([y:tm] x))", "arr base (arr (arr base base) base)"),
    (
        "lam (arr base (arr base base)) ([x:tm] lam (arr base base) ([y:tm] lam base ([z:tm] app (app x z) (app y z))))",
        "arr (arr base (arr base base)) (arr (arr base base) (arr base base))",
    ),
    (
        "lam (arr base base) ([f:tm] lam (arr base base) ([g:tm] lam base ([x:tm] app f (app g x))))",
        "arr (arr base base) (arr (arr base base) (arr base base))",
    ),
]


@pytest.fixture(scope="module")
def stlc_lf(tmp_path_factory):
    f = tmp_path_factory.mktemp("stlc") / "stlc.lf"
    f.write_text(STLC_TEXT)
    return str(f)


@pytest.mark.parametrize(
    "flags", [("--mode", "optimized"), ("--mode", "naive", "--iterdeep")], ids=["optimized", "naive"]
)
@pytest.mark.parametrize("term, ty", STLC_INFERENCE, ids=["outer", "apply", "redex", "K", "S", "B"])
def test_stlc_inference_certifies(stlc_lf, flags, term, ty):
    code, out, err = run_cli("solve", stlc_lf, f"of ({term}) T", *flags)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == f"T = {ty}"
    assert lines[3].startswith("certified (kernel derivation size ")


@pytest.mark.parametrize("mode, sizes", [("optimized", (8, 16, 32)), ("naive", (4, 6, 8))])
def test_church_numeral_ladder_grows_polynomially(stlc_lf, mode, sizes):
    # ofApp's guard `hastype A tp` runs after `of M (arr A B)` has fixed A,
    # so a failed deepening round no longer enumerates types: optimized n=6
    # took 3706 steps and n=8 did not end in 100 s, naive n=4 took 9848.
    # The budget turns a return of that blow-up into a quick exit 2.
    steps = {}
    for n in sizes:
        code, out, err = run_cli(
            "solve", stlc_lf, f"of ({church_numeral(n)}) T", "--mode", mode, "--iterdeep", "--budget", "100000"
        )
        assert code == 0 and err == ""
        assert "T = arr (arr base base) (arr base base)\n" in out and "\ncertified (kernel" in out
        steps[n] = int(out.split("counters: backchain_steps=")[1].split()[0])
    for n in sizes:
        if 2 * n in steps:
            assert steps[2 * n] <= 4.5 * steps[n], steps


def test_stlc_all_answers_end(stlc_lf):
    # after its one answer, `--all` backtracks into ofApp's guard on A;
    # proved before the premise that fixes A, that guard enumerated types
    # without end
    proc = run_fresh("solve", stlc_lf, f"of ({STLC_INFERENCE[1][0]}) T", "--all", "--depth", "40")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.count("\ncertified (kernel") == 1


def test_naive_output_search_ends_without_iterdeep(append_lf):
    # naive appCons's list guards run after its `append` premise, so the
    # search enumerates the splits, not the lists, and ends
    query = "append L K (cons z (cons (s z) (cons (s (s z)) nil)))"
    splits = {}
    for mode in ("naive", "optimized"):
        proc = run_fresh("solve", append_lf, query, "--all", "--mode", mode)
        assert proc.returncode == 0 and proc.stderr == ""
        splits[mode] = [line for line in proc.stdout.splitlines() if line.startswith(("L = ", "K = "))]
    assert len(splits["naive"]) == 8 and splits["naive"] == splits["optimized"]


# -- determinism --------------------------------------------------------------------


def test_output_deterministic(append_lf):
    for argv in (
        ("translate", append_lf, "--mode", "optimized"),
        ("analyze", append_lf),
        ("solve", append_lf, "append (cons z nil) (cons (s z) nil) L", "--trace"),
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second


def test_parser_is_built_once_and_keeps_no_state(append_lf):
    from lfhh.cli import build_parser

    assert build_parser() is build_parser()
    # each call sees its own flags and the defaults, never an earlier call's
    code, out, _ = run_cli("solve", append_lf, "nat", "--all", "--depth", "2", "--trace")
    assert code == 0 and out.count("proof =") == 2 and "# " in out
    code, out, _ = run_cli("solve", append_lf, "nat")
    assert code == 0 and out.count("proof =") == 1 and "# " not in out
    assert run_cli("translate", append_lf, "--mode", "naive") == run_cli("translate", append_lf, "--mode", "naive")
    code, out, _ = run_cli("translate", append_lf, "--mode", "optimized")
    assert code == 0 and out == (pathlib.Path(append_lf).parent / "append_optimized.hh").read_text()
    code, out, _ = run_cli("bench", "--sizes", "2", "--format", "text", "--mode", "optimized")
    assert code == 0 and "backchain" in out
    code, out, _ = run_cli("bench", "--sizes", "2")
    assert code == 0 and out.startswith("n,mode,") and out.count("\n") == 3
    with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
        main(["solve", append_lf])  # a usage error exits through argparse
    assert exc.value.code == 2
    code, out, _ = run_cli("check", append_lf)
    assert code == 0 and out == "ok (9 declarations)\n"


def test_calls_leave_no_cyclic_garbage(append_lf, golden_dir, tmp_path):
    # the walkers of a call keep their tables in arguments or in a per-call
    # object, never in a closure that refers to itself, so a call's tables
    # are freed when it returns, without the cyclic collector; when they
    # were closures, one `check` of 750 declarations left 21,585 objects
    # for the collector
    sig = tmp_path / "stlc.lf"
    sig.write_text("".join(STLC_BLOCK.replace("{t}", f"_{i}") for i in range(5)))
    calls = [
        ("check", str(sig)),
        ("analyze", str(sig)),
        ("translate", str(sig), "--mode", "naive"),
        ("translate", str(sig), "--mode", "optimized"),
        ("solve", append_lf, "append (cons z nil) (cons (s z) nil) Out"),
        ("solve", append_lf, "append L K (cons z (cons z nil))", "--all", "--mode", "naive", "--iterdeep"),
        ("solve", str(sig), "of_0 (lam_0 base_0 ([x:tm_0] x)) T", "--mode", "naive", "--iterdeep", "--trace"),
        ("solve", str(sig), "of_1 (lam_1 base_1 ([x:tm_1] lam_1 base_1 ([y:tm_1] x))) T", "--depth", "6"),
        ("solve", str(golden_dir / "vec.lf"), "vec (s z)", "--depth", "4"),
        ("solve", append_lf, "append nil K K"),
        ("bench", "--sizes", "4,8"),
        ("bench", "--sizes", "4", "--search"),
    ]
    build_parser()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for argv in calls:
            run_cli(*argv)
            assert gc.collect() == 0, argv
    finally:
        if enabled:
            gc.enable()


# -- deep input -----------------------------------------------------------------------


DEEP = 3000


@pytest.mark.parametrize("command", ["check", "translate", "solve"])
def test_deeply_nested_input_exits_cleanly(command, append_lf, tmp_path):
    deep = tmp_path / "deep.lf"
    deep.write_text("a : type.\nb : " + "(" * DEEP + "a" + ")" * DEEP + ".\n")
    argv = {
        "check": ["check", str(deep)],
        "translate": ["translate", str(deep), "--mode", "optimized"],
        "solve": ["solve", append_lf, "(" * DEEP + "append nil nil nil" + ")" * DEEP],
    }[command]
    proc = run_fresh(*argv)
    assert proc.returncode == 2
    assert proc.stderr == "error: input nested too deeply\n"
    assert proc.stdout == ""


def test_deep_search_runs_off_the_interpreter_stack():
    # search keeps its goals and choice points on lists; when it nested one
    # generator chain per backchain step, this exited 139 on a C stack overflow
    proc = run_fresh("bench", "--sizes", "4096", "--mode", "optimized", "--depth", "10000", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.splitlines()[1]
    assert row.startswith("4096,optimized,4097,")


def test_deep_input_verdict_does_not_depend_on_an_earlier_search(append_lf, tmp_path):
    # a command raises the recursion limit for the whole process; before
    # `main` put back the limit it found, this `check` printed `ok` after the
    # `solve` although it exits 2 in a fresh process
    deep = tmp_path / "deep.lf"
    deep.write_text("a : type.\nb : " + "(" * DEEP + "a" + ")" * DEEP + ".\n")
    assert run_cli("check", str(deep)) == (2, "", "error: input nested too deeply\n")
    code, out, _ = run_cli("solve", append_lf, "append nil nil nil", "--depth", "512")
    assert code == 0 and "certified" in out
    assert run_cli("check", str(deep)) == (2, "", "error: input nested too deeply\n")


def run_python(*args):
    """A fresh interpreter run with `args`, importing this checkout's lfhh."""
    src = str(pathlib.Path(lfhh.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def run_fresh(*argv):
    """`lfhh` in a fresh interpreter, so that the recursion limit is the
    default one and not whatever an earlier command in this process raised
    it to."""
    return run_python("-m", "lfhh.cli", *argv)


STAGES_LOADED = """\
import contextlib, io, json, sys
from lfhh.cli import main
stages = ("rigidity", "hhf_logic", "hhf_prover", "reconstruct")
loaded = {}
for command, *flags in (["check"], ["analyze"], ["translate", "--mode", "optimized"]):
    with contextlib.redirect_stdout(io.StringIO()):
        main([command, sys.argv[1], *flags])
    loaded[command] = [s for s in stages if "lfhh." + s in sys.modules]
print(json.dumps(loaded))
sys.exit(main(["solve", sys.argv[1], sys.argv[2]]))
"""


def test_a_command_loads_only_the_stages_it_runs(append_lf):
    # `check` needs the parser and the kernel only, `analyze` adds the
    # rigidity analysis and `translate` the translation; a `solve` after
    # them in the same interpreter loads the rest and answers as it does
    # in a fresh one
    query = "append (cons z nil) L (cons z (cons (s z) nil))"
    after = run_python("-c", STAGES_LOADED, append_lf, query)
    loaded, _, out = after.stdout.partition("\n")
    assert json.loads(loaded) == {"check": [], "analyze": ["rigidity"], "translate": ["rigidity", "hhf_logic"]}
    fresh = run_fresh("solve", append_lf, query)
    assert (after.returncode, out, after.stderr) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert fresh.returncode == 0 and "L = cons (s z) nil\n" in out
