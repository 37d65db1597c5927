"""The order of head unification changes no answer.

The plan `Solver._plan` makes for an atom goal unifies a clause head's
classifier before its subject when the goal's subject is flexible, and the
subject first otherwise.  Each case here runs the search once with that
order and once with a solver that always takes the subject first, and
requires the same success, the same certified answers in the same order and
the same committed steps; the real order may only save unifications.
"""

import itertools
import pathlib
import random

import pytest

from lfhh.hhf_logic import encode_term, inhabitation_goal, translate
from lfhh.hhf_prover import Limits, Solver
from lfhh.lf_syntax import parse_expr_text, parse_query, parse_signature, pretty_print
from lfhh.lf_typecheck import checked_signature
from lfhh.reconstruct import QuerySession

from corpus import STLC_TEXT, append_query_corpus, church_numeral

VEC_TEXT = (pathlib.Path(__file__).parent / "golden" / "vec.lf").read_text()


class SubjectFirst(Solver):
    """Unifies every head's subject first, whatever the goal's shape."""

    def _plan(self, goal):
        return super()._plan(goal)[:2] + ((0, 1),)


class ClassifierFirst(Solver):
    """Unifies every head's classifier first, whatever the goal's shape."""

    def _plan(self, goal):
        return super()._plan(goal)[:2] + ((1, 0),)


def _run(solver_class, sig, query, mode, limits, iterative, cap):
    """The first `cap` answers, each as (certified, type, proof, steps,
    unifications so far), and the unifications of the whole run."""
    sess = QuerySession(sig, query, mode, limits)
    solver = solver_class(sess.program, limits, store=sess.start)
    got = []
    for sol, ans in itertools.islice(sess.answers(iterative, solver), cap):
        steps, calls = sol.counters.backchain_steps, sol.counters.unify_calls
        got.append((ans.certified, pretty_print(ans.lf_type), pretty_print(ans.lf_proof), steps, calls))
    return got, solver.counters.unify_calls


def _same_answers(sig, query, mode, limits, iterative=True, cap=8):
    """Both orders agree; returns the answers."""
    real, calls = _run(Solver, sig, query, mode, limits, iterative, cap)
    old, old_calls = _run(SubjectFirst, sig, query, mode, limits, iterative, cap)
    assert [a[:4] for a in real] == [a[:4] for a in old]
    assert all(a[4] <= b[4] for a, b in zip(real, old))
    assert calls <= old_calls
    return real


def test_append_corpus_answers_do_not_depend_on_the_order(append_sig):
    # the criterion-4 append corpus, with its seed and depth
    solved = 0
    for q, _ in append_query_corpus(random.Random(2024), 200):
        for mode in ("naive", "optimized"):
            solved += bool(_same_answers(append_sig, q, mode, Limits(depth=28), cap=4))
    assert solved > 100


def test_every_split_in_the_same_order(append_sig):
    # `solve --all` of the splits of a three-element list, without deepening
    q = parse_query("append L K (cons z (cons (s z) (cons (s (s z)) nil)))", append_sig)
    for mode in ("naive", "optimized"):
        assert len(_same_answers(append_sig, q, mode, Limits(depth=512), iterative=False, cap=10)) == 4


STLC_QUERIES = [
    "of (lam base ([x:tm] x)) T",
    "of (lam base ([x:tm] x)) (arr base base)",
    "of (lam base ([x:tm] lam base ([y:tm] x))) T",
    "of (lam base ([x:tm] lam base ([y:tm] y))) T",
    "of (lam (arr base base) ([f:tm] lam base ([x:tm] app f x))) T",
    "of (lam (arr base base) ([f:tm] lam (arr base base) ([g:tm] lam base ([x:tm] app f (app g x))))) T",
    "of (lam (arr base (arr base base)) ([x:tm] lam (arr base base) ([y:tm] lam base ([z:tm] "
    "app (app x z) (app y z))))) T",
    "of (lam base ([y:tm] ([x:tm] lam (arr base base) ([z:tm] x)) y)) T",
    "of (lam A ([x:tm] x)) T",
    "of (lam base ([x:tm] app x x)) T",
    f"of ({church_numeral(8)}) T",
]


@pytest.mark.parametrize("mode", ["naive", "optimized"])
def test_stlc_inference_does_not_depend_on_the_order(mode):
    sig = checked_signature(parse_signature(STLC_TEXT))
    solved = 0
    for text in STLC_QUERIES:
        q = parse_query(text, sig)
        answers = _same_answers(sig, q, mode, Limits(depth=64, budget=200000), cap=1)
        assert all(a[0] for a in answers)
        solved += bool(answers)
    assert solved == len(STLC_QUERIES) - 1  # `app x x` has no type


@pytest.mark.parametrize("mode", ["naive", "optimized"])
@pytest.mark.parametrize("query", ["vec z", "vec (s z)", "{t:tp} vec (s (s z))", "{t:tp} tp"])
def test_vec_search_does_not_depend_on_the_order(mode, query):
    sig = checked_signature(parse_signature(VEC_TEXT))
    q = parse_query(query, sig)
    _same_answers(sig, q, mode, Limits(depth=6, budget=200000), cap=4)


def test_rigid_subject_is_unified_first(remark_sig):
    # mk's classifier `chk (t z)` is a pattern only once the subject
    # `mk ([x] num_n z)` has fixed t: taken first, it meets `?t z`, outside
    # the pattern fragment, and refuses the well-typed term
    target = parse_expr_text("chk (num_n z)")
    good = encode_term(parse_expr_text("mk ([x:nat] num_n z)"))
    for mode in ("naive", "optimized"):
        program = translate(remark_sig, mode)
        goal = inhabitation_goal(remark_sig, target, good, mode)
        solver = Solver(program)
        assert next(solver.solve(goal), None) is not None and not solver.non_pattern_seen
        forced = ClassifierFirst(program)
        assert next(forced.solve(goal), None) is None and forced.non_pattern_seen
