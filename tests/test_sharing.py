"""Shared proofs: a term whose subterms are shared gets the same verdict, the
same derivation text, the same error text and the same trace as an unshared
copy of it, and the work of checking one grows with its distinct nodes."""

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
    HApp,
    HBound,
    HConst,
    HLam,
    encode_term,
    inhabitation_goal,
    translate,
)
from lfhh.hhf_prover import Solver
from lfhh.lf_syntax import App, Const, Lam, Meta, Pi
from lfhh.lf_typecheck import KernelError, check_object
from lfhh.reconstruct import QuerySession

from corpus import to_sexpr


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
    f = FForall("x1", TM, FImplies(FForall("x2", TM, FTop()), FAtom(HApp(HConst("k"), HBound(0)), HBound(0))))
    program = ClauseSet((Clause("k", f),), "optimized")
    term = HApp(HConst("c"), HLam("y", HApp(HConst("s"), HBound(0))))
    traces = []
    for other in (term, HApp(HConst("c"), HLam("y", HApp(HConst("s"), HBound(0))))):
        assert other == term
        solver = Solver(program, trace=True)
        sol = next(solver.solve(FAtom(HApp(HConst("k"), term), other)))
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
