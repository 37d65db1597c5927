"""Decode solver bindings back into dependently typed terms and certify every
answer with the trusted kernel.

Decoding re-inserts the binder annotations that erasure dropped, reading them
off the expected classifier (and, under applications, off the head constant's
declaration).  Meta-variables left unbound after search are closed one at a
time: the classifier of the residual variable is read off its position, an
auxiliary inhabitation search (same program, same clause order) produces the
first inhabitant, and the instantiated type is re-checked.  Certification
then runs the kernel on the fully decoded type and proof; a rejection here on
solver output would falsify the translation-correctness property and is
reported, never swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .hhf_logic import (
    ClauseSet,
    HApp,
    HConst,
    HLam,
    HMeta,
    HhTerm,
    collect_metas,
    hspine,
    inhabitation_goal,
    translate,
    translate_query,
)
from .hhf_prover import Counters, Limits, Solution, Solver, resolve_term
from .lf_syntax import (
    Const,
    LfError,
    LfExpr,
    Lam,
    Meta,
    Pi,
    Signature,
    abstract,
    beta_normalize,
    contains_meta,
    fresh_name,
    instantiate,
    make_app,
    pretty_print,
    spine,
)
from .lf_typecheck import Derivation, KernelError, check_object, check_type

__all__ = [
    "ReconstructError",
    "CertifiedAnswer",
    "decode_term",
    "finalize_metavars",
    "certify",
    "QuerySession",
]


class ReconstructError(LfError):
    pass


@dataclass(frozen=True)
class CertifiedAnswer:
    """Kernel verdict on one decoded answer."""

    lf_proof: LfExpr | None
    lf_type: LfExpr | None
    kernel_derivation: Derivation | None
    counters: Counters
    status: str  # "certified" | "rejected"
    reason: str | None = None

    @property
    def certified(self) -> bool:
        return self.status == "certified"


# ---------------------------------------------------------------------------
# Strict decoding
# ---------------------------------------------------------------------------


def decode_term(
    sig: Signature,
    t: HhTerm,
    expected: LfExpr,
    env: Mapping[str, LfExpr] | None = None,
) -> LfExpr:
    """Invert the erasure: rebuild the object whose encoding is `t` at the
    canonical classifier `expected`.  Raises on anything that is not an
    encoding; by the correctness property this never fires on solver output
    over translated programs."""
    env = dict(env) if env else {}

    def go(u: HhTerm, cls: LfExpr) -> LfExpr:
        if isinstance(cls, Pi):
            x = fresh_name(cls.hint, set(env) | sig.names())
            body = h_instantiate_or_apply(u, HConst(x))
            env[x] = cls.annot
            inner = go(body, beta_normalize(instantiate(cls.body, Const(x))))
            del env[x]
            return Lam(cls.hint, cls.annot, abstract(inner, x))
        head, args = hspine(u)
        match head:
            case HConst(name):
                if name in env:
                    head_cls: LfExpr = env[name]
                elif (entry := sig.lookup(name)) is not None and entry.sort == "type":
                    head_cls = entry.classifier
                else:
                    raise ReconstructError(f"not an encoding: unknown head {name!r}")
            case HMeta() as m:
                raise ReconstructError(f"not an encoding: unresolved variable ?{m.name}")
            case HLam():
                raise ReconstructError("not an encoding: abstraction at base classifier")
            case _:
                raise ReconstructError(f"not an encoding: bad head {head!r}")
        out: list[LfExpr] = []
        cur = head_cls
        for a in args:
            if not isinstance(cur, Pi):
                raise ReconstructError(f"not an encoding: {name!r} applied too far")
            arg_lf = go(a, cur.annot)
            out.append(arg_lf)
            cur = beta_normalize(instantiate(cur.body, arg_lf))
        if isinstance(cur, Pi):
            raise ReconstructError(f"not an encoding: {name!r} under-applied")
        return make_app(Const(name), out)

    return go(t, expected)


def h_instantiate_or_apply(t: HhTerm, v: HhTerm) -> HhTerm:
    from .hhf_logic import h_instantiate

    if isinstance(t, HLam):
        return h_instantiate(t.body, (v,))
    return HApp(t, v)


# ---------------------------------------------------------------------------
# Closing residual meta-variables
# ---------------------------------------------------------------------------


class _Closer:
    """One pass over the query type / proof, substituting solved variables and
    collecting residual ones whose classifiers are already closed."""

    def __init__(self, sig: Signature, store: dict[int, HhTerm], metas: Mapping[str, HMeta]):
        self.sig = sig
        self.store = store
        self.metas = metas
        self.pending: list[tuple[HMeta, LfExpr]] = []
        self.env: dict[str, LfExpr] = {}

    def _pend(self, m: HMeta, cls: LfExpr | None) -> LfExpr:
        if cls is not None and not contains_meta(cls) and all(p.id != m.id for p, _ in self.pending):
            self.pending.append((m, cls))
        return Meta(f"?{m.id}")

    def _names(self) -> set[str]:
        return set(self.env) | self.sig.names()

    def close_type(self, a: LfExpr) -> LfExpr:
        match a:
            case Pi(h, annot, body):
                annot2 = self.close_type(annot)
                x = fresh_name(h, self._names())
                self.env[x] = annot2
                inner = self.close_type(instantiate(body, Const(x)))
                del self.env[x]
                return Pi(h, annot2, abstract(inner, x))
            case _:
                head, args = spine(a)
                if not isinstance(head, Const):
                    raise ReconstructError(f"cannot close type {pretty_print(a)}")
                entry = self.sig.lookup(head.name)
                kind = entry.classifier if entry is not None else None
                out: list[LfExpr] = []
                for arg in args:
                    dom = kind.annot if isinstance(kind, Pi) else None
                    arg2 = self.close_object(arg, dom)
                    out.append(arg2)
                    kind = beta_normalize(instantiate(kind.body, arg2)) if isinstance(kind, Pi) else None
                return make_app(head, out)

    def close_object(self, m: LfExpr, expected: LfExpr | None) -> LfExpr:
        match m:
            case Meta(n):
                hm = self.metas.get(n)
                if hm is None:
                    raise ReconstructError(f"unknown meta-variable {n!r}")
                return self.close_hh(resolve_term(self.store, hm), expected)
            case Lam(h, annot, body):
                annot2 = self.close_type(annot)
                x = fresh_name(h, self._names())
                self.env[x] = annot2
                inner_expected = (
                    beta_normalize(instantiate(expected.body, Const(x)))
                    if isinstance(expected, Pi)
                    else None
                )
                inner = self.close_object(instantiate(body, Const(x)), inner_expected)
                del self.env[x]
                return Lam(h, annot2, abstract(inner, x))
            case _:
                head, args = spine(m)
                cls = self._head_classifier(head)
                out: list[LfExpr] = []
                for arg in args:
                    dom = cls.annot if isinstance(cls, Pi) else None
                    arg2 = self.close_object(arg, dom)
                    out.append(arg2)
                    cls = beta_normalize(instantiate(cls.body, arg2)) if isinstance(cls, Pi) else None
                return make_app(head, out)

    def _head_classifier(self, head: LfExpr) -> LfExpr | None:
        if isinstance(head, Const):
            if head.name in self.env:
                return self.env[head.name]
            entry = self.sig.lookup(head.name)
            if entry is not None:
                return entry.classifier
        return None

    def close_hh(self, t: HhTerm, expected: LfExpr | None) -> LfExpr:
        """Decode a resolved target-language term, leaving placeholders for
        variables that are still unbound."""
        if isinstance(expected, Pi):
            x = fresh_name(expected.hint, self._names())
            body = h_instantiate_or_apply(t, HConst(x))
            self.env[x] = expected.annot
            inner = self.close_hh(body, beta_normalize(instantiate(expected.body, Const(x))))
            del self.env[x]
            return Lam(expected.hint, expected.annot, abstract(inner, x))
        head, args = hspine(t)
        match head:
            case HMeta() as hm:
                if args:
                    return Meta(f"?{hm.id}")  # classifier unknown; retry next round
                return self._pend(hm, expected)
            case HConst(name):
                cls = self._head_classifier(Const(name))
                if cls is None:
                    raise ReconstructError(f"not an encoding: unknown head {name!r}")
                out: list[LfExpr] = []
                for a in args:
                    dom = cls.annot if isinstance(cls, Pi) else None
                    arg2 = self.close_hh(a, dom)
                    out.append(arg2)
                    cls = beta_normalize(instantiate(cls.body, arg2)) if isinstance(cls, Pi) else None
                return make_app(Const(name), out)
            case HLam():
                raise ReconstructError("not an encoding: abstraction without product classifier")
            case _:
                raise ReconstructError(f"not an encoding: bad head {head!r}")


def finalize_metavars(
    sig: Signature,
    query_type: LfExpr,
    solution: Solution,
    program: ClauseSet,
    goal_metas: Mapping[str, HMeta],
    proof_meta: HMeta,
    limits: Limits | None = None,
    iterative: bool = True,
) -> tuple[LfExpr, HhTerm, dict[int, HhTerm]]:
    """Close every residual meta-variable in the instantiated query type and
    proof term by searching for an inhabitant of its classifier, then re-check
    the closed type.  Returns the closed type, the closed proof term, and the
    extended binding store.  Idempotent when the solution is already closed."""
    store = dict(solution.bindings)

    def aux_solve(m: HMeta, cls: LfExpr) -> None:
        nonlocal store
        goal = inhabitation_goal(sig, cls, m, program.mode)
        solver = Solver(program, limits, bindings=store)
        sol = next(solver.solve(goal, iterative=iterative), None)
        if sol is None:
            raise ReconstructError(f"uninhabited residual type: {pretty_print(cls)}")
        store = dict(sol.bindings)

    def close(roundfn) -> LfExpr:
        nonlocal store
        for _ in range(1 + len(goal_metas) + 16):
            closer = _Closer(sig, store, goal_metas)
            result = roundfn(closer)
            if not contains_meta(result):
                return result
            if not closer.pending:
                raise ReconstructError(
                    f"residual meta-variables with undetermined classifiers in {pretty_print(result)}"
                )
            for m, cls in closer.pending:
                aux_solve(m, cls)
        raise ReconstructError("residual closing did not converge")

    closed_type = close(lambda c: c.close_type(query_type))
    try:
        check_type(sig, closed_type)
    except KernelError as e:
        raise ReconstructError(f"ill-typed binding: {e}") from None
    # the decoded result only drives the residual solves; certification
    # re-decodes the closed store strictly
    close(lambda c: c.close_hh(resolve_term(store, proof_meta), closed_type))
    return closed_type, resolve_term(store, proof_meta), store


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def certify(
    sig: Signature,
    query_type: LfExpr,
    solution: Solution,
    program: ClauseSet,
    goal_metas: Mapping[str, HMeta],
    proof_meta: HMeta,
    limits: Limits | None = None,
    iterative: bool = True,
) -> CertifiedAnswer:
    """Close, decode, and re-check one solver answer with the kernel."""
    try:
        closed_type, closed_proof, _ = finalize_metavars(
            sig, query_type, solution, program, goal_metas, proof_meta, limits, iterative
        )
        lf_proof = decode_term(sig, closed_proof, closed_type)
        check_type(sig, closed_type)
        derivation = check_object(sig, lf_proof, closed_type)
        return CertifiedAnswer(lf_proof, closed_type, derivation, solution.counters, "certified")
    except (ReconstructError, KernelError) as e:
        return CertifiedAnswer(None, None, None, solution.counters, "rejected", str(e))


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


class QuerySession:
    """Wire one query through translation, search, and certification."""

    def __init__(
        self,
        sig: Signature,
        query_type: LfExpr,
        mode: str,
        limits: Limits | None = None,
        trace: bool = False,
        program: ClauseSet | None = None,
    ):
        self.sig = sig
        self.query_type = query_type
        self.mode = mode
        self.limits = limits
        self.program = program if program is not None else translate(sig, mode)
        self.goal, self.proof_meta = translate_query(sig, query_type, mode)
        metas = collect_metas(self.goal)
        self.metas = {n: m for n, m in metas.items() if m.id != self.proof_meta.id}
        self.solver = Solver(self.program, limits, trace)

    def answers(self, iterative: bool = False) -> Iterator[tuple[Solution, CertifiedAnswer]]:
        for sol in self.solver.solve(self.goal, iterative=iterative):
            yield sol, certify(
                self.sig,
                self.query_type,
                sol,
                self.program,
                self.metas,
                self.proof_meta,
                self.limits,
                iterative=True,
            )

    def first_answer(self, iterative: bool = False) -> tuple[Solution, CertifiedAnswer] | None:
        return next(self.answers(iterative=iterative), None)

    def binding_report(self, sol: Solution, answer: CertifiedAnswer) -> dict[str, LfExpr]:
        """Query-meta instantiations of a certified answer, decoded to LF."""
        if not answer.certified:
            return {}
        try:
            _, _, store = finalize_metavars(
                self.sig, self.query_type, sol, self.program, self.metas, self.proof_meta, self.limits
            )
        except ReconstructError:
            store = dict(sol.bindings)
        closer = _Closer(self.sig, store, self.metas)
        return {name: closer.close_hh(resolve_term(store, m), None) for name, m in self.metas.items()}
