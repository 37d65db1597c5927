"""Decode solver bindings back into dependently typed terms and certify every
answer with the trusted kernel.

One decoder, `decode_term`, re-inserts the binder annotations that erasure
dropped, reading them off the expected classifier (and, under applications,
off the head's declaration).  Residual closing happens inside it: a
meta-variable left unbound after search is closed where the decoder meets
it, by an auxiliary inhabitation search (same program, same clause order)
that binds it to its first inhabitant in the binding store, and its value is
decoded in its place.  The store is the only record of residual variables,
so a variable met again is not searched for again.  The query type is closed
first, by a walk that keeps the user's binder names and decodes each query
variable it meets, and is re-checked; the values it decodes are the
answer's bindings.  The proof is then decoded once against the closed type.
Certification runs the kernel on the closed type and proof; a rejection
here on solver output would falsify the translation-correctness property and
is reported, never swallowed.

`QuerySession` owns the query: it normalizes the query type, records the
classifiers of its variables and kernel-checks a query type without
variables, for the command line and library callers alike.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .hhf_logic import (
    ClauseSet,
    HApp,
    HBound,
    HLam,
    HMeta,
    HhTerm,
    collect_metas,
    h_shift,
    hspine,
    inhabitation_goal,
    lf_head,
    translate,
    translate_query,
)
from .hhf_prover import Counters, Limits, Solution, Solver, resolve_term
from .lf_syntax import (
    LfError,
    LfExpr,
    Lam,
    Meta,
    Pi,
    Record,
    Signature,
    TYPE,
    classifier_sort,
    codomain,
    beta_normalize,
    head_classifier,
    make_app,
    normalize,
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


class CertifiedAnswer(Record):
    """Kernel verdict on one decoded answer."""

    __slots__ = ("lf_proof", "lf_type", "kernel_derivation", "counters", "status", "reason", "bindings")
    __match_args__ = __slots__
    _compared = _shown = __slots__[:-1]  # all but the bindings, which lf_type holds

    def __init__(
        self,
        lf_proof: LfExpr | None,
        lf_type: LfExpr | None,
        kernel_derivation: Derivation | None,
        counters: Counters,
        status: str,
        reason: str | None = None,
        bindings: dict[str, LfExpr] | None = None,
    ):
        self.lf_proof = lf_proof
        self.lf_type = lf_type
        self.kernel_derivation = kernel_derivation
        self.counters = counters
        self.status = status  # "certified" | "rejected"
        self.reason = reason
        # query variable name -> the value that closed the query type
        self.bindings = bindings

    @property
    def certified(self) -> bool:
        return self.status == "certified"


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def decode_term(
    sig: Signature,
    t: HhTerm,
    expected: LfExpr | None,
    stack: Sequence[LfExpr] = (),
    close: Callable[[HMeta, LfExpr], HhTerm] | None = None,
) -> LfExpr:
    """Invert the erasure: rebuild the object whose encoding is `t` at the
    canonical classifier `expected`, or at the classifier of its head when
    `expected` is None.

    Binders are walked by de Bruijn index, never opened by name.  `stack`
    holds the classifiers of the binders `t` is under, innermost last, and
    the decoder extends it at every product it crosses, so the classifier of
    a head `#k` is its entry shifted by k+1.  At a product classifier an
    abstraction's body is decoded in place, and an eta-short term is shifted
    by one and applied to the new binder.

    An unbound variable is an error unless `close` is given.  Then, if it is
    unapplied at a known classifier free of meta-variables, `close(m, cls)`
    returns its value, which is decoded in its place; an applied one, or one
    at an unknown classifier, is an error that names it.  Raises on anything
    that is not an encoding; by the correctness property this never fires on
    solver output over translated programs.

    A closed node decodes the same wherever it occurs, so each distinct
    closed node is decoded once at each classifier object it meets, and a
    node shared in `t` decodes to a node shared in the result."""
    return _Decoder(sig, list(stack), close).go(t, expected)


class _Decoder:
    """The walk of one `decode_term` call."""

    __slots__ = ("sig", "stack", "close", "decoded")

    def __init__(self, sig: Signature, stack: list[LfExpr], close: Callable[[HMeta, LfExpr], HhTerm] | None):
        self.sig = sig
        self.stack = stack
        self.close = close
        # (id of a closed node, id of its classifier) -> (node, classifier, result)
        self.decoded: dict[tuple[int, int], tuple[HhTerm, LfExpr | None, LfExpr]] = {}

    def go(self, u: HhTerm, cls: LfExpr | None) -> LfExpr:
        if u.scope != 0:
            return self.decode(u, cls)
        key = (id(u), id(cls))
        hit = self.decoded.get(key)
        if hit is None:
            hit = self.decoded[key] = (u, cls, self.decode(u, cls))
        return hit[2]

    def decode(self, u: HhTerm, cls: LfExpr | None) -> LfExpr:
        if isinstance(cls, Pi):
            body = u.body if isinstance(u, HLam) else HApp(h_shift(u), HBound(0))
            self.stack.append(cls.annot)
            inner = self.go(body, cls.body)
            self.stack.pop()
            return Lam(cls.hint, cls.annot, inner)
        head, args = hspine(u)
        match head:
            case HMeta() as m:
                if self.close is None:
                    raise ReconstructError(f"not an encoding: unresolved variable ?{m.name}")
                if args:
                    raise ReconstructError(f"residual variable ?{m.name} is applied")
                if cls is None or cls.has_meta:
                    raise ReconstructError(f"residual variable ?{m.name} has no known classifier")
                return self.go(self.close(m, cls), cls)
            case HLam():
                raise ReconstructError("not an encoding: abstraction without product classifier")
        lf = lf_head(head)
        cur = head_classifier(lf, self.sig, self.stack)
        if cur is None or classifier_sort(cur) == "kind":
            raise ReconstructError(f"not an encoding: unknown head {head}")
        out: list[LfExpr] = []
        for a in args:
            if not isinstance(cur, Pi):
                raise ReconstructError(f"not an encoding: {lf} applied too far")
            arg_lf = self.go(a, cur.annot)
            out.append(arg_lf)
            cur = codomain(cur, arg_lf)
        if isinstance(cur, Pi) and cls is not None:
            raise ReconstructError(f"not an encoding: {lf} under-applied")
        return make_app(lf, out)


# ---------------------------------------------------------------------------
# Closing residual meta-variables
# ---------------------------------------------------------------------------


def finalize_metavars(sess: QuerySession, solution: Solution) -> tuple[LfExpr, LfExpr, dict[str, LfExpr]]:
    """Close the query type of `sess` under `solution`, re-check it, and
    decode the proof against it; each residual meta-variable is closed where
    decoding meets it.  Returns the closed type, the decoded closed proof,
    and the value of each query variable that closed the type.  Idempotent
    when the solution is already closed."""
    run = _Closing(sess, dict(solution.bindings))
    closed_type = run.close_query(sess.query_type, None)
    if sess.query_type.has_meta:  # a closed query type was checked by the session
        try:
            check_type(sess.sig, closed_type)
        except KernelError as e:
            raise ReconstructError(f"ill-typed binding: {e}") from None
    lf_proof = decode_term(sess.sig, resolve_term(run.store, sess.proof_meta), closed_type, close=run.residual)
    return closed_type, lf_proof, run.values


class _Closing:
    """The state of one `finalize_metavars` call: the binding store, which
    each auxiliary search extends, the classifiers of the binders that
    `close_query` has crossed, innermost last, and the value of each query
    variable as `close_query` decoded it."""

    __slots__ = ("sess", "store", "stack", "values")

    def __init__(self, sess: QuerySession, store: dict[int, HhTerm]):
        self.sess = sess
        self.store = store
        self.stack: list[LfExpr] = []
        self.values: dict[str, LfExpr] = {}

    def close_query(self, e: LfExpr, expected: LfExpr | None) -> LfExpr:
        """`e` with each query variable decoded from the store and recorded
        in `values`; the user's binder names are kept."""
        sess = self.sess
        match e:
            case Meta(n):
                if n not in sess.metas:
                    raise ReconstructError(f"unknown meta-variable {n!r}")
                value = decode_term(sess.sig, resolve_term(self.store, sess.metas[n]), expected, self.stack, self.residual)
                self.values[n] = value
                return value
            case Pi(h, annot, body) | Lam(h, annot, body):
                annot2 = self.close_query(annot, None)
                self.stack.append(annot2)
                inner = self.close_query(body, expected.body if isinstance(expected, Pi) else None)
                self.stack.pop()
                return type(e)(h, annot2, inner)
            case _:
                head, args = spine(e)
                if isinstance(head, Meta):
                    # an applied query variable: decoded at its own classifier
                    # and applied to the closed arguments
                    cls = sess.classifiers.get(head.name)
                    if cls is None:
                        raise ReconstructError(f"applied query variable {head.name} has no recorded classifier")
                    fn = self.close_query(head, cls)
                else:
                    cls = head_classifier(head, sess.sig, self.stack)
                    fn = head
                out: list[LfExpr] = []
                for arg in args:
                    arg2 = self.close_query(arg, cls.annot if isinstance(cls, Pi) else None)
                    out.append(arg2)
                    cls = codomain(cls, arg2) if isinstance(cls, Pi) else None
                return make_app(fn, out) if fn is head else beta_normalize(make_app(fn, out))

    def residual(self, m: HMeta, cls: LfExpr) -> HhTerm:
        """The value of the residual variable `m` at the closed classifier
        `cls`: an auxiliary search binds it to its first inhabitant, unless
        an earlier occurrence already did."""
        if m.id not in self.store:
            sess = self.sess
            goal = inhabitation_goal(sess.sig, cls, m, sess.program.mode)
            sol = next(Solver(sess.program, sess.limits, bindings=self.store).solve(goal, iterative=True), None)
            if sol is None:
                raise ReconstructError(f"uninhabited residual type: {pretty_print(cls)}")
            self.store = dict(sol.bindings)
        return resolve_term(self.store, m)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def certify(sess: QuerySession, solution: Solution) -> CertifiedAnswer:
    """Close and decode one solver answer of `sess`, then re-check it with
    the kernel."""
    try:
        closed_type, lf_proof, bindings = finalize_metavars(sess, solution)
        derivation = check_object(sess.sig, lf_proof, closed_type)
        return CertifiedAnswer(lf_proof, closed_type, derivation, solution.counters, "certified", bindings=bindings)
    except (ReconstructError, KernelError) as e:
        return CertifiedAnswer(None, None, None, solution.counters, "rejected", str(e))


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


class QuerySession:
    """Wire one query through translation, search, and certification.

    The session owns its query's variables: it normalizes the query type at
    `type`, recording in `classifiers` the classifier of each variable that
    normalizing meets (see `normalize`), and kernel-checks a query type that
    has no variable before any search."""

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
        self.classifiers: dict[str, LfExpr] = {}
        self.query_type = normalize(query_type, TYPE, sig, metas=self.classifiers)
        if not self.query_type.has_meta:
            check_type(sig, self.query_type)
        self.mode = mode
        self.limits = limits
        self.program = program if program is not None else translate(sig, mode)
        self.goal, self.proof_meta = translate_query(sig, self.query_type, mode)
        metas = collect_metas(self.goal)
        self.metas = {n: m for n, m in metas.items() if m.id != self.proof_meta.id}
        self.solver = Solver(self.program, limits, trace)

    def answers(self, iterative: bool = False) -> Iterator[tuple[Solution, CertifiedAnswer]]:
        for sol in self.solver.solve(self.goal, iterative=iterative):
            yield sol, certify(self, sol)

    def first_answer(self, iterative: bool = False) -> tuple[Solution, CertifiedAnswer] | None:
        return next(self.answers(iterative=iterative), None)

    def binding_report(self, answer: CertifiedAnswer) -> dict[str, LfExpr]:
        """The value of each query variable in a certified answer, in the
        order of `metas`: the terms that closing substituted into the query
        type, decoded once, by certification."""
        if not answer.certified:
            return {}
        return {n: answer.bindings[n] for n in self.metas}
