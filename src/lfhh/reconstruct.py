"""Decode solver bindings back into dependently typed terms and certify every
answer with the trusted kernel.

Solver terms are LF expressions whose abstractions carry `NO_ANNOT` in place
of the binder's domain, which the kernel never accepts.  One decoder,
`decode_term`, puts the annotations back, reading them off the expected
classifier (and, under applications, off the head's declaration).  Residual
closing happens inside it: a meta-variable left unbound after search is
closed where the decoder meets it, by an auxiliary inhabitation search (same
program, same clause order) that binds it to its first inhabitant in the
binding store, and its value is decoded in its place.  Each auxiliary search
runs over the last solution and continues from its next ids, so it never
walks the store.  The store is the only record of residual variables, so a
variable met again is not searched for again.  The query type is closed
first, by a walk that keeps the user's binder names and decodes each query
variable it meets, and is re-checked; the values it decodes are the answer's
bindings.  The proof is then decoded once against the closed type.
Certification runs the kernel on the closed type and proof; a rejection here
on solver output would falsify the translation-correctness property and is
reported, never swallowed.

`QuerySession` owns the query: it normalizes the query type, keeps the one
table of its variables, and kernel-checks a query type without variables,
for the command line and library callers alike.  A query variable's
classifier is read off its position when closing meets it: at an
applied occurrence `M x1 … xn`, the product of the classifiers of the
binders `x1 … xn` over the classifier expected there.
It keeps no search: each one runs on a new `Solver`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .hhf_logic import ClauseSet, inhabitation_goal, translate, translate_query
from .hhf_prover import Counters, Limits, Solution, Solver, _resolve
from .lf_syntax import (
    App,
    Bound,
    HMeta,
    LfError,
    LfExpr,
    Lam,
    Meta,
    Pi,
    Record,
    Signature,
    TYPE,
    _shift,
    classifier_sort,
    beta_normalize,
    head_classifier,
    instance,
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
    __match_args__ = __slots__[:-1]  # all but the bindings, which lf_type holds

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
    t: LfExpr,
    expected: LfExpr | None,
    stack: Sequence[LfExpr] = (),
    close: Callable[[HMeta, LfExpr], LfExpr] | None = None,
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

    The classifier of an argument is the head's binder domain instantiated
    with the decoded arguments before it, once per application.  A subterm
    whose arguments all decode to themselves, one made of constants, bound
    variables and applications alone at a base classifier, comes back as
    the same object.  A closed node decodes the same wherever it occurs, so
    each distinct closed node is decoded once at each classifier object it
    meets, and a node shared in `t` decodes to a node shared in the
    result."""
    return _Decoder(sig, list(stack), close).go(t, expected)


class _Decoder:
    """The walk of one `decode_term` call."""

    __slots__ = ("sig", "stack", "close", "decoded")

    def __init__(self, sig: Signature, stack: list[LfExpr], close: Callable[[HMeta, LfExpr], LfExpr] | None):
        self.sig = sig
        self.stack = stack
        self.close = close
        # (id of a closed node, id of its classifier) -> (node, classifier, result)
        self.decoded: dict[tuple[int, int], tuple[LfExpr, LfExpr | None, LfExpr]] = {}

    def go(self, u: LfExpr, cls: LfExpr | None) -> LfExpr:
        if u.scope != 0:
            return self.decode(u, cls)
        key = (id(u), id(cls))
        hit = self.decoded.get(key)
        if hit is None:
            hit = self.decoded[key] = (u, cls, self.decode(u, cls))
        return hit[2]

    def decode(self, u: LfExpr, cls: LfExpr | None) -> LfExpr:
        if isinstance(cls, Pi):
            body = u.body if u.__class__ is Lam else App(_shift(u, 1, 0), Bound(0))
            self.stack.append(cls.annot)
            inner = self.go(body, cls.body)
            self.stack.pop()
            return Lam(cls.hint, cls.annot, inner)
        head, args = spine(u)
        if head.__class__ is HMeta:
            if self.close is None:
                raise ReconstructError(f"not an encoding: unresolved variable ?{head.name}")
            if args:
                raise ReconstructError(f"residual variable ?{head.name} is applied")
            if cls is None or cls.has_meta:
                raise ReconstructError(f"residual variable ?{head.name} has no known classifier")
            return self.go(self.close(head, cls), cls)
        if head.__class__ is Lam:
            raise ReconstructError("not an encoding: abstraction without product classifier")
        cur = head_classifier(head, self.sig, self.stack)
        if cur is None or classifier_sort(cur) == "kind":
            raise ReconstructError(f"not an encoding: unknown head {head}")
        out: list[LfExpr] = []
        for a in args:
            if not isinstance(cur, Pi):
                raise ReconstructError(f"not an encoding: {head} applied too far")
            out.append(self.go(a, instance(cur.annot, out)))
            cur = cur.body
        if isinstance(cur, Pi) and cls is not None:
            raise ReconstructError(f"not an encoding: {head} under-applied")
        return u if all(a is b for a, b in zip(out, args)) else make_app(head, out)


# ---------------------------------------------------------------------------
# Closing residual meta-variables
# ---------------------------------------------------------------------------


def finalize_metavars(sess: QuerySession, solution: Solution) -> tuple[LfExpr, LfExpr, dict[str, LfExpr]]:
    """Close the query type of `sess` under `solution`, re-check it, and
    decode the proof against it; each residual meta-variable is closed where
    decoding meets it.  Returns the closed type, the decoded closed proof,
    and the value of each query variable that closed the type.  Idempotent
    when the solution is already closed."""
    run = _Closing(sess, solution)
    closed_type = run.close_query(sess.query_type, None)
    if sess.query_type.has_meta:  # a closed query type was checked by the session
        try:
            check_type(sess.sig, closed_type)
        except KernelError as e:
            raise ReconstructError(f"ill-typed binding: {e}") from None
    lf_proof = decode_term(sess.sig, run.value(sess.proof_meta), closed_type, close=run.residual)
    return closed_type, lf_proof, run.values


class _Closing:
    """The state of one `finalize_metavars` call: the last solution, the
    answer or the latest auxiliary search's, whose store each auxiliary
    search extends; `resolved`, the one memo of resolving under that store;
    the classifiers of the binders that `close_query` has crossed, innermost
    last; and the value of each query variable as `close_query` decoded it."""

    __slots__ = ("sess", "last", "resolved", "stack", "values")

    def __init__(self, sess: QuerySession, last: Solution):
        self.sess = sess
        self.last = last
        self.resolved: dict[int, tuple[LfExpr, LfExpr]] = {}
        self.stack: list[LfExpr] = []
        self.values: dict[str, LfExpr] = {}

    def value(self, m: HMeta) -> LfExpr:
        """`m` resolved under the last solution's store."""
        return _resolve(m, self.last.bindings, self.resolved)

    def close_query(self, e: LfExpr, expected: LfExpr | None) -> LfExpr:
        """`e` with each query variable decoded from the store and recorded
        in `values`; the user's binder names are kept."""
        sess = self.sess
        node = e.__class__
        if node is Meta:
            value = decode_term(sess.sig, self.value(sess.metas[e.name]), expected, self.stack, self.residual)
            self.values[e.name] = value
            return value
        if node is Pi or node is Lam:
            annot2 = self.close_query(e.annot, None)
            self.stack.append(annot2)
            inner = self.close_query(e.body, expected.body if isinstance(expected, Pi) else None)
            self.stack.pop()
            return node(e.hint, annot2, inner)
        head, args = spine(e)
        if isinstance(head, Meta):
            # an applied query variable: decoded at the classifier its
            # position fixes and applied to the closed arguments
            cls = self.applied_classifier(head, args, expected)
            fn = self.close_query(head, cls)
        else:
            cls = head_classifier(head, sess.sig, self.stack)
            fn = head
        out: list[LfExpr] = []
        for arg in args:
            out.append(self.close_query(arg, instance(cls.annot, out) if isinstance(cls, Pi) else None))
            cls = cls.body if isinstance(cls, Pi) else None
        return make_app(fn, out) if fn is head else beta_normalize(make_app(fn, out))

    def applied_classifier(self, m: Meta, args: list[LfExpr], expected: LfExpr | None) -> LfExpr:
        """The classifier of the query variable `m` applied to `args` at
        `expected`: the product of the classifiers of the binders that
        `args` name, over `expected`.  The arguments must be distinct bound
        variables, and either the innermost ones in order or at closed
        classifiers with `expected` closed too; the product must be closed."""
        stack = self.stack
        n = len(args)
        indices = [a.index for a in args if a.__class__ is Bound]
        if expected is not None and len(set(indices)) == n and max(indices) < len(stack):
            annots = [stack[-1 - i] for i in indices]
            if indices == list(range(n - 1, -1, -1)) or expected.scope == 0 and all(a.scope == 0 for a in annots):
                cls = expected
                for annot in reversed(annots):
                    cls = Pi("_", annot, cls)
                if cls.scope == 0:
                    return cls
        raise ReconstructError(f"applied query variable {m.name} has no classifier fixed by its position")

    def residual(self, m: HMeta, cls: LfExpr) -> LfExpr:
        """The value of the residual variable `m` at the closed classifier
        `cls`: an auxiliary search binds it to its first inhabitant, unless
        an earlier occurrence already did.  The search runs over the last
        solution and numbers its variables past that solution's."""
        if m.id not in self.last.bindings:
            sess = self.sess
            goal = inhabitation_goal(sess.sig, cls, m, sess.program.mode)
            sol = next(Solver(sess.program, sess.limits, store=self.last).solve(goal, iterative=True), None)
            if sol is None:
                raise ReconstructError(f"uninhabited residual type: {pretty_print(cls)}")
            self.last = sol
            self.resolved = {}
        return self.value(m)


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
    `type`, keeps in `metas` the one table of its variables for search,
    closing and reports, whatever the mode, and kernel-checks a query type
    that has no variable before any search.  Closing reads a variable's
    classifier off each position it occurs at."""

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
        self.query_type = normalize(query_type, TYPE, sig)
        if not self.query_type.has_meta:
            check_type(sig, self.query_type)
        self.mode = mode
        self.limits = limits
        self.trace = trace
        self.program = program if program is not None else translate(sig, mode)
        self.goal, self.proof_meta, self.metas = translate_query(sig, self.query_type, mode)
        # the store before search: empty, and numbered past every variable
        # of the table, so search never reuses the id of one the goal drops
        self.start = Solution({}, Counters(), (), 1 + max(m.id for m in (self.proof_meta, *self.metas.values())))

    def search(self) -> Solver:
        """A new `Solver` for one search of the query: the session's program,
        limits and trace setting over `start`.  A caller that reads the
        search's flags or counters once its stream ends passes it to
        `solutions` or `answers`."""
        return Solver(self.program, self.limits, self.trace, self.start)

    def solutions(self, solver: Solver, iterative: bool = False) -> Iterator[Solution]:
        """The answers of `solver`'s search of the query, uncertified."""
        return solver.solve(self.goal, iterative=iterative)

    def answers(
        self, iterative: bool = False, solver: Solver | None = None
    ) -> Iterator[tuple[Solution, CertifiedAnswer]]:
        """Each answer of a search of the query with its certificate.  The
        search is `solver`'s, or a new one's; every call searches afresh."""
        for sol in self.solutions(solver or self.search(), iterative):
            yield sol, certify(self, sol)

    def first_answer(
        self, iterative: bool = False, solver: Solver | None = None
    ) -> tuple[Solution, CertifiedAnswer] | None:
        return next(self.answers(iterative, solver), None)

    def binding_report(self, answer: CertifiedAnswer) -> dict[str, LfExpr]:
        """The value of each query variable in a certified answer, in the
        order of `metas`: the terms that closing substituted into the query
        type, decoded once, by certification."""
        if not answer.certified:
            return {}
        return {n: answer.bindings[n] for n in self.metas}
