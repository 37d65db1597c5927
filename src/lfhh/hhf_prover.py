"""Depth-first proof search for the generated clause programs.

Goals are truth, implications, universals, and atoms.  Truth succeeds at unit
cost; a universal introduces a fresh scoped constant (eigenvariable) at a new
level; an implication assumes its antecedent as a program clause for the
subgoal; an atom backchains: clauses are tried in order (dynamic assumptions
newest first, then the static program), the quantifier prefix is renamed to
fresh unification variables, heads are unified, and guards are proved left to
right one level deeper.

Clauses are compiled once into a quantifier prefix, guard templates and a
head template; static clauses when the first Solver over a `ClauseSet` is
made (the result is kept on the set), assumptions when they are pushed.
Renaming makes one fresh variable per binder and substitutes the whole prefix
into a template in a single pass: the head first, the guards only once the
head has unified.  Before renaming, a clause is skipped when its head
constant cannot match the goal (first-argument indexing): the subject's head
constant against a rigid goal subject, or the classifier's family constant
when the goal subject is an unbound variable.  A skipped clause still uses up
the variable ids that renaming and the failed unification would have taken,
so variable names such as `?M9` in traces and answers do not depend on the
index.

Unification stays inside the pattern fragment: a unification variable may
only be applied to distinct eigenvariables or locally bound variables.
Problems outside the fragment fail the branch and raise a diagnostic flag on
the state; they are never silently mis-solved and never suspended.  Scope is
enforced by levels: no variable is ever bound to a term containing an
eigenvariable introduced after it (out-of-scope occurrences under other
variables are pruned away).

Counters: `backchain_steps` counts committed backchain applications only;
truth discharges are counted separately; `unify_calls` counts top-level
unification invocations and is the resource budget; clauses skipped by the
index are not counted.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, replace
from typing import Iterator

from .hhf_logic import (
    Clause,
    ClauseSet,
    FAtom,
    FForall,
    FImplies,
    FTop,
    HApp,
    HBound,
    HConst,
    HEigen,
    HLam,
    HMeta,
    HhFormula,
    HhTerm,
    SimpleType,
    collect_metas,
    f_instantiate,
    h_instantiate,
    happs,
    hspine,
    print_formula,
    print_term,
)

__all__ = [
    "Limits",
    "Counters",
    "Solution",
    "Solver",
    "EquivalenceReport",
    "solve",
    "pattern_unify",
    "counters",
    "resolve_term",
    "check_depth_equivalence",
]

DEFAULT_DEPTH = 512
DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class Limits:
    depth: int = DEFAULT_DEPTH
    budget: int = DEFAULT_BUDGET


@dataclass
class Counters:
    backchain_steps: int = 0
    top_steps: int = 0
    unify_calls: int = 0


class BudgetExceeded(Exception):
    pass


class _UnifyFail(Exception):
    """Internal, caught inside unification: occurs/scope violation."""


def resolve_term(bindings: dict[int, HhTerm], t: HhTerm) -> HhTerm:
    """Fully dereference and beta-normalize `t` under `bindings`."""
    t = _walk(bindings, t)
    match t:
        case HLam(h, b):
            return HLam(h, resolve_term(bindings, b))
        case HApp():
            head, args = hspine(t)
            head = resolve_term(bindings, head) if isinstance(head, HLam) else head
            return happs(head, [resolve_term(bindings, a) for a in args])
        case _:
            return t


def _walk(bindings: dict[int, HhTerm], t: HhTerm) -> HhTerm:
    """Head-dereference and head-beta-reduce."""
    while True:
        head, args = hspine(t)
        if isinstance(head, HMeta):
            b = bindings.get(head.id)
            if b is not None:
                t = happs(b, args)
                continue
        if isinstance(head, HLam) and args:
            t = happs(h_instantiate(head.body, (args[0],)), args[1:])
            continue
        return t


def term_metas(t: HhTerm) -> list[HMeta]:
    out: list[HMeta] = []

    def go(u: HhTerm) -> None:
        match u:
            case HMeta() as m:
                if all(m.id != x.id for x in out):
                    out.append(m)
            case HApp(f, a):
                go(f)
                go(a)
            case HLam(_, b):
                go(b)
            case _:
                pass

    go(t)
    return out


def _term_eigens(t: HhTerm) -> list[HEigen]:
    out: list[HEigen] = []

    def go(u: HhTerm) -> None:
        match u:
            case HEigen() as e:
                out.append(e)
            case HApp(f, a):
                go(f)
                go(a)
            case HLam(_, b):
                go(b)
            case _:
                pass

    go(t)
    return out


# ---------------------------------------------------------------------------
# Compiled clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledClause:
    """A clause split once into the parts that backchaining uses.

    Templates refer to the quantifier prefix by de Bruijn index: a guard
    sees the `scope` outermost binders, the head sees all of them.  The head
    constants index the clause: `subject_head` is the constant at the head of
    the head's subject, and `family_head` the one at the head of its
    classifier, recorded only when the subject is that constant applied to
    distinct prefix binders (`subject_vars` of them), the shape every
    translated declaration has."""

    origin: str
    prefix: tuple[tuple[str, SimpleType], ...]
    guards: tuple[tuple[int, HhFormula], ...]
    head: FAtom | None
    subject_head: str | None
    family_head: str | None
    subject_vars: int


def compile_clause(clause: Clause) -> CompiledClause:
    prefix: list[tuple[str, SimpleType]] = []
    guards: list[tuple[int, HhFormula]] = []
    f = clause.formula
    while True:
        match f:
            case FForall(hint, st, body):
                prefix.append((hint, st))
                f = body
            case FImplies(ant, cons):
                guards.append((len(prefix), ant))
                f = cons
            case _:
                break
    head = f if isinstance(f, FAtom) else None
    subject_head = family_head = None
    subject_vars = 0
    if head is not None:
        sh, sargs = hspine(head.subject)
        if isinstance(sh, HConst):
            subject_head = sh.name
            fh, _ = hspine(head.classifier)
            binders = {a.index for a in sargs if isinstance(a, HBound) and a.index < len(prefix)}
            if isinstance(fh, HConst) and len(binders) == len(sargs):
                family_head = fh.name
                subject_vars = len(sargs)
    return CompiledClause(
        clause.origin, tuple(prefix), tuple(guards), head, subject_head, family_head, subject_vars
    )


def compiled_program(program: ClauseSet) -> tuple[CompiledClause, ...]:
    """The compiled static clauses of `program`, built on first use and kept
    on the set itself, so every Solver over one set shares them."""
    if program.compiled is None:
        object.__setattr__(program, "compiled", tuple(compile_clause(c) for c in program.clauses))
    return program.compiled


@dataclass(frozen=True)
class Solution:
    """One answer: a frozen snapshot of the binding store plus bookkeeping."""

    bindings: dict[int, HhTerm]
    counters: Counters
    trace: tuple[str, ...] = ()

    def value(self, m: HhTerm) -> HhTerm:
        return resolve_term(self.bindings, m)

    def open_metas(self, t: HhTerm) -> list[HMeta]:
        """Unification variables left uninstantiated in the resolved term."""
        return term_metas(self.value(t))


class Solver:
    """One search state; not shared between threads.  Distinct solves may run
    concurrently, each owning its own Solver."""

    def __init__(
        self,
        program: ClauseSet,
        limits: Limits | None = None,
        trace: bool = False,
        bindings: dict[int, HhTerm] | None = None,
    ):
        self.program = program
        self.static = compiled_program(program)
        self.limits = limits or Limits()
        # each backchain level costs a handful of interpreter frames
        need = 1000 + 16 * self.limits.depth
        if sys.getrecursionlimit() < need:
            sys.setrecursionlimit(need)
        self.bindings: dict[int, HhTerm] = dict(bindings) if bindings else {}
        self.dynamic: list[CompiledClause] = []
        self.trail: list[int] = []
        self.counters = Counters()
        self.level = 0
        self.depth_hit = False
        self.budget_hit = False
        self.non_pattern_seen = False
        self.trace_on = trace
        self.trace: list[str] = []
        self._next_meta = 1
        self._eigen_ids = itertools.count(1)

    # -- public entry points --------------------------------------------------

    def solve(self, goal: HhFormula, iterative: bool = False) -> Iterator[Solution]:
        """Lazily enumerate solutions in clause order with chronological
        backtracking.  The stream ends on exhaustion; `depth_hit` and
        `budget_hit` distinguish resource cutoffs from finite failure.

        With `iterative` the depth bound grows from 1 up to the configured
        limit and all solutions of the first successful bound are streamed;
        search stops early when a bound is exhausted without being hit, since
        deeper bounds cannot change a finite failure.
        """
        self._seed_ids(goal)
        try:
            if not iterative:
                for _ in self._prove(goal, 0):
                    yield Solution(dict(self.bindings), replace(self.counters), tuple(self.trace))
                return
            full = self.limits
            for d in range(1, full.depth + 1):
                self.limits = replace(full, depth=d)
                self.depth_hit = False
                found = False
                for _ in self._prove(goal, 0):
                    found = True
                    yield Solution(dict(self.bindings), replace(self.counters), tuple(self.trace))
                if found or not self.depth_hit:
                    self.limits = full
                    return
            self.limits = full
            self.depth_hit = True
        except BudgetExceeded:
            self.budget_hit = True

    def unify(self, a: HhTerm, b: HhTerm) -> bool:
        """Public unification entry: transactional (rolls back on failure)."""
        mark = self._mark()
        ok = self._unify(a, b)
        if not ok:
            self._undo(mark)
        return ok

    def resolve(self, t: HhTerm) -> HhTerm:
        return resolve_term(self.bindings, t)

    # -- bookkeeping -----------------------------------------------------------

    def _seed_ids(self, goal: HhFormula) -> None:
        taken = [m.id for m in collect_metas(goal).values()]
        taken.extend(self.bindings.keys())
        eigens = [0]
        for t in self.bindings.values():
            taken.extend(m.id for m in term_metas(t))
            eigens.extend(e.id for e in _term_eigens(t))
        if taken:
            self._next_meta = max(taken) + 1
        if max(eigens):
            self._eigen_ids = itertools.count(max(eigens) + 1)

    def _fresh_meta(self, hint: str, stype, level: int | None = None) -> HMeta:
        i = self._next_meta
        self._next_meta += 1
        base = hint if hint and hint != "_" else "V"
        return HMeta(f"{base}{i}", i, stype, self.level if level is None else level)

    def _fresh_eigen(self, hint: str) -> HEigen:
        i = next(self._eigen_ids)
        base = hint if hint and hint != "_" else "c"
        return HEigen(f"{base}!{i}", i, self.level)

    def _mark(self) -> tuple[int, int]:
        return len(self.trail), len(self.trace)

    def _undo(self, mark: tuple[int, int]) -> None:
        n, tn = mark
        while len(self.trail) > n:
            del self.bindings[self.trail.pop()]
        if self.trace_on and len(self.trace) > tn:
            del self.trace[tn:]

    def _set(self, m: HMeta, value: HhTerm) -> None:
        self.bindings[m.id] = value
        self.trail.append(m.id)

    def _note(self, event: str) -> None:
        if self.trace_on:
            self.trace.append(event)

    # -- search ----------------------------------------------------------------

    def _prove(self, goal: HhFormula, depth: int) -> Iterator[None]:
        match goal:
            case FTop():
                self.counters.top_steps += 1
                self._note("top")
                yield
            case FForall(hint, _, body):
                self.level += 1
                e = self._fresh_eigen(hint)
                self._note(f"all {e.name}")
                try:
                    yield from self._prove(f_instantiate(body, (e,)), depth)
                finally:
                    self.level -= 1
            case FImplies(ant, cons):
                self.dynamic.append(compile_clause(Clause("assumption", ant)))
                self._note(f"imp+ {print_formula(ant)}")
                try:
                    yield from self._prove(cons, depth)
                finally:
                    self.dynamic.pop()
            case FAtom():
                yield from self._prove_atom(goal, depth)
            case _:
                raise TypeError(f"not a goal: {goal!r}")

    def _prove_seq(self, goals: list[HhFormula], depth: int) -> Iterator[None]:
        if not goals:
            yield
            return
        for _ in self._prove(goals[0], depth):
            yield from self._prove_seq(goals[1:], depth)

    def _prove_atom(self, goal: FAtom, depth: int) -> Iterator[None]:
        if depth >= self.limits.depth:
            self.depth_hit = True
            return
        key, want, pruned, non_pattern = self._index(goal)
        for clause in itertools.chain(reversed(self.dynamic), self.static):
            if key is not None:
                have = getattr(clause, key)
                if have is not None and have != want:
                    self._next_meta += len(clause.prefix) + pruned * clause.subject_vars
                    self.non_pattern_seen |= non_pattern
                    continue
            mark = self._mark()
            metas = [self._fresh_meta(hint, st) for hint, st in clause.prefix]
            head = clause.head
            if (
                head is not None
                and self._unify(h_instantiate(head.subject, metas), goal.subject)
                and self._unify(h_instantiate(head.classifier, metas), goal.classifier)
            ):
                self.counters.backchain_steps += 1
                if self.trace_on:
                    inst = " ".join(print_term(self.resolve(m), 2) for m in metas)
                    self._note(f"bc {clause.origin}{' ' + inst if inst else ''}")
                guards = [f_instantiate(g, metas[:scope]) for scope, g in clause.guards]
                yield from self._prove_seq(guards, depth + 1)
            self._undo(mark)

    def _index(self, goal: FAtom) -> tuple[str | None, str | None, int, bool]:
        """Which clauses cannot match `goal`, decided before renaming: those
        whose `key` head constant is set and differs from `want`.

        A rigid goal subject is compared on its head.  A flexible one would be
        bound to any clause's subject, so the classifier's head decides, and
        the caller replays the side effects of that skipped binding: it
        leaves the pattern fragment (`non_pattern`, which raises the flag)
        or, when the goal's variable is older than the current level, prunes
        one fresh variable per subject argument (`pruned` is then 1).  A
        skipped clause thus uses up exactly the variable ids a failed attempt
        would have."""
        subject = _walk(self.bindings, goal.subject)
        head, args = hspine(subject)
        match head:
            case HConst(name):
                return "subject_head", name, 0, False
            case HEigen() | HBound():
                return "subject_head", None, 0, False
            case HMeta():
                family, _ = hspine(_walk(self.bindings, goal.classifier))
                match family:
                    case HConst(name):
                        want = name
                    case HEigen() | HBound():
                        want = None
                    case _:
                        return None, None, 0, False
                if self._pattern(args) is None:
                    return "family_head", want, 0, True
                return "family_head", want, int(self.level > head.level), False
            case _:
                return None, None, 0, False

    # -- pattern unification -----------------------------------------------------

    def _unify(self, a: HhTerm, b: HhTerm) -> bool:
        self.counters.unify_calls += 1
        if self.counters.unify_calls > self.limits.budget:
            raise BudgetExceeded()
        return self._uni(a, b)

    def _uni(self, a: HhTerm, b: HhTerm) -> bool:
        a = _walk(self.bindings, a)
        b = _walk(self.bindings, b)
        if isinstance(a, HLam) or isinstance(b, HLam):
            i = next(self._eigen_ids)
            e = HEigen(f"u!{i}", i, self.level + 1)
            return self._uni(self._apply1(a, e), self._apply1(b, e))
        ha, aa = hspine(a)
        hb, ab = hspine(b)
        if isinstance(ha, HMeta) and isinstance(hb, HMeta) and ha.id == hb.id:
            return self._flex_same(ha, aa, ab)
        if isinstance(ha, HMeta):
            return self._bind(ha, aa, b)
        if isinstance(hb, HMeta):
            return self._bind(hb, ab, a)
        match ha, hb:
            case (HConst(n1), HConst(n2)):
                if n1 != n2:
                    return False
            case (HEigen(), HEigen()):
                if ha.id != hb.id:
                    return False
            case (HBound(k1), HBound(k2)):
                if k1 != k2:
                    return False
            case _:
                return False
        if len(aa) != len(ab):
            return False
        return all(self._uni(x, y) for x, y in zip(aa, ab))

    def _apply1(self, t: HhTerm, e: HhTerm) -> HhTerm:
        if isinstance(t, HLam):
            return h_instantiate(t.body, (e,))
        return HApp(t, e)

    def _as_var(self, t: HhTerm) -> HEigen | HBound | None:
        """Recognize an eigenvariable or local variable, possibly eta-expanded."""
        t = _walk(self.bindings, t)
        depth = 0
        while isinstance(t, HLam):
            t = _walk(self.bindings, t.body)
            depth += 1
        head, args = hspine(t)
        if len(args) != depth:
            return None
        for i, a in enumerate(args):
            aw = _walk(self.bindings, a)
            if not (isinstance(aw, HBound) and aw.index == depth - 1 - i):
                return None
        if isinstance(head, (HEigen, HBound)):
            if isinstance(head, HBound):
                # adjust for the lambdas stripped above
                return HBound(head.index - depth) if head.index >= depth else None
            return head
        return None

    def _pattern(self, args: list[HhTerm]) -> list[HEigen | HBound] | None:
        out: list[HEigen | HBound] = []
        seen: set = set()
        for a in args:
            v = self._as_var(a)
            if v is None:
                return None
            key = ("e", v.id) if isinstance(v, HEigen) else ("b", v.index)
            if key in seen:
                return None
            seen.add(key)
            out.append(v)
        return out

    def _flex_same(self, m: HMeta, aa: list[HhTerm], ab: list[HhTerm]) -> bool:
        if len(aa) != len(ab):
            return False
        if all(resolve_term(self.bindings, x) == resolve_term(self.bindings, y) for x, y in zip(aa, ab)):
            return True
        pa = self._pattern(aa)
        pb = self._pattern(ab)
        if pa is None or pb is None:
            self.non_pattern_seen = True
            return False
        n = len(pa)
        keep = [i for i in range(n) if pa[i] == pb[i]]
        inner = self._fresh_meta(m.name, m.stype, level=m.level)
        body: HhTerm = happs(inner, [HBound(n - 1 - i) for i in keep])
        for _ in range(n):
            body = HLam("w", body)
        self._set(m, body)
        return True

    def _bind(self, m: HMeta, args: list[HhTerm], rhs: HhTerm) -> bool:
        spine_vars = self._pattern(args)
        if spine_vars is None:
            self.non_pattern_seen = True
            return False
        posmap: dict = {}
        for k, v in enumerate(spine_vars):
            key = ("e", v.id) if isinstance(v, HEigen) else ("b", v.index)
            posmap[key] = k
        n = len(spine_vars)
        try:
            body = self._invert(rhs, m, posmap, n, 0)
        except _UnifyFail:
            return False
        for _ in range(n):
            body = HLam("w", body)
        self._set(m, body)
        return True

    def _invert(self, t: HhTerm, m: HMeta, posmap: dict, nargs: int, depth: int) -> HhTerm:
        """Rewrite `t` as a body for `m`'s binder prefix: spine variables map
        to their binder indices, older variables stay, newer ones must be
        pruned or fail.  Raises _UnifyFail on occurs/scope violations."""
        t = _walk(self.bindings, t)
        match t:
            case HLam(h, b):
                return HLam(h, self._invert(b, m, posmap, nargs, depth + 1))
            case _:
                pass
        head, args = hspine(t)
        if isinstance(head, HMeta):
            if head.id == m.id:
                raise _UnifyFail("occurs")
            return self._invert_under_meta(head, args, m, posmap, nargs, depth)
        new_head: HhTerm
        match head:
            case HConst():
                new_head = head
            case HBound(k):
                if k >= depth:
                    key = ("b", k - depth)
                    if key in posmap:
                        new_head = HBound(depth + nargs - 1 - posmap[key])
                    else:
                        raise _UnifyFail("scope (loose local variable)")
                else:
                    new_head = head
            case HEigen() as e:
                key = ("e", e.id)
                if key in posmap:
                    new_head = HBound(depth + nargs - 1 - posmap[key])
                elif e.level <= m.level:
                    new_head = e
                else:
                    raise _UnifyFail("scope")
            case _:
                raise _UnifyFail(f"cannot invert head {head!r}")
        return happs(new_head, [self._invert(a, m, posmap, nargs, depth) for a in args])

    def _invert_under_meta(
        self, g: HMeta, args: list[HhTerm], m: HMeta, posmap: dict, nargs: int, depth: int
    ) -> HhTerm:
        """Occurrence of another variable `g` inside the binding for `m`.
        Keep it when everything stays in scope; otherwise prune the offending
        spine positions by instantiating `g` with a narrower variable."""
        if g.level <= m.level:
            try:
                inv = [self._invert(a, m, posmap, nargs, depth) for a in args]
                return happs(g, inv)
            except _UnifyFail:
                pass  # fall through to pruning
        gvars = self._pattern(args)
        if gvars is None:
            self.non_pattern_seen = True
            raise _UnifyFail("non-pattern under variable")
        keep: list[int] = []
        inv_args: list[HhTerm] = []
        for i, v in enumerate(gvars):
            if isinstance(v, HBound) and v.index < depth:
                keep.append(i)
                inv_args.append(v)
                continue
            key = ("b", v.index - depth) if isinstance(v, HBound) else ("e", v.id)
            if key in posmap:
                keep.append(i)
                inv_args.append(HBound(depth + nargs - 1 - posmap[key]))
            elif isinstance(v, HEigen) and v.level <= m.level:
                keep.append(i)
                inv_args.append(v)
            # anything else is out of scope for m: pruned
        g2 = self._fresh_meta(g.name, g.stype, level=min(g.level, m.level))
        narrowed: HhTerm = happs(g2, [HBound(len(gvars) - 1 - i) for i in keep])
        for _ in range(len(gvars)):
            narrowed = HLam("w", narrowed)
        self._set(g, narrowed)
        return happs(g2, inv_args)


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


def solve(
    program: ClauseSet,
    goal: HhFormula,
    limits: Limits | None = None,
    trace: bool = False,
    iterative: bool = False,
) -> Iterator[Solution]:
    yield from Solver(program, limits, trace).solve(goal, iterative=iterative)


def pattern_unify(a: HhTerm, b: HhTerm, solver: Solver) -> bool:
    """Unify within the pattern fragment against the solver's store;
    bindings commit on success and roll back on failure."""
    return solver.unify(a, b)


def counters(solver: Solver) -> Counters:
    return replace(solver.counters)


@dataclass(frozen=True)
class EquivalenceReport:
    success_a: bool
    success_b: bool
    bindings_agree: bool | None
    resource_hit_a: bool
    resource_hit_b: bool
    counters_a: Counters
    counters_b: Counters

    @property
    def agree(self) -> bool:
        return self.success_a == self.success_b and self.bindings_agree is not False


def check_depth_equivalence(
    program_a: ClauseSet,
    program_b: ClauseSet,
    goal: HhFormula,
    limits: Limits | None = None,
    iterative: bool = False,
) -> EquivalenceReport:
    """Run the same goal against two programs under the same limits; report
    success agreement and first-solution binding agreement up to renaming."""
    metas = list(collect_metas(goal).values())
    sa = Solver(program_a, limits)
    first_a = next(sa.solve(goal, iterative=iterative), None)
    sb = Solver(program_b, limits)
    first_b = next(sb.solve(goal, iterative=iterative), None)
    agree: bool | None = None
    if first_a is not None and first_b is not None:
        agree = all(first_a.value(m) == first_b.value(m) for m in metas)
    return EquivalenceReport(
        first_a is not None,
        first_b is not None,
        agree,
        sa.depth_hit or sa.budget_hit,
        sb.depth_hit or sb.budget_hit,
        replace(sa.counters),
        replace(sb.counters),
    )
