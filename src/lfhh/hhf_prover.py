"""Depth-first proof search for the generated clause programs.

Goals are truth, implications, universals, and atoms.  Truth succeeds at unit
cost; a universal introduces a fresh scoped constant (eigenvariable) at a new
level; an implication assumes its antecedent as a program clause for the
subgoal; an atom backchains: clauses are tried in order (dynamic assumptions
newest first, then the static program), heads are unified with the
quantifier prefix read as fresh unification variables, and guards are proved
one level deeper, in the order `compile_clause` fixes once per clause: left
to right, except that a guard on its own binder, such as ofApp's `hastype A
tp`, runs after the last later guard that mentions that binder, such as
`of M (arr A B)`.  So the guard checks a value the premise found instead of
enumerating candidates while the binder is unbound (mode-directed goal
ordering, as in Elf's mode analysis: Rohwedder & Pfenning, ESOP 1996).
Every guard still runs, and the printed translation is unchanged.  Every
goal carries its own level and assumptions, so a guard never sees those of
a sibling guard proved before it.

Search is one loop, not a recursion: the goals still to prove are a linked
list, and a stack holds a choice point per committed backchain.  Backtracking
pops the newest one, undoes the trail and the trace to its mark and tries the
atom's remaining clauses, so the depth of a proof costs list entries, not
interpreter frames.

Clauses are compiled once into a quantifier prefix, guard templates and a
head template (static clauses on first use, kept on the `ClauseSet`;
assumptions when they are pushed).  The head template is unified with the
goal in place, and the prefix binders are registers, not variables: an
attempt reserves the ids of the binders' variables (binder i gets the i-th
of them) and starts with every register empty.  A binder that first meets a
closed term other than an abstraction holds that term, so it is never bound,
trailed or undone; its variable is made, with its reserved id and name, only
when the binder meets any other term, when a template part has to be
instantiated (an abstraction or a variable head, or a goal part that is an
abstraction or flexible), or when the register is still empty after the head
unified.  Guards are instantiated with the registers once the head has
unified, so a guard shows a held binder's value where it would show the
binder's variable (a traced `imp+` line prints it so).  In the ground
checks of the append ladder every binder ends in a register, and the
binding store stays empty.  The head template is compiled too: its prefix
binders to register indices and each constant applied to open parts to the
constant and the parts' code, so unifying it walks no template spine.

A head's subject and classifier are unified in an order fixed once per
atom goal from the goal's shape, the type being the input and the proof
term the output (Pfenning & Schürmann, CADE 1999).  When the goal's subject
is flexible, its head an unbound variable, the classifier goes first: it
fills the registers the proof term is then built from, and a clause that
does not fit fails on it before the subject's variable is bound and the
clause's variables are raised over its spine.  Any other subject goes
first, since it may fix a binder that makes the classifier a pattern, as
in `mk : {t:nat -> num z} chk (t z)`.

Before an attempt, a clause is skipped when its head constant cannot match
the goal (first-argument indexing): the subject's head constant against a
rigid goal subject, or the classifier's family constant when the goal
subject is flexible.  Either way the attempt would have failed on that
constant before anything was bound, so a skipped clause uses up only the
ids of its binders' variables, and names such as `?M9` in traces and
answers do not depend on the index.

Every term node records its `scope` when it is built (see `hhf_logic`): a
closed term, one with no unification variable, no eigenvariable, no loose
bound variable and no beta-redex, is returned as is by dereferencing
(`resolve_term`), instantiation and inversion.  Binding a variable to a
ground term therefore stores that term itself in O(1) instead of walking and
rebuilding it, and the optimized ground check of a length-`n` list does
`n+1` steps with O(1) work per step.  Two closed terms without an
abstraction inside unify exactly when they are equal, so unification
compares them with `==`, which returns at once on a term and itself; a pair
with an abstraction is still compared node by node, because that uses up
eigenvariable ids, which traces show.

Unification stays inside the pattern fragment: a unification variable may
only be applied to distinct eigenvariables or locally bound variables.
Problems outside the fragment fail the branch and raise a diagnostic flag on
the state; they are never silently mis-solved and never suspended.  Scope is
enforced by levels: no variable is ever bound to a term containing an
eigenvariable introduced after it.  Binding a variable `m` applied to its
spine variables inverts the other side over one table, which maps each
spine variable to its position.  Another variable `g` met there that `m`
cannot keep as it is gets narrowed to a fresh variable at `m`'s level: the
positions of `g`'s spine out of `m`'s scope are pruned, and the fresh
variable is raised over the eigenvariables of `m`'s spine that `g` could
see but is not applied to, so that its value may still use them (on-the-fly
raising: Miller, J. Logic Comput. 1991; Nadathur & Linnell, ICLP 2005).

Counters: `backchain_steps` counts committed backchain applications only;
truth discharges are counted separately; `unify_calls` counts top-level
unification invocations and is the resource budget; clauses skipped by the
index are not counted.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Literal, Sequence

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
    f_instantiate,
    h_apply,
    h_instantiate,
    happs,
    hspine,
    open_leaves,
    print_formula,
    print_term,
)
from .lf_syntax import Record

__all__ = [
    "Limits",
    "Counters",
    "Solution",
    "Solver",
    "solve",
    "resolve_term",
]

DEFAULT_DEPTH = 512
DEFAULT_BUDGET = 10**7


class Limits(Record):
    __slots__ = ("depth", "budget")
    __match_args__ = ("depth", "budget")

    def __init__(self, depth: int = DEFAULT_DEPTH, budget: int = DEFAULT_BUDGET):
        self.depth = depth
        self.budget = budget


class Counters(Record):
    """The search's running counts; the one record that is written after
    construction, so it is not hashable."""

    __slots__ = ("backchain_steps", "top_steps", "unify_calls")
    __match_args__ = ("backchain_steps", "top_steps", "unify_calls")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, backchain_steps: int = 0, top_steps: int = 0, unify_calls: int = 0):
        self.backchain_steps = backchain_steps
        self.top_steps = top_steps
        self.unify_calls = unify_calls

    def copy(self) -> Counters:
        return Counters(self.backchain_steps, self.top_steps, self.unify_calls)


class BudgetExceeded(Exception):
    pass


class _UnifyFail(Exception):
    """Internal, caught inside unification: occurs/scope violation."""


def resolve_term(bindings: dict[int, HhTerm], t: HhTerm) -> HhTerm:
    """Fully dereference and beta-normalize `t` under `bindings`.  Each
    distinct node of `t` is resolved once, so a node that occurs several
    times, such as a variable bound once, resolves to one shared term."""
    return _resolve(t, bindings, {})


def _resolve(t: HhTerm, bindings: dict[int, HhTerm], memo: dict[int, tuple[HhTerm, HhTerm]]) -> HhTerm:
    """`resolve_term`'s walk; `memo` maps the id of a node to (node, result)."""
    if t.scope >= 0:
        return t
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    u = _walk(bindings, t)
    out = u
    if u.scope < 0:
        if u.__class__ is HLam:
            out = HLam(u.hint, _resolve(u.body, bindings, memo))
        elif u.__class__ is HApp:
            head, args = hspine(u)  # `_walk` left no abstraction at the head
            out = happs(head, [_resolve(a, bindings, memo) for a in args])
    memo[id(t)] = (t, out)
    return out


def _walk(bindings: dict[int, HhTerm], t: HhTerm) -> HhTerm:
    """Head-dereference and head-beta-reduce.  The spine is taken apart only
    for a bound variable or an abstraction at its head, and the leading
    abstractions are reduced in one instantiation."""
    while t.scope < 0:
        head = t
        while head.__class__ is HApp:
            head = head.fn
        if head.__class__ is HMeta and (b := bindings.get(head.id)) is not None:
            t = b if head is t else happs(b, hspine(t)[1])
        elif head.__class__ is HLam and head is not t:
            _, args = hspine(t)
            k = 0
            while k < len(args) and head.__class__ is HLam:
                head, k = head.body, k + 1
            t = happs(h_instantiate(head, args[:k]), args[k:])
        else:
            break
    return t


def _head(bindings: dict[int, HhTerm], t: HhTerm) -> HhTerm:
    """The head of `t`'s spine once `t` is walked."""
    if t.scope < 0:
        t = _walk(bindings, t)
    while t.__class__ is HApp:
        t = t.fn
    return t


def _lams(n: int, body: HhTerm) -> HhTerm:
    """`body` under `n` abstractions."""
    for _ in range(n):
        body = HLam("w", body)
    return body


def _meta(hint: str, i: int, level: int) -> HMeta:
    """The unification variable with id `i`, named after the binder `hint`."""
    base = hint if hint and hint != "_" else "V"
    return HMeta(f"{base}{i}", i, level)


# ---------------------------------------------------------------------------
# Compiled clauses
# ---------------------------------------------------------------------------


class CompiledClause(Record):
    """A clause split once into the parts that backchaining uses.

    Templates refer to the quantifier prefix by de Bruijn index: a guard
    sees the `scope` outermost binders, the head sees all of them.  `guards`
    are `(scope, guard)` pairs in the order they are proved, which
    `_schedule` sets.  `head` holds the code that `Solver._uni_head` runs
    for the head's subject and classifier (see `_head_code`).  The head
    constants index the clause: `subject_head` is the constant at the head
    of the head's subject, and `family_head` the one at the head of its
    classifier, recorded only when the subject is that constant applied to
    distinct prefix binders, the shape every translated declaration has."""

    __slots__ = ("origin", "prefix", "guards", "head", "subject_head", "family_head")
    __match_args__ = __slots__

    def __init__(
        self,
        origin: str,
        prefix: tuple[tuple[str, SimpleType], ...],
        guards: tuple[tuple[int, HhFormula], ...],
        head: tuple[_HeadCode, _HeadCode] | None,
        subject_head: str | None,
        family_head: str | None,
    ):
        self.origin = origin
        self.prefix = prefix
        self.guards = guards
        self.head = head
        self.subject_head = subject_head
        self.family_head = family_head


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
    if head is not None:
        sh, sargs = hspine(head.subject)
        if isinstance(sh, HConst):
            subject_head = sh.name
            fh, _ = hspine(head.classifier)
            binders = {a.index for a in sargs if isinstance(a, HBound) and a.index < len(prefix)}
            if isinstance(fh, HConst) and len(binders) == len(sargs):
                family_head = fh.name
    code = None
    if head is not None:
        code = _head_code(head.subject, len(prefix)), _head_code(head.classifier, len(prefix))
    return CompiledClause(clause.origin, tuple(prefix), _schedule(guards), code, subject_head, family_head)


def _schedule(guards: list[tuple[int, HhFormula]]) -> tuple[tuple[int, HhFormula], ...]:
    """`guards` in the order they are proved: a guard that mentions its own
    binder (the last one in its scope) goes just after the last later guard
    that mentions that binder, the premise that fixes it, so that it checks
    a value instead of enumerating one.  Every other guard keeps its place
    relative to the rest.  Guards are placed from the last one back, so a
    guard's anchor is already where it ends up."""
    if len(guards) < 2:
        return tuple(guards)
    order = list(range(len(guards)))
    for i in range(len(guards) - 2, -1, -1):
        scope, g = guards[i]
        if not _mentions(g, 0):
            continue
        for j in range(len(guards) - 1, i, -1):
            if _mentions(guards[j][1], guards[j][0] - scope):
                order.remove(i)
                order.insert(order.index(j) + 1, i)
                break
    return tuple(guards[i] for i in order)


def _mentions(t: HhTerm | HhFormula, k: int) -> bool:
    """Whether the term or formula `t` has the loose bound variable `k`,
    nested premises and abstractions included.  Tested by class, not by
    `match`, which costs twice as much on a call that every compiled clause
    makes."""
    if isinstance(t, HhTerm):
        if 0 <= t.scope <= k:
            return False
        if isinstance(t, HBound):
            return t.index == k
        if isinstance(t, HApp):
            return _mentions(t.fn, k) or _mentions(t.arg, k)
        return isinstance(t, HLam) and _mentions(t.body, k + 1)
    if isinstance(t, FAtom):
        return _mentions(t.subject, k) or _mentions(t.classifier, k)
    if isinstance(t, FImplies):
        return _mentions(t.antecedent, k) or _mentions(t.consequent, k)
    return isinstance(t, FForall) and _mentions(t.body, k + 1)


_HeadCode = HhTerm | int | tuple  # see `_head_code`


def _head_code(tmpl: HhTerm, nprefix: int) -> _HeadCode:
    """The code of the head template part `tmpl` over a prefix of `nprefix`
    binders: a prefix binder is the index of its register; a constant
    applied to parts not all closed is (the constant's name, the parts'
    code, `tmpl`); any other part, closed or to be instantiated, is `tmpl`
    itself."""
    if isinstance(tmpl, HBound):
        return nprefix - 1 - tmpl.index
    if tmpl.scope != 0:
        head, args = hspine(tmpl)
        if isinstance(head, HConst):
            return head.name, tuple(_head_code(a, nprefix) for a in args), tmpl
    return tmpl


_Goals = tuple | None  # (goal, depth, level, assumptions, rest), or None when empty


def compiled_program(program: ClauseSet) -> tuple[CompiledClause, ...]:
    """The compiled static clauses of `program`, built on first use and kept
    on the set itself, so every Solver over one set shares them."""
    if program.compiled is None:
        program.compiled = tuple(compile_clause(c) for c in program.clauses)
    return program.compiled


class Solution(Record):
    """One answer: a snapshot of the binding store plus bookkeeping."""

    __slots__ = ("bindings", "counters", "trace")
    __match_args__ = ("bindings", "counters", "trace")

    def __init__(self, bindings: dict[int, HhTerm], counters: Counters, trace: tuple[str, ...] = ()):
        self.bindings = bindings
        self.counters = counters
        self.trace = trace

    def value(self, m: HhTerm) -> HhTerm:
        return resolve_term(self.bindings, m)


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
        self.bindings: dict[int, HhTerm] = dict(bindings) if bindings else {}
        self.trail: list[int] = []
        self.counters = Counters()
        # the running clause attempt, which head unification reads: its
        # eigenvariable level, quantifier prefix and first variable id
        self.level = 0
        self._prefix: tuple[tuple[str, SimpleType], ...] = ()
        self._base = 0
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
        deeper bounds cannot change a finite failure.  The trace of a failed
        bound is dropped; variable and eigenvariable ids keep counting.
        """
        self._seed_ids(goal)
        try:
            if not iterative:
                for _ in self._search(goal):
                    yield Solution(dict(self.bindings), self.counters.copy(), tuple(self.trace))
                return
            full = self.limits
            for d in range(1, full.depth + 1):
                self.limits = Limits(d, full.budget)
                self.depth_hit = False
                found = False
                for _ in self._search(goal):
                    found = True
                    yield Solution(dict(self.bindings), self.counters.copy(), tuple(self.trace))
                if found or not self.depth_hit:
                    self.limits = full
                    return
                self.trace.clear()
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
        taken = [m.id for m in open_leaves(goal, HMeta, [])]
        taken.extend(self.bindings.keys())
        eigens = [0]
        for t in self.bindings.values():
            taken.extend(m.id for m in open_leaves(t, HMeta, []))
            eigens.extend(e.id for e in open_leaves(t, HEigen, []))
        if taken:
            self._next_meta = max(taken) + 1
        if max(eigens):
            self._eigen_ids = itertools.count(max(eigens) + 1)

    def _fresh_meta(self, hint: str, level: int) -> HMeta:
        i = self._next_meta
        self._next_meta += 1
        return _meta(hint, i, level)

    def _registers(self, prefix: tuple[tuple[str, SimpleType], ...]) -> list:
        """Empty registers for a clause attempt over `prefix`, one per binder;
        the ids of the binders' variables are reserved, binder i's being
        `base + i`, so they are the same whether or not a variable is made."""
        self._prefix = prefix
        self._base = self._next_meta
        self._next_meta += len(prefix)
        return [None] * len(prefix)

    def _binder_var(self, regs: list, i: int) -> HMeta:
        """Binder i's variable, made and put in its empty register."""
        m = regs[i] = _meta(self._prefix[i][0], self._base + i, self.level)
        return m

    def _filled(self, regs: list) -> list:
        """`regs` with a variable in every register that is still empty."""
        for i, r in enumerate(regs):
            if r is None:
                self._binder_var(regs, i)
        return regs

    def _fresh_eigen(self, hint: str, level: int) -> HEigen:
        i = next(self._eigen_ids)
        base = hint if hint and hint != "_" else "c"
        return HEigen(f"{base}!{i}", i, level)

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

    def _search(self, goal: HhFormula) -> Iterator[None]:
        """Yield once per proof of `goal`, with its bindings in place.  A goal
        record is `(goal, depth, level, assumptions, rest)`, assumptions
        oldest first; a choice point is `(record, next clause, mark, index,
        order)`."""
        goals: _Goals = (goal, 0, 0, (), None)
        stack: list[tuple[_Goals, int, tuple[int, int], tuple, tuple[int, int]]] = []
        while True:
            if goals is None:
                yield
                goals = False
            else:
                g, depth, level, assumptions, rest = goals
                if isinstance(g, FAtom):
                    if depth >= self.limits.depth:
                        self.depth_hit = True
                        goals = False
                    else:
                        goals = self._backchain(goals, 0, self._index(g), self._head_order(g), stack)
                elif isinstance(g, FTop):
                    self.counters.top_steps += 1
                    self._note("top")
                    goals = rest
                elif isinstance(g, FForall):
                    e = self._fresh_eigen(g.hint, level + 1)
                    self._note(f"all {e.name}")
                    goals = (f_instantiate(g.body, (e,)), depth, level + 1, assumptions, rest)
                elif isinstance(g, FImplies):
                    assumed = assumptions + (compile_clause(Clause("assumption", g.antecedent)),)
                    if self.trace_on:
                        self._note(f"imp+ {print_formula(g.antecedent)}")
                    goals = (g.consequent, depth, level, assumed, rest)
                else:
                    raise TypeError(f"not a goal: {g!r}")
            while goals is False:
                if not stack:
                    return
                record, pos, mark, index, order = stack.pop()
                self._undo(mark)
                goals = self._backchain(record, pos, index, order, stack)

    def _backchain(
        self, record: _Goals, pos: int, index: tuple, order: tuple[int, int], stack: list
    ) -> _Goals | Literal[False]:
        """Try the atom's clauses from position `pos` on, unifying the parts
        of each head in `order`.  On the first that unifies, push a choice
        point and return its guards followed by the rest; return False when
        none is left."""
        atom, depth, level, assumptions, rest = record
        key, want = index
        first, second = order
        parts = atom.subject, atom.classifier
        dynamic = len(assumptions)
        static = self.static
        end = dynamic + len(static)
        while pos < end:
            clause = assumptions[dynamic - 1 - pos] if pos < dynamic else static[pos - dynamic]
            pos += 1
            if key is not None:
                have = getattr(clause, key)
                if have is not None and have != want:
                    self._next_meta += len(clause.prefix)
                    continue
            self.level = level
            mark = self._mark()
            regs = self._registers(clause.prefix)
            head = clause.head
            if (
                head is not None
                and self._unify_head(head[first], parts[first], regs)
                and self._unify_head(head[second], parts[second], regs)
            ):
                self._filled(regs)
                self.counters.backchain_steps += 1
                if self.trace_on:
                    inst = " ".join(print_term(self.resolve(r), 2) for r in regs)
                    self._note(f"bc {clause.origin}{' ' + inst if inst else ''}")
                stack.append((record, pos, mark, index, order))
                goals = rest
                for scope, g in reversed(clause.guards):
                    goals = (f_instantiate(g, regs[:scope]), depth + 1, level, assumptions, goals)
                return goals
            self._undo(mark)
        return False

    def _index(self, goal: FAtom) -> tuple[str | None, str | None]:
        """Which clauses cannot match `goal`, decided before renaming: those
        whose `key` head constant is set and differs from `want`, the head
        constant of a rigid goal subject or else of the goal's classifier."""
        key, head = "subject_head", _head(self.bindings, goal.subject)
        if head.__class__ is HMeta:
            key, head = "family_head", _head(self.bindings, goal.classifier)
        if head.__class__ is HConst:
            return key, head.name
        if head.__class__ is HEigen or head.__class__ is HBound:
            return key, None
        return None, None

    def _head_order(self, goal: FAtom) -> tuple[int, int]:
        """The order in which a clause head's parts, 0 the subject and 1 the
        classifier, are unified with `goal`'s: the classifier first when the
        goal's subject is flexible, the subject first otherwise (see the
        module docstring)."""
        if goal.subject.scope < 0 and _head(self.bindings, goal.subject).__class__ is HMeta:
            return 1, 0
        return 0, 1

    # -- pattern unification -----------------------------------------------------

    def _unify(self, a: HhTerm, b: HhTerm) -> bool:
        self.counters.unify_calls += 1
        if self.counters.unify_calls > self.limits.budget:
            raise BudgetExceeded()
        return self._uni(a, b)

    def _unify_head(self, code: _HeadCode, t: HhTerm, regs: list) -> bool:
        """`_unify(h_instantiate(tmpl, values), t)` for the head template
        part `tmpl` of `code` and the binders' variables `values`, over the
        registers `regs` of the running clause attempt: the same verdict and
        effects, except that a binder held in its register has no binding
        (see `_uni_head`)."""
        self.counters.unify_calls += 1
        if self.counters.unify_calls > self.limits.budget:
            raise BudgetExceeded()
        return self._uni_head(code, t, regs)

    def _uni_head(self, code: _HeadCode, t: HhTerm, regs: list) -> bool:
        """`_uni(h_instantiate(tmpl, values), t)` without building the
        instance where the template part is first order.  A binder whose
        register is empty and meets a closed term other than an abstraction
        takes that term into its register, where `_bind` would have bound
        its variable to it: no binding, trail entry or undo.  Otherwise the
        binder's variable is made when first needed and unified.  A part
        with an abstraction or a variable head, or meeting an abstraction or
        a flexible term, is instantiated with the registers, every empty one
        given its variable."""
        if code.__class__ is int:
            r = regs[code]
            if r is None:
                if t.scope == 0 and not isinstance(t, HLam):
                    regs[code] = t
                    return True
                r = self._binder_var(regs, code)
            return self._uni(r, t)
        if code.__class__ is tuple:
            name, parts, tmpl = code
            b = t if t.scope >= 0 else _walk(self.bindings, t)
            if not isinstance(b, HLam):
                hb, bargs = hspine(b)
                if not isinstance(hb, HMeta):
                    if not (isinstance(hb, HConst) and hb.name == name and len(bargs) == len(parts)):
                        return False
                    for x, y in zip(parts, bargs):
                        if not self._uni_head(x, y, regs):
                            return False
                    return True
        else:
            tmpl = code
            if tmpl.scope == 0:
                return self._uni(tmpl, t)
        return self._uni(h_instantiate(tmpl, self._filled(regs)), t)

    def _uni(self, a: HhTerm, b: HhTerm) -> bool:
        if a.scope < 0:
            a = _walk(self.bindings, a)
        if b.scope < 0:
            b = _walk(self.bindings, b)
        if a.scope == 0 and b.scope == 0 and a.lam_free and b.lam_free:
            return a == b
        if isinstance(a, HLam) or isinstance(b, HLam):
            i = next(self._eigen_ids)
            e = HEigen(f"u!{i}", i, self.level + 1)
            return self._uni(h_apply(a, e), h_apply(b, e))
        ha, aa = hspine(a)
        hb, ab = hspine(b)
        if isinstance(ha, HMeta) and isinstance(hb, HMeta) and ha.id == hb.id:
            return self._flex_same(ha, aa, ab)
        if isinstance(ha, HMeta):
            return self._bind(ha, aa, b)
        if isinstance(hb, HMeta):
            return self._bind(hb, ab, a)
        cls = ha.__class__
        if cls is not hb.__class__ or len(aa) != len(ab):
            return False
        if cls is HConst:
            if ha.name != hb.name:
                return False
        elif cls is HEigen:
            if ha.id != hb.id:
                return False
        elif cls is not HBound or ha.index != hb.index:
            return False
        for x, y in zip(aa, ab):
            if not self._uni(x, y):
                return False
        return True

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

    def _pattern(self, args: list[HhTerm]) -> dict[HEigen | HBound, int] | None:
        """The distinct spine variables of `args`, each mapped to its
        position, in spine order; None when `args` is not such a spine."""
        out: dict[HEigen | HBound, int] = {}
        for a in args:
            v = self._as_var(a)
            if v is None or v in out:
                return None
            out[v] = len(out)
        return out

    def _narrow(self, g: HMeta, n: int, keep: list[int], level: int, raised: Sequence[HEigen] = ()) -> HMeta:
        """Bind `g`, a variable of `n` spine positions, to a fresh variable
        `g′` at `level` applied to the kept positions and then to the
        eigenvariables `raised`; return `g′`."""
        g2 = self._fresh_meta(g.name, level)
        self._set(g, _lams(n, happs(happs(g2, [HBound(n - 1 - i) for i in keep]), raised)))
        return g2

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
        self._narrow(m, len(pa), [i for i, (x, y) in enumerate(zip(pa, pb)) if x == y], m.level)
        return True

    def _bind(self, m: HMeta, args: list[HhTerm], rhs: HhTerm) -> bool:
        posmap = self._pattern(args)
        if posmap is None:
            self.non_pattern_seen = True
            return False
        try:
            body = self._invert(rhs, m, posmap, len(posmap), 0)
        except _UnifyFail:
            return False
        self._set(m, _lams(len(posmap), body))
        return True

    def _image(self, v: HEigen | HBound, m: HMeta, posmap: dict, nargs: int, depth: int) -> HhTerm | None:
        """The variable `v`, met `depth` binders inside the body being built
        for `m`, in that body: a variable bound inside it stays, a spine
        variable becomes its binder's index, an eigenvariable in `m`'s scope
        stays; None for any other."""
        if isinstance(v, HBound):
            if v.index < depth:
                return v
            k = posmap.get(HBound(v.index - depth))
        else:
            k = posmap.get(v)
            if k is None and v.level <= m.level:
                return v
        return None if k is None else HBound(depth + nargs - 1 - k)

    def _invert(self, t: HhTerm, m: HMeta, posmap: dict, nargs: int, depth: int) -> HhTerm:
        """Rewrite `t` as a body for `m`'s binder prefix, whose variables are
        the keys of `posmap`: spine variables map to their binder indices,
        older variables stay, newer ones must be pruned or fail.  Raises
        _UnifyFail on occurs/scope violations.  A term that is closed, or
        whose loose variables are all bound inside the body being built, is
        already such a body and is returned as is, so binding a variable to
        a ground term costs O(1)."""
        if 0 <= t.scope <= depth:
            return t
        t = _walk(self.bindings, t)
        if isinstance(t, HLam):
            return HLam(t.hint, self._invert(t.body, m, posmap, nargs, depth + 1))
        head, args = hspine(t)
        if isinstance(head, HMeta):
            if head.id == m.id:
                raise _UnifyFail("occurs")
            return self._invert_under_meta(head, args, m, posmap, nargs, depth)
        if not isinstance(head, HConst):
            head = self._image(head, m, posmap, nargs, depth)
            if head is None:
                raise _UnifyFail("scope")
        return happs(head, [self._invert(a, m, posmap, nargs, depth) for a in args])

    def _invert_under_meta(
        self, g: HMeta, args: list[HhTerm], m: HMeta, posmap: dict, nargs: int, depth: int
    ) -> HhTerm:
        """Occurrence of another variable `g` inside the binding for `m`.
        Keep it when everything stays in scope.  Otherwise narrow `g`: prune
        the spine positions out of `m`'s scope, and raise the narrowed
        variable over the eigenvariables of `m`'s spine that `g` may use but
        is not applied to, so that it can still depend on them."""
        if g.level <= m.level:
            try:
                return happs(g, [self._invert(a, m, posmap, nargs, depth) for a in args])
            except _UnifyFail:
                pass  # fall through to pruning
        gvars = self._pattern(args)
        if gvars is None:
            self.non_pattern_seen = True
            raise _UnifyFail("non-pattern under variable")
        keep: list[int] = []
        images: list[HhTerm] = []
        for i, v in enumerate(gvars):
            w = self._image(v, m, posmap, nargs, depth)
            if w is not None:
                keep.append(i)
                images.append(w)
        raised = [
            e for e in posmap if isinstance(e, HEigen) and m.level < e.level <= g.level and e not in gvars
        ]
        g2 = self._narrow(g, len(gvars), keep, min(g.level, m.level), raised)
        return happs(g2, images + [self._image(e, m, posmap, nargs, depth) for e in raised])


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
