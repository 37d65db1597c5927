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
list, and a stack holds a choice point per committed backchain that has a
clause left to try.  Backtracking pops the newest one, undoes the trail and
the trace to its mark and tries the atom's remaining clauses, so the depth
of a proof costs list entries, not interpreter frames, and a deterministic
step keeps no search state.

Clauses are compiled once into a quantifier prefix, guard code and head
code (static clauses on first use, kept on the `ClauseSet`; assumptions
when they are pushed).  The head is unified with the goal in place, and the
prefix binders are registers, not variables: an attempt reserves the ids of
the binders' variables (binder i gets the i-th of them) and starts with
every register empty.  A binder that first meets a closed term other than
an abstraction holds that term, so it is never bound, trailed or undone;
its variable is made, with its reserved id and name, only when the binder
meets any other term, when a template part has to be instantiated (an
abstraction or a variable head, or a goal part that is an abstraction or
flexible), or when the register is still empty after the head unified.
The head code maps its prefix binders to register indices and each
constant applied to open parts to the constant and the parts' code, so
unifying it walks no template spine.  Once the head has unified, each
guard is built from the registers by code compiled the other way round, a
register index, a closed term or a closed head applied to such parts, so a
committed step is straight-line work on the registers; a guard under a
universal or an implication, or with an open abstraction or a variable head
inside, is instantiated with `f_instantiate` instead.  Either way a guard
shows a held binder's value where it would show the binder's variable (a
traced `imp+` line prints it so).  In the ground checks of the append
ladder every binder ends in a register, and the binding store stays empty.

A head's subject and classifier are unified in an order fixed once per
atom goal from the goal's shape, the type being the input and the proof
term the output (Pfenning & Schürmann, CADE 1999).  When the goal's subject
is flexible, its head an unbound variable, the classifier goes first: it
fills the registers the proof term is then built from, and a clause that
does not fit fails on it before the subject's variable is bound and the
clause's variables are raised over its spine.  Any other subject goes
first, since it may fix a binder that makes the classifier a pattern, as
in `mk : {t:nat -> num z} chk (t z)`.

Only the clauses whose head constant can match the goal are tried
(first-argument indexing, as Teyjus compiles clause code: Nadathur &
Mitchell, CADE 1999): the subject's head constant against a rigid goal
subject, or the classifier's family constant when the goal subject is
flexible.  A skipped attempt would have failed on that constant before
anything was bound.  For each goal constant the index keeps the list of
static positions it admits, built by one scan the first time a goal asks
for it, and a search jumps from one admitted position to the next.  A jump
uses up the ids of the binders' variables of the clauses it passes, so
names such as `?M9` in traces and answers do not depend on the index.  A
commit at the last admitted position, with no assumption left that the
index admits, is deterministic: it pushes no choice point, and the ids of
the clauses after it are used up when backtracking passes it, as if it had
one.  Assumptions are tested one by one, newest first.

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
index are not counted.  Each search counts from zero.
"""

from __future__ import annotations

from typing import Iterator, Literal, Sequence

from .hhf_logic import (
    Clause,
    ClauseSet,
    FAtom,
    FForall,
    FImplies,
    FTop,
    HhFormula,
    SimpleType,
    _mentions,
    f_instantiate,
    open_leaves,
    print_formula,
    print_term,
)
from .lf_syntax import NO_ANNOT, App, Bound, Const, HEigen, HMeta, Lam, LfExpr, Record, instantiate, make_app, spine

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


def resolve_term(bindings: dict[int, LfExpr], t: LfExpr) -> LfExpr:
    """Fully dereference and beta-normalize `t` under `bindings`.  Each
    distinct node of `t` is resolved once, so a node that occurs several
    times, such as a variable bound once, resolves to one shared term."""
    return _resolve(t, bindings, {})


def _resolve(t: LfExpr, bindings: dict[int, LfExpr], memo: dict[int, tuple[LfExpr, LfExpr]]) -> LfExpr:
    """`resolve_term`'s walk; `memo` maps the id of a node to (node, result)."""
    if t.scope >= 0:
        return t
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    u = _walk(bindings, t)
    out = u
    if u.scope < 0:
        if u.__class__ is Lam:
            out = Lam(u.hint, NO_ANNOT, _resolve(u.body, bindings, memo))
        elif u.__class__ is App:
            head, args = spine(u)  # `_walk` left no abstraction at the head
            out = make_app(head, [_resolve(a, bindings, memo) for a in args])
    memo[id(t)] = (t, out)
    return out


def _walk(bindings: dict[int, LfExpr], t: LfExpr) -> LfExpr:
    """Head-dereference and head-beta-reduce.  The spine is taken apart only
    for a bound variable or an abstraction at its head, and the leading
    abstractions are reduced in one instantiation."""
    while t.scope < 0:
        head = t
        while head.__class__ is App:
            head = head.fn
        if head.__class__ is HMeta and (b := bindings.get(head.id)) is not None:
            t = b if head is t else make_app(b, spine(t)[1])
        elif head.__class__ is Lam and head is not t:
            _, args = spine(t)
            k = 0
            while k < len(args) and head.__class__ is Lam:
                head, k = head.body, k + 1
            t = make_app(instantiate(head, args[:k]), args[k:])
        else:
            break
    return t


def _head(bindings: dict[int, LfExpr], t: LfExpr) -> LfExpr:
    """The head of `t`'s spine once `t` is walked."""
    if t.scope < 0:
        t = _walk(bindings, t)
    while t.__class__ is App:
        t = t.fn
    return t


def _lams(n: int, body: LfExpr) -> LfExpr:
    """`body` under `n` abstractions."""
    for _ in range(n):
        body = Lam("w", NO_ANNOT, body)
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
    are `(scope, guard, code)` triples in the order they are proved, which
    `_schedule` sets; `code` builds the guard from the registers (see
    `_guard_code`), and is None for a guard that `f_instantiate` builds.
    `head` holds the code that `Solver._uni_head` runs for the head's
    subject and classifier (see `_head_code`).  The head constants index
    the clause: `subject_head` is the constant at the head of the head's
    subject, and `family_head` the one at the head of its classifier,
    recorded only when the subject is that constant applied to distinct
    prefix binders, the shape every translated declaration has."""

    __slots__ = ("origin", "prefix", "guards", "head", "subject_head", "family_head")
    __match_args__ = __slots__

    def __init__(
        self,
        origin: str,
        prefix: tuple[tuple[str, SimpleType], ...],
        guards: tuple[tuple[int, HhFormula, tuple | None], ...],
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
        if f.__class__ is FForall:
            prefix.append((f.hint, f.stype))
            f = f.body
        elif f.__class__ is FImplies:
            guards.append((len(prefix), f.antecedent))
            f = f.consequent
        else:
            break
    head = f if isinstance(f, FAtom) else None
    subject_head = family_head = None
    if head is not None:
        sh, sargs = spine(head.subject)
        if isinstance(sh, Const):
            subject_head = sh.name
            fh, _ = spine(head.classifier)
            binders = {a.index for a in sargs if isinstance(a, Bound) and a.index < len(prefix)}
            if isinstance(fh, Const) and len(binders) == len(sargs):
                family_head = fh.name
    code = None
    if head is not None:
        code = _head_code(head.subject, len(prefix)), _head_code(head.classifier, len(prefix))
    scheduled = tuple((scope, g, _guard_code(g, scope)) for scope, g in _schedule(guards))
    return CompiledClause(clause.origin, tuple(prefix), scheduled, code, subject_head, family_head)


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


_HeadCode = LfExpr | int | tuple  # see `_head_code`


def _head_code(tmpl: LfExpr, nprefix: int) -> _HeadCode:
    """The code of the head template part `tmpl` over a prefix of `nprefix`
    binders: a prefix binder is the index of its register; a constant
    applied to parts not all closed is (the constant's name, the parts'
    code, `tmpl`); any other part, closed or to be instantiated, is `tmpl`
    itself."""
    if isinstance(tmpl, Bound):
        return nprefix - 1 - tmpl.index
    if tmpl.scope != 0:
        head, args = spine(tmpl)
        if isinstance(head, Const):
            return head.name, tuple(_head_code(a, nprefix) for a in args), tmpl
    return tmpl


def _guard_code(g: HhFormula, scope: int) -> tuple | None:
    """The code that builds the atom guard `g` over the `scope` outermost
    binders from the registers, a pair for its subject and classifier, or
    None when `f_instantiate` builds it: `g` is not an atom, or a part has
    an open abstraction or a variable head inside (see `_part_code`)."""
    if g.__class__ is not FAtom:
        return None
    subject, classifier = _part_code(g.subject, scope), _part_code(g.classifier, scope)
    return None if subject is None or classifier is None else (subject, classifier)


def _part_code(t: LfExpr, scope: int):
    """The code of the guard part `t`: a binder is the index of its
    register; a closed term is itself; an application with a closed head is
    (its longest closed head, the code of the arguments after it), which
    builds the nodes `instantiate` builds; None for any other."""
    if t.scope == 0:
        return t
    if t.__class__ is Bound:
        return scope - 1 - t.index if t.index < scope else None
    args = []
    while t.__class__ is App and t.scope != 0:
        args.append(t.arg)
        t = t.fn
    if t.scope != 0:
        return None
    parts = tuple(_part_code(a, scope) for a in reversed(args))
    return None if any(p is None for p in parts) else (t, parts)


def _built(code, regs: list) -> LfExpr:
    """The guard part that `code` builds from the registers `regs`."""
    if code.__class__ is int:
        return regs[code]
    if code.__class__ is not tuple:
        return code
    t, parts = code
    for p in parts:
        t = App(t, _built(p, regs))
    return t


_Goals = tuple | None  # (goal, depth, level, assumptions, rest), or None when empty


def compiled_program(program: ClauseSet) -> tuple[CompiledClause, ...]:
    """The compiled static clauses of `program`, built on first use and kept
    on the set itself, so every Solver over one set shares them, with the
    set's index `(ids, admitted)`: `ids[i]` is the number of binders of the
    clauses from position i on, and `admitted` maps a goal's `(key, want)`
    to the positions of the clauses that the index admits, those whose
    `key` head constant is `want` or unset, or all of them when `key` is
    None.  `Solver._backchain` adds each list the first time a goal asks
    for it."""
    if program.compiled is None:
        static = tuple(compile_clause(c) for c in program.clauses)
        ids = [0] * (len(static) + 1)
        for i in range(len(static) - 1, -1, -1):
            ids[i] = ids[i + 1] + len(static[i].prefix)
        program.index = ids, {}
        program.compiled = static
    return program.compiled


class Solution(Record):
    """One answer: a snapshot of the binding store, the next free variable
    and eigenvariable ids past every one the search made, and bookkeeping.
    A `Solver` built over a solution continues from those ids, so it needs
    no walk over the store to avoid them."""

    __slots__ = ("bindings", "counters", "trace", "next_meta", "next_eigen")
    __match_args__ = __slots__

    def __init__(
        self,
        bindings: dict[int, LfExpr],
        counters: Counters,
        trace: tuple[str, ...] = (),
        next_meta: int = 1,
        next_eigen: int = 1,
    ):
        self.bindings = bindings
        self.counters = counters
        self.trace = trace
        self.next_meta = next_meta
        self.next_eigen = next_eigen

    def value(self, m: LfExpr) -> LfExpr:
        return resolve_term(self.bindings, m)


class Solver:
    """One search of `program` within `limits`, with all of its state: a
    binding store and its trail, the counters, the trace, the next variable
    and eigenvariable ids, and the `depth_hit`, `budget_hit` and
    `non_pattern_seen` flags.  The store and the ids begin as those of
    `store`, an earlier answer, or as an empty store numbered from 1.  Each
    `solve` starts afresh, with its own counters and its whole budget.  Not
    shared between threads; distinct searches may run concurrently, each
    owning its own Solver."""

    def __init__(
        self,
        program: ClauseSet,
        limits: Limits | None = None,
        trace: bool = False,
        store: Solution | None = None,
    ):
        self.program = program
        self.static = compiled_program(program)
        self.limits = limits or Limits()
        self.trace_on = trace
        self.store = store or Solution({}, Counters())
        self.bindings: dict[int, LfExpr] = dict(self.store.bindings)
        self.trail: list[int] = []
        # the running clause attempt, which head unification reads: its
        # eigenvariable level, quantifier prefix and first variable id
        self.level = 0
        self._prefix: tuple[tuple[str, SimpleType], ...] = ()
        self._base = 0
        self._fresh()

    def _fresh(self) -> None:
        """The counters, flags, trace and ids of a search that has not begun."""
        self.counters = Counters()
        self.depth_hit = False
        self.budget_hit = False
        self.non_pattern_seen = False
        self.trace: list[str] = []
        self._next_meta = self.store.next_meta
        self._next_eigen = self.store.next_eigen

    # -- public entry points --------------------------------------------------

    def solve(self, goal: HhFormula, iterative: bool = False) -> Iterator[Solution]:
        """Lazily enumerate solutions in clause order with chronological
        backtracking.  The stream ends on exhaustion; `depth_hit` and
        `budget_hit` distinguish resource cutoffs from finite failure.

        With `iterative` the depth bound grows from 1 up to the configured
        limit and all solutions of the first successful bound are streamed;
        search stops early when a bound is exhausted without being hit, since
        deeper bounds cannot change a finite failure.  The bindings and the
        trace of a failed bound are undone; variable and eigenvariable ids
        keep counting.

        The search starts afresh: zero counters, cleared flags and trace,
        the whole budget, and ids from the store's next ones, or past the
        variables of `goal` where those are higher.  When the stream ends or
        is closed, the store is as it was when it began.
        """
        self._fresh()
        for m in open_leaves(goal, HMeta, []):
            self._next_meta = max(self._next_meta, m.id + 1)
        mark = self._mark()
        depth = self.limits.depth
        try:
            for d in range(1, depth + 1) if iterative else (depth,):
                self.depth_hit = False
                found = False
                for _ in self._search(goal, d):
                    found = True
                    yield Solution(
                        dict(self.bindings), self.counters.copy(), tuple(self.trace), self._next_meta, self._next_eigen
                    )
                if found or not self.depth_hit:
                    return
                self._undo(mark)
            self.depth_hit = True
        except BudgetExceeded:
            self.budget_hit = True
        finally:
            self._undo(mark)

    def unify(self, a: LfExpr, b: LfExpr) -> bool:
        """Public unification entry: transactional (rolls back on failure)."""
        mark = self._mark()
        ok = self._unify(a, b)
        if not ok:
            self._undo(mark)
        return ok

    def resolve(self, t: LfExpr) -> LfExpr:
        return resolve_term(self.bindings, t)

    # -- bookkeeping -----------------------------------------------------------

    def _fresh_meta(self, hint: str, level: int) -> HMeta:
        i = self._next_meta
        self._next_meta += 1
        return _meta(hint, i, level)

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
        i = self._next_eigen
        self._next_eigen += 1
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

    def _set(self, m: HMeta, value: LfExpr) -> None:
        self.bindings[m.id] = value
        self.trail.append(m.id)

    def _note(self, event: str) -> None:
        if self.trace_on:
            self.trace.append(event)

    # -- search ----------------------------------------------------------------

    def _search(self, goal: HhFormula, max_depth: int) -> Iterator[None]:
        """Yield once per proof of `goal` of depth below `max_depth`, with its
        bindings in place.  A goal record is `(goal, depth, level,
        assumptions, rest)`, assumptions oldest first; a choice point is
        `(record, next clause, mark, plan)`.  `skipped` has an entry per
        choice point and a first one: the ids that the deterministic steps
        committed since that choice point, or before any, leave for
        backtracking to use up."""
        goals: _Goals = (goal, 0, 0, (), None)
        stack: list[tuple[_Goals, int, tuple[int, int], tuple]] = []
        skipped = [0]
        while True:
            if goals is None:
                yield
                goals = False
            else:
                g, depth, level, assumptions, rest = goals
                if g.__class__ is FAtom:
                    if depth >= max_depth:
                        self.depth_hit = True
                        goals = False
                    else:
                        goals = self._backchain(goals, 0, self._plan(g), stack, skipped)
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
                self._next_meta += skipped.pop()
                if not stack:
                    return
                record, pos, mark, plan = stack.pop()
                self._undo(mark)
                goals = self._backchain(record, pos, plan, stack, skipped)

    def _backchain(
        self, record: _Goals, pos: int, plan: tuple, stack: list, skipped: list[int]
    ) -> _Goals | Literal[False]:
        """Try the atom's clauses from position `pos` on, as its `plan`
        says: the assumptions newest first, then the static clauses that the
        index admits, from entry `pos - len(assumptions)` of their list on.
        On the first that unifies, push a choice point unless it is
        deterministic, and return its guards followed by the rest; return
        False when none is left.  Every clause passed, tried or not, uses up
        the ids of its binders' variables."""
        atom, depth, level, assumptions, rest = record
        key, want, (first, second) = plan
        static = self.static
        ids, index = self.program.index
        admitted = index.get((key, want))
        if admitted is None:
            admitted = index[key, want] = tuple(
                i for i, c in enumerate(static) if key is None or getattr(c, key) in (None, want)
            )
        parts = atom.subject, atom.classifier
        dynamic, end = len(assumptions), len(admitted)
        counters, budget, trail = self.counters, self.limits.budget, self.trail
        while True:
            if pos < dynamic:
                clause = assumptions[dynamic - 1 - pos]
                pos += 1
                if key is not None and getattr(clause, key) not in (None, want):
                    self._next_meta += len(clause.prefix)
                    continue
                base = self._next_meta
            else:
                k = pos - dynamic
                passed = ids[admitted[k - 1] + 1] if k else ids[0]  # the ids not yet used up
                if k == end:
                    self._next_meta += passed
                    return False
                j = admitted[k]
                clause = static[j]
                base = self._next_meta + passed - ids[j]
                pos += 1
            prefix = clause.prefix
            n = len(prefix)
            self._next_meta = base + n
            self.level, self._prefix, self._base = level, prefix, base
            mark = len(trail)
            regs = [None] * n
            head = clause.head
            if head is not None:
                counters.unify_calls += 1
                if counters.unify_calls > budget:
                    raise BudgetExceeded()
                if self._uni_head(head[first], parts[first], regs):
                    counters.unify_calls += 1
                    if counters.unify_calls > budget:
                        raise BudgetExceeded()
                    if self._uni_head(head[second], parts[second], regs):
                        break
                if len(trail) > mark:
                    self._undo((mark, len(self.trace)))
        if n:
            self._filled(regs)
        counters.backchain_steps += 1
        if pos > dynamic:  # deterministic at the last admitted clause
            left = ids[j + 1] if pos - dynamic == end else None
        else:  # or with no static clause and no later assumption admitted
            later = assumptions[: dynamic - pos]
            if admitted or any(key is None or getattr(c, key) in (None, want) for c in later):
                left = None
            else:
                left = ids[0] + sum(len(c.prefix) for c in later)
        if left is None:
            stack.append((record, pos, (mark, len(self.trace)), plan))
            skipped.append(0)
        else:
            skipped[-1] += left
        if self.trace_on:
            inst = " ".join(print_term(self.resolve(r), 2) for r in regs)
            self._note(f"bc {clause.origin}{' ' + inst if inst else ''}")
        goals = rest
        depth += 1
        for scope, g, code in reversed(clause.guards):
            if code is None:
                g = f_instantiate(g, regs[:scope])
            else:
                s, c = code
                g = FAtom(regs[s] if s.__class__ is int else _built(s, regs), _built(c, regs))
            goals = (g, depth, level, assumptions, goals)
        return goals

    def _plan(self, goal: FAtom) -> tuple[str | None, str | None, tuple[int, int]]:
        """How `goal` backchains, as `(key, want, order)`, fixed once per
        goal.  The clauses that cannot match are those whose `key` head
        constant is set and differs from `want`, the head constant of a rigid
        goal subject or else of the goal's classifier; they are skipped
        before renaming.  `order` is the order in which a clause head's
        parts, 0 the subject and 1 the classifier, are unified with the
        goal's: the classifier first when the goal's subject is flexible, the
        subject first otherwise (see the module docstring)."""
        key, order, head = "subject_head", (0, 1), _head(self.bindings, goal.subject)
        if head.__class__ is HMeta:
            key, order, head = "family_head", (1, 0), _head(self.bindings, goal.classifier)
        if head.__class__ is Const:
            return key, head.name, order
        if head.__class__ is HEigen or head.__class__ is Bound:
            return key, None, order
        return None, None, order

    # -- pattern unification -----------------------------------------------------

    def _unify(self, a: LfExpr, b: LfExpr) -> bool:
        self.counters.unify_calls += 1
        if self.counters.unify_calls > self.limits.budget:
            raise BudgetExceeded()
        return self._uni(a, b)

    def _uni_head(self, code: _HeadCode, t: LfExpr, regs: list) -> bool:
        """`_uni(instantiate(tmpl, values), t)` without building the
        instance where the template part is first order.  A binder whose
        register is empty and meets a closed term other than an abstraction
        takes that term into its register, where `_bind` would have bound
        its variable to it: no binding, trail entry or undo.  Otherwise the
        binder's variable is made when first needed and unified.  A closed
        template part without an abstraction meeting such a term is
        compared with `==`, as `_uni` compares them.  A part with an abstraction or a variable head, or meeting an
        abstraction or a flexible term, is instantiated with the registers,
        every empty one given its variable."""
        if code.__class__ is tuple:
            name, parts, tmpl = code
            b = t if t.scope >= 0 else _walk(self.bindings, t)
            args = []
            while b.__class__ is App:
                args.append(b.arg)
                b = b.fn
            if b.__class__ is Const:  # its arguments, left to right, are popped
                if b.name != name or len(args) != len(parts):
                    return False
                for x in parts:
                    y = args.pop()
                    if x.__class__ is int and regs[x] is None and y.scope == 0 and y.__class__ is not Lam:
                        regs[x] = y  # as `_uni_head(x, y, regs)` would
                    elif not self._uni_head(x, y, regs):
                        return False
                return True
            if b.__class__ is not HMeta and b.__class__ is not Lam:
                return False
        elif code.__class__ is int:
            r = regs[code]
            if r is None:
                if t.scope == 0 and t.__class__ is not Lam:
                    regs[code] = t
                    return True
                r = self._binder_var(regs, code)
            return self._uni(r, t)
        else:
            tmpl = code
            if tmpl.scope == 0:
                if t.scope == 0 and tmpl.lam_free and t.lam_free:
                    return tmpl is t or tmpl == t
                return self._uni(tmpl, t)
        return self._uni(instantiate(tmpl, self._filled(regs)), t)

    def _uni(self, a: LfExpr, b: LfExpr) -> bool:
        if a.scope < 0:
            a = _walk(self.bindings, a)
        if b.scope < 0:
            b = _walk(self.bindings, b)
        if a.scope == 0 and b.scope == 0 and a.lam_free and b.lam_free:
            return a == b
        if a.__class__ is Lam or b.__class__ is Lam:
            # eta: both sides applied to a fresh eigenvariable, an
            # abstraction's application reduced
            e = self._fresh_eigen("u", self.level + 1)
            a = instantiate(a.body, (e,)) if a.__class__ is Lam else App(a, e)
            b = instantiate(b.body, (e,)) if b.__class__ is Lam else App(b, e)
            return self._uni(a, b)
        ha, aa = spine(a)
        hb, ab = spine(b)
        if isinstance(ha, HMeta) and isinstance(hb, HMeta) and ha.id == hb.id:
            return self._flex_same(ha, aa, ab)
        if isinstance(ha, HMeta):
            return self._bind(ha, aa, b)
        if isinstance(hb, HMeta):
            return self._bind(hb, ab, a)
        cls = ha.__class__
        if cls is not hb.__class__ or len(aa) != len(ab):
            return False
        if cls is Const:
            if ha.name != hb.name:
                return False
        elif cls is HEigen:
            if ha.id != hb.id:
                return False
        elif cls is not Bound or ha.index != hb.index:
            return False
        for x, y in zip(aa, ab):
            if not self._uni(x, y):
                return False
        return True

    def _as_var(self, t: LfExpr) -> HEigen | Bound | None:
        """Recognize an eigenvariable or local variable, possibly eta-expanded."""
        t = _walk(self.bindings, t)
        depth = 0
        while isinstance(t, Lam):
            t = _walk(self.bindings, t.body)
            depth += 1
        head, args = spine(t)
        if len(args) != depth:
            return None
        for i, a in enumerate(args):
            aw = _walk(self.bindings, a)
            if not (isinstance(aw, Bound) and aw.index == depth - 1 - i):
                return None
        if isinstance(head, (HEigen, Bound)):
            if isinstance(head, Bound):
                # adjust for the lambdas stripped above
                return Bound(head.index - depth) if head.index >= depth else None
            return head
        return None

    def _pattern(self, args: Sequence[LfExpr]) -> dict[HEigen | Bound, int] | None:
        """The distinct spine variables of `args`, each mapped to its
        position, in spine order; None when `args` is not such a spine."""
        out: dict[HEigen | Bound, int] = {}
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
        self._set(g, _lams(n, make_app(make_app(g2, [Bound(n - 1 - i) for i in keep]), raised)))
        return g2

    def _flex_same(self, m: HMeta, aa: Sequence[LfExpr], ab: Sequence[LfExpr]) -> bool:
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

    def _bind(self, m: HMeta, args: Sequence[LfExpr], rhs: LfExpr) -> bool:
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

    def _image(self, v: HEigen | Bound, m: HMeta, posmap: dict, nargs: int, depth: int) -> LfExpr | None:
        """The variable `v`, met `depth` binders inside the body being built
        for `m`, in that body: a variable bound inside it stays, a spine
        variable becomes its binder's index, an eigenvariable in `m`'s scope
        stays; None for any other."""
        if isinstance(v, Bound):
            if v.index < depth:
                return v
            k = posmap.get(Bound(v.index - depth))
        else:
            k = posmap.get(v)
            if k is None and v.level <= m.level:
                return v
        return None if k is None else Bound(depth + nargs - 1 - k)

    def _invert(self, t: LfExpr, m: HMeta, posmap: dict, nargs: int, depth: int) -> LfExpr:
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
        if isinstance(t, Lam):
            return Lam(t.hint, NO_ANNOT, self._invert(t.body, m, posmap, nargs, depth + 1))
        head, args = spine(t)
        if isinstance(head, HMeta):
            if head.id == m.id:
                raise _UnifyFail("occurs")
            return self._invert_under_meta(head, args, m, posmap, nargs, depth)
        if not isinstance(head, Const):
            head = self._image(head, m, posmap, nargs, depth)
            if head is None:
                raise _UnifyFail("scope")
        return make_app(head, [self._invert(a, m, posmap, nargs, depth) for a in args])

    def _invert_under_meta(
        self, g: HMeta, args: Sequence[LfExpr], m: HMeta, posmap: dict, nargs: int, depth: int
    ) -> LfExpr:
        """Occurrence of another variable `g` inside the binding for `m`.
        Keep it when everything stays in scope.  Otherwise narrow `g`: prune
        the spine positions out of `m`'s scope, and raise the narrowed
        variable over the eigenvariables of `m`'s spine that `g` may use but
        is not applied to, so that it can still depend on them."""
        if g.level <= m.level:
            try:
                return make_app(g, [self._invert(a, m, posmap, nargs, depth) for a in args])
            except _UnifyFail:
                pass  # fall through to pruning
        gvars = self._pattern(args)
        if gvars is None:
            self.non_pattern_seen = True
            raise _UnifyFail("non-pattern under variable")
        keep: list[int] = []
        images: list[LfExpr] = []
        for i, v in enumerate(gvars):
            w = self._image(v, m, posmap, nargs, depth)
            if w is not None:
                keep.append(i)
                images.append(w)
        raised = [
            e for e in posmap if isinstance(e, HEigen) and m.level < e.level <= g.level and e not in gvars
        ]
        g2 = self._narrow(g, len(gvars), keep, min(g.level, m.level), raised)
        return make_app(g2, images + [self._image(e, m, posmap, nargs, depth) for e in raised])


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
