"""Static rigidity analysis over declaration classifiers.

A product binder is *rigid* when its instantiation can always be read back
off the instantiated target type, whatever the other instantiations are.  For
such binders the typing premise of a backchaining step is redundant: the
optimized clause translation replaces its guard with truth.

The object-level judgment asks whether a candidate variable occurs in a term
as the head of a spine of distinct locally bound variables (the invertible,
pattern-like occurrence), or inside an argument of a head that is not itself
a candidate.  The type-level judgment walks binders into the candidate set
and then looks for such an occurrence in an argument of the target's head.
Allowing a candidate head applied to anything else is unsound: a substitution
for it need not preserve the shape the analysis followed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lf_syntax import (
    Bound,
    Const,
    Lam,
    LfExpr,
    Pi,
    Signature,
    fresh_name,
    instantiate,
    spine,
)

__all__ = ["RigidCtx", "GuardPlan", "rigid_in_object", "rigid_in_type", "guard_plan", "plan_for_type"]


@dataclass(frozen=True)
class RigidCtx:
    """gamma: candidate binder names of the declaration under analysis
    (including the variable being tested); delta: locally crossed binders."""

    gamma: frozenset[str]
    delta: tuple[str, ...] = ()

    def __post_init__(self):
        assert not self.gamma & set(self.delta), "local binders must not shadow candidates"

    def push(self, name: str) -> "RigidCtx":
        return RigidCtx(self.gamma, self.delta + (name,))


@dataclass(frozen=True)
class GuardPlan:
    """Per-binder guard decision for one declaration, in binder order."""

    decl_name: str
    binders: tuple[tuple[str, bool], ...]  # (display name, rigid?)


def _as_local_var(e: LfExpr, delta: tuple[str, ...]) -> str | None:
    """Recognize a (possibly eta-expanded) occurrence of a delta variable."""
    depth = 0
    while isinstance(e, Lam):
        e = e.body
        depth += 1
    head, args = spine(e)
    if not isinstance(head, Const) or head.name not in delta:
        return None
    if len(args) != depth:
        return None
    for i, a in enumerate(args):
        if a != Bound(depth - 1 - i):
            return None
    return head.name


def rigid_in_object(ctx: RigidCtx, x: str, m: LfExpr) -> bool:
    """Does `x` occur rigidly in the canonical object `m`?  A loose index
    at a spine head is a variable bound outside the classifier under
    analysis (the clause translations hand in domains under their
    quantifiers); like a constant that is not a candidate, it is rigid, and
    `x` may occur rigidly in its arguments."""
    while isinstance(m, Lam):
        y = fresh_name(m.hint, ctx.gamma, ctx.delta)
        ctx = ctx.push(y)
        m = instantiate(m.body, Const(y))
    head, args = spine(m)
    if isinstance(head, Const):
        if head.name == x:
            seen: set[str] = set()
            for a in args:
                v = _as_local_var(a, ctx.delta)
                if v is None or v in seen:
                    return False
                seen.add(v)
            return True
        if head.name in ctx.gamma:
            # another candidate's shape is not stable under instantiation
            return False
    elif not isinstance(head, Bound):
        return False
    return any(rigid_in_object(ctx, x, a) for a in args)


def rigid_in_type(candidates: frozenset[str] | set[str], x: str, a: LfExpr) -> bool:
    """Does `x` occur rigidly in the canonical type `a`?  Binders crossed on
    the way to the target join the candidate set; the local-variable set of
    the object judgment starts empty at each argument."""
    cands = frozenset(candidates)
    while isinstance(a, Pi):
        y = fresh_name(a.hint, cands, (x,))
        cands |= {y}
        a = instantiate(a.body, Const(y))
    _, args = spine(a)
    ctx = RigidCtx(cands | {x})
    return any(rigid_in_object(ctx, x, m) for m in args)


def plan_for_type(sig: Signature, classifier: LfExpr) -> tuple[tuple[str, bool], ...]:
    """Rigidity of each outer binder of `classifier`, tested against the
    remaining suffix with the previously seen binders as candidates."""
    flags: list[tuple[str, bool]] = []
    seen: list[str] = []
    a = classifier
    i = 0
    while isinstance(a, Pi):
        i += 1
        c = fresh_name(a.hint, sig, seen)
        body = instantiate(a.body, Const(c))
        display = a.hint if a.hint != "_" else f"arg{i}"
        flags.append((display, rigid_in_type(frozenset(seen) | {c}, c, body)))
        seen.append(c)
        a = body
    return tuple(flags)


def guard_plan(sig: Signature, decl_name: str) -> GuardPlan:
    """Guard decisions for a declared constant's classifier."""
    entry = sig.lookup(decl_name)
    if entry is None:
        raise KeyError(decl_name)
    return GuardPlan(decl_name, plan_for_type(sig, entry.classifier))
