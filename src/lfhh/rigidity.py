"""Static rigidity analysis over declaration classifiers.

A product binder is *rigid* when its instantiation can always be read back
off the instantiated target type, whatever the other instantiations are.  For
such binders the typing premise of a backchaining step is redundant: the
optimized clause translation replaces its guard with truth.

The binders of a classifier's product prefix are its candidates.  A candidate
occurs rigidly in an argument of the target's head when it is the head of a
spine of distinct locally bound variables (the invertible, pattern-like
occurrence), possibly inside arguments of heads that are not themselves
candidates.  Allowing a candidate head applied to anything else is unsound:
a substitution for it need not preserve the shape the analysis followed.

Every binder has the same candidates, all of the prefix, so one walk over the
target's arguments collects every binder that occurs rigidly.  The walk reads
de Bruijn indices and opens no binder.  At local depth d (the abstractions
crossed inside an argument) under a prefix of n binders, an index

- below d is a local variable, the only argument a candidate head may take;
- in [d, d+n) is a candidate;
- at d+n or above is a variable bound outside the classifier (the clause
  translations hand in domains under their quantifiers).

A local or outside variable at a spine head is rigid, like a constant: a
candidate may occur rigidly in its arguments.  A meta-variable head is not.
A binder's hint is only a display name and takes no part in the verdict.
"""

from __future__ import annotations

from .lf_syntax import Bound, Lam, LfExpr, Meta, Pi, Record, Signature, spine

__all__ = ["GuardPlan", "guard_plan", "plan_for_type"]


class GuardPlan(Record):
    """Per-binder guard decision for one declaration, in binder order."""

    __slots__ = ("decl_name", "binders")
    __match_args__ = ("decl_name", "binders")

    def __init__(self, decl_name: str, binders: tuple[tuple[str, bool], ...]):
        self.decl_name = decl_name
        self.binders = binders  # (display name, rigid?)


def _local_var(e: LfExpr, depth: int) -> int | None:
    """The local variable that `e` is, possibly eta-expanded, as its index at
    local depth `depth`; None when `e` is anything else."""
    k = 0
    while isinstance(e, Lam):
        e = e.body
        k += 1
    head, args = spine(e)
    if not isinstance(head, Bound) or not k <= head.index < k + depth or len(args) != k:
        return None
    if any(a != Bound(k - 1 - i) for i, a in enumerate(args)):
        return None
    return head.index - k


def _collect_rigid(m: LfExpr, depth: int, n: int, rigid: set[int]) -> None:
    """Add to `rigid` the candidates that occur rigidly in the beta-normal
    object `m` at local depth `depth`, as their indices at depth 0."""
    while isinstance(m, Lam):
        m = m.body
        depth += 1
    head, args = spine(m)
    if isinstance(head, Bound) and depth <= head.index < depth + n:
        local = [_local_var(a, depth) for a in args]
        if None not in local and len(set(local)) == len(local):
            rigid.add(head.index - depth)
        return  # another candidate's shape is not stable under instantiation
    if isinstance(head, Meta):
        return  # nor is a query variable's
    for a in args:
        _collect_rigid(a, depth, n, rigid)


def plan_for_type(classifier: LfExpr) -> tuple[tuple[str, bool], ...]:
    """Rigidity of each outer binder of `classifier`, in binder order, with
    the whole prefix as candidates."""
    hints: list[str] = []
    a = classifier
    while isinstance(a, Pi):
        hints.append(a.hint)
        a = a.body
    n = len(hints)
    rigid: set[int] = set()
    for m in spine(a)[1]:
        _collect_rigid(m, 0, n, rigid)
    return tuple(
        (h if h != "_" else f"arg{i + 1}", n - 1 - i in rigid) for i, h in enumerate(hints)
    )


def guard_plan(sig: Signature, decl_name: str) -> GuardPlan:
    """Guard decisions for a declared constant's classifier."""
    entry = sig.lookup(decl_name)
    if entry is None:
        raise KeyError(decl_name)
    return GuardPlan(decl_name, plan_for_type(entry.classifier))
