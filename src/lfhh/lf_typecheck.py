"""Trusted kernel: decides the four typing assertions of the canonical system.

Checking is syntax-directed.  Objects and families at base classifiers are
handled by a single big-step backchaining rule: take the classifier of the
head, check each argument against the progressively instantiated binder
domains, and match the instantiated target against the expected classifier.
Subjects and classifiers are normalized once at the boundary; inside a
derivation everything stays in beta-eta-long form, so rule application never
renormalizes except after instantiation.

Binders are walked by de Bruijn index, as `normalize` and the decoder walk
them: a rule checks a binder's body in place, open over the hints and the
classifiers of the binders crossed, and `lf_syntax.head_classifier` gives
the classifier of a head, a declared constant or a binder `#k`.  The
signature is never extended while checking.  A binder is named only when a
judgment or an error is printed: its hint, made fresh against the
declarations and the names outside it.

Meta-variables are rejected outright: this module is the certification oracle
and must only ever accept closed expressions.
"""

from __future__ import annotations

from .lf_syntax import (
    KIND,
    TYPE,
    App,
    Bound,
    Const,
    LfError,
    LfExpr,
    Lam,
    Pi,
    SigEntry,
    Signature,
    TypeKind,
    _shift,
    fields_repr,
    free_names,
    fresh_name,
    instance,
    instantiate,
    normalize,
    pretty_print,
)

__all__ = [
    "Judgment",
    "Derivation",
    "KernelError",
    "checked_signature",
    "check_kind",
    "check_type",
    "check_object",
]


class KernelError(LfError):
    """Raised when an assertion has no derivation.  Carries the rule and the
    judgment at the failure point so failures can be diffed between modes."""

    def __init__(self, message: str, rule: str, judgment: "Judgment | None" = None):
        loc = f" [{rule}]" if rule else ""
        at = f" at {judgment}" if judgment is not None else ""
        super().__init__(f"{message}{loc}{at}")
        self.message = message
        self.rule = rule
        self.judgment = judgment


# Every rule is told the binders it is under, innermost last, as two tuples:
# their hints, and their classifiers, each open over the binders before it.
Hints = tuple[str, ...]
Stack = tuple[LfExpr, ...]
# The backchaining derivations of one top-level check, by the ids of their
# subject, classifier and stack: (subject, classifier, stack, derivation).
# Each stack tuple is made together with its hints tuple, so its identity
# fixes the binders of the judgment.  Keeping the three objects keeps their
# ids from being reused while the memo lives.
Memo = dict[tuple[int, int, int], tuple[LfExpr, LfExpr, Stack, "Derivation"]]


class Judgment:
    """Conclusion record: the signature it was made against, the hints of
    the binders crossed (innermost last), and a subject and classifier open
    over those binders (expressions or literal text).  All are kept as they
    are, so a judgment costs O(1), and binders are named only when printed.
    Like expression nodes, a judgment is immutable by contract, and all its
    fields take part in equality; the signature compares by identity.  A
    `KernelError` prints its judgment when raised, before `checked_signature`
    adds another declaration to that signature."""

    __slots__ = ("context", "binders", "subject", "classifier")
    __match_args__ = __slots__

    def __init__(
        self,
        context: Signature,
        binders: Hints,
        subject: LfExpr | str,
        classifier: LfExpr | str,
    ):
        self.context = context
        self.binders = binders
        self.subject = subject
        self.classifier = classifier

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Judgment:
            return NotImplemented
        return self is other or (
            self.context is other.context
            and self.binders == other.binders
            and self.subject == other.subject
            and self.classifier == other.classifier
        )

    def __hash__(self) -> int:
        return hash((id(self.context), self.binders, self.subject, self.classifier))

    def __repr__(self) -> str:
        return fields_repr(self, self.__match_args__)

    def names(self) -> list[str]:
        """A name for each binder: its hint, made fresh against the
        declarations, the constants of the subject and the classifier, and
        the names of the binders outside it.  Under no binder there are
        none, and neither term is walked."""
        if not self.binders:
            return []
        free, names = set(), []
        for e in (self.subject, self.classifier):
            if isinstance(e, LfExpr):
                free |= free_names(e)
        for hint in self.binders:
            names.append(fresh_name(hint, self.context, free, names))
        return names

    def show(self, e: LfExpr | str, names: list[str]) -> str:
        """`e`, open over the binders, as text with the binders named by
        `names`, which `names()` computes once per message."""
        if isinstance(e, str):
            return e
        return pretty_print(instantiate(e, [Const(name) for name in names]))

    def __str__(self) -> str:
        names = self.names()
        context = ",".join([*(e.name for e in self.context), *names]) or "."
        return f"{context} |- {self.show(self.subject, names)} : {self.show(self.classifier, names)}"


class Derivation:
    """A derivation node, immutable by contract; its constructor counts its
    `size`, the nodes of the tree it roots.  A backchaining node records the
    subject's `head`, a declared constant's name or `#k` for the k-th of the
    conclusion's binders counted from the innermost, and its arguments as
    `instantiation`, open over those binders like the subject.  All its
    fields, `size` included, take part in equality and `repr`."""

    __slots__ = ("rule", "conclusion", "premises", "size", "head", "instantiation")
    __match_args__ = ("rule", "conclusion", "premises", "head", "instantiation")

    def __init__(
        self,
        rule: str,
        conclusion: Judgment,
        premises: tuple["Derivation", ...] = (),
        head: str | None = None,
        instantiation: tuple[LfExpr, ...] = (),
    ):
        self.rule = rule
        self.conclusion = conclusion
        self.premises = premises
        size = 1
        for p in premises:
            size += p.size
        self.size = size
        self.head = head
        self.instantiation = instantiation

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Derivation:
            return NotImplemented
        return self is other or (
            self.size == other.size
            and self.rule == other.rule
            and self.head == other.head
            and self.conclusion == other.conclusion
            and self.premises == other.premises
            and self.instantiation == other.instantiation
        )

    def __hash__(self) -> int:
        return hash((self.rule, self.conclusion, self.premises, self.size, self.head, self.instantiation))

    def __repr__(self) -> str:
        return fields_repr(self, self.__slots__)


def _reject_metas(e: LfExpr, rule: str, judgment: Judgment) -> None:
    if e.has_meta:
        raise KernelError("meta-variables are not permitted in the kernel", rule, judgment)


# ---------------------------------------------------------------------------
# Signature formation
# ---------------------------------------------------------------------------


def checked_signature(sig: Signature) -> Signature:
    """Normalize every classifier against its sort, check it, and return the
    normalized signature.

    Each entry is normalized and checked against the entries added before
    it, then added: a declaration may reference only earlier names, and an
    error's judgment names only those.  Each declaration's derivation is
    dropped once its check returns: no caller reads a proof of signature
    formation, only whether it holds.
    """
    checked = Signature()
    for entry in sig:
        kind = entry.sort == "kind"
        classifier = normalize(entry.classifier, KIND if kind else TYPE, checked)
        (check_kind if kind else check_type)(checked, classifier)
        checked.add(SigEntry(entry.name, classifier, entry.sort))
    return checked


# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------


def check_kind(sig: Signature, k: LfExpr) -> Derivation:
    """Derivation of `sig |- k kind` for canonical `k`."""
    _reject_metas(k, "PiKind", Judgment(sig, (), k, "kind"))
    return _check_kind(sig, (), (), k, {})


def _check_kind(sig: Signature, hints: Hints, stack: Stack, k: LfExpr, memo: Memo) -> Derivation:
    cls = k.__class__
    if cls is TypeKind:
        return Derivation("TypeKind", Judgment(sig, hints, "type", "kind"))
    if cls is Pi:
        da = _check_family(sig, hints, stack, k.annot, memo)
        db = _check_kind(sig, hints + (k.hint,), stack + (k.annot,), k.body, memo)
        return Derivation("PiKind", Judgment(sig, hints, k, "kind"), (da, db))
    raise KernelError("kind expected", "PiKind", Judgment(sig, hints, k, "kind"))


# ---------------------------------------------------------------------------
# Type families
# ---------------------------------------------------------------------------


def check_type(sig: Signature, a: LfExpr) -> Derivation:
    """Derivation of `sig |- a : type` for canonical `a`."""
    _reject_metas(a, "BackchainFam", Judgment(sig, (), a, TYPE))
    return _check_family(sig, (), (), a, {})


def _check_family(sig: Signature, hints: Hints, stack: Stack, a: LfExpr, memo: Memo) -> Derivation:
    """Derivation of `a : type`.  A kind's domains are types, so no family
    takes a family argument and every family is checked at kind `type`."""
    j = Judgment(sig, hints, a, TYPE)
    cls = a.__class__
    if cls is Pi:
        da = _check_family(sig, hints, stack, a.annot, memo)
        db = _check_family(sig, hints + (a.hint,), stack + (a.annot,), a.body, memo)
        return Derivation("PiFam", j, (da, db))
    if cls is Lam:
        raise KernelError("abstraction cannot have kind 'type'", "PiFam", j)
    if cls is TypeKind:
        raise KernelError("'type' is not a type", "PiFam", j)
    return _backchain(sig, stack, a, TYPE, j, memo)


# ---------------------------------------------------------------------------
# Objects
# ---------------------------------------------------------------------------


def check_object(sig: Signature, m: LfExpr, a: LfExpr) -> Derivation:
    """Derivation of `sig |- m : a`.

    `a` must be canonical and already accepted by `check_type`; the subject is
    expected in beta-eta-long form (normalize at the boundary first).
    """
    j = Judgment(sig, (), m, a)
    _reject_metas(m, "BackchainObj", j)
    _reject_metas(a, "BackchainObj", j)
    return _check_object(sig, (), (), m, a, {})


def _check_object(sig: Signature, hints: Hints, stack: Stack, m: LfExpr, a: LfExpr, memo: Memo) -> Derivation:
    j = Judgment(sig, hints, m, a)
    cls = a.__class__
    if cls is Pi:
        if m.__class__ is not Lam:
            raise KernelError("object of product type must be an abstraction", "AbsObj", j)
        if m.annot != a.annot:
            raise KernelError("abstraction annotation differs from product domain", "AbsObj", j)
        db = _check_object(sig, hints + (m.hint,), stack + (a.annot,), m.body, a.body, memo)
        return Derivation("AbsObj", j, (db,))
    if cls is TypeKind:
        raise KernelError("objects cannot have kind classifiers", "BackchainObj", j)
    return _backchain(sig, stack, m, a, j, memo)


def _backchain(
    sig: Signature, stack: Stack, subject: LfExpr, expected: LfExpr, j: Judgment, memo: Memo
) -> Derivation:
    """One rule for families (`expected` is `type`) and objects at a base
    type: take the classifier of the subject's head, a declared constant or
    a binder `#k`, check the i-th argument against the i-th binder domain
    instantiated with the arguments before it, and match the target
    instantiated with all of them against `expected`.  The arguments are
    checked under the binders of `j`.  A declared constant's sort is read
    off its entry, which `checked_signature` made agree with its classifier;
    a binder's classifier is a type.

    A judgment about the very subject object at the very classifier object
    under the very stack object that this top-level check has already
    derived gets that derivation again: it is the same rule applied to the
    same input.  A failure raises and is never kept."""
    key = (id(subject), id(expected), id(stack))
    if (hit := memo.get(key)) is not None:
        return hit[3]
    family = expected.__class__ is TypeKind
    rule = "BackchainFam" if family else "BackchainObj"
    if subject.__class__ is Lam:
        raise KernelError("abstraction against a base type", rule, j)
    head, args = subject, []
    while head.__class__ is App:
        args.append(head.arg)
        head = head.fn
    args.reverse()
    if head.__class__ is Const:
        entry = sig.lookup(head.name)
        if entry is None:
            raise KernelError(f"unbound constant {head.name!r}", rule, j)
        cls, is_family = entry.classifier, entry.sort == "kind"
    elif head.__class__ is Bound and head.index < len(stack):
        cls, is_family = _shift(stack[-1 - head.index], head.index + 1, 0), False
    elif family:
        raise KernelError("base type must be headed by a declared family", rule, j)
    else:
        raise KernelError("object head must be a declared constant or context variable", rule, j)
    if family != is_family:
        what = "is not a type family" if family else "is a type family, not an object"
        raise KernelError(f"{j.show(head, j.names())!r} {what}", rule, j)
    premises: list[Derivation] = []
    for i, n in enumerate(args):
        if cls.__class__ is not Pi:
            raise KernelError(f"{j.show(head, j.names())!r} applied to too many arguments", "BackchainObj", j)
        try:
            premises.append(_check_object(sig, j.binders, stack, n, instance(cls.annot, args[:i]), memo))
        except KernelError as err:
            message = f"argument {i + 1} of {j.show(head, j.names())!r}: {err.message}"
            raise KernelError(message, err.rule, err.judgment) from None
        cls = cls.body
    cls = instance(cls, args)
    if cls is not expected and cls != expected:
        names = j.names()
        shown = repr(j.show(head, names))
        if family:
            raise KernelError(f"family {shown} is not fully applied", rule, j)
        if cls.__class__ is Pi:
            raise KernelError(f"{shown} is under-applied (subject not eta-long)", rule, j)
        raise KernelError(f"head {shown} constructs {j.show(cls, names)}, expected {j.show(expected, names)}", rule, j)
    d = Derivation(rule, j, tuple(premises), str(head), tuple(args))
    memo[key] = (subject, expected, stack, d)
    return d
