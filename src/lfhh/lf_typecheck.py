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
    Const,
    Fingerprint,
    LfError,
    LfExpr,
    Lam,
    Pi,
    Signature,
    TypeKind,
    classifier_sort,
    codomain,
    fields_repr,
    free_names,
    fresh_name,
    head_classifier,
    instantiate,
    normalize,
    pretty_print,
    spine,
)

__all__ = [
    "Judgment",
    "Derivation",
    "KernelError",
    "checked_signature",
    "check_kind",
    "check_type",
    "check_object",
    "to_sexpr",
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
# The derivations of one top-level check that were made under no binder, by
# the ids of their subject and classifier: (subject, classifier, derivation).
# Keeping the two objects keeps their ids from being reused while it lives.
Memo = dict[tuple[int, int], tuple[LfExpr, LfExpr, "Derivation"]]


class Judgment:
    """Conclusion record: the declarations' fingerprint, the hints of the
    binders crossed (innermost last), and a subject and classifier open over
    those binders (expressions or literal text).  All are kept as they are,
    so a judgment costs O(1), and binders are named only when printed.
    Like expression nodes, a judgment is immutable by contract, and all its
    fields take part in equality."""

    __slots__ = ("context", "binders", "subject", "classifier")
    __match_args__ = __slots__

    def __init__(
        self,
        context: Fingerprint,
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
            self.context == other.context
            and self.binders == other.binders
            and self.subject == other.subject
            and self.classifier == other.classifier
        )

    def __hash__(self) -> int:
        return hash((self.context, self.binders, self.subject, self.classifier))

    def __repr__(self) -> str:
        return fields_repr(self, self.__match_args__)

    def names(self) -> list[str]:
        """A name for each binder: its hint, made fresh against the
        declarations, the constants of the subject and the classifier, and
        the names of the binders outside it."""
        declared, names = set(self.context), []
        for e in (self.subject, self.classifier):
            if isinstance(e, LfExpr):
                declared |= free_names(e)
        for hint in self.binders:
            names.append(fresh_name(hint, declared, names))
        return names

    def show(self, e: LfExpr | str) -> str:
        """`e`, open over the binders, as text with the binders named."""
        if isinstance(e, str):
            return e
        for name in reversed(self.names()):
            e = instantiate(e, Const(name))
        return pretty_print(e)

    def __str__(self) -> str:
        context = ",".join([*self.context, *self.names()]) or "."
        return f"{context} |- {self.show(self.subject)} : {self.show(self.classifier)}"


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


def to_sexpr(d: Derivation) -> str:
    """`(rule conclusion (premises...))` trace form for golden tests."""
    inner = " ".join(to_sexpr(p) for p in d.premises)
    return f'({d.rule} "{d.conclusion}" ({inner}))'


def _reject_metas(e: LfExpr, rule: str, judgment: Judgment) -> None:
    if e.has_meta:
        raise KernelError("meta-variables are not permitted in the kernel", rule, judgment)


# ---------------------------------------------------------------------------
# Signature formation
# ---------------------------------------------------------------------------


def checked_signature(sig: Signature) -> Signature:
    """Normalize every classifier against its sort, check it, and return the
    normalized signature.

    Each entry is processed under the (already normalized and checked) prefix,
    so declarations may only reference earlier names.  Each declaration's
    derivation is dropped once its check returns: no caller reads a proof of
    signature formation, only whether it holds.
    """
    checked = Signature()
    for entry in sig:
        kind = entry.sort == "kind"
        if entry.name in checked:
            raise KernelError(f"duplicate declaration of {entry.name!r}", "KindCtx" if kind else "TypeCtx")
        classifier = normalize(entry.classifier, KIND if kind else TYPE, checked)
        (check_kind if kind else check_type)(checked, classifier)
        checked = checked.extend(entry.name, classifier, entry.sort)
    return checked


# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------


def check_kind(sig: Signature, k: LfExpr) -> Derivation:
    """Derivation of `sig |- k kind` for canonical `k`."""
    _reject_metas(k, "PiKind", Judgment(sig.names, (), k, "kind"))
    return _check_kind(sig, (), (), k, {})


def _check_kind(sig: Signature, hints: Hints, stack: Stack, k: LfExpr, memo: Memo) -> Derivation:
    match k:
        case TypeKind():
            return Derivation("TypeKind", Judgment(sig.names, hints, "type", "kind"))
        case Pi(hint, annot, body):
            da = _check_family(sig, hints, stack, annot, memo)
            db = _check_kind(sig, hints + (hint,), stack + (annot,), body, memo)
            return Derivation("PiKind", Judgment(sig.names, hints, k, "kind"), (da, db))
        case _:
            raise KernelError("kind expected", "PiKind", Judgment(sig.names, hints, k, "kind"))


# ---------------------------------------------------------------------------
# Type families
# ---------------------------------------------------------------------------


def check_type(sig: Signature, a: LfExpr) -> Derivation:
    """Derivation of `sig |- a : type` for canonical `a`."""
    _reject_metas(a, "BackchainFam", Judgment(sig.names, (), a, TYPE))
    return _check_family(sig, (), (), a, {})


def _check_family(sig: Signature, hints: Hints, stack: Stack, a: LfExpr, memo: Memo) -> Derivation:
    """Derivation of `a : type`.  A kind's domains are types, so no family
    takes a family argument and every family is checked at kind `type`."""
    j = Judgment(sig.names, hints, a, TYPE)
    match a:
        case Pi(hint, annot, body):
            da = _check_family(sig, hints, stack, annot, memo)
            db = _check_family(sig, hints + (hint,), stack + (annot,), body, memo)
            return Derivation("PiFam", j, (da, db))
        case Lam():
            raise KernelError("abstraction cannot have kind 'type'", "PiFam", j)
        case TypeKind():
            raise KernelError("'type' is not a type", "PiFam", j)
        case _:
            return _backchain(sig, stack, a, TYPE, j, memo)


# ---------------------------------------------------------------------------
# Objects
# ---------------------------------------------------------------------------


def check_object(sig: Signature, m: LfExpr, a: LfExpr) -> Derivation:
    """Derivation of `sig |- m : a`.

    `a` must be canonical and already accepted by `check_type`; the subject is
    expected in beta-eta-long form (normalize at the boundary first).
    """
    j = Judgment(sig.names, (), m, a)
    _reject_metas(m, "BackchainObj", j)
    _reject_metas(a, "BackchainObj", j)
    return _check_object(sig, (), (), m, a, {})


def _check_object(sig: Signature, hints: Hints, stack: Stack, m: LfExpr, a: LfExpr, memo: Memo) -> Derivation:
    j = Judgment(sig.names, hints, m, a)
    match a:
        case Pi(_, dom, rest):
            if not isinstance(m, Lam):
                raise KernelError("object of product type must be an abstraction", "AbsObj", j)
            if m.annot != dom:
                raise KernelError("abstraction annotation differs from product domain", "AbsObj", j)
            db = _check_object(sig, hints + (m.hint,), stack + (dom,), m.body, rest, memo)
            return Derivation("AbsObj", j, (db,))
        case TypeKind():
            raise KernelError("objects cannot have kind classifiers", "BackchainObj", j)
        case _:
            return _backchain(sig, stack, m, a, j, memo)


def _backchain(
    sig: Signature, stack: Stack, subject: LfExpr, expected: LfExpr, j: Judgment, memo: Memo
) -> Derivation:
    """One rule for families (`expected` is `type`) and objects at a base
    type: take the classifier of the subject's head, a declared constant or
    a binder `#k`, check the i-th argument against the i-th binder domain
    instantiated with the arguments before it, and match the instantiated
    target against `expected`.  The arguments are checked under the
    binders of `j`.

    Under no binder, a judgment about the very subject object at the very
    classifier object that this top-level check has already derived gets
    that derivation again: it is the same rule applied to the same input.
    A failure raises and is never kept."""
    key = None if stack else (id(subject), id(expected))
    if key is not None and (hit := memo.get(key)) is not None:
        return hit[2]
    family = isinstance(expected, TypeKind)
    rule = "BackchainFam" if family else "BackchainObj"
    if isinstance(subject, Lam):
        raise KernelError("abstraction against a base type", rule, j)
    head, args = spine(subject)
    cls = head_classifier(head, sig, stack)
    if cls is None:
        if isinstance(head, Const):
            raise KernelError(f"unbound constant {head.name!r}", rule, j)
        if family:
            raise KernelError("base type must be headed by a declared family", rule, j)
        raise KernelError("object head must be a declared constant or context variable", rule, j)
    if family != (classifier_sort(cls) == "kind"):
        what = "is not a type family" if family else "is a type family, not an object"
        raise KernelError(f"{j.show(head)!r} {what}", rule, j)
    premises: list[Derivation] = []
    for i, n in enumerate(args):
        if not isinstance(cls, Pi):
            raise KernelError(f"{j.show(head)!r} applied to too many arguments", "BackchainObj", j)
        try:
            premises.append(_check_object(sig, j.binders, stack, n, cls.annot, memo))
        except KernelError as err:
            raise KernelError(f"argument {i + 1} of {j.show(head)!r}: {err.message}", err.rule, err.judgment) from None
        cls = codomain(cls, n)
    if cls != expected:
        if family:
            raise KernelError(f"family {j.show(head)!r} is not fully applied", rule, j)
        if isinstance(cls, Pi):
            raise KernelError(f"{j.show(head)!r} is under-applied (subject not eta-long)", rule, j)
        raise KernelError(f"head {j.show(head)!r} constructs {j.show(cls)}, expected {j.show(expected)}", rule, j)
    d = Derivation(rule, j, tuple(premises), str(head), args)
    if key is not None:
        memo[key] = (subject, expected, d)
    return d
