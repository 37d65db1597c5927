"""Trusted kernel: decides the four typing assertions of the canonical system.

Checking is syntax-directed.  Objects and families at base classifiers are
handled by a single big-step backchaining rule: look up the head's declared
classifier, check each argument against the progressively instantiated binder
domains, and match the instantiated target against the expected classifier.
Subjects and classifiers are normalized once at the boundary; inside a
derivation everything stays in beta-eta-long form, so rule application never
renormalizes except after instantiation.

Meta-variables are rejected outright: this module is the certification oracle
and must only ever accept closed expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    beta_normalize,
    contains_meta,
    fresh_name,
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
    "check_family",
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


@dataclass(frozen=True)
class Judgment:
    """Conclusion record: context fingerprint, subject and classifier.  All
    three are kept as they are (the fingerprint shares its prefix with the
    enclosing contexts' ones, the subject and classifier are expressions or
    literal text) and printed only when the judgment is."""

    context: Fingerprint
    subject: LfExpr | str | None
    classifier: LfExpr | str | None

    def __str__(self) -> str:
        if self.subject is None:
            return f"{self.context} ctx"
        subject = _text(self.subject)
        if self.classifier is None:
            return f"{self.context} |- {subject}"
        return f"{self.context} |- {subject} : {_text(self.classifier)}"


def _text(e: LfExpr | str) -> str:
    return e if isinstance(e, str) else pretty_print(e)


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: Judgment
    premises: tuple["Derivation", ...]
    size: int
    head: str | None = None
    instantiation: tuple[LfExpr, ...] = ()


def _derive(
    rule: str,
    conclusion: Judgment,
    premises: tuple[Derivation, ...] = (),
    head: str | None = None,
    instantiation: tuple[LfExpr, ...] = (),
) -> Derivation:
    return Derivation(rule, conclusion, premises, 1 + sum(p.size for p in premises), head, instantiation)


def to_sexpr(d: Derivation) -> str:
    """`(rule conclusion (premises...))` trace form for golden tests."""
    inner = " ".join(to_sexpr(p) for p in d.premises)
    return f'({d.rule} "{d.conclusion}" ({inner}))'


def _reject_metas(e: LfExpr, rule: str, judgment: Judgment) -> None:
    if contains_meta(e):
        raise KernelError("meta-variables are not permitted in the kernel", rule, judgment)


# ---------------------------------------------------------------------------
# Context formation
# ---------------------------------------------------------------------------


def checked_signature(sig: Signature) -> tuple[Signature, Derivation]:
    """Normalize every classifier against its sort, check the whole context,
    and return the normalized signature together with its derivation.

    Each entry is processed under the (already normalized and checked) prefix,
    so declarations may only reference earlier names.
    """
    checked = Signature()
    d = _derive("NullCtx", Judgment(checked.names, None, None))
    for entry in sig:
        if entry.name in checked:
            raise KernelError(f"duplicate declaration of {entry.name!r}", "KindCtx" if entry.sort == "kind" else "TypeCtx")
        classifier = normalize(entry.classifier, KIND if entry.sort == "kind" else TYPE, checked)
        if entry.sort == "kind":
            cd = check_kind(checked, classifier)
            rule = "KindCtx"
        else:
            cd = check_type(checked, classifier)
            rule = "TypeCtx"
        checked = checked.extend(entry.name, classifier, entry.sort)
        d = _derive(rule, Judgment(checked.names, None, None), (cd, d))
    return checked, d


# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------


def check_kind(sig: Signature, k: LfExpr) -> Derivation:
    """Derivation of `sig |- k kind` for canonical `k`."""
    j = Judgment(sig.names, k, "kind")
    _reject_metas(k, "PiKind", j)
    return _check_kind(sig, k)


def _check_kind(sig: Signature, k: LfExpr) -> Derivation:
    match k:
        case TypeKind():
            return _derive("TypeKind", Judgment(sig.names, "type", "kind"))
        case Pi(hint, annot, body):
            da = check_type(sig, annot)
            x = fresh_name(hint, sig)
            inner_sig = sig.extend(x, annot, "type")
            db = _check_kind(inner_sig, instantiate(body, Const(x)))
            return _derive("PiKind", Judgment(sig.names, k, "kind"), (da, db))
        case _:
            raise KernelError("kind expected", "PiKind", Judgment(sig.names, k, "kind"))


# ---------------------------------------------------------------------------
# Type families
# ---------------------------------------------------------------------------


def check_type(sig: Signature, a: LfExpr) -> Derivation:
    """Derivation of `sig |- a : type` for canonical `a`."""
    return check_family(sig, a, TYPE)


def check_family(sig: Signature, a: LfExpr, k: LfExpr) -> Derivation:
    """Derivation of `sig |- a : k` with `k` a canonical kind."""
    j = Judgment(sig.names, a, k)
    _reject_metas(a, "BackchainFam", j)
    return _check_family(sig, a, k)


def _check_family(sig: Signature, a: LfExpr, k: LfExpr) -> Derivation:
    j = Judgment(sig.names, a, k)
    match k:
        case Pi(hint, dom, krest):
            # Canonical families of product kind are abstractions.
            if not isinstance(a, Lam):
                raise KernelError("family of product kind must be an abstraction", "AbsFam", j)
            if a.annot != dom:
                raise KernelError("abstraction annotation differs from kind domain", "AbsFam", j)
            x = fresh_name(a.hint, sig)
            inner = sig.extend(x, dom, "type")
            db = _check_family(inner, instantiate(a.body, Const(x)), instantiate(krest, Const(x)))
            return _derive("AbsFam", j, (db,))
        case TypeKind():
            match a:
                case Pi(hint, annot, body):
                    da = check_type(sig, annot)
                    x = fresh_name(hint, sig)
                    inner = sig.extend(x, annot, "type")
                    db = _check_family(inner, instantiate(body, Const(x)), TYPE)
                    return _derive("PiFam", j, (da, db))
                case Lam():
                    raise KernelError("abstraction cannot have kind 'type'", "PiFam", j)
                case TypeKind():
                    raise KernelError("'type' is not a type", "PiFam", j)
                case _:
                    return _backchain_family(sig, a, j)
        case _:
            raise KernelError("classifier is not a kind", "AbsFam", j)


def _backchain_family(sig: Signature, a: LfExpr, j: Judgment) -> Derivation:
    head, args = spine(a)
    if not isinstance(head, Const):
        raise KernelError("base type must be headed by a declared family", "BackchainFam", j)
    entry = sig.lookup(head.name)
    if entry is None:
        raise KernelError(f"unbound constant {head.name!r}", "BackchainFam", j)
    if entry.sort != "kind":
        raise KernelError(f"{head.name!r} is not a type family", "BackchainFam", j)
    premises, target = _check_spine(sig, entry.classifier, args, head.name, j)
    if not isinstance(target, TypeKind):
        raise KernelError(f"family {head.name!r} is not fully applied", "BackchainFam", j)
    return _derive("BackchainFam", j, premises, head=head.name, instantiation=args)


# ---------------------------------------------------------------------------
# Objects
# ---------------------------------------------------------------------------


def check_object(sig: Signature, m: LfExpr, a: LfExpr) -> Derivation:
    """Derivation of `sig |- m : a`.

    `a` must be canonical and already accepted by `check_type`; the subject is
    expected in beta-eta-long form (normalize at the boundary first).
    """
    j = Judgment(sig.names, m, a)
    _reject_metas(m, "BackchainObj", j)
    _reject_metas(a, "BackchainObj", j)
    return _check_object(sig, m, a)


def _check_object(sig: Signature, m: LfExpr, a: LfExpr) -> Derivation:
    j = Judgment(sig.names, m, a)
    match a:
        case Pi(hint, dom, rest):
            if not isinstance(m, Lam):
                raise KernelError("object of product type must be an abstraction", "AbsObj", j)
            if m.annot != dom:
                raise KernelError("abstraction annotation differs from product domain", "AbsObj", j)
            x = fresh_name(m.hint, sig)
            inner = sig.extend(x, dom, "type")
            db = _check_object(inner, instantiate(m.body, Const(x)), instantiate(rest, Const(x)))
            return _derive("AbsObj", j, (db,))
        case TypeKind():
            raise KernelError("objects cannot have kind classifiers", "BackchainObj", j)
        case _:
            return _backchain_object(sig, m, a, j)


def _backchain_object(sig: Signature, m: LfExpr, a: LfExpr, j: Judgment) -> Derivation:
    if isinstance(m, Lam):
        raise KernelError("abstraction against a base type", "BackchainObj", j)
    head, args = spine(m)
    if not isinstance(head, Const):
        raise KernelError("object head must be a declared constant or context variable", "BackchainObj", j)
    entry = sig.lookup(head.name)
    if entry is None:
        raise KernelError(f"unbound constant {head.name!r}", "BackchainObj", j)
    if entry.sort != "type":
        raise KernelError(f"{head.name!r} is a type family, not an object", "BackchainObj", j)
    premises, target = _check_spine(sig, entry.classifier, args, head.name, j)
    if isinstance(target, Pi):
        raise KernelError(f"{head.name!r} is under-applied (subject not eta-long)", "BackchainObj", j)
    if target != a:
        raise KernelError(
            f"head {head.name!r} constructs {pretty_print(target)}, expected {pretty_print(a)}",
            "BackchainObj",
            j,
        )
    return _derive("BackchainObj", j, premises, head=head.name, instantiation=args)


def _check_spine(
    sig: Signature,
    classifier: LfExpr,
    args: tuple[LfExpr, ...],
    head_name: str,
    j: Judgment,
) -> tuple[tuple[Derivation, ...], LfExpr]:
    """Check the i-th argument against the i-th binder domain instantiated
    with the previous arguments (left to right), and return the instantiated
    target classifier."""
    premises: list[Derivation] = []
    cls = classifier
    for i, n in enumerate(args):
        if not isinstance(cls, Pi):
            raise KernelError(f"{head_name!r} applied to too many arguments", "BackchainObj", j)
        try:
            premises.append(_check_object(sig, n, cls.annot))
        except KernelError as err:
            raise KernelError(f"argument {i + 1} of {head_name!r}: {err.message}", err.rule, err.judgment) from None
        cls = beta_normalize(instantiate(cls.body, n))
    return tuple(premises), cls
