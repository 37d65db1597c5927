"""Simply typed target terms, hereditary Harrop formulas, and the two clause
translations (plain and redundancy-eliminating).

Dependently typed declarations are erased to simply typed constants over two
base sorts: `tm` for encoded objects, `ty` for encoded base types.  A single
predicate relates the two.  Each object-level declaration becomes one closed
clause: a quantifier prefix with one guard per binder and a head atom for the
target type.  The optimized translation replaces the guard of every rigid
binder with truth; guards in negative positions restart the analysis with an
empty candidate set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .lf_syntax import (
    App,
    Bound,
    Const,
    Lam,
    LfError,
    LfExpr,
    Meta,
    Pi,
    Signature,
    TypeKind,
    fresh_name,
    instantiate,
    spine,
)
from .rigidity import plan_for_type

__all__ = [
    "SimpleType",
    "SBase",
    "SArrow",
    "TM",
    "TY",
    "PROP",
    "HhTerm",
    "HConst",
    "HBound",
    "HLam",
    "HApp",
    "HMeta",
    "HEigen",
    "HhFormula",
    "FTop",
    "FAtom",
    "FImplies",
    "FForall",
    "Clause",
    "ClauseSet",
    "erase_type",
    "erased_signature",
    "encode_term",
    "translate_simple",
    "translate_optimized",
    "translate_optimized_decl",
    "translate_query",
    "inhabitation_goal",
    "collect_metas",
    "print_simple_type",
    "print_term",
    "print_formula",
    "print_clauses",
    "parse_clauses",
    "hspine",
    "happs",
    "h_instantiate",
    "f_instantiate",
]


# ---------------------------------------------------------------------------
# Simple types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleType:
    pass


@dataclass(frozen=True)
class SBase(SimpleType):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SArrow(SimpleType):
    dom: SimpleType
    cod: SimpleType

    def __str__(self) -> str:
        return print_simple_type(self)


TM = SBase("tm")
TY = SBase("ty")
PROP = SBase("o")


def erase_type(classifier: LfExpr) -> SimpleType:
    """Erase an LF classifier: products to arrows, base types to `tm`,
    the kind `type` to `ty`.  Dependencies vanish."""
    match classifier:
        case TypeKind():
            return TY
        case Pi(_, annot, body):
            return SArrow(erase_type(annot), erase_type(body))
        case _:
            return TM


def erased_signature(sig: Signature) -> dict[str, SimpleType]:
    return {e.name: erase_type(e.classifier) for e in sig}


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HhTerm:
    pass


@dataclass(frozen=True)
class HConst(HhTerm):
    name: str

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class HBound(HhTerm):
    index: int

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class HLam(HhTerm):
    hint: str = field(compare=False)
    body: HhTerm = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class HApp(HhTerm):
    fn: HhTerm
    arg: HhTerm

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class HMeta(HhTerm):
    """Unification variable.  Identity is the numeric id; the name is for
    display, the simple type and scope level are bookkeeping."""

    name: str = field(compare=False)
    id: int = 0
    stype: SimpleType = field(compare=False, default=TM)
    level: int = field(compare=False, default=0)

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class HEigen(HhTerm):
    """Scoped constant introduced by a universal goal."""

    name: str = field(compare=False)
    id: int = 0
    level: int = 0

    def __str__(self) -> str:
        return print_term(self)


def hspine(t: HhTerm) -> tuple[HhTerm, list[HhTerm]]:
    args: list[HhTerm] = []
    while isinstance(t, HApp):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def happs(head: HhTerm, args: Iterable[HhTerm]) -> HhTerm:
    for a in args:
        head = HApp(head, a)
    return head


def h_instantiate(body: HhTerm, values: Sequence[HhTerm], depth: int = 0) -> HhTerm:
    """Replace the `len(values)` innermost loose bound variables of `body`
    with the locally closed `values`, outermost binder first, in one pass:
    HBound(depth) becomes `values[-1]`."""
    match body:
        case HBound(k):
            if k < depth:
                return body
            i = len(values) - 1 - (k - depth)
            return values[i] if i >= 0 else HBound(k - len(values))
        case HApp(f, a):
            return HApp(h_instantiate(f, values, depth), h_instantiate(a, values, depth))
        case HLam(h, b):
            return HLam(h, h_instantiate(b, values, depth + 1))
        case _:
            return body


def h_abstract(t: HhTerm, name: str, depth: int = 0) -> HhTerm:
    match t:
        case HConst(n) if n == name:
            return HBound(depth)
        case HBound(k):
            return HBound(k + 1) if k >= depth else t
        case HApp(f, a):
            return HApp(h_abstract(f, name, depth), h_abstract(a, name, depth))
        case HLam(h, b):
            return HLam(h, h_abstract(b, name, depth + 1))
        case _:
            return t


def encode_term(e: LfExpr, metas: Mapping[str, HMeta] | None = None) -> HhTerm:
    """Encode a canonical object or base type: annotations are dropped,
    structure is preserved, meta-variables map through `metas`."""
    match e:
        case Const(n):
            return HConst(n)
        case Bound(k):
            return HBound(k)
        case Meta(n):
            if metas is None or n not in metas:
                raise LfError(f"meta-variable {n!r} has no target assignment")
            return metas[n]
        case App(f, a):
            return HApp(encode_term(f, metas), encode_term(a, metas))
        case Lam(h, _, body):
            return HLam(h, encode_term(body, metas))
        case _:
            raise LfError(f"expression has no term encoding: {e!r}")


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HhFormula:
    pass


@dataclass(frozen=True)
class FTop(HhFormula):
    def __str__(self) -> str:
        return "top"


@dataclass(frozen=True)
class FAtom(HhFormula):
    """The sole predicate: subject term related to classifier term."""

    subject: HhTerm
    classifier: HhTerm

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class FImplies(HhFormula):
    antecedent: HhFormula
    consequent: HhFormula

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class FForall(HhFormula):
    hint: str = field(compare=False)
    stype: SimpleType = None  # type: ignore[assignment]
    body: HhFormula = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return print_formula(self)


def f_instantiate(f: HhFormula, values: Sequence[HhTerm], depth: int = 0) -> HhFormula:
    """`h_instantiate` on every term of a formula."""
    match f:
        case FAtom(s, c):
            return FAtom(h_instantiate(s, values, depth), h_instantiate(c, values, depth))
        case FImplies(a, b):
            return FImplies(f_instantiate(a, values, depth), f_instantiate(b, values, depth))
        case FForall(h, st, body):
            return FForall(h, st, f_instantiate(body, values, depth + 1))
        case _:
            return f


def f_abstract(f: HhFormula, name: str, depth: int = 0) -> HhFormula:
    match f:
        case FAtom(s, c):
            return FAtom(h_abstract(s, name, depth), h_abstract(c, name, depth))
        case FImplies(a, b):
            return FImplies(f_abstract(a, name, depth), f_abstract(b, name, depth))
        case FForall(h, st, body):
            return FForall(h, st, f_abstract(body, name, depth + 1))
        case _:
            return f


def collect_metas(f: HhFormula) -> dict[str, HMeta]:
    """Metas occurring in a formula, keyed by display name, first occurrence wins."""
    out: dict[str, HMeta] = {}

    def walk_term(t: HhTerm) -> None:
        match t:
            case HMeta() as m:
                out.setdefault(m.name, m)
            case HApp(fn, a):
                walk_term(fn)
                walk_term(a)
            case HLam(_, b):
                walk_term(b)
            case _:
                pass

    def walk(g: HhFormula) -> None:
        match g:
            case FAtom(s, c):
                walk_term(s)
                walk_term(c)
            case FImplies(a, b):
                walk(a)
                walk(b)
            case FForall(_, _, b):
                walk(b)
            case _:
                pass

    walk(f)
    return out


# ---------------------------------------------------------------------------
# Clause sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Clause:
    origin: str  # name of the originating declaration
    formula: HhFormula


@dataclass(frozen=True)
class ClauseSet:
    clauses: tuple[Clause, ...]
    mode: str  # "naive" | "optimized"
    constants: Mapping[str, SimpleType] = field(compare=False, default_factory=dict)
    # the prover's compiled form of `clauses`, built by its first Solver and
    # kept here so that it lives exactly as long as the set
    compiled: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __iter__(self):
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)


# ---------------------------------------------------------------------------
# Translations
# ---------------------------------------------------------------------------


def _forall(hint: str, annot: LfExpr, var: str, guard: HhFormula, inner: HhFormula) -> HhFormula:
    return FForall(hint if hint != "_" else var, erase_type(annot), f_abstract(FImplies(guard, inner), var))


def _naive(
    sig: Signature,
    a: LfExpr,
    subject: HhTerm,
    avoid: set[str],
    metas: Mapping[str, HMeta] | None = None,
) -> HhFormula:
    """Plain translation: every binder keeps its typing guard.  Positive and
    negative positions coincide when nothing is elided."""
    if isinstance(a, Pi):
        x = fresh_name(a.hint, avoid)
        body = instantiate(a.body, Const(x))
        guard = _naive(sig, a.annot, HConst(x), avoid | {x}, metas)
        inner = _naive(sig, body, HApp(subject, HConst(x)), avoid | {x}, metas)
        return _forall(a.hint, a.annot, x, guard, inner)
    return FAtom(subject, encode_term(a, metas))


def _opt_pos(
    sig: Signature,
    a: LfExpr,
    subject: HhTerm,
    flags: tuple[bool, ...],
    avoid: set[str],
    metas: Mapping[str, HMeta] | None = None,
) -> HhFormula:
    """Positive translation: guards of rigid binders become truth."""
    if isinstance(a, Pi):
        x = fresh_name(a.hint, avoid)
        body = instantiate(a.body, Const(x))
        if flags[0]:
            guard: HhFormula = FTop()
        else:
            guard = _opt_neg(sig, a.annot, HConst(x), avoid | {x}, metas)
        inner = _opt_pos(sig, body, HApp(subject, HConst(x)), flags[1:], avoid | {x}, metas)
        return _forall(a.hint, a.annot, x, guard, inner)
    return FAtom(subject, encode_term(a, metas))


def _opt_neg(
    sig: Signature,
    a: LfExpr,
    subject: HhTerm,
    avoid: set[str],
    metas: Mapping[str, HMeta] | None = None,
) -> HhFormula:
    """Negative translation: binder guards are positive translations of the
    domains, analyzed afresh with no ambient candidates."""
    if isinstance(a, Pi):
        x = fresh_name(a.hint, avoid)
        body = instantiate(a.body, Const(x))
        dom_flags = tuple(r for _, r in plan_for_type(sig, a.annot))
        guard = _opt_pos(sig, a.annot, HConst(x), dom_flags, avoid | {x}, metas)
        inner = _opt_neg(sig, body, HApp(subject, HConst(x)), avoid | {x}, metas)
        return _forall(a.hint, a.annot, x, guard, inner)
    return FAtom(subject, encode_term(a, metas))


def translate_simple(sig: Signature) -> ClauseSet:
    """One clause per object-level declaration, in signature order.  Family
    declarations contribute constants to the erased signature only."""
    avoid = sig.names()
    clauses = tuple(
        Clause(e.name, _naive(sig, e.classifier, HConst(e.name), avoid))
        for e in sig
        if e.sort == "type"
    )
    return ClauseSet(clauses, "naive", erased_signature(sig))


def translate_optimized_decl(sig: Signature, decl_name: str) -> HhFormula:
    entry = sig.lookup(decl_name)
    if entry is None:
        raise KeyError(decl_name)
    flags = tuple(r for _, r in plan_for_type(sig, entry.classifier))
    return _opt_pos(sig, entry.classifier, HConst(entry.name), flags, sig.names())


def translate_optimized(sig: Signature) -> ClauseSet:
    clauses = tuple(
        Clause(e.name, translate_optimized_decl(sig, e.name)) for e in sig if e.sort == "type"
    )
    return ClauseSet(clauses, "optimized", erased_signature(sig))


def translate(sig: Signature, mode: str) -> ClauseSet:
    if mode == "naive":
        return translate_simple(sig)
    if mode == "optimized":
        return translate_optimized(sig)
    raise ValueError(f"unknown mode {mode!r}")


# -- queries -----------------------------------------------------------------


def _assign_query_metas(sig: Signature, a: LfExpr, ids: "itertools.count[int]") -> dict[str, HMeta]:
    """Give every meta of a query type a target-level variable whose simple
    type is the erasure of the expected classifier at its first occurrence."""
    out: dict[str, HMeta] = {}

    def note(name: str, expected: LfExpr | None) -> None:
        if name not in out:
            st = erase_type(expected) if expected is not None else TM
            out[name] = HMeta(name, next(ids), st, 0)

    def walk_object(m: LfExpr, expected: LfExpr | None) -> None:
        match m:
            case Meta(n):
                note(n, expected)
            case Lam(_, _, body):
                inner = expected.body if isinstance(expected, Pi) else None
                walk_object(body, inner)
            case App():
                head, args = spine(m)
                cls: LfExpr | None = None
                if isinstance(head, Const):
                    entry = sig.lookup(head.name)
                    cls = entry.classifier if entry is not None else None
                elif isinstance(head, Meta):
                    note(head.name, None)
                for arg in args:
                    dom = cls.annot if isinstance(cls, Pi) else None
                    walk_object(arg, dom)
                    cls = cls.body if isinstance(cls, Pi) else None
            case _:
                pass

    def walk_type(t: LfExpr) -> None:
        if isinstance(t, Pi):
            walk_type(t.annot)
            walk_type(t.body)
            return
        head, args = spine(t)
        cls = None
        if isinstance(head, Const):
            entry = sig.lookup(head.name)
            cls = entry.classifier if entry is not None else None
        for arg in args:
            dom = cls.annot if isinstance(cls, Pi) else None
            walk_object(arg, dom)
            cls = cls.body if isinstance(cls, Pi) else None

    walk_type(a)
    return out


def translate_query(
    sig: Signature, a: LfExpr, mode: str = "optimized"
) -> tuple[HhFormula, HMeta]:
    """Goal for an inhabitation query: the (mode-appropriate) translation of
    the canonical type `a`, applied to a fresh proof variable.  Metas of `a`
    are carried through and can be recovered from the goal with
    `collect_metas`."""
    ids = itertools.count(1)
    metas = _assign_query_metas(sig, a, ids)
    taken = set(metas)
    pname = "M" if "M" not in taken else fresh_name("M", taken)
    proof = HMeta(pname, 0, erase_type(a), 0)
    goal = inhabitation_goal(sig, a, proof, mode, metas)
    return goal, proof


def inhabitation_goal(
    sig: Signature,
    a: LfExpr,
    subject: HhTerm,
    mode: str,
    metas: Mapping[str, HMeta] | None = None,
) -> HhFormula:
    """Translation of type `a` applied to a given subject term."""
    avoid = sig.names() | (set(metas) if metas else set())
    if mode == "naive":
        return _naive(sig, a, subject, avoid, metas)
    if mode == "optimized":
        return _opt_neg(sig, a, subject, avoid, metas)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
#
#   clause   :=  formula "."
#   formula  :=  "forall" IDENT ":" stype "." formula | implies
#   implies  :=  funit ("=>" implies)?
#   funit    :=  "top" | "hastype" tatom tatom | "(" formula ")"
#   tatom    :=  IDENT | "(" term ")" | "\" IDENT "." term
#   term     :=  tatom+
#   stype    :=  satom ("->" stype)?
#   satom    :=  "tm" | "ty" | "o" | "(" stype ")"
#
# Bound variables print as x1, x2, ... in binder order.


def print_simple_type(t: SimpleType, prec: int = 0) -> str:
    match t:
        case SBase(n):
            return n
        case SArrow(d, c):
            s = f"{print_simple_type(d, 1)} -> {print_simple_type(c, 0)}"
            return f"({s})" if prec > 0 else s
        case _:
            raise LfError(f"bad simple type {t!r}")


def print_term(t: HhTerm, prec: int = 0, names: tuple[str, ...] = ()) -> str:
    match t:
        case HConst(n):
            return n
        case HEigen() as e:
            return e.name
        case HMeta() as m:
            return f"?{m.name}"
        case HBound(k):
            return names[-1 - k] if k < len(names) else f"#{k}"
        case HLam() as l:
            name = f"x{len(names) + 1}"
            s = f"\\{name}. {print_term(l.body, 0, names + (name,))}"
            return f"({s})" if prec > 0 else s
        case HApp():
            head, args = hspine(t)
            parts = [print_term(head, 1, names)] + [print_term(a, 2, names) for a in args]
            s = " ".join(parts)
            return f"({s})" if prec > 1 else s
        case _:
            raise LfError(f"bad term {t!r}")


class _NameGen:
    def __init__(self):
        self.n = 0

    def next(self) -> str:
        self.n += 1
        return f"x{self.n}"


def print_formula(f: HhFormula) -> str:
    gen = _NameGen()

    def go(g: HhFormula, prec: int, names: tuple[str, ...]) -> str:
        match g:
            case FTop():
                return "top"
            case FAtom(s, c):
                return f"hastype {print_term(s, 2, names)} {print_term(c, 2, names)}"
            case FImplies(a, b):
                s = f"{go(a, 2, names)} => {go(b, 1, names)}"
                return f"({s})" if prec > 1 else s
            case FForall(_, st, body):
                name = gen.next()
                s = f"forall {name}:{print_simple_type(st)}. {go(body, 0, names + (name,))}"
                return f"({s})" if prec > 0 else s
            case _:
                raise LfError(f"bad formula {g!r}")

    return go(f, 0, ())


def print_clauses(cs: ClauseSet) -> str:
    """Deterministic textual form, one clause per line, terminated by '.'."""
    return "".join(f"{print_formula(c.formula)}.\n" for c in cs)


# -- parsing of the clause format (used by golden tests and interop) ---------


def _tokenize_hh(text: str) -> list[tuple[str, str]]:
    toks: list[tuple[str, str]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("=>", i):
            toks.append(("punct", "=>"))
            i += 2
            continue
        if text.startswith("->", i):
            toks.append(("punct", "->"))
            i += 2
            continue
        if c in "().:\\":
            toks.append(("punct", c))
            i += 1
            continue
        if c.isalnum() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(("ident", text[i:j]))
            i = j
            continue
        raise LfError(f"bad character in clause text: {c!r}")
    toks.append(("eof", ""))
    return toks


class _HhParser:
    def __init__(self, text: str):
        self.toks = _tokenize_hh(text)
        self.pos = 0
        self.binders: list[str] = []

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None):
        k, s = self.next()
        if k != kind or (text is not None and s != text):
            raise LfError(f"clause syntax: expected {text or kind!r}, found {s!r}")
        return s

    def stype(self) -> SimpleType:
        left = self.satom()
        if self.peek() == ("punct", "->"):
            self.next()
            return SArrow(left, self.stype())
        return left

    def satom(self) -> SimpleType:
        k, s = self.next()
        if (k, s) == ("punct", "("):
            t = self.stype()
            self.expect("punct", ")")
            return t
        if k == "ident" and s in ("tm", "ty", "o"):
            return {"tm": TM, "ty": TY, "o": PROP}[s]
        raise LfError(f"clause syntax: bad simple type token {s!r}")

    def formula(self) -> HhFormula:
        k, s = self.peek()
        if (k, s) == ("ident", "forall"):
            self.next()
            name = self.expect("ident")
            self.expect("punct", ":")
            st = self.stype()
            self.expect("punct", ".")
            self.binders.append(name)
            body = self.formula()
            self.binders.pop()
            # occurrences were emitted as indices against the binder stack
            return FForall(name, st, body)
        return self.implies()

    def implies(self) -> HhFormula:
        left = self.funit()
        if self.peek() == ("punct", "=>"):
            self.next()
            return FImplies(left, self.implies())
        return left

    def funit(self) -> HhFormula:
        k, s = self.peek()
        if (k, s) == ("ident", "top"):
            self.next()
            return FTop()
        if (k, s) == ("ident", "hastype"):
            self.next()
            return FAtom(self.tatom(), self.tatom())
        if (k, s) == ("punct", "("):
            self.next()
            f = self.formula()
            self.expect("punct", ")")
            return f
        raise LfError(f"clause syntax: unexpected {s!r} in formula")

    def term(self) -> HhTerm:
        t = self.tatom()
        while True:
            k, s = self.peek()
            if k == "ident" or (k, s) == ("punct", "(") or (k, s) == ("punct", "\\"):
                t = HApp(t, self.tatom())
            else:
                return t

    def tatom(self) -> HhTerm:
        k, s = self.next()
        if (k, s) == ("punct", "("):
            t = self.term()
            self.expect("punct", ")")
            return t
        if (k, s) == ("punct", "\\"):
            name = self.expect("ident")
            self.expect("punct", ".")
            self.binders.append(name)
            body = self.term()
            self.binders.pop()
            return HLam(name, body)
        if k == "ident":
            for depth, b in enumerate(reversed(self.binders)):
                if b == s:
                    return HBound(depth)
            return HConst(s)
        raise LfError(f"clause syntax: unexpected {s!r} in term")


def parse_clauses(text: str) -> list[HhFormula]:
    """Parse the clause text format back into formulas (origins are not part
    of the format)."""
    p = _HhParser(text)
    out: list[HhFormula] = []
    while p.peek()[0] != "eof":
        f = p.formula()
        p.expect("punct", ".")
        out.append(f)
    return out
