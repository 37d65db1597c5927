"""Simply typed target terms, hereditary Harrop formulas, and the two clause
translations (plain and redundancy-eliminating).

Dependent types are erased to simple types over two base sorts: `tm` for
encoded objects, `ty` for encoded base types.  A single predicate relates
the two.  Each object-level declaration becomes one closed clause: a
quantifier prefix with one guard per binder and a head atom for the target
type.  The optimized translation replaces the guard of every rigid
binder with truth; guards in negative positions restart the analysis with an
empty candidate set.

The translations walk a classifier's binders by de Bruijn index and build
each quantifier in place: an LF index under a binder is the same index under
its quantifier, a guard's domain is shifted by one because it sits under its
own quantifier, and an atom's subject is its head applied to the indices of
the binders crossed.  No binder is opened by name and abstracted back.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .lf_syntax import (
    OPEN,
    App,
    Bound,
    Const,
    Lam,
    LfError,
    LfExpr,
    Meta,
    Pi,
    Record,
    Signature,
    TypeKind,
    _Cursor,
    _shift,
    _token_pattern,
    fields_repr,
    fresh_name,
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
    "OPEN",
    "is_closed",
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
    "lf_head",
    "translate_simple",
    "translate_optimized",
    "translate_optimized_decl",
    "translate_query",
    "inhabitation_goal",
    "collect_metas",
    "open_leaves",
    "print_simple_type",
    "print_term",
    "print_formula",
    "print_clauses",
    "parse_clauses",
    "hspine",
    "happs",
    "h_instantiate",
    "h_shift",
    "h_apply",
    "f_instantiate",
]


# ---------------------------------------------------------------------------
# Simple types
# ---------------------------------------------------------------------------


class SimpleType(Record):
    __slots__ = ()


class SBase(SimpleType):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __str__(self) -> str:
        return self.name


class SArrow(SimpleType):
    __slots__ = ("dom", "cod")
    __match_args__ = ("dom", "cod")

    def __init__(self, dom: SimpleType, cod: SimpleType):
        self.dom = dom
        self.cod = cod

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
    """The simple type that erasure gives each declaration of `sig`."""
    return {e.name: erase_type(e.classifier) for e in sig}


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


# Every term has a `scope`, read in O(1), as LF expressions do: the number of
# enclosing binders it needs, that is one more than its highest loose de
# Bruijn index (0 when it has none), or `OPEN` when it contains a
# meta-variable, an eigenvariable or a beta-redex at a spine head.  Leaves
# carry it as a class attribute or compute it from their index; `HApp` and
# `HLam` compute it once from their children in their constructor.  A term
# is closed when its scope is 0: then dereferencing, normalizing,
# instantiating or inverting it returns the term itself.  A term whose scope
# is not `OPEN` also has `lam_free`, true when it has no abstraction anywhere
# inside: a class attribute on `HConst`, `HBound` and `HLam`, a slot that
# `HApp`'s constructor sets, and leaves unset when its scope is `OPEN`.


class HhTerm:
    """Base of every target term node.  As with LF expressions, each class
    has one hand-written constructor that assigns its slots, `scope` and
    `lam_free` included, its own `__eq__` and `__hash__`, and a `repr` of
    the fields in `__match_args__`; every term prints with `print_term`.
    Terms are immutable by contract: no code writes a field after the
    constructor returns, and no `__setattr__` guard slows construction down
    to enforce it."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __repr__(self) -> str:
        return fields_repr(self, self.__match_args__)

    def __str__(self) -> str:
        return print_term(self)


class HConst(HhTerm):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    scope = 0
    lam_free = True

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HConst:
            return NotImplemented
        return self is other or self.name == other.name

    def __hash__(self) -> int:
        return hash((self.name,))


class HBound(HhTerm):
    __slots__ = ("index", "scope")
    __match_args__ = ("index",)
    lam_free = True

    def __init__(self, index: int):
        self.index = index
        self.scope = index + 1

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HBound:
            return NotImplemented
        return self is other or self.index == other.index

    def __hash__(self) -> int:
        return hash((self.index,))


class HLam(HhTerm):
    __slots__ = ("hint", "body", "scope")
    __match_args__ = ("hint", "body")
    lam_free = False

    def __init__(self, hint: str, body: HhTerm):
        self.hint = hint
        self.body = body
        b = body.scope
        self.scope = b - 1 if b > 0 else b

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HLam:
            return NotImplemented
        return self is other or self.body == other.body

    def __hash__(self) -> int:
        return hash((self.body,))


class HApp(HhTerm):
    __slots__ = ("fn", "arg", "scope", "lam_free")
    __match_args__ = ("fn", "arg")

    def __init__(self, fn: HhTerm, arg: HhTerm):
        self.fn = fn
        self.arg = arg
        f, a = fn.scope, arg.scope
        if f < 0 or a < 0 or isinstance(fn, HLam):
            self.scope = OPEN
        else:
            self.scope = f if f >= a else a
            self.lam_free = fn.lam_free and arg.lam_free

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HApp:
            return NotImplemented
        return self is other or (self.fn == other.fn and self.arg == other.arg)

    def __hash__(self) -> int:
        return hash((self.fn, self.arg))


class HMeta(HhTerm):
    """Unification variable.  Identity is the numeric id; the name is for
    display, the scope level is bookkeeping."""

    __slots__ = ("name", "id", "level")
    __match_args__ = ("name", "id", "level")
    scope = OPEN

    def __init__(self, name: str, id: int = 0, level: int = 0):
        self.name = name
        self.id = id
        self.level = level

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HMeta:
            return NotImplemented
        return self is other or self.id == other.id

    def __hash__(self) -> int:
        return hash((self.id,))


class HEigen(HhTerm):
    """Scoped constant introduced by a universal goal."""

    __slots__ = ("name", "id", "level")
    __match_args__ = ("name", "id", "level")
    scope = OPEN

    def __init__(self, name: str, id: int = 0, level: int = 0):
        self.name = name
        self.id = id
        self.level = level

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HEigen:
            return NotImplemented
        return self is other or (self.id == other.id and self.level == other.level)

    def __hash__(self) -> int:
        return hash((self.id, self.level))


def is_closed(t: HhTerm) -> bool:
    """No meta-variable, no eigenvariable, no loose bound variable and no
    beta-redex at a spine head: every traversal returns `t` itself."""
    return t.scope == 0


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
    with `values`, outermost binder first, in one pass: HBound(depth)
    becomes `values[-1]`, shifted by `depth` so that its own loose bound
    variables still point past the binders it is put under."""
    if 0 <= body.scope <= depth:
        return body
    if isinstance(body, HBound):
        k = body.index
        if k < depth:
            return body
        i = len(values) - 1 - (k - depth)
        if i < 0:
            return HBound(k - len(values))
        return h_shift(values[i], depth) if depth else values[i]
    if isinstance(body, HApp):
        return HApp(h_instantiate(body.fn, values, depth), h_instantiate(body.arg, values, depth))
    if isinstance(body, HLam):
        return HLam(body.hint, h_instantiate(body.body, values, depth + 1))
    return body


def h_shift(t: HhTerm, by: int = 1, depth: int = 0) -> HhTerm:
    """`t` under `by` more binders: its loose bound variables at or above
    `depth` are raised by `by`.  A term with none is returned as is."""
    if 0 <= t.scope <= depth:
        return t
    cls = t.__class__
    if cls is HApp:
        return HApp(h_shift(t.fn, by, depth), h_shift(t.arg, by, depth))
    if cls is HLam:
        return HLam(t.hint, h_shift(t.body, by, depth + 1))
    if cls is HBound:  # its index is at least `depth`, by its scope
        return HBound(t.index + by)
    return t


def h_apply(t: HhTerm, v: HhTerm) -> HhTerm:
    """`t v`, with the redex reduced when `t` is an abstraction."""
    if isinstance(t, HLam):
        return h_instantiate(t.body, (v,))
    return HApp(t, v)


def encode_term(e: LfExpr, metas: Mapping[str, HMeta] | None = None) -> HhTerm:
    """Encode a canonical object or base type: annotations are dropped,
    structure is preserved, meta-variables map through `metas`.  An
    application node that occurs several times in `e` is encoded once, and
    its occurrences share the encoding."""
    return _encode(e, metas, {})


def _encode(t: LfExpr, metas: Mapping[str, HMeta] | None, shared: dict[int, HhTerm]) -> HhTerm:
    """`encode_term`'s walk; `shared` maps the id of an App node of the
    input to its encoding."""
    match t:
        case Const(n):
            return HConst(n)
        case Bound(k):
            return HBound(k)
        case Meta(n):
            if metas is None or n not in metas:
                raise LfError(f"meta-variable {n!r} has no target assignment")
            return metas[n]
        case App(f, a):
            out = shared.get(id(t))
            if out is None:
                out = shared[id(t)] = HApp(_encode(f, metas, shared), _encode(a, metas, shared))
            return out
        case Lam(h, _, body):
            return HLam(h, _encode(body, metas, shared))
        case _:
            raise LfError(f"expression has no term encoding: {t!r}")


def lf_head(h: HhTerm) -> LfExpr | None:
    """The LF head that `encode_term` maps to the head `h`: a constant or a
    bound variable; None for any other term."""
    match h:
        case HConst(n):
            return Const(n)
        case HBound(k):
            return Bound(k)
        case _:
            return None


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class HhFormula:
    """Base of every formula node; like terms, formulas have one constructor,
    `__eq__` and `__hash__` each, and are immutable by contract."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __repr__(self) -> str:
        return fields_repr(self, self.__match_args__)


class FTop(HhFormula):
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is FTop else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __str__(self) -> str:
        return "top"


class FAtom(HhFormula):
    """The sole predicate: subject term related to classifier term."""

    __slots__ = ("subject", "classifier")
    __match_args__ = ("subject", "classifier")

    def __init__(self, subject: HhTerm, classifier: HhTerm):
        self.subject = subject
        self.classifier = classifier

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FAtom:
            return NotImplemented
        return self is other or (self.subject == other.subject and self.classifier == other.classifier)

    def __hash__(self) -> int:
        return hash((self.subject, self.classifier))

    def __str__(self) -> str:
        return print_formula(self)


class FImplies(HhFormula):
    __slots__ = ("antecedent", "consequent")
    __match_args__ = ("antecedent", "consequent")

    def __init__(self, antecedent: HhFormula, consequent: HhFormula):
        self.antecedent = antecedent
        self.consequent = consequent

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FImplies:
            return NotImplemented
        return self is other or (self.antecedent == other.antecedent and self.consequent == other.consequent)

    def __hash__(self) -> int:
        return hash((self.antecedent, self.consequent))

    def __str__(self) -> str:
        return print_formula(self)


class FForall(HhFormula):
    __slots__ = ("hint", "stype", "body")
    __match_args__ = ("hint", "stype", "body")

    def __init__(self, hint: str, stype: SimpleType, body: HhFormula):
        self.hint = hint
        self.stype = stype
        self.body = body

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FForall:
            return NotImplemented
        return self is other or (self.stype == other.stype and self.body == other.body)

    def __hash__(self) -> int:
        return hash((self.stype, self.body))

    def __str__(self) -> str:
        return print_formula(self)


def f_instantiate(f: HhFormula, values: Sequence[HhTerm], depth: int = 0) -> HhFormula:
    """`h_instantiate` on every term of a formula."""
    if isinstance(f, FAtom):
        return FAtom(h_instantiate(f.subject, values, depth), h_instantiate(f.classifier, values, depth))
    if isinstance(f, FImplies):
        return FImplies(f_instantiate(f.antecedent, values, depth), f_instantiate(f.consequent, values, depth))
    if isinstance(f, FForall):
        return FForall(f.hint, f.stype, f_instantiate(f.body, values, depth + 1))
    return f


def collect_metas(f: HhFormula) -> dict[str, HMeta]:
    """Metas occurring in a formula, keyed by display name, first occurrence
    wins."""
    out: dict[str, HMeta] = {}
    for m in open_leaves(f, HMeta, []):
        out.setdefault(m.name, m)
    return out


def open_leaves(t: HhTerm | HhFormula, kind: type, out: list) -> list:
    """`out` extended with the leaves of class `kind` of the term or formula
    `t`, left to right.  A term whose scope is not `OPEN` has none and is not
    entered.  Tested by class, not by `match`, which costs twice as much on
    a call that every solve makes."""
    cls = t.__class__
    if cls is HApp:
        if t.scope < 0:
            open_leaves(t.fn, kind, out)
            open_leaves(t.arg, kind, out)
    elif cls is HLam:
        if t.scope < 0:
            open_leaves(t.body, kind, out)
    elif cls is FAtom:
        open_leaves(t.subject, kind, out)
        open_leaves(t.classifier, kind, out)
    elif cls is FImplies:
        open_leaves(t.antecedent, kind, out)
        open_leaves(t.consequent, kind, out)
    elif cls is FForall:
        open_leaves(t.body, kind, out)
    elif isinstance(t, kind):
        out.append(t)
    return out


# ---------------------------------------------------------------------------
# Clause sets
# ---------------------------------------------------------------------------


class Clause(Record):
    __slots__ = ("origin", "formula")
    __match_args__ = ("origin", "formula")

    def __init__(self, origin: str, formula: HhFormula):
        self.origin = origin  # name of the originating declaration
        self.formula = formula


class ClauseSet(Record):
    __slots__ = ("clauses", "mode", "compiled")
    __match_args__ = ("clauses", "mode")

    def __init__(self, clauses: tuple[Clause, ...], mode: str):
        self.clauses = clauses
        self.mode = mode  # "naive" | "optimized"
        # the prover's compiled form of `clauses`, built by its first Solver
        # and kept here so that it lives exactly as long as the set
        self.compiled: tuple | None = None

    def __iter__(self):
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)


# ---------------------------------------------------------------------------
# Translations
# ---------------------------------------------------------------------------


_VAR = HBound(0)  # the subject of a guard: the variable its quantifier binds


def _clause(
    sig: Signature,
    a: LfExpr,
    head: HhTerm,
    polarity: str,
    local: tuple[str, ...],
    metas: Mapping[str, HMeta] | None = None,
    flags: tuple[bool, ...] = (),
) -> HhFormula:
    """Translation of the type `a` for `head`: the quantifier prefix of `a`
    with one guard per binder, closed by the atom whose subject is `head`
    (an index counted where the prefix starts, or a term with no loose
    index) applied to the prefix's variables.

    `polarity` picks the guards.  "naive": every binder keeps its typing
    guard, positive and negative positions coinciding when nothing is
    elided.  "pos": guards of the binders rigid by `flags` become truth, the
    others are negative translations of the domains.  "neg": guards are
    positive translations of the domains, analyzed afresh with no ambient
    candidates.  A guard's domain is shifted by one, as the guard sits under
    its own quantifier.  `_` binders are named to avoid the signature and
    `local`: the query's meta-variables and the names of the enclosing
    binders."""
    prefix: list[tuple[str, SimpleType, HhFormula]] = []
    while isinstance(a, Pi):
        x = fresh_name(a.hint, sig, local)
        local += (x,)
        dom = _shift(a.annot, 1, 0)
        if polarity == "naive":
            guard = _clause(sig, dom, _VAR, "naive", local, metas)
        elif polarity == "neg":
            guard = _clause(sig, dom, _VAR, "pos", local, metas, tuple(r for _, r in plan_for_type(dom)))
        else:
            guard = FTop() if flags[len(prefix)] else _clause(sig, dom, _VAR, "neg", local, metas)
        prefix.append((a.hint if a.hint != "_" else x, erase_type(a.annot), guard))
        a = a.body
    n = len(prefix)
    if isinstance(head, HBound):
        head = HBound(head.index + n)
    f: HhFormula = FAtom(happs(head, [HBound(i) for i in range(n - 1, -1, -1)]), encode_term(a, metas))
    for hint, stype, guard in reversed(prefix):
        f = FForall(hint, stype, FImplies(guard, f))
    return f


def translate_simple(sig: Signature) -> ClauseSet:
    """One clause per object-level declaration, in signature order.  Family
    declarations make no clause."""
    clauses = tuple(
        Clause(e.name, _clause(sig, e.classifier, HConst(e.name), "naive", ()))
        for e in sig
        if e.sort == "type"
    )
    return ClauseSet(clauses, "naive")


def translate_optimized_decl(sig: Signature, decl_name: str) -> HhFormula:
    entry = sig.lookup(decl_name)
    if entry is None:
        raise KeyError(decl_name)
    flags = tuple(r for _, r in plan_for_type(entry.classifier))
    return _clause(sig, entry.classifier, HConst(entry.name), "pos", (), flags=flags)


def translate_optimized(sig: Signature) -> ClauseSet:
    clauses = tuple(
        Clause(e.name, translate_optimized_decl(sig, e.name)) for e in sig if e.sort == "type"
    )
    return ClauseSet(clauses, "optimized")


def translate(sig: Signature, mode: str) -> ClauseSet:
    if mode == "naive":
        return translate_simple(sig)
    if mode == "optimized":
        return translate_optimized(sig)
    raise ValueError(f"unknown mode {mode!r}")


# -- queries -----------------------------------------------------------------


def _query_metas(a: LfExpr) -> dict[str, HMeta]:
    """A target-level variable for each meta of query type `a` that occurs
    as an argument, inside an abstraction that is one, or as the head of an
    applied argument, numbered from 1 in order of first occurrence."""
    out: dict[str, HMeta] = {}
    _add_query_metas(a, False, out)
    return out


def _add_query_metas(e: LfExpr, is_arg: bool, out: dict[str, HMeta]) -> None:
    head, args = spine(e)
    match head:
        case Pi(_, annot, body) if not is_arg and not args:
            _add_query_metas(annot, False, out)
            _add_query_metas(body, False, out)
        case Lam(_, _, body) if is_arg and not args:
            _add_query_metas(body, True, out)
        case Meta(n) if is_arg and n not in out:
            out[n] = HMeta(n, len(out) + 1)
    for arg in args:
        _add_query_metas(arg, True, out)


def translate_query(
    sig: Signature, a: LfExpr, mode: str = "optimized"
) -> tuple[HhFormula, HMeta]:
    """Goal for an inhabitation query: the (mode-appropriate) translation of
    the canonical type `a`, applied to a fresh proof variable.  Metas of `a`
    are carried through and can be recovered from the goal with
    `collect_metas`."""
    metas = _query_metas(a)
    proof = HMeta(fresh_name("M", metas), 0)
    goal = inhabitation_goal(sig, a, proof, mode, metas)
    return goal, proof


def inhabitation_goal(
    sig: Signature,
    a: LfExpr,
    subject: HhTerm,
    mode: str,
    metas: Mapping[str, HMeta] | None = None,
) -> HhFormula:
    """Translation of type `a` applied to a given subject term, which has no
    loose bound variable."""
    local = tuple(metas) if metas else ()
    if mode == "naive":
        return _clause(sig, a, subject, "naive", local, metas)
    if mode == "optimized":
        return _clause(sig, a, subject, "neg", local, metas)
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
# Bound variables print as x1, x2, ... in binder order.  The text is read by
# `lf_syntax`'s scanner and parser cursor, with the punctuation above: so
# comments, identifiers and `line:col` in errors are those of LF text, and an
# identifier cannot start with a digit.


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
    return _show_formula(f, 0, (), _NameGen())


def _show_formula(g: HhFormula, prec: int, names: tuple[str, ...], gen: _NameGen) -> str:
    match g:
        case FTop():
            return "top"
        case FAtom(s, c):
            return f"hastype {print_term(s, 2, names)} {print_term(c, 2, names)}"
        case FImplies(a, b):
            s = f"{_show_formula(a, 2, names, gen)} => {_show_formula(b, 1, names, gen)}"
            return f"({s})" if prec > 1 else s
        case FForall(_, st, body):
            name = gen.next()
            s = f"forall {name}:{print_simple_type(st)}. {_show_formula(body, 0, names + (name,), gen)}"
            return f"({s})" if prec > 0 else s
        case _:
            raise LfError(f"bad formula {g!r}")


def print_clauses(cs: ClauseSet) -> str:
    """Deterministic textual form, one clause per line, terminated by '.'."""
    return "".join(f"{print_formula(c.formula)}.\n" for c in cs)


# -- parsing of the clause format (used by golden tests and interop) ---------

_SIMPLE_TYPES = {"tm": TM, "ty": TY, "o": PROP}


class _HhParser(_Cursor):
    punct = frozenset(("(", ")", ".", ":", "->", "=>", "\\"))
    pattern = _token_pattern(punct)

    def stype(self) -> SimpleType:
        left = self.satom()
        if self.at("->"):
            self.next()
            return SArrow(left, self.stype())
        return left

    def satom(self) -> SimpleType:
        t = self.next()
        if t == "(":
            st = self.stype()
            self.expect(")")
            return st
        if t in _SIMPLE_TYPES:
            return _SIMPLE_TYPES[t]
        raise self.error(f"bad simple type token {t!r}", self.pos - 1)

    def formula(self) -> HhFormula:
        if self.at("forall"):
            self.next()
            name = self.expect()
            self.expect(":")
            st = self.stype()
            self.expect(".")
            self.binders.append(name)
            body = self.formula()
            self.binders.pop()
            # occurrences were emitted as indices against the binder stack
            return FForall(name, st, body)
        return self.implies()

    def implies(self) -> HhFormula:
        left = self.funit()
        if self.at("=>"):
            self.next()
            return FImplies(left, self.implies())
        return left

    def funit(self) -> HhFormula:
        t = self.next()
        if t == "top":
            return FTop()
        if t == "hastype":
            return FAtom(self.tatom(), self.tatom())
        if t == "(":
            f = self.formula()
            self.expect(")")
            return f
        raise self.error(f"unexpected {t or 'eof'!r} in formula", self.pos - 1)

    def term(self) -> HhTerm:
        t = self.tatom()
        while True:
            nxt = self.peek()
            if nxt == "(" or nxt == "\\" or self.is_ident(nxt):
                t = HApp(t, self.tatom())
            else:
                return t

    def tatom(self) -> HhTerm:
        text = self.next()
        if text == "(":
            inner = self.term()
            self.expect(")")
            return inner
        if text == "\\":
            name = self.expect()
            self.expect(".")
            self.binders.append(name)
            body = self.term()
            self.binders.pop()
            return HLam(name, body)
        if self.is_ident(text):
            for depth, b in enumerate(reversed(self.binders)):
                if b == text:
                    return HBound(depth)
            return HConst(text)
        raise self.error(f"unexpected {text or 'eof'!r} in term", self.pos - 1)


def parse_clauses(text: str) -> list[HhFormula]:
    """Parse the clause text format back into formulas (origins are not part
    of the format)."""
    p = _HhParser(text)
    out: list[HhFormula] = []
    while p.peek():
        f = p.formula()
        p.expect(".")
        out.append(f)
    return out
