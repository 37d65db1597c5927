"""Simply typed target terms, hereditary Harrop formulas, and the two clause
translations (plain and redundancy-eliminating).

A target term is an LF expression: its constants, bound variables and
applications are `Const`, `Bound` and `App`, its abstractions are `Lam`
nodes whose annotation is `NO_ANNOT`, and its unification variables and
eigenvariables are the leaves `HMeta` and `HEigen`.  So the encoding of a
canonical object without abstractions or meta-variables is that object
itself, and one `instantiate`, `_shift` and `_uses_bound` serve both sides.

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

from typing import Mapping, Sequence

from .lf_syntax import (
    NO_ANNOT,
    App,
    Bound,
    Const,
    HEigen,
    HMeta,
    Lam,
    LfError,
    LfExpr,
    Meta,
    Pi,
    Record,
    Signature,
    TypeKind,
    _shift,
    _uses_bound,
    fields_repr,
    fresh_name,
    instantiate,
    make_app,
    spine,
)
from .rigidity import plan_for_type

__all__ = [
    "SimpleType",
    "SBase",
    "SArrow",
    "TM",
    "TY",
    "HhFormula",
    "FTop",
    "FAtom",
    "FImplies",
    "FForall",
    "Clause",
    "ClauseSet",
    "erase_type",
    "encode_term",
    "translate",
    "translate_query",
    "inhabitation_goal",
    "open_leaves",
    "print_simple_type",
    "print_term",
    "print_formula",
    "print_clauses",
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


def erase_type(classifier: LfExpr) -> SimpleType:
    """Erase an LF classifier: products to arrows, base types to `tm`,
    the kind `type` to `ty`.  Dependencies vanish."""
    cls = classifier.__class__
    if cls is Pi:
        return SArrow(erase_type(classifier.annot), erase_type(classifier.body))
    return TY if cls is TypeKind else TM


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


# A target term is an LF expression, and keeps its summaries (see
# `lf_syntax`): its `scope` is `OPEN` when it contains a unification
# variable, an eigenvariable or a beta-redex at a spine head, and a term is
# closed when its scope is 0: then dereferencing, normalizing, instantiating
# or inverting it returns the term itself.  A term whose scope is not `OPEN`
# also has `lam_free`, true when it has no abstraction anywhere inside.  The
# prover's abstraction carries `NO_ANNOT`, a closed leaf, so it is equal to
# another exactly when their bodies are, and never to an annotated one.


def encode_term(e: LfExpr, metas: Mapping[str, HMeta] | None = None) -> LfExpr:
    """Encode a canonical object or base type: each abstraction's annotation
    becomes `NO_ANNOT`, structure is preserved, meta-variables map through
    `metas`.  Only abstractions and meta-variables are copied: a subterm
    made of constants, bound variables and applications alone is its own
    encoding.
    An application node above a copied node that occurs several times in
    `e` is encoded once, and its occurrences share the encoding."""
    return _encode(e, metas, {})


def _encode(t: LfExpr, metas: Mapping[str, HMeta] | None, shared: dict[int, LfExpr]) -> LfExpr:
    """`encode_term`'s walk; `shared` maps the id of an App node of the
    input to its encoding."""
    if t.scope >= 0 and t.lam_free:
        return t
    cls = t.__class__
    if cls is App:
        out = shared.get(id(t))
        if out is None:
            out = shared[id(t)] = App(_encode(t.fn, metas, shared), _encode(t.arg, metas, shared))
        return out
    if cls is Meta:
        if metas is None or t.name not in metas:
            raise LfError(f"meta-variable {t.name!r} has no target assignment")
        return metas[t.name]
    if cls is Lam:
        return Lam(t.hint, NO_ANNOT, _encode(t.body, metas, shared))
    raise LfError(f"expression has no term encoding: {t!r}")


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

    def __init__(self, subject: LfExpr, classifier: LfExpr):
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


def f_instantiate(f: HhFormula, values: Sequence[LfExpr], depth: int = 0) -> HhFormula:
    """`instantiate` on every term of a formula."""
    if isinstance(f, FAtom):
        return FAtom(instantiate(f.subject, values, depth), instantiate(f.classifier, values, depth))
    if isinstance(f, FImplies):
        return FImplies(f_instantiate(f.antecedent, values, depth), f_instantiate(f.consequent, values, depth))
    if isinstance(f, FForall):
        return FForall(f.hint, f.stype, f_instantiate(f.body, values, depth + 1))
    return f


def open_leaves(t: LfExpr | HhFormula, kind: type, out: list) -> list:
    """`out` extended with the leaves of class `kind` of the term or formula
    `t`, left to right.  A term whose scope is not `OPEN` has none and is not
    entered.  Tested by class, not by `match`, which costs twice as much on
    a call that every solve makes."""
    cls = t.__class__
    if cls is App:
        if t.scope < 0:
            open_leaves(t.fn, kind, out)
            open_leaves(t.arg, kind, out)
    elif cls is Lam:
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
    __slots__ = ("clauses", "mode", "compiled", "index")
    __match_args__ = ("clauses", "mode")

    def __init__(self, clauses: tuple[Clause, ...], mode: str):
        self.clauses = clauses
        self.mode = mode  # "naive" | "optimized"
        # the prover's compiled form of `clauses` and its clause index, built
        # by the first Solver and kept here to live exactly as long as the set
        self.compiled: tuple | None = None
        self.index: tuple | None = None

    def __iter__(self):
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)


# ---------------------------------------------------------------------------
# Translations
# ---------------------------------------------------------------------------


_VAR = Bound(0)  # the subject of a guard: the variable its quantifier binds


def _clause(
    sig: Signature,
    a: LfExpr,
    head: LfExpr,
    polarity: str,
    local: tuple[str, ...],
    metas: Mapping[str, HMeta] | None = None,
) -> HhFormula:
    """Translation of the type `a` for `head`: the quantifier prefix of `a`
    with one guard per binder, closed by the atom whose subject is `head`
    (an index counted where the prefix starts, or a term with no loose
    index) applied to the prefix's variables.

    `polarity` picks the guards.  "naive": every binder keeps its typing
    guard, positive and negative positions coinciding when nothing is
    elided.  "pos": guards of the binders that rigidity analysis of `a`
    finds rigid become truth, the others are negative translations of the
    domains.  "neg": guards are positive translations of the domains,
    analyzed afresh with no ambient candidates.  A guard's domain is shifted by one, as the guard sits under
    its own quantifier.  `_` binders are named to avoid the signature and
    `local`: the query's meta-variables and the names of the enclosing
    binders."""
    prefix: list[tuple[str, SimpleType, HhFormula]] = []
    flags = [r for _, r in plan_for_type(a)] if polarity == "pos" else ()
    while isinstance(a, Pi):
        x = fresh_name(a.hint, sig, local)
        local += (x,)
        dom = _shift(a.annot, 1, 0)
        if polarity == "naive":
            guard = _clause(sig, dom, _VAR, "naive", local, metas)
        elif polarity == "neg":
            guard = _clause(sig, dom, _VAR, "pos", local, metas)
        else:
            guard = FTop() if flags[len(prefix)] else _clause(sig, dom, _VAR, "neg", local, metas)
        prefix.append((a.hint if a.hint != "_" else x, erase_type(a.annot), guard))
        a = a.body
    n = len(prefix)
    if head.__class__ is Bound:
        head = Bound(head.index + n)
    f: HhFormula = FAtom(make_app(head, [Bound(i) for i in range(n - 1, -1, -1)]), encode_term(a, metas))
    for hint, stype, guard in reversed(prefix):
        f = FForall(hint, stype, FImplies(guard, f))
    return f


def translate(sig: Signature, mode: str) -> ClauseSet:
    """One clause per object-level declaration, in signature order; family
    declarations make no clause.  "naive" keeps every typing guard;
    "optimized" replaces with truth the guard of each binder that rigidity
    analysis finds rigid."""
    if mode not in ("naive", "optimized"):
        raise ValueError(f"unknown mode {mode!r}")
    polarity = "naive" if mode == "naive" else "pos"
    clauses = []
    for e in sig:
        if e.sort == "type":
            clauses.append(Clause(e.name, _clause(sig, e.classifier, Const(e.name), polarity, ())))
    return ClauseSet(tuple(clauses), mode)


# -- queries -----------------------------------------------------------------


def _add_query_metas(sig: Signature, e: LfExpr, is_arg: bool, out: dict[str, HMeta]) -> None:
    """Add to `out` a target-level variable for each new meta of `e`,
    numbered on from `len(out) + 1` in order of first occurrence:
    annotations before bodies, spine arguments left to right, the order in
    which the goal mentions them.  A meta that is not an argument, inside an
    abstraction that is one, or the head of an applied argument has no
    target, a constant that `sig` does not declare is unbound, and one
    with fewer arguments than binders in its classifier, which only an
    ill-typed query has once normalized, is under-applied: input errors in
    both modes, whether or not the mode's goal keeps its position."""
    head, args = spine(e)
    cls = head.__class__
    if cls is Pi or cls is Lam:
        _add_query_metas(sig, head.annot, False, out)
        _add_query_metas(sig, head.body, is_arg, out)
    elif cls is Meta:
        if not is_arg:
            raise LfError(f"meta-variable {head.name!r} has no target assignment")
        if head.name not in out:
            out[head.name] = HMeta(head.name, len(out) + 1)
    elif cls is Const:
        entry = sig.lookup(head.name)
        if entry is None:
            raise LfError(f"unbound constant {head.name!r}")
        t, binders = entry.classifier, 0
        while t.__class__ is Pi:
            t, binders = t.body, binders + 1
        if len(args) < binders:
            raise LfError(f"constant {head.name!r} is under-applied")
    for arg in args:
        _add_query_metas(sig, arg, True, out)


def translate_query(
    sig: Signature, a: LfExpr, mode: str = "optimized"
) -> tuple[HhFormula, HMeta, dict[str, HMeta]]:
    """Goal for an inhabitation query: the (mode-appropriate) translation of
    the canonical type `a`, applied to a fresh proof variable; with that
    variable and the table of the query's variables, which does not depend
    on the mode and may hold variables the goal does not mention."""
    metas: dict[str, HMeta] = {}
    _add_query_metas(sig, a, False, metas)
    proof = HMeta(fresh_name("M", metas), 0)
    goal = inhabitation_goal(sig, a, proof, mode, metas)
    return goal, proof, metas


def inhabitation_goal(
    sig: Signature,
    a: LfExpr,
    subject: LfExpr,
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
#   satom    :=  "tm" | "ty" | "(" stype ")"
#
# Bound variables print as x1, x2, ... in binder order.


def print_simple_type(t: SimpleType, prec: int = 0) -> str:
    cls = t.__class__
    if cls is SBase:
        return t.name
    if cls is SArrow:
        s = f"{print_simple_type(t.dom, 1)} -> {print_simple_type(t.cod, 0)}"
        return f"({s})" if prec > 0 else s
    raise LfError(f"bad simple type {t!r}")


def print_term(t: LfExpr, prec: int = 0, names: tuple[str, ...] = ()) -> str:
    cls = t.__class__
    if cls is App:
        head, args = spine(t)
        parts = [print_term(head, 1, names)] + [print_term(a, 2, names) for a in args]
        s = " ".join(parts)
        return f"({s})" if prec > 1 else s
    if cls is Bound:
        k = t.index
        return names[-1 - k] if k < len(names) else f"#{k}"
    if cls is Const or cls is HEigen:
        return t.name
    if cls is HMeta:
        return f"?{t.name}"
    if cls is Lam:
        # skip a name that would capture an outer binder the body refers to
        k = len(names) + 1
        while f"x{k}" in names and any(n == f"x{k}" and _uses_bound(t.body, len(names) - j) for j, n in enumerate(names)):
            k += 1
        name = f"x{k}"
        s = f"\\{name}. {print_term(t.body, 0, names + (name,))}"
        return f"({s})" if prec > 0 else s
    raise LfError(f"bad term {t!r}")


def _mentions(f: HhFormula, k: int) -> bool:
    """Whether the formula `f` has the loose bound variable `k`, nested
    premises included."""
    cls = f.__class__
    if cls is FAtom:
        return _uses_bound(f.subject, k) or _uses_bound(f.classifier, k)
    if cls is FImplies:
        return _mentions(f.antecedent, k) or _mentions(f.consequent, k)
    if cls is FForall:
        return _mentions(f.body, k + 1)
    return False


class _NameGen:
    def __init__(self):
        self.n = 0

    def next(self) -> str:
        self.n += 1
        return f"x{self.n}"


def print_formula(f: HhFormula) -> str:
    return _show_formula(f, 0, (), _NameGen())


def _show_formula(g: HhFormula, prec: int, names: tuple[str, ...], gen: _NameGen) -> str:
    cls = g.__class__
    if cls is FAtom:
        return f"hastype {print_term(g.subject, 2, names)} {print_term(g.classifier, 2, names)}"
    if cls is FImplies:
        s = f"{_show_formula(g.antecedent, 2, names, gen)} => {_show_formula(g.consequent, 1, names, gen)}"
        return f"({s})" if prec > 1 else s
    if cls is FForall:
        name = gen.next()
        s = f"forall {name}:{print_simple_type(g.stype)}. {_show_formula(g.body, 0, names + (name,), gen)}"
        return f"({s})" if prec > 0 else s
    if cls is FTop:
        return "top"
    raise LfError(f"bad formula {g!r}")


def print_clauses(cs: ClauseSet) -> str:
    """Deterministic textual form, one clause per line, terminated by '.'."""
    return "".join(f"{print_formula(c.formula)}.\n" for c in cs)
