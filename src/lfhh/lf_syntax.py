"""Terms, parsing, substitution and beta-eta-long normalization for a
dependently typed signature language.

One expression tree covers all three syntactic levels (kinds, type families,
objects).  Binders are locally nameless: bound occurrences are de Bruijn
indices, free occurrences are named nodes, and the name stored on a binder is
only a printing hint.  Structural equality of two expressions is therefore
exactly alpha-equality.  The prover's terms are expressions too (see
`hhf_logic`): its constants, bound variables and applications are `Const`,
`Bound` and `App`, so a term made of them alone is one object in a query,
the search's store, a decoded proof and the kernel's memo; its abstractions
are `Lam` nodes with the annotation `NO_ANNOT`, which erasure leaves in
place of the binder's domain; and its unification variables and
eigenvariables are the leaves `HMeta` and `HEigen`, which the kernel
rejects as it rejects `Meta`.

Every walk over expressions, target terms or formulas in this package
dispatches on the node's class (`t.__class__ is App`), never with `match`,
whose class patterns cost about twice as much per node; no node class is
subclassed, so the two tests agree.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Container, Iterable, Iterator, Sequence

__all__ = [
    "LfExpr",
    "TypeKind",
    "Pi",
    "Lam",
    "App",
    "Bound",
    "Const",
    "Meta",
    "HMeta",
    "HEigen",
    "NO_ANNOT",
    "OPEN",
    "TYPE",
    "KIND",
    "SigEntry",
    "Signature",
    "LfError",
    "LfSyntaxError",
    "NormalizeError",
    "spine",
    "make_app",
    "instantiate",
    "instance",
    "head_classifier",
    "free_names",
    "fresh_name",
    "parse_signature",
    "parse_query",
    "parse_expr_text",
    "pretty_print",
    "beta_normalize",
    "normalize",
]


class LfError(Exception):
    """Base class for all errors raised by this package's front end."""


class LfSyntaxError(LfError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class NormalizeError(LfError):
    pass


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


# Every expression has a `scope`, read in O(1): the number of enclosing
# binders it needs, that is one more than its highest loose de Bruijn index
# (0 when it has none), or `OPEN` when it contains a beta-redex (an `App`
# whose function has `abstraction` set, a `Lam`) or one of the prover's
# variables, `HMeta` and `HEigen`.  Leaves carry it as a class attribute or
# compute it from their index; `Pi`, `Lam` and `App` compute it once from
# their children in their constructor.  The field takes no part in equality,
# hashing, `repr` or pattern matching; nodes keep their fields in slots, so it
# adds no per-node dictionary entry.  `instantiate` returns a subterm whose
# scope is at most the substitution depth, and `beta_normalize` one whose
# scope is not `OPEN`, as that very object.  Next to it, `has_meta` says in
# O(1) whether a meta-variable (a query's `Meta` or the prover's `HMeta`)
# occurs in the expression, and `lam_free`, set when the scope is not
# `OPEN`, whether it is made of constants, bound variables and applications
# alone; both are kept the same way and also take no part in equality,
# hashing, `repr` or matching.  The prover's abstractions carry the closed
# leaf `NO_ANNOT` as their annotation, which every walk returns as it is.
OPEN = -1


def fields_repr(obj: object, fields: Sequence[str]) -> str:
    """`Class(field=value, ...)` over `fields`, as a dataclass prints."""
    shown = ", ".join([f"{f}={getattr(obj, f)!r}" for f in fields])
    return f"{type(obj).__qualname__}({shown})"


class LfExpr:
    """Base of every expression node, and of every node of the prover's
    terms.

    Each node class lists its fields in `__slots__`, has one hand-written
    constructor that assigns them and the summaries it does not carry as
    class attributes (`scope`, `has_meta`, `lam_free`), and its own `__eq__`
    and `__hash__`, which skip binder hints and the summaries.  `repr` shows
    the fields in `__match_args__`.  Nodes are immutable by contract: no
    code writes a field after the constructor returns.  Nothing enforces
    that at run time, since a `__setattr__` guard would slow every
    construction."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    abstraction = False
    lam_free = False

    def __repr__(self) -> str:
        return fields_repr(self, self.__match_args__)


class TypeKind(LfExpr):
    """The kind `type`."""

    __slots__ = ()
    scope = 0
    has_meta = False

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is TypeKind else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __str__(self) -> str:
        return "type"


class Pi(LfExpr):
    """Dependent product {x:A} B.  `hint` is a display name only."""

    __slots__ = ("hint", "annot", "body", "scope", "has_meta")
    __match_args__ = ("hint", "annot", "body")

    def __init__(self, hint: str, annot: LfExpr, body: LfExpr):
        self.hint = hint
        self.annot = annot
        self.body = body
        a, b = annot.scope, body.scope
        self.scope = OPEN if a < 0 or b < 0 else (a if a >= b else b - 1)
        self.has_meta = annot.has_meta or body.has_meta

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Pi:
            return NotImplemented
        return self is other or (self.annot == other.annot and self.body == other.body)

    def __hash__(self) -> int:
        return hash((self.annot, self.body))

    def __str__(self) -> str:
        return pretty_print(self)


class Lam(LfExpr):
    """Abstraction [x:A] M, or the prover's [x:_] M, whose annotation is
    `NO_ANNOT`."""

    __slots__ = ("hint", "annot", "body", "scope", "has_meta")
    __match_args__ = ("hint", "annot", "body")
    abstraction = True

    def __init__(self, hint: str, annot: LfExpr, body: LfExpr):
        self.hint = hint
        self.annot = annot
        self.body = body
        a, b = annot.scope, body.scope
        self.scope = OPEN if a < 0 or b < 0 else (a if a >= b else b - 1)
        self.has_meta = annot.has_meta or body.has_meta

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Lam:
            return NotImplemented
        return self is other or (self.annot == other.annot and self.body == other.body)

    def __hash__(self) -> int:
        return hash((self.annot, self.body))

    def __str__(self) -> str:
        return pretty_print(self)


class App(LfExpr):
    """Application."""

    __slots__ = ("fn", "arg", "scope", "has_meta", "lam_free")
    __match_args__ = ("fn", "arg")

    def __init__(self, fn: LfExpr, arg: LfExpr):
        self.fn = fn
        self.arg = arg
        f, a = fn.scope, arg.scope
        if f < 0 or a < 0 or fn.abstraction:
            self.scope = OPEN
        else:
            self.scope = f if f >= a else a
            self.lam_free = fn.lam_free and arg.lam_free
        self.has_meta = fn.has_meta or arg.has_meta

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not App:
            return NotImplemented
        return self is other or (self.fn == other.fn and self.arg == other.arg)

    def __hash__(self) -> int:
        return hash((self.fn, self.arg))

    def __str__(self) -> str:
        return pretty_print(self)


class Bound(LfExpr):
    """de Bruijn index of a binder-bound occurrence."""

    __slots__ = ("index", "scope")
    __match_args__ = ("index",)
    has_meta = False
    lam_free = True

    def __init__(self, index: int):
        self.index = index
        self.scope = index + 1

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Bound:
            return NotImplemented
        return self is other or self.index == other.index

    def __hash__(self) -> int:
        return hash((self.index,))

    def __str__(self) -> str:
        return f"#{self.index}"


class Const(LfExpr):
    """A declared constant or a context variable, identified by name."""

    __slots__ = ("name",)
    __match_args__ = ("name",)
    scope = 0
    has_meta = False
    lam_free = True

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Const:
            return NotImplemented
        return self is other or self.name == other.name

    def __hash__(self) -> int:
        return hash((self.name,))

    def __str__(self) -> str:
        return self.name


class Meta(LfExpr):
    """An instantiatable placeholder; legal in queries, rejected by the kernel."""

    __slots__ = ("name",)
    __match_args__ = ("name",)
    scope = 0
    has_meta = True

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Meta:
            return NotImplemented
        return self is other or self.name == other.name

    def __hash__(self) -> int:
        return hash((self.name,))

    def __str__(self) -> str:
        return self.name


class HMeta(LfExpr):
    """The prover's unification variable.  Identity is the numeric id; the
    name is for display, the scope level is bookkeeping."""

    __slots__ = ("name", "id", "level")
    __match_args__ = ("name", "id", "level")
    scope = OPEN
    has_meta = True

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

    def __str__(self) -> str:
        return f"?{self.name}"


class HEigen(LfExpr):
    """The prover's scoped constant, introduced by a universal goal."""

    __slots__ = ("name", "id", "level")
    __match_args__ = ("name", "id", "level")
    scope = OPEN
    has_meta = False

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

    def __str__(self) -> str:
        return self.name


class NoAnnot(LfExpr):
    """The annotation of an abstraction that has none, which erasure
    leaves in place of the binder's domain; `NO_ANNOT` is the one instance.
    It has no loose index and no meta-variable, so every walk returns it as
    it is.  The kernel compares it with a product's domain, which it never
    equals, and prints it as `_`."""

    __slots__ = ()
    scope = 0
    has_meta = False

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is NoAnnot else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __str__(self) -> str:
        return "_"


TYPE = TypeKind()
NO_ANNOT = NoAnnot()

# Classifier sentinel passed to `normalize` when the expression is a kind
# (kinds have no classifier of their own).
KIND = "kind"


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def spine(e: LfExpr) -> tuple[LfExpr, tuple[LfExpr, ...]]:
    """Split `e` into its application head and argument list."""
    args: list[LfExpr] = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.fn
    args.reverse()
    return e, tuple(args)


def make_app(head: LfExpr, args: Iterator[LfExpr] | tuple[LfExpr, ...] | list[LfExpr]) -> LfExpr:
    e = head
    for a in args:
        e = App(e, a)
    return e


def instantiate(body: LfExpr, values: Sequence[LfExpr], depth: int = 0) -> LfExpr:
    """Replace the `len(values)` innermost loose indices of `body` with
    `values`, outermost binder first, in one pass, closing that many
    binders: Bound(depth) becomes `values[-1]`.

    The values live outside the binders: where one lands under the `depth`
    binders crossed on the way, its loose indices are shifted by `depth`, so
    the substitution is capture-free.  A value with no loose index is placed
    as is, and a subterm with no loose index at or above `depth` comes back
    as the same object.
    """
    if 0 <= body.scope <= depth:
        return body
    cls = body.__class__
    if cls is App:
        return App(instantiate(body.fn, values, depth), instantiate(body.arg, values, depth))
    if cls is Bound:  # its index is at least `depth`, by its scope
        i = len(values) - 1 - (body.index - depth)
        if i < 0:
            return Bound(body.index - len(values))
        value = values[i]
        return _shift(value, depth, 0) if depth and value.scope else value
    if cls is Pi or cls is Lam:
        return cls(body.hint, instantiate(body.annot, values, depth), instantiate(body.body, values, depth + 1))
    return body


def free_names(e: LfExpr) -> set[str]:
    """Names of all free Const nodes."""
    out: set[str] = set()
    stack = [e]
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is Const:
            out.add(t.name)
        elif cls is App:
            stack.append(t.fn)
            stack.append(t.arg)
        elif cls is Pi or cls is Lam:
            stack.append(t.annot)
            stack.append(t.body)
    return out


def fresh_name(base: str, *avoid: Container[str]) -> str:
    """Pick a name based on `base` that is in none of the `avoid` containers
    (a signature, a context, a set of names...); none of them is copied."""
    base = base if base and base != "_" else "x"
    name, i = base, 0
    while name == "type" or any(name in names for names in avoid):
        i += 1
        name = f"{base}{i}"
    return name


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


class Record:
    """Base of the plain value records (signature entries, clauses, search
    limits and results, ...).  Each record class lists its fields in
    `__slots__` and `__match_args__`, in constructor order, and its
    constructor assigns them.  Equality, hashing and `repr` read the fields
    in `__match_args__`; a last field left out of it takes part in none.
    Records of different classes are never equal.  Like nodes, records are
    immutable by contract (search counters excepted)."""

    # a record can be weakly referenced, as a dataclass instance could
    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return fields_repr(self, self.__match_args__)


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


class SigEntry(Record):
    __slots__ = ("name", "classifier", "sort")
    __match_args__ = ("name", "classifier", "sort")

    def __init__(self, name: str, classifier: LfExpr, sort: str):
        self.name = name
        self.classifier = classifier
        self.sort = sort  # "kind" for type-family declarations, "type" for object constants


def classifier_sort(classifier: LfExpr) -> str:
    """A classifier whose target (after the binder prefix) is `type` is a kind."""
    t = classifier
    while isinstance(t, Pi):
        t = t.body
    return "kind" if isinstance(t, TypeKind) else "type"


class Signature:
    """The declarations as one table from name to entry, in declaration
    order; also the typing context.  A classifier may reference only earlier
    entries: `checked_signature` checks each entry before it `add`s it."""

    __slots__ = ("_index",)

    def __init__(self, entries: Iterable[SigEntry] = ()):
        self._index: dict[str, SigEntry] = {}
        for e in entries:
            self.add(e)

    def add(self, entry: SigEntry) -> None:
        if entry.name in self._index:
            raise LfSyntaxError(f"duplicate name {entry.name!r}")
        self._index[entry.name] = entry

    @property
    def entries(self) -> tuple[SigEntry, ...]:
        return tuple(self._index.values())

    def lookup(self, name: str) -> SigEntry | None:
        return self._index.get(name)

    def fingerprint(self) -> str:
        """Declaration names in order, comma-separated, or "." for none."""
        return ",".join(self._index) or "."

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[SigEntry]:
        return iter(self._index.values())

    def __len__(self) -> int:
        return len(self._index)

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"Signature({self.fingerprint()})"


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------
#
#   decl  :=  IDENT ":" expr "."
#   expr  :=  "type"
#          |  "{" IDENT ":" expr "}" expr          dependent product
#          |  "[" IDENT ":" expr "]" expr          abstraction
#          |  app ("->" expr)?                     right-assoc arrow sugar
#   app   :=  atom+                                left-assoc application
#   atom  :=  IDENT | "(" expr ")"
#   comments run from "%" to end of line.
#
# An identifier starts with a letter (`str.isalpha`) or "_" and goes on with
# letters, digits (`isalnum`), "_" and "'".

_PUNCT = frozenset(("{", "}", "[", "]", "(", ")", ":", ".", "->"))

# A match is the whitespace and comments before a token, then the token: an
# identifier (`\w` is `isalnum` or "_"), punctuation, longest first, or any
# other character.  The end of the input matches as the empty token, which
# ends every token list; without it a trailing comment would be scanned again
# from each of its characters, as tokens.  Some token always follows the
# longest skip, so a match never backtracks.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|%[^\n]*)*(\w[\w']*|"
    + "|".join(re.escape(p) for p in sorted(_PUNCT, key=len, reverse=True))
    + r"|.|\Z)"
)


class _Parser:
    """A position in the tokens of a text, and the grammar above.

    Tokens are plain strings, the texts that one `findall` over the whole
    text returns: an identifier, a mark in `_PUNCT`, or "" past the end of
    the input; any other token is rejected before parsing starts.  A token's
    line and column are worked out from match offsets only for an error.
    Against named tuples built line by line, this halved the time and the
    tracemalloc peak (1.55 to 0.82 MB) of parsing 750 declarations, and
    lowered the peak RSS of repeated loads of them in one process (20.5 to
    20.1 MB)."""

    def __init__(self, text: str, query_sig: Signature | None = None):
        self.text = text
        self.toks = toks = _TOKEN.findall(text)
        self.pos = 0
        self.binders: list[str] = []
        self.query_sig = query_sig
        # each distinct token is validated once
        bad = [t for t in set(toks).difference(_PUNCT) if t and not (t[0].isalpha() or t[0] == "_")]
        if bad:
            i = min(map(toks.index, bad))
            raise self.error(f"unexpected character {toks[i][0]!r}", i)

    def error(self, message: str, i: int) -> LfSyntaxError:
        """An error at the line and column of token `i`."""
        at = next(islice(_TOKEN.finditer(self.text), i, None)).start(1)
        return LfSyntaxError(message, self.text.count("\n", 0, at) + 1, at - self.text.rfind("\n", 0, at))

    def expect(self, text: str | None = None) -> str:
        """The next token, which must be `text`, or an identifier if None."""
        t = self.toks[self.pos]
        self.pos += 1
        if not ((t != "" and t not in _PUNCT) if text is None else t == text):
            raise self.error(f"expected {text or 'ident'!r}, found {t or 'eof'!r}", self.pos - 1)
        return t

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> LfExpr:
        t = self.toks[self.pos]
        if t == "{":
            return self._binder("}", Pi)
        if t == "[":
            return self._binder("]", Lam)
        if t == "type":
            self.pos += 1
            left: LfExpr = TYPE
        else:
            left = self.parse_app()
        if self.toks[self.pos] != "->":
            return left
        # Non-dependent product: the right side is parsed under an anonymous
        # binder, "", which no identifier names, so its indices count it.
        self.pos += 1
        self.binders.append("")
        right = self.parse_expr()
        self.binders.pop()
        return Pi("_", left, right)

    def _binder(self, close: str, node) -> LfExpr:
        self.pos += 1  # the opening bracket
        name = self.expect()
        if name == "type":
            raise self.error("'type' cannot be a binder name", self.pos - 1)
        if self.query_sig is not None and name[:1].isupper():
            raise self.error("meta-variable used at binder position", self.pos - 1)
        self.expect(":")
        annot = self.parse_expr()
        self.expect(close)
        self.binders.append(name)
        body = self.parse_expr()
        self.binders.pop()
        # Occurrences were emitted as Bound(distance) against the binder
        # stack, so `body` already carries the right indices.
        return node(name, annot, body)

    def parse_app(self) -> LfExpr:
        e = self.parse_atom()
        toks = self.toks
        while True:
            t = toks[self.pos]
            if t == "type":
                raise self.error("'type' cannot be applied", self.pos)
            if t == "(" or (t != "" and t not in _PUNCT):
                e = App(e, self.parse_atom())
            else:
                return e

    def parse_atom(self) -> LfExpr:
        name = self.toks[self.pos]
        self.pos += 1
        if name == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        if name == "" or name in _PUNCT:
            raise self.error(f"unexpected token {name or 'eof'!r}", self.pos - 1)
        binders = self.binders
        if name in binders:
            return Bound(binders[::-1].index(name))
        if self.query_sig is not None and name not in self.query_sig and name[:1].isupper():
            return Meta(name)
        return Const(name)


def _shift(e: LfExpr, by: int, cutoff: int) -> LfExpr:
    if 0 <= e.scope <= cutoff:
        return e
    cls = e.__class__
    if cls is App:
        return App(_shift(e.fn, by, cutoff), _shift(e.arg, by, cutoff))
    if cls is Bound:  # its index is at least `cutoff`, by its scope
        return Bound(e.index + by)
    if cls is Pi or cls is Lam:
        return cls(e.hint, _shift(e.annot, by, cutoff), _shift(e.body, by, cutoff + 1))
    return e


def parse_signature(text: str) -> Signature:
    """Parse a sequence of declarations.  Classifiers come back raw: neither
    checked nor normalized."""
    p = _Parser(text)
    sig = Signature()
    while p.toks[p.pos]:
        name = p.expect()
        if name == "type":
            raise p.error("'type' cannot be declared", p.pos - 1)
        if name in sig:
            raise p.error(f"duplicate declaration of {name!r}", p.pos - 1)
        p.expect(":")
        classifier = p.parse_expr()
        p.expect(".")
        sig.add(SigEntry(name, classifier, classifier_sort(classifier)))
    return sig


def parse_query(text: str, sig: Signature) -> LfExpr:
    """Parse a goal type.  Free uppercase-initial identifiers that are not
    declared in `sig` become meta-variables."""
    p = _Parser(text, query_sig=sig)
    e = p.parse_expr()
    if p.toks[p.pos]:
        raise p.error(f"trailing input {p.toks[p.pos]!r}", p.pos)
    return e


def parse_expr_text(text: str) -> LfExpr:
    """Parse a single expression in signature mode (no meta-variables)."""
    p = _Parser(text)
    e = p.parse_expr()
    if p.toks[p.pos]:
        raise p.error(f"trailing input {p.toks[p.pos]!r}", p.pos)
    return e


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_EXPR = 0  # binders and arrows
_PREC_APP = 1
_PREC_ATOM = 2


def _uses_bound(e: LfExpr, depth: int) -> bool:
    """Whether `e` has the loose index `depth`."""
    if 0 <= e.scope <= depth:
        return False
    cls = e.__class__
    if cls is Bound:
        return e.index == depth
    if cls is App:
        return _uses_bound(e.fn, depth) or _uses_bound(e.arg, depth)
    if cls is Pi or cls is Lam:
        return _uses_bound(e.annot, depth) or _uses_bound(e.body, depth + 1)
    return False


def pretty_print(e: LfExpr) -> str:
    """Render in the concrete syntax; reparsing yields an alpha-equal tree.
    The prover's nodes, which the syntax has no form for, print as a
    variable `?X`, an eigenvariable's name and a missing annotation `_`, so
    that a kernel error on one can show its judgment.  Outside every
    binder, an application node met again at the same precedence reuses its
    text, which is kept from the second meeting on: the nodes of a term
    without sharing keep no text.  A binder is named
    apart from the constants of its body, collected once per outermost
    named binder."""
    return _show(e, _PREC_EXPR, [], {}, None)


def _wrap(s: str, have: int, want: int) -> str:
    return f"({s})" if have < want else s


# The name of an arrow's binder while its body is printed: the body never
# mentions it, and `fresh_name` never picks it.
_ARROW = ""


def _show(t: LfExpr, prec: int, names: list[str], shown: dict, consts: set[str] | None) -> str:
    """`pretty_print`'s walk.  `names` names the binders crossed, innermost
    last.  `shown` maps (id of an App node, precedence) to (the node, its
    text once met twice, None before), at binder depth 0.  `consts` holds
    the constants of the body of the outermost named binder crossed, None
    outside every one."""
    cls = t.__class__
    if cls is App:
        key = (id(t), prec)
        met = not names and key in shown
        if met and shown[key][1] is not None:
            return shown[key][1]
        head, args = spine(t)
        parts = [_show(head, _PREC_APP, names, shown, consts)] + [_show(a, _PREC_ATOM, names, shown, consts) for a in args]
        text = _wrap(" ".join(parts), _PREC_APP, prec)
        if not names:
            shown[key] = (t, text if met else None)
        return text
    if cls is Const or cls is Meta or cls is HEigen:
        return t.name
    if cls is HMeta:
        return f"?{t.name}"
    if cls is NoAnnot:
        return "_"
    if cls is Bound:
        k = t.index
        # a loose index is counted past the named binders only
        return names[-1 - k] if k < len(names) else f"#{k - names.count(_ARROW)}"
    if cls is Pi or cls is Lam:
        body = t.body
        if cls is Pi and not _uses_bound(body, 0):
            left = _show(t.annot, _PREC_APP, names, shown, consts)
            names.append(_ARROW)
            right = _show(body, _PREC_EXPR, names, shown, consts)
            names.pop()
            return _wrap(f"{left} -> {right}", _PREC_EXPR, prec)
        # as `fresh_name(t.hint, free_names(body), names)`, walking the body
        # only when a candidate is among `consts`, which hold its constants
        name = fresh_name(t.hint, names)
        below = free_names(body) if consts is None else consts
        if name in below:
            name = fresh_name(t.hint, below if consts is None else free_names(body), names)
        names.append(name)
        inner = _show(body, _PREC_EXPR, names, shown, below)
        names.pop()
        opening, closing = ("{", "}") if cls is Pi else ("[", "]")
        return _wrap(f"{opening}{name}:{_show(t.annot, _PREC_EXPR, names, shown, consts)}{closing} {inner}", _PREC_EXPR, prec)
    if cls is TypeKind:
        return "type"
    raise LfError(f"cannot print {t!r}")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

DEFAULT_STEP_BUDGET = 10**6


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise NormalizeError("normalization budget exceeded")


def beta_normalize(e: LfExpr, budget: int | _Budget = DEFAULT_STEP_BUDGET) -> LfExpr:
    """Full normal-order beta normalization.  The budget bounds the number of
    contractions so that ill-typed input cannot loop the kernel.  A redex-free
    subterm comes back as the same object."""
    if e.scope >= 0:
        return e
    return _beta(e, budget if isinstance(budget, _Budget) else _Budget(budget))


def _beta(t: LfExpr, b: _Budget) -> LfExpr:
    if t.scope >= 0:
        return t  # no redex inside
    cls = t.__class__
    if cls is App:
        fn = _beta(t.fn, b)
        if fn.__class__ is Lam:
            b.spend()
            return _beta(instantiate(fn.body, (t.arg,)), b)
        return App(fn, _beta(t.arg, b))
    if cls is Pi or cls is Lam:
        return cls(t.hint, _beta(t.annot, b), _beta(t.body, b))
    return t


def instance(t: LfExpr, values: Sequence[LfExpr], budget: int | _Budget = DEFAULT_STEP_BUDGET) -> LfExpr:
    """The part `t` of a head's classifier, a binder's domain or the
    target, at an application whose arguments before it are `values`: the
    prefix binders that those arguments fill are replaced by them in one
    pass, and the result is beta-normalized.  With no values, `t` itself."""
    return beta_normalize(instantiate(t, values), budget) if values else t


def head_classifier(h: LfExpr, sig: Signature | None, stack: Sequence[LfExpr]) -> LfExpr | None:
    """The classifier of an application head: a declared constant's from
    `sig`, or a bound variable `#k`'s from `stack`, the classifiers of the
    binders crossed, innermost last, as its entry shifted by k+1.  None for
    any other head, such as a meta-variable or an index beyond the stack."""
    if isinstance(h, Const):
        entry = sig.lookup(h.name) if sig is not None else None
        return entry.classifier if entry is not None else None
    if isinstance(h, Bound) and h.index < len(stack):
        return _shift(stack[-1 - h.index], h.index + 1, 0)
    return None


def normalize(e: LfExpr, classifier: LfExpr | str, sig: Signature | None = None, budget: int = DEFAULT_STEP_BUDGET) -> LfExpr:
    """Beta-normalize, then eta-expand `e` against its classifier.

    `classifier` is a type (for objects), a kind (for type families), or the
    sentinel KIND when `e` itself is a kind.  The signature supplies the
    classifiers of application heads so arguments can be expanded too; it
    must be checked, so that every classifier the expansion reads is
    redex-free.  Heads that cannot be resolved (meta-variables, loose
    indices of `e`) keep their arguments as-is.  Binders are walked by de
    Bruijn index, never opened by name: a stack holds the normalized
    classifier of every binder crossed, innermost last, and the classifier
    of a head `Bound(k)` is its entry shifted by k+1.  An eta-expansion
    shifts the expanded term by one.  The result is idempotent: normalizing
    it again is the identity.
    """
    b = _Budget(budget)
    e = beta_normalize(e, b)
    if isinstance(classifier, LfExpr):
        classifier = beta_normalize(classifier, b)
    return _Expander(sig, b).eta(e, classifier)


class _Expander:
    """The eta-expansion walk of one `normalize` call.  Every classifier it
    expands against is redex-free: `normalize` normalizes the first, the
    others are read off it, off a checked signature or off the stack, or
    made by `instance`."""

    __slots__ = ("sig", "budget", "stack")

    def __init__(self, sig: Signature | None, budget: _Budget):
        self.sig = sig
        self.budget = budget
        self.stack: list[LfExpr] = []  # classifiers of the binders crossed, innermost last

    def eta_spine(self, t: LfExpr) -> LfExpr:
        head, args = spine(t)
        if not args:
            return t
        cls = head_classifier(head, self.sig, self.stack)
        if cls is None:
            return t  # unknown head: leave arguments untouched
        out: list[LfExpr] = []
        same = True
        for i, a in enumerate(args):
            if not isinstance(cls, Pi):
                raise NormalizeError("cannot eta-expand: head applied beyond its arity")
            a_n = self.eta(a, instance(cls.annot, args[:i], self.budget))
            same = same and a_n is a
            out.append(a_n)
            cls = cls.body
        return t if same else make_app(head, out)

    def under(self, annot: LfExpr, t: LfExpr, cls: LfExpr | str) -> LfExpr:
        """`eta(t, cls)` under a binder of classifier `annot`."""
        self.stack.append(annot)
        inner = self.eta(t, cls)
        self.stack.pop()
        return inner

    def binder(self, t: Pi | Lam, cls: LfExpr | str) -> LfExpr:
        """`t` with its annotation normalized at `type` and its body at
        `cls`; `t` itself when neither changes."""
        annot_n = self.eta(t.annot, TYPE)
        body_n = self.under(annot_n, t.body, cls)
        if annot_n is t.annot and body_n is t.body:
            return t
        return type(t)(t.hint, annot_n, body_n)

    def eta(self, t: LfExpr, cls: LfExpr | str) -> LfExpr:
        tc = t.__class__
        if cls.__class__ is TypeKind:
            if tc is Pi:
                return self.binder(t, TYPE)
            if tc is Lam:
                raise NormalizeError("cannot eta-expand: abstraction at kind 'type'")
            if tc is TypeKind:
                raise NormalizeError("cannot eta-expand: 'type' is not a type")
            return self.eta_spine(t)
        if cls.__class__ is str and cls == KIND:
            if tc is TypeKind:
                return t
            if tc is Pi:
                return self.binder(t, KIND)
            raise NormalizeError("cannot eta-expand: kind expected")
        if cls.__class__ is Pi:
            if tc is Lam:
                return self.binder(t, cls.body)
            if tc is Pi or tc is TypeKind:
                raise NormalizeError("cannot eta-expand: head shape does not match classifier")
            annot_n = self.eta(cls.annot, TYPE)
            body = App(_shift(t, 1, 0), Bound(0))
            return Lam(cls.hint, annot_n, self.under(annot_n, body, cls.body))
        # base-type classifier
        if tc is Lam or tc is Pi or tc is TypeKind:
            raise NormalizeError("cannot eta-expand: head shape does not match classifier")
        return self.eta_spine(t)
