"""Expected results that do not come from lfhh.

Everything here is plain Python over the benchmark's own data: the paper's
closed-form step laws, list concatenation over naturals, a small inferencer
for the simply typed lambda calculus (STLC), and hand-written `analyze` and
`translate` lines for one block of the `signature_load` signature.  None of
it imports the package under test.
"""

from __future__ import annotations

import random

# ---------------------------------------------------------------------------
# Step laws of the append ground check `append l nil l`, |l| = n
# ---------------------------------------------------------------------------


def optimized_steps(n: int) -> int:
    """One backchain step per list cell plus one for `nil`."""
    return n + 1


def naive_steps(n: int) -> int:
    """The plain translation re-derives every typing guard: 2n^2 + 3n + 2
    (562, 2146, 4754 and 8386 at n = 16, 32, 48 and 64)."""
    return 2 * n * n + 3 * n + 2


# ---------------------------------------------------------------------------
# Naturals and lists in lfhh's concrete syntax
# ---------------------------------------------------------------------------


class Names:
    """Constant names of the append signature, each with the same suffix.
    Renaming changes the text a seed produces, never the search work."""

    def __init__(self, tag: str = ""):
        self.tag = tag
        for base in ("nat", "z", "s", "list", "nil", "cons", "append", "appNil", "appCons"):
            setattr(self, base, base + tag)

    def signature(self) -> str:
        return (
            f"nat{self.tag} : type.\n"
            f"z{self.tag} : nat{self.tag}.\n"
            f"s{self.tag} : nat{self.tag} -> nat{self.tag}.\n"
            f"list{self.tag} : type.\n"
            f"nil{self.tag} : list{self.tag}.\n"
            f"cons{self.tag} : nat{self.tag} -> list{self.tag} -> list{self.tag}.\n"
            f"append{self.tag} : list{self.tag} -> list{self.tag} -> list{self.tag} -> type.\n"
            f"appNil{self.tag} : {{K:list{self.tag}}} append{self.tag} nil{self.tag} K K.\n"
            f"appCons{self.tag} : {{X:nat{self.tag}}} {{L:list{self.tag}}} {{K:list{self.tag}}}"
            f" {{M:list{self.tag}}} (append{self.tag} L K M)"
            f" -> (append{self.tag} (cons{self.tag} X L) K (cons{self.tag} X M)).\n"
        )

    def numeral(self, k: int) -> str:
        """`s (s z)`: unparenthesised at top level, as lfhh prints it."""
        return self.z if k == 0 else f"{self.s} {self._atom_numeral(k - 1)}"

    def _atom_numeral(self, k: int) -> str:
        return self.z if k == 0 else f"({self.numeral(k)})"

    def spell(self, xs: list[int]) -> str:
        """A list of naturals, printed as lfhh prints it."""
        if not xs:
            return self.nil
        return f"{self.cons} {self._atom_numeral(xs[0])} {self.spell_arg(xs[1:])}"

    def spell_arg(self, xs: list[int]) -> str:
        """The list as an argument: parenthesised unless it is `nil`."""
        return self.nil if not xs else f"({self.spell(xs)})"

    def parse_list(self, text: str) -> list[int] | None:
        """Read a printed list of naturals back; None if it is not one."""
        try:
            tree, rest = _parse_app(_tokens(text))
        except (IndexError, ValueError):
            return None
        if rest:
            return None
        return self._as_list(tree)

    def _as_list(self, t) -> list[int] | None:
        out: list[int] = []
        while True:
            if t == self.nil:
                return out
            if not (isinstance(t, tuple) and len(t) == 3 and t[0] == self.cons):
                return None
            k = self._as_nat(t[1])
            if k is None:
                return None
            out.append(k)
            t = t[2]

    def _as_nat(self, t) -> int | None:
        k = 0
        while isinstance(t, tuple) and len(t) == 2 and t[0] == self.s:
            k += 1
            t = t[1]
        return k if t == self.z else None


def _tokens(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_app(toks: list[str]):
    """Left-nested application spine as a flat tuple (head, arg, ...)."""
    parts = []
    while toks and toks[0] != ")":
        tok = toks.pop(0)
        if tok == "(":
            inner, toks = _parse_app(toks)
            if not toks or toks[0] != ")":
                raise ValueError("unbalanced")
            toks = toks[1:]
            parts.append(inner)
        else:
            parts.append(tok)
    if not parts:
        raise ValueError("empty")
    return (parts[0] if len(parts) == 1 else tuple(parts)), toks


def is_prefix(l: list[int], m: list[int]) -> bool:
    return m[: len(l)] == l


# ---------------------------------------------------------------------------
# STLC: a type inferencer and a generator of closed terms
# ---------------------------------------------------------------------------
#
# Types are "b" or ("arr", A, B); terms are ("var", level), ("lam", A, body)
# and ("app", M, N), with variables numbered by binding depth from the root.

BASE = "b"


def arr(a, b):
    return ("arr", a, b)


def infer(term, ctx: tuple = ()):
    """The type of `term` in `ctx`, or None when it is ill-typed."""
    kind = term[0]
    if kind == "var":
        return ctx[term[1]] if term[1] < len(ctx) else None
    if kind == "lam":
        body = infer(term[2], ctx + (term[1],))
        return None if body is None else arr(term[1], body)
    f, a = infer(term[1], ctx), infer(term[2], ctx)
    if f is None or a is None or f == BASE or f[1] != a:
        return None
    return f[2]


def random_type(rng: random.Random, size: int):
    if size <= 0 or rng.random() < 0.45:
        return BASE
    return arr(random_type(rng, size - 1), random_type(rng, size - 1))


def _spine_to(ty, target):
    """Argument types that take a variable of type `ty` to `target`, or None."""
    args = []
    while ty != target:
        if ty == BASE:
            return None
        args.append(ty[1])
        ty = ty[2]
    return args


def random_normal_term(rng: random.Random, ty, ctx: tuple = (), fuel: int = 3):
    """A beta-normal term of type `ty` under `ctx`, or None when the draw
    reaches a type that nothing in scope produces within the fuel (pure
    STLC has no closed term of base type).  At arrow types it mostly
    abstracts; otherwise it applies a variable in scope to normal
    arguments."""
    heads = [(i, a) for i, t in enumerate(ctx) if (a := _spine_to(t, ty)) is not None and (fuel > 0 or not a)]
    if ty != BASE and (not heads or fuel > 0 and rng.random() < 0.7):
        body = random_normal_term(rng, ty[2], ctx + (ty[1],), fuel - 1)
        return None if body is None else ("lam", ty[1], body)
    if not heads:
        return None
    i, arg_types = rng.choice(heads)
    term = ("var", i)
    for a in arg_types:
        arg = random_normal_term(rng, a, ctx, fuel - 1)
        if arg is None:
            return None
        term = ("app", term, arg)
    return term


def random_closed_term(rng: random.Random):
    """A closed beta-normal term and its type, redrawn until one exists."""
    while True:
        ty = arr(random_type(rng, 1), random_type(rng, 2))
        term = random_normal_term(rng, ty)
        if term is not None:
            return term, ty


class Stlc:
    """Printing STLC terms and types against the renamed HOAS block."""

    def __init__(self, tag: str):
        self.tag = tag

    def type(self, ty, atom: bool = False) -> str:
        if ty == BASE:
            return f"base{self.tag}"
        s = f"arr{self.tag} {self.type(ty[1], True)} {self.type(ty[2], True)}"
        return f"({s})" if atom else s

    def term(self, term, depth: int = 0, atom: bool = False) -> str:
        kind = term[0]
        if kind == "var":
            return f"x{term[1]}"
        if kind == "lam":
            s = f"lam{self.tag} {self.type(term[1], True)} ([x{depth}:tm{self.tag}] {self.term(term[2], depth + 1)})"
        else:
            s = f"app{self.tag} {self.term(term[1], depth, True)} {self.term(term[2], depth, True)}"
        return f"({s})" if atom else s


# One block of the `signature_load` signature, with `{t}` for the copy's
# suffix: STLC typing in higher-order abstract syntax plus a dependent `vec`.
STLC_BLOCK = """\
tp{t} : type.
base{t} : tp{t}.
arr{t} : tp{t} -> tp{t} -> tp{t}.
tm{t} : type.
app{t} : tm{t} -> tm{t} -> tm{t}.
lam{t} : tp{t} -> (tm{t} -> tm{t}) -> tm{t}.
of{t} : tm{t} -> tp{t} -> type.
ofApp{t} : {M:tm{t}} {N:tm{t}} {A:tp{t}} {B:tp{t}} of{t} M (arr{t} A B) -> of{t} N A -> of{t} (app{t} M N) B.
ofLam{t} : {A:tp{t}} {B:tp{t}} {M:tm{t} -> tm{t}} ({x:tm{t}} of{t} x A -> of{t} (M x) B) -> of{t} (lam{t} A M) (arr{t} A B).
nat{t} : type.
z{t} : nat{t}.
s{t} : nat{t} -> nat{t}.
vec{t} : nat{t} -> type.
vnil{t} : vec{t} z{t}.
vcons{t} : {N:nat{t}} tp{t} -> vec{t} N -> vec{t} (s{t} N).
"""
BLOCK_DECLS = 15

# `analyze`: one line per object constant.  A binder is rigid when it occurs
# in the target outside any position a substitution could erase: ofApp's A
# appears only in its premises, so its typing guard stays.
EXPECTED_ANALYZE = """\
base{t}:
arr{t}: arg1=guarded, arg2=guarded
app{t}: arg1=guarded, arg2=guarded
lam{t}: arg1=guarded, arg2=guarded
ofApp{t}: M=rigid, N=rigid, A=guarded, B=rigid, arg5=guarded, arg6=guarded
ofLam{t}: A=rigid, B=rigid, M=rigid, arg4=guarded
z{t}:
s{t}: arg1=guarded
vnil{t}:
vcons{t}: N=rigid, arg2=guarded, arg3=guarded
"""

# `translate`: clauses for the object constants.  The plain translation
# guards every binder with its typing atom; the optimized one replaces the
# guard of each rigid binder with `top`.  The two differ only on ofApp,
# ofLam and vcons.
_TRANSLATE_SHARED_HEAD = """\
hastype base{t} tp{t}.
forall x1:tm. hastype x1 tp{t} => (forall x2:tm. hastype x2 tp{t} => hastype (arr{t} x1 x2) tp{t}).
forall x1:tm. hastype x1 tm{t} => (forall x2:tm. hastype x2 tm{t} => hastype (app{t} x1 x2) tm{t}).
forall x1:tm. hastype x1 tp{t} => (forall x2:tm -> tm. (forall x3:tm. hastype x3 tm{t} => hastype (x2 x3) tm{t}) => hastype (lam{t} x1 x2) tm{t}).
"""
_OF_APP = (
    "forall x1:tm. {g1} => (forall x2:tm. {g2} => (forall x3:tm. hastype x3 tp{t} =>"
    " (forall x4:tm. {g4} => (forall x5:tm. hastype x5 (of{t} x1 (arr{t} x3 x4)) =>"
    " (forall x6:tm. hastype x6 (of{t} x2 x3) => hastype (ofApp{t} x1 x2 x3 x4 x5 x6) (of{t} (app{t} x1 x2) x4)))))).\n"
)
_OF_LAM_OPTIMIZED = (
    "forall x1:tm. top => (forall x2:tm. top => (forall x3:tm -> tm. top =>"
    " (forall x4:tm -> tm -> tm. (forall x5:tm. hastype x5 tm{t} => (forall x6:tm. hastype x6 (of{t} x5 x1) =>"
    " hastype (x4 x5 x6) (of{t} (x3 x5) x2))) => hastype (ofLam{t} x1 x2 x3 x4) (of{t} (lam{t} x1 (\\x5. x3 x5)) (arr{t} x1 x2))))).\n"
)
_NAT_VEC = """\
hastype z{t} nat{t}.
forall x1:tm. hastype x1 nat{t} => hastype (s{t} x1) nat{t}.
hastype vnil{t} (vec{t} z{t}).
"""
_VCONS = (
    "forall x1:tm. {g1} => (forall x2:tm. hastype x2 tp{t} =>"
    " (forall x3:tm. hastype x3 (vec{t} x1) => hastype (vcons{t} x1 x2 x3) (vec{t} (s{t} x1)))).\n"
)
# In the plain ofLam clause the guard on M binds x4 itself, so the printer's
# names for the binders after it move up by one.
_OF_LAM_NAIVE = (
    "forall x1:tm. hastype x1 tp{t} => (forall x2:tm. hastype x2 tp{t} => (forall x3:tm -> tm."
    " (forall x4:tm. hastype x4 tm{t} => hastype (x3 x4) tm{t}) => (forall x5:tm -> tm -> tm."
    " (forall x6:tm. hastype x6 tm{t} => (forall x7:tm. hastype x7 (of{t} x6 x1) =>"
    " hastype (x5 x6 x7) (of{t} (x3 x6) x2))) => hastype (ofLam{t} x1 x2 x3 x5) (of{t} (lam{t} x1 (\\x5. x3 x5)) (arr{t} x1 x2))))).\n"
)


def _translate_block(naive: bool) -> str:
    if naive:
        app = _OF_APP.format(g1="hastype x1 tm{t}", g2="hastype x2 tm{t}", g4="hastype x4 tp{t}", t="{t}")
        lam = _OF_LAM_NAIVE
        vcons = _VCONS.format(g1="hastype x1 nat{t}", t="{t}")
    else:
        app = _OF_APP.format(g1="top", g2="top", g4="top", t="{t}")
        lam = _OF_LAM_OPTIMIZED
        vcons = _VCONS.format(g1="top", t="{t}")
    return _TRANSLATE_SHARED_HEAD + app + lam + _NAT_VEC + vcons


EXPECTED_TRANSLATE = {"naive": _translate_block(True), "optimized": _translate_block(False)}


def block(template: str, tag: str) -> str:
    """Instantiate a `{t}` template for the copy with suffix `tag`."""
    return template.replace("{t}", tag)
