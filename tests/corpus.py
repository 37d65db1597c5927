"""Seeded corpora: ground terms, query batteries, random signatures,
substitution-lemma instances and malformed text, and the reference oracles
that tests compare with (named substitution, derivation s-expressions).
Everything is driven by an explicit random.Random so runs are
reproducible."""

from __future__ import annotations

import random
from collections.abc import Mapping

from lfhh.cli import APPEND_SIGNATURE as APPEND_TEXT  # the signature `bench` runs
from lfhh.lf_syntax import (
    App,
    Const,
    Lam,
    LfExpr,
    Meta,
    Pi,
    Signature,
    SigEntry,
    make_app,
    parse_expr_text,
    parse_query,
    parse_signature,
)
from lfhh.lf_typecheck import Derivation, checked_signature

REMARK_TEXT = """\
nat : type.
z : nat.
s : nat -> nat.
num : nat -> type.
num_n : {n:nat} num n.
chk : num z -> type.
mk : {t:{x:nat} num z} chk (t z).
"""

# Simply typed lambda terms in higher-order abstract syntax.
STLC_TEXT = """\
tp : type.
base : tp.
arr : tp -> tp -> tp.
tm : type.
app : tm -> tm -> tm.
lam : tp -> (tm -> tm) -> tm.
of : tm -> tp -> type.
ofApp : {M:tm} {N:tm} {A:tp} {B:tp} of M (arr A B) -> of N A -> of (app M N) B.
ofLam : {A:tp} {B:tp} {M:tm -> tm} ({x:tm} of x A -> of (M x) B) -> of (lam A M) (arr A B).
"""


def church_numeral(n: int) -> str:
    """The Church numeral `n` as an STLC term of `STLC_TEXT`."""
    body = "x"
    for _ in range(n):
        body = f"app f ({body})"
    return f"lam (arr base base) ([f:tm] lam base ([x:tm] {body}))"


def random_stlc_query(rng: random.Random) -> str:
    """`of M A` over the STLC signature with query variables in term and
    type positions, function-typed ones (the argument of `lam`) included."""

    def tp(size):
        r = rng.random()
        if size <= 1 or r < 0.4:
            return rng.choice(["base", "A", "B"])
        return f"(arr {tp(size - 1)} {tp(size - 1)})"

    def term(binders, size):
        r = rng.random()
        if size <= 1 or r < 0.3:
            return rng.choice(binders + ["M", "N"])
        if r < 0.55:
            x = f"x{len(binders)}"
            return f"(lam {tp(2)} ([{x}:tm] {term(binders + [x], size - 1)}))"
        if r < 0.7:
            return f"(lam {tp(2)} {rng.choice(['F', 'G'])})"
        return f"(app {term(binders, size // 2)} {term(binders, size // 2)})"

    return f"of {term([], rng.randint(1, 6))} {tp(3)}"


# STLC typing and a dependent `vec`; `{t}` is replaced by a suffix, so
# that renamed copies can be concatenated into large signatures.
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


def append_signature() -> Signature:
    return checked_signature(parse_signature(APPEND_TEXT))


def remark_signature() -> Signature:
    return checked_signature(parse_signature(REMARK_TEXT))


def extend(sig: Signature, name: str, classifier: LfExpr, sort: str) -> Signature:
    """A copy of `sig` with one more entry."""
    out = Signature(sig)
    out.add(SigEntry(name, classifier, sort))
    return out


# ---------------------------------------------------------------------------
# Ground terms over the append signature
# ---------------------------------------------------------------------------


def nat_term(n: int) -> LfExpr:
    e: LfExpr = Const("z")
    for _ in range(n):
        e = App(Const("s"), e)
    return e


def list_term(elems: list[LfExpr], tail: LfExpr | None = None) -> LfExpr:
    e: LfExpr = tail if tail is not None else Const("nil")
    for x in reversed(elems):
        e = make_app(Const("cons"), [x, e])
    return e


def random_nat(rng: random.Random, max_s: int = 3) -> LfExpr:
    return nat_term(rng.randint(0, max_s))


def random_list(rng: random.Random, max_len: int = 4, max_s: int = 2) -> LfExpr:
    return list_term([random_nat(rng, max_s) for _ in range(rng.randint(0, max_len))])


def append_proof(l: list[LfExpr], k: list[LfExpr], k_tail: LfExpr | None = None) -> LfExpr:
    """Concatenation witness built by recursion on the first list; an
    independent reconstruction, not shared with the package."""
    if not l:
        return App(Const("appNil"), list_term(k, k_tail))
    rest = l[1:]
    return make_app(
        Const("appCons"),
        [
            l[0],
            list_term(rest),
            list_term(k, k_tail),
            list_term(rest + k, k_tail),
            append_proof(rest, k, k_tail),
        ],
    )


def list_elems(rng: random.Random, max_len: int = 4, max_s: int = 2) -> list[LfExpr]:
    return [random_nat(rng, max_s) for _ in range(rng.randint(0, max_len))]


# ---------------------------------------------------------------------------
# Query corpus over append/nat
# ---------------------------------------------------------------------------


def append_query_corpus(rng: random.Random, count: int) -> list[tuple[LfExpr, bool | None]]:
    """Query types paired with their expected solvability (None = don't know,
    only mode agreement is asserted)."""
    out: list[tuple[LfExpr, bool | None]] = []
    while len(out) < count:
        shape = rng.randrange(8)
        l = list_elems(rng, max_len=3)
        k = list_elems(rng, max_len=3)
        if shape == 0:
            # ground, correct
            q = make_app(Const("append"), [list_term(l), list_term(k), list_term(l + k)])
            out.append((q, True))
        elif shape == 1:
            # ground, wrong output (one extra element)
            wrong = l + k + [nat_term(0)]
            q = make_app(Const("append"), [list_term(l), list_term(k), list_term(wrong)])
            out.append((q, False))
        elif shape == 2:
            # output meta
            q = make_app(Const("append"), [list_term(l), list_term(k), Meta("Out")])
            out.append((q, True))
        elif shape == 3:
            # middle meta: solvable iff l is a prefix of m.  Unsolvable cases
            # clash on the first element so failure stays cheap in both modes.
            if rng.random() < 0.5 or not l:
                m = l + k
            else:
                m = [App(Const("s"), l[0])] + l[1:] + k
            q = make_app(Const("append"), [list_term(l), Meta("Mid"), list_term(m)])
            out.append((q, _is_prefix(l, m)))
        elif shape == 4:
            # element meta in the first list, rigid position
            if not l:
                continue
            l2 = list(l)
            l2[rng.randrange(len(l2))] = Meta("E")
            q = make_app(Const("append"), [list_term(l2), list_term(k), list_term(l + k)])
            out.append((q, None))
        elif shape == 5:
            q = Const("nat") if rng.random() < 0.5 else Const("list")
            out.append((q, True))
        elif shape == 6:
            # ground, wrong element
            if not l:
                continue
            m = l + k
            m[rng.randrange(len(l))] = App(Const("s"), m[rng.randrange(len(l))])
            q = make_app(Const("append"), [list_term(l), list_term(k), list_term(m)])
            out.append((q, None))
        else:
            # two metas sharing a name: append L L Out
            q = make_app(Const("append"), [Meta("L"), Meta("L"), Meta("Out")])
            out.append((q, True))
    return out


def _is_prefix(l: list[LfExpr], m: list[LfExpr]) -> bool:
    return len(l) <= len(m) and all(a == b for a, b in zip(l, m))


# ---------------------------------------------------------------------------
# Random small signatures
# ---------------------------------------------------------------------------


def random_signature_case(rng: random.Random) -> tuple[Signature, list[tuple[LfExpr, bool | None]]]:
    """A well-formed first-order signature with term constructors, a unary
    predicate family with structural rules (some bases intentionally missing),
    and a batch of queries against it.  Search terminates in both modes for
    every emitted query."""
    lines: list[str] = []
    n_sorts = rng.randint(1, 2)
    sorts = [f"t{i}" for i in range(n_sorts)]
    ctors: dict[str, list[tuple[str, list[str]]]] = {}
    for i, srt in enumerate(sorts):
        lines.append(f"{srt} : type.")
        base = f"b{i}"
        lines.append(f"{base} : {srt}.")
        ctors[srt] = [(base, [])]
        for j in range(rng.randint(1, 2)):
            name = f"c{i}{j}"
            args = [rng.choice(sorts[: i + 1]) for _ in range(rng.randint(1, 2))]
            lines.append(f"{name} : {' -> '.join(args + [srt])}.")
            ctors[srt].append((name, args))

    fam_sort = rng.choice(sorts)
    lines.append(f"good : {fam_sort} -> type.")
    dropped: set[str] = set()
    base_kept = True
    for cname, args in ctors[fam_sort]:
        if rng.random() < 0.25:
            dropped.add(cname)
            if not args:
                base_kept = False
            continue
        binders = "".join(f"{{x{k}:{s}}} " for k, s in enumerate(args))
        prems = "".join(f"(good x{k}) -> " for k, s in enumerate(args) if s == fam_sort)
        applied = f"({cname} {' '.join(f'x{k}' for k in range(len(args)))})" if args else cname
        lines.append(f"g{cname} : {binders}{prems}good {applied}.")

    if rng.random() < 0.5:
        # singleton family: one rigid binder, like an indexed witness
        lines.append(f"tag : {fam_sort} -> type.")
        lines.append(f"tag_of : {{n:{fam_sort}}} tag n.")

    sig = checked_signature(parse_signature("\n".join(lines)))

    def ground(srt: str, depth: int) -> tuple[LfExpr, bool]:
        """Random ground term and whether `good` holds on it (for fam_sort)."""
        options = ctors[srt] if depth > 0 else [c for c in ctors[srt] if not c[1]]
        name, args = rng.choice(options)
        ok = name not in dropped
        parts: list[LfExpr] = []
        for a_srt in args:
            sub, sub_ok = ground(a_srt, depth - 1)
            parts.append(sub)
            if a_srt == fam_sort:
                ok = ok and sub_ok
        return make_app(Const(name), parts), ok

    queries: list[tuple[LfExpr, bool | None]] = []
    for _ in range(rng.randint(3, 5)):
        pick = rng.randrange(4)
        if pick == 0:
            t, ok = ground(fam_sort, rng.randint(0, 2))
            queries.append((App(Const("good"), t), ok))
        elif pick == 1 and base_kept:
            queries.append((App(Const("good"), Meta("X")), True))
        elif pick == 2:
            queries.append((Const(rng.choice(sorts)), True))
        elif pick == 3 and "tag" in sig:
            t, _ = ground(fam_sort, 1)
            queries.append((App(Const("tag"), t), True))
        else:
            queries.append((Const(fam_sort), True))
    return sig, queries


# ---------------------------------------------------------------------------
# Query variables under rigid guards
# ---------------------------------------------------------------------------

# In a negative position `{v: vec N} ok v` binds v rigidly, so the optimized
# goal drops v's guard `vec N` and with it every mention of N; naive mode
# keeps it.  `{u: pf P} q` binds u without rigidity, and the first
# inhabitant of P's sort `r` binds a guard variable in an auxiliary search.
RIGID_GUARD_TEXT = """\
nat : type.
z : nat.
r : type.
mk : {n:nat} r.
pf : r -> type.
q : type.
cq : q.
vec : nat -> type.
vnil : vec z.
ok : vec z -> type.
okv : ok vnil.
b : type.
bb : b.
lv : b -> type.
lnil : lv bb.
okl : lv bb -> type.
both : vec z -> lv bb -> type.
bothv : both vnil lnil.
"""

# (hypothesis, a target that it proves); `n` is a variable of sort nat and
# `b` one of sort b, each in the hypothesis's rigid guards only
_RIGID_HYPOTHESES = (
    ("({v: vec %(n)s} ok v)", "{w: vec z} ok w"),
    ("({v: lv %(b)s} okl v)", "{w: lv bb} okl w"),
    ("({v: vec %(n)s} {w: lv %(b)s} both v w)", "{v: vec z} {w: lv bb} both v w"),
)


def rigid_guard_query(rng: random.Random) -> str:
    """A query over `RIGID_GUARD_TEXT`: one to three hypotheses of
    `_RIGID_HYPOTHESES`, each with a variable that the optimized goal does
    not mention, and up to two `({u: pf P} q)`, leading to `q` or to what
    one of the rigid hypotheses proves.  Both modes find the same first
    answer."""
    picks = [rng.choice(_RIGID_HYPOTHESES) for _ in range(rng.randint(1, 3))]
    hyps = [h % {"n": rng.choice("NM"), "b": rng.choice("XY")} for h, _ in picks]
    for _ in range(rng.randint(0, 2)):
        hyps.insert(rng.randint(0, len(hyps)), f"({{u: pf {rng.choice('PR')}}} q)")
    return " -> ".join(hyps + [rng.choice(["q"] + [t for _, t in picks])])


# ---------------------------------------------------------------------------
# Substitution-lemma instances
# ---------------------------------------------------------------------------


def substitution_instance(
    rng: random.Random, sig: Signature
) -> tuple[Signature, str, LfExpr, LfExpr, LfExpr, LfExpr]:
    """(extended sig, x, B, N, M, A) with sig,x:B |- M : A and sig |- N : B,
    where x genuinely occurs in M (and usually in A)."""
    if rng.random() < 0.5:
        b_name = "nat"
        n_val = random_nat(rng)
        # x appears as a list element inside an append judgment or a list
        elems = list_elems(rng, 3)
        pos = rng.randrange(len(elems) + 1)
        elems.insert(pos, Const("xv"))
        if rng.random() < 0.5:
            k = list_elems(rng, 2)
            a = make_app(Const("append"), [list_term(elems), list_term(k), list_term(elems + k)])
            m = append_proof(elems, k)
        else:
            a = Const("list")
            m = list_term(elems)
    else:
        b_name = "list"
        n_val = random_list(rng, 3)
        if rng.random() < 0.5:
            # x as the second list: append l x (l ++ x)
            l = list_elems(rng, 3)
            a = make_app(Const("append"), [list_term(l), Const("xv"), list_term(l, Const("xv"))])
            m = append_proof(l, [], Const("xv"))
        else:
            a = Const("list")
            m = list_term(list_elems(rng, 2), Const("xv"))
    extended = extend(sig, "xv", Const(b_name), "type")
    return extended, "xv", Const(b_name), n_val, m, a


# ---------------------------------------------------------------------------
# Reference oracles
# ---------------------------------------------------------------------------


def substitute(e: LfExpr, s: Mapping[str, LfExpr]) -> LfExpr:
    """Simultaneous substitution for free variables (constants and metas) by
    name.  Replacement terms must be locally closed; bound occurrences are
    indices, so no capture can occur and the result is not renormalized."""
    if not s:
        return e
    match e:
        case Const(n) if n in s:
            return s[n]
        case Meta(n) if n in s:
            return s[n]
        case App(f, a):
            return App(substitute(f, s), substitute(a, s))
        case Pi(h, annot, body):
            return Pi(h, substitute(annot, s), substitute(body, s))
        case Lam(h, annot, body):
            return Lam(h, substitute(annot, s), substitute(body, s))
        case _:
            return e


def to_sexpr(d: Derivation) -> str:
    """`(rule conclusion (premises...))` trace form of a kernel derivation."""
    inner = " ".join(to_sexpr(p) for p in d.premises)
    return f'({d.rule} "{d.conclusion}" ({inner}))'


# -- malformed text ------------------------------------------------------------

# Pieces that malformed inputs are drawn from: LF punctuation, marks LF
# lacks (`=>`, `\`, `=`, `-`), characters it rejects, identifiers
# (including `type`, an uppercase query variable and a primed name),
# comments and line breaks.
_TEXT_PIECES = (
    "{", "}", "[", "]", "(", ")", ":", ".", "->", "=>", "\\", "=", "-",
    "0", "7", "42", "é", "½", "x½", "%", "% note", "\t", "\n", " ", "\r",
    "a", "nat", "type", "X", "L", "append", "z", "s", "x'", "_", "cons", "nil", "b2", "éa",
)

_WELL_FORMED = (
    "a : type.\nb : a.",
    "nat : type. z : nat. s : nat -> nat.",
    "append (cons z nil) nil L",
    "{x:nat} append nil (cons x nil) (cons x nil)",
    "[x:nat] s x",
    "list -> list -> type",
    "appNil : {K:list} append nil K K.",
)

# Inputs whose errors are worth pinning by hand: a character LF lacks on a
# second line, a missing '.', a comment at the end of the input with and
# without a final newline, a duplicate, and `type` out of place.
_HAND_PICKED = (
    "a : type.\nb : a = a.",
    "a : type\nb : type.",
    "a : type.\nb : a % trailing",
    "a : type.\nb : a % trailing\n",
    "a : type.\t% c\n\tb : a",
    "a : type. a : type.",
    "type : type.",
    "a : type type.",
    "[type:a] a",
    "{X:nat} X",
)


def malformed_texts(rng: random.Random, count: int) -> list[str]:
    """The hand-picked inputs, then `count` inputs: half joined from random
    pieces, half a well-formed text with one to three pieces inserted at
    random offsets or one character deleted."""
    out = list(_HAND_PICKED)
    for i in range(count):
        if i % 2 == 0:
            out.append("".join(rng.choice(_TEXT_PIECES) for _ in range(rng.randint(1, 10))))
            continue
        text = rng.choice(_WELL_FORMED)
        if rng.random() < 0.25:
            k = rng.randrange(len(text))
            out.append(text[:k] + text[k + 1 :])
            continue
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(0, len(text))
            text = text[:k] + rng.choice(_TEXT_PIECES) + text[k:]
        out.append(text)
    return out


def syntax_error_report(sig: Signature, texts: list[str]) -> str:
    """For each text, its `repr` and then what `parse_signature`,
    `parse_query` against `sig` and `parse_expr_text` make of it: `ok`, or
    the class and message of the error raised."""
    lines: list[str] = []
    for text in texts:
        lines.append(repr(text))
        for name, parse in (
            ("parse_signature", parse_signature),
            ("parse_query", lambda t: parse_query(t, sig)),
            ("parse_expr_text", parse_expr_text),
        ):
            try:
                parse(text)
                got = "ok"
            except Exception as e:  # the report records whatever is raised
                got = f"{type(e).__name__}: {e}"
            lines.append(f"  {name}: {got}")
    return "".join(f"{line}\n" for line in lines)
