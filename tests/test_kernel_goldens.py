"""Pinned kernel output: the derivations of the declarations of whole
signatures, and the verdict on seeded mutants of their declarations.

A mutant replaces one subterm of one normalized declaration's classifier by
another declared constant, an index bound at that position, the subterm
applied to one more argument, or the subterm under a new abstraction or
product.  No mutant has an index beyond its binders.  The kernel checks each
mutant directly, as a kind or a type under the declarations before it, so
normalization cannot reject it first; its verdict line is the `to_sexpr` of
the derivation or the error text.
"""

from __future__ import annotations

import random

import pytest

from lfhh.lf_syntax import (
    App,
    Bound,
    Const,
    Lam,
    LfExpr,
    Pi,
    SigEntry,
    Signature,
    classifier_sort,
    parse_signature,
)
from lfhh.lf_typecheck import KernelError, check_kind, check_type, checked_signature

from corpus import REMARK_TEXT, STLC_TEXT, to_sexpr

MUTANTS_PER_SIGNATURE = 150


def signature_texts(golden_dir) -> dict[str, str]:
    return {
        "vec": (golden_dir / "vec.lf").read_text(),
        "remark": REMARK_TEXT,
        "stlc": STLC_TEXT,
    }


def signature_sexpr(sig: Signature) -> str:
    """The derivation of `sig ctx` in `to_sexpr` form: a `KindCtx` or
    `TypeCtx` node per declaration, the last one outermost, whose premises
    are the declaration's kernel derivation under the declarations before
    it and the node of that prefix, down to `NullCtx`."""
    entries, text = sig.entries, '(NullCtx ". ctx" ())'
    for i, e in enumerate(entries):
        kind = e.sort == "kind"
        d = (check_kind if kind else check_type)(Signature(entries[:i]), e.classifier)
        names = ",".join(x.name for x in entries[: i + 1])
        text = f'({"KindCtx" if kind else "TypeCtx"} "{names} ctx" ({to_sexpr(d)} {text}))'
    return text


@pytest.mark.parametrize("name", ["vec", "remark", "stlc"])
def test_signature_derivation_pinned(golden_dir, name):
    sig = checked_signature(parse_signature(signature_texts(golden_dir)[name]))
    assert signature_sexpr(sig) + "\n" == (golden_dir / f"{name}_check.sexpr").read_text()


def test_mutant_verdicts_pinned(golden_dir):
    got = mutant_verdicts(signature_texts(golden_dir))
    assert got == (golden_dir / "mutants.verdicts").read_text().splitlines()


# -- mutants --------------------------------------------------------------------


def _lift(e: LfExpr, cutoff: int = 0) -> LfExpr:
    """`e` moved under one more binder: indices at or above `cutoff` grow by one."""
    match e:
        case Bound(k):
            return Bound(k + 1) if k >= cutoff else e
        case App(f, a):
            return App(_lift(f, cutoff), _lift(a, cutoff))
        case Pi(h, annot, body) | Lam(h, annot, body):
            return type(e)(h, _lift(annot, cutoff), _lift(body, cutoff + 1))
        case _:
            return e


def _positions(e: LfExpr, depth: int = 0, path: tuple[int, ...] = ()):
    """(path, number of binders in scope) of every subterm of `e`."""
    yield path, depth
    match e:
        case App(f, a):
            yield from _positions(f, depth, path + (0,))
            yield from _positions(a, depth, path + (1,))
        case Pi(_, annot, body) | Lam(_, annot, body):
            yield from _positions(annot, depth, path + (0,))
            yield from _positions(body, depth + 1, path + (1,))


def _replace(e: LfExpr, path: tuple[int, ...], new) -> LfExpr:
    """`e` with the subterm at `path` replaced by `new(subterm)`."""
    if not path:
        return new(e)
    i, rest = path[0], path[1:]
    match e:
        case App(f, a):
            return App(_replace(f, rest, new), a) if i == 0 else App(f, _replace(a, rest, new))
        case Pi(h, annot, body) | Lam(h, annot, body):
            if i == 0:
                return type(e)(h, _replace(annot, rest, new), body)
            return type(e)(h, annot, _replace(body, rest, new))
    raise AssertionError(path)


def _mutant(rng: random.Random, entries: tuple[SigEntry, ...]) -> tuple[int, LfExpr]:
    """A random declaration's position and its classifier, mutated."""
    names = [e.name for e in entries]
    i = rng.randrange(len(entries))
    path, depth = rng.choice(list(_positions(entries[i].classifier)))

    def atom(scope: int) -> LfExpr:
        if scope and rng.random() < 0.5:
            return Bound(rng.randrange(scope))
        return Const(rng.choice(names))

    kind = rng.choice(["constant", "index", "argument", "lambda", "pi"])
    if kind == "constant" or (kind == "index" and not depth):
        new = lambda _: Const(rng.choice(names))  # noqa: E731
    elif kind == "index":
        new = lambda _: Bound(rng.randrange(depth))  # noqa: E731
    elif kind == "argument":
        new = lambda sub: App(sub, atom(depth))  # noqa: E731
    else:
        node = Lam if kind == "lambda" else Pi
        new = lambda sub: node(rng.choice(["x", "y", "z", "M"]), atom(depth), _lift(sub))  # noqa: E731
    return i, _replace(entries[i].classifier, path, new)


def mutant_verdicts(texts: dict[str, str]) -> list[str]:
    rng = random.Random(97)
    lines: list[str] = []
    for name, text in texts.items():
        entries = checked_signature(parse_signature(text)).entries
        for n in range(MUTANTS_PER_SIGNATURE):
            i, mutant = _mutant(rng, entries)
            check = check_kind if classifier_sort(mutant) == "kind" else check_type
            try:
                verdict = to_sexpr(check(Signature(entries[:i]), mutant))
            except KernelError as e:
                verdict = f"error: {e}"
            lines.append(f"{name} {n} {entries[i].name}: {verdict}")
    return lines
