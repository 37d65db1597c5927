"""Equality, hashing, `repr` and `__match_args__` of every node and record
class.  The classes are plain slotted classes with hand-written methods; the
table pins what each method reads, field by field, so that a field added to
a class or to its comparison shows up here."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import lfhh
from lfhh.hhf_logic import (
    TM,
    TY,
    Clause,
    ClauseSet,
    FAtom,
    FForall,
    FImplies,
    FTop,
    HhFormula,
    SArrow,
    SBase,
    SimpleType,
)
from lfhh.hhf_prover import CompiledClause, Counters, Limits, Solution
from lfhh.lf_syntax import (
    NO_ANNOT,
    TYPE,
    App,
    Bound,
    Const,
    HEigen,
    HMeta,
    Lam,
    LfExpr,
    Meta,
    NoAnnot,
    Pi,
    SigEntry,
    Signature,
    TypeKind,
)
from lfhh.lf_typecheck import Derivation, Judgment
from lfhh.reconstruct import CertifiedAnswer
from lfhh.rigidity import GuardPlan

ATOM = FAtom(Const("z"), Const("nat"))
CLAUSE = Clause("c", ATOM)
SIG = Signature([SigEntry("a", TYPE, "kind")])
JUDGMENT = Judgment(SIG, ("x",), Bound(0), Const("a"))
LEAF = Derivation("Type", Judgment(SIG, (), TYPE, "kind"))

# class, constructor arguments, a different value for each field (fields the
# constructor does not take are written after construction), the fields that
# equality and hashing ignore, `__match_args__`, and the `repr` of the sample
CASES = [
    (TypeKind, (), {}, set(), (), "TypeKind()"),
    (
        Pi,
        ("x", Const("a"), Bound(0)),
        {"hint": "y", "annot": Const("b"), "body": Bound(1), "scope": 9, "has_meta": True},
        {"hint", "scope", "has_meta"},
        ("hint", "annot", "body"),
        "Pi(hint='x', annot=Const(name='a'), body=Bound(index=0))",
    ),
    (
        Lam,
        ("x", Const("a"), Bound(0)),
        {"hint": "y", "annot": Const("b"), "body": Bound(1), "scope": 9, "has_meta": True},
        {"hint", "scope", "has_meta"},
        ("hint", "annot", "body"),
        "Lam(hint='x', annot=Const(name='a'), body=Bound(index=0))",
    ),
    (
        # the prover's abstraction: equal to another exactly when their
        # bodies are, and never to an annotated one, so the kernel's
        # annotation compare keeps its meaning
        Lam,
        ("x", NO_ANNOT, Bound(0)),
        {"hint": "y", "annot": Const("a"), "body": Bound(1), "scope": 9, "has_meta": True},
        {"hint", "scope", "has_meta"},
        ("hint", "annot", "body"),
        "Lam(hint='x', annot=NoAnnot(), body=Bound(index=0))",
    ),
    (NoAnnot, (), {}, set(), (), "NoAnnot()"),
    (
        App,
        (Const("f"), Bound(0)),
        {"fn": Const("g"), "arg": Bound(1), "scope": 9, "has_meta": True, "lam_free": False},
        {"scope", "has_meta", "lam_free"},
        ("fn", "arg"),
        "App(fn=Const(name='f'), arg=Bound(index=0))",
    ),
    (Bound, (0,), {"index": 1, "scope": 9}, {"scope"}, ("index",), "Bound(index=0)"),
    (Const, ("a",), {"name": "b"}, set(), ("name",), "Const(name='a')"),
    (Meta, ("M",), {"name": "N"}, set(), ("name",), "Meta(name='M')"),
    (
        SigEntry,
        ("a", TYPE, "kind"),
        {"name": "b", "classifier": Const("b"), "sort": "type"},
        set(),
        ("name", "classifier", "sort"),
        "SigEntry(name='a', classifier=TypeKind(), sort='kind')",
    ),
    (
        Judgment,
        (SIG, ("x",), Bound(0), Const("a")),
        {"context": Signature(), "binders": ("y",), "subject": Bound(1), "classifier": "text"},
        set(),
        ("context", "binders", "subject", "classifier"),
        f"Judgment(context={SIG!r}, binders=('x',), subject=Bound(index=0), classifier=Const(name='a'))",
    ),
    (
        Derivation,
        ("Const", JUDGMENT, (), "a", (Const("b"),)),
        {
            "rule": "Var",
            "conclusion": Judgment(SIG, ("x",), Bound(0), Const("b")),
            "premises": (LEAF,),
            "size": 5,
            "head": "#0",
            "instantiation": (),
        },
        set(),
        ("rule", "conclusion", "premises", "head", "instantiation"),
        f"Derivation(rule='Const', conclusion={JUDGMENT!r}, premises=(), size=1, head='a', "
        "instantiation=(Const(name='b'),))",
    ),
    (SimpleType, (), {}, set(), (), "SimpleType()"),
    (SBase, ("tm",), {"name": "ty"}, set(), ("name",), "SBase(name='tm')"),
    (
        SArrow,
        (TM, TY),
        {"dom": TY, "cod": TM},
        set(),
        ("dom", "cod"),
        "SArrow(dom=SBase(name='tm'), cod=SBase(name='ty'))",
    ),
    (
        HMeta,
        ("X", 3, 1),
        {"name": "Y", "id": 4, "level": 2},
        {"name", "level"},
        ("name", "id", "level"),
        "HMeta(name='X', id=3, level=1)",
    ),
    (
        HEigen,
        ("e!4", 4, 2),
        {"name": "f!4", "id": 5, "level": 3},
        {"name"},
        ("name", "id", "level"),
        "HEigen(name='e!4', id=4, level=2)",
    ),
    (FTop, (), {}, set(), (), "FTop()"),
    (
        FAtom,
        (Const("z"), Const("nat")),
        {"subject": Const("s"), "classifier": Const("tm")},
        set(),
        ("subject", "classifier"),
        "FAtom(subject=Const(name='z'), classifier=Const(name='nat'))",
    ),
    (
        FImplies,
        (FTop(), ATOM),
        {"antecedent": ATOM, "consequent": FTop()},
        set(),
        ("antecedent", "consequent"),
        "FImplies(antecedent=FTop(), consequent=FAtom(subject=Const(name='z'), classifier=Const(name='nat')))",
    ),
    (
        FForall,
        ("x", TM, FTop()),
        {"hint": "y", "stype": TY, "body": ATOM},
        {"hint"},
        ("hint", "stype", "body"),
        "FForall(hint='x', stype=SBase(name='tm'), body=FTop())",
    ),
    (
        Clause,
        ("c", ATOM),
        {"origin": "d", "formula": FTop()},
        set(),
        ("origin", "formula"),
        "Clause(origin='c', formula=FAtom(subject=Const(name='z'), classifier=Const(name='nat')))",
    ),
    (
        ClauseSet,
        ((CLAUSE,), "naive"),
        {"clauses": (), "mode": "optimized", "compiled": ()},
        {"compiled"},
        ("clauses", "mode"),
        f"ClauseSet(clauses=({CLAUSE!r},), mode='naive')",
    ),
    (Limits, (16, 100), {"depth": 17, "budget": 101}, set(), ("depth", "budget"), "Limits(depth=16, budget=100)"),
    (
        Counters,
        (1, 2, 3),
        {"backchain_steps": 0, "top_steps": 0, "unify_calls": 0},
        set(),
        ("backchain_steps", "top_steps", "unify_calls"),
        "Counters(backchain_steps=1, top_steps=2, unify_calls=3)",
    ),
    (
        CompiledClause,
        ("c", (("x", TM),), ((0, FTop()),), None, "z", "nat"),
        {
            "origin": "d",
            "prefix": (),
            "guards": (),
            "head": (0, 0),
            "subject_head": None,
            "family_head": None,
        },
        set(),
        ("origin", "prefix", "guards", "head", "subject_head", "family_head"),
        "CompiledClause(origin='c', prefix=(('x', SBase(name='tm')),), guards=((0, FTop()),), head=None, "
        "subject_head='z', family_head='nat')",
    ),
    (
        Solution,
        ({1: Const("z")}, Counters(1, 2, 3), ("bc z",), 2, 4),
        {"bindings": {}, "counters": Counters(), "trace": (), "next_meta": 3, "next_eigen": 5},
        set(),
        ("bindings", "counters", "trace", "next_meta", "next_eigen"),
        "Solution(bindings={1: Const(name='z')}, counters=Counters(backchain_steps=1, top_steps=2, "
        "unify_calls=3), trace=('bc z',), next_meta=2, next_eigen=4)",
    ),
    (
        CertifiedAnswer,
        (Const("p"), Const("t"), LEAF, Counters(), "certified", None, {"M": Const("z")}),
        {
            "lf_proof": Const("q"),
            "lf_type": Const("u"),
            "kernel_derivation": None,
            "counters": Counters(1),
            "status": "rejected",
            "reason": "no",
            "bindings": {},
        },
        {"bindings"},
        ("lf_proof", "lf_type", "kernel_derivation", "counters", "status", "reason"),
        f"CertifiedAnswer(lf_proof=Const(name='p'), lf_type=Const(name='t'), kernel_derivation={LEAF!r}, "
        "counters=Counters(backchain_steps=0, top_steps=0, unify_calls=0), status='certified', reason=None)",
    ),
    (
        GuardPlan,
        ("appNil", (("K", True),)),
        {"decl_name": "appCons", "binders": ()},
        set(),
        ("decl_name", "binders"),
        "GuardPlan(decl_name='appNil', binders=(('K', True),))",
    ),
]

# records that hold a mutable value, or are one, have no hash
UNHASHABLE = {Counters, Solution, CertifiedAnswer}


def _with(cls, args, field, value):
    """A fresh instance of `cls` from `args`, with `field` set to `value`."""
    if field in cls.__match_args__:
        i = cls.__match_args__.index(field)
        return cls(*args[:i], value, *args[i + 1 :])
    out = cls(*args)
    object.__setattr__(out, field, value)
    return out


def _case_id(case):
    cls, args = case[:2]
    return f"{cls.__name__}-unannotated" if cls is Lam and args[1] is NO_ANNOT else cls.__name__


@pytest.mark.parametrize("cls, args, others, ignored, match_args, text", CASES, ids=[_case_id(c) for c in CASES])
def test_equality_hash_repr_and_match_args(cls, args, others, ignored, match_args, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert a != object() and a != None  # noqa: E711
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert cls.__match_args__ == match_args
    assert repr(a) == text
    for field, value in others.items():
        c = _with(cls, args, field, value)
        assert getattr(c, field) is value
        if field in ignored:
            assert c == a and a == c, field
            assert cls in UNHASHABLE or hash(c) == hash(a), field
        else:
            assert c != a and a != c, field


def test_meta_flag_takes_no_part_in_matching():
    # `has_meta` is in no `__match_args__`: positional patterns bind fields
    match Lam("x", Meta("A"), App(Meta("F"), Bound(0))):
        case Lam(h, annot, App(fn, arg)):
            assert (h, annot, fn, arg) == ("x", Meta("A"), Meta("F"), Bound(0))
    for leaf, flag in ((TYPE, False), (Bound(0), False), (Const("a"), False), (Meta("M"), True)):
        assert leaf.has_meta is flag and "has_meta" not in type(leaf).__slots__


def test_classes_of_different_kinds_are_never_equal():
    assert Const("M") != Meta("M") and Meta("M") != HMeta("M")
    assert TypeKind() != FTop() and SimpleType() != TypeKind()
    assert SBase("tm") != SimpleType()


def test_import_uses_no_dataclass_machinery():
    # building classes with `dataclasses` was most of the import time
    src = str(pathlib.Path(lfhh.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, lfhh.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_walks_dispatch_by_class_not_match():
    # every walk over nodes tests `t.__class__ is C`: a `match` with class
    # patterns costs about twice as much per node.  The two tests agree only
    # while no node class is subclassed.
    found = []
    for path in sorted(pathlib.Path(lfhh.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, so the innermost one owns a node
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        matches = [n for n in ast.walk(tree) if isinstance(n, ast.Match)]
        found += [f"{path.name}:{n.lineno} in {owner.get(n, '<module>')}" for n in matches]
    assert not found, f"`match` statements: {found}"
    bases = (LfExpr, HhFormula, SimpleType)
    assert not [c for base in bases for c in base.__subclasses__() if c.__subclasses__()]


def test_every_node_with_a_scope_is_an_lf_expression():
    # the prover's terms are LF expressions: a second node set, with its own
    # copies of the walks over it, does not grow back
    found, summarized = [], 0
    for path in sorted(pathlib.Path(lfhh.__file__).resolve().parent.glob("*.py")):
        module = lfhh if path.stem == "__init__" else importlib.import_module(f"lfhh.{path.stem}")
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                cls = getattr(module, stmt.name)
                if "scope" in vars(cls) or "scope" in getattr(cls, "__slots__", ()):
                    summarized += 1
                    if not issubclass(cls, LfExpr):
                        found.append(f"{path.name}: class {stmt.name}")
            targets = stmt.targets if isinstance(stmt, ast.Assign) else []
            named = {t.id for t in targets if isinstance(t, ast.Name)} | {getattr(stmt, "name", None)}
            found += [f"{path.name}: {n}" for n in named & {"HhTerm", "Term"}]
    assert summarized >= 10
    assert not found, f"term classes or unions outside LfExpr: {found}"
