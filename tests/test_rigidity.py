"""Rigidity on de Bruijn indices: the judgment's cases as guard plans, the
analysis against the named one it replaced, and binder hints that name
declared constants."""

import random
from dataclasses import dataclass
from typing import Container

from lfhh.lf_syntax import (
    App,
    Bound,
    Const,
    Lam,
    LfExpr,
    Pi,
    _shift,
    fresh_name,
    instantiate,
    parse_expr_text,
    parse_signature,
    pretty_print,
    spine,
)
from lfhh.lf_typecheck import checked_signature
from lfhh.rigidity import GuardPlan, guard_plan, plan_for_type

from corpus import APPEND_TEXT, REMARK_TEXT, STLC_BLOCK, STLC_TEXT, random_list, random_nat, random_signature_case
from test_cli import run_cli
from test_signature_stages import HOAS_TEXT, Gen


def flags(text: str) -> tuple[bool, ...]:
    """Rigid flags of the binders of a classifier given as text."""
    return tuple(r for _, r in plan_for_type(parse_expr_text(text)))


# -- object-level judgment ------------------------------------------------------


def test_bare_candidate_is_rigid():
    assert flags("{x:nat} p x") == (True,)


def test_candidate_under_lambda_applied_to_binder():
    assert flags("{x:nat -> nat} p ([y:nat] x y)") == (True,)


def test_candidate_applied_to_constant_is_not_rigid():
    # head x with a non-local argument: inversion would be unsound
    assert plan_for_type(parse_expr_text("{t:nat} {x:nat -> nat} p (x z)"))[1] == ("x", False)


def test_candidate_inside_other_candidate_not_rigid():
    assert plan_for_type(parse_expr_text("{x:nat} {y:nat -> nat} p (y x)"))[0] == ("x", False)


def test_rigid_under_constant_head():
    assert flags("{x:nat} p (cons x nil)") == (True,)


def test_repeated_local_variables_reject():
    assert flags("{x:nat -> nat -> nat} p ([y:nat] x y y)") == (False,)


def test_shadowed_candidate_not_reported():
    # the abstraction re-uses the candidate's hint; occurrences under it
    # refer to the abstraction, not the candidate
    assert flags("{x:nat} p ([x:nat] x)") == (False,)


def test_delta_monotonicity_seeded():
    rng = random.Random(13)
    samples = ["x y", "cons x nil", "[w:nat] x w", "x", pretty_print(random_list(rng)), pretty_print(random_nat(rng))]
    for m in samples:
        (base,) = flags(f"{{x:nat}} p ([y:nat] {m})")
        (wider,) = flags(f"{{x:nat}} p ([y:nat] [v:nat] [w9:nat] {m})")
        if base:
            assert wider


# -- type-level judgment ----------------------------------------------------------


def test_rigid_in_append_target(append_sig):
    assert flags("{K:list} append nil K K") == (True,)


def test_vacuous_occurrence_not_rigid():
    assert flags("{A:list} append nil nil nil") == (False,)


def test_appcons_target_per_candidate():
    got = flags("{X:nat} {L:list} {K:list} {M:list} {a:list} append (cons X L) K (cons X M)")
    assert got == (True, True, True, True, False)


# -- guard plans ------------------------------------------------------------------


def test_plan_appnil(append_sig):
    assert guard_plan(append_sig, "appNil") == GuardPlan("appNil", (("K", True),))


def test_plan_appcons(append_sig):
    plan = guard_plan(append_sig, "appCons")
    assert plan.binders == (
        ("X", True),
        ("L", True),
        ("K", True),
        ("M", True),
        ("arg5", False),
    )


def test_plan_s_guarded(append_sig):
    assert guard_plan(append_sig, "s").binders == (("arg1", False),)


def test_plan_zero_binders(append_sig):
    assert guard_plan(append_sig, "z").binders == ()


def test_remark_counterexample(remark_sig):
    # the occurrence (t z) applies the binder to a constant: non-rigid
    assert guard_plan(remark_sig, "mk").binders == (("t", False),)
    assert guard_plan(remark_sig, "num_n").binders == (("n", True),)


# -- runtime soundness of skipped guards ---------------------------------------------


def test_skipped_guard_instantiations_recheck(append_sig):
    """Every instantiation chosen while a guard was discharged as truth must
    independently type-check against the declared binder domain, rebuilt from
    the declaration rather than read off the accepted derivation."""
    from lfhh.hhf_prover import Limits
    from lfhh.lf_syntax import Pi, beta_normalize, instantiate
    from lfhh.lf_typecheck import check_object
    from lfhh.reconstruct import QuerySession

    from corpus import append_query_corpus

    def recheck(derivation, sig):
        if derivation.rule == "BackchainObj":
            cls = sig.lookup(derivation.head).classifier
            for n_i in derivation.instantiation:
                assert isinstance(cls, Pi)
                check_object(sig, n_i, cls.annot)
                cls = beta_normalize(instantiate(cls.body, (n_i,)))
        for p in derivation.premises:
            recheck(p, sig)

    rng = random.Random(61)
    plans = {e.name: guard_plan(append_sig, e.name) for e in append_sig if e.sort == "type"}
    assert any(r for p in plans.values() for _, r in p.binders)  # guards were skipped
    checked = 0
    for q, _ in append_query_corpus(rng, 25):
        sess = QuerySession(append_sig, q, "optimized", Limits(depth=28))
        got = sess.first_answer(iterative=True)
        if got is None:
            continue
        _, ans = got
        assert ans.certified
        recheck(ans.kernel_derivation, append_sig)
        checked += 1
    assert checked >= 10


# -- binder hints that name declared constants --------------------------------------

# `p`'s domain hint `c0` becomes the hint of the abstraction that normalize
# wraps around `g (X c0)`; the constant `c0` under it is not a local variable.
CAPTURE_TEXT = "tm : type. c0 : tm. g : tm -> {c0:tm} tm. p : ({c0:tm} tm) -> type. d : {X:tm -> tm} p (g (X c0)).\n"


def test_hint_naming_a_constant_keeps_the_guard(tmp_path):
    path = tmp_path / "capture.lf"
    for hint in ("c0", "y"):
        path.write_text(CAPTURE_TEXT.replace("{c0:tm}", f"{{{hint}:tm}}"))
        code, out, err = run_cli("analyze", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "d: X=guarded"
        code, out, err = run_cli("translate", str(path), "--mode", "optimized")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == (
            "forall x1:tm -> tm. (forall x2:tm. hastype x2 tm => hastype (x1 x2) tm)"
            " => hastype (d x1) (p (\\x2. g (x1 c0) x2))."
        )


# -- the named analysis, kept as a reference ------------------------------------------


@dataclass(frozen=True)
class RigidCtx:
    """gamma: candidate binder names of the declaration under analysis
    (including the variable being tested); delta: locally crossed binders;
    declared: names that fresh names must avoid as well."""

    gamma: frozenset[str]
    delta: tuple[str, ...] = ()
    declared: Container[str] = ()

    def __post_init__(self):
        assert not self.gamma & set(self.delta), "local binders must not shadow candidates"

    def push(self, name: str) -> "RigidCtx":
        return RigidCtx(self.gamma, self.delta + (name,), self.declared)


def _as_local_var(e: LfExpr, delta: tuple[str, ...]) -> str | None:
    """Recognize a (possibly eta-expanded) occurrence of a delta variable."""
    depth = 0
    while isinstance(e, Lam):
        e = e.body
        depth += 1
    head, args = spine(e)
    if not isinstance(head, Const) or head.name not in delta:
        return None
    if len(args) != depth:
        return None
    for i, a in enumerate(args):
        if a != Bound(depth - 1 - i):
            return None
    return head.name


def rigid_in_object(ctx: RigidCtx, x: str, m: LfExpr) -> bool:
    """Does `x` occur rigidly in the canonical object `m`?  A loose index at
    a spine head is bound outside the classifier: it is rigid."""
    while isinstance(m, Lam):
        y = fresh_name(m.hint, ctx.gamma, ctx.delta, ctx.declared)
        ctx = ctx.push(y)
        m = instantiate(m.body, (Const(y),))
    head, args = spine(m)
    if isinstance(head, Const):
        if head.name == x:
            seen: set[str] = set()
            for a in args:
                v = _as_local_var(a, ctx.delta)
                if v is None or v in seen:
                    return False
                seen.add(v)
            return True
        if head.name in ctx.gamma:
            return False
    elif not isinstance(head, Bound):
        return False
    return any(rigid_in_object(ctx, x, a) for a in args)


def rigid_in_type(candidates, x: str, a: LfExpr, declared: Container[str] = ()) -> bool:
    """Does `x` occur rigidly in the canonical type `a`?  Binders crossed on
    the way to the target join the candidate set."""
    cands = frozenset(candidates)
    while isinstance(a, Pi):
        y = fresh_name(a.hint, cands, (x,), declared)
        cands |= {y}
        a = instantiate(a.body, (Const(y),))
    _, args = spine(a)
    ctx = RigidCtx(cands | {x}, (), declared)
    return any(rigid_in_object(ctx, x, m) for m in args)


def named_plan(sig, classifier: LfExpr) -> tuple[tuple[str, bool], ...]:
    """`plan_for_type` as it was: each binder is opened with a fresh named
    constant and tested against the remaining suffix."""
    out: list[tuple[str, bool]] = []
    seen: list[str] = []
    a = classifier
    while isinstance(a, Pi):
        c = fresh_name(a.hint, sig, seen)
        body = instantiate(a.body, (Const(c),))
        display = a.hint if a.hint != "_" else f"arg{len(out) + 1}"
        out.append((display, rigid_in_type(frozenset(seen) | {c}, c, body, sig)))
        seen.append(c)
        a = body
    return tuple(out)


# -- agreement and hint independence ----------------------------------------------------


def guard_domains(a: LfExpr):
    """`a` and every binder domain below it that the clause translations
    analyze, each shifted under its own quantifier as they shift it."""
    yield a
    while isinstance(a, Pi):
        yield from guard_domains(_shift(a.annot, 1, 0))
        a = a.body


def corpus_cases(golden_dir):
    """(signature, classifier) pairs: every object constant of the corpus,
    golden, benchmark-shaped and random signatures, random higher-order and
    dependent classifiers, and every guard domain of each."""
    texts = [APPEND_TEXT, REMARK_TEXT, STLC_TEXT, CAPTURE_TEXT, STLC_BLOCK.replace("{t}", "")]
    texts += [(golden_dir / f).read_text() for f in ("append.lf", "remark.lf", "vec.lf")]
    hoas = checked_signature(parse_signature(HOAS_TEXT))
    sigs = [hoas] + [checked_signature(parse_signature(t)) for t in texts]
    rng = random.Random(20190)
    sigs += [random_signature_case(rng)[0] for _ in range(200)]
    cases = [(sig, e.classifier) for sig in sigs for e in sig if e.sort == "type"]
    gen = Gen(random.Random(20191))
    cases += [(hoas, gen.classifier([], gen.rng.randint(0, 4), gen.rng.randint(1, 6))) for _ in range(200)]
    return [(sig, d) for sig, c in cases for d in guard_domains(c)]


def test_plan_agrees_with_the_named_analysis(golden_dir):
    cases = corpus_cases(golden_dir)
    assert len(cases) > 2000
    for sig, a in cases:
        assert plan_for_type(a) == named_plan(sig, a), pretty_print(a)


def rename_hints(e: LfExpr, rng: random.Random, names: list[str]) -> LfExpr:
    """`e` with every binder hint replaced by one drawn from `names`."""
    match e:
        case Pi(_, annot, body):
            return Pi(rng.choice(names), rename_hints(annot, rng, names), rename_hints(body, rng, names))
        case Lam(_, annot, body):
            return Lam(rng.choice(names), rename_hints(annot, rng, names), rename_hints(body, rng, names))
        case App(f, a):
            return App(rename_hints(f, rng, names), rename_hints(a, rng, names))
        case _:
            return e


def test_renaming_hints_never_changes_a_rigid_flag(golden_dir):
    rng = random.Random(20192)
    renamed = 0
    for sig, a in corpus_cases(golden_dir):
        want = [r for _, r in plan_for_type(a)]
        names = [e.name for e in sig] + ["x", "y", "_"]
        for _ in range(3):
            b = rename_hints(a, rng, names)
            assert [r for _, r in plan_for_type(b)] == want, pretty_print(b)
            renamed += repr(b) != repr(a)
    assert renamed > 1000
