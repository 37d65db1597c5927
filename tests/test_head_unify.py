"""`Solver._uni_head` against unifying the built instance of the template.

Backchaining unifies a clause head template with the goal in place, without
building the template's instance, and keeps the values of the clause's
binders in registers: a binder that meets a closed term takes it into its
register, and its variable is made only when it is needed.  Each case runs
`_uni_head(_head_code(tmpl, nprefix), t, regs)` on one solver and
`_uni(instantiate(tmpl, metas), t)` on a second solver in the same
state, where `metas` are the binders' variables with the ids the registers
reserved; everything a caller can observe must agree.  A binder is compared through its resolved register
value against its resolved variable, every other variable through its store
entry.
"""

import random

import pytest

from lfhh.hhf_logic import ClauseSet
from lfhh.lf_syntax import NO_ANNOT, App, Bound, Const, HEigen, HMeta, Lam, instantiate, make_app
from lfhh.hhf_logic import TM
from lfhh.hhf_prover import Counters, Solution, Solver, _head_code, _meta, resolve_term

PROGRAM = ClauseSet((), "optimized")
ARITY = {"c": 0, "d": 0, "f": 1, "g": 2, "k": 2, "h": 3}
LEVEL = 2  # the level of the goal, and of the template's fresh variables
NEXT_META = 100
NEXT_EIGEN = 50

# goal-side eigenvariables and variables, at levels older and newer than LEVEL
E = [HEigen("a!1", 1, 1), HEigen("b!2", 2, 2), HEigen("e!3", 3, 3)]
OLD, SAME, NEW, OLD1 = HMeta("P", 1, 0), HMeta("Q", 2, LEVEL), HMeta("R", 3, 3), HMeta("S", 7, 1)
GROUND, OPEN_BOUND, FN_BOUND = HMeta("T", 4, 0), HMeta("U", 5, 1), HMeta("W", 6, 0)
UNBOUND = [OLD, SAME, NEW, OLD1]
BINDINGS = {
    GROUND.id: App(Const("f"), Const("c")),
    OPEN_BOUND.id: make_app(Const("g"), [E[0], OLD]),
    FN_BOUND.id: Lam("w", NO_ANNOT, make_app(Const("g"), [Bound(0), SAME])),
}


def c(name, *args):
    return make_app(Const(name), args)


def closed(rng, size):
    name = rng.choice([n for n in ARITY if ARITY[n] == 0 or size > 0])
    return c(name, *(closed(rng, size - 1) for _ in range(ARITY[name])))


def template(rng, nprefix, depth, size):
    """A head template over `nprefix` prefix binders under `depth` local ones."""
    prefix = lambda: Bound(depth + rng.randrange(nprefix))
    roll = rng.random()
    if size <= 0 or roll < 0.3:
        if depth and rng.random() < 0.3:
            return Bound(rng.randrange(depth))
        return prefix() if rng.random() < 0.8 else closed(rng, 1)
    if roll < 0.4:
        return closed(rng, 2)
    if roll < 0.5:
        return Lam("x", NO_ANNOT, template(rng, nprefix, depth + 1, size - 1))
    if roll < 0.6:
        local = [Bound(k) for k in range(depth)]
        return make_app(prefix(), rng.sample(local, rng.randint(0, depth)) or [template(rng, nprefix, depth, size - 1)])
    name = rng.choice(["f", "g", "k", "h"])
    return c(name, *(template(rng, nprefix, depth, size - 1) for _ in range(ARITY[name])))


def goal_term(rng, depth, size):
    roll = rng.random()
    if size <= 0 or roll < 0.25:
        leaves = [*E, *UNBOUND, GROUND, OPEN_BOUND, closed(rng, 1)] + [Bound(k) for k in range(depth)]
        return rng.choice(leaves)
    if roll < 0.35:
        return Lam("y", NO_ANNOT, goal_term(rng, depth + 1, size - 1))
    if roll < 0.45:
        # a flexible term: a pattern over eigenvariables and local variables,
        # or outside the fragment
        vars_ = E + [Bound(k) for k in range(depth)]
        args = rng.sample(vars_, rng.randint(1, 2)) if rng.random() < 0.7 else [closed(rng, 1)]
        return make_app(rng.choice(UNBOUND), args)
    if roll < 0.5:
        return App(FN_BOUND, goal_term(rng, depth, size - 1))
    name = rng.choice(["f", "g", "k", "h"])
    return c(name, *(goal_term(rng, depth, size - 1) for _ in range(ARITY[name])))


def solver_state():
    # a solver over a store whose next ids are NEXT_META and NEXT_EIGEN, in
    # a clause attempt at the goal's level
    s = Solver(PROGRAM, store=Solution(BINDINGS, Counters(), (), NEXT_META, NEXT_EIGEN))
    s.level = LEVEL
    return s


def observe(s, verdict, binders):
    """What a caller sees: `binders` are the values of the template's
    binders, whose own store entries are left out."""
    ids = range(NEXT_META, NEXT_META + len(binders))
    return {
        "verdict": verdict,
        "binders": [resolve_term(s.bindings, v) for v in binders],
        "bindings": [(k, resolve_term(s.bindings, v)) for k, v in s.bindings.items() if k not in ids],
        "trail": [k for k in s.trail if k not in ids],
        "counters": s.counters,
        "next_meta": s._next_meta,
        "next_eigen": s._next_eigen,
        "non_pattern_seen": s.non_pattern_seen,
    }


def registers(s, nprefix):
    """Empty registers for a clause attempt over `nprefix` binders, set up
    as backchaining sets them: the ids of the binders' variables are
    reserved, binder i's being the i-th next free one."""
    s._prefix, s._base = (("X", TM),) * nprefix, s._next_meta
    s._next_meta += nprefix
    return [None] * nprefix


def compare(tmpl, t, nprefix):
    in_place, built = solver_state(), solver_state()
    regs = registers(in_place, nprefix)
    metas = [_meta("X", NEXT_META + i, LEVEL) for i in range(nprefix)]
    built._next_meta = in_place._next_meta
    verdict = in_place._uni_head(_head_code(tmpl, nprefix), t, regs)
    held = sum(r is not None and not isinstance(r, HMeta) for r in regs)
    got = observe(in_place, verdict, in_place._filled(regs))
    want = observe(built, built._uni(instantiate(tmpl, metas), t), metas)
    assert got == want, (tmpl, t)
    return {**want, "held": held}


# append (cons X L) K (cons X M) over the prefix X, L, K, M (M innermost)
X, L, K, M = Bound(3), Bound(2), Bound(1), Bound(0)
APPEND_HEAD = c("append", c("cons", X, L), K, c("cons", X, M))
ONE = c("s", Const("z"))


@pytest.mark.parametrize(
    "goal",
    [
        c("append", c("cons", ONE, Const("nil")), Const("nil"), c("cons", ONE, Const("nil"))),
        c("append", c("cons", ONE, Const("nil")), Const("nil"), c("cons", Const("z"), Const("nil"))),
        c("append", c("cons", ONE, Const("nil")), OLD, NEW),
        c("append", c("cons", OLD, Const("nil")), Const("nil"), c("cons", ONE, NEW)),
        c("append", SAME, Const("nil"), c("cons", E[0], Const("nil"))),
        c("append", c("cons", E[2], Const("nil")), OLD, c("cons", E[2], NEW)),
    ],
)
def test_repeated_head_variable(goal):
    compare(APPEND_HEAD, goal, 4)


def test_head_constant_applied_to_fewer_arguments():
    assert not compare(c("g", Bound(1), Bound(0)), c("g", Const("c")), 2)["verdict"]


def test_random_templates_and_goals():
    rng = random.Random(20261018)
    seen = {"true": 0, "false": 0, "lambda": 0, "non_pattern": 0, "bound": 0, "held": 0}
    for _ in range(3000):
        nprefix = rng.randint(1, 4)
        tmpl = template(rng, nprefix, 0, rng.randint(1, 4))
        if rng.random() < 0.5 and isinstance(tmpl, App):
            # a goal of the template's shape, so that unification goes deep
            t = instantiate(tmpl, [goal_term(rng, 0, 2) for _ in range(nprefix)])
        else:
            t = goal_term(rng, 0, rng.randint(0, 4))
        out = compare(tmpl, t, nprefix)
        seen["true" if out["verdict"] else "false"] += 1
        seen["lambda"] += out["next_eigen"] > NEXT_EIGEN
        seen["non_pattern"] += out["non_pattern_seen"]
        seen["bound"] += len(out["bindings"]) > len(BINDINGS)
        seen["held"] += out["held"] > 0
    assert all(n >= 50 for n in seen.values()), seen
