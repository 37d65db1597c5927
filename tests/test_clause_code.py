"""The clause index and the guard code that backchaining runs.

A goal tries only the static clauses that the index admits for its `(key,
want)`, and the ids a search uses up must not depend on that: each case
compares the admitted list with a scan of every clause, which tried the
clauses in order and skipped those whose `key` head constant is set and is
not `want`.  Guards are built from the registers by compiled code, which
must build, node for node, what `f_instantiate` builds.  The programs are
the append, STLC, `vec` and `remark` signatures and the 50 random
signatures of acceptance criterion 4, in both modes.
"""

import pathlib
import random

import pytest

from lfhh import hhf_prover
from lfhh.cli import _append_check
from lfhh.hhf_logic import (
    TM,
    FAtom,
    FForall,
    FImplies,
    HEigen,
    HMeta,
    encode_term,
    f_instantiate,
    inhabitation_goal,
    translate,
)
from lfhh.hhf_prover import Limits, Solver, _built, compiled_program
from lfhh.lf_syntax import App, Bound, Const, parse_signature
from lfhh.lf_typecheck import checked_signature

from corpus import APPEND_TEXT, REMARK_TEXT, STLC_TEXT, append_query_corpus, random_signature_case

GOLDEN = pathlib.Path(__file__).parent / "golden"
KEYS = ("subject_head", "family_head")


def _signatures():
    sigs = [checked_signature(parse_signature(t)) for t in (APPEND_TEXT, STLC_TEXT, REMARK_TEXT)]
    sigs.append(checked_signature(parse_signature((GOLDEN / "vec.lf").read_text())))
    rng = random.Random(2024)  # criterion 4: the append corpus, then the signatures
    append_query_corpus(rng, 200)
    sigs += [random_signature_case(rng)[0] for _ in range(50)]
    return sigs


@pytest.fixture(scope="module")
def cases():
    """(signature, mode, program) for every signature and mode."""
    return [(sig, mode, translate(sig, mode)) for sig in _signatures() for mode in ("naive", "optimized")]


def _scanned(static, key, want):
    """The positions of the clauses a scan of every clause would try."""
    out = []
    for i, clause in enumerate(static):
        have = getattr(clause, key)
        if have is not None and have != want:
            continue
        out.append(i)
    return out


class _Attempts(Solver):
    """Records the first variable id each clause attempt reserves, under
    the count of unifications that the attempt's first one makes."""

    def _uni_head(self, code, t, regs):
        self.bases.setdefault(self.counters.unify_calls, self._base)
        return super()._uni_head(code, t, regs)


def test_admitted_clauses_are_the_scanned_ones_and_use_up_the_same_ids(cases):
    nowhere = Const("nowhere")  # no clause head has this subject or classifier
    checked = 0
    for sig, mode, program in cases:
        static = compiled_program(program)
        ids = [sum(len(c.prefix) for c in static[:i]) for i in range(len(static))]
        for key in KEYS:
            for want in [e.name for e in sig] + [None, "undeclared"]:
                solver = _Attempts(program)
                solver.bases = {}
                start = solver._next_meta
                record = (FAtom(nowhere, nowhere), 0, 0, (), None)
                assert solver._backchain(record, 0, (key, want, (0, 1)), [], [0]) is False
                tried = _scanned(static, key, want)
                assert list(program.index[1][key, want]) == tried
                # each attempt reserves the ids the scan gave it, and the
                # exhausted atom uses up every clause's ids
                assert list(solver.bases.values()) == [start + ids[i] for i in tried]
                assert solver._next_meta - start == sum(len(c.prefix) for c in static)
                assert solver.counters.unify_calls == len(tried)
                checked += 1
    assert checked > 1000


def test_a_deterministic_assumption_leaves_the_ids_of_the_clauses_after_it(append_sig):
    # the newer assumption is the last clause the index admits for `c`; the
    # older one, with one binder, and every static clause are not admitted,
    # so the commit pushes no choice point, and exhausting the search uses
    # up their ids as trying each of them does
    nat = Const("nat")
    older = FForall("x", TM, FAtom(App(Const("d"), Bound(0)), nat))
    goal = FImplies(older, FImplies(FAtom(Const("c"), nat), FAtom(Const("c"), nat)))
    runs = []
    for indexed in (True, False):
        solver = Solver(translate(append_sig, "naive"))
        if not indexed:
            solver._plan = lambda goal, plan=solver._plan: (None, None, plan(goal)[2])
        assert len(list(solver.solve(goal))) == 1
        runs.append((solver._next_meta, solver.counters.backchain_steps))
    assert runs[0] == runs[1]


def _twin(a, b):
    """`a` and `b` are the same tree of application nodes over the same
    objects: a node that one side shares, the other shares too."""
    if a is b:
        return True
    if a.__class__ is not b.__class__:
        return False
    if a.__class__ is FAtom:
        return _twin(a.subject, b.subject) and _twin(a.classifier, b.classifier)
    return a.__class__ is App and _twin(a.fn, b.fn) and _twin(a.arg, b.arg)


def test_guard_code_builds_what_f_instantiate_builds(cases):
    rng = random.Random(39)
    values = [
        Const("z"),
        App(Const("s"), Const("z")),
        HMeta("V", 900, 1),
        HMeta("W", 901, 0),
        HEigen("x!1", 1, 1),
        App(App(Const("g"), HEigen("x!1", 1, 1)), HMeta("V", 900, 1)),
    ]
    compiled = instantiated = 0
    for _, _, program in cases:
        for clause in compiled_program(program):
            for scope, g, code in clause.guards:
                if code is None:
                    instantiated += 1
                    continue
                compiled += 1
                for _ in range(3):
                    regs = [rng.choice(values) for _ in clause.prefix]
                    built = FAtom(_built(code[0], regs), _built(code[1], regs))
                    assert _twin(built, f_instantiate(g, regs[:scope])), (clause.origin, g)
    # naive guards are atoms; STLC's HOAS premises are under a universal
    assert compiled > 500 and instantiated > 0


def test_naive_ground_check_instantiates_no_guard(append_sig, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return f_instantiate(*args)

    monkeypatch.setattr(hhf_prover, "f_instantiate", counted)
    n = 64
    ty, proof = _append_check([Const("z")] * n)
    solver = Solver(translate(append_sig, "naive"), Limits(depth=2 * n + 8))
    assert next(solver.solve(inhabitation_goal(append_sig, ty, encode_term(proof), "naive")), None) is not None
    assert solver.counters.backchain_steps == 2 * n * n + 3 * n + 2
    assert calls == []
