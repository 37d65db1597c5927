"""Spans around lfhh's module boundaries, recorded from outside the program.

`install` replaces each target below with a wrapper that records a span
(id, name, start, end, parent, call id) in memory.  A function is patched
in its defining module and in every lfhh module that imported it by name
(for example `reconstruct.check_object`), except that a self-recursive one
is patched only in the importers; a method is patched on its class.
Generator targets (`Solver.solve`, `QuerySession.answers`) are timed only
while they are being advanced.  A target that no longer exists is listed in
`Tracer.missing`, and the metrics that need it are reported as absent.

Only boundary functions are wrapped.  Term traversals (`instantiate`,
`pretty_print`, unification) run per node and recurse through their module
globals, so wrapping them would measure the wrapper; their time counts as
self time of the boundary span that called them.

The wrappers also read counts where the work happens: declarations parsed,
clauses and `top` guards produced, rigid binders, kernel derivation nodes,
and the prover's counters of each search.  Reading them costs time, which is
recorded as a `harness` span and so is excluded from every layer's self
time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute path) of every wrapped boundary, grouped by layer.
TARGETS = (
    ("lf_syntax", "parse_signature"),
    ("lf_syntax", "parse_query"),
    ("lf_syntax", "parse_expr_text"),
    ("lf_typecheck", "checked_signature"),
    ("lf_typecheck", "check_type"),
    ("lf_typecheck", "check_object"),
    ("rigidity", "guard_plan"),
    ("rigidity", "plan_for_type"),
    ("hhf_logic", "translate"),
    ("hhf_logic", "translate_query"),
    ("hhf_logic", "inhabitation_goal"),
    ("hhf_logic", "encode_term"),
    ("hhf_logic", "print_clauses"),
    ("hhf_prover", "Solver.solve"),
    ("hhf_prover", "solve"),
    ("hhf_prover", "check_depth_equivalence"),
    ("reconstruct", "decode_term"),
    ("reconstruct", "finalize_metavars"),
    ("reconstruct", "certify"),
    ("reconstruct", "QuerySession.__init__"),
    ("reconstruct", "QuerySession.answers"),
    ("reconstruct", "QuerySession.binding_report"),
    ("cli", "main"),
)

# Functions that call themselves through their module's globals, once per
# node or binder: patched only where other modules imported them, so that a
# call into the layer is one span however deep it recurses.
IMPORTERS_ONLY = ("hhf_logic.encode_term", "lf_typecheck.check_type")

PARSE = ("lf_syntax.parse_signature", "lf_syntax.parse_query", "lf_syntax.parse_expr_text")
SOLVE = "hhf_prover.Solver.solve"
FINALIZE = "reconstruct.finalize_metavars"

# Per-layer metrics and the targets each needs; a metric whose target is
# missing is absent from the result.
NEEDS = {
    "lf_syntax.parse_s": ("lf_syntax.parse_signature",),
    "lf_syntax.decls_per_s": ("lf_syntax.parse_signature",),
    "lf_typecheck.signature_s": ("lf_typecheck.checked_signature",),
    "lf_typecheck.object_s": ("lf_typecheck.check_object", "lf_typecheck.check_type"),
    "lf_typecheck.derivation_nodes": ("lf_typecheck.check_object", "lf_typecheck.check_type"),
    "lf_typecheck.us_per_node": ("lf_typecheck.check_object", "lf_typecheck.check_type"),
    "rigidity.plan_s": ("rigidity.plan_for_type",),
    "rigidity.rigid_share": ("rigidity.plan_for_type",),
    "hhf_logic.translate_s": ("hhf_logic.translate",),
    "hhf_logic.translate_calls": ("hhf_logic.translate",),
    "hhf_logic.clauses": ("hhf_logic.translate",),
    "hhf_logic.top_guards": ("hhf_logic.translate",),
    "hhf_prover.search_s": (SOLVE,),
    "hhf_prover.us_per_step": (SOLVE,),
    "hhf_prover.backchain_steps": (SOLVE,),
    "hhf_prover.unify_calls": (SOLVE,),
    "hhf_prover.unify_per_step": (SOLVE,),
    "hhf_prover.solves": (SOLVE,),
    "hhf_prover.depth_hits": (SOLVE,),
    "hhf_prover.budget_hits": (SOLVE,),
    "hhf_prover.non_pattern": (SOLVE,),
    "hhf_prover.opt_check_exponent": (SOLVE,),
    "reconstruct.certify_s": ("reconstruct.certify",),
    "reconstruct.finalize_s": (FINALIZE,),
    "reconstruct.finalize_calls": (FINALIZE,),
    "reconstruct.binding_report_s": ("reconstruct.QuerySession.binding_report",),
    "reconstruct.aux_solves": (FINALIZE, SOLVE),
    "cli.self_s": ("cli.main",),
}


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.stack: list[tuple[int, str]] = []
        self.call = 0
        self.counts: Counter = Counter()
        # optimized-mode search seconds per call id, for the step-law slope
        self.opt_search: defaultdict[int, float] = defaultdict(float)
        self.missing: list[str] = []
        self._ids = itertools.count(1)

    def open(self, name: str) -> tuple[int, int, float]:
        sid = next(self._ids)
        parent = self.stack[-1][0] if self.stack else 0
        self.stack.append((sid, name))
        return sid, parent, time.perf_counter()

    def close(self, sid: int, parent: int, name: str, start: float) -> float:
        end = time.perf_counter()
        self.stack.pop()
        self.spans.append((sid, name, start, end, parent, self.call))
        return end - start

    def inside(self, name: str) -> bool:
        return any(n == name for _, n in self.stack)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "call"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _wrap_function(tracer: Tracer, name: str, fn, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent, start = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid, parent, name, start)
        if observe is not None:
            hid, hparent, hstart = tracer.open("harness.observe")
            try:
                _read(tracer, name, observe, result)
            finally:
                tracer.close(hid, hparent, "harness.observe", hstart)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn, on_start, on_finish):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        gen = fn(self, *args, **kwargs)
        state = None
        try:
            while True:
                sid, parent, start = tracer.open(name)
                if state is None and on_start is not None:
                    state = _read(tracer, name, on_start, self)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    spent = tracer.close(sid, parent, name, start)
                    if on_finish is not None:
                        _read(tracer, name, on_finish, self, state, spent, False)
                yield item
        finally:
            gen.close()
            if on_finish is not None:
                _read(tracer, name, on_finish, self, state, 0.0, True)

    return wrapper


def _read(tracer: Tracer, name: str, reader, *args):
    """Run a count reader; if lfhh no longer has the fields it reads, the
    target's metrics become absent instead of failing the call."""
    try:
        return reader(tracer, *args)
    except (AttributeError, TypeError):
        if name not in tracer.missing:
            tracer.missing.append(name)
        return None


def _observe_parse(tracer: Tracer, sig) -> None:
    tracer.counts["decls"] += len(sig)


def _observe_derivation(tracer: Tracer, derivation) -> None:
    tracer.counts["derivation_nodes"] += derivation.size


def _observe_plan(tracer: Tracer, flags) -> None:
    tracer.counts["binders"] += len(flags)
    tracer.counts["rigid_binders"] += sum(1 for _, rigid in flags if rigid)


def _observe_finalize(tracer: Tracer, _result) -> None:
    tracer.counts["finalize_calls"] += 1


def _observe_translate(hhf_logic):
    def observe(tracer: Tracer, program) -> None:
        # the formula classes are looked up here, so a rename makes the
        # metric absent rather than breaking the install
        tracer.counts["translate_calls"] += 1
        tracer.counts["clauses"] += len(program)
        for clause in program:
            f = clause.formula
            while True:
                if isinstance(f, hhf_logic.FForall):
                    f = f.body
                elif isinstance(f, hhf_logic.FImplies):
                    tracer.counts["top_guards"] += isinstance(f.antecedent, hhf_logic.FTop)
                    f = f.consequent
                else:
                    break

    return observe


def _solve_start(tracer: Tracer, solver):
    tracer.counts["solves"] += 1
    if tracer.inside(FINALIZE):
        tracer.counts["aux_solves"] += 1
    c = solver.counters
    return c.backchain_steps, c.unify_calls, getattr(solver.program, "mode", None)


def _solve_progress(tracer: Tracer, solver, state, spent: float, finished: bool) -> None:
    if state is None:
        return
    steps0, unify0, mode = state
    if mode == "optimized":
        tracer.opt_search[tracer.call] += spent
    if finished:
        c = solver.counters
        tracer.counts["backchain_steps"] += c.backchain_steps - steps0
        tracer.counts["unify_calls"] += c.unify_calls - unify0
        tracer.counts["depth_hits"] += bool(solver.depth_hit)
        tracer.counts["budget_hits"] += bool(solver.budget_hit)
        tracer.counts["non_pattern"] += bool(solver.non_pattern_seen)


def install(tracer: Tracer) -> None:
    """Wrap every target that exists in the currently imported lfhh."""
    modules = {m: importlib.import_module(f"lfhh.{m}") for m in {m for m, _ in TARGETS}}
    hhf_logic = modules["hhf_logic"]
    observers = {
        "lf_syntax.parse_signature": _observe_parse,
        "lf_typecheck.check_type": _observe_derivation,
        "lf_typecheck.check_object": _observe_derivation,
        "rigidity.plan_for_type": _observe_plan,
        "hhf_logic.translate": _observe_translate(hhf_logic),
        FINALIZE: _observe_finalize,
    }
    for module_name, path in TARGETS:
        name = f"{module_name}.{path}"
        owner = modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = owner.__dict__.get(attr) if owner is not None else None
        if not callable(fn):
            tracer.missing.append(name)
            continue
        if inspect.isgeneratorfunction(fn):
            hooks = (_solve_start, _solve_progress) if name == SOLVE else (None, None)
            wrapper = _wrap_generator(tracer, name, fn, *hooks)
        else:
            wrapper = _wrap_function(tracer, name, fn, observers.get(name))
        if outer:
            setattr(owner, attr, wrapper)
            continue
        for module in modules.values():
            if module is owner and name in IMPORTERS_ONLY:
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)


# ---------------------------------------------------------------------------
# Per-layer metrics of one batch
# ---------------------------------------------------------------------------


def self_times(spans) -> defaultdict[str, float]:
    """Self time per span name: each span's duration minus its children's."""
    child: defaultdict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent, _call in spans:
        child[parent] += end - start
    by_name: defaultdict[str, float] = defaultdict(float)
    for sid, name, start, end, _parent, _call in spans:
        by_name[name] += (end - start) - child[sid]
    return by_name


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def batch_metrics(spans, counts: Counter, opt_points: list[tuple[int, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced batch.  Ratios whose base is zero on
    a workload (no search, no certification) are reported as 0."""
    by_name = self_times(spans)

    def layer(prefix: str) -> float:
        return sum(t for n, t in by_name.items() if n.startswith(prefix + "."))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    parse_s = sum(by_name[n] for n in PARSE)
    search_s = layer("hhf_prover")
    kernel_signature = by_name["lf_typecheck.checked_signature"]
    object_s = by_name["lf_typecheck.check_object"] + by_name["lf_typecheck.check_type"]
    steps = counts["backchain_steps"]
    return {
        "lf_syntax.parse_s": parse_s,
        "lf_syntax.decls_per_s": ratio(counts["decls"], parse_s),
        "lf_typecheck.signature_s": kernel_signature,
        "lf_typecheck.object_s": object_s,
        "lf_typecheck.derivation_nodes": counts["derivation_nodes"],
        "lf_typecheck.us_per_node": 1e6 * ratio(object_s, counts["derivation_nodes"]),
        "rigidity.plan_s": layer("rigidity"),
        "rigidity.rigid_share": ratio(counts["rigid_binders"], counts["binders"]),
        "hhf_logic.translate_s": layer("hhf_logic"),
        "hhf_logic.translate_calls": counts["translate_calls"],
        "hhf_logic.clauses": counts["clauses"],
        "hhf_logic.top_guards": counts["top_guards"],
        "hhf_prover.search_s": search_s,
        "hhf_prover.us_per_step": 1e6 * ratio(search_s, steps),
        "hhf_prover.backchain_steps": steps,
        "hhf_prover.unify_calls": counts["unify_calls"],
        "hhf_prover.unify_per_step": ratio(counts["unify_calls"], steps),
        "hhf_prover.solves": counts["solves"],
        "hhf_prover.depth_hits": counts["depth_hits"],
        "hhf_prover.budget_hits": counts["budget_hits"],
        "hhf_prover.non_pattern": counts["non_pattern"],
        "hhf_prover.opt_check_exponent": slope(opt_points) if len(opt_points) >= 2 else 0.0,
        "reconstruct.certify_s": by_name["reconstruct.certify"],
        "reconstruct.finalize_s": by_name[FINALIZE],
        "reconstruct.finalize_calls": counts["finalize_calls"],
        "reconstruct.binding_report_s": by_name["reconstruct.QuerySession.binding_report"],
        "reconstruct.aux_solves": counts["aux_solves"],
        "cli.self_s": by_name["cli.main"],
    }


def absent(missing: list[str]) -> set[str]:
    """Metrics that cannot be measured because a target is gone."""
    return {metric for metric, needs in NEEDS.items() if any(n in missing for n in needs)}
