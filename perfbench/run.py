"""Benchmark of lfhh: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; lfhh is imported from its `src/`.  The run
draws the workload's inputs from the seed and sets up (import, input
generation, writing the `.lf` files, one warm-up call), then calls
`lfhh.cli.main(argv)` in-process, one call after another, repeating the
workload's fixed batch as many times as fills about S seconds on the
machine it was tuned on.  The count of batches depends only on the workload
and S, so a seed and S always make the same calls.  Between the calls of an
untraced run it times about a dozen more set-ups and throws them away;
`setup_s` is the median of all of them.  Every output is checked against
`reference`, which does not use lfhh.

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
run spends half its time untraced and half with spans recorded around
lfhh's module boundaries, and reports the per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
# About this many spare set-ups are timed in an untraced run, evenly spaced
# over its calls: the host's speed drifts over tens of seconds, so set-up is
# sampled across the whole run.
SPARE_SET_UPS = 12
# A run stops repeating its batch after this many seconds of measuring, so
# that it ends within the benchmark's time limit even on a much slower
# program; a run cut short this way says so.
MEASURE_LIMIT_S = 120
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Pass:
    """Outcome of running a workload's batch a fixed number of times."""

    batch_s: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unknown: int = 0
    kinds: Counter = field(default_factory=Counter)
    layer_metrics: list[dict[str, float]] = field(default_factory=list)


def _is_lfhh(module_name: str) -> bool:
    return module_name == "lfhh" or module_name.startswith("lfhh.")


def load_lfhh():
    """Import lfhh afresh from this checkout's `src/`."""
    for name in [m for m in sys.modules if _is_lfhh(m)]:
        del sys.modules[name]
    cli = importlib.import_module("lfhh.cli")
    if Path(cli.__file__).resolve().parent != SRC / "lfhh":
        raise ImportError(f"lfhh imported from {cli.__file__}, not from {SRC}")
    return cli


def invoke(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """One CLI call with its output captured: (exit code or None if it
    raised, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"exception in lfhh {' '.join(argv[:1])}: {traceback.format_exc(limit=-3)}", file=sys.stderr)
        return None, out.getvalue(), elapsed
    return rc, out.getvalue(), time.perf_counter() - start


def set_up(name: str, seed: int, workdir: Path) -> tuple[float, object, workloads.Workload]:
    """Import lfhh afresh, draw the inputs into `workdir` and make the
    warm-up call: (seconds, lfhh.cli, workload)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    cli = load_lfhh()
    workload = workloads.build(name, seed, workdir)
    invoke(cli, workload.warmup)
    return time.perf_counter() - start, cli, workload


def spare_set_up(name: str, seed: int, workdir: Path) -> float:
    """Time one more set-up and throw it away, leaving the lfhh in use in
    place: its functions import lazily from `sys.modules`."""
    in_use = {m: mod for m, mod in sys.modules.items() if _is_lfhh(m)}
    try:
        return set_up(name, seed, workdir)[0]
    finally:
        for m in [m for m in sys.modules if _is_lfhh(m)]:
            del sys.modules[m]
        sys.modules.update(in_use)
        shutil.rmtree(workdir, ignore_errors=True)
        # collect the spare copy now, not during the next timed batch
        gc.collect()


def run_batches(
    cli,
    workload: workloads.Workload,
    batches: int,
    tracer: spans.Tracer | None = None,
    before_call: Callable[[], None] = lambda: None,
) -> Pass:
    """Run the batch `batches` times, one call at a time.  Batch time is
    the sum of its calls' times, so output checking is not timed."""
    result = Pass()
    start = time.perf_counter()
    for _ in range(batches):
        first_span = len(tracer.spans) if tracer else 0
        opt_points = []
        batch_s = 0.0
        for c in workload.batch:
            before_call()
            if tracer:
                tracer.call += 1
            rc, out, spent = invoke(cli, c.argv)
            batch_s += spent
            result.latencies.append(spent)
            failures = ["exception"] if rc is None else c.check(rc, out)
            result.attempted += 1
            if failures:
                result.failed += 1
                result.kinds.update(failures)
                if any(not f.startswith("known:") for f in failures):
                    result.unknown += 1
                    print(f"failed {c.kind} ({', '.join(failures)}): {' '.join(c.argv)}", file=sys.stderr)
            if tracer and c.size is not None:
                opt_points.append((c.size, tracer.opt_search.get(tracer.call, 0.0)))
        result.batch_s.append(batch_s)
        if tracer:
            points = [(n, t) for n, t in opt_points if t > 0]
            result.layer_metrics.append(spans.batch_metrics(tracer.spans[first_span:], tracer.counts, points))
            tracer.counts.clear()
        if time.perf_counter() - start > MEASURE_LIMIT_S and len(result.batch_s) < batches:
            print(f"stopped after {len(result.batch_s)} of {batches} batches: over {MEASURE_LIMIT_S} s")
            break
    return result


def describe_failures(p: Pass) -> str:
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(p.kinds.items())) or "none"
    return f"{p.failed} failed of {p.attempted} attempted; kinds: {kinds}"


def end_to_end(p: Pass, setup_s: float, calls_per_batch: int) -> dict[str, tuple[float, str]]:
    """The gated metrics, after printing the per-call percentiles where the
    batch has enough calls for a 90th percentile with ten samples beyond it."""
    print(f"batches: {len(p.batch_s)}; seconds each: " + " ".join(f"{t:.4f}" for t in p.batch_s))
    if calls_per_batch >= 100:
        n = len(p.latencies)
        print(f"latency_p50_ms = {1e3 * statistics.median(p.latencies):.6g} ms ({n} calls)")
        print(f"latency_p90_ms = {1e3 * statistics.quantiles(p.latencies, n=10)[8]:.6g} ms ({n} calls)")
    return {
        "setup_s": (setup_s, "s"),
        # the mean, not the median, of the batch times: the host's speed
        # drifts over tens of seconds, and a mean over the run follows that
        # drift less than a median, which jumps to whichever speed held most
        "wall_s": (statistics.fmean(p.batch_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced: Pass, traced: Pass, tracer: spans.Tracer) -> dict[str, tuple[float, str]]:
    """Median over traced batches of each time; counts, which repeat from
    batch to batch, as measured in the first."""
    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]}
    batches = traced.layer_metrics
    metrics: dict[str, tuple[float, str]] = {}
    missing = spans.absent(tracer.missing)
    for name in batches[0]:
        if name in missing:
            continue
        values = [b[name] for b in batches]
        unit = units[name]
        if unit == "count":
            if len(set(values)) > 1:
                print(f"warning: {name} differs between batches: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    ratio = statistics.fmean(traced.batch_s) / statistics.fmean(untraced.batch_s) - 1
    metrics["trace_overhead_ratio"] = (ratio, units["trace_overhead_ratio"])
    for name in tracer.missing:
        print(f"absent: metrics that need lfhh.{name}, which no longer exists or changed shape")
    return metrics


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "lfhh" / "cli.py").is_file():
        print(f"error: no lfhh source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    spare_dir = workdir.with_name(workdir.name + "-spare")
    try:
        first_setup_s, cli, workload = set_up(args.workload, args.seed, workdir)
    except ImportError as e:
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"error: cannot import lfhh: {e}", file=sys.stderr)
        return 2
    try:
        print(f"workload {args.workload}, seed {args.seed}: {len(workload.batch)} calls per batch")
        if args.trace:
            half = workload.batches(args.seconds / 2)
            untraced = run_batches(cli, workload, half)
            tracer = spans.Tracer()
            spans.install(tracer)
            traced = run_batches(cli, workload, half, tracer)
            tracer.write(WORK / f"trace-{args.workload}-{args.seed}.jsonl")
            metrics = per_layer(untraced, traced, tracer)
            passes = (untraced, traced)
        else:
            setup_times = [first_setup_s]
            batches = workload.batches(args.seconds)
            every = max(1, batches * len(workload.batch) // SPARE_SET_UPS)
            calls = itertools.count()

            def sample_set_up() -> None:
                if next(calls) % every == 0:
                    setup_times.append(spare_set_up(args.workload, args.seed, spare_dir))

            untraced = run_batches(cli, workload, batches, before_call=sample_set_up)
            print(f"set-ups: {len(setup_times)}; seconds each: " + " ".join(f"{t:.4f}" for t in setup_times))
            metrics = end_to_end(untraced, statistics.median(setup_times), len(workload.batch))
            passes = (untraced,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(spare_dir, ignore_errors=True)
    attempted = sum(x.attempted for x in passes)
    failed = sum(x.failed for x in passes)
    unknown = sum(x.unknown for x in passes)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.4f} ratio ({'; '.join(describe_failures(x) for x in passes)})")
    result = {
        "correct": unknown == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
