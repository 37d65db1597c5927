"""The four workloads: inputs drawn from the seed, and the check of every
output against `reference`.

A workload is a fixed batch of CLI calls (argv lists, as a user would type
them) plus one warm-up call.  Each call carries a checker that reads the
captured exit code and output and returns the failures it found; a checker
never raises.  Failures of a class documented as a known lfhh defect are
prefixed with `known:`; they are counted like every other failure.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

Checker = Callable[[int, str], list[str]]


@dataclass
class Call:
    argv: list[str]
    check: Checker
    kind: str
    size: int | None = None  # n of an append ground check, for the step-law slope


@dataclass
class Workload:
    warmup: list[str]
    batch: list[Call]
    # Seconds one batch took on the 2-vCPU machine the benchmark was tuned
    # on; a run of S seconds repeats the batch round(S / batch_s) times, so
    # the same seed and S always make the same calls.
    batch_s: float

    def batches(self, seconds: float) -> int:
        return max(1, round(seconds / self.batch_s))


WORKLOADS = ("append_ladder", "generate_and_test", "query_mix", "signature_load")

LADDER = (16, 32, 48, 64)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Draw the inputs of workload `name` from `seed` and write its
    signature files under `workdir`."""
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, workdir)


def _tag(rng: random.Random) -> str:
    """A fixed-length suffix for constant names: the text changes with the
    seed, the work does not."""
    return "_" + "".join(rng.choice(string.ascii_lowercase) for _ in range(3))


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Reading lfhh's output
# ---------------------------------------------------------------------------


def _bindings(out: str) -> dict[str, str]:
    """`X = value` lines of the first answer of `lfhh solve`."""
    found: dict[str, str] = {}
    for line in out.splitlines():
        if line.startswith("proof = ") or line == "---":
            break
        name, sep, value = line.partition(" = ")
        if sep:
            found[name] = value
    return found


def _counter(out: str, name: str) -> int | None:
    for line in out.splitlines():
        if line.startswith("counters:"):
            for cell in line.split()[1:]:
                key, _, value = cell.partition("=")
                if key == name and value.isdigit():
                    return int(value)
    return None


def _certified(out: str) -> bool:
    return any(line.startswith("certified (kernel derivation size ") for line in out.splitlines())


def _exit_failures(rc: int, allowed: tuple[int, ...]) -> list[str]:
    if rc == 3:
        return ["exit3"]
    if rc not in allowed:
        return [f"bad_exit:{rc}"]
    return []


def expect_answer(check_bindings: Callable[[dict[str, str]], list[str]] | None = None) -> Checker:
    """A solvable query: exit 0, a certified first answer, and bindings the
    reference accepts."""

    def check(rc: int, out: str) -> list[str]:
        failures = _exit_failures(rc, (0,))
        if failures:
            return failures
        if not _certified(out):
            return ["not_certified"]
        return check_bindings(_bindings(out)) if check_bindings else []

    return check


def expect_no_answer() -> Checker:
    """An unsolvable query: exit 1 (finite failure) or 2 (resource limit)
    and no answer printed."""

    def check(rc: int, out: str) -> list[str]:
        failures = _exit_failures(rc, (1, 2))
        if not failures and _certified(out):
            failures = ["wrong_answer"]
        return failures

    return check


def expect_text(expected: str, compare: Callable[[str], str] = lambda s: s) -> Checker:
    def check(rc: int, out: str) -> list[str]:
        return _exit_failures(rc, (0,)) or ([] if compare(out) == compare(expected) else ["reference_mismatch"])

    return check


def _list_binding(names: ref.Names, var: str, expected: list[int]) -> Callable[[dict[str, str]], list[str]]:
    def check(bindings: dict[str, str]) -> list[str]:
        got = names.parse_list(bindings.get(var, ""))
        return [] if got == expected else ["wrong_answer"]

    return check


# ---------------------------------------------------------------------------
# append_ladder
# ---------------------------------------------------------------------------


def _bench_check(n: int) -> Checker:
    """`bench` CSV: one row per mode, with the paper's step laws."""
    laws = {"naive": ref.naive_steps(n), "optimized": ref.optimized_steps(n)}

    def check(rc: int, out: str) -> list[str]:
        failures = _exit_failures(rc, (0,))
        if failures:
            return failures
        rows = [line.split(",") for line in out.splitlines()[1:]]
        steps = {row[1]: row[2] for row in rows if len(row) == 5 and row[0] == str(n)}
        if set(steps) != set(laws):
            return ["reference_mismatch"]
        return [f"step_law:{mode}" for mode, law in laws.items() if steps[mode] != str(law)]

    return check


def _ladder_solve_check(names: ref.Names, n: int, elems: list[int]) -> Checker:
    """`append l nil Out`: Out is l, and the optimized search takes n+1
    committed steps."""
    answer = expect_answer(_list_binding(names, "Out", elems))

    def check(rc: int, out: str) -> list[str]:
        failures = answer(rc, out)
        if not failures and _counter(out, "backchain_steps") != ref.optimized_steps(n):
            failures = ["step_law:optimized"]
        return failures

    return check


def _append_ladder(rng: random.Random, workdir: Path) -> Workload:
    names = ref.Names(_tag(rng))
    sig = _write(workdir, "append.lf", names.signature())
    batch: list[Call] = []
    for n in LADDER:
        batch.append(Call(["bench", "--sizes", str(n), "--mode", "both"], _bench_check(n), f"bench n={n}", n))
    for n in LADDER:
        # the same multiset of numerals at every seed, in a seeded order
        elems = [i % 3 for i in range(n)]
        rng.shuffle(elems)
        query = f"{names.append} {names.spell_arg(elems)} {names.nil} Out"
        batch.append(Call(["solve", sig, query], _ladder_solve_check(names, n, elems), f"solve n={n}"))
    warm = [1, 0, 2, 1]
    return Workload(["solve", sig, f"{names.append} {names.spell_arg(warm)} {names.nil} Out"], batch, 12.5)


# ---------------------------------------------------------------------------
# generate_and_test
# ---------------------------------------------------------------------------

# Closed STLC terms whose applications to each other are mostly ill-typed.
_STLC_POOL = (
    ("lam", ref.BASE, ("var", 0)),
    ("lam", ref.arr(ref.BASE, ref.BASE), ("var", 0)),
    ("lam", ref.BASE, ("lam", ref.BASE, ("var", 1))),
)
REFUTE_DEPTH = 5


def _generate_and_test(rng: random.Random, workdir: Path) -> Workload:
    names = ref.Names(_tag(rng))
    sig = _write(workdir, "append.lf", names.signature())
    stlc_tag = _tag(rng)
    stlc = ref.Stlc(stlc_tag)
    stlc_sig = _write(workdir, "stlc.lf", ref.block(ref.STLC_BLOCK, stlc_tag))
    batch: list[Call] = []
    # every pair of this catalog, so each seed does the same search work
    for l in ([0, 0], [0, 1], [1, 0], [1, 1]):
        for k in ([0], [1]):
            out_q = f"{names.append} {names.spell_arg(l)} {names.spell_arg(k)} Out"
            mid_q = f"{names.append} {names.spell_arg(l)} Mid {names.spell_arg(l + k)}"
            batch.append(
                Call(
                    ["solve", sig, out_q, "--mode", "naive", "--iterdeep"],
                    expect_answer(_list_binding(names, "Out", l + k)),
                    "naive out",
                )
            )
            batch.append(
                Call(
                    ["solve", sig, mid_q, "--mode", "naive", "--iterdeep"],
                    expect_answer(_list_binding(names, "Mid", k)),
                    "naive mid",
                )
            )
    for m in _STLC_POOL:
        for n in _STLC_POOL:
            app = ("app", m, n)
            if ref.infer(app) is not None:
                continue
            query = f"of{stlc_tag} {stlc.term(app, atom=True)} T"
            argv = ["solve", stlc_sig, query, "--iterdeep", "--depth", str(REFUTE_DEPTH)]
            batch.append(Call(argv, expect_no_answer(), "refute ill-typed app"))
    rng.shuffle(batch)
    warm_q = f"{names.append} {names.spell_arg([0])} {names.spell_arg([1])} Out"
    return Workload(["solve", sig, warm_q, "--mode", "naive", "--iterdeep"], batch, 2.8)


# ---------------------------------------------------------------------------
# query_mix
# ---------------------------------------------------------------------------

# (|l|, |k|) of the append queries: each of the eight shapes is asked twice
# at each pair, so a seed draws the numerals but not the mix of sizes.  The
# counts are large enough that the draws of different seeds cost about the
# same in total.
APPEND_SIZES = ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 1), (3, 2))
APPEND_SHAPES = 8
APPEND_REPEATS = 2
RANDOM_SIG_QUERIES = 64
STLC_QUERIES = 64
APPEND_DEPTH = 28
RANDOM_SIG_DEPTH = 20
STLC_DEPTH = 16


def _query_mix(rng: random.Random, workdir: Path) -> Workload:
    names = ref.Names(_tag(rng))
    sig = _write(workdir, "append.lf", names.signature())
    batch = [
        _append_shape(rng, names, sig, shape, sizes)
        for shape in range(APPEND_SHAPES)
        for sizes in APPEND_SIZES
        for _ in range(APPEND_REPEATS)
    ]
    sig_queries: list[Call] = []
    i = 0
    while len(sig_queries) < RANDOM_SIG_QUERIES:
        text, queries = _random_signature(rng)
        path = _write(workdir, f"random{i}.lf", text)
        i += 1
        for query, solvable in queries:
            argv = ["solve", path, query, "--iterdeep", "--depth", str(RANDOM_SIG_DEPTH)]
            sig_queries.append(Call(argv, expect_answer() if solvable else expect_no_answer(), "random signature"))
    batch += sig_queries[:RANDOM_SIG_QUERIES]
    stlc_tag = _tag(rng)
    stlc = ref.Stlc(stlc_tag)
    stlc_sig = _write(workdir, "stlc.lf", ref.block(ref.STLC_BLOCK, stlc_tag))
    for _ in range(STLC_QUERIES):
        term, ty = ref.random_closed_term(rng)
        query = f"of{stlc_tag} {stlc.term(term, atom=True)} T"
        argv = ["solve", stlc_sig, query, "--iterdeep", "--depth", str(STLC_DEPTH)]
        batch.append(Call(argv, _stlc_check(stlc.type(ty)), "stlc inference"))
    rng.shuffle(batch)
    return Workload(batch[0].argv, batch, 2.8)


def _stlc_check(expected_type: str) -> Checker:
    """`of M T` for a well-typed closed M: T is the inferred type.  lfhh
    refutes most terms whose bodies use a bound variable other than as the
    whole body of its own binder (`[f] [x] app f x`, `[x] [y] x`): its beta
    reduction substitutes an open index without shifting it.  That wrong
    verdict, exit 1 with the search space exhausted, is a known defect."""
    answer = expect_answer(lambda b: [] if b.get("T") == expected_type else ["wrong_answer"])

    def check(rc: int, out: str) -> list[str]:
        if rc == 1 and "(search space exhausted)" in out:
            return ["known:hoas_refutation"]
        return answer(rc, out)

    return check


def _append_shape(rng: random.Random, names: ref.Names, sig: str, shape: int, sizes: tuple[int, int]) -> Call:
    """A query of one of the shapes the equivalence corpus uses over
    append/nat, with lists of the given lengths and its expected outcome."""
    l = [rng.randint(0, 2) for _ in range(sizes[0])]
    k = [rng.randint(0, 2) for _ in range(sizes[1])]
    L, K, LK = names.spell_arg(l), names.spell_arg(k), names.spell_arg(l + k)
    app = names.append
    if shape == 0:
        query, check = f"{app} {L} {K} {LK}", expect_answer()
    elif shape == 1:
        query, check = f"{app} {L} {K} {names.spell_arg(l + k + [0])}", expect_no_answer()
    elif shape == 2:
        query, check = f"{app} {L} {K} Out", expect_answer(_list_binding(names, "Out", l + k))
    elif shape == 3:
        m = l + k if rng.random() < 0.5 else [l[0] + 1] + l[1:] + k
        query = f"{app} {L} Mid {names.spell_arg(m)}"
        check = expect_answer(_list_binding(names, "Mid", m[len(l):])) if ref.is_prefix(l, m) else expect_no_answer()
    elif shape == 4:
        pos = rng.randrange(len(l))
        cells = [names.numeral(x) for x in l]
        cells[pos] = "E"
        spelled = names.nil
        for cell in reversed(cells):
            spelled = f"{names.cons} ({cell}) ({spelled})"
        want = names.numeral(l[pos])
        query = f"{app} ({spelled}) {K} {LK}"
        check = expect_answer(lambda b: [] if b.get("E") == want else ["wrong_answer"])
    elif shape == 5:
        query, check = rng.choice((names.nat, names.list)), expect_answer()
    elif shape == 6:
        m = l + k
        m[rng.randrange(len(l))] = m[rng.randrange(len(l))] + 1
        query = f"{app} {L} {K} {names.spell_arg(m)}"
        check = expect_answer() if m == l + k else expect_no_answer()
    else:
        query = f"{app} L L Out"

        def check_doubled(b: dict[str, str]) -> list[str]:
            half = names.parse_list(b.get("L", ""))
            return [] if half is not None and names.parse_list(b.get("Out", "")) == half + half else ["wrong_answer"]

        check = expect_answer(check_doubled)
    argv = ["solve", sig, query, "--iterdeep", "--depth", str(APPEND_DEPTH)]
    return Call(argv, check, f"append shape {shape}")


def _random_signature(rng: random.Random) -> tuple[str, list[tuple[str, bool]]]:
    """A first-order signature with term constructors and a unary family
    `good` with one structural rule per constructor (some dropped), and
    queries with their expected solvability."""
    lines: list[str] = []
    sorts = [f"t{i}" for i in range(rng.randint(1, 2))]
    ctors: dict[str, list[tuple[str, list[str]]]] = {}
    for i, srt in enumerate(sorts):
        lines += [f"{srt} : type.", f"b{i} : {srt}."]
        ctors[srt] = [(f"b{i}", [])]
        for j in range(rng.randint(1, 2)):
            args = [rng.choice(sorts[: i + 1]) for _ in range(rng.randint(1, 2))]
            lines.append(f"c{i}{j} : {' -> '.join(args + [srt])}.")
            ctors[srt].append((f"c{i}{j}", args))
    fam = rng.choice(sorts)
    lines.append(f"good : {fam} -> type.")
    dropped: set[str] = set()
    for cname, args in ctors[fam]:
        if rng.random() < 0.25:
            dropped.add(cname)
            continue
        binders = "".join(f"{{x{n}:{s}}} " for n, s in enumerate(args))
        premises = "".join(f"(good x{n}) -> " for n, s in enumerate(args) if s == fam)
        subject = f"({cname} {' '.join(f'x{n}' for n in range(len(args)))})" if args else cname
        lines.append(f"g{cname} : {binders}{premises}good {subject}.")
    tagged = rng.random() < 0.5
    if tagged:
        lines += [f"tag : {fam} -> type.", f"tag_of : {{n:{fam}}} tag n."]

    def ground(srt: str, depth: int) -> tuple[str, bool]:
        options = ctors[srt] if depth > 0 else [c for c in ctors[srt] if not c[1]]
        cname, args = rng.choice(options)
        good = cname not in dropped
        parts = []
        for a in args:
            sub, sub_good = ground(a, depth - 1)
            parts.append(f"({sub})" if " " in sub else sub)
            good = good and (a != fam or sub_good)
        return " ".join([cname] + parts), good

    queries: list[tuple[str, bool]] = []
    for _ in range(rng.randint(3, 5)):
        pick = rng.randrange(4)
        if pick == 0:
            t, good = ground(fam, rng.randint(0, 2))
            queries.append((f"good ({t})", good))
        elif pick == 1 and f"b{sorts.index(fam)}" not in dropped:
            queries.append(("good X", True))
        elif pick == 2:
            queries.append((rng.choice(sorts), True))
        elif pick == 3 and tagged:
            queries.append((f"tag ({ground(fam, 1)[0]})", True))
        else:
            queries.append((fam, True))
    return "\n".join(lines) + "\n", queries


# ---------------------------------------------------------------------------
# signature_load
# ---------------------------------------------------------------------------

COPIES = 50


def _signature_load(rng: random.Random, workdir: Path) -> Workload:
    tags: list[str] = []
    while len(tags) < COPIES:
        tag = _tag(rng)
        if tag not in tags:
            tags.append(tag)
    text = "".join(ref.block(ref.STLC_BLOCK, t) for t in tags)
    sig = _write(workdir, "stlc_copies.lf", text)
    warm = _write(workdir, "stlc_one.lf", ref.block(ref.STLC_BLOCK, tags[0]))

    def expected(template: str) -> str:
        return "".join(ref.block(template, t) for t in tags)

    def lines(s: str) -> list[str]:
        # `analyze` prints `name: ` with a trailing space when no binder
        return [line.rstrip() for line in s.splitlines()]

    batch = [
        Call(["check", sig], expect_text(f"ok ({COPIES * ref.BLOCK_DECLS} declarations)\n"), "check"),
        Call(["analyze", sig], expect_text(expected(ref.EXPECTED_ANALYZE), lines), "analyze"),
    ]
    for mode in ("naive", "optimized"):
        want = expected(ref.EXPECTED_TRANSLATE[mode])
        batch.append(Call(["translate", sig, "--mode", mode], expect_text(want), f"translate {mode}"))
    return Workload(["check", warm], batch, 2.8)


_BUILDERS = {
    "append_ladder": _append_ladder,
    "generate_and_test": _generate_and_test,
    "query_mix": _query_mix,
    "signature_load": _signature_load,
}
