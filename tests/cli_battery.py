"""A fixed, seeded battery of command lines, run through `lfhh.cli.main` in
one process.  Each run's argv, exit code, stdout and stderr are written to
one file, so two checkouts can be compared byte for byte:

    PYTHONPATH=src python tests/cli_battery.py OUT

The battery covers `check`, `analyze` and both `translate` modes on the
append, vec, remark and STLC signatures and on 150 seeded token-mutated
copies of them; `solve` (default, `--mode naive`, `--all`, `--trace
--iterdeep`, and `--mode naive --all --trace` with and without
`--iterdeep`, which pin the variable names printed after backtracking)
and `compare` on append queries, output and middle searches among them;
`solve` and `compare` on 60 seeded STLC queries; and `bench --format
text`, with its wall-time column dropped.  Every search runs at a depth
of 6 to 8 and a budget of 20000.  Signature files are written to a
temporary directory that the runs use as their working directory, so file
names in OUT do not depend on where it runs.  The file is not named
`test_*` and pytest does not collect it.
"""

from __future__ import annotations

import io
import os
import pathlib
import random
import re
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from corpus import STLC_TEXT, random_stlc_query  # noqa: E402

from lfhh.cli import main  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "golden"
SEED = 20101
MUTANTS = 150
STLC_QUERIES = 60

APPEND_QUERIES = [
    "append L K (cons z (cons (s z) (cons (s (s z)) nil)))",
    "append L K (cons nil)",
    "append L K",
    "append (cons z nil) (cons (s z) nil) L",
    "append L (cons z nil) (cons (s z) (cons z nil))",
    "append nil nil (cons z nil)",
    "append (cons X nil) K (cons (s z) (cons z nil))",
    "append L Mid (cons z (cons (s z) nil))",
]
SOLVE_FLAGS = [
    [],
    ["--mode", "naive"],
    ["--all"],
    ["--trace", "--iterdeep"],
    ["--mode", "naive", "--all", "--trace"],
    ["--mode", "naive", "--all", "--trace", "--iterdeep"],
]

# whitespace and comments, an identifier, the arrow, or one other character
_PIECE = re.compile(r"\s+|%[^\n]*|\w[\w']*|->|.", re.S)


def mutate(text: str, rng: random.Random) -> str:
    """`text` with one token deleted, doubled, replaced by another token of
    the text, or swapped with the next one."""
    pieces = _PIECE.findall(text)
    toks = [i for i, p in enumerate(pieces) if not (p.isspace() or p.startswith("%"))]
    i = rng.choice(toks[:-1])
    op = rng.randrange(4)
    if op == 0:
        pieces[i] = ""
    elif op == 1:
        pieces[i] += " " + pieces[i]
    elif op == 2:
        pieces[i] = pieces[rng.choice(toks)]
    else:
        j = toks[toks.index(i) + 1]
        pieces[i], pieces[j] = pieces[j], pieces[i]
    return "".join(pieces)


def runs(rng: random.Random) -> tuple[dict[str, str], list[list[str]]]:
    """The signature files to write, by name, and the argument lists."""
    files = {name: (GOLDEN / name).read_text() for name in ("append.lf", "vec.lf", "remark.lf")}
    files["stlc.lf"] = STLC_TEXT
    bases = list(files.values())
    for k in range(MUTANTS):
        files[f"mutant{k:03}.lf"] = mutate(rng.choice(bases), rng)
    argvs: list[list[str]] = []
    for name in files:
        argvs += [["check", name], ["analyze", name]]
        argvs += [["translate", name, "--mode", mode] for mode in ("naive", "optimized")]

    def searches(name: str, query: str, k: int, solve_flags: list[list[str]]) -> None:
        limits = ["--depth", str(6 + k % 3), "--budget", "20000"]
        argvs.extend(["solve", name, query, *flags, *limits] for flags in solve_flags)
        argvs.append(["compare", name, query, *limits])

    for k, query in enumerate(APPEND_QUERIES):
        searches("append.lf", query, k, SOLVE_FLAGS)
    for k in range(STLC_QUERIES):
        searches("stlc.lf", random_stlc_query(rng), k, [[]])
    argvs += [["bench", "--format", "text"], ["bench", "--format", "text", "--search", "--sizes", "4,8"]]
    return files, argvs


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue()
    if argv[0] == "bench":  # the last column is wall time
        stdout = "".join(line.rsplit(None, 1)[0] + "\n" for line in stdout.splitlines())
    return f"=== {shlex.join(argv)}\nexit {code}\n--- stdout\n{stdout}--- stderr\n{err.getvalue()}"


def write_battery(out_path: str) -> int:
    """Run the battery and write its record to `out_path`; the run count."""
    files, argvs = runs(random.Random(SEED))
    out_path = os.path.abspath(out_path)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, open(out_path, "w", encoding="utf-8") as out:
        for name, text in files.items():
            pathlib.Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            for argv in argvs:
                out.write(run(argv))
        finally:
            os.chdir(cwd)
    return len(argvs)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    print(f"{write_battery(sys.argv[1])} runs")
