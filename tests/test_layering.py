"""The stages of the pipeline import one another in one direction: the
parser, then the kernel, then rigidity analysis and translation, then the
prover and the answer pipeline.  The kernel depends on nothing on the search
side, and the command line loads at import only what `check` runs, the
parser and the kernel; each other command imports its stages when it runs
(a fresh-interpreter test in `test_cli.py` checks that).  The check reads
the sources with `ast` and imports nothing."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lfhh"

# the lfhh modules each module may import when it is itself imported
ALLOWED = {
    "lf_syntax": set(),
    "lf_typecheck": {"lf_syntax"},
    "rigidity": {"lf_syntax"},
    "hhf_logic": {"lf_syntax", "rigidity"},
    "cli": {"lf_syntax", "lf_typecheck"},
}


def _run_at_import(node):
    """The nodes under `node` that run when the module is imported: all but
    those in function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _run_at_import(child)


def imported_at_load(module: str) -> set[str]:
    """The lfhh modules that `module` imports at module level."""
    names = set()
    for stmt in _run_at_import(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(stmt, ast.ImportFrom) and (stmt.level or (stmt.module or "").split(".")[0] == "lfhh"):
            # `from .m import x`, `from lfhh.m import x`, `from . import m`
            target = (stmt.module or "").removeprefix("lfhh").lstrip(".")
            names.update([target] if target else [a.name for a in stmt.names])
        elif isinstance(stmt, ast.Import):
            names.update(a.name.removeprefix("lfhh.") for a in stmt.names if a.name.startswith("lfhh."))
    return names


def test_each_stage_imports_only_the_stages_before_it():
    beyond = {m: imported_at_load(m) - allowed for m, allowed in ALLOWED.items()}
    wrong = {m: names for m, names in beyond.items() if names}
    assert not wrong, f"module-level imports beyond the layering: {wrong}"


def test_the_guard_reads_the_imports():
    # a guard that reads no import would pass on any layering
    assert imported_at_load("hhf_logic") == {"lf_syntax", "rigidity"}
    assert imported_at_load("reconstruct") >= {"hhf_logic", "hhf_prover", "lf_syntax", "lf_typecheck"}
