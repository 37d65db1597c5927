"""The public API is what the program and its benchmark use: every name in a
module's `__all__` is loaded somewhere in `src/lfhh` outside its own
definition, imported by another `src/lfhh` module, or named in `perfbench/`
(whose span targets are strings such as "Solver.solve").  A helper that only
tests call belongs in `tests/`.  The check reads the sources with `ast` and
imports nothing."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lfhh"


def _exported(tree):
    """The names that the module's `__all__` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _defined(stmt):
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def _used_in_src(trees):
    """Names loaded in a module outside their own top-level definition, read
    as `module.name` for an lfhh module, or imported by another module."""
    modules = set(trees)
    used = set()
    for tree in trees.values():
        for stmt in tree.body:
            own = _defined(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                    name = node.attr
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    used.update(a.name for a in node.names)
                    continue
                else:
                    continue
                if name not in own:
                    used.add(name)
    return used


def _named_in_perfbench():
    """Identifiers, attributes, imported names and the dotted parts of string
    constants in the benchmark's sources."""
    named = set()
    for path in (ROOT / "perfbench").rglob("*.py"):
        if "_work" in path.parts:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.update(node.value.split("."))
    return named


def test_every_exported_name_has_a_caller_outside_tests():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = _used_in_src(trees) | _named_in_perfbench()
    exported = [(m, n) for m, tree in trees.items() for n in _exported(tree)]
    assert len(exported) > 50
    unused = [f"{m}.{n}" for m, n in exported if n not in used]
    assert not unused, f"exported but used only by tests: {unused}"
