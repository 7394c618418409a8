"""Every module-level function, class and constant of src/exqual is used by
the program: the package itself or the benchmark in perfbench/. A name that
only tests reach is dead code."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "exqual").glob("*.py"))
PROGRAM = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# module-level names kept although nothing in the program refers to them
ALLOWED: set[str] = set()


def _references(tree: ast.AST) -> list[str]:
    """Identifiers that tree refers to: loaded names, attribute names, and
    string constants spelling a name (as getattr(module, name) uses it)."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.append(node.id)
        elif isinstance(node, ast.Attribute):
            refs.append(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs.append(node.value)
    return refs


def _definitions(module: ast.Module):
    """(name, defining statement) for each module-level function, class and
    assigned constant, dunder names aside."""
    for stmt in module.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, stmt


def dead_names() -> list[str]:
    parsed = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    counts: dict[str, int] = {}
    for tree in parsed.values():
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    dead = []
    for path in SOURCES:
        for name, stmt in _definitions(parsed[path]):
            own = _references(stmt).count(name)  # recursion is not a use
            if counts.get(name, 0) - own <= 0:
                dead.append(f"{path.stem}.{name}")
    return dead


def test_every_module_level_name_is_used_by_the_program():
    dead = [name for name in dead_names() if name.split(".", 1)[1] not in ALLOWED]
    assert dead == [], f"defined but referenced nowhere in src/exqual or perfbench: {dead}"
