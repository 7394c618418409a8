"""Every module-level function, class and constant of src/exqual is used by
the program: the package itself or the benchmark in perfbench/. A name that
only tests reach is dead code. Every defaulted parameter of a src/exqual
function is passed by some call in the program. Every module-level import
of a test module is used by that module."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "exqual").glob("*.py"))
PROGRAM = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# names kept although nothing in the program refers to them or passes them
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


def _defaulted(fn: ast.FunctionDef, bound: int):
    """(name, position) for each parameter of fn that has a default;
    position counts the positional arguments of a call and is None for a
    keyword-only parameter. bound is 1 for a method, whose first parameter
    a call does not pass."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - bound
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _functions(module: ast.Module):
    """(name a call uses, label, function, bound) for each module-level
    function and each method; a constructor is called by its class name."""
    for stmt in module.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt.name, stmt, 0
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    called = stmt.name if item.name == "__init__" else item.name
                    yield called, f"{stmt.name}.{item.name}", item, int(not static)


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call in trees, by the name it calls: f(...) and x.f(...) both
    call f."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):  # **kwargs or name=
        return True
    return position is not None and len(call.args) > position


def unpassed_defaults() -> list[str]:
    parsed = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    calls = _calls(parsed.values())
    unpassed = []
    for path in SOURCES:
        for called, label, fn, bound in _functions(parsed[path]):
            for name, position in _defaulted(fn, bound):
                if not any(_passes(c, name, position) for c in calls.get(called, [])):
                    unpassed.append(f"{path.stem}.{label}({name})")
    return unpassed


def test_every_defaulted_parameter_is_passed_by_the_program():
    """A default that no call in src/exqual or perfbench overrides is a
    setting nothing can change: a constant, or a test-only path."""
    unpassed = [name for name in unpassed_defaults()
                if name.split(".", 1)[1] not in ALLOWED]
    assert unpassed == [], f"defaulted parameters no program call passes: {unpassed}"


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module-level import of path binds that the module never
    loads."""
    module = ast.parse(path.read_text(encoding="utf-8"))
    loaded = {node.id for node in ast.walk(module)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for stmt in module.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)) and \
                getattr(stmt, "module", None) != "__future__":
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded:
                    unused.append(f"{path.stem}.{name}")
    return unused


def test_every_test_import_is_used_by_its_module():
    unused = [name for path in sorted((ROOT / "tests").glob("*.py"))
              for name in unused_imports(path)
              if name.split(".", 1)[1] not in ALLOWED]
    assert unused == [], f"imported but never referenced by the importing test module: {unused}"
