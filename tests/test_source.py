"""Checks on the package's source text."""

import ast

from conftest import REPO


def _public_functions(tree):
    """(qualified name, node) of each public module-level function and public class's method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_parameter_is_read():
    dead = []
    for path in sorted((REPO / "src" / "pencillab").glob("*.py")):
        for name, fn in _public_functions(ast.parse(path.read_text(encoding="utf-8"))):
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            dead += [f"{path.name}:{name}({p})" for p in params if p not in read]
    assert dead == []


def test_every_tolerance_is_set_reported_and_replayed(tmp_path, monkeypatch):
    # a ToleranceConfig float has one CLI option, one analyze report key and
    # one campaign artifact key, so no setting outlives its last reader
    import dataclasses
    import json

    import numpy as np

    from pencillab import Pencil, ToleranceConfig, cli

    fields = {f.name for f in dataclasses.fields(ToleranceConfig) if f.type == "float"}
    options = set(cli._TOLERANCE_OPTIONS.values()) - {"rng_seed"}
    report = set(cli.analyze_pencil(Pencil(np.eye(2), np.zeros((2, 2))), ToleranceConfig())
                 ["tolerances"])
    monkeypatch.setitem(cli._CHECKS, "dopico",
                        lambda rng, tol, index: {"ok": False, "pencil": None, "detail": {}})
    path = cli.run_campaign("dopico", 1, ToleranceConfig(), str(tmp_path))["failure_artifacts"][0]
    with open(path, encoding="utf-8") as fh:
        artifact = set(json.load(fh)["tolerances"])
    assert fields == options == report == artifact


def test_no_module_reads_the_environment():
    # every setting comes from an argument, so ambient state cannot change a result
    readers = {"environ", "environb", "getenv"}
    found = []
    for path in sorted((REPO / "src" / "pencillab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in readers
                    or isinstance(node, ast.ImportFrom) and node.module == "os"
                    and readers & {alias.name for alias in node.names}):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_isotropic_search_draws_from_the_seed():
    # the isotropic search is the one randomized step; cli sets, reports and
    # replays the seed, and ToleranceConfig validates it.  Any other reader
    # would let a seed decide a verdict or a construction.
    readers = set()
    for path in sorted((REPO / "src" / "pencillab").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(isinstance(node, ast.Attribute) and node.attr == "rng_seed"
                   for node in ast.walk(top)):
                readers.add(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert {r for r in readers if not r.startswith("cli.")} == {
        "config.ToleranceConfig", "numrange.isotropic_search"}


def _relative_imports(node):
    """The package modules that ``from .M import ...`` or ``from . import M`` names, else []."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return []
    return [node.module] if node.module else [alias.name for alias in node.names]


def test_function_local_imports_only_break_cycles():
    # a function-local import of M in N is there only because M imports N at
    # module level, directly or through other modules of the package
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in (REPO / "src" / "pencillab").glob("*.py")}
    imports = {name: {m for stmt in tree.body for m in _relative_imports(stmt)}
               for name, tree in trees.items()}

    def reaches(start, goal):
        seen, todo = set(), [start]
        while todo:
            name = todo.pop()
            if name == goal:
                return True
            if name not in seen:
                seen.add(name)
                todo.extend(imports.get(name, ()))
        return False

    needless = {f"{name}.py:{node.lineno}"
                for name, tree in trees.items()
                for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)
                for module in _relative_imports(node) if not reaches(module, name)}
    assert sorted(needless) == []
