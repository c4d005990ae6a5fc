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
