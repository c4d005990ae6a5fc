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
