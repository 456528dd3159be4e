"""The package's public surface: every exported name resolves, and no
private helper is left without a caller."""

import ast
import pathlib

import cprforge

SRC = pathlib.Path(cprforge.__file__).parent


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from cprforge import *", namespace)
    for name in cprforge.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(cprforge, name)


def test_every_private_function_has_a_caller():
    """Each single-underscore function or method under ``src/cprforge`` is
    named somewhere in ``src/`` outside its own ``def``."""
    defs, refs = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defs.append((node.name, path, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path, node.lineno))
    orphans = [
        f"{path.name}:{first} {name}" for name, path, first, last in defs
        if not any(ref == name and not (where == path and first <= line <= last)
                   for ref, where, line in refs)]
    assert not orphans, orphans
