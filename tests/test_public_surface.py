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
    """Each private function or method under ``src/cprforge`` is named
    somewhere in ``src/`` outside its own ``def``.  Private means a
    single-underscore name, or any non-dunder method of a single-underscore
    class such as ``_Chain``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs, refs = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_private_class = {
            id(node) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
            and not cls.name.startswith("__")
            for node in cls.body if isinstance(node, functions)}
        for node in ast.walk(tree):
            if isinstance(node, functions):
                if not node.name.startswith("__") and (
                        node.name.startswith("_") or id(node) in in_private_class):
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
