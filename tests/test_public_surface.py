"""The package's public surface: every exported name resolves, no private
helper is left without a caller, and every public function is reached from
``src/`` or says what it serves."""

import ast
import pathlib

import cprforge

SRC = pathlib.Path(cprforge.__file__).parent


def scan_src():
    """Every function or method under ``src/cprforge`` as (name, owning
    class name or "", path, first line, last line), and every name or
    attribute read there as (name, path, line)."""
    defs, refs = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(node): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((node.name, owner.get(id(node), ""), path,
                             node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path, node.lineno))
    return defs, refs


def named_elsewhere(name, path, first, last, refs):
    """Whether ``src/`` names ``name`` outside the lines first..last of path."""
    return any(ref == name and not (where == path and first <= line <= last)
               for ref, where, line in refs)


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
    defs, refs = scan_src()
    orphans = [
        f"{path.name}:{first} {name}" for name, cls, path, first, last in defs
        if not name.startswith("__")
        and (name.startswith("_") or cls.startswith("_") and not cls.startswith("__"))
        and not named_elsewhere(name, path, first, last, refs)]
    assert not orphans, orphans


# Public functions and methods that nothing in ``src/`` names, each with the
# paper concept or the documented API it serves.
UNCALLED_PUBLIC = {
    "is_perfect_split": "the paper's perfect i-split, asked of one edge",
    "Sggi.sesqui_extend": "the sesqui-extension of an sggi by one new k-edge",
    "nonexample_doubleedge_base":
        "the CPR graph under the paper's double-edge pendant non-example",
    "Permutation.inverse": "arithmetic of the exported Permutation",
    "Permutation.support": "the moved points of the exported Permutation",
    "PermGroup.elements": "enumeration of the exported PermGroup as Permutations",
    "LabeledGraph.shift_labels":
        "moves a glued graph's label window onto the paper's numbering",
    "LabeledGraph.check_shape_lemma":
        "the paper's shape lemma, the graph form of the string property",
}


def test_every_public_function_is_reached_or_explained():
    """Each public function, or public method of a public class, under
    ``src/cprforge`` is named somewhere in ``src/`` outside its own
    ``def``, is exported in ``cprforge.__all__``, or has an entry in
    ``UNCALLED_PUBLIC``; and every entry there is still a public function
    that nothing reaches."""
    defs, refs = scan_src()
    unreached = {
        f"{cls}.{name}" if cls else name for name, cls, path, first, last in defs
        if not name.startswith("_") and not cls.startswith("_")
        and name not in cprforge.__all__
        and not named_elsewhere(name, path, first, last, refs)}
    assert sorted(unreached - set(UNCALLED_PUBLIC)) == []
    assert sorted(set(UNCALLED_PUBLIC) - unreached) == []
