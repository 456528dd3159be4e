"""The package's public surface: every exported name resolves, no private
helper is left without a caller, and every public function is reached from
``src/`` or says what it serves."""

import ast
import contextlib
import io
import pathlib
import sys
from collections import Counter

import pytest

import cprforge
from cprforge import cli

SRC = pathlib.Path(cprforge.__file__).parent


def scan_src():
    """Every function or method under ``src/cprforge`` as (name, owning
    class name or "", path, first line, last line), the first line being
    that of its first decorator, and every name or attribute read there as
    (name, path, line)."""
    defs, refs = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(node): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                defs.append((node.name, owner.get(id(node), ""), path,
                             first, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path, node.lineno))
    return defs, refs


def named_elsewhere(name, path, first, last, refs):
    """Whether ``src/`` names ``name`` outside the lines first..last of path."""
    return any(ref == name and not (where == path and first <= line <= last)
               for ref, where, line in refs)


@pytest.fixture(scope="module")
def called_from_src(tmp_path_factory):
    """(file, first line) of every function that a frame under ``src/``
    calls during one fixed run of each command: gen, glue by all three
    methods, check of every graph in both modes with a JSON report, and
    paper.  A code object's first line is that of its first decorator."""
    src_files = {str(path) for path in SRC.rglob("*.py")}
    called = set()

    def record(frame, event, arg):
        if frame.f_back is not None and frame.f_back.f_code.co_filename in src_files:
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    out = tmp_path_factory.mktemp("surface")
    simplex, two_row = str(out / "simplex.prg"), str(out / "graph_x.prg")
    runs = [["gen", "simplex", "--r", "3", "--out", simplex],
            ["gen", "graph-x", "--r", "5", "--h", "1", "--out", two_row]]
    glued = {"theorem1": [simplex, simplex], "pendant": [simplex],
             "conjecture": ["--i", "2", simplex]}
    for method, args in glued.items():
        runs.append(["glue", "--method", method, *args, "--out", str(out / method)])
    for path in [simplex, two_row, *(str(out / method) for method in glued)]:
        for mode in ("recursive", "full"):
            runs.append(["check", path, "--mode", mode, "--json", f"{path}.{mode}.json"])
    runs.append(["paper"])
    previous = sys.gettrace()
    sys.settrace(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(argv) for argv in runs]
    finally:
        sys.settrace(previous)
    # the two-row graph fails the intersection property in both modes
    assert codes == [0] * 7 + [2, 2] + [0] * 7
    return called


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


# Public functions and methods that nothing in ``src/`` reaches, each with
# the paper concept or the documented API it serves.
UNCALLED_PUBLIC = {
    "is_perfect_split": "the paper's perfect i-split, asked of one edge",
    "Sggi.sesqui_extend": "the sesqui-extension of an sggi by one new k-edge",
    "Sggi.dual": "the paper's dual of an sggi that has no graph, as after "
                 "a sesqui-extension",
    "Sggi.generators": "the exported Sggi's involutions in label order",
    "nonexample_doubleedge_base":
        "the CPR graph under the paper's double-edge pendant non-example",
    "Permutation.inverse": "arithmetic of the exported Permutation",
    "Permutation.support": "the moved points of the exported Permutation",
    "PermGroup.elements": "enumeration of the exported PermGroup as Permutations",
    "intersection_order":
        "|G ^ H| without listing it, the count of the node check's backtrack "
        "for a caller that needs no witness",
    "LabeledGraph.shift_labels":
        "moves a glued graph's label window onto the paper's numbering",
    "LabeledGraph.check_shape_lemma":
        "the paper's shape lemma, the graph form of the string property",
}


def test_every_public_function_is_reached_or_explained(called_from_src):
    """Each public function, or public method of a public class, under
    ``src/cprforge`` is reached from ``src/``, is exported in
    ``cprforge.__all__``, or has an entry in ``UNCALLED_PUBLIC``; and every
    entry there is still a public function that nothing reaches.

    A name defined once is reached when ``src/`` names it outside its own
    ``def``.  A name defined more than once is reached only when a frame
    under ``src/`` calls that very function in the fixed command run, since
    a call by name alone cannot tell whose method it is."""
    defs, refs = scan_src()
    defined = Counter(name for name, *_ in defs)

    def reached(name, path, first, last):
        if defined[name] > 1:
            return (str(path), first) in called_from_src
        return named_elsewhere(name, path, first, last, refs)

    unreached = {
        f"{cls}.{name}" if cls else name for name, cls, path, first, last in defs
        if not name.startswith("_") and not cls.startswith("_")
        and name not in cprforge.__all__
        and not reached(name, path, first, last)}
    assert sorted(unreached - set(UNCALLED_PUBLIC)) == []
    assert sorted(set(UNCALLED_PUBLIC) - unreached) == []
