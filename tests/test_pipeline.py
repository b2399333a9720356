"""Guards on the shape of the pipeline rather than its values.

* Every name the benchmark harness reaches into (the names in
  perfbench/tracer.py's buckets and those perfbench/make_golden.py
  imports) still resolves.
* One command builds one state: a call counter around the constructors
  pins how often ``verify``, ``jones`` and ``khovanov`` build the diagram,
  the corner table, the overlay, the Kasteleyn signs and the matrix, how
  often they trace the diagram, and how often they eliminate.  The state
  itself builds no overlay: one walk gives the letters and the faces, and
  one face solve the signs.
* ``verify`` checks the Kasteleyn signs of the matrix it evaluates.
* ``build_overlay`` reads its regions and faces off the corner table: it
  builds no layout region itself, so verify's face check compares the
  block walk's faces with an independent construction.
* The writhe factor has one production site, the Jones route of a state,
  besides the spanning-tree oracle's own.
* Every top-level function, class and module-level assignment in src/
  has a reader: src/ itself, the package exports, the benchmark harness,
  or a named reference.
* The two Laurent rings share one body: neither defines an operation
  other than its product, which each keeps for the tracer to patch.
* ``main`` alone decides exit codes 2 and 3: no command function in
  cli.py holds a ``try`` or returns the literal 2 or 3.
"""
import ast
import contextlib
import importlib
import importlib.util
import io
import json
import pathlib
import sys
from collections import Counter

import pytest

from pretzeldimer import cli
from pretzeldimer.cli import main
from pretzeldimer.laurent import Laurent, Laurent2, _Ring
from pretzeldimer.matrix import Entry
from pretzeldimer.taitgraphs import build_overlay

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _tracer_buckets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BUCKETS


def _golden_imports():
    tree = ast.parse((PERFBENCH / "make_golden.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("pretzeldimer"):
            for alias in node.names:
                yield node.module, alias.name


def test_benchmark_names_resolve():
    names = [("pretzeldimer." + module, name)
             for funcs in _tracer_buckets().values()
             for module, name in funcs]
    golden = list(_golden_imports())
    assert golden, "make_golden.py imports nothing from pretzeldimer"
    for module, name in names + golden:
        assert hasattr(importlib.import_module(module), name), (module, name)


#: module -> constructors, traces and eliminations whose calls are counted
COUNTED = {
    "diagram": ("build_diagram", "trace"),
    "taitgraphs": ("corner_regions", "build_overlay", "solve_kasteleyn",
                   "kasteleyn_negatives"),
    "matrix": ("signed_block_matrix", "det_value"),
}


def count_calls(monkeypatch, argv):
    """Exit code and per-function call counts of one in-process command."""
    counts = Counter()
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "pretzeldimer" or n.startswith("pretzeldimer.")]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, names in COUNTED.items():
        owner = importlib.import_module("pretzeldimer." + module)
        for name in names:
            original = getattr(owner, name)
            wrapper = counted(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        monkeypatch.setattr(ns, attr, wrapper)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, counts


def test_verify_json_builds_one_state(monkeypatch):
    code, counts = count_calls(monkeypatch, ["verify", "--json", "P(-2,3,7)"])
    assert code == 0
    assert counts["build_diagram"] == 1
    assert counts["signed_block_matrix"] == 1
    # only for verify's own constructor and face checks; the state has none
    assert counts["build_overlay"] == 1
    # the Tait graph is read off that overlay's corner table
    assert counts["corner_regions"] == 1
    # verify checks the signs the state's matrix carries, not a second set
    assert counts["kasteleyn_negatives"] == 1
    assert counts["solve_kasteleyn"] == 0
    # one Table-1 determinant for the bracket and the Jones polynomial,
    # one Table-2 determinant for the Poincare polynomial
    assert counts["det_value"] == 2
    # verify's own trace serves the bundle's Jones and Poincare knot checks
    assert counts["trace"] == 1


def test_verify_checks_the_signs_the_determinant_used(monkeypatch):
    # flip one Kasteleyn sign of the state's matrix on an edge that bounds
    # a face: the face parity rule breaks, and verify must see it
    original = cli.initial_state
    flipped = []

    def tampered(spec):
        st = original(spec)
        m = st.matrix
        face_edges = {e for f in build_overlay(spec).faces for e in f}
        key = next(k for k in sorted(m.entries)
                   if (m.rows[k[0]], m.columns[k[1]].region) in face_edges)
        e = m.entries[key]
        m.entries[key] = Entry(e.tok, -e.sign)
        flipped.append(key)
        return st

    monkeypatch.setattr(cli, "initial_state", tampered)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--json", "P(-2,3,7)"])
    blob = json.loads(out.getvalue())
    assert flipped
    assert blob["checks"]["kasteleyn signing verified"] is False
    assert code == 1


def test_verify_json_on_a_link_eliminates_once(monkeypatch):
    code, counts = count_calls(monkeypatch, ["verify", "--json", "P(2,2)"])
    assert code == 0
    assert counts["det_value"] == 1


def test_verify_on_a_knot_eliminates_twice_and_traces_once(monkeypatch):
    # each invariant's sign comes from its own value: no matching search
    code, counts = count_calls(monkeypatch, ["verify", "P(-2,3,7)"])
    assert code == 0
    assert counts["det_value"] == 2           # Table 1 and Table 2
    assert counts["trace"] == 1


def test_bracket_of_a_link_eliminates_once_and_never_traces(monkeypatch):
    code, counts = count_calls(monkeypatch, ["jones", "--bracket", "P(2,2)"])
    assert code == 0
    assert counts["det_value"] == 1
    assert counts["trace"] == 0


@pytest.mark.parametrize("argv", [["khovanov", "--json", "P(-2,3,7)"],
                                  ["khovanov", "P(-2,3,7)"]],
                         ids=["json", "text"])
def test_khovanov_eliminates_once_and_traces_once(monkeypatch, argv):
    # the text form's stencil pair counts come from one integer
    # elimination of their own, not from det_value
    code, counts = count_calls(monkeypatch, argv)
    assert code == 0
    assert counts["det_value"] == 1           # Table 2
    assert counts["trace"] == 1               # the knot check


def test_jones_traces_once(monkeypatch):
    # the knot check's trace also gives the writhe
    code, counts = count_calls(monkeypatch, ["jones", "P(-2,3,7)"])
    assert code == 0
    assert counts["trace"] == 1


@pytest.mark.parametrize("argv", [["jones", "P(-2,3,7)"],
                                  ["khovanov", "P(-2,3,7)"],
                                  ["matrix", "P(-2,3,7)", "--enhanced"],
                                  ["jones", "P(-2,3,7)",
                                   "--extend", "r2:parallel"]])
def test_commands_build_one_diagram(monkeypatch, argv):
    code, counts = count_calls(monkeypatch, argv)
    assert code == 0
    assert counts["build_diagram"] == 1
    assert counts["signed_block_matrix"] == 1
    # the state builds no overlay: one walk and one face solve
    assert counts["build_overlay"] == 0
    assert counts["solve_kasteleyn"] == 0
    assert counts["kasteleyn_negatives"] == 1


def _callers(name):
    """(module, innermost enclosing function) of each call to name in src/."""
    found = set()

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if getattr(f, "id", getattr(f, "attr", None)) == name:
                    found.add((module, owner))
            visit(child, module, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    for path in sorted((ROOT / "src" / "pretzeldimer").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


@pytest.mark.parametrize("name", ["bigon", "strip"])
def test_overlay_reads_regions_off_the_corner_table(name):
    # build_overlay takes its regions and faces from corner_regions by a
    # local rule; it does not walk the column layout a second time
    assert ("taitgraphs", "build_overlay") not in _callers(name)


def test_one_site_applies_the_writhe_factor():
    # evaluations and verify's checks compare brackets; only the Jones
    # route of a state and the tree oracle's Jones form apply the kink
    assert _callers("writhe_factor") == {("extend", "state_jones_raw"),
                                         ("oracle", "tree_expansion_jones")}


#: top-level names kept for the tests alone, each with its reason
REFERENCE = {
    "matching_to_tree": "the matching -> tree bijection the activity "
                        "matrix rests on, checked on every perfect matching",
}


def _top_level_names(tree):
    """Names a module binds at top level: its functions and classes, and
    the targets of its assignments, dunders such as __all__ excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) \
                            and not name.id.startswith("__"):
                        yield name.id


def test_every_top_level_definition_has_a_reader():
    """Matches by name: a reference is an ast Name or Attribute read (load
    context) or an import alias anywhere in src/, so a method or local of
    the same name counts, and a definition or module-level assignment
    only ever read by tests must be in REFERENCE."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in (ROOT / "src" / "pretzeldimer").glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    read |= set(importlib.import_module("pretzeldimer").__all__)
    read |= {name for funcs in _tracer_buckets().values()
             for _, name in funcs}
    read |= {name for _, name in _golden_imports()}
    unread = sorted(
        "%s.%s" % (module, name)
        for module, tree in trees.items() for name in _top_level_names(tree)
        if name not in read and name not in REFERENCE)
    assert not unread, unread


#: the ring operations written once, in laurent._Ring; each ring's own
#: format only names its variables and hands the terms to _Ring._format
SHARED_RING_OPS = ("__add__", "__neg__", "__sub__", "__eq__", "__hash__",
                   "__bool__", "_format", "__str__", "__repr__")


@pytest.mark.parametrize("ring", [Laurent, Laurent2])
def test_the_rings_share_one_body(ring):
    # perfbench's tracer counts products by patching each ring's own
    # __mul__, so the product stays in each ring's own namespace
    assert "__mul__" in vars(ring)
    assert set(SHARED_RING_OPS) <= set(vars(_Ring))
    assert not set(SHARED_RING_OPS) & set(vars(ring))


def test_main_alone_maps_usage_errors_and_refusals():
    # commands raise diagram.UsageError or diagram.Refusal; main maps each
    # to its exit code once, so no command catches or returns a code
    tree = ast.parse((ROOT / "src" / "pretzeldimer" / "cli.py").read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("cmd_")]
    assert len(commands) == len(cli.COMMANDS)
    for func in commands:
        for node in ast.walk(func):
            assert not isinstance(node, ast.Try), func.name
            if isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Constant):
                assert node.value.value not in (2, 3), func.name
