"""Every name a library module imports is used in that module, and every
function, class and method a library module defines is used by the program:
the library, the demos or the benchmark, not only by tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "heisdouble"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PROGRAM = sorted(p for d in ("src", "demos", "bench") for p in (ROOT / d).rglob("*.py")
                 if not p.name.startswith("test_"))


def unused_imports(source):
    """Names bound by an import statement (at any depth) and never read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(name for name in imported if name not in used)


def test_scanner_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as js\nfrom math import gcd, pi\n"
              "def f():\n    from itertools import chain\n    return gcd(1, 2)\n")
    assert unused_imports(source) == ["chain", "js", "os", "pi"]


def test_modules_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def nodes_outside(tree, skip):
    """The nodes of tree, leaving out the subtree at the node skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def referenced_names(tree, skip=None):
    """Names read in tree outside the node skip: bare names, attribute
    names and imported names."""
    out = set()
    for node in nodes_outside(tree, skip):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def uncalled_definitions(source, elsewhere):
    """Top-level functions and classes of source whose names are neither in
    the set elsewhere nor read in source outside their own definition."""
    tree = ast.parse(source)
    return sorted(
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in elsewhere
        and node.name not in referenced_names(tree, skip=node))


def test_scanner_finds_uncalled_definitions():
    source = ("def used():\n    return 1\n"
              "def helper():\n    return used()\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Unused:\n    pass\n"
              "def by_attribute():\n    pass\n")
    elsewhere = referenced_names(ast.parse(
        "from m import helper as h\nimport m\nm.by_attribute()\n"))
    assert uncalled_definitions(source, elsewhere) == ["Unused", "recursive"]


def test_program_found():
    assert {"cli.py", "run.py", "demo_weyl.py"} <= {p.name for p in PROGRAM}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_has_a_caller(path):
    elsewhere = set()
    for other in PROGRAM:
        if other != path:
            elsewhere |= referenced_names(ast.parse(other.read_text()))
    assert uncalled_definitions(path.read_text(), elsewhere) == []


def class_methods(tree):
    """(class, method) names of the top-level classes of tree, dunders aside."""
    return [(cls.name, node.name)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def imported_modules(tree):
    """The last dotted component of every module tree imports or imports
    from, and every name it imports from one, which may be a module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                out.add(node.module.rsplit(".", 1)[-1])
            out.update(alias.name for alias in node.names)
    return out


def attribute_reads(tree):
    """(node, cls, method) for each attribute read x.name in tree: cls is
    the innermost class around it, and method the (class, method) names of
    the top-level class method it sits in; either is None outside one."""
    def walk(node, cls, method):
        for child in ast.iter_child_nodes(node):
            inner_cls, inner_method = cls, method
            if isinstance(child, ast.ClassDef):
                inner_cls = child.name
            elif (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and isinstance(node, ast.ClassDef) and node in tree.body):
                inner_method = (node.name, child.name)
            if isinstance(child, ast.Attribute):
                yield child, cls, method
            yield from walk(child, inner_cls, inner_method)

    return walk(tree, None, None)


def reached_methods(trees):
    """The (module, class, method) triples that some attribute read of the
    program reaches outside the method's own definition; trees maps each
    module name of the program to its parsed source.

    Reads resolve per class.  A read C.m, or self.m or cls.m inside class
    C, reaches the method m of C when C defines one.  Any other read x.m
    reaches the method m of every class defined in the reading module or in
    a module it imports, directly or through other modules of the program:
    the receiver's class is not known, but it is one the reader can reach."""
    defining = {}
    for module, tree in trees.items():
        for cls, name in class_methods(tree):
            defining.setdefault(name, set()).add((module, cls))
    imports = {module: imported_modules(tree) & trees.keys()
               for module, tree in trees.items()}
    reached = set()
    for module, tree in trees.items():
        visible, todo = set(), [module]
        while todo:
            m = todo.pop()
            if m not in visible:
                visible.add(m)
                todo.extend(imports[m])
        for node, cls, method in attribute_reads(tree):
            targets = defining.get(node.attr, set())
            receiver = getattr(node.value, "id", None)
            if receiver in ("self", "cls"):
                receiver = cls
            named = {t for t in targets if t[1] == receiver}
            here = (module, *method) if method else None
            for target in named or {t for t in targets if t[0] in visible}:
                if (*target, node.attr) != here:
                    reached.add((*target, node.attr))
    return reached


def uncalled_methods(trees, module):
    """Methods of the top-level classes of trees[module] that no read of
    the program reaches (reached_methods)."""
    reached = reached_methods(trees)
    return sorted("%s.%s" % (cls, name) for cls, name in class_methods(trees[module])
                  if (module, cls, name) not in reached)


def test_scanner_finds_uncalled_methods():
    sources = {
        "a": ("class A:\n"
              "    def __eq__(self, other):\n        return True\n"
              "    def used(self):\n        return self.helper()\n"
              "    def helper(self):\n        return 1\n"
              "    def recursive(self):\n        return self.recursive()\n"
              "    def shift(self):\n        return 0\n"
              "    @property\n    def prop(self):\n        return 2\n"
              "    def coeff(self):\n        return 0\n"
              "def f(x):\n    shift = x\n    return shift\n"),
        # B.coeff shares its name with A.coeff, but every read of coeff
        # resolves to B: by self inside B, or from a module that sees only B
        "b": ("class B:\n"
              "    def coeff(self):\n        return 1\n"
              "    def scale(self):\n        return self.coeff()\n"),
        "c": "from a import f\nx.used()\ny.prop\nused = 1\n",
        "d": "import b\nb.B().scale()\nw.coeff()\n",
    }
    trees = {m: ast.parse(s) for m, s in sources.items()}
    assert uncalled_methods(trees, "a") == ["A.coeff", "A.recursive", "A.shift"]
    assert uncalled_methods(trees, "b") == []


PROGRAM_TREES = {p.stem: ast.parse(p.read_text()) for p in PROGRAM}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_method_has_a_caller(path):
    assert uncalled_methods(PROGRAM_TREES, path.stem) == []


def report_constructions(source):
    """Line numbers of the calls Report(...) in source, by name or as an
    attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "Report"
                 or getattr(node.func, "attr", None) == "Report")]


def test_scanner_finds_report_constructions():
    source = ("from heisdouble import report\nfrom heisdouble.report import Report\n"
              "a = Report('c', 'i', 1, 'pass')\nb = report.Report('c', 'i', 1, 'pass')\n"
              "c = Reporter()\nd = Report\n")
    assert report_constructions(source) == [3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_report_module_builds_reports(path):
    # every check returns its witness and report.check builds the Report
    if path.name != "report.py":
        assert report_constructions(path.read_text()) == []


def test_cli_import_loads_no_introspection_modules():
    # dataclasses would bring inspect, ast, dis and tokenize into every
    # start of the CLI, and fractions would bring decimal and numbers; -S
    # keeps site's own imports out of the count
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize",
             "fractions", "decimal", "numbers")
    code = ("import sys, heisdouble.cli\n"
            "print(' '.join(m for m in %r if m in sys.modules))" % (heavy,))
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout.split() == []
