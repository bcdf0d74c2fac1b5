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


def attribute_names(tree, skip=None):
    """Names read as attributes (the name in x.name) in tree outside the
    node skip."""
    return {node.attr for node in nodes_outside(tree, skip)
            if isinstance(node, ast.Attribute)}


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


def uncalled_methods(source, elsewhere):
    """Methods of the top-level classes of source, dunders aside, whose names
    are neither in the set elsewhere nor read as an attribute in source
    outside their own definition.  Only attribute reads count: a bare name
    spelled like a method is something else, a local variable say."""
    tree = ast.parse(source)
    return sorted(
        "%s.%s" % (cls.name, node.name)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in elsewhere
        and node.name not in attribute_names(tree, skip=node))


def test_scanner_finds_uncalled_methods():
    source = ("class A:\n"
              "    def __eq__(self, other):\n        return True\n"
              "    def used(self):\n        return self.helper()\n"
              "    def helper(self):\n        return 1\n"
              "    def recursive(self):\n        return self.recursive()\n"
              "    def shift(self):\n        return 0\n"
              "    @property\n    def prop(self):\n        return 2\n"
              "def f(x):\n    shift = x\n    return shift\n")
    elsewhere = attribute_names(ast.parse("a.used()\nb.prop\nused = 1\n"))
    assert uncalled_methods(source, elsewhere) == ["A.recursive", "A.shift"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_method_has_a_caller(path):
    elsewhere = set()
    for other in PROGRAM:
        if other != path:
            elsewhere |= attribute_names(ast.parse(other.read_text()))
    assert uncalled_methods(path.read_text(), elsewhere) == []


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
