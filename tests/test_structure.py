"""Static checks on the source: no function of ``lang`` or ``values``
recurses, directly or through other functions of its module, so no
input depth reaches Python's recursion limit there; and importing the
package and its CLI pulls in no class-generation machinery."""

import ast
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import streamgen


def call_graph(tree):
    """Each function and method of a module (``f``, ``Class.m``) mapped
    to the ones of the same module it calls: by bare name, through
    ``self``/``cls`` or its class name, and ``Class(...)`` as
    ``Class.__init__``."""
    classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    bodies = {}
    for n in tree.body:
        if isinstance(n, ast.FunctionDef):
            bodies[n.name] = n
        elif isinstance(n, ast.ClassDef):
            for m in n.body:
                if isinstance(m, ast.FunctionDef):
                    bodies["%s.%s" % (n.name, m.name)] = m
    graph = {}
    for name, fn in bodies.items():
        owner = name.split(".")[0] if "." in name else None
        callees = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id in bodies:
                callees.add(f.id)
            elif isinstance(f, ast.Name) and f.id in classes:
                callees.add(f.id + ".__init__")
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                base = f.value.id
                cls = owner if base in ("self", "cls") else base if base in classes else None
                if cls is not None:
                    callees.add("%s.%s" % (cls, f.attr))
        graph[name] = callees & bodies.keys()
    return graph


@pytest.mark.parametrize("module", ["lang.py", "values.py"])
def test_module_call_graph_is_acyclic(module):
    source = (Path(streamgen.__file__).parent / module).read_text()
    TopologicalSorter(call_graph(ast.parse(source))).prepare()  # CycleError on recursion


def test_call_graph_sees_direct_indirect_and_method_recursion():
    source = """
def f(n):
    return f(n - 1)

def g():
    return h()

def h():
    return g()

class P:
    def a(self):
        return self.b()

    def b(self):
        return P.a(self)

def flat():
    return g
"""
    graph = call_graph(ast.parse(source))
    for names in (["f"], ["g", "h"], ["P.a", "P.b"]):
        with pytest.raises(CycleError):
            TopologicalSorter({k: graph[k] for k in names}).prepare()
    assert graph["flat"] == set()


def test_import_loads_neither_dataclasses_nor_inspect():
    # Without ``site`` and with only the package on the path: a ``.pth``
    # file may import either module before streamgen is imported.
    src = str(Path(streamgen.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, streamgen, streamgen.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
