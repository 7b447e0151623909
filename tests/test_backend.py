"""Library code runs no dense kernel on numpy's BLAS.

numpy and scipy each link their own OpenBLAS, each with its own thread
pool. Every dense kernel in ``coherence_lab`` goes through
``scipy.linalg``; one numpy BLAS/LAPACK call between scipy's would wake
numpy's pool, whose threads then spin against scipy's. This test reads the
source with ``ast`` and fails on every numpy construct that reaches BLAS
or LAPACK. The test oracles in ``conftest.py`` use ``np.linalg`` on
purpose: a different library from the code they check.
"""

import ast
from pathlib import Path

import coherence_lab

SOURCES = sorted(Path(coherence_lab.__file__).parent.glob("*.py"))
NUMPY = {"np", "numpy"}
NUMPY_BLAS = {"dot", "matmul", "inner", "vdot", "tensordot"}
LINALG_ALLOWED = {"LinAlgError"}


def _is_numpy(node) -> bool:
    return type(node) is ast.Name and node.id in NUMPY


def _numpy_blas_uses(tree):
    """(line, what) for every numpy BLAS/LAPACK use in a module's tree."""
    for node in ast.walk(tree):
        kind = type(node)
        if kind is ast.BinOp or kind is ast.AugAssign:
            if type(node.op) is ast.MatMult:
                yield node.lineno, "the @ operator"
        elif kind is ast.Attribute:
            if _is_numpy(node.value) and node.attr in NUMPY_BLAS:
                yield node.lineno, f"np.{node.attr}"
            elif (type(node.value) is ast.Attribute and node.value.attr == "linalg"
                    and _is_numpy(node.value.value) and node.attr not in LINALG_ALLOWED):
                yield node.lineno, f"np.linalg.{node.attr}"
        elif kind is ast.Call:
            func = node.func
            if type(func) is ast.Attribute and func.attr == "einsum" and _is_numpy(func.value):
                for kw in node.keywords:
                    if kw.arg == "optimize" and not (
                            type(kw.value) is ast.Constant and not kw.value.value):
                        yield node.lineno, "np.einsum with optimize="
        elif kind is ast.ImportFrom and (node.module or "").startswith("numpy"):
            for alias in node.names:
                if alias.name in LINALG_ALLOWED:
                    continue
                if node.module.startswith("numpy.linalg") or alias.name in NUMPY_BLAS | {"linalg"}:
                    yield node.lineno, f"from {node.module} import {alias.name}"
        elif kind is ast.Import:
            for alias in node.names:
                if alias.name.startswith("numpy.linalg"):
                    yield node.lineno, f"import {alias.name}"


def test_library_sources_are_found():
    assert {p.name for p in SOURCES} >= {"electrical.py", "simulate.py", "coherence.py"}


def test_no_numpy_blas_in_library_code():
    found = [f"{path.name}:{line}: {what}"
             for path in SOURCES
             for line, what in _numpy_blas_uses(ast.parse(path.read_text()))]
    assert not found, "numpy BLAS/LAPACK in library code:\n" + "\n".join(found)


def test_the_guard_catches_each_construct():
    code = [
        "T = R.T @ R",
        "x @= y",
        "np.dot(a, b)",
        "numpy.matmul(a, b)",
        "np.inner(a, b)",
        "np.vdot(a, b)",
        "np.tensordot(a, b)",
        "np.linalg.eigh(A)",
        "np.einsum('ij,jk->ik', a, b, optimize=True)",
        "np.einsum('ij,jk->ik', a, b, optimize='greedy')",
        "from numpy.linalg import eigh",
        "from numpy import dot",
        "import numpy.linalg",
    ]
    lines = sorted({line for line, _ in _numpy_blas_uses(ast.parse("\n".join(code)))})
    assert lines == list(range(1, len(code) + 1))


def test_the_guard_allows_the_rest():
    code = """
try:
    pass
except np.linalg.LinAlgError:
    pass
np.einsum('cu,cu->c', a, a)
np.einsum('cu,cu->c', a, a, optimize=False)
dsyrk(1.0, R.T, trans=1, lower=1)
x * y
"""
    assert list(_numpy_blas_uses(ast.parse(code))) == []
