"""No module imports a name it never uses, and importing hessllt does not
import NumPy: only hessllt.lazynp imports it, on the first attribute read of
its np, which the symmetric-function routes never make."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/hessllt", "tests", "demos")
PACKAGE = ROOT / "src" / "hessllt"
HELPER = PACKAGE / "lazynp.py"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name that the module never reads.

    Skips __future__ imports, names listed in __all__ and imports whose line
    carries a noqa marker."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                line = getattr(alias, "lineno", node.lineno)
                if alias.name == "*" or "noqa" in lines[line - 1] or "noqa" in lines[node.lineno - 1]:
                    continue
                imported[alias.asname or alias.name.split(".")[0]] = line
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used | exported)


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from math import (\n"
        "    comb,\n"
        "    gcd,\n"
        ")\n"
        "import numpy as np\n"
        "__all__ = ['comb']\n"
        "print(np.zeros(1))\n"
    )
    assert unused_imports(source) == [(2, "os"), (6, "gcd")]


def test_no_unused_imports():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for folder in SCANNED
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert not offenders, "unused imports:\n" + "\n".join(offenders)


def numpy_at_import(source: str) -> list[tuple[int, str]]:
    """(line, what) of every import of NumPy, wherever it sits, and of every
    read of an attribute of np that runs when the module is imported: outside
    function and lambda bodies, and outside annotations where the module
    postpones them."""
    tree = ast.parse(source)
    postponed = any(isinstance(node, ast.ImportFrom) and node.module == "__future__"
                    and any(alias.name == "annotations" for alias in node.names) for node in tree.body)
    found = []
    for node in ast.walk(tree):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level else [])
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            found.append((node.lineno, "import numpy"))

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np":
            found.append((node.lineno, f"np.{node.attr}"))
        for field, value in ast.iter_fields(node):
            if (field == "body" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                    or postponed and field in ("annotation", "returns")):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child)

    visit(tree)
    return sorted(found)


def test_numpy_scanner_flags_imports_and_import_time_reads():
    source = (
        "from __future__ import annotations\n"
        "import numpy.linalg\n"
        "from .lazynp import np\n"
        "SHAPE = np.zeros(1).shape\n"
        "def f(a: np.ndarray, k=np.int64) -> np.ndarray:\n"
        "    from numpy import eye\n"
        "    return np.eye(3) + (lambda: np.ones(3))()\n"
        "class C:\n"
        "    dtype = np.float64\n"
        "    field: np.ndarray\n"
    )
    assert numpy_at_import(source) == [
        (2, "import numpy"), (4, "np.zeros"), (5, "np.int64"), (6, "import numpy"), (9, "np.float64")]


def test_only_the_helper_touches_numpy_at_import():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in sorted(PACKAGE.rglob("*.py")) if path != HELPER
        for line, what in numpy_at_import(path.read_text())
    ]
    assert not offenders, "NumPy on the import path:\n" + "\n".join(offenders)


def numpy_modules_after(*argv: str) -> list[str]:
    """The NumPy modules loaded in a fresh process that imported hessllt.cli
    and ran main(argv) to exit code 0."""
    script = ("import sys\n"
              "from hessllt.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, *sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'), file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    code, *modules = proc.stderr.splitlines()[-1].split()
    assert proc.returncode == 0 and code == "0", proc.stderr
    return modules


@pytest.mark.parametrize("argv", [
    ("llt", "--h", "2,3,4,5,6,7,7", "--basis", "e", "--shifted"),
    ("csf", "--h", "2,3,4,4", "--basis", "s"),
    ("verify", "--scope", "identities", "--n", "4"),
], ids=["llt", "csf", "verify-identities"])
def test_symmetric_function_routes_never_load_numpy(argv):
    assert "numpy._core" not in numpy_modules_after(*argv)


def test_the_gkm_route_loads_numpy():
    assert "numpy._core" in numpy_modules_after("verify", "--scope", "gkm", "--h", "2,2")


THREADS = """
import json, sys, threading, types
from hessllt import linalg, multipoly
from hessllt.lazynp import np

deferred = type(np) is not types.ModuleType and "numpy" not in sys.modules
A = [[(7 * i * j + i + 3 * j) % 11 for j in range(40)] for i in range(36)]


def work(i):
    if i % 2:
        return multipoly.monomial_exponents(4, 3 + i % 4).tolist()
    rank, pivots, R = linalg.blocked_rref(A, linalg.SMALL_PRIMES[0])
    return [rank, pivots, R.tolist()]


barrier = threading.Barrier(8, timeout=60)
results, errors = [None] * 8, []


def run(i):
    barrier.wait()
    try:
        results[i] = work(i)
    except Exception as exc:
        errors.append(repr(exc))


sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
import numpy

print(json.dumps({"deferred": deferred, "finished": not any(t.is_alive() for t in threads), "errors": errors,
                  "serial": results == [work(i) for i in range(8)], "plain": type(np) is types.ModuleType,
                  "ndarray": np.ndarray is numpy.ndarray}))
"""


def test_first_numpy_read_from_eight_threads_at_once():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", THREADS], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"deferred": True, "finished": True, "errors": [], "serial": True,
                                       "plain": True, "ndarray": True}
