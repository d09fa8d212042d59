"""No module imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/hessllt", "tests", "demos")


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
