"""No top-level function or class in src/hessllt, and no method of such a
class other than a dunder, is dead code.

A definition is alive when something other than its own body names it:
another definition or statement of src/hessllt, a demo, code in the README
(an inline code span or a fenced block; its prose does not count, so a word
like "leading" rescues nothing), or an entry of hessllt.__all__.  A method counts as named by any
attribute of that name, whatever object it is read from.  Tests do not
count; an oracle that only the tests call belongs in tests/oracles.py.

Blind spot: methods are matched by name alone, so a dead method stays
hidden while a method or attribute of the same name on another class is
read (a dead UnitIntervalGraph.to_json_obj was hidden by
SymFunc.to_json_obj, and a GkmSpace.basis read only by the tests by the
SymFunc.basis attribute).  Such a method has to be found by reading.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hessllt"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def names_read(node: ast.AST) -> set[str]:
    """Every name the node reads, as a bare name or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def definitions_and_outside_reads(source: str) -> tuple[list[tuple[int, str]], set[str]]:
    """(line, name) of every top-level def or class and of every non-dunder
    method of a top-level class, and the names read anywhere except inside
    the definition of that same name.  Names listed in __all__ count as read."""
    tree = ast.parse(source)
    defs = []
    reads: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs.append((node.lineno, node.name))
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, FUNCTIONS) and not is_dunder(sub.name):
                    defs.append((sub.lineno, sub.name))
                    reads |= names_read(sub) - {sub.name, node.name}
                else:
                    reads |= names_read(sub) - {node.name}
        elif isinstance(node, FUNCTIONS):
            defs.append((node.lineno, node.name))
            reads |= names_read(node) - {node.name}
        else:
            reads |= names_read(node)
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                reads |= set(ast.literal_eval(node.value))
    return defs, reads


def code_words(markdown: str) -> set[str]:
    """The words of the fenced blocks and inline code spans of a markdown text."""
    return set(re.findall(r"\w+", " ".join(re.findall(r"```.*?```|`[^`]*`", markdown, re.DOTALL))))


def dead_definitions(modules: dict[str, str], outside: set[str], text: str) -> list[str]:
    """module:line: name of each definition in modules (name -> source) that
    no module, no name in outside and no word of code in the markdown text
    reads."""
    parsed = {name: definitions_and_outside_reads(src) for name, src in modules.items()}
    read = set(outside).union(*(reads for _, reads in parsed.values()))
    words = code_words(text)
    return [
        f"{module}:{line}: {name}"
        for module, (defs, _) in parsed.items()
        for line, name in defs
        if name not in read and name not in words
    ]


def test_scanner_flags_only_unreferenced_definitions():
    modules = {
        "a": (
            "__all__ = ['exported']\n"
            "def exported(): pass\n"
            "def helper(): return 1\n"
            "def caller(): return helper()\n"
            "def recursive(k): return recursive(k - 1)\n"
            "class Documented: pass\n"
            "def from_demo(): pass\n"
            "class Shape:\n"
            "    def __init__(self): self.called()\n"
            "    def called(self): return Shape()\n"
            "    def __repr__(self): return ''\n"
            "    def recursive_method(self): return self.recursive_method()\n"
            "    def read_in_b(self): pass\n"
        ),
        "b": "from a import Shape, caller\nVALUE = caller(Shape().read_in_b())\ndef orphan(): pass\n",
    }
    dead = dead_definitions(modules, {"from_demo"}, "see `Documented` in the README")
    assert dead == ["a:5: recursive", "a:12: recursive_method", "b:3: orphan"]


def test_readme_prose_rescues_no_definition():
    modules = {"a": "def leading(): pass\ndef spanned(): pass\ndef fenced(): pass\n"}
    text = ("the leading term is kept; call `spanned(x)` or\n\n"
            "```python\nfenced()\n```\n\nbut not leading")
    assert code_words(text) == {"spanned", "x", "python", "fenced"}
    assert dead_definitions(modules, set(), text) == ["a:1: leading"]


def test_no_dead_definitions():
    modules = {
        path.relative_to(ROOT).as_posix(): path.read_text() for path in sorted(PACKAGE.glob("*.py"))
    }
    demos = set().union(
        *(names_read(ast.parse(p.read_text())) for p in sorted((ROOT / "demos").glob("*.py")))
    )
    dead = dead_definitions(modules, demos, (ROOT / "README.md").read_text())
    assert not dead, "definitions nothing reads:\n" + "\n".join(dead)
