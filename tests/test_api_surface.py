"""Dead-API guard: every public name in ``strokepred`` has a caller, and so
does every private top-level function.

A public top-level function or class, or a public method, must be used by
name somewhere in the program (``src/``) or the benchmark (``deskbench/``)
outside the line that defines it.  Tests do not count: an entry point that
only tests call is code the program does not need.  A deliberate tool earns
its place by being called from the CLI or the benchmark.  The same holds for
a private (``_name``) top-level function: a helper left behind when its
callers moved to a replacement is dead code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "strokepred"
USERS = (ROOT / "src", ROOT / "deskbench")


def _definitions():
    """(module file, name, definition line number) per public name and per
    private top-level function."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            defs = [node]
            if isinstance(node, ast.ClassDef):
                defs += [n for n in node.body if isinstance(
                    n, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for d in defs:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) \
                        and not d.name.startswith("_"):
                    yield path, d.name, d.lineno
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                yield path, node.name, node.lineno


def _source_lines():
    """(file, line number, text) of every Python line that can use a name."""
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            for i, line in enumerate(path.read_text().splitlines(), 1):
                yield path, i, line


def test_every_public_name_has_a_caller():
    lines = list(_source_lines())
    unused = []
    for path, name, lineno in _definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for p, i, text in lines
                   if not (p == path and i == lineno)):
            unused.append(f"{path.name}:{lineno} {name}")
    assert unused == [], "names no program path uses: " + ", ".join(unused)
