"""Dead-API guard: every public name in ``strokepred`` has a caller, and so
does every private top-level function.

A public top-level function or class, or a public method, must be used by
name somewhere in the program (``src/``) or the benchmark (``deskbench/``).
A use is an identifier in the code: a bare name, an attribute, or a keyword
argument.  Prose does not count, so a docstring, a comment or an error
message that mentions a name keeps nothing alive; nor does an import, which
only binds the name.  Tests do not count either: an entry point that only
tests call is code the program does not need.  A deliberate tool earns its
place by being called from the CLI or the benchmark.  The same holds for a
private (``_name``) top-level function: a helper left behind when its
callers moved to a replacement is dead code.

Uses are matched by name alone, not by the type they are called on, so
same-named methods on different classes shadow each other: one caller of
``RunConfig.to_json_dict`` keeps every ``to_json_dict`` alive.
"""

import ast
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


def _identifiers() -> set[str]:
    """Every name, attribute and keyword-argument identifier in the program
    and the benchmark, tests excluded."""
    used = set()
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text(),
                                           filename=str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.keyword) and node.arg is not None:
                    used.add(node.arg)
    return used


def test_every_public_name_has_a_caller():
    used = _identifiers()
    unused = [f"{path.name}:{lineno} {name}"
              for path, name, lineno in _definitions() if name not in used]
    assert unused == [], "names no program path uses: " + ", ".join(unused)
