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

The same holds for settings: every defaulted parameter of a top-level
function or method must be set, by keyword or by position, by some call in
the program or the benchmark.  A default that no caller overrides is a
constant, and a knob only tests turn is a test hook.  Calls are matched by
name as above; a class's ``__init__`` by calls to the class name; and a
call that spreads ``*args`` or ``**kwargs`` counts as setting every
parameter.

And every parameter of a function or method, nested ones included, must
be read in its body: one left behind when its use moved elsewhere is an
argument every caller still passes for nothing.  ``self``, ``cls`` and
``_``-prefixed names are exempt, and lambdas are not scanned.

Likewise every field of a dataclass must be read by the program or the
benchmark, as an attribute or by its name as a string: a field only
written is state no one consults.
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


def _user_trees():
    """The parsed program and benchmark modules, tests excluded."""
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            if "tests" not in path.relative_to(root).parts:
                yield ast.parse(path.read_text(), filename=str(path))


def _identifiers() -> set[str]:
    """Every name, attribute and keyword-argument identifier in the program
    and the benchmark, tests excluded."""
    used = set()
    for tree in _user_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                used.add(node.arg)
    return used


def _defaulted_parameters():
    """(module file, callee name, parameter, positional index or None, line
    number) per defaulted parameter of every top-level function and method;
    a method's index skips ``self`` or ``cls``, and an ``__init__`` is
    called by its class name."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, functions):
                funcs = [(node, node.name, 0)]
            elif isinstance(node, ast.ClassDef):
                funcs = [(f, node.name if f.name == "__init__" else f.name,
                          0 if any(isinstance(d, ast.Name)
                                   and d.id == "staticmethod"
                                   for d in f.decorator_list) else 1)
                         for f in node.body if isinstance(f, functions)]
            else:
                continue
            for f, callee, skip in funcs:
                a = f.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    yield path, callee, arg.arg, i - skip, f.lineno
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield path, callee, arg.arg, None, f.lineno


def _settings() -> dict[str, tuple[int, set]]:
    """Per called name, over every call in the program and the benchmark:
    the most positional arguments any call passes, and every keyword any
    call sets, with None for a call that spreads ``*args`` or ``**kwargs``
    and so sets everything."""
    out: dict[str, tuple[int, set]] = {}
    for tree in _user_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            n_pos, keywords = out.get(name, (0, set()))
            keywords = keywords | {k.arg for k in node.keywords}
            if any(isinstance(a, ast.Starred) for a in node.args):
                keywords.add(None)
            out[name] = (max(n_pos, len(node.args)), keywords)
    return out


def test_every_public_name_has_a_caller():
    used = _identifiers()
    unused = [f"{path.name}:{lineno} {name}"
              for path, name, lineno in _definitions() if name not in used]
    assert unused == [], "names no program path uses: " + ", ".join(unused)


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    settings = _settings()
    unset = []
    for path, callee, param, index, lineno in _defaulted_parameters():
        n_pos, keywords = settings.get(callee, (0, set()))
        if None in keywords or param in keywords or (
                index is not None and index < n_pos):
            continue
        unset.append(f"{path.name}:{lineno} {callee}({param})")
    assert unset == [], ("defaulted parameters no program call sets: "
                         + ", ".join(unset))


def _unread_parameters():
    """(module file, function name, parameter, line number) per parameter
    that its function's body never reads."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for f in ast.walk(tree):
            if not isinstance(f, functions):
                continue
            a = f.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in f.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for p in params:
                if p not in ("self", "cls") and not p.startswith("_") \
                        and p not in read:
                    yield path, f.name, p, f.lineno


def test_every_parameter_is_read():
    unread = [f"{path.name}:{lineno} {name}({param})"
              for path, name, param, lineno in _unread_parameters()]
    assert unread == [], "parameters their function never reads: " + \
        ", ".join(unread)


# Fields set but read nowhere yet, each for a stated reason; each is
# asserted still unread, so the list can only shrink.
UNREAD_FIELDS = {
    # the partition group, which waits for ROADMAP direction 15
    ("SubjectRecord", "group"),
    # the benchmark's selection check builds a ranking with it
    # (deskbench/tests/test_checks.py::test_selection_check)
    ("RoiRanking", "n_explanations"),
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if getattr(d, "id", getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _dataclass_fields():
    """(module file, class name, field name, line number) per annotated
    field of every dataclass in ``src/``."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name):
                    yield path, node.name, stmt.target.id, stmt.lineno


def _field_reads() -> set[str]:
    """Every attribute read, and every string constant, in the program and
    the benchmark, tests excluded: a field is read by attribute, or by its
    name as a string (``getattr``, a JSON key, a column list)."""
    read = set()
    for tree in _user_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                read.add(node.value)
    return read


def test_every_dataclass_field_is_read():
    read = _field_reads()
    unread = {(cls, name): f"{path.name}:{lineno} {cls}.{name}"
              for path, cls, name, lineno in _dataclass_fields()
              if name not in read}
    assert [unread[k] for k in sorted(set(unread) - UNREAD_FIELDS)] == [], \
        "dataclass fields nothing in the program or the benchmark reads"
    assert sorted(UNREAD_FIELDS - set(unread)) == [], \
        "read now, so drop them from UNREAD_FIELDS"
