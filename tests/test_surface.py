"""The package's surface is what its command line and demos use.

Every module-level function or class of ``src/dfsqc`` (``__init__``
aside) must be referenced by name, bare or as an attribute, from ``src/``
or ``demos/``; references from tests and the re-exports of ``__init__``
do not count, nor does a function's reference to itself.  Every module-level import must be used
in its module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "dfsqc").glob("*.py")
                 if p.name != "__init__.py")
USERS = MODULES + sorted((ROOT / "demos").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defs(tree: ast.Module) -> list:
    return [n.name for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))]


def _loads(node: ast.AST):
    """Names a subtree reads, bare or as an attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _references() -> set:
    """``(file, owner, name)`` for every name read in ``USERS``, ``owner``
    being the module-level def or class the read sits in, or ``None``."""
    refs = set()
    for path in USERS:
        for top in _tree(path).body:
            owner = getattr(top, "name", None)
            refs.update((path, owner, name) for name in _loads(top))
    return refs


def test_every_module_level_def_has_a_caller():
    refs = _references()
    uncalled = [f"{path.stem}.{name}" for path in MODULES
                for name in _defs(_tree(path))
                if not any(n == name and (p, o) != (path, name)
                           for p, o, n in refs)]
    assert uncalled == []


def test_every_module_level_import_is_used():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
                unused += [f"{path.stem}: {b}" for b in bound if b not in read]
    assert unused == []
