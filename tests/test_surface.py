"""The package's surface is what its command line uses.

Every module-level function, class or constant of ``src/dfsqc``
(``__init__`` aside), and every public method or property of such a
class, must be referenced by name, bare or as an attribute, from
``src/``; references from demos and tests and the re-exports of
``__init__`` do not count, nor does a function's or method's reference
to itself.  The names kept without such a reference are listed in
``KEPT_WITHOUT_CALLER`` and ``KEPT_WITHOUT_READER`` with the reason, so
a helper or a constant that only demos or tests use cannot land in
``src`` unnoticed.  Every module-level import must be used in its
module, and every import inside a function in that function.  Pulses are
built only in ``gates``: no other module constructs a ``PulseOp`` or calls
a pulse builder, and each reaches its pulses through
``gates.compile_circuit``.  The permanence floor ``MIN_PERMANENCE`` is
read in two functions only.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "dfsqc").glob("*.py")
                 if p.name != "__init__.py")

#: Defs of ``src/dfsqc`` that no code of ``src/`` calls, and why each stays.
KEPT_WITHOUT_CALLER = {
    "gates.sequence_unitary": "the composed unitary of a pulse list, which the "
    "README, demo 02 and the tests of five modules read; moving it would "
    "copy its loop into each",
}
#: Constants of ``src/dfsqc`` that no code of ``src/`` reads, and why each stays.
KEPT_WITHOUT_READER = {
    "noise.CALIBRATED_NOISE": "the calibrated noise model, which demos, tests "
    "and the README name and perfbench/workloads.NOISE spells out",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defs(tree: ast.Module) -> list:
    return [n.name for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))]


def _constants(tree: ast.Module) -> list:
    """Names bound by the module-level assignments of ``tree``."""
    return [n.id for top in tree.body
            if isinstance(top, (ast.Assign, ast.AnnAssign))
            for target in (top.targets if isinstance(top, ast.Assign)
                           else [top.target])
            for n in ast.walk(target) if isinstance(n, ast.Name)]


def _methods(cls: ast.ClassDef) -> list:
    """Functions defined in a class body: its methods and properties."""
    return [n for n in cls.body if isinstance(n, ast.FunctionDef)]


def _load(node: ast.AST):
    """The name a node reads, bare or as an attribute, or ``None``."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _references() -> set:
    """``(file, owner, method, name)`` for every name read in ``MODULES``,
    ``owner`` being the module-level def or class the read sits in, or
    ``None``, and ``method`` the function of the class body it sits in,
    or ``None``."""
    refs = set()
    for path in MODULES:
        for top in _tree(path).body:
            owner = getattr(top, "name", None)
            methods = _methods(top) if isinstance(top, ast.ClassDef) else []
            inside = {id(n): m.name for m in methods for n in ast.walk(m)}
            refs.update((path, owner, inside.get(id(n)), _load(n))
                        for n in ast.walk(top) if _load(n))
    return refs


def test_every_module_level_def_has_a_caller():
    refs = _references()
    uncalled = [f"{path.stem}.{name}" for path in MODULES
                for name in _defs(_tree(path))
                if not any(n == name and (p, o) != (path, name)
                           for p, o, _, n in refs)]
    uncalled += [f"{path.stem}.{cls.name}.{m.name}" for path in MODULES
                 for cls in _tree(path).body if isinstance(cls, ast.ClassDef)
                 for m in _methods(cls) if not m.name.startswith("_")
                 if not any(n == m.name and (p, o, f) != (path, cls.name, m.name)
                            for p, o, f, n in refs)]
    assert sorted(uncalled) == sorted(KEPT_WITHOUT_CALLER)


def test_every_module_level_constant_has_a_reader():
    read = {(p, n) for p, _, _, n in _references()}
    unread = [f"{path.stem}.{name}" for path in MODULES
              for name in _constants(_tree(path)) if (path, name) not in read]
    assert sorted(unread) == sorted(KEPT_WITHOUT_READER)


def test_the_permanence_floor_is_read_in_two_places():
    # a state's weight in dfs_report, a chi's mean weight in _mean_permanence;
    # every other guard goes through one of the two
    readers = {(p.stem, o) for p, o, _, n in _references()
               if n == "MIN_PERMANENCE"}
    assert readers == {("encoding", "dfs_report"),
                       ("tomography", "_mean_permanence")}


#: The pulse builders of ``gates`` and the pulse class, which no other
#: ``src`` module calls.
PULSE_BUILDERS = {"ms_pulse", "z_pulse", "cp_pulse", "compile_cnot", "PulseOp"}


def test_pulses_are_built_only_in_gates():
    calls = [f"{path.stem}: {_load(node.func)}" for path in MODULES
             if path.name != "gates.py" for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and _load(node.func) in PULSE_BUILDERS]
    assert calls == []


def _unused_imports(scope: ast.AST, imports: list) -> list:
    """Names bound by the import statements among ``imports`` that
    ``scope`` never reads."""
    read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
    bound = [a.asname or a.name.split(".")[0] for node in imports
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for a in node.names]
    return [b for b in bound if b not in read]


def test_every_module_level_import_is_used():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        unused += [f"{path.stem}: {b}" for b in _unused_imports(tree, tree.body)]
        # a nested function's imports are checked against it and, since
        # its reads are also its parent's, harmlessly against the parent
        unused += [f"{path.stem}.{fn.name}: {b}" for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for b in _unused_imports(fn, ast.walk(fn))]
    assert sorted(set(unused)) == []
