"""The package imports only numpy and scipy.linalg, ships no name that
only tests read, and has no setting that only its default uses.

Every import in `src/batsnum/*.py` is read with `ast`; standard-library
and package-relative imports are allowed, and any other import must be
one of `ALLOWED`. Test oracles may import more (scipy.optimize, for
one), so only the package sources are checked. Every `def` and `class`
there must be named somewhere in the package, the scripts or the
benchmark, every other dataclass field must be read there, and every
`SolverConfig` field must be set by a script, the benchmark or README's
scenario example.
"""

import ast
import dataclasses
import json
import pathlib
import sys

from batsnum.solvers import SolverConfig

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "batsnum"
ALLOWED = {"numpy", "scipy.linalg"}


def third_party_imports(path):
    """Dotted names of the non-stdlib, non-relative imports in `path`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # `from scipy import linalg` imports the submodule scipy.linalg
            names = ([f"{node.module}.{alias.name}" for alias in node.names]
                     if node.module == "scipy" else [node.module])
        else:
            continue
        found |= {n for n in names
                  if n.split(".")[0] not in sys.stdlib_module_names}
    return found


def test_sources_import_only_numpy_and_scipy_linalg():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    extra = {f"{p.name}: {name}" for p in sources
             for name in third_party_imports(p) - ALLOWED}
    assert not extra, sorted(extra)


ROOT = SRC.parent.parent
READERS = ("src/batsnum", "scripts", "benchmark")


def _uses(tree):
    """(name, line, reaches a method) for every identifier and every string
    constant that names something, bare or dotted as the benchmark tracer
    writes it. Only an attribute or a string can reach a method; a bare
    name spelled the same way is some other variable."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.replace(".", "").replace("_", "").isalnum()):
            yield node.value.rpartition(".")[2], node.lineno, True


def test_every_package_name_has_a_reader():
    """A `def` or `class` in `src/batsnum/` that nothing in the package, the
    scripts or the benchmark names outside its own body is read by tests
    only; it belongs in `tests/oracles.py` or nowhere. Dunder methods are
    called by Python, a module that defines a function of the same name
    reads its own, not the package's, and a method is read only through an
    attribute or a string."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for d in READERS for p in sorted((ROOT / d).glob("*.py"))}
    own = {p: {n.name for n in t.body
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
           for p, t in trees.items()}
    uses = {p: list(_uses(t)) for p, t in trees.items()}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        methods = {id(n) for c in ast.walk(trees[path])
                   if isinstance(c, ast.ClassDef) for n in c.body}
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            read = any(
                used == name and not node.lineno <= line <= node.end_lineno
                and (reaches_method or id(node) not in methods)
                for p, found in uses.items()
                if p == path or name not in own[p]
                for used, line, reaches_method in found)
            if not read:
                unread.append(f"{path.name}:{node.lineno} {name}")
    assert not unread, unread


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    """A dataclass field in `src/batsnum/` that nothing in the package, the
    scripts or the benchmark reads as an attribute is written for the tests
    only. `SolverConfig` fields are settings; the next test governs them."""
    read = {node.attr for d in READERS for p in sorted((ROOT / d).glob("*.py"))
            for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}:{stmt.lineno} {cls.name}.{stmt.target.id}"
              for path in sorted(SRC.glob("*.py"))
              for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              and cls.name != SolverConfig.__name__
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in read]
    assert not unread, unread


def test_every_solver_setting_is_set_somewhere():
    """A `SolverConfig` field that no script or benchmark sets as a dict key
    or keyword, and that README's scenario example does not set, has one
    value in use; it belongs in `solvers` as a constant."""
    set_names = set()
    for d in ("scripts", "benchmark"):
        for path in sorted((ROOT / d).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Dict):
                    set_names |= {k.value for k in node.keys
                                  if isinstance(k, ast.Constant)}
                elif isinstance(node, ast.keyword):
                    set_names.add(node.arg)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Scenario documents")[1].split("```json")[1]
    set_names |= set(json.loads(example.split("```")[0])["solver"])
    unset = [f.name for f in dataclasses.fields(SolverConfig)
             if f.name not in set_names]
    assert not unset, unset
