"""The package's runtime dependencies are numpy and scipy.linalg only.

Every import in `src/batsnum/*.py` is read with `ast`; standard-library
and package-relative imports are allowed, and any other import must be
one of `ALLOWED`. Test oracles may import more (scipy.optimize, for
one), so only the package sources are checked.
"""

import ast
import pathlib
import sys

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
