"""The package's import graph: which package modules each module imports.

Read from the source with ``ast``; nothing is imported or run.  The
certifier ``verify`` recomputes exact shares and trusts no solver state,
so it imports no removal, bag or solver module; a new edge anywhere, or a
new module, fails here until it is pinned on purpose.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mmsalloc"

IMPORTS = {
    "__init__": {"errors", "generate", "model", "oracle", "solver", "verify"},
    "bags": {"errors", "reduction"},
    "cli": {"errors", "generate", "jsonio", "model", "oracle", "reduction", "solver", "verify"},
    "errors": set(),
    "generate": {"errors", "model"},
    "jsonio": {"errors", "model", "solver"},
    "model": {"errors"},
    "oracle": {"errors", "model"},
    "reduction": {"errors", "model"},
    "solver": {"bags", "errors", "model", "oracle", "reduction"},
    # The certifier trusts no solver state: no reduction, bags or solver.
    "verify": {"errors", "model", "oracle"},
}


def package_imports(path):
    # ``from .x import y``, ``from . import x``, ``import mmsalloc.x`` and
    # ``from mmsalloc.x import y`` all name x.
    got = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module == "mmsalloc":
                got.update([module] if module and node.level else [a.name for a in node.names])
            elif module.startswith("mmsalloc."):
                got.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            got.update(a.name.split(".")[1] for a in node.names if a.name.startswith("mmsalloc."))
    return {name.split(".")[0] for name in got}


def test_each_module_imports_only_its_pinned_package_modules():
    found = {path.stem: package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert found == IMPORTS

