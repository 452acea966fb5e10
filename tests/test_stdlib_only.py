"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import lmo_kernel


def _imported_modules(path: Path):
    """(line, top-level module) of every import in one source file;
    relative imports name the package itself."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            top = "lmo_kernel" if node.level else node.module.split(".")[0]
            yield node.lineno, top


def test_src_is_stdlib_only():
    sources = sorted(Path(lmo_kernel.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    foreign = [f"{path.name}:{line} {top}" for path in sources
               for line, top in _imported_modules(path)
               if top != "lmo_kernel" and top not in sys.stdlib_module_names]
    assert foreign == []
