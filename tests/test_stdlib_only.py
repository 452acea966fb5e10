"""The package imports nothing outside the standard library and itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import lmo_kernel
from lmo_kernel import pipeline


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


def _unused_imports(path: Path):
    """(line, name) of every name that one source file imports and never
    reads.  Exempt: ``from __future__``, an import statement whose first
    line is marked ``# noqa: F401``, and in ``__init__`` the names of
    ``__all__``."""
    text = path.read_text()
    tree = ast.parse(text, str(path))
    lines = text.splitlines()
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign) and path.name == "__init__.py"
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_src_imports_are_used():
    sources = sorted(Path(lmo_kernel.__file__).parent.glob("*.py"))
    unused = [f"{path.name}:{line} {name}" for path in sources
              for line, name in _unused_imports(path)]
    assert unused == []


def _unread_parameters(path: Path):
    """(line, function, parameter) of every parameter that a function or
    lambda of one source file never reads, nested functions counted as
    reads.  Exempt: dunder methods, whose signatures Python fixes."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in params:
            if p.arg not in read:
                yield node.lineno, name, p.arg


def test_src_parameters_are_read():
    """Every parameter is read, except by the suite checks of
    ``pipeline._SUITES``, which share one signature."""
    suites = {check.__name__ for check in pipeline._SUITES.values()}
    sources = sorted(Path(lmo_kernel.__file__).parent.glob("*.py"))
    unread = [f"{path.name}:{line} {name}({param})" for path in sources
              for line, name, param in _unread_parameters(path)
              if name not in suites]
    assert unread == []


def test_cli_import_loads_no_code_generator():
    """A fresh interpreter, without ``site``, imports the command line
    without ``dataclasses`` or ``inspect``: the records are plain
    classes, and a cold start builds no methods."""
    src = Path(lmo_kernel.__file__).resolve().parent.parent
    probe = ("import sys, lmo_kernel.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"
