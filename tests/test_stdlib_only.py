"""The package imports nothing outside the standard library and itself,
reads every name it imports and every parameter, and calls every
module-level function but the few pinned here with a reason."""

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


def _uncalled_functions() -> set[str]:
    """"module.function" of every module-level function that no module
    of the package references, its own body left out (a recursive call
    is no caller).  A reference is a name the module defines or imports
    from a sibling (``from .m import f``), or an attribute of a sibling
    module it imports (``from . import m``, then ``m.f``); the re-exports
    of ``__init__`` are not read."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in
             sorted(Path(lmo_kernel.__file__).parent.glob("*.py"))}
    defined = {(m, node.name) for m, tree in trees.items()
               for node in tree.body if isinstance(node, ast.FunctionDef)}
    referenced = set()
    for m, tree in trees.items():
        if m == "__init__":
            continue
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        names[local] = node.module, alias.name
                    else:
                        modules[local] = alias.name

        def visit(node, inside):
            ref = None
            if isinstance(node, ast.FunctionDef) and inside is None:
                inside = m, node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                ref = ((m, node.id) if (m, node.id) in defined
                       else names.get(node.id))
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in modules:
                ref = modules[node.value.id], node.attr
            if ref is not None and ref != inside:
                referenced.add(ref)
            for child in ast.iter_child_nodes(node):
                visit(child, inside)
        visit(tree, None)
    return {f"{m}.{name}" for m, name in defined - referenced}


#: The functions that nothing in the package calls, each with the reason
#: it stays.  A new function without a caller, or the deletion of one of
#: these, updates this map.
UNCALLED = {
    "balg.strut": "a public constructor",
    "balg.fg_integral": "a tracer target of perfbench/tracer.py",
    "liews.wick": "a tracer target of perfbench/tracer.py",
    "liews.gaussian_eval": "a tracer target of perfbench/tracer.py",
    "rootsys.quantum_dim_sq_shifted": "a tracer target of "
                                      "perfbench/tracer.py",
    "rootsys.lattice_sum_to_json": "the expansion-data writer of "
                                   "tools/snapshot.py",
}


def test_every_uncalled_function_is_pinned():
    assert _uncalled_functions() == set(UNCALLED)


def _references(tree: ast.AST, name: str) -> list[int]:
    """The lines of one module that read ``name``: as a name, as an
    attribute, or in an import."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and node.id == name
                   or isinstance(node, ast.Attribute) and node.attr == name
                   or isinstance(node, ast.ImportFrom)
                   and any(a.name == name for a in node.names)})


def test_only_qseries_knows_the_product_cap():
    """The cap a product of series or framing polynomials is known
    through is decided in ``qseries`` alone: every other module
    multiplies and reads the product's cap."""
    sources = sorted(Path(lmo_kernel.__file__).parent.glob("*.py"))
    readers = {path.stem: _references(ast.parse(path.read_text()),
                                      "product_cap") for path in sources}
    assert readers.pop("qseries")
    assert {m: lines for m, lines in readers.items() if lines} == {}


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
