"""Every name imported in src/, tests/, demos/ and tools/ is read in its own
file, and src/ imports only the standard library, numpy and itself.

A stdlib ``ast`` scan. The unused-import check skips ``__init__.py`` files:
their imports are the package's re-exports.
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sources():
    for top in ("src", "tests", "demos", "tools"):
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py") and name != "__init__.py":
                    yield os.path.join(folder, name)


def unused_imports(source):
    """Names an import in ``source`` binds that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os.path\nimport sys as s\n"
                          "from a import b, c\nprint(s, c)\n") == ["b", "os"]


def test_no_unused_imports():
    found = {}
    for path in sources():
        with open(path) as fh:
            names = unused_imports(fh.read())
        if names:
            found[os.path.relpath(path, ROOT)] = names
    assert found == {}


def absolute_imports(source):
    """Top-level names of the modules that ``source`` imports absolutely,
    at any depth (an import inside a function counts)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_scan_finds_every_absolute_import():
    assert absolute_imports(
        "import os.path\nfrom . import x\nfrom .a.b import c\n"
        "from numpy.linalg import norm\n"
        "def f():\n    from scipy.spatial import distance\n") == {
            "os", "numpy", "scipy"}


def test_src_depends_on_the_stdlib_and_numpy_alone():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = {}
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    extra = absolute_imports(fh.read()) - allowed
                if extra:
                    found[os.path.relpath(path, ROOT)] = sorted(extra)
    assert found == {}
