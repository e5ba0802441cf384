"""Every name imported in src/, tests/, demos/ and tools/ is read in its own
file.

A stdlib ``ast`` scan. ``__init__.py`` files are skipped: their imports are
the package's re-exports.
"""

import ast
import os

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
