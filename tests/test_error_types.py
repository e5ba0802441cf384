"""Every exception class defined in src/curveflow/ is named by some
``except`` clause in src/: a type that no handler tells apart from its base
is one more name for the base.

A stdlib ``ast`` scan.
"""

import ast
import builtins
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "curveflow")


def _is_builtin_exception(name):
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


def uncaught_exception_types(sources):
    """Exception classes defined in ``sources`` that no handler names."""
    trees = [ast.parse(source) for source in sources]
    classes = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
               for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    defined = set()
    while True:  # a subclass of a defined exception is one too
        found = {name for name, bases in classes.items()
                 if any(_is_builtin_exception(b) or b in defined
                        for b in bases)}
        if found == defined:
            break
        defined = found
    caught = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for name in ast.walk(node.type):
                    if isinstance(name, ast.Name):
                        caught.add(name.id)
                    elif isinstance(name, ast.Attribute):
                        caught.add(name.attr)
    return sorted(defined - caught)


def test_scan_finds_an_uncaught_type():
    source = ("class A(ValueError): pass\nclass B(A): pass\n"
              "class C(A): pass\nclass D(dict): pass\n"
              "try:\n    f()\nexcept (A, errors.C):\n    pass\n")
    assert uncaught_exception_types([source]) == ["B"]


def test_every_exception_type_is_caught():
    sources = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                sources.append(fh.read())
    assert uncaught_exception_types(sources) == []
