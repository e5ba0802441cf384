"""Only the owners spell parameter names.

``velocity.py`` names the velocity field's parameters (``v/``) and
``schedules.py`` the neural schedule's (``a/``, ``b/``); every other module
under ``src/curveflow/`` reaches them through those two. A stdlib ``ast``
scan, in the style of ``test_imports.py``.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "curveflow")
OWNERS = ("velocity.py", "schedules.py")
PREFIXES = ("v/", "a/", "b/")


def spelled_names(source):
    """String constants in ``source`` that start with a parameter prefix."""
    return sorted(node.value for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.startswith(PREFIXES))


def test_scan_finds_a_spelled_name():
    assert spelled_names('x = p.get("v/b3")\ny = "%s/w%d" % ("a", 0)\n'
                         'z = "b/"\n"""v/ in a docstring"""\n') \
        == ["b/", "v/ in a docstring", "v/b3"]


def test_only_owners_spell_parameter_names():
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name not in OWNERS:
            with open(os.path.join(PACKAGE, name)) as fh:
                names = spelled_names(fh.read())
            if names:
                found[name] = names
    assert found == {}
