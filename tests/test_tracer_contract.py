"""The benchmark tracer wraps curveflow names; renaming one must fail here.

The tracer only runs under ``perfbench/run.py --trace 1``, so without this
test a renamed function under ``src/`` would surface only in a traced
benchmark run.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

from tracer import Tracer  # noqa: E402


def test_tracer_installs_on_the_current_names():
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
