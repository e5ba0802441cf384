"""curveflow benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload train_rf --seed 0 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it records the environment. Exit code 0 on a result, 2 when
the program's sources are missing, 1 on any other failure. Artifacts and
the trace go to ``.perfbench_work/`` at the repository root.
"""

import os
import sys

# Pin BLAS and OpenMP to one thread before anything imports numpy: the
# thread count changes both the speed and the last digits of the results.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        help="train_rf, train_curveflow or sample_eval")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the smoke test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "curveflow", "__init__.py")):
        print("error: curveflow sources not found under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import curveflow
    if not os.path.abspath(curveflow.__file__).startswith(SRC + os.sep):
        print("error: curveflow imported from %s, not %s"
              % (curveflow.__file__, SRC), file=sys.stderr)
        return 2
    import harness
    result, env = harness.run(ROOT, args.workload, args.seed, args.seconds,
                              args.trace, args.size)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
