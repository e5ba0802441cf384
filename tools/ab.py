"""Paired A/B runs of the benchmark on two curveflow checkouts.

    python3 tools/ab.py BASE NEW --workload W --pairs N [--seconds S] [--size tiny]

BASE and NEW are the roots of two checkouts. Each run is one
``perfbench/run.py --trace 0`` of that tree, for BENCHMARK.json's
``run_seconds`` unless ``--seconds`` is given. Pair i runs at seed i, BASE
first on even i and NEW first on odd i, so drift of the machine falls on
both sides alike. BENCHMARK.json is read from the checkout this file is
in; a run's result line is the last line of its standard output.

For each end-to-end metric one line gives each side's median and
quartiles, the pairs NEW wins by the metric's ``better`` direction (ties
count for neither side), the median of the per-pair ratios r = NEW/BASE
and the largest |r - 1| (which shows how far a deterministic metric
moved), and the exact two-sided sign-test p-value of the wins. The exit
status is 1 if a run fails, prints no result or reports ``correct: false``.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(q1, median, q3), interpolating linearly between order statistics."""
    xs = sorted(values)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)


def sign_test(wins, losses):
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def run_once(tree, workload, seed, seconds, size):
    """One benchmark run of ``tree``; its {metric: value}. Exits on failure."""
    argv = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--size", size]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tree)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        values = {name: m["value"] for name, m in result["metrics"].items()}
        correct = result["correct"] is True
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        correct = False
    if proc.returncode != 0 or not correct:
        sys.exit("error: %s seed %d: exit %d, last line %r\n%s" % (
            tree, seed, proc.returncode, lines[-1] if lines else "",
            proc.stderr[-2000:]))
    return values


def summarize(spec, base_runs, new_runs):
    """One line per end-to-end metric: medians, quartiles, wins, ratio, p."""
    lines = []
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        base = [r[name] for r in base_runs]
        new = [r[name] for r in new_runs]
        wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
        losses = sum(sign * (n - b) < 0 for b, n in zip(base, new))
        ratios = [n / b for b, n in zip(base, new) if b != 0]
        ratio = ("%.4f (max |r-1| %.2g)" % (
            quartiles(ratios)[1], max(abs(r - 1.0) for r in ratios))
            if ratios else "n/a")
        bq1, bmed, bq3 = quartiles(base)
        nq1, nmed, nq3 = quartiles(new)
        lines.append(
            "%-20s %-9s base %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  "
            "new better %d/%d (worse %d)  ratio %s  sign p %.3g" % (
                name, metric["unit"], bmed, bq1, bq3, nmed, nq1, nq3, wins,
                len(base), losses, ratio, sign_test(wins, losses)))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tools/ab.py")
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    trees = {"base": os.path.abspath(args.base),
             "new": os.path.abspath(args.new)}
    runs = {"base": [], "new": []}
    for seed in range(args.pairs):
        order = ("base", "new") if seed % 2 == 0 else ("new", "base")
        for side in order:
            runs[side].append(run_once(trees[side], args.workload, seed,
                                       seconds, args.size))
        print("pair %d done (%s first)" % (seed, order[0]), file=sys.stderr)
    print("workload %s, %d pairs of %g s runs, seeds 0-%d; base %s, new %s"
          % (args.workload, args.pairs, seconds, args.pairs - 1,
             trees["base"], trees["new"]))
    print("\n".join(summarize(spec, runs["base"], runs["new"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
