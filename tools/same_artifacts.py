"""Check that two curveflow checkouts write the same artifacts, byte for byte.

    python3 tools/same_artifacts.py BASE NEW

BASE and NEW are the roots of two checkouts. For each, one fixed command
set runs in fresh interpreters with ``PYTHONPATH=<tree>/src`` and
``OPENBLAS_NUM_THREADS=1``, at seed 0: ``train`` on a small neural config
with a two-value ``lambda_grid``, ``sample`` of 2000 points (two row blocks,
so on a machine with spare cores they run on threads), ``analyze
--checkpoint``, ``analyze --schedule`` for each of the four kinds,
``compare``, ``gradcheck``, and a 1-epoch ``train`` on 64 points of each
other dataset kind. Every file the commands write is compared, except the
timestamped ``run_manifest.json``, and so is each command's stdout. One
line per artifact reads ``identical`` or ``DIFFER``; a differing CSV with
one header and shape on both sides also gets the largest absolute
difference between its numbers. The first line names the BLAS kernel each
side's ``train`` recorded in its manifest, since the bytes hold for one
kernel. The exit status is 1 if any artifact differs or is missing on one
side, 0 if all are identical, and nonzero with the command's stderr if a
command fails.
"""

import json
import os
import subprocess
import sys
import tempfile

CONFIG = {
    "data": {"kind": "gaussians8", "count": 256, "seed": 0, "noise_std": 0.1},
    "schedule": {"kind": "neural", "hidden": 16, "embed": 8, "seed": 0},
    "model": {"hidden": 32, "time_features": 8, "seed": 0},
    "train": {"epochs": 2, "batch_size": 32, "base_lr": 2e-3,
              "warmup_steps": 4, "lam": 1e-3, "grid_m": 64, "seed": 0},
    "solver": {"method": "heun", "steps": 20},
    "metrics": {"projections": 16, "eval_count": 256, "seed": 0},
    "lambda_grid": [0.0, 1e-3],
}
OTHER_KINDS = ("two_moons", "checkerboard", "spiral")
# config file name -> document; the runs write each into their directory
CONFIGS = {"config.json": CONFIG, **{
    "config_%s.json" % kind: {
        **CONFIG, "data": {**CONFIG["data"], "kind": kind, "count": 64},
        "train": {**CONFIG["train"], "epochs": 1}}
    for kind in OTHER_KINDS}}

# (name, argv after ``curveflow``); paths are relative to the run directory
COMMANDS = [
    ("train", ["train", "--config", "config.json", "--out", "train",
               "--seed", "0"]),
    ("sample", ["sample", "--checkpoint", "train/checkpoint.json",
                "--count", "2000", "--seed", "0", "--out", "sample"]),
    ("analyze_checkpoint", ["analyze", "--checkpoint", "train/checkpoint.json",
                            "--out", "analyze_checkpoint"]),
] + [("analyze_" + kind, ["analyze", "--schedule", kind,
                          "--out", "analyze_" + kind])
     for kind in ("linear", "trigonometric", "polynomial", "neural")] + [
    ("compare", ["compare", "--config", "config.json", "--out", "compare",
                 "--seed", "0"]),
    ("gradcheck", ["gradcheck", "--seed", "0"]),
] + [("train_" + kind, ["train", "--config", "config_%s.json" % kind,
                        "--out", "train_" + kind, "--seed", "0"])
     for kind in OTHER_KINDS]

SKIPPED = {"run_manifest.json", *CONFIGS}


def run_tree(tree, rundir):
    """Run every command on ``tree`` in ``rundir``; {artifact: bytes}."""
    src = os.path.join(os.path.abspath(tree), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    found = subprocess.run(
        [sys.executable, "-c", "import curveflow; print(curveflow.__file__)"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not found.startswith(src + os.sep):
        sys.exit("error: %s imports curveflow from %s" % (tree, found))
    for filename, doc in CONFIGS.items():
        with open(os.path.join(rundir, filename), "w") as fh:
            json.dump(doc, fh)
    artifacts = {}
    for name, argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "curveflow.cli", *argv],
                              cwd=rundir, env=env, capture_output=True)
        if proc.returncode:
            sys.exit("error: %s: %s exited %d\n%s" % (
                tree, name, proc.returncode, proc.stderr.decode()))
        artifacts["%s stdout" % name] = proc.stdout
    for dirpath, _, filenames in os.walk(rundir):
        for filename in filenames:
            if filename not in SKIPPED:
                path = os.path.join(dirpath, filename)
                with open(path, "rb") as fh:
                    artifacts[os.path.relpath(path, rundir)] = fh.read()
    with open(os.path.join(rundir, "train", "run_manifest.json")) as fh:
        kernel = json.load(fh).get("blas_kernel", "not recorded")
    return artifacts, kernel


def max_difference(base, new):
    """The largest |x - y| over the cells of two CSVs, or None when their
    headers or shapes differ, or a cell that is not a number differs."""
    rows = [[line.split(",") for line in side.decode().splitlines()]
            for side in (base, new)]
    if (rows[0][:1] != rows[1][:1]
            or list(map(len, rows[0])) != list(map(len, rows[1]))):
        return None
    worst = 0.0
    for row_a, row_b in zip(rows[0][1:], rows[1][1:]):
        for x, y in zip(row_a, row_b):
            if x != y:
                try:
                    diff = abs(float(x) - float(y))
                except ValueError:
                    return None
                if diff != diff:  # NaN on one side only
                    return None
                worst = max(worst, diff)
    return worst


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for side, tree in zip(("base", "new"), argv):
            os.mkdir(os.path.join(tmp, side))
            sides.append(run_tree(tree, os.path.join(tmp, side)))
    (base, base_kernel), (new, new_kernel) = sides
    print("BLAS kernel: base %s, new %s" % (base_kernel, new_kernel))
    same = True
    for name in sorted(base.keys() | new.keys()):
        ok = name in base and base[name] == new.get(name)
        same = same and ok
        diff = (max_difference(base[name], new[name])
                if not ok and name in base and name in new
                and name.endswith(".csv") else None)
        print("%-9s %s%s" % ("identical" if ok else "DIFFER", name,
                             "" if diff is None else
                             " (max abs difference %.3g)" % diff))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
