"""tools/ab.py: its statistics, and one tiny pair of runs on two copies of
this tree."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def copy_tree(dest, with_src=True):
    for name in ("perfbench", "src") if with_src else ("perfbench",):
        shutil.copytree(os.path.join(ROOT, name), dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    return str(dest)


def test_quartiles_and_sign_test():
    ab = load_tool()
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert ab.sign_test(0, 0) == 1.0
    assert ab.sign_test(10, 0) == pytest.approx(2.0 / 1024)
    assert ab.sign_test(9, 1) == ab.sign_test(1, 9) == pytest.approx(22 / 1024)
    assert ab.sign_test(5, 5) == 1.0


def test_one_tiny_pair(tmp_path):
    base = copy_tree(tmp_path / "base")
    new = copy_tree(tmp_path / "new")
    proc = subprocess.run(
        [sys.executable, TOOL, base, new, "--workload", "train_rf",
         "--pairs", "1", "--seconds", "1", "--size", "tiny"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    body = proc.stdout.splitlines()[1:]
    assert [line.split()[0] for line in body] == names
    # one pair at seed 0: the deterministic quality guards tie
    for line in body[4:]:
        assert "new better 0/1 (worse 0)" in line
        assert "ratio 1.0000 (max |r-1| 0)" in line


def test_a_failed_run_exits_nonzero(tmp_path):
    proc = subprocess.run(
        [sys.executable, TOOL, copy_tree(tmp_path / "base"),
         copy_tree(tmp_path / "new", with_src=False), "--workload",
         "train_rf", "--pairs", "1", "--seconds", "1", "--size", "tiny"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert "exit 2" in proc.stderr
    assert proc.stdout == ""
