"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL" line with the measured
values before asserting, so a full run yields a readable scorecard even
when a criterion fails.
"""

import json
import time

import numpy as np
import pytest

from curveflow import cli
from curveflow.datagen import DatasetSpec, generate_split
from curveflow.losses import robust_curvature_loss
from curveflow.metrics import curvature, schedule_diagnostics
from curveflow.sampling import SolverConfig
from curveflow.schedules import (LinearSchedule, NeuralSchedule, TrigSchedule,
                                 grid_derivatives, pointwise_derivatives)
from curveflow.training import TrainConfig, train
from curveflow.velocity import VelocityField

HALF_PI = np.pi / 2
LAMBDA_GRID = [0.0, 0.001, 0.01, 0.1, 1.0]


def report(n, ok, detail):
    print("\ncriterion %d: %s — %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (n, detail)


def test_criterion_1_linear_schedule_zero_curvature():
    start = time.time()
    lin = LinearSchedule()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        dim = rng.integers(2, 9)
        x0 = rng.standard_normal(dim)
        eps = rng.standard_normal(dim)
        t = rng.random()
        dg = pointwise_derivatives(lin, t)
        worst = max(worst, curvature(dg, x0, eps))
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report(1, ok, "max kappa %.3g over 1000 draws (dims 2-8), %.2fs"
           % (worst, elapsed))


def test_criterion_2_trig_regularizer_oracle():
    start = time.time()
    dg = grid_derivatives(TrigSchedule())
    det = dg.da * dg.ddb - dg.db * dg.dda
    det_err = np.max(np.abs(det - HALF_PI ** 3))
    reg = robust_curvature_loss(dg, 1.0)
    exact = HALF_PI ** 6
    rel = abs(reg - exact) / exact
    elapsed = time.time() - start
    ok = det_err < 1e-3 and rel < 0.01 and elapsed < 1.0
    report(2, ok, "determinant profile max error %.3g vs (pi/2)^3, "
           "regularizer %.4f vs %.4f (%.2f%% off), %.2fs"
           % (det_err, reg, exact, 100 * rel, elapsed))


def test_criterion_3_quarter_circle_curvature():
    start = time.time()
    pair = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    kappa = schedule_diagnostics(TrigSchedule(), 1000, [pair])[1]
    err = np.max(np.abs(kappa - 1.0))
    elapsed = time.time() - start
    ok = err < 1e-3 and elapsed < 1.0
    report(3, ok, "max |kappa - 1| = %.3g across the grid, %.2fs"
           % (err, elapsed))


def test_criterion_4_gradient_correctness():
    start = time.time()
    worst_err = 0.0
    worst_name = None
    for seed in (0, 1, 2):
        err, name = cli.gradcheck(seed=seed)
        if err > worst_err:
            worst_err, worst_name = err, name
    elapsed = time.time() - start
    ok = worst_err < 1e-4 and elapsed < 30.0
    report(4, ok, "max relative error %.3g (worst parameter %s), %.1fs"
           % (worst_err, worst_name, elapsed))


def test_criterion_5_rectified_flow_reduction():
    start = time.time()
    zeroed = NeuralSchedule(hidden=64, embed=8, seed=0)
    rng = np.random.default_rng(1)
    exact_target = True
    for _ in range(100):
        x0 = rng.standard_normal(2)
        eps = rng.standard_normal(2)
        dg = pointwise_derivatives(zeroed, rng.random())
        u = dg.da * x0 + dg.db * eps
        exact_target &= bool(np.array_equal(u, eps - x0))

    data, _ = generate_split(DatasetSpec("gaussians8", 200, seed=0))

    def run(schedule):
        cfg = TrainConfig(epochs=2, batch_size=16, lam=0.0, seed=5,
                          train_schedule=False)
        model = VelocityField(2, seed=2)
        return train(cfg, data, schedule, model)

    ref = run(LinearSchedule())
    red = run(NeuralSchedule(hidden=64, embed=8, seed=0))
    same_history = [r.fm_loss for r in ref.history] == \
        [r.fm_loss for r in red.history]
    same_params = all(np.array_equal(ref.params[n], red.params[n])
                      for n in ref.params)
    elapsed = time.time() - start
    ok = exact_target and same_history and same_params and elapsed < 60.0
    report(5, ok, "target u = eps - x0 exact: %s; bitwise training match: "
           "history %s, params %s; %.1fs"
           % (exact_target, same_history, same_params, elapsed))


def test_criterion_6_solver_orders():
    start = time.time()
    z0 = np.array([1.0])
    exact = np.exp(-1.0)
    steps = np.array([8, 16, 32, 64, 128])
    slopes = {}
    for method in ("euler", "heun"):
        errs = [abs(float(sample[0]) - exact)
                for sample in (cli_integrate(method, int(n), z0) for n in steps)]
        slope, _ = np.polyfit(np.log(steps), np.log(errs), 1)
        slopes[method] = -slope
    elapsed = time.time() - start
    ok = (abs(slopes["euler"] - 1.0) < 0.2
          and abs(slopes["heun"] - 2.0) < 0.2 and elapsed < 10.0)
    report(6, ok, "measured orders euler %.3f (want 1.0±0.2), heun %.3f "
           "(want 2.0±0.2), %.1fs" % (slopes["euler"], slopes["heun"], elapsed))


def cli_integrate(method, steps, z0):
    from curveflow.sampling import integrate
    return integrate(lambda z, t: z, z0, SolverConfig(method, steps))


@pytest.fixture(scope="session")
def lambda_ablation():
    """Five seed-fixed runs over the lambda grid: 2000 points, 2000 steps."""
    data, _ = generate_split(DatasetSpec("gaussians8", 2000, seed=0))
    integrals = {}
    start = time.time()
    for lam in LAMBDA_GRID:
        cfg = TrainConfig(epochs=16, batch_size=16, base_lr=1e-3, lam=lam,
                          seed=0, train_schedule=True)
        schedule = NeuralSchedule(hidden=64, embed=8, seed=0)
        model = VelocityField(2, seed=0)
        train(cfg, data, schedule, model)
        integrals[lam] = robust_curvature_loss(grid_derivatives(schedule),
                                               1.0)
    return integrals, time.time() - start


def test_criterion_7_regularization_effect(lambda_ablation):
    integrals, elapsed = lambda_ablation
    vals = [integrals[lam] for lam in LAMBDA_GRID]
    ratio = integrals[1.0] / integrals[0.0]
    inversions = sum(1 for a, b in zip(vals, vals[1:]) if b > a)
    ok = ratio < 0.10 and inversions <= 1 and elapsed < 900.0
    report(7, ok, "determinant integrals %s; lambda=1 is %.2f%% of lambda=0; "
           "%d inversion(s); %.0fs total"
           % (["%.4g" % v for v in vals], 100 * ratio, inversions, elapsed))


def test_criterion_8_generative_quality_floor(tmp_path):
    start = time.time()
    doc = {
        "data": {"kind": "gaussians8", "count": 2000, "seed": 0,
                 "noise_std": 0.1},
        "schedule": {"kind": "neural", "hidden": 64, "embed": 8, "seed": 0},
        "model": {"hidden": 128, "time_features": 16, "seed": 0},
        "train": {"epochs": 120, "batch_size": 40, "base_lr": 0.004,
                  "warmup_steps": 100, "lam": 0.001, "grid_m": 1000,
                  "seed": 0},
        "solver": {"method": "heun", "steps": 100},
        "metrics": {"projections": 64, "eval_count": 2000, "seed": 0},
        "lambda_grid": [0.001],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
    rows = {}
    for line in (tmp_path / "results.csv").read_text().splitlines()[1:]:
        fields = line.split(",")
        rows[fields[0]] = (float(fields[2]), float(fields[3]))
    assert "rf_uniform" in rows  # identical-budget baseline recorded
    ed, sw = rows["curveflow_lam_0.001"]
    rf_ed, rf_sw = rows["rf_uniform"]
    # the budget is only fair if the rectified-flow baseline meets the floors
    rf_ok = rf_ed < 0.1 and rf_sw < 0.15
    elapsed = time.time() - start
    ok = rf_ok and ed < 0.1 and sw < 0.15 and elapsed < 600.0
    report(8, ok, "curveflow lambda=0.001: energy distance %.4f (< 0.1: %s), "
           "sliced Wasserstein %.4f (< 0.15: %s); rf_uniform baseline "
           "ED %.4f / SW %.4f (meets both floors: %s); %.0fs"
           % (ed, ed < 0.1, sw, sw < 0.15, rf_ed, rf_sw, rf_ok, elapsed))


def test_criterion_9_determinism(tmp_path):
    doc = {
        "data": {"kind": "gaussians8", "count": 64, "seed": 0,
                 "noise_std": 0.1},
        "schedule": {"kind": "neural", "hidden": 8, "embed": 8, "seed": 0},
        "model": {"hidden": 16, "time_features": 4, "seed": 0},
        "train": {"epochs": 2, "batch_size": 16, "base_lr": 1e-3,
                  "warmup_steps": 5, "lam": 0.01, "grid_m": 16, "seed": 0},
        "solver": {"method": "heun", "steps": 8},
        "metrics": {"projections": 8, "eval_count": 64, "seed": 0},
        "lambda_grid": [0.0, 0.01],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))

    artifacts = {}
    for tag in ("a", "b"):
        out = tmp_path / ("train_" + tag)
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        artifacts.setdefault("history.csv", []).append(
            (out / "history.csv").read_bytes())
        ckpt = str(out / "checkpoint.json")
        sout = tmp_path / ("sample_" + tag)
        assert cli.main(["sample", "--checkpoint", ckpt, "--count", "32",
                         "--seed", "1", "--out", str(sout)]) == 0
        artifacts.setdefault("samples.csv", []).append(
            (sout / "samples.csv").read_bytes())
        aout = tmp_path / ("analyze_" + tag)
        assert cli.main(["analyze", "--checkpoint", ckpt,
                         "--out", str(aout)]) == 0
        artifacts.setdefault("curvature_profile.csv", []).append(
            (aout / "curvature_profile.csv").read_bytes())
        cout = tmp_path / ("compare_" + tag)
        assert cli.main(["compare", "--config", str(cfg_path),
                         "--out", str(cout)]) == 0
        artifacts.setdefault("results.csv", []).append(
            (cout / "results.csv").read_bytes())

    mismatched = [name for name, (x, y) in artifacts.items() if x != y]
    ok = not mismatched
    report(9, ok, "byte-identical reruns for %s%s"
           % (", ".join(sorted(artifacts)),
              "" if ok else "; MISMATCH in " + ", ".join(mismatched)))


def test_criterion_10_boundary_conditions():
    rng = np.random.default_rng(0)
    schedule = NeuralSchedule(hidden=16, embed=8, seed=0)
    exact = True
    from curveflow.engine import ParameterSet
    for _ in range(1000):
        schedule.params = ParameterSet(
            {n: rng.normal(scale=2.0, size=a.shape)
             for n, a in schedule.params.items()})
        exact &= (schedule.a(0.0) == 1.0 and schedule.b(0.0) == 0.0
                  and schedule.a(1.0) == 0.0 and schedule.b(1.0) == 1.0)
    report(10, exact, "a(0)=1, b(0)=0, a(1)=0, b(1)=1 to machine equality "
           "over 1000 random parameter draws")
