import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import curveflow
from curveflow.datagen import (DatasetSpec, KINDS, export_csv, generate,
                               generate_split, sample_noise)
from curveflow.errors import ConfigError


def test_spec_validation():
    DatasetSpec().validate()
    with pytest.raises(ConfigError):
        DatasetSpec(kind="mnist").validate()
    with pytest.raises(ConfigError):
        DatasetSpec(count=0).validate()
    for noise_std in (-0.1, np.nan, np.inf):
        with pytest.raises(ConfigError):
            DatasetSpec(noise_std=noise_std).validate()


def test_gaussians8_zero_noise_on_ring():
    pts = generate(DatasetSpec("gaussians8", 500, seed=0, noise_std=0.0))
    radii = np.linalg.norm(pts, axis=1)
    assert np.allclose(radii, 4.0, atol=1e-12)
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    snapped = np.round(angles / (np.pi / 4)) * (np.pi / 4)
    assert np.allclose(np.cos(angles), np.cos(snapped), atol=1e-12)
    assert np.allclose(np.sin(angles), np.sin(snapped), atol=1e-12)


def test_gaussians8_component_counts():
    pts = generate(DatasetSpec("gaussians8", 10000, seed=1, noise_std=0.0))
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    comp = np.round(angles / (np.pi / 4)).astype(int) % 8
    counts = np.bincount(comp, minlength=8)
    sigma = np.sqrt(10000 * (1 / 8) * (7 / 8))
    assert np.all(np.abs(counts - 1250) < 4 * sigma)


@pytest.mark.parametrize("kind", KINDS)
def test_noise_scales_one_draw_per_kind(kind):
    # noise_std scales one set of standard normals, drawn after the shape's
    # draws: generate(s) - generate(0) is s (generate(1) - generate(0))
    def points(noise_std):
        return generate(DatasetSpec(kind, 300, seed=4, noise_std=noise_std))
    clean = points(0.0)
    unit = points(1.0) - clean
    assert abs(unit.std() - 1.0) < 0.1
    for s in (0.1, 0.3, 2.5):
        assert np.allclose(points(s) - clean, s * unit, rtol=0, atol=1e-12)


def test_generators_deterministic():
    for kind in KINDS:
        spec = DatasetSpec(kind, 100, seed=3)
        assert np.array_equal(generate(spec), generate(spec))


def test_generators_shape_and_finiteness():
    for kind in KINDS:
        pts = generate(DatasetSpec(kind, 64, seed=0))
        assert pts.shape == (64, 2)
        assert np.all(np.isfinite(pts))


def test_split_disjoint_parity():
    spec = DatasetSpec("gaussians8", 100, seed=2)
    train, held = generate_split(spec)
    assert train.shape == held.shape == (100, 2)
    full = generate(DatasetSpec("gaussians8", 200, seed=2))
    assert np.array_equal(train, full[0::2])
    assert np.array_equal(held, full[1::2])


def test_noise_moments():
    pts = sample_noise(100000, 2, seed=0)
    assert np.all(np.abs(pts.mean(axis=0)) < 0.02)
    assert np.all(np.abs(pts.var(axis=0) - 1.0) < 0.02)


def test_noise_normality():
    draws = sample_noise(100000, 1, seed=1).ravel()
    assert abs(stats.skew(draws)) < 0.05
    assert abs(stats.kurtosis(draws)) < 0.1


def test_noise_deterministic_and_validated():
    assert np.array_equal(sample_noise(50, 3, 7), sample_noise(50, 3, 7))
    with pytest.raises(ConfigError):
        sample_noise(0, 2, 0)
    with pytest.raises(ConfigError):
        sample_noise(10, 0, 0)


DISPATCH_SCRIPT = """
import hashlib, json
from numpy._core._multiarray_umath import __cpu_features__
from curveflow.datagen import KINDS, DatasetSpec, generate, sample_noise
draws = {"noise": sample_noise(2000, 2, 0)}
for kind in KINDS:
    for noise_std in (0.1, 1.0):
        draws["%s@%g" % (kind, noise_std)] = generate(
            DatasetSpec(kind, 2000, seed=0, noise_std=noise_std))
print(json.dumps({"x86_v4": __cpu_features__.get("X86_V4", False),
                  **{k: hashlib.sha256(v.tobytes()).hexdigest()
                     for k, v in draws.items()}}))
"""


def test_draws_independent_of_numpy_dispatch():
    # the data and the noise have the same bytes whether numpy dispatches
    # its AVX-512 loops, its AVX2 ones or neither; each setting runs in a
    # fresh interpreter
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    if not umath.__cpu_features__.get("X86_V4"):
        pytest.skip("this CPU has no X86_V4 (AVX-512) group to disable")
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(curveflow.__file__))
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", DISPATCH_SCRIPT], env=dict(env, **extra),
        capture_output=True, text=True, timeout=120, check=True).stdout)
        for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
                      {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4"})]
    assert [run.pop("x86_v4") for run in runs] == [True, False, False]
    assert len(runs[0]) == 1 + 2 * len(KINDS)
    assert runs[0] == runs[1] == runs[2]


def test_export_csv_round_trip(tmp_path):
    pts = generate(DatasetSpec("spiral", 25, seed=4))
    path = tmp_path / "points.csv"
    export_csv(path, pts)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, pts)
