import numpy as np
import pytest
from scipy import stats

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


def test_export_csv_round_trip(tmp_path):
    pts = generate(DatasetSpec("spiral", 25, seed=4))
    path = tmp_path / "points.csv"
    export_csv(path, pts)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, pts)
