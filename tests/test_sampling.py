import concurrent.futures
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import curveflow
from curveflow.datagen import sample_noise
from curveflow.errors import ConfigError, DivergenceError
from curveflow.sampling import BLAS_VARS, SolverConfig, integrate, sample_batch
from curveflow.schedules import LinearSchedule
from curveflow.velocity import VelocityField


def test_solver_config_validation():
    SolverConfig().validate()
    with pytest.raises(ConfigError):
        SolverConfig(method="rk9").validate()
    with pytest.raises(ConfigError):
        SolverConfig(steps=0).validate()


def test_constant_field_exact():
    c = np.array([2.0, -1.0])
    z0 = np.array([0.5, 0.5])
    for method in ("euler", "heun"):
        for steps in (1, 7, 50):
            z = integrate(lambda z, t: c, z0, SolverConfig(method, steps))
            assert np.allclose(z, z0 - c, atol=1e-12)


def test_linear_field_heun_accuracy():
    # dz/dt = z integrated from t=1 to 0 gives z0 * e^{-1}
    z0 = np.array([1.0, -2.0])
    z = integrate(lambda z, t: z, z0, SolverConfig("heun", 100))
    exact = z0 * np.exp(-1.0)
    assert np.max(np.abs(z - exact) / np.abs(exact)) < 1e-4


def _order_slope(method):
    z0 = np.array([1.0])
    exact = z0 * np.exp(-1.0)
    steps = np.array([8, 16, 32, 64, 128])
    errs = []
    for n in steps:
        z = integrate(lambda z, t: z, z0, SolverConfig(method, int(n)))
        errs.append(abs(float(z[0] - exact[0])))
    slope, _ = np.polyfit(np.log(steps), np.log(errs), 1)
    return -slope


def test_euler_first_order():
    assert abs(_order_slope("euler") - 1.0) < 0.2


def test_heun_second_order():
    assert abs(_order_slope("heun") - 2.0) < 0.2


def test_halving_step_halves_euler_quarters_heun():
    z0 = np.array([1.0])
    exact = float(z0[0] * np.exp(-1.0))

    def err(method, steps):
        out = integrate(lambda z, t: z, z0, SolverConfig(method, steps))
        return abs(float(out[0]) - exact)

    assert err("euler", 64) / err("euler", 128) == pytest.approx(2.0, rel=0.1)
    assert err("heun", 64) / err("heun", 128) == pytest.approx(4.0, rel=0.1)


@pytest.mark.parametrize("method", ["euler", "heun"])
def test_solver_times_are_exact(method):
    # the times 1 - k h, and the corrector's 1 - k h - h, would fall a few
    # ulp below 0 at the last step for 484 of these step counts
    for n in range(1, 1001):
        times = []
        integrate(lambda z, t: times.append(t) or 0.0, np.zeros(1),
                  SolverConfig(method, n))
        assert all(0.0 <= t <= 1.0 for t in times), n
        assert times[0] == 1.0
        assert times[-1] == (0.0 if method == "heun" else 1 / n)


def test_schedule_aware_field_integrates():
    # a schedule's derivatives reject t outside [0, 1]
    schedule = LinearSchedule()
    field = lambda z, t: schedule.derivatives(t).da * z
    # dz/dt = -z from t = 1 to 0 gives z0 * e
    z = integrate(field, np.array([1.0]), SolverConfig("heun", 5))
    assert z[0] == pytest.approx(np.e, rel=0.01)


def test_batch_rows_integrated_independently():
    field = lambda z, t: z * np.array([1.0, 0.5])
    batch = np.array([[1.0, 1.0], [2.0, -1.0], [0.0, 3.0]])
    whole = integrate(field, batch, SolverConfig("heun", 20))
    for i, row in enumerate(batch):
        single = integrate(field, row, SolverConfig("heun", 20))
        assert np.allclose(whole[i], single, atol=1e-12)


def test_divergence_reports_step():
    def blowup(z, t):
        with np.errstate(over="ignore"):
            return z * 1e300
    with pytest.raises(DivergenceError) as exc:
        integrate(blowup, np.array([1.0]), SolverConfig("euler", 10))
    assert exc.value.step is not None


def test_heun_overflowed_predictor_is_divergence():
    # the corrector never evaluates the field at an overflowed predictor
    def field(z, t):
        assert np.all(np.isfinite(z))
        return np.full_like(z, np.inf)
    with pytest.raises(DivergenceError) as exc:
        integrate(field, np.array([1.0]), SolverConfig("heun", 10))
    assert exc.value.step == 0


def test_non_finite_start_rejected():
    with pytest.raises(ConfigError):
        integrate(lambda z, t: z, np.array([np.inf]), SolverConfig("euler", 5))


def test_sample_batch_deterministic():
    model = lambda z, t: np.zeros_like(z)
    a = sample_batch(model, 10, 2, seed=3, config=SolverConfig("heun", 5))
    b = sample_batch(model, 10, 2, seed=3, config=SolverConfig("heun", 5))
    assert np.array_equal(a, b)


def test_sample_batch_zero_field_is_identity():
    model = lambda z, t: np.zeros_like(z)
    out = sample_batch(model, 20, 2, seed=9, config=SolverConfig("euler", 10))
    assert np.array_equal(out, sample_noise(20, 2, 9))


def test_sample_batch_count_validation():
    model = lambda z, t: np.zeros_like(z)
    with pytest.raises(ConfigError):
        sample_batch(model, 0, 2, seed=0, config=SolverConfig())


def _pin_workers(monkeypatch, cpus, blas):
    """Fake ``cpus`` usable CPUs and BLAS threads; return the pool sizes
    that sample_batch starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for var in BLAS_VARS:
        monkeypatch.setenv(var, blas)
    pools = []
    pool = concurrent.futures.ThreadPoolExecutor  # imported by sample_batch
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda workers: pools.append(workers) or pool(workers))
    return pools


def _float32(model):
    return {name: a.astype(np.float32) for name, a in model.params.items()}


@pytest.mark.parametrize("cpus, blas, workers",
                         [(2, "2", 1), (2, "4", 1), (2, "1", 2), (3, "1", 3)])
def test_blocked_sampling_equals_one_call(monkeypatch, cpus, blas, workers):
    # blocks start at multiples of 16 rows, so each row gets the bits of
    # one whole-batch call of the float32 field whatever the worker count
    pools = _pin_workers(monkeypatch, cpus, blas)
    model = VelocityField(2, seed=5)
    params = _float32(model)
    config = SolverConfig("heun", 3)
    for count in (2000, 1999, 1025, 2049):
        blocked = sample_batch(model, count, 2, seed=4, config=config)
        whole = integrate(lambda z, t: model(z, t, params),
                          sample_noise(count, 2, 4), config)
        assert blocked.dtype == np.float64
        assert blocked.tobytes() == whole.tobytes()
    assert max(pools, default=1) == workers


BLAS_THREADS_SCRIPT = """
import sys
from curveflow.sampling import SolverConfig, sample_batch
from curveflow.velocity import VelocityField
out = sample_batch(VelocityField(2, seed=5), int(sys.argv[1]), 2, seed=4,
                   config=SolverConfig("heun", 3))
sys.stdout.write(out.tobytes().hex())
"""


@pytest.mark.parametrize("count", [2000, 4000])
def test_float32_samples_independent_of_blas_threads(count):
    # sgemm has its own thread paths; each count runs in fresh interpreters
    # at 1 and 2 OpenBLAS threads
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(curveflow.__file__))
    out = [subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT,
                           str(count)], env=dict(env, OPENBLAS_NUM_THREADS=n),
                          capture_output=True, text=True, timeout=120,
                          check=True).stdout for n in ("1", "2")]
    assert len(out[0]) == 2 * 8 * 2 * count
    assert out[0] == out[1]


def test_float32_field_close_to_float64():
    # the sampling network runs in float32; on a width-128 field it stays
    # within 1e-5 of the float64 field's largest velocity
    model = VelocityField(2, hidden=128, seed=0)
    params = _float32(model)
    z = 3.0 * sample_noise(1000, 2, 0)
    for t in (0.0, 0.3, 0.77, 1.0):
        exact, fast = model(z, t), model(z, t, params)
        assert fast.dtype == np.float32
        assert np.max(np.abs(fast - exact)) <= 1e-5 * np.max(np.abs(exact))


@pytest.mark.parametrize("count, blocks", [(500, [(0, 500)]),
                                           (2000, [(0, 992), (992, 2000)])])
def test_hidden_buffers_made_once_per_block(monkeypatch, count, blocks):
    # one pair of (rows, hidden) buffers per block, on the block's own
    # thread, for all of its network evaluations
    _pin_workers(monkeypatch, 2, "1")
    made = []
    empty = np.empty
    monkeypatch.setattr(np, "empty", lambda shape, *args, **kwargs: (
        made.append(shape) or empty(shape, *args, **kwargs)))
    sample_batch(VelocityField(2, seed=5), count, 2, seed=4,
                 config=SolverConfig("heun", 5))
    hidden = [s for s in made if isinstance(s, tuple) and len(s) == 3]
    assert sorted(hidden) == [(2, stop - start, 128) for start, stop in blocks]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_float32_overflow_is_divergence():
    # weights that float64 carries to a finite ~1e40 velocity overflow
    # float32's hidden layers; the sample reports it, not NaN rows
    model = VelocityField(2, seed=5)
    for name in ("v/w1", "v/w2"):
        model.params[name] = model.params[name] * 1e20
    config = SolverConfig("euler", 1)
    noise = sample_noise(64, 2, 4)
    assert np.all(np.isfinite(integrate(model, noise, config)))
    with pytest.raises(DivergenceError) as exc:
        sample_batch(model, 64, 2, seed=4, config=config)
    assert exc.value.step == 0


def _tagged_field(fast_tag, slow_tag):
    # column 1 is a tag that never moves; the rows tagged fast_tag and
    # slow_tag grow geometrically until they overflow, the others stay put
    def field(z, t):
        rate = np.where(z[:, 1] == fast_tag, 1e100,
                        np.where(z[:, 1] == slow_tag, 1e20, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            return np.stack([-rate * z[:, 0], np.zeros(len(z))], axis=1)
    return field


@pytest.mark.parametrize("cpus", [1, 3])
def test_blocked_divergence_reports_earliest_step(monkeypatch, cpus):
    _pin_workers(monkeypatch, cpus, "1")
    noise = sample_noise(2049, 2, 7)
    # the last row, in the third block, overflows before the first row
    field = _tagged_field(noise[-1, 1], noise[0, 1])
    config = SolverConfig("heun", 50)
    with pytest.raises(DivergenceError) as whole:
        integrate(field, noise, config)
    with pytest.raises(DivergenceError) as blocked:
        sample_batch(field, 2049, 2, seed=7, config=config)
    assert blocked.value.step == whole.value.step
    with pytest.raises(DivergenceError) as slow:
        integrate(field, noise[:1], config)
    assert whole.value.step < slow.value.step


def test_blocked_sampling_propagates_other_errors(monkeypatch):
    _pin_workers(monkeypatch, 3, "1")
    tag = sample_noise(2049, 2, 7)[-1, 1]

    def field(z, t):
        if np.any(z[:, 1] == tag):
            raise TypeError("bad block")
        return np.zeros_like(z)

    with pytest.raises(TypeError, match="bad block"):
        sample_batch(field, 2049, 2, seed=7, config=SolverConfig("euler", 2))


def test_unpinned_blas_starts_no_thread(monkeypatch):
    # with no BLAS variable set, OpenBLAS's own threads take every CPU
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    model = lambda z, t: np.zeros_like(z)
    out = sample_batch(model, 2049, 2, seed=1, config=SolverConfig("euler", 2))
    assert np.array_equal(out, sample_noise(2049, 2, 1))
    assert started == []
