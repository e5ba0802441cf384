import base64
import ctypes
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import curveflow
from curveflow import cli, config
from curveflow.config import (Checkpoint, config_from_dict, config_to_dict,
                              load_checkpoint, save_checkpoint)
from curveflow.errors import ConfigError, DegenerateTrajectoryError
from curveflow.sampling import BLAS_VARS


def small_config(**train_overrides):
    doc = {
        "data": {"kind": "gaussians8", "count": 32, "seed": 0,
                 "noise_std": 0.1},
        "schedule": {"kind": "neural", "hidden": 8, "embed": 8, "seed": 0},
        "model": {"hidden": 16, "time_features": 4, "seed": 0},
        "train": {"epochs": 1, "batch_size": 16, "base_lr": 1e-3,
                  "warmup_steps": 5, "lam": 0.01, "grid_m": 16, "seed": 0},
        "solver": {"method": "heun", "steps": 8},
        "metrics": {"projections": 8, "eval_count": 32, "seed": 0},
        "lambda_grid": [0.0, 0.01],
    }
    doc["train"].update(train_overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def test_train_happy_path(tmp_path):
    cfg = write_config(tmp_path, small_config())
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    for name in ("checkpoint.json", "history.csv", "run_manifest.json"):
        assert (out / name).exists()
    header = (out / "history.csv").read_text().splitlines()[0]
    assert header == "step,fm_loss,curvature_loss,total,lr"


def test_train_invalid_config(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config(lam=-1.0))
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    # a config path that cannot be read is invalid input too
    missing = str(tmp_path / "missing.json")
    assert cli.main(["train", "--config", missing,
                     "--out", str(tmp_path / "x")]) == 2
    assert "cannot read config %s" % missing in capsys.readouterr().err


def test_train_unknown_field_rejected(tmp_path):
    doc = small_config()
    doc["train"]["momentum"] = 0.9
    cfg = write_config(tmp_path, doc)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_train_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, small_config())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "history.csv").read_bytes())
    assert outs[0] == outs[1]


def test_train_divergence_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config(base_lr=1e18, epochs=2))
    out = tmp_path / "div"
    path = str(out / "checkpoint.json")
    with np.errstate(all="ignore"):
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 3
        # the partial checkpoint from the last valid state is retained: its
        # step counts the rows of the retained history, and it loads
        ckpt, _, _ = cli.load_run(path)
        rows = (out / "history.csv").read_text().splitlines()[1:]
        assert ckpt.step == len(rows) > 0
        assert all(np.all(np.isfinite(a)) for _, a in ckpt.params.items())
        # its weights (up to ~1e32 at lr 1e18) overflow the Heun predictor;
        # that is reported as divergence, not raised out of main
        assert cli.main(["sample", "--checkpoint", path, "--count", "20",
                         "--out", str(tmp_path / "s")]) == 3
    assert "sampling diverged" in capsys.readouterr().err


def test_diverged_train_rewrites_the_manifest(tmp_path):
    # a diverged run into the directory of an earlier run replaces all
    # three of its files, so none of them describes the earlier run
    out = str(tmp_path / "run")
    ok = write_config(tmp_path, small_config(), "ok.json")
    assert cli.main(["train", "--config", ok, "--out", out]) == 0
    bad = write_config(tmp_path, small_config(base_lr=1e18, epochs=2),
                       "diverges.json")
    with np.errstate(all="ignore"):
        assert cli.main(["train", "--config", bad, "--out", out]) == 3
    manifest = json.loads(open(os.path.join(out, "run_manifest.json")).read())
    step = load_checkpoint(os.path.join(out, "checkpoint.json")).step
    rows = open(os.path.join(out, "history.csv")).read().splitlines()[1:]
    assert manifest["steps"] == step == len(rows)
    assert manifest["config"]["train"]["base_lr"] == 1e18
    assert manifest["config"]["train"]["epochs"] == 2


def _trained_checkpoint(tmp_path):
    cfg = write_config(tmp_path, small_config())
    out = tmp_path / "trained"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    return str(out / "checkpoint.json")


def test_sample_happy_path_and_determinism(tmp_path):
    ckpt = _trained_checkpoint(tmp_path)
    csvs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert cli.main(["sample", "--checkpoint", ckpt, "--count", "20",
                         "--seed", "5", "--out", str(out)]) == 0
        rows = (out / "samples.csv").read_text().splitlines()
        assert rows[0] == "x,y"
        assert len(rows) == 21
        assert (out / "samples.svg").exists()
        csvs.append((out / "samples.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_sample_rejects_bad_method(tmp_path):
    ckpt = _trained_checkpoint(tmp_path)
    assert cli.main(["sample", "--checkpoint", ckpt, "--method", "rk9",
                     "--out", str(tmp_path / "x")]) == 2


def test_sample_rejects_bad_checkpoint(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["sample", "--checkpoint", str(bad),
                     "--out", str(tmp_path / "x")]) == 2


def test_checkpoint_round_trip_bit_identical_forward(tmp_path):
    path = _trained_checkpoint(tmp_path)
    _, model, _ = cli.load_run(path)
    z = np.array([[0.3, -0.7]])
    before = model(z, 0.4)
    _, model2, _ = cli.load_run(path)
    assert np.array_equal(before, model2(z, 0.4))


def test_checkpoint_holds_no_optimizer_state(tmp_path):
    path = _trained_checkpoint(tmp_path)
    doc = json.loads(open(path).read())
    assert set(doc) == {"format_version", "config", "step", "params"}
    assert open(path).read() == json.dumps(doc) + "\n"
    # a checkpoint that also carries the AdamW state, as earlier ones did,
    # still loads (the extra key is ignored) and samples the same points
    zeros = {n: np.zeros_like(a).tolist()
             for n, a in load_checkpoint(path).params.items()}
    doc["opt_state"] = {"step": doc["step"], "beta1": 0.9, "beta2": 0.999,
                        "eps": 1e-8, "weight_decay": 0.01,
                        "m": zeros, "v": zeros}
    old = tmp_path / "with_opt_state.json"
    old.write_text(json.dumps(doc))
    csvs = []
    for ckpt, name in ((path, "new"), (str(old), "old")):
        out = tmp_path / name
        assert cli.main(["sample", "--checkpoint", ckpt, "--count", "20",
                         "--out", str(out)]) == 0
        csvs.append((out / "samples.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_checkpoint_params_round_trip_bit_exact(tmp_path):
    big = 1.7976931348623157e308
    params = {"v/extremes": np.array([[-0.0, 5e-324], [big, -big]]),
              "v/scalar": np.array(-0.0), "v/one": np.array([5e-324])}
    path = str(tmp_path / "extremes.json")
    save_checkpoint(path, Checkpoint(config_from_dict(small_config()),
                                     params, 3))
    loaded = load_checkpoint(path)
    assert list(loaded.params) == list(params) and loaded.step == 3
    for name, arr in params.items():
        got = loaded.params[name]
        assert got.dtype == np.float64 and got.shape == arr.shape
        assert got.tobytes() == arr.tobytes(), name


def test_checkpoint_version_mismatch(tmp_path):
    path = _trained_checkpoint(tmp_path)
    doc = json.loads(open(path).read())
    doc["format_version"] = 99
    bad = tmp_path / "wrong_version.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        load_checkpoint(str(bad))
    assert "format_version" in str(exc.value)


def test_version_1_checkpoint_exits_2(tmp_path, capsys):
    # version 1 wrote each parameter as nested lists of decimal numbers
    path = _trained_checkpoint(tmp_path)
    doc = json.loads(open(path).read())
    doc["format_version"] = 1
    doc["params"] = {n: a.tolist()
                     for n, a in load_checkpoint(path).params.items()}
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(doc))
    assert cli.main(["sample", "--checkpoint", str(old),
                     "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == \
        "error: format_version mismatch: got 1, expected 2\n"
    assert not (tmp_path / "x" / "samples.csv").exists()


MISSING = object()  # the field is left out of the checkpoint


def _b64(*values):
    return base64.b64encode(np.array(values, "<f8").tobytes()).decode()


# "v/b3.<key>" edits one key of the (2,)-shaped output bias's entry,
# {"shape": [2], "data": ...}; "v/b3" replaces the whole entry
@pytest.mark.parametrize("field,value", [
    ("step", "many"), ("params", [1, 2]), ("step", 2.7), ("step", "5"),
    ("step", True), ("format_version", MISSING), ("params", MISSING),
    ("v/b3.data", _b64(1.0, 2.0)[:-1] + "*"),    # not a base64 character
    ("v/b3.data", _b64(1.0, 2.0) + "\n"),         # nor is a newline
    ("v/b3.data", _b64(1.0, 2.0)[:-2]),          # bad padding
    ("v/b3.data", _b64(1.0, 2.0, 3.0)),          # 24 bytes for 2 entries
    ("v/b3.data", _b64(1.0)),                    # 8 bytes for 2 entries
    ("v/b3.data", base64.b64encode(bytes(14)).decode()),  # not whole floats
    ("v/b3.data", 7), ("v/b3.data", MISSING), ("v/b3.shape", MISSING),
    ("v/b3.shape", [-2, -1]), ("v/b3.shape", [-1]), ("v/b3.shape", [2.0]),
    ("v/b3.shape", [True, 2]), ("v/b3.shape", 2),
    ("v/b3", [0.5, 0.25]),                       # version 1's number list
    ("v/b3", {"shape": [2], "data": _b64(0.5, np.nan)}),
    ("v/b3", {"shape": [1], "data": _b64(np.inf)}),
])
def test_checkpoint_malformed_field(tmp_path, capsys, field, value):
    path = _trained_checkpoint(tmp_path)
    doc = json.loads(open(path).read())
    name, _, key = field.partition(".")
    target = doc["params"] if name.startswith("v/") else doc
    if key:
        target, name = target[name], key
    if value is MISSING:
        del target[name]
    else:
        target[name] = value
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        load_checkpoint(str(bad))
    if field in ("format_version", "params") and value is MISSING:
        assert str(exc.value) == "missing field: %s" % field
    elif field in ("step", "params"):
        kind = {"step": "int", "params": "dict"}[field]
        assert str(exc.value) == ("malformed checkpoint field: %s must be of "
                                  "type %s, got %r" % (field, kind, value))
    else:
        assert str(exc.value).startswith("malformed checkpoint field: ")
        if not isinstance(value, str):  # base64's own errors name no field
            assert "'v/b3'" in str(exc.value)
    assert cli.main(["sample", "--checkpoint", str(bad),
                     "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x" / "samples.csv").exists()


def _edited_checkpoint(tmp_path, section, field, value):
    path = _trained_checkpoint(tmp_path)
    doc = json.loads(open(path).read())
    doc["config"][section][field] = value
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(doc))
    return str(bad)


def test_sample_rejects_checkpoint_that_does_not_fit_config(tmp_path, capsys):
    # a changed shape, and extra names: a linear schedule has no parameters
    for edit in (("model", "hidden", 32), ("schedule", "kind", "linear")):
        bad = _edited_checkpoint(tmp_path, *edit)
        assert cli.main(["sample", "--checkpoint", bad,
                         "--out", str(tmp_path / "x")]) == 2
        assert "do not fit" in capsys.readouterr().err
        assert not (tmp_path / "x" / "samples.csv").exists()


def _hand_saved_checkpoint(tmp_path, dim):
    """A checkpoint of a velocity field on ``dim``-D points."""
    cfg = config_from_dict(small_config())
    model = curveflow.VelocityField(dim, hidden=16, time_features=4, seed=1)
    params = {**model.params, **cli.build_schedule(cfg).params}
    path = str(tmp_path / ("dim%d.json" % dim))
    save_checkpoint(path, Checkpoint(cfg, params, 0))
    return path, model


def test_load_run_takes_model_dim_from_checkpoint(tmp_path):
    path, model = _hand_saved_checkpoint(tmp_path, 3)
    _, loaded, _ = cli.load_run(path)
    assert loaded.dim == 3
    z = np.ones((4, 3))
    assert np.array_equal(loaded(z, 0.5), model(z, 0.5))
    samples = curveflow.sample_batch(loaded, 5, loaded.dim, 0,
                                     curveflow.SolverConfig("heun", 2))
    assert samples.shape == (5, 3)


@pytest.mark.parametrize("dim,header", [(1, "x0"), (3, "x0,x1,x2")])
def test_sample_writes_one_column_per_dimension(tmp_path, dim, header):
    path, _ = _hand_saved_checkpoint(tmp_path, dim)
    out = tmp_path / "samples"
    assert cli.main(["sample", "--checkpoint", path, "--count", "5",
                     "--steps", "2", "--out", str(out)]) == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == header
    assert [len(line.split(",")) for line in lines[1:]] == [dim] * 5
    # the plot draws the first two coordinates, so 1-D samples get none
    assert (out / "samples.svg").exists() == (dim >= 2)


def test_analyze_rejects_checkpoint_that_does_not_fit_config(tmp_path, capsys):
    bad = _edited_checkpoint(tmp_path, "schedule", "hidden", 16)
    assert cli.main(["analyze", "--checkpoint", bad,
                     "--out", str(tmp_path / "x")]) == 2
    assert "do not fit" in capsys.readouterr().err
    # a neural checkpoint without its schedule parameters is rejected too,
    # rather than analysing a fresh, untrained schedule
    doc = json.loads(open(_trained_checkpoint(tmp_path)).read())
    doc["params"] = {n: a for n, a in doc["params"].items()
                     if n.startswith("v/")}
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--checkpoint", str(stripped),
                     "--out", str(tmp_path / "y")]) == 2


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    path = _trained_checkpoint(tmp_path)
    before = open(path, "rb").read()
    ckpt = load_checkpoint(path)

    class DiskFull:
        # the disk fills after the first half of the document is written
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError("disk full")

    monkeypatch.setattr(config, "open", raising=False,
                        value=lambda f, mode="r": DiskFull(open(f, mode)))
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, ckpt)
    assert open(path, "rb").read() == before
    assert sorted(p.name for p in (tmp_path / "trained").iterdir()) == \
        ["checkpoint.json", "history.csv", "run_manifest.json"]


def test_checkpoint_truncated(tmp_path):
    path = _trained_checkpoint(tmp_path)
    data = open(path).read()[:100]
    bad = tmp_path / "truncated.json"
    bad.write_text(data)
    with pytest.raises(ConfigError):
        load_checkpoint(str(bad))


@pytest.mark.parametrize("fault", [TypeError, AttributeError])
def test_checkpoint_program_fault_propagates(tmp_path, monkeypatch, fault):
    # only a malformed field becomes ConfigError (exit 2); a bug is raised
    path = _trained_checkpoint(tmp_path)

    def faulty(doc):
        raise fault("a program fault")
    monkeypatch.setattr(config, "config_from_dict", faulty)
    with pytest.raises(fault, match="a program fault"):
        load_checkpoint(path)


@pytest.mark.parametrize("truncated", [False, True],
                         ids=["missing", "truncated"])
def test_sample_reports_unreadable_checkpoint(tmp_path, capsys, truncated):
    bad = tmp_path / "bad.json"
    if truncated:
        bad.write_text(open(_trained_checkpoint(tmp_path)).read()[:100])
        capsys.readouterr()
    assert cli.main(["sample", "--checkpoint", str(bad),
                     "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: cannot read checkpoint %s: " % bad), err


def test_analyze_linear_schedule(tmp_path, capsys):
    out = tmp_path / "an"
    assert cli.main(["analyze", "--schedule", "linear", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "determinant_integral 0.0" in printed
    assert (out / "curvature_profile.csv").exists()
    assert (out / "curvature_profile.svg").exists()


def test_analyze_trig_schedule_value(tmp_path, capsys):
    out = tmp_path / "an"
    assert cli.main(["analyze", "--schedule", "trigonometric",
                     "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    val = float(printed.split("determinant_integral")[1].split()[0])
    exact = (np.pi / 2) ** 6
    assert abs(val - exact) / exact < 0.01


def test_analyze_requires_exactly_one_input(tmp_path):
    assert cli.main(["analyze", "--out", str(tmp_path)]) == 2
    assert cli.main(["analyze", "--schedule", "linear", "--checkpoint", "x",
                     "--out", str(tmp_path)]) == 2


def test_analyze_checkpoint(tmp_path, capsys):
    ckpt = _trained_checkpoint(tmp_path)
    out = tmp_path / "an"
    assert cli.main(["analyze", "--checkpoint", ckpt, "--out", str(out)]) == 0
    assert "determinant_integral" in capsys.readouterr().out


def test_compare_writes_all_variants(tmp_path):
    cfg = write_config(tmp_path, small_config())
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == ("variant,lambda,energy_distance,sliced_wasserstein,"
                       "determinant_integral,status")
    names = [r.split(",")[0] for r in rows[1:]]
    assert names == ["rf_uniform", "rf_logit_normal",
                     "curveflow_lam_0", "curveflow_lam_0.01"]
    assert all(r.split(",")[-1] == "ok" for r in rows[1:])


def test_compare_reports_diverged_variants(tmp_path):
    cfg = write_config(tmp_path, small_config(base_lr=1e18, epochs=2))
    out = tmp_path / "cmp"
    with np.errstate(all="ignore"):
        assert cli.main(["compare", "--config", cfg, "--out", str(out)]) == 3
    rows = [r.split(",") for r in
            (out / "results.csv").read_text().splitlines()[1:]]
    # every variant keeps its row; diverged ones carry no metrics
    assert [r[0] for r in rows] == ["rf_uniform", "rf_logit_normal",
                                    "curveflow_lam_0", "curveflow_lam_0.01"]
    assert all(len(r) == 6 for r in rows)
    assert any(r[5] == "diverged" for r in rows)
    for r in rows:
        assert r[5] in ("ok", "diverged")
        assert (r[2:5] == ["", "", ""]) == (r[5] == "diverged")


def test_compare_does_not_read_curvature_profiles(tmp_path, monkeypatch):
    # compare writes the determinant integral alone, so diagnostic pairs
    # that all degenerate change none of its results
    def degenerate(schedule, grid, pairs):
        raise DegenerateTrajectoryError("every pair's speed vanishes")

    cfg = write_config(tmp_path, small_config())
    argv = ["compare", "--config", cfg, "--out"]
    assert cli.main(argv + [str(tmp_path / "plain")]) == 0
    monkeypatch.setattr(cli.metrics, "schedule_diagnostics", degenerate)
    assert cli.main(argv + [str(tmp_path / "patched")]) == 0
    assert ((tmp_path / "plain" / "results.csv").read_bytes()
            == (tmp_path / "patched" / "results.csv").read_bytes())


def test_compare_empty_grid(tmp_path):
    doc = small_config()
    doc["lambda_grid"] = []
    cfg = write_config(tmp_path, doc)
    assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_gradcheck_passes(capsys):
    assert cli.main(["gradcheck", "--seed", "0"]) == 0
    assert "max relative error" in capsys.readouterr().out


def test_gradcheck_negative_control(monkeypatch, capsys):
    evaluate = cli.evaluate_with_gradients

    def corrupted(loss_fn, params):
        value, grads = evaluate(loss_fn, params)
        grads["a/b0"] = grads["a/b0"] + 1e-2
        return value, grads

    monkeypatch.setattr(cli, "evaluate_with_gradients", corrupted)
    assert cli.main(["gradcheck", "--seed", "0"]) == 1
    assert "a/b0" in capsys.readouterr().err


def test_config_round_trip_fixed_point(tmp_path):
    doc = small_config()
    config = config_from_dict(doc)
    once = config_to_dict(config)
    again = config_to_dict(config_from_dict(once))
    assert once == again
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(config_to_dict(config), fh)
    assert config_to_dict(config_from_dict(json.load(open(path)))) == once


def test_config_rejects_unknown_top_level():
    with pytest.raises(ConfigError):
        config_from_dict({"surprise": 1})


def test_train_divergence_message(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config(base_lr=1e18, epochs=2))
    with np.errstate(all="ignore"):
        assert cli.main(["train", "--config", cfg,
                         "--out", str(tmp_path / "div")]) == 3
    assert "training diverged at step" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--steps", "0"), ("--method", "")])
def test_sample_rejects_falsy_overrides(tmp_path, flag, value):
    # a given 0 or "" is validated, not replaced by the config's value
    ckpt = _trained_checkpoint(tmp_path)
    out = tmp_path / "x"
    assert cli.main(["sample", "--checkpoint", ckpt, flag, value,
                     "--out", str(out)]) == 2
    assert not out.exists()


def _edited_config(section, field, value):
    doc = small_config()
    if section is None:
        doc[field] = value
    else:
        doc[section][field] = value
    return doc


BAD_VALUES = [("train", "epochs", "5"), ("solver", "steps", None),
              (None, "lambda_grid", ["x"]), ("train", "epochs", 1.5),
              ("train", "train_schedule", "no"), ("train", "epochs", True),
              ("train", "base_lr", float("nan")),
              (None, "lambda_grid", [float("inf")]),
              # seeds key Philox streams, which take keys in [0, 2**128)
              ("data", "seed", -3), ("schedule", "seed", -1),
              ("model", "seed", -1), ("train", "seed", -1),
              # keys train never draws (metrics.seed, data.seed + 1) too
              ("metrics", "seed", -1), ("data", "seed", 2 ** 128 - 1),
              ("schedule", "kind", "spline"), ("schedule", "embed", 7),
              ("model", "time_features", 5), ("metrics", "projections", 0),
              (None, "format_version", 2), (None, "lambda_grid", [-0.1]),
              (None, "train", 5), ("train", "poly_power", -1.0)]


@pytest.mark.parametrize("section,field,value", BAD_VALUES)
def test_train_rejects_bad_config_value(tmp_path, capsys, section, field,
                                        value):
    cfg = write_config(tmp_path, _edited_config(section, field, value))
    assert cli.main(["train", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "error: " in err
    if field == "seed":  # the range check names the key it rejects
        assert "(%s.seed" % section in err, err


def test_config_int_fits_float_field_unconverted():
    doc = small_config(base_lr=1)
    assert config_to_dict(config_from_dict(doc))["train"]["base_lr"] == 1
    assert type(config_from_dict(doc).train.base_lr) is int


def test_analyze_degenerate_schedule_exits_3(tmp_path, monkeypatch, capsys):
    def degenerate(schedule, grid, pairs):
        raise DegenerateTrajectoryError("every pair's speed vanishes")

    monkeypatch.setattr(cli.metrics, "schedule_diagnostics", degenerate)
    assert cli.main(["analyze", "--schedule", "linear",
                     "--out", str(tmp_path / "an")]) == 3
    assert "speed vanishes" in capsys.readouterr().err


def test_program_fault_is_not_invalid_input(tmp_path, monkeypatch):
    # a ValueError that is not a ConfigError means a bug; main must not
    # map it to 2
    def faulty(schedule, grid, pairs):
        raise ValueError("mismatched grid")

    monkeypatch.setattr(cli.metrics, "schedule_diagnostics", faulty)
    with pytest.raises(ValueError, match="mismatched grid"):
        cli.main(["analyze", "--schedule", "linear",
                  "--out", str(tmp_path / "an")])


@pytest.mark.parametrize("command,seed", [
    ("train", "-1"), ("sample", "-1"), ("gradcheck", "-1"),
    # the seed itself is a Philox key; the velocity field's seed + 1 is not
    ("gradcheck", str(2 ** 128 - 1))])
def test_seed_flag_out_of_range_exits_2(tmp_path, capsys, command, seed):
    argv = [command, "--seed", seed]
    if command == "train":
        argv += ["--config", write_config(tmp_path, small_config()),
                 "--out", str(tmp_path / "x")]
    elif command == "sample":
        argv += ["--checkpoint", _trained_checkpoint(tmp_path),
                 "--out", str(tmp_path / "x")]
        capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: seed must lie in")
    # train's flag overrides train.seed, and the error names that key
    assert err[0].endswith("(train.seed)" if command == "train" else
                           "(--seed)" if seed == "-1" else "(--seed + 1)")


def _fresh_env():
    """This process's environment, with curveflow importable by a fresh
    interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(curveflow.__file__))
    return env


def test_console_entry_point_exit_status(tmp_path):
    cfg = write_config(tmp_path, _edited_config("train", "epochs", "5"))
    proc = subprocess.run([sys.executable, "-m", "curveflow.cli", "train",
                           "--config", cfg, "--out", str(tmp_path / "x")],
                          env=_fresh_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert "error: train.epochs" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_train_artifacts_independent_of_blas_threads(tmp_path):
    # OpenBLAS may split a long contraction across threads and sum the
    # parts in another order. The regularizer's weight gradient over 1001
    # uniform nodes, a (64x1001)@(1001x64) product, did, and this failed;
    # over the batch's 16 rows and 64 quadrature nodes, 3 jet rows each
    # ((64x240)@(240x64)), it passes. Where OpenBLAS splits is its own
    # detail, so this guards the shapes that training multiplies, and the
    # 2000-row products of sampling. On 2 CPUs, sampling integrates its
    # two row blocks on 2 threads at BLAS=1 and one after another at BLAS=2.
    doc = small_config(lam=1e-3, grid_m=1000)
    doc["data"]["count"] = 400
    doc["schedule"]["hidden"] = 64
    doc["model"] = {"hidden": 128, "time_features": 16, "seed": 0}
    cfg = write_config(tmp_path, doc)
    env = _fresh_env()
    artifacts = []
    for threads in ("1", "2"):
        for var in BLAS_VARS:
            env[var] = threads
        out = tmp_path / ("threads" + threads)
        for argv in (["train", "--config", cfg, "--out", str(out)],
                     ["sample", "--checkpoint", str(out / "checkpoint.json"),
                      "--count", "2000", "--out", str(out)]):
            proc = subprocess.run([sys.executable, "-m", "curveflow.cli"]
                                  + argv, env=env, capture_output=True,
                                  text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        artifacts.append([(out / name).read_bytes() for name in
                          ("history.csv", "checkpoint.json", "samples.csv")])
    assert artifacts[0] == artifacts[1]


COLD_START = """
import json, sys
from curveflow import cli

def lazy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m == "concurrent.futures")

cfg, out = sys.argv[1:]
ckpt = out + "/run/checkpoint.json"
loaded = [lazy_modules()]
for argv in (["train", "--config", cfg, "--out", out + "/run"],
             ["sample", "--checkpoint", ckpt, "--count", "20",
              "--out", out + "/sample"],
             ["analyze", "--checkpoint", ckpt, "--out", out + "/analyze"],
             ["compare", "--config", cfg, "--out", out + "/compare"]):
    assert cli.main(argv) == 0, argv
    loaded.append(lazy_modules())
print(json.dumps(loaded))
"""


def test_scipy_is_loaded_only_by_a_distance(tmp_path):
    # importing scipy.spatial costs a fresh command more than numpy and
    # curveflow together; only energy_distance, so only compare, needs it.
    # concurrent.futures (~3 ms) waits for a sample_batch with two workers,
    # which 20 rows in one block never start
    cfg = write_config(tmp_path, small_config())
    proc = subprocess.run([sys.executable, "-c", COLD_START, cfg,
                           str(tmp_path)], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *cold, after_compare = json.loads(proc.stdout.splitlines()[-1])
    assert cold == [[]] * 4  # import, train, sample, analyze
    assert "scipy.spatial.distance" in after_compare


def test_manifest_records_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = write_config(tmp_path, small_config())
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "run_manifest.json").read_text())
    assert doc["python"] == platform.python_version()
    assert doc["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert doc["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert doc["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": "3",
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": None}
    # a numpy that reports no BLAS still writes the manifest
    monkeypatch.setattr(np, "show_config", lambda mode: {})
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "run_manifest.json").read_text())
    assert doc["blas"] == {"name": None, "version": None}


def test_manifest_records_the_blas_kernel(tmp_path, monkeypatch):
    # the kernel OpenBLAS picked for this CPU, read from the loaded library
    cfg = write_config(tmp_path, small_config())
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    kernel = json.loads((out / "run_manifest.json").read_text())["blas_kernel"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") == "scipy-openblas":
        assert isinstance(kernel, str) and kernel
    # a library without scipy-openblas's symbol writes null
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "run_manifest.json").read_text())[
        "blas_kernel"] is None
