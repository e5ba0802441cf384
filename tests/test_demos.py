"""Smoke tests for the scripts in demos/: they import, and the fast ones run."""

import importlib.util
import os

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")


def load_demo(name):
    spec = importlib.util.spec_from_file_location(
        "demo_" + name, os.path.join(DEMOS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["schedule_geometry", "solver_orders",
                                  "train_and_sample"])
def test_demo_imports(name):
    assert callable(load_demo(name).main)


def test_schedule_geometry_runs(tmp_path, monkeypatch, capsys):
    demo = load_demo("schedule_geometry")
    monkeypatch.setattr(demo, "OUT", str(tmp_path))
    demo.main()
    assert (tmp_path / "schedule_coefficients.svg").exists()
    printed = capsys.readouterr().out
    assert "trigonometric" in printed and "kappa" in printed


def test_solver_orders_runs(capsys):
    load_demo("solver_orders").main()
    printed = capsys.readouterr().out
    assert "euler" in printed and "heun" in printed


def test_train_and_sample_runs(tmp_path, monkeypatch, capsys):
    demo = load_demo("train_and_sample")
    monkeypatch.setattr(demo, "OUT", str(tmp_path))
    demo.main()
    assert (tmp_path / "two_moons_samples.svg").exists()
    printed = capsys.readouterr().out
    assert "trained 625 steps" in printed and "energy distance" in printed
