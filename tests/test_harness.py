"""Orchestration tests: scenario building, evaluation, artifacts, CLI.

Proves:
 Group 1: Scenario assembly
   1.  Seeded scenario build is repeatable and honors pinned values
   2.  Observation noise vector uses the block overrides
   3.  Cart-pole scenario wires force bounds and a shared Riccati gain
 Group 2: Evaluation semantics
   4.  Quiet system and zero policy give exactly zero cost
   5.  Identical policies under paired seeds score identically
   6.  Equal power beats no power on unstable plants
   7.  The divergence sentinel trips and saturates the recorded cost
 Group 3: Artifacts and round trips
   8.  run_experiment writes config, logs, checkpoints, evaluation, manifest
   9.  Training logs and evaluation are bitwise repeatable across reruns
  10.  evaluate_run reproduces the stored evaluation byte for byte
  11.  save/load round-trips separate-topology agents
  12.  evaluate_run names the checkpoint, field and values on a config mismatch
 Group 4: Command line
  13.  train/evaluate/baselines/gradcheck all exit zero on a tiny run
  14.  Config errors exit 2 with a one-line message
"""
from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import wcsrl
from wcsrl import config as config_mod
from wcsrl import harness, policies
from wcsrl.learner import TrainedAgents

TINY = {
    "plants.count": 2,
    "train.episodes": 3,
    "train.horizon": 10,
    "train.workers": 2,
    "train.pretrain_iters": 5,
    "eval.tests": 2,
    "eval.group": 2,
    "eval.horizon": 12,
}


def tiny_config(out_dir, **extra):
    overrides = {"scenario": "linear_power", "seed": 5, "out_dir": str(out_dir)}
    overrides.update(TINY)
    overrides.update(extra)
    return config_mod.load_config(overrides=overrides)


# Group 1 -------------------------------------------------------------------


def test_scenario_build_repeatable_and_pinnable(tmp_path):
    cfg = tiny_config(tmp_path)
    b1 = harness.build_scenario(cfg)
    b2 = harness.build_scenario(cfg)
    assert np.array_equal(b1.positions, b2.positions)
    assert np.array_equal(b1.a_values, b2.a_values)
    assert np.all(b1.a_values >= 1.05) and np.all(b1.a_values <= 1.15)
    assert np.all(b1.distances >= cfg.channel_min_distance)

    pinned = tiny_config(
        tmp_path,
        **{"plants.a_values": [1.07, 1.12], "channel.positions": [1.0, 0.0, 0.0, 2.0]},
    )
    b3 = harness.build_scenario(pinned)
    assert np.allclose(b3.a_values, [1.07, 1.12], atol=1e-15)
    assert np.allclose(b3.distances, [1.0, 2.0], atol=1e-15)


def test_obs_noise_blocks(tmp_path):
    cfg = tiny_config(tmp_path, **{"obs.noise": 1.0, "obs.noise_channel": 4.0})
    b = harness.build_scenario(cfg)
    assert np.allclose(b.obs_noise[:2], 4.0, atol=1e-15)
    assert np.allclose(b.obs_noise[2:], 1.0, atol=1e-15)
    assert b.obs_noise.shape == (2 * (1 + 3),)


def test_cartpole_scenario_wiring(tmp_path):
    cfg = config_mod.load_config(
        overrides={"scenario": "cartpole_codesign", "seed": 1, "plants.count": 2}
    )
    b = harness.build_scenario(cfg)
    assert b.control_low == -10.0 and b.control_high == 10.0
    assert b.state_dim == 4 and b.input_dim == 1
    assert len(b.lqr_gains) == 2
    assert np.array_equal(b.lqr_gains[0], b.lqr_gains[1])
    # the clipped Riccati controller respects the actuator interval
    ctrl = b.riccati_controller()
    obs = type("O", (), {})()
    from wcsrl.environment import Observation

    big = Observation(channel=np.ones(2), plant=np.full((2, 4), 5.0))
    u = ctrl(big, 0)
    assert np.all(np.abs(u) <= 10.0)


# Group 2 -------------------------------------------------------------------


def quiet_bundle(tmp_path, a=1.1):
    cfg = tiny_config(
        tmp_path,
        **{
            "plants.a_values": [a, a],
            "plants.process_noise": 0.0,
            "plants.init": "zero",
            "obs.noise": 0.0,
        },
    )
    return cfg, harness.build_scenario(cfg)


def test_zero_system_zero_cost(tmp_path):
    _, bundle = quiet_bundle(tmp_path)
    policy = policies.HeuristicPolicy(
        policies.zero_allocator(2), policies.zero_controller(2, 3)
    )
    report = harness.evaluate(bundle, {"zero": policy}, n_tests=2, group=2, horizon=8)
    assert np.array_equal(report.costs["zero"], np.zeros((2, 2)))
    assert not report.diverged["zero"].any()
    # region budget accrues negatively when the state never leaves the box
    assert np.all(report.signals["zero"] < 0)


def test_paired_seeds_identical_policies(tmp_path):
    cfg = tiny_config(tmp_path)
    bundle = harness.build_scenario(cfg)
    total = bundle.baseline_power_total()
    mk = lambda: policies.HeuristicPolicy(
        policies.equal_allocator(2, total), bundle.riccati_controller()
    )
    report = harness.evaluate(bundle, {"a": mk(), "b": mk()}, n_tests=2, group=3, horizon=10)
    assert np.array_equal(report.costs["a"], report.costs["b"])
    assert np.array_equal(report.signals["a"], report.signals["b"])
    # and the whole evaluation is repeatable
    again = harness.evaluate(bundle, {"a": mk()}, n_tests=2, group=3, horizon=10)
    assert np.array_equal(report.costs["a"], again.costs["a"])


def test_equal_power_beats_none(tmp_path):
    cfg = tiny_config(tmp_path, **{"plants.a_values": [1.1, 1.1], "obs.noise": 0.0})
    bundle = harness.build_scenario(cfg)
    ctrl = bundle.riccati_controller()
    total = bundle.baseline_power_total()
    report = harness.evaluate(
        bundle,
        {
            "equal": policies.HeuristicPolicy(policies.equal_allocator(2, total), ctrl),
            "silent": policies.HeuristicPolicy(policies.zero_allocator(2), ctrl),
        },
        n_tests=3,
        group=3,
        horizon=30,
    )
    assert report.overall_mean("equal") < report.overall_mean("silent")


def test_divergence_sentinel(tmp_path):
    # spectral radius 3 with no delivered inputs: the state passes 1e12
    # within ~26 steps and the rollout aborts with a saturated cost
    cfg = tiny_config(tmp_path, **{"plants.a_values": [3.0, 3.0], "plants.init": "normal"})
    bundle = harness.build_scenario(cfg)
    policy = policies.HeuristicPolicy(
        policies.zero_allocator(2), policies.zero_controller(2, 3)
    )
    report = harness.evaluate(bundle, {"runaway": policy}, n_tests=1, group=2, horizon=60)
    assert report.diverged["runaway"].all()
    assert np.array_equal(
        report.costs["runaway"], np.full((1, 2), harness.DIVERGENCE_COST)
    )
    assert np.all(report.max_norms["runaway"] > harness.DIVERGENCE_LIMIT)


# Group 3 -------------------------------------------------------------------


def test_run_experiment_artifacts(tmp_path):
    cfg = tiny_config(tmp_path / "run")
    result = harness.run_experiment(cfg)
    out = tmp_path / "run"
    for name in ("config.txt", "manifest.txt", "evaluation.csv", "training_log_alloc_lqr.csv"):
        assert (out / name).exists()
    log_lines = (out / "training_log_alloc_lqr.csv").read_text().splitlines()
    assert log_lines[0].startswith("# seed = 5, config_hash = ")
    assert log_lines[1].split(",")[:2] == ["episode", "lagrangian"]
    assert len(log_lines) == 2 + cfg.train_episodes
    manifest = (out / "manifest.txt").read_text()
    assert "train.alloc_lqr.wall_seconds" in manifest
    assert "scenario.a_values" in manifest
    # checkpoints reload and reproduce the policy's actions
    agents = harness.load_agents(str(out / "checkpoints" / "alloc_lqr"))
    assert np.array_equal(
        agents.actor.get_flat(), result.trained["alloc_lqr"].actor.get_flat()
    )
    assert "alloc_lqr" in result.report.costs
    assert "equal" in result.report.costs


def test_rerun_bitwise_identical(tmp_path):
    cfg_a = tiny_config(tmp_path / "a")
    cfg_b = tiny_config(tmp_path / "b")
    harness.run_experiment(cfg_a)
    harness.run_experiment(cfg_b)
    for name in ("training_log_alloc_lqr.csv", "evaluation.csv", "config.txt"):
        bytes_a = (tmp_path / "a" / name).read_bytes()
        bytes_b = (tmp_path / "b" / name).read_bytes()
        if name == "config.txt":
            # config differs only in the out_dir line
            keep = lambda text: [
                ln for ln in text.decode().splitlines() if not ln.startswith("out_dir")
            ]
            assert keep(bytes_a) == keep(bytes_b)
        else:
            assert bytes_a == bytes_b


def test_evaluate_run_reproduces(tmp_path):
    cfg = tiny_config(tmp_path / "run")
    harness.run_experiment(cfg)
    first = (tmp_path / "run" / "evaluation.csv").read_bytes()
    harness.evaluate_run(str(tmp_path / "run"))
    assert (tmp_path / "run" / "evaluation.csv").read_bytes() == first


def test_save_load_separate_agents(tmp_path):
    cfg = tiny_config(
        tmp_path,
        **{
            "scenario": "linear_codesign",
            "train.approaches": ["codesign"],
            "train.pretrain_iters": 0,
        },
    )
    bundle = harness.build_scenario(cfg)
    result = harness.train_approach(bundle, "codesign", 0)
    path = str(tmp_path / "ckpt")
    harness.save_agents(path, result.agents)
    loaded = harness.load_agents(path)
    assert loaded.topology == "separate"
    assert np.array_equal(loaded.actor.get_flat(), result.agents.actor.get_flat())
    assert len(loaded.rc_actors) == 2
    for a, b in zip(loaded.rc_actors, result.agents.rc_actors):
        assert np.array_equal(a.get_flat(), b.get_flat())


def test_evaluate_run_rejects_mismatched_checkpoint(tmp_path):
    harness.run_experiment(tiny_config(tmp_path / "run"))
    config_path = tmp_path / "run" / "config.txt"
    text = config_path.read_text()
    actor = os.path.join(str(tmp_path / "run"), "checkpoints", "alloc_lqr", "actor.npz")
    cases = [
        ("plants.count = 2", "plants.count = 3", "obs_dim is 8", "needs 12"),
        ("alloc.total = 2", "alloc.total = 3", "head.alpha_total is 2.0", "needs 3.0"),
    ]
    for old, new, have, need in cases:
        assert old in text
        config_path.write_text(text.replace(old, new))
        with pytest.raises(ValueError) as info:
            harness.evaluate_run(str(tmp_path / "run"))
        assert str(info.value) == (
            f"checkpoint {actor}: {have}, but the scenario in config.txt {need}"
        )


# Group 4 -------------------------------------------------------------------


def run_cli(*args):
    # the child imports the same wcsrl as this process, installed or not
    src = os.path.dirname(os.path.dirname(wcsrl.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "wcsrl.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )


def tiny_cli_args(out_dir):
    args = []
    for key, value in TINY.items():
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        args += ["--set", f"{key}={value}"]
    return [
        "--scenario",
        "linear_power",
        "--seed",
        "2",
        "--out",
        str(out_dir),
        *args,
    ]


def test_cli_round_trip(tmp_path):
    out = tmp_path / "cli_run"
    proc = run_cli("train", *tiny_cli_args(out), "--quiet")
    assert proc.returncode == 0, proc.stderr
    assert (out / "evaluation.csv").exists()

    proc = run_cli("evaluate", "--run", str(out), "--quiet")
    assert proc.returncode == 0, proc.stderr

    proc = run_cli("baselines", *tiny_cli_args(out))
    assert proc.returncode == 0, proc.stderr
    assert "equal" in proc.stdout

    proc = run_cli("gradcheck")
    assert proc.returncode == 0, proc.stderr
    assert "ok" in proc.stdout


def test_cli_config_error(tmp_path):
    proc = run_cli("train", "--scenario", "not_a_scenario")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    proc = run_cli("train", "--set", "seed=abc")
    assert proc.returncode == 2
    proc = run_cli("evaluate", "--run", str(tmp_path / "missing"))
    assert proc.returncode in (1, 2)
