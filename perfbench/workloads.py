"""The three benchmark workloads: the resolved config each one builds from
the workload seed, its set-up, its timed operation and the correctness
checks every operation must pass.

train_power     linear_power / alloc_lqr at the shape of acceptance gate 7:
                single joint actor, Riccati control provider, pretraining on.
train_cartpole  cartpole_codesign / codesign: the only nonlinear plant path
                and the only path with m+1 actors and critics per segment;
                Riccati control is bypassed.
eval_power      harness.evaluate_run (what `wcsrl evaluate` runs) on a short
                linear_power training run at the preset m=10: 6 policies x
                100 cells x 120 steps, batch-1 mean actions, no learning.
"""
from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from wcsrl import config, harness
from wcsrl.learner import TrainingDivergedError

# The workload seed picks the config seed modulo this; references.json
# holds a reference for every config seed.
CONFIG_SEEDS = 16

# Relative tolerance against the stored references. Float reassociation
# (another BLAS kernel, a batched einsum) moves these values by far less.
REL_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    approach: Optional[str]  # what a training operation trains
    overrides: dict
    setup_repeats: int


WORKLOADS = {
    "train_power": Workload(
        "train_power",
        "train",
        "alloc_lqr",
        {
            "scenario": "linear_power",
            "plants.count": 4,
            "channel.area_half_width": 1.75,
            "train.episodes": 40,
            "train.horizon": 60,
            "train.workers": 8,
            "train.policy_lr": 2e-4,
            "train.value_lr": 5e-3,
            "train.init_std": 0.5,
        },
        setup_repeats=3,
    ),
    "train_cartpole": Workload(
        "train_cartpole",
        "train",
        "codesign",
        {
            "scenario": "cartpole_codesign",
            "plants.count": 4,
            "train.episodes": 24,
            "train.horizon": 80,
            "train.workers": 8,
            "train.warm_episodes": 8,
        },
        setup_repeats=3,
    ),
    # Set-up trains and evaluates once (about as long as one operation), so
    # it repeats only twice.
    "eval_power": Workload(
        "eval_power",
        "eval",
        None,
        {"scenario": "linear_power", "train.episodes": 2},
        setup_repeats=2,
    ),
}


def config_seed(seed: int) -> int:
    return seed % CONFIG_SEEDS


def config_overrides(workload: Workload, seed: int, extra: Optional[dict] = None) -> dict:
    """Config keys handed to load_config: a pure function of the workload seed."""
    overrides = dict(workload.overrides)
    overrides["seed"] = config_seed(seed)
    overrides.update(extra or {})
    return overrides


@dataclass
class Prepared:
    cfg: config.ExperimentConfig
    bundle: Optional[harness.ScenarioBundle] = None
    run_dir: Optional[str] = None
    expected_csv: Optional[bytes] = None


def setup(workload: Workload, overrides: dict, run_dir: str) -> Prepared:
    """Everything before the timed operation. eval_power trains into run_dir
    the way `wcsrl train` does, which also writes the evaluation table the
    operation must reproduce."""
    if workload.kind == "train":
        cfg = config.load_config(overrides=overrides)
        return Prepared(cfg, bundle=harness.build_scenario(cfg))
    cfg = config.load_config(overrides={**overrides, "out_dir": run_dir})
    harness.run_experiment(cfg)
    with open(os.path.join(run_dir, "evaluation.csv"), "rb") as fh:
        return Prepared(cfg, run_dir=run_dir, expected_csv=fh.read())


@dataclass
class OpResult:
    env_steps: int
    wall_s: float
    episode_s: list
    failures: list = field(default_factory=list)
    # training: log_values of the log; evaluation: mean cost per policy
    outputs: object = None
    episode_stamps: list = field(default_factory=list)


def _rel_close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref)


def log_values(log: list) -> list:
    """The training log as plain floats, for exact comparison between repeats."""
    return [
        (row.lagrangian, *map(float, row.violations), *map(float, row.multipliers))
        for row in log
    ]


def run_train_op(workload: Workload, prep: Prepared, ref: Optional[float]) -> OpResult:
    """One harness.train_approach call. Episode times are the gaps between
    the public progress callbacks, so episode 0 (which also holds agent
    construction and pretraining) yields no sample."""
    cfg = prep.cfg
    stamps: list[float] = []
    failures: list[str] = []
    log = None
    t0 = time.perf_counter()
    try:
        result = harness.train_approach(
            prep.bundle, workload.approach, 0, progress=lambda row: stamps.append(time.perf_counter())
        )
        log = result.log
    except TrainingDivergedError as exc:
        failures.append(f"training diverged at episode {exc.episode}: {exc}")
    wall = time.perf_counter() - t0
    if log is not None:
        failures += check_training_log(log, cfg.train_episodes, ref)
    return OpResult(
        env_steps=cfg.train_episodes * cfg.train_horizon * cfg.train_workers,
        wall_s=wall,
        episode_s=list(np.diff(stamps)),
        failures=failures,
        outputs=None if log is None else log_values(log),
        episode_stamps=stamps,
    )


def check_training_log(log: list, episodes: int, ref: Optional[float]) -> list:
    failures = []
    if len(log) != episodes:
        failures.append(f"log has {len(log)} episodes, expected {episodes}")
    for row in log:
        if not (math.isfinite(row.lagrangian) and np.isfinite(row.multipliers).all()):
            failures.append(f"non-finite Lagrangian or multiplier at episode {row.episode}")
            break
    if ref is None:
        failures.append("no stored reference for this config seed")
    elif log and not _rel_close(log[0].lagrangian, ref):
        failures.append(f"episode-0 Lagrangian {log[0].lagrangian!r} != reference {ref!r}")
    return failures


@contextmanager
def rollout_clock(durations: list):
    """Time each harness.rollout call (one evaluation episode): evaluate_run
    has no progress callback. Costs two clock reads per 120-step rollout."""
    original = vars(harness)["rollout"]

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - t0)

    harness.rollout = timed
    try:
        yield
    finally:
        harness.rollout = original


def run_eval_op(workload: Workload, prep: Prepared, ref: Optional[dict]) -> OpResult:
    """One harness.evaluate_run call on the set-up's run directory."""
    cfg = prep.cfg
    episodes: list[float] = []
    t0 = time.perf_counter()
    with rollout_clock(episodes):
        result = harness.evaluate_run(prep.run_dir)
    wall = time.perf_counter() - t0
    report = result.report
    means = {name: report.overall_mean(name) for name in report.costs}
    failures = []
    with open(os.path.join(prep.run_dir, "evaluation.csv"), "rb") as fh:
        if fh.read() != prep.expected_csv:
            failures.append("evaluation.csv differs from the one `train` wrote")
    n_diverged = sum(int(d.sum()) for d in report.diverged.values())
    if n_diverged:
        failures.append(f"{n_diverged} evaluation cells diverged")
    if ref is None:
        failures.append("no stored reference for this config seed")
    else:
        if sorted(ref) != sorted(means):
            failures.append(f"policies {sorted(means)} != reference {sorted(ref)}")
        for name in sorted(set(ref) & set(means)):
            if not _rel_close(means[name], ref[name]):
                failures.append(f"{name} mean cost {means[name]!r} != reference {ref[name]!r}")
    return OpResult(
        env_steps=len(report.costs) * cfg.eval_tests * cfg.eval_group * cfg.eval_horizon,
        wall_s=wall,
        episode_s=episodes,
        failures=failures,
        outputs=means,
    )


def run_op(workload: Workload, prep: Prepared, ref) -> OpResult:
    run = run_train_op if workload.kind == "train" else run_eval_op
    return run(workload, prep, ref)
