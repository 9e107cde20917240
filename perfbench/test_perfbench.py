"""Tests for the benchmark's own code (not for wcsrl):

    PYTHONPATH=src python -m pytest perfbench -q

1. self-time arithmetic on a synthetic span tree
2. the wrappers are transparent and every patched attribute is restored
3. workload inputs are a pure function of the seed argument
4. the bypass counts hold on every workload
5. BENCHMARK.json and references.json agree with the code
"""
from __future__ import annotations

import json
import os

import pytest

import run

run.import_program()

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402
from wcsrl import config, harness  # noqa: E402

# Shrunk versions of each workload, small enough for a test run.
TINY = {
    "train_power": {"train.episodes": 2, "train.horizon": 10, "train.workers": 2,
                    "train.pretrain_iters": 5, "train.hidden": [8, 8]},
    "train_cartpole": {"train.episodes": 2, "train.warm_episodes": 1, "train.horizon": 10,
                       "train.workers": 2, "train.hidden": [8, 8]},
    "eval_power": {"plants.count": 3, "train.episodes": 1, "train.horizon": 10, "train.workers": 2,
                   "train.pretrain_iters": 5, "train.hidden": [8, 8], "eval.tests": 2,
                   "eval.group": 2, "eval.horizon": 10},
}


def tiny_setup(name, tmp_path, seed=3):
    workload = wl.WORKLOADS[name]
    overrides = wl.config_overrides(workload, seed, TINY[name])
    return workload, wl.setup(workload, overrides, str(tmp_path / name))


def test_self_time_on_synthetic_span_tree():
    # op [0, 10] holds a [1, 4] (holding b [2, 3]), a [5, 6] and c [7, 9.5]
    times = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.5, 10.0])
    tracer = Tracer(coarse=("op", "c"), clock=lambda: next(times))
    for event in ("op", "a", "b", -1, -1, "a", -1, "c", -1, -1):
        tracer.exit() if event == -1 else tracer.enter(event)
    got = tracer.summary()["boundaries"]
    assert {n: (b["calls"], b["total_s"], b["self_s"]) for n, b in got.items()} == {
        "op": (1, 10.0, 3.5),
        "a": (2, 4.0, 3.0),
        "b": (1, 1.0, 1.0),
        "c": (1, 2.5, 2.5),
    }
    assert got["a"]["us_per_call_p50"] == pytest.approx(2e6)
    spans = {s["name"]: s for s in tracer.summary()["spans"]}
    assert set(spans) == {"op", "c"}
    assert spans["c"]["parent"] == spans["op"]["id"] and spans["op"]["parent"] is None
    assert (spans["c"]["start"], spans["c"]["end"]) == (7.0, 9.5)


def test_wrappers_transparent_and_restored(tmp_path):
    workload, prep = tiny_setup("eval_power", tmp_path)
    csv_path = os.path.join(prep.run_dir, "evaluation.csv")
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in layers.targets()}
    rollout = vars(harness)["rollout"]

    plain = wl.run_op(workload, prep, None)
    with open(csv_path, "rb") as fh:
        plain_csv = fh.read()
    traced, tracer = run.trace_op(workload, prep, None)
    with open(csv_path, "rb") as fh:
        traced_csv = fh.read()

    assert plain_csv == traced_csv == prep.expected_csv
    assert traced.outputs == plain.outputs
    assert traced.failures == plain.failures == ["no stored reference for this config seed"]
    assert tracer.stats["environment.step"].calls == plain.env_steps
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    assert vars(harness)["rollout"] is rollout


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_pure_function_of_seed(name):
    workload = wl.WORKLOADS[name]

    def cfg_hash(seed):
        overrides = {**wl.config_overrides(workload, seed), "out_dir": "unused"}
        return config.config_hash(config.load_config(overrides=overrides))

    assert wl.config_overrides(workload, 5) == wl.config_overrides(workload, 5)
    assert cfg_hash(5) == cfg_hash(5) == cfg_hash(5 + wl.CONFIG_SEEDS)
    assert cfg_hash(5) != cfg_hash(6)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_bypass_counts(name, tmp_path):
    workload, prep = tiny_setup(name, tmp_path)
    op, tracer = run.trace_op(workload, prep, None)
    calls = {n: s.calls for n, s in tracer.stats.items()}
    # boundaries each workload must bypass, and ones it must reach
    bypassed = {
        "train_power": ["dynamics.cartpole_step", "policies.act", "neuralnet.checkpoint_io"],
        "train_cartpole": ["baselines.lqr_control", "baselines.allocators", "learner.pretrain_allocation"],
        "eval_power": ["dynamics.cartpole_step", "learner.update", "learner.train", "learner.obs_plumbing",
                       "learner.dual_update", "neuralnet.sample", "neuralnet.backward"],
    }[name]
    reached = {
        "train_power": ["baselines.lqr_control", "learner.update", "learner.pretrain_allocation"],
        "train_cartpole": ["dynamics.cartpole_step", "learner.update", "learner.obs_plumbing"],
        "eval_power": ["baselines.lqr_control", "policies.act", "harness.rollout", "config.load_config"],
    }[name]
    assert all(calls.get(b, 0) == 0 for b in bypassed), calls
    assert all(calls.get(b, 0) > 0 for b in reached), calls
    # training also steps the environment while gathering pretraining data
    assert calls["environment.step"] == op.env_steps or workload.kind == "train"


def test_declared_metrics_and_references_match_code():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES) == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.metric_specs()
    refs = run.load_references()
    for name in run.WORKLOAD_NAMES:
        assert sorted(refs[name], key=int) == [str(s) for s in range(wl.CONFIG_SEEDS)]
