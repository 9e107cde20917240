"""The traced boundaries of the wcsrl modules and the per-layer metrics
derived from them.

Each boundary lists every place its functions are looked up by their
callers: a module global (e.g. `environment.snr`, which `environment`
imported by name) or a class attribute (e.g. `WirelessControlEnv.step`).
Patching the definition alone would miss the by-name imports.
"""
from __future__ import annotations

import os

from wcsrl import baselines, config, dynamics, environment, harness, learner, neuralnet, policies
from wcsrl.environment import WirelessControlEnv
from wcsrl.neuralnet import MLP, SGD, GaussianActor, RMSProp
from wcsrl.policies import AgentPolicy, HeuristicPolicy
from wcsrl.wireless import ChannelModel

# The benchmark's own frame around one timed operation; its self time is
# the operation's time outside every wrapped boundary.
OP = "bench.op"
EPISODE = "learner.episode"
COARSE = (OP, "learner.train", "learner.pretrain_allocation", "harness.rollout", "harness.build_scenario")


def _rows(x) -> int:
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def _dense_macs(mlp: MLP) -> int:
    return sum(a * b for a, b in zip(mlp.sizes[:-1], mlp.sizes[1:]))


def _after_forward(counters: dict, args: tuple, kwargs: dict, result) -> None:
    mlp, x = args[0], args[1]
    rows = _rows(x)
    counters["neuralnet.forward.rows"] = counters.get("neuralnet.forward.rows", 0) + rows
    counters["neuralnet.forward.flops"] = (
        counters.get("neuralnet.forward.flops", 0) + 2 * rows * _dense_macs(mlp)
    )


def _after_backward(counters: dict, args: tuple, kwargs: dict, result) -> None:
    mlp, grad_out = args[0], args[2]
    counters["neuralnet.backward.flops"] = (
        counters.get("neuralnet.backward.flops", 0) + 2 * _rows(grad_out) * _dense_macs(mlp)
    )


def _after_step(counters: dict, args: tuple, kwargs: dict, result) -> None:
    delivered = result.delivered
    counters["wireless.delivered"] = counters.get("wireless.delivered", 0) + int(delivered.sum())
    counters["wireless.attempted"] = counters.get("wireless.attempted", 0) + delivered.size


def _after_file(counters: dict, args: tuple, kwargs: dict, result) -> None:
    """Bytes of the artifact named by the first argument (written or read)."""
    counters["harness.artifact_bytes"] = (
        counters.get("harness.artifact_bytes", 0) + os.path.getsize(args[0])
    )


# boundary name -> [(owner, attribute, after hook)]
BOUNDARIES: dict[str, list[tuple]] = {
    "environment.step": [(WirelessControlEnv, "step", _after_step)],
    "environment.observe": [(WirelessControlEnv, "observe", None)],
    "environment.reset": [(WirelessControlEnv, "reset", None)],
    "wireless.sample_gains": [(ChannelModel, "sample_gains", None)],
    "wireless.snr": [(environment, "snr", None)],
    "wireless.delivery_probability": [(environment, "delivery_probability", None)],
    "dynamics.cartpole_step": [(dynamics, "cartpole_step", None)],
    "baselines.lqr_control": [(baselines, "lqr_control", None)],
    # The per-step heuristics. equal_power is left out: it runs once when an
    # equal allocator is built, and the allocator then returns a cached array.
    "baselines.allocators": [
        (baselines, "round_robin", None),
        (baselines, "channel_aware", None),
        (baselines, "control_aware", None),
        (learner, "control_aware", None),
    ],
    "policies.act": [(HeuristicPolicy, "act", None), (AgentPolicy, "act", None)],
    "neuralnet.forward": [(MLP, "forward", _after_forward)],
    "neuralnet.backward": [(MLP, "backward", _after_backward)],
    "neuralnet.sample": [(GaussianActor, "sample", None)],
    "neuralnet.optimizer_step": [
        (RMSProp, "step", None),
        (SGD, "step", None),
        (learner, "clip_global_norm", None),
    ],
    "neuralnet.checkpoint_io": [
        (neuralnet, "save_actor", _after_file),
        (neuralnet, "save_critic", _after_file),
        (neuralnet, "load_actor", _after_file),
        (neuralnet, "load_critic", _after_file),
    ],
    "learner.update": [(learner.SegmentAgent, "update", None)],
    "learner.pretrain_allocation": [(learner, "pretrain_allocation", None)],
    "learner.dual_update": [(learner, "dual_update", None)],
    "learner.obs_plumbing": [
        (learner, "stack_observations", None),
        (learner, "controller_slice", None),
        (policies, "controller_slice", None),
    ],
    "learner.train": [(learner, "train", None)],
    "harness.rollout": [(harness, "rollout", None)],
    "harness.build_scenario": [(harness, "build_scenario", None)],
    "harness.artifacts": [
        (harness, "write_training_log", _after_file),
        (harness, "write_eval_csv", _after_file),
        (harness, "save_agents", None),
        (harness, "load_agents", None),
        (config, "write_manifest", _after_file),
    ],
    "config.load_config": [(config, "load_config", None)],
}


def targets() -> list[tuple]:
    """(owner, attribute, boundary name, after hook) for Tracer.installed."""
    return [(owner, attr, name, after) for name, items in BOUNDARIES.items() for owner, attr, after in items]


# (name, unit, better) of every per-layer metric, in report order.
DERIVED = [
    ("bench.unattributed_s", "s", "lower"),
    ("wireless.delivery_ratio", "ratio", "higher"),
    ("neuralnet.forward.rows_per_call", "rows", "higher"),
    ("neuralnet.forward.flops", "flop", "lower"),
    ("neuralnet.backward.flops", "flop", "lower"),
    ("harness.artifact_bytes", "B", "lower"),
    ("trace.env_steps_per_s", "1/s", "higher"),
    ("trace.untraced_env_steps_per_s", "1/s", "higher"),
    ("trace.slowdown", "ratio", "lower"),
]


def metric_specs() -> list[tuple[str, str, str]]:
    specs = []
    for name in BOUNDARIES:
        specs += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.self_s", "s", "lower"),
            (f"{name}.us_per_call_p50", "us", "lower"),
        ]
    return specs + DERIVED


def layer_metrics(summary: dict, traced_rate: float, untraced_rate: float) -> dict:
    """Per-layer metrics from Tracer.summary() of the traced operation."""
    bounds = summary["boundaries"]
    counters = summary["counters"]
    values: dict[str, float] = {}
    for name in BOUNDARIES:
        b = bounds.get(name, {"calls": 0, "self_s": 0.0, "us_per_call_p50": 0.0})
        values[f"{name}.calls"] = b["calls"]
        values[f"{name}.self_s"] = b["self_s"]
        values[f"{name}.us_per_call_p50"] = b["us_per_call_p50"]
    forward_calls = values["neuralnet.forward.calls"]
    attempted = counters.get("wireless.attempted", 0)
    values.update(
        {
            "bench.unattributed_s": bounds[OP]["self_s"],
            "wireless.delivery_ratio": counters.get("wireless.delivered", 0) / attempted if attempted else 0.0,
            "neuralnet.forward.rows_per_call": (
                counters.get("neuralnet.forward.rows", 0) / forward_calls if forward_calls else 0.0
            ),
            "neuralnet.forward.flops": counters.get("neuralnet.forward.flops", 0),
            "neuralnet.backward.flops": counters.get("neuralnet.backward.flops", 0),
            "harness.artifact_bytes": counters.get("harness.artifact_bytes", 0),
            "trace.env_steps_per_s": traced_rate,
            "trace.untraced_env_steps_per_s": untraced_rate,
            "trace.slowdown": untraced_rate / traced_rate,
        }
    )
    units = {name: unit for name, unit, _ in metric_specs()}
    return {name: {"value": values[name], "unit": units[name]} for name in units}
