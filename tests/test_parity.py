"""Behaviour pinned across refactors of how actions are composed.

Tiny runs of every approach (alloc_lqr, codesign, codesign_joint,
control_only) on the linear and cart-pole scenarios, plus the scheduling
heuristics. For each approach the test pins the training log (Lagrangian,
violations and multipliers per episode) and the per-test mean evaluation
cost with mean actions and with sampled actions (`eval.stochastic`). The
heuristic policies pin their per-test mean costs.

The reference values in parity_reference.json were recorded with the
per-topology training branches and the per-worker providers that the
shared composition step replaced; the linear_codesign_entropy case with
one network per plant controller, before those were stacked into one:

    PYTHONPATH=src python tests/test_parity.py --write tests/parity_reference.json

Re-record only for a deliberate change of behaviour, and say which values
moved and why.
"""
from __future__ import annotations

import json
import math
import os
import sys

from wcsrl import config, harness

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "parity_reference.json")
REL_TOL = 1e-9

COMMON = {
    "train.episodes": 3,
    "train.horizon": 12,
    "train.workers": 2,
    "train.segment": 5,
    "train.warm_episodes": 1,
    "train.pretrain_iters": 5,
    "train.hidden": [8, 8],
    "eval.tests": 2,
    "eval.group": 2,
    "eval.horizon": 10,
}

CASES = {
    "linear_codesign": {
        "scenario": "linear_codesign",
        "seed": 4,
        "plants.count": 2,
        "train.approaches": ["alloc_lqr", "codesign", "codesign_joint", "control_only"],
    },
    "cartpole_codesign": {
        "scenario": "cartpole_codesign",
        "seed": 2,
        "plants.count": 2,
        "train.approaches": ["alloc_lqr", "codesign", "codesign_joint", "control_only"],
    },
    "linear_power": {
        "scenario": "linear_power",
        "seed": 6,
        "plants.count": 3,
        "train.approaches": ["alloc_lqr"],
    },
    # the entropy term of the per-plant and access-point updates, at m = 3
    "linear_codesign_entropy": {
        "scenario": "linear_codesign",
        "seed": 8,
        "plants.count": 3,
        "train.entropy_coef": 0.01,
        "train.approaches": ["codesign", "control_only"],
    },
}


def case_values(overrides: dict) -> dict:
    cfg = config.load_config(overrides={**COMMON, **overrides})
    bundle = harness.build_scenario(cfg)
    out: dict = {}
    for k, approach in enumerate(cfg.train_approaches):
        result = harness.train_approach(bundle, approach, k)
        out[f"{approach}.train_log"] = [
            [row.lagrangian, *map(float, row.violations), *map(float, row.multipliers)]
            for row in result.log
        ]
        for stochastic in (False, True):
            policy = harness.eval_policy_for(bundle, approach, result.agents, stochastic)
            report = harness.evaluate(bundle, {approach: policy})
            mode = "stochastic" if stochastic else "mean"
            out[f"{approach}.eval_{mode}"] = report.test_means(approach).tolist()
    report = harness.evaluate(bundle, harness.baseline_policies(bundle))
    for name in report.costs:
        out[f"{name}.eval_heuristic"] = report.test_means(name).tolist()
    return out


def all_values() -> dict:
    return {name: case_values(overrides) for name, overrides in CASES.items()}


def _flat(values) -> list:
    if isinstance(values, list):
        return [x for v in values for x in _flat(v)]
    return [values]


def test_matches_recorded_behaviour():
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    got = all_values()
    assert sorted(got) == sorted(reference)
    mismatches = []
    for case, values in reference.items():
        assert sorted(got[case]) == sorted(values), case
        for key, ref in values.items():
            new, old = _flat(got[case][key]), _flat(ref)
            assert len(new) == len(old), f"{case} {key}"
            for i, (a, b) in enumerate(zip(new, old)):
                if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0):
                    mismatches.append(f"{case} {key}[{i}]: {a!r} != recorded {b!r}")
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        raise SystemExit("usage: python tests/test_parity.py --write PATH")
    with open(sys.argv[2], "w") as fh:
        json.dump(all_values(), fh, indent=1)
        fh.write("\n")
