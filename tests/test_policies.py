"""Action sources on batched observations.

Proves:
  1.  Each heuristic allocator and the Riccati controller give, row by row,
      bitwise the same output on a batch as on one observation
  2.  The Riccati controller matches the per-plant -K_i x_i oracle bitwise
  3.  A batch of observations composes into the per-row actions, with the
      fixed sources broadcast over the batch
"""
from __future__ import annotations

import numpy as np
import pytest

from wcsrl import baselines, policies
from wcsrl.environment import Observation

M, P, Q = 5, 3, 2
BATCH = (2, 3)


def batched_obs(seed: int) -> Observation:
    rng = np.random.default_rng(seed)
    channel = rng.exponential(size=BATCH + (M,))
    channel[0, 0, 1:3] = channel[0, 0, 0]  # ties go to the lower index
    return Observation(channel=channel, plant=rng.standard_normal(BATCH + (M, P)))


def rows(obs: Observation):
    for idx in np.ndindex(*BATCH):
        yield idx, Observation(channel=obs.channel[idx], plant=obs.plant[idx])


def sources(seed: int) -> dict:
    gains = list(np.random.default_rng(seed).standard_normal((M, Q, P)))
    out = {
        name: policies.make_allocator(name, M, 2, 3.0)
        for name in ("equal", "zero", "round_robin", "channel_aware", "control_aware")
    }
    out["riccati"] = policies.riccati_controller(gains)
    out["riccati_clipped"] = policies.riccati_controller(gains, -0.5, 0.5)
    return out


@pytest.mark.parametrize("name", list(sources(0)))
def test_batched_source_matches_single_rows(name):
    obs = batched_obs(1)
    source = sources(0)[name]
    for t in range(3):
        batch_out = source(obs, t)
        for idx, single in rows(obs):
            one = source(single, t)
            # sources that ignore the observation return one row for all
            got = batch_out if batch_out.shape == one.shape else batch_out[idx]
            assert np.array_equal(got, one), (name, t, idx)


def test_riccati_matches_per_plant_oracle():
    obs = batched_obs(2)
    gains = np.random.default_rng(3).standard_normal((M, Q, P))
    u = policies.riccati_controller(list(gains))(obs, 0)
    assert u.shape == BATCH + (M, Q)
    for idx in np.ndindex(*BATCH):
        oracle = np.stack([-gains[i] @ obs.plant[idx][i] for i in range(M)])
        assert np.array_equal(u[idx], oracle)
    x = obs.plant[0, 0, 0]
    assert np.array_equal(baselines.lqr_control(gains[0], x), -gains[0] @ x)


def test_composed_batch_matches_rows():
    obs = batched_obs(4)
    src = sources(5)
    combos = [
        (src["round_robin"], src["riccati"]),
        (src["control_aware"], src["riccati_clipped"]),
        (src["equal"], policies.zero_controller(M, Q)),
    ]
    for allocator, controller in combos:
        fixed = policies.ActionSources(allocator=allocator, controller=controller)
        action = policies.compose_action(fixed, obs, 4)
        assert action.alpha.shape == BATCH + (M,) and action.u.shape == BATCH + (M, Q)
        for idx, single in rows(obs):
            one = policies.compose_action(fixed, single, 4)
            assert np.array_equal(action.alpha[idx], one.alpha)
            assert np.array_equal(action.u[idx], one.u)


def test_missing_half_raises():
    obs = batched_obs(6)
    with pytest.raises(ValueError, match="no control input"):
        policies.compose_action(policies.ActionSources(allocator=sources(0)["equal"]), obs, 0)
    with pytest.raises(ValueError, match="no allocation"):
        policies.compose_action(policies.ActionSources(controller=sources(0)["riccati"]), obs, 0)
