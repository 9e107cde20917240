"""Training loop tests: returns, advantages, dual ascent, update mechanics.

Proves:
 Group 1: Return and advantage arithmetic
   1.  Recursive cost-to-go matches hand values and the brute-force sum
   2.  Bootstrap enters with one discount factor
   3.  Advantage subtracts the critic values
 Group 2: Dual ascent
   4.  Projected multiplier update by hand, clipping at zero
   5.  Dual descent on min theta^2 s.t. 1 - theta <= 0 reaches (2, 1)
   6.  DualState keeps history and never goes negative
 Group 3: Update mechanics
   7.  A positive-advantage action loses log-probability after one step
   8.  The value step moves predictions toward the returns
   9.  Pooled updates are invariant to worker ordering
 Group 4: End-to-end training loop
  10.  Tiny run completes, logs every episode, multipliers stay feasible
  11.  Bitwise repeatable from the seed
  12.  Separate topology trains allocation and per-plant controllers
  13.  Warm episodes freeze the allocation actor, and are rejected where
       no allocation actor would sit out
  14.  Lagrangian ceiling raises TrainingDivergedError, and a non-finite
       plant state raises it at the step it appears, naming the worker
  15.  The per-step power share falls back to the plant count without a budget
"""
from __future__ import annotations

import numpy as np
import pytest

from wcsrl.dynamics import CostWeights, PlantModel, unstable_drift
from wcsrl.environment import ConstraintSpec, WirelessControlEnv
from wcsrl.learner import (
    SegmentAgent,
    TrainingDivergedError,
    TrainSettings,
    DualState,
    compute_advantage,
    compute_cost_to_go,
    dual_descent,
    dual_update,
    per_step_power,
    train,
)
from wcsrl.neuralnet import GaussianActor, HeadSpec, ValueNet
from wcsrl.wireless import ChannelModel


def env_factory_for(m=2, gamma=0.99, constraint="region", a_mat=None):
    plants = [
        PlantModel(
            kind="linear",
            a_mat=unstable_drift(1.05) if a_mat is None else a_mat,
            b_mat=np.eye(3),
            process_noise_cov=0.05 * np.eye(3),
        )
        for _ in range(m)
    ]
    channel = ChannelModel(distances=np.linspace(1.0, 1.5, m))
    if constraint == "region":
        spec = ConstraintSpec(kind="region", region_half_width=10.0, region_budget=5.0)
    else:
        spec = ConstraintSpec(kind="sum_power", power_budget=25.0 * m)

    def factory(rng):
        return WirelessControlEnv(
            plants=plants,
            channel=channel,
            weights=CostWeights(q=np.eye(3), r=np.eye(3)),
            rng=rng,
            gamma=gamma,
            constraint=spec,
            obs_noise_cov=np.full(m * 4, 0.5),
        )

    return factory


# Group 1 -------------------------------------------------------------------


def test_cost_to_go_hand_values():
    returns = compute_cost_to_go(np.array([3.0, 2.0, 1.0]), np.array(0.0), 0.5)
    assert np.allclose(returns, [4.25, 2.5, 1.0], atol=1e-15)
    # gamma = 0 collapses to the per-step costs
    returns0 = compute_cost_to_go(np.array([3.0, 2.0, 1.0]), np.array(5.0), 0.0)
    assert np.allclose(returns0, [3.0, 2.0, 1.0], atol=1e-15)


def test_cost_to_go_brute_force():
    rng = np.random.Generator(np.random.PCG64(3))
    for gamma in (0.0, 0.5, 0.99, 1.0):
        for _ in range(25):
            length = int(rng.integers(1, 21))
            costs = rng.standard_normal(length)
            boot = rng.standard_normal()
            got = compute_cost_to_go(costs, np.array(boot), gamma)
            for t in range(length):
                want = sum(gamma ** (k - t) * costs[k] for k in range(t, length))
                want += gamma ** (length - t) * boot
                assert abs(got[t] - want) < 1e-12


def test_cost_to_go_bootstrap_weighting():
    returns = compute_cost_to_go(np.array([1.0, 1.0]), np.array(10.0), 0.9)
    assert returns[1] == pytest.approx(1.0 + 0.9 * 10.0, abs=1e-15)
    assert returns[0] == pytest.approx(1.0 + 0.9 * returns[1], abs=1e-15)
    # worker-batched form: columns are independent workers
    batched = compute_cost_to_go(
        np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([10.0, 0.0]), 0.9
    )
    assert np.allclose(batched[:, 0], returns, atol=1e-15)
    assert np.allclose(batched[:, 1], [2.0 + 0.9 * 2.0, 2.0], atol=1e-15)


def test_advantage():
    adv = compute_advantage(np.array([3.0, 1.0]), np.array([2.5, 2.0]))
    assert np.allclose(adv, [0.5, -1.0], atol=1e-15)


# Group 2 -------------------------------------------------------------------


def test_dual_update_projection():
    lam = dual_update(np.array([1.0]), np.array([-30.0]), 0.1)
    assert lam[0] == 0.0
    lam = dual_update(np.array([0.0, 1.0]), np.array([2.0, -0.5]), 0.1)
    assert np.allclose(lam, [0.2, 0.95], atol=1e-15)


def test_dual_descent_analytic_problem():
    # min theta^2 subject to 1 - theta <= 0; optimal multiplier 2, optimum 1
    lam, theta = dual_descent(
        primal_minimizer=lambda lam: lam[0] / 2.0,
        constraint_evaluator=lambda theta: 1.0 - theta,
        lam0=np.zeros(1),
        step_size=0.05,
        iterations=500,
    )
    assert abs(lam[0] - 2.0) < 0.05
    assert abs(theta - 1.0) < 0.05


def test_dual_state():
    state = DualState(multipliers=np.zeros(2), step_size=0.5)
    state.update(np.array([1.0, -4.0]))
    assert np.allclose(state.multipliers, [0.5, 0.0], atol=1e-15)
    state.update(np.array([1.0, 1.0]))
    assert np.allclose(state.multipliers, [1.0, 0.5], atol=1e-15)
    assert len(state.history) == 2


# Group 3 -------------------------------------------------------------------


def test_policy_step_reduces_positive_advantage_log_prob():
    rng = np.random.Generator(np.random.PCG64(11))
    head = HeadSpec(n_plants=2, alloc="softplus")
    actor = GaussianActor(4, head, (8,), rng)
    obs = rng.standard_normal((1, 4))
    raw = actor.net.forward(obs)[0] + 0.5
    before = float(actor.log_prob(obs, raw)[0])
    grad = actor.grad_weighted_log_prob(obs, raw, np.array([1.0]))
    actor.set_flat(actor.get_flat() - 1e-3 * grad)
    after = float(actor.log_prob(obs, raw)[0])
    assert after < before


def test_value_step_moves_toward_returns():
    rng = np.random.Generator(np.random.PCG64(13))
    settings = TrainSettings(episodes=1, horizon=5, n_workers=2, optimizer="sgd", value_lr=1e-2)
    head = HeadSpec(n_plants=2, alloc="softplus")
    actor = GaussianActor(4, head, (8,), rng)
    critic = ValueNet(4, (8,), rng)
    agent = SegmentAgent(actor, critic, settings)
    obs = rng.standard_normal((2, 4))
    raw = actor.sample(obs, rng).raw
    costs = np.array([5.0, 5.0])
    before = critic.values(obs)
    err_before = np.abs(before - 5.0).sum()
    agent.record(obs, raw, costs)
    agent.update(None, at_end=True, episode=0)
    err_after = np.abs(critic.values(obs) - 5.0).sum()
    assert err_after < err_before


def test_pooled_update_worker_order_invariance():
    def build(seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        head = HeadSpec(n_plants=2, alloc="simplex", alpha_total=2.0)
        actor = GaussianActor(4, head, (8,), rng)
        critic = ValueNet(4, (8,), rng)
        return actor, critic

    settings = TrainSettings(episodes=1, horizon=5, n_workers=4, optimizer="sgd")
    perm = np.array([2, 0, 3, 1])
    rng = np.random.Generator(np.random.PCG64(17))
    steps = [
        (rng.standard_normal((4, 4)), rng.standard_normal((4, 3)), rng.standard_normal(4))
        for _ in range(3)
    ]
    actor_a, critic_a = build(5)
    actor_b, critic_b = build(5)
    agent_a = SegmentAgent(actor_a, critic_a, settings)
    agent_b = SegmentAgent(actor_b, critic_b, settings)
    for obs, raw, costs in steps:
        agent_a.record(obs, raw, costs)
        agent_b.record(obs[perm], raw[perm], costs[perm])
    agent_a.update(None, at_end=True, episode=0)
    agent_b.update(None, at_end=True, episode=0)
    assert np.allclose(actor_a.get_flat(), actor_b.get_flat(), atol=1e-10)
    assert np.allclose(critic_a.get_flat(), critic_b.get_flat(), atol=1e-10)


# Group 4 -------------------------------------------------------------------


def small_settings(**kwargs):
    base = dict(
        episodes=3,
        horizon=12,
        n_workers=2,
        seg_len=5,
        policy_lr=1e-3,
        value_lr=1e-3,
        dual_lr=1e-3,
        topology="single",
        learn_alloc=True,
        learn_control=False,
        alloc_head="simplex",
        alpha_total=2.0,
        hidden=(16, 16),
    )
    base.update(kwargs)
    return TrainSettings(**base)


def test_train_smoke_and_log():
    result = train(env_factory_for(), small_settings(), seed=101)
    assert len(result.log) == 3
    assert result.agents.actor is not None
    assert result.agents.topology == "single"
    for row in result.log:
        assert np.isfinite(row.lagrangian)
        assert row.violations.shape == (2,)
        assert np.all(row.multipliers >= 0)


def test_train_bitwise_repeatable():
    r1 = train(env_factory_for(), small_settings(), seed=55)
    r2 = train(env_factory_for(), small_settings(), seed=55)
    assert np.array_equal(r1.agents.actor.get_flat(), r2.agents.actor.get_flat())
    assert [row.lagrangian for row in r1.log] == [row.lagrangian for row in r2.log]
    r3 = train(env_factory_for(), small_settings(), seed=56)
    assert not np.array_equal(r1.agents.actor.get_flat(), r3.agents.actor.get_flat())


def test_train_separate_topology():
    settings = small_settings(
        topology="separate",
        learn_control=True,
        alloc_head="softplus",
        alpha_total=None,
    )
    result = train(env_factory_for(constraint="sum_power"), settings, seed=7)
    assert result.agents.actor is not None
    assert len(result.agents.rc_actors) == 2
    assert len(result.agents.rc_critics) == 2
    for actor in result.agents.rc_actors:
        assert np.isfinite(actor.get_flat()).all()
        # controller actors see [channel_i, state_i, alpha_i]
        assert actor.net.sizes[0] == 1 + 3 + 1


def test_warm_episodes_freeze_allocation_actor():
    common = dict(
        topology="separate",
        learn_control=True,
        alloc_head="softplus",
        alpha_total=None,
    )
    all_warm = train(
        env_factory_for(constraint="sum_power"),
        small_settings(episodes=2, warm_episodes=2, **common),
        seed=9,
    )
    one_ep = train(
        env_factory_for(constraint="sum_power"),
        small_settings(episodes=1, warm_episodes=1, **common),
        seed=9,
    )
    # the allocation actor was never updated in either run, so both still
    # hold the same seed-determined initialization
    assert np.array_equal(all_warm.agents.actor.get_flat(), one_ep.agents.actor.get_flat())
    # while the controllers did learn
    assert not np.array_equal(
        all_warm.agents.rc_actors[0].get_flat(), one_ep.agents.rc_actors[0].get_flat()
    )


@pytest.mark.parametrize(
    "topology, learn_alloc", [("single", True), ("separate", False)]
)
def test_warm_episodes_rejected_where_ignored(topology, learn_alloc):
    with pytest.raises(ValueError, match="warm_episodes"):
        small_settings(
            topology=topology, learn_alloc=learn_alloc, learn_control=True, warm_episodes=2
        )


def test_lagrangian_ceiling_raises():
    with pytest.raises(TrainingDivergedError):
        train(env_factory_for(), small_settings(lagrangian_ceiling=1e-6), seed=3)


def test_nonfinite_state_raises_at_its_step():
    # x1 = 1e200 x0 is still finite; x2 = 1e400 x0 overflows in step 1 of episode 0
    factory = env_factory_for(a_mat=1e200 * np.eye(3))
    with pytest.raises(TrainingDivergedError, match="episode 0, step 1, worker 0") as info:
        train(factory, small_settings(), seed=3)
    assert info.value.episode == 0


def test_per_step_power_share():
    gamma = 0.9
    rng = np.random.default_rng(0)
    summed = env_factory_for(m=3, gamma=gamma, constraint="sum_power")(rng)
    assert per_step_power(summed, gamma) == (1.0 - gamma) * 75.0
    region = env_factory_for(m=3, gamma=gamma, constraint="region")(rng)
    assert per_step_power(region, gamma) == (1.0 - gamma) * 3
