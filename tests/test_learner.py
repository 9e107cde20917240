"""Training loop tests: returns, advantages, dual ascent, update mechanics.

Proves:
 Group 1: Return and advantage arithmetic
   1.  Recursive cost-to-go matches hand values and the brute-force sum
   2.  Bootstrap enters with one discount factor
   3.  Advantage subtracts the critic values
 Group 2: Dual ascent
   4.  Projected multiplier update by hand, clipping at zero
   5.  Dual descent on min theta^2 s.t. 1 - theta <= 0 reaches (2, 1)
   6.  DualState never goes negative
 Group 3: Update mechanics
   7.  A positive-advantage action loses log-probability after one step
   8.  The value step moves predictions toward the returns
   9.  Pooled updates are invariant to worker ordering
  10.  A member-stacked agent updates every member bitwise as m separate
       agents do (bootstrap, entropy term, per-member clipping, rmsprop)
 Group 4: End-to-end training loop
  11.  Tiny run completes, logs every episode, multipliers stay feasible
  12.  Bitwise repeatable from the seed
  13.  codesign trains allocation and per-plant controllers
  14.  Warm episodes freeze the allocation actor; warm episodes and
       pretraining leave the run bitwise unchanged wherever the approach
       does not use them; an unknown approach, and an environment whose
       discount or plant count differs from the config, are rejected; an
       approach with fixed control given no controller fails before its
       first step, naming that half; every episode, pretraining's too,
       forces delivery exactly where allocation is not learned
  15.  Lagrangian ceiling raises TrainingDivergedError, and a non-finite
       plant state raises it at the step it appears, naming the worker
  16.  One power rule, per allocation head and constraint kind, gives the
       pretraining target, the warm-up allocation, control_only's equal
       power and the equal baseline; pretraining follows alloc.n_active
  17.  Pretraining's pool, gathered as E rows that draw in turn from one
       generator, is bitwise the pool of E sequential single-row episodes
       on it, read episode-major, and leaves the generator in the same state
"""
from __future__ import annotations

import numpy as np
import pytest

from wcsrl import harness, learner, policies
from wcsrl.config import load_config
from wcsrl.dynamics import CostWeights, PlantModel, unstable_drift
from wcsrl.environment import ConstraintSpec, WirelessControlEnv
from wcsrl.learner import (
    APPROACHES,
    SegmentAgent,
    TrainingDivergedError,
    DualState,
    compute_advantage,
    compute_cost_to_go,
    dual_update,
    pretrain_allocation,
    train,
)
from wcsrl.neuralnet import MLP, GaussianActor, HeadSpec
from wcsrl.wireless import ChannelModel
from oracles import dual_descent


def env_for(m=2, gamma=0.99, constraint="region", a_mat=None):
    plants = [
        PlantModel(
            kind="linear",
            a_mat=unstable_drift(1.05) if a_mat is None else a_mat,
            b_mat=np.eye(3),
            process_noise=0.05,
        )
        for _ in range(m)
    ]
    channel = ChannelModel(distances=np.linspace(1.0, 1.5, m))
    if constraint == "region":
        spec = ConstraintSpec(kind="region", region_half_width=10.0, region_budget=5.0)
    else:
        spec = ConstraintSpec(kind="sum_power", power_budget=25.0 * m)

    return WirelessControlEnv(
        plants=plants,
        channel=channel,
        weights=CostWeights(q=np.eye(3), r=np.eye(3)),
        gamma=gamma,
        constraint=spec,
        obs_noise_cov=np.full(m * 4, 0.5),
    )


# Riccati-free fixed control for alloc_lqr runs on env_for's 2 plants
ZERO_CONTROL = policies.zero_controller(2, 3)


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
    # member-stacked form (L, m, N): each member is its own (L, N) problem
    rng = np.random.Generator(np.random.PCG64(19))
    costs, boot = rng.standard_normal((4, 3, 2)), rng.standard_normal((3, 2))
    stacked = compute_cost_to_go(costs, boot, 0.9)
    for i in range(3):
        assert np.array_equal(stacked[:, i], compute_cost_to_go(costs[:, i], boot[i], 0.9))


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
    cfg = load_config(
        overrides={"train.optimizer": "sgd", "train.value_lr": 1e-2, "train.grad_clip": 0.0}
    )
    head = HeadSpec(n_plants=2, alloc="softplus")
    actor = GaussianActor(4, head, (8,), rng)
    critic = MLP((4, 8, 1), rng)
    agent = SegmentAgent(actor, critic, cfg)
    obs = rng.standard_normal((2, 4))
    raw = actor.sample(obs, rng).raw
    costs = np.array([5.0, 5.0])
    before = critic.forward(obs)[0][..., 0]
    err_before = np.abs(before - 5.0).sum()
    agent.record(obs, raw, costs)
    agent.update(None, at_end=True, episode=0)
    err_after = np.abs(critic.forward(obs)[0][..., 0] - 5.0).sum()
    assert err_after < err_before


def test_pooled_update_worker_order_invariance():
    def build(seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        head = HeadSpec(n_plants=2, alloc="simplex", alpha_total=2.0)
        actor = GaussianActor(4, head, (8,), rng)
        critic = MLP((4, 8, 1), rng)
        return actor, critic

    cfg = load_config(overrides={"train.optimizer": "sgd", "train.grad_clip": 0.0})
    perm = np.array([2, 0, 3, 1])
    rng = np.random.Generator(np.random.PCG64(17))
    steps = [
        (rng.standard_normal((4, 4)), rng.standard_normal((4, 3)), rng.standard_normal(4))
        for _ in range(3)
    ]
    actor_a, critic_a = build(5)
    actor_b, critic_b = build(5)
    agent_a = SegmentAgent(actor_a, critic_a, cfg)
    agent_b = SegmentAgent(actor_b, critic_b, cfg)
    for obs, raw, costs in steps:
        agent_a.record(obs, raw, costs)
        agent_b.record(obs[perm], raw[perm], costs[perm])
    agent_a.update(None, at_end=True, episode=0)
    agent_b.update(None, at_end=True, episode=0)
    assert np.allclose(actor_a.get_flat(), actor_b.get_flat(), atol=1e-10)
    assert np.allclose(critic_a.get_flat(), critic_b.get_flat(), atol=1e-10)


def test_stacked_agent_matches_separate_agents():
    m, n_workers = 3, 2
    # at this clip some members' gradients are rescaled and others not
    cfg = load_config(overrides={"train.entropy_coef": 0.05, "train.grad_clip": 400.0})
    head = HeadSpec(n_plants=1, control_dim=2, control_low=-1.0, control_high=1.0)

    def pairs():
        rng = np.random.Generator(np.random.PCG64(23))
        return [(GaussianActor(4, head, (8,), rng), MLP((4, 8, 1), rng)) for _ in range(m)]

    single = [SegmentAgent(a, c, cfg) for a, c in pairs()]
    actors, critics = zip(*pairs())
    stacked = SegmentAgent(GaussianActor.stack(actors), MLP.stack(critics), cfg)
    rng = np.random.Generator(np.random.PCG64(29))
    for t in range(8):
        obs = rng.standard_normal((m, n_workers, 4))
        raw = rng.standard_normal((m, n_workers, 2))
        costs = 10.0 * rng.standard_normal((m, n_workers))
        if t == 4:  # a mid-episode segment update, bootstrapped on obs
            stacked.update(obs, at_end=False, episode=0)
            for i, ag in enumerate(single):
                ag.update(obs[i], at_end=False, episode=0)
        stacked.record(obs, raw, costs)
        for i, ag in enumerate(single):
            ag.record(obs[i], raw[i], costs[i])
    stacked.update(None, at_end=True, episode=0)
    for ag in single:
        ag.update(None, at_end=True, episode=0)
    for i, ag in enumerate(single):
        assert np.array_equal(stacked.actor.member(i).get_flat(), ag.actor.get_flat())
        assert np.array_equal(stacked.critic.member(i).get_flat(), ag.critic.get_flat())


# Group 4 -------------------------------------------------------------------


SMALL = {
    "train.episodes": 3,
    "train.horizon": 12,
    "train.workers": 2,
    "train.segment": 5,
    "train.policy_lr": 1e-3,
    "train.value_lr": 1e-3,
    "train.dual_lr": 1e-3,
    "train.grad_clip": 0.0,
    "train.hidden": [16, 16],
    "alloc.head": "simplex",
    "alloc.total": 2.0,
}


def small_config(overrides=None):
    return load_config(overrides={**SMALL, **(overrides or {})})


def run_outputs(result):
    """The training log and every trained network's parameters."""
    log = [(row.lagrangian, *row.violations, *row.multipliers) for row in result.log]
    nets = [net.get_flat() for net in vars(result.agents).values() if net is not None]
    return log, nets


def same_outputs(a, b):
    return a[0] == b[0] and len(a[1]) == len(b[1]) and all(map(np.array_equal, a[1], b[1]))


def test_train_smoke_and_log():
    result = train(env_for(), small_config(), "alloc_lqr", 101, ZERO_CONTROL)
    assert len(result.log) == 3
    assert result.agents.actor is not None
    assert result.agents.rc_actor is None
    for row in result.log:
        assert np.isfinite(row.lagrangian)
        assert row.violations.shape == (2,)
        assert np.all(row.multipliers >= 0)


def test_train_bitwise_repeatable():
    r1 = train(env_for(), small_config(), "alloc_lqr", 55, ZERO_CONTROL)
    r2 = train(env_for(), small_config(), "alloc_lqr", 55, ZERO_CONTROL)
    assert np.array_equal(r1.agents.actor.get_flat(), r2.agents.actor.get_flat())
    assert [row.lagrangian for row in r1.log] == [row.lagrangian for row in r2.log]
    r3 = train(env_for(), small_config(), "alloc_lqr", 56, ZERO_CONTROL)
    assert not np.array_equal(r1.agents.actor.get_flat(), r3.agents.actor.get_flat())


def test_train_separate_topology():
    cfg = small_config({"alloc.head": "softplus"})
    result = train(env_for(constraint="sum_power"), cfg, "codesign", seed=7)
    assert result.agents.actor is not None
    assert result.agents.rc_actor.net.members == (2,)
    assert result.agents.rc_critic.members == (2,)
    for i in range(2):
        actor = result.agents.rc_actor.member(i)
        assert np.isfinite(actor.get_flat()).all()
        # controller actors see [channel_i, state_i, alpha_i]
        assert actor.net.sizes[0] == 1 + 3 + 1


def test_warm_episodes_freeze_allocation_actor():
    env = env_for(constraint="sum_power")
    all_warm = train(
        env,
        small_config({"alloc.head": "softplus", "train.episodes": 2, "train.warm_episodes": 2}),
        "codesign",
        seed=9,
    )
    one_ep = train(
        env,
        small_config({"alloc.head": "softplus", "train.episodes": 1, "train.warm_episodes": 1}),
        "codesign",
        seed=9,
    )
    # the allocation actor was never updated in either run, so both still
    # hold the same seed-determined initialization
    assert np.array_equal(all_warm.agents.actor.get_flat(), one_ep.agents.actor.get_flat())
    # while the controllers did learn
    assert not np.array_equal(
        all_warm.agents.rc_actor.member(0).get_flat(), one_ep.agents.rc_actor.member(0).get_flat()
    )


# the keys each approach uses of train.warm_episodes and train.pretrain_iters:
# warm episodes need an allocation actor beside per-plant controllers, and
# pretraining an allocation actor over fixed control
USES = {
    "alloc_lqr": {"train.pretrain_iters"},
    "codesign": {"train.warm_episodes"},
    "codesign_joint": set(),
    "control_only": set(),
}


@pytest.mark.parametrize("approach", list(USES))
def test_approach_ignores_keys_it_does_not_use(approach):
    env = env_for(constraint="sum_power")
    common = {"alloc.head": "softplus", "train.episodes": 2}
    plain = run_outputs(train(env, small_config(common), approach, 9, ZERO_CONTROL))
    for key, value in (("train.warm_episodes", 2), ("train.pretrain_iters", 5)):
        cfg = small_config({**common, key: value})
        result = train(env, cfg, approach, 9, ZERO_CONTROL)
        assert same_outputs(run_outputs(result), plain) == (key not in USES[approach]), key


# the allocation of an approach that does not learn it is always equal power
@pytest.mark.parametrize("approach", ["alloc_lqr"])
def test_missing_fixed_half_fails_at_first_step(approach):
    env = env_for(constraint="sum_power")
    steps = []
    step = env.step
    env.step = lambda state, action: steps.append(state.t) or step(state, action)
    with pytest.raises(ValueError, match="policy produces no control input and has no fixed"):
        train(env, small_config({"alloc.head": "softplus"}), approach, seed=9)
    assert steps == []


@pytest.mark.parametrize("approach", list(USES))
def test_delivery_forced_where_allocation_is_not_learned(approach):
    env = env_for(constraint="sum_power")
    forced = []

    def reset(*args, **kwargs):
        start = WirelessControlEnv.reset(env, *args, **kwargs)
        forced.append(start.tape.uniforms is None)
        return start

    env.reset = reset
    cfg = small_config({"alloc.head": "softplus", "train.pretrain_iters": 2})
    train(env, cfg, approach, 9, ZERO_CONTROL)
    # pretraining (alloc_lqr) resets once more than the episodes
    assert len(forced) >= cfg.train_episodes
    assert set(forced) == {not APPROACHES[approach].learn_alloc}


def test_unknown_approach_rejected():
    with pytest.raises(ValueError, match="unknown approach 'mystery'"):
        train(env_for(), small_config(), "mystery", seed=3)


def test_environment_must_match_config():
    with pytest.raises(ValueError, match="environment discount 0.9 does not match train.gamma"):
        train(env_for(gamma=0.9), small_config(), "alloc_lqr", 3, ZERO_CONTROL)
    with pytest.raises(ValueError, match="environment has 3 plants, plants.count is 2"):
        train(env_for(m=3), small_config(), "codesign", seed=3)


def test_lagrangian_ceiling_raises():
    with pytest.raises(TrainingDivergedError):
        train(env_for(), small_config({"train.ceiling": 1e-6}), "alloc_lqr", 3, ZERO_CONTROL)


def test_nonfinite_state_raises_at_its_step():
    # x1 = 1e200 x0 is still finite; x2 = 1e400 x0 overflows in step 1 of episode 0
    env = env_for(a_mat=1e200 * np.eye(3))
    # the per-diagonal stage cost x * q * x overflows on the same step
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(TrainingDivergedError, match="episode 0, step 1, worker 0") as info:
            train(env, small_config(), "alloc_lqr", 3, ZERO_CONTROL)
    assert info.value.episode == 0


class TargetRecorder:
    """Stands in for the actor in pretrain_allocation: keeps every target
    batch it is asked to fit and changes nothing."""

    def __init__(self):
        self.obs = []
        self.targets = []
        self.params = np.zeros(1)

    def grad_alloc_mse(self, obs, target):
        self.obs.append(obs)
        self.targets.append(target)
        return 0.0, np.zeros(1)


# 4 plants: the simplex head's cap alloc.total (3 here), else the per-step
# share (1 - gamma) * budget of a sum_power budget (25 m), else the plant
# count
@pytest.mark.parametrize(
    "head, kind, power",
    [
        ("simplex", "region", 3.0),
        ("simplex", "sum_power", 3.0),
        ("simplex", "none", 3.0),
        ("softplus", "region", 4.0),
        ("softplus", "sum_power", (1.0 - 0.99) * 100.0),
        ("softplus", "none", 4.0),
    ],
    ids=lambda value: value if isinstance(value, str) else f"{value:g}",
)
def test_heuristic_power_rule(head, kind, power):
    overrides = {
        **SMALL,
        "scenario": "linear_power",
        "plants.count": 4,
        "alloc.head": head,
        "alloc.total": 3.0 if head == "simplex" else None,
        "alloc.n_active": 2,
        "constraint.kind": kind,
        "train.episodes": 1,
        "train.warm_episodes": 1,
        "train.pretrain_iters": 2,
    }
    cfg = load_config(overrides=overrides)
    bundle = harness.build_scenario(cfg)
    equal = np.full(4, power / 4)

    env = bundle.env
    obs = env.observe(env.reset(1, np.random.default_rng(0)))
    control_only, _ = learner.fixed_halves("control_only", cfg, bundle.controller)
    assert np.array_equal(control_only(obs, 0), equal)
    assert np.array_equal(harness.baseline_policies(bundle)["equal"].act(obs, 0, None).alpha, equal)

    # the pretraining target: control_aware over alloc.n_active = 2 plants
    recorder = TargetRecorder()
    pretrain_allocation(
        recorder, env, np.random.default_rng(0), cfg, bundle.controller, np.random.default_rng(1)
    )
    assert len(recorder.targets) == 2
    for target in recorder.targets:
        ranked = np.sort(target, axis=-1)
        assert not ranked[:, :2].any()
        assert np.array_equal(ranked[:, 2:], np.full((len(target), 2), power / 2))

    # the warm-up: every step of the one (warm) episode sends equal power
    sent = []

    step = env.step
    env.step = lambda state, action: sent.append(action.alpha) or step(state, action)
    train(env, cfg, "codesign", seed=4)
    assert len(sent) == cfg.train_horizon
    for alpha in sent:
        assert np.array_equal(alpha, np.broadcast_to(equal, alpha.shape))


def sequential_pool(env, rng, cfg, controller):
    """The pretraining pool gathered one single-row episode of env on rng at a
    time, step by step, until it holds max(512, 4 * train.pretrain_batch) rows."""
    allocator = policies.heuristic_allocator("control_aware", cfg)
    heuristic = policies.ActionSources(allocator=allocator, controller=controller)
    obs_rows, targets = [], []
    while len(obs_rows) < max(512, 4 * cfg.train_pretrain_batch):
        state = env.reset(cfg.train_horizon, rng)
        for t in range(cfg.train_horizon):
            obs = env.observe(state)
            action = policies.compose_action(heuristic, obs, t)
            obs_rows.append(obs.stacked())
            targets.append(action.alpha)
            state = env.step(state, action).next_state
    return np.stack(obs_rows), np.stack(targets)


# (scenario, horizon, pretrain batch): 512 rows in 18 episodes of 30 steps
# and in 16 of 32, 800 rows in 32 of 25, and one episode longer than the pool
@pytest.mark.parametrize(
    "scenario, horizon, batch",
    [
        ("linear_power", 30, 64),
        ("linear_power", 32, 64),
        ("linear_codesign", 25, 200),
        ("cartpole_codesign", 600, 64),
    ],
)
def test_pretraining_rows_pool_sequential_episodes(scenario, horizon, batch):
    overrides = {
        **SMALL,
        "scenario": scenario,
        "plants.count": 3,
        "alloc.n_active": 1,
        "train.horizon": horizon,
        "train.pretrain_batch": batch,
        "train.pretrain_iters": 100,
    }
    cfg = load_config(overrides=overrides)
    bundle = harness.build_scenario(cfg)
    controller, env = bundle.controller, bundle.env
    recorder, shared = TargetRecorder(), np.random.default_rng(4)
    pretrain_allocation(recorder, env, shared, cfg, controller, np.random.default_rng(1))

    alone = np.random.default_rng(4)
    obs_mat, target_mat = sequential_pool(env, alone, cfg, controller)
    assert shared.bit_generator.state == alone.bit_generator.state
    # replay the minibatch draws; together they read every row of the pool
    draws, seen = np.random.default_rng(1), []
    for obs, target in zip(recorder.obs, recorder.targets, strict=True):
        idx = draws.integers(0, len(obs_mat), size=batch)
        assert np.array_equal(obs, obs_mat[idx])
        assert np.array_equal(target, target_mat[idx])
        seen.append(idx)
    assert len(seen) == 100 and np.unique(np.concatenate(seen)).size == len(obs_mat)
