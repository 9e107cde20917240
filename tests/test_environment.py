"""Closed-loop environment tests.

Proves:
 Group 1: Constraint signals
   1.  Sum-power signal: sum(alpha) - (1-gamma) * budget by hand
   2.  Region signal: -0.05 inside, 0.95 outside for gamma=0.99, budget 5
   3.  Discounted signal sums fold the budget correctly (brute-force check)
   4.  Penalized cost adds multiplier-weighted signals
 Group 2: Stepping
   5.  Dropped packets leave the plant open loop, delivered ones act
   6.  Stage cost charges the realized (post-switch) input on the current state
   7.  Linear batch transition equals per-plant stepping
   8.  force_delivery short-circuits the lottery
   9.  Bad actions raise (shape, negative power, non-finite)
 Group 3: Observation and reproducibility
  10.  Observation layout: channel entries first, then plant states
  11.  Observation noise has the configured variance; zero noise is exact
  12.  Identical generators give identical trajectories
  13.  reset() honors init kinds
 Group 4: Batched rows and the noise tape
  14.  The tape holds the documented draw order of the row's generator
  15.  observe() and step() never draw; stepping past the tape raises
  16.  B rows reset, observe and step bitwise like B single-row environments
       on the same generators: linear and cart-pole plants, sum_power,
       region and no constraint, force_delivery on and off
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from wcsrl.dynamics import FORCE_LIMIT, CostWeights, PlantModel, unstable_drift
from wcsrl.environment import (
    ConstraintSpec,
    JointAction,
    WirelessControlEnv,
    penalized_cost,
)
from wcsrl.wireless import ChannelModel


def make_env(
    m=2,
    rng_seed=0,
    constraint=None,
    obs_noise=None,
    gamma=0.99,
    force_delivery=False,
    process_noise=0.0,
    init_kind="normal",
):
    plants = [
        PlantModel(
            kind="linear",
            a_mat=unstable_drift(1.05 + 0.02 * i),
            b_mat=np.eye(3),
            process_noise_cov=process_noise * np.eye(3),
        )
        for i in range(m)
    ]
    channel = ChannelModel(distances=np.linspace(1.0, 2.0, m), path_loss_exponent=2.0)
    return WirelessControlEnv(
        plants=plants,
        channel=channel,
        weights=CostWeights(q=np.eye(3), r=np.eye(3)),
        rng=np.random.Generator(np.random.PCG64(rng_seed)),
        gamma=gamma,
        constraint=constraint,
        obs_noise_cov=obs_noise,
        init_kind=init_kind,
        force_delivery=force_delivery,
    )


def state_at(env, x, h):
    """A one-step episode of env with its state replaced by (x, h)."""
    return replace(env.reset(1), x=np.asarray(x, dtype=float), h=np.asarray(h, dtype=float))


# Group 1 -------------------------------------------------------------------


def test_sum_power_signal():
    spec = ConstraintSpec(kind="sum_power", power_budget=50.0)
    sig = spec.signal(np.zeros((2, 3)), np.array([1.0, 2.0]), 0.99)
    assert sig.shape == (1,)
    assert sig[0] == pytest.approx(3.0 - 0.5, abs=1e-12)


def test_region_signal_values():
    spec = ConstraintSpec(kind="region", region_half_width=15.0, region_budget=5.0)
    inside = np.array([[1.0, -14.9, 0.0]])
    outside = np.array([[15.1, 0.0, 0.0]])
    assert spec.signal(inside, np.zeros(1), 0.99)[0] == pytest.approx(-0.05, abs=1e-12)
    assert spec.signal(outside, np.zeros(1), 0.99)[0] == pytest.approx(0.95, abs=1e-12)
    # any coordinate outside trips the indicator
    mixed = np.array([[0.0, 0.0, -16.0], [1.0, 1.0, 1.0]])
    assert np.allclose(spec.signal(mixed, np.zeros(2), 0.99), [0.95, -0.05], atol=1e-12)


def test_discounted_folding_brute_force():
    """The per-step signal is built so that sum_t gamma^t l_t equals the
    discounted constraint term minus the budget share accrued so far.
    Verify against an explicit double loop."""
    gamma = 0.9
    budget = 5.0
    spec = ConstraintSpec(kind="region", region_half_width=1.0, region_budget=budget)
    rng = np.random.Generator(np.random.PCG64(13))
    xs = rng.uniform(-2.0, 2.0, size=(40, 1, 3))
    signal_sum = sum(
        gamma**t * spec.signal(xs[t], np.zeros(1), gamma)[0] for t in range(40)
    )
    indicator_sum = sum(
        gamma**t * float((np.abs(xs[t, 0]) > 1.0).any()) for t in range(40)
    )
    budget_share = (1 - gamma) * budget * sum(gamma**t for t in range(40))
    assert signal_sum == pytest.approx(indicator_sum - budget_share, abs=1e-12)
    # infinite-horizon limit of the budget share is exactly the budget
    assert (1 - gamma) * budget * (1 / (1 - gamma)) == pytest.approx(budget, abs=1e-12)


def test_penalized_cost():
    assert penalized_cost(2.0, np.array([1.0, -0.5]), np.array([3.0, 2.0])) == pytest.approx(
        2.0 + 3.0 - 1.0, abs=1e-12
    )
    with pytest.raises(ValueError):
        penalized_cost(1.0, np.zeros(2), np.zeros(3))


# Group 2 -------------------------------------------------------------------


def test_switched_actuation_in_step():
    env = make_env(m=2)
    state = state_at(env, np.ones((2, 3)), [100.0, 0.0])
    # plant 0: huge snr, certain delivery; plant 1: zero power, certain drop
    action = JointAction(alpha=np.array([100.0, 0.0]), u=5.0 * np.ones((2, 3)))
    res = env.step(state, action)
    assert res.delivered[0]
    assert not res.delivered[1]
    assert np.array_equal(res.realized_u[0], action.u[0])
    assert np.array_equal(res.realized_u[1], np.zeros(3))
    # open-loop plant follows A x exactly (zero process noise)
    a1 = env.plants[1].a_mat
    assert np.allclose(res.next_state.x[1], a1 @ state.x[1], atol=1e-12)


def test_stage_cost_uses_realized_input():
    env = make_env(m=2)
    state = state_at(env, np.ones((2, 3)), [100.0, 0.0])
    action = JointAction(alpha=np.array([100.0, 0.0]), u=2.0 * np.ones((2, 3)))
    res = env.step(state, action)
    # per plant: x'x = 3; delivered adds u'u = 12, dropped adds nothing
    assert res.per_plant_costs[0] == pytest.approx(3.0 + 12.0, abs=1e-12)
    assert res.per_plant_costs[1] == pytest.approx(3.0, abs=1e-12)
    assert res.stage_cost == pytest.approx(res.per_plant_costs.sum(), abs=1e-12)


def test_batch_transition_matches_per_plant():
    env = make_env(m=3, force_delivery=True)
    rng = np.random.Generator(np.random.PCG64(21))
    state = state_at(env, rng.standard_normal((3, 3)), np.ones(3))
    action = JointAction(alpha=np.ones(3), u=rng.standard_normal((3, 3)))
    res = env.step(state, action)
    for i, plant in enumerate(env.plants):
        expect = plant.a_mat @ state.x[i] + plant.b_mat @ action.u[i]
        assert np.allclose(res.next_state.x[i], expect, atol=1e-12)


def test_force_delivery():
    env = make_env(m=2, force_delivery=True)
    state = state_at(env, np.zeros((2, 3)), np.zeros(2))
    res = env.step(state, JointAction(alpha=np.zeros(2), u=np.ones((2, 3))))
    assert res.delivered.all()  # even at zero snr
    assert np.array_equal(res.realized_u, np.ones((2, 3)))


def test_bad_actions_raise():
    env = make_env(m=2)
    state = state_at(env, np.zeros((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        env.step(state, JointAction(alpha=np.zeros(3), u=np.zeros((2, 3))))
    with pytest.raises(ValueError):
        env.step(state, JointAction(alpha=np.zeros(2), u=np.zeros((3, 3))))
    with pytest.raises(ValueError):
        env.step(state, JointAction(alpha=np.array([-0.1, 0.0]), u=np.zeros((2, 3))))
    with pytest.raises(ValueError):
        env.step(state, JointAction(alpha=np.array([np.nan, 0.0]), u=np.zeros((2, 3))))


# Group 3 -------------------------------------------------------------------


def test_observation_layout():
    env = make_env(m=2)
    state = state_at(env, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [7.0, 8.0])
    obs = env.observe(state)  # zero obs noise by default here
    assert np.array_equal(obs.channel, [7.0, 8.0])
    assert np.array_equal(obs.plant, state.x)
    stacked = obs.stacked()
    assert np.array_equal(stacked, [7.0, 8.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def test_observation_noise_variance():
    var = np.concatenate([np.full(2, 4.0), np.full(6, 0.25)])
    env = make_env(m=2, obs_noise=var, rng_seed=3, init_kind="zero")
    state = replace(env.reset(20_000), h=np.zeros(2))
    obs = [env.observe(replace(state, t=t)) for t in range(20_000)]
    chan = np.array([o.channel for o in obs])
    plant = np.array([o.plant.ravel() for o in obs])
    assert abs(chan.var() - 4.0) < 0.15
    assert abs(plant.var() - 0.25) < 0.01
    assert abs(chan.mean()) < 0.05


def test_trajectory_determinism():
    costs = []
    for _ in range(2):
        env = make_env(m=2, rng_seed=77, process_noise=0.1, obs_noise=np.full(8, 1.0))
        state = env.reset(25)
        total = 0.0
        for t in range(25):
            env.observe(state)
            res = env.step(state, JointAction(alpha=np.ones(2), u=np.zeros((2, 3))))
            total += res.stage_cost
            state = res.next_state
        costs.append(total)
    assert costs[0] == costs[1]


def test_reset_init_kinds():
    env = make_env(m=2, init_kind="zero")
    assert np.array_equal(env.reset(1).x, np.zeros((2, 3)))
    env_u = make_env(m=2, init_kind="uniform", rng_seed=5)
    env_u.init_scale = 0.05
    x0 = env_u.reset(1).x
    assert np.all(np.abs(x0) <= 0.05)
    assert np.any(x0 != 0)


# Group 4 -------------------------------------------------------------------


def make_rows_env(kind, constraint, force_delivery, rngs, full_obs_cov=False):
    """An m=3 environment of the given plant kind with process and
    observation noise, around one generator or a list of them."""
    m = 3
    if kind == "linear":
        plants = [
            PlantModel(
                kind="linear",
                a_mat=unstable_drift(1.05 + 0.02 * i) + 0.1 * np.tri(3, k=-1),
                b_mat=np.eye(3),
                process_noise_cov=0.1 * np.eye(3) + 0.05,
            )
            for i in range(m)
        ]
    else:
        plants = [PlantModel(kind="cartpole", process_noise_cov=1e-4 * np.eye(4)) for _ in range(m)]
    p, q = plants[0].state_dim, plants[0].input_dim
    obs_dim = m * (1 + p)
    if full_obs_cov:
        root = np.random.Generator(np.random.PCG64(99)).standard_normal((obs_dim, obs_dim))
        obs_noise = 0.1 * root @ root.T
    else:
        obs_noise = np.linspace(0.05, 0.5, obs_dim)
    specs = {
        "sum_power": ConstraintSpec(kind="sum_power", power_budget=10.0),
        "region": ConstraintSpec(kind="region", region_half_width=0.5, region_budget=2.0),
        None: None,
    }
    return WirelessControlEnv(
        plants=plants,
        channel=ChannelModel(distances=np.linspace(0.8, 1.6, m)),
        weights=CostWeights(q=np.diag(np.arange(1.0, p + 1)), r=0.1 * np.eye(q)),
        rng=rngs,
        constraint=specs[constraint],
        obs_noise_cov=obs_noise,
        init_kind="uniform" if kind == "cartpole" else "normal",
        init_scale=0.05 if kind == "cartpole" else 1.0,
        force_delivery=force_delivery,
    )


def gen(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_tape_holds_documented_draw_order():
    env = make_rows_env("linear", "region", False, gen(5))
    horizon = 4
    state = env.reset(horizon)
    rng = gen(5)  # replay the documented order by hand
    noise_std = np.sqrt(np.linspace(0.05, 0.5, env.obs_dim))
    factors = np.stack([p._noise_factor for p in env.plants])
    assert np.array_equal(state.x, 1.0 * rng.standard_normal((3, 3)))
    assert np.array_equal(state.h, env.channel.sample_gains(rng))
    for t in range(horizon):
        assert np.array_equal(state.tape.obs[t], noise_std * rng.standard_normal(env.obs_dim))
        assert np.array_equal(state.tape.uniforms[t], rng.random(3))
        w = np.einsum("ijk,ik->ij", factors, rng.standard_normal((3, 3)))
        assert np.array_equal(state.tape.process[t], w)
        assert np.array_equal(state.tape.gains[t + 1], env.channel.sample_gains(rng))
    # the next episode continues the stream exactly where this one stopped
    assert np.array_equal(env.reset(1).x, rng.standard_normal((3, 3)))


def test_observe_and_step_never_draw():
    rngs = [gen(1), gen(2)]
    env = make_rows_env("linear", "sum_power", False, rngs)
    state = env.reset(2)
    before = [r.bit_generator.state for r in rngs]
    action = JointAction(alpha=np.ones((2, 3)), u=np.zeros((2, 3, 3)))
    for _ in range(2):
        env.observe(state)
        state = env.step(state, action).next_state
    assert [r.bit_generator.state for r in rngs] == before
    with pytest.raises(ValueError, match="past the 2-step noise tape"):
        env.step(state, action)
    with pytest.raises(ValueError, match="alpha must have shape"):
        env.step(env.reset(1), JointAction(alpha=np.ones(3), u=np.zeros((2, 3, 3))))


@pytest.mark.parametrize("force_delivery", [False, True], ids=["lottery", "forced"])
@pytest.mark.parametrize("constraint", ["sum_power", "region", None], ids=str)
@pytest.mark.parametrize("kind", ["linear", "cartpole"])
def test_rows_match_single_row_environments(kind, constraint, force_delivery):
    seeds = [11, 12, 13, 14]
    horizon = 6
    batched = make_rows_env(kind, constraint, force_delivery, [gen(s) for s in seeds])
    singles = [make_rows_env(kind, constraint, force_delivery, gen(s)) for s in seeds]
    q = batched.input_dim
    act_rng = gen(7)
    for _ in range(2):  # the second episode continues every row's stream
        state = batched.reset(horizon)
        single_states = [env.reset(horizon) for env in singles]
        for t in range(horizon):
            obs = batched.observe(state)
            alpha = np.abs(act_rng.standard_normal((len(seeds), 3)))
            u = np.clip(3.0 * act_rng.standard_normal((len(seeds), 3, q)), -FORCE_LIMIT, FORCE_LIMIT)
            res = batched.step(state, JointAction(alpha=alpha, u=u))
            for i, (env, s) in enumerate(zip(singles, single_states)):
                one_obs = env.observe(s)
                assert np.array_equal(obs.channel[i], one_obs.channel)
                assert np.array_equal(obs.plant[i], one_obs.plant)
                one = env.step(s, JointAction(alpha=alpha[i], u=u[i]))
                for field in ("stage_cost", "per_plant_costs", "signals", "delivered", "snr", "realized_u"):
                    assert np.array_equal(getattr(res, field)[i], getattr(one, field)), (t, i, field)
                assert np.array_equal(res.next_state.x[i], one.next_state.x)
                assert np.array_equal(res.next_state.h[i], one.next_state.h)
                single_states[i] = one.next_state
            state = res.next_state
    assert res.signals.shape == (len(seeds), batched.n_signals)
    assert res.delivered.all() or not force_delivery


def test_rows_match_single_rows_with_full_observation_covariance():
    seeds = [3, 4]
    batched = make_rows_env("linear", None, False, [gen(s) for s in seeds], full_obs_cov=True)
    state = batched.reset(3)
    for i, seed in enumerate(seeds):
        single = make_rows_env("linear", None, False, gen(seed), full_obs_cov=True).reset(3)
        assert np.array_equal(state.tape.obs[:, i], single.tape.obs)
        assert np.array_equal(state.tape.process[:, i], single.tape.process)
