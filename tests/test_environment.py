"""Closed-loop environment tests.

Proves:
 Group 1: Constraint signals
   1.  Sum-power signal: sum(alpha) - (1-gamma) * budget by hand
   2.  Region signal: -0.05 inside, 0.95 outside for gamma=0.99, budget 5;
       any coordinate outside counts, a NaN coordinate does not, and both
       kinds match the elementwise formula bitwise at batch (), (4,) and (2, 3)
   3.  Discounted signal sums fold the budget correctly (brute-force check)
   4.  Penalized cost adds multiplier-weighted signals
   5.  Only sum_power and region are constraint kinds: an instantaneous
       power cap ("simplex") is the allocation head's, and is rejected
 Group 2: Stepping
   6.  Dropped packets leave the plant open loop, delivered ones act
   7.  charge() prices the realized (post-switch) input on the pre-step
       state, as the per-plant oracles do
   8.  Linear batch transition equals per-plant stepping (oracle linear_step)
   9.  An episode reset with force_delivery draws no uniforms and
       delivers every packet
  10.  Bad actions raise (shape, negative power, non-finite)
 Group 3: Observation and reproducibility
  11.  Observation layout: channel entries first, then plant states
  12.  Observation noise has the configured variance; zero noise is exact
  13.  Identical generators give identical trajectories
  14.  reset() honors init kinds
 Group 4: Batched rows and the noise tape
  15.  The tape holds the documented draw order of the row's generator,
       each plant's process draws scaled by the root of its own variance
  16.  observe() and step() never draw; stepping past the tape raises, and
       so does a lottery reaching past it, naming the first step past it
  17.  B rows reset, observe and step bitwise like B single-row episodes
       of one environment on the same generators, every row's tape that of
       its single-row episode: linear and cart-pole plants, sum_power,
       region and no constraint, force_delivery on and off
  18.  Every action check raises its own message at batch () and (B,): a
       wrong alpha or u shape, a non-finite alpha or u entry (NaN, +inf,
       -inf, in any row), a negative allocation, a step past the tape
  19.  episode() is the hand loop of observe and step: exactly horizon
       steps, act called once per step and never ahead of the consumer,
       its observations and results bitwise those of the hand loop, and a
       discount that is the running product of gamma
  20.  The per-diagonal stage cost equals the three-operand einsum over
       the weight matrices bitwise, at batch () and (B,), for linear and
       cart-pole plants
  21.  Charging a stacked (T, ...) trajectory at once equals T per-step
       charges bitwise, at batch () and (B,), for every constraint kind
  22.  A bad action names its step, and at batch (B,) the first bad row:
       a non-finite allocation or control input and a negative allocation
       in step(), and the same allocation texts from lottery(), which
       names the first bad step of the episode
  23.  The transition einsum is np.einsum bitwise at batch (), (B,) and
       (T, B), both NumPy's C einsum and the np.einsum fallback
  24.  A tape's gains alone drive both the observed channel and the
       delivery lottery: gains chosen on the tape show in observe() and
       decide which packets arrive
  25.  The tape's channel observations, added once for the whole tape, are
       each step's gains plus its channel noise bitwise, and read-only
"""
from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from wcsrl import environment
from wcsrl.dynamics import FORCE_LIMIT, CostWeights, PlantModel, unstable_drift
from wcsrl.environment import ConstraintSpec, JointAction, WirelessControlEnv
from wcsrl.wireless import ChannelModel
from oracles import apply_switched_input, linear_step, penalized_cost, quadratic_stage_cost


def make_env(
    m=2,
    constraint=None,
    obs_noise=None,
    gamma=0.99,
    process_noise=0.0,
    init_kind="normal",
):
    plants = [
        PlantModel(
            kind="linear",
            a_mat=unstable_drift(1.05 + 0.02 * i),
            b_mat=np.eye(3),
            process_noise=process_noise,
        )
        for i in range(m)
    ]
    channel = ChannelModel(distances=np.linspace(1.0, 2.0, m), path_loss_exponent=2.0)
    return WirelessControlEnv(
        plants=plants,
        channel=channel,
        weights=CostWeights(q=np.eye(3), r=np.eye(3)),
        gamma=gamma,
        constraint=constraint,
        obs_noise_cov=obs_noise,
        init_kind=init_kind,
    )


def gen(seed):
    return np.random.Generator(np.random.PCG64(seed))


def with_gains(state, gains):
    """state on its tape with every step's channel gains replaced by gains."""
    gains = np.broadcast_to(np.asarray(gains, dtype=float), state.tape.gains.shape)
    return replace(state, tape=replace(state.tape, gains=gains.copy()))


def state_at(env, x, gains, force_delivery=False):
    """A one-step episode of env at plant states x, on a tape whose channel
    gains are gains at every step."""
    start = env.reset(1, gen(0), force_delivery)
    return with_gains(replace(start, x=np.asarray(x, dtype=float)), gains)


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
    # a NaN coordinate is not outside, and does not hide one that is
    nan_rows = np.array([[np.nan, 16.0, 0.0], [np.nan, np.nan, np.nan], [np.inf, 0.0, np.nan]])
    assert np.allclose(spec.signal(nan_rows, np.zeros(3), 0.99), [0.95, -0.05, 0.95], atol=1e-12)


@pytest.mark.parametrize("shape", [(), (4,), (2, 3)], ids=str)
def test_signals_match_elementwise_formula(shape):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(shape + (5, 3)) * 2.0
    x.flat[::7] = np.nan
    x.flat[::11] = -np.inf
    alpha = rng.exponential(size=shape + (5,))
    gamma = 0.97
    region = ConstraintSpec(kind="region", region_half_width=1.5, region_budget=4.0)
    want = (np.abs(x) > 1.5).any(axis=-1).astype(float) - (1.0 - gamma) * 4.0
    assert region.signal(x, alpha, gamma).tobytes() == want.tobytes()
    power = ConstraintSpec(kind="sum_power", power_budget=20.0)
    want = (np.sum(alpha, axis=-1) - (1.0 - gamma) * 20.0)[..., None]
    got = power.signal(x, alpha, gamma)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


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


def test_constraint_kinds():
    # the allocation head enforces an instantaneous power cap
    with pytest.raises(ValueError, match="unknown constraint kind 'simplex'"):
        ConstraintSpec(kind="simplex", power_budget=4.0)
    assert ConstraintSpec(kind="sum_power", power_budget=4.0).n_components(3) == 1
    assert ConstraintSpec(kind="region", region_half_width=1.0, region_budget=0.0).n_components(3) == 3


# Group 2 -------------------------------------------------------------------


def test_switched_actuation_in_step():
    env = make_env(m=2)
    state = state_at(env, np.ones((2, 3)), [100.0, 0.0])
    # plant 0: huge snr, certain delivery; plant 1: zero gain and power, certain drop
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
    per_plant, stage, signals = env.charge(state.x, res.realized_u, action.alpha)
    # per plant: x'x = 3; delivered adds u'u = 12, dropped adds nothing
    assert per_plant[0] == pytest.approx(3.0 + 12.0, abs=1e-12)
    assert per_plant[1] == pytest.approx(3.0, abs=1e-12)
    for i in range(2):
        realized = apply_switched_input(action.u[i], bool(res.delivered[i]))
        expect = quadratic_stage_cost(state.x[i], realized, env.weights)
        assert per_plant[i] == pytest.approx(expect, abs=1e-12)
    assert stage == pytest.approx(per_plant.sum(), abs=1e-12)
    assert signals.shape == (0,)


def test_batch_transition_matches_per_plant():
    env = make_env(m=3)
    rng = np.random.Generator(np.random.PCG64(21))
    state = state_at(env, rng.standard_normal((3, 3)), np.ones(3), force_delivery=True)
    action = JointAction(alpha=np.ones(3), u=rng.standard_normal((3, 3)))
    res = env.step(state, action)
    for i, plant in enumerate(env.plants):
        expect = linear_step(plant, state.x[i], action.u[i], np.zeros(3))
        assert np.allclose(res.next_state.x[i], expect, atol=1e-12)


def test_force_delivery():
    env = make_env(m=2)
    state = state_at(env, np.zeros((2, 3)), np.zeros(2), force_delivery=True)
    assert state.tape.uniforms is None
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
    env = make_env(m=2, obs_noise=var, init_kind="zero")
    state = with_gains(env.reset(20_000, gen(3)), 0.0)
    obs = [env.observe(replace(state, t=t)) for t in range(20_000)]
    chan = np.array([o.channel for o in obs])
    plant = np.array([o.plant.ravel() for o in obs])
    assert abs(chan.var() - 4.0) < 0.15
    assert abs(plant.var() - 0.25) < 0.01
    assert abs(chan.mean()) < 0.05


def test_trajectory_determinism():
    costs = []
    for _ in range(2):
        env = make_env(m=2, process_noise=0.1, obs_noise=np.full(8, 1.0))
        state = env.reset(25, gen(77))
        total = 0.0
        for t in range(25):
            env.observe(state)
            action = JointAction(alpha=np.ones(2), u=np.zeros((2, 3)))
            res = env.step(state, action)
            total += env.charge(state.x, res.realized_u, action.alpha)[1]
            state = res.next_state
        costs.append(total)
    assert costs[0] == costs[1]


def test_reset_init_kinds():
    env = make_env(m=2, init_kind="zero")
    assert np.array_equal(env.reset(1, gen(0)).x, np.zeros((2, 3)))
    env_u = make_env(m=2, init_kind="uniform")
    env_u.init_scale = 0.05
    x0 = env_u.reset(1, gen(5)).x
    assert np.all(np.abs(x0) <= 0.05)
    assert np.any(x0 != 0)


# Group 4 -------------------------------------------------------------------


def noisy_env(kind, constraint):
    """An m=3 environment of the given plant kind with process and
    observation noise."""
    m = 3
    if kind == "linear":
        plants = [
            PlantModel(
                kind="linear",
                a_mat=unstable_drift(1.05 + 0.02 * i) + 0.1 * np.tri(3, k=-1),
                b_mat=np.eye(3),
                process_noise=0.05 * (i + 1),
            )
            for i in range(m)
        ]
    else:
        plants = [PlantModel(kind="cartpole", process_noise=1e-4) for _ in range(m)]
    p, q = plants[0].state_dim, plants[0].input_dim
    obs_noise = np.linspace(0.05, 0.5, m * (1 + p))
    specs = {
        "sum_power": ConstraintSpec(kind="sum_power", power_budget=10.0),
        "region": ConstraintSpec(kind="region", region_half_width=0.5, region_budget=2.0),
        None: None,
    }
    return WirelessControlEnv(
        plants=plants,
        channel=ChannelModel(distances=np.linspace(0.8, 1.6, m)),
        weights=CostWeights(q=np.diag(np.arange(1.0, p + 1)), r=0.1 * np.eye(q)),
        constraint=specs[constraint],
        obs_noise_cov=obs_noise,
        init_kind="uniform" if kind == "cartpole" else "normal",
        init_scale=0.05 if kind == "cartpole" else 1.0,
    )


def batch_of(rngs):
    """The batch shape of an episode reset on rngs."""
    return () if isinstance(rngs, np.random.Generator) else (len(rngs),)


def test_tape_holds_documented_draw_order():
    env = noisy_env("linear", "region")
    horizon, source = 4, gen(5)
    state = env.reset(horizon, source)
    rng = gen(5)  # replay the documented order by hand
    noise_std = np.sqrt(np.linspace(0.05, 0.5, env.obs_dim))
    process_std = np.sqrt([p.process_noise for p in env.plants])[:, None]
    assert np.array_equal(state.x, 1.0 * rng.standard_normal((3, 3)))
    assert np.array_equal(state.tape.gains[0], env.channel.sample_gains(rng))
    for t in range(horizon):
        assert np.array_equal(state.tape.obs[t], noise_std * rng.standard_normal(env.obs_dim))
        assert np.array_equal(state.tape.uniforms[t], rng.random(3))
        w = process_std * rng.standard_normal((3, 3))
        assert np.array_equal(state.tape.process[t], w)
        assert np.array_equal(state.tape.gains[t + 1], env.channel.sample_gains(rng))
    # the next episode continues the stream exactly where this one stopped
    assert np.array_equal(env.reset(1, source).x, rng.standard_normal((3, 3)))


def test_observe_and_step_never_draw():
    rngs = [gen(1), gen(2)]
    env = noisy_env("linear", "sum_power")
    state = env.reset(2, rngs)
    before = [r.bit_generator.state for r in rngs]
    action = JointAction(alpha=np.ones((2, 3)), u=np.zeros((2, 3, 3)))
    for _ in range(2):
        env.observe(state)
        state = env.step(state, action).next_state
    assert [r.bit_generator.state for r in rngs] == before
    with pytest.raises(ValueError, match="past the 2-step noise tape"):
        env.step(state, action)
    with pytest.raises(ValueError, match="alpha must have shape"):
        env.step(env.reset(1, rngs), JointAction(alpha=np.ones(3), u=np.zeros((2, 3, 3))))


def test_lottery_refuses_steps_past_the_tape():
    env = noisy_env("linear", "region")
    start = env.reset(5, gen(3))
    # (first step, steps): ending one past the tape, starting at its end, longer than it
    for t0, steps in ((4, 2), (5, 1), (0, 6)):
        with pytest.raises(ValueError, match=re.escape("step 5 is past the 5-step noise tape")):
            env.lottery(replace(start, t=t0), np.ones((steps, 3)))
    assert env.lottery(replace(start, t=4), np.ones((1, 3))).shape == (1, 3)
    assert env.lottery(replace(start, t=5), np.ones((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("force_delivery", [False, True], ids=["lottery", "forced"])
@pytest.mark.parametrize("constraint", ["sum_power", "region", None], ids=str)
@pytest.mark.parametrize("kind", ["linear", "cartpole"])
def test_rows_match_single_row_environments(kind, constraint, force_delivery):
    seeds = [11, 12, 13, 14]
    horizon = 6
    env = noisy_env(kind, constraint)
    rngs, single_rngs = [gen(s) for s in seeds], [gen(s) for s in seeds]
    q = env.input_dim
    act_rng = gen(7)
    for _ in range(2):  # the second episode continues every row's stream
        state = env.reset(horizon, rngs, force_delivery)
        single_states = [env.reset(horizon, rng, force_delivery) for rng in single_rngs]
        for i, s in enumerate(single_states):
            assert np.array_equal(state.x[i], s.x)
            for name in ("gains", "obs", "uniforms", "process", "channel"):
                got, want = getattr(state.tape, name), getattr(s.tape, name)
                assert (got is want is None) or np.array_equal(got[:, i], want), (i, name)
        for t in range(horizon):
            obs = env.observe(state)
            alpha = np.abs(act_rng.standard_normal((len(seeds), 3)))
            u = np.clip(3.0 * act_rng.standard_normal((len(seeds), 3, q)), -FORCE_LIMIT, FORCE_LIMIT)
            res = env.step(state, JointAction(alpha=alpha, u=u))
            charged = env.charge(state.x, res.realized_u, alpha)
            for i, s in enumerate(single_states):
                one_obs = env.observe(s)
                assert np.array_equal(obs.channel[i], one_obs.channel)
                assert np.array_equal(obs.plant[i], one_obs.plant)
                one = env.step(s, JointAction(alpha=alpha[i], u=u[i]))
                for field in ("delivered", "realized_u"):
                    assert np.array_equal(getattr(res, field)[i], getattr(one, field)), (t, i, field)
                one_charged = env.charge(s.x, one.realized_u, alpha[i])
                for got, want in zip(charged, one_charged):
                    assert np.array_equal(got[i], want), (t, i)
                assert np.array_equal(res.next_state.x[i], one.next_state.x)
                single_states[i] = one.next_state
            state = res.next_state
    assert charged[2].shape == (len(seeds), env.n_signals)
    assert res.delivered.all() or not force_delivery




@pytest.mark.parametrize("rngs", [gen(3), [gen(3), gen(4)]], ids=["single", "rows"])
def test_step_checks_keep_their_messages(rngs):
    env = noisy_env("linear", "region")
    batch = batch_of(rngs)
    state = env.reset(1, rngs)
    alpha, u = np.ones(batch + (3,)), np.zeros(batch + (3, 3))

    def raises(message, alpha, u, state=state):
        with pytest.raises(ValueError, match=re.escape(message)):
            env.step(state, JointAction(alpha=alpha, u=u))

    raises(f"alpha must have shape {batch + (3,)}, got {batch + (4,)}", np.ones(batch + (4,)), u)
    if batch:  # one row's allocation handed to a batch
        raises(f"alpha must have shape {batch + (3,)}, got (3,)", np.ones(3), u)
    raises(f"u must have shape {batch + (3, 3)}, got {batch + (3, 2)}", alpha, np.zeros(batch + (3, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        for idx in np.ndindex(*batch + (3,)):
            bad_alpha = alpha.copy()
            bad_alpha[idx] = bad
            raises("non-finite allocation", bad_alpha, u)
            bad_u = u.copy()
            bad_u[idx + (2,)] = bad
            raises("non-finite control input", alpha, bad_u)
    # non-finite wins over negative, as the checks run in that order
    mixed = alpha.copy()
    mixed[..., 0], mixed[..., 1] = -1.0, np.nan
    raises("non-finite allocation", mixed, u)
    negative = alpha.copy()
    negative[..., -1] = -0.25
    raises("negative allocation: min entry -2.500e-01", negative, u)
    # a negative zero is no negative allocation
    signed_zero = alpha.copy()
    signed_zero[..., 0] = -0.0
    env.step(state, JointAction(alpha=signed_zero, u=u))
    done = env.step(state, JointAction(alpha=alpha, u=u)).next_state
    raises("step 1 is past the 1-step noise tape; reset with a longer horizon", alpha, u, done)


@pytest.mark.parametrize("seeds", [3, [3, 4]], ids=["single", "rows"])
def test_episode_is_the_hand_loop(seeds):
    def rngs():
        return gen(seeds) if isinstance(seeds, int) else [gen(s) for s in seeds]

    env = noisy_env("linear", "region")
    horizon, batch = 7, batch_of(rngs())
    act_rng = gen(8)
    asked = []

    def act(obs, t):
        asked.append(t)
        alpha = np.abs(act_rng.standard_normal(batch + (3,)))
        return JointAction(alpha=alpha, u=act_rng.standard_normal(batch + (3, 3)))

    loop = env.episode(env.reset(horizon, rngs()), act)
    first = next(loop)
    assert asked == [0]  # the next step waits for the consumer
    steps = [first, *loop]
    assert asked == [t for t, *_ in steps] == list(range(horizon))
    state, disc = env.reset(horizon, rngs()), 1.0
    for t, obs, action, res, discount in steps:
        want_obs = env.observe(state)
        assert np.array_equal(obs.channel, want_obs.channel)
        assert np.array_equal(obs.plant, want_obs.plant)
        want = env.step(state, action)
        for field in ("delivered", "realized_u"):
            assert np.array_equal(getattr(res, field), getattr(want, field)), (t, field)
        assert np.array_equal(res.next_state.x, want.next_state.x)
        assert discount == disc == pytest.approx(env.gamma**t, rel=1e-14)
        disc *= env.gamma
        state = want.next_state


@pytest.mark.parametrize("seeds", [21, [21, 22, 23, 24, 25, 26, 27, 28]], ids=["single", "rows"])
@pytest.mark.parametrize("kind", ["linear", "cartpole"])
def test_diagonal_stage_cost_is_the_einsum(kind, seeds):
    rngs = gen(seeds) if isinstance(seeds, int) else [gen(s) for s in seeds]
    env = noisy_env(kind, None)
    q, r = env.weights.q, env.weights.r
    draw = gen(9)
    state = env.reset(50, rngs)
    for _ in range(50):
        # states from 1e-3 to 1e3 in magnitude; forces inside the actuator interval
        x = draw.standard_normal(state.x.shape) * 10.0 ** draw.uniform(-3, 3, state.x.shape)
        state = replace(state, x=x)
        alpha = np.abs(draw.standard_normal(batch_of(rngs) + (3,)))
        u = np.clip(draw.standard_normal(batch_of(rngs) + (3, env.input_dim)), -1.0, 1.0)
        res = env.step(state, JointAction(alpha=alpha, u=u))
        want = np.einsum("...ij,jk,...ik->...i", x, q, x)
        want += np.einsum("...ij,jk,...ik->...i", res.realized_u, r, res.realized_u)
        assert np.array_equal(env.charge(x, res.realized_u, alpha)[0], want)
        state = res.next_state


@pytest.mark.parametrize("seeds", [31, [31, 32, 33, 34]], ids=["single", "rows"])
@pytest.mark.parametrize("constraint", ["sum_power", "region", None], ids=str)
@pytest.mark.parametrize("kind", ["linear", "cartpole"])
def test_trajectory_charge_is_per_step_charges(kind, constraint, seeds):
    env = noisy_env(kind, constraint)
    draw = gen(10)
    horizon, batch = 12, () if isinstance(seeds, int) else (len(seeds),)
    xs = draw.standard_normal((horizon,) + batch + (3, env.state_dim))
    xs[::3] = 0.0  # exact zeros, and entries of both signs around the region edge
    us = np.clip(draw.standard_normal((horizon,) + batch + (3, env.input_dim)), -1.0, 1.0)
    us[1::4] = 0.0
    alphas = np.abs(draw.standard_normal((horizon,) + batch + (3,)))
    alphas[2::5] = 0.0
    stacked = env.charge(xs, us, alphas)
    for t in range(horizon):
        for got, want in zip(stacked, env.charge(xs[t], us[t], alphas[t])):
            assert got[t].shape == want.shape and got[t].tobytes() == want.tobytes(), t


@pytest.mark.parametrize("rngs", [gen(3), [gen(3), gen(4), gen(5)]], ids=["single", "rows"])
def test_action_errors_name_the_step_and_row(rngs):
    env = noisy_env("linear", "region")
    batch = batch_of(rngs)
    alpha, u = np.ones(batch + (3,)), np.zeros(batch + (3, 3))
    state = env.reset(5, rngs)
    for _ in range(2):
        state = env.step(state, JointAction(alpha=alpha, u=u)).next_state
    # the last row's allocation and the middle row's input go bad: the middle row is named
    last, middle = (2,) if batch else (), (1,) if batch else ()
    at = lambda r: f", row {r}" if batch else ""

    def raises(message, alpha, u):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            env.step(state, JointAction(alpha=alpha, u=u))

    for bad in (np.nan, np.inf, -np.inf):
        bad_alpha, bad_u = alpha.copy(), u.copy()
        bad_alpha[last + (1,)] = bad
        raises(f"step 2{at(2)}: non-finite allocation", bad_alpha, u)
        bad_u[middle + (0, 2)] = bad
        raises(f"step 2{at(1)}: non-finite control input", bad_alpha, bad_u)
    negative = alpha.copy()
    negative[last + (0,)] = -0.25
    raises(f"step 2{at(2)}: negative allocation: min entry -2.500e-01", negative, u)

    # lottery() checks every step's allocation before the first; the first bad step is named
    alphas = np.ones((3,) + batch + (3,))
    with pytest.raises(ValueError, match=f"^step 2{at(0)}: non-finite allocation$"):
        env.lottery(state, np.full((3,) + batch + (3,), np.nan))
    for bad in (np.nan, np.inf, -np.inf, -1e-300):
        bad_alphas = alphas.copy()
        # a larger negative entry at the later step: the first bad step's own min is named
        bad_alphas[(2,) + last + (0,)] = 2.0 * bad
        bad_alphas[(1,) + middle + (2,)] = bad
        fault = "negative allocation: min entry -1.000e-300"
        message = f"step 3{at(1)}: {fault if np.isfinite(bad) else 'non-finite allocation'}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            env.lottery(state, bad_alphas)
    # a negative zero is no negative allocation
    assert env.lottery(state, -0.0 * alphas).shape == alphas.shape


@pytest.mark.parametrize("batch", [(), (5,), (4, 5)], ids=str)
def test_transition_einsum_is_np_einsum(batch):
    rng = gen(9)
    a = rng.standard_normal((3, 4, 4))
    x = rng.standard_normal(batch + (3, 4)) * np.logspace(-150, 150, 4)
    want = np.einsum("ijk,...ik->...ij", a, x)
    # no module of that name, and a module without c_einsum
    fallback = environment._c_einsum(("wcsrl_no_such_module", "numpy"))
    assert fallback is np.einsum and environment._einsum is not np.einsum
    for einsum in (environment._einsum, fallback):
        got = einsum("ijk,...ik->...ij", a, x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rngs", [gen(6), [gen(6), gen(7)]], ids=["single", "rows"])
def test_tape_gains_drive_observation_and_lottery(rngs):
    env = make_env(m=2, obs_noise=np.full(8, 0.5))
    horizon, batch = 4, batch_of(rngs)
    # no gain where the drawn one is largest, a huge one elsewhere: certain drop or arrival
    drawn = env.reset(horizon, rngs)
    chosen = np.where(drawn.tape.gains == drawn.tape.gains.max(axis=-1, keepdims=True), 0.0, 1e6)
    state = with_gains(drawn, chosen)
    action = JointAction(alpha=np.ones(batch + (2,)), u=np.ones(batch + (2, 3)))
    for t in range(horizon):
        obs = env.observe(state)
        assert np.array_equal(obs.channel, chosen[t] + state.tape.obs[t][..., :2])
        assert np.array_equal(obs.plant, state.x + state.tape.plant_noise[t])
        res = env.step(state, action)
        assert np.array_equal(res.delivered, chosen[t] > 0.0)
        assert np.array_equal(env.lottery(state, action.alpha[None])[0], chosen[t] > 0.0)
        state = res.next_state


@pytest.mark.parametrize("rngs", [gen(41), [gen(41), gen(42), gen(43)]], ids=["single", "rows"])
@pytest.mark.parametrize("kind", ["linear", "cartpole"])
def test_tape_channel_is_each_steps_add(kind, rngs):
    env = noisy_env(kind, "region")
    tape = env.reset(17, rngs).tape
    # gains from 1e-300 to 1e300 beside the drawn noise
    scaled = replace(tape, gains=tape.gains * np.logspace(-300, 300, 3))
    for tape in (tape, scaled):
        assert tape.channel.shape == tape.gains[:-1].shape
        for t in range(tape.horizon):
            want = tape.gains[t] + tape.obs[t][..., :3]
            assert tape.channel[t].tobytes() == want.tobytes(), t
        with pytest.raises(ValueError, match="read-only"):
            tape.channel[0] += 1.0
