"""Property tests: laws that hold for every input Hypothesis generates.

Proves:
  1.  Config text round-trips: config_lines -> load_config(text=...) gives
      the same lines and config_hash for every preset, any out_dir text
      and in-range numeric overrides; an out_dir holding `#` or a line
      break, which would not read back whole, is refused naming out_dir
  2.  A member-stacked MLP (every critic is one) equals its separate
      members bitwise, for 1-5 members, 1-9 rows and any layer sizes
  3.  The environment's per-diagonal stage cost equals the three-operand
      einsum for finite states of any batch shape
  4.  B rows of one environment reset, observe and step bitwise like B
      single-row episodes on the same generators, for any B, m, plant
      kind and linear state and input size, per-plant process-noise
      variances that include 0, any constraint, with and without
      force_delivery, and feasible actions
  5.  Charging a stacked (T, *batch) trajectory equals T per-step charges
      bitwise, for linear and cart-pole plants, every constraint kind and
      none, batch shapes () and (B,), and states holding exact zeros and
      entries of both signs
  6.  An episode's delivery lottery rolled up front equals the per-step
      lottery tape.uniforms[t] < delivery_probability(snr(gains_t, alpha_t))
      bitwise, for every state-free allocator, 1-12 plants, batch shapes ()
      and (B,), every start t0 from 0 to the horizon (t0 = H: empty
      arrays) and both force_delivery settings; so does the one-step
      lottery (T = 1) step() rolls; its allocations are the per-step
      allocator calls', and a step handed its row of the lottery steps as
      one that rolls its own. An allocation made NaN, +-inf or negative at
      a drawn step, row and plant (and a later row) fails with one text
      from lottery() and from step(), naming that step and the first bad
      row; a negative zero is no bad allocation

The profile is derandomized, so every run tries the same examples.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from wcsrl.config import (  # noqa: E402
    SCENARIO_PRESETS,
    ConfigError,
    config_hash,
    config_lines,
    load_config,
)
from wcsrl.dynamics import FORCE_LIMIT, CostWeights, PlantModel, unstable_drift  # noqa: E402
from wcsrl.environment import ConstraintSpec, JointAction, WirelessControlEnv  # noqa: E402
from wcsrl.neuralnet import MLP  # noqa: E402
from wcsrl.policies import (  # noqa: E402
    HeuristicPolicy,
    episode_allocations,
    make_allocator,
    zero_controller,
)
from wcsrl.wireless import ChannelModel, delivery_probability, snr  # noqa: E402

settings.register_profile("wcsrl", derandomize=True, database=None, deadline=None)
settings.load_profile("wcsrl")


def finite(low: float, high: float):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


# -- 1: config text round-trips ----------------------------------------------

# Path text without surrounding whitespace, which the parser strips. `#`
# and line breaks are drawn often, since a value holding one is refused.
OUT_DIRS = (
    st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from("#\n/ ,"))
    .map(str.strip)
    .filter(bool)
)

NUMERIC = {
    "seed": st.integers(0, 2**63 - 1),
    "plants.count": st.integers(1, 12),
    "plants.process_noise": finite(0.0, 1e3),
    "channel.fading_scale": finite(1e-6, 1e3),
    "cost.r": st.lists(finite(1e-9, 1e9), min_size=1, max_size=1),
    "train.gamma": finite(0.0, 0.999999),
    "train.policy_lr": finite(1e-12, 1.0),
    "train.episodes": st.integers(1, 10**6),
    "train.hidden": st.lists(st.integers(1, 512), max_size=4),
    "train.init_std": finite(1e-9, 1e3),
    "eval.stochastic": st.booleans(),
}


@settings(max_examples=300)  # so that over a hundred out_dirs read back whole
@given(
    scenario=st.sampled_from(sorted(SCENARIO_PRESETS)),
    out_dir=OUT_DIRS,
    overrides=st.fixed_dictionaries({}, optional=NUMERIC),
)
def test_config_text_round_trips(scenario, out_dir, overrides):
    given = {"scenario": scenario, "out_dir": out_dir, **overrides}
    if "#" in out_dir or len(out_dir.splitlines()) > 1:
        with pytest.raises(ConfigError, match="^out_dir: "):
            load_config(overrides=given)
        return
    cfg = load_config(overrides=given)
    again = load_config(text="\n".join(config_lines(cfg)))
    assert again.out_dir == out_dir
    assert config_lines(again) == config_lines(cfg)
    assert config_hash(again) == config_hash(cfg)


# -- 2: stacked networks -----------------------------------------------------


@given(
    members=st.integers(1, 5),
    rows=st.integers(1, 9),
    sizes=st.lists(st.integers(1, 12), min_size=2, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_mlp_equals_its_members(members, rows, sizes, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    nets = [MLP(tuple(sizes), rng) for _ in range(members)]
    stacked = MLP.stack(nets)
    x = rng.standard_normal((members, rows, sizes[0]))
    g = rng.standard_normal((members, rows, sizes[-1]))
    out, cache = stacked.forward(x)
    grad = stacked.backward(cache, g)
    for i, net in enumerate(nets):
        out_i, cache_i = net.forward(x[i])
        assert np.array_equal(out[i], out_i)
        assert np.array_equal(grad[i], net.backward(cache_i, g[i]))
        assert np.array_equal(stacked.member(i).params, net.params)


# -- 3: per-diagonal stage cost ----------------------------------------------


@st.composite
def stage_cost_cases(draw):
    m = draw(st.integers(1, 4))
    rows = draw(st.one_of(st.none(), st.integers(1, 5)))  # None: an empty batch shape
    batch = () if rows is None else (rows,)
    weights = CostWeights(
        q=np.diag(draw(hnp.arrays(float, 3, elements=finite(0.0, 1e3)))),
        r=np.diag(draw(hnp.arrays(float, 3, elements=finite(1e-6, 1e3)))),
    )
    x = draw(hnp.arrays(float, batch + (m, 3), elements=finite(-1e100, 1e100)))
    alpha = draw(hnp.arrays(float, batch + (m,), elements=finite(0.0, 1e3)))
    u = draw(hnp.arrays(float, batch + (m, 3), elements=finite(-1e100, 1e100)))
    return m, rows, weights, x, alpha, u


@given(case=stage_cost_cases(), seed=st.integers(0, 2**32 - 1))
def test_diagonal_stage_cost_is_the_einsum(case, seed):
    m, rows, weights, x, alpha, u = case
    plant = PlantModel(
        kind="linear", a_mat=unstable_drift(1.1), b_mat=np.eye(3), process_noise=1.0
    )
    gens = [np.random.Generator(np.random.PCG64([seed, k])) for k in range(rows or 1)]
    env = WirelessControlEnv(
        plants=[plant] * m,
        channel=ChannelModel(distances=np.linspace(0.5, 1.5, m)),
        weights=weights,
    )
    start = env.reset(1, gens[0] if rows is None else gens)
    res = env.step(replace(start, x=x), JointAction(alpha=alpha, u=u))
    want = np.einsum("...ij,jk,...ik->...i", x, weights.q, x)
    want += np.einsum("...ij,jk,...ik->...i", res.realized_u, weights.r, res.realized_u)
    assert np.array_equal(env.charge(x, res.realized_u, alpha)[0], want)


# -- 4: batched rows equal single-row environments ---------------------------

CONSTRAINTS = {
    "sum_power": ConstraintSpec(kind="sum_power", power_budget=10.0),
    "region": ConstraintSpec(kind="region", region_half_width=0.5, region_budget=2.0),
    None: None,
}


@st.composite
def rows_cases(draw):
    kind = draw(st.sampled_from(["linear", "cartpole"]))
    m = draw(st.integers(1, 4))
    variance = st.sampled_from([0.0, 1e-4]) | finite(0.0, 1.0)
    variances = draw(st.lists(variance, min_size=m, max_size=m))
    if kind == "linear":
        p, q = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        a_mat = 1.05 * np.eye(p) + 0.1 * np.tri(p, k=-1)
        plants = [
            PlantModel(kind="linear", a_mat=a_mat, b_mat=np.ones((p, q)) / q, process_noise=v)
            for v in variances
        ]
    else:
        plants = [PlantModel(kind="cartpole", process_noise=v) for v in variances]
    constraint = CONSTRAINTS[draw(st.sampled_from(sorted(CONSTRAINTS, key=str)))]
    force_delivery = draw(st.booleans())
    options = dict(
        constraint=constraint,
        init_kind=draw(st.sampled_from(["normal", "uniform", "zero"])),
        init_scale=0.05 if kind == "cartpole" else 1.0,
    )
    return plants, options, force_delivery, draw(st.integers(1, 5)), draw(st.integers(1, 5))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(case=rows_cases(), seed=st.integers(0, 2**32 - 1))
def test_rows_equal_single_row_environments(case, seed):
    plants, options, force_delivery, rows, horizon = case
    m, p, q = len(plants), plants[0].state_dim, plants[0].input_dim
    aux = np.random.Generator(np.random.PCG64([seed, rows]))
    obs_var = np.where(aux.random(m * (1 + p)) < 0.3, 0.0, aux.random(m * (1 + p)))
    env = WirelessControlEnv(
        plants=plants,
        channel=ChannelModel(distances=np.linspace(0.8, 1.6, m)),
        weights=CostWeights(q=np.diag(np.arange(1.0, p + 1)), r=0.1 * np.eye(q)),
        obs_noise_cov=obs_var,
        **options,
    )

    def gens():
        return [np.random.Generator(np.random.PCG64([seed, k])) for k in range(rows)]

    rngs, single_rngs = gens(), gens()
    for _ in range(2):  # the second episode continues every row's stream
        state = env.reset(horizon, rngs, force_delivery)
        single_states = [env.reset(horizon, g, force_delivery) for g in single_rngs]
        for i, s in enumerate(single_states):
            assert same_bits(state.tape.process[:, i], s.tape.process)
            assert same_bits(state.tape.gains[:, i], s.tape.gains)
        for _ in range(horizon):
            obs = env.observe(state)
            alpha = np.abs(aux.standard_normal((rows, m)))
            u = np.clip(3.0 * aux.standard_normal((rows, m, q)), -FORCE_LIMIT, FORCE_LIMIT)
            res = env.step(state, JointAction(alpha=alpha, u=u))
            charged = env.charge(state.x, res.realized_u, alpha)
            for i, s in enumerate(single_states):
                one_obs = env.observe(s)
                assert same_bits(obs.channel[i], one_obs.channel)
                assert same_bits(obs.plant[i], one_obs.plant)
                one = env.step(s, JointAction(alpha=alpha[i], u=u[i]))
                for name in ("delivered", "realized_u"):
                    assert same_bits(getattr(res, name)[i], getattr(one, name)), name
                for got, want in zip(charged, env.charge(s.x, one.realized_u, alpha[i])):
                    assert same_bits(got[i], want)
                assert same_bits(res.next_state.x[i], one.next_state.x)
                single_states[i] = one.next_state
            state = res.next_state


# -- 5: a trajectory charged at once equals its per-step charges ---------------


@st.composite
def charge_cases(draw):
    kind = draw(st.sampled_from(["linear", "cartpole"]))
    m = draw(st.integers(1, 12))
    if kind == "linear":
        p, q = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        plants = [PlantModel(kind="linear", a_mat=np.eye(p), b_mat=np.ones((p, q)))] * m
    else:
        plants = [PlantModel(kind="cartpole")] * m
        p, q = plants[0].state_dim, plants[0].input_dim
    rows = draw(st.one_of(st.none(), st.integers(1, 4)))  # None: an empty batch shape
    shape = (draw(st.integers(0, 6)),) + (() if rows is None else (rows,))
    # exact zeros and both signs, around the region edge 0.5 and far out
    entry = st.sampled_from([0.0, -0.0, 0.5, -0.5]) | finite(-1e6, 1e6)
    x = draw(hnp.arrays(float, shape + (m, p), elements=entry))
    u = draw(hnp.arrays(float, shape + (m, q), elements=entry))
    alpha = draw(hnp.arrays(float, shape + (m,), elements=st.just(0.0) | finite(0.0, 1e3)))
    weights = CostWeights(
        q=np.diag(draw(hnp.arrays(float, p, elements=finite(0.0, 1e3)))),
        r=np.diag(draw(hnp.arrays(float, q, elements=finite(1e-6, 1e3)))),
    )
    constraint = CONSTRAINTS[draw(st.sampled_from(sorted(CONSTRAINTS, key=str)))]
    return plants, rows, weights, constraint, draw(finite(0.0, 1.0)), x, u, alpha


@given(case=charge_cases())
def test_trajectory_charge_equals_per_step_charges(case):
    plants, rows, weights, constraint, gamma, x, u, alpha = case
    env = WirelessControlEnv(
        plants=plants,
        channel=ChannelModel(distances=np.linspace(0.5, 1.5, len(plants))),
        weights=weights,
        gamma=gamma,
        constraint=constraint,
    )
    stacked = env.charge(x, u, alpha)
    assert stacked[2].shape == x.shape[:-2] + (env.n_signals,)
    for t in range(x.shape[0]):
        for got, want in zip(stacked, env.charge(x[t], u[t], alpha[t])):
            assert same_bits(got[t], want), t


# -- 6: an episode's lottery rolled up front equals the per-step lotteries -----

STATE_FREE = ["equal", "all_on", "zero", "round_robin", "channel_aware"]


@st.composite
def lottery_cases(draw):
    m = draw(st.integers(1, 12))
    rows = draw(st.one_of(st.none(), st.integers(1, 4)))  # None: an empty batch shape
    horizon = draw(st.integers(0, 8))
    allocator = make_allocator(
        draw(st.sampled_from(STATE_FREE)),
        m,
        draw(st.integers(1, m)),
        draw(st.sampled_from([1e-6, 1.0]) | finite(1e-6, 1e3)),
    )
    force_delivery = draw(st.booleans())
    obs_noise_cov = np.full(m * 4, draw(st.sampled_from([0.0, 0.3])))
    t0 = draw(st.integers(0, horizon))
    # a bad entry at (step, row, plant), repeated at a later row; -0.0 is no bad entry
    first_row = draw(st.integers(0, (rows or 1) - 1))
    fault = (
        draw(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]) | finite(-1e3, -1e-300)),
        draw(st.integers(t0, max(t0, horizon - 1))),
        first_row,
        draw(st.integers(first_row, (rows or 1) - 1)),
        draw(st.integers(0, m - 1)),
    )
    return m, rows, horizon, t0, allocator, force_delivery, obs_noise_cov, fault


@given(case=lottery_cases(), seed=st.integers(0, 2**32 - 1))
def test_up_front_lottery_equals_per_step_lotteries(case, seed):
    m, rows, horizon, t0, allocator, force_delivery, obs_noise_cov, where = case
    bad, bad_t, first_row, later_row, bad_plant = where
    plant = PlantModel(
        kind="linear", a_mat=unstable_drift(1.1), b_mat=np.eye(3), process_noise=0.1
    )
    gens = [np.random.Generator(np.random.PCG64([seed, k])) for k in range(rows or 1)]
    env = WirelessControlEnv(
        plants=[plant] * m,
        channel=ChannelModel(distances=np.linspace(0.3, 2.5, m)),
        weights=CostWeights(q=np.eye(3), r=np.eye(3)),
        obs_noise_cov=obs_noise_cov,
    )
    start = env.reset(horizon, gens[0] if rows is None else gens, force_delivery)
    tape, batch = start.tape, start.x.shape[:-2]
    state = replace(start, t=t0)
    policy = HeuristicPolicy(allocator, zero_controller(m, 3))
    alphas = episode_allocations(policy, tape.channel[t0:], t0)
    delivered = env.lottery(state, alphas)
    assert alphas.shape == delivered.shape == (horizon - t0,) + batch + (m,)
    u = np.random.Generator(np.random.PCG64(seed)).standard_normal(batch + (m, 3))
    bad_alphas = alphas.copy()
    for r in {first_row, later_row} if t0 < horizon else ():
        bad_alphas[(bad_t - t0,) + (() if rows is None else (r,)) + (bad_plant,)] = bad
    if t0 < horizon and not (np.isfinite(bad) and bad >= 0.0):
        fault = (
            f"negative allocation: min entry {bad:.3e}" if np.isfinite(bad)
            else "non-finite allocation"
        )
        message = f"step {bad_t}{'' if rows is None else f', row {first_row}'}: {fault}"
        with pytest.raises(ValueError) as up_front:
            env.lottery(state, bad_alphas)
        assert str(up_front.value) == message
    else:  # a negative zero, or no step to make bad (t0 = H)
        message = None
        zeroed = bad_alphas + 0.0  # -0.0 made +0.0: the same success probabilities
        assert same_bits(env.lottery(state, bad_alphas), env.lottery(state, zeroed))
    for t in range(t0, horizon):
        alpha = np.broadcast_to(allocator(env.observe(state), t), batch + (m,))
        assert same_bits(alphas[t - t0], np.ascontiguousarray(alpha)), t
        if force_delivery:
            want = np.ones(alpha.shape, dtype=bool)
        else:
            want = tape.uniforms[t] < delivery_probability(snr(tape.gains[t], alpha))
        assert same_bits(delivered[t - t0], want), t
        # the one-step roll step() makes, T = 1 of the rest of the tape
        assert same_bits(env.lottery(state, alpha[None]), want[None]), t
        if t == bad_t and message is not None:
            with pytest.raises(ValueError) as per_step:
                env.step(state, JointAction(alpha=bad_alphas[t - t0], u=u))
            assert str(per_step.value) == message, t
        own = env.step(state, JointAction(alpha=alpha, u=u))
        handed = env.step(state, JointAction(alpha=alphas[t - t0], u=u), delivered[t - t0])
        for name in ("delivered", "realized_u"):
            assert same_bits(getattr(handed, name), getattr(own, name)), (t, name)
        assert same_bits(handed.next_state.x, own.next_state.x), t
        state = own.next_state
