"""Property tests: laws that hold for every input Hypothesis generates.

Proves:
  1.  Config text round-trips: config_lines -> load_config(text=...) gives
      the same lines and config_hash for every preset, any out_dir text
      and in-range numeric overrides
  2.  A member-stacked MLP (every critic is one) equals its separate
      members bitwise, for 1-5 members, 1-9 rows and any layer sizes
  3.  The environment's per-diagonal stage cost equals the three-operand
      einsum for finite states of any batch shape

The profile is derandomized, so every run tries the same examples.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from wcsrl.config import SCENARIO_PRESETS, config_hash, config_lines, load_config  # noqa: E402
from wcsrl.dynamics import CostWeights, PlantModel, unstable_drift  # noqa: E402
from wcsrl.environment import JointAction, WirelessControlEnv  # noqa: E402
from wcsrl.neuralnet import MLP  # noqa: E402
from wcsrl.wireless import ChannelModel  # noqa: E402

settings.register_profile("wcsrl", derandomize=True, database=None, deadline=None)
settings.load_profile("wcsrl")


def finite(low: float, high: float):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


# -- 1: config text round-trips ----------------------------------------------

# Path text as config_lines writes it: one line, no comment sign, and no
# surrounding whitespace, which the parser strips.
OUT_DIRS = (
    st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"), exclude_characters="#"))
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


@given(
    scenario=st.sampled_from(sorted(SCENARIO_PRESETS)),
    out_dir=OUT_DIRS,
    overrides=st.fixed_dictionaries({}, optional=NUMERIC),
)
def test_config_text_round_trips(scenario, out_dir, overrides):
    cfg = load_config(overrides={"scenario": scenario, "out_dir": out_dir, **overrides})
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
        kind="linear", a_mat=unstable_drift(1.1), b_mat=np.eye(3), process_noise_cov=np.eye(3)
    )
    gens = [np.random.Generator(np.random.PCG64([seed, k])) for k in range(rows or 1)]
    env = WirelessControlEnv(
        plants=[plant] * m,
        channel=ChannelModel(distances=np.linspace(0.5, 1.5, m)),
        weights=weights,
        rng=gens[0] if rows is None else gens,
    )
    res = env.step(replace(env.reset(1), x=x), JointAction(alpha=alpha, u=u))
    want = np.einsum("...ij,jk,...ik->...i", x, weights.q, x)
    want += np.einsum("...ij,jk,...ik->...i", res.realized_u, weights.r, res.realized_u)
    assert np.array_equal(res.per_plant_costs, want)
