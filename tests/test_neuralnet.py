"""Network, structural output layers, and gradient tests.

Proves:
 Group 1: Structural layers
   1.  Simplex layer: zero logits split the budget evenly over m+1 slots
   2.  Simplex outputs are feasible for 1e4 random and extreme inputs
   3.  Interval layer: zero raw maps to the midpoint, extremes stay inside
   4.  Softplus layer: ln 2 at zero, positive everywhere, linear for large raw
   5.  Gaussian log density at the mean is -0.5 log(2 pi) per dimension
 Group 2: Network mechanics
   6.  Initial weights stay inside +-1/sqrt(fan_in)
   7.  Forward pass matches a hand-rolled tanh network
   8.  get_flat / set_flat round-trips exactly
   9.  Analytic gradients match finite differences (every head layout)
 Group 3: Sampling and persistence
  10.  sample() transforms of the raw draw agree with transform()
  11.  Deterministic given the generator state
  12.  Checkpoint save/load round-trips actor and critic bitwise
  13.  Optimizers take the expected first step (sgd exact, rmsprop scale)
"""
from __future__ import annotations

import numpy as np
import pytest

from wcsrl.neuralnet import (
    MLP,
    GaussianActor,
    HeadSpec,
    RMSProp,
    SGD,
    ValueNet,
    clip_global_norm,
    finite_difference_grad,
    gaussian_log_prob,
    interval_layer,
    load_actor,
    load_critic,
    positive_layer,
    save_actor,
    save_critic,
    simplex_layer,
    softmax,
)

STD_NORMAL_LOGP_AT_MEAN = -0.9189385332046727  # -0.5 * ln(2 pi)


# Group 1 -------------------------------------------------------------------


def test_simplex_layer_uniform_at_zero():
    # two plants plus the slack slot: each gets total/3
    out = simplex_layer(np.zeros(3), 4.0)
    assert np.allclose(out, [4.0 / 3.0, 4.0 / 3.0], atol=1e-14)


def test_simplex_layer_feasibility_bulk():
    rng = np.random.Generator(np.random.PCG64(31))
    raw = 50.0 * rng.standard_normal((10_000, 5))
    raw[0] = [1e3, -1e3, 0.0, 1e3, -1e3]  # extreme logits stay finite
    out = simplex_layer(raw, 7.0)
    assert out.shape == (10_000, 4)
    assert np.all(out >= 0)
    assert np.all(out.sum(axis=1) <= 7.0 + 1e-9)
    assert np.all(np.isfinite(out))


def test_interval_layer_bounds():
    assert interval_layer(np.zeros(1), -10.0, 10.0)[0] == pytest.approx(0.0, abs=1e-12)
    assert interval_layer(np.array([np.log(3.0)]), 0.0, 4.0)[0] == pytest.approx(3.0, abs=1e-12)
    rng = np.random.Generator(np.random.PCG64(33))
    raw = np.concatenate([1e6 * rng.standard_normal(5_000), 100.0 * rng.standard_normal(5_000)])
    out = interval_layer(raw, -2.0, 3.0)
    assert np.all(out >= -2.0)
    assert np.all(out <= 3.0)


def test_positive_layer_values():
    assert positive_layer(np.zeros(1))[0] == pytest.approx(np.log(2.0), abs=1e-14)
    out = positive_layer(np.array([-500.0, -5.0, 0.0, 5.0, 500.0]))
    assert np.all(out > 0)
    assert out[-1] == pytest.approx(500.0, abs=1e-9)


def test_gaussian_log_prob_at_mean():
    mean = np.array([0.3, -0.7])
    logp = gaussian_log_prob(mean, mean, np.zeros(2))
    assert logp == pytest.approx(2 * STD_NORMAL_LOGP_AT_MEAN, abs=1e-12)
    # scaling: doubling sigma subtracts ln 2 per dimension at the mean
    logp2 = gaussian_log_prob(mean, mean, np.log(2.0) * np.ones(2))
    assert logp2 == pytest.approx(2 * STD_NORMAL_LOGP_AT_MEAN - 2 * np.log(2.0), abs=1e-12)


def test_softmax_stability():
    out = softmax(np.array([[1000.0, 1000.0, -1000.0]]))
    assert np.allclose(out[0], [0.5, 0.5, 0.0], atol=1e-12)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


# Group 2 -------------------------------------------------------------------


def test_init_bounds():
    rng = np.random.Generator(np.random.PCG64(41))
    net = MLP((9, 64, 64, 3), rng)
    for w, b, n_in in zip(net.weights, net.biases, (9, 64, 64)):
        bound = 1.0 / np.sqrt(n_in)
        assert np.all(np.abs(w) <= bound)
        assert np.all(np.abs(b) <= bound)


def test_forward_matches_manual():
    rng = np.random.Generator(np.random.PCG64(43))
    net = MLP((4, 5, 2), rng)
    x = rng.standard_normal((3, 4))
    hidden = np.tanh(x @ net.weights[0] + net.biases[0])
    manual = hidden @ net.weights[1] + net.biases[1]
    out, _ = net.forward(x)
    assert np.allclose(out, manual, atol=1e-14)


def test_flat_roundtrip():
    rng = np.random.Generator(np.random.PCG64(47))
    net = MLP((4, 8, 2), rng)
    flat = net.get_flat()
    assert flat.size == net.n_params
    net2 = MLP((4, 8, 2), np.random.Generator(np.random.PCG64(999)))
    net2.set_flat(flat)
    assert np.array_equal(net2.get_flat(), flat)
    x = rng.standard_normal((2, 4))
    assert np.array_equal(net.forward(x)[0], net2.forward(x)[0])


@pytest.mark.parametrize(
    "head",
    [
        HeadSpec(n_plants=3, alloc="simplex", alpha_total=3.0),
        HeadSpec(n_plants=3, alloc="softplus"),
        HeadSpec(n_plants=2, alloc="simplex", alpha_total=2.0, control_dim=3),
        HeadSpec(n_plants=2, alloc="softplus", control_dim=3),
        HeadSpec(n_plants=1, control_dim=1, control_low=-10.0, control_high=10.0),
        HeadSpec(n_plants=1, control_dim=3),
    ],
    ids=["simplex", "softplus", "joint_simplex", "joint_softplus", "bounded", "unbounded"],
)
def test_policy_gradient_matches_finite_differences(head):
    rng = np.random.Generator(np.random.PCG64(53))
    obs_dim = 6
    actor = GaussianActor(obs_dim, head, (8,), rng)
    obs = rng.standard_normal((4, obs_dim))
    raw = actor.net.forward(obs)[0] + 0.5 * rng.standard_normal((4, head.raw_dim))
    coeffs = rng.standard_normal(4)
    analytic = actor.grad_weighted_log_prob(obs, raw, coeffs)

    def objective(flat):
        saved = actor.get_flat()
        actor.set_flat(flat)
        val = float(np.sum(coeffs * actor.log_prob(obs, raw)))
        actor.set_flat(saved)
        return val

    numeric = finite_difference_grad(objective, actor.get_flat())
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-6


def test_critic_gradient_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(59))
    critic = ValueNet(5, (8,), rng)
    obs = rng.standard_normal((4, 5))
    coeffs = rng.standard_normal(4)
    analytic = critic.grad_weighted(obs, coeffs)

    def objective(flat):
        saved = critic.get_flat()
        critic.set_flat(flat)
        val = float(np.sum(coeffs * critic.values(obs)))
        critic.set_flat(saved)
        return val

    numeric = finite_difference_grad(objective, critic.get_flat())
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-6


# Group 3 -------------------------------------------------------------------


def test_sample_consistent_with_transform():
    rng = np.random.Generator(np.random.PCG64(61))
    head = HeadSpec(n_plants=2, alloc="simplex", alpha_total=2.0, control_dim=1)
    actor = GaussianActor(5, head, (8,), rng)
    obs = rng.standard_normal((3, 5))
    sample = actor.sample(obs, rng)
    alpha, u = actor.transform(sample.raw)
    assert np.array_equal(sample.alpha, alpha)
    assert np.array_equal(sample.u, u)


def test_sampling_deterministic_given_seed():
    head = HeadSpec(n_plants=2, alloc="softplus")
    a1 = GaussianActor(4, head, (8,), np.random.Generator(np.random.PCG64(71)))
    a2 = GaussianActor(4, head, (8,), np.random.Generator(np.random.PCG64(71)))
    obs = np.random.Generator(np.random.PCG64(5)).standard_normal((2, 4))
    s1 = a1.sample(obs, np.random.Generator(np.random.PCG64(6)))
    s2 = a2.sample(obs, np.random.Generator(np.random.PCG64(6)))
    assert np.array_equal(s1.raw, s2.raw)
    assert np.array_equal(s1.alpha, s2.alpha)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(73))
    head = HeadSpec(n_plants=2, alloc="simplex", alpha_total=2.0, control_dim=3)
    actor = GaussianActor(8, head, (16, 16), rng)
    path = str(tmp_path / "actor.npz")
    save_actor(path, actor)
    loaded = load_actor(path)
    assert np.array_equal(loaded.get_flat(), actor.get_flat())
    assert loaded.head == actor.head
    obs = rng.standard_normal((2, 8))
    a1, u1 = actor.act_mean(obs)
    a2, u2 = loaded.act_mean(obs)
    assert np.array_equal(a1, a2)
    assert np.array_equal(u1, u2)

    critic = ValueNet(8, (16, 16), rng)
    cpath = str(tmp_path / "critic.npz")
    save_critic(cpath, critic)
    cloaded = load_critic(cpath)
    assert np.array_equal(cloaded.get_flat(), critic.get_flat())
    assert np.array_equal(cloaded.values(obs), critic.values(obs))


def test_optimizer_steps():
    x = np.array([1.0, 2.0])
    g = np.array([0.5, -1.0])
    assert np.allclose(SGD().step(x, g, 0.1), [0.95, 2.1], atol=1e-15)
    # rmsprop first step: cache = (1-decay) g^2, step = lr g / (sqrt(cache) + eps)
    opt = RMSProp(decay=0.99, eps=1e-8)
    out = opt.step(x, g, 0.1)
    expect = x - 0.1 * g / (np.sqrt(0.01 * g**2) + 1e-8)
    assert np.allclose(out, expect, atol=1e-12)


def test_clip_global_norm():
    g = np.array([3.0, 4.0])  # norm 5
    clipped = clip_global_norm(g, 1.0)
    assert np.allclose(clipped, [0.6, 0.8], atol=1e-12)
    assert np.array_equal(clip_global_norm(g, 10.0), g)
    assert np.array_equal(clip_global_norm(g, 0.0), g)  # disabled
