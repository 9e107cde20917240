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
  12.  Checkpoint save/load round-trips actor and critic bitwise into
       networks built beforehand; a stored critic of another output width,
       an actor of another head field and a critic loaded as an actor are
       refused, naming the file, the field and both values
  13.  Loading a mis-shaped stored array names the file, its key and both
       shapes
  14.  Optimizers take the expected first step in place (sgd exact,
       rmsprop scale); in-place RMSProp is the returned-copy form bitwise
 Group 4: Member-stacked networks, bitwise against m separate ones
  15.  MLP forward and backward
  16.  GaussianActor sample (same generator end state), act_mean,
       grad_weighted_log_prob and grad_entropy; a one-output critic MLP
  17.  The same for 1, 2 and 5 members, 1 and 7 rows, no hidden layer or (3,)
  18.  get_flat / set_flat, member views and stacking
  19.  Writes through set_flat and an optimizer step reach every view:
       forward, sample, log_std and member(i)
  20.  clip_global_norm clips each member on its own norm
"""
from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from wcsrl.neuralnet import (
    MLP,
    GaussianActor,
    HeadSpec,
    RMSProp,
    SGD,
    clip_global_norm,
    gaussian_log_prob,
    gradient_error,
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
M = 3  # members of a stacked network


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
    objective = lambda: float(np.sum(coeffs * actor.log_prob(obs, raw)))
    before = actor.get_flat()
    assert gradient_error(actor, objective, analytic) < 1e-6
    assert np.array_equal(actor.get_flat(), before)  # parameters restored


def test_critic_gradient_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(59))
    critic = MLP((5, 8, 1), rng)
    obs = rng.standard_normal((4, 5))
    coeffs = rng.standard_normal(4)
    analytic = critic.backward(critic.forward(obs)[1], coeffs[..., None])
    objective = lambda: float(np.sum(coeffs * critic.forward(obs)[0][..., 0]))
    assert gradient_error(critic, objective, analytic) < 1e-6


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
    loaded = GaussianActor(8, head, (16, 16))
    assert load_actor(path, loaded) is None
    assert np.array_equal(loaded.get_flat(), actor.get_flat())
    assert loaded.head == actor.head
    obs = rng.standard_normal((2, 8))
    a1, u1 = actor.act_mean(obs)
    a2, u2 = loaded.act_mean(obs)
    assert np.array_equal(a1, a2)
    assert np.array_equal(u1, u2)

    critic = MLP((8, 16, 16, 1), rng)
    cpath = str(tmp_path / "critic.npz")
    save_critic(cpath, critic)
    cloaded = MLP(critic.sizes)
    load_critic(cpath, cloaded)
    assert np.array_equal(cloaded.get_flat(), critic.get_flat())
    assert np.array_equal(cloaded.forward(obs)[0], critic.forward(obs)[0])
    # the stored sizes and head are checked against the network loaded into
    save_critic(cpath, MLP((8, 16, 2), rng))
    with pytest.raises(ValueError, match=re.escape("sizes is (8, 16, 2), expected (8, 16, 1)")):
        load_critic(cpath, MLP((8, 16, 1)))
    other = GaussianActor(8, replace(head, alpha_total=3.0), (16, 16))
    with pytest.raises(ValueError, match=re.escape("head.alpha_total is 2.0, expected 3.0")):
        load_actor(path, other)
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {cpath}: kind is 'critic'")):
        load_actor(cpath, loaded)


@pytest.mark.parametrize(
    "load, key, bad",
    [
        (load_actor, "log_std", np.zeros(5)),
        (load_actor, "w1", np.zeros((8, 4))),
        (load_actor, "b0", np.array(0.0)),
        (load_critic, "w0", np.zeros((3, 8))),
    ],
    ids=["log_std", "weight", "bias_0d", "critic_weight"],
)
def test_checkpoint_names_misshaped_array(tmp_path, load, key, bad):
    rng = np.random.Generator(np.random.PCG64(75))
    path = str(tmp_path / "net.npz")
    if load is load_actor:
        save_actor(path, GaussianActor(4, HeadSpec(n_plants=1, control_dim=3), (8,), rng))
    else:
        save_critic(path, MLP((4, 8, 1), rng))
    with np.load(path) as data:
        arrays = dict(data)
    want = arrays[key].shape
    arrays[key] = bad
    np.savez(path, **arrays)
    if load is load_actor:
        into = GaussianActor(4, HeadSpec(n_plants=1, control_dim=3), (8,))
    else:
        into = MLP((4, 8, 1))
    message = f"checkpoint {path}: {key} has shape {bad.shape}, expected {want}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load(path, into)


def test_optimizer_steps():
    x = np.array([1.0, 2.0])
    g = np.array([0.5, -1.0])
    params = x.copy()
    SGD().step(params, g, 0.1)
    assert np.allclose(params, [0.95, 2.1], atol=1e-15)
    # rmsprop first step: cache = (1-decay) g^2, step = lr g / (sqrt(cache) + eps)
    params = x.copy()
    RMSProp(decay=0.99, eps=1e-8).step(params, g, 0.1)
    expect = x - 0.1 * g / (np.sqrt(0.01 * g**2) + 1e-8)
    assert np.allclose(params, expect, atol=1e-12)


def returned_copy_rmsprop(params, grads, lr, decay=0.99, eps=1e-8):
    """RMSProp written as expressions that return new arrays: the oracle for
    the in-place step."""
    cache = np.zeros_like(params)
    for g in grads:
        cache = decay * cache + (1.0 - decay) * g**2
        params = params - lr * g / (np.sqrt(cache) + eps)
    return params, cache


def test_rmsprop_in_place_is_the_returned_copy():
    rng = np.random.Generator(np.random.PCG64(77))
    params = rng.standard_normal((M, 40))
    # gradients over several magnitudes, so the cache's running sum rounds
    grads = [10.0 ** rng.uniform(-6, 2, size=params.shape) * rng.standard_normal(params.shape)
             for _ in range(5)]
    want_params, want_cache = returned_copy_rmsprop(params, grads, 0.01)
    opt = RMSProp()
    for g in grads:
        opt.step(params, g, 0.01)
    assert np.array_equal(params, want_params)
    assert np.array_equal(opt.cache, want_cache)


def test_clip_global_norm():
    g = np.array([3.0, 4.0])  # norm 5
    clipped = clip_global_norm(g, 1.0)
    assert np.allclose(clipped, [0.6, 0.8], atol=1e-12)
    assert np.array_equal(clip_global_norm(g, 10.0), g)
    assert np.array_equal(clip_global_norm(g, 0.0), g)  # disabled


def test_clip_global_norm_is_the_single_vector_rule():
    g = np.random.Generator(np.random.PCG64(79)).standard_normal(257)
    norm = float(np.linalg.norm(g))
    assert np.array_equal(clip_global_norm(g, 0.5), g * (0.5 / norm))


# Group 4 -------------------------------------------------------------------


def separate_and_stacked(make):
    """M networks built one after another from one generator, and their stack."""
    rng = np.random.Generator(np.random.PCG64(83))
    nets = [make(rng) for _ in range(M)]
    return nets, type(nets[0]).stack(nets), rng


@pytest.mark.parametrize("rows", [1, 7])
def test_stacked_mlp_forward_backward_bitwise(rows):
    nets, stacked, rng = separate_and_stacked(lambda r: MLP((5, 8, 8, 2), r))
    assert stacked.members == (M,)
    x = rng.standard_normal((M, rows, 5))
    g = rng.standard_normal((M, rows, 2))
    out, cache = stacked.forward(x)
    grad = stacked.backward(cache, g)
    assert grad.shape == (M, stacked.n_params)
    for i, net in enumerate(nets):
        out_i, cache_i = net.forward(x[i])
        assert np.array_equal(out[i], out_i)
        assert np.array_equal(grad[i], net.backward(cache_i, g[i]))


@pytest.mark.parametrize("bounded", [True, False], ids=["bounded", "unbounded"])
def test_stacked_actor_bitwise(bounded):
    head = HeadSpec(n_plants=1, control_dim=2, control_low=-3.0 if bounded else None,
                    control_high=3.0 if bounded else None)
    actors, stacked, rng = separate_and_stacked(
        lambda r: GaussianActor(4, head, (8, 8), r, init_log_std=np.log(0.7))
    )
    # distinct log-stds per member, so a member mix-up would show
    for i, a in enumerate(actors):
        a.log_std += 0.1 * i
    stacked = GaussianActor.stack(actors)
    obs = rng.standard_normal((M, 6, 4))

    rng_stacked = np.random.Generator(np.random.PCG64(89))
    rng_single = np.random.Generator(np.random.PCG64(89))
    sample = stacked.sample(obs, rng_stacked)
    singles = [a.sample(obs[i], rng_single) for i, a in enumerate(actors)]
    assert rng_stacked.bit_generator.state == rng_single.bit_generator.state
    _, u_mean = stacked.act_mean(obs)
    coeffs = rng.standard_normal((M, 6))
    grad = stacked.grad_weighted_log_prob(obs, sample.raw, coeffs)
    for i, a in enumerate(actors):
        assert np.array_equal(sample.raw[i], singles[i].raw)
        assert np.array_equal(sample.u[i], singles[i].u)
        assert np.array_equal(u_mean[i], a.act_mean(obs[i])[1])
        assert np.array_equal(grad[i], a.grad_weighted_log_prob(obs[i], sample.raw[i], coeffs[i]))
        assert np.array_equal(stacked.grad_entropy()[i], a.grad_entropy())
        assert np.array_equal(
            stacked.log_prob(obs, sample.raw)[i], a.log_prob(obs[i], sample.raw[i])
        )


def test_stacked_critic_bitwise():
    critics, stacked, rng = separate_and_stacked(lambda r: MLP((4, 8, 8, 1), r))
    obs = rng.standard_normal((M, 5, 4))
    dloss = rng.standard_normal((M, 5, 1))
    values, cache = stacked.forward(obs)
    grad = stacked.backward(cache, dloss)
    for i, c in enumerate(critics):
        values_i, cache_i = c.forward(obs[i])
        assert np.array_equal(values[i], values_i)
        assert np.array_equal(grad[i], c.backward(cache_i, dloss[i]))


@pytest.mark.parametrize("hidden", [(), (3,)], ids=["no_hidden", "hidden_3"])
@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_stack_equals_separate_networks(m, rows, hidden):
    head = HeadSpec(n_plants=1, control_dim=2, control_low=-3.0, control_high=3.0)
    rng = np.random.Generator(np.random.PCG64(101))
    actors = [GaussianActor(4, head, hidden, rng) for _ in range(m)]
    critics = [MLP((4, *hidden, 1), rng) for _ in range(m)]
    for i, a in enumerate(actors):
        a.log_std += 0.1 * i
    actor, critic = GaussianActor.stack(actors), MLP.stack(critics)
    net = MLP.stack([a.net for a in actors])
    obs = rng.standard_normal((m, rows, 4))
    coeffs = rng.standard_normal((m, rows))
    g_out = rng.standard_normal((m, rows, 2))

    rng_stacked = np.random.Generator(np.random.PCG64(103))
    rng_single = np.random.Generator(np.random.PCG64(103))
    raw = actor.sample(obs, rng_stacked).raw
    out, cache = net.forward(obs)
    grad = net.backward(cache, g_out)
    actor_grad = actor.grad_weighted_log_prob(obs, raw, coeffs)
    values, critic_cache = critic.forward(obs)
    critic_grad = critic.backward(critic_cache, coeffs[..., None])
    for i, (a, c) in enumerate(zip(actors, critics)):
        assert np.array_equal(raw[i], a.sample(obs[i], rng_single).raw)
        out_i, cache_i = a.net.forward(obs[i])
        assert np.array_equal(out[i], out_i)
        assert np.array_equal(grad[i], a.net.backward(cache_i, g_out[i]))
        assert np.array_equal(actor_grad[i], a.grad_weighted_log_prob(obs[i], raw[i], coeffs[i]))
        values_i, cache_i = c.forward(obs[i])
        assert np.array_equal(values[i], values_i)
        assert np.array_equal(critic_grad[i], c.backward(cache_i, coeffs[i][..., None]))
        assert np.array_equal(actor.member(i).params, a.params)
    assert rng_stacked.bit_generator.state == rng_single.bit_generator.state


def test_stacked_flat_roundtrip_and_members():
    head = HeadSpec(n_plants=1, control_dim=1)
    actors, stacked, rng = separate_and_stacked(lambda r: GaussianActor(3, head, (8,), r))
    flat = stacked.get_flat()
    assert flat.shape == (M, stacked.n_params)
    for i, a in enumerate(actors):
        assert np.array_equal(flat[i], a.get_flat())
        assert np.array_equal(stacked.member(i).get_flat(), a.get_flat())
    new = rng.standard_normal(flat.shape)
    stacked.set_flat(new)
    for i, a in enumerate(actors):
        a.set_flat(new[i])
        assert np.array_equal(stacked.member(i).get_flat(), a.get_flat())
    assert np.array_equal(stacked.get_flat(), new)
    with pytest.raises(ValueError, match="parameters"):
        stacked.set_flat(new[0])
    with pytest.raises(ValueError, match="stack"):
        MLP.stack([MLP((3, 4, 1), rng), MLP((3, 5, 1), rng)])


@pytest.mark.parametrize("write", ["set_flat", "sgd", "rmsprop"])
def test_writes_reach_every_view(write):
    head = HeadSpec(n_plants=1, control_dim=2)
    _, stacked, rng = separate_and_stacked(lambda r: GaussianActor(3, head, (8,), r))
    member = stacked.member(1)
    views = [*stacked.net.weights, *stacked.net.biases, stacked.log_std, stacked.net.params]
    for view in views + [member.params, *member.net.weights, member.log_std]:
        assert np.shares_memory(view, stacked.params)
    grad = rng.standard_normal(stacked.params.shape)
    if write == "set_flat":
        new = grad
        stacked.set_flat(new)
    elif write == "sgd":
        new = stacked.get_flat() - 0.1 * grad
        SGD().step(stacked.params, grad, 0.1)
    else:
        new = returned_copy_rmsprop(stacked.get_flat(), [grad], 0.1)[0]
        RMSProp().step(stacked.params, grad, 0.1)
    assert np.array_equal(stacked.params, new)

    obs = rng.standard_normal((M, 2, 3))
    raw = stacked.sample(obs, np.random.Generator(np.random.PCG64(107))).raw
    rng_single = np.random.Generator(np.random.PCG64(107))
    for i in range(M):
        fresh = GaussianActor(3, head, (8,))
        fresh.set_flat(new[i])
        assert np.array_equal(stacked.member(i).params, new[i])
        assert np.array_equal(stacked.log_std[i], fresh.log_std)
        assert np.array_equal(stacked.net.forward(obs)[0][i], fresh.net.forward(obs[i])[0])
        assert np.array_equal(raw[i], fresh.sample(obs[i], rng_single).raw)
    assert np.array_equal(member.log_std, stacked.log_std[1])
    assert np.array_equal(member.net.forward(obs[1])[0], stacked.net.forward(obs)[0][1])


def test_clip_global_norm_per_member():
    rng = np.random.Generator(np.random.PCG64(97))
    g = 0.01 * rng.standard_normal((M, 40))
    g[1] *= 1e4  # only member 1 is over the bound
    clipped = clip_global_norm(g, 1.0)
    assert np.array_equal(clipped[0], g[0])
    assert np.array_equal(clipped[2], g[2])
    assert np.array_equal(clipped[1], clip_global_norm(g[1], 1.0))
    assert np.linalg.norm(clipped[1]) == pytest.approx(1.0, rel=1e-12)
