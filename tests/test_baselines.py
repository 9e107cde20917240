"""Riccati solver and heuristic allocator tests.

Proves:
 Group 1: Riccati / LQR
   1.  Scalar DARE a=2, b=1, q=r=1: P = 2 + sqrt(5), K = (1 + sqrt(5)) / 2
   2.  Stable uncontrollable scalar: P = q / (1 - a^2) = 4/3
   3.  Closed loop A - B K is stable across the unstable-drift family
   4.  Riccati residual vanishes on a random stabilizable system
   5.  lqr_control computes -K x
 Group 2: Allocation heuristics
   6.  equal_power splits the budget exactly
   7.  round_robin activates blocks cyclically with full budget on k plants
   8.  channel_aware picks the k best gains, ties to the lower index
   9.  control_aware ranks by state norm
  10.  default_active_count is max(1, round(m/3))
  11.  invalid arguments raise
  12.  the selecting heuristics equal their put_along_axis / np.linalg.norm
       oracles bitwise at batch shapes (), (8,) and (2, 3), with tied scores
  13.  every allocator make_allocator builds (the cached round-robin cycle
       included) gives bitwise the output of its baselines function
"""
from __future__ import annotations

import numpy as np
import pytest

import oracles
from wcsrl import policies
from wcsrl.baselines import (
    channel_aware,
    control_aware,
    default_active_count,
    equal_power,
    lqr_control,
    lqr_gain,
    round_robin,
    solve_dare,
    top_k_indices,
)
from wcsrl.environment import Observation
from wcsrl.dynamics import unstable_drift

SQRT5 = np.sqrt(5.0)


# Group 1 -------------------------------------------------------------------


def test_scalar_dare_closed_form():
    a = np.array([[2.0]])
    b = np.array([[1.0]])
    q = np.array([[1.0]])
    r = np.array([[1.0]])
    p = solve_dare(a, b, q, r)
    assert abs(p[0, 0] - (2.0 + SQRT5)) < 1e-9
    k = lqr_gain(a, b, q, r)
    assert abs(k[0, 0] - (1.0 + SQRT5) / 2.0) < 1e-9


def test_scalar_dare_no_control():
    # b = 0, |a| < 1: the cost-to-go sums the geometric series q / (1 - a^2)
    p = solve_dare(np.array([[0.5]]), np.array([[0.0]]), np.eye(1), np.eye(1))
    assert abs(p[0, 0] - 4.0 / 3.0) < 1e-10


def test_closed_loop_stability_family():
    q = np.eye(3)
    r = np.eye(3)
    b = np.eye(3)
    for a_val in (1.05, 1.1, 1.15):
        a = unstable_drift(a_val)
        k = lqr_gain(a, b, q, r)
        radius = np.abs(np.linalg.eigvals(a - b @ k)).max()
        assert radius < 1.0


def test_dare_residual_random_system():
    rng = np.random.Generator(np.random.PCG64(23))
    a = 0.9 * rng.standard_normal((4, 4)) / 2
    b = rng.standard_normal((4, 2))
    q = np.eye(4)
    r = np.eye(2)
    p = solve_dare(a, b, q, r)
    # P = A'PA - A'PB (R + B'PB)^-1 B'PA + Q
    inner = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
    residual = a.T @ p @ a - a.T @ p @ b @ inner + q - p
    assert np.abs(residual).max() < 1e-9
    assert np.allclose(p, p.T, atol=1e-10)


def test_lqr_control_sign():
    gain = np.array([[2.0, 0.0], [0.0, 3.0]])
    x = np.array([1.0, -1.0])
    assert np.allclose(lqr_control(gain, x), [-2.0, 3.0], atol=1e-15)


# Group 2 -------------------------------------------------------------------


def test_equal_power():
    alloc = equal_power(4, 10.0)
    assert np.allclose(alloc, 2.5 * np.ones(4), atol=1e-15)
    assert alloc.sum() == pytest.approx(10.0, abs=1e-12)


def test_round_robin_cycles():
    # m=5, k=2: windows [0,1], [2,3], [4,0], [1,2], ...
    seen = []
    for t in range(5):
        alloc = round_robin(5, 2, 10.0, t)
        active = np.flatnonzero(alloc)
        assert len(active) == 2
        assert np.allclose(alloc[active], 5.0, atol=1e-12)
        seen.append(set(active.tolist()))
    assert seen[0] == {0, 1}
    assert seen[1] == {2, 3}
    assert seen[2] == {4, 0}
    # every plant served within one sweep
    assert set().union(*seen[:3]) == {0, 1, 2, 3, 4}


def test_channel_aware_selection_and_ties():
    gains = np.array([0.1, 0.9, 0.9, 0.5])
    alloc = channel_aware(gains, 2, 8.0)
    # the two 0.9 entries win; tie keeps index order
    assert np.allclose(alloc, [0.0, 4.0, 4.0, 0.0], atol=1e-12)
    tied = np.array([0.7, 0.7, 0.7])
    assert np.array_equal(top_k_indices(tied, 2), [0, 1])


def test_control_aware_ranks_by_state_norm():
    x = np.stack(
        [
            np.array([0.1, 0.0, 0.0]),
            np.array([3.0, 4.0, 0.0]),  # norm 5, largest
            np.array([1.0, 1.0, 1.0]),
        ]
    )
    alloc = control_aware(x, 1, 6.0)
    assert np.allclose(alloc, [0.0, 6.0, 0.0], atol=1e-12)


def test_default_active_count():
    assert default_active_count(1) == 1
    assert default_active_count(2) == 1
    assert default_active_count(3) == 1
    assert default_active_count(6) == 2
    assert default_active_count(10) == 3


def test_invalid_arguments():
    with pytest.raises(ValueError):
        equal_power(0, 1.0)
    with pytest.raises(ValueError):
        equal_power(3, -1.0)
    with pytest.raises(ValueError):
        round_robin(3, 4, 1.0, 0)
    with pytest.raises(ValueError):
        channel_aware(np.ones(3), 0, 1.0)


BATCH_SHAPES = [(), (8,), (2, 3)]


def tied_observation(shape, m=7, p=3, seed=0):
    """Gains and states drawn from a few small integers, so many rows hold
    equal gains and equal state norms."""
    rng = np.random.default_rng(seed)
    channel = rng.integers(0, 3, size=shape + (m,)).astype(float)
    plant = rng.integers(-2, 3, size=shape + (m, p)).astype(float)
    return Observation(channel=channel, plant=plant)


@pytest.mark.parametrize("shape", BATCH_SHAPES, ids=str)
@pytest.mark.parametrize("n_active", [1, 3, 7])
def test_selecting_heuristics_match_oracles(shape, n_active):
    for seed in range(5):
        obs = tied_observation(shape, seed=seed)
        got = channel_aware(obs.channel, n_active, 4.5)
        assert got.shape == shape + (7,)
        assert np.array_equal(got, oracles.channel_aware(obs.channel, n_active, 4.5))
        got = control_aware(obs.plant, n_active, 4.5)
        assert np.array_equal(got, oracles.control_aware(obs.plant, n_active, 4.5))
    # continuous scores too: rows without ties
    rng = np.random.default_rng(9)
    gains, x = rng.exponential(size=shape + (7,)), rng.standard_normal(shape + (7, 3))
    assert np.array_equal(channel_aware(gains, n_active, 2.0), oracles.channel_aware(gains, n_active, 2.0))
    assert np.array_equal(control_aware(x, n_active, 2.0), oracles.control_aware(x, n_active, 2.0))


@pytest.mark.parametrize("shape", BATCH_SHAPES, ids=str)
def test_make_allocator_matches_baselines(shape):
    m, n_active, power = 7, 3, 4.5
    reference = {
        "equal": lambda obs, t: equal_power(m, power),
        "all_on": lambda obs, t: equal_power(m, power),
        "zero": lambda obs, t: np.zeros(m),
        "round_robin": lambda obs, t: round_robin(m, n_active, power, t),
        "channel_aware": lambda obs, t: oracles.channel_aware(obs.channel, n_active, power),
        "control_aware": lambda obs, t: oracles.control_aware(obs.plant, n_active, power),
    }
    for name, oracle in reference.items():
        allocator = policies.make_allocator(name, m, n_active, power)
        for t in range(3 * m):
            obs = tied_observation(shape, seed=t)
            assert np.array_equal(allocator(obs, t), oracle(obs, t)), (name, t)
