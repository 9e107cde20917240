"""Plant dynamics tests.

Proves:
 Group 1: Linear plants
   1.  Triangular drift template has spectral radius a
   2.  One linear step matches A x + B u + w by hand
   3.  Shape mismatches raise ValueError
   4.  Ensemble sampling stays inside [a_low, a_high] and is seeded
 Group 2: Cart-pole
   5.  Frozen oracle step from rest under full push
   6.  Independent in-test Euler integrator agrees to 1e-12
   7.  Upright equilibrium is a fixed point with no force
   8.  Push right accelerates the cart right and the pole backward
   9.  Force beyond the actuator limit raises
  10.  Linearization reproduces small deviations of the nonlinear step
  11.  Stepping rows (..., 4) at once equals stepping each row alone,
       bitwise, and an out-of-range force names its row
 Group 3: Noise and cost plumbing
  11.  Process noise is one nonnegative variance per plant; a negative or
       NaN value is named
  12.  Switched actuation zeroes dropped inputs only
  13.  Quadratic stage cost matches the explicit sum
  14.  CostWeights takes diagonal weights only, names the one that is not
       diagonal, and checks the signs of the diagonals
Items 2-4, 12 and 13 hold the plain reference forms in tests/oracles.py
(linear_step, make_linear_ensemble, apply_switched_input,
quadratic_stage_cost) to hand values; other tests and the acceptance
gates check the package against them.
"""
from __future__ import annotations

import numpy as np
import pytest

from wcsrl.dynamics import (
    CART_MASS,
    EULER_DT,
    FORCE_LIMIT,
    GRAVITY,
    POLE_HALF_LENGTH,
    POLE_MASS,
    CostWeights,
    PlantModel,
    cartpole_linearization,
    cartpole_step,
    make_fixed_ensemble,
    unstable_drift,
)
from oracles import apply_switched_input, linear_step, make_linear_ensemble, quadratic_stage_cost

# From rest at the origin under F = 10: the cart-pole update reduces to
# temp = 100/11, angular acceleration -600/41, linear acceleration
# 100/11 + 300/451, so after one Euler step of 0.02 the state is exactly
# [0, 8/41, 0, -12/41].
CARTPOLE_PUSH_ORACLE = np.array([0.0, 8.0 / 41.0, 0.0, -12.0 / 41.0])


def reference_cartpole_step(x, force):
    """Straightforward re-derivation of the Euler update, kept independent
    of the implementation under test."""
    y, y_dot, theta, theta_dot = x
    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    total_mass = CART_MASS + POLE_MASS
    temp = (force + POLE_MASS * POLE_HALF_LENGTH * theta_dot**2 * sin_t) / total_mass
    ang_acc = (GRAVITY * sin_t - cos_t * temp) / (
        POLE_HALF_LENGTH * (4.0 / 3.0 - POLE_MASS * cos_t**2 / total_mass)
    )
    lin_acc = temp - POLE_MASS * POLE_HALF_LENGTH * ang_acc * cos_t / total_mass
    return np.array(
        [
            y + EULER_DT * y_dot,
            y_dot + EULER_DT * lin_acc,
            theta + EULER_DT * theta_dot,
            theta_dot + EULER_DT * ang_acc,
        ]
    )


# Group 1 -------------------------------------------------------------------


def test_triangular_drift_spectral_radius():
    for a in (1.05, 1.1, 1.15):
        eigs = np.linalg.eigvals(unstable_drift(a))
        assert abs(np.abs(eigs).max() - a) < 1e-12


def test_linear_step_by_hand():
    model = PlantModel(kind="linear", a_mat=unstable_drift(1.05), b_mat=np.eye(3))
    x = np.array([1.0, 0.0, 0.0])
    nxt = linear_step(model, x, np.zeros(3), np.zeros(3))
    assert np.allclose(nxt, [-1.05, 0.0, 0.0], atol=1e-15)

    u = np.array([0.5, -1.0, 2.0])
    w = np.array([0.1, 0.2, 0.3])
    expect = unstable_drift(1.05) @ x + u + w
    assert np.allclose(linear_step(model, x, u, w), expect, atol=1e-14)


def test_linear_step_shape_errors():
    model = PlantModel(kind="linear", a_mat=unstable_drift(1.1), b_mat=np.eye(3))
    with pytest.raises(ValueError):
        linear_step(model, np.zeros(2), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        linear_step(model, np.zeros(3), np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        linear_step(model, np.zeros(3), np.zeros(3), np.zeros(4))


def test_ensemble_sampling_bounds_and_seeding():
    rng = np.random.Generator(np.random.PCG64(11))
    plants = make_linear_ensemble(6, 1.05, 1.15, rng)
    assert len(plants) == 6
    for p in plants:
        radius = np.abs(np.linalg.eigvals(p.a_mat)).max()
        assert 1.05 - 1e-12 <= radius <= 1.15 + 1e-12
    rng2 = np.random.Generator(np.random.PCG64(11))
    plants2 = make_linear_ensemble(6, 1.05, 1.15, rng2)
    for p, p2 in zip(plants, plants2):
        assert np.array_equal(p.a_mat, p2.a_mat)


# Group 2 -------------------------------------------------------------------


def test_cartpole_push_oracle():
    nxt = cartpole_step(np.zeros(4), 10.0, np.zeros(4))
    assert np.allclose(nxt, CARTPOLE_PUSH_ORACLE, atol=1e-15)


def test_cartpole_matches_reference_integrator():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(200):
        x = rng.uniform(-0.5, 0.5, size=4)
        force = rng.uniform(-FORCE_LIMIT, FORCE_LIMIT)
        got = cartpole_step(x, force, np.zeros(4))
        want = reference_cartpole_step(x, force)
        assert np.allclose(got, want, atol=1e-12)


def test_cartpole_equilibrium_fixed_point():
    nxt = cartpole_step(np.zeros(4), 0.0, np.zeros(4))
    assert np.array_equal(nxt, np.zeros(4))


def test_cartpole_push_direction():
    nxt = cartpole_step(np.zeros(4), 10.0, np.zeros(4))
    assert nxt[1] > 0  # cart speeds up to the right
    assert nxt[3] < 0  # pole tips the other way


def test_cartpole_force_limit():
    with pytest.raises(ValueError):
        cartpole_step(np.zeros(4), FORCE_LIMIT * 1.5, np.zeros(4))


def test_cartpole_rows_match_single_rows():
    rng = np.random.Generator(np.random.PCG64(17))
    x = rng.uniform(-1.0, 1.0, size=(5, 3, 4))
    force = rng.uniform(-FORCE_LIMIT, FORCE_LIMIT, size=(5, 3))
    w = 1e-3 * rng.standard_normal((5, 3, 4))
    got = cartpole_step(x, force, w)
    assert got.shape == (5, 3, 4)
    for i in range(5):
        for j in range(3):
            assert np.array_equal(got[i, j], cartpole_step(x[i, j], float(force[i, j]), w[i, j]))
    force[2, 1] = -FORCE_LIMIT * 1.5
    with pytest.raises(ValueError, match=r"at row \(2, 1\)"):
        cartpole_step(x, force, w)
    with pytest.raises(ValueError, match="force must have shape"):
        cartpole_step(x, force[0], w)


def test_cartpole_linearization_local_accuracy():
    a_lin, b_lin = cartpole_linearization()
    assert a_lin.shape == (4, 4) and b_lin.shape == (4, 1)
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(20):
        dx = 1e-4 * rng.standard_normal(4)
        du = 1e-4 * rng.standard_normal()
        nonlinear = cartpole_step(dx, du, np.zeros(4))
        linear = a_lin @ dx + b_lin[:, 0] * du
        assert np.allclose(nonlinear, linear, atol=1e-7)


# Group 3 -------------------------------------------------------------------


def test_process_noise_is_one_nonnegative_variance():
    assert PlantModel(kind="cartpole").process_noise == 0.0
    plant = PlantModel(kind="linear", a_mat=unstable_drift(1.1), b_mat=np.eye(3), process_noise=2)
    assert plant.process_noise == 2.0 and isinstance(plant.process_noise, float)
    for bad in (-1e-12, float("nan")):
        with pytest.raises(ValueError, match=f"nonnegative variance, got {bad}"):
            PlantModel(kind="cartpole", process_noise=bad)
    assert all(p.process_noise == 0.3 for p in make_fixed_ensemble(2, unstable_drift(1.1), 0.3))


def test_switched_input():
    u = np.array([1.0, 2.0])
    assert np.array_equal(apply_switched_input(u, True), u)
    assert np.array_equal(apply_switched_input(u, False), np.zeros(2))
    assert np.array_equal(u, [1.0, 2.0])  # input untouched


def test_quadratic_stage_cost_value():
    weights = CostWeights(q=np.diag([1.0, 2.0]), r=np.array([[3.0]]))
    x = np.array([1.0, -1.0])
    u = np.array([2.0])
    # 1*1 + 2*1 + 3*4 = 15
    assert quadratic_stage_cost(x, u, weights) == pytest.approx(15.0, abs=1e-12)


def test_cost_weights_validation():
    coupled = np.array([[1.0, 0.5], [0.5, 1.0]])  # PD, but not diagonal
    with pytest.raises(ValueError, match="q must be diagonal"):
        CostWeights(q=coupled, r=np.eye(1))
    with pytest.raises(ValueError, match="r must be diagonal"):
        CostWeights(q=np.eye(2), r=coupled)
    with pytest.raises(ValueError, match="q must be positive semidefinite"):
        CostWeights(q=np.diag([1.0, -1e-12]), r=np.eye(1))
    with pytest.raises(ValueError, match="r must be positive definite"):
        CostWeights(q=np.eye(2), r=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="q must be square"):
        CostWeights(q=np.ones((2, 3)), r=np.eye(1))
    CostWeights(q=np.diag([0.1, 0.0, 1.0, 0.0]), r=np.array([[1e-3]]))  # the cart-pole preset


def test_fixed_ensemble_shares_matrices():
    a = unstable_drift(1.2)
    plants = make_fixed_ensemble(3, a)
    assert len(plants) == 3
    for p in plants:
        assert np.array_equal(p.a_mat, a)
        assert np.array_equal(p.b_mat, np.eye(3))
