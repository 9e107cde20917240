"""Plain single-case reference implementations the tests and acceptance
gates check the package against. The package itself uses the batched
forms (WirelessControlEnv.step, the noise tape's delivery lottery,
learner.train's dual step) and leaner forms of the evaluation loop and
the selecting heuristics; these stay readable.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from wcsrl.dynamics import CostWeights, PlantModel, unstable_drift
from wcsrl.environment import SystemState, WirelessControlEnv
from wcsrl.harness import DIVERGENCE_COST, DIVERGENCE_LIMIT, RolloutStats
from wcsrl.learner import dual_update
from wcsrl.wireless import delivery_probability


def linear_step(model: PlantModel, x: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One transition x' = A x + B u + w."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if model.kind != "linear":
        raise ValueError("linear_step needs a linear plant")
    if x.shape != (model.state_dim,):
        raise ValueError(f"state must have shape {(model.state_dim,)}, got {x.shape}")
    if u.shape != (model.input_dim,):
        raise ValueError(f"input must have shape {(model.input_dim,)}, got {u.shape}")
    if w.shape != (model.state_dim,):
        raise ValueError(f"noise must have shape {(model.state_dim,)}, got {w.shape}")
    return model.a_mat @ x + model.b_mat @ u + w


def apply_switched_input(u: np.ndarray, delivered: bool) -> np.ndarray:
    """The input that actually reaches the plant: u if delivered, else zero."""
    u = np.asarray(u, dtype=float)
    return u if delivered else np.zeros_like(u)


def quadratic_stage_cost(x: np.ndarray, u: np.ndarray, weights: CostWeights) -> float:
    """x^T q x + u^T r u for the realized (post-switch) input."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (weights.q.shape[0],):
        raise ValueError(f"state must have shape {(weights.q.shape[0],)}, got {x.shape}")
    if u.shape != (weights.r.shape[0],):
        raise ValueError(f"input must have shape {(weights.r.shape[0],)}, got {u.shape}")
    return float(x @ weights.q @ x + u @ weights.r @ u)


def make_linear_ensemble(
    m: int,
    a_low: float,
    a_high: float,
    rng: np.random.Generator,
    process_noise: float = 0.0,
) -> list[PlantModel]:
    """m independent plants on the unstable-drift template, a ~ U[a_low, a_high], B = I."""
    if m < 1:
        raise ValueError("need at least one plant")
    if a_low > a_high:
        raise ValueError(f"a_low {a_low} exceeds a_high {a_high}")
    plants = []
    for _ in range(m):
        a = float(rng.uniform(a_low, a_high))
        plants.append(
            PlantModel(
                kind="linear",
                a_mat=unstable_drift(a),
                b_mat=np.eye(3),
                process_noise=process_noise,
            )
        )
    return plants


def penalized_cost(stage_cost: float, signals: np.ndarray, multipliers: np.ndarray) -> float:
    """Lagrangian stage cost: stage cost plus multiplier-weighted constraint signals."""
    signals = np.asarray(signals, dtype=float)
    multipliers = np.asarray(multipliers, dtype=float)
    if signals.shape != multipliers.shape:
        raise ValueError(f"signal shape {signals.shape} != multiplier shape {multipliers.shape}")
    return float(stage_cost + multipliers @ signals)


def sample_delivery(snr_values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli delivery outcomes at probability 1 - exp(-snr)."""
    probs = delivery_probability(snr_values)
    return rng.random(probs.shape) < probs


def dual_descent(
    primal_minimizer: Callable[[np.ndarray], object],
    constraint_evaluator: Callable[[object], np.ndarray],
    lam0: np.ndarray,
    step_size: float,
    iterations: int,
) -> tuple[np.ndarray, object]:
    """Alternate exact primal minimization with projected dual ascent.

    Returns the final multipliers and the primal solution at those
    multipliers.
    """
    lam = np.atleast_1d(np.asarray(lam0, dtype=float)).copy()
    if iterations < 1:
        raise ValueError("need at least one iteration")
    primal = None
    for _ in range(iterations):
        primal = primal_minimizer(lam)
        violation = np.atleast_1d(np.asarray(constraint_evaluator(primal), dtype=float))
        lam = dual_update(lam, violation, step_size)
    primal = primal_minimizer(lam)
    return lam, primal


def share_top_k(scores: np.ndarray, n_active: int, p_total: float) -> np.ndarray:
    """p_total/n_active to each of the n_active largest scores along the last
    axis, ties to the lower index, placed with put_along_axis."""
    alpha = np.zeros(scores.shape)
    top = np.argsort(-scores, axis=-1, kind="stable")[..., :n_active]
    np.put_along_axis(alpha, top, p_total / n_active, axis=-1)
    return alpha


def channel_aware(gains: np.ndarray, n_active: int, p_total: float) -> np.ndarray:
    return share_top_k(gains, n_active, p_total)


def control_aware(x_stack: np.ndarray, n_active: int, p_total: float) -> np.ndarray:
    return share_top_k(np.linalg.norm(x_stack, axis=-1), n_active, p_total)


def rollout(
    env: WirelessControlEnv, start: SystemState, policy, policy_rng: np.random.Generator
) -> RolloutStats:
    """One evaluation episode as harness.rollout defines it, from start's
    step to the end of its tape, charged step by step and summed with
    np.linalg.norm and numpy scalars."""
    gamma = env.gamma
    state = start
    disc = 1.0
    cost = 0.0
    signals = np.zeros(env.n_signals)
    max_norm = float(np.linalg.norm(state.x))
    for t in range(start.t, start.tape.horizon):
        obs = env.observe(state)
        action = policy.act(obs, t, policy_rng)
        res = env.step(state, action)
        _, stage_cost, step_signals = env.charge(
            state.x, res.realized_u, np.asarray(action.alpha, dtype=float)
        )
        cost += disc * stage_cost
        signals += disc * step_signals
        disc *= gamma
        state = res.next_state
        norm = float(np.linalg.norm(state.x))
        if not np.isfinite(norm):
            norm = np.inf
        max_norm = max(max_norm, norm)
        if norm > DIVERGENCE_LIMIT:
            return RolloutStats(DIVERGENCE_COST, signals, max_norm, True)
    if not np.isfinite(cost):
        return RolloutStats(DIVERGENCE_COST, signals, max_norm, True)
    return RolloutStats(float(cost), signals, max_norm, False)
