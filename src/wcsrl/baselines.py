"""Reference policies: Riccati control and heuristic power allocators.

The allocators match the comparison set used in the experiments:
equal split, round robin over a fixed-size active set, and greedy
selection by channel gain or by plant-state norm. Ties break toward
the lower plant index. The state-dependent ones take any leading batch
shape: gains (..., m), plant states (..., m, p).
"""
from __future__ import annotations

import numpy as np


def solve_dare(
    a: np.ndarray,
    b: np.ndarray,
    q: np.ndarray,
    r: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> np.ndarray:
    """Fixed-point iteration for the discrete algebraic Riccati equation.

    Iterates P <- A^T P A - A^T P B (R + B^T P B)^-1 B^T P A + Q from
    P = Q until the update stalls below tol.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"a must be square, got {a.shape}")
    if b.ndim != 2 or b.shape[0] != n:
        raise ValueError(f"b must have {n} rows, got {b.shape}")
    k = b.shape[1]
    if q.shape != (n, n):
        raise ValueError(f"q must be {n}x{n}, got {q.shape}")
    if r.shape != (k, k):
        raise ValueError(f"r must be {k}x{k}, got {r.shape}")

    p = q.copy()
    for _ in range(max_iter):
        btp = b.T @ p
        gain = np.linalg.solve(r + btp @ b, btp @ a)
        p_next = a.T @ p @ a - (a.T @ p @ b) @ gain + q
        p_next = 0.5 * (p_next + p_next.T)
        if np.max(np.abs(p_next - p)) < tol:
            return p_next
        p = p_next
    raise RuntimeError(f"Riccati iteration did not converge in {max_iter} steps")


def lqr_gain(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Optimal state-feedback gain K for u = -K x."""
    p = solve_dare(a, b, q, r)
    btp = np.asarray(b, dtype=float).T @ p
    return np.linalg.solve(np.asarray(r, dtype=float) + btp @ b, btp @ a)


def lqr_control(gain: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u = -K x: one gain (q, p) on a state (p,), or stacked per-plant gains
    (m, q, p) on states (..., m, p) in one matmul, giving (..., m, q)."""
    x = np.asarray(x, dtype=float)
    return np.matmul(-np.asarray(gain, dtype=float), x[..., None])[..., 0]


# ---------------------------------------------------------------------------
# heuristic allocators


def default_active_count(m: int) -> int:
    """Size of the active set the heuristics transmit to: about a third of the plants."""
    return max(1, int(round(m / 3)))


def _check_alloc_args(m: int, n_active: int, p_total: float) -> None:
    if m < 1:
        raise ValueError("need at least one plant")
    if not 1 <= n_active <= m:
        raise ValueError(f"n_active must lie in [1, {m}], got {n_active}")
    if p_total <= 0:
        raise ValueError(f"p_total must be positive, got {p_total}")


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores along the last axis; equal scores go to
    the lower index."""
    scores = np.asarray(scores, dtype=float)
    return np.argsort(-scores, axis=-1, kind="stable")[..., :k]


def _share_top_k(scores: np.ndarray, n_active: int, p_total: float) -> np.ndarray:
    """p_total/n_active to each of the n_active largest scores along the last axis."""
    _check_alloc_args(scores.shape[-1], n_active, p_total)
    alpha = np.zeros(scores.shape)
    np.put_along_axis(alpha, top_k_indices(scores, n_active), p_total / n_active, axis=-1)
    return alpha


def equal_power(m: int, p_total: float) -> np.ndarray:
    """Everyone transmits: p_total/m per plant."""
    _check_alloc_args(m, 1, p_total)
    return np.full(m, p_total / m)


def round_robin(m: int, n_active: int, p_total: float, t: int) -> np.ndarray:
    """Cycle through the plants n_active at a time, p_total/n_active each."""
    _check_alloc_args(m, n_active, p_total)
    alpha = np.zeros(m)
    idx = (t * n_active + np.arange(n_active)) % m
    alpha[idx] = p_total / n_active
    return alpha


def channel_aware(gains: np.ndarray, n_active: int, p_total: float) -> np.ndarray:
    """Give the n_active best channels of gains (..., m) p_total/n_active each."""
    return _share_top_k(np.asarray(gains, dtype=float), n_active, p_total)


def control_aware(x_stack: np.ndarray, n_active: int, p_total: float) -> np.ndarray:
    """Give the n_active plants farthest from equilibrium (largest state norm
    in x_stack (..., m, p)) p_total/n_active each."""
    x_stack = np.asarray(x_stack, dtype=float)
    if x_stack.ndim < 2:
        raise ValueError(f"x_stack must be (..., m, p), got {x_stack.shape}")
    return _share_top_k(np.linalg.norm(x_stack, axis=-1), n_active, p_total)
