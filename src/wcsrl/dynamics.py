"""Plant models and stage costs.

Two plant families are supported: discrete-time linear systems
x' = A x + B u + w, and the classical cart-pole integrated with a
forward Euler step. Control inputs only reach the plant when the
link delivers them; a dropped packet leaves the plant in open loop
for that step.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Cart-pole constants (classical benchmark values).
GRAVITY = 9.8
CART_MASS = 1.0
POLE_MASS = 0.1
POLE_HALF_LENGTH = 0.5
EULER_DT = 0.02
FORCE_LIMIT = 10.0
CARTPOLE_STATE_DIM = 4

# Mildly unstable drift with coupled modes, used by the co-design scenario.
MIXED_DRIFT = np.array(
    [
        [-1.01, 0.5, 0.5],
        [-0.5, 1.01, 0.5],
        [0.0, 0.5, -0.5],
    ]
)


def unstable_drift(a: float) -> np.ndarray:
    """Upper-triangular drift matrix with spectral radius a (> 1 for unstable plants)."""
    return np.array(
        [
            [-a, 0.2, 0.2],
            [0.0, -a, 0.2],
            [0.0, 0.0, -a],
        ]
    )


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor S of a PSD matrix with S S^T = cov, tolerant of zero eigenvalues."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got shape {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise ValueError("covariance must be symmetric")
    if not cov.any():
        return np.zeros_like(cov)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        if vals.min() < -1e-10:
            raise ValueError(f"covariance has negative eigenvalue {vals.min():.3e}")
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


@dataclass
class PlantModel:
    """One plant: a linear system (A, B) or the cart-pole.

    kind is "linear" or "cartpole". Linear plants carry their matrices;
    the cart-pole uses the module constants. process_noise_cov is the
    covariance of the additive per-step disturbance.
    """

    kind: str
    a_mat: Optional[np.ndarray] = None
    b_mat: Optional[np.ndarray] = None
    process_noise_cov: Optional[np.ndarray] = None
    _noise_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind == "linear":
            if self.a_mat is None or self.b_mat is None:
                raise ValueError("linear plant needs a_mat and b_mat")
            self.a_mat = np.asarray(self.a_mat, dtype=float)
            self.b_mat = np.asarray(self.b_mat, dtype=float)
            if self.a_mat.ndim != 2 or self.a_mat.shape[0] != self.a_mat.shape[1]:
                raise ValueError(f"a_mat must be square, got {self.a_mat.shape}")
            if self.b_mat.ndim != 2 or self.b_mat.shape[0] != self.a_mat.shape[0]:
                raise ValueError(
                    f"b_mat rows must match state dim {self.a_mat.shape[0]}, got {self.b_mat.shape}"
                )
        elif self.kind == "cartpole":
            if self.a_mat is not None or self.b_mat is not None:
                raise ValueError("cartpole plant does not take matrices")
        else:
            raise ValueError(f"unknown plant kind {self.kind!r}")
        if self.process_noise_cov is None:
            self.process_noise_cov = np.zeros((self.state_dim, self.state_dim))
        self.process_noise_cov = np.asarray(self.process_noise_cov, dtype=float)
        if self.process_noise_cov.shape != (self.state_dim, self.state_dim):
            raise ValueError(
                f"process_noise_cov must be {(self.state_dim, self.state_dim)}, "
                f"got {self.process_noise_cov.shape}"
            )
        self._noise_factor = psd_factor(self.process_noise_cov)

    @property
    def state_dim(self) -> int:
        return CARTPOLE_STATE_DIM if self.kind == "cartpole" else self.a_mat.shape[0]

    @property
    def input_dim(self) -> int:
        return 1 if self.kind == "cartpole" else self.b_mat.shape[1]


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


def cartpole_step(x: np.ndarray, force: np.ndarray | float, w: np.ndarray) -> np.ndarray:
    """One Euler step of the cart-pole, elementwise over leading axes.

    x (..., 4) is [pos, vel, angle, ang_vel], force (...) the pushes and
    w (..., 4) an additive disturbance that lands on the updated state.
    Every force must respect the actuator interval; the first one that
    does not is named with its row. Squares go through float_power, the
    C pow that scalar `**` uses, so a row's result does not depend on the
    batch it is stepped in.
    """
    x = np.asarray(x, dtype=float)
    force = np.asarray(force, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape[-1:] != (CARTPOLE_STATE_DIM,):
        raise ValueError(f"cartpole state must have shape (..., 4), got {x.shape}")
    if w.shape != x.shape:
        raise ValueError(f"noise must have shape {x.shape}, got {w.shape}")
    if force.shape != x.shape[:-1]:
        raise ValueError(f"force must have shape {x.shape[:-1]}, got {force.shape}")
    bad = ~(np.abs(force) <= FORCE_LIMIT + 1e-9)
    if bad.any():
        row = tuple(int(i) for i in np.argwhere(bad)[0])
        where = f" at row {row}" if row else ""
        raise ValueError(f"force {force[row]} outside [-{FORCE_LIMIT}, {FORCE_LIMIT}]{where}")

    pos, vel, angle, ang_vel = np.moveaxis(x, -1, 0)
    total_mass = CART_MASS + POLE_MASS
    pole_mass_length = POLE_MASS * POLE_HALF_LENGTH
    sin_a = np.sin(angle)
    cos_a = np.cos(angle)

    temp = (force + pole_mass_length * np.float_power(ang_vel, 2) * sin_a) / total_mass
    ang_acc = (GRAVITY * sin_a - cos_a * temp) / (
        POLE_HALF_LENGTH * (4.0 / 3.0 - POLE_MASS * np.float_power(cos_a, 2) / total_mass)
    )
    lin_acc = temp - pole_mass_length * ang_acc * cos_a / total_mass

    out = np.stack(
        [
            pos + EULER_DT * vel,
            vel + EULER_DT * lin_acc,
            angle + EULER_DT * ang_vel,
            ang_vel + EULER_DT * ang_acc,
        ],
        axis=-1,
    )
    return out + w


def cartpole_linearization(eps: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians (A, B) of the deterministic Euler step at the upright equilibrium.

    Central differences; used to fit a Riccati controller to the
    nonlinear plant.
    """
    zero_w = np.zeros(CARTPOLE_STATE_DIM)
    a = np.zeros((CARTPOLE_STATE_DIM, CARTPOLE_STATE_DIM))
    for j in range(CARTPOLE_STATE_DIM):
        dx = np.zeros(CARTPOLE_STATE_DIM)
        dx[j] = eps
        a[:, j] = (cartpole_step(dx, 0.0, zero_w) - cartpole_step(-dx, 0.0, zero_w)) / (2 * eps)
    b = (cartpole_step(np.zeros(4), eps, zero_w) - cartpole_step(np.zeros(4), -eps, zero_w)) / (
        2 * eps
    )
    return a, b.reshape(CARTPOLE_STATE_DIM, 1)


def apply_switched_input(u: np.ndarray, delivered: bool) -> np.ndarray:
    """The input that actually reaches the plant: u if delivered, else zero."""
    u = np.asarray(u, dtype=float)
    return u if delivered else np.zeros_like(u)


@dataclass
class CostWeights:
    """Per-plant quadratic stage-cost weights: state weight q (PSD), input weight r (PD)."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        for name, mat in (("q", self.q), ("r", self.r)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square, got {mat.shape}")
            if not np.allclose(mat, mat.T, atol=1e-10):
                raise ValueError(f"{name} must be symmetric")
        if np.linalg.eigvalsh(self.q).min() < -1e-10:
            raise ValueError("q must be positive semidefinite")
        if np.linalg.eigvalsh(self.r).min() <= 0:
            raise ValueError("r must be positive definite")


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
    process_noise_cov: Optional[np.ndarray] = None,
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
                process_noise_cov=process_noise_cov,
            )
        )
    return plants


def make_fixed_ensemble(
    m: int,
    a_mat: np.ndarray,
    b_mat: Optional[np.ndarray] = None,
    process_noise_cov: Optional[np.ndarray] = None,
) -> list[PlantModel]:
    """m identical linear plants sharing the given matrices (B defaults to identity)."""
    a_mat = np.asarray(a_mat, dtype=float)
    if b_mat is None:
        b_mat = np.eye(a_mat.shape[0])
    return [
        PlantModel(kind="linear", a_mat=a_mat.copy(), b_mat=np.asarray(b_mat, dtype=float).copy(),
                   process_noise_cov=process_noise_cov)
        for _ in range(m)
    ]
