"""Plant models and stage costs.

Two plant families are supported: discrete-time linear systems
x' = A x + B u + w, and the classical cart-pole integrated with a
forward Euler step. Control inputs only reach the plant when the
link delivers them; a dropped packet leaves the plant in open loop
for that step.
"""
from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class PlantModel:
    """One plant: a linear system (A, B) or the cart-pole.

    kind is "linear" or "cartpole". Linear plants carry their matrices;
    the cart-pole uses the module constants. process_noise is the variance
    of each entry of the i.i.d. additive per-step disturbance.
    """

    kind: str
    a_mat: Optional[np.ndarray] = None
    b_mat: Optional[np.ndarray] = None
    process_noise: float = 0.0

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
        self.process_noise = float(self.process_noise)
        if not self.process_noise >= 0.0:
            raise ValueError(
                f"process_noise must be a nonnegative variance, got {self.process_noise}"
            )

    @property
    def state_dim(self) -> int:
        return CARTPOLE_STATE_DIM if self.kind == "cartpole" else self.a_mat.shape[0]

    @property
    def input_dim(self) -> int:
        return 1 if self.kind == "cartpole" else self.b_mat.shape[1]


def control_bounds(kind: str) -> tuple[Optional[float], Optional[float]]:
    """The actuator interval of a plant kind: the cart-pole's force limit,
    none for linear plants."""
    return (-FORCE_LIMIT, FORCE_LIMIT) if kind == "cartpole" else (None, None)


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


@dataclass
class CostWeights:
    """Diagonal per-plant stage-cost weights: state weight q (PSD), input weight r (PD)."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        for name, mat in (("q", self.q), ("r", self.r)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square, got {mat.shape}")
            if np.count_nonzero(mat[~np.eye(mat.shape[0], dtype=bool)]):
                raise ValueError(f"{name} must be diagonal")
        if (np.diagonal(self.q) < 0).any():
            raise ValueError("q must be positive semidefinite")
        if (np.diagonal(self.r) <= 0).any():
            raise ValueError("r must be positive definite")


def make_fixed_ensemble(m: int, a_mat: np.ndarray, process_noise: float = 0.0) -> list[PlantModel]:
    """m identical linear plants x' = A x + u + w sharing the drift a_mat."""
    a_mat = np.asarray(a_mat, dtype=float)
    return [
        PlantModel(kind="linear", a_mat=a_mat.copy(), b_mat=np.eye(a_mat.shape[0]),
                   process_noise=process_noise)
        for _ in range(m)
    ]
