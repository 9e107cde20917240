"""Closed-loop system of m plants sharing a lossy downlink.

A step takes the joint action (power allocations, candidate control
inputs), rolls the delivery lottery per plant, applies delivered
inputs (dropped plants run open loop), charges the quadratic stage
cost on the realized inputs, and reports per-step constraint signals
whose discounted episode sum estimates the constraint slack.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from wcsrl.dynamics import CostWeights, PlantModel, psd_factor
from wcsrl.wireless import ChannelModel, delivery_probability, snr


@dataclass
class SystemState:
    """True joint state: per-plant states x (m, p), channel gains h (m,), time t."""

    x: np.ndarray
    h: np.ndarray
    t: int = 0


@dataclass
class Observation:
    """Noisy view the policies act on: channel entries (..., m) first, then
    plant states (..., m, p); the leading batch shape may be empty."""

    channel: np.ndarray
    plant: np.ndarray

    def stacked(self) -> np.ndarray:
        """Flat rows (..., m * (1 + p)): the channel entries, then the states."""
        flat_plant = self.plant.reshape(self.plant.shape[:-2] + (-1,))
        return np.concatenate([self.channel, flat_plant], axis=-1)


@dataclass
class JointAction:
    """Power allocations alpha (m,) and candidate control inputs u (m, q)."""

    alpha: np.ndarray
    u: np.ndarray


@dataclass
class ConstraintSpec:
    """One constraint family.

    kind "sum_power": discounted expected total transmit power bounded
    by power_budget; one signal component, sum(alpha) - (1-gamma)*budget.

    kind "region": per-plant discounted expected time outside the box
    [-region_half_width, region_half_width]^p bounded by region_budget;
    m signal components, indicator - (1-gamma)*budget.

    kind "simplex": instantaneous sum(alpha) <= power_budget, enforced
    structurally by the allocation head; contributes no signal and no
    multiplier.
    """

    kind: str
    power_budget: Optional[float] = None
    region_half_width: Optional[float] = None
    region_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind in ("sum_power", "simplex"):
            if self.power_budget is None or self.power_budget <= 0:
                raise ValueError(f"{self.kind} constraint needs a positive power_budget")
        elif self.kind == "region":
            if self.region_half_width is None or self.region_half_width <= 0:
                raise ValueError("region constraint needs a positive region_half_width")
            if self.region_budget is None or self.region_budget < 0:
                raise ValueError("region constraint needs a nonnegative region_budget")
        else:
            raise ValueError(f"unknown constraint kind {self.kind!r}")

    def n_components(self, m: int) -> int:
        if self.kind == "sum_power":
            return 1
        if self.kind == "region":
            return m
        return 0

    def signal(self, x_stack: np.ndarray, alpha: np.ndarray, gamma: float) -> np.ndarray:
        """Per-step signal l_t; the discounted sum over an episode folds the
        constraint bound in via the geometric series (1-gamma) * bound * sum(gamma^t)."""
        if self.kind == "sum_power":
            return np.array([float(np.sum(alpha)) - (1.0 - gamma) * self.power_budget])
        if self.kind == "region":
            outside = (np.abs(x_stack) > self.region_half_width).any(axis=1).astype(float)
            return outside - (1.0 - gamma) * self.region_budget
        return np.zeros(0)


def penalized_cost(stage_cost: float, signals: np.ndarray, multipliers: np.ndarray) -> float:
    """Lagrangian stage cost: stage cost plus multiplier-weighted constraint signals."""
    signals = np.asarray(signals, dtype=float)
    multipliers = np.asarray(multipliers, dtype=float)
    if signals.shape != multipliers.shape:
        raise ValueError(f"signal shape {signals.shape} != multiplier shape {multipliers.shape}")
    return float(stage_cost + multipliers @ signals)


@dataclass
class StepResult:
    next_state: SystemState
    stage_cost: float
    per_plant_costs: np.ndarray
    signals: np.ndarray
    delivered: np.ndarray
    snr: np.ndarray
    realized_u: np.ndarray


class WirelessControlEnv:
    """Transition kernel and observation model for the joint system.

    The environment is stateless across calls: reset() draws an initial
    SystemState, step() maps (state, action) to a StepResult using the
    generator handed to the constructor. Each rollout worker owns one
    instance with its own generator, so trajectories are reproducible
    from seeds alone.
    """

    def __init__(
        self,
        plants: list[PlantModel],
        channel: ChannelModel,
        weights: CostWeights,
        rng: np.random.Generator,
        gamma: float = 0.99,
        constraint: Optional[ConstraintSpec] = None,
        obs_noise_cov: Optional[np.ndarray] = None,
        init_kind: str = "normal",
        init_scale: float = 1.0,
        force_delivery: bool = False,
    ) -> None:
        if not plants:
            raise ValueError("need at least one plant")
        if channel.n_plants != len(plants):
            raise ValueError(
                f"channel describes {channel.n_plants} plants, got {len(plants)} models"
            )
        kinds = {p.kind for p in plants}
        if len(kinds) != 1:
            raise ValueError("all plants must share a kind")
        dims = {(p.state_dim, p.input_dim) for p in plants}
        if len(dims) != 1:
            raise ValueError("all plants must share state and input dimensions")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
        if init_kind not in ("normal", "uniform", "zero"):
            raise ValueError(f"unknown init_kind {init_kind!r}")

        self.plants = plants
        self.channel = channel
        self.weights = weights
        self.rng = rng
        self.gamma = gamma
        self.constraint = constraint
        self.init_kind = init_kind
        self.init_scale = init_scale
        self.force_delivery = force_delivery

        self.m = len(plants)
        self.state_dim = plants[0].state_dim
        self.input_dim = plants[0].input_dim
        self.obs_dim = self.m * (1 + self.state_dim)
        if weights.q.shape[0] != self.state_dim:
            raise ValueError("cost state weight does not match plant state dimension")
        if weights.r.shape[0] != self.input_dim:
            raise ValueError("cost input weight does not match plant input dimension")

        if obs_noise_cov is None:
            obs_noise_cov = np.zeros((self.obs_dim, self.obs_dim))
        obs_noise_cov = np.asarray(obs_noise_cov, dtype=float)
        if obs_noise_cov.ndim == 1:
            if obs_noise_cov.shape != (self.obs_dim,):
                raise ValueError(
                    f"diagonal obs noise must have {self.obs_dim} entries, got {obs_noise_cov.shape}"
                )
            if (obs_noise_cov < 0).any():
                raise ValueError("observation noise variances must be nonnegative")
            self._obs_noise_std = np.sqrt(obs_noise_cov)
            self._obs_noise_factor = None
        else:
            if obs_noise_cov.shape != (self.obs_dim, self.obs_dim):
                raise ValueError(
                    f"obs noise covariance must be {(self.obs_dim, self.obs_dim)}, "
                    f"got {obs_noise_cov.shape}"
                )
            self._obs_noise_std = None
            self._obs_noise_factor = psd_factor(obs_noise_cov)

        if plants[0].kind == "linear":
            self._a_stack = np.stack([p.a_mat for p in plants])
            self._b_stack = np.stack([p.b_mat for p in plants])
        else:
            self._a_stack = None
            self._b_stack = None
        self._noise_stack = np.stack([p._noise_factor for p in plants])

    @property
    def n_signals(self) -> int:
        return self.constraint.n_components(self.m) if self.constraint is not None else 0

    def reset(self) -> SystemState:
        shape = (self.m, self.state_dim)
        if self.init_kind == "normal":
            x0 = self.init_scale * self.rng.standard_normal(shape)
        elif self.init_kind == "uniform":
            x0 = self.rng.uniform(-self.init_scale, self.init_scale, size=shape)
        else:
            x0 = np.zeros(shape)
        return SystemState(x=x0, h=self.channel.sample_gains(self.rng), t=0)

    def observe(self, state: SystemState) -> Observation:
        noise = (
            self._obs_noise_factor @ self.rng.standard_normal(self.obs_dim)
            if self._obs_noise_factor is not None
            else self._obs_noise_std * self.rng.standard_normal(self.obs_dim)
        )
        return Observation(
            channel=state.h + noise[: self.m],
            plant=state.x + noise[self.m :].reshape(self.m, self.state_dim),
        )

    def constraint_signal(self, state: SystemState, alpha: np.ndarray) -> np.ndarray:
        if self.constraint is None:
            return np.zeros(0)
        return self.constraint.signal(state.x, alpha, self.gamma)

    def step(self, state: SystemState, action: JointAction) -> StepResult:
        alpha = np.asarray(action.alpha, dtype=float)
        u = np.asarray(action.u, dtype=float)
        if alpha.shape != (self.m,):
            raise ValueError(f"alpha must have shape {(self.m,)}, got {alpha.shape}")
        if u.shape != (self.m, self.input_dim):
            raise ValueError(
                f"u must have shape {(self.m, self.input_dim)}, got {u.shape}"
            )
        if not (np.isfinite(alpha).all() and np.isfinite(u).all()):
            raise ValueError("action contains non-finite entries")

        snr_values = snr(state.h, alpha)
        probs = delivery_probability(snr_values)
        if self.force_delivery:
            delivered = np.ones(self.m, dtype=bool)
        else:
            delivered = self.rng.random(self.m) < probs
        realized_u = u * delivered[:, None]

        per_plant = np.einsum("ij,jk,ik->i", state.x, self.weights.q, state.x) + np.einsum(
            "ij,jk,ik->i", realized_u, self.weights.r, realized_u
        )
        signals = self.constraint_signal(state, alpha)

        w = np.einsum("ijk,ik->ij", self._noise_stack, self.rng.standard_normal((self.m, self.state_dim)))
        if self._a_stack is not None:
            next_x = (
                np.einsum("ijk,ik->ij", self._a_stack, state.x)
                + np.einsum("ijk,ik->ij", self._b_stack, realized_u)
                + w
            )
        else:
            next_x = np.stack(
                [
                    self.plants[i].step(state.x[i], realized_u[i], w[i])
                    for i in range(self.m)
                ]
            )

        next_state = SystemState(x=next_x, h=self.channel.sample_gains(self.rng), t=state.t + 1)
        return StepResult(
            next_state=next_state,
            stage_cost=float(per_plant.sum()),
            per_plant_costs=per_plant,
            signals=signals,
            delivered=delivered,
            snr=snr_values,
            realized_u=realized_u,
        )
