"""Closed-loop system of m plants sharing a lossy downlink, stepped for a
batch of rows at once.

A row is one independent copy of the system: a training worker, or the
single row of an evaluation cell or of pretraining. States, actions and
results carry the rows as a leading batch shape, which is empty for a
single row. A step takes the joint action (power allocations, candidate
control inputs), rolls the delivery lottery per plant, applies delivered
inputs (dropped plants run open loop), charges the quadratic stage cost
on the realized inputs, and reports per-step constraint signals whose
discounted episode sum estimates the constraint slack.

All randomness is exogenous: it never depends on the actions. So reset()
draws a whole episode of it up front, one noise tape per row from that
row's own generator, and observe() and step() are pure array functions
of the state, the action and the tape. Each row's generator is read in a
fixed order:

    reset:      initial state, then the channel gains
    every step: observation noise, delivery uniforms (skipped under
                force_delivery), process noise, then the next gains
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from wcsrl import dynamics
from wcsrl.dynamics import CostWeights, PlantModel, psd_factor
from wcsrl.wireless import ChannelModel, delivery_probability, snr


@dataclass
class NoiseTape:
    """One episode of exogenous randomness for every row, time first:
    gains (H+1, ..., m) at reset and after each step, observation noise
    (H, ..., obs_dim), delivery uniforms (H, ..., m) or None under
    force_delivery, and process noise L w (H, ..., m, p)."""

    gains: np.ndarray
    obs: np.ndarray
    uniforms: Optional[np.ndarray]
    process: np.ndarray

    @property
    def horizon(self) -> int:
        return self.obs.shape[0]


@dataclass
class SystemState:
    """True joint state: plant states x (..., m, p), channel gains h (..., m),
    the episode's noise tape and the step t that reads it next."""

    x: np.ndarray
    h: np.ndarray
    tape: NoiseTape
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
    """Power allocations alpha (..., m) and candidate control inputs u (..., m, q)."""

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
        """Per-step signal l_t (..., n_components) for states (..., m, p) and
        allocations (..., m); the discounted sum over an episode folds the
        constraint bound in via the geometric series (1-gamma) * bound * sum(gamma^t)."""
        if self.kind == "sum_power":
            return (np.sum(alpha, axis=-1) - (1.0 - gamma) * self.power_budget)[..., None]
        if self.kind == "region":
            outside = (np.abs(x_stack) > self.region_half_width).any(axis=-1).astype(float)
            return outside - (1.0 - gamma) * self.region_budget
        return np.zeros(np.shape(alpha)[:-1] + (0,))


def penalized_cost(stage_cost: float, signals: np.ndarray, multipliers: np.ndarray) -> float:
    """Lagrangian stage cost: stage cost plus multiplier-weighted constraint signals."""
    signals = np.asarray(signals, dtype=float)
    multipliers = np.asarray(multipliers, dtype=float)
    if signals.shape != multipliers.shape:
        raise ValueError(f"signal shape {signals.shape} != multiplier shape {multipliers.shape}")
    return float(stage_cost + multipliers @ signals)


@dataclass
class StepResult:
    """Per-row outcome of one step; stage_cost has the batch shape."""

    next_state: SystemState
    stage_cost: np.ndarray
    per_plant_costs: np.ndarray
    signals: np.ndarray
    delivered: np.ndarray
    snr: np.ndarray
    realized_u: np.ndarray


class WirelessControlEnv:
    """Transition kernel and observation model for a batch of rows.

    rng is one generator (a single row: empty batch shape) or a sequence
    of them (one row each: batch shape (B,)). reset() fills each row's
    noise tape from that row's generator in the order the module docstring
    gives, so a row's trajectory depends on its own seed alone, and B rows
    step exactly as B single-row environments on the same generators would.
    observe() and step() read the tape and never draw.
    """

    def __init__(
        self,
        plants: list[PlantModel],
        channel: ChannelModel,
        weights: CostWeights,
        rng: np.random.Generator | Sequence[np.random.Generator],
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
        if isinstance(rng, np.random.Generator):
            self.rngs, self.batch_shape = [rng], ()
        else:
            self.rngs = list(rng)
            if not self.rngs:
                raise ValueError("need at least one generator")
            self.batch_shape = (len(self.rngs),)

        self.plants = plants
        self.channel = channel
        self.weights = weights
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

    def reset(self, horizon: int) -> SystemState:
        """Start an episode of `horizon` steps: draw every row's initial state
        and noise tape from its generator."""
        if horizon < 0:
            raise ValueError(f"horizon must be nonnegative, got {horizon}")
        m, p, batch = self.m, self.state_dim, self.batch_shape
        x0 = np.zeros(batch + (m, p))
        gains = np.empty((horizon + 1,) + batch + (m,))
        obs = np.empty((horizon,) + batch + (self.obs_dim,))
        uniforms = None if self.force_delivery else np.empty((horizon,) + batch + (m,))
        z = np.empty((horizon,) + batch + (m, p))
        factor = self._obs_noise_factor
        for row, rng in zip(np.ndindex(*batch), self.rngs):
            if self.init_kind == "normal":
                x0[row] = self.init_scale * rng.standard_normal((m, p))
            elif self.init_kind == "uniform":
                x0[row] = rng.uniform(-self.init_scale, self.init_scale, size=(m, p))
            at = (slice(None),) + row
            row_gains, row_obs, row_z = gains[at], obs[at], z[at]
            row_uniforms = None if uniforms is None else uniforms[at]
            row_gains[0] = self.channel.sample_gains(rng)
            for t in range(horizon):
                if factor is None:
                    rng.standard_normal(out=row_obs[t])
                else:
                    row_obs[t] = factor @ rng.standard_normal(self.obs_dim)
                if row_uniforms is not None:
                    rng.random(out=row_uniforms[t])
                rng.standard_normal(out=row_z[t])
                row_gains[t + 1] = self.channel.sample_gains(rng)
        if factor is None:
            obs *= self._obs_noise_std
        process = np.einsum("ijk,...ik->...ij", self._noise_stack, z)
        tape = NoiseTape(gains=gains, obs=obs, uniforms=uniforms, process=process)
        return SystemState(x=x0, h=gains[0], tape=tape, t=0)

    def _tape_index(self, state: SystemState) -> int:
        if state.t >= state.tape.horizon:
            raise ValueError(
                f"step {state.t} is past the {state.tape.horizon}-step noise tape; "
                "reset with a longer horizon"
            )
        return state.t

    def observe(self, state: SystemState) -> Observation:
        noise = state.tape.obs[self._tape_index(state)]
        return Observation(
            channel=state.h + noise[..., : self.m],
            plant=state.x + noise[..., self.m :].reshape(state.x.shape),
        )

    def constraint_signal(self, state: SystemState, alpha: np.ndarray) -> np.ndarray:
        if self.constraint is None:
            return np.zeros(alpha.shape[:-1] + (0,))
        return self.constraint.signal(state.x, alpha, self.gamma)

    def step(self, state: SystemState, action: JointAction) -> StepResult:
        alpha = np.asarray(action.alpha, dtype=float)
        u = np.asarray(action.u, dtype=float)
        shape = self.batch_shape + (self.m,)
        if alpha.shape != shape:
            raise ValueError(f"alpha must have shape {shape}, got {alpha.shape}")
        if u.shape != shape + (self.input_dim,):
            raise ValueError(f"u must have shape {shape + (self.input_dim,)}, got {u.shape}")
        if not (np.isfinite(alpha).all() and np.isfinite(u).all()):
            raise ValueError("action contains non-finite entries")
        t = self._tape_index(state)
        tape = state.tape

        snr_values = snr(state.h, alpha)
        probs = delivery_probability(snr_values)
        if self.force_delivery:
            delivered = np.ones(shape, dtype=bool)
        else:
            delivered = tape.uniforms[t] < probs
        realized_u = u * delivered[..., None]

        per_plant = np.einsum(
            "...ij,jk,...ik->...i", state.x, self.weights.q, state.x
        ) + np.einsum("...ij,jk,...ik->...i", realized_u, self.weights.r, realized_u)
        signals = self.constraint_signal(state, alpha)

        w = tape.process[t]
        if self._a_stack is not None:
            next_x = (
                np.einsum("ijk,...ik->...ij", self._a_stack, state.x)
                + np.einsum("ijk,...ik->...ij", self._b_stack, realized_u)
                + w
            )
        else:
            next_x = dynamics.cartpole_step(state.x, realized_u[..., 0], w)

        return StepResult(
            next_state=SystemState(x=next_x, h=tape.gains[t + 1], tape=tape, t=t + 1),
            stage_cost=per_plant.sum(axis=-1),
            per_plant_costs=per_plant,
            signals=signals,
            delivered=delivered,
            snr=snr_values,
            realized_u=realized_u,
        )
