"""Closed-loop system of m plants sharing a lossy downlink, stepped for a
batch of rows at once.

A row is one independent copy of the system: a training worker, or the
single row of an evaluation cell or of pretraining. States, actions and
results carry the rows as a leading batch shape, which is empty for a
single row. A step takes the joint action (power allocations, candidate
control inputs), rolls the delivery lottery per plant and applies the
delivered inputs (dropped plants run open loop); the linear plants'
transition calls NumPy's C einsum directly, the function np.einsum runs,
without its Python wrapper. There is one delivery lottery, lottery(),
rolled for one step or for the rest of an episode: step() rolls its own
step through it, and when the allocations do not depend on the plant state
(evaluation under a fixed channel-or-step allocator) it rolls the whole
episode before the first step and each step reads its row; an element's
bits do not depend on how many steps are rolled, and the tape is the
same. charge() prices steps apart from the transition: the quadratic
stage cost of a state and its realized inputs, and the constraint signals
whose discounted episode sum estimates the constraint slack. It takes any
leading shape, so training charges each step's worker batch and
evaluation a whole episode at once.

All randomness is exogenous: it never depends on the actions. So the
environment holds no generator and no per-episode setting: reset() takes
the episode's generators and whether the episode forces delivery (every
packet arrives), and draws a whole episode up front, one noise tape per
row from that row's own generator. observe() and step() are pure array
functions of the state, the action and the tape, which alone holds the
gains and says whether delivery is forced; episode() is the one loop that
calls them, for training, pretraining and evaluation alike. Each row's
generator is read in a fixed order:

    reset:      initial state, then the channel gains
    every step: observation noise, delivery uniforms (skipped when the
                episode forces delivery), process noise, then the next gains
"""
from __future__ import annotations

import importlib
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from wcsrl import dynamics
from wcsrl.dynamics import CostWeights, PlantModel
from wcsrl.wireless import ChannelModel, delivery_probability, snr


def _c_einsum(modules: Sequence[str] = ("numpy._core.multiarray", "numpy.core.multiarray")):
    """The C einsum that np.einsum calls when optimize is off, found in the
    first of modules that has it (NumPy 2, then NumPy 1): the same function
    without the Python wrapper and its dispatcher, so the same bits. np.einsum
    where none has it."""
    for name in modules:
        try:
            return importlib.import_module(name).c_einsum
        except (ImportError, AttributeError):
            pass
    return np.einsum


_einsum = _c_einsum()


@dataclass
class NoiseTape:
    """One episode of exogenous randomness for every row, time first:
    gains (H+1, ..., m) at reset and after each step, observation noise
    (H, ..., obs_dim), delivery uniforms (H, ..., m), or None when the
    episode forces delivery, and process noise (H, ..., m, p), each plant's
    standard normal draws scaled by its standard deviation. channel, each
    step's gains plus its channel noise (H, ..., m), is added once and
    read-only; plant_noise views the plant part of the observation noise,
    (H, ..., m, p)."""

    gains: np.ndarray
    obs: np.ndarray
    uniforms: Optional[np.ndarray]
    process: np.ndarray
    channel: np.ndarray = field(init=False, repr=False)
    plant_noise: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = self.gains.shape[-1]
        self.channel = self.gains[: self.horizon] + self.obs[..., :m]
        self.channel.flags.writeable = False
        self.plant_noise = self.obs[..., m:].reshape(self.process.shape)

    @property
    def horizon(self) -> int:
        return self.obs.shape[0]


@dataclass
class SystemState:
    """True joint state: plant states x (batch + (m, p)), the episode's
    noise tape, which holds the gains, and the step t that reads it next."""

    x: np.ndarray
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

    An instantaneous power cap is no constraint kind: the allocation head
    enforces it (HeadSpec alloc "simplex").
    """

    kind: str
    power_budget: Optional[float] = None
    region_half_width: Optional[float] = None
    region_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind == "sum_power":
            if self.power_budget is None or self.power_budget <= 0:
                raise ValueError("sum_power constraint needs a positive power_budget")
        elif self.kind == "region":
            if self.region_half_width is None or self.region_half_width <= 0:
                raise ValueError("region constraint needs a positive region_half_width")
            if self.region_budget is None or self.region_budget < 0:
                raise ValueError("region constraint needs a nonnegative region_budget")
            # a 0-d array operand, which a comparison takes faster than a float
            self._half_width = np.array(float(self.region_half_width))
        else:
            raise ValueError(f"unknown constraint kind {self.kind!r}")

    def n_components(self, m: int) -> int:
        return 1 if self.kind == "sum_power" else m

    def signal(self, x_stack: np.ndarray, alpha: np.ndarray, gamma: float) -> np.ndarray:
        """Per-step signal l_t (..., n_components) for states (..., m, p) and
        allocations (..., m); the discounted sum over an episode folds the
        constraint bound in via the geometric series (1-gamma) * bound * sum(gamma^t)."""
        if self.kind == "sum_power":
            return (np.add.reduce(alpha, axis=-1) - (1.0 - gamma) * self.power_budget)[..., None]
        outside = np.logical_or.reduce(np.abs(x_stack) > self._half_width, axis=-1)
        return outside - (1.0 - gamma) * self.region_budget


def _where(state: SystemState, bad: np.ndarray) -> str:
    """The place an error names: for bad (T, ...) flagging entries of T
    steps from state.t (state's batch shape after the step axis), the first
    step with a flagged entry, and for batched rows its first flagged row."""
    first = np.unravel_index(np.argmax(bad), bad.shape)
    where = f"step {state.t + int(first[0])}"
    return f"{where}, row {int(first[1])}" if state.x.ndim > 2 else where


@dataclass
class StepResult:
    """Per-row transition of one step: the next state, which plants' packets
    arrived (batch + (m,)) and the inputs that reached them (batch + (m, q)).
    charge() prices the step from its pre-step state and realized_u."""

    next_state: SystemState
    delivered: np.ndarray
    realized_u: np.ndarray


class WirelessControlEnv:
    """Transition kernel and observation model for a batch of rows; it
    holds no generator. reset(horizon, rng) takes one generator (a single
    row: empty batch shape) or a sequence of them (one row each: batch
    shape (B,)) and fills each row's noise tape from that row's generator
    in the order the module docstring gives, so a row's trajectory depends
    on its own seed alone, and B rows step exactly as B single-row episodes
    on the same generators would. observe() and step() read the tape and
    the batch shape from the state, and never draw.
    """

    def __init__(
        self,
        plants: list[PlantModel],
        channel: ChannelModel,
        weights: CostWeights,
        gamma: float = 0.99,
        constraint: Optional[ConstraintSpec] = None,
        obs_noise_cov: Optional[np.ndarray] = None,
        init_kind: str = "normal",
        init_scale: float = 1.0,
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
        self.gamma = gamma
        self.constraint = constraint
        self.init_kind = init_kind
        self.init_scale = init_scale

        self.m = len(plants)
        self.state_dim = plants[0].state_dim
        self.input_dim = plants[0].input_dim
        self.obs_dim = self.m * (1 + self.state_dim)
        if weights.q.shape[0] != self.state_dim:
            raise ValueError("cost state weight does not match plant state dimension")
        if weights.r.shape[0] != self.input_dim:
            raise ValueError("cost input weight does not match plant input dimension")
        # CostWeights holds diagonal weights only
        self._q_diag = np.diagonal(weights.q).copy()
        self._r_diag = np.diagonal(weights.r).copy()

        # the diagonal of the observation-noise covariance, one variance per entry
        if obs_noise_cov is None:
            obs_noise_cov = np.zeros(self.obs_dim)
        obs_noise_cov = np.asarray(obs_noise_cov, dtype=float)
        if obs_noise_cov.shape != (self.obs_dim,):
            raise ValueError(
                f"diagonal obs noise must have {self.obs_dim} entries, got {obs_noise_cov.shape}"
            )
        if (obs_noise_cov < 0).any():
            raise ValueError("observation noise variances must be nonnegative")
        self._obs_noise_std = np.sqrt(obs_noise_cov)

        if plants[0].kind == "linear":
            self._a_stack = np.stack([p.a_mat for p in plants])
            self._b_stack = np.stack([p.b_mat for p in plants])
        else:
            self._a_stack = None
            self._b_stack = None
        # one process-noise standard deviation per plant, broadcast over its entries
        self._process_std = np.sqrt([p.process_noise for p in plants])[:, None]

    @property
    def n_signals(self) -> int:
        return self.constraint.n_components(self.m) if self.constraint is not None else 0

    def reset(
        self,
        horizon: int,
        rng: np.random.Generator | Sequence[np.random.Generator],
        force_delivery: bool = False,
    ) -> SystemState:
        """Start an episode of `horizon` steps: draw each row's initial state
        and noise tape from its generator, rng (one row) or rng[i] (row i).
        An episode that forces delivery draws no delivery uniforms, and every
        packet of it arrives."""
        if horizon < 0:
            raise ValueError(f"horizon must be nonnegative, got {horizon}")
        single = isinstance(rng, np.random.Generator)
        rngs = [rng] if single else list(rng)
        if not rngs:
            raise ValueError("need at least one generator")
        m, p, batch = self.m, self.state_dim, () if single else (len(rngs),)
        x0 = np.zeros(batch + (m, p))
        gains = np.empty((horizon + 1,) + batch + (m,))
        obs = np.empty((horizon,) + batch + (self.obs_dim,))
        uniforms = None if force_delivery else np.empty((horizon,) + batch + (m,))
        z = np.empty((horizon,) + batch + (m, p))
        for row, rng in zip(np.ndindex(*batch), rngs):
            if self.init_kind == "normal":
                x0[row] = self.init_scale * rng.standard_normal((m, p))
            elif self.init_kind == "uniform":
                x0[row] = rng.uniform(-self.init_scale, self.init_scale, size=(m, p))
            at = (slice(None),) + row
            row_gains, row_obs, row_z = gains[at], obs[at], z[at]
            row_uniforms = None if uniforms is None else uniforms[at]
            row_gains[0] = self.channel.sample_gains(rng)
            for t in range(horizon):
                rng.standard_normal(out=row_obs[t])
                if row_uniforms is not None:
                    rng.random(out=row_uniforms[t])
                rng.standard_normal(out=row_z[t])
                row_gains[t + 1] = self.channel.sample_gains(rng)
        obs *= self._obs_noise_std
        z *= self._process_std
        tape = NoiseTape(gains=gains, obs=obs, uniforms=uniforms, process=z)
        return SystemState(x=x0, tape=tape, t=0)

    def _tape_index(self, state: SystemState, steps: int = 1) -> int:
        """state.t, once the `steps` steps from it are known to lie on the tape;
        else ValueError naming the first step past it and the tape's length."""
        horizon = state.tape.horizon
        if state.t + steps > horizon:
            raise ValueError(
                f"step {max(state.t, horizon)} is past the {horizon}-step noise tape; "
                "reset with a longer horizon"
            )
        return state.t

    def observe(self, state: SystemState) -> Observation:
        t = self._tape_index(state)
        tape = state.tape
        return Observation(channel=tape.channel[t], plant=state.x + tape.plant_noise[t])

    def lottery(self, state: SystemState, alphas: np.ndarray) -> np.ndarray:
        """Which packets arrive (T, ..., m) on the T = len(alphas) steps from
        state.t, which lie on its tape, given each step's allocations alphas
        (T, ..., m): each step's delivery uniforms below the success
        probability of its gains and allocations, or every packet when the
        episode forces delivery (its tape holds no uniforms). This is the one
        delivery lottery. step() rolls its own step through it (T = 1); an
        evaluation episode whose allocations ignore the plant state rolls the
        rest of the episode before its first step, and episode() hands each
        step its row. An element's bits do not depend on T. ValueError
        naming the first step past the tape, else the first step (and row)
        with a non-finite allocation entry, else the first with a negative
        one."""
        t0 = self._tape_index(state, len(alphas))
        if alphas.shape[1:] != state.x.shape[:-1]:
            raise ValueError(f"alpha must have shape {state.x.shape[:-1]}, got {alphas.shape[1:]}")
        if np.count_nonzero(np.isfinite(alphas)) < alphas.size:
            raise ValueError(f"{_where(state, ~np.isfinite(alphas))}: non-finite allocation")
        steps = slice(t0, t0 + len(alphas))
        try:
            probs = delivery_probability(snr(state.tape.gains[steps], alphas))
        except ValueError as err:
            if len(alphas) > 1:
                # the first step with a negative entry, rolled alone, raises naming its own min
                i = int(np.argmax(alphas < 0.0)) // alphas[0].size
                self.lottery(replace(state, t=t0 + i), alphas[i : i + 1])
            raise ValueError(f"{_where(state, alphas < 0.0)}: {err}") from err
        if state.tape.uniforms is None:
            return np.ones(alphas.shape, dtype=bool)
        return state.tape.uniforms[steps] < probs

    def step(
        self, state: SystemState, action: JointAction, delivered: Optional[np.ndarray] = None
    ) -> StepResult:
        """The transition from state under action. delivered, when given, is
        this step's row of an episode's lottery(); else step() rolls this
        step's lottery through lottery(), which checks the allocation. Errors
        in the action name the step, and for batched rows the first bad row."""
        u = np.asarray(action.u, dtype=float)
        u_shape = state.x.shape[:-1] + (self.input_dim,)
        if u.shape != u_shape:
            raise ValueError(f"u must have shape {u_shape}, got {u.shape}")
        if np.count_nonzero(np.isfinite(u)) < u.size:
            where = _where(state, ~np.isfinite(u)[None])
            raise ValueError(f"{where}: non-finite control input")
        t = self._tape_index(state)
        tape = state.tape
        if delivered is None:  # lottery() checks the allocation
            delivered = self.lottery(state, np.asarray(action.alpha, dtype=float)[None])[0]
        realized_u = u * delivered[..., None]

        w = tape.process[t]
        if self._a_stack is not None:
            next_x = _einsum("ijk,...ik->...ij", self._a_stack, state.x)
            next_x += _einsum("ijk,...ik->...ij", self._b_stack, realized_u)
            next_x += w
        else:
            next_x = dynamics.cartpole_step(state.x, realized_u[..., 0], w)

        return StepResult(
            next_state=SystemState(x=next_x, tape=tape, t=t + 1),
            delivered=delivered,
            realized_u=realized_u,
        )

    def charge(
        self, x: np.ndarray, realized_u: np.ndarray, alpha: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(per-plant costs (..., m), stage costs (...), signals (..., n_signals))
        of pre-step states x (..., m, p), the inputs that reached the plants
        (..., m, q) and allocations (..., m), for any leading shape: one step
        of a batch, or a stacked (T, ...) trajectory, which prices each step
        bit for bit as charging it alone would."""
        per_plant = np.add.reduce(x * self._q_diag * x, axis=-1)
        per_plant += np.add.reduce(realized_u * self._r_diag * realized_u, axis=-1)
        if self.constraint is None:
            signals = np.zeros(alpha.shape[:-1] + (0,))
        else:
            signals = self.constraint.signal(x, alpha, self.gamma)
        return per_plant, np.add.reduce(per_plant, axis=-1), signals

    def episode(
        self,
        start: SystemState,
        act: Callable[[Observation, int], JointAction],
        delivered: Optional[np.ndarray] = None,
    ) -> Iterator[tuple[int, Observation, JointAction, StepResult, float]]:
        """The closed loop from start to the end of its tape: each step observes,
        asks act(obs, t) for the action, steps, and yields (t, obs, action,
        result, discount), the discount being the running product gamma^t.
        delivered, when given, is the episode's lottery(), rolled before the
        first step; each step reads its row instead of rolling its own.
        Callers charge the steps and keep their own sums and divergence rules."""
        state, disc, t0 = start, 1.0, start.t
        for t in range(t0, start.tape.horizon):
            obs = self.observe(state)
            action = act(obs, t)
            if delivered is None:
                result = self.step(state, action)
            else:
                result = self.step(state, action, delivered[t - t0])
            yield t, obs, action, result, disc
            disc *= self.gamma
            state = result.next_state
