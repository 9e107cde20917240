"""Action sources and the one step, compose_action, that forms every joint
action (allocations alpha (..., m), control inputs u (..., m, q)) in
training and in evaluation.

The allocation comes from the full-observation actor or a fixed
allocator; the control from the joint actor, the per-plant actors (on
[channel_i, state_i, alpha_i]) or a fixed controller. Allocators and
controllers are callables (obs, t) -> array on observations with any
leading batch shape, so training calls each once per step for all of its
workers, and evaluation once per single observation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from wcsrl import baselines
from wcsrl.environment import JointAction, Observation
from wcsrl.neuralnet import GaussianActor

if TYPE_CHECKING:
    from wcsrl.learner import TrainedAgents

Allocator = Callable[[Observation, int], np.ndarray]
Controller = Callable[[Observation, int], np.ndarray]


# ---------------------------------------------------------------------------
# fixed sources


def equal_allocator(m: int, p_total: float) -> Allocator:
    """p_total/m to every plant; no power at all when p_total <= 0."""
    alpha = baselines.equal_power(m, p_total) if p_total > 0 else np.zeros(m)

    def fn(obs: Observation, t: int) -> np.ndarray:
        return alpha

    return fn


def zero_allocator(m: int) -> Allocator:
    return equal_allocator(m, 0.0)


def make_allocator(name: str, m: int, n_active: int, p_total: float) -> Allocator:
    """Baseline allocator registry; all_on is the everyone-transmits alias."""
    if name in ("equal", "all_on"):
        return equal_allocator(m, p_total)
    if name == "zero":
        return zero_allocator(m)
    if name == "round_robin":
        return lambda obs, t: baselines.round_robin(m, n_active, p_total, t)
    if name == "channel_aware":
        return lambda obs, t: baselines.channel_aware(obs.channel, n_active, p_total)
    if name == "control_aware":
        return lambda obs, t: baselines.control_aware(obs.plant, n_active, p_total)
    raise ValueError(f"unknown allocator {name!r}")


def riccati_controller(
    gains: list[np.ndarray],
    u_low: Optional[float] = None,
    u_high: Optional[float] = None,
) -> Controller:
    """Per-plant state feedback u_i = -K_i x_i on the observed states, one
    stacked matmul for every plant and batch row, clipped to the actuator
    interval when one is configured."""
    stacked = np.stack(gains)

    def fn(obs: Observation, t: int) -> np.ndarray:
        u = baselines.lqr_control(stacked, obs.plant)
        if u_low is not None:
            u = np.clip(u, u_low, u_high)
        return u

    return fn


def zero_controller(m: int, input_dim: int) -> Controller:
    u = np.zeros((m, input_dim))

    def fn(obs: Observation, t: int) -> np.ndarray:
        return u

    return fn


# ---------------------------------------------------------------------------
# composition


def controller_slice(obs: Observation, alpha: np.ndarray, plant: int) -> np.ndarray:
    """Per-plant controller input [channel_i, state_i, alpha_i] with obs's batch shape."""
    return np.concatenate(
        [obs.channel[..., plant, None], obs.plant[..., plant, :], alpha[..., plant, None]],
        axis=-1,
    )


@dataclass
class ActionSources:
    """Where each half of a joint action comes from.

    split marks the one ordering difference between the topologies: the
    split allocation actor draws before the pending segment update, so its
    per-plant controllers are updated with, and act on, that allocation; a
    joint actor draws after the update.
    """

    actor: Optional[GaussianActor] = None
    rc_actors: list = field(default_factory=list)
    allocator: Optional[Allocator] = None
    controller: Optional[Controller] = None
    split: bool = False


@dataclass
class ComposedAction:
    """A joint action plus the actor inputs and raw draws the learner records."""

    alpha: np.ndarray
    u: np.ndarray
    rows: Optional[np.ndarray] = None
    raw: Optional[np.ndarray] = None
    rc_inputs: list = field(default_factory=list)
    rc_raw: list = field(default_factory=list)


def _fixed(source, obs: Observation, t: int, batch: tuple, core: int, what: str) -> np.ndarray:
    """A fixed source's output, broadcast to the batch when it ignores it."""
    if source is None:
        raise ValueError(f"policy produces no {what} and has no fixed source for it")
    out = source(obs, t)
    if out.shape[:-core] != batch:
        out = np.broadcast_to(out, batch + out.shape[-core:])
    return out


def compose_action(
    sources: ActionSources,
    obs: Observation,
    t: int,
    rng: Optional[np.random.Generator] = None,
    segment_update: Optional[Callable[[np.ndarray, list], None]] = None,
) -> ComposedAction:
    """The joint action for obs (any leading batch shape) at step t.

    rng samples every actor and returns the raw draws (training,
    eval.stochastic); rng=None acts on the means. segment_update(rows,
    rc_inputs), the learner's pending update, runs at the point in the
    draw order that sources.split fixes.
    """
    batch = obs.channel.shape[:-1]

    def draw(actor: GaussianActor, x: np.ndarray):
        if rng is None:
            return (*actor.act_mean(x), None)
        sample = actor.sample(x, rng)
        return sample.alpha, sample.u, sample.raw

    rows = raw = alpha = u = None
    if sources.actor is not None or segment_update is not None:
        rows = obs.stacked()
        rows = rows.reshape(-1, rows.shape[-1])
    if segment_update is not None and not sources.split:
        segment_update(rows, [])
    if sources.actor is not None:
        alpha, u, raw = draw(sources.actor, rows)
        alpha = None if alpha is None else alpha.reshape(batch + alpha.shape[1:])
        u = None if u is None else u.reshape(batch + u.shape[1:])
    if alpha is None:
        alpha = _fixed(sources.allocator, obs, t, batch, 1, "allocation")

    rc_inputs = [controller_slice(obs, alpha, i) for i in range(len(sources.rc_actors))]
    if segment_update is not None and sources.split:
        segment_update(rows, rc_inputs)
    rc_raw = []
    if sources.rc_actors:
        cols = []
        for actor, x in zip(sources.rc_actors, rc_inputs):
            _, u_i, raw_i = draw(actor, x.reshape(-1, x.shape[-1]))
            cols.append(u_i[:, 0, :])
            rc_raw.append(raw_i)
        u = np.stack(cols, axis=1).reshape(batch + (len(cols), -1))
    if u is None:
        u = _fixed(sources.controller, obs, t, batch, 2, "control input")
    return ComposedAction(alpha, u, rows, raw, rc_inputs, rc_raw)


# ---------------------------------------------------------------------------
# evaluation policies


class HeuristicPolicy:
    """Fixed allocator plus fixed controller."""

    def __init__(self, allocator: Allocator, controller: Controller) -> None:
        self.sources = ActionSources(allocator=allocator, controller=controller)

    def act(self, obs: Observation, t: int, rng: np.random.Generator) -> JointAction:
        action = compose_action(self.sources, obs, t)
        return JointAction(alpha=action.alpha, u=action.u)


class AgentPolicy:
    """Trained agents with fixed sources for the action halves they do not produce.

    stochastic=False acts with the deterministic mean pushed through the
    structural heads; stochastic=True samples like during training.
    """

    def __init__(
        self,
        agents: TrainedAgents,
        allocator: Optional[Allocator] = None,
        controller: Optional[Controller] = None,
        stochastic: bool = False,
    ) -> None:
        self.sources = ActionSources(
            agents.actor, agents.rc_actors, allocator, controller, agents.topology == "separate"
        )
        self.stochastic = stochastic

    def act(self, obs: Observation, t: int, rng: np.random.Generator) -> JointAction:
        action = compose_action(self.sources, obs, t, rng if self.stochastic else None)
        return JointAction(alpha=action.alpha, u=action.u)
