"""Action sources and the one step, compose_action, that forms every joint
action (allocations alpha (..., m), control inputs u (..., m, q)) in
training and in evaluation.

The allocation comes from the full-observation actor or a fixed
allocator; the control from the joint actor, the per-plant controller
actors (one member-stacked actor, member i on [channel_i, state_i,
alpha_i], all plants drawn in one call) or a fixed controller.
Allocators and controllers are callables (obs, t) -> array on
observations with any leading batch shape, so training calls each once
per step for all of its workers, and evaluation once per single
observation. An allocator that reads only the channel and the step
(make_allocator marks it state_free) is called once per evaluation
episode instead, on every step's channel observation at once
(episode_allocations), and each step's action carries its row.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from wcsrl import baselines
from wcsrl.environment import JointAction, Observation
from wcsrl.neuralnet import GaussianActor

if TYPE_CHECKING:
    from wcsrl.config import ExperimentConfig
    from wcsrl.learner import TrainedAgents

Allocator = Callable[[Observation, int], np.ndarray]
Controller = Callable[[Observation, int], np.ndarray]


# ---------------------------------------------------------------------------
# fixed sources


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr, frozen: every step hands out the same cached allocation, so a
    consumer that wrote to it would corrupt the steps after."""
    arr.flags.writeable = False
    return arr


def equal_allocator(m: int, p_total: float) -> Allocator:
    """p_total/m to every plant; no power at all when p_total <= 0."""
    alpha = _read_only(baselines.equal_power(m, p_total) if p_total > 0 else np.zeros(m))

    def fn(obs: Observation, t: int) -> np.ndarray:
        return alpha

    return fn


def zero_allocator(m: int) -> Allocator:
    return equal_allocator(m, 0.0)


def make_allocator(name: str, m: int, n_active: int, p_total: float) -> Allocator:
    """Baseline allocator registry; all_on is the everyone-transmits alias.
    Every allocator but control_aware reads only obs.channel and t, never
    obs.plant, takes any leading shape of obs.channel and t as an int or as
    an array of steps, and is marked state_free: episode_allocations then
    computes a whole episode's allocations in one call."""
    if name in ("equal", "all_on"):
        fn = equal_allocator(m, p_total)
    elif name == "zero":
        fn = zero_allocator(m)
    elif name == "round_robin":
        # the schedule repeats every m steps: one cached row per step of a cycle
        cycle = np.stack([baselines.round_robin(m, n_active, p_total, t) for t in range(m)])
        cycle = _read_only(cycle)
        fn = lambda obs, t: cycle[t % m]
    elif name == "channel_aware":
        fn = lambda obs, t: baselines.channel_aware(obs.channel, n_active, p_total)
    elif name == "control_aware":
        return lambda obs, t: baselines.control_aware(obs.plant, n_active, p_total)
    else:
        raise ValueError(f"unknown allocator {name!r}")
    fn.state_free = True
    return fn


def heuristic_allocator(name: str, cfg: ExperimentConfig) -> Allocator:
    """The fixed heuristic allocator name under cfg. The baselines, the equal
    power beside learned control, the warm-up and the pretraining target all
    come from here, so they send one per-step power: the simplex head's cap
    alloc.total; else (1 - gamma) * budget under a sum_power constraint;
    else alloc.total, or the plant count when that is unset. The selecting
    heuristics serve alloc.n_active plants."""
    if cfg.alloc_head == "simplex" and cfg.alloc_total is not None:
        power = float(cfg.alloc_total)
    elif cfg.constraint_kind == "sum_power":
        power = (1.0 - cfg.train_gamma) * float(cfg.constraint_power_budget)
    elif cfg.alloc_total is not None:
        power = float(cfg.alloc_total)
    else:
        power = float(cfg.plants_count)
    return make_allocator(name, cfg.plants_count, cfg.alloc_n_active, power)


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


def controller_slice(obs: Observation, alpha: np.ndarray) -> np.ndarray:
    """Every plant's controller input [channel_i, state_i, alpha_i] as one
    contiguous member-major (m, rows, p + 2) array; rows flattens obs's
    batch shape."""
    x = np.concatenate([obs.channel[..., None], obs.plant, alpha[..., None]], axis=-1)
    return np.ascontiguousarray(x.reshape(-1, *x.shape[-2:]).swapaxes(0, 1))


@dataclass
class ActionSources:
    """Where each half of a joint action comes from."""

    actor: Optional[GaussianActor] = None
    rc_actor: Optional[GaussianActor] = None
    allocator: Optional[Allocator] = None
    controller: Optional[Controller] = None


@dataclass
class ComposedAction(JointAction):
    """A joint action plus the actor inputs and raw draws the learner
    records; the per-plant ones are member-major, (m, rows, ...)."""

    rows: Optional[np.ndarray] = None
    raw: Optional[np.ndarray] = None
    rc_inputs: Optional[np.ndarray] = None
    rc_raw: Optional[np.ndarray] = None


def _fixed(source, obs: Observation, t: int, batch: tuple, core: int, what: str) -> np.ndarray:
    """A fixed source's output, broadcast to the batch when it ignores it."""
    if source is None:
        raise ValueError(f"policy produces no {what} and has no fixed source for it")
    out = source(obs, t)
    if out.shape[:-core] != batch:
        out = np.broadcast_to(out, batch + out.shape[-core:])
    return out


def _draw(actor: GaussianActor, x: np.ndarray, rng: Optional[np.random.Generator]):
    """(alpha, u, raw draws) of actor on x: sampled with rng, else the mean."""
    if rng is None:
        return (*actor.act_mean(x), None)
    sample = actor.sample(x, rng)
    return sample.alpha, sample.u, sample.raw


def compose_action(
    sources: ActionSources,
    obs: Observation,
    t: int,
    rng: Optional[np.random.Generator] = None,
    segment_update: Optional[Callable[[np.ndarray, Optional[np.ndarray]], None]] = None,
    alpha: Optional[np.ndarray] = None,
) -> ComposedAction:
    """The joint action for obs (any leading batch shape) at step t.

    rng samples every actor and returns the raw draws (training,
    eval.stochastic); rng=None acts on the means. segment_update(rows,
    rc_inputs), the learner's pending update, runs before the first draw,
    except with per-plant actors: then it runs after the allocation draw,
    so they are updated with, and act on, that allocation. alpha, when
    given, is the fixed allocator's output for this step, computed already
    (episode_allocations), and the allocator is not called.
    """
    batch = obs.channel.shape[:-1]
    rows = raw = u = None
    if sources.actor is not None or segment_update is not None:
        rows = obs.stacked()
        rows = rows.reshape(-1, rows.shape[-1])
    if segment_update is not None and sources.rc_actor is None:
        segment_update(rows, None)
    if sources.actor is not None:
        drawn, u, raw = _draw(sources.actor, rows, rng)
        if drawn is not None:
            alpha = drawn.reshape(batch + drawn.shape[1:])
        u = None if u is None else u.reshape(batch + u.shape[1:])
    if alpha is None:
        alpha = _fixed(sources.allocator, obs, t, batch, 1, "allocation")

    rc_inputs = rc_raw = None
    if sources.rc_actor is not None:
        rc_inputs = controller_slice(obs, alpha)
        if segment_update is not None:
            segment_update(rows, rc_inputs)
        # every plant in one draw; u_rc is (m, rows, 1, q)
        _, u_rc, rc_raw = _draw(sources.rc_actor, rc_inputs, rng)
        u = np.ascontiguousarray(u_rc[..., 0, :].swapaxes(0, 1)).reshape(
            batch + (rc_inputs.shape[0], -1)
        )
    if u is None:
        u = _fixed(sources.controller, obs, t, batch, 2, "control input")
    return ComposedAction(alpha, u, rows, raw, rc_inputs, rc_raw)


# ---------------------------------------------------------------------------
# evaluation policies


def episode_allocations(policy, channels: np.ndarray, t0: int) -> Optional[np.ndarray]:
    """The allocations (T, ..., m) of the T steps from t0 on, from one call on
    their stacked channel observations channels (T, ..., m), when policy's
    allocation comes from a state_free allocator (make_allocator) and from
    no actor; else None, and each step composes its own. Passed back one row
    per step to policy.act, they give the actions a per-step call gives."""
    sources = policy.sources
    if sources.actor is not None and sources.actor.head.alloc is not None:
        return None
    if not getattr(sources.allocator, "state_free", False):
        return None
    # one step per leading entry, broadcast over the batch shape
    steps = np.arange(t0, t0 + len(channels)).reshape((-1,) + (1,) * (channels.ndim - 2))
    alphas = np.empty(channels.shape)
    alphas[...] = sources.allocator(Observation(channel=channels, plant=None), steps)
    return alphas


class HeuristicPolicy:
    """Fixed allocator plus fixed controller."""

    def __init__(self, allocator: Allocator, controller: Controller) -> None:
        self.sources = ActionSources(allocator=allocator, controller=controller)

    def act(
        self, obs: Observation, t: int, rng: np.random.Generator, alpha: Optional[np.ndarray] = None
    ) -> JointAction:
        return compose_action(self.sources, obs, t, alpha=alpha)


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
        self.sources = ActionSources(agents.actor, agents.rc_actor, allocator, controller)
        self.stochastic = stochastic

    def act(
        self, obs: Observation, t: int, rng: np.random.Generator, alpha: Optional[np.ndarray] = None
    ) -> JointAction:
        return compose_action(self.sources, obs, t, rng if self.stochastic else None, alpha=alpha)
