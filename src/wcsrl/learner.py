"""Constrained advantage actor-critic over the lossy-link control system.

The primal-dual scheme: N synchronous workers roll the system under
the current stochastic policy, parameters update every seg_len steps
from pooled worker segments (policy step on advantage-weighted
log-probabilities, value step on squared cost-to-go error), and the
constraint multipliers take a projected ascent step at each episode
end using the discounted constraint-signal sums.

Two agent layouts exist. "single": one actor maps the full noisy
observation to allocations and/or control inputs. "separate": an
access-point actor maps the full observation to allocations, and one
small per-plant controller actor maps that plant's slice
[channel_i, state_i, alpha_i] to its control input; each actor has
its own critic, and only the access-point agent sees the constraint
penalty.

The N workers are the N rows of one batched environment: each step
observes and steps all of them in one call each, and one call to
policies.compose_action (which evaluation uses too) forms the actions of
all workers. The halves the agents do not learn come from one call to
the fixed allocator or controller. The pending segment update runs inside
that call: after the access-point draw in the separate layout, before
the joint draw in the single one.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from wcsrl import policies
from wcsrl.baselines import default_active_count
from wcsrl.baselines import control_aware  # noqa: F401  traced by name in perfbench/layers.py
from wcsrl.environment import JointAction, Observation, WirelessControlEnv
from wcsrl.neuralnet import (
    GaussianActor,
    HeadSpec,
    ValueNet,
    clip_global_norm,
    make_optimizer,
)


class TrainingDivergedError(RuntimeError):
    """Raised when a plant state or a gradient goes non-finite, or the
    Lagrangian estimate blows past the configured ceiling; carries the
    episode index for diagnosis."""

    def __init__(self, message: str, episode: int) -> None:
        super().__init__(message)
        self.episode = episode


# ---------------------------------------------------------------------------
# core update math


def compute_cost_to_go(costs: np.ndarray, bootstrap, gamma: float) -> np.ndarray:
    """Discounted cost-to-go R_t = c_t + gamma * R_{t+1} over a segment.

    costs has shape (L,) or (L, N); bootstrap is the tail value estimate
    (zero at an episode boundary) with matching trailing shape.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim not in (1, 2) or costs.shape[0] == 0:
        raise ValueError(f"costs must be (L,) or (L, N) with L >= 1, got {costs.shape}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    running = np.asarray(bootstrap, dtype=float)
    if running.shape != costs.shape[1:]:
        raise ValueError(
            f"bootstrap shape {running.shape} does not match cost rows {costs.shape[1:]}"
        )
    out = np.empty_like(costs)
    for t in reversed(range(costs.shape[0])):
        running = costs[t] + gamma * running
        out[t] = running
    return out


def compute_advantage(returns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sampled cost-to-go minus the critic's estimate."""
    returns = np.asarray(returns, dtype=float)
    values = np.asarray(values, dtype=float)
    if returns.shape != values.shape:
        raise ValueError(f"shape mismatch {returns.shape} vs {values.shape}")
    return returns - values


def dual_update(multipliers: np.ndarray, violation: np.ndarray, step_size: float) -> np.ndarray:
    """Projected ascent on the multipliers: [lam + step * violation]_+."""
    multipliers = np.asarray(multipliers, dtype=float)
    violation = np.asarray(violation, dtype=float)
    if multipliers.shape != violation.shape:
        raise ValueError(
            f"multiplier shape {multipliers.shape} != violation shape {violation.shape}"
        )
    if step_size <= 0:
        raise ValueError("step_size must be positive")
    return np.maximum(0.0, multipliers + step_size * violation)


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


@dataclass
class DualState:
    """Multipliers plus their dual-ascent bookkeeping."""

    multipliers: np.ndarray
    step_size: float
    history: list = field(default_factory=list)

    def update(self, violation: np.ndarray) -> None:
        self.multipliers = dual_update(self.multipliers, violation, self.step_size)
        self.history.append(np.asarray(violation, dtype=float).copy())


# ---------------------------------------------------------------------------
# settings and results


@dataclass
class TrainSettings:
    episodes: int
    horizon: int
    n_workers: int = 16
    seg_len: int = 5
    gamma: float = 0.99
    policy_lr: float = 5e-4
    value_lr: float = 5e-4
    dual_lr: float = 1e-4
    optimizer: str = "rmsprop"
    entropy_coef: float = 0.0
    grad_clip: float = 0.0
    hidden: tuple = (64, 64)
    init_log_std: float = float(np.log(0.5))
    topology: str = "single"
    learn_alloc: bool = True
    learn_control: bool = False
    alloc_head: Optional[str] = "simplex"
    alpha_total: Optional[float] = None
    control_low: Optional[float] = None
    control_high: Optional[float] = None
    pretrain_iters: int = 0
    pretrain_lr: float = 1e-2
    pretrain_batch: int = 64
    warm_episodes: int = 0
    lagrangian_ceiling: float = 1e12

    def __post_init__(self) -> None:
        if self.episodes < 1 or self.horizon < 1 or self.n_workers < 1 or self.seg_len < 1:
            raise ValueError("episodes, horizon, n_workers, seg_len must be positive")
        if self.topology not in ("single", "separate"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if not (self.learn_alloc or self.learn_control):
            raise ValueError("nothing to learn: enable learn_alloc and/or learn_control")
        if self.warm_episodes > 0 and not (self.topology == "separate" and self.learn_alloc):
            raise ValueError(
                "warm_episodes apply only to a learned allocation actor in the separate topology"
            )


@dataclass
class EpisodeRow:
    episode: int
    lagrangian: float
    violations: np.ndarray
    multipliers: np.ndarray


@dataclass
class TrainedAgents:
    """Trained actors/critics for either layout; unused slots stay None/empty."""

    topology: str
    actor: Optional[GaussianActor] = None
    critic: Optional[ValueNet] = None
    rc_actors: list = field(default_factory=list)
    rc_critics: list = field(default_factory=list)


@dataclass
class TrainResult:
    agents: TrainedAgents
    dual: DualState
    log: list


# ---------------------------------------------------------------------------
# one actor-critic pair with segment buffers


class SegmentAgent:
    """Actor-critic pair collecting (obs, raw action, cost) per step for
    one worker batch, updated at segment boundaries by pooled summation."""

    def __init__(self, actor: GaussianActor, critic: ValueNet, settings: TrainSettings) -> None:
        self.actor = actor
        self.critic = critic
        self.settings = settings
        self.opt_actor = make_optimizer(settings.optimizer)
        self.opt_critic = make_optimizer(settings.optimizer)
        self._obs: list[np.ndarray] = []
        self._raw: list[np.ndarray] = []
        self._costs: list[np.ndarray] = []

    def record(self, obs: np.ndarray, raw: np.ndarray, costs: np.ndarray) -> None:
        self._obs.append(obs)
        self._raw.append(raw)
        self._costs.append(np.asarray(costs, dtype=float))

    def update(
        self,
        boot_obs: Optional[np.ndarray],
        at_end: bool,
        episode: int,
        update_actor: bool = True,
    ) -> None:
        if not self._obs:
            return
        s = self.settings
        costs = np.stack(self._costs)
        n_workers = costs.shape[1]
        bootstrap = (
            np.zeros(n_workers) if at_end else self.critic.values(boot_obs)
        )
        returns = compute_cost_to_go(costs, bootstrap, s.gamma).reshape(-1)
        obs_flat = np.concatenate(self._obs, axis=0)
        raw_flat = np.concatenate(self._raw, axis=0)
        values = self.critic.values(obs_flat)
        adv = compute_advantage(returns, values)

        if update_actor:
            grad = self.actor.grad_weighted_log_prob(obs_flat, raw_flat, adv)
            if s.entropy_coef > 0:
                grad = grad - s.entropy_coef * obs_flat.shape[0] * self.actor.grad_entropy()
            grad = clip_global_norm(grad, s.grad_clip)
            if not np.isfinite(grad).all():
                raise TrainingDivergedError("non-finite policy gradient", episode)
            self.actor.set_flat(self.opt_actor.step(self.actor.get_flat(), grad, s.policy_lr))

        vgrad = self.critic.grad_weighted(obs_flat, 2.0 * (values - returns))
        vgrad = clip_global_norm(vgrad, s.grad_clip)
        if not np.isfinite(vgrad).all():
            raise TrainingDivergedError("non-finite value gradient", episode)
        self.critic.set_flat(self.opt_critic.step(self.critic.get_flat(), vgrad, s.value_lr))

        self._obs.clear()
        self._raw.clear()
        self._costs.clear()


# ---------------------------------------------------------------------------
# observation plumbing


# No caller since the environment steps every worker as one batch row;
# kept because perfbench/layers.py traces it by name.
def stack_observations(obs_list: list[Observation]) -> Observation:
    """Single observations as one batch: channel (N, m), plant (N, m, p)."""
    return Observation(
        channel=np.stack([o.channel for o in obs_list]),
        plant=np.stack([o.plant for o in obs_list]),
    )


# Called through policies.compose_action; kept here because perfbench/layers.py traces it by name.
controller_slice = policies.controller_slice


# ---------------------------------------------------------------------------
# training


def build_agents(
    env: WirelessControlEnv, settings: TrainSettings, rng: Optional[np.random.Generator]
) -> TrainedAgents:
    """The actors and critics settings train on env; rng=None gives zero weights."""
    m, p, q = env.m, env.state_dim, env.input_dim
    if settings.topology == "single":
        head = HeadSpec(
            n_plants=m,
            alloc=settings.alloc_head if settings.learn_alloc else None,
            alpha_total=settings.alpha_total,
            control_dim=q if settings.learn_control else 0,
            control_low=settings.control_low,
            control_high=settings.control_high,
        )
        actor = GaussianActor(env.obs_dim, head, settings.hidden, rng, settings.init_log_std)
        critic = ValueNet(env.obs_dim, settings.hidden, rng)
        return TrainedAgents(topology="single", actor=actor, critic=critic)

    agents = TrainedAgents(topology="separate")
    if settings.learn_alloc:
        head = HeadSpec(
            n_plants=m,
            alloc=settings.alloc_head,
            alpha_total=settings.alpha_total,
        )
        agents.actor = GaussianActor(env.obs_dim, head, settings.hidden, rng, settings.init_log_std)
        agents.critic = ValueNet(env.obs_dim, settings.hidden, rng)
    if settings.learn_control:
        rc_obs_dim = 1 + p + 1
        for _ in range(m):
            head = HeadSpec(
                n_plants=1,
                control_dim=q,
                control_low=settings.control_low,
                control_high=settings.control_high,
            )
            agents.rc_actors.append(
                GaussianActor(rc_obs_dim, head, settings.hidden, rng, settings.init_log_std)
            )
            agents.rc_critics.append(ValueNet(rc_obs_dim, settings.hidden, rng))
    return agents


def per_step_power(env: WirelessControlEnv, gamma: float) -> float:
    """Per-step share (1 - gamma) * budget of the constraint's power budget;
    the plant count stands in when the constraint sets no budget."""
    budget = env.constraint.power_budget if env.constraint is not None else None
    return (1.0 - gamma) * (env.m if budget is None else budget)


def pretrain_allocation(
    actor: GaussianActor,
    env: WirelessControlEnv,
    settings: TrainSettings,
    controller: policies.Controller,
    rng: np.random.Generator,
) -> None:
    """Warm-start the allocation head toward the state-norm heuristic.

    Rolls the system under that heuristic to gather observations, then
    fits the deterministic allocation output to the heuristic's choice
    by minibatch MSE steps.
    """
    m = env.m
    p_total = actor.head.alpha_total
    if p_total is None:
        p_total = per_step_power(env, settings.gamma)
    heuristic = policies.ActionSources(
        allocator=policies.make_allocator("control_aware", m, default_active_count(m), p_total),
        controller=controller,
    )

    pool_obs: list[np.ndarray] = []
    pool_target: list[np.ndarray] = []
    while len(pool_obs) < max(512, 4 * settings.pretrain_batch):
        state = env.reset(settings.horizon)
        for t in range(settings.horizon):
            obs = env.observe(state)
            action = policies.compose_action(heuristic, obs, t)
            pool_obs.append(obs.stacked())
            pool_target.append(action.alpha)
            state = env.step(state, JointAction(alpha=action.alpha, u=action.u)).next_state

    obs_mat = np.stack(pool_obs)
    target_mat = np.stack(pool_target)
    opt = make_optimizer(settings.optimizer)
    for _ in range(settings.pretrain_iters):
        idx = rng.integers(0, obs_mat.shape[0], size=settings.pretrain_batch)
        _, grad = actor.grad_alloc_mse(obs_mat[idx], target_mat[idx])
        actor.set_flat(opt.step(actor.get_flat(), grad, settings.pretrain_lr))


def train(
    env_factory: Callable[[np.random.Generator | list[np.random.Generator]], WirelessControlEnv],
    settings: TrainSettings,
    seed: int | np.random.SeedSequence,
    control_provider: Optional[policies.Controller] = None,
    alloc_provider: Optional[policies.Allocator] = None,
    progress: Optional[Callable[[EpisodeRow], None]] = None,
) -> TrainResult:
    """Run the full primal-dual training loop and return the trained agents.

    env_factory(rng) builds an environment around rng: training steps one
    around the list of worker generators, one batch row per worker, and
    pretraining one around worker 0's generator alone. When allocation
    (control) is not learned, alloc_provider (control_provider) supplies
    that half of the action for the whole worker batch; both default to
    zero actions when absent. seed may be a SeedSequence so callers can
    keep training streams separate from scenario or evaluation draws.
    """
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    worker_seqs = seq.spawn(settings.n_workers)
    init_rng = np.random.Generator(np.random.PCG64(seq.spawn(1)[0]))
    sample_rng = np.random.Generator(np.random.PCG64(seq.spawn(1)[0]))
    pretrain_rng = np.random.Generator(np.random.PCG64(seq.spawn(1)[0]))

    worker_rngs = [np.random.Generator(np.random.PCG64(s)) for s in worker_seqs]
    env = env_factory(worker_rngs)
    if abs(env.gamma - settings.gamma) > 1e-12:
        raise ValueError(
            f"environment discount {env.gamma} does not match settings {settings.gamma}"
        )
    m = env.m
    n_sig = env.n_signals
    n = settings.n_workers

    agents = build_agents(env, settings, init_rng)
    ap_agent = None if agents.actor is None else SegmentAgent(agents.actor, agents.critic, settings)
    rc_agents = [
        SegmentAgent(a, c, settings) for a, c in zip(agents.rc_actors, agents.rc_critics)
    ]
    seg_agents = ([ap_agent] if ap_agent is not None else []) + rc_agents

    controller = control_provider or policies.zero_controller(m, env.input_dim)
    if settings.pretrain_iters > 0 and settings.learn_alloc and agents.actor is not None:
        # worker 0's generator: its draws continue into training as before
        pretrain_env = env_factory(worker_rngs[0])
        pretrain_allocation(agents.actor, pretrain_env, settings, controller, pretrain_rng)

    split = settings.topology == "separate"
    allocator = alloc_provider or policies.zero_allocator(m)
    sources = policies.ActionSources(agents.actor, agents.rc_actors, allocator, controller, split)
    warm_sources = sources
    if settings.warm_episodes > 0:
        # the allocation actor sits out; equal power at the per-step share of the budget
        warm = policies.equal_allocator(m, per_step_power(env, settings.gamma))
        warm_sources = dataclasses.replace(sources, actor=None, allocator=warm)

    dual = DualState(multipliers=np.zeros(n_sig), step_size=settings.dual_lr)
    log: list[EpisodeRow] = []

    for episode in range(settings.episodes):
        episode_sources = warm_sources if episode < settings.warm_episodes else sources

        def segment_update(rows: np.ndarray, rc_inputs: list) -> None:
            if ap_agent is not None:
                ap_agent.update(rows, at_end=False, episode=episode)
            for ag, x in zip(rc_agents, rc_inputs):
                ag.update(x, at_end=False, episode=episode)

        state = env.reset(settings.horizon)
        obs = env.observe(state)
        disc = 1.0
        ep_pen = np.zeros(n)
        ep_sig = np.zeros((n, n_sig))

        for t in range(settings.horizon):
            update = segment_update if t > 0 and t % settings.seg_len == 0 else None
            action = policies.compose_action(episode_sources, obs, t, sample_rng, update)
            res = env.step(state, JointAction(alpha=action.alpha, u=action.u))
            state = res.next_state
            if not np.isfinite(state.x).all():
                worker = int(np.argmin(np.isfinite(state.x).reshape(n, -1).all(axis=1)))
                raise TrainingDivergedError(
                    f"non-finite plant state at episode {episode}, step {t}, worker {worker}",
                    episode,
                )

            pen_costs = res.stage_cost + res.signals @ dual.multipliers
            ep_pen += disc * pen_costs
            ep_sig += disc * res.signals
            disc *= settings.gamma

            if ap_agent is not None and action.raw is not None:
                ap_agent.record(action.rows, action.raw, pen_costs)
            for i, ag in enumerate(rc_agents):
                ag.record(action.rc_inputs[i], action.rc_raw[i], res.per_plant_costs[:, i])

            if t < settings.horizon - 1:
                obs = env.observe(state)
        for ag in seg_agents:
            ag.update(None, at_end=True, episode=episode)

        violation = ep_sig.mean(axis=0)
        if n_sig > 0:
            dual.update(violation)
        lagrangian = float(ep_pen.mean())
        row = EpisodeRow(
            episode=episode,
            lagrangian=lagrangian,
            violations=violation,
            multipliers=dual.multipliers.copy(),
        )
        log.append(row)
        if progress is not None:
            progress(row)
        if not np.isfinite(lagrangian) or abs(lagrangian) > settings.lagrangian_ceiling:
            raise TrainingDivergedError(
                f"Lagrangian estimate {lagrangian:.3e} exceeded ceiling "
                f"{settings.lagrangian_ceiling:.3e} at episode {episode}",
                episode,
            )

    return TrainResult(agents=agents, dual=dual, log=log)
