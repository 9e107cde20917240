"""Constrained advantage actor-critic over the lossy-link control system.

The primal-dual scheme: N synchronous workers roll the system under
the current stochastic policy, parameters update every train.segment steps
from pooled worker segments (policy step on advantage-weighted
log-probabilities, value step on squared cost-to-go error), and the
constraint multipliers take a projected ascent step at each episode
end using the discounted constraint-signal sums.

Every setting is read from the resolved ExperimentConfig: its train.*
keys drive the loop and the updates, and its alloc.* keys, with the
plants' actuator interval, shape the actor heads.

What each approach learns is said once, in APPROACHES: whether an
allocation actor is learned, and where control comes from. What it
trains and is evaluated under is said here too, in fixed_halves: equal
power where allocation is not learned (training then forces delivery)
and the given controller where control is fixed. A joint actor
maps the full noisy observation to allocations and/or control inputs.
With per-plant control, an access-point actor (when allocation is
learned) maps the full observation to allocations, and the per-plant
controller actors map each plant's slice [channel_i, state_i, alpha_i]
to its control input. Those m small actors, and their m critics, are the
members of one member-stacked network each (see neuralnet), so all
plants draw, record and update in one call per step; each member still
learns from its own plant's cost alone, and only the access-point agent
sees the constraint penalty.

The N workers are the N rows of one batched environment: each episode
resets it on the N worker generators, and is one pass of
WirelessControlEnv.episode, the loop pretraining and evaluation step
through too. Each step, one call to
policies.compose_action forms the actions of all workers, with the
halves the agents do not learn from one call to fixed_halves' allocator
or controller. The pending segment update runs inside that call: after the
allocation draw when per-plant actors exist, before the joint actor's.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from wcsrl import policies
from wcsrl.baselines import control_aware  # noqa: F401  traced by name in perfbench/layers.py
from wcsrl.dynamics import control_bounds
from wcsrl.environment import Observation, WirelessControlEnv
from wcsrl.neuralnet import MLP, GaussianActor, HeadSpec, clip_global_norm, make_optimizer

if TYPE_CHECKING:  # config imports this module
    from wcsrl.config import ExperimentConfig


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

    costs has shape (L,), (L, N) or (L, m, N) (one row per stacked
    member); bootstrap is the tail value estimate (zero at an episode
    boundary) with matching trailing shape.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim not in (1, 2, 3) or costs.shape[0] == 0:
        raise ValueError(
            f"costs must be (L,), (L, N) or (L, m, N) with L >= 1, got {costs.shape}"
        )
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


@dataclass
class DualState:
    """Multipliers and their dual-ascent step size."""

    multipliers: np.ndarray
    step_size: float

    def update(self, violation: np.ndarray) -> None:
        self.multipliers = dual_update(self.multipliers, violation, self.step_size)


# ---------------------------------------------------------------------------
# approaches and results


class Approach(NamedTuple):
    """What an approach trains: an allocation actor or not, and its control
    source: "fixed" (a given controller), "joint" (the joint actor's control
    head) or "per_plant" (the per-plant controller actors)."""

    learn_alloc: bool
    control: str

    @property
    def warms_up(self) -> bool:
        """Its allocation actor can sit out warm episodes under equal power."""
        return self.learn_alloc and self.control == "per_plant"


APPROACHES: dict[str, Approach] = {
    # allocation learned over model-based (Riccati) control
    "alloc_lqr": Approach(learn_alloc=True, control="fixed"),
    # access-point allocation actor co-designed with per-plant controllers
    "codesign": Approach(learn_alloc=True, control="per_plant"),
    # one actor learns allocation and control together
    "codesign_joint": Approach(learn_alloc=True, control="joint"),
    # per-plant controllers under fixed equal power and guaranteed delivery
    "control_only": Approach(learn_alloc=False, control="per_plant"),
}


def fixed_halves(
    approach: str, cfg: ExperimentConfig, controller: Optional[policies.Controller]
) -> tuple[Optional[policies.Allocator], Optional[policies.Controller]]:
    """(allocator, controller) for the action halves approach does not learn,
    None for those it learns: cfg's equal heuristic where allocation is not
    learned, and controller where control is fixed. train and evaluation
    both take them from here."""
    spec = APPROACHES[approach]
    allocator = None if spec.learn_alloc else policies.heuristic_allocator("equal", cfg)
    return allocator, controller if spec.control == "fixed" else None


@dataclass
class EpisodeRow:
    episode: int
    lagrangian: float
    violations: np.ndarray
    multipliers: np.ndarray


@dataclass
class TrainedAgents:
    """Trained actors and critics (one-output MLPs); unused slots stay None.
    actor/critic is the joint or access-point pair; rc_actor and rc_critic
    stack the per-plant pairs, member i for plant i."""

    actor: Optional[GaussianActor] = None
    critic: Optional[MLP] = None
    rc_actor: Optional[GaussianActor] = None
    rc_critic: Optional[MLP] = None


@dataclass
class TrainResult:
    agents: TrainedAgents
    dual: DualState
    log: list


# ---------------------------------------------------------------------------
# one actor-critic pair with segment buffers


class SegmentAgent:
    """Actor-critic pair collecting (obs, raw action, cost) per step for
    one worker batch, updated at segment boundaries by pooled summation.

    A stacked pair records members + (N, ...) per step (costs (m, N)) and
    updates every member on its own rows in one pass."""

    def __init__(self, actor: GaussianActor, critic: MLP, cfg: ExperimentConfig) -> None:
        self.actor = actor
        self.critic = critic
        self.cfg = cfg
        self.opt_actor = make_optimizer(cfg.train_optimizer)
        self.opt_critic = make_optimizer(cfg.train_optimizer)
        self._obs: list[np.ndarray] = []
        self._raw: list[np.ndarray] = []
        self._costs: list[np.ndarray] = []

    def record(self, obs: np.ndarray, raw: np.ndarray, costs: np.ndarray) -> None:
        self._obs.append(obs)
        self._raw.append(raw)
        self._costs.append(np.asarray(costs, dtype=float))

    def update(self, boot_obs: Optional[np.ndarray], at_end: bool, episode: int) -> None:
        if not self._obs:
            return
        cfg = self.cfg
        costs = np.stack(self._costs)
        if at_end:
            bootstrap = np.zeros(costs.shape[1:])
        else:
            bootstrap = self.critic.forward(boot_obs)[0][..., 0]
        returns = compute_cost_to_go(costs, bootstrap, cfg.train_gamma)
        # (L, ..., N) -> (..., L * N), step-major like the pooled rows
        returns = returns.swapaxes(0, -2).reshape(costs.shape[1:-1] + (-1,))
        obs_flat = np.concatenate(self._obs, axis=-2)
        raw_flat = np.concatenate(self._raw, axis=-2)
        values, critic_cache = self.critic.forward(obs_flat)
        values = values[..., 0]
        adv = compute_advantage(returns, values)

        grad = self.actor.grad_weighted_log_prob(obs_flat, raw_flat, adv)
        if cfg.train_entropy_coef > 0:
            grad = grad - cfg.train_entropy_coef * obs_flat.shape[-2] * self.actor.grad_entropy()
        grad = clip_global_norm(grad, cfg.train_grad_clip)
        if not np.isfinite(grad).all():
            raise TrainingDivergedError("non-finite policy gradient", episode)
        self.opt_actor.step(self.actor.params, grad, cfg.train_policy_lr)

        # the critic is unchanged since the forward pass above
        vgrad = self.critic.backward(critic_cache, (2.0 * (values - returns))[..., None])
        vgrad = clip_global_norm(vgrad, cfg.train_grad_clip)
        if not np.isfinite(vgrad).all():
            raise TrainingDivergedError("non-finite value gradient", episode)
        self.opt_critic.step(self.critic.params, vgrad, cfg.train_value_lr)

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
    env: WirelessControlEnv,
    cfg: ExperimentConfig,
    approach: str,
    rng: Optional[np.random.Generator],
) -> TrainedAgents:
    """The actors and critics approach trains on env, shaped by cfg's
    train.hidden, train.init_std and alloc.* keys and the plants' actuator
    interval; rng=None gives zero weights."""
    m, p, q = env.m, env.state_dim, env.input_dim
    spec = APPROACHES[approach]
    low, high = control_bounds(env.plants[0].kind)
    hidden = tuple(cfg.train_hidden)
    log_std = float(np.log(cfg.train_init_std))
    agents = TrainedAgents()
    if spec.learn_alloc or spec.control == "joint":
        # a joint actor keeps the control bounds even without a control
        # output; the access-point actor beside per-plant ones keeps none
        bounds = spec.control != "per_plant"
        head = HeadSpec(
            n_plants=m,
            alloc=cfg.alloc_head if spec.learn_alloc else None,
            alpha_total=cfg.alloc_total if cfg.alloc_head == "simplex" else None,
            control_dim=q if spec.control == "joint" else 0,
            control_low=low if bounds else None,
            control_high=high if bounds else None,
        )
        agents.actor = GaussianActor(env.obs_dim, head, hidden, rng, log_std)
        agents.critic = MLP((env.obs_dim, *hidden, 1), rng)
    if spec.control == "per_plant":
        rc_obs_dim = 1 + p + 1
        head = HeadSpec(n_plants=1, control_dim=q, control_low=low, control_high=high)
        # drawn plant by plant (actor, then critic) and stacked afterwards
        actors, critics = [], []
        for _ in range(m):
            actors.append(GaussianActor(rc_obs_dim, head, hidden, rng, log_std))
            critics.append(MLP((rc_obs_dim, *hidden, 1), rng))
        agents.rc_actor = GaussianActor.stack(actors)
        agents.rc_critic = MLP.stack(critics)
    return agents


def pretrain_allocation(
    actor: GaussianActor,
    env: WirelessControlEnv,
    env_rng: np.random.Generator,
    cfg: ExperimentConfig,
    controller: policies.Controller,
    rng: np.random.Generator,
) -> None:
    """Warm-start the allocation head toward the state-norm heuristic
    (policies.heuristic_allocator's control_aware, at the baselines' power).

    Rolls the fewest whole episodes E that give at least max(512, 4 *
    train.pretrain_batch) observations under that heuristic, as E rows of
    env reset on env_rng (row after row, each continuing its stream), and
    fits the deterministic allocation output to its choices by minibatch
    MSE steps (train.pretrain_iters, train.pretrain_lr) drawn from rng.
    """
    heuristic = policies.ActionSources(
        allocator=policies.heuristic_allocator("control_aware", cfg), controller=controller
    )
    episodes = -(-max(512, 4 * cfg.train_pretrain_batch) // cfg.train_horizon)
    act = lambda obs, t: policies.compose_action(heuristic, obs, t)
    loop = env.episode(env.reset(cfg.train_horizon, [env_rng] * episodes), act)
    obs_steps, target_steps = zip(*((obs.stacked(), action.alpha) for _, obs, action, *_ in loop))
    # (H, E, ...) -> episode-major rows
    obs_mat = np.stack(obs_steps, axis=1).reshape(-1, env.obs_dim)
    target_mat = np.stack(target_steps, axis=1).reshape(-1, env.m)
    opt = make_optimizer(cfg.train_optimizer)
    for _ in range(cfg.train_pretrain_iters):
        idx = rng.integers(0, obs_mat.shape[0], size=cfg.train_pretrain_batch)
        _, grad = actor.grad_alloc_mse(obs_mat[idx], target_mat[idx])
        opt.step(actor.params, grad, cfg.train_pretrain_lr)


def train(
    env: WirelessControlEnv,
    cfg: ExperimentConfig,
    approach: str,
    seed: int | np.random.SeedSequence,
    controller: Optional[policies.Controller] = None,
    progress: Optional[Callable[[EpisodeRow], None]] = None,
) -> TrainResult:
    """Train approach (a key of APPROACHES) with the primal-dual loop under
    cfg's train.* and alloc.* keys and return the trained agents.

    Each episode resets env on the worker generators, one row per worker,
    with forced delivery where allocation is not learned; pretraining
    resets it on rows that all hold worker 0's generator. fixed_halves
    supplies the halves of the action the approach does not learn for the
    whole worker batch: equal power, or controller where control is fixed;
    with fixed control and no controller the first step fails with
    compose_action's "no fixed source" error. Pretraining runs only beside
    fixed control, and warm episodes only where the approach warms up;
    elsewhere those keys are ignored. seed may be a SeedSequence so callers
    can keep training streams separate from scenario or evaluation draws.
    """
    if approach not in APPROACHES:
        raise ValueError(f"unknown approach {approach!r}")
    spec = APPROACHES[approach]
    warm_episodes = cfg.train_warm_episodes if spec.warms_up else 0
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    worker_seqs = seq.spawn(cfg.train_workers)
    init_rng = np.random.Generator(np.random.PCG64(seq.spawn(1)[0]))
    sample_rng = np.random.Generator(np.random.PCG64(seq.spawn(1)[0]))
    pretrain_rng = np.random.Generator(np.random.PCG64(seq.spawn(1)[0]))

    worker_rngs = [np.random.Generator(np.random.PCG64(s)) for s in worker_seqs]
    if abs(env.gamma - cfg.train_gamma) > 1e-12:
        raise ValueError(
            f"environment discount {env.gamma} does not match train.gamma {cfg.train_gamma}"
        )
    # the fixed heuristic allocators are sized from plants.count
    if env.m != cfg.plants_count:
        raise ValueError(f"environment has {env.m} plants, plants.count is {cfg.plants_count}")
    n_sig = env.n_signals
    n = cfg.train_workers

    agents = build_agents(env, cfg, approach, init_rng)
    ap_agent = None if agents.actor is None else SegmentAgent(agents.actor, agents.critic, cfg)
    rc_agent = None
    if agents.rc_actor is not None:
        rc_agent = SegmentAgent(agents.rc_actor, agents.rc_critic, cfg)
    seg_agents = [ag for ag in (ap_agent, rc_agent) if ag is not None]

    if cfg.train_pretrain_iters > 0 and spec.control == "fixed":
        # rows drawn in turn from worker 0's generator, which training continues
        pretrain_allocation(agents.actor, env, worker_rngs[0], cfg, controller, pretrain_rng)

    sources = policies.ActionSources(
        agents.actor, agents.rc_actor, *fixed_halves(approach, cfg, controller)
    )
    warm_sources = sources
    if warm_episodes > 0:
        # the allocation actor sits out under the equal baseline's power
        warm = policies.heuristic_allocator("equal", cfg)
        warm_sources = dataclasses.replace(sources, actor=None, allocator=warm)

    dual = DualState(multipliers=np.zeros(n_sig), step_size=cfg.train_dual_lr)
    log: list[EpisodeRow] = []

    for episode in range(cfg.train_episodes):
        episode_sources = warm_sources if episode < warm_episodes else sources

        def segment_update(rows: np.ndarray, rc_inputs: Optional[np.ndarray]) -> None:
            if ap_agent is not None:
                ap_agent.update(rows, at_end=False, episode=episode)
            if rc_agent is not None:
                rc_agent.update(rc_inputs, at_end=False, episode=episode)

        def act(obs: Observation, t: int) -> policies.ComposedAction:
            update = segment_update if t > 0 and t % cfg.train_segment == 0 else None
            return policies.compose_action(episode_sources, obs, t, sample_rng, update)

        ep_pen = np.zeros(n)
        ep_sig = np.zeros((n, n_sig))
        state = env.reset(cfg.train_horizon, worker_rngs, force_delivery=not spec.learn_alloc)
        x = state.x  # the pre-step state each step is charged on
        for t, _, action, res, disc in env.episode(state, act):
            per_plant, stage, signals = env.charge(x, res.realized_u, action.alpha)
            x = res.next_state.x
            if not np.isfinite(x).all():
                worker = int(np.argmin(np.isfinite(x).reshape(n, -1).all(axis=1)))
                raise TrainingDivergedError(
                    f"non-finite plant state at episode {episode}, step {t}, worker {worker}",
                    episode,
                )

            pen_costs = stage + signals @ dual.multipliers
            ep_pen += disc * pen_costs
            ep_sig += disc * signals

            if ap_agent is not None and action.raw is not None:
                ap_agent.record(action.rows, action.raw, pen_costs)
            if rc_agent is not None:
                rc_agent.record(action.rc_inputs, action.rc_raw, per_plant.T)
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
        if not np.isfinite(lagrangian) or abs(lagrangian) > cfg.train_ceiling:
            raise TrainingDivergedError(
                f"Lagrangian estimate {lagrangian:.3e} exceeded ceiling "
                f"{cfg.train_ceiling:.3e} at episode {episode}",
                episode,
            )

    return TrainResult(agents=agents, dual=dual, log=log)
