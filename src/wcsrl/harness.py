"""Experiment orchestration: scenario assembly, training per approach,
paired-seed evaluation against baselines, and artifact writing.

Training and evaluation read every setting from the resolved config
(ScenarioBundle.cfg). A scenario builds its one environment and its one
Riccati controller once (build_scenario), and training, pretraining and
evaluation of every approach and baseline share them; the approach name
picks what is learned, and learner.fixed_halves gives the rest.

Randomness is split into three independent streams derived from the
experiment seed: [seed, 0] draws the scenario (placements, plant
parameters), [seed, 1, k] drives training of the k-th approach, and
[seed, 2] drives evaluation; each episode hands its generators to the
reset of the scenario's environment (ScenarioBundle.env). Evaluation
pairs policies by data: each (test, realization) cell draws one noise
tape, and every policy's episode in that cell replays it, so comparisons
see identical noise.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from wcsrl import baselines, config as config_mod, learner, neuralnet, policies
from wcsrl.config import ExperimentConfig, cost_matrix
from wcsrl.dynamics import (
    MIXED_DRIFT,
    CostWeights,
    PlantModel,
    cartpole_linearization,
    control_bounds,
    make_fixed_ensemble,
    unstable_drift,
)
from wcsrl.environment import ConstraintSpec, SystemState, WirelessControlEnv
from wcsrl.learner import TrainResult, TrainedAgents
from wcsrl.wireless import ChannelModel, place_plants

DIVERGENCE_LIMIT = 1e12
# Cost recorded for a rollout that left the representable region.
DIVERGENCE_COST = 1e12


# ---------------------------------------------------------------------------
# scenario assembly


@dataclass
class ScenarioBundle:
    """Everything derived from a config plus the scenario random stream:
    the scenario's one environment, whose episodes' generators go to its
    reset(), and its one Riccati controller (per-plant gains lqr_gains),
    clipped to the plants' actuator interval."""

    cfg: ExperimentConfig
    positions: np.ndarray
    distances: np.ndarray
    env: WirelessControlEnv
    controller: policies.Controller
    lqr_gains: list
    a_values: Optional[np.ndarray]


def _build_plants(
    cfg: ExperimentConfig, rng: np.random.Generator
) -> tuple[list, Optional[np.ndarray]]:
    m = cfg.plants_count
    noise = cfg.plants_process_noise
    if cfg.plants_family == "cartpole":
        return [PlantModel(kind="cartpole", process_noise=noise) for _ in range(m)], None
    if cfg.plants_family == "fixed_mixed":
        return make_fixed_ensemble(m, MIXED_DRIFT, process_noise=noise), None
    if cfg.plants_a_values is not None:
        a_values = np.asarray(cfg.plants_a_values, dtype=float)
    else:
        a_values = rng.uniform(cfg.plants_a_low, cfg.plants_a_high, size=m)
    plants = [
        PlantModel(kind="linear", a_mat=unstable_drift(a), b_mat=np.eye(3), process_noise=noise)
        for a in a_values
    ]
    return plants, a_values


def _obs_noise_vector(cfg: ExperimentConfig, m: int, state_dim: int) -> np.ndarray:
    chan_var = cfg.obs_noise if cfg.obs_noise_channel is None else cfg.obs_noise_channel
    plant_var = cfg.obs_noise if cfg.obs_noise_plant is None else cfg.obs_noise_plant
    return np.concatenate([np.full(m, chan_var), np.full(m * state_dim, plant_var)])


def _constraint_from(cfg: ExperimentConfig) -> Optional[ConstraintSpec]:
    if cfg.constraint_kind == "region":
        return ConstraintSpec(
            kind="region",
            region_half_width=cfg.constraint_region_half_width,
            region_budget=cfg.constraint_region_budget,
        )
    if cfg.constraint_kind == "sum_power":
        return ConstraintSpec(kind="sum_power", power_budget=cfg.constraint_power_budget)
    return None


def build_scenario(cfg: ExperimentConfig) -> ScenarioBundle:
    """Draw the scenario (placements, plant parameters) from stream [seed, 0]
    and assemble every fixed piece of the experiment."""
    seq = np.random.SeedSequence([cfg.seed, 0])
    place_seq, plant_seq = seq.spawn(2)
    place_rng = np.random.Generator(np.random.PCG64(place_seq))
    plant_rng = np.random.Generator(np.random.PCG64(plant_seq))

    m = cfg.plants_count
    if cfg.channel_positions is not None:
        positions = np.asarray(cfg.channel_positions, dtype=float).reshape(m, 2)
        distances = np.maximum(
            np.linalg.norm(positions, axis=1), cfg.channel_min_distance
        )
    else:
        positions, distances = place_plants(
            m, cfg.channel_area_half_width, place_rng, cfg.channel_min_distance
        )

    plants, a_values = _build_plants(cfg, plant_rng)
    channel = ChannelModel(
        distances=distances,
        path_loss_exponent=cfg.channel_path_loss,
        rayleigh_scale=cfg.channel_fading_scale,
    )
    state_dim = plants[0].state_dim
    input_dim = plants[0].input_dim
    weights = CostWeights(
        q=cost_matrix(cfg.cost_q, state_dim), r=cost_matrix(cfg.cost_r, input_dim)
    )

    if cfg.plants_family == "cartpole":
        a_lin, b_lin = cartpole_linearization()
        gain = baselines.lqr_gain(a_lin, b_lin, weights.q, weights.r)
        gains = [gain for _ in range(m)]
    else:
        gains = [baselines.lqr_gain(p.a_mat, p.b_mat, weights.q, weights.r) for p in plants]

    env = WirelessControlEnv(
        plants=plants,
        channel=channel,
        weights=weights,
        gamma=cfg.train_gamma,
        constraint=_constraint_from(cfg),
        obs_noise_cov=_obs_noise_vector(cfg, m, state_dim),
        init_kind=cfg.plants_init,
        init_scale=cfg.plants_init_scale,
    )
    low, high = control_bounds(plants[0].kind)
    return ScenarioBundle(
        cfg=cfg,
        positions=positions,
        distances=distances,
        env=env,
        controller=policies.riccati_controller(gains, low, high),
        lqr_gains=gains,
        a_values=a_values,
    )


# ---------------------------------------------------------------------------
# per-approach training setup


def train_approach(
    bundle: ScenarioBundle,
    approach: str,
    approach_index: int,
    progress: Optional[Callable[[learner.EpisodeRow], None]] = None,
) -> TrainResult:
    """Train approach on the scenario's environment beside its Riccati
    controller, on stream [seed, 1, approach_index] from bundle.cfg."""
    seq = np.random.SeedSequence([bundle.cfg.seed, 1, approach_index])
    return learner.train(bundle.env, bundle.cfg, approach, seq, bundle.controller, progress)


def eval_policy_for(
    bundle: ScenarioBundle, approach: str, agents: TrainedAgents, stochastic: bool = False
) -> policies.AgentPolicy:
    """Wrap trained agents with the fixed action halves they trained with."""
    allocator, controller = learner.fixed_halves(approach, bundle.cfg, bundle.controller)
    return policies.AgentPolicy(agents, allocator, controller, stochastic)


def baseline_policies(bundle: ScenarioBundle) -> dict[str, policies.HeuristicPolicy]:
    return {
        name: policies.HeuristicPolicy(
            policies.heuristic_allocator(name, bundle.cfg), bundle.controller
        )
        for name in bundle.cfg.eval_baselines
    }


def evaluation_policies(bundle: ScenarioBundle, trained: dict[str, TrainedAgents]) -> dict:
    """The evaluated policies by label, in evaluation.csv's row order: each
    trained approach's eval_policy_for, then the baselines."""
    by_label: dict[str, object] = {
        approach: eval_policy_for(bundle, approach, agents, bundle.cfg.eval_stochastic)
        for approach, agents in trained.items()
    }
    by_label.update(baseline_policies(bundle))
    return by_label


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class RolloutStats:
    cost: float
    signals: np.ndarray
    max_norm: float
    diverged: bool


def rollout(
    env: WirelessControlEnv,
    start: SystemState,
    policy,
    policy_rng: np.random.Generator,
) -> RolloutStats:
    """One evaluation episode, env.episode from start over its whole noise
    tape: discounted cost and constraint sums, the largest joint state norm
    seen, and whether the state left the representable region (cost then
    saturates at DIVERGENCE_COST). start is a single row. When the
    policy's allocation ignores the plant state (policies.
    episode_allocations), the allocations of every step and the episode's
    delivery lottery (env.lottery) are computed once, before the first
    step, and each step's action carries its row; a bad allocation at any
    step then fails before the first. Otherwise each step rolls its own
    one-step lottery inside env.step. Each step's pre-step state, realized
    input, allocation and discount are kept, and after the last step run
    (the diverging one included) env.charge prices them all at once; the
    sums add the discounted terms in step order from zero, as a per-step
    loop adds them."""
    t0 = start.t
    steps = start.tape.horizon - t0
    xs = np.empty((steps + 1,) + start.x.shape)
    realized = np.empty((steps, env.m, env.input_dim))
    alphas = np.empty((steps, env.m))
    discs = np.empty(steps)
    fixed = policies.episode_allocations(policy, start.tape.channel[t0:], t0)
    delivered = None if fixed is None else env.lottery(start, fixed)
    act = lambda obs, t: policy.act(obs, t, policy_rng, None if fixed is None else fixed[t - t0])
    xs[0] = start.x
    max_norm = _norm(start.x)
    ran, diverged = 0, False
    for _, _, action, res, disc in env.episode(start, act, delivered):
        alphas[ran] = action.alpha
        realized[ran] = res.realized_u
        discs[ran] = disc
        ran += 1
        xs[ran] = res.next_state.x
        norm = _norm(res.next_state.x)
        if not math.isfinite(norm):
            norm = math.inf
        max_norm = max(max_norm, norm)
        if norm > DIVERGENCE_LIMIT:
            diverged = True
            break
    _, stage, signals = env.charge(xs[:ran], realized[:ran], alphas[:ran])
    cost = float(_sum_from_zero(discs[:ran] * stage))
    signals = _sum_from_zero(discs[:ran, None] * signals)
    if diverged or not math.isfinite(cost):
        return RolloutStats(DIVERGENCE_COST, signals, max_norm, True)
    return RolloutStats(cost, signals, max_norm, False)


def _sum_from_zero(terms: np.ndarray) -> np.ndarray:
    """The sum over the leading axis, added term by term from zero, bit for
    bit `total = 0.0; for term in terms: total += term` (np.sum adds
    pairwise, and would round differently)."""
    padded = np.zeros((len(terms) + 1,) + terms.shape[1:])
    padded[1:] = terms
    return np.add.accumulate(padded, axis=0)[-1]


def _norm(x: np.ndarray) -> float:
    """float(np.linalg.norm(x)): the square root of the flat dot product,
    which is how numpy computes the 2-norm over all axes."""
    flat = x.ravel(order="K")
    return math.sqrt(flat.dot(flat))


@dataclass
class EvalReport:
    costs: dict
    signals: dict
    max_norms: dict
    diverged: dict

    def test_means(self, policy: str) -> np.ndarray:
        """Mean cost per test group, shape (n_tests,)."""
        return self.costs[policy].mean(axis=1)

    def overall_mean(self, policy: str) -> float:
        return float(self.costs[policy].mean())

    def mean_signals(self, policy: str) -> np.ndarray:
        sig = self.signals[policy]
        if sig.size == 0:
            return np.zeros(0)
        return sig.mean(axis=(0, 1))


def evaluate(bundle: ScenarioBundle, eval_policies: dict) -> EvalReport:
    """Monte Carlo comparison of policies on shared noise: eval.tests tests
    of eval.group realizations, each eval.horizon steps, from stream
    [seed, 2] of bundle.cfg.

    Each (test, realization) cell owns a pair of generator seeds: one
    draws the cell's initial state and noise tape, once, and the other
    restarts policy sampling for each policy. Every policy's episode in the
    cell replays that tape, so all of them see the same initial states,
    fading, delivery lottery and observation noise. Realizations within a
    test start from fresh initial states. Cells go one at a time, each a
    reset of the scenario's environment, so only one tape is held.
    """
    cfg = bundle.cfg
    n_tests, group, horizon = cfg.eval_tests, cfg.eval_group, cfg.eval_horizon
    cells = []
    for test_seq in np.random.SeedSequence([cfg.seed, 2]).spawn(n_tests):
        cells.append([real_seq.spawn(2) for real_seq in test_seq.spawn(group)])

    env = bundle.env
    shape = (n_tests, group)
    costs = {label: np.zeros(shape) for label in eval_policies}
    signals = {label: np.zeros(shape + (env.n_signals,)) for label in eval_policies}
    max_norms = {label: np.zeros(shape) for label in eval_policies}
    diverged = {label: np.zeros(shape, dtype=bool) for label in eval_policies}
    for j in range(n_tests):
        for k in range(group):
            env_seq, pol_seq = cells[j][k]
            start = env.reset(horizon, np.random.Generator(np.random.PCG64(env_seq)))
            for label, policy in eval_policies.items():
                pol_rng = np.random.Generator(np.random.PCG64(pol_seq))
                stats = rollout(env, start, policy, pol_rng)
                costs[label][j, k] = stats.cost
                signals[label][j, k] = stats.signals
                max_norms[label][j, k] = stats.max_norm
                diverged[label][j, k] = stats.diverged

    return EvalReport(
        costs=costs,
        signals=signals,
        max_norms=max_norms,
        diverged=diverged,
    )


# ---------------------------------------------------------------------------
# artifacts


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_training_log(path: str, cfg: ExperimentConfig, log: list) -> None:
    n_sig = len(log[0].violations) if log else 0
    header = ["episode", "lagrangian"]
    header += [f"violation_{i}" for i in range(n_sig)]
    header += [f"multiplier_{i}" for i in range(n_sig)]
    lines = [
        f"# seed = {cfg.seed}, config_hash = {config_mod.config_hash(cfg)}",
        ",".join(header),
    ]
    for row in log:
        cells = [str(row.episode), _fmt(row.lagrangian)]
        cells += [_fmt(v) for v in row.violations]
        cells += [_fmt(v) for v in row.multipliers]
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_eval_csv(path: str, cfg: ExperimentConfig, report: EvalReport) -> None:
    """One row per (policy, test): cost statistics over the test's
    realizations, each constraint signal's mean, and the diverged count."""
    n_sig = max((sig.shape[-1] for sig in report.signals.values()), default=0)
    header = ["policy", "test", "cost_mean", "cost_std", "cost_min", "cost_max"]
    header += [f"signal_{i}_mean" for i in range(n_sig)]
    header += ["n_diverged"]
    lines = [
        f"# seed = {cfg.seed}, config_hash = {config_mod.config_hash(cfg)}",
        ",".join(header),
    ]
    for label, costs in report.costs.items():
        for j, cost in enumerate(costs):
            cells = [label, str(j)]
            cells += [_fmt(v) for v in (cost.mean(), cost.std(), cost.min(), cost.max())]
            cells += [_fmt(v) for v in report.signals[label][j].mean(axis=0)]
            cells.append(str(int(report.diverged[label][j].sum())))
            lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _checkpoint_files(agents: TrainedAgents) -> list[tuple[str, str, object, object]]:
    """(actor file, critic file, actor, critic) for every trained pair; the
    full-observation pair is the access point's beside per-plant actors."""
    if agents.rc_actor is None:
        return [("actor.npz", "critic.npz", agents.actor, agents.critic)]
    pairs = []
    if agents.actor is not None:
        pairs.append(("ap_actor.npz", "ap_critic.npz", agents.actor, agents.critic))
    for i in range(agents.rc_actor.net.members[0]):
        actor, critic = agents.rc_actor.member(i), agents.rc_critic.member(i)
        pairs.append((f"rc_actor_{i}.npz", f"rc_critic_{i}.npz", actor, critic))
    return pairs


def save_agents(dir_path: str, agents: TrainedAgents) -> None:
    os.makedirs(dir_path, exist_ok=True)
    for actor_file, critic_file, actor, critic in _checkpoint_files(agents):
        neuralnet.save_actor(os.path.join(dir_path, actor_file), actor)
        neuralnet.save_critic(os.path.join(dir_path, critic_file), critic)


def load_agents(dir_path: str, agents: TrainedAgents) -> TrainedAgents:
    """Fill agents' networks from exactly the checkpoint files save_agents
    writes for them, each checked against the network it fills (a stacked
    member through its member(i) view), and return agents."""
    files = _checkpoint_files(agents)
    want = sorted(name for entry in files for name in entry[:2])
    have = sorted(name for name in os.listdir(dir_path) if name.endswith(".npz"))
    if have != want:
        raise ValueError(f"{dir_path} holds checkpoints {have}, the config trains {want}")
    for actor_file, critic_file, actor, critic in files:
        neuralnet.load_actor(os.path.join(dir_path, actor_file), actor)
        neuralnet.load_critic(os.path.join(dir_path, critic_file), critic)
    return agents


# ---------------------------------------------------------------------------
# full run


@dataclass
class RunResult:
    cfg: ExperimentConfig
    bundle: ScenarioBundle
    trained: dict
    report: EvalReport
    out_dir: str
    wall_times: dict = field(default_factory=dict)


def run_experiment(
    cfg: ExperimentConfig,
    progress: Optional[Callable[[str, learner.EpisodeRow], None]] = None,
) -> RunResult:
    """Train every configured approach, evaluate against the baselines,
    and write config, logs, checkpoints, evaluation table, and manifest
    under cfg.out_dir."""
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    bundle = build_scenario(cfg)

    with open(os.path.join(out, "config.txt"), "w") as fh:
        fh.write("\n".join(config_mod.config_lines(cfg)) + "\n")

    extras: dict[str, object] = {
        "scenario.distances": [float(d) for d in bundle.distances],
        "scenario.positions": [float(v) for v in bundle.positions.ravel()],
    }
    if bundle.a_values is not None:
        extras["scenario.a_values"] = [float(a) for a in bundle.a_values]

    trained: dict[str, TrainedAgents] = {}
    wall: dict[str, float] = {}
    for k, approach in enumerate(cfg.train_approaches):
        cb = None if progress is None else (lambda row, _a=approach: progress(_a, row))
        t0 = time.perf_counter()
        result = train_approach(bundle, approach, k, cb)
        wall[approach] = time.perf_counter() - t0
        trained[approach] = result.agents
        write_training_log(
            os.path.join(out, f"training_log_{approach}.csv"), cfg, result.log
        )
        save_agents(os.path.join(out, "checkpoints", approach), result.agents)
        extras[f"train.{approach}.wall_seconds"] = wall[approach]
        extras[f"train.{approach}.multipliers"] = [
            float(v) for v in result.dual.multipliers
        ]

    eval_policies = evaluation_policies(bundle, trained)
    t0 = time.perf_counter()
    report = evaluate(bundle, eval_policies)
    wall["evaluate"] = time.perf_counter() - t0
    extras["eval.wall_seconds"] = wall["evaluate"]
    write_eval_csv(os.path.join(out, "evaluation.csv"), cfg, report)
    config_mod.write_manifest(os.path.join(out, "manifest.txt"), cfg, extras)
    return RunResult(
        cfg=cfg, bundle=bundle, trained=trained, report=report, out_dir=out, wall_times=wall
    )


def evaluate_run(out_dir: str) -> RunResult:
    """Re-evaluate a finished run from its saved config and checkpoints."""
    cfg = config_mod.load_config(path=os.path.join(out_dir, "config.txt"))
    bundle = build_scenario(cfg)
    trained = {
        approach: load_agents(
            os.path.join(out_dir, "checkpoints", approach),
            learner.build_agents(bundle.env, cfg, approach, None),
        )
        for approach in cfg.train_approaches
    }
    report = evaluate(bundle, evaluation_policies(bundle, trained))
    write_eval_csv(os.path.join(out_dir, "evaluation.csv"), cfg, report)
    return RunResult(
        cfg=cfg, bundle=bundle, trained=trained, report=report, out_dir=out_dir
    )
