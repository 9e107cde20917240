"""Experiment orchestration: scenario assembly, training per approach,
paired-seed evaluation against baselines, artifact writing, and the
analytic-gradient self-check.

Randomness is split into three independent streams derived from the
experiment seed: [seed, 0] draws the scenario (placements, plant
parameters), [seed, 1, k] drives training of the k-th approach, and
[seed, 2] drives evaluation. Evaluation pairs policies by data: each
(test, realization) cell draws one noise tape, and every policy's episode
in that cell replays it, so comparisons see identical noise.
"""
from __future__ import annotations

import dataclasses
import operator
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from wcsrl import baselines, config as config_mod, learner, neuralnet, policies
from wcsrl.config import ExperimentConfig, cost_matrix
from wcsrl.dynamics import (
    FORCE_LIMIT,
    MIXED_DRIFT,
    CostWeights,
    PlantModel,
    cartpole_linearization,
    make_fixed_ensemble,
    unstable_drift,
)
from wcsrl.environment import ConstraintSpec, SystemState, WirelessControlEnv
from wcsrl.learner import TrainResult, TrainSettings, TrainedAgents
from wcsrl.wireless import ChannelModel, place_plants

DIVERGENCE_LIMIT = 1e12
# Cost recorded for a rollout that left the representable region.
DIVERGENCE_COST = 1e12


# ---------------------------------------------------------------------------
# scenario assembly


@dataclass
class ScenarioBundle:
    """Everything derived from a config plus the scenario random stream."""

    cfg: ExperimentConfig
    plants: list
    positions: np.ndarray
    distances: np.ndarray
    channel: ChannelModel
    weights: CostWeights
    constraint: Optional[ConstraintSpec]
    obs_noise: np.ndarray
    lqr_gains: list
    a_values: Optional[np.ndarray]
    control_low: Optional[float]
    control_high: Optional[float]

    @property
    def m(self) -> int:
        return len(self.plants)

    @property
    def state_dim(self) -> int:
        return self.plants[0].state_dim

    @property
    def input_dim(self) -> int:
        return self.plants[0].input_dim

    def env_factory(
        self, rng: np.random.Generator, force_delivery: bool = False
    ) -> WirelessControlEnv:
        return WirelessControlEnv(
            plants=self.plants,
            channel=self.channel,
            weights=self.weights,
            rng=rng,
            gamma=self.cfg.train_gamma,
            constraint=self.constraint,
            obs_noise_cov=self.obs_noise,
            init_kind=self.cfg.plants_init,
            init_scale=self.cfg.plants_init_scale,
            force_delivery=force_delivery,
        )

    def baseline_power_total(self) -> float:
        """Per-step power handed to heuristic allocators: the instantaneous
        cap when the head enforces one, else the sustainable per-step share
        of the expected-power budget."""
        cfg = self.cfg
        if cfg.alloc_head == "simplex" and cfg.alloc_total is not None:
            return float(cfg.alloc_total)
        if cfg.constraint_kind == "sum_power":
            return (1.0 - cfg.train_gamma) * float(cfg.constraint_power_budget)
        if cfg.alloc_total is not None:
            return float(cfg.alloc_total)
        return float(self.m)

    def riccati_controller(self) -> policies.Controller:
        return policies.riccati_controller(self.lqr_gains, self.control_low, self.control_high)


def _build_plants(
    cfg: ExperimentConfig, rng: np.random.Generator
) -> tuple[list, Optional[np.ndarray]]:
    m = cfg.plants_count
    if cfg.plants_family == "cartpole":
        noise = cfg.plants_process_noise * np.eye(4)
        return [PlantModel(kind="cartpole", process_noise_cov=noise) for _ in range(m)], None
    noise = cfg.plants_process_noise * np.eye(3)
    if cfg.plants_family == "fixed_mixed":
        return make_fixed_ensemble(m, MIXED_DRIFT, process_noise_cov=noise), None
    if cfg.plants_a_values is not None:
        a_values = np.asarray(cfg.plants_a_values, dtype=float)
    else:
        a_values = rng.uniform(cfg.plants_a_low, cfg.plants_a_high, size=m)
    plants = [
        PlantModel(kind="linear", a_mat=unstable_drift(a), b_mat=np.eye(3), process_noise_cov=noise)
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
        control_low, control_high = -FORCE_LIMIT, FORCE_LIMIT
    else:
        gains = [baselines.lqr_gain(p.a_mat, p.b_mat, weights.q, weights.r) for p in plants]
        control_low = control_high = None

    return ScenarioBundle(
        cfg=cfg,
        plants=plants,
        positions=positions,
        distances=distances,
        channel=channel,
        weights=weights,
        constraint=_constraint_from(cfg),
        obs_noise=_obs_noise_vector(cfg, m, state_dim),
        lqr_gains=gains,
        a_values=a_values,
        control_low=control_low,
        control_high=control_high,
    )


# ---------------------------------------------------------------------------
# per-approach training setup


@dataclass
class ApproachSetup:
    settings: TrainSettings
    control_provider: Optional[policies.Controller]
    alloc_provider: Optional[policies.Allocator]
    force_delivery: bool


def approach_setup(bundle: ScenarioBundle, approach: str) -> ApproachSetup:
    """Translate an approach name into training settings and fixed providers.

    alloc_lqr: one joint actor learns allocation, Riccati control fixed.
    codesign: separate allocation and per-plant control actors, both learned.
    codesign_joint: one joint actor learns allocation and control together.
    control_only: per-plant control actors learned under guaranteed delivery,
    equal power fixed.
    """
    cfg = bundle.cfg
    common = dict(
        episodes=cfg.train_episodes,
        horizon=cfg.train_horizon,
        n_workers=cfg.train_workers,
        seg_len=cfg.train_segment,
        gamma=cfg.train_gamma,
        policy_lr=cfg.train_policy_lr,
        value_lr=cfg.train_value_lr,
        dual_lr=cfg.train_dual_lr,
        optimizer=cfg.train_optimizer,
        entropy_coef=cfg.train_entropy_coef,
        grad_clip=cfg.train_grad_clip,
        hidden=tuple(cfg.train_hidden),
        init_log_std=float(np.log(cfg.train_init_std)),
        alloc_head=cfg.alloc_head,
        alpha_total=cfg.alloc_total if cfg.alloc_head == "simplex" else None,
        control_low=bundle.control_low,
        control_high=bundle.control_high,
        lagrangian_ceiling=cfg.train_ceiling,
    )
    if approach == "alloc_lqr":
        settings = TrainSettings(
            topology="single",
            learn_alloc=True,
            learn_control=False,
            pretrain_iters=cfg.train_pretrain_iters,
            pretrain_lr=cfg.train_pretrain_lr,
            pretrain_batch=cfg.train_pretrain_batch,
            **common,
        )
        return ApproachSetup(settings, bundle.riccati_controller(), None, False)
    if approach == "codesign":
        settings = TrainSettings(
            topology="separate",
            learn_alloc=True,
            learn_control=True,
            warm_episodes=cfg.train_warm_episodes,
            **common,
        )
        return ApproachSetup(settings, None, None, False)
    if approach == "codesign_joint":
        settings = TrainSettings(
            topology="single",
            learn_alloc=True,
            learn_control=True,
            warm_episodes=0,
            **common,
        )
        return ApproachSetup(settings, None, None, False)
    if approach == "control_only":
        settings = TrainSettings(
            topology="separate",
            learn_alloc=False,
            learn_control=True,
            **common,
        )
        alloc = policies.equal_allocator(bundle.m, bundle.baseline_power_total())
        return ApproachSetup(settings, None, alloc, True)
    raise ValueError(f"unknown approach {approach!r}")


def train_approach(
    bundle: ScenarioBundle,
    approach: str,
    approach_index: int,
    progress: Optional[Callable[[learner.EpisodeRow], None]] = None,
) -> TrainResult:
    setup = approach_setup(bundle, approach)
    seq = np.random.SeedSequence([bundle.cfg.seed, 1, approach_index])
    factory = lambda rng: bundle.env_factory(rng, force_delivery=setup.force_delivery)
    return learner.train(
        factory,
        setup.settings,
        seq,
        control_provider=setup.control_provider,
        alloc_provider=setup.alloc_provider,
        progress=progress,
    )


def eval_policy_for(
    bundle: ScenarioBundle, approach: str, agents: TrainedAgents, stochastic: bool = False
) -> policies.AgentPolicy:
    """Wrap trained agents with the fixed action halves they trained with."""
    setup = approach_setup(bundle, approach)
    return policies.AgentPolicy(agents, setup.alloc_provider, setup.control_provider, stochastic)


def baseline_policies(bundle: ScenarioBundle) -> dict[str, policies.HeuristicPolicy]:
    cfg = bundle.cfg
    total = bundle.baseline_power_total()
    controller = bundle.riccati_controller()
    out = {}
    for name in cfg.eval_baselines:
        allocator = policies.make_allocator(name, bundle.m, cfg.alloc_n_active, total)
        out[name] = policies.HeuristicPolicy(allocator, controller)
    return out


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
    """One evaluation episode from start over its whole noise tape:
    discounted cost and constraint sums, the largest joint state norm seen,
    and whether the state left the representable region (cost then
    saturates at DIVERGENCE_COST)."""
    gamma = env.gamma
    state = start
    disc = 1.0
    cost = 0.0
    signals = np.zeros(env.n_signals)
    max_norm = float(np.linalg.norm(state.x))
    for t in range(start.tape.horizon):
        obs = env.observe(state)
        action = policy.act(obs, t, policy_rng)
        res = env.step(state, action)
        cost += disc * res.stage_cost
        signals += disc * res.signals
        disc *= gamma
        state = res.next_state
        norm = float(np.linalg.norm(state.x))
        if not np.isfinite(norm):
            norm = np.inf
        max_norm = max(max_norm, norm)
        if norm > DIVERGENCE_LIMIT:
            return RolloutStats(DIVERGENCE_COST, signals, max_norm, True)
    if not np.isfinite(cost):
        return RolloutStats(DIVERGENCE_COST, signals, max_norm, True)
    return RolloutStats(float(cost), signals, max_norm, False)


@dataclass
class EvalRow:
    policy: str
    test: int
    cost_mean: float
    cost_std: float
    cost_min: float
    cost_max: float
    signal_means: np.ndarray
    n_diverged: int


@dataclass
class EvalReport:
    rows: list
    costs: dict
    signals: dict
    max_norms: dict
    diverged: dict
    n_tests: int
    group: int

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


def evaluate(
    bundle: ScenarioBundle,
    eval_policies: dict,
    n_tests: Optional[int] = None,
    group: Optional[int] = None,
    horizon: Optional[int] = None,
    seed_seq: Optional[np.random.SeedSequence] = None,
) -> EvalReport:
    """Monte Carlo comparison of policies on shared noise.

    Each (test, realization) cell owns a pair of generator seeds: one
    draws the cell's initial state and noise tape, once, and the other
    restarts policy sampling for each policy. Every policy's episode in the
    cell replays that tape, so all of them see the same initial states,
    fading, delivery lottery and observation noise. Realizations within a
    test start from fresh initial states. Cells go one at a time, so only
    one tape is held.
    """
    cfg = bundle.cfg
    n_tests = cfg.eval_tests if n_tests is None else n_tests
    group = cfg.eval_group if group is None else group
    horizon = cfg.eval_horizon if horizon is None else horizon
    if seed_seq is None:
        seed_seq = np.random.SeedSequence([cfg.seed, 2])

    cells = []
    for test_seq in seed_seq.spawn(n_tests):
        cells.append([real_seq.spawn(2) for real_seq in test_seq.spawn(group)])

    n_sig = bundle.constraint.n_components(bundle.m) if bundle.constraint else 0
    shape = (n_tests, group)
    costs = {label: np.zeros(shape) for label in eval_policies}
    signals = {label: np.zeros(shape + (n_sig,)) for label in eval_policies}
    max_norms = {label: np.zeros(shape) for label in eval_policies}
    diverged = {label: np.zeros(shape, dtype=bool) for label in eval_policies}
    for j in range(n_tests):
        for k in range(group):
            env_seq, pol_seq = cells[j][k]
            env = bundle.env_factory(np.random.Generator(np.random.PCG64(env_seq)))
            start = env.reset(horizon)
            for label, policy in eval_policies.items():
                pol_rng = np.random.Generator(np.random.PCG64(pol_seq))
                stats = rollout(env, start, policy, pol_rng)
                costs[label][j, k] = stats.cost
                signals[label][j, k] = stats.signals
                max_norms[label][j, k] = stats.max_norm
                diverged[label][j, k] = stats.diverged

    rows = [
        EvalRow(
            policy=label,
            test=j,
            cost_mean=float(costs[label][j].mean()),
            cost_std=float(costs[label][j].std()),
            cost_min=float(costs[label][j].min()),
            cost_max=float(costs[label][j].max()),
            signal_means=signals[label][j].mean(axis=0),
            n_diverged=int(diverged[label][j].sum()),
        )
        for label in eval_policies
        for j in range(n_tests)
    ]
    return EvalReport(
        rows=rows,
        costs=costs,
        signals=signals,
        max_norms=max_norms,
        diverged=diverged,
        n_tests=n_tests,
        group=group,
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
    n_sig = len(report.rows[0].signal_means) if report.rows else 0
    header = ["policy", "test", "cost_mean", "cost_std", "cost_min", "cost_max"]
    header += [f"signal_{i}_mean" for i in range(n_sig)]
    header += ["n_diverged"]
    lines = [
        f"# seed = {cfg.seed}, config_hash = {config_mod.config_hash(cfg)}",
        ",".join(header),
    ]
    for row in report.rows:
        cells = [row.policy, str(row.test)]
        cells += [_fmt(v) for v in (row.cost_mean, row.cost_std, row.cost_min, row.cost_max)]
        cells += [_fmt(v) for v in row.signal_means]
        cells.append(str(row.n_diverged))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _checkpoint_files(agents: TrainedAgents) -> list[tuple[str, str, object, object]]:
    """(actor file, critic file, actor, critic) for every trained pair."""
    if agents.topology == "single":
        return [("actor.npz", "critic.npz", agents.actor, agents.critic)]
    pairs = []
    if agents.actor is not None:
        pairs.append(("ap_actor.npz", "ap_critic.npz", agents.actor, agents.critic))
    for i, (actor, critic) in enumerate(zip(agents.rc_actors, agents.rc_critics)):
        pairs.append((f"rc_actor_{i}.npz", f"rc_critic_{i}.npz", actor, critic))
    return pairs


def save_agents(dir_path: str, agents: TrainedAgents) -> None:
    os.makedirs(dir_path, exist_ok=True)
    for actor_file, critic_file, actor, critic in _checkpoint_files(agents):
        neuralnet.save_actor(os.path.join(dir_path, actor_file), actor)
        neuralnet.save_critic(os.path.join(dir_path, critic_file), critic)


def load_agents(dir_path: str) -> TrainedAgents:
    single_actor = os.path.join(dir_path, "actor.npz")
    if os.path.exists(single_actor):
        return TrainedAgents(
            topology="single",
            actor=neuralnet.load_actor(single_actor),
            critic=neuralnet.load_critic(os.path.join(dir_path, "critic.npz")),
        )
    agents = TrainedAgents(topology="separate")
    ap_actor = os.path.join(dir_path, "ap_actor.npz")
    if os.path.exists(ap_actor):
        agents.actor = neuralnet.load_actor(ap_actor)
        agents.critic = neuralnet.load_critic(os.path.join(dir_path, "ap_critic.npz"))
    i = 0
    while os.path.exists(os.path.join(dir_path, f"rc_actor_{i}.npz")):
        agents.rc_actors.append(neuralnet.load_actor(os.path.join(dir_path, f"rc_actor_{i}.npz")))
        agents.rc_critics.append(
            neuralnet.load_critic(os.path.join(dir_path, f"rc_critic_{i}.npz"))
        )
        i += 1
    if agents.actor is None and not agents.rc_actors:
        raise FileNotFoundError(f"no checkpoints under {dir_path}")
    return agents


def check_agents(dir_path: str, loaded: TrainedAgents, expected: TrainedAgents) -> None:
    """Raise ValueError, naming the checkpoint file, the field and both values,
    when the loaded actors are not the ones the rebuilt scenario trains."""
    want = {name: actor for name, _, actor, _ in _checkpoint_files(expected)}
    got = {name: actor for name, _, actor, _ in _checkpoint_files(loaded)}
    if sorted(got) != sorted(want):
        raise ValueError(f"{dir_path} holds actors {sorted(got)}, the config trains {sorted(want)}")
    keys = ["obs_dim"] + [f"head.{f.name}" for f in dataclasses.fields(neuralnet.HeadSpec)]
    for name, actor in want.items():
        for key in keys:
            need, have = operator.attrgetter(key)(actor), operator.attrgetter(key)(got[name])
            if need != have:
                raise ValueError(
                    f"checkpoint {os.path.join(dir_path, name)}: {key} is {have!r}, "
                    f"but the scenario in config.txt needs {need!r}"
                )


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

    eval_policies: dict[str, object] = {}
    for approach, agents in trained.items():
        eval_policies[approach] = eval_policy_for(
            bundle, approach, agents, cfg.eval_stochastic
        )
    eval_policies.update(baseline_policies(bundle))

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
    env = bundle.env_factory(np.random.default_rng(0))  # for its dimensions only
    trained = {}
    for approach in cfg.train_approaches:
        path = os.path.join(out_dir, "checkpoints", approach)
        trained[approach] = load_agents(path)
        expected = learner.build_agents(env, approach_setup(bundle, approach).settings, None)
        check_agents(path, trained[approach], expected)
    eval_policies: dict[str, object] = {
        approach: eval_policy_for(bundle, approach, agents, cfg.eval_stochastic)
        for approach, agents in trained.items()
    }
    eval_policies.update(baseline_policies(bundle))
    report = evaluate(bundle, eval_policies)
    write_eval_csv(os.path.join(out_dir, "evaluation.csv"), cfg, report)
    return RunResult(
        cfg=cfg, bundle=bundle, trained=trained, report=report, out_dir=out_dir
    )


# ---------------------------------------------------------------------------
# gradient self-check


@dataclass
class GradcheckCase:
    name: str
    max_rel_err: float
    passed: bool


@dataclass
class GradcheckReport:
    cases: list
    tolerance: float
    n_networks: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def max_rel_err(self) -> float:
        return max(c.max_rel_err for c in self.cases)


def _head_cases(m: int, state_dim: int, input_dim: int) -> list[tuple[str, neuralnet.HeadSpec, int]]:
    return [
        (
            "simplex_alloc",
            neuralnet.HeadSpec(n_plants=m, alloc="simplex", alpha_total=float(m)),
            m * (1 + state_dim),
        ),
        (
            "softplus_alloc",
            neuralnet.HeadSpec(n_plants=m, alloc="softplus"),
            m * (1 + state_dim),
        ),
        (
            "joint_simplex_control",
            neuralnet.HeadSpec(
                n_plants=m, alloc="simplex", alpha_total=float(m), control_dim=input_dim
            ),
            m * (1 + state_dim),
        ),
        (
            "joint_softplus_control",
            neuralnet.HeadSpec(n_plants=m, alloc="softplus", control_dim=input_dim),
            m * (1 + state_dim),
        ),
        (
            "control_unbounded",
            neuralnet.HeadSpec(n_plants=1, control_dim=input_dim),
            1 + state_dim + 1,
        ),
        (
            "control_bounded",
            neuralnet.HeadSpec(n_plants=1, control_dim=1, control_low=-10.0, control_high=10.0),
            1 + 4 + 1,
        ),
    ]


def gradient_check(
    seed: int = 0,
    batch: int = 4,
    tolerance: float = 1e-4,
    hidden: tuple = (8, 8),
    min_networks: int = 50,
) -> GradcheckReport:
    """Compare analytic policy/value gradients with central differences.

    Every head composition used by the approaches plus the critic and the
    warm-start MSE path, repeated with fresh random networks until at
    least min_networks have been checked. Small nets keep the parameter
    loop fast. Reported per case: the worst relative error seen.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 9])))
    m, state_dim, input_dim = 3, 3, 2
    worst: dict[str, float] = {}
    n_networks = 0

    def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
        return float(np.max(np.abs(analytic - numeric) / denom))

    def note(name: str, err: float) -> None:
        worst[name] = max(worst.get(name, 0.0), err)

    head_cases = _head_cases(m, state_dim, input_dim)
    nets_per_rep = len(head_cases) + 1
    reps = max(1, -(-min_networks // nets_per_rep))
    for _ in range(reps):
        for name, head, obs_dim in head_cases:
            actor = neuralnet.GaussianActor(obs_dim, head, hidden, rng)
            n_networks += 1
            obs = rng.standard_normal((batch, obs_dim))
            raw = actor.net.forward(obs)[0] + 0.3 * rng.standard_normal((batch, head.raw_dim))
            coeffs = rng.standard_normal(batch)
            analytic = actor.grad_weighted_log_prob(obs, raw, coeffs)

            def f(flat: np.ndarray) -> float:
                saved = actor.get_flat()
                actor.set_flat(flat)
                val = float(np.sum(coeffs * actor.log_prob(obs, raw)))
                actor.set_flat(saved)
                return val

            numeric = neuralnet.finite_difference_grad(f, actor.get_flat())
            note(name, rel_err(analytic, numeric))

            if head.alloc is not None:
                targets = np.abs(rng.standard_normal((batch, m)))
                if head.alloc == "simplex":
                    targets = (
                        targets / targets.sum(axis=1, keepdims=True) * (0.5 * head.alpha_total)
                    )
                _, g_analytic = actor.grad_alloc_mse(obs, targets)

                def f_mse(flat: np.ndarray) -> float:
                    saved = actor.get_flat()
                    actor.set_flat(flat)
                    loss, _ = actor.grad_alloc_mse(obs, targets)
                    actor.set_flat(saved)
                    return float(loss)

                g_numeric = neuralnet.finite_difference_grad(f_mse, actor.get_flat())
                note(f"{name}_warmstart_mse", rel_err(g_analytic, g_numeric))

        critic = neuralnet.ValueNet(m * (1 + state_dim), hidden, rng)
        n_networks += 1
        obs = rng.standard_normal((batch, m * (1 + state_dim)))
        coeffs = rng.standard_normal(batch)
        analytic = critic.grad_weighted(obs, coeffs)

        def f_v(flat: np.ndarray) -> float:
            saved = critic.get_flat()
            critic.set_flat(flat)
            val = float(np.sum(coeffs * critic.values(obs)))
            critic.set_flat(saved)
            return val

        numeric = neuralnet.finite_difference_grad(f_v, critic.get_flat())
        note("critic_value", rel_err(analytic, numeric))

    cases = [GradcheckCase(name, err, err < tolerance) for name, err in worst.items()]
    return GradcheckReport(cases=cases, tolerance=tolerance, n_networks=n_networks)
