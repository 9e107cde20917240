"""Experiment configuration: a flat key-value text format with dotted
section keys, scenario presets, and the run manifest.

A config file looks like

    scenario = linear_power
    seed = 7
    plants.count = 4
    train.episodes = 1000
    train.hidden = 64 64

Scenario presets fill in everything not stated; file values override
presets; command-line overrides beat both. Unknown keys are an error.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

import wcsrl
from wcsrl import baselines


class ConfigError(ValueError):
    pass


# kind -> parser; "auto" entries stay None until resolve() fills them in.
_SCALAR_KINDS = ("int", "float", "str", "bool")


def _parse_scalar(kind: str, tokens: list[str], key: str):
    if len(tokens) != 1:
        raise ConfigError(f"{key}: expected a single value, got {' '.join(tokens)!r}")
    tok = tokens[0]
    try:
        if kind == "int":
            return int(tok)
        if kind == "float":
            return float(tok)
        if kind == "bool":
            if tok.lower() in ("true", "1", "yes", "on"):
                return True
            if tok.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(tok)
        return tok
    except ValueError:
        raise ConfigError(f"{key}: cannot read {tok!r} as {kind}") from None


def _parse_value(kind: str, tokens: list[str], key: str):
    base = kind.removeprefix("opt_")
    if kind.startswith("opt_") and tokens == ["none"]:
        return None
    if base.endswith("_list"):
        elem = base.removesuffix("_list")
        return [_parse_scalar(elem, [t], key) for t in tokens]
    return _parse_scalar(base, tokens, key)


# file key -> (attribute, kind)
KEY_SPECS: dict[str, tuple[str, str]] = {
    "scenario": ("scenario", "str"),
    "seed": ("seed", "int"),
    "out_dir": ("out_dir", "str"),
    "plants.count": ("plants_count", "int"),
    "plants.family": ("plants_family", "str"),
    "plants.a_low": ("plants_a_low", "float"),
    "plants.a_high": ("plants_a_high", "float"),
    "plants.a_values": ("plants_a_values", "opt_float_list"),
    "plants.process_noise": ("plants_process_noise", "float"),
    "plants.init": ("plants_init", "str"),
    "plants.init_scale": ("plants_init_scale", "float"),
    "channel.path_loss": ("channel_path_loss", "float"),
    "channel.fading_scale": ("channel_fading_scale", "float"),
    "channel.area_half_width": ("channel_area_half_width", "opt_float"),
    "channel.min_distance": ("channel_min_distance", "float"),
    "channel.positions": ("channel_positions", "opt_float_list"),
    "cost.q": ("cost_q", "float_list"),
    "cost.r": ("cost_r", "float_list"),
    "constraint.kind": ("constraint_kind", "str"),
    "constraint.power_budget": ("constraint_power_budget", "opt_float"),
    "constraint.region_half_width": ("constraint_region_half_width", "float"),
    "constraint.region_budget": ("constraint_region_budget", "float"),
    "alloc.head": ("alloc_head", "str"),
    "alloc.total": ("alloc_total", "opt_float"),
    "alloc.n_active": ("alloc_n_active", "opt_int"),
    "obs.noise": ("obs_noise", "float"),
    "obs.noise_channel": ("obs_noise_channel", "opt_float"),
    "obs.noise_plant": ("obs_noise_plant", "opt_float"),
    "train.approaches": ("train_approaches", "str_list"),
    "train.episodes": ("train_episodes", "int"),
    "train.horizon": ("train_horizon", "int"),
    "train.workers": ("train_workers", "int"),
    "train.segment": ("train_segment", "int"),
    "train.gamma": ("train_gamma", "float"),
    "train.policy_lr": ("train_policy_lr", "float"),
    "train.value_lr": ("train_value_lr", "float"),
    "train.dual_lr": ("train_dual_lr", "float"),
    "train.optimizer": ("train_optimizer", "str"),
    "train.entropy_coef": ("train_entropy_coef", "float"),
    "train.grad_clip": ("train_grad_clip", "float"),
    "train.hidden": ("train_hidden", "int_list"),
    "train.init_std": ("train_init_std", "float"),
    "train.pretrain_iters": ("train_pretrain_iters", "int"),
    "train.pretrain_lr": ("train_pretrain_lr", "float"),
    "train.pretrain_batch": ("train_pretrain_batch", "int"),
    "train.warm_episodes": ("train_warm_episodes", "int"),
    "train.ceiling": ("train_ceiling", "float"),
    "eval.tests": ("eval_tests", "int"),
    "eval.group": ("eval_group", "int"),
    "eval.horizon": ("eval_horizon", "int"),
    "eval.stochastic": ("eval_stochastic", "bool"),
    "eval.baselines": ("eval_baselines", "str_list"),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in KEY_SPECS.items()}

BASE_DEFAULTS: dict[str, object] = {
    "scenario": "custom",
    "seed": 0,
    "out_dir": "runs/out",
    "plants.count": 2,
    "plants.family": "random_triangular",
    "plants.a_low": 1.05,
    "plants.a_high": 1.15,
    "plants.a_values": None,
    "plants.process_noise": 0.1,
    "plants.init": "normal",
    "plants.init_scale": 1.0,
    "channel.path_loss": 2.0,
    "channel.fading_scale": 1.0,
    "channel.area_half_width": None,
    "channel.min_distance": 0.1,
    "channel.positions": None,
    "cost.q": [1.0],
    "cost.r": [1.0],
    "constraint.kind": "region",
    "constraint.power_budget": None,
    "constraint.region_half_width": 15.0,
    "constraint.region_budget": 5.0,
    "alloc.head": "simplex",
    "alloc.total": None,
    "alloc.n_active": None,
    "obs.noise": 1.0,
    "obs.noise_channel": None,
    "obs.noise_plant": None,
    "train.approaches": ["alloc_lqr"],
    "train.episodes": 200,
    "train.horizon": 100,
    "train.workers": 16,
    "train.segment": 5,
    "train.gamma": 0.99,
    "train.policy_lr": 5e-4,
    "train.value_lr": 5e-4,
    "train.dual_lr": 1e-4,
    "train.optimizer": "rmsprop",
    "train.entropy_coef": 0.0,
    "train.grad_clip": 0.5,
    "train.hidden": [64, 64],
    "train.init_std": 0.5,
    "train.pretrain_iters": 0,
    "train.pretrain_lr": 1e-2,
    "train.pretrain_batch": 64,
    "train.warm_episodes": 0,
    "train.ceiling": 1e12,
    "eval.tests": 10,
    "eval.group": 10,
    "eval.horizon": 120,
    "eval.stochastic": False,
    "eval.baselines": ["equal", "round_robin", "channel_aware", "control_aware"],
}

SCENARIO_PRESETS: dict[str, dict[str, object]] = {
    # Power allocation over unstable plants, Riccati control, region constraints,
    # instantaneous power simplex enforced by the allocation head.
    "linear_power": {
        "plants.count": 10,
        "plants.family": "random_triangular",
        "constraint.kind": "region",
        "alloc.head": "simplex",
        "train.approaches": ["alloc_lqr"],
        "train.pretrain_iters": 500,
        "eval.baselines": ["equal", "round_robin", "channel_aware", "control_aware", "all_on"],
        "eval.horizon": 120,
    },
    # Joint allocation and control learning on the mildly unstable coupled
    # plants; expected-power budget handled by the multiplier.
    "linear_codesign": {
        "plants.count": 10,
        "plants.family": "fixed_mixed",
        "cost.r": [1e-3],
        "constraint.kind": "sum_power",
        "alloc.head": "softplus",
        "train.approaches": ["codesign", "control_only", "alloc_lqr"],
        "eval.baselines": ["equal"],
        "eval.horizon": 120,
    },
    # Joint learning on cart-poles; force interval head, expected-power budget.
    "cartpole_codesign": {
        "plants.count": 10,
        "plants.family": "cartpole",
        "plants.process_noise": 1e-4,
        "plants.init": "uniform",
        "plants.init_scale": 0.05,
        "channel.fading_scale": 2.0,
        "cost.q": [0.1, 0.0, 1.0, 0.0],
        "cost.r": [1e-3],
        "constraint.kind": "sum_power",
        "alloc.head": "softplus",
        "obs.noise": 0.1,
        "train.approaches": ["codesign"],
        "train.horizon": 80,
        "train.warm_episodes": 200,
        "eval.baselines": ["equal"],
        "eval.horizon": 100,
    },
    "custom": {},
}

VALID_APPROACHES = ("alloc_lqr", "codesign", "codesign_joint", "control_only")
VALID_BASELINES = ("equal", "round_robin", "channel_aware", "control_aware", "all_on", "zero")


@dataclass
class ExperimentConfig:
    scenario: str
    seed: int
    out_dir: str
    plants_count: int
    plants_family: str
    plants_a_low: float
    plants_a_high: float
    plants_a_values: Optional[list]
    plants_process_noise: float
    plants_init: str
    plants_init_scale: float
    channel_path_loss: float
    channel_fading_scale: float
    channel_area_half_width: Optional[float]
    channel_min_distance: float
    channel_positions: Optional[list]
    cost_q: list
    cost_r: list
    constraint_kind: str
    constraint_power_budget: Optional[float]
    constraint_region_half_width: float
    constraint_region_budget: float
    alloc_head: str
    alloc_total: Optional[float]
    alloc_n_active: Optional[int]
    obs_noise: float
    obs_noise_channel: Optional[float]
    obs_noise_plant: Optional[float]
    train_approaches: list
    train_episodes: int
    train_horizon: int
    train_workers: int
    train_segment: int
    train_gamma: float
    train_policy_lr: float
    train_value_lr: float
    train_dual_lr: float
    train_optimizer: str
    train_entropy_coef: float
    train_grad_clip: float
    train_hidden: list
    train_init_std: float
    train_pretrain_iters: int
    train_pretrain_lr: float
    train_pretrain_batch: int
    train_warm_episodes: int
    train_ceiling: float
    eval_tests: int
    eval_group: int
    eval_horizon: int
    eval_stochastic: bool
    eval_baselines: list

    def items(self) -> list[tuple[str, object]]:
        """(file key, value) pairs in sorted key order."""
        return sorted((_ATTR_TO_KEY[f.name], getattr(self, f.name)) for f in fields(self))


def parse_config_text(text: str) -> dict[str, object]:
    """Read `key = value` lines into a dict of typed values."""
    values: dict[str, object] = {}
    unknown: list[str] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        tokens = rhs.replace(",", " ").split()
        if key not in KEY_SPECS:
            unknown.append(key)
            continue
        if not tokens:
            raise ConfigError(f"line {lineno}: no value for {key}")
        _, kind = KEY_SPECS[key]
        values[key] = _parse_value(kind, tokens, key)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return values


def load_config(
    path: Optional[str] = None,
    overrides: Optional[dict[str, object]] = None,
    text: Optional[str] = None,
) -> ExperimentConfig:
    """Assemble a config from scenario presets, a file, and overrides, then validate."""
    file_values: dict[str, object] = {}
    if text is not None:
        file_values = parse_config_text(text)
    elif path is not None:
        with open(path) as fh:
            file_values = parse_config_text(fh.read())

    merged = dict(BASE_DEFAULTS)
    scenario = file_values.get("scenario", merged["scenario"])
    if overrides and "scenario" in overrides:
        scenario = overrides["scenario"]
    if scenario not in SCENARIO_PRESETS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; pick one of {sorted(SCENARIO_PRESETS)}"
        )
    merged.update(SCENARIO_PRESETS[scenario])
    merged.update(file_values)
    if overrides:
        for key, value in overrides.items():
            if key not in KEY_SPECS:
                raise ConfigError(f"unknown override key {key!r}")
            merged[key] = value
    merged["scenario"] = scenario

    cfg = ExperimentConfig(**{KEY_SPECS[k][0]: v for k, v in merged.items()})
    _resolve(cfg)
    _validate(cfg)
    return cfg


def _resolve(cfg: ExperimentConfig) -> None:
    m = cfg.plants_count
    if cfg.channel_area_half_width is None:
        cfg.channel_area_half_width = m / 4 if cfg.scenario == "linear_power" else m / 3
    if cfg.constraint_kind == "sum_power" and cfg.constraint_power_budget is None:
        cfg.constraint_power_budget = 25.0 * m
    if cfg.alloc_head == "simplex" and cfg.alloc_total is None:
        # Instantaneous power cap: the region scenarios tie it to the plant count.
        cfg.alloc_total = float(m)
    if cfg.alloc_n_active is None:
        cfg.alloc_n_active = baselines.default_active_count(m)


def _validate(cfg: ExperimentConfig) -> None:
    m = cfg.plants_count
    if m < 1:
        raise ConfigError("plants.count must be positive")
    if cfg.plants_family not in ("random_triangular", "fixed_mixed", "cartpole"):
        raise ConfigError(f"unknown plants.family {cfg.plants_family!r}")
    if cfg.plants_init not in ("normal", "uniform", "zero"):
        raise ConfigError(f"unknown plants.init {cfg.plants_init!r}")
    if cfg.plants_a_values is not None and len(cfg.plants_a_values) != m:
        raise ConfigError("plants.a_values must list one value per plant")
    if cfg.channel_positions is not None and len(cfg.channel_positions) != 2 * m:
        raise ConfigError("channel.positions must list x y per plant")
    if cfg.constraint_kind not in ("sum_power", "region", "none"):
        raise ConfigError(f"unknown constraint.kind {cfg.constraint_kind!r}")
    if cfg.constraint_kind == "sum_power" and cfg.constraint_power_budget is None:
        raise ConfigError("sum_power constraint needs constraint.power_budget")
    if cfg.alloc_head not in ("simplex", "softplus"):
        raise ConfigError(f"unknown alloc.head {cfg.alloc_head!r}")
    if not 1 <= cfg.alloc_n_active <= m:
        raise ConfigError(f"alloc.n_active must lie in [1, {m}]")
    if not 0.0 <= cfg.train_gamma <= 1.0:
        raise ConfigError("train.gamma must lie in [0, 1]")
    if cfg.train_optimizer not in ("sgd", "rmsprop"):
        raise ConfigError(f"unknown train.optimizer {cfg.train_optimizer!r}")
    for name in cfg.train_approaches:
        if name not in VALID_APPROACHES:
            raise ConfigError(f"unknown approach {name!r}; valid: {VALID_APPROACHES}")
    for name in cfg.eval_baselines:
        if name not in VALID_BASELINES:
            raise ConfigError(f"unknown baseline {name!r}; valid: {VALID_BASELINES}")
    if len(cfg.cost_q) not in (1, _state_dim(cfg)):
        raise ConfigError(
            f"cost.q must be a scale or {_state_dim(cfg)} diagonal entries, got {len(cfg.cost_q)}"
        )
    if len(cfg.cost_r) not in (1, _input_dim(cfg)):
        raise ConfigError(
            f"cost.r must be a scale or {_input_dim(cfg)} diagonal entries, got {len(cfg.cost_r)}"
        )
    if cfg.eval_group < 1 or cfg.eval_tests < 1:
        raise ConfigError("eval.tests and eval.group must be positive")


def _state_dim(cfg: ExperimentConfig) -> int:
    return 4 if cfg.plants_family == "cartpole" else 3


def _input_dim(cfg: ExperimentConfig) -> int:
    return 1 if cfg.plants_family == "cartpole" else 3


def cost_matrix(entries: list, dim: int) -> np.ndarray:
    """Expand a scale or diagonal list into a dim x dim matrix."""
    if len(entries) == 1:
        return float(entries[0]) * np.eye(dim)
    return np.diag(np.asarray(entries, dtype=float))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, list):
        return " ".join(_format_value(v) for v in value)
    if value is None:
        return "none"
    return str(value)


def config_lines(cfg: ExperimentConfig) -> list[str]:
    return [f"{key} = {_format_value(value)}" for key, value in cfg.items()]


def config_hash(cfg: ExperimentConfig) -> str:
    """Digest of the experiment-defining keys. out_dir only says where
    artifacts land, so it is excluded: reruns into different directories
    hash (and log) identically."""
    lines = [ln for ln in config_lines(cfg) if not ln.startswith("out_dir ")]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest[:16]


def write_manifest(path: str, cfg: ExperimentConfig, extras: Optional[dict] = None) -> None:
    """Write the resolved run manifest: config, hash, versions, and any extra
    records (placements, sampled plant parameters, wall time)."""
    lines = [
        "# run manifest",
        f"config_hash = {config_hash(cfg)}",
        f"package_version = {wcsrl.__version__}",
        f"numpy_version = {np.__version__}",
        "",
    ]
    lines.extend(config_lines(cfg))
    if extras:
        lines.append("")
        for key in sorted(extras):
            lines.append(f"{key} = {_format_value(extras[key])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
