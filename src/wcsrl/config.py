"""Experiment configuration: a flat key-value text format with dotted
section keys, scenario presets, and the run manifest.

A config file looks like

    scenario = linear_power
    seed = 7
    plants.count = 4
    train.episodes = 1000
    train.hidden = 64 64

Every key is declared once, as one row of `_TABLE`: its file key, value
kind, default and, for enum keys, the allowed values. `KEY_SPECS`,
`BASE_DEFAULTS`, the `ExperimentConfig` attributes and the enum checks
are all derived from those rows, so adding a key means adding one row.

Scenario presets fill in everything not stated; file values override
presets; command-line overrides beat both. Unknown keys are an error.
"""
from __future__ import annotations

import hashlib
from dataclasses import make_dataclass
from typing import Optional

import numpy as np

import wcsrl
from wcsrl import baselines


class ConfigError(ValueError):
    pass


_TYPES = {"int": int, "float": float, "str": str, "bool": bool}


def _parse_scalar(kind: str, tokens: list[str], key: str):
    if len(tokens) != 1:
        raise ConfigError(f"{key}: expected a single value, got {' '.join(tokens)!r}")
    tok = tokens[0]
    try:
        if kind != "bool":
            return _TYPES[kind](tok)
        if tok.lower() in ("true", "1", "yes", "on"):
            return True
        if tok.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError(tok)
    except ValueError:
        raise ConfigError(f"{key}: cannot read {tok!r} as {kind}") from None


def _has_kind(elem: str, value) -> bool:
    """Whether a Python value has the scalar kind; an int serves a float."""
    if isinstance(value, bool):
        return elem == "bool"
    return isinstance(value, (int, float) if elem == "float" else _TYPES[elem])


def _checked(key: str, value):
    """A given (not parsed) value for key, lists copied; ConfigError naming
    the key and its kind when the value does not have that kind."""
    _, kind = KEY_SPECS[key]
    base = kind.removeprefix("opt_")
    elem = base.removesuffix("_list")
    if value is None and kind.startswith("opt_"):
        return None
    if base.endswith("_list"):
        if isinstance(value, (list, tuple)) and all(_has_kind(elem, v) for v in value):
            return list(value)
    elif _has_kind(elem, value):
        return value
    raise ConfigError(f"{key}: expected kind {kind}, got {value!r}")


def _parse_value(kind: str, tokens: list[str], key: str):
    base = kind.removeprefix("opt_")
    if kind.startswith("opt_") and tokens == ["none"]:
        return None
    if base.endswith("_list"):
        elem = base.removesuffix("_list")
        return [_parse_scalar(elem, [t], key) for t in tokens]
    return _parse_scalar(base, tokens, key)


# One row per config key: (file key, kind, default[, allowed values]).
# The attribute name is the key with its dot made an underscore. A kind is
# int, float, str or bool, or one of those with "_list" for a list of them;
# an "opt_" prefix lets "none" read as None, which _resolve fills in for
# some keys. Adding a key means adding one row.
_TABLE: tuple[tuple, ...] = (
    ("scenario", "str", "custom"),
    ("seed", "int", 0),
    ("out_dir", "str", "runs/out"),
    ("plants.count", "int", 2),
    ("plants.family", "str", "random_triangular", ("random_triangular", "fixed_mixed", "cartpole")),
    ("plants.a_low", "float", 1.05),
    ("plants.a_high", "float", 1.15),
    ("plants.a_values", "opt_float_list", None),
    ("plants.process_noise", "float", 0.1),
    ("plants.init", "str", "normal", ("normal", "uniform", "zero")),
    ("plants.init_scale", "float", 1.0),
    ("channel.path_loss", "float", 2.0),
    ("channel.fading_scale", "float", 1.0),
    ("channel.area_half_width", "opt_float", None),
    ("channel.min_distance", "float", 0.1),
    ("channel.positions", "opt_float_list", None),
    ("cost.q", "float_list", [1.0]),
    ("cost.r", "float_list", [1.0]),
    ("constraint.kind", "str", "region", ("sum_power", "region", "none")),
    ("constraint.power_budget", "opt_float", None),
    ("constraint.region_half_width", "float", 15.0),
    ("constraint.region_budget", "float", 5.0),
    ("alloc.head", "str", "simplex", ("simplex", "softplus")),
    ("alloc.total", "opt_float", None),
    ("alloc.n_active", "opt_int", None),
    ("obs.noise", "float", 1.0),
    ("obs.noise_channel", "opt_float", None),
    ("obs.noise_plant", "opt_float", None),
    ("train.approaches", "str_list", ["alloc_lqr"],
     ("alloc_lqr", "codesign", "codesign_joint", "control_only")),
    ("train.episodes", "int", 200),
    ("train.horizon", "int", 100),
    ("train.workers", "int", 16),
    ("train.segment", "int", 5),
    ("train.gamma", "float", 0.99),
    ("train.policy_lr", "float", 5e-4),
    ("train.value_lr", "float", 5e-4),
    ("train.dual_lr", "float", 1e-4),
    ("train.optimizer", "str", "rmsprop", ("sgd", "rmsprop")),
    ("train.entropy_coef", "float", 0.0),
    ("train.grad_clip", "float", 0.5),
    ("train.hidden", "int_list", [64, 64]),
    ("train.init_std", "float", 0.5),
    ("train.pretrain_iters", "int", 0),
    ("train.pretrain_lr", "float", 1e-2),
    ("train.pretrain_batch", "int", 64),
    ("train.warm_episodes", "int", 0),
    ("train.ceiling", "float", 1e12),
    ("eval.tests", "int", 10),
    ("eval.group", "int", 10),
    ("eval.horizon", "int", 120),
    ("eval.stochastic", "bool", False),
    ("eval.baselines", "str_list", ["equal", "round_robin", "channel_aware", "control_aware"],
     ("equal", "round_robin", "channel_aware", "control_aware", "all_on", "zero")),
)

# file key -> (attribute, kind)
KEY_SPECS: dict[str, tuple[str, str]] = {
    key: (key.replace(".", "_"), kind) for key, kind, *_ in _TABLE
}
BASE_DEFAULTS: dict[str, object] = {key: default for key, _, default, *_ in _TABLE}
# file key -> allowed values, for the keys that list them
_ALLOWED: dict[str, tuple] = {key: rest[0] for key, _, _, *rest in _TABLE if rest}

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


def _annotation(kind: str):
    base = kind.removeprefix("opt_")
    elem = _TYPES[base.removesuffix("_list")]
    tp = list[elem] if base.endswith("_list") else elem
    return Optional[tp] if kind.startswith("opt_") else tp


def _items(self) -> list[tuple[str, object]]:
    """(file key, value) pairs in sorted key order."""
    return sorted((key, getattr(self, attr)) for key, (attr, _) in KEY_SPECS.items())


ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [(attr, _annotation(kind)) for attr, kind in KEY_SPECS.values()],
    namespace={"__module__": __name__, "items": _items},
)


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

    # list values are copied, so no config shares one with the defaults or a preset
    merged = {key: _checked(key, value) for key, value in BASE_DEFAULTS.items()}
    scenario = file_values.get("scenario", merged["scenario"])
    if overrides and "scenario" in overrides:
        scenario = overrides["scenario"]
    if scenario not in SCENARIO_PRESETS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; pick one of {sorted(SCENARIO_PRESETS)}"
        )
    preset = SCENARIO_PRESETS[scenario]
    merged.update((key, _checked(key, value)) for key, value in preset.items())
    merged.update(file_values)
    if overrides:
        for key, value in overrides.items():
            if key not in KEY_SPECS:
                raise ConfigError(f"unknown override key {key!r}")
            merged[key] = _checked(key, value)
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
    for key, allowed in _ALLOWED.items():
        attr, kind = KEY_SPECS[key]
        value = getattr(cfg, attr)
        for name in value if kind.endswith("_list") else [value]:
            if name not in allowed:
                raise ConfigError(f"unknown {key} {name!r}; pick one of {allowed}")
    m = cfg.plants_count
    if m < 1:
        raise ConfigError("plants.count must be positive")
    if cfg.plants_a_values is not None and len(cfg.plants_a_values) != m:
        raise ConfigError("plants.a_values must list one value per plant")
    if cfg.channel_positions is not None and len(cfg.channel_positions) != 2 * m:
        raise ConfigError("channel.positions must list x y per plant")
    if cfg.constraint_kind == "sum_power" and cfg.constraint_power_budget is None:
        raise ConfigError("sum_power constraint needs constraint.power_budget")
    if not 1 <= cfg.alloc_n_active <= m:
        raise ConfigError(f"alloc.n_active must lie in [1, {m}]")
    if not 0.0 <= cfg.train_gamma <= 1.0:
        raise ConfigError("train.gamma must lie in [0, 1]")
    # Training would fail only later: a zero or negative std gives a
    # non-finite log-std, and the dual step is checked at the first episode end.
    for key in ("train.init_std", "train.dual_lr"):
        value = getattr(cfg, KEY_SPECS[key][0])
        if not value > 0:
            raise ConfigError(f"{key} must be positive, got {value!r}")
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
