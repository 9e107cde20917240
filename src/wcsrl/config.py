"""Experiment configuration: a flat key-value text format with dotted
section keys, scenario presets, and the run manifest.

A config file looks like

    scenario = linear_power
    seed = 7
    plants.count = 4
    train.episodes = 1000
    train.hidden = 64 64

`#` starts a comment and a line break ends a value, so a value given as
an override or on the command line may hold neither. A list value splits
at spaces and commas, and an empty one is an empty list; a string key
(`out_dir`, `scenario`, ...) reads its whole right-hand side, stripped,
as one value, so a path may hold spaces or commas.

Every key is declared once, as one row of `_TABLE`: its file key, value
kind, default and its limit: the allowed values of an enum key, or the
bound "positive" or "nonnegative" of a numeric one. `KEY_SPECS`,
`BASE_DEFAULTS`, the `ExperimentConfig` attributes and the enum and bound
checks are all derived from those rows, so adding a key means adding one
row. Every float value and list entry must also be finite.

Scenario presets fill in everything not stated; file values override
presets; command-line overrides beat both. Unknown keys are an error.
"""
from __future__ import annotations

import ctypes
import hashlib
import math
import operator
from dataclasses import make_dataclass
from typing import Optional

import numpy as np

import wcsrl
from wcsrl import baselines, learner


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


def check_line_value(key: str, text: str) -> None:
    """ConfigError naming key when text would not read back whole from a
    config line: a `#` would start a comment, a line break a new line."""
    if "#" in text:
        raise ConfigError(f"{key}: '#' starts a comment in config text, got {text!r}")
    if text and text.splitlines() != [text]:
        raise ConfigError(f"{key}: a line break ends a value in config text, got {text!r}")


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
        if elem == "str":
            check_line_value(key, value)
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


# One row per config key: (file key, kind, default[, limit]).
# The attribute name is the key with its dot made an underscore. A kind is
# int, float, str or bool, or one of those with "_list" for a list of them;
# an "opt_" prefix lets "none" read as None, which _resolve fills in for
# some keys. The limit is an enum key's tuple of allowed values, or a
# numeric key's bound, "positive" or "nonnegative", held by every entry of
# a list; None (an unset optional key) passes. Each bound stops a value
# that would otherwise be ignored silently or fail later with no key named:
# a bad horizon or episode count only after training, eval.horizon = 0 by
# writing all-zero evaluation costs, a zero pretraining batch by NaN-loss
# pretraining that does nothing, a zero or negative std by a non-finite
# log-std, a zero power cap once config.txt is written, a negative
# path-loss exponent by gains that grow with distance, a hidden size below
# one by a network error naming no key. Adding a key means adding one row.
_TABLE: tuple[tuple, ...] = (
    ("scenario", "str", "custom"),
    ("seed", "int", 0),
    ("out_dir", "str", "runs/out"),
    ("plants.count", "int", 2),
    ("plants.family", "str", "random_triangular", ("random_triangular", "fixed_mixed", "cartpole")),
    ("plants.a_low", "float", 1.05),
    ("plants.a_high", "float", 1.15),
    ("plants.a_values", "opt_float_list", None),
    ("plants.process_noise", "float", 0.1, "nonnegative"),
    ("plants.init", "str", "normal", ("normal", "uniform", "zero")),
    ("plants.init_scale", "float", 1.0, "nonnegative"),
    ("channel.path_loss", "float", 2.0, "nonnegative"),
    ("channel.fading_scale", "float", 1.0, "positive"),
    ("channel.area_half_width", "opt_float", None, "positive"),
    ("channel.min_distance", "float", 0.1, "positive"),
    ("channel.positions", "opt_float_list", None),
    ("cost.q", "float_list", [1.0], "nonnegative"),
    ("cost.r", "float_list", [1.0], "positive"),
    ("constraint.kind", "str", "region", ("sum_power", "region", "none")),
    ("constraint.power_budget", "opt_float", None, "positive"),
    ("constraint.region_half_width", "float", 15.0, "positive"),
    ("constraint.region_budget", "float", 5.0, "nonnegative"),
    ("alloc.head", "str", "simplex", ("simplex", "softplus")),
    ("alloc.total", "opt_float", None, "positive"),
    ("alloc.n_active", "opt_int", None),
    ("obs.noise", "float", 1.0, "nonnegative"),
    ("obs.noise_channel", "opt_float", None, "nonnegative"),
    ("obs.noise_plant", "opt_float", None, "nonnegative"),
    ("train.approaches", "str_list", ["alloc_lqr"], tuple(learner.APPROACHES)),
    ("train.episodes", "int", 200, "positive"),
    ("train.horizon", "int", 100, "positive"),
    ("train.workers", "int", 16, "positive"),
    ("train.segment", "int", 5, "positive"),
    ("train.gamma", "float", 0.99),
    ("train.policy_lr", "float", 5e-4, "positive"),
    ("train.value_lr", "float", 5e-4, "positive"),
    ("train.dual_lr", "float", 1e-4, "positive"),
    ("train.optimizer", "str", "rmsprop", ("sgd", "rmsprop")),
    ("train.entropy_coef", "float", 0.0, "nonnegative"),
    ("train.grad_clip", "float", 0.5, "nonnegative"),
    ("train.hidden", "int_list", [64, 64], "positive"),
    ("train.init_std", "float", 0.5, "positive"),
    ("train.pretrain_iters", "int", 0, "nonnegative"),
    ("train.pretrain_lr", "float", 1e-2, "positive"),
    ("train.pretrain_batch", "int", 64, "positive"),
    ("train.warm_episodes", "int", 0, "nonnegative"),
    ("train.ceiling", "float", 1e12, "positive"),
    ("eval.tests", "int", 10, "positive"),
    ("eval.group", "int", 10, "positive"),
    ("eval.horizon", "int", 120, "positive"),
    ("eval.stochastic", "bool", False),
    ("eval.baselines", "str_list", ["equal", "round_robin", "channel_aware", "control_aware"],
     ("equal", "round_robin", "channel_aware", "control_aware", "all_on", "zero")),
)

# file key -> (attribute, kind)
KEY_SPECS: dict[str, tuple[str, str]] = {
    key: (key.replace(".", "_"), kind) for key, kind, *_ in _TABLE
}
BASE_DEFAULTS: dict[str, object] = {key: default for key, _, default, *_ in _TABLE}
# file key -> limit, for the keys that state one
_LIMITS: dict[str, tuple | str] = {key: rest[0] for key, _, _, *rest in _TABLE if rest}
_BOUNDS = {"positive": operator.gt, "nonnegative": operator.ge}

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
        key, value = key.strip(), rhs.strip()
        if key not in KEY_SPECS:
            unknown.append(key)
            continue
        _, kind = KEY_SPECS[key]
        if not value and not kind.endswith("_list"):
            raise ConfigError(f"line {lineno}: no value for {key}")
        tokens = [value] if kind == "str" else value.replace(",", " ").split()
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
    m = cfg.plants_count
    if m < 1:
        raise ConfigError("plants.count must be positive")
    for key, (attr, kind) in KEY_SPECS.items():
        value = getattr(cfg, attr)
        entries = value if kind.endswith("_list") else [value]
        # inf or nan would pass a bound and fail late, naming no key
        if "float" in kind and value is not None and not all(map(math.isfinite, entries)):
            raise ConfigError(f"{key} must be finite, got {value!r}")
        limit = _LIMITS.get(key)
        if limit is None:
            continue
        if isinstance(limit, tuple):
            for i, name in enumerate(entries):
                if name not in limit:
                    raise ConfigError(f"unknown {key} {name!r}; pick one of {limit}")
                # a repeat would train twice over its own artifacts, or evaluate once
                if name in entries[:i]:
                    raise ConfigError(f"{key} lists {name!r} more than once")
        elif value is not None and not all(_BOUNDS[limit](v, 0) for v in entries):
            raise ConfigError(f"{key} must be {limit}, got {value!r}")
    if cfg.plants_a_values is not None and len(cfg.plants_a_values) != m:
        raise ConfigError("plants.a_values must list one value per plant")
    if cfg.channel_positions is not None and len(cfg.channel_positions) != 2 * m:
        raise ConfigError("channel.positions must list x y per plant")
    if not 1 <= cfg.alloc_n_active <= m:
        raise ConfigError(f"alloc.n_active must lie in [1, {m}]")
    # at 1 every per-step budget share (1 - gamma) * budget is zero
    if not 0.0 <= cfg.train_gamma < 1.0:
        raise ConfigError(f"train.gamma must lie in [0, 1), got {cfg.train_gamma!r}")
    if cfg.plants_a_low > cfg.plants_a_high:
        raise ConfigError(
            f"plants.a_low {cfg.plants_a_low!r} exceeds plants.a_high {cfg.plants_a_high!r}"
        )
    if len(cfg.cost_q) not in (1, _state_dim(cfg)):
        raise ConfigError(
            f"cost.q must be a scale or {_state_dim(cfg)} diagonal entries, got {len(cfg.cost_q)}"
        )
    if len(cfg.cost_r) not in (1, _input_dim(cfg)):
        raise ConfigError(
            f"cost.r must be a scale or {_input_dim(cfg)} diagonal entries, got {len(cfg.cost_r)}"
        )


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


def _blas_info() -> str:
    """Name and version of the BLAS NumPy was built against; the bitwise
    reproducibility claims hold per BLAS build and kernel."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


def _blas_kernel() -> str:
    """The OpenBLAS kernel NumPy's BLAS runs on this CPU (OPENBLAS_CORETYPE
    overrides the pick), read from the library NumPy loaded; "unknown" where
    that library or its symbol is absent."""
    try:
        # symbols of the libraries an extension module links are found through its handle
        corename = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def write_manifest(path: str, cfg: ExperimentConfig, extras: Optional[dict] = None) -> None:
    """Write the resolved run manifest: config, hash, versions, and any extra
    records (placements, sampled plant parameters, wall time)."""
    lines = [
        "# run manifest",
        f"config_hash = {config_hash(cfg)}",
        f"package_version = {wcsrl.__version__}",
        f"numpy_version = {np.__version__}",
        f"blas = {_blas_info()}",
        f"blas_kernel = {_blas_kernel()}",
        "",
    ]
    lines.extend(config_lines(cfg))
    if extras:
        lines.append("")
        for key in sorted(extras):
            lines.append(f"{key} = {_format_value(extras[key])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
