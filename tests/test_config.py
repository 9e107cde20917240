"""Configuration layer tests: parsing, presets, precedence, hashing.

Proves:
  1.  key = value parsing with comments, lists, none, and bools
  2.  Unknown keys and malformed values raise ConfigError
  3.  Preset < file < override precedence
  4.  Auto-resolution: area half-width, power budget 25 m, simplex total, n_active
  5.  Validation rejects inconsistent settings, and every enum key names
      itself and the bad value; every numeric key states its bound in its
      table row unless it is one of the few with none; an override of the
      wrong kind names the key and its kind, configs share no list with
      the defaults, inf or nan in any float key or list entry is refused
      naming the key, and so is a repeated approach or baseline, naming it
  6.  config_lines round-trips through the parser for every preset, and
      load_config(text=...) reads an out_dir holding spaces and commas; a
      given string value holding `#` or a line break is refused, naming
      its key
  7.  config_hash ignores out_dir but tracks every experiment key; the
      preset hashes are pinned
  8.  cost_matrix expands scales and diagonals
  9.  Manifest contains hash, versions, the BLAS kernel, config, and
      extras; OPENBLAS_CORETYPE changes the kernel it names
"""
from __future__ import annotations

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import wcsrl
from wcsrl.config import (
    _TABLE,
    ConfigError,
    KEY_SPECS,
    _blas_kernel,
    config_hash,
    config_lines,
    cost_matrix,
    load_config,
    parse_config_text,
    write_manifest,
)


def test_parse_basics():
    text = """
    # a comment
    scenario = linear_power
    seed = 12          # trailing comment
    train.hidden = 64 32
    plants.a_values = 1.05, 1.1, 1.15
    eval.stochastic = true
    alloc.total = none
    """
    values = parse_config_text(text)
    assert values["scenario"] == "linear_power"
    assert values["seed"] == 12
    assert values["train.hidden"] == [64, 32]
    assert values["plants.a_values"] == [1.05, 1.1, 1.15]
    assert values["eval.stochastic"] is True
    assert values["alloc.total"] is None


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_config_text("bogus.key = 3")
    with pytest.raises(ConfigError):
        parse_config_text("seed = notanumber")
    with pytest.raises(ConfigError):
        parse_config_text("just words no equals")
    with pytest.raises(ConfigError):
        parse_config_text("seed =")


def test_precedence():
    cfg = load_config(
        text="scenario = linear_power\ntrain.episodes = 77",
        overrides={"train.episodes": 88, "seed": 4},
    )
    assert cfg.scenario == "linear_power"
    assert cfg.train_episodes == 88  # override beats file
    assert cfg.seed == 4
    assert cfg.plants_count == 10  # preset fills the rest
    cfg2 = load_config(text="scenario = linear_power\ntrain.episodes = 77")
    assert cfg2.train_episodes == 77  # file beats preset


def test_auto_resolution():
    cfg = load_config(overrides={"scenario": "linear_power", "plants.count": 8})
    assert cfg.channel_area_half_width == pytest.approx(2.0)  # m / 4
    assert cfg.alloc_total == pytest.approx(8.0)  # simplex cap = m
    assert cfg.alloc_n_active == 3  # round(8 / 3)
    cfg2 = load_config(overrides={"scenario": "linear_codesign", "plants.count": 6})
    assert cfg2.constraint_power_budget == pytest.approx(150.0)  # 25 m
    assert cfg2.channel_area_half_width == pytest.approx(2.0)  # m / 3
    # explicit values win over auto
    cfg3 = load_config(
        overrides={"scenario": "linear_power", "alloc.total": 5.0, "alloc.n_active": 2}
    )
    assert cfg3.alloc_total == 5.0
    assert cfg3.alloc_n_active == 2


@pytest.mark.parametrize("count", [1, 2, 7])
def test_sum_power_budget_defaults_to_25_per_plant(count):
    # an unset budget is always resolved, so no config reaches validation without one
    cfg = load_config(
        overrides={
            "scenario": "linear_power",
            "plants.count": count,
            "constraint.kind": "sum_power",
            "constraint.power_budget": None,
        }
    )
    assert cfg.constraint_power_budget == 25.0 * count


def test_validation_rejections():
    with pytest.raises(ConfigError):
        load_config(overrides={"scenario": "nope"})
    with pytest.raises(ConfigError):
        load_config(
            overrides={"scenario": "linear_power", "plants.a_values": [1.1, 1.1]}
        )  # wrong length for m=10
    with pytest.raises(ConfigError):
        load_config(overrides={"cost.q": [1.0, 2.0]})  # neither scale nor full diagonal
    with pytest.raises(ConfigError):
        load_config(overrides={"train.gamma": 1.5})
    # at 1 every per-step budget share is zero: learners and the equal
    # baseline sent no power and evaluation died on a zero power total
    with pytest.raises(ConfigError, match=re.escape("train.gamma must lie in [0, 1), got 1.0")):
        load_config(overrides={"train.gamma": 1.0})
    load_config(overrides={"train.gamma": 0.0})
    # a hidden size below one died in the network after config.txt was written
    for bad in ([0], [-3, 4]):
        with pytest.raises(ConfigError, match=re.escape("train.hidden must be positive")):
            load_config(overrides={"train.hidden": bad})
    positive = (
        "train.init_std",
        "train.dual_lr",
        "train.policy_lr",
        "train.value_lr",
        "train.pretrain_lr",
        "train.ceiling",
        "channel.fading_scale",
        "channel.min_distance",
        "channel.area_half_width",
        "constraint.region_half_width",
        # a zero power cap died in build_agents after config.txt was written
        "alloc.total",
        "constraint.power_budget",
    )
    for key in positive:
        for bad in (0.0, -0.5):
            with pytest.raises(ConfigError, match=re.escape(key)):
                load_config(overrides={key: bad})
    # unset optional keys still pass
    load_config(overrides={"alloc.total": None, "constraint.power_budget": None})
    # negative values were ignored silently or failed late, unnamed
    nonnegative = (
        "train.pretrain_iters",
        "train.warm_episodes",
        "train.entropy_coef",
        "train.grad_clip",
        "plants.process_noise",
        "plants.init_scale",
        "constraint.region_budget",
        "obs.noise",
        "obs.noise_channel",
        "obs.noise_plant",
        "channel.path_loss",
    )
    for key in nonnegative:
        bad = -3 if KEY_SPECS[key][1] == "int" else -0.5
        with pytest.raises(ConfigError, match=re.escape(key) + " must be nonnegative"):
            load_config(overrides={key: bad})
        load_config(overrides={key: 0})
    # cost weights: every entry, named here rather than in CostWeights
    for key, bad in (("cost.q", [1.0, -1.0, 1.0]), ("cost.r", [0.0]), ("cost.r", [1.0, -2.0, 1.0])):
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(overrides={"scenario": "linear_power", key: bad})
    load_config(overrides={"scenario": "linear_power", "cost.q": [0.0]})
    with pytest.raises(ConfigError, match=r"plants\.a_low 1\.2 exceeds plants\.a_high 1\.1"):
        load_config(overrides={"plants.a_low": 1.2, "plants.a_high": 1.1})
    # a repeated approach trained twice over its own artifacts; a repeated
    # baseline was evaluated once
    repeats = (
        ("train.approaches", ["alloc_lqr", "codesign", "alloc_lqr"], "alloc_lqr"),
        ("eval.baselines", ["equal", "equal"], "equal"),
    )
    for key, names, name in repeats:
        with pytest.raises(ConfigError, match=re.escape(f"{key} lists {name!r} more than once")):
            load_config(overrides={key: names})
    # counts: caught here, not after training (or, for eval.horizon = 0,
    # never: it wrote all-zero evaluation costs; a zero pretraining batch
    # ran NaN-loss pretraining)
    counts = (
        "train.episodes",
        "train.horizon",
        "train.workers",
        "train.segment",
        "train.pretrain_batch",
        "eval.horizon",
    )
    for key in counts:
        for bad in (0, -1):
            with pytest.raises(ConfigError, match=re.escape(key)):
                load_config(overrides={key: bad})
    # inf and nan passed the bounds, or had none, and failed late with no key
    # named (at step 0, in the Riccati iteration or in CostWeights)
    floats = [key for key, kind, *_ in _TABLE if "float" in kind]
    for key in floats:
        lists = "_list" in KEY_SPECS[key][1]
        for bad in (math.inf, -math.inf, math.nan):
            value = [1.1, bad, 1.1] if lists else bad
            overrides = {"scenario": "custom", "plants.count": 3, key: value}
            if key == "channel.positions":
                overrides[key] = [0.5] * 5 + [bad]
            with pytest.raises(ConfigError, match="^" + re.escape(key) + " must be finite, got "):
                load_config(overrides=overrides)
    with pytest.raises(ConfigError, match=r"^alloc\.total must be finite, got inf$"):
        load_config(text="alloc.total = inf")
    message = "plants.a_values must be finite, got [1.1, nan, 1.1]"
    with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
        load_config(text="plants.count = 3\nplants.a_values = 1.1 nan 1.1")


# numeric keys whose range is a relation between keys, or that take any value
UNBOUNDED = {
    "seed",
    "plants.count",
    "plants.a_low",
    "plants.a_high",
    "plants.a_values",
    "channel.positions",
    "alloc.n_active",
    "train.gamma",
}


def test_numeric_keys_state_their_bound():
    elem = lambda kind: kind.removeprefix("opt_").removesuffix("_list")
    numeric = [row for row in _TABLE if elem(row[1]) in ("int", "float")]
    assert UNBOUNDED <= {key for key, *_ in numeric}
    for key, _, _, *limit in numeric:
        assert limit in ([[]] if key in UNBOUNDED else [["positive"], ["nonnegative"]]), key


@pytest.mark.parametrize(
    "key, bad",
    [
        ("plants.family", "quadrotor"),
        ("plants.init", "sideways"),
        ("constraint.kind", "peak_power"),
        ("alloc.head", "sigmoid"),
        ("train.optimizer", "adam"),
        ("train.approaches", ["alloc_lqr", "mystery"]),
        ("eval.baselines", ["equal", "psychic"]),
    ],
)
def test_enum_key_rejections(key, bad):
    with pytest.raises(ConfigError, match=re.escape(key)) as err:
        load_config(overrides={key: bad})
    wrong = bad[-1] if isinstance(bad, list) else bad
    assert repr(wrong) in str(err.value)


@pytest.mark.parametrize(
    "key, kind, bad",
    [
        ("seed", "int", 1.5),
        ("seed", "int", True),  # a bool is no int
        ("train.init_std", "float", "abc"),
        ("out_dir", "str", 7),
        ("eval.stochastic", "bool", 1),
        ("cost.q", "float_list", 2.0),
        ("train.hidden", "int_list", [64, 6.4]),
        ("train.approaches", "str_list", "codesign"),
        ("plants.a_values", "opt_float_list", ["1.1"]),
        ("alloc.total", "opt_float", "4"),
        ("alloc.n_active", "opt_int", 2.0),
    ],
)
def test_override_kind_rejections(key, kind, bad):
    with pytest.raises(ConfigError, match=re.escape(f"{key}: expected kind {kind}, got {bad!r}")):
        load_config(overrides={key: bad})


def test_override_kinds_accepted():
    cfg = load_config(overrides={"train.init_std": 1, "train.hidden": (8, 8), "alloc.total": None})
    assert cfg.train_init_std == 1  # an int serves a float key
    assert cfg.train_hidden == [8, 8]
    assert cfg.alloc_total == 2.0  # None resolves as the default does


def test_configs_share_no_lists():
    load_config().train_hidden.append(1)
    load_config(overrides={"scenario": "linear_power"}).eval_baselines.append("zero")
    given = [32, 32]
    cfg = load_config(overrides={"train.hidden": given})
    given.append(1)
    assert load_config().train_hidden == [64, 64]
    assert "zero" not in load_config(overrides={"scenario": "linear_power"}).eval_baselines
    assert cfg.train_hidden == [32, 32]


@pytest.mark.parametrize(
    "scenario", ["linear_power", "linear_codesign", "cartpole_codesign", "custom"]
)
def test_config_lines_roundtrip(scenario):
    cfg = load_config(overrides={"scenario": scenario, "seed": 9})
    reparsed = parse_config_text("\n".join(config_lines(cfg)))
    cfg2 = load_config(overrides=reparsed)
    assert config_lines(cfg) == config_lines(cfg2)
    assert config_hash(cfg) == config_hash(cfg2)


@pytest.mark.parametrize("out_dir", ["runs/my run,1", "a, b ,c", "x = y"])
def test_string_value_is_the_whole_right_hand_side(out_dir):
    cfg = load_config(overrides={"scenario": "linear_power", "out_dir": out_dir})
    cfg2 = load_config(text="\n".join(config_lines(cfg)))
    assert cfg2.out_dir == out_dir
    assert config_hash(cfg2) == config_hash(cfg)
    # a comment still ends the value, and lists still split at commas
    values = parse_config_text("out_dir =  runs/a b  # note\ntrain.hidden = 8,4")
    assert values["out_dir"] == "runs/a b" and values["train.hidden"] == [8, 4]
    # an empty list, which config_lines writes as nothing, reads back
    assert parse_config_text("eval.baselines =") == {"eval.baselines": []}


@pytest.mark.parametrize("key", ["out_dir", "plants.init"])
def test_given_string_value_must_read_back_whole(key):
    # written to config.txt, "runs/a#b" would read back as "runs/a", and
    # "runs/a\neval.tests = 1" would also set eval.tests
    with pytest.raises(ConfigError, match=re.escape(f"{key}: '#' starts a comment")):
        load_config(overrides={key: "runs/a#b"})
    for text in ("runs/a\neval.tests = 1", "runs/a\r", "runs/a\u2028b"):
        with pytest.raises(ConfigError, match=re.escape(f"{key}: a line break ends a value")):
            load_config(overrides={key: text})


@pytest.mark.parametrize(
    "scenario, digest",
    [
        ("linear_power", "8ebbf7c0edccbdce"),
        ("linear_codesign", "4bd54feae7979499"),
        ("cartpole_codesign", "49c20c7585161caa"),
        ("custom", "7d4a35d1fd5b5e50"),
    ],
)
def test_preset_hashes_pinned(scenario, digest):
    # Recorded before the keys moved into one table; any change to a key,
    # kind, default or value formatting moves the hash of some preset.
    assert config_hash(load_config(overrides={"scenario": scenario, "seed": 0})) == digest


def test_config_hash_semantics():
    cfg = load_config(overrides={"scenario": "linear_power", "seed": 1})
    same = load_config(
        overrides={"scenario": "linear_power", "seed": 1, "out_dir": "elsewhere"}
    )
    assert config_hash(cfg) == config_hash(same)  # placement does not matter
    other_seed = load_config(overrides={"scenario": "linear_power", "seed": 2})
    assert config_hash(cfg) != config_hash(other_seed)
    other_lr = load_config(
        overrides={"scenario": "linear_power", "seed": 1, "train.policy_lr": 1e-3}
    )
    assert config_hash(cfg) != config_hash(other_lr)
    assert len(config_hash(cfg)) == 16


def test_cost_matrix():
    assert np.array_equal(cost_matrix([2.0], 3), 2.0 * np.eye(3))
    assert np.array_equal(cost_matrix([0.1, 0.0, 1.0, 0.0], 4), np.diag([0.1, 0.0, 1.0, 0.0]))


def test_manifest_contents(tmp_path):
    cfg = load_config(overrides={"scenario": "linear_power", "seed": 3})
    path = tmp_path / "manifest.txt"
    write_manifest(str(path), cfg, extras={"train.alloc_lqr.wall_seconds": 12.5})
    text = path.read_text()
    assert f"config_hash = {config_hash(cfg)}" in text
    assert "numpy_version =" in text
    assert "blas =" in text
    assert f"blas_kernel = {_blas_kernel()}\n" in text
    assert "seed = 3" in text
    assert "train.alloc_lqr.wall_seconds = 12.5" in text


def test_manifest_names_the_kernel_openblas_runs(tmp_path):
    if _blas_kernel() == "unknown":
        pytest.skip("NumPy's BLAS does not report its OpenBLAS kernel")
    # the child imports the same wcsrl as this process, installed or not
    src = os.path.dirname(os.path.dirname(wcsrl.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    manifest = tmp_path / "manifest.txt"
    code = "import sys; from wcsrl import config; "
    code += "config.write_manifest(sys.argv[1], config.load_config())"
    subprocess.run(
        [sys.executable, "-c", code, str(manifest)],
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "Haswell"},
    )
    assert "blas_kernel = Haswell\n" in manifest.read_text()
