"""Configuration layer tests: parsing, presets, precedence, hashing.

Proves:
  1.  key = value parsing with comments, lists, none, and bools
  2.  Unknown keys and malformed values raise ConfigError
  3.  Preset < file < override precedence
  4.  Auto-resolution: area half-width, power budget 25 m, simplex total, n_active
  5.  Validation rejects inconsistent settings, and every enum key names
      itself and the bad value; an override of the wrong kind names the
      key and its kind, and configs share no list with the defaults
  6.  config_lines round-trips through the parser for every preset
  7.  config_hash ignores out_dir but tracks every experiment key; the
      preset hashes are pinned
  8.  cost_matrix expands scales and diagonals
  9.  Manifest contains hash, versions, config, and extras
"""
from __future__ import annotations

import re

import numpy as np
import pytest

from wcsrl.config import (
    ConfigError,
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
    for key in ("train.init_std", "train.dual_lr"):
        for bad in (0.0, -0.5):
            with pytest.raises(ConfigError, match=re.escape(key)):
                load_config(overrides={key: bad})


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
    assert "seed = 3" in text
    assert "train.alloc_lqr.wall_seconds = 12.5" in text
