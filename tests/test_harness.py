"""Orchestration tests: scenario building, evaluation, artifacts, CLI.

Proves:
 Group 1: Scenario assembly
   1.  Seeded scenario build is repeatable and honors pinned values
   2.  Observation noise vector uses the block overrides
   3.  Cart-pole scenario wires force bounds and a shared Riccati gain
 Group 2: Evaluation semantics
   4.  Quiet system and zero policy give exactly zero cost
   5.  Identical policies under paired seeds score identically
   6.  Equal power beats no power on unstable plants
   7.  The divergence sentinel trips and saturates the recorded cost
   8.  rollout's statistics equal the np.linalg.norm / numpy-scalar oracle
       bitwise: on normal cells, on their starts rescaled to joint norm 0.1
       (gate 10's small starts, whose peak is rollout's max_norm), on starts
       part way through the tape and with no step left (cost 0.0, zero
       signals, not diverged), on a cell that diverges and on one whose
       state turns NaN; the oracle charges step by step, rollout once
   8b. The same on the up-front path, where a state-free allocation and the
       delivery lottery come before the first step: the allocator runs once
       per episode, the eval.stochastic control_only policy and a forced
       divergence match the oracle, and a bad allocation fails before the
       first step naming its step, where the per-step path names it too
 Group 3: Artifacts and round trips
   9.  run_experiment writes config, logs, checkpoints, evaluation, manifest;
       the learned approaches are evaluated first, then the baselines
  10.  Training logs and evaluation are bitwise repeatable across reruns
  11.  evaluate_run reproduces the stored evaluation byte for byte, also in a
       run directory whose path holds a space and a comma, and every
       evaluation.csv cell is the report's statistic
  11b. run_experiment on three approaches, and evaluate_run, each build
       one environment and one Riccati controller; evaluate_run builds each
       network once, and loads the checkpoints into those networks
  12.  save/load round-trips every approach's agents into fresh networks,
       bitwise for every network and stacked member, and returns the
       networks it was given; each per-plant checkpoint holds the bytes a
       standalone copy of its member saves to
  13.  evaluate_run names the checkpoint, field and values on a config mismatch
       of an actor or a critic, and both file lists when a checkpoint is
       stray or missing
  14.  Pretraining and warm-up train under a region constraint, which sets
       no power budget
  15.  Each approach trains the actors learner.APPROACHES says, with every
       HeadSpec field and checkpoint file name pinned
 Group 4: Command line
  16.  train/evaluate/baselines/gradcheck all exit zero on a tiny run
  17.  Config errors exit 2 with a one-line message, a non-finite value too
"""
from __future__ import annotations

import collections
import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import wcsrl
from wcsrl import config as config_mod
from wcsrl import harness, learner, neuralnet, policies
from wcsrl.dynamics import control_bounds
from wcsrl.environment import WirelessControlEnv
from wcsrl.learner import TrainedAgents
import oracles

TINY = {
    "plants.count": 2,
    "train.episodes": 3,
    "train.horizon": 10,
    "train.workers": 2,
    "train.pretrain_iters": 5,
    "eval.tests": 2,
    "eval.group": 2,
    "eval.horizon": 12,
}


def tiny_config(out_dir, **extra):
    overrides = {"scenario": "linear_power", "seed": 5, "out_dir": str(out_dir)}
    overrides.update(TINY)
    overrides.update(extra)
    return config_mod.load_config(overrides=overrides)


# Group 1 -------------------------------------------------------------------


def test_scenario_build_repeatable_and_pinnable(tmp_path):
    cfg = tiny_config(tmp_path)
    b1 = harness.build_scenario(cfg)
    b2 = harness.build_scenario(cfg)
    assert np.array_equal(b1.positions, b2.positions)
    assert np.array_equal(b1.a_values, b2.a_values)
    assert np.all(b1.a_values >= 1.05) and np.all(b1.a_values <= 1.15)
    assert np.all(b1.distances >= cfg.channel_min_distance)

    pinned = tiny_config(
        tmp_path,
        **{"plants.a_values": [1.07, 1.12], "channel.positions": [1.0, 0.0, 0.0, 2.0]},
    )
    b3 = harness.build_scenario(pinned)
    assert np.allclose(b3.a_values, [1.07, 1.12], atol=1e-15)
    assert np.allclose(b3.distances, [1.0, 2.0], atol=1e-15)


def test_obs_noise_blocks(tmp_path):
    cfg = tiny_config(tmp_path, **{"obs.noise": 1.0, "obs.noise_channel": 4.0})
    b = harness.build_scenario(cfg)
    variances = np.square(b.env._obs_noise_std)
    assert np.allclose(variances[:2], 4.0, atol=1e-15)
    assert np.allclose(variances[2:], 1.0, atol=1e-15)
    assert variances.shape == (2 * (1 + 3),)


def test_cartpole_scenario_wiring(tmp_path):
    cfg = config_mod.load_config(
        overrides={"scenario": "cartpole_codesign", "seed": 1, "plants.count": 2}
    )
    b = harness.build_scenario(cfg)
    assert control_bounds(b.env.plants[0].kind) == (-10.0, 10.0)
    assert control_bounds("linear") == (None, None)
    assert (b.env.state_dim, b.env.input_dim) == (4, 1)
    assert len(b.lqr_gains) == 2
    assert np.array_equal(b.lqr_gains[0], b.lqr_gains[1])
    # the clipped Riccati controller respects the actuator interval
    ctrl = b.controller
    obs = type("O", (), {})()
    from wcsrl.environment import Observation

    big = Observation(channel=np.ones(2), plant=np.full((2, 4), 5.0))
    u = ctrl(big, 0)
    assert np.array_equal(u, np.full((2, 1), 10.0))


# Group 2 -------------------------------------------------------------------


def quiet_bundle(tmp_path, a=1.1, **extra):
    cfg = tiny_config(
        tmp_path,
        **{
            "plants.a_values": [a, a],
            "plants.process_noise": 0.0,
            "plants.init": "zero",
            "obs.noise": 0.0,
            **extra,
        },
    )
    return cfg, harness.build_scenario(cfg)


def test_zero_system_zero_cost(tmp_path):
    _, bundle = quiet_bundle(tmp_path, **{"eval.horizon": 8})
    policy = policies.HeuristicPolicy(
        policies.zero_allocator(2), policies.zero_controller(2, 3)
    )
    report = harness.evaluate(bundle, {"zero": policy})
    assert np.array_equal(report.costs["zero"], np.zeros((2, 2)))
    assert not report.diverged["zero"].any()
    # region budget accrues negatively when the state never leaves the box
    assert np.all(report.signals["zero"] < 0)


def test_paired_seeds_identical_policies(tmp_path):
    cfg = tiny_config(tmp_path, **{"eval.group": 3, "eval.horizon": 10})
    bundle = harness.build_scenario(cfg)
    mk = lambda: policies.HeuristicPolicy(
        policies.heuristic_allocator("equal", cfg), bundle.controller
    )
    report = harness.evaluate(bundle, {"a": mk(), "b": mk()})
    assert np.array_equal(report.costs["a"], report.costs["b"])
    assert np.array_equal(report.signals["a"], report.signals["b"])
    # and the whole evaluation is repeatable
    again = harness.evaluate(bundle, {"a": mk()})
    assert np.array_equal(report.costs["a"], again.costs["a"])


def test_equal_power_beats_none(tmp_path):
    cfg = tiny_config(
        tmp_path,
        **{
            "plants.a_values": [1.1, 1.1],
            "obs.noise": 0.0,
            "eval.tests": 3,
            "eval.group": 3,
            "eval.horizon": 30,
        },
    )
    bundle = harness.build_scenario(cfg)
    ctrl = bundle.controller
    report = harness.evaluate(
        bundle,
        {
            "equal": policies.HeuristicPolicy(policies.heuristic_allocator("equal", cfg), ctrl),
            "silent": policies.HeuristicPolicy(policies.zero_allocator(2), ctrl),
        },
    )
    assert report.overall_mean("equal") < report.overall_mean("silent")


def test_divergence_sentinel(tmp_path):
    # spectral radius 3 with no delivered inputs: the state passes 1e12
    # within ~26 steps and the rollout aborts with a saturated cost
    cfg = tiny_config(
        tmp_path,
        **{
            "plants.a_values": [3.0, 3.0],
            "plants.init": "normal",
            "eval.tests": 1,
            "eval.horizon": 60,
        },
    )
    bundle = harness.build_scenario(cfg)
    policy = policies.HeuristicPolicy(
        policies.zero_allocator(2), policies.zero_controller(2, 3)
    )
    report = harness.evaluate(bundle, {"runaway": policy})
    assert report.diverged["runaway"].all()
    assert np.array_equal(
        report.costs["runaway"], np.full((1, 2), harness.DIVERGENCE_COST)
    )
    assert np.all(report.max_norms["runaway"] > harness.DIVERGENCE_LIMIT)


def same_stats(got, want):
    """Bitwise equality of two RolloutStats, float types included."""
    return (
        type(got.cost) is type(want.cost) is float
        and np.float64(got.cost).tobytes() == np.float64(want.cost).tobytes()
        and got.signals.tobytes() == want.signals.tobytes()
        and np.float64(got.max_norm).tobytes() == np.float64(want.max_norm).tobytes()
        and got.diverged == want.diverged
    )


def test_rollout_matches_oracle(tmp_path):
    cfg = tiny_config(tmp_path, **{"plants.count": 4, "eval.horizon": 30})
    bundle = harness.build_scenario(cfg)
    eval_policies = harness.baseline_policies(bundle)
    env = bundle.env
    for seed in range(3):
        start = env.reset(cfg.eval_horizon, np.random.default_rng(seed))
        small = dataclasses.replace(start, x=start.x * (0.1 / np.linalg.norm(start.x)))
        # a start part way through the tape, and one with no step left
        later = dataclasses.replace(start, t=11)
        done = dataclasses.replace(start, t=cfg.eval_horizon)
        for name, policy in eval_policies.items():
            for begin in (start, small, later, done):
                got = harness.rollout(env, begin, policy, np.random.default_rng(0))
                want = oracles.rollout(env, begin, policy, np.random.default_rng(0))
                assert not got.diverged and same_stats(got, want), (seed, name, begin.t)
            got = harness.rollout(env, done, policy, np.random.default_rng(0))
            assert got.cost == 0.0 and not got.diverged
            assert got.signals.shape == (bundle.env.m,) and not got.signals.any()

    # an unstable plant left open loop passes the divergence limit mid-episode
    cfg = tiny_config(tmp_path, **{"plants.a_values": [3.0, 3.0], "eval.horizon": 60})
    bundle = harness.build_scenario(cfg)
    runaway = policies.HeuristicPolicy(policies.zero_allocator(2), policies.zero_controller(2, 3))
    env = bundle.env
    start = env.reset(cfg.eval_horizon, np.random.default_rng(1))
    got = harness.rollout(env, start, runaway, np.random.default_rng(0))
    assert got.diverged and got.cost == harness.DIVERGENCE_COST
    assert same_stats(got, oracles.rollout(env, start, runaway, np.random.default_rng(0)))

    # an infinite entry meets a zero of the drift matrix: the next state is NaN
    start = dataclasses.replace(start, x=np.where(np.eye(2, 3) > 0, np.inf, 1.0))
    zero_action = runaway.act(env.observe(start), 0, None)
    assert np.isnan(env.step(start, zero_action).next_state.x).any()
    got = harness.rollout(env, start, runaway, np.random.default_rng(0))
    assert got.diverged and got.max_norm == np.inf
    assert same_stats(got, oracles.rollout(env, start, runaway, np.random.default_rng(0)))


def counted(allocator):
    """allocator, marked state-free, counting its calls in .calls."""

    def fn(obs, t):
        fn.calls += 1
        return allocator(obs, t)

    fn.calls, fn.state_free = 0, True
    return fn


def up_front(policy, start):
    channels = start.tape.channel[start.t :]
    return policies.episode_allocations(policy, channels, start.t) is not None


def test_up_front_rollout_matches_oracle(tmp_path):
    cfg = tiny_config(tmp_path, **{"plants.count": 4, "eval.horizon": 30})
    bundle = harness.build_scenario(cfg)
    env = bundle.env
    agents = learner.build_agents(env, cfg, "control_only", np.random.default_rng(3))
    candidates = {
        **harness.baseline_policies(bundle),
        "control_only": harness.eval_policy_for(bundle, "control_only", agents, stochastic=True),
    }
    start = env.reset(1, np.random.default_rng(7))
    which = {name: up_front(p, start) for name, p in candidates.items()}
    assert which == {"equal": True, "round_robin": True, "channel_aware": True,
                     "control_aware": False, "all_on": True, "control_only": True}
    for seed in range(3):
        start = env.reset(cfg.eval_horizon, np.random.default_rng(seed))
        later = dataclasses.replace(start, t=11)
        for name, policy in candidates.items():
            for begin in (start, later):
                got = harness.rollout(env, begin, policy, np.random.default_rng(seed))
                want = oracles.rollout(env, begin, policy, np.random.default_rng(seed))
                assert not got.diverged and same_stats(got, want), (seed, name, begin.t)

    # the allocator runs once per episode, not once per step
    rr = counted(policies.heuristic_allocator("round_robin", cfg))
    policy = policies.HeuristicPolicy(rr, bundle.controller)
    harness.rollout(env, start, policy, None)
    assert rr.calls == 1

    # a forced divergence, from a state that passes the limit and from one that turns NaN
    cfg = tiny_config(tmp_path, **{"plants.a_values": [3.0, 3.0], "eval.horizon": 60})
    bundle = harness.build_scenario(cfg)
    runaway = policies.HeuristicPolicy(
        policies.make_allocator("zero", 2, 1, 1.0), policies.zero_controller(2, 3)
    )
    env = bundle.env
    start = env.reset(cfg.eval_horizon, np.random.default_rng(1))
    nan_start = dataclasses.replace(start, x=np.where(np.eye(2, 3) > 0, np.inf, 1.0))
    for begin in (start, nan_start):
        assert up_front(runaway, begin)
        got = harness.rollout(env, begin, runaway, None)
        assert got.diverged and got.cost == harness.DIVERGENCE_COST
        assert same_stats(got, oracles.rollout(env, begin, runaway, None))

    # a negative allocation at step 7 fails before the first step, naming step 7
    def bad(obs, t):
        return np.where((np.asarray(t) == 7)[..., None], -1.0, 1.0) * np.ones(2)

    bad_policy = policies.HeuristicPolicy(bad, bundle.controller)
    with pytest.raises(ValueError, match="^step 7: negative allocation: min entry -1.000e"):
        harness.rollout(env, start, bad_policy, None)
    bad.state_free = True
    with pytest.raises(ValueError, match="^step 7: negative allocation: min entry -1.000e"):
        harness.rollout(env, dataclasses.replace(start, x=start.x * 1e20), bad_policy, None)


# Group 3 -------------------------------------------------------------------


def test_run_experiment_artifacts(tmp_path):
    cfg = tiny_config(tmp_path / "run")
    result = harness.run_experiment(cfg)
    out = tmp_path / "run"
    for name in ("config.txt", "manifest.txt", "evaluation.csv", "training_log_alloc_lqr.csv"):
        assert (out / name).exists()
    log_lines = (out / "training_log_alloc_lqr.csv").read_text().splitlines()
    assert log_lines[0].startswith("# seed = 5, config_hash = ")
    assert log_lines[1].split(",")[:2] == ["episode", "lagrangian"]
    assert len(log_lines) == 2 + cfg.train_episodes
    manifest = (out / "manifest.txt").read_text()
    assert "train.alloc_lqr.wall_seconds" in manifest
    assert "scenario.a_values" in manifest
    # checkpoints reload into fresh networks
    trained = result.trained["alloc_lqr"]
    fresh = learner.build_agents(result.bundle.env, cfg, "alloc_lqr", None)
    agents = harness.load_agents(str(out / "checkpoints" / "alloc_lqr"), fresh)
    assert np.array_equal(agents.actor.get_flat(), trained.actor.get_flat())
    # learned approaches first, then the baselines, in evaluation.csv's row order too
    labels = ["alloc_lqr", *cfg.eval_baselines]
    assert "equal" in labels and list(result.report.costs) == labels
    rows = (out / "evaluation.csv").read_text().splitlines()[2:]
    assert [row.split(",")[0] for row in rows[:: cfg.eval_tests]] == labels


def test_rerun_bitwise_identical(tmp_path):
    cfg_a = tiny_config(tmp_path / "a")
    cfg_b = tiny_config(tmp_path / "b")
    harness.run_experiment(cfg_a)
    harness.run_experiment(cfg_b)
    for name in ("training_log_alloc_lqr.csv", "evaluation.csv", "config.txt"):
        bytes_a = (tmp_path / "a" / name).read_bytes()
        bytes_b = (tmp_path / "b" / name).read_bytes()
        if name == "config.txt":
            # config differs only in the out_dir line
            keep = lambda text: [
                ln for ln in text.decode().splitlines() if not ln.startswith("out_dir")
            ]
            assert keep(bytes_a) == keep(bytes_b)
        else:
            assert bytes_a == bytes_b


def test_evaluate_run_reproduces(tmp_path):
    cfg = tiny_config(tmp_path / "run")
    harness.run_experiment(cfg)
    first = (tmp_path / "run" / "evaluation.csv").read_bytes()
    harness.evaluate_run(str(tmp_path / "run"))
    assert (tmp_path / "run" / "evaluation.csv").read_bytes() == first


def test_evaluate_run_in_a_path_with_space_and_comma(tmp_path):
    run = tmp_path / "my run,1"
    harness.run_experiment(tiny_config(run))
    first = (run / "evaluation.csv").read_bytes()
    assert harness.evaluate_run(str(run)).cfg.out_dir == str(run)
    assert (run / "evaluation.csv").read_bytes() == first


def test_each_run_object_is_built_once(tmp_path, monkeypatch):
    built = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            built[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for owner, attr, name in (
        (WirelessControlEnv, "__init__", "env"),
        (policies, "riccati_controller", "riccati"),
        (neuralnet.MLP, "__init__", "network"),
    ):
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    approaches = ["codesign", "control_only", "alloc_lqr"]
    cfg = tiny_config(
        tmp_path / "run",
        **{"scenario": "linear_codesign", "plants.count": 3, "train.approaches": approaches},
    )
    harness.run_experiment(cfg)
    assert built["env"] == 1 and built["riccati"] == 1
    built.clear()
    harness.evaluate_run(str(tmp_path / "run"))
    # actor and critic networks: codesign's access-point pair and 3 per-plant
    # pairs, control_only's 3 per-plant pairs and alloc_lqr's one pair
    assert built == {"env": 1, "riccati": 1, "network": 2 * (1 + 3 + 3 + 1)}


def test_eval_csv_cells_match_report(tmp_path):
    # region signals, one per plant; stochastic policies
    result = harness.run_experiment(tiny_config(tmp_path / "run", **{"eval.stochastic": True}))
    report = result.report
    lines = (tmp_path / "run" / "evaluation.csv").read_text().splitlines()
    assert lines[1] == (
        "policy,test,cost_mean,cost_std,cost_min,cost_max,"
        "signal_0_mean,signal_1_mean,n_diverged"
    )
    rows = [line.split(",") for line in lines[2:]]
    assert [(r[0], int(r[1])) for r in rows] == [
        (label, j) for label in report.costs for j in range(2)
    ]
    for label, j, *cells in rows:
        costs, signals = report.costs[label][int(j)], report.signals[label][int(j)]
        want = [costs.mean(), costs.std(), costs.min(), costs.max(), *signals.mean(axis=0)]
        assert [float(c) for c in cells[:-1]] == want  # .17g round-trips exactly
        assert int(cells[-1]) == report.diverged[label][int(j)].sum()


@pytest.mark.parametrize("approach", list(learner.APPROACHES))
def test_save_load_separate_agents(tmp_path, approach):
    cfg = tiny_config(
        tmp_path,
        **{
            "scenario": "linear_codesign",
            "train.approaches": [approach],
            "train.pretrain_iters": 0,
        },
    )
    bundle = harness.build_scenario(cfg)
    trained = harness.train_approach(bundle, approach, 0).agents
    path = str(tmp_path / "ckpt")
    harness.save_agents(path, trained)
    # loaded into fresh zero networks, which it fills and returns
    fresh = learner.build_agents(bundle.env, cfg, approach, None)
    assert harness.load_agents(path, fresh) is fresh
    for name, net in vars(trained).items():
        got = getattr(fresh, name)
        assert (got is None) == (net is None), name
        if net is None:
            continue
        assert got.params.tobytes() == net.params.tobytes(), name
        for i in range(net.members[0] if net.members else 0):
            assert got.member(i).params.tobytes() == net.member(i).params.tobytes(), (name, i)
    if trained.rc_actor is None:
        return
    assert fresh.rc_actor.members == fresh.rc_critic.members == (2,)

    # each member file is what a standalone actor/critic with member i's
    # parameters saves to, byte for byte
    rc_actor, rc_critic = trained.rc_actor, trained.rc_critic
    for i in range(2):
        actor = neuralnet.GaussianActor(rc_actor.obs_dim, rc_actor.head, cfg.train_hidden)
        actor.set_flat(rc_actor.get_flat()[i].copy())
        critic = neuralnet.MLP(rc_critic.sizes)
        critic.set_flat(rc_critic.get_flat()[i].copy())
        neuralnet.save_actor(str(tmp_path / "standalone_actor.npz"), actor)
        neuralnet.save_critic(str(tmp_path / "standalone_critic.npz"), critic)
        for kind in ("actor", "critic"):
            standalone = (tmp_path / f"standalone_{kind}.npz").read_bytes()
            assert (tmp_path / "ckpt" / f"rc_{kind}_{i}.npz").read_bytes() == standalone

    # a per-plant checkpoint of another shape is named, not a shape error
    odd = neuralnet.GaussianActor(rc_actor.obs_dim, rc_actor.head, (3,))
    neuralnet.save_actor(os.path.join(path, "rc_actor_1.npz"), odd)
    message = r"rc_actor_1\.npz: sizes is \(5, 3, 3\), expected \(5, 64, 64, 3\)"
    with pytest.raises(ValueError, match=message):
        harness.load_agents(path, fresh)


def test_evaluate_run_rejects_mismatched_checkpoint(tmp_path):
    harness.run_experiment(tiny_config(tmp_path / "run"))
    config_path = tmp_path / "run" / "config.txt"
    text = config_path.read_text()
    ckpt = os.path.join(str(tmp_path / "run"), "checkpoints", "alloc_lqr")
    actor = os.path.join(ckpt, "actor.npz")

    def rejection():
        with pytest.raises(ValueError) as info:
            harness.evaluate_run(str(tmp_path / "run"))
        return str(info.value)

    cases = [
        ("plants.count = 2", "plants.count = 3", "sizes is (8, 64, 64, 3)",
         "expected (12, 64, 64, 4)"),
        ("train.hidden = 64 64", "train.hidden = 8", "sizes is (8, 64, 64, 3)",
         "expected (8, 8, 3)"),
        ("alloc.total = 2", "alloc.total = 3", "head.alpha_total is 2.0", "expected 3.0"),
    ]
    for old, new, have, need in cases:
        assert old in text
        config_path.write_text(text.replace(old, new))
        assert rejection() == f"checkpoint {actor}: {have}, {need}"

    # a critic, an MLP, is checked on its sizes
    config_path.write_text(text)
    critic = os.path.join(ckpt, "critic.npz")
    neuralnet.save_critic(critic, neuralnet.MLP((8, 5, 1)))
    have, need = "sizes is (8, 5, 1)", "expected (8, 64, 64, 1)"
    assert rejection() == f"checkpoint {critic}: {have}, {need}"

    # a stray checkpoint file, then a missing one, under the original config
    trains = "the config trains ['actor.npz', 'critic.npz']"
    shutil.copy(actor, os.path.join(ckpt, "rc_actor_0.npz"))
    held = "['actor.npz', 'critic.npz', 'rc_actor_0.npz']"
    assert rejection() == f"{ckpt} holds checkpoints {held}, {trains}"
    os.remove(os.path.join(ckpt, "rc_actor_0.npz"))
    os.remove(os.path.join(ckpt, "critic.npz"))
    assert rejection() == f"{ckpt} holds checkpoints ['actor.npz'], {trains}"


@pytest.mark.parametrize(
    "approach, extra",
    [
        ("alloc_lqr", {"alloc.head": "softplus", "train.pretrain_iters": 2}),
        ("codesign", {"alloc.head": "softplus", "train.warm_episodes": 1}),
        ("codesign", {"train.warm_episodes": 1}),
    ],
    ids=["pretrain_softplus", "warmup_softplus", "warmup_simplex"],
)
def test_region_constraint_power_share(tmp_path, approach, extra):
    cfg = tiny_config(tmp_path, **{"train.episodes": 1, "train.approaches": [approach], **extra})
    assert cfg.constraint_kind == "region" and cfg.constraint_power_budget is None
    result = harness.train_approach(harness.build_scenario(cfg), approach, 0)
    assert len(result.log) == 1


# every HeadSpec field of each actor an approach trains on a 2-plant
# cart-pole (softplus allocation, force interval [-10, 10])
ALLOC = dict(n_plants=2, alloc="softplus", alpha_total=None)
PLANT = dict(n_plants=1, alloc=None, alpha_total=None, control_dim=1)
BOUNDED = dict(control_low=-10.0, control_high=10.0)
UNBOUNDED = dict(control_low=None, control_high=None)
PER_PLANT_FILES = ["rc_actor_0.npz", "rc_actor_1.npz", "rc_critic_0.npz", "rc_critic_1.npz"]


LAYOUTS = {
    # the joint head keeps the force bounds though it outputs no control
    "alloc_lqr": ({**ALLOC, "control_dim": 0, **BOUNDED}, None, ["actor.npz", "critic.npz"]),
    "codesign_joint": ({**ALLOC, "control_dim": 1, **BOUNDED}, None, ["actor.npz", "critic.npz"]),
    # the access-point head beside per-plant actors keeps none
    "codesign": (
        {**ALLOC, "control_dim": 0, **UNBOUNDED},
        {**PLANT, **BOUNDED},
        ["ap_actor.npz", "ap_critic.npz"] + PER_PLANT_FILES,
    ),
    "control_only": (None, {**PLANT, **BOUNDED}, PER_PLANT_FILES),
}


@pytest.mark.parametrize("approach", list(LAYOUTS))
def test_approach_layouts(tmp_path, approach):
    actor_head, rc_head, files = LAYOUTS[approach]
    cfg = tiny_config(
        tmp_path,
        **{
            "scenario": "cartpole_codesign",
            "train.approaches": [approach],
            "train.episodes": 1,
            "train.warm_episodes": 1,
        },
    )
    agents = harness.train_approach(harness.build_scenario(cfg), approach, 0).agents
    if actor_head is None:
        assert agents.actor is None and agents.critic is None
    else:
        assert dataclasses.asdict(agents.actor.head) == actor_head
        assert agents.actor.obs_dim == 2 * (1 + 4) and agents.critic is not None
    if rc_head is None:
        assert agents.rc_actor is None and agents.rc_critic is None
    else:
        assert dataclasses.asdict(agents.rc_actor.head) == rc_head
        assert agents.rc_actor.obs_dim == 1 + 4 + 1
        assert agents.rc_actor.net.members == agents.rc_critic.members == (2,)
    harness.save_agents(str(tmp_path / "ckpt"), agents)
    assert sorted(os.listdir(tmp_path / "ckpt")) == files


# Group 4 -------------------------------------------------------------------


def run_cli(*args):
    # the child imports the same wcsrl as this process, installed or not
    src = os.path.dirname(os.path.dirname(wcsrl.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "wcsrl.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )


def tiny_cli_args(out_dir):
    args = []
    for key, value in TINY.items():
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        args += ["--set", f"{key}={value}"]
    return [
        "--scenario",
        "linear_power",
        "--seed",
        "2",
        "--out",
        str(out_dir),
        *args,
    ]


def test_cli_round_trip(tmp_path):
    out = tmp_path / "cli_run"
    proc = run_cli("train", *tiny_cli_args(out), "--quiet")
    assert proc.returncode == 0, proc.stderr
    assert (out / "evaluation.csv").exists()

    proc = run_cli("evaluate", "--run", str(out), "--quiet")
    assert proc.returncode == 0, proc.stderr

    proc = run_cli("baselines", *tiny_cli_args(out))
    assert proc.returncode == 0, proc.stderr
    assert "equal" in proc.stdout

    proc = run_cli("gradcheck")
    assert proc.returncode == 0, proc.stderr
    assert "ok" in proc.stdout


def test_cli_config_error(tmp_path):
    proc = run_cli("train", "--scenario", "not_a_scenario")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    proc = run_cli("train", "--set", "seed=abc")
    assert proc.returncode == 2
    # a '#' would cut the value short where config text is read, a line break
    # would start another key's line
    for args, why in (
        (["--set", "out_dir=runs/a#b"], "out_dir: '#' starts a comment"),
        (["--out", "runs/a#b"], "out_dir: '#' starts a comment"),
        (["--set", "seed=3#4"], "seed: '#' starts a comment"),
        (["--set", "out_dir=runs/a\ntrain.episodes=5"], "out_dir: a line break ends a value"),
    ):
        proc = run_cli("train", *args)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {why}"), proc.stderr
    # a non-finite value failed as a runtime error, exit 1
    proc = run_cli("baselines", "--set", "alloc.total=inf")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: alloc.total must be finite, got inf"), proc.stderr
    proc = run_cli("evaluate", "--run", str(tmp_path / "missing"))
    assert proc.returncode in (1, 2)
