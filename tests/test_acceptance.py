"""Acceptance gates for the package.

Eleven end-to-end checks, one test each, every one printing a single
``[criterion N] PASS/FAIL`` line (run pytest with ``-s`` to see the lines
for passing tests too). The training-based gates (7 through 10) build
their policies once per session through shared fixtures; everything is
deterministic for the pinned seeds, so reruns reproduce these numbers
exactly.
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from wcsrl import baselines, harness
from wcsrl import config as config_mod
from wcsrl.dynamics import make_linear_ensemble
from wcsrl.learner import compute_cost_to_go, dual_descent
from wcsrl.neuralnet import GaussianActor, HeadSpec
from wcsrl.wireless import delivery_probability, sample_delivery

SEEDS = (11, 12, 13)


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


# -- 1: analytic gradients ---------------------------------------------------


def test_gradient_check_accuracy_and_speed():
    t0 = time.time()
    report = harness.gradient_check(min_networks=50)
    elapsed = time.time() - t0
    ok = report.passed and report.n_networks >= 50 and elapsed < 60.0
    verdict(
        1,
        ok,
        f"analytic vs numeric gradients on {report.n_networks} random networks, "
        f"max rel err {report.max_rel_err:.2e} (tol {report.tolerance:g}), {elapsed:.1f}s",
    )


# -- 2: delivery frequencies -------------------------------------------------


def test_delivery_frequency_matches_model():
    rng = np.random.default_rng(2)
    n = 100_000
    worst = 0.0
    parts = []
    for level in (0.25, 1.0, 3.0):
        draws = sample_delivery(np.full(n, level), rng)
        p = float(delivery_probability(np.array([level]))[0])
        sd = np.sqrt(p * (1.0 - p) / n)
        dev = abs(draws.mean() - p) / sd
        worst = max(worst, dev)
        parts.append(f"snr {level}: {draws.mean():.4f} vs {p:.4f}")
    verdict(2, worst <= 3.0, f"{'; '.join(parts)}; worst deviation {worst:.2f} binomial sd")


# -- 3: discounted cost-to-go ------------------------------------------------


def test_cost_to_go_matches_brute_force():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        length = int(rng.integers(1, 21))
        workers = int(rng.integers(1, 5))
        gamma = float(rng.choice([0.0, 0.5, 0.99, 1.0]))
        costs = 10.0 * rng.standard_normal((length, workers))
        boot = 10.0 * rng.standard_normal(workers)
        got = compute_cost_to_go(costs, boot, gamma)
        want = np.empty_like(costs)
        for t in range(length):
            acc = boot * gamma ** (length - t)
            for tau in range(length - 1, t - 1, -1):
                acc = acc + gamma ** (tau - t) * costs[tau]
            want[t] = acc
        worst = max(worst, float(np.max(np.abs(got - want))))
    verdict(3, worst <= 1e-12, f"1000 random segments, worst abs err {worst:.2e}")


# -- 4: Riccati solver -------------------------------------------------------


def test_riccati_closed_form_and_stabilizing_gains():
    one = np.array([[1.0]])
    p = baselines.solve_dare(np.array([[2.0]]), one, one, one)
    k = baselines.lqr_gain(np.array([[2.0]]), one, one, one)
    err_p = abs(p[0, 0] - (2.0 + np.sqrt(5.0)))
    err_k = abs(k[0, 0] - (1.0 + np.sqrt(5.0)) / 2.0)

    plants = make_linear_ensemble(11, 1.05, 1.15, np.random.default_rng(4))
    rho_worst = 0.0
    for plant in plants:
        dim = plant.a_mat.shape[0]
        gain = baselines.lqr_gain(plant.a_mat, plant.b_mat, np.eye(dim), np.eye(dim))
        closed = plant.a_mat - plant.b_mat @ gain
        rho_worst = max(rho_worst, float(np.max(np.abs(np.linalg.eigvals(closed)))))
    ok = err_p <= 1e-9 and err_k <= 1e-9 and rho_worst < 1.0
    verdict(
        4,
        ok,
        f"scalar fixed point errs {err_p:.1e}/{err_k:.1e} (tol 1e-9), "
        f"worst closed-loop spectral radius {rho_worst:.3f} over 11 random plants",
    )


# -- 5: action head feasibility ----------------------------------------------


def test_action_heads_always_feasible():
    rng = np.random.default_rng(5)
    m, total, low, high = 3, 4.0, -2.0, 7.0
    head = HeadSpec(
        n_plants=m, alloc="simplex", alpha_total=total,
        control_dim=2, control_low=low, control_high=high,
    )
    actor = GaussianActor(obs_dim=8, head=head, hidden=(8, 8), rng=rng)
    raw = rng.standard_normal((10_000, head.raw_dim))
    raw *= 10.0 ** rng.uniform(-1.0, 6.0, size=(10_000, 1))
    raw[::7] *= -1.0
    alpha, u = actor.transform(raw)
    ok = (
        bool(np.all(alpha >= 0.0))
        and bool(np.all(alpha.sum(axis=1) <= total + 1e-9))
        and bool(np.all(u >= low))
        and bool(np.all(u <= high))
    )
    verdict(
        5,
        ok,
        f"10000 random pre-activations: power nonneg, totals <= {total} + 1e-9 "
        f"(max {alpha.sum(axis=1).max():.9f}), inputs within [{low}, {high}]",
    )


# -- 6: dual ascent toy problem ----------------------------------------------


def test_dual_ascent_toy_problem():
    lam, theta = dual_descent(
        primal_minimizer=lambda mult: float(mult[0]) / 2.0,
        constraint_evaluator=lambda th: np.array([1.0 - th]),
        lam0=np.zeros(1),
        step_size=0.05,
        iterations=500,
    )
    ok = abs(lam[0] - 2.0) <= 0.05 and abs(theta - 1.0) <= 0.05
    verdict(6, ok, f"multiplier {lam[0]:.3f} (target 2), primal {theta:.3f} (target 1)")


# -- 7/8: power allocation study ---------------------------------------------


@pytest.fixture(scope="session")
def power_study():
    t0 = time.time()
    reports = {}
    for seed in SEEDS:
        cfg = config_mod.load_config(
            overrides={
                "scenario": "linear_power",
                "seed": seed,
                "plants.count": 4,
                "channel.area_half_width": 1.75,
                "train.episodes": 1000,
                "train.horizon": 60,
                "train.workers": 8,
                "train.policy_lr": 2e-4,
                "train.value_lr": 5e-3,
                "train.init_std": 0.5,
                "eval.tests": 10,
                "eval.group": 10,
            }
        )
        bundle = harness.build_scenario(cfg)
        result = harness.train_approach(bundle, "alloc_lqr", 0)
        pols = {"learned": harness.eval_policy_for(bundle, "alloc_lqr", result.agents)}
        pols.update(harness.baseline_policies(bundle))
        reports[seed] = harness.evaluate(
            bundle, pols, cfg.eval_tests, cfg.eval_group, cfg.eval_horizon
        )
    return {"reports": reports, "wall": time.time() - t0}


def test_region_constraint_satisfied_at_evaluation(power_study):
    per_plant = np.stack(
        [power_study["reports"][s].mean_signals("learned") for s in SEEDS]
    )
    med = np.median(per_plant, axis=0)
    ok = bool(np.all(med <= 0.2)) and power_study["wall"] <= 900.0
    verdict(
        7,
        ok,
        f"median discounted occupancy-budget sums per plant {np.round(med, 3)} "
        f"(bound 0.2), 3 seeds trained+evaluated in {power_study['wall']:.0f}s",
    )


def test_learned_allocation_beats_heuristics(power_study):
    ratios = []
    for seed in SEEDS:
        rep = power_study["reports"][seed]
        best = min(
            rep.overall_mean(name) for name in ("equal", "round_robin", "channel_aware")
        )
        ratios.append(rep.overall_mean("learned") / best)
    wins = sum(r <= 0.95 for r in ratios)
    verdict(
        8,
        wins >= 2,
        f"cost ratios vs best heuristic {np.round(ratios, 3)}, "
        f"{wins}/3 seeds at or under 0.95",
    )


# -- 9/10: joint learning study ----------------------------------------------


@pytest.fixture(scope="session")
def codesign_study():
    t0 = time.time()
    runs = {}
    for seed in SEEDS:
        cfg = config_mod.load_config(
            overrides={
                "scenario": "linear_codesign",
                "seed": seed,
                "plants.count": 2,
                "train.episodes": 1500,
                "train.horizon": 60,
                "train.workers": 8,
                "train.approaches": ["codesign", "alloc_lqr"],
                "eval.tests": 10,
                "eval.group": 10,
            }
        )
        bundle = harness.build_scenario(cfg)
        pols, agents = {}, {}
        for idx, approach in enumerate(cfg.train_approaches):
            result = harness.train_approach(bundle, approach, idx)
            agents[approach] = result.agents
            pols[approach] = harness.eval_policy_for(bundle, approach, result.agents)
        report = harness.evaluate(
            bundle, pols, cfg.eval_tests, cfg.eval_group, cfg.eval_horizon
        )
        runs[seed] = {
            "bundle": bundle,
            "agents": agents,
            "ratio": report.overall_mean("codesign") / report.overall_mean("alloc_lqr"),
        }
    return {"runs": runs, "wall": time.time() - t0}


def test_joint_learning_close_to_model_based_control(codesign_study):
    ratios = sorted(codesign_study["runs"][s]["ratio"] for s in SEEDS)
    med = ratios[1]
    ok = med <= 1.1 and codesign_study["wall"] <= 1200.0
    verdict(
        9,
        ok,
        f"cost ratios joint/model-based {np.round(ratios, 3)}, median {med:.3f} "
        f"(bound 1.1), wall {codesign_study['wall']:.0f}s",
    )


def test_joint_policy_stabilizes_small_initial_states(codesign_study):
    runs = codesign_study["runs"]
    med_seed = sorted(SEEDS, key=lambda s: runs[s]["ratio"])[1]
    bundle = runs[med_seed]["bundle"]
    policy = harness.eval_policy_for(
        bundle, "codesign", runs[med_seed]["agents"]["codesign"]
    )
    rng = np.random.default_rng(2026)
    # episodes start from x0 ~ N(0, I) rescaled to joint norm 0.1
    cfg = dataclasses.replace(bundle.cfg, plants_init="normal", plants_init_scale=1.0)
    env = dataclasses.replace(bundle, cfg=cfg).env_factory(rng)
    bound, horizon, n_traj = 50.0, 100, 200
    peaks = np.empty(n_traj)
    for k in range(n_traj):
        state = env.reset(horizon)
        state = dataclasses.replace(state, x=state.x * (0.1 / np.linalg.norm(state.x)))
        peak = float(np.linalg.norm(state.x))
        for t in range(horizon):
            action = policy.act(env.observe(state), t, rng)
            state = env.step(state, action).next_state
            peak = max(peak, float(np.linalg.norm(state.x)))
        peaks[k] = peak
    frac = float(np.mean(peaks < bound))
    verdict(
        10,
        frac >= 0.9,
        f"{frac:.2f} of {n_traj} small-start trajectories stay under joint norm "
        f"{bound:g} for {horizon} steps (median peak {np.median(peaks):.1f})",
    )


# -- 11: bitwise repeatability -----------------------------------------------


def test_repeat_runs_bitwise_identical(tmp_path_factory):
    base = tmp_path_factory.mktemp("repeat")
    artifacts = []
    for tag in ("first", "second"):
        cfg = config_mod.load_config(
            overrides={
                "scenario": "linear_power",
                "seed": 7,
                "out_dir": str(base / tag),
                "plants.count": 2,
                "train.episodes": 25,
                "train.horizon": 30,
                "train.workers": 4,
                "train.pretrain_iters": 50,
                "eval.tests": 3,
                "eval.group": 3,
                "eval.horizon": 40,
            }
        )
        harness.run_experiment(cfg)
        artifacts.append(
            {
                name: (base / tag / name).read_bytes()
                for name in ("training_log_alloc_lqr.csv", "evaluation.csv")
            }
        )
    verdict(
        11,
        artifacts[0] == artifacts[1],
        "training log and evaluation table byte-identical across a repeated run",
    )
