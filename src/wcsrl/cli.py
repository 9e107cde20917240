"""Command-line entry point.

    wcsrl train --scenario linear_power --seed 7 --out runs/lp7
    wcsrl evaluate --run runs/lp7
    wcsrl baselines --scenario linear_power --seed 7
    wcsrl gradcheck

Config values come from a file (--config), a scenario preset
(--scenario), and repeated --set key=value overrides, in increasing
precedence.
"""
from __future__ import annotations

import argparse
import sys

from wcsrl import config as config_mod
from wcsrl import harness, neuralnet
from wcsrl.config import ConfigError
from wcsrl.learner import TrainingDivergedError


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="config file path")
    sub.add_argument("--scenario", help="scenario preset name")
    sub.add_argument("--seed", type=int, help="experiment seed")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--episodes", type=int, help="training episodes")
    sub.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )


def _load_config(args: argparse.Namespace) -> config_mod.ExperimentConfig:
    lines = []
    for item in args.assignments:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        config_mod.check_line_value(key.strip(), value)
        lines.append(f"{key} = {value}")
    overrides = config_mod.parse_config_text("\n".join(lines))
    if args.scenario is not None:
        overrides["scenario"] = args.scenario
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.episodes is not None:
        overrides["train.episodes"] = args.episodes
    return config_mod.load_config(path=args.config, overrides=overrides)


def _progress_printer(total_episodes: int, quiet: bool):
    if quiet:
        return None
    stride = max(1, total_episodes // 20)

    def cb(approach: str, row) -> None:
        if row.episode % stride == 0 or row.episode == total_episodes - 1:
            lam = " ".join(format(v, ".4g") for v in row.multipliers) or "-"
            print(
                f"[{approach}] episode {row.episode:>5d}  "
                f"lagrangian {row.lagrangian:.6g}  multipliers {lam}"
            )

    return cb


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    cb = _progress_printer(cfg.train_episodes, args.quiet)
    result = harness.run_experiment(cfg, progress=cb)
    if not args.quiet:
        print(f"artifacts written to {result.out_dir}")
        _print_summary(result.report)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    result = harness.evaluate_run(args.run)
    if not args.quiet:
        print(f"evaluation rewritten under {result.out_dir}")
        _print_summary(result.report)
    return 0


def _cmd_baselines(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    bundle = harness.build_scenario(cfg)
    report = harness.evaluate(bundle, harness.baseline_policies(bundle))
    _print_summary(report)
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    report = neuralnet.gradient_check(seed=args.seed if args.seed is not None else 0)
    for case in report.cases:
        mark = "ok" if case.passed else "FAIL"
        print(f"{case.name:<32s} max rel err {case.max_rel_err:.3e}  {mark}")
    if not report.passed:
        print("error: gradient check failed", file=sys.stderr)
        return 1
    return 0


def _print_summary(report: harness.EvalReport) -> None:
    print(f"{'policy':<16s} {'mean cost':>14s} {'worst test':>14s} {'diverged':>9s}")
    for label in report.costs:
        mean = report.overall_mean(label)
        worst = float(report.test_means(label).max())
        n_div = int(report.diverged[label].sum())
        print(f"{label:<16s} {mean:>14.6g} {worst:>14.6g} {n_div:>9d}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcsrl",
        description="Constrained policy learning for wireless control systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the configured approaches and evaluate")
    _add_config_args(p_train)
    p_train.add_argument("--quiet", action="store_true", help="suppress progress output")
    p_train.set_defaults(fn=_cmd_train)

    p_eval = sub.add_parser("evaluate", help="re-evaluate a finished run directory")
    p_eval.add_argument("--run", required=True, help="run directory with config and checkpoints")
    p_eval.add_argument("--quiet", action="store_true")
    p_eval.set_defaults(fn=_cmd_evaluate)

    p_base = sub.add_parser("baselines", help="evaluate heuristic baselines only")
    _add_config_args(p_base)
    p_base.set_defaults(fn=_cmd_baselines)

    p_grad = sub.add_parser("gradcheck", help="check analytic gradients against finite differences")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(fn=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
