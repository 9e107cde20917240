"""wcsrl benchmark: env-steps per second in training and evaluation.

One workload per process:

    python3 perfbench/run.py --workload train_power --seed 1 --seconds 30 --trace 0

prints a `perfbench-detail` JSON line (sample counts, failed checks, run
fingerprint) and, last, the result line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics of one traced
operation and writes its spans under .perfbench/.

Every workload, both modes, as one table:

    python3 perfbench/run.py --all --seed 1 --seconds 30
"""
from __future__ import annotations

import time

# set-up time counts from here, so it includes importing numpy and wcsrl
_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
REFERENCES = BENCH_DIR / "references.json"
WORKLOAD_NAMES = ("train_power", "train_cartpole", "eval_power")
END_TO_END_UNITS = {
    "setup_s": "s",
    "env_steps_per_s": "1/s",
    "episode_ms_p50": "ms",
    "episode_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
DETAIL_TAG = "perfbench-detail "


def import_program() -> None:
    """Put the checkout's own sources first on the path; refuse to run
    against any other installed copy."""
    package = SRC / "wcsrl"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no wcsrl sources at {package}")
    sys.path.insert(0, str(SRC))
    import wcsrl

    if Path(wcsrl.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported wcsrl from {wcsrl.__file__}, not {package}")


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# run fingerprint


def _blas_threads():
    """OpenBLAS's effective thread count, asked of the library numpy loaded."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wcsrl").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() or None


def fingerprint(seed: int, config_seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "config_seed": config_seed,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# one workload


def timed_ops(workload, prep, ref, budget_s: float) -> list:
    """Repeat the timed operation until budget_s has passed (at least once).
    Every repeat must reproduce the first operation's outputs exactly."""
    import workloads as wl

    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < budget_s:
        op = wl.run_op(workload, prep, ref)
        if ops and op.outputs != ops[0].outputs:
            op.failures.append("outputs differ from the first operation of this run")
        ops.append(op)
    return ops


def _rate(ops) -> float:
    return sum(op.env_steps for op in ops) / sum(op.wall_s for op in ops)


def _add_episode_spans(tracer, stamps: list) -> None:
    """Spans for training episodes, children of the learner.train span; episode
    0 starts where pretraining ended."""
    spans = {name: (start, end, span_id) for span_id, name, start, end, _ in tracer.spans}
    if "learner.train" not in spans:
        return
    start, _, parent = spans["learner.train"]
    if "learner.pretrain_allocation" in spans:
        start = spans["learner.pretrain_allocation"][1]
    for stamp in stamps:
        tracer.add_span("learner.episode", start, stamp, parent)
        start = stamp


def trace_op(workload, prep, ref):
    """One operation with every layer boundary wrapped; returns it and the Tracer."""
    import layers
    import workloads as wl
    from tracer import Tracer

    tracer = Tracer(coarse=layers.COARSE)
    with tracer.installed(layers.targets()):
        tracer.enter(layers.OP)
        try:
            op = wl.run_op(workload, prep, ref)
        finally:
            tracer.exit()
    _add_episode_spans(tracer, op.episode_stamps)
    return op, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import_program()
    import numpy as np

    import workloads as wl

    import_s = time.perf_counter() - _T0
    workload = wl.WORKLOADS[name]
    cfg_seed = wl.config_seed(seed)
    ref = load_references()[name].get(str(cfg_seed))
    overrides = wl.config_overrides(workload, seed)
    run_root = SCRATCH / f"{name}-{os.getpid()}"
    run_fingerprint = fingerprint(seed, cfg_seed)
    try:
        setup_s = []
        for r in range(1 if trace else workload.setup_repeats):
            t0 = time.perf_counter()
            prep = wl.setup(workload, overrides, str(run_root / f"setup{r}"))
            setup_s.append(time.perf_counter() - t0)

        if not trace:
            ops = timed_ops(workload, prep, ref, seconds)
            episode_ms = [1e3 * e for op in ops for e in op.episode_s]
            values = {
                "setup_s": import_s + statistics.median(setup_s),
                "env_steps_per_s": _rate(ops),
                "episode_ms_p50": float(np.percentile(episode_ms, 50)),
                "episode_ms_p90": float(np.percentile(episode_ms, 90)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            samples = {"operations": len(ops), "episodes": len(episode_ms), "setups": len(setup_s)}
        else:
            import layers

            ops = timed_ops(workload, prep, ref, seconds / 2)
            traced, tracer = trace_op(workload, prep, ref)
            if traced.outputs != ops[0].outputs:
                traced.failures.append("traced outputs differ from the untraced operation")
            traced_rate = traced.env_steps / traced.wall_s
            summary = tracer.summary()
            metrics = layers.layer_metrics(summary, traced_rate, _rate(ops))
            samples = {"operations": len(ops) + 1, "traced_operations": 1}
            ops.append(traced)
            SCRATCH.mkdir(exist_ok=True)
            trace_file = SCRATCH / f"trace-{name}-seed{seed}.json"
            with open(trace_file, "w") as fh:
                json.dump({"workload": name, "fingerprint": run_fingerprint, **summary}, fh)
            samples["trace_file"] = str(trace_file.relative_to(ROOT))
    finally:
        shutil.rmtree(run_root, ignore_errors=True)

    failed = [op for op in ops if op.failures]
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "trace": trace,
        "samples": samples,
        "failures": sorted({msg for op in failed for msg in op.failures}),
        "fingerprint": run_fingerprint,
    }
    return result, detail


# ---------------------------------------------------------------------------
# every workload, one table


def run_all(seed: int, seconds: float) -> int:
    status = 0
    fingerprint_line = None
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            detail = next(json.loads(l[len(DETAIL_TAG):]) for l in lines if l.startswith(DETAIL_TAG))
            verdict = "PASS" if result["correct"] else "FAIL"
            status |= not result["correct"]
            fingerprint_line = "fingerprint " + json.dumps(detail["fingerprint"])
            print(f"== {name} trace={trace}  check {verdict}  attempted {result['attempted']} "
                  f"failed {result['failed']}  samples {json.dumps(detail['samples'])}")
            for msg in detail["failures"]:
                print(f"   failed check: {msg}")
            for metric, m in result["metrics"].items():
                print(f"   {metric:<44} {m['value']:>16.6g} {m['unit']}")
    if fingerprint_line:
        print(fingerprint_line)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload with and without tracing")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload or --all")
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(DETAIL_TAG + json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
