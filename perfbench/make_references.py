"""Regenerate references.json: per config seed, the episode-0 Lagrangian of
each training workload and the mean cost per policy of eval_power.

    python3 perfbench/make_references.py

Rerun only when a change is meant to alter these numbers, and say so.
"""
from __future__ import annotations

import json
import shutil
import sys

from run import REFERENCES, SCRATCH, WORKLOAD_NAMES, import_program


def main() -> int:
    import_program()
    import workloads as wl

    refs: dict = {}
    for name in WORKLOAD_NAMES:
        workload = wl.WORKLOADS[name]
        refs[name] = {}
        for seed in range(wl.CONFIG_SEEDS):
            run_dir = SCRATCH / f"references-{name}-{seed}"
            try:
                prep = wl.setup(workload, wl.config_overrides(workload, seed), str(run_dir))
                op = wl.run_op(workload, prep, None)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            refs[name][str(seed)] = op.outputs[0][0] if workload.kind == "train" else op.outputs
            print(name, seed, refs[name][str(seed)], flush=True)
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
