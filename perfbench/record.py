"""Record the reference outputs that `run.py` checks calls against.

    python3 perfbench/record.py [SEED ...]     (default seeds: 0 1 2)

Run it from the root of a checkout of the commit whose outputs become the
reference.  Each seed's call must exit 0 with every verdict a pass.  Values
are stored as float32, whose rounding (6e-8 relative) is far inside RTOL.
"""

import sys

import numpy as np

from run import OUT, REFERENCE, WORKLOADS, call, reference_path

DEFAULT_SEEDS = (0, 1, 2)


def record(seeds) -> None:
    REFERENCE.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        arrays = {}
        for seed in seeds:
            rec = call(workload, seed, f"record-{seed}")
            if rec["code"] != 0:
                raise SystemExit(f"{workload.name} seed {seed}: exit {rec['code']}: "
                                 f"{rec['stderr']}")
            verdicts, values, weights = workload.read(rec["out"])
            if not verdicts.all() or int(weights.sum()) != workload.items:
                raise SystemExit(f"{workload.name} seed {seed}: not every item passed")
            arrays[f"verdicts_{seed}"] = verdicts
            # column-major, so constant and integer columns compress well
            arrays[f"values_{seed}"] = values.T.astype(np.float32)
        np.savez_compressed(reference_path(workload), **arrays)
        print(f"{workload.name}: seeds {list(seeds)} -> {reference_path(workload)}")
    for path in OUT.glob("*-record-*"):
        path.unlink()


if __name__ == "__main__":
    record([int(s) for s in sys.argv[1:]] or DEFAULT_SEEDS)
