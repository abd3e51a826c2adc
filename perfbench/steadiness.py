"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steadiness.py --workload sticks-p3 --seeds 0-9 [--seconds 30]

Runs `run.py` once per seed, one run at a time, and prints for each
end-to-end metric the median of the runs and the distance between the
first and third quartiles as a share of that median, next to the metric's
bound in BENCHMARK.json.  The last line is the same table as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} items failed")
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
              flush=True)

    table = {}
    for metric in bench["end_to_end"]:
        values = [run[metric["name"]] for run in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        table[metric["name"]] = {"median": med, "spread": (q3 - q1) / med,
                                 "bound": metric["bound"]}
        print(f"{metric['name']:14s} median {med:12.6g}  spread {(q3 - q1) / med:7.2%}"
              f"  bound {metric['bound']:.0%}")
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "seeds": args.seeds, "metrics": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
