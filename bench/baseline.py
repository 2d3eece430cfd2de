"""Run the benchmark over several seeds and summarise each metric's spread.

From the repository root:

    python3 bench/baseline.py --runs 10 --out bench/baseline.json

Each run is a separate ``bench/run.py`` process with its own seed.  For every
end-to-end metric the summary gives the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, which is the distance
between the quartiles as a share of the median.  One traced run of
``verify-4d`` on the first seed adds the per-layer metrics of that workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import HELD_OUT_SEED, OUT, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json")
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}

    summary = {"run_seconds": seconds, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, seconds, 0))
            rec = runs[-1]["record"]
            shown = "  ".join(
                f"{k}={m['value']:.5g}" for k, m in rec["metrics"].items()
            )
            print(f"{workload} seed {seed}: {shown}", flush=True)
        metrics = {}
        for name in runs[0]["record"]["metrics"]:
            values = [r["record"]["metrics"][name]["value"] for r in runs]
            metrics[name] = {
                "unit": runs[0]["record"]["metrics"][name]["unit"],
                "samples_per_run": runs[0]["record"]["metrics"][name]["samples"],
                **summarise(values),
            }
            spread = metrics[name]["spread"]
            if name in bounds:
                flag = "" if spread is None or spread < bounds[name] / 3 else "  WIDE"
                print(f"  {name}: median {metrics[name]['median']:.5g} spread "
                      f"{spread:.4f} (bound {bounds[name]}){flag}")
        summary["workloads"][workload] = {
            "why": why[workload],
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "calibration_ms": [r["record"]["calibration_ms"] for r in runs],
            "metrics": metrics,
        }
        summary["machine"] = runs[0]["record"]["machine"]
    if "verify-4d" in args.workloads:
        traced = run_once("verify-4d", args.first_seed, seconds, 1)["record"]
        summary["verify-4d_per_layer_seed"] = args.first_seed
        summary["verify-4d_per_layer"] = {
            k: {"value": m["value"], "unit": m["unit"]} for k, m in traced["metrics"].items()
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
