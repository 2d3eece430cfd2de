"""Benchmark of the three skewdiv user paths: verify-4d, counterexample, search.

Run from the repository root:

    python3 bench/run.py --workload verify-4d --seed 7 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates plain and instrumented ops and reports the per-layer
metrics, the tracing overhead and the share of op time no layer span covers.
Every op's output is checked; an op that raises or fails its check counts in
``failed``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print each metric with its unit and sample count.  A record of the run
(seed, calibration timings, sample counts, machine) is written under
``bench/out/``, and a traced run also writes its spans there.

Ops run back to back for the whole run, so that the run spans several of the
host's speed phases.  A fixed calibration kernel is timed at the start and
the end of every run and after every op.  Op timings are read against the
kernel run that follows each op (see ``end_to_end``); the wall-clock figures
and every kernel time are kept in the run record, to make host drift visible.
"""

from __future__ import annotations

import os

# One thread for BLAS/OpenMP pools, here and in the set-up probes, which
# inherit this environment.  Set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("verify-4d", "counterexample", "search")
# Later perf claims must also hold on this seed, which is not used while a
# change is written.
HELD_OUT_SEED = 20261017
SETUP_PROBES = 7
MIN_OPS = 100
# Traced inputs whose jet-operation counts are reported; a fixed set, so the
# counts repeat exactly for a seed however many ops the run completes.
COUNT_INPUTS = 16
PROBE_TIMEOUT_S = 120
# Printed and recorded, but left out of the result line and BENCHMARK.json:
# failed_frac is 0 on a correct program ("failed" / "attempted" carry it),
# and op_ms_p90 lands on the host's few-second stalls, which the calibration
# kernel does not see, so its spread between runs exceeds any usable bound.
UNGATED = ("failed_frac", "op_ms_p90")
# Calibration-kernel time that op timings are scaled to (see end_to_end).
# Fixed for good: changing it rescales every recorded timing.
KERNEL_REF_S = 0.42e-3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help=argparse.SUPPRESS,  # set-up probe: set up, print 'ready', exit
    )
    return p.parse_args(argv)


def load_library() -> None:
    """Import skewdiv from this checkout's ``src``; exit 2 if it is not there."""
    if not (SRC / "skewdiv" / "__init__.py").is_file():
        print(f"error: no skewdiv source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import skewdiv

    if SRC not in Path(skewdiv.__file__).resolve().parents:
        print(f"error: imported skewdiv from {skewdiv.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


_failures_shown = 0


def run_op(workload, inp, clock=time.perf_counter):
    """Time one op, then check it: (seconds, checked items or None if failed)."""
    global _failures_shown
    t0 = clock()
    try:
        out = workload.op(inp)
        elapsed = clock() - t0
        return elapsed, workload.check(inp, out)
    except Exception:  # a failing op is counted, never fatal
        elapsed = clock() - t0
        if _failures_shown < 3:
            _failures_shown += 1
            print(f"op failed on input {inp!r}:", file=sys.stderr)
            traceback.print_exc()
        return elapsed, None


def set_up(name: str, seed: int):
    """Draw the inputs and run one untimed warm-up op."""
    import workloads

    workload = workloads.build(name, seed)
    run_op(workload, workload.inputs[0])
    return workload


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to a set-up workload.

    Returns the wall-clock times and the kernel time measured just before
    each probe.
    """
    cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
    times, kernels = [], []
    for _ in range(SETUP_PROBES):
        kernels.append(statistics.median(kernel() for _ in range(5)))
        t0 = time.perf_counter()
        with subprocess.Popen(cmd + ["--setup-only"], stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                times.append(time.perf_counter() - t0)
                proc.stdout.read()
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return times, kernels


def kernel(clock=time.perf_counter) -> float:
    """Seconds of one run of the fixed calibration kernel.

    Interpreter loop plus small numpy calls, the mix the library's ops spend
    their time in, but none of the library's code: a change to the library
    leaves it unchanged.
    """
    import numpy as np

    t0 = clock()
    acc = 0.0
    for i in range(1500):
        acc += i * 0.5
    a = np.arange(1.0, 71.0)
    for _ in range(60):
        a = np.sqrt(a * a + 1.0)[::-1].copy()
    return clock() - t0


def calibrate() -> float:
    """Median seconds of 21 kernel runs."""
    return statistics.median(kernel() for _ in range(21))


def measure(workload, seconds: float, min_ops: int = MIN_OPS) -> dict:
    """Run ops back to back for ``seconds`` (and at least ``min_ops`` ops).

    The calibration kernel runs after every op, so each op's latency can be
    read against the host's speed at that moment.
    """
    latencies, kernels, starts, op_items, failed = [], [], [], [], 0
    pool = workload.inputs
    start = time.perf_counter()
    while len(latencies) < min_ops or time.perf_counter() - start < seconds:
        starts.append(time.perf_counter() - start)
        dt, n = run_op(workload, pool[len(latencies) % len(pool)])
        latencies.append(dt)
        kernels.append(kernel())
        op_items.append(n or 0)
        failed += n is None
    return {
        "latencies": latencies,
        "kernels": kernels,
        "starts": starts,
        "op_items": op_items,
        "items": sum(op_items),
        "failed": failed,
    }


def normalised(times: list[float], kernels: list[float]) -> list[float]:
    return [t * KERNEL_REF_S / k for t, k in zip(times, kernels)]


def end_to_end(m: dict, setup: tuple[list[float], list[float]]) -> dict:
    """End-to-end metrics: name -> (value, unit, samples).

    Timings are host-normalised: each op's latency is divided by the kernel
    run that follows it, each set-up time by the kernel time just before it,
    and both are scaled by ``KERNEL_REF_S``.  The same work then reads the
    same whether the shared host is in a fast or a slow phase; the plain
    wall-clock figures are kept in the run record as ``raw``.  Throughput is
    the median of the ops' own rates (checked items per second, 0 for a
    failed op), so a stall of a few seconds moves it no more than the median
    latency.
    """
    ops = len(m["latencies"])
    scaled = normalised(m["latencies"], m["kernels"])
    setup_scaled = normalised(*setup)
    return {
        "setup_s": (statistics.median(setup_scaled), "s", len(setup_scaled)),
        "items_per_s": (per_op_rate(m["op_items"], scaled), "items/s", ops),
        "op_ms_p50": (1e3 * statistics.median(scaled), "ms", ops),
        "op_ms_p90": (1e3 * statistics.quantiles(scaled, n=10)[8], "ms", ops),
        "failed_frac": (m["failed"] / ops, "ratio", ops),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB",
            1,
        ),
    }


def per_op_rate(op_items: list[int], seconds: list[float]) -> float:
    return statistics.median(n / t for n, t in zip(op_items, seconds))


def raw_timings(m: dict, setup: tuple[list[float], list[float]]) -> dict:
    """The timings as the wall clock read them, for the run record."""
    lat = m["latencies"]
    return {
        "setup_s": statistics.median(setup[0]),
        "items_per_s": per_op_rate(m["op_items"], lat),
        "items_per_s_total": m["items"] / sum(lat),
        "op_ms_p50": 1e3 * statistics.median(lat),
        "op_ms_p90": 1e3 * statistics.quantiles(lat, n=10)[8],
        "kernel_ms_p50": 1e3 * statistics.median(m["kernels"]),
    }


def measure_traced(workload, seconds: float) -> dict:
    """Alternate plain and traced ops on the same inputs.

    Op 2i runs input i plainly and op 2i+1 runs it traced, so both halves see
    the same inputs and the same host phases.
    """
    import numpy as np
    from tracing import Instrumentation, Recorder, jet_space_misses

    rec = Recorder()
    inst = Instrumentation(rec)
    pool = workload.inputs
    ncount = min(COUNT_INPUTS, len(pool))
    plain, traced, per_op = [], [], []
    names: dict[str, int] = {}
    archive = []
    items = failed = 0
    misses = None
    start = time.perf_counter()
    i = 0
    while i < 2 * ncount or time.perf_counter() - start < seconds or i % 2:
        traced_op = i % 2 == 1
        inp = pool[(i // 2) % len(pool)]
        if traced_op:
            rec.reset()
            inst.install()
        try:
            dt, n = run_op(workload, inp)
        finally:
            if traced_op:
                inst.remove()
        if n is None:
            failed += 1
        else:
            items += n
        if traced_op:
            traced.append(dt)
            self_times = rec.self_times()
            per_op.append(
                {
                    "self": self_times,
                    "spans": rec.span_counts(),
                    "counts": dict(rec.counts),
                    "covered": sum(self_times.values()) / dt,
                }
            )
            op_id = len(traced) - 1
            archive.append(
                np.array(
                    [
                        (names.setdefault(nm, len(names)), s, e, parent, op_id)
                        for nm, s, e, parent in rec.spans
                    ],
                    dtype=[
                        ("name", "i2"),
                        ("start", "f8"),
                        ("end", "f8"),
                        ("parent", "i4"),
                        ("op", "i4"),
                    ],
                ).reshape(-1)
            )
            if i == 2 * ncount - 1:
                misses = jet_space_misses()
        else:
            plain.append(dt)
        i += 1
    return {
        "plain": plain,
        "traced": traced,
        "per_op": per_op,
        "count_ops": per_op[:ncount],
        "present": inst.present,
        "misses": misses,
        "items": items,
        "failed": failed,
        "span_names": list(names),
        "spans": np.concatenate(archive),
    }


def per_layer(t: dict) -> dict:
    """Per-layer metrics of a traced run: (value or None if absent, unit, n)."""
    from tracing import LAYER_METRICS

    med = statistics.median
    ops, count_ops, present = t["per_op"], t["count_ops"], t["present"]
    out = {}
    for metric, unit in LAYER_METRICS:
        base, kind = metric.rsplit(".", 1)
        if metric == "trace.overhead_frac":
            out[metric] = (med(t["traced"]) / med(t["plain"]) - 1.0, unit, len(ops))
        elif metric == "trace.unattributed_frac":
            out[metric] = (med(1.0 - o["covered"] for o in ops), unit, len(ops))
        elif metric == "jets.space.misses":
            out[metric] = (t["misses"], unit, 1)
        elif base not in present:
            out[metric] = (None, unit, 0)
        elif kind == "ms":
            out[metric] = (med(1e3 * o["self"].get(base, 0.0) for o in ops), unit, len(ops))
        elif kind == "calls":
            out[metric] = (med(o["spans"][base] for o in count_ops), unit, len(count_ops))
        elif kind == "count":
            out[metric] = (med(o["counts"].get(base, 0) for o in count_ops), unit, len(count_ops))
        elif kind == "per_point":
            if "ptensor.points" not in present:
                out[metric] = (None, unit, 0)
                continue
            ratios = [
                o["counts"][base] / o["counts"]["ptensor.points"]
                if o["counts"].get("ptensor.points")
                else 0.0
                for o in count_ops
            ]
            out[metric] = (med(ratios), unit, len(count_ops))
        else:
            raise ValueError(f"no rule for metric {metric!r}")
    return out


def machine() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        load_library()
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    load_library()
    setup = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    workload = set_up(args.workload, args.seed)
    calib_start = calibrate()
    if args.trace:
        raw = measure_traced(workload, args.seconds)
        metrics = per_layer(raw)
        attempted = len(raw["plain"]) + len(raw["traced"])
    else:
        raw = measure(workload, args.seconds)
        metrics = end_to_end(raw, setup)
        attempted = len(raw["latencies"])
    calib_end = calibrate()
    failed = raw["failed"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "items": raw["items"],
        "calibration_ms": {"start": 1e3 * calib_start, "end": 1e3 * calib_end},
        "setup_s_samples": setup[0],
        "setup_kernel_ms": [1e3 * k for k in setup[1]],
        "kernel_ref_ms": 1e3 * KERNEL_REF_S,
        # Per-op start offsets, latencies and kernel times show the host's
        # speed phases.
        "raw": raw_timings(raw, setup) if not args.trace else None,
        "op_start_s": raw.get("starts"),
        "op_ms": [1e3 * x for x in raw["latencies"]] if not args.trace else None,
        "kernel_ms": [1e3 * x for x in raw["kernels"]] if not args.trace else None,
        "op_items": raw.get("op_items"),
        "machine": machine(),
        "metrics": {
            k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        import numpy as np

        np.savez_compressed(
            OUT / f"{stem}-spans.npz", names=np.array(raw["span_names"]), spans=raw["spans"]
        )

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"ops {attempted}  failed {failed}  "
        f"calibration {1e3 * calib_start:.2f} -> {1e3 * calib_end:.2f} ms"
    )
    for name, (value, unit, n) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {unit:8s} n={n}")
    result_metrics = {}
    for name, (value, unit, _) in metrics.items():
        if name in UNGATED:
            continue
        entry = {"value": value, "unit": unit}
        if value is None:
            entry["absent"] = True
        result_metrics[name] = entry
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
