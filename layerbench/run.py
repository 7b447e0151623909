#!/usr/bin/env python3
"""Layered benchmark for coherence_lab.

    python3 layerbench/run.py --workload select-enum --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
Each workload runs in fresh worker processes whose thread environment is
scrubbed (COHERENCE_LAB_THREADS, COHERENCE_LAB_KERNELS and the
OpenBLAS/OMP/MKL thread counts are unset), so library and BLAS defaults
apply. Workloads are described in workloads.py and BENCHMARK.json.

``--trace 0`` measures the end-to-end metrics: set-up time (median over
SETUP_REPEATS spawned processes), ops per second, p50 and p90 op latency,
peak RSS and the share of ops that passed their checks.

``--trace 1`` measures the per-layer metrics: one untraced run, one run
with spans at every layer boundary, and for the selection workloads a
single-threaded run (pool and BLAS at one thread). They share ``--seconds``
between them, so a traced run takes about as long as an untraced one.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a longer report, with the machine
block and the op-list digest, goes to ``.layerbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".layerbench_out"
WORKLOADS = ("select-enum", "select-table", "simulate", "validate")
SETUP_REPEATS = 5
DEADLINE_S = 170.0
SERIAL_ENV = {"COHERENCE_LAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def worker_env(serial: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    if serial:
        env.update(SERIAL_ENV)
    return env


def spawn(args, deadline, *extra, serial=False):
    """Run one worker process to completion and return its JSON result."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--spawned-at", repr(spawned_at), *extra]
    try:
        proc = subprocess.run(cmd, env=worker_env(serial), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the deadline: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def end_to_end(args, deadline):
    setups = [spawn(args, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    res = spawn(args, deadline)
    setups.append(res["setup_s"])
    res["setup_samples"] = setups
    ok = (res["attempted"] - res["failed"]) / res["attempted"]
    metrics = {
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "op_p50_ms": (res["op_p50_ms"], "ms"),
        "op_p90_ms": (res["op_p90_ms"], "ms"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
        "setup_s": (statistics.median(setups), "s"),
        "success_ratio": (ok, "ratio"),
    }
    return [res], metrics


def per_layer(args, deadline):
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz"
    with_serial = args.workload.startswith("select")
    # each sub-run gets its share of --seconds; p90 is not reported here,
    # so a sub-run needs no minimum op count
    sub = argparse.Namespace(**{**vars(args),
                                "seconds": args.seconds / (3 if with_serial else 2)})
    base = spawn(sub, deadline, "--min-ops", "1")
    traced = spawn(sub, deadline, "--min-ops", "1", "--trace", "--spans", str(spans))
    runs = [base, traced]
    serial_ops = 0.0
    if with_serial:
        serial = spawn(sub, deadline, "--min-ops", "1", serial=True)
        runs.append(serial)
        serial_ops = serial["ops_per_s"]
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics.update({
        "process.cpu_per_wall": (base["cpu_per_wall"], "ratio"),
        "trace.ops_per_s_untraced": (base["ops_per_s"], "1/s"),
        "trace.ops_per_s_traced": (traced["ops_per_s"], "1/s"),
        "trace.overhead_ratio": (traced["ops_per_s"] / base["ops_per_s"], "ratio"),
        "parallel.ops_per_s_serial": (serial_ops, "1/s"),
        "parallel.serial_speedup": (base["ops_per_s"] / serial_ops if serial_ops else 0.0,
                                    "ratio"),
    })
    return runs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coherence_lab" / "__init__.py").is_file():
        print(f"no coherence_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        runs, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"args": vars(args), "runs": runs}, indent=1))
    for r in runs:
        for msg in r["failures"]:
            print(f"FAILED {msg}", file=sys.stderr)
    print(f"machine: {json.dumps(runs[0]['machine'])}", file=sys.stderr)
    print(f"report: {report}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
