"""One workload process: set up, run the timed closed loop, check, report.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``. One
client sends the next op only after the previous one returns. The timed
phase runs whole passes over the seeded op list until at least ``--seconds``
have passed and at least ``--min-ops`` ops are done (MIN_OPS by default, so
p90 has ten samples beyond it). Outputs are checked after the timed phase. The last stdout line
is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 110
#: thread settings the workload processes run without, so defaults apply
THREAD_VARS = ("COHERENCE_LAB_THREADS", "COHERENCE_LAB_KERNELS", "OPENBLAS_NUM_THREADS",
               "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_library():
    import coherence_lab

    src = (ROOT / "src").resolve()
    if src not in Path(coherence_lab.__file__).resolve().parents:
        raise SystemExit(f"coherence_lab imported from {coherence_lab.__file__}, "
                         f"not from {src}")
    return coherence_lab


def _blas():
    """Loaded OpenBLAS libraries and their thread counts (Linux only)."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def machine_block(cl):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": vendor,
        "blas_threads": _blas(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": getattr(cl, "kernel_backend", None),
        "caches_per_core": _caches(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def timed_loop(ops, graphs, run, seconds, min_ops, on_op=None):
    """Whole passes over ``ops`` until ``seconds`` and ``min_ops`` are both
    reached (or twice ``seconds`` has passed). Returns per-op records, the
    latencies, the pass times, the wall time and the CPU time used."""
    records = []
    latencies = []
    passes = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for idx, spec in enumerate(ops):
            if on_op is not None:
                on_op(len(latencies) + 1)
            t0 = time.perf_counter()
            try:
                out, err = run(spec, graphs[idx]), None
            except Exception as exc:  # a raising op is a failed op, not a crash
                out, err = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            records.append((idx, out, err))
        passes.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= min_ops) or elapsed >= 2 * seconds:
            break
    wall = time.perf_counter() - start
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return records, latencies, passes, wall, cpu


def check_records(ops, graphs, records, check_op, same_result):
    """Failure messages, one per failed op. The first run of each op is
    checked against its independent route; repeats must match it."""
    verdict = {}
    first = {}
    failures = []
    for idx, out, err in records:
        if err is not None:
            failures.append(f"op {idx} ({ops[idx]['kind']}) raised {err}")
            continue
        if idx not in verdict:
            try:
                verdict[idx] = check_op(ops[idx], graphs[idx], out)
            except Exception as exc:  # a check that cannot run fails the op
                verdict[idx] = f"check raised {type(exc).__name__}: {exc}"
            first[idx] = out
            msg = verdict[idx]
        elif verdict[idx] is not None:
            msg = verdict[idx]
        elif not same_result(first[idx], out):
            msg = "repeat differs from its first run"
        else:
            msg = None
        if msg is not None:
            failures.append(f"op {idx} ({ops[idx]['kind']}): {msg}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent spawned this process")
    parser.add_argument("--min-ops", type=int, default=MIN_OPS)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="gzipped CSV file for the traced spans")
    args = parser.parse_args(argv)

    cl = _import_library()
    import workloads as wl

    ops = wl.make_ops(args.workload, args.seed)
    graphs = [wl.prebuilt_graph(spec) for spec in ops]
    for idx in wl.warmup_ops(ops):
        wl.run_op(ops[idx], graphs[idx])
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rec = None
    run = wl.run_op
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        rec.install()
        by_kind = {}

        def run(spec, g):
            kind = spec["kind"]
            if kind not in by_kind:
                by_kind[kind] = rec.wrap(wl.run_op, f"op.{kind}")
            return by_kind[kind](spec, g)

    records, latencies, passes, wall, cpu = timed_loop(
        ops, graphs, run, args.seconds, args.min_ops,
        on_op=None if rec is None else (lambda i: setattr(rec, "op_id", i)))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        rec.uninstall()
    failures = check_records(ops, graphs, records, wl.check_op, wl.same_result)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    per_op = {}
    for (idx, _, _), lat in zip(records, latencies):
        per_op.setdefault(idx, []).append(lat)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": wl.digest(ops),
        "ops_per_pass": len(ops),
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:20],
        "setup_s": setup_s,
        "wall_s": wall,
        "pass_s": passes,
        # ops completed over the whole timed phase, which holds whole passes
        "ops_per_s": len(latencies) / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "beyond_p90": sum(1 for x in latencies if x > deciles[8]),
        "cpu_per_wall": cpu / wall,
        "peak_rss_mib": peak_rss_mib,
        "machine": machine_block(cl),
        "op_median_ms": {wl.label(ops[idx]): statistics.median(v) * 1e3
                         for idx, v in sorted(per_op.items())},
    }
    if rec is not None:
        outputs = [(ops[idx], out) for idx, out, _ in records]
        result["layers"] = tracing.layer_metrics(rec, outputs)
        result["absent"] = rec.absent
        if args.spans:
            rec.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
