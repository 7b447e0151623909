"""In-memory span recorder and the per-layer metrics derived from it.

Spans are recorded from outside the library by replacing a function with a
timing wrapper in every module that imported it (``selection.spd_trace_inverse``,
``treegrow.resistance_oracle``, the ``ResistanceOracle`` methods, ...) and in
the package namespace for the public calls the ops make. A target that does
not exist is reported as absent; its layer then reads zero.

Each span stores its op id, its own id, its parent's id, its name, its thread,
and its start and end. Spans opened on pool threads have no parent on their
own thread, so they take the span of the ``ordered_map`` call that fed the
pool. A layer's self time is its spans' durations minus the part of each
interval covered by child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import threading
import time
from array import array

# (module, attribute or Class.method, span name, layer bucket)
TARGETS = (
    # public calls the ops make
    ("coherence_lab", "brute_force_select", "cl.brute_force_select", "selection.select"),
    ("coherence_lab", "coherence_nf", "cl.coherence_nf", "coherence"),
    ("coherence_lab", "coherence_nc", "cl.coherence_nc", "coherence"),
    ("coherence_lab", "leader_free_coherence", "cl.leader_free_coherence", "coherence.trace"),
    ("coherence_lab", "resistance_oracle", "cl.resistance_oracle", "electrical.oracle"),
    ("coherence_lab", "edge_addition_update", "cl.edge_addition_update", "electrical.edge_update"),
    ("coherence_lab", "simulate_nf", "cl.simulate_nf", "simulate.other"),
    ("coherence_lab", "simulate_nc", "cl.simulate_nc", "simulate.other"),
    ("coherence_lab", "grow_trajectory", "cl.grow_trajectory", "treegrow.grow"),
    ("coherence_lab", "build_graph", "cl.build_graph", "graphs.build"),
    # inner calls, wrapped where they were imported
    ("coherence_lab.selection", "spd_trace_inverse", "selection.spd_trace_inverse",
     "electrical.factorization"),
    ("coherence_lab.selection", "resistance_oracle", "selection.resistance_oracle",
     "electrical.oracle"),
    ("coherence_lab.selection", "laplacian", "selection.laplacian", "graphs.laplacian"),
    ("coherence_lab.selection", "ordered_map", "selection.ordered_map", "parallel.pool"),
    ("coherence_lab.coherence", "spd_trace_inverse", "coherence.spd_trace_inverse",
     "electrical.factorization"),
    ("coherence_lab.coherence", "forest_inverse_diagonal",
     "coherence.forest_inverse_diagonal", "electrical.forest"),
    ("coherence_lab.coherence", "resistance_oracle", "coherence.resistance_oracle",
     "electrical.oracle"),
    ("coherence_lab.coherence", "laplacian", "coherence.laplacian", "graphs.laplacian"),
    ("coherence_lab.electrical", "laplacian", "electrical.laplacian", "graphs.laplacian"),
    ("coherence_lab.simulate", "laplacian", "simulate.laplacian", "graphs.laplacian"),
    ("coherence_lab.treegrow", "resistance_oracle", "treegrow.resistance_oracle",
     "electrical.oracle"),
    ("coherence_lab._kernels", "em_accumulate", "_kernels.em_accumulate", "simulate.em"),
    ("coherence_lab.electrical", "ResistanceOracle.pair_totals",
     "ResistanceOracle.pair_totals", "electrical.pair_totals"),
    ("coherence_lab.electrical", "ResistanceOracle.column_sums",
     "ResistanceOracle.column_sums", "electrical.pair_totals"),
    ("coherence_lab.electrical", "ResistanceOracle.noise_corrupted_pair_total",
     "ResistanceOracle.noise_corrupted_pair_total", "electrical.nc_pair"),
    ("coherence_lab.electrical", "ResistanceOracle.set_profile",
     "ResistanceOracle.set_profile", "electrical.set_profile"),
    ("coherence_lab.electrical", "ResistanceOracle.two_leader_profile",
     "ResistanceOracle.two_leader_profile", "electrical.set_profile"),
)

OP_BUCKET = "bench.op"

BUCKETS = (
    "graphs.build", "graphs.laplacian", "electrical.oracle", "electrical.pair_totals",
    "electrical.factorization", "electrical.nc_pair", "electrical.set_profile",
    "electrical.forest", "electrical.edge_update", "coherence.trace",
    "coherence.resistance", "selection.select", "parallel.pool", "simulate.em",
    "simulate.other", "treegrow.grow", OP_BUCKET,
)


def _node_count(args):
    """Problem size of a call: a Graph's node count, or the oracle's."""
    first = args[0] if args else None
    n = getattr(first, "node_count", None)
    if n is None:
        n = getattr(getattr(first, "graph", None), "node_count", 0)
    return int(n)


class Recorder:
    """Collects spans from every thread; read after the run."""

    def __init__(self):
        self.names: list[str] = []
        self.buckets: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[dict] = []
        self._lock = threading.Lock()
        self.op_id = 0
        self.pool_parent = 0
        self.installed: list[tuple] = []
        self.absent: list[str] = []

    def name_id(self, name: str, bucket: str = OP_BUCKET) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.buckets.append(bucket)
        return self._name_ids[name]

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = {"stack": [], "tid": threading.get_ident(),
                   "cols": {c: array(t) for c, t in (
                       ("op", "q"), ("id", "q"), ("parent", "q"), ("name", "l"),
                       ("size", "q"), ("t0", "d"), ("t1", "d"))}}
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, fn, name: str, bucket: str = OP_BUCKET, pool: bool = False):
        """``fn`` with a span around every call. ``coherence_nf``/``nc``
        spans carry the route in their name and bucket."""
        if bucket == "coherence":
            ids = {m: self.name_id(f"{name}[{m}]", f"coherence.{m}")
                   for m in ("trace", "resistance")}
        else:
            ids = None
            plain = self.name_id(name, bucket)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf["stack"]
            parent = stack[-1] if stack else self.pool_parent
            sid = next(self._ids)
            stack.append(sid)
            if pool:
                saved, self.pool_parent = self.pool_parent, sid
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if pool:
                    self.pool_parent = saved
                stack.pop()
                cols = buf["cols"]
                cols["op"].append(self.op_id)
                cols["id"].append(sid)
                cols["parent"].append(parent)
                cols["name"].append(ids[kwargs.get("method", "trace")] if ids else plain)
                cols["size"].append(_node_count(args))
                cols["t0"].append(t0)
                cols["t1"].append(t1)

        return traced

    def install(self):
        for module_name, attr, name, bucket in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *cls, leaf = attr.split(".")
                for part in cls:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(original, name, bucket,
                                           pool=leaf == "ordered_map"))
            self.installed.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self.installed):
            setattr(owner, leaf, original)
        self.installed.clear()

    def spans(self):
        """Every span as (op, id, parent, name, size, t0, t1, tid)."""
        out = []
        for buf in self._buffers:
            c = buf["cols"]
            out.extend(zip(c["op"], c["id"], c["parent"], c["name"], c["size"],
                           c["t0"], c["t1"], itertools.repeat(buf["tid"])))
        return out

    def write(self, path):
        """Spans as gzipped CSV, times in microseconds from the first span."""
        spans = sorted(self.spans(), key=lambda s: s[5])
        base = spans[0][5] if spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("op,id,parent,name,size,tid,start_us,end_us\n")
            for op, sid, parent, name, size, t0, t1, tid in spans:
                fh.write(f"{op},{sid},{parent},{self.names[name]},{size},{tid},"
                         f"{(t0 - base) * 1e6:.1f},{(t1 - base) * 1e6:.1f}\n")


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(rec: Recorder, outputs) -> dict:
    """Per-layer numbers from the recorded spans plus op outputs.

    ``outputs`` is the list of (spec, summary) for every op of the traced
    run; selection counts and simulation steps come from there.
    """
    spans = rec.spans()
    children = {}
    for s in spans:
        children.setdefault(s[2], []).append(s)
    by_name = {}
    by_bucket = {}
    self_ms = dict.fromkeys(BUCKETS, 0.0)
    for s in spans:
        _, sid, _, name, _, t0, t1, _ = s
        kids = children.get(sid, ())
        own = (t1 - t0) - _covered([(k[5], k[6]) for k in kids], t0, t1)
        self_ms[rec.buckets[name]] += own * 1e3
        by_name.setdefault(rec.names[name], []).append(s)
        by_bucket.setdefault(rec.buckets[name], []).append(s)

    def count(name):
        return len(by_name.get(name, ()))

    def calls(bucket):
        return len(by_bucket.get(bucket, ()))

    def total_ms(*names):
        return sum((s[6] - s[5]) * 1e3 for n in names for s in by_name.get(n, ()))

    oracles = by_bucket.get("electrical.oracle", [])
    pair_sweeps = by_name.get("ResistanceOracle.pair_totals", [])

    # pool occupancy: factorization time on the pool over workers x wall
    busy = capacity = 0.0
    for s in by_name.get("selection.ordered_map", ()):
        kids = children.get(s[1], ())
        busy += sum(k[6] - k[5] for k in kids)
        capacity += max(1, len({k[7] for k in kids})) * (s[6] - s[5])

    selects = [o for spec, o in outputs if spec["kind"] == "select" and o]
    candidates = sum(o["evaluated"] for o in selects)
    select_s = total_ms("cl.brute_force_select") / 1e3
    sims = [o for spec, o in outputs if spec["kind"].startswith("simulate") and o]
    sim_ms = total_ms("cl.simulate_nf", "cl.simulate_nc")
    steps = sum(o["steps"] for o in sims)
    trial_steps = sum(o["steps"] * o["trials"] for o in sims)
    # shares are of summed self time, so pool threads count as busy time
    work = sum(self_ms.values())

    m = {
        "graphs.laplacian_calls": (calls("graphs.laplacian"), "count"),
        "graphs.laplacian_ms": (self_ms["graphs.laplacian"], "ms"),
        "graphs.build_ms": (self_ms["graphs.build"], "ms"),
        "electrical.oracle_calls": (len(oracles), "count"),
        "electrical.oracle_ms": (self_ms["electrical.oracle"], "ms"),
        "electrical.table_mib": (sum(8.0 * s[4] ** 2 for s in oracles) / 2**20, "MiB"),
        "electrical.table_mib_max": (max((8.0 * s[4] ** 2 for s in oracles), default=0.0)
                                     / 2**20, "MiB"),
        "electrical.pair_totals_ms": (self_ms["electrical.pair_totals"], "ms"),
        "electrical.pair_totals_gflop": (sum(2.0 * s[4] ** 3 for s in pair_sweeps) / 1e9,
                                         "Gflop"),
        "electrical.factorizations": (calls("electrical.factorization"), "count"),
        "electrical.factorization_ms": (self_ms["electrical.factorization"], "ms"),
        "electrical.nc_pair_calls": (calls("electrical.nc_pair"), "count"),
        "electrical.nc_pair_ms": (self_ms["electrical.nc_pair"], "ms"),
        "electrical.set_profile_ms": (self_ms["electrical.set_profile"], "ms"),
        "electrical.forest_ms": (self_ms["electrical.forest"], "ms"),
        "electrical.edge_update_ms": (self_ms["electrical.edge_update"], "ms"),
        "coherence.trace_ms": (self_ms["coherence.trace"], "ms"),
        "coherence.resistance_ms": (self_ms["coherence.resistance"], "ms"),
        "selection.select_ms": (self_ms["selection.select"], "ms"),
        "selection.candidates": (candidates, "count"),
        "selection.candidates_per_s": (candidates / select_s if select_s else 0.0, "1/s"),
        "selection.co_optimal": (sum(o["co_optimal"] for o in selects), "count"),
        "selection.factorizations_per_candidate": (
            count("selection.spd_trace_inverse") / candidates if candidates else 0.0,
            "ratio"),
        "parallel.pool_ms": (total_ms("selection.ordered_map"), "ms"),
        "parallel.busy_ratio": (busy / capacity if capacity else 0.0, "ratio"),
        "simulate.us_per_step": (sim_ms * 1e3 / steps if steps else 0.0, "us"),
        "simulate.us_per_trial_step": (sim_ms * 1e3 / trial_steps if trial_steps else 0.0,
                                       "us"),
        "simulate.em_ms": (self_ms["simulate.em"], "ms"),
        "simulate.other_ms": (self_ms["simulate.other"], "ms"),
        "treegrow.grow_ms": (self_ms["treegrow.grow"], "ms"),
        "treegrow.oracle_rebuilds": (count("treegrow.resistance_oracle"), "count"),
        "treegrow.profile_calls": (count("ResistanceOracle.two_leader_profile"), "count"),
        "bench.op_ms": (self_ms[OP_BUCKET], "ms"),
        "trace.spans": (len(spans), "count"),
    }
    for bucket in BUCKETS:
        m[f"share.{bucket}"] = (100.0 * self_ms[bucket] / work if work else 0.0, "%")
    return m
