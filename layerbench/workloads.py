"""The four workloads: seeded op lists, the timed calls, and their checks.

Every op is one public call, or one cross-check (the few calls that compare
two routes or stream queries at one table), into ``coherence_lab``, using
only names listed in ``coherence_lab.__all__``.
An op is a plain dict ``spec`` (the generated input, JSON-serialisable, so
the op list has a digest) plus, for workloads that hand the library a
prebuilt graph, a ``Graph`` built from it during set-up.

``run_op`` is the timed region and returns a small summary of the result.
``check_op`` runs afterwards, outside the timed region, and compares the
summary with an independent route: the grounded-trace route, a closed form,
a rebuilt resistance table, or an eigen-decomposition of the system matrix.

Sizes are fixed ladders per op kind; the seed draws graph structure, edge
weights, node labels, leaders, stubbornness weights and simulation seeds.
That keeps the cost of one pass nearly independent of the seed, so runs on
different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

import coherence_lab as cl

NF = "noise_free"
NC = "noise_corrupted"

WORKLOADS = ("select-enum", "select-table", "simulate", "validate")

#: value checks against an independent route (relative, floor of 1)
ROUTE_TOL = 1e-9
#: edge-addition updates against a rebuilt table
UPDATE_TOL = 1e-10
#: simulated value must lie within this many standard errors of its
#: analytic expectation; fixed before the first run, never tuned per seed
SIM_SIGMAS = 8.0
SIM_TRIALS = 16


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# graph generators (edge lists; labels shuffled by the seed)

def _relabel(rng, n, edges):
    perm = rng.permutation(n)
    return [(int(perm[u]), int(perm[v]), w) for u, v, w in edges]


def cycle_edges(rng, n):
    return _relabel(rng, n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def path_edges(rng, n):
    return _relabel(rng, n, [(i, i + 1, 1.0) for i in range(n - 1)])


def tree_edges(rng, m, h):
    n = (m ** (h + 1) - 1) // (m - 1)
    return n, _relabel(rng, n, [((v - 1) // m, v, 1.0) for v in range(1, n)])


def random_edges(rng, n, chords):
    """Random recursive spanning tree plus ``chords`` extra edges, with
    weights drawn from [0.5, 2]."""
    edges = []
    seen = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, round(float(rng.uniform(0.5, 2.0)), 6)))
        seen.add((u, v))
    while len(edges) < n - 1 + chords:
        u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v, round(float(rng.uniform(0.5, 2.0)), 6)))
    return _relabel(rng, n, edges)


def _graph_spec(rng, family, n, tree=None, chords=None):
    if family == "cycle":
        return n, cycle_edges(rng, n)
    if family == "path":
        return n, path_edges(rng, n)
    if family == "tree":
        return tree_edges(rng, *tree)
    return n, random_edges(rng, n, n if chords is None else chords)


def _spec(kind, rng, family, n=None, tree=None, chords=None, **params):
    n, edges = _graph_spec(rng, family, n, tree, chords)
    spec = {"kind": kind, "family": family, "n": n, "edges": edges}
    if tree is not None:
        spec["tree"] = list(tree)
    spec.update(params)
    return spec


def _leaders(rng, n, k):
    return sorted(int(v) for v in rng.choice(n, size=k, replace=False))


def _kappa(rng):
    return round(float(rng.uniform(0.5, 4.0)), 6)


# ---------------------------------------------------------------------------
# op lists, one pass per workload
#
# A pass has 5 mod 10 ops, so over whole passes both the median and p90 fall
# in the middle of one op's block of repeats rather than on the edge
# between two ops.

def _select_enum(rng):
    """Per-candidate work: k=3 enumerations (one grounded factorization per
    candidate on the pool) and NC k=1/k=2 (per-candidate solves and the
    Python pair loop); the one table build per op is a few percent.
    Sizes form dense ladders, so op costs run smoothly from about 20 to
    300 ms and the median and p90 fall among several ops of similar cost,
    not on one op whose neighbours cost half or twice as much."""
    ops = []
    for family, n in (("random", 20), ("random", 21), ("random", 22),
                      ("random", 23), ("random", 24), ("random", 25),
                      ("random", 26), ("random", 27), ("cycle", 20),
                      ("cycle", 22), ("cycle", 24), ("cycle", 26), ("cycle", 28)):
        ops.append(_spec("select", rng, family, n, dynamics=NF, k=3))
    for family, n in (("random", 18), ("random", 19), ("random", 20),
                      ("random", 21), ("random", 22), ("random", 23),
                      ("cycle", 20), ("cycle", 22)):
        ops.append(_spec("select", rng, family, n, dynamics=NC, k=3,
                         kappa=_kappa(rng)))
    for n in (90, 110, 130, 150, 170):
        ops.append(_spec("select", rng, "random", n, dynamics=NC, k=1,
                         kappa=_kappa(rng)))
    # unit stubbornness on even cycles, so the antipodal closed form applies
    for family, n, kappa in (("random", 40, None), ("random", 50, None),
                             ("cycle", 60, 1.0), ("random", 70, None),
                             ("random", 80, None), ("random", 90, None),
                             ("random", 100, None), ("random", 110, None),
                             ("cycle", 120, 1.0)):
        ops.append(_spec("select", rng, family, n, dynamics=NC, k=2,
                         kappa=_kappa(rng) if kappa is None else kappa))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _select_table(rng):
    """Table work: one O(n^3) resistance table per op plus, for k=2, the
    O(n^3) Gram sweep over all C(n, 2) pairs. Tables are 8 n^2 bytes,
    2.9 MB at n=600 to 15 MB at n=1365: above one core's L2, below the
    LLC."""
    ops = []
    for family, n, tree in (("cycle", 600, None), ("random", 650, None),
                            ("random", 750, None), ("tree", None, (5, 4)),
                            ("cycle", 850, None), ("tree", None, (2, 9)),
                            ("random", 1100, None)):
        ops.append(_spec("select", rng, family, n, tree=tree, chords=n and n // 2,
                         dynamics=NF, k=2))
    for family, n, tree in (("random", 600, None), ("cycle", 700, None),
                            ("cycle", 800, None), ("random", 900, None),
                            ("random", 1000, None), ("tree", None, (3, 6)),
                            ("cycle", 1200, None), ("tree", None, (4, 5))):
        ops.append(_spec("select", rng, family, n, tree=tree, chords=n and n // 2,
                         dynamics=NF, k=1))
    return ops


def _sim_params(rng, kind, family, n, k, steps, tree=None, kappa=None):
    spec = _spec(kind, rng, family, n, tree=tree, chords=n and n // 2)
    spec["leaders"] = _leaders(rng, spec["n"], k)
    if kind == "simulate-nc":
        spec["kappa"] = _kappa(rng) if kappa is None else kappa
    lam = np.linalg.eigvalsh(system_matrix(spec))
    # EM is stable for dt < 2 / lambda_max; a quarter of that keeps the
    # discretisation bias small, and the check uses the exact discrete
    # expectation anyway
    spec["dt"] = float(0.25 / lam[-1])
    spec["steps"] = steps
    spec["sim_seed"] = int(rng.integers(0, 2**31))
    return spec


def _simulate(rng):
    """EM stepping only: loop-bound at two states, matvec-bound at 64.
    Step counts give every op about the same run time, so the median and
    p90 are not set by where two groups of ops happen to cross. Above ~24
    states the library spends more time drawing noise than stepping, so
    most ops are small systems and stepping stays the larger share."""
    nf, nc = "simulate-nf", "simulate-nc"
    return [
        # stiff: one heavily pinned leader, so dt is small
        _sim_params(rng, nc, "path", 2, 1, 14000, kappa=200.0),
        _sim_params(rng, nc, "path", 2, 1, 12500),
        _sim_params(rng, nf, "path", 3, 1, 11500),
        _sim_params(rng, nf, "path", 5, 1, 11000),
        _sim_params(rng, nc, "cycle", 6, 2, 9500),
        _sim_params(rng, nf, "cycle", 8, 1, 9000),
        _sim_params(rng, nc, "cycle", 8, 2, 8200),
        _sim_params(rng, nf, "cycle", 12, 2, 7600),
        _sim_params(rng, nf, "random", 16, 2, 7000),
        _sim_params(rng, nc, "random", 16, 2, 6200),
        _sim_params(rng, nc, "random", 24, 3, 4500),
        _sim_params(rng, nf, "tree", None, 3, 4600, tree=(2, 4)),
        _sim_params(rng, nc, "random", 32, 3, 3900),
        _sim_params(rng, nf, "random", 48, 4, 3000),
        _sim_params(rng, nc, "random", 64, 4, 2250),
    ]


def _validate(rng):
    """Write-beside-read: every op builds its own graph and table and asks
    it a handful of questions. Sizes follow dense log ladders from 10 to
    ~1000, so the median and p90 fall among many ops of similar cost and
    the few large ops set the tail."""
    ops = []
    for n in np.unique(np.geomspace(10, 1000, 20).round().astype(int)).tolist():
        k = 1 + int(rng.integers(0, 4))
        ops.append(_spec("xcheck-nf", rng, "random", n, leaders=_leaders(rng, n, k)))
        ops.append(_spec("xcheck-nc", rng, "random", n, leaders=_leaders(rng, n, k),
                         kappa=_kappa(rng)))
    for tree in ((2, 3), (3, 3), (2, 5), (2, 6), (4, 4), (3, 5), (2, 8), (2, 9)):
        n = (tree[0] ** (tree[1] + 1) - 1) // (tree[0] - 1)
        k = 1 + int(rng.integers(0, 4))
        ops.append(_spec("xcheck-nf", rng, "tree", tree=tree,
                         leaders=_leaders(rng, n, k)))
        ops.append(_spec("xcheck-nc", rng, "tree", tree=tree,
                         leaders=_leaders(rng, n, k), kappa=_kappa(rng)))
    for n in np.geomspace(12, 400, 13).round().astype(int).tolist():
        ops.append(_spec("xcheck-lf", rng, "random", n))
    for tree in ((3, 4), (2, 5), (2, 7)):
        ops.append(_spec("xcheck-lf", rng, "tree", tree=tree))
    for n in (20, 30, 40, 50, 60, 80, 100, 120, 150, 200, 250, 300):
        spec = _spec("edge-stream", rng, "random", n)
        spec["updates"] = [
            [*(int(x) for x in rng.choice(n, size=2, replace=False)),
             round(float(rng.uniform(0.5, 2.0)), 6),
             [[int(x) for x in rng.choice(n, size=2, replace=False)]
              for _ in range(6)]]
            for _ in range(6)
        ]
        ops.append(spec)
    for h0, steps in ((4, 2), (4, 4), (4, 6), (4, 8), (4, 12), (5, 2), (5, 4),
                      (5, 6), (5, 8), (5, 10), (5, 12)):
        ops.append({"kind": "grow", "h0": h0, "steps": steps})
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


_OP_LISTS = {
    "select-enum": _select_enum,
    "select-table": _select_table,
    "simulate": _simulate,
    "validate": _validate,
}


def make_ops(workload: str, seed: int) -> list[dict]:
    """One pass of ops for the workload, fully determined by the seed."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    return _OP_LISTS[workload](rng)


def digest(ops) -> str:
    """sha256 of the canonical JSON form of the op list."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def label(spec) -> str:
    """Short human-readable name of an op, for reports."""
    parts = [spec["kind"], spec.get("dynamics", ""), spec.get("family", "")]
    if "k" in spec:
        parts.append(f"k{spec['k']}")
    if "n" in spec:
        parts.append(f"n{spec['n']}")
    if "h0" in spec:
        parts.append(f"h{spec['h0']}")
    if "steps" in spec:
        parts.append(f"s{spec['steps']}")
    return ":".join(p for p in parts if p)


def prebuilt_graph(spec):
    """The graph an op hands the library, built during set-up; validate
    ops build theirs inside the timed region instead."""
    if "edges" not in spec or not spec["kind"].startswith(("select", "simulate")):
        return None
    return cl.build_graph(spec["edges"], spec["n"])


def warmup_ops(ops) -> list[int]:
    """Indices of the smallest op of each kind (and dynamics, k), run once
    in set-up so that lazy thread and library start-up is not timed."""
    first = {}
    for idx, spec in enumerate(ops):
        key = (spec["kind"], spec.get("dynamics"), spec.get("k"))
        size = spec.get("n") or spec.get("steps") or 0
        if key not in first or size < first[key][0]:
            first[key] = (size, idx)
    return [idx for _, idx in first.values()]


# ---------------------------------------------------------------------------
# timed calls; each returns a compact, comparable summary

def run_op(spec, g):
    kind = spec["kind"]
    if kind == "select":
        r = cl.brute_force_select(g, spec["k"], spec["dynamics"],
                                  kappa=spec.get("kappa"))
        return {"value": r.value, "first": list(r.optimal_sets[0]),
                "sets": len(r.optimal_sets), "co_optimal": r.co_optimal_count,
                "evaluated": r.evaluated_count}
    if kind in ("simulate-nf", "simulate-nc"):
        cfg = cl.SimConfig(dt=spec["dt"], horizon=spec["dt"] * spec["steps"],
                           burn_in=0.25, trials=SIM_TRIALS, seed=spec["sim_seed"])
        if kind == "simulate-nf":
            r = cl.simulate_nf(g, spec["leaders"], cfg)
        else:
            r = cl.simulate_nc(g, spec["leaders"], cfg, kappa=spec["kappa"])
        return {"value": r.value, "stderr": r.stderr, "steps": r.steps,
                "kept": r.kept_steps, "trials": r.trials}
    if kind == "grow":
        res = cl.grow_trajectory(spec["h0"], steps=spec["steps"])
        x, y = res.designated
        last = [(r.pair_id, r.value) for r in res.rows if r.step == spec["steps"]]
        return {"rows": len(res.rows), "designated": [x, y],
                "trajectory": [v for _, v in sorted(res.designated_values().items())],
                "last": last}
    g = cl.build_graph(spec["edges"], spec["n"])
    if kind == "xcheck-nf":
        return {"routes": [cl.coherence_nf(g, spec["leaders"], method=m).value
                           for m in ("trace", "resistance")]}
    if kind == "xcheck-nc":
        return {"routes": [cl.coherence_nc(g, spec["leaders"], kappa=spec["kappa"],
                                           method=m).value
                           for m in ("trace", "resistance")]}
    if kind == "xcheck-lf":
        # leader-free coherence is half the Kirchhoff index over n:
        # sum_{i<j} r_ij / (2n) = table.sum() / (4n)
        table = cl.resistance_oracle(g).table
        return {"routes": [cl.leader_free_coherence(g).value,
                           float(table.sum()) / (4.0 * g.node_count)]}
    if kind == "edge-stream":
        oracle = cl.resistance_oracle(g)
        return {"values": [[cl.edge_addition_update(oracle, i, j, w, p, q)
                            for p, q in queries]
                           for i, j, w, queries in spec["updates"]]}
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# checks, outside the timed region; each returns None or a failure message

def system_matrix(spec) -> np.ndarray:
    """The simulated drift matrix, assembled here from the edge list."""
    n = spec["n"]
    L = np.zeros((n, n))
    for u, v, w in spec["edges"]:
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
    if spec["kind"] == "simulate-nc":
        for v in spec["leaders"]:
            L[v, v] += spec["kappa"]
        return L
    keep = [v for v in range(n) if v not in set(spec["leaders"])]
    return L[np.ix_(keep, keep)]


def em_expectation(lam, dt, steps, burn):
    """Exact mean of the EM estimator: the time average over steps
    burn+1..steps of E|X_j|^2, started from X_0 = 0, summed over modes.
    Each mode is x_j = a x_{j-1} + sqrt(dt) xi_j with a = 1 - dt lambda."""
    a2 = (1.0 - dt * np.asarray(lam)) ** 2
    kept = steps - burn
    stationary = dt / (1.0 - a2)
    transient = a2 ** (burn + 1) * (1.0 - a2 ** kept) / (kept * (1.0 - a2))
    return float(np.sum(stationary * (1.0 - transient)))


def _check_select(spec, g, out):
    n, k = spec["n"], spec["k"]
    if out["evaluated"] != math.comb(n, k):
        return f"evaluated {out['evaluated']} != C({n},{k})"
    if not (1 <= out["sets"] <= out["co_optimal"]):
        return f"{out['sets']} sets listed for {out['co_optimal']} co-optimal"
    S = out["first"]
    if spec["dynamics"] == NF:
        ref = cl.coherence_nf(g, S).value
    else:
        ref = cl.coherence_nc(g, S, kappa=spec.get("kappa")).value
    if not _close(out["value"], ref, ROUTE_TOL):
        return f"value {out['value']!r} != trace route {ref!r} on {S}"
    closed = None
    if spec["family"] == "cycle" and spec["dynamics"] == NF:
        closed = cl.cycle_nf_optimal(n, k)[1]
    elif spec["family"] == "tree" and spec["dynamics"] == NF and k == 2:
        closed = cl.tree_optimal_two(*spec["tree"]).value
    elif (spec["family"] == "cycle" and spec["dynamics"] == NC and k == 2
          and spec.get("kappa") == 1.0 and n % 2 == 0):
        closed = cl.cycle_nc_optimal_value(n)
    if closed is not None and not _close(out["value"], closed, ROUTE_TOL):
        return f"value {out['value']!r} != closed form {closed!r}"
    # an optimum is no worse than a few other sets, by the trace route
    rng = np.random.default_rng(n * 1009 + k)
    for _ in range(2):
        other = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
        if spec["dynamics"] == NF:
            v = cl.coherence_nf(g, other).value
        else:
            v = cl.coherence_nc(g, other, kappa=spec.get("kappa")).value
        if v < out["value"] - ROUTE_TOL * max(1.0, v):
            return f"set {other} scores {v!r} below the reported optimum"
    return None


def _check_simulate(spec, g, out):
    A = system_matrix(spec)
    lam = np.linalg.eigvalsh(A)
    if spec["kind"] == "simulate-nf":
        analytic = cl.coherence_nf(g, spec["leaders"]).value
    else:
        analytic = cl.coherence_nc(g, spec["leaders"], kappa=spec["kappa"]).value
    if not _close(analytic, 0.5 * float(np.sum(1.0 / lam)), ROUTE_TOL):
        return f"trace route {analytic!r} != eigenvalue route"
    steps = spec["steps"]
    burn = int(0.25 * steps)
    if (out["steps"], out["kept"], out["trials"]) != (steps, steps - burn, SIM_TRIALS):
        return f"ran {out['steps']}/{out['kept']}/{out['trials']} steps/kept/trials"
    expected = em_expectation(lam, spec["dt"], steps, burn)
    if not abs(out["value"] - expected) <= SIM_SIGMAS * out["stderr"]:
        return (f"value {out['value']!r} is {abs(out['value'] - expected) / out['stderr']:.1f}"
                f" stderr from its expectation {expected!r}")
    return None


def _check_edge_stream(spec, out):
    base = [tuple(e) for e in spec["edges"]]
    for (i, j, w, queries), got in zip(spec["updates"], out["values"]):
        weights = {(min(u, v), max(u, v)): x for u, v, x in base}
        key = (min(i, j), max(i, j))
        weights[key] = weights.get(key, 0.0) + w
        table = cl.resistance_oracle(cl.build_graph(
            [(u, v, x) for (u, v), x in weights.items()], spec["n"])).table
        for (p, q), value in zip(queries, got):
            if not _close(value, float(table[p, q]), UPDATE_TOL):
                return f"update ({i},{j},{w}) gives r({p},{q})={value!r}, rebuilt {table[p, q]!r}"
    return None


def _check_grow(spec, out):
    tree = cl.init_growing_tree(spec["h0"])
    family = sum(1 for lv in tree.levels if lv <= 3)
    if out["rows"] != (spec["steps"] + 1) * math.comb(family, 2):
        return f"{out['rows']} rows for {spec['steps']} steps"
    designated = tuple(out["designated"])
    for step, value in enumerate(out["trajectory"]):
        ref = cl.coherence_nf(tree.to_graph(), designated).value
        if not _close(value, ref, ROUTE_TOL):
            return f"designated value {value!r} at step {step}, trace route {ref!r}"
        if step < spec["steps"]:
            tree.grow_step()
    g = tree.to_graph()
    for pair_id, value in out["last"]:
        S = tuple(int(x) for x in pair_id.split("-"))
        ref = cl.coherence_nf(g, S).value
        if not _close(value, ref, ROUTE_TOL):
            return f"pair {pair_id} value {value!r}, trace route {ref!r}"
    return None


def check_op(spec, g, out):
    """None when the op's summary agrees with an independent route."""
    kind = spec["kind"]
    if kind == "select":
        return _check_select(spec, g, out)
    if kind.startswith("simulate"):
        return _check_simulate(spec, g, out)
    if kind.startswith("xcheck"):
        a, b = out["routes"]
        return None if _close(a, b, ROUTE_TOL) else f"routes disagree: {a!r} vs {b!r}"
    if kind == "edge-stream":
        return _check_edge_stream(spec, out)
    if kind == "grow":
        return _check_grow(spec, out)
    return f"unknown op kind {kind!r}"


def same_result(a, b) -> bool:
    """A repeat of an op must give the result its first run gave (floats to
    the route tolerance, everything else exactly)."""
    if isinstance(a, float) and isinstance(b, float):
        return _close(a, b, ROUTE_TOL)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_result(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(itertools.starmap(same_result, zip(a, b)))
    return a == b
