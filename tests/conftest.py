"""Shared helpers: independent oracles and random graph generators.

The oracles deliberately use plain numpy inverses and pseudoinverses on
matrices assembled from scratch, so they share no code path with the
package's Cholesky / triangular / forest-elimination routes.
"""

import numpy as np
import pytest

from coherence_lab import Graph, build_graph


def dense_laplacian(g: Graph) -> np.ndarray:
    L = np.zeros((g.node_count, g.node_count))
    for u, v, w in g.edges:
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
    return L


def naive_resistance(g: Graph, i: int, j: int) -> float:
    """Definitional oracle: (i, i) entry of the inverse with j grounded."""
    keep = [v for v in range(g.node_count) if v != j]
    Lj = dense_laplacian(g)[np.ix_(keep, keep)]
    return float(np.linalg.inv(Lj)[keep.index(i), keep.index(i)])


def naive_resistance_to_set(g: Graph, i: int, S) -> float:
    S = set(S)
    keep = [v for v in range(g.node_count) if v not in S]
    Lff = dense_laplacian(g)[np.ix_(keep, keep)]
    return float(np.linalg.inv(Lff)[keep.index(i), keep.index(i)])


def naive_nf_value(g: Graph, S) -> float:
    """Half the trace of the inverse grounded Laplacian, by plain inv."""
    S = set(S)
    keep = [v for v in range(g.node_count) if v not in S]
    if not keep:
        return 0.0
    Lff = dense_laplacian(g)[np.ix_(keep, keep)]
    return 0.5 * float(np.trace(np.linalg.inv(Lff)))


def naive_nc_value(g: Graph, S, kappa=1.0) -> float:
    M = dense_laplacian(g)
    for v in sorted(set(S)):
        kv = kappa.get(v, 1.0) if isinstance(kappa, dict) else kappa
        M[v, v] += kv
    return 0.5 * float(np.trace(np.linalg.inv(M)))


def naive_em(A: np.ndarray, cfg):
    """Euler-Maruyama one step at a time on the simulator's noise streams.

    Trial t draws its whole (steps, n) noise block from the t-th child of
    ``SeedSequence(cfg.seed)`` and advances X <- X - dt A X + sqrt(dt) xi,
    adding |X|^2 after every step past the burn-in. Returns
    (value, stderr, steps, kept_steps).
    """
    n = A.shape[0]
    steps = max(1, int(round(cfg.horizon / cfg.dt)))
    burn = int(cfg.burn_in * steps)
    m = cfg.trials
    seeds = np.random.SeedSequence(cfg.seed).spawn(m)
    noise = np.stack([np.random.default_rng(s).standard_normal((steps, n))
                      for s in seeds], axis=2)
    X = np.zeros((n, m))
    acc = np.zeros(m)
    sq = np.sqrt(cfg.dt)
    for s in range(steps):
        X = X - cfg.dt * (A @ X) + sq * noise[s]
        if s >= burn:
            acc += (X * X).sum(axis=0)
    per_trial = acc / (steps - burn)
    stderr = float(per_trial.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return float(per_trial.mean()), stderr, steps, steps - burn


def naive_resistance_table(g: Graph) -> np.ndarray:
    """Pairwise resistances from the Laplacian pseudoinverse."""
    P = np.linalg.pinv(dense_laplacian(g))
    d = np.diag(P)
    R = d[:, None] + d[None, :] - 2.0 * P
    np.fill_diagonal(R, 0.0)
    return R


def random_connected_graph(rng, n: int, extra_edges: int = 0,
                           weighted: bool = True) -> Graph:
    """Random spanning tree plus extra chords, positive random weights."""
    def weight():
        return float(rng.uniform(0.2, 3.0)) if weighted else 1.0

    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = weight()
    attempts = 0
    while len(edges) < n - 1 + extra_edges and attempts < 50 * (extra_edges + 1):
        attempts += 1
        u, v = rng.integers(0, n, size=2)
        u, v = int(min(u, v)), int(max(u, v))
        if u != v and (u, v) not in edges:
            edges[(u, v)] = weight()
    return build_graph([(u, v, w) for (u, v), w in edges.items()], node_count=n)


def random_tree(rng, n: int, weighted: bool = True) -> Graph:
    return random_connected_graph(rng, n, extra_edges=0, weighted=weighted)


def stiff_graph(rng, n=12, chords=6):
    """Random connected graph with edge weights spread over 10^-3 .. 10^3.

    ``chords`` is clipped to the pairs the spanning tree leaves free, so a
    small n gives the complete graph instead of looping forever.
    """
    edges = {}
    for v in range(1, n):
        edges[(int(rng.integers(0, v)), v)] = None
    chords = min(chords, n * (n - 1) // 2 - (n - 1))
    while len(edges) < n - 1 + chords:
        u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges[(u, v)] = None
    return build_graph(
        [(u, v, float(10.0 ** rng.uniform(-3.0, 3.0))) for u, v in edges],
        node_count=n,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
