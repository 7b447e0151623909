"""Shared helpers: independent oracles and random graph generators.

The oracles deliberately use plain numpy inverses and pseudoinverses on
matrices assembled from scratch, so they share no code path with the
package's Cholesky / triangular / forest-elimination routes. The exact
referee (:func:`exact_table`, :func:`exact_total`) works in stdlib
rationals, so it has no rounding at all.
"""

from fractions import Fraction

import numpy as np
import pytest

from coherence_lab import Graph, build_graph, electrical
from coherence_lab.selection import _total_blocks


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
    """Euler-Maruyama one step at a time in state space, on the simulator's
    noise streams.

    Trial t draws its whole (steps, n) block of modal noise from the t-th
    child of ``SeedSequence(cfg.seed)`` and maps it into state space as
    xi = V eta, with V from its own ``np.linalg.eigh(A)``; it advances
    X <- X - dt A X + sqrt(dt) xi, adding |X|^2 after every step past the
    burn-in. Returns (value, stderr, steps, kept_steps).
    """
    n = A.shape[0]
    steps = max(1, int(round(cfg.horizon / cfg.dt)))
    burn = int(cfg.burn_in * steps)
    m = cfg.trials
    V = np.linalg.eigh(A)[1]
    seeds = np.random.SeedSequence(cfg.seed).spawn(m)
    noise = np.stack([np.random.default_rng(s).standard_normal((steps, n)) @ V.T
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


def exact_table(g: Graph) -> list[list[Fraction]]:
    """Exact pairwise resistances of a connected graph, in rationals.

    Every weight is a binary float, which ``Fraction`` reads exactly. The
    Laplacian grounded at node 0 is inverted once by Gauss-Jordan
    elimination (it is positive definite, so no pivot is zero); with P that
    inverse padded by a zero row and column at node 0,
    r(u, v) = P_uu + P_vv - 2 P_uv.
    """
    n = g.node_count
    L = [[Fraction(0)] * n for _ in range(n)]
    for u, v, w in g.edges:
        w = Fraction(w)
        L[u][u] += w
        L[v][v] += w
        L[u][v] -= w
        L[v][u] -= w
    m = n - 1
    # [L0 | I] reduced to [I | L0^-1]
    M = [L[i + 1][1:] + [Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for c in range(m):
        pivot = M[c][c]
        M[c] = [x / pivot for x in M[c]]
        for r in range(m):
            f = M[r][c]
            if r != c and f:
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    P = [[Fraction(0)] * n] + [[Fraction(0)] + row[m:] for row in M]
    return [[P[u][u] + P[v][v] - 2 * P[u][v] for v in range(n)] for u in range(n)]


def exact_total(table, S, inv_kappa=0) -> Fraction:
    """Exact sum_u r(u, S): the trace of the inverse system matrix, twice the
    coherence, for the sorted leader set ``S`` on :func:`exact_table`'s
    ``table``. ``inv_kappa`` is 1/kappa, one for every leader or a sequence
    with one per leader of ``S``: 0 pins the leaders (noise-free),
    otherwise each is tied to the ground by its conductance kappa
    (noise-corrupted).

    The first leader s grounds the table, G_uv = (R_us + R_vs - R_uv) / 2 +
    1/kappa_s, whose trace is sum_u R_us + n/kappa_s; each further leader t
    is one exact Schur step G <- G - G_t G_t^T / (G_tt + 1/kappa_t), of
    which only the trace and the columns of the leaders still to come are
    kept.
    """
    R = table
    n = len(R)
    recip = list(inv_kappa) if hasattr(inv_kappa, "__len__") else [inv_kappa] * len(S)
    s, rest = S[0], list(S[1:])
    total = sum(R[u][s] for u in range(n)) + n * recip[0]
    cols = [[(R[u][s] + R[t][s] - R[u][t]) / 2 + recip[0] for u in range(n)]
            for t in rest]
    for i, t in enumerate(rest):
        c = cols[i]
        p = c[t] + recip[i + 1]
        total -= sum(x * x for x in c) / p
        for j in range(i + 1, len(rest)):
            f = c[rest[j]] / p
            cols[j] = [a - f * b for a, b in zip(cols[j], c)]
    return total


def assert_exact(value: float, exact: Fraction, rtol: float = 1e-9) -> None:
    """``value`` within ``rtol`` relative of the exact rational ``exact``."""
    assert abs(Fraction(value) - exact) <= Fraction(rtol) * exact, (value, float(exact))


def naive_resistance_table(g: Graph) -> np.ndarray:
    """Pairwise resistances from the Laplacian pseudoinverse."""
    P = np.linalg.pinv(dense_laplacian(g))
    d = np.diag(P)
    R = d[:, None] + d[None, :] - 2.0 * P
    np.fill_diagonal(R, 0.0)
    return R


def naive_two_leader_totals(R: np.ndarray) -> np.ndarray:
    """sum_u r(u, {x, y}) for every pair, from the two-leader formula
    r(u, {x, y}) = R[u, x] - (R[u, x] + R[x, y] - R[u, y])^2 / (4 R[x, y]),
    one leader x at a time; zero on the diagonal."""
    n = R.shape[0]
    T = np.zeros((n, n))
    for x in range(n):
        others = np.arange(n) != x
        rxy = R[x, others]
        num = R[:, x, None] + rxy[None, :] - R[:, others]
        T[x, others] = (R[:, x, None] - num * num / (4.0 * rxy[None, :])).sum(axis=0)
    return T


def sweep_pair_totals(oracle, recip=None) -> np.ndarray:
    """The k = 2 search's pair totals sum_u r(u, {x, y}) in the upper
    triangle, x < y, and +inf elsewhere; ``recip`` is the search's (2, n)
    array of 1/kappa per position, or None for noise-free."""
    n = oracle.table.shape[0]
    T = np.full((n, n), np.inf)
    for totals, sets_at in _total_blocks(oracle, 2, recip):
        held = np.nonzero(np.isfinite(totals))
        x, y = sets_at(held).T
        T[x, y] = totals[held]
    return T


def route_counter(monkeypatch):
    """A function that runs a computation and reports the routes its
    grounded solves and tables took: eliminations of a forest and of a
    peeled system, the sizes handed to the dense kernel (a whole system, or
    the core that a peel left), the spanning forests grown and peels run to
    choose a route, and each table's route: ``path-sums``, ``lapack`` for a
    whole factor or ``peeled``."""
    calls = route()
    eliminate, factor = electrical._eliminate, electrical._factor
    grounded_inverse, one_cycle = electrical._grounded_inverse, electrical._one_cycle_table

    def eliminated(diag, off, columns, diagonal, plan):
        # a plan with no order eliminates nothing: its whole system goes to
        # the dense kernel, which counts it. Only a peel's plan has entries
        # between two neighbours
        if plan.order:
            calls["forest" if plan.ab_slot is None else "peeled"] += 1
        return eliminate(diag, off, columns, diagonal, plan)

    def factored(diag, *args, **kwargs):
        calls["factored"].append(diag.size)
        return factor(diag, *args, **kwargs)

    def inverted(*args):
        G, at, y = grounded_inverse(*args)
        calls["tables"].append("lapack" if at is None else "peeled")
        return G, at, y

    def path_sums(*args):
        calls["tables"].append("path-sums")
        return one_cycle(*args)

    def counted(name, original):
        def spy(*args):
            calls[name] += 1
            return original(*args)
        return spy

    monkeypatch.setattr(electrical, "_eliminate", eliminated)
    monkeypatch.setattr(electrical, "_factor", factored)
    monkeypatch.setattr(electrical, "_grounded_inverse", inverted)
    monkeypatch.setattr(electrical, "_one_cycle_table", path_sums)
    monkeypatch.setattr(electrical, "rooted_forest",
                        counted("rooted_forest", electrical.rooted_forest))
    monkeypatch.setattr(electrical, "_peel", counted("peel", electrical._peel))

    def routes(compute):
        calls.update(route())
        compute()
        return dict(calls)
    return routes


def route(forest=0, peeled=0, factored=(), rooted_forest=0, peel=0, tables=()):
    return dict(forest=forest, peeled=peeled, factored=list(factored),
                rooted_forest=rooted_forest, peel=peel, tables=list(tables))


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
