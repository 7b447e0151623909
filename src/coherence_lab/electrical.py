"""Effective-resistance computations.

The network view: every edge of weight w is a resistor of 1/w. Pairwise
resistance r(i, j) is defined through the grounded Laplacian: it equals
the (i, i) entry of the inverse of the Laplacian with row and column j
removed. Node-to-set resistance r(i, S) generalizes this by grounding all
of S at once.

:func:`resistance` evaluates the grounded definition directly and serves
as the reference; :class:`ResistanceOracle` precomputes the full pairwise
table with a single symmetric factorization (ground one node, invert,
recombine) and answers set queries in O(|S|^2) per node via a Schur
complement on resistances only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dtrtri

from .errors import (
    BadKappaError,
    BadParameterError,
    BadWeightError,
    DisconnectedGraphError,
    EmptyLeaderSetError,
    LeaderQueriedError,
    OutOfRangeError,
    SameNodeError,
    SolverError,
)
from .graphs import Graph, is_connected, laplacian

#: relative backward-error bound contracted for every linear solve
SOLVE_TOLERANCE = 1e-10


# ---------------------------------------------------------------------------
# shared dense SPD helpers

def _cho(A):
    try:
        return cho_factor(A, lower=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"grounded system is not positive definite: {exc}") from exc


def spd_trace_inverse(A: np.ndarray) -> float:
    """Trace of the inverse of an SPD matrix.

    Uses the triangular inverse of the Cholesky factor, so only the trace
    is formed, not the full inverse.
    """
    n = A.shape[0]
    if n == 0:
        return 0.0
    c, _ = _cho(A)
    inv_u, info = dtrtri(c, lower=0)
    if info != 0:
        raise SolverError(f"triangular inversion failed (info={info})")
    return float((np.triu(inv_u) ** 2).sum())


def forest_inverse_diagonal(node_count, diagonal, offdiag_edges) -> np.ndarray:
    """Diagonal of the inverse of an SPD matrix whose graph is a forest.

    ``offdiag_edges`` holds (u, v, value) with value = A[u, v]. Two passes:
    leaf-to-root elimination pivots, then root-to-leaf back-substitution.
    Exact in O(n), which keeps trace computations on large trees cheap.
    """
    n = node_count
    adj = [[] for _ in range(n)]
    for u, v, a in offdiag_edges:
        adj[u].append((v, a))
        adj[v].append((u, a))
    parent = np.full(n, -1, dtype=np.int64)
    coupling = np.zeros(n)
    order = []
    seen = bytearray(n)
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for v, a in adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    parent[v] = u
                    coupling[v] = a
                    stack.append(v)
    pivot = np.asarray(diagonal, dtype=np.float64).copy()
    for u in reversed(order):
        p = parent[u]
        if p >= 0:
            if pivot[u] <= 0.0:
                raise SolverError("forest elimination hit a non-positive pivot")
            pivot[p] -= coupling[u] * coupling[u] / pivot[u]
    out = np.zeros(n)
    for u in order:
        p = parent[u]
        if pivot[u] <= 0.0:
            raise SolverError("forest elimination hit a non-positive pivot")
        if p < 0:
            out[u] = 1.0 / pivot[u]
        else:
            ratio = coupling[u] / pivot[u]
            out[u] = 1.0 / pivot[u] + ratio * ratio * out[p]
    return out


# ---------------------------------------------------------------------------
# grounding helpers

def _check_nodes(g: Graph, *nodes):
    for v in nodes:
        if not (0 <= int(v) < g.node_count):
            raise BadParameterError(f"node {v} outside [0,{g.node_count})")


def normalize_leaders(g: Graph, leaders) -> tuple[int, ...]:
    """Sorted unique leader tuple; rejects empty sets and bad ids."""
    S = tuple(sorted({int(v) for v in leaders}))
    if not S:
        raise EmptyLeaderSetError("leader set is empty")
    _check_nodes(g, *S)
    return S


def normalize_kappa(leaders, kappa) -> np.ndarray:
    """Per-leader stubbornness weights, defaulting to 1 where unspecified.

    Accepts a scalar, a node-to-weight mapping, or a sequence aligned with
    ``leaders``.
    """
    if kappa is None:
        vec = np.ones(len(leaders))
    elif np.isscalar(kappa):
        vec = np.full(len(leaders), float(kappa))
    else:
        try:
            vec = np.array([float(kappa.get(v, 1.0)) for v in leaders])
        except AttributeError:
            vec = np.asarray(list(kappa), dtype=np.float64)
            if vec.shape != (len(leaders),):
                raise BadKappaError(
                    f"kappa list has {vec.size} entries for {len(leaders)} leaders"
                )
    if not np.all(np.isfinite(vec)) or np.any(vec <= 0.0):
        raise BadKappaError("every stubbornness weight must be finite and > 0")
    return vec


def leaders_with_kappa(g: Graph, leaders, kappa) -> tuple[tuple[int, ...], np.ndarray]:
    """Sorted unique leaders and their stubbornness weights, aligned.

    A scalar or a node-to-weight mapping is read per node. A sequence
    follows the leaders in the order the caller gave them, so
    ``leaders=(5, 0), kappa=[1, 50]`` ties node 0 with weight 50; a
    sequence with repeated leaders is ambiguous and rejected.
    """
    given = [int(v) for v in leaders]
    S = normalize_leaders(g, given)
    if kappa is None or np.isscalar(kappa) or hasattr(kappa, "get"):
        return S, normalize_kappa(S, kappa)
    if len(S) != len(given):
        raise BadKappaError("a kappa list needs distinct leaders")
    vec = normalize_kappa(given, kappa)
    return S, vec[np.argsort(given)]


def grounded_laplacian(g: Graph, leaders) -> tuple[np.ndarray, list[int]]:
    """Laplacian with leader rows/columns removed, plus the follower ids."""
    S = set(normalize_leaders(g, leaders))
    followers = [v for v in range(g.node_count) if v not in S]
    L = laplacian(g)
    return L[np.ix_(followers, followers)], followers


# ---------------------------------------------------------------------------
# pairwise and node-to-set resistance

def resistance(g: Graph, i: int, j: int) -> float:
    """Effective resistance between two distinct nodes (grounded solve)."""
    _check_nodes(g, i, j)
    if i == j:
        raise SameNodeError(f"resistance needs two distinct nodes, got {i} twice")
    if not is_connected(g):
        raise DisconnectedGraphError("resistance requires a connected graph")
    keep = [v for v in range(g.node_count) if v != j]
    Lj = laplacian(g)[np.ix_(keep, keep)]
    pos = keep.index(i)
    e = np.zeros(len(keep))
    e[pos] = 1.0
    c = _cho(Lj)
    return float(cho_solve(c, e, check_finite=False)[pos])


def resistance_to_set(g: Graph, i: int, leaders) -> float:
    """Effective resistance from node i to the grounded set S.

    Returns the (i, i) entry of the inverse of the grounded Laplacian;
    coincides with :func:`resistance` when S is a single node.
    """
    S = normalize_leaders(g, leaders)
    _check_nodes(g, i)
    if i in S:
        raise LeaderQueriedError(f"node {i} is in the leader set")
    if not is_connected(g):
        raise DisconnectedGraphError("resistance_to_set requires a connected graph")
    Lff, followers = grounded_laplacian(g, S)
    pos = followers.index(i)
    e = np.zeros(len(followers))
    e[pos] = 1.0
    c = _cho(Lff)
    return float(cho_solve(c, e, check_finite=False)[pos])


def path_two_point_resistance(d_ux: float, d_xy: float) -> float:
    """Resistance from an interior path node to both ends.

    The two arcs of lengths d_ux and d_xy - d_ux act in parallel, giving
    d_ux - d_ux^2 / d_xy.
    """
    if not (0.0 < d_ux < d_xy):
        raise OutOfRangeError(f"need 0 < d_ux < d_xy, got d_ux={d_ux}, d_xy={d_xy}")
    return d_ux - d_ux * d_ux / d_xy


# ---------------------------------------------------------------------------
# the precomputed pairwise table

class ResistanceOracle:
    """Pairwise effective resistances of a connected graph, precomputed.

    Immutable after construction; all queries are read-only and safe to
    issue concurrently.
    """

    def __init__(self, graph: Graph, table: np.ndarray):
        self.graph = graph
        self.table = np.ascontiguousarray(table, dtype=np.float64)
        self._column_sums = None

    def resistance(self, i: int, j: int) -> float:
        _check_nodes(self.graph, i, j)
        if i == j:
            raise SameNodeError(f"resistance needs two distinct nodes, got {i} twice")
        return float(self.table[i, j])

    def column_sums(self) -> np.ndarray:
        """sum_u r(u, v) for every v; the single-leader totals."""
        if self._column_sums is None:
            self._column_sums = self.table.sum(axis=0)
        return self._column_sums

    def two_leader_profile(self, x: int, y: int) -> np.ndarray:
        """r(u, {x, y}) for every node u (zero at the leaders themselves)."""
        _check_nodes(self.graph, x, y)
        if x == y:
            raise SameNodeError("two-leader profile needs distinct leaders")
        R = self.table
        rxy = R[x, y]
        prof = R[:, x] - (R[:, x] + rxy - R[:, y]) ** 2 / (4.0 * rxy)
        prof[x] = 0.0
        prof[y] = 0.0
        return prof

    def set_profile(self, leaders) -> np.ndarray:
        """r(u, S) for every node u, via a Schur complement on resistances.

        Grounding the first leader turns the table into grounded-inverse
        entries A[a, b] = (r(a, s1) + r(b, s1) - r(a, b)) / 2; grounding
        the remaining leaders is then a rank-(|S| - 1) correction.
        """
        S = normalize_leaders(self.graph, leaders)
        R = self.table
        s1 = S[0]
        col1 = R[:, s1].copy()
        if len(S) == 1:
            col1[s1] = 0.0
            return col1
        rest = np.array(S[1:], dtype=np.intp)
        anchor = R[rest, s1]
        W = 0.5 * (col1[:, None] + anchor[None, :] - R[:, rest])
        C = 0.5 * (anchor[:, None] + anchor[None, :] - R[np.ix_(rest, rest)])
        c = _cho(C)
        Y = cho_solve(c, W.T, check_finite=False)
        prof = col1 - np.einsum("ut,tu->u", W, Y)
        prof[list(S)] = 0.0
        return prof

    def pair_totals(self) -> np.ndarray:
        """sum_u r(u, {x, y}) for every pair, via :func:`two_leader_totals`."""
        return two_leader_totals(self.table)

    def noise_corrupted_pair_total(self, x: int, y: int, kappa_x: float,
                                   kappa_y: float) -> float:
        """sum over all nodes of the resistance to the reference node s_bar
        when x and y are tied to it with weights kappa_x and kappa_y.

        Built by composing a pendant attachment at x (series resistor
        1/kappa_x) with the closed-form update for adding the edge
        (y, s_bar) of weight kappa_y.
        """
        _check_nodes(self.graph, x, y)
        if x == y:
            raise SameNodeError("noise-corrupted pair needs distinct leaders")
        if kappa_x <= 0.0 or kappa_y <= 0.0:
            raise BadKappaError("stubbornness weights must be > 0")
        R = self.table
        a = R[:, x] + 1.0 / kappa_x
        b = R[x, y] + 1.0 / kappa_x
        rbar = a - kappa_y * (R[:, y] - a - b) ** 2 / (4.0 * (1.0 + kappa_y * b))
        return float(rbar.sum())


def two_leader_totals(R: np.ndarray) -> np.ndarray:
    """Total two-leader resistance for every node pair.

    Given the pairwise resistance table ``R``, returns the symmetric matrix
    ``T`` with ``T[x, y] = sum_u r(u, {x, y})`` where

        r(u, {x, y}) = R[u, x] - (R[u, x] + R[x, y] - R[u, y])^2 / (4 R[x, y]).

    The leader terms themselves contribute zero, so the sum may run over all
    nodes. Expanding the square turns the u-sum into one Gram matrix plus
    column sums, which is what is evaluated here.
    """
    R = np.asarray(R, dtype=np.float64)
    n = R.shape[0]
    col = R.sum(axis=0)
    Q = R.T @ R
    q = np.diagonal(Q)
    num = (
        q[:, None]
        + q[None, :]
        - 2.0 * Q
        + 2.0 * R * (col[:, None] - col[None, :])
        + n * R * R
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        T = col[:, None] - num / (4.0 * R)
    np.fill_diagonal(T, 0.0)
    return T


def resistance_oracle(g: Graph, check_residual: bool = True) -> ResistanceOracle:
    """Precompute the full pairwise resistance table.

    One symmetric factorization of the Laplacian grounded at node 0, one
    multi-RHS solve, then r(i, j) = G[i, i] + G[j, j] - 2 G[i, j] with G
    padded by a zero row/column at the grounded node.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("resistance oracle requires a connected graph")
    n = g.node_count
    if n == 1:
        return ResistanceOracle(g, np.zeros((1, 1)))
    L = laplacian(g)
    L0 = L[1:, 1:]
    c = _cho(L0)
    G0 = cho_solve(c, np.eye(n - 1), check_finite=False)
    if check_residual:
        cols = np.linspace(0, n - 2, num=min(4, n - 1), dtype=np.intp)
        E = np.eye(n - 1)[:, cols]
        res = np.abs(L0 @ G0[:, cols] - E).max()
        scale = np.abs(L0).sum(axis=1).max() * np.abs(G0[:, cols]).max() + 1.0
        if res / scale > SOLVE_TOLERANCE:
            raise SolverError(
                f"solve residual {res / scale:.3e} exceeds {SOLVE_TOLERANCE:.0e}"
            )
    G = np.zeros((n, n))
    G[1:, 1:] = G0
    d = np.diagonal(G)
    table = d[:, None] + d[None, :] - 2.0 * G
    np.fill_diagonal(table, 0.0)
    return ResistanceOracle(g, table)


# ---------------------------------------------------------------------------
# augmentation and incremental updates

@dataclass(frozen=True)
class AugmentedGraph:
    """Base graph plus one reference node tied to every leader.

    The grounded Laplacian of ``graph`` at ``s_bar`` equals the base
    Laplacian plus the diagonal stubbornness weights, which is what links
    resistances to s_bar with noise-corrupted coherence.
    """

    graph: Graph
    base: Graph
    s_bar: int
    attachment: dict[int, float]


def augment_graph(g: Graph, leaders, kappa=None) -> AugmentedGraph:
    """Append the reference node s_bar with an edge of weight kappa_i to
    every leader i; ``kappa`` is read as in :func:`leaders_with_kappa`."""
    S, kvec = leaders_with_kappa(g, leaders, kappa)
    n = g.node_count
    edges = list(g.edges) + [(v, n, float(k)) for v, k in zip(S, kvec)]
    return AugmentedGraph(
        graph=Graph(n + 1, edges),
        base=g,
        s_bar=n,
        attachment={int(v): float(k) for v, k in zip(S, kvec)},
    )


def edge_addition_update(oracle: ResistanceOracle, i: int, j: int, w: float,
                         p: int, q: int) -> float:
    """Resistance between p and q after adding the edge (i, j) of weight w.

    Closed-form update on the existing table, no refactorization. If
    (i, j) is already an edge the addition acts as a parallel resistor
    (conductances add), which the same formula covers.
    """
    _check_nodes(oracle.graph, i, j, p, q)
    if i == j:
        raise SameNodeError("cannot add a self-loop")
    if w <= 0.0:
        raise BadWeightError(f"added edge weight must be > 0, got {w}")
    r = oracle.table
    delta = r[p, i] + r[q, j] - r[p, j] - r[q, i]
    return float(r[p, q] - w * delta * delta / (4.0 * (1.0 + w * r[i, j])))
