"""Effective-resistance computations.

The network view: every edge of weight w is a resistor of 1/w. Pairwise
resistance r(i, j) is defined through the grounded Laplacian: it equals
the (i, i) entry of the inverse of the Laplacian with row and column j
removed. Node-to-set resistance r(i, S) generalizes this by grounding all
of S at once. Every grounded matrix here is :func:`grounded_laplacian`,
assembled directly from the edge list by ``graphs._grounded_entries``.

:func:`resistance_to_set` evaluates the grounded definition directly and
serves as the reference (:func:`resistance` is its one-node case);
:class:`ResistanceOracle` precomputes the full pairwise table with a
single symmetric factorization (ground one node, invert, recombine).
Every set query on the table is :meth:`ResistanceOracle.set_totals`,
which grounds a batch of leader sets one leader at a time with the
rank-one Schur steps of :func:`schur_columns`. A leader tied to a
reference node by a 1/kappa resistor (noise-corrupted) becomes a pinned
leader (noise-free) as kappa grows without bound, so both dynamics take
the same steps, the pinned ones without the 1/kappa terms.
"""

from __future__ import annotations

import math
import numbers

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
from .graphs import Graph, _dense, _grounded_entries, is_connected

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

def _is_int(value) -> bool:
    """True for Python and numpy integers, False for bools and the rest."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_nodes(g: Graph, *nodes):
    for v in nodes:
        if not _is_int(v):
            raise BadParameterError(f"node id must be an integer, got {v!r}")
        if not (0 <= v < g.node_count):
            raise BadParameterError(f"node {v} outside [0,{g.node_count})")


def normalize_leaders(g: Graph, leaders) -> tuple[int, ...]:
    """Sorted unique leader tuple; rejects empty sets and bad ids."""
    given = list(leaders)
    _check_nodes(g, *given)
    S = tuple(sorted({int(v) for v in given}))
    if not S:
        raise EmptyLeaderSetError("leader set is empty")
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
    given = list(leaders)
    S = normalize_leaders(g, given)
    if kappa is None or np.isscalar(kappa) or hasattr(kappa, "get"):
        return S, normalize_kappa(S, kappa)
    if len(S) != len(given):
        raise BadKappaError("a kappa list needs distinct leaders")
    vec = normalize_kappa(given, kappa)
    return S, vec[np.argsort(given)]


def grounded_laplacian(g: Graph, leaders) -> tuple[np.ndarray, list[int]]:
    """Laplacian with leader rows/columns removed, plus the follower ids."""
    followers, diag, off = _grounded_entries(g, normalize_leaders(g, leaders))
    return _dense(diag, off), followers


# ---------------------------------------------------------------------------
# pairwise and node-to-set resistance

def resistance(g: Graph, i: int, j: int) -> float:
    """Effective resistance between two distinct nodes (grounded solve)."""
    _check_nodes(g, i, j)
    if i == j:
        raise SameNodeError(f"resistance needs two distinct nodes, got {i} twice")
    return resistance_to_set(g, i, (j,))


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

    def set_totals(self, sets, inv_kappa=None) -> np.ndarray:
        """sum_u r(u, S) for every row S of ``sets``, to a reference node
        tied to each leader by 1/kappa when ``inv_kappa`` is given.

        ``sets`` is an (m, k) array of distinct leaders per row;
        ``inv_kappa`` an optional (m, k) array of 1/kappa per position.
        The value is twice the coherence of that leader set. The anchor
        s1 contributes column sum s1 (plus n/kappa_s1), and each later
        leader's Schur step lowers it by |column|^2 / pivot. With every
        node pinned the total is exactly 0, where the Schur steps would
        leave a rounding residue of either sign.
        """
        sets = np.asarray(sets, dtype=np.intp)
        n = self.table.shape[0]
        if inv_kappa is None and sets.shape[1] == n:
            return np.zeros(sets.shape[0])
        totals = self.column_sums()[sets[:, 0]]
        if inv_kappa is not None:
            totals = totals + n * inv_kappa[:, 0]
        cols, pivots = schur_columns(self.table, sets, inv_kappa)
        for j in range(sets.shape[1] - 1):
            totals -= np.einsum("cu,cu->c", cols[:, j], cols[:, j]) / pivots[:, j]
        return totals

    def pair_totals(self) -> np.ndarray:
        """sum_u r(u, {x, y}) for every pair, via :func:`two_leader_totals`."""
        return two_leader_totals(self.table)


def schur_columns(R: np.ndarray, sets: np.ndarray, inv_kappa=None):
    """Ground every row of ``sets`` on the table, one leader at a time.

    Grounding the anchor s1 turns the table into the grounded-inverse
    entries A[u, a] = (r(u, s1) + r(a, s1) - r(u, a)) / 2 (plus 1/kappa_s1
    when s1 is tied to the reference node), whose diagonal is r(u, s1).
    Each later leader t is then grounded by a rank-one Schur step with
    pivot A[t, t] (plus 1/kappa_t): the diagonal drops by A[:, t]^2 / pivot
    and the columns of the leaders after t lose A[:, t] A[t, :] / pivot.
    Only those k - 1 columns are ever formed.

    Returns ``(cols, pivots)`` of shapes (m, k - 1, n) and (m, k - 1):
    ``cols[c, j]`` is the column of leader ``sets[c, j + 1]`` at its own
    step and ``pivots[c, j]`` its pivot. Raises SolverError on a pivot
    that is not positive.
    """
    rows = np.arange(sets.shape[0])
    anchor, rest = sets[:, 0], sets[:, 1:]
    if rest.shape[1] == 0:
        return np.empty((rows.size, 0, R.shape[0])), np.empty((rows.size, 0))
    R_anchor = R[anchor]
    cols = R_anchor[:, None, :] + R_anchor[rows[:, None], rest][:, :, None]
    cols -= R[rest]
    cols *= 0.5
    if inv_kappa is not None:
        cols += inv_kappa[:, :1, None]
    pivots = np.empty(rest.shape)
    for j in range(rest.shape[1]):
        col = cols[:, j]
        pivot = col[rows, rest[:, j]]
        if inv_kappa is not None:
            pivot = pivot + inv_kappa[:, j + 1]
        if not np.all(pivot > 0.0):
            raise SolverError("grounded system is not positive definite: "
                              "a Schur pivot is not positive")
        pivots[:, j] = pivot
        later = rest[:, j + 1:]
        if later.shape[1]:
            coupling = np.take_along_axis(col, later, axis=1) / pivot[:, None]
            cols[:, j + 1:] -= coupling[:, :, None] * col[:, None, :]
    return cols, pivots


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


def resistance_oracle(g: Graph) -> ResistanceOracle:
    """Precompute the full pairwise resistance table.

    One symmetric factorization of the Laplacian grounded at node 0, one
    multi-RHS solve, then r(i, j) = G[i, i] + G[j, j] - 2 G[i, j] with G
    padded by a zero row/column at the grounded node. The solve's residual
    is checked on a few columns against ``SOLVE_TOLERANCE``.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("resistance oracle requires a connected graph")
    n = g.node_count
    if n == 1:
        return ResistanceOracle(g, np.zeros((1, 1)))
    L0, _ = grounded_laplacian(g, (0,))
    c = _cho(L0)
    G0 = cho_solve(c, np.eye(n - 1), check_finite=False)
    cols = np.linspace(0, n - 2, num=min(4, n - 1), dtype=np.intp)
    E = np.zeros((n - 1, cols.size))
    E[cols, np.arange(cols.size)] = 1.0
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
# incremental updates

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
    if not (math.isfinite(w) and w > 0.0):
        raise BadWeightError(f"added edge weight must be finite and > 0, got {w}")
    r = oracle.table
    delta = r[p, i] + r[q, j] - r[p, j] - r[q, i]
    return float(r[p, q] - w * delta * delta / (4.0 * (1.0 + w * r[i, j])))
