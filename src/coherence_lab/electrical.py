"""Effective-resistance computations.

The network view: every edge of weight w is a resistor of 1/w. Pairwise
resistance r(i, j) is defined through the grounded Laplacian: it equals
the (i, i) entry of the inverse of the Laplacian with row and column j
removed. Node-to-set resistance r(i, S) generalizes this by grounding all
of S at once. Every grounded matrix here is :func:`grounded_laplacian`,
assembled directly from the edge list by ``graphs._grounded_entries``.

:func:`resistance_to_set` evaluates the grounded definition directly and
serves as the reference (:func:`resistance` is its one-node case);
:func:`resistance_oracle` precomputes the full pairwise table: it grounds
node 0, factors and inverts that matrix in place with LAPACK (about n^3
flops), and writes the recombined table row block by row block, so it
holds about two n x n arrays at its peak. The noise-free pair sweep
:func:`two_leader_totals` needs one Gram matrix (BLAS ``dsyrk``, n^3
flops) and likewise two n x n arrays. Both refuse, with
``BudgetExceededError``, any n whose two arrays would pass a fixed byte
budget (4 GiB, about n = 16k). Every dense Cholesky factor is followed by
a LAPACK condition estimate, and a grounded matrix whose forward-error
scale eps/rcond passes ``_CONDITION_LIMIT`` raises ``SolverError``.
Every set query on the table is :meth:`ResistanceOracle.set_totals`,
which grounds a batch of leader sets one leader at a time with the
rank-one Schur steps of :func:`schur_columns`. A leader tied to a
reference node by a 1/kappa resistor (noise-corrupted) becomes a pinned
leader (noise-free) as kappa grows without bound, so both dynamics take
the same steps, the pinned ones without the 1/kappa terms.

Every dense kernel runs on scipy's BLAS/LAPACK (``scipy.linalg``). numpy
links its own OpenBLAS with its own thread pool, and a call there between
scipy's calls would leave that pool's threads spinning against scipy's.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpocon, dpotrf, dpotri, dtrtri

from .errors import (
    BadKappaError,
    BadParameterError,
    BadWeightError,
    BudgetExceededError,
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
#: largest forward-error scale eps/rcond accepted from a Cholesky factor.
#: The test suite stays below 1.3e-9 and the benchmark ops below 1.6e-10.
#: The path with weights (1, w) gives about 8.9e-16 w, so it raises from
#: w ~ 1.1e9 on; from w = 1e15 on its grounded matrix is rounded at
#: assembly past any accuracy (eps/rcond >= 0.89)
_CONDITION_LIMIT = 1e-6
#: bytes of n x n float arrays that one table build or pair sweep may hold
_TABLE_BUDGET = 4 << 30
#: floats per row block when a table or the pair totals are formed
_BLOCK_FLOATS = 1 << 15


# ---------------------------------------------------------------------------
# shared dense SPD helpers

def _cho(A):
    try:
        c, lower = cho_factor(A, lower=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"grounded system is not positive definite: {exc}") from exc
    _check_condition(c, np.abs(A).sum(axis=0).max(), lower)
    return c, lower


def _check_condition(c: np.ndarray, anorm: float, lower: bool) -> None:
    """Raise SolverError unless eps/rcond is within ``_CONDITION_LIMIT``.

    ``c`` is the Cholesky factor (in its ``lower`` or upper triangle) of a
    matrix whose 1-norm is ``anorm``; LAPACK ``dpocon`` estimates the
    reciprocal condition number rcond from it in O(n^2). eps/rcond scales
    the relative forward error of every solve with that factor (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 10).
    """
    rcond, info = dpocon(c, anorm, uplo="L" if lower else "U")
    if info != 0:
        raise SolverError(f"LAPACK condition estimate failed (info={info})")
    eps = np.finfo(np.float64).eps
    # written so that a NaN estimate fails too
    if not rcond * _CONDITION_LIMIT >= eps:
        scale = eps / rcond if rcond > 0.0 else math.inf
        raise SolverError(
            f"grounded system is too ill-conditioned: eps/rcond {scale:.1e} "
            f"exceeds {_CONDITION_LIMIT:.0e}"
        )


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
        # a read-only view: the cached column sums cannot go stale, and the
        # caller's own array stays writable
        self.table = np.ascontiguousarray(table, dtype=np.float64).view()
        self.table.flags.writeable = False
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
    column sums. The Gram matrix R R (R is symmetric) is one symmetric
    rank-n update, BLAS ``dsyrk`` (n^3 flops): handed the Fortran-order
    view ``R.T``, it copies nothing and its lower triangle, transposed, is
    the upper triangle of ``T``. The rest of the formula is applied in
    place on that buffer, over the upper triangle in row blocks, and
    mirrored. Peak memory is the table plus ``T`` plus one row block.
    """
    R = np.asarray(R, dtype=np.float64)
    n = R.shape[0]
    _check_table_budget(n, "the pair sweep")
    col = R.sum(axis=0)
    T = dsyrk(1.0, R.T, trans=1, lower=1).T
    q = np.diagonal(T).copy()
    rows = _block_rows(n)
    scratch = np.empty((rows, n))
    below = np.tri(rows, k=-1, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(0, n, rows):
            b = min(a + rows, n)
            t, r, s = T[a:b, a:], R[a:b, a:], scratch[:b - a, :n - a]
            cx = col[a:b, None]
            # num = q_x + q_y - 2 Q + 2 R (c_x - c_y) + n R^2, then
            # T = c_x - num / (4 R); scaling by 2 or 4 is exact, so each
            # entry rounds as the expression written out would
            t *= 2.0
            np.subtract(np.add(q[a:b, None], q[a:], out=s), t, out=t)
            np.subtract(cx, col[a:], out=s)
            s *= r
            s *= 2.0
            t += s
            np.multiply(r, float(n), out=s)
            s *= r
            t += s
            t /= r
            t *= 0.25
            np.subtract(cx, t, out=t)
            _mirror_rows(T, a, b, below)
    np.fill_diagonal(T, 0.0)
    return T


def resistance_oracle(g: Graph) -> ResistanceOracle:
    """Precompute the full pairwise resistance table.

    The Laplacian grounded at node 0, L0, is factored and inverted in place
    by LAPACK (``dpotrf`` then ``dpotri``, about n^3 flops) into G0, the
    inverse's upper triangle. Row block by row block, the triangle is
    mirrored and r(i, j) = G[i, i] + G[j, j] - 2 G[i, j] written straight
    into the table, with G0 padded by a zero row/column at node 0. Peak
    memory is the table plus G0 plus one row block. Between the factor and
    the inverse, ``dpocon`` estimates L0's condition (``_check_condition``).
    The inverse's residual L0 G0 - I is checked on a few columns against
    ``SOLVE_TOLERANCE``, with L0 applied from the edge list since the
    factor overwrote it.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("resistance oracle requires a connected graph")
    n = g.node_count
    _check_table_budget(n, "the resistance table")
    if n == 1:
        return ResistanceOracle(g, np.zeros((1, 1)))
    _, diag, off = _grounded_entries(g, (0,))
    G0 = _dense(diag, off)
    edges = _edge_ends(off)
    ends, _, weights = edges
    # L0 is symmetric, so its 1-norm is its largest absolute row sum
    anorm = (np.abs(diag) + np.bincount(ends, np.abs(weights), minlength=n - 1)).max()
    # G0 is symmetric, so its transpose is the Fortran-order view LAPACK
    # overwrites; the lower triangle there is the upper triangle here
    c, info = dpotrf(G0.T, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise SolverError(f"grounded system is not positive definite "
                          f"(leading minor {info})")
    if info == 0:
        _check_condition(c, anorm, lower=True)
        _, info = dpotri(c, lower=1, overwrite_c=1)
    if info != 0:
        raise SolverError(f"LAPACK factor-and-invert failed (info={info})")
    m = n - 1
    d = np.diagonal(G0)
    table = np.empty((n, n))
    table[0, 0] = 0.0
    table[0, 1:] = d
    table[1:, 0] = d
    rows = _block_rows(m)
    below = np.tri(rows, k=-1, dtype=bool)
    for a in range(0, m, rows):
        b = min(a + rows, m)
        _mirror_rows(G0, a, b, below)
        # (d_i + d_j) - 2 G_ij is exactly 0 on the diagonal
        t = table[a + 1:b + 1, 1:]
        np.add(d[a:b, None], d, out=t)
        t -= 2.0 * G0[a:b]
    _check_residual(G0, diag, edges, anorm)
    return ResistanceOracle(g, table)


def _block_rows(n: int) -> int:
    """Rows per block of an n x n sweep, about ``_BLOCK_FLOATS`` floats."""
    return max(1, min(n, _BLOCK_FLOATS // n))


def _mirror_rows(A: np.ndarray, a: int, b: int, below: np.ndarray) -> None:
    """Copy rows a:b of A's upper triangle onto its lower triangle.

    Run over the row blocks in order, this completes rows a:b: the columns
    before a came from earlier blocks, the diagonal block is mirrored here,
    and the rest is the upper triangle itself. ``below`` is a strictly
    lower-triangular mask at least b - a on a side.
    """
    A[b:, a:b] = A[a:b, b:].T
    block = A[a:b, a:b]
    np.copyto(block, block.T, where=below[:b - a, :b - a])


def _edge_ends(off):
    """Both orientations of the ``(row, row, value)`` entries in ``off``,
    as ``(rows, columns, values)`` arrays."""
    i, j, a = zip(*off) if off else ((), (), ())
    return (np.array(i + j, dtype=np.intp), np.array(j + i, dtype=np.intp),
            np.array(a + a, dtype=np.float64))


def _check_residual(G0: np.ndarray, diag: np.ndarray, edges, anorm: float) -> None:
    """Raise SolverError unless L0 G0 is the identity on four columns.

    L0 has diagonal ``diag``, the off-diagonal entries ``edges`` (from
    :func:`_edge_ends`) and the 1-norm (equal to its infinity norm)
    ``anorm``; it is applied to each column from those entries, O(m) per
    column. The residual is scaled by ``anorm`` times the largest entry of
    the checked columns.
    """
    m = G0.shape[0]
    k = min(4, m)
    cols = np.arange(k) * (m - 1) // max(1, k - 1)
    X = G0[cols]  # the checked columns, stored as rows: G0 is symmetric
    ends, others, weights = edges
    terms = X[:, others] * weights
    LX = X * diag
    for c in range(k):
        LX[c] += np.bincount(ends, terms[c], minlength=m)
    LX[np.arange(k), cols] -= 1.0
    res = np.abs(LX).max()
    scale = anorm * np.abs(X).max() + 1.0
    # written so that a NaN residual fails too
    if not res / scale <= SOLVE_TOLERANCE:
        raise SolverError(
            f"solve residual {res / scale:.3e} exceeds {SOLVE_TOLERANCE:.0e}"
        )


def _check_table_budget(n: int, what: str) -> None:
    """Raise BudgetExceededError if two n x n float arrays pass the budget.

    Building the table holds the table and the grounded inverse; the pair
    sweep holds the table and the pair totals.
    """
    need = 2 * 8 * n * n
    if need > _TABLE_BUDGET:
        raise BudgetExceededError(
            f"{what} on {n} nodes needs {need / 2**20:.0f} MiB, over the "
            f"budget of {_TABLE_BUDGET / 2**20:.0f} MiB"
        )


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
