"""Effective-resistance computations.

The network view: every edge of weight w is a resistor of 1/w. Pairwise
resistance r(i, j) is defined through the grounded Laplacian: it equals
the (i, i) entry of the inverse of the Laplacian with row and column j
removed. Node-to-set resistance r(i, S) generalizes this by grounding all
of S at once. Every grounded matrix here is :func:`grounded_laplacian`,
assembled from the graph's edge arrays by ``graphs._grounded_entries``.

:func:`resistance_to_set` evaluates the grounded definition directly and
serves as the reference (:func:`resistance` is its one-node case);
:func:`resistance_oracle` precomputes the full pairwise table from the
inverse of the Laplacian grounded at node 0, by one of two routes chosen
from the edge count. A connected graph with at most one cycle (m <= n:
trees, paths, cycles, unicyclic graphs) takes O(n^2) path sums over a
spanning tree, where the inverse is the resistance from node 0 to the
nearest common ancestor, plus one rank-one update for the edge the tree
leaves out. Every other graph is factored and inverted in place by
LAPACK (about n^3 flops), as is a graph with m <= n whose exact
condition bound fails. Either route holds at most two n x n arrays, and
Foster's theorem checks every finished table. The pair sweep
:func:`two_leader_totals` needs one Gram matrix of the table (BLAS
``dsyrk``, n^3 flops) and likewise two n x n arrays; its rows
(:func:`_pair_rows`) take both dynamics, and :func:`pair_total_blocks`
streams them, with a rounding bound, for the exhaustive search in
``selection``. Both the build and the sweep refuse, with
``BudgetExceededError``, any n whose two arrays would pass a fixed byte
budget (4 GiB, about n = 16k). Every dense Cholesky factor overwrites
the matrix it factors and is followed by a LAPACK condition estimate, and
a grounded matrix whose forward-error scale eps/rcond passes
``_CONDITION_LIMIT`` raises ``SolverError``; the path-sum route computes
that scale exactly, and a graph that fails it goes to the factored route.
A query for given leader sets is :meth:`ResistanceOracle.set_totals`,
which grounds a batch of them one leader at a time with the rank-one
Schur steps of :func:`schur_columns`. A leader tied to a
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
from scipy.linalg import cho_solve
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
from .graphs import Graph, _dense, _grounded_entries, is_connected, rooted_forest

#: relative backward-error bound contracted for every linear solve
SOLVE_TOLERANCE = 1e-10
#: largest forward-error scale eps/rcond accepted from a Cholesky factor.
#: The test suite stays below 1.3e-9 and the benchmark ops below 1.6e-10.
#: The path with weights (1, w) gives about 8.9e-16 w, so it raises from
#: w ~ 1.1e9 on; from w = 1e15 on its grounded matrix is rounded at
#: assembly past any accuracy (eps/rcond >= 0.89)
_CONDITION_LIMIT = 1e-6
_EPS = float(np.finfo(np.float64).eps)
#: bytes of n x n float arrays that one table build or pair sweep may hold
_TABLE_BUDGET = 4 << 30
#: floats per row block when a table or the pair totals are formed
_BLOCK_FLOATS = 1 << 15


# ---------------------------------------------------------------------------
# shared dense SPD helpers

def _factor(A: np.ndarray, edges, lower: bool):
    """Cholesky-factor the SPD matrix A in place; return the factor, A's
    1-norm (:func:`_one_norm`, from the diagonal and the off-diagonal
    entries ``edges`` of :func:`_edge_ends`) and eps/rcond.

    dpotrf overwrites A.T, the Fortran-order view of symmetric A, without a
    copy; ``lower`` picks that view's triangle, and the other keeps A's
    entries.
    """
    anorm = _one_norm(np.diagonal(A), edges)
    c, info = dpotrf(A.T, lower=lower, clean=0, overwrite_a=1)
    if info > 0:
        raise SolverError(f"grounded system is not positive definite "
                          f"(leading minor {info})")
    if info != 0:
        raise SolverError(f"LAPACK Cholesky factorization failed (info={info})")
    return c, anorm, _check_condition(c, anorm, lower)


def _one_norm(diag: np.ndarray, edges) -> float:
    """1-norm of the symmetric matrix with diagonal ``diag`` and the
    off-diagonal entries ``edges`` of :func:`_edge_ends`: its largest
    absolute row sum, in O(m)."""
    ends, _, values = edges
    rows = np.abs(diag) + np.bincount(ends, np.abs(values), minlength=len(diag))
    return rows.max()


def _check_condition(c: np.ndarray, anorm: float, lower: bool) -> float:
    """Return eps/rcond, raising SolverError if it passes ``_CONDITION_LIMIT``.

    ``c`` is the Cholesky factor (in its ``lower`` or upper triangle) of a
    matrix whose 1-norm is ``anorm``; LAPACK ``dpocon`` estimates the
    reciprocal condition number rcond from it in O(n^2). eps/rcond scales
    the relative forward error of every solve with that factor (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 10).
    """
    rcond, info = dpocon(c, anorm, uplo="L" if lower else "U")
    if info != 0:
        raise SolverError(f"LAPACK condition estimate failed (info={info})")
    # written so that a NaN estimate fails too
    if not rcond * _CONDITION_LIMIT >= _EPS:
        scale = _EPS / rcond if rcond > 0.0 else math.inf
        raise SolverError(
            f"grounded system is too ill-conditioned: eps/rcond {scale:.1e} "
            f"exceeds {_CONDITION_LIMIT:.0e}"
        )
    return _EPS / rcond


def spd_trace_inverse(diag: np.ndarray, off) -> float:
    """Trace of the inverse of the SPD matrix A with diagonal ``diag`` and
    off-diagonal entries ``off = (rows, cols, values)``.

    A is assembled here and overwritten: factored in place as A = U^T U,
    then U inverted in place by LAPACK ``dtrtri``. Neither touches the other
    triangle, which still holds A's off-diagonal entries; zeroing just
    those, O(m), clears it without the n^2 / 2 writes of zeroing all of it.
    The trace of A^-1 = U^-1 U^-T is the sum of the squares of U^-1, taken
    in place too, so A is the only n x n array; its 1-norm comes from the
    entries.
    """
    if diag.size == 0:
        return 0.0
    c = _factor(_dense(diag, off), _edge_ends(off), lower=False)[0]
    inv, info = dtrtri(c, lower=0, overwrite_c=1)
    if info != 0:
        raise SolverError(f"triangular inversion failed (info={info})")
    rows, cols, _ = off
    inv[np.maximum(rows, cols), np.minimum(rows, cols)] = 0.0
    return float(np.square(inv, out=inv).sum())


def forest_inverse_diagonal(node_count, diagonal, offdiag_edges) -> np.ndarray:
    """Diagonal of the inverse of an SPD matrix whose graph is a forest.

    ``offdiag_edges`` holds (u, v, value) rows with value = A[u, v], as an
    (m, 3) array or a sequence of triples. Two passes over the preorder of
    :func:`graphs.rooted_forest`: leaf-to-root elimination pivots, then
    root-to-leaf back-substitution. Exact in O(n), which keeps trace
    computations on large trees cheap.
    """
    n = node_count
    uvw = np.asarray(offdiag_edges, dtype=np.float64).reshape(-1, 3)
    order, parent, edge = rooted_forest(n, uvw[:, :2].astype(np.intp))
    # a root's edge index -1 picks the padding
    coupling = np.append(uvw[:, 2], 0.0)[edge].tolist()
    pivot = np.asarray(diagonal, dtype=np.float64).tolist()
    ratio = [0.0] * n
    for u in reversed(order):
        # u's children came first, so its pivot is final
        if pivot[u] <= 0.0:
            raise SolverError("forest elimination hit a non-positive pivot")
        p = parent[u]
        if p >= 0:
            # the update as a ratio: a pivot lost to cancellation reads 0,
            # where coupling^2 / pivot would overflow first
            ratio[u] = coupling[u] / pivot[u]
            pivot[p] -= ratio[u] * coupling[u]
    out = (1.0 / np.array(pivot)).tolist()
    for u in order:
        p = parent[u]
        if p >= 0:
            out[u] += ratio[u] * ratio[u] * out[p]
    return np.array(out)


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
    followers, diag, off = _grounded_entries(g, S)
    pos = followers.index(i)
    e = np.zeros(len(followers))
    e[pos] = 1.0
    c = _factor(_dense(diag, off), _edge_ends(off), lower=False)[0]
    return float(cho_solve((c, False), e, check_finite=False)[pos])


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
        _check_pivots(pivot)
        pivots[:, j] = pivot
        later = rest[:, j + 1:]
        if later.shape[1]:
            coupling = np.take_along_axis(col, later, axis=1) / pivot[:, None]
            cols[:, j + 1:] -= coupling[:, :, None] * col[:, None, :]
    return cols, pivots


def _check_pivots(pivots: np.ndarray) -> None:
    """Raise SolverError unless every Schur pivot is positive."""
    if not np.all(pivots > 0.0):
        raise SolverError("grounded system is not positive definite: "
                          "a Schur pivot is not positive")


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
    the upper triangle of ``T``. The rest of the formula,
    :func:`_pair_rows`, is applied in place on that buffer, over the upper
    triangle in row blocks, and mirrored. Peak memory is the table plus
    ``T`` plus one row block. :func:`pair_total_blocks` streams the same
    rows for both dynamics, with a rounding bound and without the mirror.
    """
    R = np.asarray(R, dtype=np.float64)
    n = R.shape[0]
    _check_table_budget(n, "the pair sweep")
    col = R.sum(axis=0)
    T = _pair_gram(R)
    q = np.diagonal(T).copy()
    rows = _block_rows(n)
    scratch = np.empty((rows, n))
    below = np.tri(rows, k=-1, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(0, n, rows):
            b = min(a + rows, n)
            _pair_rows(T, R, q, col, a, b, scratch)
            _mirror_rows(T, a, b, below)
    np.fill_diagonal(T, 0.0)
    return T


def pair_total_blocks(R: np.ndarray, col: np.ndarray, inv_kappa=None):
    """Yield the pair totals sum_u r(u, {x, y}), x < y, of the table ``R``
    (column sums ``col``) row block by row block, as ``(a, t, bound,
    scratch)``: ``t[i, j]`` is the total of the pair (a + i, a + j), +inf
    where j <= i (no pair), and ``bound`` holds a little more than the sum
    of the absolute values of its terms (:func:`_pair_rows`). ``inv_kappa``
    is the pair (1/kappa of every node as the first leader, as the
    second) for noise-corrupted, None for noise-free. ``scratch`` is free
    space of the same shape. Each block is overwritten by the next; beside
    the table, the sweep holds one Gram matrix and three row blocks.
    """
    n = R.shape[0]
    _check_table_budget(n, "the pair sweep")
    T = _pair_gram(R)
    q = np.diagonal(T).copy()
    rows = _block_rows(n)
    scratch = np.empty((rows, n))
    bound = np.empty((rows, n))
    lower = np.tri(rows, dtype=bool)
    for a in range(0, n - 1, rows):
        b = min(a + rows, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            _pair_rows(T, R, q, col, a, b, scratch, inv_kappa, bound)
        t = T[a:b, a:]
        t[:, :b - a][lower[:b - a, :b - a]] = np.inf
        yield a, t, bound[:b - a, :n - a], scratch[:b - a, :n - a]


def _pair_gram(R: np.ndarray) -> np.ndarray:
    """The Gram matrix R R of the symmetric table R, by one BLAS ``dsyrk``;
    only its upper triangle (diagonal included) is written."""
    return dsyrk(1.0, R.T, trans=1, lower=1).T


def _pair_rows(T: np.ndarray, R: np.ndarray, q: np.ndarray, col: np.ndarray,
               a: int, b: int, scratch: np.ndarray, inv_kappa=None,
               bound=None) -> None:
    """Overwrite rows a:b of ``T``'s upper triangle, from column a on, with
    the pair totals sum_u r(u, {x, y}), x < y.

    ``T`` holds the Gram matrix Q = R R there (:func:`_pair_gram`), ``q`` its
    diagonal and ``col`` the table's column sums. Grounding x first (the
    anchor) and then y by one Schur step gives

        cs_x + n/kappa_x - [(q_x + q_y - 2 Q_xy) + 2 h (cs_x - cs_y) + n h^2]
                           / (4 (r_xy + 1/kappa_x + 1/kappa_y)),

    with h = r_xy + 2/kappa_x; ``inv_kappa`` is the pair (1/kappa of every
    node as the first leader, as the second), and without it every leader
    is pinned (the 1/kappa terms are 0). Scaling by 2 or 4 is exact, so
    each entry rounds as the expression written out would. ``scratch``
    has at least b - a rows of n columns. When given, ``bound`` (as large)
    receives, in the same cells, a little more than the sum of the
    absolute values of the terms, each bracketed term divided by 4 times
    the pivot: the rounding error of a total is at most a few eps times
    it.
    """
    n = R.shape[0]
    t, r, s = T[a:b, a:], R[a:b, a:], scratch[:b - a, :n - a]
    cx, cy = col[a:b, None], col[a:]
    if inv_kappa is None:
        h = pivot = r
        lead = cx
    else:
        first, second = inv_kappa[0][a:b, None], inv_kappa[1][a:]
        h = r + 2.0 * first
        pivot = (r + first) + second
        lead = cx + n * first
    if bound is not None:
        # every term is positive but -2 Q_xy and -2 h cs_y, so the absolute
        # values sum to the bracket plus 4 (Q_xy + h cs_y)
        e = bound[:b - a, :n - a]
        np.multiply(h, cy, out=e)
        e += t
    t *= 2.0
    np.subtract(np.add(q[a:b, None], q[a:], out=s), t, out=t)
    np.subtract(cx, cy, out=s)
    s *= h
    s *= 2.0
    t += s
    np.multiply(h, float(n), out=s)
    s *= h
    t += s
    t /= pivot
    t *= 0.25
    np.subtract(lead, t, out=t)
    if bound is not None:
        # lead + bracket / (4 pivot) + (Q_xy + h cs_y) / pivot, with the
        # bracket's share, lead minus the total, taken as lead
        e /= pivot
        e += 2.0 * lead


def resistance_oracle(g: Graph) -> ResistanceOracle:
    """Precompute the full pairwise resistance table.

    Both routes ground node 0; L0 is that grounded Laplacian and G0 its
    inverse. A graph with at most one cycle (m <= n) takes the O(n^2)
    route of :func:`_one_cycle_table`: path sums over a spanning tree plus
    one rank-one update for the cycle's left-out edge. Every other graph,
    and every graph whose condition bound fails there, takes
    :func:`_factored_table`, about n^3 flops of LAPACK. Each route bounds
    L0's condition, checks the residual L0 G0 - I on four columns of G0
    against ``SOLVE_TOLERANCE`` and checks the finished table by Foster's
    theorem (``_check_foster``). Peak memory is at most the table plus G0.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("resistance oracle requires a connected graph")
    n = g.node_count
    _check_table_budget(n, "the resistance table")
    if n == 1:
        return ResistanceOracle(g, np.zeros((1, 1)))
    _, diag, off = _grounded_entries(g, (0,))
    edges = _edge_ends(off)
    table = _one_cycle_table(g, diag, edges) if g.edge_count <= n else None
    if table is None:
        table = _factored_table(g, diag, off, edges)
    return ResistanceOracle(g, table)


def _factored_table(g: Graph, diag: np.ndarray, off, edges) -> np.ndarray:
    """The table from L0 (diagonal ``diag``, off-diagonal entries ``off``
    and their :func:`_edge_ends` ``edges``), factored and inverted by LAPACK.

    L0 is factored and inverted in place (``dpotrf`` then ``dpotri``, about
    n^3 flops) into G0, the inverse's upper triangle; between the two,
    ``dpocon`` estimates L0's condition (``_check_condition``). The
    residual is checked on that triangle, with L0 applied from its entries
    since the factor overwrote it. Row block by row block, the upper
    triangle of the table is then written as
    r(i, j) = (G[i, i] + G[j, j]) - 2 G[i, j], with G0 padded by a zero
    row/column at node 0, and mirrored within the table.
    """
    n = g.node_count
    G0 = _dense(diag, off)
    c, anorm, scale = _factor(G0, edges, lower=True)
    _, info = dpotri(c, lower=1, overwrite_c=1)
    if info != 0:
        raise SolverError(f"LAPACK inversion failed (info={info})")
    m = n - 1
    cols = _residual_columns(m)
    # the checked columns, stored as rows: G0 is symmetric
    X = np.where(np.arange(m) < cols[:, None], G0[:, cols].T, G0[cols])
    _check_residual(X, cols, diag, edges, anorm)
    d = np.diagonal(G0).copy()
    table = np.empty((n, n))
    table[0, 0] = 0.0
    table[0, 1:] = d
    table[1:, 0] = d
    T = table[1:, 1:]
    rows = _block_rows(m)
    below = np.tri(rows, k=-1, dtype=bool)
    for a in range(0, m, rows):
        b = min(a + rows, m)
        # below the diagonal, G0's own block still holds L0: clear it, then
        # scale the rows by -2 in place, which is exact, so each entry
        # rounds as (d_i + d_j) - 2 G_ij written out would; that is exactly
        # 0 on the diagonal
        G0[a:b, a:b][below[:b - a, :b - a]] = 0.0
        g0, t = G0[a:b, a:], T[a:b, a:]
        g0 *= -2.0
        np.add(d[a:b, None], d[a:], out=t)
        t += g0
        _mirror_rows(T, a, b, below)
    _check_foster(g, table, scale)
    return table


def _one_cycle_table(g: Graph, diag: np.ndarray, edges) -> np.ndarray | None:
    """The table of a connected graph with m <= n edges in O(n^2), or None
    when L0's condition bound fails (L0 as in :func:`_factored_table`).

    A spanning tree rooted at node 0 leaves out the lightest edge of the
    cycle, if there is one. On the tree, G0[u, v] = D(lca(u, v)), with D
    the resistance from the root, so each row of G0 is its parent's row
    with the row's own subtree, one slice of the preorder, set to D(u); the
    rows are written into the table and formed in place as
    r(u, v) = (D(u) + D(v)) - 2 G0[u, v] by row blocks, which is exactly
    symmetric and 0 on the diagonal. The left-out edge (i, j) of weight w
    then enters as the rank-one update of :func:`edge_addition_update`,
    r(p, q) -= w (x_p - x_q)^2 / (4 (1 + w r(i, j))) with x the difference
    of the columns i and j, by row blocks again.

    Grounded inverses are entrywise nonnegative, so the 1-norm of G0 is its
    largest row sum, which makes the condition bound exact: on a tree the
    row sum of u is the sum of size(a) r(a, parent(a)) over the nodes a
    from u up to the root, size(a) counting a's subtree, and is known
    before the table is built; with the cycle's edge it is
    (n r(u, 0) + sum_v r(v, 0) - sum_v r(u, v)) / 2, read from the table.
    The residual's four columns of G0 are read from the table as
    (r(u, 0) + r(v, 0) - r(u, v)) / 2.
    """
    n = g.node_count
    uv, w = g._uv, g._w
    order, parent, edge = rooted_forest(n, uv)
    chord = None
    if g.edge_count == n:
        chord = _lightest_cycle_edge(w, parent, edge, uv)
        if chord in edge:
            # this tree kept the lightest edge: span the graph without it
            order, parent, edge = rooted_forest(n, np.delete(uv, chord, axis=0))
            # back to indices among all the edges
            edge = [e + (e >= chord) for e in edge]
    # each node's resistance to its parent; the root's entry is not read
    res = (1.0 / w)[edge].tolist()
    size = [1] * n
    for u in order[:0:-1]:
        size[parent[u]] += size[u]
    D = [0.0] * n
    row_sums = [0.0] * n
    for u in order[1:]:
        p = parent[u]
        D[u] = D[p] + res[u]
        row_sums[u] = row_sums[p] + size[u] * res[u]
    anorm = float(_one_norm(diag, edges))
    scale = _EPS * anorm * max(row_sums)
    # written so that a NaN bound fails too
    if chord is None and not scale <= _CONDITION_LIMIT:
        return None
    table = np.empty((n, n))
    table[0] = 0.0
    nodes = np.array(order)
    leaves = []
    for k in range(1, n):
        u = order[k]
        if size[u] == 1:
            leaves.append(u)
            continue
        row = table[u]
        row[:] = table[parent[u]]
        row[nodes[k:k + size[u]]] = D[u]
    # a leaf's row is its parent's with its own entry set to D(leaf); no
    # row is copied from a leaf's, so they can all go at once, last
    d = np.array(D)
    leaves = np.array(leaves, dtype=np.intp)
    table[leaves] = table[np.array(parent)[leaves]]
    table[leaves, leaves] = d[leaves]
    rows = _block_rows(n)
    scratch = np.empty((rows, n))
    for a in range(0, n, rows):
        b = min(a + rows, n)
        t, s = table[a:b], scratch[:b - a]
        # as in _factored_table, -2 G0 is exact
        t *= -2.0
        t += np.add(d[a:b, None], d, out=s)
    if chord is not None:
        i, j = uv[chord].tolist()
        x = table[i] - table[j]
        wc = float(w[chord])
        denominator = 4.0 * (1.0 + wc * float(table[i, j]))
        for a in range(0, n, rows):
            b = min(a + rows, n)
            s = np.subtract(x[a:b, None], x, out=scratch[:b - a])
            s *= s
            s *= wc
            s /= denominator
            table[a:b] -= s
        sums = table.sum(axis=0)
        inverse_norm = 0.5 * float((n * table[1:, 0] + sums[0] - sums[1:]).max())
        scale = _EPS * anorm * inverse_norm
        if not scale <= _CONDITION_LIMIT:
            return None
    # the grounded nodes are 1 .. n - 1
    to_root = table[1:, 0]
    cols = _residual_columns(n - 1)
    X = 0.5 * ((to_root + to_root[cols, None]) - table[1:, 1:][cols])
    _check_residual(X, cols, diag, edges, anorm)
    _check_foster(g, table, scale)
    return table


def _lightest_cycle_edge(w: np.ndarray, parent, edge, uv) -> int:
    """Index of the lightest edge on the one cycle of a connected graph with
    as many edges as nodes, given the ``parent`` and ``edge`` lists of a
    spanning tree rooted at node 0 (:func:`graphs.rooted_forest`). A tie
    keeps the edge that tree leaves out, so no second tree is needed.
    """
    # the edge indices sum to m (m - 1) / 2 with m = n, and the tree takes
    # all of them but one; the root's entry in ``edge`` is -1
    n = len(edge)
    left_out = n * (n - 1) // 2 - sum(edge) - 1
    # the cycle is the left-out edge and the tree path between its ends
    a, b = uv[left_out].tolist()
    up_a = [a]
    while parent[up_a[-1]] >= 0:
        up_a.append(parent[up_a[-1]])
    on_a = set(up_a)
    cycle = [left_out]
    while b not in on_a:
        cycle.append(edge[b])
        b = parent[b]
    cycle += [edge[v] for v in up_a[:up_a.index(b)]]
    weights = w[cycle].tolist()
    return cycle[weights.index(min(weights))]


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
    """Both orientations of the off-diagonal entries ``off = (rows, cols,
    values)``, as ``(rows, columns, values)`` arrays."""
    rows, cols, values = off
    return (np.concatenate((rows, cols)), np.concatenate((cols, rows)),
            np.concatenate((values, values)))


def _residual_columns(m: int) -> np.ndarray:
    """The (at most four, evenly spread) columns of an m x m grounded
    inverse that :func:`_check_residual` checks."""
    k = min(4, m)
    return np.array([c * (m - 1) // max(1, k - 1) for c in range(k)], dtype=np.intp)


def _check_residual(X: np.ndarray, cols: np.ndarray, diag: np.ndarray, edges,
                    anorm: float) -> None:
    """Raise SolverError unless L0 X is the identity's columns ``cols``.

    ``X`` holds, as rows, the columns ``cols`` (from
    :func:`_residual_columns`) of the computed inverse of L0. L0 has
    diagonal ``diag``, the off-diagonal entries ``edges`` (from
    :func:`_edge_ends`) and the 1-norm (equal to its infinity norm)
    ``anorm``; it is applied to each column from those entries, O(m) per
    column. The residual is scaled by ``anorm`` times the largest entry of
    the checked columns.
    """
    k, m = X.shape
    ends, others, weights = edges
    terms = X[:, others] * weights
    # one bincount over the k columns side by side adds, per entry, the
    # same terms in the same order as one per column
    LX = X * diag
    LX += np.bincount(np.add.outer(m * np.arange(k), ends).ravel(), terms.ravel(),
                      minlength=k * m).reshape(k, m)
    for c, col in enumerate(cols.tolist()):
        LX[c, col] -= 1.0
    res = np.abs(LX).max()
    scale = anorm * np.abs(X).max() + 1.0
    # written so that a NaN residual fails too
    if not res / scale <= SOLVE_TOLERANCE:
        raise SolverError(
            f"solve residual {res / scale:.3e} exceeds {SOLVE_TOLERANCE:.0e}"
        )


def _check_foster(g: Graph, table: np.ndarray, scale: float) -> None:
    """Raise SolverError unless the table satisfies Foster's theorem,
    sum_e w_e r_e = n - 1 (Klein & Randic 1993).

    Each edge's resistance is read in both orientations, so a wrong mirror
    cannot pass. The sum is the trace of L0 G0, so it misses n - 1 by the
    trace of the inverse's residual L0 G0 - I, whose n - 1 diagonal entries
    are each bounded, to first order, by c_n eps kappa(L0) (Higham, ch.
    14); with c_n = n and eps kappa(L0) = ``scale`` = eps/rcond from
    ``_check_condition``, the tolerance is (n - 1) n eps/rcond. O(m).
    """
    n = g.node_count
    u, v = g._uv[:, 0], g._uv[:, 1]
    total = 0.5 * float((g._w * (table[u, v] + table[v, u])).sum())
    # written so that a NaN sum fails too
    if not abs(total - (n - 1)) <= (n - 1) * n * scale:
        raise SolverError(
            f"Foster's sum over the edges is {total!r}, not n - 1 = {n - 1}"
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
