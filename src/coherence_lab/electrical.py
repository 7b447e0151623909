"""Effective-resistance computations.

The network view: every edge of weight w is a resistor of 1/w. Pairwise
resistance r(i, j) is defined through the grounded Laplacian: it equals
the (i, i) entry of the inverse of the Laplacian with row and column j
removed. Node-to-set resistance r(i, S) generalizes this by grounding all
of S at once. Every grounded matrix here is assembled from the graph's
edge arrays by ``graphs._grounded_entries``.

One elimination engine inverts it. A plan, read from the entries, lists
nodes that each have at most two neighbours left when they go, a pendant
or a series resistor, and :func:`_forward` eliminates them as Kron
reduction removes them; the core left is factored by LAPACK
(:func:`_factor`: ``dpotrf``, and ``dpotrs`` for the right-hand sides). A
forest (a tree, or a cycle with a pinned leader or a grounded node) is
eliminated exactly in O(n) and leaves no core; a larger system is peeled
when enough of its nodes have two neighbours or fewer, so a cycle or any
series-parallel system calls no LAPACK; any other system eliminates
nothing, and its core is the whole system (:func:`_plan`).

:func:`grounded_solve` returns the diagonal of a grounded inverse, a few
of its columns and y = A^-1 1; :func:`resistance_to_set` is one column
(:func:`resistance` its one-node case), solved from the factor with no
inverse. :func:`resistance_oracle` precomputes the full pairwise table
from the inverse G0 of the Laplacian grounded at node 0. A graph with at
most one cycle (m <= n) takes O(n^2) path sums over a spanning tree, plus
one rank-one update for the edge the tree leaves out; every other graph
takes the engine's plan, and each peeled row of G0 is filled from its
neighbours' rows, O(n) each. Either route holds at most two n x n arrays
and refuses with ``BudgetExceededError`` any n whose two arrays would pass
a fixed byte budget (4 GiB, about n = 16k). A query for given leader sets
is :meth:`ResistanceOracle.set_totals`, which grounds a batch of them one
leader at a time with the rank-one Schur steps of :func:`schur_totals`,
from the leaders' rows of the table only. A leader tied to a reference
node by a 1/kappa resistor (noise-corrupted) becomes a pinned leader
(noise-free) as kappa grows without bound, so both dynamics take the same
steps, the pinned ones without the 1/kappa terms.

A grounded matrix is an M-matrix, so its inverse is entrywise nonnegative
and ||A^-1||_1 = max(y). Every computed inverse, a solve's or a table's,
passes one check, :func:`_check_inverse`: it raises ``SolverError`` once
the exact forward-error scale eps ||A||_1 ||A^-1||_1 passes
``_CONDITION_LIMIT``, or once the residual of the solved columns or of y
passes ``SOLVE_TOLERANCE``; a table also passes Foster's theorem.

Every dense BLAS/LAPACK call goes through scipy (``scipy.linalg``). numpy
links its own OpenBLAS with its own thread pool, and a call there between
scipy's calls would leave that pool's threads spinning against scipy's.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dlauum, dpotrf, dpotrs, dtrtri

from .errors import (
    BadKappaError,
    BadParameterError,
    BadWeightError,
    BudgetExceededError,
    DisconnectedGraphError,
    EmptyLeaderSetError,
    LeaderQueriedError,
    SameNodeError,
    SolverError,
)
from .graphs import (
    Graph,
    _dense,
    _grounded_entries,
    _is_int,
    _is_real,
    is_connected,
    rooted_forest,
)

#: relative backward-error bound contracted for every linear solve
SOLVE_TOLERANCE = 1e-10
#: largest forward-error scale eps ||A||_1 ||A^-1||_1 accepted from a
#: grounded solve. The test suite stays below 1.3e-9 and the benchmark ops
#: below 1.6e-10. The path with weights (1, w) gives about 8.9e-16 w, so it
#: raises from w ~ 1.1e9 on; from w = 1e15 on its grounded matrix is
#: rounded at assembly past any accuracy (a scale >= 0.89)
_CONDITION_LIMIT = 1e-6
_EPS = float(np.finfo(np.float64).eps)
#: bytes of n x n float arrays that one dense solve or table build may hold
_TABLE_BUDGET = 4 << 30
#: floats per row block when a table is formed
_BLOCK_FLOATS = 1 << 15
#: the route rule of a grounded solve (:func:`_peel_pays`): a system of n
#: nodes that is not a forest, q of them with at most two neighbours, is
#: peeled and its core factored when n^2 - (n - q)^2 >= this times n. Timed
#: in process on random graphs with n/2, n and 2n chords and n = 150 to
#: 1000, the peel beat the whole factor on every system where
#: n^2 - (n - q)^2 reached 150 n, and lost on most below 120 n
_PEEL_BREAK_EVEN = 150
#: the same rule for the factored table, whose peel pays less: it fills
#: every peeled row of the grounded inverse, O(n) per node, where a solve
#: back-substitutes O(1) per right-hand side. Timed in process on random
#: graphs with n/2, n and 2n chords and n = 150 to 1100, the peeled table
#: beat the whole factor on every graph whose rule value q (2n - q) / n
#: reached 400 (417 to 784: 0.64 to 0.88 of its time), was within 10 % of
#: it between 330 and 350, and lost on every graph below 300
_TABLE_BREAK_EVEN = 400
#: rows of a peeled table's grounded inverse filled between two mirrors
#: into their columns
_MIRROR_ROWS = 64


# ---------------------------------------------------------------------------
# shared dense SPD helpers

def _factor(diag: np.ndarray, off, rhs=None, out=None):
    """Cholesky-factor the SPD matrix A with diagonal ``diag`` and
    nonpositive off-diagonal entries ``off = (rows, cols, values)``.

    A is assembled by ``graphs._dense``, into ``out`` when it is given,
    once :func:`_check_budget` admits its one n x n array; LAPACK
    ``dpotrf`` factors its Fortran-order view in place as A = L L^T, and
    ``dpotrs`` solves A y = ``rhs`` from the factor, the ones vector unless
    given. Returns that view, with L in its lower triangle and zeros above
    it, and y.
    """
    _check_budget(diag.size, 1)
    c, info = dpotrf(_dense(diag, off, out).T, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise SolverError(f"grounded system is not positive definite "
                          f"(leading minor {info})")
    if info != 0:
        raise SolverError(f"LAPACK Cholesky factorization failed (info={info})")
    # the other triangle still holds A's entries there, the off-diagonal
    # ones only: zeroing them is O(m), where dpotrf's clean pass is O(n^2)
    rows, cols, _ = off
    c[np.minimum(rows, cols), np.maximum(rows, cols)] = 0.0
    return c, dpotrs(c, np.ones(diag.size) if rhs is None else rhs, lower=1)[0]


def _factor_inverse(diag: np.ndarray, off, rhs=None, out=None):
    """:func:`_factor`, then LAPACK ``dtrtri`` overwrites L with V = L^-1.
    Returns the factor's view, with V in its lower triangle and zeros above
    it (A^-1 = V^T V), and y.
    """
    c, y = _factor(diag, off, rhs, out)
    _, info = dtrtri(c, lower=1, overwrite_c=1)
    if info != 0:
        raise SolverError(f"triangular inversion failed (info={info})")
    return c, y


def _check_inverse(X: np.ndarray, cols: np.ndarray, y: np.ndarray, diag: np.ndarray,
                   edges) -> float:
    """Check a computed inverse of the grounded matrix A and return its
    forward-error scale eps ||A||_1 ||A^-1||_1.

    A has diagonal ``diag`` and the off-diagonal entries ``edges`` (from
    :func:`_edge_ends`). ``X`` holds, as rows, the columns ``cols`` of the
    computed A^-1, and ``y`` the computed A^-1 1. Raises SolverError first
    if the scale passes ``_CONDITION_LIMIT``, then if a residual passes
    ``SOLVE_TOLERANCE``.

    The scale bounds the relative forward error of every solve with A
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10). A
    grounded matrix is an M-matrix, so its inverse has no negative entry
    and ||A^-1||_1 = max(y) exactly. A is then applied to each row of X and
    to y from its entries, O(m) per row, and each residual is scaled by
    ||A||_1 (equal to its infinity norm) times that row's largest entry,
    plus 1 for its right-hand side: its normwise backward error.
    """
    ends, others, weights = edges
    # the largest absolute row sum, in O(m)
    anorm = (np.abs(diag) + np.bincount(ends, np.abs(weights), diag.size)).max()
    scale = _EPS * float(anorm) * float(y.max())
    # written so that a NaN scale or residual fails too
    if not scale <= _CONDITION_LIMIT:
        raise SolverError(
            f"grounded system is too ill-conditioned: eps ||A||_1 ||A^-1||_1 "
            f"{scale:.1e} exceeds {_CONDITION_LIMIT:.0e}"
        )
    X = np.vstack((X, y))
    k, m = X.shape
    terms = X[:, others] * weights
    # one bincount over the k rows side by side adds, per entry, the same
    # terms in the same order as one per row
    AX = X * diag
    AX += np.bincount(np.add.outer(m * np.arange(k), ends).ravel(), terms.ravel(),
                      minlength=k * m).reshape(k, m)
    AX[np.arange(cols.size), cols] -= 1.0
    AX[-1] -= 1.0
    res = (np.abs(AX).max(axis=1) / (anorm * np.abs(X).max(axis=1) + 1.0)).max()
    if not res <= SOLVE_TOLERANCE:
        raise SolverError(f"solve residual {res:.3e} exceeds {SOLVE_TOLERANCE:.0e}")
    return scale


def grounded_solve(diag: np.ndarray, off, columns=(), diagonal: bool = True):
    """The diagonal of A^-1, the columns ``columns`` of A^-1 and A^-1 1, for
    the SPD matrix A with diagonal ``diag`` and nonpositive off-diagonal
    entries ``off = (rows, cols, values)``, as a grounded Laplacian has.

    Returns ``(d, X, y)``: d the diagonal (None when ``diagonal`` is
    false), X, of shape (len(columns), n), the columns as rows, and
    y = A^-1 1, whose largest entry is ||A^-1||_1. Every system goes
    through :func:`_eliminate`, with a plan read from the entries alone:

    * fewer than n entries take one :func:`graphs.rooted_forest` pass, and
      form a forest exactly when the entries and the roots together number
      n; it is eliminated leaf to root in O(n), with no core;
    * any other system of n nodes, q of them with at most two
      neighbours, with n^2 - (n - q)^2 >= ``_PEEL_BREAK_EVEN`` n is
      peeled (:func:`_peel`) down to its core, at most n - q nodes, and
      only the core is factored; a cycle, or any series-parallel system,
      leaves no core and calls no LAPACK;
    * every other system keeps every node in its core, and is factored
      whole (:func:`_plan`).

    X and y then pass :func:`_check_inverse`.
    """
    n = diag.size
    columns = np.asarray(columns, dtype=np.intp)
    if n == 0:
        return np.zeros(0), np.zeros((columns.size, 0)), np.zeros(0)
    rows, cols, _ = off
    plan = _forest_plan(n, rows, cols) if rows.size < n else None
    if plan is None:
        plan = _plan(n, rows, cols, _PEEL_BREAK_EVEN)
    # a pivot below 1 / (the largest float) inverts to inf, and y with it,
    # which the check refuses; as in resistance_oracle, without a warning
    # on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d, X, y = _eliminate(diag, off, columns, diagonal, plan)
    _check_inverse(X, columns, y, diag, _edge_ends(off))
    return d, X, y


class _Plan(NamedTuple):
    """An elimination order for :func:`_eliminate`, from :func:`_forest_plan`
    or :func:`_plan`.

    ``order`` lists the nodes to eliminate; it is empty when the core is
    the whole system. The lists ``a`` to ``ab_slot`` are indexed by node:
    ``a`` and ``b`` are a node's neighbours left when it goes (-1 for
    none), ``a_slot`` and ``b_slot`` the numbers of its entries with them,
    and ``ab_slot`` the number of the entry between them; ``b_slot`` and
    ``ab_slot`` are None when no node has two. The entries are numbered as
    in ``off``, new ones from m on, ``slots`` in all. ``core`` is the array
    of the nodes left, in increasing order; ``entries`` holds the entries
    among them as three arrays, their numbers and the indices into
    ``core`` of their two ends, and ``pairs`` the same for the core pairs
    whose inverse entries the back pass reads.
    """

    order: list
    a: list
    a_slot: list
    b: list
    b_slot: list | None
    ab_slot: list | None
    core: np.ndarray
    entries: tuple | None
    pairs: tuple | None
    slots: int


def _peel_pays(n: int, rows: np.ndarray, cols: np.ndarray, break_even: int) -> bool:
    """The route rule of a system of n nodes with the off-diagonal entries
    ``rows``, ``cols``: true when q of its nodes, those with at most two
    neighbours, satisfy q (2n - q) >= ``break_even`` n. The peel eliminates
    at least those q nodes, so its core has at most n - q, and the rule
    weighs the n^2 - (n - q)^2 it saves. One ``np.bincount``; below
    ``break_even`` nodes the rule cannot hold and nothing is counted."""
    if n < break_even:
        return False
    q = int(np.count_nonzero(np.bincount(np.concatenate((rows, cols)), minlength=n) <= 2))
    return q * (2 * n - q) >= break_even * n


def _plan(n: int, rows: np.ndarray, cols: np.ndarray, break_even: int) -> _Plan:
    """The plan of a system of n nodes with the off-diagonal entries
    ``rows``, ``cols`` that is not a forest: the peel's (:func:`_peel`)
    when the route rule :func:`_peel_pays` holds with ``break_even``, and
    otherwise the plan that eliminates no node and keeps the whole system
    as its core."""
    if _peel_pays(n, rows, cols, break_even):
        return _peel(n, rows, cols)
    return _Plan([], [], [], [], None, None, np.arange(n), (np.arange(rows.size), rows, cols),
                 None, rows.size)


def _forest_plan(n: int, rows: np.ndarray, cols: np.ndarray):
    """The plan of entries that form a forest, or None when they do not:
    the reverse of the :func:`graphs.rooted_forest` preorder, so each node
    goes after its children, with its parent as its one neighbour left and
    no core."""
    order, parent, edge = rooted_forest(n, np.column_stack((rows, cols)))
    if rows.size + parent.count(-1) != n:
        return None
    order.reverse()
    return _Plan(order, parent, edge, [-1] * n, None, None, np.zeros(0, dtype=np.intp),
                 None, None, rows.size)


def _peel(n: int, rows: np.ndarray, cols: np.ndarray) -> _Plan:
    """The plan that eliminates, as long as there is one, a node with at
    most two neighbours left, and keeps the rest, the core.

    Nodes go in the order they reach two neighbours or fewer, in increasing
    order among those that start there. A node with two neighbours joins
    them by an entry, or adds to the one they have. Eliminating a node
    never adds a neighbour to another, so one pass finds the order, in
    O(n + m) dictionary operations.
    """
    near = [{} for _ in range(n)]
    for e, (u, v) in enumerate(zip(rows.tolist(), cols.tolist())):
        near[u][v] = e
        near[v][u] = e
    slots = rows.size
    fills = []
    A, a_slot, B, b_slot, ab_slot = ([-1] * n for _ in range(5))
    queued = [len(left) <= 2 for left in near]
    order = [u for u in range(n) if queued[u]]
    # the list grows as it is walked
    for u in order:
        left = near[u]
        if not left:
            continue
        if len(left) == 1:
            (a, a_slot[u]), = left.items()
            A[u] = a
            near_a = near[a]
            del near_a[u]
            if len(near_a) == 2 and not queued[a]:
                queued[a] = True
                order.append(a)
            continue
        (a, a_slot[u]), (b, b_slot[u]) = left.items()
        near_a, near_b = near[a], near[b]
        del near_a[u], near_b[u]
        s = near_a.get(b)
        if s is None:
            s = near_a[b] = near_b[a] = slots
            fills.append((s, a, b))
            slots += 1
        else:
            for v in (a, b):
                if len(near[v]) == 2 and not queued[v]:
                    queued[v] = True
                    order.append(v)
        A[u], B[u], ab_slot[u] = a, b, s
    kept = ~np.array(queued)
    core = np.flatnonzero(kept)
    index = np.cumsum(kept) - 1
    # the core's entries: the given ones and the new ones between two nodes
    # left, and the pairs that a node with two neighbours left in it reads
    given = np.flatnonzero(kept[rows] & kept[cols])
    new = np.array(fills, dtype=np.intp).reshape(-1, 3)
    new = new[kept[new[:, 1]] & kept[new[:, 2]]]
    entries = (np.concatenate((given, new[:, 0])),
               index[np.concatenate((rows[given], new[:, 1]))],
               index[np.concatenate((cols[given], new[:, 2]))])
    series = np.flatnonzero(np.array(B) >= 0)
    first, second = np.array(A)[series], np.array(B)[series]
    read = kept[first] & kept[second]
    pairs = (np.array(ab_slot)[series[read]], index[first[read]], index[second[read]])
    return _Plan(order, A, a_slot, B, b_slot, ab_slot, core, entries, pairs, slots)


def _forward(diag: np.ndarray, off, columns: np.ndarray, plan: _Plan):
    """The forward pass of an elimination in the order of ``plan``, each
    node with at most two neighbours left when it goes.

    Each node's pivot p and, for each neighbour a left with entry c_a, the
    ratio l_a = c_a / p: a's pivot drops by l_a c_a, and between two
    neighbours a and b the entry drops by l_a c_b, as Kron reduction
    removes a series resistor. The pass carries the ones vector and the
    unit right-hand sides of ``columns``.

    Returns ``(pivots, ratio, ratio_b, rhs, schur)``: the pivots as an
    array, the ratios l_a and l_b of each node as lists (0 where it has no
    such neighbour), the carried right-hand sides as the rows of an array,
    the ones vector first, and the Schur complement on the nodes left, the
    core, as the arguments ``(diag, off, rhs)`` of :func:`_factor`, or None
    when no node is left. With an empty order only the last is formed, from
    A itself, with no list pass.
    """
    n = diag.size
    order, A, a_slot, B, b_slot, ab_slot, core, entries, _, slots = plan
    if not order:
        # nothing to eliminate: the Schur complement is the whole system,
        # with the ones vector and the unit columns as they are
        rhs = np.zeros((n, columns.size + 1), order="F")
        rhs[:, 0] = 1.0
        if columns.size:
            rhs[columns, np.arange(1, columns.size + 1)] = 1.0
        return None, None, None, None, (diag, off, rhs)
    value = off[2].tolist()
    value += [0.0] * (slots - len(value))
    pivot = diag.tolist()
    ratio = [0.0] * n
    ratio_b = [0.0] * n
    rhs = [[1.0] * n] + [[0.0] * n for _ in range(columns.size)]
    for x, s in zip(rhs[1:], columns.tolist()):
        x[s] = 1.0
    for u in order:
        d = pivot[u]
        if d <= 0.0:
            # every pivot of an SPD matrix is positive: this one cancelled
            raise SolverError(f"grounded system is too ill-conditioned: "
                              f"elimination pivot cancelled to {d:.1e}")
        a = A[u]
        if a < 0:
            continue
        # the update as a ratio: a pivot lost to cancellation reads 0, where
        # coupling^2 / pivot would overflow first
        c = value[a_slot[u]]
        r = ratio[u] = c / d
        pivot[a] -= r * c
        b = B[u]
        if b < 0:
            for x in rhs:
                x[a] -= r * x[u]
            continue
        c = value[b_slot[u]]
        rb = ratio_b[u] = c / d
        pivot[b] -= rb * c
        value[ab_slot[u]] -= r * c
        for x in rhs:
            xu = x[u]
            x[a] -= r * xu
            x[b] -= rb * xu
    pivots = np.array(pivot)
    rhs = np.array(rhs)
    schur = None
    if core.size:
        s, i, j = entries
        schur = (pivots[core], (i, j, np.array(value)[s]), rhs[:, core].T)
    return pivots, ratio, ratio_b, rhs, schur


def _eliminate(diag: np.ndarray, off, columns: np.ndarray, diagonal: bool, plan: _Plan):
    """:func:`grounded_solve` by elimination in the order of ``plan``, each
    node with at most two neighbours left, and a factor of the core left.

    :func:`_forward` runs the forward pass. The core is the Schur
    complement on the nodes left: :func:`_factor` solves it for the carried
    right-hand sides (``dpotrs``), and when the diagonal is asked for
    :func:`_factor_inverse` also gives its inverse V^T V, whose diagonal is
    the sum of the squares of each column of V. With an empty order the
    core is the whole system, and that is the answer. The back pass, in
    reverse order, substitutes x_u = b_u / p - sum_a l_a x_a, and recovers
    the diagonal by the recurrence of Takahashi, Fagan and Chin (1973):
    Z_ua = -sum_b l_b Z_ba over u's neighbours, then d_u = 1/p -
    sum_a l_a Z_ua. Each Z_ab it reads is its own, from a node that came
    later in the forward pass, or, between two core nodes, a dot product of
    two columns of V. On a forest each node has one neighbour left, its
    parent, and the core is empty: exact in O(n) per right-hand side.
    """
    n = diag.size
    order, A, a_slot, B, b_slot, ab_slot, core, _, pairs, slots = plan
    pivots, ratio, ratio_b, rhs, schur = _forward(diag, off, columns, plan)
    # the inverse entries that a node with two neighbours reads
    Z = [0.0] * slots if diagonal and ab_slot is not None else None
    if schur is not None:
        if diagonal:
            V, XC = _factor_inverse(*schur)
            if Z is not None:
                s, i, j = pairs
                for at, z in zip(s.tolist(), _column_dots(V, i, j).tolist()):
                    Z[at] = z
            d = np.square(V, out=V).sum(axis=0)
        else:
            d, XC = None, _factor(*schur)[1]
        if not order:
            return d, XC[:, 1:].T, XC[:, 0]
    inverse = 1.0 / pivots
    X = rhs * inverse
    if schur is not None:
        if diagonal:
            inverse[core] = d
        X[:, core] = XC.T
    rhs = X.tolist()
    out = inverse.tolist()
    for u in reversed(order):
        a = A[u]
        if a < 0:
            continue
        r = ratio[u]
        b = B[u]
        if b < 0:
            if diagonal:
                za = out[a]
                out[u] += r * r * za
                if Z is not None:
                    Z[a_slot[u]] = -(r * za)
            for x in rhs:
                x[u] -= r * x[a]
            continue
        rb = ratio_b[u]
        if diagonal:
            zab = Z[ab_slot[u]]
            za = Z[a_slot[u]] = -(r * out[a] + rb * zab)
            zb = Z[b_slot[u]] = -(rb * out[b] + r * zab)
            out[u] -= r * za + rb * zb
        for x in rhs:
            x[u] -= r * x[a] + rb * x[b]
    return (np.array(out) if diagonal else None,
            np.array(rhs[1:]).reshape(columns.size, n), np.array(rhs[0]))


def _column_dots(V: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """V[:, i] . V[:, j] for each pair of column indices, a block of pairs
    at a time."""
    dots = np.empty(i.size)
    step = _block_rows(V.shape[0])
    for a in range(0, i.size, step):
        b = a + step
        dots[a:b] = np.einsum("kp,kp->p", V[:, i[a:b]], V[:, j[a:b]])
    return dots


# ---------------------------------------------------------------------------
# grounding helpers

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

    Accepts a scalar (a 0-d array too), a node-to-weight mapping, or a
    sequence aligned with ``leaders``. Every weight must be a real number,
    finite and > 0; as node ids do, a bool or a string is refused, where
    ``float`` would read True as 1.0 and '2' as 2.0.
    """
    kappa = _as_scalar(kappa)
    if kappa is None:
        return np.ones(len(leaders))
    if np.isscalar(kappa):
        vec = np.full(len(leaders), _weight(kappa))
    else:
        if hasattr(kappa, "get"):
            values = [kappa.get(v, 1.0) for v in leaders]
        else:
            try:
                values = list(kappa)
            except TypeError:
                raise BadKappaError(f"kappa must be a number, a mapping or a sequence, "
                                    f"got {kappa!r}") from None
            if len(values) != len(leaders):
                raise BadKappaError(
                    f"kappa list has {len(values)} entries for {len(leaders)} leaders"
                )
        vec = np.array([_weight(v) for v in values])
    if not np.all(np.isfinite(vec)) or np.any(vec <= 0.0):
        raise BadKappaError("every stubbornness weight must be finite and > 0")
    return vec


def _as_scalar(kappa):
    """A 0-d array as the scalar it holds; anything else as it is."""
    return kappa.item() if isinstance(kappa, np.ndarray) and kappa.ndim == 0 else kappa


def _weight(value) -> float:
    """One stubbornness weight as a float; raises BadKappaError unless it
    is a real number other than a bool."""
    value = _as_scalar(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadKappaError(f"a stubbornness weight must be a real number, got {value!r}")
    return float(value)


def _kappa_per_node(kappa) -> bool:
    """True when ``kappa`` gives each node its own weight: None, a scalar
    (a 0-d array too) or a mapping; False for a sequence, which follows
    the leaders."""
    kappa = _as_scalar(kappa)
    return kappa is None or np.isscalar(kappa) or hasattr(kappa, "get")


def leaders_with_kappa(g: Graph, leaders, kappa) -> tuple[tuple[int, ...], np.ndarray]:
    """Sorted unique leaders and their stubbornness weights, aligned.

    A scalar or a node-to-weight mapping is read per node. A sequence
    follows the leaders in the order the caller gave them, so
    ``leaders=(5, 0), kappa=[1, 50]`` ties node 0 with weight 50; a
    sequence with repeated leaders is ambiguous and rejected.
    """
    given = list(leaders)
    S = normalize_leaders(g, given)
    if _kappa_per_node(kappa):
        return S, normalize_kappa(S, kappa)
    if len(S) != len(given):
        raise BadKappaError("a kappa list needs distinct leaders")
    vec = normalize_kappa(given, kappa)
    return S, vec[np.argsort(given)]


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
    return float(grounded_solve(diag, off, [pos], diagonal=False)[1][0, pos])


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
        """sum_u r(u, v) for every v: the anchor's term of every set in
        :meth:`set_totals` and in the pair sweep. ``brute_force_select``
        scores single leaders from one grounded solve, without a table."""
        if self._column_sums is None:
            self._column_sums = self.table.sum(axis=0)
        return self._column_sums

    def set_totals(self, sets, inv_kappa=None) -> np.ndarray:
        """sum_u r(u, S) for every row S of ``sets``, to a reference node
        tied to each leader by 1/kappa when ``inv_kappa`` is given.

        ``sets`` is an (m, k) array of distinct leaders per row;
        ``inv_kappa`` an optional (m, k) array of 1/kappa per position.
        The value is twice the coherence of that leader set
        (:func:`schur_totals` on the leaders' rows of the table).
        """
        sets = np.asarray(sets, dtype=np.intp)
        return schur_totals(self.column_sums()[sets[:, 0]], self.table[sets], sets,
                            inv_kappa)


def schur_totals(sums: np.ndarray, rows: np.ndarray, sets: np.ndarray,
                 inv_kappa=None) -> np.ndarray:
    """sum_u r(u, S) for every row S of ``sets``, to a reference node tied
    to each leader by 1/kappa when ``inv_kappa`` is given.

    ``rows[c, j]`` is the resistance row r(sets[c, j], .) of the leader at
    position j, ``sums[c]`` the sum of the anchor's row and ``inv_kappa``
    an optional (m, k) array of 1/kappa per position. The anchor s1
    contributes its row sum (plus n/kappa_s1), and each later leader's
    Schur step (:func:`schur_columns`) lowers it by |column|^2 / pivot.
    With every node pinned the total is exactly 0, where the Schur steps
    would leave a rounding residue of either sign.
    """
    n = rows.shape[2]
    if inv_kappa is None and sets.shape[1] == n:
        return np.zeros(sets.shape[0])
    totals = sums if inv_kappa is None else sums + n * inv_kappa[:, 0]
    cols, pivots = schur_columns(rows, sets, inv_kappa)
    for j in range(sets.shape[1] - 1):
        totals = totals - np.einsum("cu,cu->c", cols[:, j], cols[:, j]) / pivots[:, j]
    return totals


def schur_columns(rows: np.ndarray, sets: np.ndarray, inv_kappa=None):
    """Ground every row of ``sets`` one leader at a time, from the leaders'
    resistance rows: ``rows[c, j]`` is r(sets[c, j], .), a row of the table.

    Grounding the anchor s1 turns the table into the grounded-inverse
    entries A[u, a] = (r(u, s1) + r(a, s1) - r(u, a)) / 2 (plus 1/kappa_s1
    when s1 is tied to the reference node), whose diagonal is r(u, s1).
    Each later leader t is then grounded by a rank-one Schur step with
    pivot A[t, t] (plus 1/kappa_t): the diagonal drops by A[:, t]^2 / pivot
    and the columns of the leaders after t lose A[:, t] A[t, :] / pivot.
    Only those k - 1 columns are ever formed, so only the leaders' rows
    are read.

    Returns ``(cols, pivots)`` of shapes (m, k - 1, n) and (m, k - 1):
    ``cols[c, j]`` is the column of leader ``sets[c, j + 1]`` at its own
    step and ``pivots[c, j]`` its pivot. Raises SolverError on a pivot
    that is not positive.
    """
    at = np.arange(sets.shape[0])
    rest = sets[:, 1:]
    if rest.shape[1] == 0:
        return np.empty((at.size, 0, rows.shape[2])), np.empty((at.size, 0))
    R_anchor = rows[:, 0]
    cols = R_anchor[:, None, :] + R_anchor[at[:, None], rest][:, :, None]
    cols -= rows[:, 1:]
    cols *= 0.5
    if inv_kappa is not None:
        cols += inv_kappa[:, :1, None]
    pivots = np.empty(rest.shape)
    for j in range(rest.shape[1]):
        col = cols[:, j]
        pivot = col[at, rest[:, j]]
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


def resistance_oracle(g: Graph) -> ResistanceOracle:
    """Precompute the full pairwise resistance table.

    Both routes ground node 0; L0 is that grounded Laplacian and G0 its
    inverse. The route is chosen from the edge count: a graph with at most
    one cycle (m <= n) takes the O(n^2) path sums of
    :func:`_one_cycle_table`; every other graph takes :func:`_factored_table`,
    the elimination engine's plan for L0: about c^3 flops for a core of c
    nodes, plus O(n) per peeled node. Each route hands its finished table
    to :func:`_check_table`, which refuses an ill-conditioned L0 with the
    scale that route computed. Peak memory is at most the table plus G0.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("resistance oracle requires a connected graph")
    n = g.node_count
    _check_budget(n, 2)
    if n == 1:
        return ResistanceOracle(g, np.zeros((1, 1)))
    _, diag, off = _grounded_entries(g, (0,))
    edges = _edge_ends(off)
    # an edge's resistance 1/w, a sum of them or a pivot's inverse past the
    # largest float is inf, and the table then holds inf or NaN; so does y,
    # or the table's columns, and the check refuses either without a
    # warning on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if g.edge_count <= n:
            table = _one_cycle_table(g, diag, edges)
        else:
            table = _factored_table(g, diag, off, edges)
    return ResistanceOracle(g, table)


def _check_table(g: Graph, table: np.ndarray, y: np.ndarray, diag: np.ndarray,
                 edges) -> None:
    """Check a finished table of ``g`` and y = G0 1, with L0 of diagonal
    ``diag`` and off-diagonal entries ``edges`` (:func:`_edge_ends`): four
    columns of G0 read back from the table as
    (r(u, 0) + r(v, 0) - r(u, v)) / 2, and y, pass :func:`_check_inverse`,
    whose scale then sets the tolerance of Foster's check
    (:func:`_check_foster`)."""
    # the grounded nodes are 1 .. n - 1
    to_root = table[1:, 0]
    cols = _residual_columns(to_root.size)
    X = 0.5 * ((to_root + to_root[cols, None]) - table[1:, 1:][cols])
    _check_foster(g, table, _check_inverse(X, cols, y, diag, edges))


def _factored_table(g: Graph, diag: np.ndarray, off, edges) -> np.ndarray:
    """The checked table from L0 (diagonal ``diag``, off-diagonal entries
    ``off`` and their :func:`_edge_ends` ``edges``), by one factor of the
    core of its plan.

    :func:`_grounded_inverse` gives G0, the inverse of L0: with no node
    eliminated, in its upper triangle; otherwise whole, with its rows and
    columns in elimination order. Row block by row block, the upper
    triangle of the table is then written as r(i, j) = (G[i, i] + G[j, j])
    - 2 G[i, j], with G0 padded by a zero row/column at node 0, and
    mirrored within the table.
    """
    n = g.node_count
    m = n - 1
    table = np.empty((n, n))
    G0, at, y = _grounded_inverse(diag, off, table)
    d = np.diagonal(G0).copy() if at is None else np.diagonal(G0)[at]
    table[0, 0] = 0.0
    table[0, 1:] = d
    table[1:, 0] = d
    T = table[1:, 1:]
    rows = _block_rows(m)
    below = np.tri(rows, k=-1, dtype=bool)
    for a in range(0, m, rows):
        b = min(a + rows, m)
        # scale the rows by -2 in place, which is exact, so each entry
        # rounds as (d_i + d_j) - 2 G_ij written out would; that is exactly
        # 0 on the diagonal
        g0 = G0[a:b, a:] if at is None else np.take(G0[at[a:b]], at[a:], axis=1)
        t = T[a:b, a:]
        g0 *= -2.0
        np.add(d[a:b, None], d[a:], out=t)
        t += g0
        _mirror_rows(T, a, b, below)
    _check_table(g, table, y, diag, edges)
    return table


def _grounded_inverse(diag: np.ndarray, off, spare: np.ndarray):
    """``(G, at, y)``: the inverse G of the grounded matrix A (diagonal
    ``diag``, off-diagonal entries ``off``) and y = A^-1 1. ``spare`` is an
    array of at least n^2 floats that is free until the caller writes it.

    The plan is :func:`_plan`'s with ``_TABLE_BREAK_EVEN``, and its core is
    inverted by :func:`_factor_inverse` and ``dlauum`` (together
    ``dpotri``, about c^3 flops for c nodes) in its lower triangle. With
    no node to eliminate the core is A, in an array of its own, and G is
    its C-order view, valid in its upper triangle, with ``at`` None.
    Otherwise the core is factored in a view of ``spare``, and G is whole
    and symmetric, in elimination order: the i-th node to go is row i, the
    core takes the last rows, and the entry of nodes u and v is
    G[at[u], at[v]]. The peeled rows are filled from the last to go to the
    first (Takahashi, Fagan and Chin 1973): row i, whose node went with
    neighbours a and b left, is exact after i as G[i, i+1:] =
    -l_a G[a, i+1:] - l_b G[b, i+1:], and G[i, i] = 1/p - l_a G[i, a] -
    l_b G[i, b], O(n) each, in the upper triangle only. A row it reads must
    hold the rows filled after it, mirrored: every ``_MIRROR_ROWS`` rows are
    mirrored into their columns at once, and a row read in between first
    takes the few it misses. y comes by back-substitution of the carried
    ones.
    """
    n = diag.size
    plan = _plan(n, off[0], off[1], _TABLE_BREAK_EVEN)
    order, A, _, B, _, _, core, _, _, _ = plan
    if not order:
        c, y = _factor_inverse(diag, off)
        _lauum(c)
        return c.T, None, y
    p = len(order)
    at = np.empty(n, dtype=np.intp)
    at[order] = np.arange(p)
    at[core] = np.arange(p, n)
    pivots, ratio, ratio_b, rhs, schur = _forward(diag, off, np.zeros(0, np.intp), plan)
    inverse = 1.0 / pivots
    y = rhs[0] * inverse
    G = np.zeros((n, n))
    if schur is not None:
        k = core.size
        c, y_core = _factor_inverse(*schur, out=spare.reshape(-1)[:k * k].reshape(k, k))
        _lauum(c)
        y[core] = y_core[:, 0]
        block = G[p:, p:]
        block[...] = c.T
        _mirror_all(block)
    x = y.tolist()
    out = inverse.tolist()
    pos = at.tolist()
    scratch = np.empty(n)
    # rows i + 1 .. mirrored - 1 are filled but not yet mirrored
    mirrored = p
    for i in range(p - 1, -1, -1):
        u = order[i]
        a = A[u]
        if a < 0:
            G[i, i] = out[u]
        else:
            # the ratios negated, which is exact
            r = -ratio[u]
            ia = pos[a]
            rest = G[ia, i + 1:]
            # the row of a misses the rows filled since the last mirror
            rest[:min(mirrored, ia) - i - 1] = G[i + 1:min(mirrored, ia), ia]
            row = np.multiply(rest, r, out=G[i, i + 1:])
            b = B[u]
            if b < 0:
                x[u] += r * x[a]
                G[i, i] = out[u] + r * G[i, ia]
            else:
                rb = -ratio_b[u]
                ib = pos[b]
                rest = G[ib, i + 1:]
                rest[:min(mirrored, ib) - i - 1] = G[i + 1:min(mirrored, ib), ib]
                row += np.multiply(rest, rb, out=scratch[:n - i - 1])
                x[u] += r * x[a] + rb * x[b]
                G[i, i] = out[u] + (r * G[i, ia] + rb * G[i, ib])
        if mirrored - i >= _MIRROR_ROWS or i == 0:
            G[mirrored:, i:mirrored] = G[i:mirrored, mirrored:].T
            _mirror_all(G[i:mirrored, i:mirrored])
            mirrored = i
    return G, at, np.array(x)


def _mirror_all(A: np.ndarray) -> None:
    """Copy the upper triangle of the square array A onto its lower
    triangle, row block by row block (:func:`_mirror_rows`)."""
    k = A.shape[0]
    step = _block_rows(k)
    below = np.tri(step, k=-1, dtype=bool)
    for a in range(0, k, step):
        _mirror_rows(A, a, min(a + step, k), below)


def _lauum(c: np.ndarray) -> None:
    """Overwrite V, in the lower triangle of ``c``, with the lower triangle
    of V^T V (LAPACK ``dlauum``)."""
    _, info = dlauum(c, lower=1, overwrite_c=1)
    if info != 0:
        raise SolverError(f"LAPACK inversion failed (info={info})")


def _one_cycle_table(g: Graph, diag: np.ndarray, edges) -> np.ndarray:
    """The checked table of a connected graph with m <= n edges in O(n^2)
    (L0 and G0 as in :func:`_factored_table`).

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

    On a tree the row sum of G0 at u is the sum of size(a) r(a, parent(a))
    over the nodes a from u up to the root, size(a) counting a's subtree;
    with the cycle's edge it is (n r(u, 0) + sum_v r(v, 0) - sum_v r(u, v))
    / 2, read from the table. Those row sums are y = G0 1, whose largest
    entry is the exact ||G0||_1 of :func:`_check_table`'s condition scale,
    so a graph whose bound fails is refused with the scale of its own path
    sums.
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
        y = 0.5 * (n * table[1:, 0] + sums[0] - sums[1:])
    else:
        # the row sums of G0 at the grounded nodes 1 .. n - 1
        y = np.array(row_sums[1:])
    _check_table(g, table, y, diag, edges)
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
    inverse that :func:`_check_table` checks."""
    k = min(4, m)
    return np.array([c * (m - 1) // max(1, k - 1) for c in range(k)], dtype=np.intp)


def _check_foster(g: Graph, table: np.ndarray, scale: float) -> None:
    """Raise SolverError unless the table satisfies Foster's theorem,
    sum_e w_e r_e = n - 1 (Klein & Randic 1993).

    Each edge's resistance is read in both orientations, so a wrong mirror
    cannot pass. The sum is the trace of L0 G0, so it misses n - 1 by the
    trace of the inverse's residual L0 G0 - I, whose n - 1 diagonal entries
    are each bounded, to first order, by c_n eps kappa(L0) (Higham, ch.
    14); with c_n = n and eps kappa(L0) = ``scale``, the exact
    eps ||L0||_1 ||G0||_1 of :func:`_check_inverse`, the tolerance is
    (n - 1) n ``scale``. O(m).
    """
    n = g.node_count
    u, v = g._uv[:, 0], g._uv[:, 1]
    total = 0.5 * float((g._w * (table[u, v] + table[v, u])).sum())
    # written so that a NaN sum fails too
    if not abs(total - (n - 1)) <= (n - 1) * n * scale:
        raise SolverError(
            f"Foster's sum over the edges is {total!r}, not n - 1 = {n - 1}"
        )


def _check_budget(n: int, arrays: int) -> None:
    """Raise BudgetExceededError if ``arrays`` n x n float arrays pass the
    budget.

    A grounded solve holds one, its core's matrix (the whole system's when
    nothing is eliminated), factored and inverted in place. Building the
    table holds two, the table and the grounded inverse: a peeled table
    factors its core in the table's own buffer before the table is
    written, so it holds no third. The k = 2 search in
    ``selection`` holds the table and its Gram matrix, as many bytes, so
    the check made when the table is built covers it too.
    """
    need = arrays * 8 * n * n
    if need > _TABLE_BUDGET:
        raise BudgetExceededError(
            f"{arrays} dense arrays on {n} nodes need {need / 2**20:.0f} MiB, "
            f"over the budget of {_TABLE_BUDGET / 2**20:.0f} MiB"
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
    if not (_is_real(w) and math.isfinite(w) and w > 0.0):
        raise BadWeightError(f"added edge weight must be a real number, finite and > 0, "
                             f"got {w!r}")
    r = oracle.table
    delta = r[p, i] + r[q, j] - r[p, j] - r[q, i]
    return float(r[p, q] - w * delta * delta / (4.0 * (1.0 + w * r[i, j])))
