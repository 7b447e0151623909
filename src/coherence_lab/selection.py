"""Exact exhaustive k-leader selection for both dynamics.

Candidates are enumerated lexicographically and every size-k set is
evaluated (the objective never increases when a leader is added, so
searching exactly size k solves the "at most k" problem).

For k = 1 no table is formed. A leader v's total is sum_u r(u, v) (plus
n/kappa_v), and with G0 the inverse of the Laplacian grounded at node 0,
d its diagonal and y = G0 1, both padded by a 0 at node 0, that is
sum(d) + n d_v - 2 y_v: one ``electrical.grounded_solve`` scores every
node (:func:`_single_totals`): by forest elimination on trees, paths and
cycles; on a larger graph by eliminating every node with at most two
neighbours left and factoring only the core that is left (about half the
nodes of a random graph with n/2 chords); and by one dense factor of the
whole system otherwise.

Every k >= 2 is scored from one pairwise resistance table, in one sweep
that shares rank-one grounding steps between sets (as in Lin, Fardad &
Jovanovic, IEEE TAC 2014). A set is its lexicographic prefix P of k - 2
leaders plus a trailing pair s < t after it. Grounding P on the table
(pinned for noise-free, tied to a reference node by 1/kappa for
noise-corrupted; ``electrical.schur_columns``) gives the grounded
inverse A_P, and one Gram matrix G_P = A_P^T A_P (BLAS ``dsyrk``) then
scores every trailing pair by two closed Schur steps:

    total = tau_P - G_ss / p_s - (G_tt - 2 c G_st + c^2 G_ss) / p_t,

with tau_P the total of P, p_s = A_ss + 1/kappa_s, c = A_st / p_s and
p_t = A_tt - c A_st + 1/kappa_t. For k = 2, P is empty and the table
itself plays A: :func:`_pair_blocks` forms the table's Gram matrix Q
once and overwrites its upper triangle with the pair totals, row block
by row block; with both leaders pinned the two steps collapse to the
symmetric (cs_x + cs_y) / 2 - ((q_x + q_y - 2 Q_xy) / r_xy + n r_xy) / 4,
cs being the table's column sums and q the diagonal of Q
(:func:`_pair_rows`). Prefixes are taken in groups whose grounded rows
fit one block of ``electrical._BLOCK_FLOATS`` floats, so small graphs
pay Python once per group, not per prefix. The Gram expansion cancels
where a set's value is small beside its terms (stiff weights), so every
total carries the sum of its terms' absolute values (for a pinned pair,
the total plus twice the two terms it subtracts, which the sweep forms
on the way), and a set whose rounding bound, 4 eps times that sum,
exceeds ``_RECHECK`` of its value is recomputed directly by
``ResistanceOracle.set_totals``. The reduction keeps a running minimum
and the sets within ``_tie_window`` of it, block by block; no array of
all C(n, k) values is ever formed. The kept sets are sorted at the end,
so their order does not depend on the blocks.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk

from .coherence import NOISE_CORRUPTED, NOISE_FREE
from .electrical import (
    _BLOCK_FLOATS,
    _EPS,
    SOLVE_TOLERANCE,
    ResistanceOracle,
    _block_rows,
    _check_pivots,
    _kappa_per_node,
    grounded_solve,
    normalize_kappa,
    resistance_oracle,
    schur_columns,
)
from .errors import (
    DEFAULT_BUDGET,
    BadParameterError,
    BudgetExceededError,
    DisconnectedGraphError,
)
from .graphs import Graph, _grounded_entries, _is_int, is_connected

CO_OPTIMAL_CAP = 1000
#: sets scored together by the prefix sweep; each holds some 16 floats of
#: temporaries
_SETS_PER_BLOCK = _BLOCK_FLOATS // 8
#: largest rounding bound, relative to a set's value, accepted from the
#: Gram expansion; a set past it is recomputed directly. Fixed at a
#: hundredth of the solve tolerance before any measurement.
_RECHECK = 0.01 * SOLVE_TOLERANCE


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of an exhaustive search over leader sets of one size."""

    dynamics: str
    k: int
    value: float
    optimal_sets: tuple[tuple[int, ...], ...]
    co_optimal_count: int
    evaluated_count: int
    elapsed_seconds: float


def _tie_window(vmin: float) -> float:
    # the contracted solve accuracy: rounding spreads equal optima (every
    # node of a unit cycle at n = 3000) by ~2e-11 relative from the table
    # and ~1e-12 from the k = 1 solve, so a window tied to the summation
    # length alone splits them
    return 1e-12 + SOLVE_TOLERANCE * max(1.0, abs(vmin))


def _kappa_reciprocals(kappa, n: int, k: int) -> np.ndarray:
    """1/kappa of every node at every position of a sorted set, (k, n).

    A scalar or a mapping gives each node its own weight; a sequence is
    aligned with the candidate's leaders in ascending order, the order in
    which candidates are generated, so it means what it would mean passed
    to ``coherence_nc`` with that candidate.
    """
    if _kappa_per_node(kappa):
        per_node = 1.0 / normalize_kappa(range(n), kappa)
        return np.broadcast_to(per_node, (k, n))
    per_position = 1.0 / normalize_kappa(range(k), kappa)
    return np.broadcast_to(per_position[:, None], (k, n))


class _Minimum:
    """The least of a stream of totals and every set whose value (half its
    total) is within the tie window of the least value."""

    def __init__(self):
        self.total = math.inf
        self._totals = []
        self._sets = []

    def _limit(self) -> float:
        # twice (least value + window); doubling is exact, so a total
        # passes exactly when its value would
        return self.total + 2.0 * _tie_window(0.5 * self.total)

    def add(self, totals: np.ndarray, sets_at) -> None:
        """Take a block of totals; ``sets_at`` maps ``np.nonzero``
        positions in it to their sets, one row each."""
        low = float(totals.min())
        if low < self.total:
            self.total = low
            limit = self._limit()
            keep = [v <= limit for v in self._totals]
            self._totals = [v[k] for v, k in zip(self._totals, keep)]
            self._sets = [S[k] for S, k in zip(self._sets, keep)]
        limit = self._limit()
        if low <= limit:
            hits = np.nonzero(totals <= limit)
            self._totals.append(totals[hits])
            self._sets.append(sets_at(hits))

    @property
    def value(self) -> float:
        return 0.5 * self.total

    @property
    def count(self) -> int:
        return sum(v.size for v in self._totals)

    def sets(self, cap: int) -> tuple[tuple[int, ...], ...]:
        """The first ``cap`` sets within the tie window, in lexicographic
        order."""
        if not self._sets:
            raise ValueError("no total was added")
        sets = np.concatenate(self._sets)
        order = np.lexsort(sets.T[::-1])
        return tuple(map(tuple, sets[order][:cap].tolist()))


def _single_totals(g: Graph, recip) -> np.ndarray:
    """k = 1: every node's total sum_u r(u, v), plus n/kappa_v when
    ``recip`` (the (1, n) array of :func:`_kappa_reciprocals`) is given.

    With G0 the inverse of the Laplacian grounded at node 0, d its diagonal
    and y = G0 1, both padded by a 0 at node 0, r(u, v) = d_u + d_v -
    2 G0[u, v] sums over u to sum(d) + n d_v - 2 y_v: one grounded solve,
    no table. The subtraction cancels at most log2(2n + 1) bits, since
    d_u = r(u, 0) <= r(u, v) + d_v and d_v <= the total, so sum(d) + n d_v
    is at most 2n + 1 times it. On graphs that are not forests the solve
    holds one factor, of the whole system or of the core left by peeling,
    which ``electrical._factor`` checks against the byte budget; forests
    and cycles hold no n x n array.
    """
    n = g.node_count
    _, diag, off = _grounded_entries(g, (0,))
    d, _, y = grounded_solve(diag, off)
    d = np.concatenate(([0.0], d))
    totals = n * d
    totals += d.sum()
    totals[1:] -= 2.0 * y
    if recip is not None:
        totals += n * recip[0]
    return totals


def _pair_blocks(oracle: ResistanceOracle, recip):
    """k = 2: the pair totals sum_u r(u, {x, y}), x < y, row block by row
    block of the table's upper triangle: in the block of rows a:b, cell
    (i, j) holds the pair (a + i, a + j), and cells on or below the
    diagonal read +inf.

    The Gram matrix Q = R R of the symmetric table R is one BLAS ``dsyrk``
    (n^3 flops): handed the Fortran-order view ``R.T``, it copies nothing,
    and its lower triangle, transposed, is the upper triangle that
    :func:`_pair_rows` overwrites with each block's totals. Each block is
    overwritten by the next; beside the table, the sweep holds Q and three
    row blocks, and the byte budget that ``resistance_oracle`` checked for
    the table build (two n x n arrays) covers the table and Q.
    """
    R = oracle.table
    n = R.shape[0]
    col = oracle.column_sums()
    T = dsyrk(1.0, R.T, trans=1, lower=1).T
    q = np.diagonal(T).copy()
    rows = _block_rows(n)
    scratch = np.empty((rows, n))
    bound = np.empty((rows, n))
    lower = np.tri(rows, dtype=bool)
    for a in range(0, n - 1, rows):
        b = min(a + rows, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            _pair_rows(T, R, q, col, a, b, scratch, recip, bound)
        t = T[a:b, a:]
        t[:, :b - a][lower[:b - a, :b - a]] = np.inf
        wide = _too_wide(bound[:b - a, :n - a], t, scratch[:b - a, :n - a])

        def sets_at(hits, a=a):
            return np.column_stack((a + hits[0], a + hits[1]))

        yield t, wide, sets_at


def _pair_rows(T: np.ndarray, R: np.ndarray, q: np.ndarray, col: np.ndarray,
               a: int, b: int, scratch: np.ndarray, inv_kappa,
               bound: np.ndarray) -> None:
    """Overwrite rows a:b of ``T``'s upper triangle, from column a on, with
    the pair totals sum_u r(u, {x, y}), x < y, and the same cells of
    ``bound`` with their rounding bounds.

    ``T`` holds the Gram matrix Q = R R there, ``q`` its diagonal and
    ``col`` the table's column sums. Grounding x first (the anchor) and
    then y by one Schur step gives

        cs_x + n/kappa_x - [(q_x + q_y - 2 Q_xy) + 2 h (cs_x - cs_y) + n h^2]
                           / (4 (r_xy + 1/kappa_x + 1/kappa_y)),

    with h = r_xy + 2/kappa_x; ``inv_kappa`` is the pair (1/kappa of every
    node as the first leader, as the second). Without it both leaders are
    pinned (h = r_xy is the pivot), and the total is the symmetric

        (cs_x + cs_y) / 2 - ((q_x + q_y - 2 Q_xy) / r_xy + n r_xy) / 4.

    Scaling by 2 or 4 is exact, so each entry rounds as the expression
    written out would. ``scratch`` and ``bound`` have at least b - a rows
    of n columns; ``bound`` receives the sum of the absolute values of the
    terms, or a little more: the rounding error of a total is at most a few
    eps times it. Without kappa every term is positive but the two that
    the total subtracts, (q_x + q_y) / (4 r_xy) + n r_xy / 4, so that sum
    is the total plus twice those two, which the sweep forms on the way.
    """
    n = R.shape[0]
    t, r, s = T[a:b, a:], R[a:b, a:], scratch[:b - a, :n - a]
    e = bound[:b - a, :n - a]
    if inv_kappa is None:
        # t takes twice the total, (cs_x + cs_y) - ((q_x + q_y) / 2 - Q_xy)
        # / r_xy - n r_xy / 2, and e twice the terms it subtracts,
        # (q_x + q_y) / (2 r_xy) + n r_xy / 2; the halves are taken of the
        # vectors and of n. Scaled by 2 throughout, each rounds as the
        # total written out would. The sum of the absolute values of the
        # terms is then the total plus e
        np.add(0.5 * q[a:b, None], 0.5 * q[a:], out=s)
        np.divide(s, r, out=e)
        np.subtract(s, t, out=t)
        t /= r
        np.multiply(r, 0.5 * n, out=s)
        t += s
        e += s
        np.add(col[a:b, None], col[a:], out=s)
        np.subtract(s, t, out=t)
        t *= 0.5
        e += t
        return
    cx, cy = col[a:b, None], col[a:]
    first, second = inv_kappa[0][a:b, None], inv_kappa[1][a:]
    h = r + 2.0 * first
    pivot = (r + first) + second
    lead = cx + n * first
    # every term is positive but -2 Q_xy and -2 h cs_y, so the absolute
    # values sum to the bracket plus 4 (Q_xy + h cs_y)
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
    # lead + bracket / (4 pivot) + (Q_xy + h cs_y) / pivot, with the
    # bracket's share, lead minus the total, taken as lead
    e /= pivot
    e += 2.0 * lead


def _prefix_blocks(oracle: ResistanceOracle, k: int, recip):
    """k >= 3: the prefixes P of k - 2 leaders, in lexicographic order and
    in groups whose grounded rows fit one block (:func:`_group_blocks`)."""
    R = oracle.table
    n = R.shape[0]
    prefixes = itertools.combinations(range(n - 2), k - 2)
    for first in prefixes:
        # every prefix of the group has its last leader at first[0] + k - 3
        # or later, so its columns after P number at most `widest`
        widest = n - first[0] - k + 2
        m = max(1, _BLOCK_FLOATS // (n * widest))
        group = np.array([first, *itertools.islice(prefixes, m - 1)], dtype=np.intp)
        yield from _group_blocks(oracle, group, recip)


def _group_blocks(oracle: ResistanceOracle, group: np.ndarray, recip):
    """The sets (P, s, t) of a group of prefixes P, rows of ``group``, as
    vectors in lexicographic order: A_P's columns after j0 (the column
    after the earliest-ending prefix), their Gram matrices G_P and the
    diagonal of A_P give every trailing pair's total and rounding bound.
    """
    R = oracle.table
    n = R.shape[0]
    m, depth = group.shape
    last = group[:, -1]
    j0 = int(last.min()) + 1
    w = n - j0
    anchor = group[:, 0]
    inv_kappa = None if recip is None else recip[np.arange(depth), group]
    # each later prefix leader takes A_P down by col col^T / pivot, and the
    # total of P, the anchor's column sum (+ n/kappa), by |col|^2 / pivot
    cols, pivots = schur_columns(R[group], group, inv_kappa)
    cols /= np.sqrt(pivots)[:, :, None]
    tau = oracle.column_sums()[anchor]
    if recip is not None:
        tau = tau + n * inv_kappa[:, 0]
    tau = tau - np.einsum("mju,mju->m", cols, cols)

    def grounded_rows(lo, hi):
        """A_P[u, v] for lo <= u < hi and v >= j0, every prefix."""
        A = R[anchor, lo:hi][:, :, None] + R[anchor, j0:][:, None, :]
        A -= R[lo:hi, j0:]
        A *= 0.5
        if recip is not None:
            A += inv_kappa[:, 0, None, None]
        for j in range(depth - 1):
            A -= cols[:, j, lo:hi, None] * cols[:, j, None, j0:]
        return A

    # the diagonal of A_P after j0: r(v, anchor) (+ 1/kappa), less the
    # Schur steps, as grounded_rows forms it
    diag = R[anchor, j0:]
    if recip is not None:
        diag += inv_kappa[:, :1]
    for j in range(depth - 1):
        diag -= cols[:, j, j0:] * cols[:, j, j0:]
    # G_P over the columns after j0, summed over row blocks of A_P. dsyrk
    # writes one triangle; the other is zeroed, since stale memory may
    # hold subnormal patterns that slow every operation over the block
    # tenfold
    G = np.zeros((m, w, w))
    step = max(1, _BLOCK_FLOATS // (m * w))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        A = grounded_rows(lo, hi)
        for i in range(m):
            dsyrk(1.0, A[i].T, beta=float(lo > 0), c=G[i].T, trans=0, lower=1,
                  overwrite_c=1)
    held = A if step >= n else None
    gram_diag = np.diagonal(G, axis1=1, axis2=2).copy()
    nodes = np.arange(j0, n)
    # rows s are scored in runs of about _SETS_PER_BLOCK sets: each prefix
    # that ends before s pairs it with every t after it
    per_row = (nodes > last[:, None]).sum(axis=0) * (n - 1 - nodes)
    run = np.cumsum(per_row) // _SETS_PER_BLOCK
    cuts = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), w]
    for a, b in zip(cuts[:-1], cuts[1:]):
        # the sets of the run, (prefix, s, t) in lexicographic order, from
        # flat positions; s and t count columns from j0
        in_run = ((nodes[a:b, None] < nodes)[None]
                  & (nodes[a:b] > last[:, None])[:, :, None])
        i, s = np.divmod(np.flatnonzero(in_run), (b - a) * w)
        if not i.size:
            continue
        s, t = np.divmod(s, w)
        s += a
        if held is not None:
            As, top = held, 0
        else:
            As, top = grounded_rows(j0 + a, j0 + b), j0 + a
        A_st = As.ravel()[(i * As.shape[1] + j0 + s - top) * w + t]
        G_st = G.ravel()[(i * w + s) * w + t]
        s_at, t_at = i * w + s, i * w + t
        G_ss, G_tt = gram_diag.ravel()[s_at], gram_diag.ravel()[t_at]
        p_s, p_t = diag.ravel()[s_at], diag.ravel()[t_at]
        if recip is not None:
            p_s += recip[depth, j0 + s]
        _check_pivots(p_s)
        c = A_st / p_s
        p_t -= c * A_st
        if recip is not None:
            p_t += recip[depth + 1, j0 + t]
        _check_pivots(p_t)
        c2g = c * c
        c2g *= G_ss
        c *= G_st
        c *= 2.0
        total = G_tt - c
        total += c2g
        bound = np.abs(c, out=c)
        bound += G_tt
        bound += c2g
        total /= p_t
        bound /= p_t
        first = G_ss / p_s
        np.subtract(tau[i] - first, total, out=total)
        bound += tau[i]
        bound += first
        wide = _too_wide(bound, total, c2g)

        def sets_at(hits, i=i, s=s, t=t):
            return np.column_stack((group[i[hits]], j0 + s[hits], j0 + t[hits]))

        yield total, wide, sets_at


def _too_wide(bound: np.ndarray, total: np.ndarray, scratch: np.ndarray):
    """``np.nonzero`` positions of the totals whose rounding bound, 4 eps
    times ``bound`` (the sum of the absolute values of their terms, or a
    little more), exceeds ``_RECHECK`` of their value, or None when there
    is none; a total that cancelled below zero is always among them.
    ``scratch`` (as large) is overwritten."""
    # cells that hold no set read +inf, and +inf * 0 is NaN
    with np.errstate(invalid="ignore"):
        np.multiply(total, _RECHECK / (4.0 * _EPS), out=scratch)
    wide = bound > scratch
    # np.nonzero over a block costs some ten passes of it, counting one
    return np.nonzero(wide) if np.count_nonzero(wide) else None


def _total_blocks(oracle: ResistanceOracle, k: int, recip):
    """Every size-k total of the table's graph, k >= 2, block by block, as
    ``(totals, sets_at)``; cells that hold no set read +inf.

    A set whose rounding bound is too wide is recomputed by
    ``ResistanceOracle.set_totals``; ``recip`` is the (k, n) array of
    :func:`_kappa_reciprocals`, or None for noise-free.
    """
    if k == 2:
        blocks = _pair_blocks(oracle, recip)
    else:
        blocks = _prefix_blocks(oracle, k, recip)
    for total, wide, sets_at in blocks:
        if wide is not None:
            sets = sets_at(wide)
            inv_kappa = None if recip is None else recip[np.arange(k), sets]
            total[wide] = oracle.set_totals(sets, inv_kappa)
        yield total, sets_at


def brute_force_select(g: Graph, k: int, dynamics: str = NOISE_FREE, kappa=None,
                       budget: int = DEFAULT_BUDGET,
                       cap: int = CO_OPTIMAL_CAP) -> SelectionResult:
    """Globally optimal leader sets of size exactly k.

    Raises BudgetExceededError when C(n, k) exceeds ``budget``. All
    co-optimal sets (up to ``cap``) are returned in lexicographic order;
    the count field reports how many there were in total.
    """
    n = g.node_count
    if not (_is_int(k) and 1 <= k <= n):
        raise BadParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if dynamics not in (NOISE_FREE, NOISE_CORRUPTED):
        raise BadParameterError(f"unknown dynamics {dynamics!r}")
    if not (_is_int(cap) and cap >= 1):
        raise BadParameterError(f"cap must be an integer >= 1, got {cap!r}")
    if not (_is_int(budget) and budget >= 1):
        raise BadParameterError(f"budget must be an integer >= 1, got {budget!r}")
    if not is_connected(g):
        raise DisconnectedGraphError("selection requires a connected graph")
    total = math.comb(n, k)
    if total > budget:
        raise BudgetExceededError(
            f"C({n},{k}) = {total} candidate sets exceed the budget of {budget}"
        )
    start = time.perf_counter()
    recip = (_kappa_reciprocals(kappa, n, k)
             if dynamics == NOISE_CORRUPTED else None)
    best = _Minimum()
    if k == 1:
        best.add(_single_totals(g, recip), lambda hits: hits[0][:, None])
    else:
        for totals, sets_at in _total_blocks(resistance_oracle(g), k, recip):
            best.add(totals, sets_at)
    elapsed = time.perf_counter() - start
    return SelectionResult(
        dynamics=dynamics,
        k=k,
        value=best.value,
        optimal_sets=best.sets(cap),
        co_optimal_count=best.count,
        evaluated_count=int(total),
        elapsed_seconds=elapsed,
    )
