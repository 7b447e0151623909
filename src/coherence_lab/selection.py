"""Exact exhaustive k-leader selection for both dynamics.

Candidates are enumerated lexicographically and every size-k set is
evaluated (the objective never increases when a leader is added, so
searching exactly size k solves the "at most k" problem). Every value
comes from one pairwise resistance table: noise-free pairs on more than
two nodes use the one-GEMM pair sweep, and every other (dynamics, k)
sums ``ResistanceOracle.set_totals`` over lexicographic chunks of
candidates, which grounds each candidate's leaders one at a time with
the rank-one Schur steps of ``electrical.schur_columns`` (pinned for
noise-free, tied by 1/kappa for noise-corrupted).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .coherence import (
    NOISE_CORRUPTED,
    NOISE_FREE,
    CoherenceReport,
    coherence_nc,
    coherence_nf,
)
from .electrical import _is_int, normalize_kappa, resistance_oracle
from .errors import BadParameterError, BudgetExceededError, DisconnectedGraphError
from .graphs import Graph, is_connected

DEFAULT_BUDGET = 10_000_000
CO_OPTIMAL_CAP = 1000
#: floats in the (candidates, k - 1, n) block of leader columns per chunk
_BLOCK_FLOATS = 1 << 15


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


def _tie_window(vmin: float, n: int) -> float:
    # flat 1e-12 plus a summation-error allowance so that symmetric optima
    # on a few hundred nodes are never split by accumulation order
    return 1e-12 + 8.0 * n * np.finfo(np.float64).eps * max(1.0, abs(vmin))


def _lex_unranker(n: int, k: int):
    """Map lexicographic ranks to the size-k subsets of range(n), one row each.

    The rank r of c_1 < ... < c_k satisfies
    C(n, k) - 1 - r = sum_i C(n - 1 - c_i, k + 1 - i) (the combinatorial
    number system), so each position is one search in a column of
    binomials. Columns are clipped at C(n, k): every remainder is below
    it, so clipping changes no search and keeps the table in int64.
    """
    total = math.comb(n, k)
    col = np.arange(n, dtype=np.int64)
    binom = []
    for j in range(1, k + 1):
        binom.append(np.minimum(col, total))
        col = np.concatenate(([0], np.cumsum(binom[-1])[:-1]))
    binom.reverse()

    def unrank(ranks):
        rest = total - 1 - np.asarray(ranks, dtype=np.int64)
        sets = np.empty((rest.size, k), dtype=np.intp)
        for i, column in enumerate(binom):
            d = np.searchsorted(column, rest, side="right") - 1
            rest -= column[d]
            sets[:, i] = n - 1 - d
        return sets

    return unrank


def _kappa_reciprocals(kappa, n: int, k: int):
    """1/kappa for every (candidate, position) of a chunk of sorted sets.

    A scalar or a mapping gives each node its own weight; a sequence is
    aligned with the candidate's leaders in ascending order, the order in
    which candidates are generated, so it means what it would mean passed
    to ``coherence_nc`` with that candidate.
    """
    if kappa is None or np.isscalar(kappa) or hasattr(kappa, "get"):
        per_node = 1.0 / normalize_kappa(range(n), kappa)
        return lambda sets: per_node[sets]
    per_position = 1.0 / normalize_kappa(range(k), kappa)
    return lambda sets: np.broadcast_to(per_position, sets.shape)


def _table_values(g: Graph, k: int, dynamics: str, kappa) -> np.ndarray:
    """Values for every size-k candidate, in lexicographic order."""
    n = g.node_count
    unrank = _lex_unranker(n, k)
    oracle = resistance_oracle(g)
    reciprocals = (_kappa_reciprocals(kappa, n, k)
                   if dynamics == NOISE_CORRUPTED else None)
    total = math.comb(n, k)
    chunk = max(1, _BLOCK_FLOATS // max(1, (k - 1) * n))
    values = np.empty(total)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        sets = unrank(np.arange(lo, hi))
        inv_kappa = reciprocals(sets) if reciprocals is not None else None
        values[lo:hi] = oracle.set_totals(sets, inv_kappa)
    return 0.5 * values


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
    if not is_connected(g):
        raise DisconnectedGraphError("selection requires a connected graph")
    total = math.comb(n, k)
    if total > budget:
        raise BudgetExceededError(
            f"C({n},{k}) = {total} candidate sets exceed the budget of {budget}"
        )
    start = time.perf_counter()
    if dynamics == NOISE_FREE and k == 2 < n:
        # the upper triangle, row by row, is the lexicographic pair order
        totals = resistance_oracle(g).pair_totals()
        values = 0.5 * totals[np.triu_indices(n, 1)]
    else:
        values = _table_values(g, k, dynamics, kappa)
    vmin = float(values.min())
    hits = np.flatnonzero(values <= vmin + _tie_window(vmin, n))
    sets = tuple(tuple(int(v) for v in S)
                 for S in _lex_unranker(n, k)(hits[:cap]))
    elapsed = time.perf_counter() - start
    return SelectionResult(
        dynamics=dynamics,
        k=k,
        value=vmin,
        optimal_sets=sets,
        co_optimal_count=int(hits.size),
        evaluated_count=int(total),
        elapsed_seconds=elapsed,
    )


def best_single_leader(g: Graph, dynamics: str = NOISE_FREE,
                       kappa=None) -> tuple[int, CoherenceReport]:
    """Exhaustive best single leader; ties go to the smallest node id.

    The search is ``brute_force_select(g, 1, ...)``, so both name the same
    leader; the report is recomputed by the grounded-trace route.
    """
    best = brute_force_select(g, 1, dynamics, kappa, cap=1).optimal_sets[0][0]
    if dynamics == NOISE_FREE:
        report = coherence_nf(g, (best,))
    else:
        report = coherence_nc(g, (best,), kappa=kappa)
    return best, report
