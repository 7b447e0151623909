"""The three coherence functionals.

* noise-free: half the trace of the inverse of the Laplacian grounded at
  a reference node the leaders are pinned to, equal to half the sum of
  follower-to-leader-set resistances;
* noise-corrupted: the same with each leader tied to the reference node
  by its stubbornness weight kappa (a 1/kappa resistor), equal to half the
  sum over all nodes of their resistances to that node;
* leader-free: half the trace of the Laplacian pseudoinverse, the sum of
  reciprocal nonzero Laplacian eigenvalues (the variance of deviations
  from the network average), which is the Kirchhoff index over 2n.

Every value is one grounded solve, ``electrical.grounded_solve``, by one
elimination engine: the nodes of a plan, each with at most two neighbours
left, are eliminated (all of a forest's, exactly in O(n); enough of a
larger system's to pay; otherwise none), and the core left, the whole
system when none is eliminated, takes a dense Cholesky and a triangular
inverse. A cycle or another series-parallel system leaves no core (the
noise-corrupted trace route on a ring). No resistance table and no
eigensolve is formed, and a value that passes the largest float on the
way raises ``SolverError``. Leader-free coherence grounds node 0
like the resistance route, so it takes forest elimination on trees and
cycles.
Noise-free and noise-corrupted are exposed through two independent
routes ("trace" and "resistance") that the test suite holds to 1e-9
agreement. Noise-free is the pinned (kappa -> infinity) case of
noise-corrupted, so the two share one body that takes the leaders with
their weights, or with none when they are pinned. The trace route solves
for the diagonal of the system the leaders ground. The resistance route
grounds node 0 instead, forms the leaders' rows of the resistance table
from the diagonal and the leaders' columns of that inverse, and grounds
the leaders by the Schur steps of ``electrical.schur_totals``, which the
table's ``ResistanceOracle.set_totals`` also takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .electrical import (
    grounded_solve,
    leaders_with_kappa,
    normalize_leaders,
    schur_totals,
)
from .errors import BadParameterError, DisconnectedGraphError, SolverError
from .graphs import Graph, _grounded_entries, is_connected

NOISE_FREE = "noise_free"
NOISE_CORRUPTED = "noise_corrupted"
LEADER_FREE = "leader_free"


@dataclass(frozen=True)
class CoherenceReport:
    """A computed coherence value with enough context to cross-validate."""

    value: float
    dynamics: str
    method: str
    graph: str
    leaders: tuple[int, ...] | None = None
    kappa: dict[int, float] | None = None
    stderr: float | None = None
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value >= 0.0):
            raise BadParameterError(
                f"coherence must be finite and nonnegative, got {self.value}"
            )

    def to_dict(self) -> dict:
        doc = {
            "value": self.value,
            "dynamics": self.dynamics,
            "method": self.method,
            "graph": self.graph,
            "leaders": list(self.leaders) if self.leaders is not None else None,
            "kappa": {str(k): v for k, v in self.kappa.items()} if self.kappa else None,
        }
        if self.stderr is not None:
            doc["stderr"] = self.stderr
        doc.update(self.extra)
        return doc


def _default_label(g: Graph) -> str:
    return f"n{g.node_count}:m{g.edge_count}"


def _in_range(value: float) -> float:
    """``value``; raises SolverError when it is not finite, because a sum
    that formed it passed the largest float."""
    if not np.isfinite(value):
        raise SolverError(f"coherence reads {value!r}: its sums pass the "
                          f"floating-point range")
    return value


def _grounded_trace(g: Graph, leaders, kvec=None) -> float:
    """Trace of the inverse of the Laplacian grounded at a reference node,
    with the leaders pinned to it (noise-free) or, given ``kvec``, tied to
    it by their stubbornness weights (noise-corrupted)."""
    _, diag, off = _grounded_entries(g, leaders, kvec)
    return float(grounded_solve(diag, off)[0].sum())


def _resistance_total(g: Graph, leaders, inv_kappa=None) -> float:
    """sum_u r(u, S), twice the coherence, from the leaders' resistance rows.

    With G0 the inverse of the Laplacian grounded at node 0 and d its
    diagonal (0 at node 0), leader s's row is r(u, s) = (d_u + d_s) -
    2 G0[u, s], as the table forms it; one grounded solve gives d and the
    leaders' columns of G0. ``inv_kappa`` is the (1, k) array of 1/kappa
    per leader, or None when the leaders are pinned.
    """
    _, diag, off = _grounded_entries(g, (0,))
    S = np.array(leaders, dtype=np.intp)
    grounded = S > 0
    d, X, _ = grounded_solve(diag, off, S[grounded] - 1)
    d = np.concatenate(([0.0], d))
    G = np.zeros((S.size, d.size))
    G[grounded, 1:] = X
    rows = (d + d[S, None]) - 2.0 * G
    rows[np.arange(S.size), S] = 0.0
    return float(schur_totals(rows[:1].sum(axis=1), rows[None], S[None], inv_kappa)[0])


def _coherence(g: Graph, S, kvec, method: str,
               graph_label: str | None) -> CoherenceReport:
    """Coherence of the normalised leaders ``S``, pinned when ``kvec`` is
    None, else tied to the reference node by their weights ``kvec``."""
    if not is_connected(g):
        raise DisconnectedGraphError("coherence requires a connected graph")
    tied = kvec is not None
    # a sum past the largest float reads inf or NaN, which _in_range
    # refuses without a warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "trace":
            value = 0.5 * _grounded_trace(g, S, kvec)
        elif method == "resistance":
            inv_kappa = 1.0 / kvec[None, :] if tied else None
            value = 0.5 * _resistance_total(g, S, inv_kappa)
        else:
            raise BadParameterError(f"unknown method {method!r}")
    return CoherenceReport(
        value=_in_range(value),
        dynamics=NOISE_CORRUPTED if tied else NOISE_FREE,
        method=method,
        graph=graph_label or _default_label(g),
        leaders=S,
        kappa={int(v): float(k) for v, k in zip(S, kvec)} if tied else None,
    )


def coherence_nf(g: Graph, leaders, method: str = "trace",
                 graph_label: str | None = None) -> CoherenceReport:
    """Noise-free coherence of the leader set.

    ``method="trace"`` grounds the leaders and sums the inverse diagonal;
    ``method="resistance"`` sums every node's resistance to the leader set:
    one solve grounded at node 0 gives the leaders' resistance rows, and
    rank-one Schur steps ground the leaders one at a time
    (:func:`~coherence_lab.electrical.schur_totals`). Leaders pinned to the
    reference contribute nothing, so the value is 0 when every node leads.
    """
    return _coherence(g, normalize_leaders(g, leaders), None, method, graph_label)


def coherence_nc(g: Graph, leaders, kappa=None, method: str = "trace",
                 graph_label: str | None = None) -> CoherenceReport:
    """Noise-corrupted coherence of the leader set.

    The trace route inverts the Laplacian shifted by the stubbornness
    weights on the leader diagonal. The resistance route sums, over all n
    nodes, their resistance to a reference node tied to each leader by a
    1/kappa_i resistor: the leaders' resistance rows of the base graph
    come from one solve grounded at node 0, and the Schur steps of
    :func:`~coherence_lab.electrical.schur_totals` tie the leaders on.
    A kappa list follows ``leaders`` in the order given (see
    :func:`~coherence_lab.electrical.leaders_with_kappa`).
    """
    S, kvec = leaders_with_kappa(g, leaders, kappa)
    return _coherence(g, S, kvec, method, graph_label)


def leader_free_coherence(g: Graph, graph_label: str | None = None) -> CoherenceReport:
    """Steady-state variance of deviations from the average, no leaders.

    Half the trace of the Laplacian pseudoinverse, the sum of reciprocals
    of the n - 1 nonzero eigenvalues. With G0 the inverse of the Laplacian
    grounded at node 0, padded by a zero row and column there, the
    pseudoinverse is P G0 P with P = I - 11^T / n, so its trace is
    tr G0 - 1^T G0 1 / n: one grounded solve gives the diagonal of G0 and
    G0 1. The difference is the Kirchhoff index over n, which is at least
    tr G0 / n, since the index sums every pair and tr G0 the pairs at node
    0; so the subtraction loses at most log2(n) bits.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("leader-free coherence requires connectivity")
    _, diag, off = _grounded_entries(g, (0,))
    with np.errstate(over="ignore", invalid="ignore"):
        d, _, y = grounded_solve(diag, off)
        value = 0.5 * (float(d.sum()) - float(y.sum()) / g.node_count)
    return CoherenceReport(
        value=_in_range(value),
        dynamics=LEADER_FREE,
        method="trace",
        graph=graph_label or _default_label(g),
    )
