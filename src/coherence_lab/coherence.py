"""The three coherence functionals.

* noise-free: half the trace of the inverse of the Laplacian grounded at
  a reference node the leaders are pinned to, equal to half the sum of
  follower-to-leader-set resistances;
* noise-corrupted: the same with each leader tied to the reference node
  by its stubbornness weight kappa (a 1/kappa resistor), equal to half the
  sum over all nodes of their resistances to that node;
* leader-free: half the sum of reciprocal nonzero Laplacian eigenvalues
  (the variance of deviations from the network average).

Every functional is exposed through two independent computational routes
("trace" and "resistance") that the test suite holds to 1e-9 agreement.
Noise-free is the pinned (kappa -> infinity) case of noise-corrupted, so
the two share one body that takes the leaders with their weights, or
with none when they are pinned. Its trace route reads the grounded
entries from ``graphs._grounded_entries`` and hands them, on trees, to
an exact O(n) forest elimination, otherwise to a dense Cholesky; its
resistance route is one ``ResistanceOracle.set_totals`` query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dsyevd

from .electrical import (
    forest_inverse_diagonal,
    leaders_with_kappa,
    normalize_leaders,
    resistance_oracle,
    spd_trace_inverse,
)
from .errors import BadParameterError, DisconnectedGraphError, SolverError
from .graphs import Graph, _grounded_entries, is_connected, is_tree, laplacian

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


def _grounded_trace(g: Graph, leaders, kvec=None) -> float:
    """Trace of the inverse of the Laplacian grounded at a reference node,
    with the leaders pinned to it (noise-free) or, given ``kvec``, tied to
    it by their stubbornness weights (noise-corrupted). Trees take the
    O(n) forest elimination on the same entries, other graphs Cholesky.
    """
    nodes, diag, off = _grounded_entries(g, leaders, kvec)
    if is_tree(g):
        triples = zip(*(x.tolist() for x in off))
        return float(forest_inverse_diagonal(len(nodes), diag, triples).sum())
    return spd_trace_inverse(diag, off)


def _coherence(g: Graph, S, kvec, method: str,
               graph_label: str | None) -> CoherenceReport:
    """Coherence of the normalised leaders ``S``, pinned when ``kvec`` is
    None, else tied to the reference node by their weights ``kvec``."""
    if not is_connected(g):
        raise DisconnectedGraphError("coherence requires a connected graph")
    tied = kvec is not None
    if method == "trace":
        value = 0.5 * _grounded_trace(g, S, kvec)
    elif method == "resistance":
        inv_kappa = 1.0 / kvec[None, :] if tied else None
        value = 0.5 * float(resistance_oracle(g).set_totals([S], inv_kappa)[0])
    else:
        raise BadParameterError(f"unknown method {method!r}")
    return CoherenceReport(
        value=value,
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
    ``method="resistance"`` sums every node's resistance to the leader set
    from the pairwise table, via
    :meth:`~coherence_lab.electrical.ResistanceOracle.set_totals`. Leaders
    pinned to the reference contribute nothing, so the value is 0 when
    every node leads.
    """
    return _coherence(g, normalize_leaders(g, leaders), None, method, graph_label)


def coherence_nc(g: Graph, leaders, kappa=None, method: str = "trace",
                 graph_label: str | None = None) -> CoherenceReport:
    """Noise-corrupted coherence of the leader set.

    The trace route inverts the Laplacian shifted by the stubbornness
    weights on the leader diagonal. The resistance route sums, over all n
    nodes, their resistance to a reference node tied to each leader by a
    1/kappa_i resistor, grounded on the base graph's pairwise table by
    :meth:`~coherence_lab.electrical.ResistanceOracle.set_totals`.
    A kappa list follows ``leaders`` in the order given (see
    :func:`~coherence_lab.electrical.leaders_with_kappa`).
    """
    S, kvec = leaders_with_kappa(g, leaders, kappa)
    return _coherence(g, S, kvec, method, graph_label)


def leader_free_coherence(g: Graph, graph_label: str | None = None) -> CoherenceReport:
    """Steady-state variance of deviations from the average, no leaders.

    Half the trace of the Laplacian pseudoinverse, evaluated as the sum of
    reciprocals of the n - 1 nonzero eigenvalues (LAPACK ``dsyevd``).
    """
    if not is_connected(g):
        raise DisconnectedGraphError("leader-free coherence requires connectivity")
    if g.node_count == 1:
        value = 0.0
    else:
        eig, _, info = dsyevd(laplacian(g), compute_v=0, lower=1)
        if info != 0:
            raise SolverError(f"LAPACK eigendecomposition failed (info={info})")
        value = 0.5 * float(np.sum(1.0 / eig[1:]))
    return CoherenceReport(
        value=value,
        dynamics=LEADER_FREE,
        method="trace",
        graph=graph_label or _default_label(g),
    )

