"""The three coherence functionals.

* noise-free: half the trace of the inverse grounded Laplacian, equal to
  half the sum of follower-to-leader-set resistances;
* noise-corrupted: half the trace of the inverse of the Laplacian plus the
  diagonal stubbornness weights, equal to half the sum over all nodes of
  resistances to a reference node tied to each leader by a 1/kappa
  resistor;
* leader-free: half the sum of reciprocal nonzero Laplacian eigenvalues
  (the variance of deviations from the network average).

Every functional is exposed through two independent computational routes
("trace" and "resistance") that the test suite holds to 1e-9 agreement.
On trees the trace route switches to an exact O(n) forest elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .electrical import (
    forest_inverse_diagonal,
    leaders_with_kappa,
    normalize_leaders,
    resistance_oracle,
    spd_trace_inverse,
)
from .errors import BadParameterError, DisconnectedGraphError
from .graphs import Graph, is_connected, is_tree, laplacian

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


def _grounded_trace(g: Graph, leader_set: set[int], extra_diagonal=None) -> float:
    """Trace of the inverse of the grounded (and optionally shifted) Laplacian.

    ``extra_diagonal`` adds per-node weights before grounding, which is how
    the noise-corrupted operator (ground nothing, shift leaders) and the
    noise-free one (ground leaders, shift nothing) share this code path.
    """
    followers = [v for v in range(g.node_count) if v not in leader_set]
    if not followers:
        return 0.0
    diag = g.degree_weights()
    if extra_diagonal is not None:
        diag = diag + extra_diagonal
    if is_tree(g):
        idx = {v: k for k, v in enumerate(followers)}
        edges = [
            (idx[u], idx[v], -w)
            for u, v, w in g.edges
            if u in idx and v in idx
        ]
        return float(
            forest_inverse_diagonal(len(followers), diag[followers], edges).sum()
        )
    L = laplacian(g)
    np.fill_diagonal(L, diag)
    return spd_trace_inverse(L[np.ix_(followers, followers)])


def coherence_nf(g: Graph, leaders, method: str = "trace",
                 graph_label: str | None = None) -> CoherenceReport:
    """Noise-free coherence of the leader set.

    ``method="trace"`` grounds the leaders and sums the inverse diagonal;
    ``method="resistance"`` sums follower-to-set resistances from the
    pairwise table. Leaders pinned to the reference contribute nothing, so
    the value is 0 when every node leads.
    """
    S = normalize_leaders(g, leaders)
    if not is_connected(g):
        raise DisconnectedGraphError("coherence requires a connected graph")
    if method == "trace":
        value = 0.5 * _grounded_trace(g, set(S))
    elif method == "resistance":
        value = 0.5 * float(resistance_oracle(g).set_profile(S).sum())
    else:
        raise BadParameterError(f"unknown method {method!r}")
    return CoherenceReport(
        value=value,
        dynamics=NOISE_FREE,
        method=method,
        graph=graph_label or _default_label(g),
        leaders=S,
    )


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
    if not is_connected(g):
        raise DisconnectedGraphError("coherence requires a connected graph")
    if method == "trace":
        shift = np.zeros(g.node_count)
        shift[list(S)] = kvec
        value = 0.5 * _grounded_trace(g, set(), extra_diagonal=shift)
    elif method == "resistance":
        totals = resistance_oracle(g).set_totals(np.array([S]), 1.0 / kvec[None, :])
        value = 0.5 * float(totals[0])
    else:
        raise BadParameterError(f"unknown method {method!r}")
    return CoherenceReport(
        value=value,
        dynamics=NOISE_CORRUPTED,
        method=method,
        graph=graph_label or _default_label(g),
        leaders=S,
        kappa={int(v): float(k) for v, k in zip(S, kvec)},
    )


def leader_free_coherence(g: Graph, graph_label: str | None = None) -> CoherenceReport:
    """Steady-state variance of deviations from the average, no leaders.

    Half the trace of the Laplacian pseudoinverse, evaluated as the sum of
    reciprocals of the n - 1 nonzero eigenvalues.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("leader-free coherence requires connectivity")
    if g.node_count == 1:
        value = 0.0
    else:
        eig = np.linalg.eigvalsh(laplacian(g))
        value = 0.5 * float(np.sum(1.0 / eig[1:]))
    return CoherenceReport(
        value=value,
        dynamics=LEADER_FREE,
        method="trace",
        graph=graph_label or _default_label(g),
    )

