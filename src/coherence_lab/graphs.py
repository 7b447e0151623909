"""Weighted undirected graphs: construction, validation, generators, and I/O.

Node ids are 0-based contiguous integers. Graphs are immutable after
construction and safe to share between threads; all builders are pure
functions.

Two interchange formats are supported:

* edge-list text, one edge per line as ``u v w`` (whitespace separated,
  ``#`` starts a comment). The writer emits a structured ``# n=<count>``
  comment so that trailing isolated nodes survive a round trip.
* JSON, ``{"n": int, "edges": [[u, v, w], ...]}``.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameterError,
    BadWeightError,
    DuplicateEdgeError,
    GraphSpecError,
    SelfLoopError,
    UnreachableNodeError,
)

Edge = tuple[int, int, float]


class Graph:
    """Immutable weighted undirected graph.

    Invariants enforced at construction: no self-loops, at most one edge
    per unordered pair, strictly positive finite weights, all endpoints in
    ``[0, node_count)``. The edges are held, in input order, as two
    read-only arrays: ``_uv`` (m, 2) with u < v in each row and ``_w`` (m,)
    their weights. Every matrix is assembled from these arrays;
    connectivity is computed once, on the first query.
    """

    __slots__ = ("node_count", "_uv", "_w", "_edges", "_connected")

    def __init__(self, node_count: int, edges):
        node_count = int(node_count)
        if node_count < 1:
            raise BadParameterError("a graph needs at least one node")
        # every edge must be a triple; the ids are read as floats, exact
        # below 2**53, and truncated as int() would
        u, v, w = tuple(zip(*edges, strict=True)) or ((), (), ())
        ids = np.trunc(np.array((u, v), dtype=np.float64))
        w = np.array(w, dtype=np.float64)
        lo, hi = ids.min(axis=0), ids.max(axis=0)
        inside = (0.0 <= lo) & (hi < node_count)
        # -1 stands for the ids of an edge outside the range, which is
        # flagged anyway, so that they cast to integers without overflow
        ends = np.where(inside, (lo, hi), -1).astype(np.intp)
        dup = np.ones(w.size, dtype=bool)
        dup[np.unique(ends[0] * node_count + ends[1], return_index=True)[1]] = False
        flags = (lo == hi, ~inside, ~(np.isfinite(w) & (w > 0.0)), dup)
        bad = np.logical_or.reduce(flags)
        if bad.any():
            # every edge before the first flagged one is valid, so its flags
            # are those a scan in input order would raise on, in this order
            i = int(bad.argmax())
            u, v = int(ids[0, i]), int(ids[1, i])
            edge = f"edge ({u},{v})"
            errors = (
                SelfLoopError(f"self-loop at node {u}"),
                BadParameterError(f"{edge} outside node range [0,{node_count})"),
                BadWeightError(f"{edge} has non-positive weight {float(w[i])}"),
                DuplicateEdgeError(f"duplicate edge between {min(u, v)} and {max(u, v)}"),
            )
            raise next(e for flag, e in zip(flags, errors) if flag[i])
        self.node_count = node_count
        self._uv = np.ascontiguousarray(ends.T)
        self._w = w
        self._uv.flags.writeable = self._w.flags.writeable = False
        self._edges = self._connected = None

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as (u, v, w) tuples with u < v, in input order."""
        if self._edges is None:
            self._edges = tuple(zip(*self._uv.T.tolist(), self._w.tolist()))
        return self._edges

    @property
    def edge_count(self) -> int:
        return self._w.size

    def degree_weights(self) -> np.ndarray:
        # over the interleaved ends u0, v0, u1, ..., bincount adds the
        # weights in the order of a loop over the edges
        d = np.bincount(self._uv.ravel(), np.repeat(self._w, 2), self.node_count)
        return d.astype(np.float64, copy=False)  # integer when there are no edges

    def __repr__(self):
        return f"Graph(n={self.node_count}, m={self.edge_count})"

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.node_count == other.node_count and set(self.edges) == set(other.edges)

    def __hash__(self):
        return hash((self.node_count, frozenset(self.edges)))


def build_graph(edge_list, node_count: int | None = None) -> Graph:
    """Build a graph from (u, v, w) triples.

    The node count is ``1 + max id`` unless a larger explicit count is
    given; ids in range that appear in no edge become isolated nodes.
    """
    edge_list = list(edge_list)
    ids = np.array(tuple(zip(*edge_list, strict=True))[:2] or ((), ()), dtype=float)
    flagged = (~(ids >= 0.0) | np.isinf(ids)).any(axis=0)
    if flagged.any():
        # a negative id, or one that int() rejects: NaN or infinite
        u, v, _ = edge_list[int(flagged.argmax())]
        if u < 0 or v < 0:
            raise BadParameterError(f"negative node id in edge ({u},{v})")
        int(u), int(v)
    inferred = int(ids.max()) + 1 if ids.size else 0
    n = max(inferred, int(node_count) if node_count is not None else 0)
    if n < 1:
        raise BadParameterError("empty edge list needs an explicit node_count")
    return Graph(n, edge_list)


def _grounded_entries(g: Graph, leaders=(), kvec=None):
    """Entries of the Laplacian grounded at a reference node.

    Without ``kvec`` the leaders are pinned to the reference and their
    rows and columns dropped (noise-free); with it ``leaders[i]`` is tied
    to the reference by the conductance ``kvec[i]`` on its diagonal
    (noise-corrupted). Returns ``(nodes, diag, off)``: the list of the
    node of each row, the diagonal, and ``off = (rows, cols, values)``,
    arrays with one entry ``-w`` per edge between kept nodes.
    """
    diag = g.degree_weights()
    if kvec is not None:
        diag[list(leaders)] += kvec
        return list(range(g.node_count)), diag, (g._uv[:, 0], g._uv[:, 1], -g._w)
    row = np.zeros(g.node_count, dtype=np.intp)
    row[list(leaders)] = -1
    nodes = np.flatnonzero(row == 0)
    row[nodes] = np.arange(nodes.size)
    ends = row[g._uv]
    kept = (ends >= 0).all(axis=1)
    return nodes.tolist(), diag[nodes], (ends[kept, 0], ends[kept, 1], -g._w[kept])


def _dense(diag, off) -> np.ndarray:
    """The symmetric matrix with this diagonal and these off-diagonal entries."""
    A = np.diag(diag)
    rows, cols, values = off
    A[rows, cols] = values
    A[cols, rows] = values
    return A


def laplacian(g: Graph) -> np.ndarray:
    """Dense weighted Laplacian: degree matrix minus adjacency matrix."""
    return _dense(*_grounded_entries(g)[1:])


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component; computed once.

    Each round hooks the labels of every edge's ends to the smaller one and
    follows labels to their fixed point. Once a round changes nothing, each
    label is the smallest node of its component, so all are 0 iff connected.
    """
    if g._connected is None:
        label = np.arange(g.node_count)
        while True:
            ends = label[g._uv]
            low = ends.min(axis=1)
            hooked = label.copy()
            np.minimum.at(hooked, ends[:, 0], low)
            np.minimum.at(hooked, ends[:, 1], low)
            while True:
                jumped = hooked[hooked]
                if np.array_equal(jumped, hooked):
                    break
                hooked = jumped
            if np.array_equal(hooked, label):
                break
            label = hooked
        g._connected = not label.any()
    return g._connected


def is_tree(g: Graph) -> bool:
    return g.edge_count == g.node_count - 1 and is_connected(g)


def graph_distance(g: Graph, u: int, v: int) -> float:
    """Shortest weighted path length between u and v (Dijkstra)."""
    n = g.node_count
    if not (0 <= u < n and 0 <= v < n):
        raise BadParameterError(f"node out of range: ({u},{v}) with n={n}")
    if u == v:
        return 0.0
    # both orientations of every edge, grouped by their first end
    ends = g._uv.ravel()
    order = np.argsort(ends, kind="stable")
    start = np.searchsorted(ends[order], np.arange(n + 1)).tolist()
    other = g._uv[:, ::-1].ravel()[order].tolist()
    weight = np.repeat(g._w, 2)[order].tolist()
    dist = [math.inf] * n
    dist[u] = 0.0
    heap = [(0.0, u)]
    while heap:
        d, a = heapq.heappop(heap)
        if a == v:
            return d
        if d > dist[a]:
            continue
        for e in range(start[a], start[a + 1]):
            nd = d + weight[e]
            b = other[e]
            if nd < dist[b]:
                dist[b] = nd
                heapq.heappush(heap, (nd, b))
    raise UnreachableNodeError(f"nodes {u} and {v} are in different components")


def build_cycle(n: int) -> Graph:
    """Unit-weight cycle on n >= 3 nodes."""
    if n < 3:
        raise BadParameterError(f"a cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def build_path(n: int) -> Graph:
    """Unit-weight path on n >= 2 nodes."""
    if n < 2:
        raise BadParameterError(f"a path needs n >= 2, got {n}")
    return Graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


@dataclass(frozen=True)
class PerfectTree:
    """A perfect M-ary tree along with its level and parent maps.

    Nodes are labeled in breadth-first order: the root is 0 (level 0) and
    the children of node v are ``M*v + 1 .. M*v + M``.
    """

    graph: Graph
    branching: int
    height: int
    levels: tuple[int, ...]
    parents: tuple[int, ...]

    @property
    def root(self) -> int:
        return 0

    def children(self, v: int):
        m = self.branching
        first = m * v + 1
        n = self.graph.node_count
        return tuple(c for c in range(first, first + m) if c < n)


def perfect_tree_size(branching: int, height: int) -> int:
    return (branching ** (height + 1) - 1) // (branching - 1)


def build_perfect_tree(branching: int, height: int) -> PerfectTree:
    """Unit-weight perfect M-ary tree of the given height (root at level 0)."""
    if branching < 2:
        raise BadParameterError(f"branching factor must be >= 2, got {branching}")
    if height < 0:
        raise BadParameterError(f"height must be >= 0, got {height}")
    n = perfect_tree_size(branching, height)
    parents = [-1] * n
    levels = [0] * n
    edges = []
    for v in range(1, n):
        p = (v - 1) // branching
        parents[v] = p
        levels[v] = levels[p] + 1
        edges.append((p, v, 1.0))
    graph = Graph(n, edges)
    return PerfectTree(graph, branching, height, tuple(levels), tuple(parents))


# ---------------------------------------------------------------------------
# file formats

def write_edge_list(g: Graph) -> str:
    lines = [f"# n={g.node_count}"]
    for u, v, w in g.edges:
        lines.append(f"{u} {v} {w!r}")
    return "\n".join(lines) + "\n"


_NODE_COUNT_HEADER = re.compile(r"^#\s*n\s*=\s*(\d+)\s*$")


def parse_edge_list(text: str) -> Graph:
    """Parse the ``u v w`` edge-list format; errors carry the line number."""
    edges = []
    node_count = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            header = _NODE_COUNT_HEADER.match(raw.strip())
            if header:
                node_count = int(header.group(1))
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphSpecError(
                f"line {lineno}: expected 'u v w', got {len(parts)} fields"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError as exc:
            raise GraphSpecError(f"line {lineno}: {exc}") from exc
        edges.append((u, v, w))
    if not edges and node_count is None:
        raise GraphSpecError("no edges and no '# n=' header in edge-list input")
    return build_graph(edges, node_count=node_count)


def write_graph_json(g: Graph) -> str:
    return json.dumps(
        {"n": g.node_count, "edges": [[u, v, w] for u, v, w in g.edges]}
    )


def parse_graph_json(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphSpecError(f"invalid JSON graph: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise GraphSpecError('JSON graph must be {"n": int, "edges": [[u,v,w],...]}')
    try:
        edges = [(int(u), int(v), float(w)) for u, v, w in doc["edges"]]
    except (TypeError, ValueError) as exc:
        raise GraphSpecError(f"invalid JSON edge entry: {exc}") from exc
    return build_graph(edges, node_count=int(doc["n"]))


def read_graph_file(path: str) -> Graph:
    """Load a graph from a file, sniffing JSON vs edge-list content."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_edge_list(text)
