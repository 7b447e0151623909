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
    ``[0, node_count)``.
    """

    __slots__ = ("node_count", "edges", "_adj")

    def __init__(self, node_count: int, edges):
        node_count = int(node_count)
        if node_count < 1:
            raise BadParameterError("a graph needs at least one node")
        seen = set()
        normalized = []
        for u, v, w in edges:
            u = int(u)
            v = int(v)
            w = float(w)
            if u == v:
                raise SelfLoopError(f"self-loop at node {u}")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise BadParameterError(
                    f"edge ({u},{v}) outside node range [0,{node_count})"
                )
            if not (math.isfinite(w) and w > 0.0):
                raise BadWeightError(f"edge ({u},{v}) has non-positive weight {w}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdgeError(f"duplicate edge between {key[0]} and {key[1]}")
            seen.add(key)
            normalized.append((key[0], key[1], w))
        self.node_count = node_count
        self.edges = tuple(normalized)
        self._adj = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self):
        """Adjacency lists as tuples of (neighbor, weight), built lazily."""
        if self._adj is None:
            adj = [[] for _ in range(self.node_count)]
            for u, v, w in self.edges:
                adj[u].append((v, w))
                adj[v].append((u, w))
            self._adj = tuple(tuple(nbrs) for nbrs in adj)
        return self._adj

    def degree_weights(self) -> np.ndarray:
        d = np.zeros(self.node_count)
        for u, v, w in self.edges:
            d[u] += w
            d[v] += w
        return d

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
    inferred = 0
    for u, v, _ in edge_list:
        if u < 0 or v < 0:
            raise BadParameterError(f"negative node id in edge ({u},{v})")
        inferred = max(inferred, int(u) + 1, int(v) + 1)
    n = max(inferred, int(node_count) if node_count is not None else 0)
    if n < 1:
        raise BadParameterError("empty edge list needs an explicit node_count")
    return Graph(n, edge_list)


def _grounded_entries(g: Graph, leaders=(), kvec=None):
    """Entries of the Laplacian grounded at a reference node.

    Without ``kvec`` the leaders are pinned to the reference and their
    rows and columns dropped (noise-free); with it ``leaders[i]`` is tied
    to the reference by the conductance ``kvec[i]`` on its diagonal
    (noise-corrupted). Returns ``(nodes, diag, off)``: the node of each
    row, the diagonal, and one ``(row, row, -w)`` entry per edge between
    kept nodes.
    """
    diag = g.degree_weights()
    if kvec is None:
        dropped = set(leaders)
        nodes = [v for v in range(g.node_count) if v not in dropped]
    else:
        diag[list(leaders)] += kvec
        nodes = list(range(g.node_count))
    row = {v: r for r, v in enumerate(nodes)}
    off = [(row[u], row[v], -w) for u, v, w in g.edges if u in row and v in row]
    return nodes, diag[nodes], off


def _dense(diag, off) -> np.ndarray:
    """The symmetric matrix with this diagonal and these off-diagonal entries."""
    A = np.diag(diag)
    for r, c, a in off:
        A[r, c] = a
        A[c, r] = a
    return A


def laplacian(g: Graph) -> np.ndarray:
    """Dense weighted Laplacian: degree matrix minus adjacency matrix."""
    return _dense(*_grounded_entries(g)[1:])


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component."""
    n = g.node_count
    adj = g.adjacency()
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v, _ in adj[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    return count == n


def is_tree(g: Graph) -> bool:
    return g.edge_count == g.node_count - 1 and is_connected(g)


def graph_distance(g: Graph, u: int, v: int) -> float:
    """Shortest weighted path length between u and v (Dijkstra)."""
    n = g.node_count
    if not (0 <= u < n and 0 <= v < n):
        raise BadParameterError(f"node out of range: ({u},{v}) with n={n}")
    if u == v:
        return 0.0
    adj = g.adjacency()
    dist = [math.inf] * n
    dist[u] = 0.0
    heap = [(0.0, u)]
    while heap:
        d, a = heapq.heappop(heap)
        if a == v:
            return d
        if d > dist[a]:
            continue
        for b, w in adj[a]:
            nd = d + w
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
