"""Weighted undirected graphs: construction, validation, generators, and I/O.

Node ids are 0-based contiguous integers. Graphs are immutable after
construction and safe to share between threads; all builders are pure
functions.

Two interchange formats are supported:

* edge-list text, one edge per line as ``u v w`` (whitespace separated,
  ``#`` starts a comment): ids in ASCII digits, weights in plain decimal
  or exponent notation, as JSON numbers are written. The writer emits a
  structured ``# n=<count>`` comment so that trailing isolated nodes
  survive a round trip.
* JSON, ``{"n": int, "edges": [[u, v, w], ...]}``.
"""

from __future__ import annotations

import heapq
import json
import math
import numbers
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


def _is_int(value) -> bool:
    """True for Python and numpy integers, False for bools and the rest."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for Python and numpy real numbers, integers among them, False
    for bools and the rest."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _require_int(name: str, value) -> None:
    """Raise BadParameterError unless ``value`` is an integer (:func:`_is_int`)."""
    if not _is_int(value):
        raise BadParameterError(f"{name} must be an integer, got {value!r}")


def _first_non_integer(u, v) -> int | None:
    """Index of the first edge whose ids ``u[i]``, ``v[i]`` are not both
    integers (:func:`_is_int`), or None. The set of id types is checked
    first, so all-integer input makes no call per id."""
    types = {*map(type, u), *map(type, v)}
    if all(issubclass(t, numbers.Integral) and t is not bool for t in types):
        return None
    return next(i for i, ends in enumerate(zip(u, v)) if not all(map(_is_int, ends)))


def _non_integer_error(u, v) -> BadParameterError:
    return BadParameterError(f"edge ({u!r},{v!r}) has a node id that is not an integer")


class Graph:
    """Immutable weighted undirected graph.

    Invariants enforced at construction: no self-loops, at most one edge
    per unordered pair, weights that are strictly positive finite real
    numbers (numpy's too, never bools or strings), all endpoints integers
    (numpy's too, never bools or floats) in ``[0, node_count)``. The edges
    are held, in input order, as two read-only arrays: ``_uv`` (m, 2) with
    u < v in each row and ``_w`` (m,) their weights. Every matrix is
    assembled from these arrays; connectivity is computed once, on the
    first query.
    """

    __slots__ = ("node_count", "_uv", "_w", "_edges", "_connected")

    def __init__(self, node_count: int, edges):
        _require_int("node_count", node_count)
        node_count = int(node_count)
        if node_count < 1:
            raise BadParameterError("a graph needs at least one node")
        # every edge must be a triple with integer ids; the edges before the
        # first other id are checked first, as a scan in input order would
        u, v, w = tuple(zip(*edges, strict=True)) or ((), (), ())
        odd = _first_non_integer(u, v)
        if odd is not None:
            Graph(node_count, tuple(zip(u, v, w))[:odd])
            raise _non_integer_error(u[odd], v[odd])
        self._set_edges(node_count, np.array((u, v), dtype=np.float64), w)

    def _set_edges(self, node_count: int, ids: np.ndarray, w) -> None:
        """Check and hold the edges: ``ids`` is the (2, m) array of their
        integer ids, read as floats, and ``w`` their weights."""
        # a weight must be a real number (:func:`_is_real`), where float()
        # would read True as 1.0 and '1_0' as 10.0; the set of weight types
        # is checked first, so all-real input makes no call per weight
        given = w
        if all(issubclass(t, numbers.Real) and t is not bool for t in set(map(type, w))):
            real = np.ones(len(w), dtype=bool)
        else:
            real = np.array([_is_real(x) for x in w], dtype=bool)
            w = [x if ok else math.nan for x, ok in zip(w, real)]
        w = np.array(w, dtype=np.float64)
        # floats are exact below 2**53, so that an id of any size compares
        # with the node range without overflow
        lo, hi = ids.min(axis=0), ids.max(axis=0)
        inside = (0.0 <= lo) & (hi < node_count)
        # -1 stands for the ids of an edge outside the range, which is
        # flagged anyway, so that they cast to integers without overflow
        ends = np.where(inside, (lo, hi), -1).astype(np.intp)
        dup = np.ones(w.size, dtype=bool)
        dup[np.unique(ends[0] * node_count + ends[1], return_index=True)[1]] = False
        flags = (lo == hi, ~inside, ~real, ~(np.isfinite(w) & (w > 0.0)), dup)
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
                BadWeightError(f"{edge} has weight {given[i]!r}, which is not a real number"),
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
    if node_count is not None:
        _require_int("node_count", node_count)
    columns = tuple(zip(*edge_list, strict=True))
    u, v = columns[:2] or ((), ())
    # the first edge with a negative id or one that is not an integer
    odd = _first_non_integer(u, v)
    ids = np.array((u[:odd], v[:odd]), dtype=np.float64)
    negative = (ids < 0.0).any(axis=0)
    if negative.any():
        i = int(negative.argmax())
        raise BadParameterError(f"negative node id in edge ({u[i]},{v[i]})")
    if odd is not None:
        raise _non_integer_error(u[odd], v[odd])
    inferred = int(ids.max()) + 1 if ids.size else 0
    n = max(inferred, int(node_count) if node_count is not None else 0)
    if n < 1:
        raise BadParameterError("empty edge list needs an explicit node_count")
    # the edges are converted and their ids checked once, here
    _, _, w = columns or ((), (), ())
    g = Graph.__new__(Graph)
    g._set_edges(n, ids, w)
    return g


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


def _dense(diag, off, out=None) -> np.ndarray:
    """The symmetric matrix with this diagonal and these off-diagonal entries,
    written into ``out`` (a C-order square array) when it is given."""
    if out is None:
        A = np.diag(diag)
    else:
        A = out
        A.fill(0.0)
        np.fill_diagonal(A, diag)
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


def _adjacency(node_count: int, ends: np.ndarray):
    """Every node's neighbours, from the (m, 2) integer array ``ends`` of
    edge ends: both ends of every edge, interleaved and grouped by node by
    a stable sort, so each node's neighbours come in edge order.

    Returns ``(order, start, other)``: ``order`` the sorting permutation of
    the interleaved ends, an array in which edge ``order[k] >> 1`` is the
    one at position k; ``start``, a list in which node u's positions are
    ``start[u]:start[u + 1]``; and ``other``, the list of the other end at
    each position.
    """
    flat = ends.ravel()
    order = np.argsort(flat, kind="stable")
    start = np.searchsorted(flat[order], np.arange(node_count + 1)).tolist()
    return order, start, ends[:, ::-1].ravel()[order].tolist()


def rooted_forest(node_count: int, ends: np.ndarray):
    """A spanning forest of the graph on ``node_count`` nodes whose edges
    join the two nodes of each row of the (m, 2) integer array ``ends``, in
    depth-first preorder.

    Each component is rooted at its smallest node, and the components come
    in the order of their roots. A node's neighbours are visited in reverse
    edge order, and each node joins the forest through the first edge that
    reaches it. Returns three lists: ``order``, the nodes in preorder, in
    which every subtree is one contiguous slice that starts at its root;
    ``parent``, each node's parent; and ``edge``, the index of the edge
    joining each node to its parent (both -1 at a root). On a forest every
    edge joins a node to its parent; otherwise the edges no node names in
    ``edge`` are those the spanning forest leaves out.
    """
    by_end, start, other = _adjacency(node_count, ends)
    through = (by_end >> 1).tolist()
    parent = [-1] * node_count
    edge = [-1] * node_count
    seen = [False] * node_count
    order = []
    visit = order.append
    for root in range(node_count):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        push, pop = stack.append, stack.pop
        while stack:
            u = pop()
            visit(u)
            for k in range(start[u], start[u + 1]):
                v = other[k]
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    edge[v] = through[k]
                    push(v)
    return order, parent, edge


def graph_distance(g: Graph, u: int, v: int) -> float:
    """Shortest weighted path length between u and v (Dijkstra)."""
    n = g.node_count
    _require_int("node id", u)
    _require_int("node id", v)
    if not (0 <= u < n and 0 <= v < n):
        raise BadParameterError(f"node out of range: ({u},{v}) with n={n}")
    if u == v:
        return 0.0
    order, start, other = _adjacency(n, g._uv)
    weight = g._w[order >> 1].tolist()
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
    _require_int("n", n)
    if n < 3:
        raise BadParameterError(f"a cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def build_path(n: int) -> Graph:
    """Unit-weight path on n >= 2 nodes."""
    _require_int("n", n)
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
    _require_int("branching factor", branching)
    _require_int("height", height)
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


# re.ASCII: \d would match any script's digits, which int() reads too
_NODE_COUNT_HEADER = re.compile(r"^#\s*n\s*=\s*(\d+)\s*$", re.ASCII)
_NODE_ID = re.compile(r"[0-9]+")
# float() also reads "1_0", "inf", "nan" and other scripts' digits
_WEIGHT = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


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
        for token in parts[:2]:
            if not _NODE_ID.fullmatch(token):
                raise GraphSpecError(f"line {lineno}: node id {token!r} is not "
                                     f"a nonnegative integer in ASCII digits")
        if not _WEIGHT.fullmatch(parts[2]):
            raise GraphSpecError(f"line {lineno}: weight {parts[2]!r} is not a "
                                 f"decimal number")
        edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
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
        edges = [_json_edge(u, v, w) for u, v, w in doc["edges"]]
    except (TypeError, ValueError) as exc:
        raise GraphSpecError(f"invalid JSON edge entry: {exc}") from exc
    if not _is_int(doc["n"]):
        raise GraphSpecError(f'JSON graph "n" must be an integer, got {doc["n"]!r}')
    return build_graph(edges, node_count=doc["n"])


def _json_edge(u, v, w) -> Edge:
    if not (_is_int(u) and _is_int(v)):
        raise ValueError(f"node ids must be integers, got {u!r} and {v!r}")
    return u, v, w


def read_graph_file(path: str) -> Graph:
    """Load a graph from a file, sniffing JSON vs edge-list content."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_edge_list(text)
