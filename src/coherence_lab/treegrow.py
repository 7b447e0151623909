"""Growing a perfect binary tree one node at a time while tracking the
designated two-leader placement.

The growth rule fills the next level in a fixed order, listed once per
level: each parent on the frontier gives two slots, grouped by the
parent's ancestor on level 3. The slots under the first designated
leader's two level-3 nodes come first, one from each in turn; then those
under the second leader's, likewise; then the rest. Within a group the
parents come in id order. The two groups under a leader always hold as
many slots, so taking them in turn is filling the emptier one first,
ties to the lower-numbered side. Once the new level is full the
completed height advances.

The trajectory export evaluates the coherence of the designated pair
against every comparison pair whose members sit within distance 3 of the
root, one row per pair per step, with no resistance table. The tree has
unit weights, so a resistance is a hop distance and a new leaf's
distances are its parent's plus one. The distances from the 15 family
nodes to every node, their sums and the family's dot products are kept
as running integer sums, so each step costs O(|family|^2) whatever the
tree's size, and each value is one correctly rounded division of two
exact integers. Only the global optimum per step (``include_global``)
builds a table: it is :func:`selection.brute_force_select`'s k = 2 search
on that step's tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .closed_forms import tree_pair_geometry
from .errors import BadParameterError, HeightTooSmallError
from .graphs import Graph, _require_int, build_perfect_tree
from .selection import brute_force_select

#: the comparison family is every pair of nodes at most this far from the root
_FAMILY_DEPTH = 3


class GrowingTree:
    """Mutable rooted binary tree, perfect through its completed height.

    Single-owner mutable: grow from one thread; snapshot with
    :meth:`to_graph` for concurrent evaluation.
    """

    def __init__(self, h0: int):
        _require_int("h0", h0)
        if h0 < 4:
            raise HeightTooSmallError(
                f"the designated leader placement needs height >= 4, got {h0}"
            )
        ptree = build_perfect_tree(2, h0)
        self.height = h0
        self.levels = list(ptree.levels)
        self.parents = list(ptree.parents)
        self.children = [list(ptree.children(v)) for v in range(ptree.graph.node_count)]
        root_kids = self.children[0]
        self.leader_x = self.children[root_kids[0]][0]
        self.leader_y = self.children[root_kids[1]][0]
        self._start_level()

    def _start_level(self):
        """List the next level's free slots in fill order, last slot first:
        every parent on the current frontier twice, grouped by its ancestor
        on level 3. The two groups under leader x alternate, then the two
        under leader y, then the rest; id order within a group."""
        group_roots = self.children[self.leader_x] + self.children[self.leader_y]
        groups = [[] for _ in range(5)]
        for p, level in enumerate(self.levels):
            if level == self.height:
                anc = p
                while self.levels[anc] > 3:
                    anc = self.parents[anc]
                groups[group_roots.index(anc) if anc in group_roots else 4] += (p, p)
        slots = [p for a, b in ((0, 1), (2, 3)) for pair in zip(groups[a], groups[b])
                 for p in pair]
        self._slots = (slots + groups[4])[::-1]

    @property
    def node_count(self) -> int:
        return len(self.levels)

    def grow_step(self) -> tuple[int, int]:
        """Add one node on the partial level; returns (new id, parent id)."""
        parent = self._slots.pop()
        nid = len(self.levels)
        self.levels.append(self.height + 1)
        self.parents.append(parent)
        self.children[parent].append(nid)
        self.children.append([])
        if not self._slots:
            self.height += 1
            self._start_level()
        return nid, parent

    def to_graph(self) -> Graph:
        edges = [(self.parents[v], v, 1.0) for v in range(1, len(self.levels))]
        return Graph(len(self.levels), edges)


def init_growing_tree(h0: int) -> GrowingTree:
    """Perfect binary tree of height h0 >= 4 with the designated leaders
    placed two levels below the root in distinct root subtrees."""
    return GrowingTree(h0)


@dataclass(frozen=True)
class TrajectoryRow:
    step: int
    pair_id: str
    d_xr: int
    d_yr: int
    d_xy: int
    value: float


@dataclass(frozen=True)
class TrajectoryResult:
    designated: tuple[int, int]
    rows: tuple[TrajectoryRow, ...]
    global_rows: tuple[TrajectoryRow, ...] = field(default=())

    def designated_values(self) -> dict[int, float]:
        x, y = self.designated
        pid = f"{x}-{y}"
        return {r.step: r.value for r in self.rows if r.pair_id == pid}


def grow_trajectory(h0: int, steps: int | None = None,
                    include_global: bool = False) -> TrajectoryResult:
    """Grow from a perfect tree and record per-step pair coherences.

    Step 0 is the initial tree, then one row set per added node (2^(h0+1)
    of them by default, one full level). The comparison family is every
    unordered pair of nodes within distance 3 of the root; their values
    come from running integer sums of hop distances
    (:func:`_family_values`), each the correctly rounded coherence of its
    pair. With ``include_global`` the globally best two-leader set per step
    is recorded as a separate row stream: the first co-optimal set of
    :func:`selection.brute_force_select` with k = 2.
    """
    tree = init_growing_tree(h0)
    if steps is None:
        steps = 2 ** (h0 + 1)
    _require_int("steps", steps)
    if steps < 0:
        raise BadParameterError(f"steps must be >= 0, got {steps}")
    family_nodes = [v for v in range(tree.node_count)
                    if tree.levels[v] <= _FAMILY_DEPTH]
    family = [
        (u, v)
        for i, u in enumerate(family_nodes)
        for v in family_nodes[i + 1:]
    ]
    # family nodes never move as the tree grows, so their geometry is fixed
    family_geometry = [tree_pair_geometry(tree, u, v)[:3] for u, v in family]
    global_rows = []

    def record_global(step: int):
        # on a unit tree each value is T / (8 r) with T an integer and r at
        # most the diameter d, so distinct values differ by at least
        # 1 / (8 d^2), far outside the tie window: the first co-optimal set
        # is the first exact minimiser in lexicographic order
        best = brute_force_select(tree.to_graph(), 2)
        (x, y), value = best.optimal_sets[0], best.value
        d_xr, d_yr, d_xy, _ = tree_pair_geometry(tree, x, y)
        global_rows.append(TrajectoryRow(
            step=step, pair_id=f"{x}-{y}", d_xr=d_xr, d_yr=d_yr,
            d_xy=d_xy, value=value,
        ))

    if include_global:
        record_global(0)
    for step in range(1, steps + 1):
        tree.grow_step()
        if include_global:
            record_global(step)
    values = _family_values(tree, family_nodes, family_geometry, steps)
    labels = [(f"{u}-{v}", *geometry) for (u, v), geometry in zip(family, family_geometry)]
    rows = [
        TrajectoryRow(step, pair_id, d_xr, d_yr, d_xy, value)
        for step, step_values in enumerate(values.tolist())
        for (pair_id, d_xr, d_yr, d_xy), value in zip(labels, step_values)
    ]
    return TrajectoryResult(
        designated=(tree.leader_x, tree.leader_y),
        rows=tuple(rows),
        global_rows=tuple(global_rows),
    )


def _family_values(tree: GrowingTree, family_nodes, family_geometry,
                   steps: int) -> np.ndarray:
    """The (steps + 1, |family pairs|) coherences of the family pairs on the
    grown ``tree`` as it stood after each step, step 0 its first
    n0 = node_count - steps nodes.

    With r the hop distance (the resistance of a unit-weight tree), the
    two-leader formula r(u, {s, t}) = r_us - (r_us + r_st - r_ut)^2 / (4 r_st)
    sums over the n nodes u to T / (4 r_st), twice the coherence, where
    T = 2 (R^2)_st + 2 r_st (c_s + c_t) - q_s - q_t - n r_st^2 with
    c_s = sum_u r_us, q_s = sum_u r_us^2 and (R^2)_st = sum_u r_us r_ut.
    ``R`` holds r_us for every node u and family node s: the family block
    from the pair geometry, then every deeper node u as
    r(u, .) = r(parent(u), .) + 1, since no family node lies below u. The
    sums over the first n nodes, for n = n0 .. n0 + steps, are prefix sums
    down ``R``'s rows, which are in step order.

    Overflow: with d <= 2 log2(n) the diameter of a tree that is perfect
    but for its last level, every distance sum is at most n d, every term
    of T at most 4 n d^2 and every partial sum at most 6 n d^2, and
    0 <= T = 4 r_st sum_u r(u, {s, t}) <= 4 n d^2. While n < 2^38, far
    past any tree whose rows this module could hold, T < 2^53: it is exact
    in int64 and in float64, so ``T / (8 r_st)`` is the correctly rounded
    coherence.
    """
    n = tree.node_count
    n0 = n - steps
    levels = np.array(tree.levels)
    parents = np.array(tree.parents)
    k = len(family_nodes)
    # the family pairs, in the row-major order of the upper triangle
    i, j = np.triu_indices(k, 1)
    block = np.zeros((k, k), dtype=np.int64)
    block[i, j] = block[j, i] = [d_xy for _, _, d_xy in family_geometry]
    R = np.empty((n, k), dtype=np.int64)
    R[family_nodes] = block
    # every parent sits one level up, so the rows fill level by level
    for level in range(_FAMILY_DEPTH + 1, int(levels.max()) + 1):
        nodes = np.flatnonzero(levels == level)
        R[nodes] = R[parents[nodes]] + 1

    def prefix(X: np.ndarray) -> np.ndarray:
        # sums over the first n0, n0 + 1, ..., n nodes
        return np.cumsum(np.concatenate((X[:n0].sum(axis=0)[None], X[n0:])), axis=0)

    c = prefix(R)
    q = prefix(R * R)
    gram = prefix(R[:, i] * R[:, j])
    r = block[i, j]
    counts = np.arange(n0, n + 1, dtype=np.int64)[:, None]
    T = 2 * gram + 2 * r * (c[:, i] + c[:, j]) - q[:, i] - q[:, j] - counts * r * r
    return T / (8 * r)
