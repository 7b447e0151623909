"""Growing a perfect binary tree one node at a time while tracking the
designated two-leader placement.

The growth rule fills the next level in a fixed priority order: the two
subtrees under the first designated leader (always the emptier one, ties
to the lower-numbered side), then the two under the second leader, then
any remaining slot. Slot ties always resolve to the lowest-numbered free
parent, which makes every run deterministic. Once the new level is full
the completed height advances.

The trajectory export evaluates the coherence of the designated pair
against every comparison pair whose members sit within distance 3 of the
root, one row per pair per step, with no resistance table. The tree has
unit weights, so a resistance is a hop distance and a new leaf's
distances are its parent's plus one. The distances from the 15 family
nodes to every node, their sums and the family's dot products are kept
as running integer sums, so each step costs O(|family|^2) whatever the
tree's size, and each value is one correctly rounded division of two
exact integers. Only the global optimum per step (``include_global``)
builds a table, since it searches every pair of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .closed_forms import tree_pair_geometry
from .electrical import resistance_oracle
from .errors import BadParameterError, HeightTooSmallError
from .graphs import Graph, _require_int, build_perfect_tree
from .selection import least_pair

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
        self._rebuild_frontier()

    # -- growth bookkeeping -------------------------------------------------

    def _rebuild_frontier(self):
        self._frontier = [v for v in range(len(self.levels))
                          if self.levels[v] == self.height]
        group_roots = self.children[self.leader_x] + self.children[self.leader_y]
        self._groups = []
        for p in self._frontier:
            anc = p
            while self.levels[anc] > 3:
                anc = self.parents[anc]
            self._groups.append(
                group_roots.index(anc) if anc in group_roots else 4
            )
        self._capacity = [0] * 5
        self._filled = [0] * 5
        for grp in self._groups:
            self._capacity[grp] += 2
        self._new_total = 0

    @property
    def node_count(self) -> int:
        return len(self.levels)

    def _pick_group(self):
        for pair in ((0, 1), (2, 3)):
            open_groups = [g for g in pair if self._filled[g] < self._capacity[g]]
            if open_groups:
                return min(open_groups, key=lambda g: (self._filled[g], g))
        return None

    def grow_step(self) -> tuple[int, int]:
        """Add one node on the partial level; returns (new id, parent id)."""
        group = self._pick_group()
        parent = None
        for pos, p in enumerate(self._frontier):
            if len(self.children[p]) >= 2:
                continue
            if group is None or self._groups[pos] == group:
                parent = p
                chosen = self._groups[pos]
                break
        if parent is None:
            raise BadParameterError("no free slot; internal bookkeeping error")
        nid = len(self.levels)
        self.levels.append(self.height + 1)
        self.parents.append(parent)
        self.children[parent].append(nid)
        self.children.append([])
        self._filled[chosen] += 1
        self._new_total += 1
        if self._new_total == 2 * len(self._frontier):
            self.height += 1
            self._rebuild_frontier()
        return nid, parent

    # -- views --------------------------------------------------------------

    def to_graph(self) -> Graph:
        edges = [(self.parents[v], v, 1.0) for v in range(1, len(self.levels))]
        return Graph(len(self.levels), edges)

    def subtree_leaf_fill(self, v: int) -> int:
        """Nodes already added on the partial level under v."""
        count = 0
        stack = [v]
        while stack:
            u = stack.pop()
            if self.levels[u] == self.height + 1:
                count += 1
            stack.extend(self.children[u])
        return count


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

    def minima_by_step(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for r in self.rows:
            if r.step not in out or r.value < out[r.step]:
                out[r.step] = r.value
        return out


def grow_trajectory(h0: int, steps: int | None = None,
                    include_global: bool = False) -> TrajectoryResult:
    """Grow from a perfect tree and record per-step pair coherences.

    Step 0 is the initial tree, then one row set per added node (2^(h0+1)
    of them by default, one full level). The comparison family is every
    unordered pair of nodes within distance 3 of the root; their values
    come from running integer sums of hop distances
    (:func:`_family_values`), each the correctly rounded coherence of its
    pair. With ``include_global`` the globally best two-leader set per step
    is recorded as a separate row stream, searched on that step's
    resistance table.
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
        # the first pair in lexicographic order among exact ties, as
        # argmin over the upper triangle would keep it
        (x, y), value = least_pair(resistance_oracle(tree.to_graph()))
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
