"""Growing a perfect binary tree one node at a time while tracking the
designated two-leader placement.

The growth rule fills the next level in a fixed priority order: the two
subtrees under the first designated leader (always the emptier one, ties
to the lower-numbered side), then the two under the second leader, then
any remaining slot. Slot ties always resolve to the lowest-numbered free
parent, which makes every run deterministic. Once the new level is full
the completed height advances. The trajectory export evaluates the
coherence of the designated pair against every comparison pair whose
members sit within distance 3 of the root, one row per pair per step:
each step builds one resistance table and sums every family pair with
one batched ``ResistanceOracle.set_totals`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .closed_forms import tree_pair_geometry
from .electrical import resistance_oracle
from .errors import BadParameterError, HeightTooSmallError
from .graphs import Graph, _require_int, build_perfect_tree
from .selection import least_pair


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

    Step 0 is the initial tree, then one row set per added node. The
    comparison family is every unordered pair of nodes within distance 3
    of the root. With ``include_global`` the globally best two-leader set
    per step is recorded as a separate row stream.
    """
    tree = init_growing_tree(h0)
    if steps is None:
        steps = 2 ** (h0 + 1)
    _require_int("steps", steps)
    if steps < 0:
        raise BadParameterError(f"steps must be >= 0, got {steps}")
    family_nodes = [v for v in range(tree.node_count) if tree.levels[v] <= 3]
    family = [
        (u, v)
        for i, u in enumerate(family_nodes)
        for v in family_nodes[i + 1:]
    ]
    # family nodes never move as the tree grows, so their geometry is fixed
    family_geometry = [tree_pair_geometry(tree, u, v)[:3] for u, v in family]
    family_sets = np.array(family, dtype=np.intp)
    rows = []
    global_rows = []

    def record(step: int):
        oracle = resistance_oracle(tree.to_graph())
        for (u, v), (d_xr, d_yr, d_xy), total in zip(
                family, family_geometry, oracle.set_totals(family_sets)):
            rows.append(TrajectoryRow(
                step=step, pair_id=f"{u}-{v}", d_xr=d_xr, d_yr=d_yr,
                d_xy=d_xy, value=0.5 * float(total),
            ))
        if include_global:
            # the first pair in lexicographic order among exact ties, as
            # argmin over the upper triangle would keep it
            (x, y), value = least_pair(oracle)
            d_xr, d_yr, d_xy, _ = tree_pair_geometry(tree, x, y)
            global_rows.append(TrajectoryRow(
                step=step, pair_id=f"{x}-{y}", d_xr=d_xr, d_yr=d_yr,
                d_xy=d_xy, value=value,
            ))

    record(0)
    for step in range(1, steps + 1):
        tree.grow_step()
        record(step)
    return TrajectoryResult(
        designated=(tree.leader_x, tree.leader_y),
        rows=tuple(rows),
        global_rows=tuple(global_rows),
    )
