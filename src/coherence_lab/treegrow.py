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
exact integers. The values stay one (steps + 1) x 105 array beside the
105 pair labels; the rows are built from it in one pass.

The global optimum per step (``include_global``) takes the same integer
formula over every pair of nodes: all hop distances, which never change
as the tree grows, and the Gram matrix of the distance matrix, which
each new leaf updates by one rank-one term and one border. A step costs
O(n^2) integer work, and no table is formed.

Oversized runs are refused before any node is built: more tree nodes or
trajectory rows than ``errors.DEFAULT_BUDGET``, or with
``include_global`` more node pairs on the final tree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dsyrk

from .closed_forms import tree_pair_geometry
from .errors import (
    DEFAULT_BUDGET,
    BadParameterError,
    BudgetExceededError,
    HeightTooSmallError,
)
from .graphs import Graph, _require_int, build_perfect_tree

#: the comparison family is every pair of nodes at most this far from the root
_FAMILY_DEPTH = 3
#: pairs in the comparison family: the 15 nodes of the top four levels
_FAMILY_PAIRS = math.comb(2 ** (_FAMILY_DEPTH + 1) - 1, 2)
#: int64 entries per row block of the global pair sweep
_PAIR_BLOCK = 1 << 15


def _check_size(what: str, count: int) -> None:
    if count > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"{count} {what} exceed the budget of {DEFAULT_BUDGET}")


def _check_height(h0) -> None:
    """Refuse a height that is not an integer >= 4, or whose perfect tree
    alone has more nodes than the budget, before any node is built."""
    _require_int("h0", h0)
    if h0 < 4:
        raise HeightTooSmallError(
            f"the designated leader placement needs height >= 4, got {h0}"
        )
    _check_size("tree nodes", 2 ** (int(h0) + 1) - 1)


class GrowingTree:
    """Mutable rooted binary tree, perfect through its completed height.

    Single-owner mutable: grow from one thread; snapshot with
    :meth:`to_graph` for concurrent evaluation.
    """

    def __init__(self, h0: int):
        _check_height(h0)
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


class TrajectoryRow(NamedTuple):
    step: int
    pair_id: str
    d_xr: int
    d_yr: int
    d_xy: int
    value: float


@dataclass(frozen=True)
class TrajectoryResult:
    """A growth run's family rows and, if asked for, its global optima.

    ``values`` is the read-only (steps + 1, 105) array of family values, one
    row per step and one column per pair; ``labels`` holds each column's
    (pair_id, d_xr, d_yr, d_xy). ``rows`` lists the same values as
    :class:`TrajectoryRow` tuples, step by step and pair by pair within a
    step.
    """

    designated: tuple[int, int]
    rows: tuple[TrajectoryRow, ...]
    labels: tuple[tuple[str, int, int, int], ...] = field(compare=False, repr=False)
    values: np.ndarray = field(compare=False, repr=False)
    global_rows: tuple[TrajectoryRow, ...] = ()

    def designated_values(self) -> dict[int, float]:
        x, y = self.designated
        column = [label[0] for label in self.labels].index(f"{x}-{y}")
        return dict(enumerate(self.values[:, column].tolist()))


def grow_trajectory(h0: int, steps: int | None = None,
                    include_global: bool = False) -> TrajectoryResult:
    """Grow from a perfect tree and record per-step pair coherences.

    Step 0 is the initial tree, then one row set per added node (2^(h0+1)
    of them by default, one full level). The comparison family is every
    unordered pair of nodes within distance 3 of the root; their values
    come from running integer sums of hop distances
    (:func:`_family_values`), each the correctly rounded coherence of its
    pair, and are kept as one array beside the 105 pair labels. With
    ``include_global`` the globally best two-leader set per step is recorded
    as a separate row stream from exact integer sums over all nodes
    (:func:`_global_rows`): the first exact minimiser in lexicographic
    order and its correctly rounded coherence, with no resistance table.

    Raises BudgetExceededError, before any node is built, when the tree's
    nodes or the trajectory's rows would pass ``DEFAULT_BUDGET``, or with
    ``include_global`` when the final tree's C(n, 2) pairs would.
    """
    _check_height(h0)
    h0 = int(h0)
    if steps is None:
        steps = 2 ** (h0 + 1)
    _require_int("steps", steps)
    steps = int(steps)
    if steps < 0:
        raise BadParameterError(f"steps must be >= 0, got {steps}")
    n = 2 ** (h0 + 1) - 1 + steps
    _check_size("tree nodes", n)
    _check_size("trajectory rows", (steps + 1) * _FAMILY_PAIRS)
    if include_global and math.comb(n, 2) > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"C({n},2) = {math.comb(n, 2)} candidate sets exceed the budget of "
            f"{DEFAULT_BUDGET}"
        )
    tree = init_growing_tree(h0)
    family_nodes = [v for v in range(tree.node_count)
                    if tree.levels[v] <= _FAMILY_DEPTH]
    family = [
        (u, v)
        for i, u in enumerate(family_nodes)
        for v in family_nodes[i + 1:]
    ]
    # family nodes never move as the tree grows, so their geometry is fixed
    family_geometry = [tree_pair_geometry(tree, u, v)[:3] for u, v in family]
    for _ in range(steps):
        tree.grow_step()
    values = _family_values(tree, family_nodes, family_geometry, steps)
    values.setflags(write=False)
    labels = tuple((f"{u}-{v}", *geometry) for (u, v), geometry in zip(family, family_geometry))
    # every row at once, step-major: the 105 labels repeated once per step
    count = steps + 1
    pair_ids, d_xr, d_yr, d_xy = (list(column) * count for column in zip(*labels))
    step_column = itertools.chain.from_iterable(
        map(itertools.repeat, range(count), itertools.repeat(len(labels))))
    rows = tuple(map(tuple.__new__, itertools.repeat(TrajectoryRow), zip(
        step_column, pair_ids, d_xr, d_yr, d_xy, values.ravel().tolist())))
    return TrajectoryResult(
        designated=(tree.leader_x, tree.leader_y),
        rows=rows,
        labels=labels,
        values=values,
        global_rows=_global_rows(tree, steps) if include_global else (),
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


def _global_rows(tree: GrowingTree, steps: int) -> tuple[TrajectoryRow, ...]:
    """The globally best two-leader pair on the grown ``tree`` as it stood
    after each step, step 0 its first n0 = node_count - steps nodes: the
    first exact minimiser in lexicographic order, and its correctly rounded
    coherence.

    Every pair's value is T_st / (8 r_st) with T_st the integer of
    :func:`_family_values`, now over every pair of nodes. ``D`` holds all
    hop distances, which never change as the tree grows, and ``G`` the
    upper triangle of R^2, (R^2)_st = sum_u r_us r_ut over the nodes
    present, with c and q as in :func:`_family_values`. A new leaf l with
    parent p, at distances a from the m nodes before it, adds a a^T to the
    old block and the border (R^2)_lt = (R^2)_pt + c_t and
    (R^2)_ll = q_p + 2 c_p + m, from the old sums; c and q then gain a and
    a^2. So a step costs O(n^2) integer work, in row blocks that fold in
    the rank-one term. Two pairs whose exact values differ are at least
    1 / (8 d^2) apart (d the diameter), far more than the rounding of
    T / r, so the first least T / r in row-major order of the upper
    triangle is the first exact minimiser.
    """
    n = tree.node_count
    n0 = n - steps
    levels = np.array(tree.levels)
    parents = np.array(tree.parents)
    D = np.zeros((n, n), dtype=np.int64)
    # ids run level by level and every parent sits one level up: a node is
    # one further than its parent from every node of the levels above, and
    # two nodes of one level are two further apart than their parents
    starts = np.searchsorted(levels, np.arange(1, levels[-1] + 2))
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        p = parents[lo:hi]
        D[lo:hi, :lo] = D[p, :lo] + 1
        D[lo:hi, lo:hi] = D[np.ix_(p, p)] + 2
        np.fill_diagonal(D[lo:hi, lo:hi], 0)
        D[:lo, lo:hi] = D[lo:hi, :lo].T
    G = np.zeros((n, n), dtype=np.int64)
    # the upper triangle of D0 D0^T; every partial sum is an integer below
    # 2^53, so the float product is exact
    G[:n0, :n0] = dsyrk(1.0, D[:n0, :n0].astype(float))
    c = np.zeros(n, dtype=np.int64)
    q = np.zeros(n, dtype=np.int64)
    c[:n0] = D[:n0, :n0].sum(axis=0)
    q[:n0] = G.diagonal()[:n0]

    def least(m: int, a: np.ndarray | None) -> tuple[int, int, float]:
        # the first pair x < y of the first m nodes with the least T / r,
        # and its coherence, after adding a a^T to G's upper triangle when
        # a is given; a tie between blocks goes to the earlier block
        best, best_ratio = None, np.inf
        per_block = max(1, _PAIR_BLOCK // m)
        for lo in range(0, m - 1, per_block):
            hi = min(lo + per_block, m - 1)
            Gb, Db = G[lo:hi, lo:m], D[lo:hi, lo:m]
            if a is not None:
                Gb += np.multiply.outer(a[lo:hi], a[lo:m])
            T = np.add.outer(c[lo:hi], c[lo:m])
            T *= 2
            T -= m * Db
            T *= Db
            T += Gb
            T += Gb
            T -= np.add.outer(q[lo:hi], q[lo:m])
            above = np.arange(lo, m) > np.arange(lo, hi)[:, None]
            ratio = np.divide(T, Db, out=np.full(T.shape, np.inf), where=above)
            k = int(ratio.argmin())
            if ratio.flat[k] < best_ratio:
                best_ratio = ratio.flat[k]
                best = lo + k // (m - lo), lo + k % (m - lo), int(T.flat[k]), int(Db.flat[k])
        x, y, total, r = best
        return x, y, total / (8 * r)

    found = [least(n0, None)]
    for leaf in range(n0, n):
        p = int(parents[leaf])
        a = D[leaf, :leaf + 1]
        # only the upper triangle of G is kept: row p left of the diagonal
        # is read from column p
        G[:leaf, leaf] = np.concatenate((G[:p, p], G[p, p:leaf])) + c[:leaf]
        G[leaf, leaf] = q[leaf] = q[p] + 2 * c[p] + leaf
        c[leaf] = c[p] + leaf
        c[:leaf] += a[:leaf]
        q[:leaf] += a[:leaf] * a[:leaf]
        found.append(least(leaf + 1, a))
    return tuple(
        TrajectoryRow(step, f"{x}-{y}", *tree_pair_geometry(tree, x, y)[:3], value)
        for step, (x, y, value) in enumerate(found)
    )
