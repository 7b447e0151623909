import time
from fractions import Fraction

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab import treegrow
from coherence_lab.errors import BadParameterError, BudgetExceededError, HeightTooSmallError

from conftest import exact_table, exact_total, naive_nf_value, sweep_pair_totals


def _ancestor_at_level(tree, node, level):
    while tree.levels[node] > level:
        node = tree.parents[node]
    return node


def _snapshots(h0, steps):
    """The growing tree's graph after each of steps 0 .. ``steps``."""
    tree = cl.init_growing_tree(h0)
    graphs = [tree.to_graph()]
    for _ in range(steps):
        tree.grow_step()
        graphs.append(tree.to_graph())
    return tree, graphs


def _table_route_rows(h0, steps):
    """The family rows as (step, pair_id, d_xr, d_yr, d_xy) and their
    values, from one resistance table per step: the route the running sums
    replace."""
    tree, graphs = _snapshots(h0, steps)
    family_nodes = [v for v in range(tree.node_count) if tree.levels[v] <= 3]
    family = [(u, v) for i, u in enumerate(family_nodes) for v in family_nodes[i + 1:]]
    keys, values = [], []
    for step, g in enumerate(graphs):
        totals = cl.resistance_oracle(g).set_totals(np.array(family))
        for (u, v), total in zip(family, totals):
            keys.append((step, f"{u}-{v}", *cl.tree_pair_geometry(tree, u, v)[:3]))
            values.append(0.5 * float(total))
    return keys, values


def test_init_sizes_and_leaders():
    t4 = cl.init_growing_tree(4)
    assert t4.node_count == 31
    t5 = cl.init_growing_tree(5)
    assert t5.node_count == 63
    x, y = t5.leader_x, t5.leader_y
    assert t5.levels[x] == 2 and t5.levels[y] == 2
    # distinct root subtrees, so the pair spans the root at distance 4
    assert _ancestor_at_level(t5, x, 1) != _ancestor_at_level(t5, y, 1)
    assert cl.tree_pair_geometry(t5, x, y) == (2, 2, 4, 0)
    assert (x, y) == (3, 5)


def test_init_rejects_small_heights():
    with pytest.raises(HeightTooSmallError):
        cl.init_growing_tree(3)


def test_first_step_goes_under_left_subtree_of_first_leader():
    tree = cl.init_growing_tree(5)
    nid, parent = tree.grow_step()
    assert nid == 63
    assert tree.levels[nid] == 6
    left_subtree_root = tree.children[tree.leader_x][0]
    assert _ancestor_at_level(tree, parent, 3) == left_subtree_root


def test_leader_subtrees_stay_balanced():
    tree = cl.init_growing_tree(4)
    xl, xr = tree.children[tree.leader_x]
    yl, yr = tree.children[tree.leader_y]
    # nodes added so far under each level-3 node
    fill = dict.fromkeys(range(7, 15), 0)
    for _ in range(2 ** 5):
        fill[_ancestor_at_level(tree, tree.grow_step()[1], 3)] += 1
        assert abs(fill[xl] - fill[xr]) <= 1
        assert abs(fill[yl] - fill[yr]) <= 1


def test_leader_priority_order():
    tree = cl.init_growing_tree(4)
    x_slots = 2 ** 3  # level-5 capacity under each designated leader
    parents = [tree.grow_step()[1] for _ in range(2 ** 5)]
    x_anc = set(tree.children[tree.leader_x])
    y_anc = set(tree.children[tree.leader_y])
    owners = [_ancestor_at_level(tree, p, 3) for p in parents]
    assert all(o in x_anc for o in owners[:x_slots])
    assert all(o in y_anc for o in owners[x_slots:2 * x_slots])
    assert all(o not in (x_anc | y_anc) for o in owners[2 * x_slots:])


def _greedy_growth(h0, steps):
    """(id, parent) per step by the documented rule, searched afresh at
    every step with per-level counters: the emptier of leader x's two
    level-3 subtrees (ties to the lower one), then likewise under leader
    y, then any slot; within that, the lowest-numbered free parent."""
    tree = cl.init_growing_tree(h0)
    levels, parents = list(tree.levels), list(tree.parents)
    children = [list(c) for c in tree.children]
    roots = children[tree.leader_x] + children[tree.leader_y]
    height, out = h0, []
    while len(out) < steps:
        frontier = [p for p, level in enumerate(levels) if level == height]
        groups = []
        for p in frontier:
            while levels[p] > 3:
                p = parents[p]
            groups.append(roots.index(p) if p in roots else 4)
        capacity = [2 * groups.count(g) for g in range(5)]
        filled = [0] * 5
        for _ in range(min(2 * len(frontier), steps - len(out))):
            group = None
            for pair in ((0, 1), (2, 3)):
                open_groups = [g for g in pair if filled[g] < capacity[g]]
                if open_groups:
                    group = min(open_groups, key=lambda g: (filled[g], g))
                    break
            pos = next(i for i, p in enumerate(frontier)
                       if len(children[p]) < 2 and group in (None, groups[i]))
            parent, nid = frontier[pos], len(levels)
            levels.append(height + 1)
            parents.append(parent)
            children[parent].append(nid)
            children.append([])
            filled[groups[pos]] += 1
            out.append((nid, parent))
        height += 1
    return out


@pytest.mark.parametrize("h0", [4, 5, 6, 7])
def test_fill_order_follows_the_greedy_rule(h0):
    # two full levels, so the second level's order starts from grown nodes
    steps = 2 ** (h0 + 1) + 2 ** (h0 + 2)
    tree = cl.init_growing_tree(h0)
    assert [tree.grow_step() for _ in range(steps)] == _greedy_growth(h0, steps)
    assert tree.height == h0 + 2


def test_full_level_growth_reaches_next_perfect_tree():
    tree = cl.init_growing_tree(4)
    for _ in range(2 ** 5):
        tree.grow_step()
    assert tree.height == 5
    assert tree.node_count == 63
    g = tree.to_graph()
    assert g.edge_count == 62 and cl.is_connected(g)
    reference = cl.build_perfect_tree(2, 5)
    level_hist = [tree.levels.count(i) for i in range(6)]
    ref_hist = [reference.levels.count(i) for i in range(6)]
    assert level_hist == ref_hist
    degrees = sorted(len(tree.children[v]) + (v != 0) for v in range(63))
    ref_degrees = sorted(
        len(reference.children(v)) + (v != 0) for v in range(63))
    assert degrees == ref_degrees


def test_node_count_increases_by_one_per_step():
    tree = cl.init_growing_tree(4)
    before = tree.node_count
    for step in range(10):
        nid, parent = tree.grow_step()
        assert tree.node_count == before + step + 1
        assert tree.parents[nid] == parent
        assert nid in tree.children[parent]
        assert len(tree.children[parent]) <= 2


def test_trajectory_initial_value_matches_closed_form():
    result = cl.grow_trajectory(5, steps=0)
    designated = result.designated_values()
    assert designated[0] == pytest.approx(
        cl.tree_omega(2, 5, 2, 4) / 2.0, rel=1e-10)


def test_trajectory_family_and_minimum_small_run():
    # the designated pair is always a minimum of the comparison family, but
    # not a strict one: while its own subtrees fill, the untouched sibling
    # subtrees are interchangeable by an automorphism, so the twin pairs
    # ({3,6} early, {4,5} late) tie it exactly. Strictness holds only in
    # the middle phase where all four level-2 subtrees differ.
    result = cl.grow_trajectory(4, steps=32)
    per_step = {}
    for row in result.rows:
        per_step.setdefault(row.step, []).append(row)
    assert set(per_step) == set(range(33))
    assert all(len(rows) == 105 for rows in per_step.values())
    designated = result.designated_values()
    pid = f"{result.designated[0]}-{result.designated[1]}"
    for step, rows in per_step.items():
        others = min(r.value for r in rows if r.pair_id != pid)
        assert designated[step] <= others + 1e-9 * max(1.0, others)
        if 9 <= step <= 23:
            assert designated[step] < others - 1e-6


def test_trajectory_values_match_naive_oracle():
    result = cl.grow_trajectory(4, steps=2)
    tree = cl.init_growing_tree(4)
    graphs = {0: tree.to_graph()}
    for step in (1, 2):
        tree.grow_step()
        graphs[step] = tree.to_graph()
    for row in result.rows:
        if row.step not in graphs:
            continue
        u, v = (int(t) for t in row.pair_id.split("-"))
        assert row.value == pytest.approx(
            naive_nf_value(graphs[row.step], (u, v)), rel=1e-9)
        assert (row.d_xr, row.d_yr, row.d_xy) == cl.tree_pair_geometry(tree, u, v)[:3]


def test_trajectory_values_are_correctly_rounded():
    # each family value is the exact rational coherence, rounded once
    steps = (0, 1, 5)
    result = cl.grow_trajectory(4, steps=max(steps))
    _, graphs = _snapshots(4, max(steps))
    for step in steps:
        table = exact_table(graphs[step])
        rows = [r for r in result.rows if r.step == step]
        assert len(rows) == 105
        for row in rows:
            pair = tuple(int(t) for t in row.pair_id.split("-"))
            assert row.value == float(exact_total(table, pair) / 2), row


def test_trajectory_designated_values_are_the_closed_form():
    # the designated pair on a perfect tree, before and after a full level
    designated = cl.grow_trajectory(4).designated_values()
    assert designated[0] == 33.5 == cl.tree_omega(2, 4, 2, 4) / 2
    assert designated[32] == 95.5 == cl.tree_omega(2, 5, 2, 4) / 2


@pytest.mark.parametrize("h0", [4, 5, 6])
def test_trajectory_agrees_with_the_table_route(h0):
    # one full level of growth, against one resistance table per step
    steps = 2 ** (h0 + 1)
    result = cl.grow_trajectory(h0)
    keys, values = _table_route_rows(h0, steps)
    assert [(r.step, r.pair_id, r.d_xr, r.d_yr, r.d_xy) for r in result.rows] == keys
    np.testing.assert_allclose([r.value for r in result.rows], values, rtol=1e-12, atol=0)


def test_trajectory_global_rows():
    # the pair a row-major scan of the upper triangle of the pair totals
    # picks with a strict <, the first lexicographic minimum
    for h0 in (4, 5):
        result = cl.grow_trajectory(h0, steps=20, include_global=True)
        minima = {}
        for r in result.rows:
            minima[r.step] = min(r.value, minima.get(r.step, r.value))
        tree = cl.init_growing_tree(h0)
        assert [r.step for r in result.global_rows] == list(range(21))
        for row in result.global_rows:
            if row.step:
                tree.grow_step()
            totals = sweep_pair_totals(cl.resistance_oracle(tree.to_graph()))
            best = None
            for x in range(tree.node_count):
                for y in range(x + 1, tree.node_count):
                    if best is None or totals[x, y] < totals[best]:
                        best = (x, y)
            assert row.pair_id == f"{best[0]}-{best[1]}"
            geometry = cl.tree_pair_geometry(tree, *best)[:3]
            assert (row.d_xr, row.d_yr, row.d_xy) == geometry
            assert row.value == 0.5 * float(totals[best])
            assert row.value <= minima[row.step] + 1e-12


def test_global_rows_are_the_first_exact_minimisers():
    # against exact rational resistances at every step: the first minimising
    # pair in lexicographic order, and its correctly rounded value. A new
    # leaf hangs from one edge, so no resistance between older nodes moves:
    # each step's table is the leading block of the last step's
    steps = 20
    result = cl.grow_trajectory(4, steps=steps, include_global=True)
    tree, graphs = _snapshots(4, steps)
    table = exact_table(graphs[-1])
    assert all(r.denominator == 1 for row in table for r in row)
    R = np.array([[int(r) for r in row] for row in table], dtype=np.int64)
    assert [r.step for r in result.global_rows] == list(range(steps + 1))
    for step, row in enumerate(result.global_rows):
        n = graphs[step].node_count
        x, y = np.triu_indices(n, 1)
        r = R[x, y]
        # 4 r_xy sum_u r(u, {x, y}), summed node by node in integers, with
        # r(u, {x, y}) = r_ux - (r_ux + r_xy - r_uy)^2 / (4 r_xy)
        num = (4 * r * R[:n, x] - (R[:n, x] + r - R[:n, y]) ** 2).sum(axis=0)
        totals = [Fraction(int(a), 4 * int(b)) for a, b in zip(num, r)]
        least = min(totals)
        first = totals.index(least)
        assert row.pair_id == f"{x[first]}-{y[first]}"
        pair = (int(x[first]), int(y[first]))
        assert exact_total([t[:n] for t in table[:n]], pair) == least
        assert row.value == float(least / 2)
        assert (row.d_xr, row.d_yr, row.d_xy) == cl.tree_pair_geometry(tree, *pair)[:3]


@pytest.mark.parametrize("block", [40, 100])
def test_global_rows_do_not_depend_on_the_row_blocks(monkeypatch, block):
    # blocks of one to three rows, so tied pairs (steps 0-8) fall in
    # different blocks and the first block's must win
    expected = cl.grow_trajectory(4, steps=20, include_global=True).global_rows
    monkeypatch.setattr(treegrow, "_PAIR_BLOCK", block)
    assert cl.grow_trajectory(4, steps=20, include_global=True).global_rows == expected


@pytest.mark.parametrize("h0", [4, 5, 6])
def test_designated_values_are_the_designated_rows(h0):
    # the designated pair's column, against a scan of every row by pair id
    result = cl.grow_trajectory(h0)
    pid = f"{result.designated[0]}-{result.designated[1]}"
    scanned = {r.step: r.value for r in result.rows if r.pair_id == pid}
    assert result.designated_values() == scanned
    assert len(scanned) == 2 ** (h0 + 1) + 1


def test_rows_are_the_value_array():
    result = cl.grow_trajectory(4, steps=3)
    assert result.values.shape == (4, 105) and not result.values.flags.writeable
    assert len(result.labels) == 105
    expected = [(step, *label, value)
                for step, values in enumerate(result.values.tolist())
                for label, value in zip(result.labels, values)]
    assert result.rows == tuple(expected)
    assert all(type(row) is cl.treegrow.TrajectoryRow for row in result.rows)


@pytest.mark.parametrize("h0, steps, include_global", [
    (40, None, False),    # 2^42 nodes and 2^41 steps of 105 rows
    (40, 0, False),       # the perfect tree alone has 2^41 - 1 nodes
    (16, None, False),    # 131,073 steps of 105 rows: 13.8 M rows
    (12, 0, True),        # C(8191, 2) candidate pairs
])
def test_oversized_growth_is_refused_before_building(h0, steps, include_global):
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="exceed the budget"):
        cl.grow_trajectory(h0, steps=steps, include_global=include_global)
    assert time.perf_counter() - start < 1.0


def test_growth_is_refused_one_past_the_budget():
    # 95,237 steps of 105 rows are 9,999,990 rows, within the budget, and
    # one step more passes it; the global search's last tree within it has
    # 4472 nodes, C(4472, 2) = 9,997,156 pairs
    with pytest.raises(BudgetExceededError, match="10000095 trajectory rows"):
        cl.grow_trajectory(4, steps=95_238)
    with pytest.raises(BudgetExceededError, match="C\\(4473,2\\)"):
        cl.grow_trajectory(11, steps=4473 - 4095, include_global=True)


@pytest.mark.parametrize("h0, steps", [(4.5, 2), (4, 2.5), (4, True), (4.0, 1)])
def test_heights_and_steps_must_be_integers(h0, steps):
    # floats raised a bare TypeError, and steps=True ran one step
    with pytest.raises(BadParameterError, match="must be an integer"):
        cl.grow_trajectory(h0, steps=steps)


def test_numpy_integer_steps_are_accepted():
    assert cl.grow_trajectory(np.int64(4), steps=np.int64(1)) == cl.grow_trajectory(4, 1)
