import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab.errors import BadParameterError, HeightTooSmallError

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
    for _ in range(2 ** 5):
        tree.grow_step()
        assert abs(tree.subtree_leaf_fill(xl) - tree.subtree_leaf_fill(xr)) <= 1
        assert abs(tree.subtree_leaf_fill(yl) - tree.subtree_leaf_fill(yr)) <= 1


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


def test_full_level_growth_reaches_next_perfect_tree():
    tree = cl.init_growing_tree(4)
    for _ in range(2 ** 5):
        tree.grow_step()
    assert tree.height == 5
    assert tree.node_count == 63
    g = tree.to_graph()
    assert cl.is_tree(g)
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
        minima = result.minima_by_step()
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


@pytest.mark.parametrize("h0, steps", [(4.5, 2), (4, 2.5), (4, True), (4.0, 1)])
def test_heights_and_steps_must_be_integers(h0, steps):
    # floats raised a bare TypeError, and steps=True ran one step
    with pytest.raises(BadParameterError, match="must be an integer"):
        cl.grow_trajectory(h0, steps=steps)


def test_numpy_integer_steps_are_accepted():
    assert cl.grow_trajectory(np.int64(4), steps=np.int64(1)) == cl.grow_trajectory(4, 1)
