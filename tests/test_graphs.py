import math

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab.errors import (
    BadParameterError,
    BadWeightError,
    DuplicateEdgeError,
    GraphSpecError,
    SelfLoopError,
    UnreachableNodeError,
)

from coherence_lab.electrical import grounded_laplacian
from coherence_lab.graphs import _dense, _grounded_entries

from conftest import dense_laplacian, random_connected_graph, stiff_graph


def test_build_graph_path():
    g = cl.build_graph([(0, 1, 1), (1, 2, 1)])
    assert g.node_count == 3
    assert g.edge_count == 2
    assert cl.is_connected(g)


def test_build_graph_rejects_duplicate_edge_in_either_orientation():
    with pytest.raises(DuplicateEdgeError):
        cl.build_graph([(0, 1, 1), (1, 0, 2)])
    with pytest.raises(DuplicateEdgeError):
        cl.build_graph([(0, 1, 1), (0, 1, 2)])


def test_build_graph_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        cl.build_graph([(0, 0, 1)])


@pytest.mark.parametrize("w", [0.0, -1.0, float("nan"), float("inf")])
def test_build_graph_rejects_bad_weights(w):
    with pytest.raises(BadWeightError):
        cl.build_graph([(0, 1, w)])


_VALID = [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)]


@pytest.mark.parametrize("bad, error, message", [
    ((3, 3, 1.0), SelfLoopError, "self-loop at node 3"),
    ((1, 4, 1.0), BadParameterError, "edge (1,4) outside node range [0,4)"),
    ((3, 0, float("nan")), BadWeightError, "edge (3,0) has non-positive weight nan"),
    ((3, 0, float("inf")), BadWeightError, "edge (3,0) has non-positive weight inf"),
    ((3, 0, 0.0), BadWeightError, "edge (3,0) has non-positive weight 0.0"),
    ((3, 0, -1.5), BadWeightError, "edge (3,0) has non-positive weight -1.5"),
    ((2, 1, 4.0), DuplicateEdgeError, "duplicate edge between 1 and 2"),
    ((1, 2, 4.0), DuplicateEdgeError, "duplicate edge between 1 and 2"),
])
def test_first_bad_edge_after_valid_ones_keeps_class_and_message(bad, error, message):
    # a later edge that is bad in another way must not be the one reported
    for later in ((0, 0, 1.0), (0, 9, 1.0), (0, 2, -1.0), (0, 1, 1.0)):
        with pytest.raises(error) as info:
            cl.Graph(4, _VALID + [bad, later])
        assert str(info.value) == message


def test_build_graph_rejects_negative_ids():
    with pytest.raises(BadParameterError):
        cl.build_graph([(-1, 2, 1.0)])


def test_build_graph_isolated_nodes_from_node_count():
    g = cl.build_graph([(0, 1, 1.0)], node_count=4)
    assert g.node_count == 4
    assert not cl.is_connected(g)


def test_laplacian_two_node_path():
    g = cl.build_path(2)
    assert np.array_equal(cl.laplacian(g), [[1, -1], [-1, 1]])


def test_laplacian_unit_triangle():
    L = cl.laplacian(cl.build_cycle(3))
    assert np.array_equal(np.diag(L), [2, 2, 2])
    off = L[~np.eye(3, dtype=bool)]
    assert np.array_equal(off, [-1] * 6)


def test_laplacian_weighted_edge():
    g = cl.build_graph([(0, 1, 2.0)])
    assert np.array_equal(cl.laplacian(g), [[2, -2], [-2, 2]])


def test_laplacian_rows_sum_to_zero_exactly(rng):
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 30)), extra_edges=5,
                                   weighted=False)
        L = cl.laplacian(g)
        assert np.all(L @ np.ones(g.node_count) == 0.0)


def test_grounded_builder_matches_independent_assembly(rng):
    for _ in range(20):
        g = stiff_graph(rng, n=int(rng.integers(5, 16)), chords=4)
        n = g.node_count
        L = dense_laplacian(g)
        assert np.array_equal(cl.laplacian(g), L)
        k = int(rng.integers(1, n + 1))
        S = sorted(rng.choice(n, size=k, replace=False).tolist())
        keep = [v for v in range(n) if v not in S]
        Lff, followers = grounded_laplacian(g, S)
        assert followers == keep
        assert np.array_equal(Lff, L[np.ix_(keep, keep)])
        L0, _ = grounded_laplacian(g, (0,))
        assert np.array_equal(L0, L[1:, 1:])
        kvec = 10.0 ** rng.uniform(-3.0, 3.0, size=len(S))
        nodes, diag, off = _grounded_entries(g, S, kvec)
        shifted = L.copy()
        shifted[S, S] += kvec
        assert nodes == list(range(n))
        assert np.array_equal(_dense(diag, off), shifted)
    # fractional weights in shuffled order and orientation: every degree is
    # summed in input order, like the loop below
    for _ in range(20):
        n = int(rng.integers(3, 30))
        g0 = random_connected_graph(rng, n, extra_edges=n)
        edges = [(v, u, w / 7.0) if rng.random() < 0.5 else (u, v, w / 7.0)
                 for u, v, w in g0.edges]
        edges = [edges[i] for i in rng.permutation(len(edges))]
        g = cl.build_graph(edges, node_count=n)
        L = np.zeros((n, n))
        for u, v, w in edges:
            L[u, u] += w
            L[v, v] += w
            L[u, v] = L[v, u] = -w
        assert np.array_equal(cl.laplacian(g), L)
        S = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        keep = [v for v in range(n) if v not in S]
        assert np.array_equal(grounded_laplacian(g, S)[0], L[np.ix_(keep, keep)])


def test_stiff_graph_clips_chords_to_free_pairs(rng):
    # more chords than free pairs used to loop forever
    triangle = stiff_graph(rng, n=3, chords=4)
    assert sorted((u, v) for u, v, _ in triangle.edges) == [(0, 1), (0, 2), (1, 2)]
    pair = stiff_graph(rng, n=2)
    assert [(u, v) for u, v, _ in pair.edges] == [(0, 1)]


def test_is_connected_cases():
    assert cl.is_connected(cl.build_path(3))
    assert not cl.is_connected(cl.build_graph([], node_count=2))
    assert cl.is_connected(cl.build_graph([], node_count=1))


def test_graph_distance_examples():
    assert cl.graph_distance(cl.build_path(3), 0, 2) == 2
    assert cl.graph_distance(cl.build_cycle(3), 0, 1) == 1
    weighted = cl.build_graph([(0, 1, 1.0), (1, 2, 3.0)])
    assert cl.graph_distance(weighted, 0, 2) == 4
    assert cl.graph_distance(weighted, 1, 1) == 0


def test_graph_distance_unreachable():
    g = cl.build_graph([(0, 1, 1.0)], node_count=3)
    with pytest.raises(UnreachableNodeError):
        cl.graph_distance(g, 0, 2)


def test_graph_distance_is_a_metric(rng):
    for _ in range(5):
        n = int(rng.integers(5, 50))
        g = random_connected_graph(rng, n, extra_edges=n // 2)
        nodes = rng.integers(0, n, size=(15, 3))
        for a, b, c in nodes:
            a, b, c = int(a), int(b), int(c)
            dab = cl.graph_distance(g, a, b)
            assert dab == pytest.approx(cl.graph_distance(g, b, a))
            assert dab <= cl.graph_distance(g, a, c) + cl.graph_distance(g, c, b) + 1e-12


def test_build_cycle_triangle_and_sizes():
    g = cl.build_cycle(3)
    assert g.node_count == 3 and g.edge_count == 3
    assert cl.build_cycle(8).edge_count == 8
    with pytest.raises(BadParameterError):
        cl.build_cycle(2)


def test_build_path_sizes():
    assert cl.build_path(5).edge_count == 4
    with pytest.raises(BadParameterError):
        cl.build_path(1)


def test_perfect_tree_node_counts():
    # geometric series: (M^(h+1) - 1) / (M - 1)
    assert cl.build_perfect_tree(2, 4).graph.node_count == 31
    assert cl.build_perfect_tree(3, 4).graph.node_count == 121
    assert cl.build_perfect_tree(3, 2).graph.node_count == 13
    with pytest.raises(BadParameterError):
        cl.build_perfect_tree(1, 3)
    with pytest.raises(BadParameterError):
        cl.build_perfect_tree(2, -1)


def test_perfect_tree_levels_and_parents():
    ptree = cl.build_perfect_tree(2, 3)
    assert ptree.levels[0] == 0 and ptree.parents[0] == -1
    hist = [ptree.levels.count(level) for level in range(4)]
    assert hist == [1, 2, 4, 8]
    for v in range(1, ptree.graph.node_count):
        p = ptree.parents[v]
        assert ptree.levels[v] == ptree.levels[p] + 1
        assert v in ptree.children(p)
    assert cl.is_connected(ptree.graph)
    assert cl.is_tree(ptree.graph)


def test_generated_families_are_connected():
    for g in (cl.build_cycle(9), cl.build_path(7), cl.build_perfect_tree(3, 3).graph):
        assert cl.is_connected(g)


def test_tree_distance_equals_unique_path_weight(rng):
    ptree = cl.build_perfect_tree(2, 4)
    for _ in range(20):
        u, v = rng.integers(0, 31, size=2)
        u, v = int(u), int(v)
        du, dv, lca_walk = ptree.levels[u], ptree.levels[v], 0
        a, b = u, v
        while ptree.levels[a] > ptree.levels[b]:
            a = ptree.parents[a]
        while ptree.levels[b] > ptree.levels[a]:
            b = ptree.parents[b]
        while a != b:
            a, b = ptree.parents[a], ptree.parents[b]
        expected = du + dv - 2 * ptree.levels[a]
        assert cl.graph_distance(ptree.graph, u, v) == expected


def test_edge_list_round_trip(rng):
    g = random_connected_graph(rng, 12, extra_edges=6)
    text = cl.write_edge_list(g)
    back = cl.parse_edge_list(text)
    assert back.node_count == g.node_count
    assert set(back.edges) == set(g.edges)


def test_edge_list_round_trip_keeps_trailing_isolated_nodes():
    g = cl.build_graph([(0, 1, 1.0)], node_count=5)
    back = cl.parse_edge_list(cl.write_edge_list(g))
    assert back.node_count == 5


def test_edge_list_parse_reports_line_numbers():
    with pytest.raises(GraphSpecError, match="line 3"):
        cl.parse_edge_list("# fine\n0 1 1.0\n0 1\n")


def test_edge_list_comments_and_whitespace():
    g = cl.parse_edge_list("# header\n 0 1 1.0  # inline\n\n1 2 0.5\n")
    assert g.edge_count == 2
    assert math.isclose(dict(((u, v), w) for u, v, w in g.edges)[(1, 2)], 0.5)


def test_json_round_trip(rng):
    g = random_connected_graph(rng, 9, extra_edges=3)
    back = cl.parse_graph_json(cl.write_graph_json(g))
    assert back.node_count == g.node_count
    assert set(back.edges) == set(g.edges)


def test_json_rejects_malformed_documents():
    with pytest.raises(GraphSpecError):
        cl.parse_graph_json("[1, 2, 3]")
    with pytest.raises(GraphSpecError):
        cl.parse_graph_json("{not json")


def test_read_graph_file_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        cl.read_graph_file(str(tmp_path / "missing.txt"))


def test_read_graph_file_sniffs_formats(tmp_path):
    g = cl.build_cycle(5)
    p1 = tmp_path / "g.txt"
    p1.write_text(cl.write_edge_list(g))
    p2 = tmp_path / "g.json"
    p2.write_text(cl.write_graph_json(g))
    assert cl.read_graph_file(str(p1)) == g
    assert cl.read_graph_file(str(p2)) == g
