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

from coherence_lab.graphs import _dense, _grounded_entries, graph_distance, laplacian

from conftest import dense_laplacian, random_connected_graph, stiff_graph


@pytest.mark.parametrize("call", [
    lambda: cl.build_cycle(5.5),
    lambda: cl.build_path(2.5),
    lambda: cl.build_perfect_tree(2, 3.5),
    lambda: cl.build_perfect_tree(2.0, 3),
    lambda: graph_distance(cl.build_path(3), 0.5, 1),
    lambda: graph_distance(cl.build_path(3), 0, True),
    lambda: cl.Graph(2.5, [(0, 1, 1.0)]),
    lambda: cl.Graph(True, []),
    lambda: cl.build_graph([(0, 1, 1.0)], 2.7),
], ids=["cycle", "path", "tree-height", "tree-branching", "distance", "distance-bool",
        "graph", "graph-bool", "build-graph"])
def test_sizes_and_ids_must_be_integers(call):
    # floats were truncated or raised a bare TypeError
    with pytest.raises(BadParameterError, match="must be an integer"):
        call()


def test_numpy_integer_sizes_are_accepted():
    assert cl.build_cycle(np.int64(5)) == cl.build_cycle(5)
    assert cl.build_graph([(0, 1, 1.0)], np.int32(3)).node_count == 3
    assert graph_distance(cl.build_path(3), np.int64(0), np.int16(2)) == 2.0
    numpy_ids = [(np.int64(0), np.int32(1), 1.0), (np.intp(1), 2, 0.5)]
    assert cl.build_graph(numpy_ids) == cl.build_graph([(0, 1, 1.0), (1, 2, 0.5)])
    assert cl.Graph(3, numpy_ids) == cl.Graph(3, [(0, 1, 1.0), (1, 2, 0.5)])


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


@pytest.mark.parametrize("w", [True, np.bool_(True), "2", "1_0", None, [1.0]],
                         ids=["bool", "numpy-bool", "string", "underscore", "none", "list"])
def test_weights_must_be_real_numbers(w):
    # float() reads True as 1.0 and "1_0" as 10.0; every entry point refuses
    # what the edge-list parser refuses
    calls = (lambda: cl.build_graph([(0, 1, 1.0), (1, 2, w)]),
             lambda: cl.Graph(3, [(0, 1, 1.0), (1, 2, w)]))
    for call in calls:
        with pytest.raises(BadWeightError) as info:
            call()
        assert str(info.value) == f"edge (1,2) has weight {w!r}, which is not a real number"


def test_weights_of_any_real_type_are_read_as_floats():
    g = cl.build_graph([(0, 1, 2), (1, 2, np.float32(0.5)), (2, 3, np.int64(3)),
                        (3, 4, np.float64(1.5))])
    assert [w for _, _, w in g.edges] == [2.0, 0.5, 3.0, 1.5]
    assert all(type(w) is float for _, _, w in g.edges)


@pytest.mark.parametrize("w", ["true", '"1_0"', '"2"', "null"])
def test_json_weights_must_be_real_numbers(w):
    with pytest.raises(BadWeightError, match="not a real number"):
        cl.parse_graph_json(f'{{"n": 3, "edges": [[0, 1, 1.0], [1, 2, {w}]]}}')


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
    ((0, 2.5, 1.0), BadParameterError, "edge (0,2.5) has a node id that is not an integer"),
    ((3, 0, "1"), BadWeightError, "edge (3,0) has weight '1', which is not a real number"),
    ((3, 0, True), BadWeightError, "edge (3,0) has weight True, which is not a real number"),
])
def test_first_bad_edge_after_valid_ones_keeps_class_and_message(bad, error, message):
    # a later edge that is bad in another way must not be the one reported
    for later in ((0, 0, 1.0), (0, 9, 1.0), (0, 2, -1.0), (0, 1, 1.0)):
        with pytest.raises(error) as info:
            cl.Graph(4, _VALID + [bad, later])
        assert str(info.value) == message


@pytest.mark.parametrize("call, error", [
    (lambda: cl.build_graph([(0, 1.7, 1.0)]), BadParameterError),
    (lambda: cl.build_graph([(0, 1, 1.0), (1.0, 2, 1.0)]), BadParameterError),
    (lambda: cl.build_graph([(0, True, 1.0)]), BadParameterError),
    (lambda: cl.build_graph([(0, "1", 1.0)]), BadParameterError),
    (lambda: cl.build_graph([(0, float("nan"), 1.0)]), BadParameterError),
    (lambda: cl.build_graph([(0, 1, 1.0), (np.float64(1.0), 2, 1.0)]), BadParameterError),
    (lambda: cl.Graph(3, [(0, 2.5, 1.0)]), BadParameterError),
    (lambda: cl.Graph(3, [(np.bool_(False), 1, 1.0)]), BadParameterError),
    (lambda: cl.parse_graph_json('{"n": 2.5, "edges": [[0, 1, 1.0]]}'), GraphSpecError),
    (lambda: cl.parse_graph_json('{"n": true, "edges": [[0, 1, 1.0]]}'), GraphSpecError),
    (lambda: cl.parse_graph_json('{"n": 3, "edges": [[0, 1.9, 1.0]]}'), GraphSpecError),
    (lambda: cl.parse_graph_json('{"n": 3, "edges": [[0, "1", 1.0]]}'), GraphSpecError),
    (lambda: cl.parse_graph_json('{"n": 3, "edges": [[false, 1, 1.0]]}'), GraphSpecError),
], ids=["build-float", "build-integral-float", "build-bool", "build-string", "build-nan",
        "build-numpy-float", "graph-float", "graph-numpy-bool", "json-n-float", "json-n-bool",
        "json-id-float", "json-id-string", "json-id-bool"])
def test_edge_ids_and_json_n_must_be_integers(call, error):
    # truncated, 1.7 would name node 1; a bool would name node 0 or 1
    with pytest.raises(error, match="must be an integer|not an integer|must be integers"):
        call()


def test_build_graph_rejects_negative_ids():
    with pytest.raises(BadParameterError):
        cl.build_graph([(-1, 2, 1.0)])


def test_build_graph_isolated_nodes_from_node_count():
    g = cl.build_graph([(0, 1, 1.0)], node_count=4)
    assert g.node_count == 4
    assert not cl.is_connected(g)


def test_laplacian_two_node_path():
    g = cl.build_path(2)
    assert np.array_equal(laplacian(g), [[1, -1], [-1, 1]])


def test_laplacian_unit_triangle():
    L = laplacian(cl.build_cycle(3))
    assert np.array_equal(np.diag(L), [2, 2, 2])
    off = L[~np.eye(3, dtype=bool)]
    assert np.array_equal(off, [-1] * 6)


def test_laplacian_weighted_edge():
    g = cl.build_graph([(0, 1, 2.0)])
    assert np.array_equal(laplacian(g), [[2, -2], [-2, 2]])


def test_laplacian_rows_sum_to_zero_exactly(rng):
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 30)), extra_edges=5,
                                   weighted=False)
        L = laplacian(g)
        assert np.all(L @ np.ones(g.node_count) == 0.0)


def test_grounded_builder_matches_independent_assembly(rng):
    for _ in range(20):
        g = stiff_graph(rng, n=int(rng.integers(5, 16)), chords=4)
        n = g.node_count
        L = dense_laplacian(g)
        assert np.array_equal(laplacian(g), L)
        k = int(rng.integers(1, n + 1))
        S = sorted(rng.choice(n, size=k, replace=False).tolist())
        keep = [v for v in range(n) if v not in S]
        followers, diag, off = _grounded_entries(g, S)
        assert followers == keep
        assert np.array_equal(_dense(diag, off), L[np.ix_(keep, keep)])
        nodes, diag, off = _grounded_entries(g, (0,))
        assert nodes == list(range(1, n))
        assert np.array_equal(_dense(diag, off), L[1:, 1:])
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
        assert np.array_equal(laplacian(g), L)
        S = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        keep = [v for v in range(n) if v not in S]
        assert np.array_equal(_dense(*_grounded_entries(g, S)[1:]), L[np.ix_(keep, keep)])


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
    assert graph_distance(cl.build_path(3), 0, 2) == 2
    assert graph_distance(cl.build_cycle(3), 0, 1) == 1
    weighted = cl.build_graph([(0, 1, 1.0), (1, 2, 3.0)])
    assert graph_distance(weighted, 0, 2) == 4
    assert graph_distance(weighted, 1, 1) == 0


def test_graph_distance_unreachable():
    g = cl.build_graph([(0, 1, 1.0)], node_count=3)
    with pytest.raises(UnreachableNodeError):
        graph_distance(g, 0, 2)


def test_graph_distance_is_a_metric(rng):
    for _ in range(5):
        n = int(rng.integers(5, 50))
        g = random_connected_graph(rng, n, extra_edges=n // 2)
        nodes = rng.integers(0, n, size=(15, 3))
        for a, b, c in nodes:
            a, b, c = int(a), int(b), int(c)
            dab = graph_distance(g, a, b)
            assert dab == pytest.approx(graph_distance(g, b, a))
            assert dab <= graph_distance(g, a, c) + graph_distance(g, c, b) + 1e-12


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
    assert ptree.graph.edge_count == ptree.graph.node_count - 1


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
        assert graph_distance(ptree.graph, u, v) == expected


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


@pytest.mark.parametrize("text", [
    "0 1 1.0\n0 1_0 1.0\n",
    "0 1 1.0\n0 \u0661 1.0\n",
    "0 1 1.0\n-1 2 1.0\n",
    "0 1 1.0\n+1 2 1.0\n",
    "0 1 1.0\n1 2 1_0\n",
    "0 1 1.0\n1 2 inf\n",
    "0 1 1.0\n1 2 nan\n",
    "0 1 1.0\n1 2 0x1p0\n",
], ids=["id-underscore", "id-arabic-indic", "id-minus", "id-plus", "weight-underscore",
        "weight-inf", "weight-nan", "weight-hex"])
def test_edge_list_reads_ids_and_weights_as_json_numbers(text):
    # int() and float() read all of these; JSON reads none of them
    with pytest.raises(GraphSpecError, match="line 2"):
        cl.parse_edge_list(text)


def test_edge_list_accepts_decimal_and_exponent_weights():
    g = cl.parse_edge_list("0 1 2\n1 2 .5\n2 3 3.\n3 4 +1.5e-3\n4 5 2E+1\n")
    assert [w for _, _, w in g.edges] == [2.0, 0.5, 3.0, 1.5e-3, 20.0]
    with pytest.raises(BadWeightError):
        cl.parse_edge_list("0 1 -2E+1\n")
    # the header's digits are ASCII too; another script's is a comment
    assert cl.parse_edge_list("# n=\u0661\u0660\n0 1 1.0\n").node_count == 2


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
