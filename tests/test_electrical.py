import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dpotri

import coherence_lab as cl
from coherence_lab import electrical, selection
from coherence_lab.errors import (
    BadKappaError,
    BadParameterError,
    BadWeightError,
    BudgetExceededError,
    DisconnectedGraphError,
    EmptyLeaderSetError,
    LeaderQueriedError,
    SameNodeError,
    SolverError,
)
from coherence_lab.graphs import _dense, _grounded_entries, graph_distance, rooted_forest

from conftest import (
    assert_exact,
    dense_laplacian,
    exact_table,
    naive_resistance,
    naive_resistance_table,
    naive_resistance_to_set,
    random_connected_graph,
    random_tree,
    route,
    route_counter,
    stiff_graph,
)


def test_resistance_single_resistor():
    assert cl.resistance(cl.build_path(2), 0, 1) == pytest.approx(1.0)


def test_resistance_unit_triangle():
    g = cl.build_cycle(3)
    for i, j in ((0, 1), (1, 2), (0, 2)):
        assert cl.resistance(g, i, j) == pytest.approx(2.0 / 3.0)


def test_resistance_series_path():
    assert cl.resistance(cl.build_path(3), 0, 2) == pytest.approx(2.0)


def test_resistance_errors():
    g = cl.build_path(3)
    with pytest.raises(SameNodeError):
        cl.resistance(g, 1, 1)
    with pytest.raises(DisconnectedGraphError):
        cl.resistance(cl.build_graph([(0, 1, 1.0)], node_count=3), 0, 1)


def test_resistance_matches_pseudoinverse_oracle(rng):
    for _ in range(12):
        n = int(rng.integers(4, 15))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)))
        R = naive_resistance_table(g)
        for _ in range(6):
            i, j = rng.choice(n, size=2, replace=False)
            assert cl.resistance(g, int(i), int(j)) == pytest.approx(
                R[i, j], abs=1e-10)


def test_resistance_to_set_interior_of_path():
    # leaders at both ends of a 4-path, queried one step in: 1 in parallel
    # with 2 gives 1 - 1/3
    g = cl.build_path(4)
    assert cl.resistance_to_set(g, 1, (0, 3)) == pytest.approx(2.0 / 3.0)


def test_resistance_to_set_adjacent_leaf():
    g = cl.build_graph([(0, 1, 2.0), (1, 2, 1.0)])
    assert cl.resistance_to_set(g, 0, (1,)) == pytest.approx(0.5)


def test_resistance_to_set_square_cycle():
    assert cl.resistance_to_set(cl.build_cycle(4), 1, (0, 2)) == pytest.approx(0.5)


def test_resistance_to_set_errors():
    g = cl.build_cycle(4)
    with pytest.raises(LeaderQueriedError):
        cl.resistance_to_set(g, 0, (0, 2))
    with pytest.raises(EmptyLeaderSetError):
        cl.resistance_to_set(g, 1, ())


@pytest.mark.parametrize("call", [
    lambda g: cl.coherence_nf(g, [1.7]),
    lambda g: cl.coherence_nf(g, [True]),
    lambda g: cl.coherence_nf(g, [2, np.float64(3.0)], method="resistance"),
    lambda g: cl.coherence_nc(g, [0, 2.5], kappa=[1.0, 2.0]),
    lambda g: cl.coherence_nc(g, ["1"], method="resistance"),
    lambda g: cl.resistance(g, 0.5, 3),
    lambda g: cl.resistance_to_set(g, 1, (3.0,)),
    lambda g: cl.resistance_oracle(g).resistance(0.9, 3),
    lambda g: cl.edge_addition_update(cl.resistance_oracle(g), 0, 2, 1.0, False, 3),
], ids=["nf-float", "nf-bool", "nf-numpy-float", "nc-kappa-list-float", "nc-str",
        "pair-float", "to-set-float", "oracle-float", "edge-update-bool"])
def test_non_integer_node_ids_are_rejected(call):
    with pytest.raises(BadParameterError, match="integer"):
        call(cl.build_cycle(6))


def test_numpy_integer_node_ids_are_accepted():
    g = cl.build_cycle(6)
    assert cl.coherence_nf(g, np.array([1, 4])).value == cl.coherence_nf(g, (1, 4)).value
    assert cl.resistance(g, np.int32(0), np.int64(3)) == cl.resistance(g, 0, 3)


def test_resistance_to_set_singleton_equals_pairwise(rng):
    for _ in range(8):
        n = int(rng.integers(4, 12))
        g = random_connected_graph(rng, n, extra_edges=2)
        i, s = rng.choice(n, size=2, replace=False)
        assert cl.resistance_to_set(g, int(i), (int(s),)) == pytest.approx(
            cl.resistance(g, int(i), int(s)), abs=1e-12)


def test_resistance_to_set_matches_naive_grounded_inverse(rng):
    for _ in range(10):
        n = int(rng.integers(6, 20))
        g = random_connected_graph(rng, n, extra_edges=4)
        k = int(rng.integers(1, 6))
        S = tuple(int(v) for v in rng.choice(n, size=k, replace=False))
        others = [v for v in range(n) if v not in S]
        i = int(rng.choice(others))
        assert cl.resistance_to_set(g, i, S) == pytest.approx(
            naive_resistance_to_set(g, i, S), abs=1e-10)


def test_oracle_small_examples():
    tri = cl.resistance_oracle(cl.build_cycle(3))
    for i in range(3):
        for j in range(3):
            expected = 0.0 if i == j else 2.0 / 3.0
            assert tri.table[i, j] == pytest.approx(expected)
    path = cl.resistance_oracle(cl.build_path(4))
    assert path.resistance(0, 3) == pytest.approx(3.0)


def test_oracle_matches_per_pair_resistance(rng):
    g = random_connected_graph(rng, 12, extra_edges=6)
    oracle = cl.resistance_oracle(g)
    for i in range(12):
        for j in range(i + 1, 12):
            assert oracle.table[i, j] == pytest.approx(
                cl.resistance(g, i, j), abs=1e-10)


def test_oracle_requires_connectivity():
    with pytest.raises(DisconnectedGraphError):
        cl.resistance_oracle(cl.build_graph([(0, 1, 1.0)], node_count=3))


def test_resistance_table_is_a_metric(rng):
    for _ in range(5):
        n = int(rng.integers(4, 20))
        g = random_connected_graph(rng, n, extra_edges=5)
        R = cl.resistance_oracle(g).table
        assert np.allclose(R, R.T, atol=1e-14)
        assert np.all(np.diagonal(R) == 0.0)
        for _ in range(20):
            i, j, k = (int(v) for v in rng.integers(0, n, size=3))
            assert R[i, j] <= R[i, k] + R[k, j] + 1e-12


def test_resistance_below_graph_distance_strict_on_cycles(rng):
    for n in (3, 5, 8):
        g = cl.build_cycle(n)
        oracle = cl.resistance_oracle(g)
        for i in range(n):
            for j in range(i + 1, n):
                assert oracle.table[i, j] < graph_distance(g, i, j)


def test_resistance_equals_graph_distance_on_trees(rng):
    # unique-path equality; stated for the unit-weight metric, where path
    # length and series resistance coincide
    for _ in range(6):
        g = random_tree(rng, int(rng.integers(4, 25)), weighted=False)
        oracle = cl.resistance_oracle(g)
        for _ in range(10):
            i, j = rng.choice(g.node_count, size=2, replace=False)
            assert oracle.table[i, j] == pytest.approx(
                graph_distance(g, int(i), int(j)), rel=1e-10)


def test_cut_vertex_additivity(rng):
    # two random components glued at one vertex: resistance through the
    # joint decomposes additively
    for _ in range(6):
        na, nb = int(rng.integers(4, 15)), int(rng.integers(4, 16))
        ga = random_connected_graph(rng, na, extra_edges=3)
        gb = random_connected_graph(rng, nb, extra_edges=3)
        cut = na - 1
        edges = list(ga.edges)
        for u, v, w in gb.edges:
            def shift(x):
                return cut if x == 0 else na + x - 1
            edges.append((shift(u), shift(v), w))
        g = cl.build_graph(edges, node_count=na + nb - 1)
        assert cl.is_connected(g)
        u = int(rng.integers(0, na - 1))
        size_b = int(rng.integers(1, 4))
        S = tuple(int(na + x - 1) for x in rng.choice(
            np.arange(1, nb), size=size_b, replace=False))
        lhs = cl.resistance_to_set(g, u, S)
        rhs = cl.resistance(g, u, cut) + cl.resistance_to_set(g, cut, S)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_redundant_far_leader_is_exactly_invisible():
    # on a path every route from i to the far leader crosses a nearer one,
    # so adding it cannot change the resistance at all
    g = cl.build_path(17)
    for (a, i, b, c) in ((2, 5, 9, 14), (0, 1, 3, 16), (3, 8, 12, 13)):
        assert cl.resistance_to_set(g, i, (a, b, c)) == cl.resistance_to_set(g, i, (a, b))


def _assert_matches_pseudoinverse(g):
    R = cl.resistance_oracle(g).table
    expected = naive_resistance_table(g)
    assert np.array_equal(R, R.T)
    assert np.all(np.diagonal(R) == 0.0)
    np.testing.assert_allclose(R, expected, rtol=1e-9, atol=1e-12 * expected.max())


def _assert_matches_exact(R, g):
    """Every entry of the table R within 1e-9 relative of the exact one: on
    stiff graphs the pseudoinverse is less accurate than the tables."""
    for row, exact_row in zip(R.tolist(), exact_table(g)):
        for value, r in zip(row, exact_row):
            assert_exact(value, r)


@pytest.mark.parametrize("family", ["stiff", "tree", "cycle", "tiny"])
def test_oracle_matches_pseudoinverse_table(rng, family):
    if family == "stiff":
        graphs = [stiff_graph(rng, n, chords=n) for n in (4, 12, 30)]
    elif family == "tree":
        graphs = [random_tree(rng, n) for n in (4, 17, 40)]
    elif family == "cycle":
        graphs = [cl.build_cycle(n) for n in (3, 8, 25)]
    else:
        graphs = [cl.build_graph([], node_count=1), cl.build_path(2),
                  cl.build_path(3), cl.build_cycle(3)]
    for g in graphs:
        _assert_matches_pseudoinverse(g)
        if family == "stiff" and g.node_count <= 10:
            _assert_matches_exact(cl.resistance_oracle(g).table, g)


def test_oracle_row_blocks_change_no_bit(rng, monkeypatch):
    g = stiff_graph(rng, 23, 12)
    whole = cl.resistance_oracle(g).table
    # 4-row blocks of the 22 grounded rows: the last block is ragged (2 rows)
    monkeypatch.setattr(electrical, "_BLOCK_FLOATS", 4 * 22)
    assert np.array_equal(cl.resistance_oracle(g).table, whole)
    _assert_matches_pseudoinverse(g)


def test_oracle_residual_check_runs(rng, monkeypatch):
    g = random_connected_graph(rng, 15, extra_edges=6)
    cl.resistance_oracle(g)
    monkeypatch.setattr(electrical, "SOLVE_TOLERANCE", 0.0)
    with pytest.raises(SolverError, match="residual"):
        cl.resistance_oracle(g)


def test_resistance_checks_its_residual(rng, monkeypatch):
    # a tree takes forest elimination, a graph with chords the dense kernel
    graphs = [random_tree(rng, 12), random_connected_graph(rng, 12, extra_edges=8)]
    monkeypatch.setattr(electrical, "SOLVE_TOLERANCE", 0.0)
    for g in graphs:
        with pytest.raises(SolverError, match="residual"):
            cl.resistance(g, 0, 11)
        with pytest.raises(SolverError, match="residual"):
            cl.resistance_to_set(g, 1, (0, 5, 11))


def test_trace_and_leader_free_check_their_residual(rng, monkeypatch):
    # neither passes a column, so only the residual of A^-1 1 is checked;
    # a tree takes forest elimination, a graph with chords the dense kernel
    graphs = [random_tree(rng, 12), random_connected_graph(rng, 12, extra_edges=8)]
    monkeypatch.setattr(electrical, "SOLVE_TOLERANCE", 0.0)
    for g in graphs:
        with pytest.raises(SolverError, match="residual"):
            cl.coherence_nf(g, (0, 5), method="trace")
        with pytest.raises(SolverError, match="residual"):
            cl.leader_free_coherence(g)


def test_oracle_factor_failure_is_a_solver_error():
    # 1 + 1e200 rounds to 1e200, so the grounded matrix of this graph with
    # more edges than nodes is singular in floating point, and LAPACK's
    # factorization stops at its second pivot
    g = cl.build_graph([(0, 1, 1.0), (1, 2, 1e200), (2, 3, 1.0), (3, 0, 1.0),
                        (0, 2, 1.0)])
    with pytest.raises(SolverError, match="positive definite"):
        cl.resistance_oracle(g)


def _off(triples):
    """(u, v, value) triples as the ``(rows, cols, values)`` entries that
    ``electrical.grounded_solve`` takes."""
    uvc = np.array(triples, dtype=np.float64).reshape(-1, 3)
    return uvc[:, 0].astype(np.intp), uvc[:, 1].astype(np.intp), uvc[:, 2]


def _forest_diagonal(diag, triples):
    return electrical.grounded_solve(diag, _off(triples))[0]


def _stiff_path(w):
    return cl.build_graph([(0, 1, 1.0), (1, 2, w)])


@pytest.mark.parametrize("w", [1e12, 1e17, 1e100, 1e300])
def test_ill_conditioned_systems_raise(w):
    # the exact r(0, 1) is 1; before the condition guard the table gave
    # 0.03125 at w = 1e17, 5.1e-85 at 1e100 and 6.7e-285 at 1e300
    g = _stiff_path(w)
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.resistance_oracle(g)
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.resistance(g, 0, 1)
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.resistance_to_set(g, 0, (2,))
    # a ring pinned off the ring keeps its cycle: the dense trace route
    ring = [(0, 1, 1.0), (1, 2, w), (2, 3, 1.0), (3, 0, 1.0)]
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.coherence_nf(cl.build_graph(ring + [(0, 4, 1.0)]), (4,), method="trace")
    # the path itself, and the ring pinned on the ring, which leaves a
    # path, take forest elimination; from w = 1e17 on, 1 + w rounds to w
    # at assembly and the elimination stops at a zero pivot before the
    # condition bound is formed, which it reports as ill-conditioning too
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.coherence_nf(cl.build_graph(ring), (0,), method="trace")
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.coherence_nf(g, (0,), method="resistance")
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.coherence_nf(g, (0,), method="trace")
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.coherence_nc(g, (0,), kappa=1.0, method="trace")


def _weak_tree(w):
    return cl.build_graph([(0, 1, 0.1), (1, 2, w)])


def _weak_tree_values(w):
    """Exact coherence of the path 0-1-2 with weights (0.1, w) and leader
    0: noise-free (10 + (10 + 1/w)) / 2, noise-corrupted with kappa = 1
    (1 + 11 + (11 + 1/w)) / 2."""
    return 10.0 + 0.5 / w, 11.5 + 0.5 / w


@pytest.mark.parametrize("w", [3.14159e9, 3.14159e12, 3.14159e14])
def test_forest_elimination_raises_on_stiff_trees(w):
    # without the guard the trace route missed the exact noise-free value
    # by 9.5e-7, 9.8e-4 and 0.20
    g = _weak_tree(w)
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.coherence_nf(g, (0,), method="trace")
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.coherence_nc(g, (0,), kappa=1.0, method="trace")
    # the resistance route refuses the same graph
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.coherence_nf(g, (0,), method="resistance")


def test_forest_guard_bound_is_the_exact_norm_product(rng, monkeypatch):
    # the bound is eps ||A||_1 ||A^-1||_1 exactly, so a limit a hair on
    # either side of the dense product decides it
    n = 25
    g = random_tree(rng, n)
    A = dense_laplacian(g) + np.diag(rng.uniform(0.1, 1.0, n))
    edges = [(u, v, -w) for u, v, w in g.edges]
    scale = electrical._EPS * np.linalg.norm(A, 1) * np.linalg.norm(np.linalg.inv(A), 1)
    monkeypatch.setattr(electrical, "_CONDITION_LIMIT", scale * (1 + 1e-9))
    _forest_diagonal(np.diag(A).copy(), edges)
    monkeypatch.setattr(electrical, "_CONDITION_LIMIT", scale * (1 - 1e-9))
    with pytest.raises(SolverError, match="ill-conditioned"):
        _forest_diagonal(np.diag(A).copy(), edges)


def test_forest_guard_spares_moderate_spreads():
    # eps ||A||_1 ||A^-1||_1 ~ 2.8e-8 here; the error stays within it
    w = 3.14159e6
    g = _weak_tree(w)
    nf, nc = _weak_tree_values(w)
    for method in ("trace", "resistance"):
        assert cl.coherence_nf(g, (0,), method=method).value == pytest.approx(nf, rel=3e-8)
        assert cl.coherence_nc(g, (0,), kappa=1.0, method=method).value == \
            pytest.approx(nc, rel=3e-8)


def test_condition_guard_runs_and_spares_moderate_spreads(rng, monkeypatch):
    # weights (1, 1e8) give a condition scale ~ 9e-8, inside the limit
    assert cl.resistance_oracle(_stiff_path(1e8)).table[0, 1] == pytest.approx(1.0)
    g = stiff_graph(rng, 20, chords=10)
    cl.resistance_oracle(g)
    cl.coherence_nf(g, (0,), method="trace")
    monkeypatch.setattr(electrical, "_CONDITION_LIMIT", 1e-30)
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.resistance_oracle(g)
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.coherence_nf(g, (0,), method="trace")


def test_oracle_table_is_read_only():
    g = cl.build_cycle(5)
    with pytest.raises(ValueError):
        cl.resistance_oracle(g).table[0, 1] = 1.0
    mine = np.ones((5, 5))
    oracle = cl.ResistanceOracle(g, mine)
    with pytest.raises(ValueError):
        oracle.table[0, 1] = 2.0
    mine[0, 1] = 2.0  # the caller's own array stays writable


def test_table_budget_guard(monkeypatch):
    g = cl.build_cycle(10)
    tree = cl.build_perfect_tree(2, 3).graph
    dense = cl.build_graph([(u, v, 1.0) for v in range(16) for u in range(v)])
    single = [cl.brute_force_select(h, 1) for h in (g, tree)]
    # two n x n float arrays at n = 10 are 1600 bytes
    monkeypatch.setattr(electrical, "_TABLE_BUDGET", 1599)
    with pytest.raises(BudgetExceededError, match="budget"):
        cl.resistance_oracle(g)
    with pytest.raises(BudgetExceededError):
        cl.brute_force_select(g, 2)
    # k = 1 forms no table, and grounding node 0 leaves the cycle a path
    # and the 15-node tree a forest, which hold no n x n array
    for h, expected in zip((g, tree), single):
        result = cl.brute_force_select(h, 1)
        assert result.value == expected.value
        assert result.optimal_sets == expected.optimal_sets
    # the resistance route of coherence forms no table and grounds node 0,
    # so the budget does not bind it
    assert cl.coherence_nf(g, (0,), method="resistance").value == \
        pytest.approx(cl.coherence_nf(g, (0,)).value, rel=1e-12)
    cl.resistance_oracle(cl.build_cycle(9))
    # a dense grounded solve holds one n x n array: K_16 grounded at one
    # node holds 1800 bytes, and every solve of it is refused before the
    # matrix is assembled
    monkeypatch.setattr(electrical, "_dense", None)
    for method in ("trace", "resistance"):
        with pytest.raises(BudgetExceededError, match="budget"):
            cl.coherence_nf(dense, (0,), method=method)
    with pytest.raises(BudgetExceededError, match="budget"):
        cl.leader_free_coherence(dense)
    with pytest.raises(BudgetExceededError, match="budget"):
        cl.brute_force_select(dense, 1)


def test_table_build_and_pair_sweep_peak_memory():
    # the build holds the table and the grounded inverse, each only one row
    # block besides. The k = 2 search holds the table, its Gram matrix, two
    # row blocks (scratch and rounding bound, 0.2 tables each at n = 400)
    # and numpy's ufunc buffers (~0.1): 2.58 measured, gate 2.75. The k = 3
    # search holds the table, one Gram matrix, one block of grounded rows
    # (0.8 tables at n = 200) and some 16 vectors of the sets scored
    # together (1.6 tables): 5.09 measured, gate 5.5; an array of all
    # C(200, 3) values alone would be 66 tables. A 600-node graph with 300
    # chords takes the peeled table, which factors its core in the table's
    # own buffer: 2.30 measured at build and in the search, same gates
    peeled = random_connected_graph(np.random.default_rng(2033), 600, extra_edges=300)
    for g in (cl.build_cycle(400), peeled):
        table_bytes = 8 * g.node_count ** 2
        tracemalloc.start()
        try:
            cl.resistance_oracle(g)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            cl.brute_force_select(g, 2)
            select_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build_peak <= 2.5 * table_bytes
        assert select_peak <= 2.75 * table_bytes
    tracemalloc.start()
    try:
        cl.brute_force_select(cl.build_cycle(200), 3)
        triple_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert triple_peak <= 5.5 * 8 * 200 * 200


def test_trace_route_peak_memory():
    # the trace route factors and inverts its grounded matrix in place
    g = cl.build_cycle(400)
    matrix_bytes = 8 * 400 * 400
    tracemalloc.start()
    try:
        cl.coherence_nf(g, (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * matrix_bytes


def test_table_is_bitwise_the_naive_formation_of_the_same_inverse(rng):
    # graphs with more edges than nodes; trees and cycles take the path-sum
    # route, checked exactly by the unit-weight tests below
    graphs = [random_connected_graph(rng, 90, extra_edges=120), stiff_graph(rng, 60, 40)]
    for g in graphs:
        n = g.node_count
        L0 = _dense(*_grounded_entries(g, (0,))[1:])
        c, info = dpotrf(np.asfortranarray(L0), lower=1)
        assert info == 0
        inv, info = dpotri(c, lower=1)
        assert info == 0
        P = np.zeros((n, n))
        P[1:, 1:] = np.tril(inv) + np.tril(inv, -1).T
        d = np.diag(P)
        assert np.array_equal(cl.resistance_oracle(g).table, (d[:, None] + d) - 2.0 * P)


def _factored_table(g):
    """The LAPACK build, which every graph with more edges than nodes takes."""
    _, diag, off = _grounded_entries(g, (0,))
    return electrical._factored_table(g, diag, off, electrical._edge_ends(off))


def _relabelled(rng, g):
    perm = rng.permutation(g.node_count)
    edges = [(int(perm[u]), int(perm[v]), w) for u, v, w in g.edges]
    return cl.build_graph([edges[i] for i in rng.permutation(len(edges))],
                          node_count=g.node_count), perm


def test_unit_trees_and_paths_equal_graph_distance_exactly(rng):
    graphs = [cl.build_path(2), cl.build_path(30), cl.build_perfect_tree(2, 4).graph,
              cl.build_perfect_tree(3, 3).graph]
    graphs += [_relabelled(rng, g)[0] for g in graphs[1:]]
    graphs += [random_tree(rng, n, weighted=False) for n in (3, 17, 40)]
    for g in graphs:
        n = g.node_count
        distance = [[graph_distance(g, u, v) for v in range(n)] for u in range(n)]
        assert np.array_equal(cl.resistance_oracle(g).table, np.array(distance))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 25, 99, 400])
def test_unit_cycles_equal_the_closed_form(rng, n):
    # r = d (n - d) / n at cycle distance d. Next to the left-out edge the
    # rank-one update cancels most of a path sum of about n, so the bound
    # is 4 ulp of the largest entry rather than of each entry
    i = np.arange(n)
    d = np.minimum(np.abs(i[:, None] - i), n - np.abs(i[:, None] - i))
    exact = d * (n - d) / n
    plain = cl.build_cycle(n)
    shuffled, perm = _relabelled(rng, plain)
    moved = np.empty((n, n))
    moved[np.ix_(perm, perm)] = exact
    for g, expected in ((plain, exact), (shuffled, moved)):
        R = cl.resistance_oracle(g).table
        assert np.array_equal(R, R.T)
        assert np.all(np.diagonal(R) == 0.0)
        assert np.abs(R - expected).max() <= 4 * np.spacing(exact.max())


@pytest.mark.parametrize("chords", [0, 1])
def test_one_cycle_tables_match_pseudoinverse_and_factored_build(rng, chords):
    # weights over 10^+-3, on which the factored build and the pseudoinverse
    # are themselves off by up to ~1e-10 (the condition scale) at n = 30
    for n in (2, 3, 9, 30):
        g = stiff_graph(rng, n, chords)
        assert g.edge_count == n - 1 + (chords if n > 2 else 0)
        _assert_matches_pseudoinverse(g)
        R, factored = cl.resistance_oracle(g).table, _factored_table(g)
        assert np.abs(R - factored).max() <= 1e-9 * factored.max()
        if n <= 10:
            _assert_matches_exact(R, g)
            _assert_matches_exact(factored, g)


def test_cycle_closed_by_its_heaviest_edge(rng):
    # the edge a spanning tree of the cycle leaves out weighs 1e3, the others
    # 10^-3 .. 10^3: the route leaves out the lightest edge instead, since
    # the update's cancellation with the heavy one fails Foster's check on
    # about a third of these small cycles
    for n in (3, 4, 5):
        plain = cl.build_cycle(n)
        left_out, = set(range(n)) - set(rooted_forest(n, plain._uv)[2])
        for _ in range(20):
            weights = 10.0 ** rng.uniform(-3.0, 3.0, n)
            weights[left_out] = 1e3
            edges = [(u, v, float(w)) for (u, v, _), w in zip(plain.edges, weights)]
            _assert_matches_pseudoinverse(cl.build_graph(edges))


@pytest.mark.parametrize("w", [1e8, 1e9, 1.2e9, 1e12, 1e17, 1e200, 1e300])
def test_stiff_paths_agree_with_the_factored_build(w):
    # both builds refuse the same weights. The path sums refuse with their
    # own exact scale eps ||L0||_1 max(G0 1): ||L0||_1 = (1 + w) + w as
    # assembled and max(G0 1) = 2 + 1/w. LAPACK factors the assembled
    # matrix, in which 1 + w rounds to w from w = 1e17 on, so its scale or
    # its failure describes a rounded matrix (6.0e+00 at w = 1e300)
    g = _stiff_path(w)
    outcomes = []
    for build in (lambda: cl.resistance_oracle(g).table, lambda: _factored_table(g)):
        try:
            outcomes.append(build())
        except SolverError as exc:
            outcomes.append(exc)
    R, factored = outcomes
    assert isinstance(R, Exception) == isinstance(factored, Exception)
    if isinstance(R, Exception):
        scale = electrical._EPS * ((1.0 + w) + w) * (2.0 + 1.0 / w)
        assert str(R) == (f"grounded system is too ill-conditioned: eps ||A||_1 "
                          f"||A^-1||_1 {scale:.1e} exceeds 1e-06")
    else:
        # the sums along root paths round once; the factored build is off by
        # up to its condition scale, which the condition limit bounds
        assert R[0, 1] == 1.0 and R[0, 2] == 1.0 + 1.0 / w
        np.testing.assert_allclose(R, factored, rtol=electrical._CONDITION_LIMIT)


def test_path_sum_route_keeps_the_residual_and_condition_checks(rng, monkeypatch):
    graphs = [random_tree(rng, 12), stiff_graph(rng, 12, 1)]
    monkeypatch.setattr(electrical, "SOLVE_TOLERANCE", 0.0)
    for g in graphs:
        with pytest.raises(SolverError, match="residual"):
            cl.resistance_oracle(g)
    monkeypatch.undo()
    monkeypatch.setattr(electrical, "_CONDITION_LIMIT", 1e-30)
    for g in graphs:
        with pytest.raises(SolverError, match="ill-conditioned"):
            cl.resistance_oracle(g)


def test_path_sums_refuse_without_factoring(rng, monkeypatch):
    # a tree, a path and a cycle whose condition bound fails are refused by
    # their own O(n^2) build: LAPACK is never called
    def no_factor(*args):
        raise AssertionError("a graph with m <= n was factored")

    monkeypatch.setattr(electrical, "_factor", no_factor)
    for w in (1e12, 1e200, 1e300):
        with pytest.raises(SolverError, match="ill-conditioned"):
            cl.resistance_oracle(_stiff_path(w))
    monkeypatch.setattr(electrical, "_CONDITION_LIMIT", 1e-30)
    for g in (random_tree(rng, 12), stiff_graph(rng, 12, 1)):
        with pytest.raises(SolverError, match="ill-conditioned"):
            cl.resistance_oracle(g)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("edges", [
    [(0, 1, 1.0), (1, 2, 1e-310)],
    [(0, 1, 1.0), (1, 2, 5e-324)],
    # 1/w is finite, but the path sums pass the largest float
    [(0, 1, 1.0), (1, 2, 1e-308)],
    # a triangle with a subnormal bridge, which the spanning tree keeps
    [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1e-310)],
])
def test_overflowing_resistances_are_refused_without_warnings(edges):
    # 1/w of a subnormal weight is inf, as is ||L0^-1||_1: the path sums
    # and forest elimination both refuse such a graph as ill-conditioned,
    # where their arithmetic on inf warned first
    g = cl.build_graph(edges)
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.resistance_oracle(g)
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.coherence_nf(g, (0,))


def _k5(weight):
    return cl.build_graph([(u, v, weight) for v in range(5) for u in range(v)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dense_route_refuses_overflowing_resistances_without_warnings():
    # K5 with subnormal weights keeps a triangle wherever it is grounded, so
    # every solve and its table factor the whole system; its inverse
    # overflows, and the check refuses it as the forest and path-sum routes
    # do, with no warning first
    g = _k5(1e-310)
    for compute in (lambda: cl.coherence_nf(g, (0,)),
                    lambda: cl.coherence_nf(g, (0,), method="resistance"),
                    lambda: cl.brute_force_select(g, 1),
                    lambda: cl.resistance_oracle(g)):
        with pytest.raises(SolverError, match="ill-conditioned"):
            compute()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_totals_past_the_largest_float_raise_solver_error():
    # K5 with weights 1e-308 is well conditioned and its solves pass their
    # check, but n d and the sums of the table pass the largest float: a
    # total or a value that is not finite is a SolverError, not a bare
    # ValueError or a BadParameterError
    g = _k5(1e-308)
    for k in (1, 2, 3):
        with pytest.raises(SolverError, match="floating-point range"):
            cl.brute_force_select(g, k)
    with pytest.raises(SolverError, match="floating-point range"):
        cl.brute_force_select(g, 2, cl.NOISE_CORRUPTED, kappa=1.0)
    with pytest.raises(SolverError, match="floating-point range"):
        cl.leader_free_coherence(g)


def test_only_graphs_with_more_edges_than_nodes_are_factored(rng, monkeypatch):
    factored = []
    build = electrical._factored_table
    monkeypatch.setattr(electrical, "_factored_table",
                        lambda g, *args: factored.append(g) or build(g, *args))
    few = [cl.build_path(5), cl.build_cycle(7), random_tree(rng, 20),
           stiff_graph(rng, 15, 1)]
    # two triangles sharing the edge (0, 2): five edges on four nodes
    many = [random_connected_graph(rng, 12, extra_edges=2), stiff_graph(rng, 15, 2),
            cl.build_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0),
                            (0, 3, 1.0)])]
    for g in few + many:
        cl.resistance_oracle(g)
    assert len(factored) == len(many)
    assert all(a is b for a, b in zip(factored, many))


def test_foster_check_refuses_a_wrong_triangle(rng, monkeypatch):
    checked = []
    check = electrical._check_foster
    monkeypatch.setattr(electrical, "_check_foster",
                        lambda g, table, scale: checked.append((table.copy(), scale)))
    g = random_connected_graph(rng, 30, extra_edges=30)
    cl.resistance_oracle(g)
    (table, scale), = checked
    check(g, table, scale)
    for tri in (np.tril_indices(30, -1), np.triu_indices(30, 1)):
        for wrong in (0.0, 1.0 + 1e-9):
            bad = table.copy()
            bad[tri] *= wrong
            with pytest.raises(SolverError, match="Foster"):
                check(g, bad, scale)


def test_set_totals_matches_naive(rng):
    # k = 2 twice per family; the stiff family spreads weights over 10^+-3
    for make in (lambda n: random_connected_graph(rng, n, extra_edges=4),
                 lambda n: stiff_graph(rng, n)):
        for k in (1, 2, 2, 3, 4, 5):
            n = int(rng.integers(6, 18))
            g = make(n)
            oracle = cl.resistance_oracle(g)
            S = tuple(int(v) for v in rng.choice(n, size=k, replace=False))
            expected = sum(naive_resistance_to_set(g, u, S)
                           for u in range(n) if u not in S)
            assert oracle.set_totals([S])[0] == pytest.approx(expected, rel=1e-9)
        # every node pinned: exactly +0.0, in any leader order
        everyone = rng.permutation(n)
        total = oracle.set_totals([everyone])[0]
        assert total == 0.0 and math.copysign(1.0, total) == 1.0


def test_set_queries_reject_a_non_positive_pivot(monkeypatch):
    # a table that is not a resistance table: every Schur pivot is 0 or NaN
    g = cl.build_cycle(4)
    for fill in (0.0, float("nan")):
        oracle = cl.ResistanceOracle(g, np.full((4, 4), fill))
        with pytest.raises(SolverError):
            oracle.set_totals(np.array([[0, 1, 3]]))
        # and so does the search's prefix sweep, at its own pivots (k = 3)
        # and at the prefix's (k = 4)
        monkeypatch.setattr(selection, "resistance_oracle", lambda _: oracle)
        for k in (3, 4):
            with pytest.raises(SolverError, match="Schur pivot"):
                cl.brute_force_select(g, k)


def test_kappa_list_follows_given_leader_order():
    g = cl.build_cycle(6)
    for method in ("trace", "resistance"):
        assert cl.coherence_nc(g, (4, 1), kappa=[2.0, 0.5], method=method).value == (
            cl.coherence_nc(g, (1, 4), kappa={1: 0.5, 4: 2.0}, method=method).value)


def test_kappa_list_with_repeated_leaders_is_rejected():
    g = cl.build_cycle(6)
    cfg = cl.SimConfig(dt=0.01, horizon=1.0, trials=2)
    for method in ("trace", "resistance"):
        with pytest.raises(BadKappaError):
            cl.coherence_nc(g, (1, 1), kappa=[1.0, 2.0], method=method)
    with pytest.raises(BadKappaError):
        cl.simulate_nc(g, (2, 2), cfg, kappa=[1.0, 1.0])
    # repeats stay harmless with a scalar or a mapping
    assert cl.coherence_nc(g, (1, 1), kappa=2.0).value == (
        cl.coherence_nc(g, (1,), kappa=2.0).value)
    assert cl.coherence_nc(g, (1, 1), kappa={1: 2.0}).value == (
        cl.coherence_nc(g, (1,), kappa=2.0).value)


def test_a_zero_dimensional_kappa_is_a_scalar():
    # numpy reductions and indexing hand back 0-d arrays; both entry points
    # read one as the scalar it holds, with any dynamics' route
    g = cl.build_cycle(6)
    for method in ("trace", "resistance"):
        assert cl.coherence_nc(g, (0, 3), kappa=np.array(2.0), method=method).value == (
            cl.coherence_nc(g, (0, 3), kappa=2.0, method=method).value)
    for k in (1, 2):
        found = cl.brute_force_select(g, k, cl.NOISE_CORRUPTED, kappa=np.array(2.0))
        expected = cl.brute_force_select(g, k, cl.NOISE_CORRUPTED, kappa=2.0)
        assert (found.value, found.optimal_sets) == (expected.value, expected.optimal_sets)


@pytest.mark.parametrize("kappa", [True, np.True_, np.array(True), "2", b"2", 2 + 0j,
                                   [True, 2.0], ["2", 2.0], {0: True}, {3: "2"},
                                   object()])
def test_kappa_refuses_bools_and_strings(kappa):
    # as node ids do: float() would read True as 1.0 and '2' as 2.0
    g = cl.build_cycle(6)
    for method in ("trace", "resistance"):
        with pytest.raises(BadKappaError):
            cl.coherence_nc(g, (0, 3), kappa=kappa, method=method)
    for k in (1, 2):
        with pytest.raises(BadKappaError):
            cl.brute_force_select(g, k, cl.NOISE_CORRUPTED, kappa=kappa)


def test_edge_addition_update_closes_triangle():
    oracle = cl.resistance_oracle(cl.build_path(3))
    # 2 - 16/12: the new unit edge in parallel with the length-2 route
    assert cl.edge_addition_update(oracle, 0, 2, 1.0, 0, 2) == pytest.approx(2.0 / 3.0)


def test_edge_addition_update_vanishing_weight_is_identity():
    oracle = cl.resistance_oracle(cl.build_path(4))
    r = oracle.table[1, 3]
    assert cl.edge_addition_update(oracle, 0, 3, 1e-12, 1, 3) == pytest.approx(
        r, abs=1e-9)


def test_edge_addition_update_errors():
    oracle = cl.resistance_oracle(cl.build_path(3))
    with pytest.raises(SameNodeError):
        cl.edge_addition_update(oracle, 1, 1, 1.0, 0, 2)
    for w in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(BadWeightError):
            cl.edge_addition_update(oracle, 0, 2, w, 0, 2)
    # a weight is a real number: float() would read True as 1.0, and
    # math.isfinite raises a bare TypeError on a string
    for w in (True, np.bool_(True), "2", None):
        with pytest.raises(BadWeightError, match="must be a real number"):
            cl.edge_addition_update(oracle, 0, 2, w, 0, 2)
    assert (cl.edge_addition_update(oracle, 0, 2, np.float64(2.0), 0, 2)
            == cl.edge_addition_update(oracle, 0, 2, 2, 0, 2)
            == cl.edge_addition_update(oracle, 0, 2, 2.0, 0, 2))


def test_edge_addition_update_matches_recompute(rng):
    for _ in range(10):
        n = int(rng.integers(5, 11))
        g = random_connected_graph(rng, n, extra_edges=2)
        oracle = cl.resistance_oracle(g)
        existing = {(u, v) for u, v, _ in g.edges}
        for _ in range(10):
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            p, q = (int(v) for v in rng.integers(0, n, size=2))
            w = float(rng.uniform(0.2, 2.0))
            key = (min(i, j), max(i, j))
            if key in existing:
                new_edges = [(u, v, wt + w if (u, v) == key else wt)
                             for u, v, wt in g.edges]
            else:
                new_edges = list(g.edges) + [(i, j, w)]
            g2 = cl.build_graph(new_edges, node_count=n)
            updated = cl.edge_addition_update(oracle, i, j, w, p, q)
            if p == q:
                assert updated == pytest.approx(0.0, abs=1e-12)
            else:
                assert updated == pytest.approx(
                    naive_resistance(g2, p, q), abs=1e-10)


def test_edge_addition_never_increases_resistance(rng):
    g = random_connected_graph(rng, 10, extra_edges=4)
    oracle = cl.resistance_oracle(g)
    for _ in range(50):
        i, j = (int(v) for v in rng.choice(10, size=2, replace=False))
        p, q = (int(v) for v in rng.choice(10, size=2, replace=False))
        w = float(rng.uniform(0.1, 3.0))
        assert cl.edge_addition_update(oracle, i, j, w, p, q) <= oracle.table[p, q] + 1e-12


def test_forest_elimination_raises_before_overflowing():
    # 1 + 1e200 rounds to 1e200, so the middle pivot cancels to exactly 0;
    # coupling^2 / pivot would overflow on the way
    g = cl.build_graph([(0, 1, 1.0), (1, 2, 1e200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="ill-conditioned"):
            cl.coherence_nf(g, (0,))


def test_grounded_solve_matches_the_dense_inverse(rng):
    # the diagonal, the solved columns and A^-1 1: the trees take forest
    # elimination and the graphs with extra edges the dense kernel
    for n, extra in ((1, 0), (2, 0), (9, 0), (30, 0), (9, 5), (30, 20)):
        g = random_connected_graph(rng, n, extra_edges=extra)
        _, diag, off = _grounded_entries(g, (0,), kvec=np.ones(1))
        A = dense_laplacian(g) + np.diag(np.eye(n)[0])
        columns = [n - 1, 0, n // 2]
        d, X, y = electrical.grounded_solve(diag, off, columns)
        inverse = np.linalg.inv(A)
        assert np.allclose(d, np.diag(inverse), rtol=1e-12, atol=0.0)
        assert np.allclose(X, inverse[columns], rtol=1e-10, atol=1e-13)
        assert np.allclose(y, inverse.sum(axis=1), rtol=1e-12, atol=0.0)


def test_forest_inverse_diagonal_matches_dense(rng):
    for _ in range(6):
        n = int(rng.integers(3, 40))
        g = random_tree(rng, n)
        S = {int(v) for v in rng.choice(n, size=min(2, n - 1) or 1, replace=False)}
        keep = [v for v in range(n) if v not in S]
        Lff = dense_laplacian(g)[np.ix_(keep, keep)]
        idx = {v: k for k, v in enumerate(keep)}
        edges = [(idx[u], idx[v], -w) for u, v, w in g.edges
                 if u in idx and v in idx]
        fast = _forest_diagonal(np.diag(Lff).copy(), edges)
        assert np.allclose(fast, np.diag(np.linalg.inv(Lff)), atol=1e-11)


def test_grounded_solve_reads_its_route_from_the_entries(rng, monkeypatch):
    routes = route_counter(monkeypatch)
    cycle = cl.build_cycle(12)
    pendant_ring = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 0, 1.0), (0, 4, 1.0)]
    ring = cl.build_graph(pendant_ring)
    tree = cl.build_perfect_tree(2, 3).graph
    forest = route(forest=1, rooted_forest=1)
    # a pinned leader cuts the cycle into a path, and grounding node 0 does
    # too, so both noise-free routes and a resistance eliminate a forest
    for method in ("trace", "resistance"):
        assert routes(lambda: cl.coherence_nf(cycle, (0, 5), method=method)) == forest
        assert routes(lambda: cl.coherence_nc(tree, (1, 9), method=method)) == forest
    assert routes(lambda: cl.resistance(cycle, 2, 7)) == forest
    # below _PEEL_BREAK_EVEN nodes a system that is not a forest is
    # factored whole with no peel. Grounding the pendant node leaves the
    # ring whole
    assert routes(lambda: cl.resistance(ring, 0, 4)) == route(factored=[4])
    # the ring pinned at its pendant node keeps its cycle: four entries on
    # four nodes go to the dense kernel with no traversal
    assert routes(lambda: cl.coherence_nf(ring, (4,))) == route(factored=[4])
    # the noise-corrupted trace route keeps all n nodes and the cycle's n
    # entries
    assert routes(lambda: cl.coherence_nc(cycle, (0,))) == route(factored=[12])
    # leader-free coherence grounds node 0: a path or a cycle leaves a
    # forest, and a cycle away from node 0 stays whole, three entries on
    # three nodes
    assert routes(lambda: cl.leader_free_coherence(cl.build_path(9))) == forest
    assert routes(lambda: cl.leader_free_coherence(cycle)) == forest
    lollipop = cl.build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)])
    assert routes(lambda: cl.leader_free_coherence(lollipop)) == route(factored=[3])
    # pinning a cut node leaves the cycle and a lone node: fewer entries
    # than nodes, so one traversal finds the cycle, and the dense kernel
    # solves
    tail = cl.build_graph(pendant_ring + [(4, 5, 1.0), (5, 6, 1.0)])
    assert routes(lambda: cl.coherence_nf(tail, (5,))) == route(factored=[6],
                                                                   rooted_forest=1)
    # from _PEEL_BREAK_EVEN nodes on, such a system is peeled when enough
    # of its nodes have two neighbours or fewer. The noise-corrupted trace
    # route on a 4000-node cycle leaves no core and calls no LAPACK
    assert electrical._PEEL_BREAK_EVEN <= 599
    big_ring = cl.build_cycle(4000)
    assert routes(lambda: cl.coherence_nc(big_ring, (0, 7))) == route(peeled=1, peel=1)
    # k = 1 on a 600-node graph with 300 chords grounds node 0 and factors
    # only the core that the peel leaves, about half of the 599 nodes
    g = random_connected_graph(rng, 600, extra_edges=300)
    found = routes(lambda: cl.brute_force_select(g, 1))
    core = found.pop("factored")
    assert found == {"forest": 0, "peeled": 1, "rooted_forest": 0, "peel": 1, "tables": []}
    assert len(core) == 1 and 0 < core[0] < 0.6 * 599, core
    # with 1200 chords too few nodes have two neighbours or fewer for the
    # peel to pay, and the system is factored whole with no peel
    dense = random_connected_graph(rng, 600, extra_edges=1200)
    assert routes(lambda: cl.brute_force_select(dense, 1)) == route(factored=[599])
    # the complete graph has no node with two neighbours or fewer, so it
    # is factored whole with no peel
    complete = cl.build_graph([(u, v, 1.0) for v in range(200) for u in range(v)])
    assert routes(lambda: cl.coherence_nf(complete, (0,))) == route(factored=[199])


def test_resistance_solves_its_column_without_inverting_the_factor(rng, monkeypatch):
    # one column of the grounded inverse comes from the Cholesky factor by
    # two triangular solves; only a solve that needs the diagonal inverts
    # the factor. Above the break-even the same holds for the core that
    # the peel leaves
    graphs = [random_connected_graph(rng, 30, extra_edges=30),
              random_connected_graph(rng, 600, extra_edges=300)]
    expected = [(naive_resistance(g, 0, 7), naive_resistance_to_set(g, 5, (0, 7, 12)))
                for g in graphs]
    routes = route_counter(monkeypatch)

    def no_inverse(*args, **kwargs):
        raise AssertionError("the factor was inverted")

    monkeypatch.setattr(electrical, "dtrtri", no_inverse)
    for g, (pair, to_set) in zip(graphs, expected):
        assert cl.resistance(g, 0, 7) == pytest.approx(pair, rel=1e-12)
        assert cl.resistance_to_set(g, 5, (0, 7, 12)) == pytest.approx(to_set, rel=1e-12)
        with pytest.raises(AssertionError, match="inverted"):
            cl.coherence_nf(g, (0,))
    found = routes(lambda: cl.resistance_to_set(graphs[1], 5, (0, 7, 12)))
    assert found["peeled"] == 1 and 0 < found["factored"][0] < 0.6 * 597, found


@pytest.mark.parametrize("n", [50, 300, 1000, 2000, 4000])
def test_cycles_match_their_closed_forms(n):
    # a pinned leader leaves paths, so both noise-free routes and the
    # resistance take forest elimination; the seeds were fixed before the
    # first run
    rng = np.random.default_rng([21, n])
    g = cl.build_cycle(n)
    k = int(rng.integers(1, 6))
    S = sorted(rng.choice(n, size=k, replace=False).tolist())
    expected = cl.cycle_nf_coherence(cl.gaps_from_cycle_leaders(n, S))
    for method in ("trace", "resistance"):
        value = cl.coherence_nf(g, S, method=method).value
        assert abs(value - expected) <= 1e-11 * expected, (method, value, expected)
    i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
    d = j - i
    expected = d * (n - d) / n
    value = cl.resistance(g, i, j)
    assert abs(value - expected) <= 1e-11 * expected, (value, expected)
