import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dpotri

import coherence_lab as cl
from coherence_lab import electrical, selection
from coherence_lab.electrical import forest_inverse_diagonal, two_leader_totals
from coherence_lab.errors import (
    BadKappaError,
    BadParameterError,
    BadWeightError,
    BudgetExceededError,
    DisconnectedGraphError,
    EmptyLeaderSetError,
    LeaderQueriedError,
    OutOfRangeError,
    SameNodeError,
    SolverError,
)
from coherence_lab.graphs import _grounded_entries, rooted_forest

from conftest import (
    dense_laplacian,
    naive_resistance,
    naive_resistance_table,
    naive_resistance_to_set,
    naive_two_leader_totals,
    random_connected_graph,
    random_tree,
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
                assert oracle.table[i, j] < cl.graph_distance(g, i, j)


def test_resistance_equals_graph_distance_on_trees(rng):
    # unique-path equality; stated for the unit-weight metric, where path
    # length and series resistance coincide
    for _ in range(6):
        g = random_tree(rng, int(rng.integers(4, 25)), weighted=False)
        oracle = cl.resistance_oracle(g)
        for _ in range(10):
            i, j = rng.choice(g.node_count, size=2, replace=False)
            assert oracle.table[i, j] == pytest.approx(
                cl.graph_distance(g, int(i), int(j)), rel=1e-10)


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


def test_two_leader_totals_against_profile_sums(rng):
    # the stiff family spreads weights over 10^+-3
    for g in (random_connected_graph(rng, 14, extra_edges=7), stiff_graph(rng, 14, 7)):
        oracle = cl.resistance_oracle(g)
        T = two_leader_totals(oracle.table)
        assert np.array_equal(T, T.T)
        for x in range(14):
            assert T[x, x] == 0.0
            for y in range(x + 1, 14):
                expected = oracle.set_totals([[x, y]])[0]
                assert T[x, y] == pytest.approx(expected, rel=1e-10)


def test_pair_sweep_row_blocks_change_no_bit(rng, monkeypatch):
    g = stiff_graph(rng, 23, 12)
    R = cl.resistance_oracle(g).table
    whole = two_leader_totals(R)
    # 4-row blocks of 23 columns: the last block is ragged (3 rows)
    monkeypatch.setattr(electrical, "_BLOCK_FLOATS", 4 * 23)
    assert np.array_equal(two_leader_totals(R), whole)


@pytest.mark.parametrize("n", [3, 14, 200])
def test_pair_sweep_is_symmetric_and_matches_the_formula(rng, n):
    # stiff weights over 10^+-3; at n = 200 the sweep runs in two row blocks
    R = cl.resistance_oracle(stiff_graph(rng, n, chords=n)).table
    T = two_leader_totals(R)
    assert electrical._block_rows(200) < 200
    assert np.array_equal(T, T.T)
    assert np.all(np.diagonal(T) == 0.0)
    np.testing.assert_allclose(T, naive_two_leader_totals(R), rtol=1e-9)


def _assert_matches_pseudoinverse(g):
    R = cl.resistance_oracle(g).table
    expected = naive_resistance_table(g)
    assert np.array_equal(R, R.T)
    assert np.all(np.diagonal(R) == 0.0)
    np.testing.assert_allclose(R, expected, rtol=1e-9, atol=1e-12 * expected.max())


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


def test_oracle_factor_failure_is_a_solver_error():
    # 1 + 1e200 rounds to 1e200, so the grounded matrix is singular in
    # floating point and the factorization stops at its second pivot
    g = cl.build_graph([(0, 1, 1.0), (1, 2, 1e200)])
    with pytest.raises(SolverError, match="positive definite"):
        cl.resistance_oracle(g)


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
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.coherence_nf(g, (0,), method="resistance")
    # a cycle takes the dense trace route, not forest elimination
    ring = cl.build_graph([(0, 1, 1.0), (1, 2, w), (2, 3, 1.0), (3, 0, 1.0)])
    with pytest.raises(SolverError, match="ill-conditioned"):
        cl.coherence_nf(ring, (0,), method="trace")


def test_condition_guard_runs_and_spares_moderate_spreads(rng, monkeypatch):
    # weights (1, 1e8) give eps/rcond ~ 9e-8, inside the limit
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
    R = cl.resistance_oracle(g).table
    # two n x n float arrays at n = 10 are 1600 bytes
    monkeypatch.setattr(electrical, "_TABLE_BUDGET", 1599)
    with pytest.raises(BudgetExceededError, match="budget"):
        cl.resistance_oracle(g)
    with pytest.raises(BudgetExceededError, match="budget"):
        two_leader_totals(R)
    with pytest.raises(BudgetExceededError):
        cl.brute_force_select(g, 2)
    with pytest.raises(BudgetExceededError):
        cl.coherence_nf(g, (0,), method="resistance")
    cl.resistance_oracle(cl.build_cycle(9))


def test_table_build_and_pair_sweep_peak_memory():
    # the build holds the table and the grounded inverse, each only one row
    # block besides. The k = 2 search holds the table, its Gram matrix, two
    # row blocks (scratch and rounding bound, 0.2 tables each at n = 400)
    # and numpy's ufunc buffers (~0.1): 2.58 measured, gate 2.75. The k = 3
    # search holds the table, one Gram matrix, one block of grounded rows
    # (0.8 tables at n = 200) and some 16 vectors of the sets scored
    # together (1.6 tables): 5.09 measured, gate 5.5; an array of all
    # C(200, 3) values alone would be 66 tables
    g = cl.build_cycle(400)
    table_bytes = 8 * 400 * 400
    tracemalloc.start()
    try:
        cl.resistance_oracle(g)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cl.brute_force_select(g, 2)
        select_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cl.brute_force_select(cl.build_cycle(200), 3)
        triple_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak <= 2.5 * table_bytes
    assert select_peak <= 2.75 * table_bytes
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
        L0, _ = cl.grounded_laplacian(g, (0,))
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
        distance = [[cl.graph_distance(g, u, v) for v in range(n)] for u in range(n)]
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
    # are themselves off by up to ~1e-10 (eps/rcond) at n = 30
    for n in (2, 3, 9, 30):
        g = stiff_graph(rng, n, chords)
        assert g.edge_count == n - 1 + (chords if n > 2 else 0)
        _assert_matches_pseudoinverse(g)
        R, factored = cl.resistance_oracle(g).table, _factored_table(g)
        assert np.abs(R - factored).max() <= 1e-9 * factored.max()


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
    # a failed condition bound hands the path to the factored build, so
    # every refusal keeps its class and message
    g = _stiff_path(w)
    outcomes = []
    for build in (lambda: cl.resistance_oracle(g).table, lambda: _factored_table(g)):
        try:
            outcomes.append(build())
        except SolverError as exc:
            outcomes.append(exc)
    R, factored = outcomes
    if isinstance(R, Exception) or isinstance(factored, Exception):
        assert (type(R), str(R)) == (type(factored), str(factored))
    else:
        # the sums along root paths round once; the factored build is off by
        # up to its eps/rcond, which the condition limit bounds
        assert R[0, 1] == 1.0 and R[0, 2] == 1.0 + 1.0 / w
        np.testing.assert_allclose(R, factored, rtol=electrical._CONDITION_LIMIT)


def test_path_sum_route_keeps_the_residual_and_condition_checks(rng, monkeypatch):
    graphs = [random_tree(rng, 12), stiff_graph(rng, 12, 1)]
    monkeypatch.setattr(electrical, "SOLVE_TOLERANCE", 0.0)
    for g in graphs:
        with pytest.raises(SolverError, match="residual"):
            cl.resistance_oracle(g)
    monkeypatch.undo()
    # a failed bound hands the graph to the factored build, whose own
    # condition estimate then refuses it
    monkeypatch.setattr(electrical, "_CONDITION_LIMIT", 1e-30)
    for g in graphs:
        with pytest.raises(SolverError, match="ill-conditioned"):
            cl.resistance_oracle(g)


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


def test_set_queries_reject_a_non_positive_pivot():
    # a table that is not a resistance table: every Schur pivot is 0 or NaN
    g = cl.build_cycle(4)
    for fill in (0.0, float("nan")):
        oracle = cl.ResistanceOracle(g, np.full((4, 4), fill))
        with pytest.raises(SolverError):
            oracle.set_totals(np.array([[0, 1, 3]]))
        # and so does the search's prefix sweep, at its own pivots (k = 3)
        # and at the prefix's (k = 4)
        for k in (3, 4):
            with pytest.raises(SolverError, match="Schur pivot"):
                selection._search(oracle, k, None)


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


def test_path_two_point_resistance_values():
    assert cl.path_two_point_resistance(1, 2) == pytest.approx(0.5)
    assert cl.path_two_point_resistance(1, 3) == pytest.approx(2.0 / 3.0)
    assert cl.path_two_point_resistance(2, 4) == pytest.approx(1.0)


@pytest.mark.parametrize("dux,dxy", [(0.0, 2.0), (2.0, 2.0), (3.0, 2.0), (-1.0, 2.0)])
def test_path_two_point_resistance_range(dux, dxy):
    with pytest.raises(OutOfRangeError):
        cl.path_two_point_resistance(dux, dxy)


def test_forest_elimination_raises_before_overflowing():
    # 1 + 1e200 rounds to 1e200, so the middle pivot cancels to exactly 0;
    # coupling^2 / pivot would overflow on the way
    g = cl.build_graph([(0, 1, 1.0), (1, 2, 1e200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="non-positive pivot"):
            cl.coherence_nf(g, (0,))


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
        fast = forest_inverse_diagonal(len(keep), np.diag(Lff).copy(), edges)
        assert np.allclose(fast, np.diag(np.linalg.inv(Lff)), atol=1e-11)
