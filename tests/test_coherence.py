import math
from fractions import Fraction

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab.errors import (
    BadKappaError,
    BadParameterError,
    DisconnectedGraphError,
    EmptyLeaderSetError,
)

from conftest import (
    assert_exact,
    dense_laplacian,
    exact_table,
    naive_nc_value,
    naive_nf_value,
    random_connected_graph,
    random_tree,
    stiff_graph,
)


def test_nf_two_node_path():
    assert cl.coherence_nf(cl.build_path(2), (0,)).value == pytest.approx(0.5)


def test_nf_square_cycle_both_routes():
    g = cl.build_cycle(4)
    trace = cl.coherence_nf(g, (0, 2), method="trace").value
    resist = cl.coherence_nf(g, (0, 2), method="resistance").value
    assert trace == pytest.approx(0.5, abs=1e-12)
    assert resist == pytest.approx(0.5, abs=1e-12)


def test_nf_all_leaders_is_zero():
    g = cl.build_cycle(5)
    assert cl.coherence_nf(g, range(5)).value == 0.0
    assert cl.coherence_nf(g, range(5), method="resistance").value == 0.0


def test_nc_two_node_path():
    # ground: [[2,-1],[-1,1]] has inverse trace 3
    assert cl.coherence_nc(cl.build_path(2), (0,)).value == pytest.approx(1.5)


def test_nc_square_cycle():
    g = cl.build_cycle(4)
    assert cl.coherence_nc(g, (0, 2)).value == pytest.approx(5.0 / 3.0)
    assert cl.coherence_nc(g, (0, 2), method="resistance").value == pytest.approx(
        5.0 / 3.0, rel=1e-9)


def test_nc_single_leader_series_resistance_identity(rng):
    # one leader with weight kappa: total equals the resistance column sum
    # plus n times the series resistor 1/kappa to the reference node
    for kappa in (0.5, 1.0, 4.0):
        n = int(rng.integers(4, 14))
        g = random_connected_graph(rng, n, extra_edges=3)
        v = int(rng.integers(0, n))
        colsum = cl.resistance_oracle(g).column_sums()[v]
        expected = 0.5 * (colsum + n / kappa)
        assert cl.coherence_nc(g, (v,), kappa=kappa).value == pytest.approx(
            expected, rel=1e-9)


def test_route_agreement_random_graphs(rng):
    for _ in range(30):
        n = int(rng.integers(4, 26))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)))
        k = int(rng.integers(1, min(6, n)))
        S = tuple(int(v) for v in rng.choice(n, size=k, replace=False))
        kappa = float(rng.uniform(0.3, 3.0))
        nf_t = cl.coherence_nf(g, S, method="trace").value
        nf_r = cl.coherence_nf(g, S, method="resistance").value
        assert abs(nf_t - nf_r) <= 1e-9 * max(1.0, abs(nf_t))
        nc_t = cl.coherence_nc(g, S, kappa=kappa, method="trace").value
        nc_r = cl.coherence_nc(g, S, kappa=kappa, method="resistance").value
        assert abs(nc_t - nc_r) <= 1e-9 * max(1.0, abs(nc_t))


def test_trace_matches_naive_inverse(rng):
    for _ in range(10):
        n = int(rng.integers(4, 20))
        g = random_connected_graph(rng, n, extra_edges=3)
        S = tuple(int(v) for v in rng.choice(n, size=2, replace=False))
        assert cl.coherence_nf(g, S).value == pytest.approx(
            naive_nf_value(g, S), rel=1e-11)
        assert cl.coherence_nc(g, S, kappa=1.3).value == pytest.approx(
            naive_nc_value(g, S, 1.3), rel=1e-11)


def test_tree_fast_path_agrees_with_dense(rng):
    # trees take the O(n) elimination branch; pin it to the dense answer
    for _ in range(8):
        g = random_tree(rng, int(rng.integers(4, 45)))
        k = int(rng.integers(1, 4))
        S = tuple(int(v) for v in rng.choice(g.node_count, size=k, replace=False))
        assert cl.coherence_nf(g, S).value == pytest.approx(
            naive_nf_value(g, S), rel=1e-11)
        assert cl.coherence_nc(g, S, kappa=0.7).value == pytest.approx(
            naive_nc_value(g, S, 0.7), rel=1e-11)
    ptree = cl.build_perfect_tree(3, 3)
    assert cl.coherence_nf(ptree.graph, (0, 5)).value == pytest.approx(
        naive_nf_value(ptree.graph, (0, 5)), rel=1e-11)


def test_adding_a_leader_never_hurts(rng):
    for _ in range(10):
        n = int(rng.integers(5, 20))
        g = random_connected_graph(rng, n, extra_edges=4)
        k = int(rng.integers(1, 4))
        S = set(int(v) for v in rng.choice(n, size=k, replace=False))
        extra = int(rng.choice([v for v in range(n) if v not in S]))
        before = cl.coherence_nf(g, S).value
        after = cl.coherence_nf(g, S | {extra}).value
        assert after <= before + 1e-12


def test_single_leader_value_at_least_leader_free(rng):
    for _ in range(8):
        n = int(rng.integers(3, 18))
        g = random_connected_graph(rng, n, extra_edges=3)
        free = cl.leader_free_coherence(g).value
        for v in range(n):
            assert cl.coherence_nf(g, (v,)).value >= free - 1e-9


def test_pinning_limit_large_kappa(rng):
    for _ in range(6):
        n = int(rng.integers(4, 15))
        g = random_connected_graph(rng, n, extra_edges=3)
        S = tuple(int(v) for v in rng.choice(n, size=2, replace=False))
        nc = cl.coherence_nc(g, S, kappa=1e6).value
        nf = cl.coherence_nf(g, S).value
        assert abs(nc - nf) <= 1e-3 * max(1.0, nf)


def test_leader_free_examples():
    assert cl.leader_free_coherence(cl.build_path(2)).value == pytest.approx(0.25)
    assert cl.leader_free_coherence(cl.build_cycle(3)).value == pytest.approx(1 / 3)


def test_leader_free_matches_pseudoinverse(rng):
    graphs = [cl.build_graph([], node_count=1), cl.build_path(2), cl.build_path(3),
              cl.build_cycle(3), random_tree(rng, 25), stiff_graph(rng, 20, 10)]
    for g in graphs:
        expected = 0.5 * float(np.trace(np.linalg.pinv(dense_laplacian(g))))
        assert cl.leader_free_coherence(g).value == pytest.approx(expected, rel=1e-9, abs=1e-15)


def test_coherence_builds_no_table(rng, monkeypatch):
    # every coherence value is one grounded solve; the pairwise table is
    # left to the searches, edge updates and tree growth
    def refuse(self, *args, **kwargs):
        raise AssertionError("a resistance table was built")

    monkeypatch.setattr(cl.ResistanceOracle, "__init__", refuse)
    for g in (random_tree(rng, 14), cl.build_cycle(9),
              random_connected_graph(rng, 15, extra_edges=8)):
        for method in ("trace", "resistance"):
            cl.coherence_nf(g, (0, 4, 7), method=method)
            cl.coherence_nc(g, (0, 4, 7), kappa=[0.5, 2.0, 3.0], method=method)
        cl.leader_free_coherence(g)


# the sizes were fixed, and drawn, before the first run
_PATH_SIZES = [2, 3, 4, 10, 99, 1000, 2000, 4000, 8000] + \
    np.random.default_rng([22, 0]).integers(2, 8001, size=4).tolist()
_CYCLE_SIZES = [3, 4, 50, 300, 1000, 2000, 4000] + \
    np.random.default_rng([22, 1]).integers(3, 4001, size=3).tolist()


@pytest.mark.parametrize("n", _PATH_SIZES)
def test_leader_free_is_exact_on_unit_paths(n):
    # grounding an end leaves a path, which forest elimination solves in
    # integers. (n^2 - 1)/12 is a binary fraction unless 3 divides n; then
    # the value is one of the two doubles around it
    value = cl.leader_free_coherence(cl.build_path(n)).value
    exact = Fraction(n * n - 1, 12)
    error = abs(Fraction(value) - exact)
    assert error == 0 if n % 3 else error < Fraction(math.ulp(value)), (value, float(exact))


@pytest.mark.parametrize("n", _CYCLE_SIZES)
def test_leader_free_matches_the_cycle_closed_form(n):
    # grounding node 0 cuts the cycle into a path
    expected = (n * n - 1) / 24
    value = cl.leader_free_coherence(cl.build_cycle(n)).value
    assert abs(value - expected) <= 1e-11 * expected, (value, expected)


@pytest.mark.parametrize("branching, height", [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_leader_free_matches_the_exact_table_on_perfect_trees(branching, height):
    # half the trace of L^+ is the Kirchhoff index over 2n
    g = cl.build_perfect_tree(branching, height).graph
    n = g.node_count
    table = exact_table(g)
    free = sum(table[u][v] for u in range(n) for v in range(u + 1, n)) / (2 * n)
    assert_exact(cl.leader_free_coherence(g).value, free, rtol=1e-12)


def test_leader_free_quadratic_scaling_on_cycles():
    v50 = cl.leader_free_coherence(cl.build_cycle(50)).value
    v200 = cl.leader_free_coherence(cl.build_cycle(200)).value
    assert abs(v200 / v50 / 16.0 - 1.0) <= 0.1


def _best_single_leader(g, dynamics=cl.NOISE_FREE, kappa=None):
    """The search's first optimal single leader (ties go to the smallest id)."""
    return cl.brute_force_select(g, 1, dynamics, kappa, cap=1).optimal_sets[0][0]


def test_best_single_leader_star_center():
    star = cl.build_graph([(0, i, 1.0) for i in range(1, 5)])
    best = _best_single_leader(star)
    assert best == 0
    assert cl.coherence_nf(star, (best,)).value == pytest.approx(naive_nf_value(star, (0,)))


def test_best_single_leader_path_middle():
    assert _best_single_leader(cl.build_path(5)) == 2


def test_best_single_leader_tie_breaks_to_smallest_id():
    assert _best_single_leader(cl.build_cycle(6)) == 0


def test_best_single_leader_nc_differs_with_heterogeneous_kappa():
    g = cl.build_path(3)
    kappa = {0: 100.0, 1: 1.0, 2: 100.0}
    nf_best = _best_single_leader(g, cl.NOISE_FREE)
    nc_best = _best_single_leader(g, cl.NOISE_CORRUPTED, kappa)
    assert nf_best == 1
    assert nc_best == 0
    nc_value = cl.coherence_nc(g, (nc_best,), kappa=kappa).value
    assert nc_value == pytest.approx(naive_nc_value(g, (0,), kappa))


def test_report_serialization():
    report = cl.coherence_nc(cl.build_cycle(4), (0, 2), kappa=2.0,
                             graph_label="cycle:4")
    doc = report.to_dict()
    assert doc["dynamics"] == "noise_corrupted"
    assert doc["method"] == "trace"
    assert doc["graph"] == "cycle:4"
    assert doc["leaders"] == [0, 2]
    assert doc["kappa"] == {"0": 2.0, "2": 2.0}
    assert doc["value"] >= 0.0


def test_validation_errors():
    g = cl.build_cycle(4)
    with pytest.raises(EmptyLeaderSetError):
        cl.coherence_nf(g, ())
    with pytest.raises(DisconnectedGraphError):
        cl.coherence_nf(cl.build_graph([(0, 1, 1.0)], node_count=3), (0,))
    with pytest.raises(BadParameterError):
        cl.coherence_nf(g, (0,), method="magic")
    with pytest.raises(BadKappaError):
        cl.coherence_nc(g, (0,), kappa=0.0)
    with pytest.raises(DisconnectedGraphError):
        cl.leader_free_coherence(cl.build_graph([(0, 1, 1.0)], node_count=3))
