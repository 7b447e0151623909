"""The peeled routes of ``electrical.grounded_solve`` and of the factored
table: every node with at most two neighbours left is eliminated, and only
the core that is left is factored.

Below ``electrical._PEEL_BREAK_EVEN`` nodes a system takes the dense
route, and below ``electrical._TABLE_BREAK_EVEN`` a table takes the whole
factor, so these tests force the peel on small systems by setting the
break-even to 0, and force the dense route, as a referee, by setting it
past n. The seeds were fixed before the first run.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab import electrical
from coherence_lab.errors import BudgetExceededError
from coherence_lab.graphs import _dense, _grounded_entries

from conftest import (
    exact_table,
    exact_total,
    random_connected_graph,
    route,
    route_counter,
    stiff_graph,
)

PEELED, DENSE = 0, 10**9


def _weight(rng):
    return float(rng.uniform(0.2, 3.0))


def _cycle(rng, n):
    return cl.build_graph([(i, (i + 1) % n, _weight(rng)) for i in range(n)])


def _complete(rng, n):
    return cl.build_graph([(u, v, _weight(rng)) for v in range(n) for u in range(v)])


def _star(rng, n):
    return cl.build_graph([(0, v, _weight(rng)) for v in range(1, n)])


def _series_parallel(rng, n):
    """A random two-terminal series-parallel graph on n >= 2 nodes: from one
    edge, each new node either subdivides an edge (series) or joins its two
    ends by a path of two edges beside it (parallel)."""
    edges = {(0, 1): _weight(rng)}
    for v in range(2, n):
        a, b = list(edges)[int(rng.integers(len(edges)))]
        if rng.random() < 0.5:
            del edges[(a, b)]
        edges[(a, v)] = _weight(rng)
        edges[(b, v)] = _weight(rng)
    return cl.build_graph([(u, v, w) for (u, v), w in edges.items()])


FAMILIES = {
    "random, n chords": lambda rng, n: random_connected_graph(rng, n, extra_edges=n),
    "random, n/2 chords": lambda rng, n: random_connected_graph(rng, n, extra_edges=n // 2),
    "weights 1e-3 to 1e3": lambda rng, n: stiff_graph(rng, n, chords=n // 2),
    "complete": _complete,
    "cycle": _cycle,
    "one cycle": lambda rng, n: random_connected_graph(rng, n, extra_edges=1),
    "star": _star,
    "series-parallel": _series_parallel,
}
#: families whose every grounded system peels to nothing
NO_CORE = ("cycle", "one cycle", "star", "series-parallel")


def _systems(rng, g):
    """The noise-free and the noise-corrupted grounded system of one random
    leader set of one or two nodes, as ``(diag, off, leaders, inv_kappa)``,
    with ``inv_kappa`` 0 for pinned leaders."""
    n = g.node_count
    S = tuple(sorted(rng.choice(n, size=1 + int(n > 4), replace=False).tolist()))
    kappa = rng.uniform(0.5, 4.0, size=len(S))
    yield (*_grounded_entries(g, S)[1:], S, 0)
    yield (*_grounded_entries(g, S, kappa)[1:], S, [1 / Fraction(k) for k in kappa.tolist()])


def _scale(diag, off, y):
    """eps ||A||_1 ||A^-1||_1, the forward-error scale of the system."""
    rows, cols, values = off
    ends = np.concatenate((rows, cols))
    norm = (np.abs(diag) + np.bincount(ends, np.abs(np.tile(values, 2)), diag.size)).max()
    return electrical._EPS * float(norm) * float(y.max())


def _exact_solve(diag, off, columns):
    """d, the columns ``columns`` as rows and y of the exact inverse of the
    system as assembled, from its rationals by Gauss-Jordan elimination (it
    is positive definite: no pivot is 0)."""
    n = diag.size
    A = [[Fraction(0)] * n for _ in range(n)]
    for i, v in enumerate(diag.tolist()):
        A[i][i] = Fraction(v)
    for i, j, v in zip(*(x.tolist() for x in off)):
        A[i][j] = A[j][i] = Fraction(v)
    M = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for c in range(n):
        pivot = M[c][c]
        M[c] = [x / pivot for x in M[c]]
        for r in range(n):
            f = M[r][c]
            if r != c and f:
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    Z = np.array([[float(x) for x in row[n:]] for row in M])
    return np.diag(Z).copy(), Z[columns], np.array([float(sum(row[n:])) for row in M])


def _assert_close(got, referee, tol):
    """Each of d, X and y within ``tol`` of the referee's, relative to its
    largest entry; d is not compared when it is None."""
    for a, b in zip(got, referee):
        if a is not None and b.size:
            assert np.abs(a - b).max() <= tol * np.abs(b).max(), (a, b, tol)


def _solve(monkeypatch, break_even, *args, **kwargs):
    monkeypatch.setattr(electrical, "_PEEL_BREAK_EVEN", break_even)
    return electrical.grounded_solve(*args, **kwargs)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_peeled_solves_match_their_referees(family, monkeypatch):
    # up to 10 nodes against the exact inverse and the exact resistance
    # total, above that against the dense route; each within 1e-12, or
    # within the system's own forward-error scale where the weights spread
    # over six decades
    rng = np.random.default_rng([27, sorted(FAMILIES).index(family)])
    for n in (4, 7, 10, 40, 150):
        g = FAMILIES[family](rng, n)
        exact = exact_table(g) if n <= 10 else None
        for diag, off, S, inv_kappa in _systems(rng, g):
            m = diag.size
            columns = sorted(set(rng.choice(m, size=min(3, m)).tolist()))
            peeled = _solve(monkeypatch, PEELED, diag, off, columns)
            column_only = _solve(monkeypatch, PEELED, diag, off, columns, diagonal=False)
            assert column_only[0] is None
            # every system through the peel's own plan, forests too
            plan = electrical._peel(m, off[0], off[1])
            if family in NO_CORE:
                assert plan.core.size == 0
            direct = electrical._eliminate(diag, off, np.array(columns, dtype=np.intp),
                                           True, plan)
            dense = _solve(monkeypatch, DENSE, diag, off, columns)
            scale = _scale(diag, off, dense[2])
            if exact is not None:
                referee, tol = _exact_solve(diag, off, columns), max(1e-12, scale)
                total = exact_total(exact, S, inv_kappa)
                assert abs(Fraction(float(peeled[0].sum())) - total) <= Fraction(tol) * total
            else:
                referee, tol = dense, max(1e-12, 2.0 * scale)
            for got in (peeled, column_only, direct):
                _assert_close(got, referee, tol)


@pytest.mark.parametrize("family", NO_CORE)
def test_series_parallel_systems_call_no_lapack(family, monkeypatch):
    # above the break-even, with its default value, the noise-corrupted
    # trace route keeps every node, the resistance route grounds node 0,
    # and a series-parallel system peels to nothing either way
    rng = np.random.default_rng([28, NO_CORE.index(family)])
    g = FAMILIES[family](rng, 300)
    S = tuple(sorted(rng.choice(300, size=2, replace=False).tolist()))
    kappa = [0.7, 2.5]

    def values():
        return [cl.coherence_nc(g, S, kappa=kappa, method="trace").value,
                cl.coherence_nc(g, S, kappa=kappa, method="resistance").value,
                cl.leader_free_coherence(g).value]

    break_even = electrical._PEEL_BREAK_EVEN
    assert break_even <= 299
    monkeypatch.setattr(electrical, "_PEEL_BREAK_EVEN", DENSE)
    expected = values()
    monkeypatch.setattr(electrical, "_PEEL_BREAK_EVEN", break_even)
    _, diag, off = _grounded_entries(g, S, np.array(kappa))
    assert electrical._peel(diag.size, off[0], off[1]).core.size == 0

    def no_factor(*args):
        raise AssertionError("a core was factored")

    monkeypatch.setattr(electrical, "_factor", no_factor)
    for value, reference in zip(values(), expected):
        assert value == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("n", [1000, 4000])
def test_noise_corrupted_cycles_peel_to_their_closed_form(n):
    # one leader tied by kappa = 1: every node's resistance to the
    # reference is r(u, 0) + 1, so the trace is (n^2 - 1) / 6 + n; the
    # trace route keeps the whole cycle, which the peel eliminates
    g = cl.build_cycle(n)
    expected = 0.5 * ((n * n - 1) / 6 + n)
    for method in ("trace", "resistance"):
        value = cl.coherence_nc(g, (0,), kappa=1.0, method=method).value
        assert abs(value - expected) <= 1e-11 * expected, (method, value, expected)


def test_single_leader_search_answers_match_the_dense_route(monkeypatch):
    # select-table's k = 1 families: random graphs with n/2 chords, weighted
    # and with unit weights (whose automorphisms make ties), a cycle and a
    # perfect tree, both dynamics
    rng = np.random.default_rng(2027)
    graphs = [random_connected_graph(rng, n, extra_edges=n // 2) for n in (170, 240, 320)]
    graphs += [random_connected_graph(rng, n, extra_edges=n // 2, weighted=False)
               for n in (180, 260)]
    graphs += [cl.build_cycle(300), cl.build_perfect_tree(3, 5).graph]
    for g in graphs:
        for dynamics, kappa in ((cl.NOISE_FREE, None), (cl.NOISE_CORRUPTED, 1.5)):
            results = []
            for break_even in (PEELED, DENSE):
                monkeypatch.setattr(electrical, "_PEEL_BREAK_EVEN", break_even)
                results.append(cl.brute_force_select(g, 1, dynamics, kappa=kappa))
            peeled, dense = results
            assert peeled.optimal_sets == dense.optimal_sets
            assert peeled.co_optimal_count == dense.co_optimal_count
            assert peeled.value == pytest.approx(dense.value, rel=1e-12)


def test_budget_admits_a_cycle_with_no_core(monkeypatch):
    # a 400-node system factored whole holds 1.28 MB; under a budget of a
    # 300-node matrix the dense route refuses the noise-corrupted trace
    # system of a 400-cycle, but the peel leaves nothing to factor
    n = 400
    g = cl.build_cycle(n)
    monkeypatch.setattr(electrical, "_TABLE_BUDGET", 8 * 300 * 300)
    value = cl.coherence_nc(g, (0,), kappa=1.0).value
    assert value == pytest.approx(0.5 * ((n * n - 1) / 6 + n), rel=1e-12)
    monkeypatch.setattr(electrical, "_PEEL_BREAK_EVEN", DENSE)
    with pytest.raises(BudgetExceededError, match="budget"):
        cl.coherence_nc(g, (0,), kappa=1.0)


def test_budget_refuses_a_core_past_it_before_assembly(monkeypatch):
    # the budget binds the core the peel leaves: one byte short of the
    # core's matrix is refused, with no matrix assembled and well under one
    # n x n array held; the exact size is admitted
    n = 600
    g = random_connected_graph(np.random.default_rng(2028), n, extra_edges=n // 2)
    _, diag, off = _grounded_entries(g, (0,))
    core = electrical._peel(diag.size, off[0], off[1]).core.size
    assert 0 < core < 0.6 * n
    expected = cl.brute_force_select(g, 1)
    monkeypatch.setattr(electrical, "_TABLE_BUDGET", 8 * core * core - 1)
    monkeypatch.setattr(electrical, "_dense", None)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="budget"):
            cl.brute_force_select(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 8 * n * n
    monkeypatch.setattr(electrical, "_TABLE_BUDGET", 8 * core * core)
    monkeypatch.setattr(electrical, "_dense", _dense)
    result = cl.brute_force_select(g, 1)
    assert (result.value, result.optimal_sets) == (expected.value, expected.optimal_sets)


# ---------------------------------------------------------------------------
# the peeled table: the factored table's route rule forced with
# _TABLE_BREAK_EVEN = 0 on graphs below it, and the whole factor as referee

def _series_parallel_dense(rng, n):
    """A series-parallel graph on n >= 7 nodes with more edges than nodes,
    so that ``resistance_oracle`` takes the factored table."""
    while True:
        g = _series_parallel(rng, n)
        if g.edge_count > n:
            return g


TABLE_FAMILIES = {
    "random, n/2 chords": FAMILIES["random, n/2 chords"],
    "weights 1e-3 to 1e3": FAMILIES["weights 1e-3 to 1e3"],
    "complete": _complete,
    "series-parallel": _series_parallel_dense,
}


def _tables(monkeypatch, g):
    """The table of ``g`` through the peel and through the whole factor,
    and eps ||L0||_1 ||G0||_1 of its system grounded at node 0."""
    tables = []
    for break_even in (PEELED, DENSE):
        monkeypatch.setattr(electrical, "_TABLE_BREAK_EVEN", break_even)
        tables.append(cl.resistance_oracle(g).table)
    _, diag, off = _grounded_entries(g, (0,))
    return (*tables, _scale(diag, off, electrical.grounded_solve(diag, off)[2]))


@pytest.mark.parametrize("family", sorted(TABLE_FAMILIES))
def test_peeled_tables_match_their_referees(family, monkeypatch):
    # up to 10 nodes against the exact table, above that against the whole
    # factor; each within 1e-12 of the largest entry, or within the
    # system's own forward-error scale where the weights spread over six
    # decades. Every table is exactly symmetric with a zero diagonal
    rng = np.random.default_rng([29, sorted(TABLE_FAMILIES).index(family)])
    for n in (7, 10, 40, 150):
        g = TABLE_FAMILIES[family](rng, n)
        assert g.edge_count > n
        _, diag, off = _grounded_entries(g, (0,))
        plan = electrical._peel(n - 1, off[0], off[1])
        if family == "complete":
            assert not plan.order
        if family == "series-parallel":
            assert plan.core.size == 0
        peeled, whole, scale = _tables(monkeypatch, g)
        assert np.array_equal(peeled, peeled.T)
        assert not np.diagonal(peeled).any()
        if n <= 10:
            exact = exact_table(g)
            referee = np.array([[float(x) for x in row] for row in exact])
            tol = max(1e-12, scale)
        else:
            referee, tol = whole, max(1e-12, 2.0 * scale)
        assert np.abs(peeled - referee).max() <= tol * referee.max(), (n, tol)


def test_series_parallel_tables_call_no_lapack(monkeypatch):
    # grounded at node 0 a series-parallel graph peels to nothing, so its
    # table factors no core
    rng = np.random.default_rng(2029)
    g = _series_parallel_dense(rng, 300)
    monkeypatch.setattr(electrical, "_TABLE_BREAK_EVEN", DENSE)
    expected = cl.resistance_oracle(g).table
    monkeypatch.setattr(electrical, "_TABLE_BREAK_EVEN", PEELED)

    def no_factor(*args, **kwargs):
        raise AssertionError("a core was factored")

    monkeypatch.setattr(electrical, "_factor", no_factor)
    table = cl.resistance_oracle(g).table
    assert np.abs(table - expected).max() <= 1e-12 * expected.max()


def test_pair_and_triple_searches_match_the_whole_factor(monkeypatch):
    # k = 2 and 3, both dynamics: the same optimal sets and co-optimal
    # counts from the peeled table as from the whole factor, on weighted
    # graphs, on unit weights (whose automorphisms make ties) and on a
    # series-parallel graph with no core
    rng = np.random.default_rng(2030)
    graphs = [random_connected_graph(rng, 60, extra_edges=30),
              stiff_graph(rng, 40, chords=20),
              random_connected_graph(rng, 50, extra_edges=25, weighted=False),
              _series_parallel_dense(rng, 45)]
    for g in graphs:
        for k in (2, 3):
            for dynamics, kappa in ((cl.NOISE_FREE, None), (cl.NOISE_CORRUPTED, 1.5)):
                results = []
                for break_even in (PEELED, DENSE):
                    monkeypatch.setattr(electrical, "_TABLE_BREAK_EVEN", break_even)
                    results.append(cl.brute_force_select(g, k, dynamics, kappa=kappa))
                peeled, whole = results
                assert peeled.optimal_sets == whole.optimal_sets
                assert peeled.co_optimal_count == whole.co_optimal_count
                assert peeled.value == pytest.approx(whole.value, rel=1e-12)


def test_table_reads_its_route_from_the_entries(monkeypatch):
    routes = route_counter(monkeypatch)
    assert electrical._TABLE_BREAK_EVEN <= 599
    # a 600-node graph with 300 chords: about half of its grounded nodes
    # peel, and only the core left is factored, with no solve eliminated
    g = random_connected_graph(np.random.default_rng(2031), 600, extra_edges=300)
    for compute in (lambda: cl.resistance_oracle(g), lambda: cl.brute_force_select(g, 2)):
        found = routes(compute)
        core = found.pop("factored")
        assert found == {"forest": 0, "peeled": 0, "rooted_forest": 0, "peel": 1,
                         "tables": ["peeled"]}
        assert len(core) == 1 and 0 < core[0] < 0.6 * 599, core
    # with 600 chords, or at 400 nodes with 200, too few nodes peel for the
    # table to pay, and the grounded system is factored whole with no peel
    for n, chords in ((600, 600), (400, 200)):
        dense = random_connected_graph(np.random.default_rng(2032), n, extra_edges=chords)
        assert routes(lambda: cl.resistance_oracle(dense)) == route(factored=[n - 1],
                                                                      tables=["lapack"])
    # at most one cycle: path sums over one spanning tree, with no factor
    assert routes(lambda: cl.resistance_oracle(cl.build_cycle(700))) == route(
        rooted_forest=1, tables=["path-sums"])
