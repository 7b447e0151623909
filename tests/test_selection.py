import itertools
import math

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab import electrical, selection
from coherence_lab.errors import (
    BadKappaError,
    BadParameterError,
    BudgetExceededError,
    DisconnectedGraphError,
)
from coherence_lab.selection import _kappa_reciprocals, _single_totals, _total_blocks

from conftest import (
    naive_nc_value,
    naive_nf_value,
    naive_two_leader_totals,
    random_connected_graph,
    random_tree,
    stiff_graph,
    sweep_pair_totals,
)


def test_cycle_six_two_leaders_antipodal():
    result = cl.brute_force_select(cl.build_cycle(6), 2)
    assert result.optimal_sets == ((0, 3), (1, 4), (2, 5))
    assert result.value == pytest.approx(4.0 / 3.0)
    assert result.co_optimal_count == 3
    assert result.evaluated_count == 15


def test_path_five_single_leader_center():
    result = cl.brute_force_select(cl.build_path(5), 1)
    assert result.optimal_sets == ((2,),)
    assert result.value == pytest.approx(naive_nf_value(cl.build_path(5), (2,)))


def test_binary_tree_two_leaders_geometry():
    # at height 4 exactly, the placements (d_xr=2, d_xy=4) and
    # (d_xr=1, d_xy=3) tie at 67/2: the closed form gives 22+72-32+5 = 67
    # for both, and the dense grounded inverse agrees. From height 5 up the
    # (2, 4) placement is strictly better (see the height-5 check below).
    ptree = cl.build_perfect_tree(2, 4)
    result = cl.brute_force_select(ptree.graph, 2)
    assert result.value == pytest.approx(33.5, abs=1e-9)
    assert result.evaluated_count == 465
    geoms = sorted(
        cl.tree_pair_geometry(ptree, *pair)[:3] for pair in result.optimal_sets
    )
    assert geoms == [(1, 2, 3)] * 4 + [(2, 2, 4)] * 4
    assert all(cl.tree_pair_geometry(ptree, *p)[3] == 0
               for p in result.optimal_sets)
    assert result.co_optimal_count == 8
    assert cl.tree_omega(2, 4, 1, 3) == cl.tree_omega(2, 4, 2, 4) == 67.0


def test_binary_tree_height_five_optimum_is_unique_geometry():
    ptree = cl.build_perfect_tree(2, 5)
    result = cl.brute_force_select(ptree.graph, 2)
    geoms = {cl.tree_pair_geometry(ptree, *pair)[:3]
             for pair in result.optimal_sets}
    assert geoms == {(2, 2, 4)}
    assert result.co_optimal_count == 4
    assert result.value == pytest.approx(95.5, abs=1e-9)


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        cl.brute_force_select(cl.build_cycle(20), 5, budget=100)


@pytest.mark.parametrize("budget", [None, "10", True, 2.5, 0, -1])
def test_budget_must_be_a_positive_integer(budget):
    with pytest.raises(BadParameterError, match="budget must be an integer"):
        cl.brute_force_select(cl.build_cycle(6), 2, budget=budget)


def test_budget_is_inclusive_and_takes_numpy_integers():
    g = cl.build_cycle(6)
    assert cl.brute_force_select(g, 2, budget=np.int64(15)).evaluated_count == 15
    with pytest.raises(BudgetExceededError, match="exceed the budget of 14"):
        cl.brute_force_select(g, 2, budget=14)


def test_parameter_validation():
    g = cl.build_cycle(5)
    for k in (0, 9, 2.0, 2.5, True, None):
        with pytest.raises(BadParameterError):
            cl.brute_force_select(g, k)
    assert cl.brute_force_select(g, np.int64(1)).optimal_sets == ((0,), (1,), (2,), (3,), (4,))
    for cap in (0, -1, 1.5, True, None):
        with pytest.raises(BadParameterError):
            cl.brute_force_select(g, 1, cap=cap)
    assert cl.brute_force_select(g, 1, cap=np.int64(2)).optimal_sets == ((0,), (1,))
    with pytest.raises(DisconnectedGraphError):
        cl.brute_force_select(cl.build_graph([(0, 1, 1.0)], node_count=3), 1)


def test_three_leader_search_matches_naive(rng):
    g = random_connected_graph(rng, 9, extra_edges=4)
    result = cl.brute_force_select(g, 3)
    values = {
        S: naive_nf_value(g, S) for S in itertools.combinations(range(9), 3)
    }
    best = min(values.values())
    assert result.value == pytest.approx(best, abs=1e-10)
    for S in result.optimal_sets:
        assert values[S] == pytest.approx(best, abs=1e-10)


def test_nc_two_leader_fast_path_matches_naive(rng):
    g = random_connected_graph(rng, 11, extra_edges=5)
    result = cl.brute_force_select(g, 2, dynamics=cl.NOISE_CORRUPTED, kappa=1.4)
    values = {
        S: naive_nc_value(g, S, 1.4) for S in itertools.combinations(range(11), 2)
    }
    best = min(values.values())
    assert result.value == pytest.approx(best, rel=1e-9)
    for S in result.optimal_sets:
        assert values[S] == pytest.approx(best, rel=1e-9)


def test_nc_single_and_triple(rng):
    g = random_connected_graph(rng, 8, extra_edges=3)
    for k in (1, 3):
        result = cl.brute_force_select(g, k, dynamics=cl.NOISE_CORRUPTED, kappa=0.7)
        best = min(
            naive_nc_value(g, S, 0.7) for S in itertools.combinations(range(8), k)
        )
        assert result.value == pytest.approx(best, rel=1e-9)


def test_all_singletons_co_optimal_on_cycle():
    result = cl.brute_force_select(cl.build_cycle(12), 1)
    assert result.co_optimal_count == 12
    assert len(result.optimal_sets) == 12
    values = [v for v in (naive_nf_value(cl.build_cycle(12), (i,))
                          for i in range(12))]
    spread = max(values) - min(values)
    assert spread <= 1e-12


def _relabelled_cycle(n, seed):
    perm = np.random.default_rng(seed).permutation(n)
    edges = [(int(perm[i]), int(perm[(i + 1) % n]), 1.0) for i in range(n)]
    return cl.build_graph(edges, node_count=n), perm


def test_every_node_of_a_large_relabelled_cycle_is_co_optimal():
    # grounding node 0 leaves a path, so one forest elimination scores every
    # node; its rounding spreads these equal values, and moves them off the
    # closed form, by ~5e-13 relative at n = 1200
    for n, seed in ((700, 11), (1200, 13)):
        g, _ = _relabelled_cycle(n, seed)
        result = cl.brute_force_select(g, 1)
        assert result.co_optimal_count == n
        assert result.value == pytest.approx(cl.cycle_nf_optimal(n, 1)[1], rel=1e-10)


def test_antipodal_pairs_of_a_large_relabelled_cycle_are_co_optimal():
    g, perm = _relabelled_cycle(600, 12)
    result = cl.brute_force_select(g, 2)
    assert result.co_optimal_count == 300
    antipodal = sorted(tuple(sorted((int(perm[i]), int(perm[i + 300]))))
                       for i in range(300))
    assert list(result.optimal_sets) == antipodal
    assert result.value == pytest.approx(cl.cycle_nf_optimal(600, 2)[1], rel=1e-10)


def test_repeated_search_is_deterministic():
    g = cl.build_cycle(10)
    first = cl.brute_force_select(g, 3)
    second = cl.brute_force_select(g, 3)
    third = cl.brute_force_select(g, 3)
    assert first.optimal_sets == second.optimal_sets == third.optimal_sets
    assert first.value == second.value == third.value
    assert first.evaluated_count == second.evaluated_count


def test_growing_optimal_set_never_increases_value(rng):
    g = random_connected_graph(rng, 10, extra_edges=4)
    result = cl.brute_force_select(g, 2)
    base = result.value
    for extra in range(10):
        S = set(result.optimal_sets[0])
        if extra in S:
            continue
        assert cl.coherence_nf(g, S | {extra}).value <= base + 1e-12


def test_two_leader_fast_path_matches_direct_solves(rng):
    g = random_connected_graph(rng, 12, extra_edges=6)
    result = cl.brute_force_select(g, 2)
    direct = {
        S: naive_nf_value(g, S) for S in itertools.combinations(range(12), 2)
    }
    assert result.value == pytest.approx(min(direct.values()), abs=1e-9)


# ---------------------------------------------------------------------------
# k = 1: one grounded solve, no table

@pytest.mark.parametrize("dynamics", [cl.NOISE_FREE, cl.NOISE_CORRUPTED])
def test_single_leader_totals_match_the_table_column_sums(rng, dynamics):
    # paths, trees and cycles (a cycle grounded at node 0 is a path) take
    # forest elimination, the others the dense factor; weights in [0.2, 3],
    # and 10^+-3 on the stiff graph. On stiff trees and one-cycle graphs
    # the table's path sums are more accurate than elimination, so the
    # exact referee of test_exact.py judges those
    graphs = [cl.build_graph([], node_count=1), cl.build_graph([(0, 1, 0.3)]),
              cl.build_path(40), random_tree(rng, 50), cl.build_perfect_tree(3, 3).graph,
              cl.build_cycle(30), _relabelled_cycle(45, 3)[0],
              random_connected_graph(rng, 40, extra_edges=1),
              random_connected_graph(rng, 60, extra_edges=50), stiff_graph(rng)]
    for g in graphs:
        n = g.node_count
        expected = cl.resistance_oracle(g).column_sums()
        recip = None
        if dynamics == cl.NOISE_CORRUPTED:
            kappa = {v: float(rng.uniform(0.3, 5.0)) for v in range(0, n, 2)}
            recip = _kappa_reciprocals(kappa, n, 1)
            expected = expected + n * recip[0]
        np.testing.assert_allclose(_single_totals(g, recip), expected,
                                   rtol=1e-12, atol=0.0)


def test_single_leader_search_builds_no_table(rng, monkeypatch):
    graphs = [cl.build_cycle(9), random_connected_graph(rng, 12, extra_edges=8)]
    expected = [cl.brute_force_select(g, 1, d, 1.5) for g in graphs
                for d in (cl.NOISE_FREE, cl.NOISE_CORRUPTED)]

    def no_table(*args, **kwargs):
        raise AssertionError("a k = 1 search built a resistance table")

    monkeypatch.setattr(selection, "resistance_oracle", no_table)
    monkeypatch.setattr(cl.ResistanceOracle, "__init__", no_table)
    got = [cl.brute_force_select(g, 1, d, 1.5) for g in graphs
           for d in (cl.NOISE_FREE, cl.NOISE_CORRUPTED)]
    for a, b in zip(got, expected):
        assert (a.optimal_sets, a.co_optimal_count, a.value) == \
            (b.optimal_sets, b.co_optimal_count, b.value)


# ---------------------------------------------------------------------------
# the k = 2 pair sweep

def test_two_leader_totals_against_profile_sums(rng):
    # the stiff family spreads weights over 10^+-3
    for g in (random_connected_graph(rng, 14, extra_edges=7), stiff_graph(rng, 14, 7)):
        oracle = cl.resistance_oracle(g)
        T = sweep_pair_totals(oracle)
        for x in range(14):
            for y in range(x + 1, 14):
                expected = oracle.set_totals([[x, y]])[0]
                assert T[x, y] == pytest.approx(expected, rel=1e-10)
    # noise-corrupted: a mapping gives each node its own kappa, 1 if unset
    kappa = {v: float(10.0 ** rng.uniform(-2.0, 2.0)) for v in range(0, 14, 2)}
    recip = _kappa_reciprocals(kappa, 14, 2)
    T = sweep_pair_totals(oracle, recip)
    for x in range(14):
        for y in range(x + 1, 14):
            inv_kappa = recip[[0, 1], [x, y]][None]
            expected = oracle.set_totals([[x, y]], inv_kappa)[0]
            assert T[x, y] == pytest.approx(expected, rel=1e-10)
            assert 0.5 * T[x, y] == pytest.approx(naive_nc_value(g, (x, y), kappa),
                                                  rel=1e-9)


def test_pair_sweep_row_blocks_change_no_bit(rng, monkeypatch):
    oracle = cl.resistance_oracle(stiff_graph(rng, 23, 12))
    recip = _kappa_reciprocals(0.3, 23, 2)
    whole = [sweep_pair_totals(oracle), sweep_pair_totals(oracle, recip)]
    # 4-row blocks of 23 columns: the last block is ragged (3 rows)
    monkeypatch.setattr(electrical, "_BLOCK_FLOATS", 4 * 23)
    assert np.array_equal(sweep_pair_totals(oracle), whole[0])
    assert np.array_equal(sweep_pair_totals(oracle, recip), whole[1])


def test_pinned_pair_rounding_bound_is_the_sum_of_its_terms(rng):
    # the noise-free total (cs_x + cs_y)/2 - ((q_x + q_y - 2 Q_xy)/r_xy +
    # n r_xy)/4 has only positive quantities, so the absolute values of its
    # terms sum to (cs_x + cs_y)/2 + ((q_x + q_y + 2 Q_xy)/r_xy + n r_xy)/4
    R = cl.resistance_oracle(stiff_graph(rng, 23, 12)).table
    n = R.shape[0]
    Q = R @ R
    q, cs = np.diag(Q).copy(), R.sum(axis=0)
    T, scratch, bound = Q.copy(), np.empty((n, n)), np.empty((n, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        selection._pair_rows(T, R, q, q, cs, cs, n, scratch, bound)
    x, y = np.triu_indices(n, 1)
    r = R[x, y]
    expected = (cs[x] + cs[y]) / 2 + ((q[x] + q[y] + 2 * Q[x, y]) / r + n * r) / 4
    np.testing.assert_allclose(bound[x, y], expected, rtol=1e-13)
    total = (cs[x] + cs[y]) / 2 - ((q[x] + q[y] - 2 * Q[x, y]) / r + n * r) / 4
    np.testing.assert_allclose(T[x, y], total, rtol=1e-9)


def _kappa_case(rng, kind, n):
    """A kappa of each kind the search reads: one scalar, one weight per
    node (a mapping, 1 where unset) or one per position of the pair."""
    if kind == "scalar":
        return 0.3
    if kind == "mapping":
        return {v: float(10.0 ** rng.uniform(-2.0, 2.0)) for v in range(0, n, 2)}
    return [0.05, 20.0]


@pytest.mark.parametrize("kind", ["scalar", "mapping", "list"])
def test_nc_pair_sweep_matches_set_totals(rng, kind):
    # the sweep scores a noise-corrupted pair as the pinned pair of its
    # leaders moved out along their 1/kappa resistors; set_totals takes
    # Schur steps on the table with the 1/kappa on the pivots
    for g in (random_connected_graph(rng, 17, extra_edges=9), stiff_graph(rng, 17, 9)):
        n = g.node_count
        oracle = cl.resistance_oracle(g)
        recip = _kappa_reciprocals(_kappa_case(rng, kind, n), n, 2)
        T = sweep_pair_totals(oracle, recip)
        pairs = np.column_stack(np.triu_indices(n, 1))
        expected = oracle.set_totals(pairs, recip[[0, 1], pairs])
        np.testing.assert_allclose(T[pairs[:, 0], pairs[:, 1]], expected, rtol=1e-9)


@pytest.mark.parametrize("kind", ["mapping", "list"])
def test_nc_pair_rounding_bound_is_the_total_plus_twice_its_subtracted_terms(
        rng, monkeypatch, kind):
    # with a = 1/kappa_x and b = 1/kappa_y the moved leaders have the sums
    # c = cs + n a, q' = q + a (2 cs + n a), Q'_xy = Q_xy + a c_y + cs_x b and
    # r' = r_xy + a + b, all positive; the total subtracts only
    # (q'_x + q'_y) / (4 r') + n r' / 4, so the absolute values of its terms
    # sum to the total plus twice those two
    oracle = cl.resistance_oracle(stiff_graph(rng, 23, 12))
    R = oracle.table
    n = R.shape[0]
    recip = _kappa_reciprocals(_kappa_case(rng, kind, n), n, 2)
    seen = []
    too_wide = selection._too_wide

    def spy(bound, total, scratch):
        seen.append((bound.copy(), total.copy()))
        return too_wide(bound, total, scratch)

    monkeypatch.setattr(selection, "_too_wide", spy)
    for _ in selection._pair_blocks(oracle, recip):
        pass
    assert len(seen) == 1
    bound, total = seen[0]
    a, b = recip
    cs = R.sum(axis=0)
    Q = R @ R
    q = np.diag(Q)
    c_x, c_y = cs + n * a, cs + n * b
    q_x, q_y = q + a * (2 * cs + n * a), q + b * (2 * cs + n * b)
    x, y = np.triu_indices(n, 1)
    Q_xy = Q[x, y] + a[x] * c_y[y] + cs[x] * b[y]
    r = R[x, y] + a[x] + b[y]
    subtracted = (q_x[x] + q_y[y]) / (4 * r) + n * r / 4
    np.testing.assert_allclose(bound[x, y], total[x, y] + 2 * subtracted, rtol=1e-13)
    terms = (c_x[x] + c_y[y]) / 2 + (q_x[x] + q_y[y] + 2 * Q_xy) / (4 * r) + n * r / 4
    np.testing.assert_allclose(bound[x, y], terms, rtol=1e-13)


@pytest.mark.parametrize("n", [3, 14, 200])
def test_pair_sweep_matches_the_formula(rng, n):
    # stiff weights over 10^+-3; at n = 200 the sweep runs in two row blocks
    oracle = cl.resistance_oracle(stiff_graph(rng, n, chords=n))
    T = sweep_pair_totals(oracle)
    assert electrical._block_rows(200) < 200
    assert np.all(np.isinf(T[np.tril_indices(n)]))
    upper = np.triu_indices(n, 1)
    expected = naive_two_leader_totals(oracle.table)[upper]
    np.testing.assert_allclose(T[upper], expected, rtol=1e-9)


# ---------------------------------------------------------------------------
# the resistance-table evaluator against plain-inverse oracles

def _all_values(g, k, dynamics, kappa):
    """Every size-k value of the search, by set, in the order the search
    produced them: k = 1 from its one grounded solve, every larger k from
    the table's sweep."""
    recip = (_kappa_reciprocals(kappa, g.node_count, k)
             if dynamics == cl.NOISE_CORRUPTED else None)
    if k == 1:
        return {(v,): 0.5 * total
                for v, total in enumerate(_single_totals(g, recip).tolist())}
    oracle = cl.resistance_oracle(g)
    out = {}
    for totals, sets_at in _total_blocks(oracle, k, recip):
        held = np.nonzero(np.isfinite(totals))
        for S, v in zip(sets_at(held).tolist(), totals[held].tolist()):
            out[tuple(S)] = 0.5 * v
    return out


def _naive_search(g, k, value):
    """Every size-k value by the oracle, the optimum, and the optimal sets
    in lexicographic order."""
    values = {S: value(S) for S in itertools.combinations(range(g.node_count), k)}
    best = min(values.values())
    window = 1e-9 * max(1.0, abs(best))
    sets = tuple(S for S, v in values.items() if v <= best + window)
    return values, best, sets


def _assert_matches_naive(g, k, dynamics, kappa, value):
    values, best, sets = _naive_search(g, k, value)
    result = cl.brute_force_select(g, k, dynamics=dynamics, kappa=kappa)
    assert result.value == pytest.approx(best, rel=1e-9, abs=1e-9)
    assert result.optimal_sets == sets
    assert result.co_optimal_count == len(sets)
    assert result.evaluated_count == len(values)
    return values


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_table_evaluator_nf_matches_naive(rng, k):
    for n, extra in ((9, 4), (11, 7)):
        g = random_connected_graph(rng, n, extra_edges=extra)
        _assert_matches_naive(g, k, cl.NOISE_FREE, None,
                              lambda S: naive_nf_value(g, S))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_table_evaluator_nc_matches_naive(rng, k):
    for n, extra, kappa in ((9, 4, 0.6), (11, 7, 2.5)):
        g = random_connected_graph(rng, n, extra_edges=extra)
        _assert_matches_naive(g, k, cl.NOISE_CORRUPTED, kappa,
                              lambda S: naive_nc_value(g, S, kappa))


@pytest.mark.parametrize("dynamics", [cl.NOISE_FREE, cl.NOISE_CORRUPTED])
def test_table_evaluator_cycle_ties_match_naive(dynamics):
    g = cl.build_cycle(12)
    for k in (3, 4):
        def value(S):
            if dynamics == cl.NOISE_FREE:
                return naive_nf_value(g, S)
            return naive_nc_value(g, S, 1.0)

        _assert_matches_naive(g, k, dynamics, None, value)


@pytest.mark.parametrize("dynamics", [cl.NOISE_FREE, cl.NOISE_CORRUPTED])
def test_table_evaluator_stiff_weights(rng, dynamics):
    g = stiff_graph(rng)
    for k in (1, 2, 3, 4):
        def value(S):
            if dynamics == cl.NOISE_FREE:
                return naive_nf_value(g, S)
            return naive_nc_value(g, S, 3.0)

        expect = _assert_matches_naive(g, k, dynamics, 3.0, value)
        got = _all_values(g, k, dynamics, 3.0)
        assert list(got) == list(expect)
        for S, v in got.items():
            assert v == pytest.approx(expect[S], rel=1e-9)


def test_table_evaluator_kappa_mapping(rng):
    g = random_connected_graph(rng, 9, extra_edges=4)
    kappa = {v: float(rng.uniform(0.3, 5.0)) for v in range(0, 9, 2)}
    for k in (1, 2, 3):
        _assert_matches_naive(g, k, cl.NOISE_CORRUPTED, kappa,
                              lambda S: naive_nc_value(g, S, kappa))


def test_table_evaluator_kappa_list_follows_sorted_positions(rng):
    g = random_connected_graph(rng, 9, extra_edges=4)
    for weights in ([0.4], [0.5, 4.0], [3.0, 0.2, 1.5]):
        def value(S):
            return naive_nc_value(g, S, dict(zip(S, weights)))

        _assert_matches_naive(g, len(weights), cl.NOISE_CORRUPTED, weights, value)


def test_table_evaluator_single_node():
    g = cl.build_graph([], node_count=1)
    nf = cl.brute_force_select(g, 1)
    assert nf.value == 0.0
    assert nf.optimal_sets == ((0,),)
    nc = cl.brute_force_select(g, 1, dynamics=cl.NOISE_CORRUPTED, kappa=2.0)
    assert nc.value == pytest.approx(naive_nc_value(g, (0,), 2.0))
    assert nc.optimal_sets == ((0,),)
    assert nc.co_optimal_count == 1


def test_all_leaders_nf_is_exactly_zero(rng):
    for n in range(2, 8):
        g = random_connected_graph(rng, n, extra_edges=n // 2)
        result = cl.brute_force_select(g, n)
        assert result.value == 0.0
        assert math.copysign(1.0, result.value) == 1.0
        assert result.optimal_sets == (tuple(range(n)),)
        assert result.co_optimal_count == 1
        nc = cl.brute_force_select(g, n, dynamics=cl.NOISE_CORRUPTED, kappa=1.5)
        assert nc.value == pytest.approx(naive_nc_value(g, range(n), 1.5), rel=1e-9)


@pytest.mark.parametrize("kappa", [0.0, -1.0, float("nan"), float("inf"),
                                   {3: -2.0}, {0: float("nan")},
                                   [1.0, 0.0, 2.0], [1.0, 2.0]])
def test_table_evaluator_bad_kappa(kappa):
    g = cl.build_cycle(6)
    with pytest.raises(BadKappaError):
        cl.brute_force_select(g, 3, dynamics=cl.NOISE_CORRUPTED, kappa=kappa)


@pytest.mark.parametrize("dynamics", [cl.NOISE_FREE, cl.NOISE_CORRUPTED])
@pytest.mark.parametrize("kappa", [None, 2.5, "mapping"])
def test_best_single_leader_agrees_with_search(rng, dynamics, kappa):
    graphs = [cl.build_cycle(n) for n in (5, 8, 13)]
    graphs += [random_connected_graph(rng, n, extra_edges=n // 3)
               for n in (6, 10, 17)]
    for g in graphs:
        if kappa == "mapping":
            weights = {v: float(rng.uniform(0.5, 3.0))
                       for v in range(0, g.node_count, 3)}
        else:
            weights = kappa
        best = cl.brute_force_select(g, 1, dynamics, weights, cap=1).optimal_sets[0][0]
        search = cl.brute_force_select(g, 1, dynamics, weights)
        assert best == search.optimal_sets[0][0]
        if dynamics == cl.NOISE_FREE:
            report = cl.coherence_nf(g, (best,))
        else:
            report = cl.coherence_nc(g, (best,), kappa=weights)
        assert report.value == pytest.approx(search.value, rel=1e-9)


# ---------------------------------------------------------------------------
# the prefix sweep: plain-inverse oracles, rounding rechecks, ties, blocks

@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("dynamics", [cl.NOISE_FREE, cl.NOISE_CORRUPTED])
def test_prefix_sweep_stiff_weights_match_plain_inverse(rng, dynamics, k):
    # weights over 10^+-3; the noise-corrupted case weighs each position
    # of a sorted set by its own kappa
    g = stiff_graph(rng, 11, 8)
    weights = [0.4, 7.0, 1.5, 60.0, 0.05][:k]
    if dynamics == cl.NOISE_FREE:
        kappa = None

        def value(S):
            return naive_nf_value(g, S)
    else:
        kappa = weights

        def value(S):
            return naive_nc_value(g, S, dict(zip(S, weights)))

    expect = _assert_matches_naive(g, k, dynamics, kappa, value)
    got = _all_values(g, k, dynamics, kappa)
    assert list(got) == list(expect)
    for S, v in got.items():
        assert v == pytest.approx(expect[S], rel=1e-9)


def _recomputed_sets(monkeypatch, k):
    """Record every size-k set that the sweep hands to ``set_totals``."""
    seen = []
    set_totals = cl.ResistanceOracle.set_totals

    def spy(self, sets, inv_kappa=None):
        sets = np.asarray(sets)
        if sets.shape[1] == k:
            seen.extend(tuple(S) for S in sets.tolist())
        return set_totals(self, sets, inv_kappa)

    monkeypatch.setattr(cl.ResistanceOracle, "set_totals", spy)
    return seen


def test_wide_rounding_bounds_are_recomputed(rng, monkeypatch):
    # on this stiff graph (weights 10^+-3) the Gram expansion of 28 of the
    # 220 triples cancels past the recheck threshold
    g = stiff_graph(rng, 12, 6)
    oracle = cl.resistance_oracle(g)
    sets = list(itertools.combinations(range(12), 3))
    direct = dict(zip(sets, 0.5 * oracle.set_totals(sets)))
    recomputed = _recomputed_sets(monkeypatch, 3)
    got = _all_values(g, 3, cl.NOISE_FREE, None)
    assert 0 < len(recomputed) < len(sets)
    for S in recomputed:
        assert got[S] == direct[S]
    for S in sets:
        assert got[S] == pytest.approx(naive_nf_value(g, S), rel=1e-9)
    result = cl.brute_force_select(g, 3)
    # with the threshold at 0 every set is recomputed
    monkeypatch.setattr(selection, "_RECHECK", 0.0)
    recomputed.clear()
    assert _all_values(g, 3, cl.NOISE_FREE, None) == direct
    assert sorted(recomputed) == sets
    again = cl.brute_force_select(g, 3)
    assert again.optimal_sets == result.optimal_sets
    assert again.co_optimal_count == result.co_optimal_count
    assert again.value == pytest.approx(result.value, rel=1e-12)


@pytest.mark.parametrize("dynamics, kappa", [(cl.NOISE_FREE, None),
                                             (cl.NOISE_CORRUPTED, 3.0)],
                         ids=["nf", "nc"])
def test_wide_pair_rounding_bounds_are_recomputed(rng, monkeypatch, dynamics, kappa):
    # on this stiff graph (weights 10^+-3) the pair sweep's rounding bound
    # sends some of the 66 pairs to set_totals: 21 noise-free, 1
    # noise-corrupted
    g = stiff_graph(rng, 12, 6)
    oracle = cl.resistance_oracle(g)
    pairs = list(itertools.combinations(range(12), 2))
    inv_kappa = None
    if dynamics == cl.NOISE_CORRUPTED:
        inv_kappa = _kappa_reciprocals(kappa, 12, 2)[[0, 1], np.array(pairs)]
    direct = dict(zip(pairs, 0.5 * oracle.set_totals(pairs, inv_kappa)))
    recomputed = _recomputed_sets(monkeypatch, 2)
    got = _all_values(g, 2, dynamics, kappa)
    assert 0 < len(recomputed) < len(pairs)
    for S in recomputed:
        assert got[S] == direct[S]
    for S in pairs:
        if dynamics == cl.NOISE_FREE:
            expected = naive_nf_value(g, S)
        else:
            expected = naive_nc_value(g, S, kappa)
        assert got[S] == pytest.approx(expected, rel=1e-9)
    result = cl.brute_force_select(g, 2, dynamics, kappa)
    # with the threshold at 0 every pair is recomputed
    monkeypatch.setattr(selection, "_RECHECK", 0.0)
    recomputed.clear()
    assert _all_values(g, 2, dynamics, kappa) == direct
    assert sorted(recomputed) == pairs
    again = cl.brute_force_select(g, 2, dynamics, kappa)
    assert again.optimal_sets == result.optimal_sets
    assert again.co_optimal_count == result.co_optimal_count
    assert again.value == pytest.approx(result.value, rel=1e-12)


def test_complete_graph_ties_every_triple_and_cap_keeps_the_first():
    g = cl.build_graph([(u, v, 1.0) for u, v in itertools.combinations(range(8), 2)])
    triples = tuple(itertools.combinations(range(8), 3))
    result = cl.brute_force_select(g, 3)
    assert result.co_optimal_count == 56
    assert result.optimal_sets == triples
    assert result.value == pytest.approx(naive_nf_value(g, (0, 1, 2)), rel=1e-12)
    capped = cl.brute_force_select(g, 3, cap=10)
    assert capped.co_optimal_count == 56
    assert capped.optimal_sets == triples[:10]


def test_ties_spread_over_runs_come_out_in_lexicographic_order():
    # K_32 at k = 3 is one group of 30 prefixes whose sets split into
    # runs of rows s; cap keeps the first 1000 of the 4960 ties
    g = cl.build_graph([(u, v, 1.0) for u, v in itertools.combinations(range(32), 2)])
    result = cl.brute_force_select(g, 3)
    assert result.co_optimal_count == 4960
    assert result.optimal_sets == tuple(itertools.combinations(range(32), 3))[:1000]
    # a star with its hub labelled last: every triple holding the hub ties
    star = cl.build_graph([(leaf, 39, 1.0) for leaf in range(39)])
    result = cl.brute_force_select(star, 3)
    expected = tuple(S for S in itertools.combinations(range(40), 3) if 39 in S)
    assert result.co_optimal_count == len(expected) == 741
    assert result.optimal_sets == expected


@pytest.mark.parametrize("k", [3, 4])
def test_short_runs_of_grouped_prefixes_keep_lexicographic_order(monkeypatch, k):
    # groups of many prefixes, as at the default block size, scored five
    # sets at a time
    monkeypatch.setattr(selection, "_SETS_PER_BLOCK", 5)
    g = cl.build_graph([(u, v, 1.0) for u, v in itertools.combinations(range(11), 2)])
    sets = tuple(itertools.combinations(range(11), k))
    result = cl.brute_force_select(g, k, cap=len(sets))
    assert result.co_optimal_count == len(sets)
    assert result.optimal_sets == sets
    star = cl.build_graph([(leaf, 10, 1.0) for leaf in range(10)])
    result = cl.brute_force_select(star, k, dynamics=cl.NOISE_CORRUPTED, kappa=2.0)
    assert result.optimal_sets == tuple(S for S in sets if 10 in S)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_block_sizes_change_no_set_or_count(rng, monkeypatch, k):
    graphs = [cl.build_cycle(14), random_connected_graph(rng, 13, extra_edges=6)]
    runs = [(cl.NOISE_FREE, None), (cl.NOISE_CORRUPTED, 1.7)]
    expected = [cl.brute_force_select(g, k, d, kappa)
                for g in graphs for d, kappa in runs]
    # two-row blocks of the pair sweep; one prefix per group, its Gram
    # matrix summed over three-row blocks; five sets scored at a time
    monkeypatch.setattr(electrical, "_BLOCK_FLOATS", 40)
    monkeypatch.setattr(selection, "_BLOCK_FLOATS", 40)
    monkeypatch.setattr(selection, "_SETS_PER_BLOCK", 5)
    got = [cl.brute_force_select(g, k, d, kappa)
           for g in graphs for d, kappa in runs]
    for a, b in zip(got, expected):
        assert a.optimal_sets == b.optimal_sets
        assert a.co_optimal_count == b.co_optimal_count
        assert a.evaluated_count == b.evaluated_count
        assert a.value == pytest.approx(b.value, rel=1e-12)
