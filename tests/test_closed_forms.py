import itertools

import pytest

import coherence_lab as cl
from coherence_lab.errors import (
    BadGapVectorError,
    BadGeometryError,
    BadParameterError,
    OddCycleLengthError,
)

from conftest import naive_nf_value


# ---------------------------------------------------------------------------
# cycles


def test_cycle_formula_spot_values():
    assert cl.cycle_nf_coherence((2, 2), n=4) == pytest.approx(0.5)
    assert cl.cycle_nf_coherence((5,)) == pytest.approx(2.0)  # (25 - 1) / 12
    assert cl.cycle_nf_coherence((1,) * 8) == 0.0


def test_cycle_formula_validation():
    with pytest.raises(BadGapVectorError):
        cl.cycle_nf_coherence(())
    with pytest.raises(BadGapVectorError):
        cl.cycle_nf_coherence((2, 0))
    with pytest.raises(BadGapVectorError):
        cl.cycle_nf_coherence((2, 2), n=5)
    with pytest.raises(BadGapVectorError):
        cl.cycle_nf_coherence((1, 1))  # sums to 2, no such cycle


def test_cycle_formula_matches_trace_small():
    for n in range(3, 13):
        g = cl.build_cycle(n)
        for k in range(1, 4):
            for leaders in itertools.combinations(range(n), k):
                gaps = cl.gaps_from_cycle_leaders(n, leaders)
                formula = cl.cycle_nf_coherence(gaps, n=n)
                assert formula == pytest.approx(
                    naive_nf_value(g, leaders), abs=1e-9)


def test_cycle_optimal_even_split():
    gaps, value = cl.cycle_nf_optimal(6, 2)
    assert sorted(gaps) == [3, 3]
    assert value == pytest.approx(4.0 / 3.0)


def test_cycle_optimal_uneven_split():
    gaps, value = cl.cycle_nf_optimal(7, 2)
    assert sorted(gaps) == [3, 4]
    assert value == pytest.approx((9 + 16 - 2) / 12.0)


def test_cycle_optimal_every_node_leads():
    gaps, value = cl.cycle_nf_optimal(8, 8)
    assert gaps == (1,) * 8
    assert value == 0.0


def test_cycle_optimal_matches_exhaustive(rng):
    for n in range(3, 11):
        g = cl.build_cycle(n)
        for k in range(1, min(4, n) + 1):
            _, value = cl.cycle_nf_optimal(n, k)
            best = min(
                naive_nf_value(g, S)
                for S in itertools.combinations(range(n), k)
            )
            assert value == pytest.approx(best, abs=1e-9)


def test_cycle_gap_round_trips():
    leaders = cl.cycle_leaders_from_gaps((3, 2, 3))
    assert leaders == (0, 3, 5)
    assert cl.gaps_from_cycle_leaders(8, leaders) == (3, 2, 3)


def test_canonical_gap_rotation():
    assert cl.canonical_gap_rotation((3, 2, 3)) == (2, 3, 3)
    assert cl.canonical_gap_rotation((1, 1, 1)) == (1, 1, 1)


# ---------------------------------------------------------------------------
# paths


def test_path_formula_spot_values():
    assert cl.path_nf_coherence((1, 1)) == pytest.approx(1.0)
    assert cl.path_nf_coherence((1, 1, 1)) == pytest.approx(1.0)
    assert cl.path_nf_coherence((1, 2, 1)) == pytest.approx(1.25)


def test_path_formula_symmetric_under_reversal():
    assert cl.path_nf_coherence((0, 3, 2)) == pytest.approx(
        cl.path_nf_coherence((2, 3, 0)))


def test_path_formula_validation():
    with pytest.raises(BadGapVectorError):
        cl.path_nf_coherence((2,))
    with pytest.raises(BadGapVectorError):
        cl.path_nf_coherence((1, 0, 1))  # interior gap of zero
    with pytest.raises(BadGapVectorError):
        cl.path_nf_coherence((-1, 2))


def test_path_formula_matches_trace_small():
    for n in range(2, 13):
        g = cl.build_path(n)
        for k in range(1, 4):
            if k > n:
                continue
            for leaders in itertools.combinations(range(n), k):
                gaps = cl.gaps_from_path_leaders(n, leaders)
                assert cl.path_nf_coherence(gaps) == pytest.approx(
                    naive_nf_value(g, leaders), abs=1e-9)


def test_path_single_leader_boundary_formula():
    # one leader: value reduces to (a^2 + b^2 + a + b) / 4 over the two arms
    for total in range(1, 20):
        for a in range(total + 1):
            b = total - a
            expected = (a * a + b * b + a + b) / 4.0
            assert cl.path_nf_coherence((a, b)) == pytest.approx(expected)
            g = cl.build_path(total + 1)
            assert cl.path_nf_coherence((a, b)) == pytest.approx(
                naive_nf_value(g, (a,)), abs=1e-9)


def test_path_gap_round_trips():
    gaps = cl.gaps_from_path_leaders(5, (1, 3))
    assert gaps == (1, 2, 1)
    assert cl.path_leaders_from_gaps(gaps) == (1, 3)


@pytest.mark.parametrize("call, error", [
    (lambda: cl.path_leaders_from_gaps([-3, 2, 1]), BadGapVectorError),
    (lambda: cl.path_leaders_from_gaps([0, 0, 0]), BadGapVectorError),
    (lambda: cl.path_leaders_from_gaps([1.5, 2, 1]), BadGapVectorError),
    (lambda: cl.path_leaders_from_gaps([0, 0]), BadGapVectorError),
    (lambda: cl.gaps_from_path_leaders(5, [1.7, 3]), BadParameterError),
    (lambda: cl.gaps_from_cycle_leaders(6, [True, 3]), BadParameterError),
    (lambda: cl.cycle_nf_coherence([float("inf"), 3]), BadGapVectorError),
    (lambda: cl.path_nf_coherence([float("nan"), 3]), BadGapVectorError),
    (lambda: cl.cycle_nf_coherence([True, 2]), BadGapVectorError),
    (lambda: cl.path_leaders_from_gaps([0, True, 0]), BadGapVectorError),
    (lambda: cl.path_nf_coherence([False, 1, True]), BadGapVectorError),
], ids=["negative-end", "zero-interior", "fractional-gap", "one-node",
        "fractional-leader", "bool-leader", "infinite-gap", "nan-gap",
        "bool-cycle-gap", "bool-path-interior", "bool-path-ends"])
def test_gap_and_leader_helpers_reject_bad_input(call, error):
    with pytest.raises(error):
        call()


def test_path_optimal_three_one():
    gaps, value = cl.path_nf_optimal(3, 1)
    assert gaps == (1, 1)
    assert value == pytest.approx(1.0)
    assert cl.path_leaders_from_gaps(gaps) == (1,)


def test_path_optimal_all_leaders():
    gaps, value = cl.path_nf_optimal(6, 6)
    assert gaps == (0, 1, 1, 1, 1, 1, 0)
    assert value == 0.0


def test_path_optimal_matches_exhaustive():
    for n in range(2, 13):
        g = cl.build_path(n)
        for k in range(1, min(4, n) + 1):
            gaps, value = cl.path_nf_optimal(n, k)
            values = {
                S: naive_nf_value(g, S)
                for S in itertools.combinations(range(n), k)
            }
            best = min(values.values())
            assert value == pytest.approx(best, abs=1e-9)
            leaders = cl.path_leaders_from_gaps(gaps)
            assert values[leaders] == pytest.approx(best, abs=1e-9)


def test_path_round_construction_needs_post_hoc_check():
    # the rounding construction can satisfy its divisibility conditions yet
    # miss the optimum (n=10, k=2: symmetric (2,5,2) loses to (2,6,1)),
    # which is why it is only a guarded fast path
    construction = cl.path_nf_round_construction(10, 2)
    assert construction == (2, 5, 2)
    _, best = cl.path_nf_optimal(10, 2)
    assert cl.path_nf_coherence(construction) > best
    # and on sizes where the conditions truly hold it reproduces the optimum
    agreements = 0
    for n in range(2, 15):
        for k in range(1, min(5, n) + 1):
            construction = cl.path_nf_round_construction(n, k)
            if construction is None:
                continue
            gaps, best = cl.path_nf_optimal(n, k)
            if cl.path_nf_coherence(construction) == pytest.approx(best, abs=1e-12):
                agreements += 1
    assert agreements > 10


# ---------------------------------------------------------------------------
# trees


def test_tree_omega_anchor_values():
    assert cl.tree_omega(2, 4, 2, 4) == pytest.approx(67.0)
    assert cl.tree_two_leader_coherence(2, 4, 2, 4) == pytest.approx(33.5)
    assert cl.tree_two_leader_coherence(3, 4, 1, 2) == pytest.approx(183.25)
    assert cl.tree_two_leader_coherence(4, 4, 0, 1) == pytest.approx(583.5)


def test_tree_omega_symmetry():
    for (dxr, dxy) in ((0, 3), (1, 4), (2, 5), (1, 2)):
        assert cl.tree_omega(2, 5, dxr, dxy) == pytest.approx(
            cl.tree_omega(2, 5, dxy - dxr, dxy), rel=1e-12)


def test_tree_omega_validation():
    with pytest.raises(BadGeometryError):
        cl.tree_omega(2, 3, 4, 5)  # leader deeper than the tree
    with pytest.raises(BadGeometryError):
        cl.tree_omega(2, 3, 0, 7)  # other leader would sit below the leaves
    with pytest.raises(BadGeometryError):
        cl.tree_omega(2, 3, 3, 2)
    with pytest.raises(BadGeometryError):
        cl.tree_omega(2, 0, 0, 1)


def test_tree_omega_matches_trace_small():
    for M, h in ((2, 2), (2, 3), (3, 2)):
        ptree = cl.build_perfect_tree(M, h)
        for d_xr, d_xy in cl.valid_tree_geometries(M, h):
            x, y = cl.tree_pair_for_geometry(ptree, d_xr, d_xy)
            expected = naive_nf_value(ptree.graph, (x, y))
            assert cl.tree_two_leader_coherence(M, h, d_xr, d_xy) == pytest.approx(
                expected, rel=1e-10)


def test_tree_pair_for_geometry_distances():
    ptree = cl.build_perfect_tree(2, 4)
    x, y = cl.tree_pair_for_geometry(ptree, 2, 4)
    assert ptree.levels[x] == 2 and ptree.levels[y] == 2
    assert cl.graph_distance(ptree.graph, x, y) == 4
    root_first = cl.tree_pair_for_geometry(ptree, 0, 3)
    assert root_first[0] == 0
    assert cl.graph_distance(ptree.graph, *root_first) == 3


def test_tree_pair_geometry_reports_lca():
    ptree = cl.build_perfect_tree(2, 4)
    d_xr, d_yr, d_xy, lca = cl.tree_pair_geometry(ptree, 3, 5)
    assert (d_xr, d_yr, d_xy, lca) == (2, 2, 4, 0)
    d_xr, d_yr, d_xy, lca = cl.tree_pair_geometry(ptree, 7, 8)
    assert (d_xr, d_yr, d_xy, lca) == (3, 3, 2, 3)


def test_tree_optimal_two_analytic_geometries():
    opt2 = cl.tree_optimal_two(2, 4)
    assert (opt2.d_xr, opt2.d_xy) == (2, 4)
    assert opt2.value == pytest.approx(33.5)
    assert not opt2.exhaustive_fallback
    opt3 = cl.tree_optimal_two(3, 4)
    assert (opt3.d_xr, opt3.d_xy) == (1, 2)
    assert opt3.value == pytest.approx(183.25)
    opt5 = cl.tree_optimal_two(5, 4)
    assert (opt5.d_xr, opt5.d_xy) == (0, 1)
    assert opt5.value == pytest.approx(
        cl.tree_two_leader_coherence(5, 4, 0, 1), rel=1e-12)


def test_tree_optimal_two_closed_value_equals_omega():
    for M, h in ((2, 4), (2, 5), (3, 4), (4, 4), (5, 5)):
        opt = cl.tree_optimal_two(M, h)
        assert opt.value == pytest.approx(
            cl.tree_two_leader_coherence(M, h, opt.d_xr, opt.d_xy), rel=1e-12)


def test_tree_optimal_two_small_height_falls_back():
    opt = cl.tree_optimal_two(2, 3)
    assert opt.exhaustive_fallback
    ptree = cl.build_perfect_tree(2, 3)
    best = min(
        naive_nf_value(ptree.graph, pair)
        for pair in itertools.combinations(range(15), 2)
    )
    assert opt.value == pytest.approx(best, rel=1e-10)


# ---------------------------------------------------------------------------
# noise-corrupted cycles


def test_cycle_nc_two_spot_values():
    assert cl.cycle_nc_two_coherence(4, 3) == pytest.approx(5.0 / 3.0)
    assert cl.cycle_nc_two_coherence(6, 4) == pytest.approx(1040.0 / 336.0)


def test_cycle_nc_sweep_minimized_at_antipode():
    for n in (6, 8, 10, 12):
        sweep = cl.cycle_nc_sweep(n)
        best_i, best_v = min(sweep, key=lambda t: t[1])
        assert best_i == cl.cycle_nc_optimal_i(n) == (n + 2) // 2
        assert best_v == pytest.approx(cl.cycle_nc_optimal_value(n), abs=1e-9)


def test_cycle_nc_optimal_values():
    assert cl.cycle_nc_optimal_value(4) == pytest.approx(5.0 / 3.0)
    assert cl.cycle_nc_optimal_value(10) == pytest.approx(7.0)


def test_cycle_nc_optimal_rejects_odd_or_tiny():
    with pytest.raises(OddCycleLengthError):
        cl.cycle_nc_optimal_value(7)
    with pytest.raises(BadParameterError):
        cl.cycle_nc_optimal_value(2)


def test_cycle_nc_quadratic_growth():
    n = 4096
    assert cl.cycle_nc_optimal_value(n) * 24.0 / n**2 == pytest.approx(1.0, abs=0.01)


def test_cycle_nc_printed_series_disagrees_with_trace():
    # the published series form, transcribed verbatim, does not reproduce
    # the grounded values; surface the gap instead of patching it silently
    worst = 0.0
    for n in (4, 6, 8):
        for i in range(2, n + 1):
            gap = abs(cl.cycle_nc_two_printed_series(n, i)
                      - cl.cycle_nc_two_coherence(n, i))
            worst = max(worst, gap)
    print(f"printed-vs-trace worst absolute discrepancy: {worst:.3f}")
    assert worst > 1.0


def test_cycle_nc_parameter_validation():
    with pytest.raises(BadParameterError):
        cl.cycle_nc_two_coherence(2, 1)
    with pytest.raises(BadParameterError):
        cl.cycle_nc_two_coherence(6, 0)
    with pytest.raises(BadParameterError):
        cl.cycle_nc_two_coherence(6, 7)
