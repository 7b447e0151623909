"""The exhaustive search against an exact rational referee.

Ties are the search's hardest output: on symmetric graphs many sets share
the optimum exactly, and rounding must neither split them nor admit a
set that only comes close. :func:`conftest.exact_total` scores every set
in rationals, so the exact minimisers, in lexicographic order, are the
answer with no tolerance.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab.selection import _kappa_reciprocals, _single_totals

from conftest import (
    assert_exact,
    exact_table,
    exact_total,
    naive_nc_value,
    naive_nf_value,
    random_connected_graph,
    stiff_graph,
)


def _complete(n):
    return cl.build_graph([(u, v, 1.0) for u, v in itertools.combinations(range(n), 2)])


def _star(n):
    return cl.build_graph([(0, v, 1.0) for v in range(1, n)])


def _petersen():
    outer = [(i, (i + 1) % 5, 1.0) for i in range(5)]
    spokes = [(i, i + 5, 1.0) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5, 1.0) for i in range(5)]
    return cl.build_graph(outer + spokes + inner)


def _cube():
    return cl.build_graph([(u, u | 1 << b, 1.0) for u in range(8) for b in range(3)
                           if not u >> b & 1])


def _grid(side):
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1, 1.0))
            if r + 1 < side:
                edges.append((v, v + side, 1.0))
    return cl.build_graph(edges)


GRAPHS = {
    "C8": lambda: cl.build_cycle(8),
    "K6": lambda: _complete(6),
    "star8": lambda: _star(8),
    "petersen": _petersen,
    "Q3": _cube,
    "grid3x3": lambda: _grid(3),
}


@functools.lru_cache(maxsize=None)
def _graph_and_table(name):
    g = GRAPHS[name]()
    return g, exact_table(g)


@pytest.mark.parametrize("dynamics, kappa", [(cl.NOISE_FREE, None),
                                             (cl.NOISE_CORRUPTED, 0.5)],
                         ids=["nf", "nc"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", list(GRAPHS))
def test_search_returns_the_exact_minimisers(name, k, dynamics, kappa):
    g, table = _graph_and_table(name)
    inv_kappa = 0 if kappa is None else 1 / Fraction(kappa)
    sets = list(itertools.combinations(range(g.node_count), k))
    totals = [exact_total(table, S, inv_kappa) for S in sets]
    low = min(totals)
    best = tuple(S for S, total in zip(sets, totals) if total == low)
    result = cl.brute_force_select(g, k, dynamics, kappa)
    assert result.optimal_sets == best
    assert result.co_optimal_count == len(best)
    assert abs(result.value - float(low / 2)) <= 1e-12 * float(low / 2)


def test_the_exact_total_matches_the_dense_inverse(rng):
    # the referee itself against plain numpy inverses, on fractional weights
    for n in (5, 7, 9):
        g = random_connected_graph(rng, n, extra_edges=3)
        table = exact_table(g)
        for S in [(0,), (1, n - 1), (0, 2, n - 2)]:
            nf = float(exact_total(table, S) / 2)
            nc = float(exact_total(table, S, Fraction(2)) / 2)
            assert nf == pytest.approx(naive_nf_value(g, S), rel=1e-12)
            assert nc == pytest.approx(naive_nc_value(g, S, 0.5), rel=1e-12)


def _stiff_cycle(rng, n):
    perm = rng.permutation(n).tolist()
    weights = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    return cl.build_graph([(perm[i], perm[(i + 1) % n], float(weights[i])) for i in range(n)])


def _stiff_unicyclic(rng, n):
    """A stiff cycle on 3 to n - 1 of the nodes (all three when n = 3) and
    a pendant tree on the rest, each node hung from an earlier one."""
    c = int(rng.integers(3, max(n, 4)))
    perm = rng.permutation(n).tolist()
    ends = [(perm[i], perm[(i + 1) % c]) for i in range(c)]
    ends += [(perm[int(rng.integers(0, i))], perm[i]) for i in range(c, n)]
    weights = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    return cl.build_graph([(u, v, float(w)) for (u, v), w in zip(ends, weights)])


# a new family goes last, so that every existing case keeps its seed
STIFF_FAMILIES = {
    "tree": lambda rng, n: stiff_graph(rng, n, chords=0),
    "cycle": _stiff_cycle,
    "random": lambda rng, n: stiff_graph(rng, n, chords=n // 2 + 1),
    "unicyclic": _stiff_unicyclic,
}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("family", list(STIFF_FAMILIES))
def test_every_coherence_route_matches_the_exact_value(family, seed):
    # weights 10^-3 .. 10^3 and one kappa per leader; the seeds were fixed
    # before the first run
    rng = np.random.default_rng([18, list(STIFF_FAMILIES).index(family), seed])
    n = int(rng.integers(3, 11))
    g = STIFF_FAMILIES[family](rng, n)
    table = exact_table(g)
    k = int(rng.integers(1, 4))
    S = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
    kappa = [float(10.0 ** rng.uniform(-1.0, 1.0)) for _ in S]
    nf = exact_total(table, S) / 2
    nc = exact_total(table, S, [1 / Fraction(x) for x in kappa]) / 2
    for method in ("trace", "resistance"):
        assert_exact(cl.coherence_nf(g, S, method=method).value, nf)
        assert_exact(cl.coherence_nc(g, S, kappa=kappa, method=method).value, nc)
    # half the trace of L^+ is the Kirchhoff index over 2n
    free = sum(table[u][v] for u in range(n) for v in range(u + 1, n)) / (2 * n)
    assert_exact(cl.leader_free_coherence(g).value, free)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", list(STIFF_FAMILIES))
def test_single_leader_totals_match_the_exact_totals(family, seed):
    # k = 1 scores every node from one solve grounded at node 0: forest
    # elimination on the trees and cycles, the dense factor otherwise;
    # weights 10^-3 .. 10^3, seeds fixed before the first run
    rng = np.random.default_rng([23, list(STIFF_FAMILIES).index(family), seed])
    n = int(rng.integers(3, 11))
    g = STIFF_FAMILIES[family](rng, n)
    table = exact_table(g)
    kappa = float(10.0 ** rng.uniform(-1.0, 1.0))
    nf = _single_totals(g, None)
    nc = _single_totals(g, _kappa_reciprocals(kappa, n, 1))
    for v in range(n):
        assert_exact(nf[v], exact_total(table, (v,)))
        assert_exact(nc[v], exact_total(table, (v,), 1 / Fraction(kappa)))
    exact = [exact_total(table, (v,)) for v in range(n)]
    best = tuple((v,) for v in range(n) if exact[v] == min(exact))
    assert cl.brute_force_select(g, 1).optimal_sets == best


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", list(STIFF_FAMILIES))
def test_resistance_matches_the_exact_table(family, seed):
    # forest elimination whenever the grounded entries form a forest, the
    # dense kernel otherwise; weights 10^-3 .. 10^3, seeds fixed before the
    # first run
    rng = np.random.default_rng([19, list(STIFF_FAMILIES).index(family), seed])
    n = int(rng.integers(3, 11))
    g = STIFF_FAMILIES[family](rng, n)
    table = exact_table(g)
    for i, j in itertools.combinations(range(n), 2):
        assert_exact(cl.resistance(g, i, j), table[i][j])


def test_height4_binary_tree_pairs_tie_exactly():
    # exact evidence for acceptance criterion 4's message: the four pairs
    # it expects, at (d_xr, d_yr, d_xy) = (2, 2, 4), share the optimum 67/2
    # with four pairs at (1, 2, 3), and no other pair of the 465 reaches it
    ptree = cl.build_perfect_tree(2, 4)
    table = exact_table(ptree.graph)
    pairs = list(itertools.combinations(range(ptree.graph.node_count), 2))
    assert len(pairs) == 465
    values = [exact_total(table, S) / 2 for S in pairs]
    low = min(values)
    best = tuple(S for S, value in zip(pairs, values) if value == low)
    assert low == Fraction(67, 2)
    assert best == ((1, 5), (1, 6), (2, 3), (2, 4), (3, 5), (3, 6), (4, 5), (4, 6))
    geometry = sorted(cl.tree_pair_geometry(ptree, *S)[:3] for S in best)
    assert geometry == [(1, 2, 3)] * 4 + [(2, 2, 4)] * 4
    assert cl.brute_force_select(ptree.graph, 2).optimal_sets == best
