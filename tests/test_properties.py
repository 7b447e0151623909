"""Property tests for the coherence routes and the resistance table.

Small random connected weighted graphs (n <= 12, weights over 10^-2 ..
10^2) and stubbornness weights over the same range are drawn with a fixed,
derandomized profile, so every run checks the same examples and no example
database is written.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import coherence_lab as cl

from conftest import naive_nc_value

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=60)

_exponents = st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def graphs_with_leaders(draw, max_n=12):
    """A connected weighted graph, a leader tuple and a kappa per leader."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(0, v - 1)), v)] = 10.0 ** draw(_exponents)
    chords = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
    if chords:
        for pair in draw(st.lists(st.sampled_from(chords), unique=True, max_size=n)):
            edges[pair] = 10.0 ** draw(_exponents)
    g = cl.build_graph([(u, v, w) for (u, v), w in edges.items()], node_count=n)
    leaders = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    kappa = {v: 10.0 ** draw(_exponents) for v in leaders}
    return g, tuple(leaders), kappa


def _both_routes(g, leaders, kappa):
    return [cl.coherence_nc(g, leaders, kappa=kappa, method=m).value
            for m in ("trace", "resistance")]


@PROFILE
@given(graphs_with_leaders(), st.data())
def test_nc_routes_agree_with_plain_inverse(case, data):
    g, leaders, kmap = case
    scalar = kmap[leaders[0]]
    expected_scalar = naive_nc_value(g, leaders, scalar)
    expected_map = naive_nc_value(g, leaders, kmap)
    order = data.draw(st.permutations(leaders))
    as_list = [kmap[v] for v in order]
    for kappa, expected in [(scalar, expected_scalar), (kmap, expected_map)]:
        for value in _both_routes(g, leaders, kappa):
            assert value == pytest.approx(expected, rel=1e-9)
    for value in _both_routes(g, order, as_list):
        assert value == pytest.approx(expected_map, rel=1e-9)


def _relabel(g, perm):
    return cl.build_graph([(perm[u], perm[v], w) for u, v, w in g.edges],
                          node_count=g.node_count)


@PROFILE
@given(graphs_with_leaders(), st.data())
def test_relabelling_nodes_leaves_nc_unchanged(case, data):
    g, leaders, kmap = case
    perm = data.draw(st.permutations(range(g.node_count)))
    h = _relabel(g, perm)
    moved = tuple(perm[v] for v in leaders)
    moved_kappa = {perm[v]: k for v, k in kmap.items()}
    for before, after in zip(_both_routes(g, leaders, kmap),
                             _both_routes(h, moved, moved_kappa)):
        assert after == pytest.approx(before, rel=1e-9)


@PROFILE
@given(graphs_with_leaders(), st.data())
def test_relabelling_nodes_leaves_nf_and_the_table_unchanged(case, data):
    g, leaders, _ = case
    perm = data.draw(st.permutations(range(g.node_count)))
    h = _relabel(g, perm)
    moved = tuple(perm[v] for v in leaders)
    for method in ("trace", "resistance"):
        before = cl.coherence_nf(g, leaders, method=method).value
        after = cl.coherence_nf(h, moved, method=method).value
        assert after == pytest.approx(before, rel=1e-9, abs=1e-12)
    R = cl.resistance_oracle(g).table
    moved_R = cl.resistance_oracle(h).table[np.ix_(perm, perm)]
    assert np.allclose(moved_R, R, rtol=1e-9, atol=1e-12 * R.max())


@PROFILE
@given(graphs_with_leaders(), st.floats(min_value=0.0, max_value=4.0))
def test_nc_exceeds_nf_by_at_most_n_over_twice_the_least_kappa(case, stiffen):
    # tying the leaders to the reference by 1/kappa resistors instead of
    # pinning them never lowers a resistance (Rayleigh) and, routing each
    # unit flow on through those resistors, raises every node's resistance
    # by at most 1 / min kappa (Thomson); tight at n = 1. Scaling every
    # kappa by up to 10^4 squeezes NC onto NF, its limit as kappa grows
    g, leaders, kmap = case
    kappa = {v: k * 10.0 ** stiffen for v, k in kmap.items()}
    gap = g.node_count / (2.0 * min(kappa.values()))
    for method in ("trace", "resistance"):
        nf = cl.coherence_nf(g, leaders, method=method).value
        nc = cl.coherence_nc(g, leaders, kappa=kappa, method=method).value
        assert nf <= nc * (1.0 + 1e-9)
        assert nc <= (nf + gap) * (1.0 + 1e-9)


@PROFILE
@given(graphs_with_leaders(), st.data())
def test_raising_a_leader_kappa_never_raises_nc(case, data):
    g, leaders, kmap = case
    v = data.draw(st.sampled_from(leaders))
    stiffer = dict(kmap)
    stiffer[v] *= 10.0 ** data.draw(st.floats(min_value=0.0, max_value=2.0))
    for before, after in zip(_both_routes(g, leaders, kmap),
                             _both_routes(g, leaders, stiffer)):
        assert after <= before * (1.0 + 1e-9)


@PROFILE
@given(graphs_with_leaders())
def test_foster_theorem(case):
    # sum over edges of w_e r_e is n - 1 (Klein & Randic 1993)
    g = case[0]
    R = cl.resistance_oracle(g).table
    total = sum(w * R[u, v] for u, v, w in g.edges)
    assert total == pytest.approx(g.node_count - 1, rel=1e-9, abs=1e-12)


@PROFILE
@given(graphs_with_leaders())
def test_resistance_table_triangle_inequality(case):
    R = cl.resistance_oracle(case[0]).table
    via = R[:, :, None] + R[None, :, :]  # via[p, s, q] = r(p, s) + r(s, q)
    assert np.all(R[:, None, :] <= via + 1e-9 * R.max())


@PROFILE
@given(graphs_with_leaders(), st.data())
def test_adding_an_edge_never_raises_a_resistance(case, data):
    # Rayleigh monotonicity
    g = case[0]
    n = g.node_count
    assume(n >= 2)
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                              unique=True))
    w = 10.0 ** data.draw(_exponents)
    oracle = cl.resistance_oracle(g)
    for p in range(n):
        for q in range(p + 1, n):
            assert cl.edge_addition_update(oracle, i, j, w, p, q) <= oracle.table[p, q]


@PROFILE
@given(graphs_with_leaders(), st.data())
def test_adding_a_leader_never_raises_nf(case, data):
    g, leaders, _ = case
    rest = [v for v in range(g.node_count) if v not in leaders]
    assume(rest)
    more = leaders + (data.draw(st.sampled_from(rest)),)
    for method in ("trace", "resistance"):
        before = cl.coherence_nf(g, leaders, method=method).value
        after = cl.coherence_nf(g, more, method=method).value
        assert after <= before * (1.0 + 1e-9)
