"""Property tests for the noise-corrupted coherence routes.

Small random connected weighted graphs (n <= 12, weights over 10^-2 ..
10^2) and stubbornness weights over the same range are drawn with a fixed,
derandomized profile, so every run checks the same examples and no example
database is written.
"""

import pytest
from hypothesis import given, settings
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


@PROFILE
@given(graphs_with_leaders(), st.data())
def test_relabelling_nodes_leaves_nc_unchanged(case, data):
    g, leaders, kmap = case
    perm = data.draw(st.permutations(range(g.node_count)))
    h = cl.build_graph([(perm[u], perm[v], w) for u, v, w in g.edges],
                       node_count=g.node_count)
    moved = tuple(perm[v] for v in leaders)
    moved_kappa = {perm[v]: k for v, k in kmap.items()}
    for before, after in zip(_both_routes(g, leaders, kmap),
                             _both_routes(h, moved, moved_kappa)):
        assert after == pytest.approx(before, rel=1e-9)


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
