"""Referees of the command line, run in process through ``run_cli``.

Each check runs the commands a user would and holds their JSON output,
which also passes the report schema, to an independent referee (the
other coherence route, or a numpy pseudoinverse or inverse), with the
tolerances it has always had.
"""

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab.graphs import laplacian

from test_cli import run_json

# K4 with both diagonals, where leaders 0, 3 leave the noise-free trace
# route one edge, and K5, which keeps a triangle wherever it is grounded
DENSE = "0 1 1.0\n1 2 0.5\n2 3 2.0\n3 0 1.5\n0 2 0.25\n1 3 3.0\n"
K5 = ("0 1 1.0\n0 2 0.5\n0 3 2.0\n0 4 1.5\n1 2 0.25\n1 3 3.0\n1 4 0.75\n"
      "2 3 1.25\n2 4 4.0\n3 4 0.5\n")


@pytest.fixture
def graph_files(tmp_path):
    files = {}
    for name, text in (("dense", DENSE), ("k5", K5)):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        files[name] = str(path)
    return files


@pytest.mark.parametrize("dynamics", ["nf", "nc"])
@pytest.mark.parametrize("graph", ["tree", "dense", "k5"])
def test_both_coherence_routes_agree(graph, dynamics, graph_files):
    # a tree takes forest elimination, and so does K4 where leaders 0,3
    # leave the noise-free trace route one edge; K5 keeps a triangle
    # there, and every route of it factors the whole system
    spec = "tree:2:4" if graph == "tree" else f"file:{graph_files[graph]}"
    a, b = (run_json(["coherence", "--graph", spec, "--leaders", "0,3", "--kappa", "0.5,2",
                      "--dynamics", dynamics, "--method", method])["value"]
            for method in ("trace", "resistance"))
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), (a, b)


@pytest.mark.parametrize("name", ["tree", "dense"])
def test_resistance_queries_match_the_pseudoinverse(name, graph_files):
    # both queries on a tree (forest elimination) and on a graph with more
    # edges than nodes (a factor of the whole system)
    if name == "tree":
        spec, g = "tree:2:4", cl.build_perfect_tree(2, 4).graph
    else:
        spec, g = f"file:{graph_files[name]}", cl.read_graph_file(graph_files[name])
    L = laplacian(g)
    P = np.linalg.pinv(L)
    for u, v in ((0, 3), (1, 2)):
        value = run_json(["resistance", "--graph", spec, "--pair", f"{u},{v}"])["resistance"]
        expected = P[u, u] + P[v, v] - 2 * P[u, v]
        assert abs(value - expected) <= 1e-9 * expected, (name, u, v, value)
    # node 1 to the set {0, 3}: the grounded inverse's diagonal entry
    keep = [x for x in range(g.node_count) if x not in (0, 3)]
    expected = np.linalg.inv(L[np.ix_(keep, keep)])[keep.index(1), keep.index(1)]
    value = run_json(["resistance", "--graph", spec, "--node", "1", "--to", "0,3"])["resistance"]
    assert abs(value - expected) <= 1e-9 * expected, (name, value)
