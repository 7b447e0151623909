import csv
import hashlib
import io
import json
import time
import warnings

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coherence_lab as cl
from coherence_lab import electrical, selection
from coherence_lab.cli import parse_graph_spec, run_cli
from coherence_lab.errors import CoherenceLabError, GraphSpecError, ValidationError

from conftest import naive_nc_value

SCHEMA = json.loads(
    __import__("importlib.resources", fromlist=["files"])
    .files("coherence_lab")
    .joinpath("schema/report.schema.json")
    .read_text()
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_parse_graph_spec_families():
    g, label, ptree = parse_graph_spec("cycle:5")
    assert g.node_count == 5 and label == "cycle:5" and ptree is None
    g, _, ptree = parse_graph_spec("tree:3:2")
    assert g.node_count == 13 and ptree is not None
    g, _, _ = parse_graph_spec("path:4")
    assert g.edge_count == 3


def test_parse_graph_spec_errors():
    for bad in ("lattice:4", "cycle:x", "cycle", "tree:3"):
        with pytest.raises(GraphSpecError):
            parse_graph_spec(bad)


def test_coherence_command_cycle_example():
    doc = run_json(["coherence", "--graph", "cycle:8", "--leaders", "0,4",
                    "--dynamics", "nf"])
    assert doc["value"] == pytest.approx(2.5, abs=1e-9)
    assert doc["dynamics"] == "noise_free"
    assert doc["leaders"] == [0, 4]


def test_coherence_command_methods_agree():
    trace = run_json(["coherence", "--graph", "cycle:8", "--leaders", "0,4"])
    resist = run_json(["coherence", "--graph", "cycle:8", "--leaders", "0,4",
                       "--method", "resistance"])
    closed = run_json(["coherence", "--graph", "cycle:8", "--leaders", "0,4",
                       "--method", "closed-form"])
    assert trace["value"] == pytest.approx(resist["value"], rel=1e-9)
    assert trace["value"] == pytest.approx(closed["value"], rel=1e-9)
    assert closed["gaps"] == [4, 4]


def test_coherence_leader_free():
    doc = run_json(["coherence", "--graph", "cycle:3", "--dynamics", "free"])
    assert doc["value"] == pytest.approx(1.0 / 3.0)
    assert doc["dynamics"] == "leader_free"


def test_coherence_noise_corrupted_with_kappa_list():
    doc = run_json(["coherence", "--graph", "path:3", "--leaders", "0,2",
                    "--dynamics", "nc", "--kappa", "2.0,0.5"])
    assert doc["kappa"] == {"0": 2.0, "2": 0.5}


def test_one_based_round_trip():
    zero = run_json(["coherence", "--graph", "cycle:8", "--leaders", "0,4"])
    one = run_json(["coherence", "--graph", "cycle:8", "--leaders", "1,5",
                    "--one-based"])
    assert one["value"] == zero["value"]
    assert one["leaders"] == [1, 5]


def test_closed_form_cycle_nc_example():
    doc = run_json(["closed-form", "cycle-nc", "--n", "10"])
    assert doc["i_opt"] == 6
    assert doc["value"] == pytest.approx(7.0)


def test_closed_form_tree():
    doc = run_json(["closed-form", "tree", "--m", "2", "--height", "4"])
    assert doc["value"] == pytest.approx(33.5)
    assert (doc["d_xr"], doc["d_xy"]) == (2, 4)
    spot = run_json(["closed-form", "tree", "--m", "3", "--height", "4",
                     "--dxr", "1", "--dxy", "2"])
    assert spot["value"] == pytest.approx(183.25)


def test_closed_form_cycle_and_path_gap_evaluation():
    doc = run_json(["closed-form", "cycle-nf", "--gaps", "4,4"])
    assert doc["value"] == pytest.approx(2.5)
    doc = run_json(["closed-form", "path-nf", "--n", "10", "--k", "2"])
    assert doc["value"] == pytest.approx(59.0 / 12.0)
    assert doc["gaps"] == [2, 6, 1]


def test_select_command_tree_geometry():
    doc = run_json(["select", "--graph", "tree:2:5", "--k", "2"])
    assert (doc["d_xr"], doc["d_yr"], doc["d_xy"]) == (2, 2, 4)
    assert doc["value"] == pytest.approx(95.5, abs=1e-8)
    assert doc["co_optimal_count"] == 4


def test_select_budget_exceeded_exit_code():
    code, out, err = run(["select", "--graph", "cycle:20", "--k", "5",
                          "--budget", "100"])
    assert code == 1
    assert "budget" in err.lower()


def test_select_bad_budget_exit_code():
    code, out, err = run(["select", "--graph", "cycle:6", "--k", "2",
                          "--budget", "-1"])
    assert code == 2
    assert out == ""
    assert "budget must be an integer" in err


def test_select_over_the_table_budget_exit_code(monkeypatch):
    monkeypatch.setattr(electrical, "_TABLE_BUDGET", 1 << 10)
    # the k = 2 search holds the table; k = 1 grounds node 0, which leaves
    # the cycle a path and holds no n x n array
    code, out, err = run(["select", "--graph", "cycle:20", "--k", "2"])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "budget" in err


@pytest.mark.parametrize("w", ["1e12", "1e17", "1e100", "1e300"])
def test_ill_conditioned_resistance_exit_code(tmp_path, w):
    path = tmp_path / "stiff.txt"
    path.write_text(f"0 1 1.0\n1 2 {w}\n")
    code, out, err = run(["resistance", "--graph", f"file:{path}", "--pair", "0,1"])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "ill-conditioned" in err


@pytest.mark.parametrize("dynamics", ["nf", "nc"])
def test_ill_conditioned_tree_exit_code(tmp_path, dynamics):
    # a tree's trace route is forest elimination, whose condition bound
    # eps ||A||_1 ||A^-1||_1 is ~2.8e-5 here
    path = tmp_path / "weak_tree.txt"
    path.write_text("0 1 0.1\n1 2 3.14159e9\n")
    code, out, err = run(["coherence", "--graph", f"file:{path}", "--leaders", "0",
                          "--dynamics", dynamics])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "ill-conditioned" in err


def test_forest_elimination_failure_exit_code(tmp_path):
    # 1 + w rounds to w (or to 1 for the tiny weights), so node 1's pivot
    # cancels to 0, which the message names as ill-conditioning
    for weight, command in (("1e200", ["coherence", "--leaders", "0"]),
                            ("1e-308", ["resistance", "--pair", "0,2"]),
                            ("1e-310", ["resistance", "--pair", "0,2"])):
        path = tmp_path / "stiff_tree.txt"
        path.write_text(f"0 1 1.0\n1 2 {weight}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run([*command, "--graph", f"file:{path}"])
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "ill-conditioned" in err and "pivot" in err


@pytest.mark.parametrize("k", ["1", "2"])
def test_subnormal_weight_exit_code(tmp_path, k):
    # 1/w overflows: the command refuses on one line, with no numpy warning
    path = tmp_path / "subnormal.txt"
    path.write_text("0 1 1.0\n1 2 1e-310\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["select", "--graph", f"file:{path}", "--k", k])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "ill-conditioned" in err


def test_resistance_command():
    doc = run_json(["resistance", "--graph", "cycle:3", "--pair", "0,1"])
    assert doc["resistance"] == pytest.approx(2.0 / 3.0)
    doc = run_json(["resistance", "--graph", "path:4", "--node", "1",
                    "--to", "0,3"])
    assert doc["resistance"] == pytest.approx(2.0 / 3.0)


def test_simulate_command():
    doc = run_json(["simulate", "--graph", "path:2", "--leaders", "0",
                    "--dt", "0.01", "--horizon", "50", "--trials", "6",
                    "--seed", "9"])
    assert doc["method"] == "simulation"
    assert abs(doc["value"] - 0.5) <= 4.0 * doc["stderr"]
    again = run_json(["simulate", "--graph", "path:2", "--leaders", "0",
                      "--dt", "0.01", "--horizon", "50", "--trials", "6",
                      "--seed", "9"])
    assert again["value"] == doc["value"]


def test_sweep_command_csv():
    code, out, err = run(["sweep", "--family", "cycle-nf", "--k", "2",
                          "--n-values", "8,16,32", "--format", "csv"])
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["8", "16", "32"]
    tail = float(rows[-1]["value"])
    assert tail == pytest.approx(32 * 32 / 24.0 - 2.0 / 12.0)
    assert "\r" not in out


def test_sweep_command_json_schema():
    doc = run_json(["sweep", "--family", "cycle-free", "--n-values", "4,8",
                    "--format", "json"])
    assert doc["rows"][0]["value"] == pytest.approx((16 - 1) / 24.0)


def test_grow_tree_csv_layout():
    code, out, err = run(["grow-tree", "--h0", "4", "--steps", "1"])
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].startswith("# designated=3-5")
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    rows = list(reader)
    assert reader.fieldnames == ["step", "pair_id", "d_xr", "d_yr", "d_xy", "value"]
    assert len(rows) == 2 * 105


def test_grow_tree_json_schema():
    doc = run_json(["grow-tree", "--h0", "4", "--steps", "1", "--format",
                    "json", "--global-optima"])
    assert doc["designated"] == [3, 5]
    assert len(doc["global_rows"]) == 2


# sha256 of grow-tree's stdout as the rows were written before they came
# from the value array: the bytes must not change
GROW_TREE_DIGESTS = {
    ("4", "20", "json"): "687b105fb8fbab4cc113c255803ef685094f1684798eb9c712868e526af594b7",
    ("4", "20", "csv"): "72605095a79b3bdb5bbac18f1ab395d518539779787d32c7fbfb4e48efdc78df",
    ("5", "12", "json"): "caee1e27dd98a048395002233dd780108a23d714fc3f7c6a4b7c722e761c9a63",
    ("5", "12", "csv"): "62a763a71621ffef9896f7c7c839b343af392a717264352b36c3c60567f5b472",
}


@pytest.mark.parametrize("h0, steps, fmt", sorted(GROW_TREE_DIGESTS))
def test_grow_tree_output_bytes_are_pinned(h0, steps, fmt):
    code, out, err = run(["grow-tree", "--h0", h0, "--steps", steps, "--format", fmt])
    assert code == 0, err
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GROW_TREE_DIGESTS[h0, steps, fmt]


def test_grow_tree_refuses_oversized_growth_at_once():
    # one full level from height 40 is 2^41 steps of 105 rows on a tree of
    # 2^42 nodes: refused before the tree is built
    start = time.perf_counter()
    code, out, err = run(["grow-tree", "--h0", "40"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "exceed the budget" in err


def test_csv_single_report_layout():
    code, out, err = run(["coherence", "--graph", "cycle:8", "--leaders",
                          "0,4", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["value"] == "2.4999999999999996" or float(rows[0]["value"]) == pytest.approx(2.5)
    assert rows[0]["leaders"] == "0;4"


def test_graph_file_ingestion(tmp_path):
    g = cl.build_cycle(6)
    path = tmp_path / "ring.txt"
    path.write_text(cl.write_edge_list(g))
    doc = run_json(["coherence", "--graph", f"file:{path}", "--leaders", "0,3"])
    assert doc["value"] == pytest.approx(cl.cycle_nf_coherence((3, 3), n=6))


@pytest.mark.parametrize("doc", [
    '{"n": 3, "edges": [[0, 1.5, 1.0], [1, 2, 1.0]]}',
    '{"n": 3, "edges": [[0, true, 1.0], [1, 2, 1.0]]}',
    '{"n": 3.5, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}',
], ids=["float-id", "bool-id", "float-n"])
def test_json_graph_file_with_non_integer_ids_exits_two(tmp_path, doc):
    # the edge-list format rejects "0 1.5 1.0", so the same graph in JSON must too
    path = tmp_path / "graph.json"
    path.write_text(doc)
    code, out, err = run(["coherence", "--graph", f"file:{path}", "--leaders", "0"])
    assert code == 2
    assert out == ""
    assert "integer" in err


@pytest.mark.parametrize("weight", ["true", '"1_0"', '"2"', "null"],
                         ids=["bool", "underscore", "string", "null"])
def test_json_graph_file_with_non_number_weights_exits_two(tmp_path, weight):
    # the edge-list format rejects "0 1 1_0", so the same graph in JSON must
    # too; float() would read true as 1.0 and "1_0" as 10.0
    path = tmp_path / "graph.json"
    path.write_text(f'{{"n": 3, "edges": [[0, 1, 1.0], [1, 2, {weight}]]}}')
    code, out, err = run(["coherence", "--graph", f"file:{path}", "--leaders", "0"])
    assert code == 2
    assert out == ""
    assert "not a real number" in err


@pytest.mark.parametrize("text", ["0 1_0 1.0\n", "0 \u0661 1.0\n", "0 1 1_0\n"],
                         ids=["id-underscore", "id-arabic-indic", "weight-underscore"])
def test_edge_list_file_with_non_json_numbers_exits_two(tmp_path, text):
    # int() reads "1_0" as 10 and the Arabic-Indic digit as 1; JSON reads
    # neither, so the edge-list format must not either
    path = tmp_path / "graph.txt"
    path.write_text("0 1 1.0\n" + text, encoding="utf-8")
    code, out, err = run(["coherence", "--graph", f"file:{path}", "--leaders", "0"])
    assert code == 2
    assert out == ""
    assert "line 2" in err


def test_validation_failures_exit_two():
    cases = [
        ["coherence", "--graph", "cycle:2", "--leaders", "0"],
        ["coherence", "--graph", "nope:3", "--leaders", "0"],
        ["coherence", "--graph", "cycle:8"],
        ["coherence", "--graph", "file:/does/not/exist", "--leaders", "0"],
        ["resistance", "--graph", "cycle:4"],
        ["closed-form", "cycle-nc", "--n", "7"],
        ["simulate", "--graph", "path:2", "--leaders", "0", "--dt", "0"],
        ["simulate", "--graph", "path:3", "--leaders", "0", "--dt", "0.1",
         "--horizon", "1", "--seed", "-1"],
        ["simulate", "--graph", "path:3", "--leaders", "0", "--dt", "0.1",
         "--horizon", "1", "--trials", "0"],
        ["coherence", "--graph", "cycle:6", "--leaders", "1,1", "--dynamics", "nc",
         "--kappa", "1,2"],
        ["coherence", "--graph", "cycle:6", "--leaders", "1", "--dynamics", "nc",
         "--kappa", "-1"],
    ]
    for argv in cases:
        code, out, err = run(argv)
        assert code == 2, (argv, err)
        assert out == ""
        assert len(err.strip().splitlines()) == 1, (argv, err)


@pytest.mark.parametrize("argv", [
    ["coherence", "--graph", "cycle:12", "--leaders", "1_0"],
    ["coherence", "--graph", "cycle:12", "--leaders", "\u0661"],
    ["coherence", "--graph", "cycle:12", "--leaders", "1", "--dynamics", "nc",
     "--kappa", "1_0"],
    ["coherence", "--graph", "cycle:12", "--leaders", "1", "--dynamics", "nc",
     "--kappa", "inf"],
    ["select", "--graph", "cycle:1_2", "--k", "2"],
    ["select", "--graph", "tree:2:\u0663", "--k", "2"],
    ["select", "--graph", "cycle:12", "--k", "0_2"],
    ["closed-form", "cycle-nf", "--gaps", "2_0,3"],
    ["closed-form", "cycle-nc", "--n", "\u0661\u0660"],
    ["resistance", "--graph", "path:4", "--node", "\u0661", "--to", "0,3"],
    ["simulate", "--graph", "path:2", "--leaders", "0", "--dt", "1_0e-3"],
    ["simulate", "--graph", "path:2", "--leaders", "0", "--seed", "1_0"],
], ids=["leader-underscore", "leader-arabic-indic", "kappa-underscore", "kappa-inf",
        "spec-underscore", "spec-arabic-indic", "k-underscore", "gap-underscore",
        "n-arabic-indic", "node-arabic-indic", "dt-underscore", "seed-underscore"])
def test_cli_numbers_are_read_as_graph_files_read_them(argv, capsys):
    # int() and float() read all of these; the edge-list format reads none
    code, out, err = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert out == ""
    # argparse reports its own options, with its usage line, on the err
    # stream it was given, and nothing reaches the process's own streams
    assert captured.out == "" and captured.err == ""
    assert "ASCII digits" in err or "decimal number" in err


def test_cli_help_goes_to_the_given_out_stream(capsys):
    code, out, err = run(["select", "--help"])
    assert code == 0
    assert out.startswith("usage: ") and err == ""
    assert capsys.readouterr() == ("", "")


_exponents = st.floats(min_value=-2.0, max_value=2.0)
CORRUPTIONS = ("leader", "kappa", "stiff", "isolated", "same-pair", "queried", "budget")


@st.composite
def _cli_cases(draw, corruption=None):
    """A connected graph on 3 to 7 nodes with weights over 10^-2 .. 10^2,
    leaders with one kappa each, a node pair, a follower and the search
    budget, with the ``corruption`` (one of ``CORRUPTIONS``) that some
    library call must refuse."""
    n = draw(st.integers(min_value=3, max_value=7))
    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(0, v - 1)), v)] = 10.0 ** draw(_exponents)
    chords = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
    for pair in draw(st.lists(st.sampled_from(chords), unique=True, max_size=n)):
        edges[pair] = 10.0 ** draw(_exponents)
    edges = [(u, v, w) for (u, v), w in edges.items()]
    leaders = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1,
                            unique=True))
    kappa = [10.0 ** draw(_exponents) for _ in leaders]
    u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    node = draw(st.sampled_from([x for x in range(n) if x not in leaders]))
    budget = selection.DEFAULT_BUDGET
    if corruption == "leader":
        leaders.append(n)
        kappa.append(1.0)
    elif corruption == "kappa":
        kappa[-1] = -kappa[-1]
    elif corruption == "stiff":
        # the condition scale passes its limit on every grounding
        edges[0] = edges[0][:2] + (1e15,)
    elif corruption == "isolated":
        n += 1
    elif corruption == "same-pair":
        v = u
    elif corruption == "queried":
        node = leaders[0]
    elif corruption == "budget":
        budget = 1
    return cl.build_graph(edges, node_count=n), leaders, kappa, (u, v), node, budget


def _cli_matches(argv, call, expected_doc) -> bool:
    """Run ``argv`` in process: its JSON must equal ``expected_doc`` of the
    library's result, bit for bit, or, where ``call`` raises, its exit code
    must be the error's class (2 validation, 1 computation) with no stdout.
    Returns whether the library raised."""
    try:
        result = call()
    except CoherenceLabError as exc:
        code, out, err = run(argv)
        assert code == (2 if isinstance(exc, ValidationError) else 1), (argv, err)
        assert out == ""
        return True
    # no schema check here: jsonschema would take most of the test's time
    code, out, err = run(argv)
    assert code == 0, (argv, err)
    doc = json.loads(out)
    doc.pop("elapsed_seconds", None)
    assert doc == json.loads(json.dumps(expected_doc(result))), argv
    return False


def _cli_agrees(case, path, shift) -> list[bool]:
    """Every command on the graph file ``path``, with ids shifted by
    ``shift`` (``--one-based`` when 1), against the library: coherence by
    both methods and both dynamics, both resistance queries, and the search
    for both dynamics. Returns whether each library call raised."""
    g, leaders, kappa, (u, v), node, budget = case
    label = f"file:{path}"
    k = len(leaders)

    def ids(nodes):
        return ",".join(str(x + shift) for x in nodes)

    def shifted(doc):
        if doc.get("leaders") is not None:
            doc["leaders"] = [x + shift for x in doc["leaders"]]
        if doc.get("kappa"):
            doc["kappa"] = {str(int(x) + shift): y for x, y in doc["kappa"].items()}
        return doc

    # every value as --option=value, so that argparse reads "-1" as a value
    common = [f"--graph={label}"] + ["--one-based"] * shift
    raised = []
    for method in ("trace", "resistance"):
        raised.append(_cli_matches(
            ["coherence", f"--leaders={ids(leaders)}", f"--method={method}", *common],
            lambda: cl.coherence_nf(g, leaders, method=method, graph_label=label),
            lambda r: shifted(r.to_dict())))
        raised.append(_cli_matches(
            ["coherence", f"--leaders={ids(leaders)}", "--dynamics=nc",
             f"--kappa={','.join(map(repr, kappa))}", f"--method={method}", *common],
            lambda: cl.coherence_nc(g, leaders, kappa=kappa, method=method,
                                    graph_label=label),
            lambda r: shifted(r.to_dict())))
    raised.append(_cli_matches(
        ["resistance", f"--pair={ids((u, v))}", *common],
        lambda: cl.resistance(g, u, v),
        lambda r: {"resistance": r, "graph": label, "pair": [u + shift, v + shift]}))
    raised.append(_cli_matches(
        ["resistance", f"--node={node + shift}", f"--to={ids(leaders)}", *common],
        lambda: cl.resistance_to_set(g, node, leaders),
        lambda r: shifted({"resistance": r, "graph": label, "node": node + shift,
                           "leaders": sorted(set(leaders))})))
    for flag, dynamics, scalar in (("nf", cl.NOISE_FREE, None),
                                   ("nc", cl.NOISE_CORRUPTED, kappa[0])):
        raised.append(_cli_matches(
            ["select", f"--k={k}", f"--dynamics={flag}", f"--budget={budget}", *common]
            + ([] if scalar is None else [f"--kappa={scalar!r}"]),
            lambda: cl.brute_force_select(g, k, dynamics, kappa=scalar, budget=budget),
            lambda r: {"dynamics": r.dynamics, "k": r.k, "value": r.value,
                       "optimal_sets": [[x + shift for x in S] for S in r.optimal_sets],
                       "co_optimal_count": r.co_optimal_count,
                       "evaluated_count": r.evaluated_count, "graph": label}))
    return raised


def _written(folder, g, fmt):
    path = folder / ("graph.txt" if fmt == "edges" else "graph.json")
    path.write_text(cl.write_edge_list(g) if fmt == "edges" else cl.write_graph_json(g))
    return path


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(_cli_cases())
def test_cli_and_library_agree_on_written_graphs(tmp_path_factory, case):
    folder = tmp_path_factory.mktemp("graphs")
    for fmt in ("edges", "json"):
        path = _written(folder, case[0], fmt)
        for shift in (0, 1):
            assert not any(_cli_agrees(case, path, shift))


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_cli_exit_codes_follow_the_library_error_class(tmp_path_factory, corruption):
    @settings(derandomize=True, database=None, deadline=None, max_examples=3)
    @given(_cli_cases(corruption), st.sampled_from(["edges", "json"]), st.integers(0, 1))
    def check(case, fmt, shift):
        path = _written(tmp_path_factory.mktemp("graphs"), case[0], fmt)
        assert any(_cli_agrees(case, path, shift))

    check()


def test_kappa_list_follows_leader_order_in_library_and_cli():
    g = cl.build_cycle(8)
    lib = cl.coherence_nc(g, (5, 0), kappa=[1, 50])
    assert lib.kappa == {0: 50.0, 5: 1.0}
    assert lib.value == pytest.approx(naive_nc_value(g, (0, 5), {0: 50.0, 5: 1.0}),
                                      rel=1e-10)
    assert cl.coherence_nc(g, (5, 0), kappa=[1, 50], method="resistance").value == (
        pytest.approx(lib.value, rel=1e-10))
    doc = run_json(["coherence", "--graph", "cycle:8", "--leaders", "5,0",
                    "--dynamics", "nc", "--kappa", "1,50"])
    assert doc["value"] == lib.value
    assert doc["kappa"] == {"0": 50.0, "5": 1.0}

    cfg = cl.SimConfig(dt=0.01, horizon=5.0, trials=3, seed=4)
    sim = cl.simulate_nc(g, (5, 0), cfg, kappa=[1, 50])
    assert sim.value == cl.simulate_nc(g, (0, 5), cfg, kappa={0: 50.0, 5: 1.0}).value
    doc = run_json(["simulate", "--graph", "cycle:8", "--leaders", "5,0",
                    "--dynamics", "nc", "--kappa", "1,50", "--dt", "0.01",
                    "--horizon", "5", "--trials", "3", "--seed", "4"])
    assert doc["value"] == sim.value
    assert doc["kappa"] == {"0": 50.0, "5": 1.0}


def test_unstable_simulation_is_computational_error():
    # grounded eigenvalue 1 puts the stability bound at dt < 2
    code, out, err = run(["simulate", "--graph", "path:2", "--leaders", "0",
                          "--dt", "2.5", "--horizon", "10"])
    assert code == 1
    assert "stability" in err


def test_usage_error_exit_code():
    code, _, _ = run(["coherence"])
    assert code == 2
