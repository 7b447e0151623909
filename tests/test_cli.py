import csv
import io
import json
import warnings

import jsonschema
import pytest

import coherence_lab as cl
from coherence_lab import electrical
from coherence_lab.cli import parse_graph_spec, run_cli
from coherence_lab.errors import GraphSpecError

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
    code, out, err = run(["select", "--graph", "cycle:20", "--k", "1"])
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


def test_forest_elimination_failure_exit_code(tmp_path):
    path = tmp_path / "stiff_tree.txt"
    path.write_text("0 1 1.0\n1 2 1e200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["coherence", "--graph", f"file:{path}", "--leaders", "0"])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "pivot" in err


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
    ]
    for argv in cases:
        code, out, err = run(argv)
        assert code == 2, (argv, err)
        assert out == ""
        assert len(err.strip().splitlines()) == 1, (argv, err)


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
