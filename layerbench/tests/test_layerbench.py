"""Tests of the benchmark itself: op lists, checks, tracing and reporting.

Run from the repository root:

    python3 -m pytest -q layerbench/tests
"""

import ast
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import coherence_lab as cl  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

NF, NC = wl.NF, wl.NC


def tiny_ops(seed=0):
    """One op of every kind and checked branch, at a size that runs in
    milliseconds."""
    rng = np.random.default_rng(seed)
    ops = [
        wl._spec("select", rng, "cycle", 9, dynamics=NF, k=3),
        wl._spec("select", rng, "random", 8, dynamics=NF, k=3),
        wl._spec("select", rng, "tree", tree=(2, 4), dynamics=NF, k=2),
        wl._spec("select", rng, "random", 12, dynamics=NF, k=1),
        wl._spec("select", rng, "cycle", 10, dynamics=NC, k=2, kappa=1.0),
        wl._spec("select", rng, "random", 10, dynamics=NC, k=2, kappa=2.5),
        wl._spec("select", rng, "random", 10, dynamics=NC, k=1, kappa=0.7),
        wl._spec("select", rng, "random", 9, dynamics=NC, k=3, kappa=1.5),
        wl._sim_params(rng, "simulate-nc", "path", 2, 1, 3000, kappa=200.0),
        wl._sim_params(rng, "simulate-nf", "random", 6, 2, 3000),
        wl._spec("xcheck-nf", rng, "random", 12, leaders=[1, 5]),
        wl._spec("xcheck-nf", rng, "tree", tree=(3, 2), leaders=[0]),
        wl._spec("xcheck-nc", rng, "random", 12, leaders=[2, 3], kappa=1.3),
        wl._spec("xcheck-nc", rng, "tree", tree=(2, 3), leaders=[4], kappa=0.9),
        wl._spec("xcheck-lf", rng, "random", 12),
        wl._spec("xcheck-lf", rng, "tree", tree=(2, 3)),
        {**wl._spec("edge-stream", rng, "random", 10),
         "updates": [[0, 7, 1.5, [[1, 2], [0, 9]]], [3, 4, 0.5, [[3, 4]]]]},
        {"kind": "grow", "h0": 4, "steps": 2},
    ]
    return ops


@pytest.fixture(scope="module")
def tiny():
    ops = tiny_ops()
    graphs = [wl.prebuilt_graph(spec) for spec in ops]
    outs = [wl.run_op(spec, g) for spec, g in zip(ops, graphs)]
    return ops, graphs, outs


def test_workload_names_agree():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.WORKLOADS == wl.WORKLOADS == tuple(w["name"] for w in declared["workloads"])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_same_op_list(workload):
    a = wl.digest(wl.make_ops(workload, 7))
    assert a == wl.digest(wl.make_ops(workload, 7))
    assert a != wl.digest(wl.make_ops(workload, 8))
    assert len(wl.make_ops(workload, 7)) % 10 == 5


def test_every_op_kind_passes_its_check(tiny):
    ops, graphs, outs = tiny
    kinds = {spec["kind"] for spec in ops}
    assert kinds == {"select", "simulate-nf", "simulate-nc", "xcheck-nf", "xcheck-nc",
                     "xcheck-lf", "edge-stream", "grow"}
    for spec, g, out in zip(ops, graphs, outs):
        assert wl.check_op(spec, g, out) is None, wl.label(spec)


def _perturb(out):
    """The op's primary value(s), moved by one part in a million."""
    out = json.loads(json.dumps(out))
    if "value" in out:
        out["value"] += 1e-6 * max(1.0, out["value"]) + 100 * out.get("stderr", 0.0)
    elif "routes" in out:
        out["routes"][1] *= 1 + 1e-6
    elif "values" in out:
        out["values"][0][0] *= 1 + 1e-6
    else:
        out["trajectory"][-1] *= 1 + 1e-6
    return out


def test_checks_reject_a_wrong_value(tiny):
    for spec, g, out in zip(*tiny):
        assert wl.check_op(spec, g, _perturb(out)) is not None, wl.label(spec)


def test_repeats_are_compared_with_the_first_run(tiny):
    ops, graphs, outs = tiny
    records = [(i, out, None) for i, out in enumerate(outs)]
    records += [(0, _perturb(outs[0]), None), (1, None, "SolverError: boom")]
    failures = worker.check_records(ops, graphs, records, wl.check_op, wl.same_result)
    assert len(failures) == 2
    assert "differs" in failures[0] and "raised" in failures[1]


def test_em_expectation_matches_stationary_limit():
    lam = np.array([0.5, 2.0, 7.0])
    far = wl.em_expectation(lam, 1e-4, 2_000_000, 1_000_000)
    assert far == pytest.approx(float(np.sum(1.0 / (2.0 * lam))), rel=1e-3)


def test_timed_calls_use_public_names_only():
    tree = ast.parse(inspect.getsource(wl.run_op))
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "cl"}
    assert used and used <= set(cl.__all__)


def test_missing_trace_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("coherence_lab._no_such_module", "f", "x.f", "simulate.em"),
        ("coherence_lab.selection", "no_such_name", "selection.x", "parallel.pool"),
    ))
    rec = tracing.Recorder()
    rec.install()
    rec.uninstall()
    assert rec.absent == ["coherence_lab._no_such_module.f",
                          "coherence_lab.selection.no_such_name"]


def test_traced_run_emits_every_per_layer_name(tiny, monkeypatch):
    ops, graphs, _ = tiny
    original = cl.brute_force_select
    rec = tracing.Recorder()
    rec.install()
    try:
        outputs = [(spec, wl.run_op(spec, g)) for spec, g in zip(ops, graphs)]
    finally:
        rec.uninstall()
    assert cl.brute_force_select is original
    layers = tracing.layer_metrics(rec, outputs)
    for name in ("selection.spd_trace_inverse", "treegrow.resistance_oracle",
                 "coherence.forest_inverse_diagonal", "ResistanceOracle.pair_totals",
                 "_kernels.em_accumulate", "selection.ordered_map"):
        assert name in {rec.names[s[3]] for s in rec.spans()}, name
    assert layers["electrical.factorizations"][0] > 0
    assert layers["treegrow.oracle_rebuilds"][0] == 3
    assert sum(v for k, (v, _) in layers.items() if k.startswith("share.")) == \
        pytest.approx(100.0)

    def fake_spawn(args, deadline, *extra, serial=False):
        res = {"ops_per_s": 2.0 if serial else 3.0, "cpu_per_wall": 1.5,
               "attempted": 1, "failed": 0, "failures": []}
        if "--trace" in extra:
            res["layers"] = layers
        return res

    monkeypatch.setattr(run, "spawn", fake_spawn)
    args = run.argparse.Namespace(workload="select-enum", seed=1, seconds=1)
    _, metrics = run.per_layer(args, deadline=0.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert {k: u for k, (_, u) in metrics.items()} == \
        {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert metrics["parallel.serial_speedup"][0] == pytest.approx(1.5)


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "simulate", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
