"""Command-line front end.

Subcommands: coherence, resistance, select, closed-form, grow-tree,
simulate, sweep. Results go to stdout as JSON (default) or CSV
(``--format csv``); diagnostics go to stderr. Exit codes: 0 success, 2
input/validation problem, 1 computational failure.

Graph specs: ``cycle:n``, ``path:n``, ``tree:M:h``, or ``file:PATH``
(edge-list or JSON file). Node ids are 0-based everywhere unless
``--one-based`` is given, which shifts both parsed and emitted ids so
that scripts can match 1-based labelling conventions.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict

from . import closed_forms, coherence, selection, simulate, treegrow
from .electrical import leaders_with_kappa
from .errors import (
    ComputationError,
    GraphSpecError,
    ValidationError,
)
from .graphs import (
    Graph,
    build_cycle,
    build_path,
    build_perfect_tree,
    read_graph_file,
)

FORMATS = ("json", "csv")


# ---------------------------------------------------------------------------
# parsing helpers

def parse_graph_spec(spec: str):
    """Resolve a graph spec string to (graph, label, perfect-tree-or-None)."""
    parts = spec.split(":")
    kind = parts[0].strip().lower()
    try:
        if kind == "cycle" and len(parts) == 2:
            return build_cycle(int(parts[1])), spec, None
        if kind == "path" and len(parts) == 2:
            return build_path(int(parts[1])), spec, None
        if kind == "tree" and len(parts) == 3:
            ptree = build_perfect_tree(int(parts[1]), int(parts[2]))
            return ptree.graph, spec, ptree
        if kind == "file" and len(parts) >= 2:
            path = spec.split(":", 1)[1]
            return read_graph_file(path), spec, None
    except ValueError as exc:
        raise GraphSpecError(f"bad graph spec {spec!r}: {exc}") from exc
    raise GraphSpecError(
        f"bad graph spec {spec!r} (expected cycle:n, path:n, tree:M:h or file:PATH)"
    )


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(" ", "").split(",") if tok != ""]
    except ValueError as exc:
        raise ValidationError(f"bad {what} list {text!r}: {exc}") from exc


def _parse_kappa(text: str | None):
    if text is None:
        return None
    toks = [t for t in text.replace(" ", "").split(",") if t != ""]
    try:
        values = [float(t) for t in toks]
    except ValueError as exc:
        raise ValidationError(f"bad kappa {text!r}: {exc}") from exc
    return values[0] if len(values) == 1 else values


def _shift_in(ids: list[int], one_based: bool) -> list[int]:
    return [v - 1 for v in ids] if one_based else ids


def _shift_out(ids, one_based: bool):
    return [v + 1 for v in ids] if one_based else list(ids)


# ---------------------------------------------------------------------------
# output helpers

def _emit(doc, fmt: str, stream) -> None:
    if fmt == "json":
        print(json.dumps(doc), file=stream)
        return
    rows = doc if isinstance(doc, list) else [doc]
    flat_rows = []
    for row in rows:
        flat = {}
        for key, val in row.items():
            if isinstance(val, (list, tuple)):
                flat[key] = ";".join(str(x) for x in val)
            elif isinstance(val, dict):
                flat[key] = ";".join(f"{k}={v}" for k, v in val.items())
            else:
                flat[key] = val
        flat_rows.append(flat)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(flat_rows[0].keys()),
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(flat_rows)
    stream.write(buf.getvalue())


# ---------------------------------------------------------------------------
# subcommand handlers

def _report_doc(report: coherence.CoherenceReport, one_based: bool) -> dict:
    """The report's document, with leader ids and kappa keys shifted out."""
    doc = report.to_dict()
    if one_based and report.leaders is not None:
        doc["leaders"] = _shift_out(report.leaders, True)
        if report.kappa:
            doc["kappa"] = {str(v + 1): k for v, k in report.kappa.items()}
    return doc


def _cmd_coherence(args, out) -> int:
    g, label, _ = parse_graph_spec(args.graph)
    if args.dynamics == "free":
        report = coherence.leader_free_coherence(g, graph_label=label)
        _emit(report.to_dict(), args.format, out)
        return 0
    if args.leaders is None:
        raise ValidationError("--leaders is required unless --dynamics free")
    leaders = _shift_in(_parse_int_list(args.leaders, "leader"), args.one_based)
    kappa = _parse_kappa(args.kappa)
    if args.method == "closed-form":
        report = _closed_form_coherence(args, g, label, leaders)
    elif args.dynamics == "nf":
        report = coherence.coherence_nf(g, leaders, method=args.method,
                                        graph_label=label)
    else:
        report = coherence.coherence_nc(g, leaders, kappa=kappa,
                                        method=args.method, graph_label=label)
    _emit(_report_doc(report, args.one_based), args.format, out)
    return 0


def _closed_form_coherence(args, g: Graph, label: str,
                           leaders) -> coherence.CoherenceReport:
    family = label.split(":", 1)[0]
    if args.dynamics != "nf":
        raise ValidationError("--method closed-form supports --dynamics nf only")
    if family == "cycle":
        gaps = closed_forms.gaps_from_cycle_leaders(g.node_count, leaders)
        value = closed_forms.cycle_nf_coherence(gaps, n=g.node_count)
    elif family == "path":
        gaps = closed_forms.gaps_from_path_leaders(g.node_count, leaders)
        value = closed_forms.path_nf_coherence(gaps)
    else:
        raise ValidationError(
            "--method closed-form needs a cycle:n or path:n graph spec"
        )
    return coherence.CoherenceReport(
        value=value, dynamics=coherence.NOISE_FREE, method="closed_form",
        graph=label, leaders=tuple(sorted(set(leaders))),
        extra={"gaps": list(gaps)},
    )


def _cmd_resistance(args, out) -> int:
    g, label, _ = parse_graph_spec(args.graph)
    from . import electrical

    if args.pair is not None:
        pair = _shift_in(_parse_int_list(args.pair, "pair"), args.one_based)
        if len(pair) != 2:
            raise ValidationError("--pair needs exactly two node ids")
        value = electrical.resistance(g, pair[0], pair[1])
        doc = {"resistance": value, "graph": label,
               "pair": _shift_out(pair, args.one_based)}
    elif args.node is not None and args.to is not None:
        node = _shift_in([int(args.node)], args.one_based)[0]
        leaders = _shift_in(_parse_int_list(args.to, "leader"), args.one_based)
        value = electrical.resistance_to_set(g, node, leaders)
        doc = {
            "resistance": value,
            "graph": label,
            "node": _shift_out([node], args.one_based)[0],
            "leaders": _shift_out(sorted(set(leaders)), args.one_based),
        }
    else:
        raise ValidationError("give either --pair u,v or --node u --to i,j,...")
    _emit(doc, args.format, out)
    return 0


def _cmd_select(args, out) -> int:
    g, label, ptree = parse_graph_spec(args.graph)
    dynamics = (coherence.NOISE_FREE if args.dynamics == "nf"
                else coherence.NOISE_CORRUPTED)
    kappa = _parse_kappa(args.kappa)
    if isinstance(kappa, list):
        raise ValidationError("select only accepts a scalar --kappa")
    result = selection.brute_force_select(g, args.k, dynamics=dynamics,
                                          kappa=kappa, budget=args.budget)
    doc = {
        "dynamics": result.dynamics,
        "k": result.k,
        "value": result.value,
        "optimal_sets": [_shift_out(s, args.one_based) for s in result.optimal_sets],
        "co_optimal_count": result.co_optimal_count,
        "evaluated_count": result.evaluated_count,
        "elapsed_seconds": result.elapsed_seconds,
        "graph": label,
    }
    if ptree is not None and args.k == 2 and result.optimal_sets:
        x, y = result.optimal_sets[0]
        d_xr, d_yr, d_xy, _ = closed_forms.tree_pair_geometry(ptree, x, y)
        doc["d_xr"], doc["d_yr"], doc["d_xy"] = min(d_xr, d_yr), max(d_xr, d_yr), d_xy
    if args.format == "csv":
        doc["optimal_sets"] = [" ".join(map(str, s)) for s in doc["optimal_sets"]]
    _emit(doc, args.format, out)
    return 0


def _cmd_closed_form(args, out) -> int:
    form = args.form
    if form == "cycle-nf":
        if args.gaps:
            gaps = tuple(_parse_int_list(args.gaps, "gap"))
            doc = {"form": form, "gaps": list(gaps), "n": sum(gaps),
                   "value": closed_forms.cycle_nf_coherence(gaps)}
        else:
            if args.n is None or args.k is None:
                raise ValidationError("cycle-nf needs --gaps or both --n and --k")
            gaps, value = closed_forms.cycle_nf_optimal(args.n, args.k)
            leaders = closed_forms.cycle_leaders_from_gaps(gaps)
            doc = {"form": form, "n": args.n, "k": args.k, "gaps": list(gaps),
                   "leaders": list(leaders), "value": value}
    elif form == "path-nf":
        if args.gaps:
            gaps = tuple(_parse_int_list(args.gaps, "gap"))
            doc = {"form": form, "gaps": list(gaps), "n": sum(gaps) + 1,
                   "value": closed_forms.path_nf_coherence(gaps)}
        else:
            if args.n is None or args.k is None:
                raise ValidationError("path-nf needs --gaps or both --n and --k")
            gaps, value = closed_forms.path_nf_optimal(args.n, args.k)
            leaders = closed_forms.path_leaders_from_gaps(gaps)
            doc = {"form": form, "n": args.n, "k": args.k, "gaps": list(gaps),
                   "leaders": list(leaders), "value": value}
    elif form == "tree":
        if args.m is None or args.height is None:
            raise ValidationError("tree needs --m and --height")
        if args.dxr is not None and args.dxy is not None:
            value = closed_forms.tree_two_leader_coherence(
                args.m, args.height, args.dxr, args.dxy)
            doc = {"form": form, "m": args.m, "height": args.height,
                   "d_xr": args.dxr, "d_xy": args.dxy, "value": value}
        else:
            opt = closed_forms.tree_optimal_two(args.m, args.height)
            doc = {"form": form, "m": args.m, "height": args.height,
                   "d_xr": opt.d_xr, "d_xy": opt.d_xy, "value": opt.value,
                   "pair": list(opt.pair),
                   "exhaustive_fallback": opt.exhaustive_fallback}
    elif form == "cycle-nc":
        if args.n is None:
            raise ValidationError("cycle-nc needs --n")
        if args.i is not None:
            value = closed_forms.cycle_nc_two_coherence(args.n, args.i)
            doc = {"form": form, "n": args.n, "i": args.i, "value": value}
        else:
            doc = {"form": form, "n": args.n,
                   "i_opt": closed_forms.cycle_nc_optimal_i(args.n),
                   "value": closed_forms.cycle_nc_optimal_value(args.n)}
    else:
        raise ValidationError(f"unknown closed form {form!r}")
    _emit(doc, args.format, out)
    return 0


def _cmd_grow_tree(args, out) -> int:
    result = treegrow.grow_trajectory(args.h0, steps=args.steps,
                                      include_global=args.global_optima)
    rows = [asdict(r) for r in result.rows]
    if args.format == "json":
        doc = {"designated": list(result.designated), "rows": rows}
        if args.global_optima:
            doc["global_rows"] = [asdict(r) for r in result.global_rows]
        _emit(doc, "json", out)
    else:
        print(f"# designated={result.designated[0]}-{result.designated[1]}",
              file=out)
        _emit(rows, "csv", out)
        if args.global_optima:
            print("# global two-leader optimum per step", file=out)
            _emit([asdict(r) for r in result.global_rows], "csv", out)
    return 0


def _cmd_simulate(args, out) -> int:
    g, label, _ = parse_graph_spec(args.graph)
    if args.leaders is None:
        raise ValidationError("simulate requires --leaders")
    leaders = _shift_in(_parse_int_list(args.leaders, "leader"), args.one_based)
    kappa = _parse_kappa(args.kappa)
    cfg = simulate.SimConfig(dt=args.dt, horizon=args.horizon,
                             burn_in=args.burn_in, trials=args.trials,
                             seed=args.seed)
    if args.dynamics == "nf":
        res = simulate.simulate_nf(g, leaders, cfg)
        dynamics, kappa_map = coherence.NOISE_FREE, None
    else:
        res = simulate.simulate_nc(g, leaders, cfg, kappa=kappa)
        S, kvec = leaders_with_kappa(g, leaders, kappa)
        dynamics, kappa_map = coherence.NOISE_CORRUPTED, dict(zip(S, kvec.tolist()))
    report = coherence.CoherenceReport(
        value=res.value, dynamics=dynamics, method="simulation", graph=label,
        leaders=tuple(sorted(set(leaders))), kappa=kappa_map, stderr=res.stderr,
        extra={"steps": res.steps, "kept_steps": res.kept_steps,
               "trials": res.trials, "seed": args.seed},
    )
    _emit(_report_doc(report, args.one_based), args.format, out)
    return 0


def _cmd_sweep(args, out) -> int:
    ns = _parse_int_list(args.n_values, "n")
    rows = []
    for n in ns:
        if args.family == "cycle-nf":
            k = args.k or 1
            gaps, value = closed_forms.cycle_nf_optimal(n, k)
            rows.append({"family": args.family, "n": n, "k": k,
                         "dynamics": "noise_free", "method": "closed_form",
                         "value": value})
        elif args.family == "cycle-nc":
            rows.append({"family": args.family, "n": n, "k": 2,
                         "dynamics": "noise_corrupted", "method": "closed_form",
                         "value": closed_forms.cycle_nc_optimal_value(n)})
        elif args.family == "cycle-free":
            report = coherence.leader_free_coherence(build_cycle(n))
            rows.append({"family": args.family, "n": n, "k": 0,
                         "dynamics": "leader_free", "method": "trace",
                         "value": report.value})
        elif args.family == "path-nf":
            k = args.k or 1
            gaps, value = closed_forms.path_nf_optimal(n, k)
            rows.append({"family": args.family, "n": n, "k": k,
                         "dynamics": "noise_free", "method": "closed_form",
                         "value": value})
        else:
            raise ValidationError(f"unknown sweep family {args.family!r}")
    if args.format == "json":
        _emit({"family": args.family, "rows": rows}, "json", out)
    else:
        _emit(rows, "csv", out)
    return 0


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherence-lab",
        description="Coherence and leader placement in noisy consensus networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, leaders=True):
        p.add_argument("--graph", required=True,
                       help="cycle:n | path:n | tree:M:h | file:PATH")
        if leaders:
            p.add_argument("--leaders", help="comma-separated node ids")
            p.add_argument("--kappa", help="scalar or per-leader list")
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--one-based", action="store_true",
                       help="parse and emit 1-based node ids")

    p = sub.add_parser("coherence", help="coherence of a leader set")
    common(p)
    p.add_argument("--dynamics", choices=("nf", "nc", "free"), default="nf")
    p.add_argument("--method", choices=("trace", "resistance", "closed-form"),
                   default="trace")
    p.set_defaults(handler=_cmd_coherence)

    p = sub.add_parser("resistance", help="pairwise or node-to-set resistance")
    p.add_argument("--graph", required=True)
    p.add_argument("--pair", help="two node ids: u,v")
    p.add_argument("--node", type=int, help="query node")
    p.add_argument("--to", help="grounded node set")
    p.add_argument("--format", choices=FORMATS, default="json")
    p.add_argument("--one-based", action="store_true")
    p.set_defaults(handler=_cmd_resistance)

    p = sub.add_parser("select", help="exhaustive k-leader selection")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dynamics", choices=("nf", "nc"), default="nf")
    p.add_argument("--kappa")
    p.add_argument("--budget", type=int, default=selection.DEFAULT_BUDGET)
    p.add_argument("--format", choices=FORMATS, default="json")
    p.add_argument("--one-based", action="store_true")
    p.set_defaults(handler=_cmd_select)

    p = sub.add_parser("closed-form", help="analytic coherence formulas")
    p.add_argument("form", choices=("cycle-nf", "path-nf", "tree", "cycle-nc"))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--gaps", help="comma-separated gap vector")
    p.add_argument("--m", type=int, help="tree branching factor")
    p.add_argument("--height", type=int)
    p.add_argument("--dxr", type=int)
    p.add_argument("--dxy", type=int)
    p.add_argument("--i", type=int, help="second leader position (1-based)")
    p.add_argument("--format", choices=FORMATS, default="json")
    p.set_defaults(handler=_cmd_closed_form)

    p = sub.add_parser("grow-tree", help="grow a binary tree, tracking the "
                                         "designated leader pair")
    p.add_argument("--h0", type=int, default=5, help="initial perfect height")
    p.add_argument("--steps", type=int, default=None,
                   help="nodes to add (default: grow one full level)")
    p.add_argument("--global-optima", action="store_true",
                   help="also report the global best pair per step")
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.set_defaults(handler=_cmd_grow_tree)

    p = sub.add_parser("simulate", help="Euler-Maruyama validation run")
    common(p)
    p.add_argument("--dynamics", choices=("nf", "nc"), default="nf")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=200.0)
    p.add_argument("--burn-in", type=float, default=0.25)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", help="family sweeps for scaling studies")
    p.add_argument("--family", required=True,
                   choices=("cycle-nf", "cycle-nc", "cycle-free", "path-nf"))
    p.add_argument("--n-values", required=True, help="comma-separated sizes")
    p.add_argument("--k", type=int)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.set_defaults(handler=_cmd_sweep)
    return parser


def run_cli(argv, out=None, err=None) -> int:
    """Parse and execute; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, out)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=err)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
