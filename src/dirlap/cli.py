"""Command-line front end: compare, reorder, generate, curve.

Exit codes: 0 success, 1 input error, 2 degenerate graph, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import (DirectedGraph, EdgeListError, GraphStructureError,
                     apply_ordering, csv_text, largest_scc, largest_wcc,
                     parse_edge_list, serialize_edge_list, serialize_ordering)
from .inference import (GAMMA_MAX, GAMMA_MIN, ComparisonReport, compare_models,
                        fit_gamma_density, fit_gamma_mle, likelihood_curve,
                        select_g)
from .models import (PRDRGParams, TrophicParams, _LevelModel, _PairModel,
                     gen_clustered_angles, gen_trophic_levels,
                     make_weighted_trophic_logdensity, prdrg_sample,
                     trophic_sample)
from .spectral import (DegeneracyWarning, NumericalError, assignment_to_csv,
                       magnetic_algorithm, trophic_algorithm)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_NUMERICAL = 3

DEFAULT_G_LIST = "1/2,1/3,1/4,1/5,1/6"

LOGLIK_FMT = "%.5e"   # 6 significant digits for likelihood-scale values
GAMMA_FMT = "%.6g"
VALUE_FMT = "%.12g"


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1), not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error [arguments]: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


class _StageError(Exception):
    def __init__(self, stage: str, message: str, code: int):
        super().__init__(message)
        self.stage = stage
        self.code = code


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by the analysis commands."""

    input_path: Path
    component: str                      # scc | wcc | auto
    g_candidates: tuple[tuple[str, float], ...]   # (label, value)
    gamma_min: float
    gamma_max: float
    out_dir: Path
    weighted: bool

    def __post_init__(self):
        if not (0 < self.gamma_min < self.gamma_max < np.inf):
            raise ValueError("gamma bounds must be finite and satisfy 0 < min < max")
        for label, value in self.g_candidates:
            if not 0.0 < value <= 0.5:
                raise ValueError(f"g candidate {label} outside (0, 1/2]")


def _parse_g_list(text: str) -> tuple[tuple[str, float], ...]:
    out = []
    for token in filter(None, map(str.strip, text.split(","))):
        num, slash, den = token.partition("/")
        num, den = float(num), float(den) if slash else 1.0
        if den == 0.0:
            raise ValueError(f"g candidate {token} has a zero denominator")
        out.append((token, num / den))
    if not out:
        raise ValueError("empty g list")
    return tuple(out)


def _g_label(cfg: RunConfig, value: float) -> str:
    for label, v in cfg.g_candidates:
        if v == value:
            return label
    return GAMMA_FMT % value


def _parse_single_g(token: str) -> float:
    try:
        return _parse_g_list(token)[0][1]
    except ValueError as exc:
        raise _StageError("arguments", f"bad rotation parameter {token!r}: {exc}",
                          EXIT_INPUT) from exc


def _config_from_args(args) -> RunConfig:
    try:
        candidates = _parse_g_list(args.g_list)
        return RunConfig(
            input_path=Path(args.input),
            component=args.component,
            g_candidates=candidates,
            gamma_min=args.gamma_min,
            gamma_max=args.gamma_max,
            out_dir=Path(getattr(args, "out_dir", ".")),
            weighted=args.weighted,
        )
    except ValueError as exc:
        raise _StageError("arguments", str(exc), EXIT_INPUT) from exc


def _load_graph(path: Path, weighted: bool):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _StageError("read", str(exc), EXIT_INPUT) from exc
    try:
        result = parse_edge_list(text, weighted=weighted)
    except EdgeListError as exc:
        raise _StageError("parse", str(exc), EXIT_INPUT) from exc
    if result.graph.n == 0:
        raise _StageError("parse", f"no nodes found in {path}", EXIT_INPUT)
    if result.self_loops_dropped:
        print(f"notice: dropped {result.self_loops_dropped} self-loop line(s)",
              file=sys.stderr)
    return result


def _select_component(graph: DirectedGraph, policy: str):
    try:
        used = "wcc" if policy == "wcc" else "scc"
        sub, index_map = (largest_wcc if used == "wcc" else largest_scc)(graph)
        if policy == "auto" and sub.n < 3:
            print(f"notice: largest strongly connected component has only "
                  f"{sub.n} node(s); falling back to the weakly connected one",
                  file=sys.stderr)
            sub, index_map = largest_wcc(graph)
            used = "wcc"
    except GraphStructureError as exc:
        raise _StageError("component", str(exc), EXIT_DEGENERATE) from exc
    return sub, index_map, used


def _require_analyzable(sub: DirectedGraph):
    if sub.n < 2 or sub.edge_count == 0:
        raise _StageError("component", f"component has {sub.n} node(s) and "
                          f"{sub.edge_count} edge(s); nothing to analyze",
                          EXIT_DEGENERATE)


def _write(path: Path, content: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(content)


def _curve_csv(gammas, logliks) -> str:
    return csv_text(["gamma", "loglik"], ((GAMMA_FMT % g, LOGLIK_FMT % v)
                                          for g, v in zip(gammas, logliks)))


def _format_report(cfg: RunConfig, dataset: str, raw: DirectedGraph,
                   self_loops: int, used: str, sub: DirectedGraph,
                   report: ComparisonReport) -> str:
    lines = []
    lines.append("[input]")
    lines.append(f"dataset = {dataset}")
    lines.append(f"file = {cfg.input_path}")
    lines.append(f"nodes_parsed = {raw.n}")
    lines.append(f"edges_parsed = {raw.edge_count}")
    lines.append(f"self_loops_dropped = {self_loops}")
    lines.append(f"component_policy = {cfg.component}")
    lines.append(f"component_used = {used}")
    lines.append(f"nodes = {sub.n}")
    lines.append(f"edges = {sub.edge_count}")
    lines.append("")
    lines.append("[magnetic]")
    lines.append(f"candidates = {', '.join(label for label, _ in cfg.g_candidates)}")
    for fit in report.per_g:
        label = _g_label(cfg, fit.g)
        lines.append(f"gamma_mle[{label}] = {GAMMA_FMT % fit.gamma_mle}")
        lines.append(f"loglik[{label}] = {LOGLIK_FMT % fit.loglik}")
    best = report.prdrg_fit
    lines.append(f"best_g = {_g_label(cfg, report.best_g)}")
    lines.append(f"gamma_mle = {GAMMA_FMT % best.gamma_mle}")
    lines.append(f"loglik = {LOGLIK_FMT % best.loglik_at_mle}")
    lines.append(f"gamma_at_upper_bound = {str(best.at_upper_bound).lower()}")
    lines.append(f"gamma_at_lower_bound = {str(best.at_lower_bound).lower()}")
    lines.append("gamma_density = " + (GAMMA_FMT % best.gamma_density
                                       if best.gamma_density is not None else "n/a"))
    lines.append("")
    lines.append("[trophic]")
    trophic = report.trophic_fit
    lines.append(f"gamma_mle = {GAMMA_FMT % trophic.gamma_mle}")
    lines.append(f"loglik = {LOGLIK_FMT % trophic.loglik_at_mle}")
    lines.append(f"gamma_at_upper_bound = {str(trophic.at_upper_bound).lower()}")
    lines.append(f"gamma_at_lower_bound = {str(trophic.at_lower_bound).lower()}")
    lines.append("gamma_density = " + (GAMMA_FMT % trophic.gamma_density
                                       if trophic.gamma_density is not None else "n/a"))
    lines.append("")
    lines.append("[comparison]")
    lines.append(f"log_likelihood_ratio = {LOGLIK_FMT % report.log_ratio}")
    lines.append(f"verdict = {report.verdict}")
    return "".join(line + "\n" for line in lines)


def cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    parsed = _load_graph(cfg.input_path, cfg.weighted)
    if parsed.graph.is_weighted:
        raise _StageError("input", "model comparison requires an unweighted edge list",
                          EXIT_INPUT)
    sub, _, used = _select_component(parsed.graph, cfg.component)
    _require_analyzable(sub)
    report = compare_models(sub, [v for _, v in cfg.g_candidates],
                            cfg.gamma_min, cfg.gamma_max)
    dataset = cfg.input_path.stem
    out = cfg.out_dir
    _write(out / "report.txt",
           _format_report(cfg, dataset, parsed.graph, parsed.self_loops_dropped,
                          used, sub, report))
    summary = csv_text(["dataset", "nodes", "edges", "g", "ln_ratio"],
                       [(dataset, sub.n, sub.edge_count, _g_label(cfg, report.best_g),
                         LOGLIK_FMT % report.log_ratio)])
    _write(out / "summary.csv", summary)
    _write(out / "phases.csv", assignment_to_csv(sub, report.phases.theta))
    _write(out / "levels.csv", assignment_to_csv(sub, report.levels.h))
    _write(out / "likelihood_curve_prdrg.csv",
           _curve_csv(report.prdrg_fit.curve_gamma, report.prdrg_fit.curve_loglik))
    _write(out / "likelihood_curve_trophic.csv",
           _curve_csv(report.trophic_fit.curve_gamma, report.trophic_fit.curve_loglik))
    print(f"verdict: {report.verdict} (ln ratio {LOGLIK_FMT % report.log_ratio}, "
          f"g = {_g_label(cfg, report.best_g)})")
    return EXIT_OK


def _reordered_triples(graph: DirectedGraph, perm: np.ndarray) -> str:
    rank = np.empty(graph.n, dtype=int)
    rank[perm] = np.arange(graph.n)
    rows, cols = rank[graph.edge_index[:, 0]], rank[graph.edge_index[:, 1]]
    order = np.lexsort((cols, rows))
    values = (graph.edge_weights[order] if graph.is_weighted
              else np.ones(graph.edge_count))
    return csv_text(["row", "col", "value"],
                    zip(rows[order].tolist(), cols[order].tolist(),
                        (VALUE_FMT % v for v in values.tolist())))


def cmd_reorder(args) -> int:
    cfg = _config_from_args(args)
    parsed = _load_graph(cfg.input_path, cfg.weighted)
    sub, _, _ = _select_component(parsed.graph, cfg.component)
    _require_analyzable(sub)
    if args.method == "magnetic":
        if sub.is_weighted:
            raise _StageError("input", "magnetic reordering requires an "
                              "unweighted edge list", EXIT_INPUT)
        if args.g is not None:
            g = _parse_single_g(args.g)
            score = magnetic_algorithm(sub, g).theta
        else:
            selection = select_g(sub, [v for _, v in cfg.g_candidates],
                                 cfg.gamma_min, cfg.gamma_max)
            print(f"notice: rotation chosen by likelihood: "
                  f"g = {_g_label(cfg, selection.best.g)}", file=sys.stderr)
            score = selection.assignment.theta
    else:
        score = trophic_algorithm(sub).h
    perm = apply_ordering(sub, score)
    _write(cfg.out_dir / "ordering.csv", serialize_ordering(sub, perm))
    _write(cfg.out_dir / "reordered_adjacency.csv", _reordered_triples(sub, perm))
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.clusters < 1 or args.cluster_size < 1:
        raise _StageError("arguments", "clusters and cluster-size must be >= 1",
                          EXIT_INPUT)
    if not (0 <= args.noise < np.inf and 0 <= args.gamma < np.inf):
        raise _StageError("arguments", "noise and gamma must be finite and >= 0",
                          EXIT_INPUT)
    attr_seed, edge_seed = np.random.SeedSequence(args.seed).spawn(2)
    if args.model == "prdrg":
        # one rotation step per cluster; a single cluster has no step to
        # encode, so any admissible rotation does
        g = (_parse_single_g(args.g) if args.g is not None
             else 1.0 / max(args.clusters, 2))
        if not 0.0 < g <= 0.5:
            raise _StageError("arguments", f"g={g:g} outside (0, 1/2]", EXIT_INPUT)
        attributes = gen_clustered_angles(args.clusters, args.cluster_size,
                                          args.noise, attr_seed)
        graph = prdrg_sample(PRDRGParams(attributes, args.gamma, g), edge_seed)
    else:
        g = None
        attributes = gen_trophic_levels(args.clusters, args.cluster_size,
                                        args.noise, attr_seed)
        graph = trophic_sample(TrophicParams(attributes, args.gamma), edge_seed)
    out = Path(args.out)
    _write(out, serialize_edge_list(graph))
    meta = [
        f"model = {args.model}",
        f"clusters = {args.clusters}",
        f"cluster_size = {args.cluster_size}",
        f"noise = {args.noise!r}",
        f"gamma = {args.gamma!r}",
    ]
    if g is not None:
        meta.append(f"g = {g!r}")
    meta += [
        f"seed = {args.seed}",
        f"nodes = {graph.n}",
        f"edges = {graph.edge_count}",
    ]
    _write(Path(str(out) + ".meta"), "".join(line + "\n" for line in meta))
    _write(Path(str(out) + ".attributes.csv"), assignment_to_csv(graph, attributes))
    print(f"wrote {graph.n} nodes, {graph.edge_count} edges to {out}")
    return EXIT_OK


def _read_attributes(path: Path, graph: DirectedGraph) -> np.ndarray:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _StageError("read", str(exc), EXIT_INPUT) from exc
    try:
        rows = [row for row in csv.reader(io.StringIO(text))
                if any(field.strip() for field in row)]
    except csv.Error as exc:
        raise _StageError("attributes", f"unreadable CSV: {exc}", EXIT_INPUT) from exc
    if rows and rows[0][0].strip().lower() == "label":
        rows = rows[1:]
    values: dict[str, float] = {}
    for lineno, row in enumerate(rows, start=1):
        try:
            label, value = row
            values[label.strip()] = float(value)
        except ValueError:
            raise _StageError("attributes", f"bad attribute row {lineno}: {row!r}",
                              EXIT_INPUT) from None
    if len(values) != graph.n:
        raise _StageError("attributes", f"{len(values)} attribute value(s) for "
                          f"{graph.n} node(s)", EXIT_INPUT)
    out = np.empty(graph.n)
    for i in range(graph.n):
        label = graph.label(i)
        if label not in values:
            raise _StageError("attributes", f"no attribute value for node {label!r}",
                              EXIT_INPUT)
        out[i] = values[label]
    return out


def cmd_curve(args) -> int:
    cfg = _config_from_args(args)
    if args.grid_points < 1:
        raise _StageError("arguments", "grid-points must be >= 1", EXIT_INPUT)
    if args.model == "prdrg":
        if args.g is None:
            raise _StageError("arguments", "--g is required for the prdrg curve",
                              EXIT_INPUT)
        g = _parse_single_g(args.g)
    parsed = _load_graph(cfg.input_path, cfg.weighted)
    graph = parsed.graph
    attributes = _read_attributes(Path(args.attributes), graph)
    model = None    # the weight density of a weighted graph has no edge count
    if args.model == "prdrg":
        if graph.is_weighted:
            raise _StageError("input", "the prdrg curve requires an unweighted "
                              "edge list", EXIT_INPUT)
        model = _PairModel(attributes, g, graph)
    elif not graph.is_weighted:
        model = _LevelModel(attributes, graph)
    loglik = model.loglik if model else make_weighted_trophic_logdensity(graph, attributes)
    grid, values = likelihood_curve(loglik, cfg.gamma_min, cfg.gamma_max,
                                    args.grid_points)
    mle = fit_gamma_mle(functools.partial(loglik, derivatives=True),
                        cfg.gamma_min, cfg.gamma_max)
    density_gamma = None
    if model is not None:
        try:
            density_gamma = fit_gamma_density(
                functools.partial(model.expected_edges, derivatives=True),
                graph.edge_count, gamma_max=cfg.gamma_max)
        except ValueError as exc:
            print(f"notice: no density-matching estimate: {exc}",
                  file=sys.stderr)
    mle_mark = int(np.argmin(np.abs(np.log(grid) - np.log(mle.gamma))))
    density_mark = (int(np.argmin(np.abs(np.log(grid) - np.log(density_gamma))))
                    if density_gamma is not None else None)
    rows = ((GAMMA_FMT % x, LOGLIK_FMT % v, int(k == mle_mark),
             int(k == density_mark)) for k, (x, v) in enumerate(zip(grid, values)))
    _write(Path(args.out),
           csv_text(["gamma", "loglik", "is_mle", "is_density_match"], rows))
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, with_outdir: bool = True):
    parser.add_argument("--input", required=True, help="edge-list file")
    parser.add_argument("--component", choices=("scc", "wcc", "auto"),
                        default="auto",
                        help="component to analyze (auto: scc unless it has "
                        "fewer than 3 nodes, then wcc)")
    parser.add_argument("--g-list", default=DEFAULT_G_LIST,
                        help="comma-separated rotation candidates, e.g. 1/2,1/3")
    parser.add_argument("--gamma-min", type=float, default=GAMMA_MIN)
    parser.add_argument("--gamma-max", type=float, default=GAMMA_MAX)
    parser.add_argument("--weighted", action="store_true",
                        help="parse a third column as edge weights in (0, 1)")
    if with_outdir:
        parser.add_argument("--out-dir", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dirlap",
                     description="Detect periodic vs linear hierarchy in "
                                 "directed networks")
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="fit both models and compare")
    _add_common(compare)
    compare.set_defaults(func=cmd_compare)

    reorder = sub.add_parser("reorder", help="write a node ordering")
    _add_common(reorder)
    reorder.add_argument("--method", choices=("magnetic", "trophic"),
                         required=True)
    reorder.add_argument("--g", default=None,
                         help="rotation parameter (magnetic); default: best "
                              "by likelihood over --g-list")
    reorder.set_defaults(func=cmd_reorder)

    generate = sub.add_parser("generate", help="sample a synthetic network")
    generate.add_argument("--model", choices=("prdrg", "trophic"), required=True)
    generate.add_argument("--clusters", type=int, required=True)
    generate.add_argument("--cluster-size", type=int, required=True)
    generate.add_argument("--noise", type=float, default=0.0)
    generate.add_argument("--gamma", type=float, required=True)
    generate.add_argument("--g", default=None,
                          help="rotation parameter (prdrg); default 1/clusters")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=cmd_generate)

    curve = sub.add_parser("curve", help="tabulate log-likelihood vs gamma")
    _add_common(curve, with_outdir=False)
    curve.add_argument("--model", choices=("prdrg", "trophic"), required=True)
    curve.add_argument("--attributes", required=True,
                       help="label,value CSV of node angles or levels")
    curve.add_argument("--g", default=None, help="rotation parameter (prdrg)")
    curve.add_argument("--grid-points", type=int, default=64)
    curve.add_argument("--out", required=True)
    curve.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with warnings.catch_warnings():
            # show every degeneracy, not only the first one per source line
            # and process; appended, so a filter the caller set still wins
            warnings.simplefilter("always", DegeneracyWarning, append=True)
            return args.func(args)
    except _StageError as exc:
        print(f"error [{exc.stage}]: {exc}", file=sys.stderr)
        return exc.code
    except (GraphStructureError, NumericalError) as exc:
        # raised inside the library, after the input stages
        print(f"error [analyze]: {exc}", file=sys.stderr)
        return (EXIT_DEGENERATE if isinstance(exc, GraphStructureError)
                else EXIT_NUMERICAL)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
