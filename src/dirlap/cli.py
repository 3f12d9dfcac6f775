"""Command-line front end: compare, reorder, generate, curve.

Exit codes: 0 success, 1 input error, 2 degenerate graph, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .graphs import (DirectedGraph, EdgeListError, GraphStructureError,
                     apply_ordering, csv_fields, csv_labels, csv_text,
                     largest_scc, largest_wcc, parse_edge_list, rank_fields,
                     serialize_edge_list, serialize_ordering)
from .inference import (GAMMA_MAX, GAMMA_MIN, ComparisonReport, ModelFit,
                        _model_fit, compare_models, select_g)
from .models import (PRDRGParams, TrophicParams, _LevelModel, _PairModel,
                     _WeightedLevelModel, gen_clustered_angles,
                     gen_trophic_levels, prdrg_sample, trophic_sample)
from .spectral import (DegeneracyWarning, NumericalError, magnetic_algorithm,
                       trophic_algorithm)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_NUMERICAL = 3

DEFAULT_G_LIST = "1/2,1/3,1/4,1/5,1/6"

# The largest attribute magnitude ``curve`` accepts, per model, and why.
# Levels: the squared gaps q = (h_j - h_i - 1)^2, and the q^2 that the fits'
# gamma-derivatives take, stay finite up to 1e75.  Angles: float spacing is
# 1.2e-10 at 1e6, and k * theta for the highest Fourier mode, k = 16384, is
# still rounded to 1e-6 rad there; at 1e15 the spacing alone is 0.125.
ATTRIBUTE_LIMITS = {
    "trophic": ("level", 1e75, "its squared gaps to other levels would overflow"),
    "prdrg": ("angle", 1e6, "float spacing there no longer keeps the angle"),
}

LOGLIK_FMT = "%.5e"   # 6 significant digits for likelihood-scale values
GAMMA_FMT = "%.6g"
VALUE_FMT = "%.12g"

# The most rates ``curve --grid-points`` tabulates: each costs a likelihood
# probe, and the table is allocated before the first one.
MAX_GRID_POINTS = 100_000


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: one line and exit 1, like every
    # other input error, not argparse's usage block and exit 2
    def error(self, message):
        print(f"error [arguments]: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


class _StageError(Exception):
    def __init__(self, stage: str, message: str, code: int):
        super().__init__(message)
        self.stage = stage
        self.code = code


def _rotation(token: str) -> float:
    """argparse type: a rotation g, written 1/3 or 0.25, in (0, 1/2]."""
    num, slash, den = token.strip().partition("/")
    try:
        value = float(num) / float(den) if slash else float(num)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rotation {token!r}") from None
    if not 0.0 < value <= 0.5:
        raise argparse.ArgumentTypeError(f"rotation {token} outside (0, 1/2]")
    return value


def _rotation_list(text: str) -> tuple[tuple[str, float], ...]:
    """argparse type: comma-separated rotations as (label, value) pairs."""
    candidates = tuple((token, _rotation(token))
                       for token in filter(None, map(str.strip, text.split(","))))
    if not candidates:
        raise argparse.ArgumentTypeError("empty rotation list")
    return candidates


def _number(convert, zero_allowed: bool, limit: float = math.inf):
    """argparse type: a finite number, > 0 or (zero_allowed) >= 0, and at
    most ``limit``."""
    bound = ">= 0" if zero_allowed else "> 0"

    def parse(token: str):
        try:
            value = convert(token)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad number {token!r}") from None
        if not (math.isfinite(value) and (value >= 0 if zero_allowed else value > 0)):
            raise argparse.ArgumentTypeError(f"{token} is not a finite number {bound}")
        if value > limit:
            raise argparse.ArgumentTypeError(f"{token} exceeds the limit of {limit}")
        return value

    return parse


def _g_label(candidates: tuple[tuple[str, float], ...], value: float) -> str:
    for label, v in candidates:
        if v == value:
            return label
    return GAMMA_FMT % value


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
    if result.weight_columns_ignored:
        print(f"notice: ignored the weight column of {result.weight_columns_ignored} "
              "line(s); the graph is read as unweighted", file=sys.stderr)
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
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(content)
    except OSError as exc:
        raise _StageError("write", str(exc), EXIT_INPUT) from exc


def assignment_to_csv(graph: DirectedGraph, values) -> str:
    """Per-node values as ``label,value`` CSV rows, labels quoted only
    where CSV needs it (see graphs.csv_fields)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (graph.n,):
        raise ValueError(f"expected {graph.n} values, got {values.size}")
    return csv_text(["label", "value"], [(csv_labels(graph), None),
                                         ([VALUE_FMT % v for v in values.tolist()], None)])


def _curve_columns(gammas, logliks) -> list[tuple]:
    return [([GAMMA_FMT % g for g in gammas], None),
            ([LOGLIK_FMT % v for v in logliks], None)]


def _curve_csv(gammas, logliks) -> str:
    return csv_text(["gamma", "loglik"], _curve_columns(gammas, logliks))


def _fit_lines(fit: ModelFit) -> list[str]:
    return [f"gamma_mle = {GAMMA_FMT % fit.gamma_mle}",
            f"loglik = {LOGLIK_FMT % fit.loglik_at_mle}",
            f"gamma_at_upper_bound = {str(fit.at_upper_bound).lower()}",
            f"gamma_at_lower_bound = {str(fit.at_lower_bound).lower()}",
            "gamma_density = " + (GAMMA_FMT % fit.gamma_density
                                  if fit.gamma_density is not None else "n/a")]


def _format_report(args, dataset: str, raw: DirectedGraph, self_loops: int,
                   used: str, sub: DirectedGraph, report: ComparisonReport) -> str:
    lines = []
    lines.append("[input]")
    lines.append(f"dataset = {dataset}")
    lines.append(f"file = {args.input}")
    lines.append(f"nodes_parsed = {raw.n}")
    lines.append(f"edges_parsed = {raw.edge_count}")
    lines.append(f"self_loops_dropped = {self_loops}")
    lines.append(f"component_policy = {args.component}")
    lines.append(f"component_used = {used}")
    lines.append(f"nodes = {sub.n}")
    lines.append(f"edges = {sub.edge_count}")
    lines.append("")
    lines.append("[magnetic]")
    lines.append(f"candidates = {', '.join(label for label, _ in args.g_list)}")
    for fit in report.per_g:
        label = _g_label(args.g_list, fit.g)
        lines.append(f"gamma_mle[{label}] = {GAMMA_FMT % fit.gamma_mle}")
        lines.append(f"loglik[{label}] = {LOGLIK_FMT % fit.loglik}")
    lines.append(f"best_g = {_g_label(args.g_list, report.best_g)}")
    lines += _fit_lines(report.prdrg_fit)
    lines.append("")
    lines.append("[trophic]")
    lines += _fit_lines(report.trophic_fit)
    lines.append("")
    lines.append("[comparison]")
    lines.append(f"log_likelihood_ratio = {LOGLIK_FMT % report.log_ratio}")
    lines.append(f"verdict = {report.verdict}")
    return "".join(line + "\n" for line in lines)


def cmd_compare(args) -> int:
    parsed = _load_graph(args.input, False)
    sub, _, used = _select_component(parsed.graph, args.component)
    _require_analyzable(sub)
    report = compare_models(sub, [v for _, v in args.g_list],
                            args.gamma_min, args.gamma_max)
    dataset = args.input.stem
    best_g = _g_label(args.g_list, report.best_g)
    out = args.out_dir
    _write(out / "report.txt",
           _format_report(args, dataset, parsed.graph, parsed.self_loops_dropped,
                          used, sub, report))
    summary = csv_text(["dataset", "nodes", "edges", "g", "ln_ratio"],
                       [(csv_fields([field]), None) for field in
                        (dataset, sub.n, sub.edge_count, best_g,
                         LOGLIK_FMT % report.log_ratio)])
    _write(out / "summary.csv", summary)
    _write(out / "phases.csv", assignment_to_csv(sub, report.phases.theta))
    _write(out / "levels.csv", assignment_to_csv(sub, report.levels.h))
    _write(out / "likelihood_curve_prdrg.csv",
           _curve_csv(report.prdrg_fit.curve_gamma, report.prdrg_fit.curve_loglik))
    _write(out / "likelihood_curve_trophic.csv",
           _curve_csv(report.trophic_fit.curve_gamma, report.trophic_fit.curve_loglik))
    print(f"verdict: {report.verdict} (ln ratio {LOGLIK_FMT % report.log_ratio}, "
          f"g = {best_g})")
    return EXIT_OK


def _reordered_triples(graph: DirectedGraph, perm: np.ndarray) -> str:
    ranks, rank = rank_fields(perm)
    n = graph.n
    # (row, col) pairs are distinct, so one key sort orders them by row, then col
    keys = rank[graph.edge_index[:, 0]] * n + rank[graph.edge_index[:, 1]]
    order = np.argsort(keys)
    rows, cols = np.divmod(keys[order], n)
    values, slot = np.unique(graph.edge_weights[order] if graph.is_weighted
                             else np.ones(graph.edge_count), return_inverse=True)
    return csv_text(["row", "col", "value"],
                    [(ranks, rows), (ranks, cols),
                     ([VALUE_FMT % v for v in values.tolist()], slot)])


def cmd_reorder(args) -> int:
    parsed = _load_graph(args.input, args.weighted)
    sub, _, _ = _select_component(parsed.graph, args.component)
    _require_analyzable(sub)
    if args.method == "magnetic":
        if sub.is_weighted:
            raise _StageError("input", "magnetic reordering requires an "
                              "unweighted edge list", EXIT_INPUT)
        if args.g is not None:
            score = magnetic_algorithm(sub, args.g).theta
        else:
            selection = select_g(sub, [v for _, v in args.g_list],
                                 args.gamma_min, args.gamma_max)
            print(f"notice: rotation chosen by likelihood: "
                  f"g = {_g_label(args.g_list, selection.best.g)}", file=sys.stderr)
            score = selection.assignment.theta
    else:
        score = trophic_algorithm(sub).h
    perm = apply_ordering(sub, score)
    _write(args.out_dir / "ordering.csv", serialize_ordering(sub, perm))
    _write(args.out_dir / "reordered_adjacency.csv", _reordered_triples(sub, perm))
    return EXIT_OK


def cmd_generate(args) -> int:
    attr_seed, edge_seed = np.random.SeedSequence(args.seed).spawn(2)
    meta = {"model": args.model, "clusters": args.clusters,
            "cluster_size": args.cluster_size, "noise": repr(args.noise),
            "gamma": repr(args.gamma)}
    if args.model == "prdrg":
        # one rotation step per cluster; a single cluster has no step to
        # encode, so any admissible rotation does
        g = args.g if args.g is not None else 1.0 / max(args.clusters, 2)
        meta["g"] = repr(g)
        attributes = gen_clustered_angles(args.clusters, args.cluster_size,
                                          args.noise, attr_seed)
        graph = prdrg_sample(PRDRGParams(attributes, args.gamma, g), edge_seed)
    else:
        attributes = gen_trophic_levels(args.clusters, args.cluster_size,
                                        args.noise, attr_seed)
        graph = trophic_sample(TrophicParams(attributes, args.gamma), edge_seed)
    meta.update(seed=args.seed, nodes=graph.n, edges=graph.edge_count)
    out = args.out
    _write(out, serialize_edge_list(graph))
    _write(Path(str(out) + ".meta"),
           "".join(f"{key} = {value}\n" for key, value in meta.items()))
    _write(Path(str(out) + ".attributes.csv"), assignment_to_csv(graph, attributes))
    print(f"wrote {graph.n} nodes, {graph.edge_count} edges to {out}")
    return EXIT_OK


def _is_header(row: list[str]) -> bool:
    """A first row `label,...` names the columns unless its second field
    is a number: then it is the value of a node named `label`."""
    if row[0].strip().lower() != "label":
        return False
    try:
        float(row[1])
    except (IndexError, ValueError):
        return True
    return False


def _read_attributes(path: Path, graph: DirectedGraph,
                     model: str) -> tuple[DirectedGraph, np.ndarray]:
    """The graph and one attribute value per node.  An edge list cannot
    hold an isolated node, so each attribute label it lacks is added to
    the graph as one, with a notice giving their count."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _StageError("read", str(exc), EXIT_INPUT) from exc
    try:
        rows = [row for row in csv.reader(io.StringIO(text))
                if any(field.strip() for field in row)]
    except csv.Error as exc:
        raise _StageError("attributes", f"unreadable CSV: {exc}", EXIT_INPUT) from exc
    if rows and _is_header(rows[0]):
        rows = rows[1:]
    kind, limit, why = ATTRIBUTE_LIMITS[model]
    values: dict[str, float] = {}
    for lineno, row in enumerate(rows, start=1):
        try:
            label, value = row
            value = float(value)
        except ValueError:
            raise _StageError("attributes", f"bad attribute row {lineno}: {row!r}",
                              EXIT_INPUT) from None
        label = label.strip()
        if not math.isfinite(value):
            raise _StageError("attributes", f"attribute value {value} of node "
                              f"{label!r} is not finite", EXIT_INPUT)
        if abs(value) > limit:
            raise _StageError("attributes", f"{kind} {value!r} of node "
                              f"{label!r} exceeds {limit:g} in magnitude: "
                              f"{why}", EXIT_INPUT)
        if label in values:
            raise _StageError("attributes", f"node {label!r} is given twice "
                              f"(row {lineno})", EXIT_INPUT)
        values[label] = value
    labels = [graph.label(i) for i in range(graph.n)]
    for label in labels:
        if label not in values:
            raise _StageError("attributes", f"no attribute value for node {label!r}",
                              EXIT_INPUT)
    known = set(labels)
    isolated = [label for label in values if label not in known]
    if isolated:
        print(f"notice: read {len(isolated)} attribute label(s) missing from the "
              "edge list as isolated node(s)", file=sys.stderr)
        labels += isolated
        graph = DirectedGraph(len(labels), graph.edge_index, graph.edge_weights, labels)
    return graph, np.array([values[label] for label in labels])


def cmd_curve(args) -> int:
    if args.model == "prdrg" and args.g is None:
        raise _StageError("arguments", "--g is required for the prdrg curve",
                          EXIT_INPUT)
    graph = _load_graph(args.input, args.weighted).graph
    graph, attributes = _read_attributes(args.attributes, graph, args.model)
    if args.model == "prdrg":
        if graph.is_weighted:
            raise _StageError("input", "the prdrg curve requires an unweighted "
                              "edge list", EXIT_INPUT)
        model = _PairModel(attributes, args.g, graph)
    elif graph.is_weighted:
        model = _WeightedLevelModel(attributes, graph)
    else:
        model = _LevelModel(attributes, graph)
    fit = _model_fit(
        model, graph.edge_count, args.gamma_min, args.gamma_max, args.grid_points,
        notice=lambda exc: print(f"notice: no density-matching estimate: {exc}",
                                 file=sys.stderr))
    grid = fit.curve_gamma
    # the row nearest, in log gamma, to each estimate; none without one
    marks = [None if gamma is None else int(np.argmin(np.abs(np.log(grid) - np.log(gamma))))
             for gamma in (fit.gamma_mle, fit.gamma_density)]
    flags = [(["0", "1"], (np.arange(len(grid)) == mark).astype(np.int64))
             for mark in marks]
    _write(args.out, csv_text(["gamma", "loglik", "is_mle", "is_density_match"],
                              _curve_columns(grid, fit.curve_loglik) + flags))
    return EXIT_OK


def _add_input(parser: argparse.ArgumentParser, weighted: bool = True):
    parser.add_argument("--input", type=Path, required=True, help="edge-list file")
    parser.add_argument("--gamma-min", type=_number(float, False), default=GAMMA_MIN)
    parser.add_argument("--gamma-max", type=_number(float, False), default=GAMMA_MAX)
    if weighted:
        parser.add_argument("--weighted", action="store_true",
                            help="parse a third column as edge weights in (0, 1)")


def _add_component(parser: argparse.ArgumentParser):
    parser.add_argument("--component", choices=("scc", "wcc", "auto"),
                        default="auto",
                        help="component to analyze (auto: scc unless it has "
                        "fewer than 3 nodes, then wcc)")
    parser.add_argument("--g-list", type=_rotation_list, default=DEFAULT_G_LIST,
                        help="comma-separated rotation candidates, e.g. 1/2,1/3")
    parser.add_argument("--out-dir", type=Path, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dirlap",
                     description="Detect periodic vs linear hierarchy in "
                                 "directed networks")
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="fit both models and compare")
    _add_input(compare, weighted=False)     # the models are for unweighted graphs
    _add_component(compare)
    compare.set_defaults(func=cmd_compare)

    reorder = sub.add_parser("reorder", help="write a node ordering")
    _add_input(reorder)
    _add_component(reorder)
    reorder.add_argument("--method", choices=("magnetic", "trophic"),
                         required=True)
    reorder.add_argument("--g", type=_rotation, default=None,
                         help="rotation parameter (magnetic); default: best "
                              "by likelihood over --g-list")
    reorder.set_defaults(func=cmd_reorder)

    generate = sub.add_parser("generate", help="sample a synthetic network")
    generate.add_argument("--model", choices=("prdrg", "trophic"), required=True)
    generate.add_argument("--clusters", type=_number(int, False), required=True)
    generate.add_argument("--cluster-size", type=_number(int, False), required=True)
    generate.add_argument("--noise", type=_number(float, True), default=0.0)
    generate.add_argument("--gamma", type=_number(float, True), required=True)
    generate.add_argument("--g", type=_rotation, default=None,
                          help="rotation parameter (prdrg); default 1/clusters")
    generate.add_argument("--seed", type=_number(int, True), default=0)
    generate.add_argument("--out", type=Path, required=True)
    generate.set_defaults(func=cmd_generate)

    curve = sub.add_parser("curve", help="tabulate log-likelihood vs gamma")
    _add_input(curve)
    curve.add_argument("--model", choices=("prdrg", "trophic"), required=True)
    curve.add_argument("--attributes", type=Path, required=True,
                       help="label,value CSV of node angles or levels")
    curve.add_argument("--g", type=_rotation, default=None,
                       help="rotation parameter (prdrg)")
    curve.add_argument("--grid-points", type=_number(int, False, MAX_GRID_POINTS),
                       default=64, help=f"rates tabulated, at most {MAX_GRID_POINTS}")
    curve.add_argument("--out", type=Path, required=True)
    curve.set_defaults(func=cmd_curve)

    return parser


@contextlib.contextmanager
def _one_line_degeneracy_warnings():
    """Print each DegeneracyWarning as one line, ``DegeneracyWarning:
    <message>``, like the CLI's other notices, with no source path or line.
    Only the text changes: filters and recorders still see the warning."""
    default = warnings.formatwarning

    def format_warning(message, category, filename, lineno, line=None):
        if issubclass(category, DegeneracyWarning):
            return f"{category.__name__}: {message}\n"
        return default(message, category, filename, lineno, line)

    warnings.formatwarning = format_warning
    try:
        yield
    finally:
        warnings.formatwarning = default


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "gamma_min" in vars(args) and args.gamma_min >= args.gamma_max:
            parser.error("--gamma-min must be below --gamma-max")
        with warnings.catch_warnings(), _one_line_degeneracy_warnings():
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
    except MemoryError as exc:
        print(f"error [memory]: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
