"""Output checks computed apart from the program.

Each ``check_*`` function reads what one ``dirlap`` command wrote, with
Python's ``csv`` module, and raises :class:`CheckError` on the first
problem.  Likelihoods are recomputed here with plain O(n^2) NumPy code at
the reported decay rates, from the phases and levels read back from the
bundle; components come from SciPy's connected-components routine on the
benchmark's own edge arrays.  Nothing is compared with stored output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from inputs import pair_exponents

GAMMA_STEP = 1e-3          # the reported gamma must beat gamma * (1 +- this)
AGREEMENT_MIN = 0.95       # planted-structure correlations
ARC_COVER_MIN = 0.98       # magnetic reorder: share of nodes inside their
                           # block's arc (0.999-1 seen, about 0.25 by chance)
LEVEL_SLOT_MIN = 0.75     # trophic reorder: share of nodes ranked within
                           # their level's slot (0.85-0.89 seen, 0.2 by chance)


class CheckError(Exception):
    pass


def require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


@dataclass
class InputGraph:
    """Labels and edges (index arrays into ``labels``) of one input file."""

    labels: list[str]
    src: np.ndarray
    dst: np.ndarray

    @classmethod
    def from_text(cls, text: str) -> "InputGraph":
        index: dict[str, int] = {}
        pairs = set()
        for line in text.splitlines():
            tokens = line.split()
            if not tokens or tokens[0][0] in "#%":
                continue
            i = index.setdefault(tokens[0], len(index))
            j = index.setdefault(tokens[1], len(index))
            if i != j:
                pairs.add((i, j))
        edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
        return cls(list(index), edges[:, 0], edges[:, 1])

    def largest_component(self, kind: str) -> np.ndarray:
        n = len(self.labels)
        pattern = coo_matrix((np.ones(len(self.src)), (self.src, self.dst)),
                             shape=(n, n))
        _, member = connected_components(
            pattern, directed=True,
            connection="strong" if kind == "scc" else "weak")
        sizes = np.bincount(member)
        require(np.sum(sizes == sizes.max()) == 1,
                "input has two largest components; the benchmark avoids ties")
        return np.flatnonzero(member == np.argmax(sizes))

    def induced(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Edges among ``nodes``, renumbered by position in ``nodes``."""
        local = np.full(len(self.labels), -1)
        local[nodes] = np.arange(len(nodes))
        keep = (local[self.src] >= 0) & (local[self.dst] >= 0)
        return local[self.src[keep]], local[self.dst[keep]]


# ---------------------------------------------------------------------------
# reading outputs


def read_csv(path: Path, header: list[str]) -> list[list[str]]:
    require(path.is_file(), f"{path.name} missing")
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    require(bool(rows) and rows[0] == header,
            f"{path.name}: header {rows[:1]} is not {header}")
    for k, row in enumerate(rows[1:], start=2):
        require(len(row) == len(header),
                f"{path.name} row {k}: {len(row)} fields, expected {len(header)}")
    return rows[1:]


def read_by_label(path: Path, header: list[str], labels: list[str]) -> list[list[str]]:
    """Rows keyed by their first field, which must hold each label once."""
    rows = read_csv(path, header)
    by_label = {row[0]: row for row in rows}
    require(len(by_label) == len(rows), f"{path.name}: a label appears twice")
    require(set(by_label) == set(labels),
            f"{path.name}: labels differ from the component's "
            f"({len(set(by_label) ^ set(labels))} mismatched)")
    return [by_label[label] for label in labels]


def read_report(path: Path) -> dict[str, str]:
    """``section.key -> value`` from the ``[section]`` / ``key = value`` text."""
    require(path.is_file(), f"{path.name} missing")
    section, out = "", {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif " = " in line:
            key, value = line.split(" = ", 1)
            out[f"{section}.{key}"] = value
    return out


def parse_g(token: str) -> float:
    num, _, den = token.partition("/")
    return float(num) / float(den) if den else float(num)


def half_unit(x: float, digits: int = 6) -> float:
    """Largest rounding error of ``x`` printed with ``digits`` significant
    digits, as ``%.5e`` and ``%.6g`` do."""
    if x == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - digits + 1)


# ---------------------------------------------------------------------------
# likelihoods, written from the model formulas


class PairLoglik:
    """gamma -> sum over unordered pairs of log P(observed outcome)."""

    def __init__(self, n, src, dst, theta, g):
        adj = np.zeros((n, n), dtype=bool)
        adj[src, dst] = True
        i, j = np.triu_indices(n, k=1)
        fwd, bwd = adj[i, j], adj[j, i]
        outcome = np.select([fwd & bwd, fwd, bwd], [0, 1, 2], default=3)
        self.exponents = pair_exponents(theta[i] - theta[j], g)
        self.observed = np.take_along_axis(self.exponents, outcome[None, :],
                                           axis=0)[0]

    def __call__(self, gamma: float) -> float:
        e = gamma * self.exponents
        log_z = np.logaddexp(np.logaddexp(e[0], e[1]), np.logaddexp(e[2], e[3]))
        return float(np.sum(gamma * self.observed - log_z))


class LevelLoglik:
    """gamma -> sum over ordered pairs i != j of log P(edge or no edge)."""

    def __init__(self, n, src, dst, h):
        adj = np.zeros((n, n), dtype=bool)
        adj[src, dst] = True
        off = ~np.eye(n, dtype=bool)
        self.penalty = ((h[None, :] - h[:, None] - 1.0) ** 2)[off]
        self.sign = np.where(adj[off], 1.0, -1.0)

    def __call__(self, gamma: float) -> float:
        # log P(edge) = -log(1 + e^{x}); log P(no edge) = -log(1 + e^{-x})
        return float(-np.sum(np.logaddexp(0.0, self.sign * gamma * self.penalty)))


def check_fit(name: str, loglik, gamma: float, reported: float,
              at_upper: bool) -> tuple[float, float]:
    """Recompute the reported maximum; return (value, its error bound)
    before the reported log-likelihood's own rounding."""
    value = loglik(gamma)
    below = loglik(gamma * (1.0 - GAMMA_STEP))
    above = None if at_upper else loglik(gamma * (1.0 + GAMMA_STEP))
    slope = (value - below if above is None else above - below) / (
        GAMMA_STEP * gamma * (1 if above is None else 2))
    err = abs(slope) * half_unit(gamma) + 1e-9 * abs(value)
    require(abs(value - reported) <= err + half_unit(reported),
            f"{name}: reported log-likelihood {reported!r} at gamma {gamma!r}, "
            f"recomputed {value!r}")
    slack = 1e-12 * abs(value)
    require(value >= below - slack and (above is None or value >= above - slack),
            f"{name}: gamma {gamma!r} is beaten by gamma*(1 +- {GAMMA_STEP:g})")
    return value, err


def circular_agreement(a, b) -> float:
    """|mean exp(i(a -+ b))|, the better of the two orientations.

    1 exactly when ``a`` is ``b`` rotated (or reflected and rotated), the
    gauge freedom of the phases; Fisher-Lee's coefficient is not used
    because evenly spaced clusters leave its mean directions to noise.
    """
    a, b = np.asarray(a), np.asarray(b)
    return max(abs(np.mean(np.exp(1j * (a - b)))),
               abs(np.mean(np.exp(1j * (a + b)))))


# ---------------------------------------------------------------------------
# per-command checks


@dataclass
class Expect:
    """What was planted in an input, for the structure checks."""

    verdict: str | None = None
    g_label: str | None = None
    angles: np.ndarray | None = None    # per input node
    levels: np.ndarray | None = None    # per input node
    blocks: np.ndarray | None = None    # per input node


def check_compare(out: Path, graph: InputGraph, component: str, expect: Expect):
    report = read_report(out / "report.txt")
    nodes = graph.largest_component(component)
    labels = [graph.labels[k] for k in nodes]
    src, dst = graph.induced(nodes)
    theta = np.array([float(v) for _, v in
                      read_by_label(out / "phases.csv", ["label", "value"], labels)])
    h = np.array([float(v) for _, v in
                  read_by_label(out / "levels.csv", ["label", "value"], labels)])
    summary = read_csv(out / "summary.csv",
                       ["dataset", "nodes", "edges", "g", "ln_ratio"])
    require(len(summary) == 1, "summary.csv must have one data row")
    _, s_nodes, s_edges, s_g, s_ratio = summary[0]
    require((s_nodes, s_edges) == (str(len(nodes)), str(len(src)))
            and (report["input.nodes"], report["input.edges"]) == (s_nodes, s_edges),
            f"component size {len(nodes)}/{len(src)} vs summary {s_nodes}/{s_edges}")
    require(s_g == report["magnetic.best_g"]
            and s_ratio == report["comparison.log_likelihood_ratio"],
            "summary.csv disagrees with report.txt")
    for name in ("prdrg", "trophic"):
        rows = read_csv(out / f"likelihood_curve_{name}.csv", ["gamma", "loglik"])
        require(all(math.isfinite(float(x)) for row in rows for x in row),
                f"likelihood_curve_{name}.csv holds a non-number")

    g = parse_g(report["magnetic.best_g"])
    pair_value, pair_err = check_fit(
        "pair model", PairLoglik(len(nodes), src, dst, theta, g),
        float(report["magnetic.gamma_mle"]), float(report["magnetic.loglik"]),
        report["magnetic.gamma_at_upper_bound"] == "true")
    level_value, level_err = check_fit(
        "level model", LevelLoglik(len(nodes), src, dst, h),
        float(report["trophic.gamma_mle"]), float(report["trophic.loglik"]),
        report["trophic.gamma_at_upper_bound"] == "true")
    ratio = float(report["comparison.log_likelihood_ratio"])
    require(abs(ratio - (pair_value - level_value))
            <= half_unit(ratio) + pair_err + level_err,
            f"log_likelihood_ratio {ratio!r}, recomputed "
            f"{pair_value - level_value!r}")
    verdict = report["comparison.verdict"]
    require(verdict == ("periodic" if ratio > 0 else "linear"),
            f"verdict {verdict} does not follow from ratio {ratio!r}")

    if expect.verdict is not None:
        require(verdict == expect.verdict,
                f"verdict {verdict}, planted {expect.verdict}")
    if expect.g_label is not None:
        require(report["magnetic.best_g"] == expect.g_label,
                f"best g {report['magnetic.best_g']}, planted {expect.g_label}")
    if expect.angles is not None:
        agreement = circular_agreement(theta, expect.angles[nodes])
        require(agreement >= AGREEMENT_MIN,
                f"phases agree with planted angles to {agreement:.4f} only")
    if expect.levels is not None:
        corr = float(np.corrcoef(h, expect.levels[nodes])[0, 1])
        require(corr >= AGREEMENT_MIN,
                f"levels correlate with planted ones to {corr:.4f} only")


def check_reorder(out: Path, graph: InputGraph, component: str, method: str,
                  expect: Expect):
    nodes = graph.largest_component(component)
    labels = [graph.labels[k] for k in nodes]
    rows = read_by_label(out / "ordering.csv", ["original_label", "rank"], labels)
    rank = np.array([int(r) for _, r in rows])
    require(sorted(rank.tolist()) == list(range(len(nodes))),
            "ordering.csv ranks are not a permutation")
    triples = read_csv(out / "reordered_adjacency.csv", ["row", "col", "value"])
    require(all(float(v) == 1.0 for _, _, v in triples),
            "reordered_adjacency.csv holds a value other than 1")
    src, dst = graph.induced(nodes)
    expected = sorted(zip(rank[src].tolist(), rank[dst].tolist()))
    require(sorted((int(r), int(c)) for r, c, _ in triples) == expected,
            "reordered_adjacency.csv is not the component's edges under the ordering")

    blocks = expect.blocks[nodes][np.argsort(rank)]
    count = len(np.unique(blocks))
    if method == "magnetic":
        # a block's arc is the window of its own size along the circle that
        # holds most of its nodes; a stray node costs only itself
        n = len(blocks)
        covered, arc_start = 0, {}
        for b in range(count):
            pos = np.flatnonzero(blocks == b)
            wrapped = np.concatenate([pos, pos + n])
            inside = np.searchsorted(wrapped, pos + len(pos)) - np.arange(len(pos))
            covered += inside.max()
            arc_start[b] = pos[np.argmax(inside)]
        require(covered / n >= ARC_COVER_MIN,
                f"planted blocks are not contiguous arcs: their arcs hold "
                f"{covered / n:.4f} of the nodes")
        order = sorted(range(count), key=arc_start.get)
        step = {(b - a) % count for a, b in zip(order, order[1:] + order[:1])}
        require(step in ({1}, {count - 1}),
                f"planted blocks go round the circle as {order}, not in cyclic order")
    else:
        # random edges (some against the flow) blur the level boundaries, so
        # ask for rising block medians and most nodes inside their block's slot
        size = len(blocks) // count
        medians = [float(np.median(np.flatnonzero(blocks == b))) for b in range(count)]
        in_slot = np.mean(blocks == np.minimum(np.arange(len(blocks)) // size,
                                               count - 1))
        require(bool(np.all(np.diff(medians) > 0)) and in_slot >= LEVEL_SLOT_MIN,
                f"planted levels are not in rising order (block medians "
                f"{medians}, {in_slot:.3f} of nodes in their block's slot)")


def check_curve(out: Path, graph: InputGraph, angles: np.ndarray, g: float,
                gamma_min: float, gamma_max: float, points: int):
    rows = read_csv(out, ["gamma", "loglik", "is_mle", "is_density_match"])
    require(len(rows) == points, f"{len(rows)} curve rows, expected {points}")
    gammas = [float(r[0]) for r in rows]
    values = [float(r[1]) for r in rows]
    grid = np.geomspace(gamma_min, gamma_max, points)
    require(all(abs(x - y) <= half_unit(y) for x, y in zip(gammas, grid)),
            "curve gammas are not the logarithmic grid")
    marks = [k for k, r in enumerate(rows) if r[2] == "1"]
    require(len(marks) == 1
            and all(r[2] in ("0", "1") and r[3] in ("0", "1") for r in rows)
            and sum(r[3] == "1" for r in rows) <= 1, "curve marks malformed")
    # the maximizer lies between the two grid points bracketing it, and the
    # mark is the nearer one in log(gamma)
    top = values.index(max(values))
    require(abs(marks[0] - top) <= 1,
            f"is_mle marks row {marks[0]}, tabulated maximum is row {top}")
    loglik = PairLoglik(len(graph.labels), graph.src, graph.dst, angles, g)
    for k in sorted({0, points - 1, marks[0], top}):
        value = loglik(gammas[k])
        slope_err = abs(loglik(gammas[k] * (1 + GAMMA_STEP)) - value) / (
            GAMMA_STEP * gammas[k]) * half_unit(gammas[k])
        require(abs(value - values[k]) <= half_unit(values[k]) + slope_err
                + 1e-9 * abs(value),
                f"curve row {k}: loglik {values[k]!r}, recomputed {value!r}")
