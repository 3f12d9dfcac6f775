"""Directed-graph container, edge-list I/O and preprocessing."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


class EdgeListError(ValueError):
    """Malformed edge-list input; carries the offending line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class GraphStructureError(ValueError):
    """The graph lacks structure required by the requested operation."""


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable directed graph on dense node indices 0..n-1.

    ``edges`` holds ordered pairs, kept canonically sorted, with no
    self-loops and no duplicates.  ``weights``, when present, is aligned
    with ``edges`` and every value lies strictly in (0, 1).  ``labels``
    preserves the node names from the source file so reports can show
    them; computation always runs on the dense indices.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        if self.weights is not None and len(self.weights) != len(self.edges):
            raise ValueError("weights must align one-to-one with edges")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError(f"expected {self.n} labels, got {len(self.labels)}")
        if self.weights is None:
            edges = tuple(sorted((int(i), int(j)) for i, j in self.edges))
        else:
            pairs = sorted(zip(((int(i), int(j)) for i, j in self.edges),
                               (float(w) for w in self.weights)))
            edges = tuple(e for e, _ in pairs)
            object.__setattr__(self, "weights", tuple(w for _, w in pairs))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels",
                           tuple(self.labels) if self.labels is not None else None)
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            if i == j:
                raise ValueError(f"self-loop on node {i} is not allowed")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        if self.weights is not None:
            for (i, j), w in zip(self.edges, self.weights):
                if not 0.0 < w < 1.0:
                    raise ValueError(f"weight {w} on edge ({i}, {j}) outside (0, 1)")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def adjacency(self) -> np.ndarray:
        """Dense adjacency matrix; entries are weights when present, else 0/1."""
        a = np.zeros((self.n, self.n))
        if self.edges:
            idx = np.array(self.edges)
            vals = np.array(self.weights) if self.is_weighted else 1.0
            a[idx[:, 0], idx[:, 1]] = vals
        return a


@dataclass(frozen=True)
class ParseResult:
    graph: DirectedGraph
    self_loops_dropped: int


def parse_edge_list(text: str | Iterable[str], weighted: bool = False) -> ParseResult:
    """Parse a newline-delimited edge list into a :class:`DirectedGraph`.

    Each data line is ``src dst`` (plus a weight column in weighted mode),
    whitespace separated.  Lines starting with ``#`` or ``%`` and blank
    lines are ignored.  Node labels are arbitrary strings mapped to dense
    indices in order of first appearance.  Self-loop lines are dropped and
    counted.  Duplicate edges collapse in unweighted mode and are rejected
    in weighted mode.
    """
    lines = text.splitlines() if isinstance(text, str) else list(text)
    index: dict[str, int] = {}
    plain_edges: set[tuple[int, int]] = set()
    weighted_edges: dict[tuple[int, int], float] = {}
    loops = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        tokens = line.split()
        if weighted:
            if len(tokens) != 3:
                raise EdgeListError("expected 'src dst weight'", lineno)
        elif len(tokens) not in (2, 3):
            raise EdgeListError("expected 'src dst'", lineno)
        i = index.setdefault(tokens[0], len(index))
        j = index.setdefault(tokens[1], len(index))
        if i == j:
            loops += 1
            continue
        if weighted:
            try:
                w = float(tokens[2])
            except ValueError:
                raise EdgeListError(f"bad weight {tokens[2]!r}", lineno) from None
            if not 0.0 < w < 1.0:
                raise EdgeListError(f"weight {w} outside (0, 1)", lineno)
            if (i, j) in weighted_edges:
                raise EdgeListError(
                    f"duplicate edge {tokens[0]} -> {tokens[1]}", lineno)
            weighted_edges[(i, j)] = w
        else:
            plain_edges.add((i, j))
    labels = tuple(sorted(index, key=index.get))
    if weighted:
        edges = tuple(weighted_edges)
        weights = tuple(weighted_edges[e] for e in edges)
        graph = DirectedGraph(len(labels), edges, weights, labels)
    else:
        graph = DirectedGraph(len(labels), tuple(plain_edges), None, labels)
    return ParseResult(graph, loops)


def serialize_edge_list(graph: DirectedGraph) -> str:
    """Inverse of :func:`parse_edge_list` for graphs without isolated nodes.

    Lines are sorted by (source label, target label) so the text form is
    canonical: parsing and re-serializing reproduces it byte for byte.
    """
    rows = []
    for k, (i, j) in enumerate(graph.edges):
        if graph.is_weighted:
            rows.append((graph.label(i), graph.label(j),
                         f"{graph.label(i)} {graph.label(j)} {graph.weights[k]!r}"))
        else:
            rows.append((graph.label(i), graph.label(j),
                         f"{graph.label(i)} {graph.label(j)}"))
    rows.sort()
    return "".join(line + "\n" for _, _, line in rows)


def _edge_pattern(graph: DirectedGraph) -> csr_matrix:
    rows = [i for i, _ in graph.edges]
    cols = [j for _, j in graph.edges]
    return csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(graph.n, graph.n))


def _induced_subgraph(graph: DirectedGraph,
                      keep: np.ndarray) -> tuple[DirectedGraph, tuple[int, ...]]:
    remap = {int(orig): new for new, orig in enumerate(keep)}
    edges = []
    weights = [] if graph.is_weighted else None
    for k, (i, j) in enumerate(graph.edges):
        if i in remap and j in remap:
            edges.append((remap[i], remap[j]))
            if weights is not None:
                weights.append(graph.weights[k])
    labels = (tuple(graph.label(int(i)) for i in keep)
              if graph.labels is not None else None)
    sub = DirectedGraph(len(keep), tuple(edges),
                        tuple(weights) if weights is not None else None, labels)
    return sub, tuple(int(i) for i in keep)


def _largest_component(graph: DirectedGraph,
                       connection: str) -> tuple[DirectedGraph, tuple[int, ...]]:
    if graph.n == 0:
        raise GraphStructureError("graph has no nodes")
    _, membership = connected_components(_edge_pattern(graph), directed=True,
                                         connection=connection)
    counts = np.bincount(membership)
    candidates = np.flatnonzero(counts == counts.max())
    if len(candidates) > 1:
        # tie: component whose smallest original node index is smallest
        first_index = [int(np.argmax(membership == c)) for c in candidates]
        best = candidates[int(np.argmin(first_index))]
    else:
        best = candidates[0]
    keep = np.flatnonzero(membership == best)
    return _induced_subgraph(graph, keep)


def largest_scc(graph: DirectedGraph) -> tuple[DirectedGraph, tuple[int, ...]]:
    """Induced subgraph on the largest strongly connected component.

    Returns the subgraph and the map from new indices to original ones.
    Size ties break toward the component containing the smallest original
    node index.
    """
    return _largest_component(graph, "strong")


def largest_wcc(graph: DirectedGraph) -> tuple[DirectedGraph, tuple[int, ...]]:
    """Induced subgraph on the largest weakly connected component."""
    return _largest_component(graph, "weak")


def is_weakly_connected(graph: DirectedGraph) -> bool:
    if graph.n <= 1:
        return True
    ncomp, _ = connected_components(_edge_pattern(graph), directed=True,
                                    connection="weak")
    return ncomp == 1


@dataclass(frozen=True)
class SymmetrizedView:
    """Symmetric half-sum of the adjacency matrix with direction bookkeeping.

    ``wsym`` is (A + A^T)/2, ``degrees`` its row sums, and ``alpha`` the
    antisymmetric direction indicator: +1 for an unreciprocated edge
    i -> j, -1 for the reverse, 0 when the pair is reciprocated or absent.
    """

    wsym: np.ndarray
    degrees: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        for arr in (self.wsym, self.degrees, self.alpha):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.degrees)


def symmetrize(graph: DirectedGraph) -> SymmetrizedView:
    """Build the symmetrized view of an unweighted directed graph."""
    if graph.is_weighted:
        raise ValueError("symmetrize is defined for unweighted graphs only")
    a = graph.adjacency()
    wsym = (a + a.T) / 2.0
    alpha = np.sign(a - a.T)
    return SymmetrizedView(wsym=wsym, degrees=wsym.sum(axis=1), alpha=alpha)


def apply_ordering(graph: DirectedGraph, score) -> np.ndarray:
    """Permutation sorting nodes by ascending score, stable on ties."""
    score = np.asarray(score, dtype=float)
    if score.shape != (graph.n,):
        raise ValueError(f"score has length {score.size}, graph has {graph.n} nodes")
    return np.argsort(score, kind="stable")


def csv_text(header, rows) -> str:
    """CSV text with minimal quoting and ``\n`` line ends."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def serialize_ordering(graph: DirectedGraph, perm: np.ndarray) -> str:
    """CSV mapping each original label to its rank under ``perm``."""
    perm = np.asarray(perm)
    rank = np.empty(graph.n, dtype=int)
    rank[perm] = np.arange(graph.n)
    return csv_text(["original_label", "rank"],
                    ((graph.label(i), int(rank[i])) for i in range(graph.n)))
