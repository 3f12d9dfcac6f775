"""Directed-graph container, edge-list I/O and preprocessing."""

from __future__ import annotations

import functools
import itertools
import operator
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

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


class DirectedGraph:
    """Immutable directed graph on dense node indices 0..n-1.

    ``DirectedGraph(n, edges, weights=None, labels=None)`` takes an integer
    ``n`` and the edges as a sequence of (source, target) pairs or an
    (m, 2) array, of integers or whole floats.
    The canonical form is ``edge_index``: a read-only (m, 2) int64 array
    sorted by source, then target, with no self-loops and no duplicates.
    ``edge_weights``, when present, is a read-only float64 array aligned
    with it, every value strictly in (0, 1).  ``labels`` preserves the
    node names from the source file so reports can show them.  Weak
    connectivity and the symmetrized view, the one sparse form of the
    graph, are built once per graph, on first use.
    """

    def __init__(self, n: int, edges, weights=None, labels=None):
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"node count {n!r} is not an integer") from None
        if n < 0:
            raise ValueError("node count must be nonnegative")
        idx = _pair_array(edges)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (len(idx),):
                raise ValueError("weights must align one-to-one with edges")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
        # sorted by (i, j) only: a weight key would only order duplicates,
        # which _check_edges rejects before any weight is read
        src, dst = idx[:, 0], idx[:, 1]
        ascending = (src[1:] > src[:-1]) | ((src[1:] == src[:-1]) & (dst[1:] >= dst[:-1]))
        if ascending.all():     # as the parser and subgraphs build it
            idx = idx.copy()
            weights = None if weights is None else weights.copy()
        else:
            order = np.lexsort((dst, src))
            idx = idx[order]
            weights = None if weights is None else weights[order]
        _check_edges(n, idx)
        if weights is not None:
            bad = ~((weights > 0.0) & (weights < 1.0))
            if bad.any():
                k = int(np.argmax(bad))
                i, j = idx[k].tolist()
                raise ValueError(
                    f"weight {float(weights[k])} on edge ({i}, {j}) outside (0, 1)")
            weights.setflags(write=False)
        idx.setflags(write=False)
        for name, value in (("n", n), ("edge_index", idx),
                            ("edge_weights", weights), ("labels", labels)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"DirectedGraph is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"DirectedGraph is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        if self.is_weighted != other.is_weighted:
            return False
        return (self.n == other.n and self.labels == other.labels
                and np.array_equal(self.edge_index, other.edge_index)
                and (not self.is_weighted
                     or np.array_equal(self.edge_weights, other.edge_weights)))

    def __hash__(self):
        return hash((self.n, self.labels, self.edge_index.tobytes(),
                     None if self.edge_weights is None
                     else self.edge_weights.tobytes()))

    def __repr__(self):
        return (f"DirectedGraph(n={self.n}, edge_count={self.edge_count}, "
                f"weighted={self.is_weighted})")

    @property
    def edge_count(self) -> int:
        return len(self.edge_index)

    @functools.cached_property
    def _weakly_connected(self) -> bool:
        return self.n <= 1 or connected_components(
            _edge_pattern(self), directed=True, connection="weak")[0] == 1

    @functools.cached_property
    def _symmetrized(self) -> SymmetrizedView:
        """The weight-aware view that ``symmetrize``, the level solve and
        the pair model's edge term read."""
        return _symmetrize(self)

    @property
    def is_weighted(self) -> bool:
        return self.edge_weights is not None

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)


def _pair_array(edges) -> np.ndarray:
    """(m, 2) int64 array of a sequence of pairs or an (m, 2) array.

    Integer and float arrays are taken (an object array of numeric pairs
    as the list of them), and each endpoint must be a whole number within
    int64; the first pair holding one that is not is rejected, so nothing
    is truncated, wrapped or cast from another type.
    """
    idx = np.asarray(edges)
    if idx.size == 0:
        idx = idx.reshape(0, 2)
    if idx.ndim != 2 or idx.shape[1] != 2:
        raise ValueError("edges must be (source, target) pairs")
    kind = idx.dtype.kind
    if kind == "f":
        # NaN, inf and floats beyond int64 cast to values unequal to them
        with np.errstate(invalid="ignore"):
            bad = (idx.astype(np.int64) != idx).any(axis=1)
    elif kind == "u":
        bad = (idx > np.iinfo(np.int64).max).any(axis=1)
    elif kind == "i":
        bad = np.zeros(len(idx), dtype=bool)
    else:
        # strings, booleans, complex numbers or Python objects: name the
        # first pair that is not numeric by itself, such as one holding
        # None or an integer past uint64
        bad = np.array([np.asarray(pair).dtype.kind not in "iuf"
                        for pair in idx.tolist()], dtype=bool)
        if not bad.any():
            return _pair_array(idx.tolist())
    if bad.any():
        raise ValueError(f"edge {tuple(idx[np.argmax(bad)].tolist())} has an endpoint "
                         "that is not a whole number within int64")
    return idx.astype(np.int64, copy=False)


def _check_edges(n: int, idx: np.ndarray) -> None:
    """Reject the first edge, in sorted order, that is out of range, a
    self-loop or a repeat of the one before it, in that order of checks."""
    src, dst = idx[:, 0], idx[:, 1]
    out_of_range = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    loop = src == dst
    repeat = np.zeros(len(idx), dtype=bool)
    repeat[1:] = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
    bad = out_of_range | loop | repeat
    if not bad.any():
        return
    k = int(np.argmax(bad))
    i, j = idx[k].tolist()
    if out_of_range[k]:
        raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
    if loop[k]:
        raise ValueError(f"self-loop on node {i} is not allowed")
    raise ValueError(f"duplicate edge ({i}, {j})")


@dataclass(frozen=True)
class ParseResult:
    graph: DirectedGraph
    self_loops_dropped: int
    # data lines whose third column an unweighted parse ignored
    weight_columns_ignored: int


# characters split at a time: the labels or token lists of one chunk are
# alive at once, so this bounds the parse's peak memory
_CHUNK_CHARS = 1 << 17

# the bytes of plain text: label bytes (printable ASCII other than '#' and
# '%', which may start a comment), then the separators and the line end
_PLAIN_BYTES = bytes(c for c in range(0x21, 0x7F) if chr(c) not in "#%") + b" \t\n"


def parse_edge_list(text: str, weighted: bool = False) -> ParseResult:
    """Parse the text of an edge list into a :class:`DirectedGraph`.

    Each data line is ``src dst`` (plus a weight column in weighted mode),
    whitespace separated.  Lines starting with ``#`` or ``%`` and blank
    lines are ignored.  Node labels are arbitrary strings mapped to dense
    indices in order of first appearance.  Self-loop lines are dropped and
    counted.  Duplicate edges collapse in unweighted mode and are rejected
    in weighted mode; an unweighted parse ignores a third column and
    counts the lines that have one.  When several lines are malformed, the
    error names the first of them.

    :func:`_scan` splits the text a chunk at a time; labels map to ids
    through one dict and the rest is array work, so no Python object is
    kept per edge.
    """
    labels, ids, weights, error, ignored = _scan(text, weighted)
    src, dst = ids[0::2], ids[1::2]
    n = len(labels)
    nonloop = np.flatnonzero(src != dst)
    keys = src[nonloop]
    keys *= n
    keys += dst[nonloop]
    row = len(src)      # the scan stops before the row its error is about
    if weighted:
        # a weighted duplicate is an error at its second line, so it comes
        # before the row the scan stopped at
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
        if len(repeats):
            row = int(nonloop[repeats.min()])
            error = f"duplicate edge {labels[src[row]]} -> {labels[dst[row]]}"
    if error is not None:
        raise EdgeListError(error, _line_number(text, row))
    loops = len(src) - len(nonloop)
    if weighted:
        graph = DirectedGraph(n, np.column_stack((src[nonloop], dst[nonloop])),
                              weights, labels)
    else:
        del ids, src, dst, nonloop     # free them before the edge arrays
        # one key per distinct edge, ascending; np.sort and a mask, since
        # np.unique took ~30x as long on 200k int64 keys (NumPy 2.4)
        keys.sort()
        distinct = np.ones(len(keys), dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        keys = keys[distinct]
        edge_index = np.empty((len(keys), 2), dtype=np.int64)
        np.divmod(keys, max(n, 1), out=(edge_index[:, 0], edge_index[:, 1]))
        graph = DirectedGraph(n, edge_index, None, labels)
    return ParseResult(graph, loops, ignored)


def _scan(text: str, weighted: bool):
    """Split ``text`` a chunk at a time and map labels to ids.

    An unweighted chunk of :func:`_chunks` that :func:`_plain_ids` takes
    is split whole; any other chunk goes through the line scan of
    :func:`_data_rows`.

    Returns (labels, ids, weights, error, ignored): ``ids`` interleaves the
    source and target id of each data row, ``weights`` holds the weights of
    the non-loop rows in weighted mode, ``error`` is the message for the
    first row with a wrong token count or a bad weight, or None, and
    ``ignored`` counts the rows with a third column in unweighted mode.
    Scanning stops at the bad row: ``ids`` ends just before it.
    """
    arity = {3} if weighted else {2, 3}
    index = _label_index()
    ignored = 0
    id_parts = [np.empty(0, dtype=np.int64)]
    weight_parts = [np.empty(0)]
    error = None
    for chunk in _chunks(text):
        ids = None if weighted else _plain_ids(index, chunk)
        if ids is None:
            rows = _data_rows(chunk)
            lengths = list(map(len, rows))
            if not weighted:
                ignored += lengths.count(3)
            if not arity.issuperset(lengths):
                error = "expected 'src dst weight'" if weighted else "expected 'src dst'"
                rows = rows[:next(r for r, k in enumerate(lengths) if k not in arity)]
            ids = _label_ids(index, list(itertools.chain.from_iterable(
                map(operator.itemgetter(0, 1), rows))))
        if weighted:        # so the chunk took the line scan
            nonloop = np.flatnonzero(ids[0::2] != ids[1::2]).tolist()
            weights, bad = _parse_weights([rows[r][2] for r in nonloop])
            if bad is None:
                weight_parts.append(weights)
            else:
                # keep the rows before this one: they can hold a duplicate
                ids = ids[:2 * nonloop[bad[0]]]
                error = bad[1]
        id_parts.append(ids)
        if error is not None:
            break
    weights = np.concatenate(weight_parts) if weighted else None
    return tuple(index), np.concatenate(id_parts), weights, error, ignored


def _chunks(text: str):
    """Consecutive pieces of ``text`` of about ``_CHUNK_CHARS`` characters,
    each but the last ending just after a ``\n``, so the lines of the
    pieces are those of ``text.splitlines()``."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _plain_ids(index: defaultdict[str, int], chunk: str) -> np.ndarray | None:
    """Ids of the labels of a plain chunk, two per edge, or None when the
    chunk is not plain; a chunk that is not plain adds no label.

    Plain text is ASCII of printable characters, spaces, tabs and ``\n``
    only, holds no ``#`` or ``%``, and has 0 or 2 tokens on every line.
    On it ``str.split()`` and ``str.splitlines()`` cut where the line scan
    would, no line is a comment and every line is valid, so one split of
    the whole chunk yields the labels in line order.
    """
    raw = chunk.encode("ascii") if chunk.isascii() else None
    if raw is None or raw.translate(None, _PLAIN_BYTES):
        return None
    byte = np.frombuffer(raw, np.uint8)
    # label bytes are the ones above the space; their runs are the
    # tokens, so every other change of kind starts one
    starts = np.flatnonzero(np.diff(byte > 0x20, prepend=False))[::2]
    line_ends = np.append(np.flatnonzero(byte == 0x0A), len(byte))
    tokens_per_line = np.diff(np.searchsorted(starts, line_ends), prepend=0)
    if not ((tokens_per_line == 0) | (tokens_per_line == 2)).all():
        return None
    return _label_ids(index, chunk.split())


def _data_rows(chunk: str) -> list[list[str]]:
    """The token lists of the data rows of ``chunk``'s lines; same test as
    :func:`_line_number`: a data row is a non-blank line whose first
    character after leading whitespace is not # or %."""
    return [tokens for tokens in map(str.split, chunk.splitlines())
            if tokens and tokens[0][0] not in "#%"]


def _label_index() -> defaultdict[str, int]:
    """Label-to-id map that gives a label it has not seen the next free id,
    so its keys run in order of first appearance."""
    return defaultdict(itertools.count().__next__)


def _label_ids(index: defaultdict[str, int], names: list[str]) -> np.ndarray:
    """Ids of ``names`` from a :func:`_label_index`, one lookup per name."""
    return np.fromiter(map(index.__getitem__, names), np.int64, len(names))


def _parse_weights(tokens: list[str]):
    """(weights, None) when ``float`` takes every token to a value in
    (0, 1); otherwise (None, (k, message)) for the first token k that
    fails."""
    try:
        weights = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        weights = None
    if weights is not None and ((weights > 0.0) & (weights < 1.0)).all():
        return weights, None
    # some token failed above, so this loop returns
    for k, token in enumerate(tokens):
        try:
            w = float(token)
        except ValueError:
            return None, (k, f"bad weight {token!r}")
        if not 0.0 < w < 1.0:
            return None, (k, f"weight {w} outside (0, 1)")


def _line_number(text: str, row: int) -> int:
    """1-based number of the line of ``text`` holding data row ``row``
    (0-based), found a chunk at a time: only one chunk's lines are held."""
    lineno = 0
    for chunk in _chunks(text):
        for raw in chunk.splitlines():
            lineno += 1
            tokens = raw.split()
            if tokens and tokens[0][0] not in "#%":
                if row == 0:
                    return lineno
                row -= 1
    raise IndexError(row)


def serialize_edge_list(graph: DirectedGraph) -> str:
    """Inverse of :func:`parse_edge_list` for graphs without isolated nodes.

    Lines are sorted by (source label, target label) so the text form is
    canonical: parsing and re-serializing reproduces it byte for byte.  A
    weight is written as the ``repr`` of its float.  The lines come from
    :func:`column_text`, each label and each distinct weight written once.
    """
    names = [graph.label(i) for i in range(graph.n)]
    rank = np.empty(graph.n, dtype=np.int64)
    rank[sorted(range(graph.n), key=names.__getitem__)] = np.arange(graph.n)
    src, dst = graph.edge_index.T
    order = np.lexsort((rank[dst], rank[src]))
    columns = [(names, src[order]), (names, dst[order])]
    if graph.is_weighted:
        values, slot = np.unique(graph.edge_weights[order], return_inverse=True)
        columns.append((list(map(repr, values.tolist())), slot))
    return column_text(columns, " ")


def _edge_pattern(graph: DirectedGraph, data: np.ndarray | None = None) -> csr_matrix:
    """W as a CSR matrix with sorted indices, ``data`` per edge (1 when None).

    edge_index is sorted by (source, target), so its targets are the column
    indices as they stand and a row count gives the row pointer.
    """
    n = graph.n
    src, dst = graph.edge_index[:, 0], graph.edge_index[:, 1]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return csr_matrix((np.ones(len(dst)) if data is None else data, dst, indptr),
                      shape=(n, n))


def _induced_subgraph(graph: DirectedGraph,
                      keep: np.ndarray) -> tuple[DirectedGraph, tuple[int, ...]]:
    """Subgraph on the ascending node indices ``keep``; the renumbering is
    monotone, so the kept edges stay sorted."""
    remap = np.full(graph.n, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    ends = remap[graph.edge_index]
    inside = (ends >= 0).all(axis=1)
    weights = graph.edge_weights[inside] if graph.is_weighted else None
    keep = keep.tolist()
    labels = ([graph.labels[i] for i in keep]
              if graph.labels is not None else None)
    return DirectedGraph(len(keep), ends[inside], weights, labels), tuple(keep)


def _largest_component(graph: DirectedGraph,
                       connection: str) -> tuple[DirectedGraph, tuple[int, ...]]:
    if graph.n == 0:
        raise GraphStructureError("graph has no nodes")
    _, membership = connected_components(_edge_pattern(graph), directed=True,
                                         connection=connection)
    size = np.bincount(membership)[membership]
    if size[0] == graph.n:
        sub, kept = graph, tuple(range(graph.n))
    else:
        # tie: component whose smallest original node index is smallest
        best = membership[np.argmax(size == size.max())]
        sub, kept = _induced_subgraph(graph, np.flatnonzero(membership == best))
    sub.__dict__["_weakly_connected"] = True    # a component, by construction
    return sub, kept


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
    """Whether ignoring directions joins every node; computed once per graph."""
    return graph._weakly_connected


@dataclass(frozen=True)
class SymmetrizedView:
    """Symmetric half-sum of the weight matrix with direction bookkeeping.

    ``wsym`` is (W + W^T)/2 and ``alpha`` is W - W^T for the weight matrix
    W (the adjacency matrix A when unweighted, where ``alpha`` is +1 for an
    unreciprocated edge i -> j, -1 for the reverse, 0 when the pair is
    reciprocated or absent).  Both are CSR matrices on one sparsity pattern
    (every ordered pair with an edge either way, a reciprocated pair
    storing an explicit 0 in ``alpha`` when unweighted), so their ``data``
    arrays align entry by entry.  ``degrees`` holds the row sums of ``wsym``.
    """

    wsym: csr_matrix
    degrees: np.ndarray
    alpha: csr_matrix

    def __post_init__(self):
        self.degrees.setflags(write=False)
        for mat in (self.wsym, self.alpha):
            _freeze_csr(mat)

    @property
    def n(self) -> int:
        return len(self.degrees)

    def laplacian(self, off_diagonal: np.ndarray) -> csr_matrix:
        """The sparse sum diag(degrees) - M as CSR, M being ``wsym``'s
        pattern holding ``off_diagonal`` (aligned with ``wsym.data``).

        The sum drops zero results, so a node of degree 0 stores no
        diagonal entry.
        """
        n, wsym = self.n, self.wsym
        # in wsym's index dtype, which the constructor takes without a scan
        steps = np.arange(n + 1, dtype=wsym.indptr.dtype)
        return (csr_matrix((self.degrees, steps[:-1], steps), shape=(n, n))
                - csr_matrix((off_diagonal, wsym.indices, wsym.indptr), shape=(n, n)))

    @functools.cached_property
    def _distinct_alpha(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, slot): the distinct values of ``alpha.data``, ascending,
        and each entry's index among them (three values when unweighted)."""
        values, slot = np.unique(self.alpha.data, return_inverse=True)
        values.setflags(write=False)
        slot.setflags(write=False)
        return values, slot


def _freeze_csr(mat: csr_matrix) -> None:
    """Make a CSR matrix's arrays read-only."""
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.setflags(write=False)


def symmetrize(graph: DirectedGraph) -> SymmetrizedView:
    """The symmetrized view of an unweighted directed graph, built in
    O(n + m) on first use and kept with the graph.

    Weighted graphs are rejected: only the level solve uses their view."""
    if graph.is_weighted:
        raise ValueError("symmetrize is defined for unweighted graphs only")
    return graph._symmetrized


def _symmetrize(graph: DirectedGraph) -> SymmetrizedView:
    """The view of any graph, weights included (1 per edge when unweighted).

    One CSR transpose pairs each edge with its reverse: C = W + 1j * W^T,
    from W's CSR and CSC arrays, has the pattern of every ordered pair
    with an edge either way, and no entry of it is 0, since every weight
    is positive.  On that pattern ``wsym`` is (Re C + Im C)/2 and
    ``alpha`` is Re C - Im C; a reciprocated pair of equal weights keeps
    an explicit 0 in ``alpha``.  O(n + m) time, with no sort of the edges.
    """
    n = graph.n
    a = _edge_pattern(graph, graph.edge_weights)
    # W's CSC arrays are W^T's CSR, with sorted indices; the sum of two
    # matrices with sorted indices has them too
    t = a.tocsc()
    paired = a + csr_matrix((1j * t.data, t.indices, t.indptr), shape=a.shape)
    forward, backward = paired.data.real, paired.data.imag
    wsym = (forward + backward) / 2.0
    rows = np.repeat(np.arange(n), np.diff(paired.indptr))
    return SymmetrizedView(
        wsym=csr_matrix((wsym, paired.indices, paired.indptr), shape=(n, n)),
        # float64 even with no edges, where bincount would give int64
        degrees=np.bincount(rows, weights=wsym, minlength=n).astype(float, copy=False),
        alpha=csr_matrix((forward - backward, paired.indices, paired.indptr),
                         shape=(n, n)))


def apply_ordering(graph: DirectedGraph, score) -> np.ndarray:
    """Permutation sorting nodes by ascending score, stable on ties."""
    score = np.asarray(score, dtype=float)
    if score.shape != (graph.n,):
        raise ValueError(f"score has length {score.size}, graph has {graph.n} nodes")
    return np.argsort(score, kind="stable")


# characters that make a CSV field need quotes: the delimiter, the quote
# character and the line breaks
_CSV_SPECIAL = re.compile('[,"\r\n]')


def csv_fields(texts: Iterable) -> list[str]:
    """Each text, as ``str``, written as one CSV field under minimal quoting.

    A field holding a comma, a double quote, ``\n`` or ``\r`` is wrapped in
    double quotes, each of its double quotes doubled; any other is kept as
    it is.  That is ``csv.writer``'s rule with ``\n`` line ends, except that
    a bare ``\r`` is quoted too, so ``csv.reader`` reads the field back
    whole.
    """
    return ['"' + text.replace('"', '""') + '"' if _CSV_SPECIAL.search(text) else text
            for text in map(str, texts)]


def csv_labels(graph: DirectedGraph) -> list[str]:
    """The node labels as CSV fields, in node order."""
    return csv_fields(graph.labels if graph.labels is not None else range(graph.n))


def column_text(columns: Sequence[tuple], separator: str) -> str:
    """Rows of text with ``\n`` line ends, written a column at a time.

    Each column is a pair (fields, index).  With ``index`` None, ``fields``
    holds one field per row; otherwise it holds the column's distinct
    fields, each written once, and the integer array ``index`` picks one
    per row.  Each field gets its ``separator`` (or the line end, in the
    last column) once, the rows are laid out as references in one list and
    one join writes them, so no string is built per row.
    """
    cells = None
    for k, (fields, index) in enumerate(columns):
        end = "\n" if k == len(columns) - 1 else separator
        fields = [field + end for field in fields]
        if index is not None:
            fields = np.array(fields, dtype=object)[index].tolist()
        if cells is None:
            cells = [None] * (len(fields) * len(columns))
        cells[k::len(columns)] = fields
    return "".join(cells)


def csv_text(header: Sequence[str], columns: Sequence[tuple]) -> str:
    """CSV text with ``\n`` line ends: the header, quoted here, and the
    rows of :func:`column_text` with ``,`` between fields.

    Fields are strings already in CSV form (see :func:`csv_fields`).  A row
    of one empty field, which ``csv.writer`` writes as ``""``, is not
    special here: every file written has two columns or more.
    """
    return ",".join(csv_fields(header)) + "\n" + column_text(columns, ",")


def rank_fields(perm: np.ndarray) -> tuple[list[str], np.ndarray]:
    """(fields, rank): the rank strings 0..n-1 and each node's rank under
    ``perm``, the permutation that lists the nodes in rank order."""
    rank = np.empty(len(perm), dtype=np.int64)
    rank[perm] = np.arange(len(perm))
    return list(map(str, range(len(perm)))), rank


def serialize_ordering(graph: DirectedGraph, perm: np.ndarray) -> str:
    """CSV mapping each original label to its rank under ``perm``."""
    return csv_text(["original_label", "rank"],
                    [(csv_labels(graph), None), rank_fields(np.asarray(perm))])
