"""Shared test utilities: random graph builders and evaluation metrics."""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix, diags

from dirlap import (DirectedGraph, EdgeListError, SymmetrizedView,
                    TrophicParams, gen_trophic_levels, graphs, largest_wcc,
                    parse_edge_list, trophic_algorithm, trophic_sample)

FOOD_WEB = Path(__file__).parent / "fixtures" / "food_web_scc.edges"


def count_view_builds(monkeypatch) -> list[DirectedGraph]:
    """The graphs ``graphs._symmetrize``, the one view builder, is called
    on from now until the test ends."""
    calls = []
    build = graphs._symmetrize
    monkeypatch.setattr(graphs, "_symmetrize",
                        lambda graph: calls.append(graph) or build(graph))
    return calls


def adjacency(graph: DirectedGraph) -> np.ndarray:
    """Dense adjacency matrix; entries are weights when present, else 0/1."""
    a = np.zeros((graph.n, graph.n))
    idx = graph.edge_index
    a[idx[:, 0], idx[:, 1]] = graph.edge_weights if graph.is_weighted else 1.0
    return a


def reference_symmetrize(graph: DirectedGraph) -> SymmetrizedView:
    """The symmetrized view built by sorting the keys of both directions of
    every edge: the oracle for the CSR transpose in dirlap.graphs.

    Each edge i -> j of weight w puts w/2 and +w at (i, j), w/2 and -w at
    (j, i); the keys row * n + col come out of np.unique in CSR order.
    """
    n, m = graph.n, graph.edge_count
    src, dst = graph.edge_index[:, 0], graph.edge_index[:, 1]
    keys, slot = np.unique(np.concatenate([src * n + dst, dst * n + src]),
                           return_inverse=True)
    w = graph.edge_weights if graph.is_weighted else np.ones(m)
    wsym = np.bincount(slot, weights=np.concatenate([w, w]), minlength=len(keys)) / 2.0
    alpha = np.bincount(slot, weights=np.concatenate([w, -w]), minlength=len(keys))
    rows, cols = np.divmod(keys, max(n, 1))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return SymmetrizedView(
        wsym=csr_matrix((wsym, cols, indptr), shape=(n, n)),
        degrees=np.bincount(rows, weights=wsym, minlength=n),
        alpha=csr_matrix((alpha, cols, indptr), shape=(n, n)))


def complex_frustration(sym: SymmetrizedView, theta, g: float) -> float:
    """The frustration as one complex term per entry of the view,
    wsym_ij * |exp(1j*theta_i) - exp(-2j*pi*g*alpha_ij) * exp(1j*theta_j)|^2:
    the oracle for the real half-sum in dirlap.frustration."""
    coo = sym.wsym.tocoo()
    phase = np.exp(1j * np.asarray(theta, dtype=float))
    rot = np.exp(-2j * np.pi * g * sym.alpha.data)
    diff = phase[coo.row] - rot * phase[coo.col]
    return float(np.sum(coo.data * np.abs(diff) ** 2))


def reference_magnetic_laplacian(sym: SymmetrizedView, g: float) -> csr_matrix:
    """diag(degrees) - transporter o wsym by a sparse sum, with the
    transporter exp(-2*pi*g*alpha*1j) taken entry by entry: the oracle for
    the build in dirlap.build_magnetic_laplacian."""
    transporter = np.exp(-1j * 2.0 * np.pi * g * sym.alpha.data)
    off_diagonal = csr_matrix((-(transporter * sym.wsym.data), sym.wsym.indices,
                               sym.wsym.indptr), shape=sym.wsym.shape)
    return (off_diagonal + diags(sym.degrees.astype(complex))).tocsr()


def build_trophic_system(graph: DirectedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense weighted degree system for level fitting: the oracle for the
    sparse solve in dirlap.trophic_algorithm.

    Returns (lam, chi, omega) where omega is total in+out weight per node,
    chi the in-minus-out imbalance, and lam = diag(omega) - A - A^T, a
    symmetric matrix with zero row sums.
    """
    a = adjacency(graph)
    w_in = a.sum(axis=0)
    w_out = a.sum(axis=1)
    omega = w_in + w_out
    chi = w_in - w_out
    lam = np.diag(omega) - a - a.T
    return lam, chi, omega


def dense_trophic_levels(graph: DirectedGraph) -> np.ndarray:
    """Levels from the dense bordered system [[lam, 1], [1^T, 0]] that
    enforces sum(h) = 0, shifted so min(h) = 0."""
    lam, chi, _ = build_trophic_system(graph)
    n = graph.n
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = lam
    bordered[:n, n] = 1.0
    bordered[n, :n] = 1.0
    h = np.linalg.solve(bordered, np.append(chi, 0.0))[:n]
    return h - h.min()


def level_fixtures():
    """(graph, levels) pairs: the food web and planted level-model graphs,
    with fitted levels, plus each planted graph with its planted levels."""
    graph = parse_edge_list(FOOD_WEB.read_text(encoding="utf-8")).graph
    yield graph, trophic_algorithm(graph).h
    for clusters, size, seed in ((2, 60, 1), (3, 60, 2), (5, 50, 3), (6, 46, 4)):
        planted = gen_trophic_levels(clusters, size, 0.2, seed)
        graph = trophic_sample(TrophicParams(planted, 5.0), seed + 100)
        yield graph, planted
        sub, _ = largest_wcc(graph)
        yield sub, trophic_algorithm(sub).h


def random_graph(rng: np.random.Generator, n: int, p: float) -> DirectedGraph:
    """Directed Erdos-Renyi graph: each ordered pair is an edge with prob p."""
    mask = (rng.random((n, n)) < p) & ~np.eye(n, dtype=bool)
    edges = tuple((int(i), int(j)) for i, j in np.argwhere(mask))
    return DirectedGraph(n, edges)


def symmetrize_cases(rng: np.random.Generator):
    """Graphs with reciprocated pairs, one-way edges and isolated nodes, and
    the degenerate ones: no nodes, one node, no edges; each also weighted."""
    cases = [DirectedGraph(0, ()), DirectedGraph(1, ()), DirectedGraph(4, ()),
             DirectedGraph(5, ((0, 1), (1, 0), (3, 1)))]
    for _ in range(30):
        graph = random_graph(rng, int(rng.integers(2, 40)), rng.uniform(0.02, 0.5))
        cases.append(DirectedGraph(graph.n + 3, graph.edge_index))
    for graph in cases:
        yield graph
        yield DirectedGraph(graph.n, graph.edge_index,
                            weights=rng.uniform(0.01, 0.99, graph.edge_count))


def random_weakly_connected_graph(rng: np.random.Generator, n: int,
                                  extra_p: float = 0.05) -> DirectedGraph:
    """Random graph on a randomly oriented spanning-tree backbone."""
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        a = int(order[rng.integers(0, k)])
        b = int(order[k])
        edges.add((a, b) if rng.random() < 0.5 else (b, a))
    mask = (rng.random((n, n)) < extra_p) & ~np.eye(n, dtype=bool)
    edges.update((int(i), int(j)) for i, j in np.argwhere(mask))
    return DirectedGraph(n, tuple(edges))


def circular_correlation(a, b) -> float:
    """Circular correlation coefficient of two angle samples.

    Invariant under rotating either sample; reflecting one sample flips
    the sign, so comparisons up to reflection use the absolute value.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    abar = np.arctan2(np.sin(a).sum(), np.cos(a).sum())
    bbar = np.arctan2(np.sin(b).sum(), np.cos(b).sum())
    sa = np.sin(a - abar)
    sb = np.sin(b - bbar)
    return float(np.sum(sa * sb) / np.sqrt(np.sum(sa**2) * np.sum(sb**2)))


def _pair_logprobs(theta, gamma: float, g: float):
    """Upper-triangle pair indices and the four outcome log-probabilities
    of every unordered pair: one term per pair, O(n^2) time and memory."""
    theta = np.asarray(theta, dtype=float)
    iu, ju = np.triu_indices(len(theta), k=1)
    beta = theta[iu] - theta[ju]
    cos_b = np.cos(beta)
    expo = gamma * np.stack([np.zeros_like(beta),
                             1.0 - 2.0 * cos_b + np.cos(beta + 2 * np.pi * g),
                             1.0 - 2.0 * cos_b + np.cos(beta - 2 * np.pi * g),
                             2.0 - 2.0 * cos_b])
    log_z = np.logaddexp(np.logaddexp(expo[0], expo[1]),
                         np.logaddexp(expo[2], expo[3]))
    return iu, ju, expo - log_z


def exact_prdrg_loglik(graph: DirectedGraph, theta, gamma: float, g: float) -> float:
    """Pair-model log-likelihood summed over all n(n-1)/2 pairs; the oracle
    for the Fourier-space sum in dirlap.models."""
    iu, ju, logp = _pair_logprobs(theta, gamma, g)
    adj = np.zeros((graph.n, graph.n), dtype=bool)
    adj[graph.edge_index[:, 0], graph.edge_index[:, 1]] = True
    fwd, bwd = adj[iu, ju], adj[ju, iu]
    code = np.select([fwd & bwd, fwd, bwd], [0, 1, 2], default=3)
    return float(np.sum(logp[code, np.arange(len(code))]))


def exact_prdrg_expected_edges(theta, gamma: float, g: float) -> float:
    """Expected directed-edge count summed over all pairs; the oracle for
    the Fourier-space sum in dirlap.models."""
    _, _, logp = _pair_logprobs(theta, gamma, g)
    probs = np.exp(logp)
    return float(np.sum(2.0 * probs[0] + probs[1] + probs[2]))


def direct_trophic_expected_edges(h, gamma):
    """The level model's expected edge count summed over all n^2 pairs
    less the diagonal; the oracle for the Chebyshev pair sums in
    dirlap.models."""
    h = np.asarray(h, dtype=float)
    with np.errstate(over="ignore"):
        prob = 1.0 / (1.0 + np.exp(gamma * (h[None, :] - h[:, None] - 1.0) ** 2))
    return float(prob.sum() - prob.diagonal().sum())


def direct_bernoulli_loglik(graph: DirectedGraph, h, gamma):
    """The level model's log-likelihood: -gamma times the edges' penalty,
    less the pair sum of -log P(no edge) over all n^2 pairs less the
    diagonal; the oracle for the Chebyshev pair sums in dirlap.models."""
    h = np.asarray(h, dtype=float)
    penalty = (h[None, :] - h[:, None] - 1.0) ** 2
    edge_penalty = float(penalty[graph.edge_index[:, 0], graph.edge_index[:, 1]].sum())
    absent = np.log1p(np.exp(-(gamma * penalty)))
    return -gamma * edge_penalty - float(absent.sum() - absent.diagonal().sum())


def masked_trophic_expected_edges(h, gamma):
    """The expected edge count as e / (1 + e) with e = exp(-x), summed with
    a zeroed diagonal: a second form of direct_trophic_expected_edges."""
    h = np.asarray(h, dtype=float)
    e = np.exp(-(gamma * (h[None, :] - h[:, None] - 1.0) ** 2))
    prob = e / (1.0 + e)
    np.fill_diagonal(prob, 0.0)
    return float(prob.sum())


def masked_bernoulli_loglik(graph: DirectedGraph, h, gamma):
    """The log-likelihood as log P(A_ij) for every off-diagonal pair, picked
    by the adjacency: a second form of direct_bernoulli_loglik."""
    h = np.asarray(h, dtype=float)
    adj = adjacency(graph).astype(bool)
    off = ~np.eye(graph.n, dtype=bool)
    x = gamma * ((h[None, :] - h[:, None] - 1.0) ** 2)[off]
    log_absent = -np.log1p(np.exp(-x))
    return float(np.sum(np.where(adj[off], log_absent - x, log_absent)))


def barycentric_level_weights(h, nodes: int) -> np.ndarray:
    """Summed Lagrange weights sum_i L_p(h_i) of the levels h on the
    ``nodes`` Chebyshev points of [min h, max h], by the barycentric formula
    a block of levels at a time: the oracle for the weights that
    dirlap.models builds from Chebyshev moments.

    A level on a point has that point's unit vector as its Lagrange row.
    The gaps are taken in angle, u - x_p = -2 sin((theta + phi_p) / 2)
    sin((theta - phi_p) / 2) with u = cos(theta) = (mid - h) / half and the
    points x_p = cos(phi_p), phi_p = pi * p / (nodes - 1), so that the
    points are exact and not rounded to floats next to the ends.
    """
    h = np.asarray(h, dtype=float)
    lo, hi = h.min(), h.max()
    theta = 2.0 * np.arctan2(np.sqrt(h - lo), np.sqrt(hi - h))
    phi = np.pi * np.arange(nodes) / (nodes - 1)
    lam = np.resize([1.0, -1.0], nodes)     # barycentric weights
    lam[[0, -1]] *= 0.5
    weights = np.zeros(nodes)
    for start in range(0, len(h), 256):
        angle = theta[start:start + 256, None]
        with np.errstate(divide="ignore"):  # the constant -2 cancels below
            block = lam / (np.sin(0.5 * (angle + phi)) * np.sin(0.5 * (angle - phi)))
        hit = np.isinf(block)
        on_node = hit.any(axis=1)
        block[on_node] = hit[on_node]
        block /= block.sum(axis=1, keepdims=True)
        weights += block.sum(axis=0)
    return weights


def deep_hierarchy() -> tuple[DirectedGraph, np.ndarray]:
    """Ten levels of 300 nodes (n = 3000) with noise 0.2, each node below
    the top linked to four random nodes of the next level up."""
    h = gen_trophic_levels(10, 300, 0.2, 61)
    src = np.repeat(np.arange(2700), 4)
    dst = 300 * (src // 300 + 1) + np.random.default_rng(62).integers(0, 300, len(src))
    return DirectedGraph(3000, np.unique(np.column_stack((src, dst)), axis=0)), h


def block_cycle_graph(rng: np.random.Generator, blocks: int, size: int,
                      out_degree: float = 8.0, forward_share: float = 0.85,
                      cyclic: bool = True) -> DirectedGraph:
    """Sparse graph of equal blocks joined in a directed cycle, or in a
    directed line when not ``cyclic``.

    Node i sends about ``out_degree`` edges; a ``forward_share`` of them go
    to random nodes of the next block (the last block feeds the first when
    ``cyclic``), the rest to random nodes anywhere.  In a line the last
    block has no next one, and all its edges go anywhere.
    """
    n = blocks * size
    m = int(out_degree * n)
    src = rng.integers(0, n, m)
    next_block = ((src // size + 1) % blocks) * size + rng.integers(0, size, m)
    forward = rng.random(m) < forward_share
    if not cyclic:
        forward &= src < n - size
    dst = np.where(forward, next_block, rng.integers(0, n, m))
    edges = {(int(i), int(j)) for i, j in zip(src, dst) if i != j}
    return DirectedGraph(n, tuple(edges))


def reference_parse_edge_list(text, weighted: bool = False):
    """Line-by-line edge-list parser: the oracle for dirlap.parse_edge_list.

    Returns (labels, edges, weights, self_loops_dropped) with ``edges`` the
    sorted list of (i, j) pairs and ``weights`` aligned with it (None when
    unweighted), or raises the EdgeListError the library must raise.
    """
    lines = text.splitlines()
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
        edges = sorted(weighted_edges)
        return labels, edges, [weighted_edges[e] for e in edges], loops
    return labels, sorted(plain_edges), None, loops


def reference_graph_error(n: int, edges, weights=None) -> str | None:
    """Message of the ValueError DirectedGraph(n, edges, weights) must raise
    for these edges, or None: the tuple-sorting check, edge by edge."""
    if weights is None:
        pairs = [((int(i), int(j)), None) for i, j in sorted(
            (int(i), int(j)) for i, j in edges)]
    else:
        pairs = sorted(zip(((int(i), int(j)) for i, j in edges),
                           (float(w) for w in weights)))
    seen = set()
    for (i, j), _ in pairs:
        if not (0 <= i < n and 0 <= j < n):
            return f"edge ({i}, {j}) out of range for n={n}"
        if i == j:
            return f"self-loop on node {i} is not allowed"
        if (i, j) in seen:
            return f"duplicate edge ({i}, {j})"
        seen.add((i, j))
    for (i, j), w in pairs:
        if w is not None and not 0.0 < w < 1.0:
            return f"weight {w} on edge ({i}, {j}) outside (0, 1)"
    return None


def golden_section_fit(loglik, gamma_min: float = 1e-3, gamma_max: float = 50.0,
                       grid_points: int = 32, tol: float = 1e-6) -> tuple[float, float]:
    """(gamma, loglik) of the former decay-rate fit, the oracle for the
    Newton fit: the best point of a logarithmic grid, refined by
    golden-section search between its neighbours to absolute tolerance tol.
    ``loglik(gamma)`` returns the value alone."""
    grid = np.geomspace(gamma_min, gamma_max, grid_points)
    values = [loglik(float(x)) for x in grid]
    best = int(np.argmax(values))
    if best == len(grid) - 1:
        return float(grid[-1]), values[-1]
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[best + 1])
    best_x, best_y = float(grid[best]), values[best]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    yc, yd = loglik(c), loglik(d)
    while hi - lo > tol:
        if yc > yd:
            hi, d, yd = d, c, yc
            c = hi - inv_phi * (hi - lo)
            yc = loglik(c)
        else:
            lo, c, yc = c, d, yd
            d = lo + inv_phi * (hi - lo)
            yd = loglik(d)
        for x, y in ((c, yc), (d, yd)):
            if y > best_y:
                best_x, best_y = x, y
    return best_x, best_y


def dense_grid_maximizer(loglik, gamma_min: float = 1e-3, gamma_max: float = 50.0,
                         width: float = 1e-7) -> float:
    """Maximizer of a log-likelihood by plain value probes: the best of
    401 logarithmic grid points, then of 21 points spanning its two
    neighbours, repeated until the span is below ``width``."""
    grid = np.geomspace(gamma_min, gamma_max, 401)
    while True:
        values = [loglik(float(x)) for x in grid]
        best = int(np.argmax(values))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
        if hi - lo < width:
            return float(grid[best])
        grid = np.linspace(lo, hi, 21)
