"""Shared test utilities: random graph builders and evaluation metrics."""

from __future__ import annotations

import numpy as np

from dirlap import DirectedGraph


def random_graph(rng: np.random.Generator, n: int, p: float) -> DirectedGraph:
    """Directed Erdos-Renyi graph: each ordered pair is an edge with prob p."""
    mask = (rng.random((n, n)) < p) & ~np.eye(n, dtype=bool)
    edges = tuple((int(i), int(j)) for i, j in np.argwhere(mask))
    return DirectedGraph(n, edges)


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
    if graph.edges:
        idx = np.array(graph.edges)
        adj[idx[:, 0], idx[:, 1]] = True
    fwd, bwd = adj[iu, ju], adj[ju, iu]
    code = np.select([fwd & bwd, fwd, bwd], [0, 1, 2], default=3)
    return float(np.sum(logp[code, np.arange(len(code))]))


def exact_prdrg_expected_edges(theta, gamma: float, g: float) -> float:
    """Expected directed-edge count summed over all pairs; the oracle for
    the Fourier-space sum in dirlap.models."""
    _, _, logp = _pair_logprobs(theta, gamma, g)
    probs = np.exp(logp)
    return float(np.sum(2.0 * probs[0] + probs[1] + probs[2]))
