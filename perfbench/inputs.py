"""Seeded input graphs for the benchmark, drawn from the models' formulas.

The samplers here are the benchmark's own: they do not call dirlap's
``prdrg_sample`` / ``trophic_sample``, so the inputs for a seed stay the
same when the program's samplers or their use of the RNG change.

Every graph is a :class:`Planted` record: node labels, directed edges as
index arrays, and the structure that was planted (angles for the pair
model, levels for the level model, block ids for the sparse
block graphs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass
class Planted:
    labels: list[str]
    src: np.ndarray
    dst: np.ndarray
    angles: np.ndarray | None = None
    levels: np.ndarray | None = None
    blocks: np.ndarray | None = None


def _labels(n: int, rng: np.random.Generator) -> list[str]:
    # labels carry no hint of the planted order
    return [f"v{k:05d}" for k in rng.permutation(n)]


def pair_exponents(beta: np.ndarray, g: float) -> np.ndarray:
    """gamma-free exponents of (reciprocal, forward i->j, backward j->i,
    absent) for angle differences beta = theta_i - theta_j."""
    c = np.cos(beta)
    return np.stack([np.zeros_like(beta),
                     1.0 - 2.0 * c + np.cos(beta + TWO_PI * g),
                     1.0 - 2.0 * c + np.cos(beta - TWO_PI * g),
                     2.0 - 2.0 * c])


def pair_model(clusters: int, size: int, gamma: float, noise: float, g: float,
               seed) -> Planted:
    """Four-outcome pair model: angles 2*pi*l/clusters + U(-noise, noise),
    one categorical outcome per unordered pair with masses exp(gamma * e_k)."""
    rng = np.random.default_rng(seed)
    n = clusters * size
    angles = (np.repeat(TWO_PI * np.arange(clusters) / clusters, size)
              + rng.uniform(-noise, noise, n))
    i, j = np.triu_indices(n, k=1)
    logits = gamma * pair_exponents(angles[i] - angles[j], g)
    probs = np.exp(logits - logits.max(axis=0))
    cum = np.cumsum(probs, axis=0)
    u = rng.random(len(i)) * cum[-1]
    outcome = (u[None, :] >= cum[:3]).sum(axis=0)
    fwd = (outcome == 0) | (outcome == 1)
    bwd = (outcome == 0) | (outcome == 2)
    src = np.concatenate([i[fwd], j[bwd]])
    dst = np.concatenate([j[fwd], i[bwd]])
    return Planted(_labels(n, rng), src, dst, angles=angles,
                   blocks=np.repeat(np.arange(clusters), size))


def level_model(clusters: int, size: int, gamma: float, noise: float,
                seed) -> Planted:
    """Independent-edge level model: levels 1..clusters + U(-noise, noise),
    P(i -> j) = 1 / (1 + exp(gamma * (h_j - h_i - 1)^2)) per ordered pair."""
    rng = np.random.default_rng(seed)
    n = clusters * size
    levels = (np.repeat(np.arange(1.0, clusters + 1.0), size)
              + rng.uniform(-noise, noise, n))
    x = gamma * (levels[None, :] - levels[:, None] - 1.0) ** 2
    prob = np.exp(-np.logaddexp(0.0, x))
    adj = rng.random((n, n)) < prob
    np.fill_diagonal(adj, False)
    src, dst = np.nonzero(adj)
    return Planted(_labels(n, rng), src, dst, levels=levels,
                   blocks=np.repeat(np.arange(clusters), size))


def _distinct_edges(rng, count, draw):
    """``count`` distinct non-loop edges from ``draw(rng, k) -> (src, dst)``."""
    have = np.empty(0, dtype=np.int64)
    n_key = 1 << 32
    while len(have) < count:
        s, d = draw(rng, 2 * (count - len(have)) + 16)
        keys = (s.astype(np.int64) * n_key + d)[s != d]
        _, first = np.unique(keys, return_index=True)
        fresh = keys[np.sort(first)]
        fresh = fresh[~np.isin(fresh, have)]
        have = np.concatenate([have, fresh[:count - len(have)]])
    return have // n_key, have % n_key


def block_graph(blocks: int, size: int, out_degree: float, forward_share: float,
                cyclic: bool, seed) -> Planted:
    """Sparse block graph: ``forward_share`` of the edges run from a block to
    the next one (wrapping round when ``cyclic``), the rest join random pairs
    that are not such forward pairs."""
    rng = np.random.default_rng(seed)
    n = blocks * size
    block = np.repeat(np.arange(blocks), size)
    m = int(round(out_degree * n))
    m_fwd = int(round(forward_share * m))
    senders = n if cyclic else (blocks - 1) * size

    def forward(r, k):
        s = r.integers(0, senders, k)
        nxt = (block[s] + 1) % blocks
        return s, nxt * size + r.integers(0, size, k)

    def other(r, k):
        s = r.integers(0, n, k)
        d = r.integers(0, n, k)
        is_fwd = block[d] == block[s] + 1
        if cyclic:
            is_fwd |= (block[s] == blocks - 1) & (block[d] == 0)
        return s[~is_fwd], d[~is_fwd]

    fs, fd = _distinct_edges(rng, m_fwd, forward)
    os_, od = _distinct_edges(rng, m - m_fwd, other)
    return Planted(_labels(n, rng), np.concatenate([fs, os_]),
                   np.concatenate([fd, od]), blocks=block)


def edge_list_text(graph: Planted, seed) -> str:
    """Whitespace edge list with the lines in a seeded random order."""
    order = np.random.default_rng(seed).permutation(len(graph.src))
    lab = graph.labels
    return "".join(f"{lab[graph.src[k]]} {lab[graph.dst[k]]}\n" for k in order)
