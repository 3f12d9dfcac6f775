"""Random-graph models tied to the two spectral objectives.

Three families:

* a four-outcome pair model where each unordered node pair is reciprocal,
  forward, backward, or absent with probabilities decaying in the angular
  mismatch (forward and backward edges are *not* independent);
* an independent-edge model whose i -> j probability decays in
  (h_j - h_i - 1)^2, plus a weighted-edge density variant on (0, 1);
* the generalization of the latter to arbitrary nonnegative kernels on
  vector node attributes.

All likelihood arithmetic stays in the log domain so that large decay
rates (gamma up to ~50) do not overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphs import DirectedGraph
from .spectral import TWO_PI, NumericalError, _check_rotation


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if gamma < 0.0 or not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    return gamma


@dataclass(frozen=True)
class PRDRGParams:
    """Angles plus decay rate and rotation for the four-outcome pair model."""

    theta: np.ndarray
    gamma: float
    g: float

    def __post_init__(self):
        object.__setattr__(self, "theta", np.array(self.theta, dtype=float))
        self.theta.setflags(write=False)
        _check_gamma(self.gamma)
        _check_rotation(self.g)


@dataclass(frozen=True)
class TrophicParams:
    """Levels plus decay rate for the independent-edge model."""

    h: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "h", np.array(self.h, dtype=float))
        self.h.setflags(write=False)
        _check_gamma(self.gamma)


@dataclass(frozen=True)
class KernelModel:
    """Node attributes in R^d with a nonnegative kernel and decay rate.

    ``kernel(x, y)`` gives the penalty for a directed edge from a node
    with attribute x to one with attribute y; the edge probability is
    1 / (1 + exp(gamma * kernel(x, y))).
    """

    attributes: np.ndarray
    kernel: Callable[[np.ndarray, np.ndarray], float]
    gamma: float

    def __post_init__(self):
        attrs = np.array(self.attributes, dtype=float)
        if attrs.ndim == 1:
            attrs = attrs[:, None]
        if attrs.ndim != 2:
            raise ValueError("attributes must be an (n, d) array")
        object.__setattr__(self, "attributes", attrs)
        self.attributes.setflags(write=False)
        _check_gamma(self.gamma)


# ---------------------------------------------------------------------------
# four-outcome pair model


def _pair_exponent_bases(beta, g: float):
    """gamma-free exponents of the four outcomes, in order
    (reciprocal, forward, backward, none)."""
    beta = np.asarray(beta, dtype=float)
    cos_b = np.cos(beta)
    return np.stack([
        np.zeros_like(beta),
        1.0 - 2.0 * cos_b + np.cos(beta + TWO_PI * g),
        1.0 - 2.0 * cos_b + np.cos(beta - TWO_PI * g),
        2.0 - 2.0 * cos_b,
    ])


def _four_outcome_logprobs(beta, gamma: float, g: float) -> np.ndarray:
    expo = gamma * _pair_exponent_bases(beta, g)
    peak = expo.max(axis=0)
    log_z = peak + np.log(np.exp(expo - peak).sum(axis=0))
    return expo - log_z


def prdrg_pair_probs(theta_i: float, theta_j: float, gamma: float,
                     g: float) -> tuple[float, float, float, float]:
    """Probabilities (reciprocal, forward, backward, none) for one pair.

    With beta = theta_i - theta_j the unnormalized masses are 1,
    exp(gamma*(1 - 2cos(beta) + cos(beta + 2*pi*g))),
    exp(gamma*(1 - 2cos(beta) + cos(beta - 2*pi*g))) and
    exp(gamma*(2 - 2cos(beta))); the four outputs sum to one.
    """
    _check_gamma(gamma)
    _check_rotation(g)
    logp = _four_outcome_logprobs(float(theta_i) - float(theta_j), gamma, g)
    probs = np.exp(logp)
    return tuple(float(p) for p in probs)


# Pair sums in Fourier space.  For an even 2*pi-periodic f with Fourier
# coefficients c_k, and S_k = sum_i exp(1j*k*theta_i),
#     sum_{i<j} f(theta_i - theta_j) = (sum_k c_k |S_k|^2 - n f(0)) / 2,
# which costs O(n*K + M log M) with K modes and M grid points in place of
# O(n^2).  The coefficients come from an rfft of f on M points; M doubles
# from _MIN_GRID until the sampled coefficients above M/4 are at the
# rounding level of the samples, and only the modes below M/4 are summed.

_MIN_GRID = 256
_MAX_GRID = 1 << 16      # enough for gamma up to ~1e4
_TAIL_TOL = 4.0 * np.finfo(float).eps
_REANCHOR = 64           # power-spectrum recurrence restarts every this many modes


class _AngleSpectrum:
    """Power |S_k|^2 of S_k = sum_i exp(1j*k*theta_i), extended on demand.

    Works in O(n) memory: S_k comes from the recurrence
    exp(1j*(k+1)*theta) = exp(1j*k*theta) * exp(1j*theta), restarted from a
    direct evaluation every _REANCHOR modes so rounding does not build up.
    Requests come in multiples of _REANCHOR, so a mode's value does not
    depend on how many modes were requested before.
    """

    def __init__(self, theta: np.ndarray):
        self.theta = theta
        self.n = len(theta)
        self._power = np.empty(0)

    def power(self, modes: int) -> np.ndarray:
        have = len(self._power)
        if modes > have:
            step = np.exp(1j * self.theta)
            extra = np.empty(modes - have)
            for k in range(have, modes):
                if k % _REANCHOR == 0:
                    wave = np.exp(1j * k * self.theta)
                else:
                    wave *= step
                s = wave.sum()
                extra[k - have] = s.real ** 2 + s.imag ** 2
            self._power = np.concatenate([self._power, extra])
        return self._power[:modes]


def _pair_sum(spectrum: _AngleSpectrum, f: Callable[[np.ndarray], np.ndarray],
              gamma: float) -> float:
    """sum_{i<j} f(theta_i - theta_j) for an even, smooth 2*pi-periodic f.

    Raises NumericalError when f is too sharp to resolve with _MAX_GRID
    points (very large gamma), rather than returning a truncated sum.
    """
    grid = _MIN_GRID
    while True:
        values = f(TWO_PI / grid * np.arange(grid))
        coef = np.fft.rfft(values).real / grid
        if np.abs(coef[grid // 4:]).max() <= _TAIL_TOL * np.abs(values).max():
            break
        grid *= 2
        if grid > _MAX_GRID:
            raise NumericalError(
                f"pair-model sums at gamma={gamma:g} need more than "
                f"{_MAX_GRID // 4} Fourier modes; use a smaller decay rate")
    modes = grid // 4
    power = spectrum.power(modes)
    total = coef[0] * power[0] + 2.0 * np.dot(coef[1:modes], power[1:])
    return 0.5 * (total - spectrum.n * values[0])


def _outcome_weights(beta: np.ndarray, gamma: float, g: float):
    """exp(gamma * (b - b_none)) for the reciprocal, forward and backward
    outcomes; every value lies in [0, 1] since 'none' has the top exponent."""
    return (np.exp(gamma * (2.0 * np.cos(beta) - 2.0)),
            np.exp(gamma * (np.cos(beta + TWO_PI * g) - 1.0)),
            np.exp(gamma * (np.cos(beta - TWO_PI * g) - 1.0)))


def _observed_excess(graph: DirectedGraph, theta: np.ndarray, g: float) -> float:
    """sum over pairs of (b_observed - b_none), in O(m).

    Absent pairs contribute 0.  An unreciprocated edge i -> j contributes
    cos(beta + 2*pi*g) - 1 with beta = theta_i - theta_j, whether the
    pair counts it as its forward or its backward outcome.  A reciprocated
    pair contributes 2*cos(beta) - 2, split over its two edges.
    """
    if not graph.edges:
        return 0.0
    src, dst = graph.edge_index.T
    key = src * graph.n + dst           # ascending: edges are sorted
    rev = dst * graph.n + src
    at = np.minimum(np.searchsorted(key, rev), len(key) - 1)
    mutual = key[at] == rev
    beta = theta[src] - theta[dst]
    return float(np.sum(np.where(mutual, np.cos(beta),
                                 np.cos(beta + TWO_PI * g)) - 1.0))


def make_prdrg_loglik(graph: DirectedGraph, theta, g: float) -> Callable[[float], float]:
    """Precompute the angle terms and return gamma -> log-likelihood.

    Each pair contributes gamma*b_observed - log Z, and log Z equals
    gamma*b_none + log(1 + sum of _outcome_weights).  The gamma*b_none
    parts cancel against the observed term except on pairs with an edge,
    so the likelihood is gamma * _observed_excess - sum over pairs of
    log1p(...), the latter a Fourier pair sum.  Setup is O(n*K + m) and
    a probe O(M log M).
    """
    if graph.is_weighted:
        raise ValueError("the pair model is defined for unweighted graphs")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (graph.n,):
        raise ValueError(f"theta has length {theta.size}, expected {graph.n}")
    g = _check_rotation(g)
    spectrum = _AngleSpectrum(theta)
    excess = _observed_excess(graph, theta, g)

    def loglik(gamma: float) -> float:
        gamma = _check_gamma(gamma)
        log_z_excess = _pair_sum(
            spectrum, lambda beta: np.log1p(sum(_outcome_weights(beta, gamma, g))),
            gamma)
        return float(gamma * excess - log_z_excess)

    return loglik


def prdrg_loglik(graph: DirectedGraph, params: PRDRGParams) -> float:
    """Log-likelihood of the graph: one four-outcome term per unordered pair."""
    return make_prdrg_loglik(graph, params.theta, params.g)(params.gamma)


def prdrg_sample(params: PRDRGParams, seed) -> DirectedGraph:
    """Draw a graph: one categorical outcome per unordered pair.

    Deterministic for a given seed; pairs are consumed in a fixed
    row-major order.
    """
    theta = params.theta
    n = len(theta)
    iu, ju = np.triu_indices(n, k=1)
    logp = _four_outcome_logprobs(theta[iu] - theta[ju], params.gamma, params.g)
    cum = np.cumsum(np.exp(logp), axis=0)
    u = np.random.default_rng(seed).random(len(iu))
    outcome = (u[None, :] >= cum[:3, :]).sum(axis=0)
    edges: list[tuple[int, int]] = []
    for k in np.flatnonzero(outcome == 0):
        edges.append((int(iu[k]), int(ju[k])))
        edges.append((int(ju[k]), int(iu[k])))
    for k in np.flatnonzero(outcome == 1):
        edges.append((int(iu[k]), int(ju[k])))
    for k in np.flatnonzero(outcome == 2):
        edges.append((int(ju[k]), int(iu[k])))
    return DirectedGraph(n, tuple(edges))


def make_prdrg_expected_edges(theta, g: float) -> Callable[[float], float]:
    """Precompute the angle terms and return gamma -> expected edge count.

    The per-pair count 2f + q + l is a Fourier pair sum, as in
    make_prdrg_loglik, so each gamma costs O(M log M) after the setup.
    """
    theta = np.asarray(theta, dtype=float)
    g = _check_rotation(g)
    spectrum = _AngleSpectrum(theta)

    def expected(gamma: float) -> float:
        gamma = _check_gamma(gamma)

        def per_pair(beta):
            both, fwd, bwd = _outcome_weights(beta, gamma, g)
            return (2.0 * both + fwd + bwd) / (1.0 + both + fwd + bwd)

        return float(_pair_sum(spectrum, per_pair, gamma))

    return expected


def prdrg_expected_edges(theta, gamma: float, g: float) -> float:
    """Expected directed-edge count: sum over pairs of 2f + q + l."""
    return make_prdrg_expected_edges(theta, g)(gamma)


# ---------------------------------------------------------------------------
# independent-edge models: P(edge i -> j) = 1 / (1 + exp(gamma * penalty_ij))


def _edge_prob(x, out=None):
    """1 / (1 + exp(x)) for x >= 0, as e / (1 + e) with e = exp(-x);
    written into ``out`` when given, which may be ``x`` itself."""
    e = np.exp(np.negative(x, out=out), out=out)
    return np.divide(e, 1.0 + e, out=out)


def _make_bernoulli_loglik(graph: DirectedGraph,
                           penalty: np.ndarray) -> Callable[[float], float]:
    """Return gamma -> sum over ordered pairs i != j of log P(A_ij).

    P(A_ij = 1) = 1 / (1 + exp(gamma * penalty_ij)) for the n x n
    nonnegative ``penalty``; the log-sigmoid stays in the log domain.  The
    returned function reuses its work arrays, so call it from one thread
    at a time.
    """
    n = graph.n
    adj = np.zeros((n, n), dtype=bool)
    adj[graph.edge_index[:, 0], graph.edge_index[:, 1]] = True
    off = ~np.eye(n, dtype=bool)
    penalty, present = penalty[off], adj[off]

    # work arrays kept for every probe: fresh n x n temporaries would be
    # new pages, faulted in on each call
    x, log_p = np.empty_like(penalty), np.empty_like(penalty)

    def loglik(gamma: float) -> float:
        np.multiply(_check_gamma(gamma), penalty, out=x)
        # log P(absent) = -log1p(exp(-x)), log P(present) = log P(absent) - x
        np.negative(x, out=log_p)
        np.exp(log_p, out=log_p)
        np.log1p(log_p, out=log_p)
        np.negative(log_p, out=log_p)
        np.subtract(log_p, x, out=x)
        np.copyto(log_p, x, where=present)
        return float(np.sum(log_p))

    return loglik


def trophic_edge_prob(h_i, h_j, gamma: float):
    """P(edge i -> j) = 1 / (1 + exp(gamma * (h_j - h_i - 1)^2)).

    Equals 1/2 exactly when the edge climbs one level, and
    1/(1 + exp(gamma)) within a level.
    """
    x = _check_gamma(gamma) * (np.asarray(h_j, dtype=float)
                               - np.asarray(h_i, dtype=float) - 1.0) ** 2
    out = _edge_prob(x)
    return float(out) if np.isscalar(h_i) and np.isscalar(h_j) else out


def make_trophic_loglik(graph: DirectedGraph, h) -> Callable[[float], float]:
    """Precompute pair terms and return gamma -> log-likelihood."""
    if graph.is_weighted:
        raise ValueError("the Bernoulli level model is defined for "
                         "unweighted graphs; see weighted_trophic_logdensity")
    h = np.asarray(h, dtype=float)
    if h.shape != (graph.n,):
        raise ValueError(f"h has length {h.size}, expected {graph.n}")
    return _make_bernoulli_loglik(graph, (h[None, :] - h[:, None] - 1.0) ** 2)


def trophic_loglik(graph: DirectedGraph, params: TrophicParams) -> float:
    """Bernoulli log-likelihood over all ordered pairs i != j."""
    return make_trophic_loglik(graph, params.h)(params.gamma)


def trophic_sample(params: TrophicParams, seed) -> DirectedGraph:
    """Draw a graph with one independent Bernoulli edge per ordered pair."""
    h = params.h
    n = len(h)
    prob = _edge_prob(params.gamma * (h[None, :] - h[:, None] - 1.0) ** 2)
    u = np.random.default_rng(seed).random((n, n))
    adj = (u < prob) & ~np.eye(n, dtype=bool)
    edges = tuple((int(i), int(j)) for i, j in np.argwhere(adj))
    return DirectedGraph(n, edges)


def make_trophic_expected_edges(h) -> Callable[[float], float]:
    """Precompute the squared level gaps and return gamma -> expected edge count.

    The returned function reuses one n x n work array, so call it from one
    thread at a time.
    """
    h = np.asarray(h, dtype=float)
    penalty = (h[None, :] - h[:, None] - 1.0) ** 2
    prob = np.empty_like(penalty)   # reused, as in _make_bernoulli_loglik

    def expected(gamma: float) -> float:
        _edge_prob(np.multiply(_check_gamma(gamma), penalty, out=prob), out=prob)
        np.fill_diagonal(prob, 0.0)
        return float(prob.sum())

    return expected


def trophic_expected_edges(h, gamma: float) -> float:
    """Expected directed-edge count: sum of edge probabilities over i != j."""
    return make_trophic_expected_edges(h)(gamma)


def _log_weight_normalizer(x: np.ndarray) -> np.ndarray:
    """log of (1 - exp(-x)) / x for x >= 0, with the x -> 0 limit of 0.

    Uses expm1 so that small x suffers no cancellation: for x = 1e-12 the
    result is log(1 - x/2 + O(x^2)) to full precision.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.log(-np.expm1(-x[pos])) - np.log(x[pos])
    return out


def weighted_trophic_logdensity(graph: DirectedGraph, params: TrophicParams) -> float:
    """Log-density of the observed edge weights under the level model.

    Each realized weight w on edge i -> j has density
    exp(-gamma * w * p) / Z on (0, 1), with p = (h_j - h_i - 1)^2 and
    Z = (1 - exp(-gamma * p)) / (gamma * p).  Pairs without an edge are
    outside this model's sample space and contribute nothing.
    """
    if not graph.is_weighted:
        raise ValueError("weighted_trophic_logdensity needs a weighted graph")
    h = np.asarray(params.h, dtype=float)
    if h.shape != (graph.n,):
        raise ValueError(f"h has length {h.size}, expected {graph.n}")
    idx = graph.edge_index
    w = np.array(graph.weights)
    penalty = (h[idx[:, 1]] - h[idx[:, 0]] - 1.0) ** 2
    x = params.gamma * penalty
    return float(np.sum(-params.gamma * w * penalty - _log_weight_normalizer(x)))


# ---------------------------------------------------------------------------
# generalized kernel model


def kernel_loglik(graph: DirectedGraph, model: KernelModel) -> float:
    """Bernoulli log-likelihood with edge probability 1/(1 + exp(gamma*I)).

    ``I`` is the model kernel evaluated on the attribute pair of each
    ordered node pair.  With scalar attributes and the kernel
    (y - x - 1)^2 this reproduces trophic_loglik exactly.
    """
    if graph.is_weighted:
        raise ValueError("the kernel model is defined for unweighted graphs")
    attrs = model.attributes
    if attrs.shape[0] != graph.n:
        raise ValueError(f"{attrs.shape[0]} attribute rows for {graph.n} nodes")
    n = graph.n
    penalty = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            value = float(model.kernel(attrs[i], attrs[j]))
            if value < 0.0:
                raise ValueError(f"kernel is negative ({value}) on pair ({i}, {j})")
            penalty[i, j] = value
    return _make_bernoulli_loglik(graph, penalty)(model.gamma)


# ---------------------------------------------------------------------------
# synthetic attribute generators


def gen_clustered_angles(clusters: int, cluster_size: int, noise: float, seed) -> np.ndarray:
    """Angles in ``clusters`` evenly spaced groups of ``cluster_size``.

    Node i in group l gets 2*pi*(l-1)/clusters plus uniform noise on
    (-noise, noise).  Angles are not wrapped, so the group ranges are
    exactly [center - noise, center + noise].
    """
    if clusters < 1 or cluster_size < 1:
        raise ValueError("clusters and cluster_size must be >= 1")
    if noise < 0:
        raise ValueError("noise half-width must be >= 0")
    rng = np.random.default_rng(seed)
    base = np.repeat(TWO_PI * np.arange(clusters) / clusters, cluster_size)
    return base + rng.uniform(-noise, noise, clusters * cluster_size)


def gen_trophic_levels(clusters: int, cluster_size: int, noise: float, seed) -> np.ndarray:
    """Levels 1..clusters in groups of ``cluster_size`` plus uniform noise."""
    if clusters < 1 or cluster_size < 1:
        raise ValueError("clusters and cluster_size must be >= 1")
    if noise < 0:
        raise ValueError("noise half-width must be >= 0")
    rng = np.random.default_rng(seed)
    base = np.repeat(np.arange(1, clusters + 1, dtype=float), cluster_size)
    return base + rng.uniform(-noise, noise, clusters * cluster_size)
