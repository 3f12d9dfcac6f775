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
    if graph.edge_count == 0:
        return 0.0
    src, dst = graph.edge_index.T
    beta = theta[src] - theta[dst]
    return float(np.sum(np.cos(beta + np.where(graph.reciprocated, 0.0, TWO_PI * g))
                        - 1.0))


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
    both, fwd, bwd = outcome == 0, outcome == 1, outcome == 2
    src = np.concatenate([iu[both], ju[both], iu[fwd], ju[bwd]])
    dst = np.concatenate([ju[both], iu[both], ju[fwd], iu[bwd]])
    return DirectedGraph(n, np.column_stack((src, dst)))


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


def _edge_prob(x: np.ndarray) -> np.ndarray:
    """P(edge) = 1 / (1 + exp(x)) for x >= 0, written over the float array x."""
    with np.errstate(over="ignore"):    # exp(x) = inf gives probability 0
        np.exp(x, out=x)
    return np.reciprocal(np.add(x, 1.0, out=x), out=x)


def _absent_neglogprob(x: np.ndarray) -> np.ndarray:
    """-log P(no edge) = log1p(exp(-x)) for x >= 0, written over x."""
    return np.log1p(np.exp(np.negative(x, out=x), out=x), out=x)


def _level_penalty(h: np.ndarray) -> np.ndarray:
    """The n x n penalties (h_j - h_i - 1)^2, built in one array."""
    penalty = np.subtract.outer(h, h)       # h_i - h_j, the negated gap
    np.add(penalty, 1.0, out=penalty)
    return np.square(penalty, out=penalty)


# Level-model pair sums by Chebyshev interpolation.  Let psi(d) =
# f(gamma * (d - 1)^2) and R = max h - min h.  With t_p the P Chebyshev
# points of [min h, max h] and w_p = sum_i L_p(h_i) the summed barycentric
# Lagrange weights of the levels on them,
#     sum_{i,j} psi(h_j - h_i) = sum_{p,q} w_p w_q psi(t_q - t_p),
# exactly when psi is a polynomial of degree < P on [-R, R].  P doubles from
# _MIN_NODES until the Chebyshev coefficients of psi on [-R, R] above 3P/4
# are at the rounding level of its samples.  Once P reaches n the nodes are
# the levels themselves with unit weights, and the sum is the exact one.

_MIN_NODES = 32
_BLOCK = 1 << 15         # entries of the block buffer every sum works in


def _chebyshev_points(lo: float, hi: float, count: int) -> np.ndarray:
    """``count`` >= 2 Chebyshev points of the second kind, ascending from
    lo to hi, both ends included exactly."""
    points = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(
        np.pi * np.arange(count) / (count - 1))
    points[0], points[-1] = lo, hi
    return points


def _resolves(f: Callable[[np.ndarray], np.ndarray], gamma: float,
              span: float, nodes: int) -> bool:
    """Whether psi(d) = f(gamma * (d - 1)^2) on [-span, span] has its
    Chebyshev coefficients above 3/4 of ``nodes`` at the rounding level.

    The coefficients come from the FFT of the samples at ``nodes`` points,
    mirrored (a DCT-I), whose rounding floor stays below _TAIL_TOL.
    """
    d = _chebyshev_points(-span, span, nodes)
    values = f(gamma * np.square(d - 1.0))
    coef = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real
    tail = np.abs(coef[3 * nodes // 4:]).max() / (nodes - 1)
    return tail <= _TAIL_TOL * np.abs(values).max()


class _LevelPairSums:
    """Sums over ordered pairs i != j of f(gamma * (h_j - h_i - 1)^2) for
    one level vector h, the level model's counterpart of _AngleSpectrum and
    _pair_sum.

    The Lagrange weights of each P are built once, in O(n*P) time, and
    kept.  Every sum works in one buffer of _BLOCK entries that ``f``
    writes over, so a probe allocates O(P) and no n x n array: call from
    one thread at a time.
    """

    def __init__(self, h: np.ndarray):
        self.h = h
        self.n = len(h)
        self.lo, self.hi = (float(h.min()), float(h.max())) if self.n else (0.0, 0.0)
        self._grids: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._block = np.empty(_BLOCK)

    def _blocks(self, count: int, width: int):
        """(start, block) pairs: the buffer viewed as (rows, width) blocks
        that together cover ``count`` rows."""
        rows = max(1, _BLOCK // max(width, 1))
        for start in range(0, count, rows):
            stop = min(start + rows, count)
            yield start, self._block[:(stop - start) * width].reshape(-1, width)

    def node_count(self, f: Callable[[np.ndarray], np.ndarray], gamma: float) -> int:
        """P for this probe: n for the exact sum, 1 when every level is equal."""
        if self.hi == self.lo:
            return min(self.n, 1)
        nodes = _MIN_NODES
        while nodes < self.n and not _resolves(f, gamma, self.hi - self.lo, nodes):
            nodes *= 2
        return min(nodes, self.n)

    def _grid(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes t and weights w of the sum with ``nodes`` points, kept."""
        if nodes not in self._grids:
            self._grids[nodes] = self._build_grid(nodes)
        return self._grids[nodes]

    def _build_grid(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        if nodes == self.n:
            return self.h, np.ones(self.n)
        if nodes == 1:
            return np.array([self.lo]), np.array([float(self.n)])
        points = _chebyshev_points(self.lo, self.hi, nodes)
        lam = np.resize([1.0, -1.0], nodes)     # barycentric weights
        lam[[0, -1]] *= 0.5
        weights = np.zeros(nodes)
        for start, block in self._blocks(self.n, nodes):
            np.subtract.outer(self.h[start:start + len(block)], points, out=block)
            with np.errstate(divide="ignore"):
                np.divide(lam, block, out=block)
            # a level on a node: its Lagrange row is that node's unit vector
            hit = np.isinf(block)
            on_node = hit.any(axis=1)
            block[on_node] = hit[on_node]
            block /= block.sum(axis=1, keepdims=True)
            weights += block.sum(axis=0)
        return points, weights

    def sum(self, f: Callable[[np.ndarray], np.ndarray], gamma: float) -> float:
        points, weights = self._grid(self.node_count(f, gamma))
        total = 0.0
        for start, block in self._blocks(len(points), len(points)):
            np.subtract.outer(points[start:start + len(block)], points, out=block)
            np.add(block, 1.0, out=block)       # t_p - t_q + 1 = -(t_q - t_p - 1)
            np.square(block, out=block)
            f(np.multiply(gamma, block, out=block))
            total += float(weights[start:start + len(block)] @ (block @ weights))
        return total - self.n * float(f(np.array([gamma]))[0])


def trophic_edge_prob(h_i, h_j, gamma: float):
    """P(edge i -> j) = 1 / (1 + exp(gamma * (h_j - h_i - 1)^2)).

    Equals 1/2 exactly when the edge climbs one level, and
    1/(1 + exp(gamma)) within a level.
    """
    x = _check_gamma(gamma) * (np.asarray(h_j, dtype=float)
                               - np.asarray(h_i, dtype=float) - 1.0) ** 2
    out = _edge_prob(np.array(x, dtype=float))
    return float(out) if np.isscalar(h_i) and np.isscalar(h_j) else out


def make_trophic_loglik(graph: DirectedGraph, h) -> Callable[[float], float]:
    """Precompute the level terms and return gamma -> log-likelihood.

    As log P(edge) = log P(no edge) - x with x = gamma * (h_j - h_i - 1)^2,
    the log-likelihood is -gamma times the edges' squared gaps, an O(m) sum
    taken once, less the pair sum of -log P(no edge) = log1p(exp(-x)) over
    all ordered pairs, a Chebyshev pair sum (_LevelPairSums).  Setup is
    O(n + m); a probe costs O(P^2) with P <= n nodes, and O(n * P) more the
    first time it needs a new P.  Call from one thread at a time.
    """
    if graph.is_weighted:
        raise ValueError("the Bernoulli level model is defined for "
                         "unweighted graphs; see weighted_trophic_logdensity")
    h = np.asarray(h, dtype=float)
    if h.shape != (graph.n,):
        raise ValueError(f"h has length {h.size}, expected {graph.n}")
    pairs = _LevelPairSums(h)
    src, dst = graph.edge_index.T
    edge_penalty = float(np.square(h[src] - h[dst] + 1.0).sum())

    def loglik(gamma: float) -> float:
        gamma = _check_gamma(gamma)
        return -gamma * edge_penalty - pairs.sum(_absent_neglogprob, gamma)

    return loglik


def trophic_loglik(graph: DirectedGraph, params: TrophicParams) -> float:
    """Bernoulli log-likelihood over all ordered pairs i != j."""
    return make_trophic_loglik(graph, params.h)(params.gamma)


def trophic_sample(params: TrophicParams, seed) -> DirectedGraph:
    """Draw a graph with one independent Bernoulli edge per ordered pair."""
    h = params.h
    n = len(h)
    prob = _edge_prob(params.gamma * _level_penalty(h))
    u = np.random.default_rng(seed).random((n, n))
    adj = (u < prob) & ~np.eye(n, dtype=bool)
    return DirectedGraph(n, np.argwhere(adj))


def make_trophic_expected_edges(h) -> Callable[[float], float]:
    """Precompute the level terms and return gamma -> expected edge count.

    The count is the Chebyshev pair sum (_LevelPairSums) of the edge
    probability over all ordered pairs i != j, at the costs given in
    make_trophic_loglik.  Call from one thread at a time.
    """
    pairs = _LevelPairSums(np.asarray(h, dtype=float))
    return lambda gamma: pairs.sum(_edge_prob, _check_gamma(gamma))


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
    w = graph.edge_weights
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
    edge_penalty = float(penalty[graph.edge_index[:, 0], graph.edge_index[:, 1]].sum())
    absent = _absent_neglogprob(model.gamma * penalty)
    return -model.gamma * edge_penalty - float(absent.sum() - absent.trace())


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
