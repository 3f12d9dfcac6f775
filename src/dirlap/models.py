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

import math
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
# A probe sums a stack of rows, a function and its gamma-derivatives, on
# the one M that resolves every row.

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


def _pair_sum(spectrum: _AngleSpectrum, rows: Callable[[np.ndarray], np.ndarray],
              gamma: float) -> np.ndarray:
    """sum_{i<j} f(theta_i - theta_j) for each row f of ``rows(beta)``, an
    (R, len(beta)) stack of even, smooth 2*pi-periodic functions.

    Raises NumericalError when a row is too sharp to resolve with _MAX_GRID
    points (very large gamma), rather than returning a truncated sum.
    """
    grid = _MIN_GRID
    while True:
        values = rows(TWO_PI / grid * np.arange(grid))
        coef = np.fft.rfft(values, axis=1).real / grid
        tail = np.abs(coef[:, grid // 4:]).max(axis=1)
        if (tail <= _TAIL_TOL * np.abs(values).max(axis=1)).all():
            break
        grid *= 2
        if grid > _MAX_GRID:
            raise NumericalError(
                f"pair-model sums at gamma={gamma:g} need more than "
                f"{_MAX_GRID // 4} Fourier modes; use a smaller decay rate")
    modes = grid // 4
    power = spectrum.power(modes)
    totals = np.array([c[0] * power[0] + 2.0 * np.dot(c[1:modes], power[1:])
                       for c in coef])
    return 0.5 * (totals - spectrum.n * values[:, 0])


def _outcome_excess(beta: np.ndarray, g: float):
    """b - b_none for the reciprocal, forward and backward outcomes; every
    value is <= 0, since 'none' has the top exponent."""
    return (2.0 * np.cos(beta) - 2.0,
            np.cos(beta + TWO_PI * g) - 1.0,
            np.cos(beta - TWO_PI * g) - 1.0)


def _pair_rows(gamma: float, g: float, expected: bool, derivatives: bool):
    """Row stack of one pair's term as a function of beta.

    The term is log Z - gamma*b_none = log1p(sum of w), with w =
    exp(gamma * (b - b_none)) in [0, 1] for the reciprocal, forward and
    backward outcomes, or the expected edge count E[c] = 2f + q + l when
    ``expected``.  With ``derivatives`` the stack adds their
    gamma-derivatives: E[a] and Var[a] for log Z, Cov[c, a] for the count,
    where a = b - b_none and c are the outcome's exponent excess and edge
    count (both 0 for 'none').
    """
    def rows(beta):
        excess = _outcome_excess(beta, g)
        both, fwd, bwd = weights = [np.exp(gamma * a) for a in excess]
        if expected:
            term = (2.0 * both + fwd + bwd) / (1.0 + both + fwd + bwd)
        else:
            term = np.log1p(both + fwd + bwd)
        if not derivatives:
            return term[None]
        norm = 1.0 + both + fwd + bwd
        moments = [a * w / norm for a, w in zip(excess, weights)]     # a * P
        mean = sum(moments)
        if expected:
            return np.stack([term, 2.0 * moments[0] + moments[1] + moments[2]
                             - term * mean])
        square = sum(m * a for m, a in zip(moments, excess))
        return np.stack([term, mean, square - mean * mean])

    return rows


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


class _PairSumModel:
    """A random-graph model whose log-likelihood is gamma * slope less a
    pair sum S(gamma), with ``slope`` an O(m) edge term taken once (None
    without a graph), and whose expected edge count is a pair sum N(gamma).
    Subclasses give ``_sums(gamma, expected, derivatives)``: S, or N when
    ``expected``, followed by its gamma-derivatives when ``derivatives``.

    ``loglik(gamma, derivatives=True)`` returns (l, l', l'') and
    ``expected_edges(gamma, derivatives=True)`` (N, N'), each from one pass
    of the pair sums; without ``derivatives`` they return the value alone.
    """

    slope: float | None

    def loglik(self, gamma: float, derivatives: bool = False):
        gamma = _check_gamma(gamma)
        sums = self._sums(gamma, False, derivatives)
        value = float(gamma * self.slope - sums[0])
        if not derivatives:
            return value
        return value, float(self.slope - sums[1]), float(-sums[2])

    def expected_edges(self, gamma: float, derivatives: bool = False):
        sums = self._sums(_check_gamma(gamma), True, derivatives)
        return float(sums[0]) if not derivatives else (float(sums[0]), float(sums[1]))


class _PairModel(_PairSumModel):
    """The pair model of one angle vector at one rotation: its
    log-likelihood (given a graph) and its expected edge count, both
    summed on one _AngleSpectrum.

    Each pair contributes gamma*b_observed - log Z, and log Z equals
    gamma*b_none + log(1 + sum of the weights w of _pair_rows).  The gamma*b_none
    parts cancel against the observed term except on pairs with an edge,
    so the likelihood is gamma * _observed_excess - sum over pairs of
    log1p(...), the latter a Fourier pair sum; the expected count is the
    Fourier pair sum of 2f + q + l.  Setup is O(n*K + m) and a probe
    O(M log M).
    """

    def __init__(self, theta, g: float, graph: DirectedGraph | None = None):
        theta = np.asarray(theta, dtype=float)
        if graph is not None:
            if graph.is_weighted:
                raise ValueError("the pair model is defined for unweighted graphs")
            if theta.shape != (graph.n,):
                raise ValueError(f"theta has length {theta.size}, expected {graph.n}")
        self.g = _check_rotation(g)
        self.spectrum = _AngleSpectrum(theta)
        self.slope = None if graph is None else _observed_excess(graph, theta, self.g)

    def _sums(self, gamma: float, expected: bool, derivatives: bool) -> np.ndarray:
        return _pair_sum(self.spectrum, _pair_rows(gamma, self.g, expected, derivatives),
                         gamma)


def make_prdrg_loglik(graph: DirectedGraph, theta, g: float) -> Callable[..., float]:
    """Precompute the angle terms and return gamma -> log-likelihood.

    The probe takes ``derivatives=True`` for (l, l', l'') in gamma; see
    _PairModel for the method and its costs.
    """
    return _PairModel(theta, g, graph).loglik


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


def make_prdrg_expected_edges(theta, g: float) -> Callable[..., float]:
    """Precompute the angle terms and return gamma -> expected edge count.

    The probe takes ``derivatives=True`` for (N, N') in gamma; see
    _PairModel.
    """
    return _PairModel(theta, g).expected_edges


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


def _edge_rows(q: np.ndarray, gamma: float, out: np.ndarray) -> np.ndarray:
    """P(edge) = 1 / (1 + exp(gamma * q)) for squared gaps q, in out[0], and
    with a second row its gamma-derivative -q * P * (1 - P) in out[1]."""
    prob = _edge_prob(np.multiply(gamma, q, out=out[0]))
    if len(out) > 1:
        slope = np.subtract(1.0, prob, out=out[1])
        slope *= prob
        slope *= q
        np.negative(slope, out=slope)
    return out


def _absent_rows(q: np.ndarray, gamma: float, out: np.ndarray) -> np.ndarray:
    """-log P(no edge) = log1p(exp(-gamma * q)) for squared gaps q, in
    out[0], and with three rows its gamma-derivatives -q * P and
    q^2 * P * (1 - P) in out[1] and out[2], P = P(edge)."""
    if len(out) > 1:
        _edge_rows(q, gamma, out[1:])       # P, -q * P * (1 - P)
        np.multiply(out[2], q, out=out[2])
        np.negative(out[2], out=out[2])
        np.multiply(out[1], q, out=out[1])
        np.negative(out[1], out=out[1])
    _absent_neglogprob(np.multiply(gamma, q, out=out[0]))
    return out


def _level_penalty(h: np.ndarray) -> np.ndarray:
    """The n x n penalties (h_j - h_i - 1)^2, built in one array."""
    penalty = np.subtract.outer(h, h)       # h_i - h_j, the negated gap
    np.add(penalty, 1.0, out=penalty)
    return np.square(penalty, out=penalty)


# Level-model pair sums by Chebyshev interpolation.  Let psi(d) be f at the
# squared gap q = (d - 1)^2, and R = max h - min h.  With t_p the P Chebyshev
# points of [min h, max h] and w_p = sum_i L_p(h_i) the summed barycentric
# Lagrange weights of the levels on them,
#     sum_{i,j} psi(h_j - h_i) = sum_{p,r} w_p w_r psi(t_r - t_p),
# exactly when psi is a polynomial of degree < P on [-R, R].  P doubles from
# _MIN_NODES until the Chebyshev coefficients on [-R, R] above 3P/4 of every
# row psi of the probe's stack (a function and its gamma-derivatives) are
# at the rounding level of its samples.  Once P reaches n the nodes are
# the levels themselves with unit weights, and the sum is the exact one.

_MIN_NODES = 32
_BLOCK = 1 << 15         # entries of each block buffer a sum works in
_MAX_ROWS = 3            # rows of the largest stack: a function, two derivatives


def _chebyshev_points(lo: float, hi: float, count: int) -> np.ndarray:
    """``count`` >= 2 Chebyshev points of the second kind, ascending from
    lo to hi, both ends included exactly."""
    points = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(
        np.pi * np.arange(count) / (count - 1))
    points[0], points[-1] = lo, hi
    return points


def _resolves(f: Callable, rows: int, gamma: float, span: float,
              nodes: int) -> bool:
    """Whether every row of psi(d), f at q = (d - 1)^2, on [-span, span]
    has its Chebyshev coefficients above 3/4 of ``nodes`` at the rounding
    level.

    The coefficients come from the FFT of the samples at ``nodes`` points,
    mirrored (a DCT-I), whose rounding floor stays below _TAIL_TOL.
    """
    d = _chebyshev_points(-span, span, nodes)
    values = f(np.square(d - 1.0), gamma, np.empty((rows, nodes)))
    coef = np.fft.rfft(np.concatenate([values, values[:, -2:0:-1]], axis=1),
                       axis=1).real
    tail = np.abs(coef[:, 3 * nodes // 4:]).max(axis=1) / (nodes - 1)
    return bool((tail <= _TAIL_TOL * np.abs(values).max(axis=1)).all())


class _LevelPairSums:
    """Sums over ordered pairs i != j of f at q = (h_j - h_i - 1)^2 for one
    level vector h, the level model's counterpart of _AngleSpectrum and
    _pair_sum.

    ``f(q, gamma, out)`` writes a stack of rows, as many as ``out`` has,
    for the squared gaps q into ``out`` (see _edge_rows and _absent_rows).
    The Lagrange weights of each P are built once, in O(n*P) time, and
    kept.  Every sum works in block buffers of _BLOCK entries allocated
    once, so a probe allocates O(P) and no n x n array: call from one
    thread at a time.
    """

    def __init__(self, h: np.ndarray):
        self.h = h
        self.n = len(h)
        self.lo, self.hi = (float(h.min()), float(h.max())) if self.n else (0.0, 0.0)
        self._grids: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._buffer = np.empty((1 + _MAX_ROWS, _BLOCK))

    def _blocks(self, count: int, width: int, rows: int = 0):
        """(start, block, out) for consecutive blocks of a count x width
        array: ``block`` is the first buffer viewed as the block, and
        ``out`` the next ``rows`` buffers viewed alike, stacked."""
        height = max(1, _BLOCK // max(width, 1))
        for start in range(0, count, height):
            size = (min(start + height, count) - start) * width
            views = self._buffer[:1 + rows, :size].reshape(1 + rows, -1, width)
            yield start, views[0], views[1:]

    def node_count(self, f: Callable, gamma: float, rows: int = 1) -> int:
        """P for this probe: n for the exact sum, 1 when every level is equal."""
        if self.hi == self.lo:
            return min(self.n, 1)
        nodes = _MIN_NODES
        while nodes < self.n and not _resolves(f, rows, gamma, self.hi - self.lo,
                                               nodes):
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
        for start, block, _ in self._blocks(self.n, nodes):
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

    def sum(self, f: Callable, gamma: float, rows: int = 1) -> np.ndarray:
        """The pair sum of each of the ``rows`` rows of f, from one P."""
        points, weights = self._grid(self.node_count(f, gamma, rows))
        totals = [0.0] * rows
        for start, gaps, out in self._blocks(len(points), len(points), rows):
            np.subtract.outer(points[start:start + len(gaps)], points, out=gaps)
            np.add(gaps, 1.0, out=gaps)         # t_p - t_q + 1 = -(t_q - t_p - 1)
            np.square(gaps, out=gaps)
            f(gaps, gamma, out)
            part = weights[start:start + len(gaps)]
            for r in range(rows):
                totals[r] += float(part @ (out[r] @ weights))
        diagonal = f(np.ones(1), gamma, np.empty((rows, 1)))[:, 0]
        return np.array(totals) - self.n * diagonal


def trophic_edge_prob(h_i, h_j, gamma: float):
    """P(edge i -> j) = 1 / (1 + exp(gamma * (h_j - h_i - 1)^2)).

    Equals 1/2 exactly when the edge climbs one level, and
    1/(1 + exp(gamma)) within a level.
    """
    x = _check_gamma(gamma) * (np.asarray(h_j, dtype=float)
                               - np.asarray(h_i, dtype=float) - 1.0) ** 2
    out = _edge_prob(np.array(x, dtype=float))
    return float(out) if np.isscalar(h_i) and np.isscalar(h_j) else out


class _LevelModel(_PairSumModel):
    """The Bernoulli level model of one level vector: its log-likelihood
    (given a graph) and its expected edge count, both summed on one
    _LevelPairSums.

    As log P(edge) = log P(no edge) - x with x = gamma * (h_j - h_i - 1)^2,
    the log-likelihood is -gamma times the edges' squared gaps, an O(m) sum
    taken once, less the pair sum of -log P(no edge) = log1p(exp(-x)) over
    all ordered pairs; the expected count is the pair sum of P(edge).
    Setup is O(n + m); a probe costs O(P^2) with P <= n nodes, and O(n * P)
    more the first time it needs a new P.  Call from one thread at a time.
    """

    def __init__(self, h, graph: DirectedGraph | None = None):
        h = np.asarray(h, dtype=float)
        self.slope = None
        if graph is not None:
            if graph.is_weighted:
                raise ValueError("the Bernoulli level model is defined for "
                                 "unweighted graphs; see weighted_trophic_logdensity")
            if h.shape != (graph.n,):
                raise ValueError(f"h has length {h.size}, expected {graph.n}")
            src, dst = graph.edge_index.T
            # minus the edges' squared gaps
            self.slope = -float(np.square(h[src] - h[dst] + 1.0).sum())
        self.pairs = _LevelPairSums(h)

    def _sums(self, gamma: float, expected: bool, derivatives: bool) -> np.ndarray:
        if expected:
            return self.pairs.sum(_edge_rows, gamma, 2 if derivatives else 1)
        return self.pairs.sum(_absent_rows, gamma, 3 if derivatives else 1)


def make_trophic_loglik(graph: DirectedGraph, h) -> Callable[..., float]:
    """Precompute the level terms and return gamma -> log-likelihood.

    The probe takes ``derivatives=True`` for (l, l', l'') in gamma; see
    _LevelModel for the method and its costs.
    """
    return _LevelModel(h, graph).loglik


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


def make_trophic_expected_edges(h) -> Callable[..., float]:
    """Precompute the level terms and return gamma -> expected edge count.

    The probe takes ``derivatives=True`` for (N, N') in gamma; see
    _LevelModel.
    """
    return _LevelModel(h).expected_edges


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


# Taylor coefficients at 0 of the first two derivatives of
# L(x) = log((1 - exp(-x)) / x), from the Bernoulli numbers B_2k:
# L'(x) = -1/2 + sum_k B_2k x^(2k-1) / (2k)!, and L'' its derivative.
# Below _SERIES_X they replace the closed forms, which cancel there; the
# first term left out is below 1e-19.
_SERIES_X = 1.0
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
              -236364091 / 2730)
# highest power first, for np.polyval in x^2
_SLOPE_SERIES = [b / math.factorial(2 * k) for k, b in enumerate(_BERNOULLI, 1)][::-1]
_CURVATURE_SERIES = [(2 * k - 1) * b / math.factorial(2 * k)
                     for k, b in enumerate(_BERNOULLI, 1)][::-1]


def _log_weight_normalizer_derivatives(x: np.ndarray):
    """L'(x) and L''(x) of L = _log_weight_normalizer for x >= 0.

    L'(x) = 1/(exp(x) - 1) - 1/x lies in [-1/2, 0) and L''(x) = 1/x^2 -
    exp(x)/(exp(x) - 1)^2 in (0, 1/12]; near 0 both come from their series.
    """
    x = np.asarray(x, dtype=float)
    slope, curvature = np.empty_like(x), np.empty_like(x)
    small = x < _SERIES_X
    s = x[small] ** 2
    slope[small] = -0.5 + x[small] * np.polyval(_SLOPE_SERIES, s)
    curvature[small] = np.polyval(_CURVATURE_SERIES, s)
    big = x[~small]
    decay = np.exp(-big)
    slope[~small] = decay / -np.expm1(-big) - 1.0 / big
    curvature[~small] = 1.0 / big ** 2 - decay / np.expm1(-big) ** 2
    return slope, curvature


def make_weighted_trophic_logdensity(graph: DirectedGraph, h) -> Callable[..., float]:
    """Precompute the level terms and return gamma -> log-density of the
    observed edge weights (see weighted_trophic_logdensity).

    The probe takes ``derivatives=True`` for (l, l', l'') in gamma.  With
    p the edge's penalty and x = gamma * p, an edge adds -w * p - p * L'(x)
    and -p^2 * L''(x) to them, L = _log_weight_normalizer; an edge with
    p = 0 adds nothing.  O(m) per probe.
    """
    if not graph.is_weighted:
        raise ValueError("weighted_trophic_logdensity needs a weighted graph")
    h = np.asarray(h, dtype=float)
    if h.shape != (graph.n,):
        raise ValueError(f"h has length {h.size}, expected {graph.n}")
    idx = graph.edge_index
    w = graph.edge_weights
    penalty = (h[idx[:, 1]] - h[idx[:, 0]] - 1.0) ** 2

    def logdensity(gamma: float, derivatives: bool = False):
        gamma = _check_gamma(gamma)
        x = gamma * penalty
        value = float(np.sum(-gamma * w * penalty - _log_weight_normalizer(x)))
        if not derivatives:
            return value
        slope, curvature = _log_weight_normalizer_derivatives(x)
        return (value, float(np.sum(-w * penalty - penalty * slope)),
                float(-np.sum(np.square(penalty) * curvature)))

    return logdensity


def weighted_trophic_logdensity(graph: DirectedGraph, params: TrophicParams) -> float:
    """Log-density of the observed edge weights under the level model.

    Each realized weight w on edge i -> j has density
    exp(-gamma * w * p) / Z on (0, 1), with p = (h_j - h_i - 1)^2 and
    Z = (1 - exp(-gamma * p)) / (gamma * p).  Pairs without an edge are
    outside this model's sample space and contribute nothing.
    """
    return make_weighted_trophic_logdensity(graph, params.h)(params.gamma)


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
