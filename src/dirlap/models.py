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
from .spectral import (TWO_PI, NumericalError, _check_rotation, _squared_level_gaps,
                       frustration)


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


def prdrg_pair_probs(theta_i: float, theta_j: float, gamma: float,
                     g: float) -> tuple[float, float, float, float]:
    """Probabilities (reciprocal, forward, backward, none) for one pair.

    With beta = theta_i - theta_j the unnormalized masses are 1,
    exp(gamma*(1 - 2cos(beta) + cos(beta + 2*pi*g))),
    exp(gamma*(1 - 2cos(beta) + cos(beta - 2*pi*g))) and
    exp(gamma*(2 - 2cos(beta))); the four outputs sum to one.
    """
    probs = _outcome_probs(float(theta_i) - float(theta_j), _check_gamma(gamma),
                           _check_rotation(g))
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
_REANCHOR = 64           # the S_k recurrence restarts every this many modes


class _AngleSpectrum:
    """Sums S_k = sum_i exp(1j*k*theta_i), extended on demand: the pair
    model's Fourier sums, and the level model's Chebyshev moments.

    Works in O(n) memory: S_k comes from the recurrence
    exp(1j*(k+1)*theta) = exp(1j*k*theta) * exp(1j*theta), restarted from a
    direct evaluation every _REANCHOR modes so rounding does not build up.
    Modes are added in whole runs of _REANCHOR, so a mode's value does not
    depend on how many modes were requested before.
    """

    def __init__(self, theta: np.ndarray):
        self.theta = theta
        self.n = len(theta)
        self._sums = np.empty(0, dtype=complex)

    def sums(self, modes: int) -> np.ndarray:
        """S_0 .. S_{modes - 1}."""
        have = len(self._sums)
        if modes > have:
            step = np.exp(1j * self.theta)
            runs = math.ceil((modes - have) / _REANCHOR)
            extra = np.empty(runs * _REANCHOR, dtype=complex)
            for k in range(have, have + len(extra)):
                if k % _REANCHOR == 0:
                    wave = np.exp(1j * k * self.theta)
                else:
                    wave *= step
                extra[k - have] = wave.sum()
            self._sums = np.concatenate([self._sums, extra])
        return self._sums[:modes]

    def sum(self, rows: Callable[[np.ndarray], np.ndarray], gamma: float) -> np.ndarray:
        """sum_{i<j} f(theta_i - theta_j) for each row f of ``rows(beta)``, an
        (R, len(beta)) stack of even, smooth 2*pi-periodic functions.

        Raises NumericalError when a row is too sharp to resolve with
        _MAX_GRID points (very large gamma), rather than returning a
        truncated sum.
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
        s = self.sums(modes)
        power = s.real ** 2 + s.imag ** 2
        totals = np.array([c[0] * power[0] + 2.0 * np.dot(c[1:modes], power[1:])
                           for c in coef])
        return 0.5 * (totals - self.n * values[:, 0])


def _outcome_excess(beta: np.ndarray, g: float):
    """b - b_none for the reciprocal, forward and backward outcomes; every
    value is <= 0, since 'none' has the top exponent."""
    return (2.0 * np.cos(beta) - 2.0,
            np.cos(beta + TWO_PI * g) - 1.0,
            np.cos(beta - TWO_PI * g) - 1.0)


def _outcome_probs(beta, gamma: float, g: float) -> np.ndarray:
    """Probabilities of the reciprocal, forward, backward and no-edge
    outcomes, stacked on a new first axis: the weights w = exp(gamma *
    (b - b_none)) of _outcome_excess, and 1 for 'none', over 1 + sum of w."""
    weights = [np.exp(gamma * a) for a in _outcome_excess(beta, g)]
    norm = 1.0 + sum(weights)
    return np.stack(weights + [np.ones_like(norm)]) / norm


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


# A gamma-model is one attribute vector's model with a ``name``, the
# rotation ``g`` (None but for the pair model) and two probes:
# ``loglik(gamma, derivatives=False)``, the log-likelihood, or (l, l', l'')
# with ``derivatives``; and ``expected_edges(gamma, derivatives=False)``,
# the expected edge count, or (N, N'), or None for a model that has none.
# inference._model_fit fits and tabulates any of them.


class _PairSumModel:
    """A gamma-model whose log-likelihood is gamma * slope less a pair sum
    S(gamma), with ``slope`` an O(m) edge term taken once (None without a
    graph), and whose expected edge count is a pair sum N(gamma).
    Subclasses give ``_rows(gamma, expected, derivatives)``, the row stack
    of one pair's term of S, or of N when ``expected``, followed by its
    gamma-derivatives when ``derivatives``; and ``pairs``, whose
    ``sum(rows, gamma)`` sums each row of such a stack over the pairs.
    Each probe takes one pass of the pair sums.
    """

    name: str
    g: float | None = None
    slope: float | None

    def _sums(self, gamma: float, expected: bool, derivatives: bool) -> np.ndarray:
        return self.pairs.sum(self._rows(gamma, expected, derivatives), gamma)

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
    so the likelihood is gamma * slope - sum over pairs of log1p(...), the
    latter a Fourier pair sum; the expected count is the Fourier pair sum
    of 2f + q + l.  The slope, the sum of b_observed - b_none, is minus
    half the frustration of theta on the graph's symmetrized view: an
    unreciprocated edge gives cos(beta + 2*pi*g) - 1 and a reciprocated
    pair 2*cos(beta) - 2, with beta the angle difference along the edge.
    Setup is O(n*K + m) and a probe O(M log M).
    """

    name = "directed-pRDRG"

    def __init__(self, theta, g: float, graph: DirectedGraph | None = None):
        theta = np.asarray(theta, dtype=float)
        if graph is not None and graph.is_weighted:
            raise ValueError("the pair model is defined for unweighted graphs")
        self.g = _check_rotation(g)
        # frustration checks theta's length; 0.0 - keeps an edgeless
        # graph's slope 0.0, not -0.0
        self.slope = (None if graph is None
                      else 0.0 - frustration(graph._symmetrized, theta, self.g) / 2)
        self.pairs = _AngleSpectrum(theta)

    def _rows(self, gamma: float, expected: bool, derivatives: bool):
        return _pair_rows(gamma, self.g, expected, derivatives)


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

    Deterministic for a given seed; the pairs i < j are consumed in a fixed
    row-major order, one block of rows at a time (_blocked_sample), each
    through _outcome_probs, so no array spans all pairs.
    """
    theta = params.theta
    nodes = np.arange(len(theta))

    def block_edges(rows: slice, rng: np.random.Generator) -> np.ndarray:
        i, j = np.nonzero(nodes[rows, None] < nodes)
        i += rows.start
        probs = _outcome_probs(theta[i] - theta[j], params.gamma, params.g)
        outcome = (rng.random(len(i)) >= np.cumsum(probs[:3], axis=0)).sum(axis=0)
        # outcomes 0-3 are reciprocal, forward, backward and none
        fwd, bwd = outcome <= 1, outcome % 2 == 0       # i -> j, j -> i
        return np.column_stack((np.concatenate((i[fwd], j[bwd])),
                                np.concatenate((j[fwd], i[bwd]))))

    return _blocked_sample(len(theta), seed, block_edges)


def prdrg_expected_edges(theta, gamma: float, g: float) -> float:
    """Expected directed-edge count: sum over pairs of 2f + q + l."""
    return _PairModel(theta, g).expected_edges(gamma)


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


def _level_rows(gamma: float, expected: bool, derivatives: bool):
    """Row stack of one ordered pair's term as a function of its squared
    gap q = (h_j - h_i - 1)^2.

    The term is P(edge) = 1 / (1 + exp(gamma * q)) when ``expected``, else
    -log P(no edge) = log1p(exp(-gamma * q)).  With ``derivatives`` the
    stack adds their gamma-derivatives: -q * P * (1 - P) for P(edge), and
    -q * P and q^2 * P * (1 - P) for -log P(no edge).  ``rows(q)`` fills
    one new array in place.
    """
    def rows(q):
        out = np.empty((1 + derivatives * (1 if expected else 2),) + q.shape)
        if expected or derivatives:
            prob = _edge_prob(np.multiply(gamma, q, out=out[0 if expected else 1]))
        if derivatives:             # -q * P * (1 - P), in the last row
            slope = np.subtract(1.0, prob, out=out[-1])
            slope *= prob
            slope *= q
            np.negative(slope, out=slope)
        if not expected:
            for row in out[1:]:     # times -q: -q * P and q^2 * P * (1 - P)
                row *= q
                np.negative(row, out=row)
            _absent_neglogprob(np.multiply(gamma, q, out=out[0]))
        return out

    return rows


# Level-model pair sums by Chebyshev interpolation.  Let psi(d) be f at the
# squared gap q = (d - 1)^2, and R = max h - min h.  With t_p the P Chebyshev
# points of [min h, max h] and w_p = sum_i L_p(h_i) the summed Lagrange
# weights of the levels on them,
#     sum_{i,j} psi(h_j - h_i) = sum_{p,r} w_p w_r psi(t_r - t_p),
# exactly when psi is a polynomial of degree < P on [-R, R].  In the variable
# u = (mid - h) / half of [-1, 1], t_p sits at cos(pi*p/(P-1)), and the
# weights are the DCT-I of the Chebyshev moments M_k = sum_i T_k(u_i), the
# real parts of the sums S_k of _AngleSpectrum(arccos u).  P doubles from
# _MIN_NODES until the Chebyshev coefficients on [-R, R] above 3P/4 of every
# row psi of the probe's stack (a function and its gamma-derivatives) are
# at the rounding level of its samples.  Once P reaches n the nodes are
# the levels themselves with unit weights, and the sum is the exact one.

_MIN_NODES = 32
_BLOCK = 1 << 15         # entries of each block of an n x n array worked in


def _row_blocks(n: int):
    """Slices of consecutive rows of an n x n array, each block of rows
    holding at most _BLOCK entries (one row when a row holds more)."""
    height = max(1, _BLOCK // max(n, 1))
    return (slice(start, min(start + height, n)) for start in range(0, n, height))


def _blocked_sample(n: int, seed, block_edges: Callable) -> DirectedGraph:
    """The graph on n nodes with the edges ``block_edges(rows, rng)`` draws
    for each block of rows of _row_blocks, in order, from one random stream.

    Since ``random(a)`` then ``random(b)`` gives the numbers of one
    ``random(a + b)``, and a 2-D draw fills its rows in order, blocks that
    draw in row-major pair order reproduce one draw over all pairs.
    """
    rng = np.random.default_rng(seed)
    parts = [block_edges(rows, rng) for rows in _row_blocks(n)]
    edges = np.concatenate(parts) if parts else ()
    del parts           # before the graph sorts or copies the edges
    return DirectedGraph(n, edges)


def _squared_gaps(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(r - l - 1)^2 for each l of ``left`` (rows) and r of ``right``."""
    gaps = np.subtract.outer(left, right)
    gaps += 1.0                             # l - r + 1 = -(r - l - 1)
    return np.square(gaps, out=gaps)


def _chebyshev_points(lo: float, hi: float, count: int) -> np.ndarray:
    """``count`` >= 2 Chebyshev points of the second kind, ascending from
    lo to hi, both ends included exactly."""
    points = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(
        np.pi * np.arange(count) / (count - 1))
    points[0], points[-1] = lo, hi
    return points


def _resolves(rows: Callable, span: float, nodes: int) -> bool:
    """Whether every row of psi(d), ``rows`` at q = (d - 1)^2, on
    [-span, span] has its Chebyshev coefficients above 3/4 of ``nodes`` at
    the rounding level.

    The coefficients come from the FFT of the samples at ``nodes`` points,
    mirrored (a DCT-I), whose rounding floor stays below _TAIL_TOL.
    """
    values = rows(np.square(_chebyshev_points(-span, span, nodes) - 1.0))
    coef = np.fft.rfft(np.concatenate([values, values[:, -2:0:-1]], axis=1),
                       axis=1).real
    tail = np.abs(coef[:, 3 * nodes // 4:]).max(axis=1) / (nodes - 1)
    return bool((tail <= _TAIL_TOL * np.abs(values).max(axis=1)).all())


class _LevelPairSums:
    """Sums over ordered pairs i != j of f at q = (h_j - h_i - 1)^2 for one
    level vector h, the level model's counterpart of _AngleSpectrum.sum.

    ``rows(q)`` returns a stack of rows for the squared gaps q (see
    _level_rows).  The weights of each P are built once, from the first P
    Chebyshev moments of the levels, and kept.  A sum evaluates the P x P
    squared gaps in blocks of _BLOCK entries that it allocates, so a probe
    allocates O(P) and no n x n array.
    """

    def __init__(self, h: np.ndarray):
        self.h = h
        self.n = len(h)
        self.lo, self.hi = (float(h.min()), float(h.max())) if self.n else (0.0, 0.0)
        # arccos((mid - h) / half), as 2 * atan2 so that levels next to
        # either end keep their full relative precision
        self.moments = _AngleSpectrum(2.0 * np.arctan2(np.sqrt(h - self.lo),
                                                       np.sqrt(self.hi - h)))
        self._grids: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def node_count(self, rows: Callable) -> int:
        """P for this probe: n for the exact sum, 1 when every level is equal."""
        if self.hi == self.lo:
            return min(self.n, 1)
        nodes = _MIN_NODES
        while nodes < self.n and not _resolves(rows, self.hi - self.lo, nodes):
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
        moments = self.moments.sums(nodes).real
        weights = np.fft.rfft(np.concatenate([moments, moments[-2:0:-1]])).real
        weights /= nodes - 1
        weights[[0, -1]] *= 0.5
        return _chebyshev_points(self.lo, self.hi, nodes), weights

    def sum(self, rows: Callable, gamma: float) -> np.ndarray:
        """The pair sum of each row of ``rows``, from one P.  ``gamma`` goes
        unread: P tops out at the exact sum, so no rate is too large."""
        points, weights = self._grid(self.node_count(rows))
        totals = 0.0
        for block in _row_blocks(len(points)):
            totals += np.array([weights[block] @ (row @ weights)
                                for row in rows(_squared_gaps(points[block], points))])
        return totals - self.n * rows(np.ones(1))[:, 0]


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
    more the first time it needs a new P.
    """

    name = "trophic-RDRG"

    def __init__(self, h, graph: DirectedGraph | None = None):
        h = np.asarray(h, dtype=float)
        self.slope = None
        if graph is not None:
            if graph.is_weighted:
                raise ValueError("the Bernoulli level model is defined for "
                                 "unweighted graphs; see weighted_trophic_logdensity")
            self.slope = -float(_squared_level_gaps(graph, h).sum())
        self.pairs = _LevelPairSums(h)

    _rows = staticmethod(_level_rows)


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
    """Draw a graph with one independent Bernoulli edge per ordered pair.

    The pairs are consumed in row-major order, one block of rows at a time
    (_blocked_sample), each through the expected-count row of _level_rows,
    so no array spans all pairs.
    """
    h = params.h
    prob = _level_rows(params.gamma, expected=True, derivatives=False)

    def block_edges(rows: slice, rng: np.random.Generator) -> np.ndarray:
        gaps = _squared_gaps(h[rows], h)
        adj = rng.random(gaps.shape) < prob(gaps)[0]
        np.fill_diagonal(adj[:, rows], False)         # no self-loops
        return np.argwhere(adj) + (rows.start, 0)

    return _blocked_sample(len(h), seed, block_edges)


def trophic_expected_edges(h, gamma: float) -> float:
    """Expected directed-edge count: sum of edge probabilities over i != j."""
    return _LevelModel(h).expected_edges(gamma)


# Taylor coefficients at 0 of L(x) = log((1 - exp(-x)) / x) and of its
# first two derivatives, from the Bernoulli numbers B_2k:
# L(x) = -x/2 + sum_k B_2k x^(2k) / (2k (2k)!), L'(x) = -1/2 + sum_k
# B_2k x^(2k-1) / (2k)!, and L'' the derivative of L'.  Below _SERIES_X
# they replace the closed forms, which cancel there; the first term left
# out is below 1e-19.
_SERIES_X = 1.0
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
              -236364091 / 2730)
# highest power first, for np.polyval in x^2
_VALUE_SERIES = [b / (2 * k * math.factorial(2 * k))
                 for k, b in enumerate(_BERNOULLI, 1)][::-1]
_SLOPE_SERIES = [b / math.factorial(2 * k) for k, b in enumerate(_BERNOULLI, 1)][::-1]
_CURVATURE_SERIES = [(2 * k - 1) * b / math.factorial(2 * k)
                     for k, b in enumerate(_BERNOULLI, 1)][::-1]


def _log_weight_normalizer(x: np.ndarray, derivatives: bool = False):
    """L(x) = log of (1 - exp(-x)) / x for x >= 0, with the x -> 0 limit of
    0, or (L, L', L'') when ``derivatives`` is true.

    L'(x) = 1/(exp(x) - 1) - 1/x lies in [-1/2, 0) and L''(x) = 1/x^2 -
    exp(x)/(exp(x) - 1)^2 in (0, 1/12].  Below _SERIES_X all three come
    from their series, which keep full relative precision as x -> 0; the
    closed forms, such as log(-expm1(-x)) - log(x), cancel there.
    """
    x = np.asarray(x, dtype=float)
    small = x < _SERIES_X
    near, s, big = x[small], x[small] ** 2, x[~small]
    decay_m1 = np.expm1(-big)

    def split(series, closed):
        out = np.empty_like(x)
        out[small], out[~small] = series, closed
        return out

    value = split(-0.5 * near + s * np.polyval(_VALUE_SERIES, s),
                  np.log(-decay_m1) - np.log(big))
    if not derivatives:
        return value
    decay = np.exp(-big)
    return (value,
            split(-0.5 + near * np.polyval(_SLOPE_SERIES, s),
                  decay / -decay_m1 - 1.0 / big),
            split(np.polyval(_CURVATURE_SERIES, s),
                  1.0 / big ** 2 - decay / decay_m1 ** 2))


class _WeightedLevelModel:
    """The gamma-model of the observed edge weights of a weighted graph
    under one level vector (see weighted_trophic_logdensity).

    With p the edge's squared gap and x = gamma * p, an edge adds
    -gamma * w * p - L(x) to l, and -w * p - p * L'(x) and -p^2 * L''(x) to
    l' and l'', L = _log_weight_normalizer; an edge with p = 0 adds nothing.
    O(m) per probe.  Absent pairs carry no mass, so there is no expected
    edge count.
    """

    name = "weighted-trophic-RDRG"
    g = None
    expected_edges = None

    def __init__(self, h, graph: DirectedGraph):
        if not graph.is_weighted:
            raise ValueError("weighted_trophic_logdensity needs a weighted graph")
        self.penalty = _squared_level_gaps(graph, h)
        self.weights = graph.edge_weights

    def loglik(self, gamma: float, derivatives: bool = False):
        gamma = _check_gamma(gamma)
        w, penalty = self.weights, self.penalty
        x = gamma * penalty
        if not derivatives:
            return float(np.sum(-gamma * w * penalty - _log_weight_normalizer(x)))
        normalizer, slope, curvature = _log_weight_normalizer(x, derivatives=True)
        return (float(np.sum(-gamma * w * penalty - normalizer)),
                float(np.sum(-w * penalty - penalty * slope)),
                float(-np.sum(np.square(penalty) * curvature)))


def weighted_trophic_logdensity(graph: DirectedGraph, params: TrophicParams) -> float:
    """Log-density of the observed edge weights under the level model.

    Each realized weight w on edge i -> j has density
    exp(-gamma * w * p) / Z on (0, 1), with p = (h_j - h_i - 1)^2 and
    Z = (1 - exp(-gamma * p)) / (gamma * p).  Pairs without an edge are
    outside this model's sample space and contribute nothing.
    """
    return _WeightedLevelModel(params.h, graph).loglik(params.gamma)


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


def _grouped(centers: np.ndarray, cluster_size: int, noise: float, seed) -> np.ndarray:
    """``cluster_size`` values at each of ``centers``, in order, plus
    uniform noise on (-noise, noise)."""
    if len(centers) < 1 or cluster_size < 1:
        raise ValueError("clusters and cluster_size must be >= 1")
    if noise < 0:
        raise ValueError("noise half-width must be >= 0")
    rng = np.random.default_rng(seed)
    base = np.repeat(centers, cluster_size)
    return base + rng.uniform(-noise, noise, len(base))


def gen_clustered_angles(clusters: int, cluster_size: int, noise: float, seed) -> np.ndarray:
    """Angles in ``clusters`` evenly spaced groups of ``cluster_size``.

    Node i in group l gets 2*pi*(l-1)/clusters plus uniform noise on
    (-noise, noise).  Angles are not wrapped, so the group ranges are
    exactly [center - noise, center + noise].
    """
    return _grouped(TWO_PI * np.arange(clusters) / clusters, cluster_size, noise, seed)


def gen_trophic_levels(clusters: int, cluster_size: int, noise: float, seed) -> np.ndarray:
    """Levels 1..clusters in groups of ``cluster_size`` plus uniform noise."""
    return _grouped(np.arange(1, clusters + 1, dtype=float), cluster_size, noise, seed)
