"""Decay-rate fitting and the periodic-vs-linear model comparison."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graphs import DirectedGraph, GraphStructureError
from .models import _LevelModel, _PairModel
from .spectral import (NumericalError, PhaseAssignment, TrophicAssignment,
                       magnetic_algorithm, trophic_algorithm)

#: rotation parameters probed by default: up to six directed clusters
DEFAULT_G_CANDIDATES = (1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6)

GAMMA_MIN = 1e-3
GAMMA_MAX = 50.0

_MAX_STEPS = 100        # safeguarded Newton steps before giving up


def _probe(fn: Callable, x: float):
    """fn(x) as a float, or a list of floats for a tuple; every value finite."""
    values = np.asarray(fn(x), dtype=float)
    if not np.isfinite(values).all():
        raise NumericalError(f"objective is not finite at gamma={x:g}")
    return values.tolist()


def _decreasing_root(probe: Callable[[float], list], lo: float, hi: float,
                     x: float, y: float, slope: float, atol: float,
                     rtol: float) -> float:
    """Root of a decreasing y(gamma) with y(lo) > 0 > y(hi), from a point
    x in [lo, hi] where y and its slope are known.

    ``probe(gamma)`` returns y, y' and anything else after them.  Each step
    is Newton's on gamma * y(gamma), which has the same root and is linear
    in gamma for a score like a/gamma - b; a step that leaves the shrinking
    bracket, or a slope that does not point into it, is replaced by
    bisection in log gamma.  The first step shorter than atol + rtol *
    gamma is the last, and its end is returned unprobed.
    """
    for _ in range(_MAX_STEPS):
        scaled_slope = y + x * slope        # of gamma * y, at x
        new = x - x * y / scaled_slope if scaled_slope < 0 else hi
        if not lo < new < hi:   # bisect in log gamma; lo * hi may underflow
            new = math.sqrt(lo * hi) or math.sqrt(lo) * math.sqrt(hi)
        if abs(new - x) <= atol + rtol * x:
            return new
        x = new
        y, slope = probe(x)[:2]
        if y == 0:
            return x
        if y > 0:
            lo = x
        else:
            hi = x
    raise NumericalError(f"decay-rate search did not converge in {_MAX_STEPS} steps")


@dataclass(frozen=True)
class GammaFit:
    """Result of a one-dimensional decay-rate fit.

    ``at_upper_bound`` flags a maximum on the gamma_max boundary: the
    score is >= 0 there, which happens on very sparse networks where the
    likelihood keeps rising over the whole tested range.  ``at_lower_bound``
    flags a maximum on gamma_min, where the score is <= 0 (e.g. dense
    graphs without the model's structure).
    """

    gamma: float
    loglik: float
    at_upper_bound: bool
    at_lower_bound: bool


def fit_gamma_mle(objective: Callable[[float], tuple[float, float, float]],
                  gamma_min: float = GAMMA_MIN, gamma_max: float = GAMMA_MAX,
                  tol: float = 1e-6) -> GammaFit:
    """Maximize a concave log-likelihood over the decay rate.

    ``objective(gamma)`` returns the log-likelihood with its first and
    second derivatives in gamma.  The score's sign at gamma_min and
    gamma_max decides whether the maximum sits on a bound; otherwise
    safeguarded Newton steps (_decreasing_root) find the score's root to
    absolute tolerance ``tol``.  Raises NumericalError if the objective is
    non-finite at any probe point.
    """
    if not (0 < gamma_min < gamma_max):
        raise ValueError("need 0 < gamma_min < gamma_max")

    def probe(x):
        value, score, curvature = _probe(objective, x)
        return [score, curvature, value]

    low = probe(gamma_min)
    if low[0] <= 0:
        return GammaFit(gamma_min, low[2], False, True)
    high = probe(gamma_max)
    if high[0] >= 0:
        return GammaFit(gamma_max, high[2], True, False)
    gamma = _decreasing_root(probe, gamma_min, gamma_max, gamma_max, *high[:2],
                             tol, 0.0)
    return GammaFit(gamma, probe(gamma)[2], False, False)


def fit_gamma_density(expected_edges: Callable[[float], tuple[float, float]],
                      observed: float, gamma_min: float = GAMMA_MIN,
                      gamma_max: float = GAMMA_MAX, rel_tol: float = 1e-6) -> float:
    """Decay rate at which the expected edge count matches the observed one.

    ``expected_edges(gamma)`` returns the expected count and its derivative
    in gamma.  The count is nonincreasing in gamma, so safeguarded Newton
    steps (_decreasing_root) find the match on [gamma_min, gamma_max], by
    default the range of every other fit, to relative tolerance
    ``rel_tol``.  Raises ValueError when the observed count lies outside
    the range attained there or when the expected count does not vary over
    the interval (no root can be isolated).
    """
    if not (0 < gamma_min < gamma_max):
        raise ValueError("need 0 < gamma_min < gamma_max")
    high = _probe(expected_edges, gamma_min)
    low = _probe(expected_edges, gamma_max)
    upper, lower = max(high[0], low[0]), min(high[0], low[0])
    slack = 1e-9 * (1.0 + abs(upper))
    if upper - lower <= slack:
        raise ValueError(
            f"expected edge count is constant (~{upper:.6g}) on "
            f"[{gamma_min:g}, {gamma_max:g}]; no decay rate isolates the match")
    if not lower - slack <= observed <= upper + slack:
        raise ValueError(
            f"observed edge count {observed:g} outside the attainable "
            f"range [{lower!r}, {upper!r}]")
    if high[0] <= observed:
        return gamma_min
    if low[0] >= observed:
        return gamma_max

    def probe(x):
        count, slope = _probe(expected_edges, x)
        return [count - observed, slope]

    return _decreasing_root(probe, gamma_min, gamma_max, gamma_max,
                            low[0] - observed, low[1], 0.0, rel_tol)


def likelihood_curve(loglik: Callable[[float], float], gamma_min: float = GAMMA_MIN,
                     gamma_max: float = GAMMA_MAX,
                     points: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """The log-likelihood on ``points`` log-spaced rates from gamma_min to
    gamma_max, by plain value probes ``loglik(gamma)``."""
    grid = np.geomspace(gamma_min, gamma_max, points)
    return grid, np.array([_probe(loglik, float(x)) for x in grid])


@dataclass(frozen=True)
class GCandidateFit:
    g: float
    gamma_mle: float
    loglik: float
    at_upper_bound: bool
    at_lower_bound: bool


@dataclass(frozen=True)
class SelectGResult:
    """Per-candidate fits of the pair model plus the winning rotation."""

    fits: tuple[GCandidateFit, ...]
    best: GCandidateFit
    assignment: PhaseAssignment


def select_g(graph: DirectedGraph, candidates: Sequence[float] = DEFAULT_G_CANDIDATES,
             gamma_min: float = GAMMA_MIN, gamma_max: float = GAMMA_MAX) -> SelectGResult:
    """Grid-search the rotation parameter by maximum likelihood.

    For each candidate the magnetic algorithm estimates angles and the
    decay rate is fitted by MLE; the candidate with the highest likelihood
    wins, ties breaking toward the larger rotation (fewer clusters).
    """
    return _select_g(graph, candidates, gamma_min, gamma_max)[0]


def _select_g(graph: DirectedGraph, candidates: Sequence[float], gamma_min: float,
              gamma_max: float) -> tuple[SelectGResult, _PairModel, GammaFit]:
    """The selection, and the winning candidate's pair model and fit."""
    if not candidates:
        raise ValueError("need at least one candidate rotation")
    for k, g in enumerate(candidates):
        if not 0.0 < g <= 0.5:
            raise ValueError(f"candidate g={g} outside (0, 1/2]")
        if g in candidates[:k]:
            raise ValueError(f"candidate g={g} repeated")
    phases = [magnetic_algorithm(graph, g) for g in candidates]
    models = [_PairModel(p.theta, p.g, graph) for p in phases]
    gamma_fits = [fit_gamma_mle(functools.partial(m.loglik, derivatives=True),
                                gamma_min, gamma_max) for m in models]
    fits = tuple(GCandidateFit(p.g, f.gamma, f.loglik, f.at_upper_bound, f.at_lower_bound)
                 for p, f in zip(phases, gamma_fits))
    best = max(range(len(fits)), key=lambda k: (fits[k].loglik, fits[k].g))
    return SelectGResult(fits, fits[best], phases[best]), models[best], gamma_fits[best]


@dataclass(frozen=True)
class ModelFit:
    """Fitted decay rate and likelihood for one structure hypothesis.

    ``gamma_density`` is the density-matching point estimate when one
    exists (None otherwise); ``g`` is the winning rotation for the pair
    model and None for the level model.  ``curve_gamma``/``curve_loglik``
    hold the likelihood on a logarithmic grid of the gamma range, 32
    points in a comparison.
    """

    model: str
    gamma_mle: float
    loglik_at_mle: float
    gamma_density: float | None
    g: float | None
    at_upper_bound: bool
    at_lower_bound: bool
    curve_gamma: np.ndarray
    curve_loglik: np.ndarray

    def __post_init__(self):
        self.curve_gamma.setflags(write=False)
        self.curve_loglik.setflags(write=False)


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of fitting both structure hypotheses to one graph.

    ``log_ratio`` is the pair-model maximum log-likelihood minus the
    level-model one; the verdict is periodic exactly when it is positive.
    ``phases``/``levels`` carry the node attributes behind each fit.
    """

    per_g: tuple[GCandidateFit, ...]
    best_g: float
    prdrg_fit: ModelFit
    trophic_fit: ModelFit
    log_ratio: float
    verdict: str
    phases: PhaseAssignment
    levels: TrophicAssignment


def _model_fit(model, observed: int, gamma_min: float, gamma_max: float,
               points: int = 32, fit: GammaFit | None = None,
               notice: Callable[[ValueError], None] | None = None) -> ModelFit:
    """One gamma-model (see models._PairSumModel) fitted and tabulated on
    its one set of pair sums: the likelihood on ``points`` rates, the MLE
    (``fit`` when the caller has it already) and the density match for
    ``observed`` edges.  A model without an expected edge count has no
    density match; when the match fails, ``notice`` gets the reason."""
    curve = likelihood_curve(model.loglik, gamma_min, gamma_max, points)
    if fit is None:
        fit = fit_gamma_mle(functools.partial(model.loglik, derivatives=True),
                            gamma_min, gamma_max)
    density = None
    if model.expected_edges is not None:
        try:
            density = fit_gamma_density(
                functools.partial(model.expected_edges, derivatives=True), observed,
                gamma_min, gamma_max)
        except ValueError as exc:
            if notice is not None:
                notice(exc)
    return ModelFit(model.name, fit.gamma, fit.loglik, density, model.g,
                    fit.at_upper_bound, fit.at_lower_bound, *curve)


def compare_models(graph: DirectedGraph,
                   candidates: Sequence[float] = DEFAULT_G_CANDIDATES,
                   gamma_min: float = GAMMA_MIN,
                   gamma_max: float = GAMMA_MAX) -> ComparisonReport:
    """Fit both models to a preprocessed graph and compare their maxima.

    The caller is expected to have removed self-loops and selected a
    connected component (the level solve requires weak connectivity).
    """
    if graph.n == 0:
        raise GraphStructureError("graph has no nodes")
    if graph.is_weighted:
        raise ValueError("model comparison is defined for unweighted graphs")
    selection, pair_model, pair_fit = _select_g(graph, candidates, gamma_min, gamma_max)
    levels = trophic_algorithm(graph)
    prdrg_fit = _model_fit(pair_model, graph.edge_count, gamma_min, gamma_max,
                           fit=pair_fit)
    trophic_fit = _model_fit(_LevelModel(levels.h, graph), graph.edge_count,
                             gamma_min, gamma_max)
    log_ratio = prdrg_fit.loglik_at_mle - trophic_fit.loglik_at_mle
    return ComparisonReport(
        per_g=selection.fits,
        best_g=selection.best.g,
        prdrg_fit=prdrg_fit,
        trophic_fit=trophic_fit,
        log_ratio=log_ratio,
        verdict="periodic" if log_ratio > 0 else "linear",
        phases=selection.assignment,
        levels=levels,
    )
