"""Decay-rate fitting and the periodic-vs-linear model comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graphs import DirectedGraph, GraphStructureError
from .models import (make_prdrg_expected_edges, make_prdrg_loglik,
                     make_trophic_expected_edges, make_trophic_loglik)
from .spectral import (NumericalError, PhaseAssignment, TrophicAssignment,
                       _magnetic_phases, _magnetic_view, _trophic_levels)

#: rotation parameters probed by default: up to six directed clusters
DEFAULT_G_CANDIDATES = (1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6)

GAMMA_MIN = 1e-3
GAMMA_MAX = 50.0

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def _probe(fn: Callable[[float], float], x: float) -> float:
    value = float(fn(x))
    if not math.isfinite(value):
        raise NumericalError(f"objective is not finite at gamma={x:g}")
    return value


def _golden_max(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi] to absolute tolerance tol.

    Returns the best probed point, which for a unimodal objective lies
    within tol of the maximizer.
    """
    span = hi - lo
    if span <= tol:
        mid = 0.5 * (lo + hi)
        return mid, _probe(fn, mid)
    steps = int(math.ceil(math.log(tol / span) / math.log(_INV_PHI)))
    c = lo + _INV_PHI_SQ * span
    d = lo + _INV_PHI * span
    yc = _probe(fn, c)
    yd = _probe(fn, d)
    best_x, best_y = (c, yc) if yc >= yd else (d, yd)
    for _ in range(max(steps - 1, 0)):
        if yc > yd:
            hi = d
            d, yd = c, yc
            span *= _INV_PHI
            c = lo + _INV_PHI_SQ * span
            yc = _probe(fn, c)
        else:
            lo = c
            c, yc = d, yd
            span *= _INV_PHI
            d = lo + _INV_PHI * span
            yd = _probe(fn, d)
        if yc > best_y:
            best_x, best_y = c, yc
        if yd > best_y:
            best_x, best_y = d, yd
    return best_x, best_y


@dataclass(frozen=True)
class GammaFit:
    """Result of a one-dimensional decay-rate fit.

    ``at_upper_bound`` flags a maximum sitting on the gamma_max boundary,
    which happens on very sparse networks where the likelihood keeps
    rising over the whole tested range.  ``at_lower_bound`` flags a
    returned gamma equal to gamma_min, where the likelihood falls from
    gamma_min on (e.g. dense graphs without the model's structure).
    ``grid`` and ``grid_loglik`` are the coarse probe points, kept for
    reporting likelihood curves.
    """

    gamma: float
    loglik: float
    at_upper_bound: bool
    at_lower_bound: bool
    grid: np.ndarray
    grid_loglik: np.ndarray

    def __post_init__(self):
        self.grid.setflags(write=False)
        self.grid_loglik.setflags(write=False)


def fit_gamma_mle(loglik: Callable[[float], float], gamma_min: float = GAMMA_MIN,
                  gamma_max: float = GAMMA_MAX, grid_points: int = 32,
                  tol: float = 1e-6) -> GammaFit:
    """Maximize a log-likelihood over the decay rate.

    A coarse logarithmic grid locates the bracketing triple, then
    golden-section refinement pins the maximizer to absolute tolerance
    ``tol``; a best grid point with none above it is bracketed by
    gamma_max.  Raises NumericalError if the objective is non-finite at
    any probe point.
    """
    if not (0 < gamma_min < gamma_max):
        raise ValueError("need 0 < gamma_min < gamma_max")
    grid = np.geomspace(gamma_min, gamma_max, grid_points)
    values = np.array([_probe(loglik, float(x)) for x in grid])
    best = int(np.argmax(values))
    if len(grid) > 1 and best == len(grid) - 1:
        return GammaFit(float(grid[-1]), float(values[-1]), True, False,
                        grid, values)
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[best + 1]) if best + 1 < len(grid) else gamma_max
    gamma, value = _golden_max(loglik, lo, hi, tol)
    if values[best] > value:
        gamma, value = float(grid[best]), float(values[best])
    return GammaFit(float(gamma), float(value), False, gamma == gamma_min,
                    grid, values)


def fit_gamma_density(expected_edges: Callable[[float], float], observed: float,
                      gamma_min: float = 1e-6, gamma_max: float = GAMMA_MAX,
                      rel_tol: float = 1e-6) -> float:
    """Decay rate at which the expected edge count matches the observed one.

    Bisection on [gamma_min, gamma_max] exploiting that the expected count
    is nonincreasing in gamma.  Raises ValueError when the observed count
    lies outside the attainable range or when the expected count does not
    vary over the interval (no root can be isolated).
    """
    high = _probe(expected_edges, gamma_min)
    low = _probe(expected_edges, gamma_max)
    upper, lower = max(high, low), min(high, low)
    slack = 1e-9 * (1.0 + abs(upper))
    if upper - lower <= slack:
        raise ValueError(
            f"expected edge count is constant (~{upper:.6g}) on "
            f"[{gamma_min:g}, {gamma_max:g}]; no decay rate isolates the match")
    if not lower - slack <= observed <= upper + slack:
        raise ValueError(
            f"observed edge count {observed:g} outside the attainable "
            f"range [{lower:.6g}, {upper:.6g}]")
    lo, hi = gamma_min, gamma_max
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if _probe(expected_edges, mid) > observed:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    gamma_fit: GammaFit


def select_g(graph: DirectedGraph, candidates: Sequence[float] = DEFAULT_G_CANDIDATES,
             gamma_min: float = GAMMA_MIN, gamma_max: float = GAMMA_MAX) -> SelectGResult:
    """Grid-search the rotation parameter by maximum likelihood.

    For each candidate the magnetic algorithm estimates angles and the
    decay rate is fitted by MLE; the candidate with the highest likelihood
    wins, ties breaking toward the larger rotation (fewer clusters).
    """
    _, phases = _candidate_phases(graph, candidates)
    return _select_g(graph, phases, gamma_min, gamma_max)


def _candidate_phases(graph: DirectedGraph, candidates: Sequence[float]):
    """The graph's symmetrized view and the phases of each candidate."""
    if not candidates:
        raise ValueError("need at least one candidate rotation")
    for g in candidates:
        if not 0.0 < g <= 0.5:
            raise ValueError(f"candidate g={g} outside (0, 1/2]")
    sym = _magnetic_view(graph)
    return sym, [_magnetic_phases(sym, g) for g in candidates]


def _select_g(graph: DirectedGraph, phases: Sequence[PhaseAssignment],
              gamma_min: float, gamma_max: float) -> SelectGResult:
    gamma_fits = [fit_gamma_mle(make_prdrg_loglik(graph, p.theta, p.g),
                                gamma_min, gamma_max) for p in phases]
    fits = tuple(GCandidateFit(p.g, f.gamma, f.loglik, f.at_upper_bound, f.at_lower_bound)
                 for p, f in zip(phases, gamma_fits))
    best = max(range(len(fits)), key=lambda k: (fits[k].loglik, fits[k].g))
    return SelectGResult(fits, fits[best], phases[best], gamma_fits[best])


@dataclass(frozen=True)
class ModelFit:
    """Fitted decay rate and likelihood for one structure hypothesis.

    ``gamma_density`` is the density-matching point estimate when one
    exists (None otherwise); ``g`` is the winning rotation for the pair
    model and None for the level model.  ``curve_gamma``/``curve_loglik``
    hold the coarse likelihood curve behind the fit.
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


def _density_estimate(expected: Callable[[float], float], observed: float,
                      gamma_max: float) -> float | None:
    try:
        return fit_gamma_density(expected, observed, gamma_max=gamma_max)
    except ValueError:
        return None


def _model_fit(model: str, fit: GammaFit, gamma_density: float | None,
               g: float | None) -> ModelFit:
    return ModelFit(model, fit.gamma, fit.loglik, gamma_density, g,
                    fit.at_upper_bound, fit.at_lower_bound, fit.grid,
                    fit.grid_loglik)


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
    sym, phases = _candidate_phases(graph, candidates)
    levels = _trophic_levels(graph, sym)
    del sym     # freed before the level model's n x n arrays are made
    selection = _select_g(graph, phases, gamma_min, gamma_max)
    prdrg_density = _density_estimate(
        make_prdrg_expected_edges(selection.assignment.theta, selection.best.g),
        graph.edge_count, gamma_max)
    prdrg_fit = _model_fit("directed-pRDRG", selection.gamma_fit,
                           prdrg_density, selection.best.g)
    trophic_gamma_fit = fit_gamma_mle(make_trophic_loglik(graph, levels.h),
                                      gamma_min, gamma_max)
    trophic_density = _density_estimate(
        make_trophic_expected_edges(levels.h),
        graph.edge_count, gamma_max)
    trophic_fit = _model_fit("trophic-RDRG", trophic_gamma_fit,
                             trophic_density, None)
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
