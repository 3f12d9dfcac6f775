"""Spans around dirlap's public functions, recorded from outside the package.

``install()`` wraps each traced function and rebinds the name in every
``dirlap`` module that holds it, since modules import each other's
functions by name (``inference`` calls its own ``make_prdrg_loglik``
binding, ``cli`` its own).  The closures returned by the ``make_*_loglik``
factories are wrapped too, so every likelihood probe is a span.  Spans
stay in memory as (name, start, end, parent) and are turned into layer
metrics by :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> (module, function); the name prefix is the layer
TRACED = {
    "graphs.parse": ("dirlap.graphs", "parse_edge_list"),
    "graphs.largest_scc": ("dirlap.graphs", "largest_scc"),
    "graphs.largest_wcc": ("dirlap.graphs", "largest_wcc"),
    "graphs.symmetrize": ("dirlap.graphs", "symmetrize"),
    "graphs.connectivity": ("dirlap.graphs", "is_weakly_connected"),
    "spectral.laplacian": ("dirlap.spectral", "build_magnetic_laplacian"),
    "spectral.eigenpair": ("dirlap.spectral", "smallest_eigenpair"),
    "spectral.trophic": ("dirlap.spectral", "trophic_algorithm"),
    "models.prdrg_prepare": ("dirlap.models", "make_prdrg_loglik"),
    "models.trophic_prepare": ("dirlap.models", "make_trophic_loglik"),
    "models.prdrg_expected": ("dirlap.models", "prdrg_expected_edges"),
    "models.trophic_expected": ("dirlap.models", "trophic_expected_edges"),
    "inference.mle": ("dirlap.inference", "fit_gamma_mle"),
    "inference.density": ("dirlap.inference", "fit_gamma_density"),
    "inference.compare_models": ("dirlap.inference", "compare_models"),
    "cli.main": ("dirlap.cli", "main"),
}

# factory span -> span name of each call of the closure it returns
PROBES = {"models.prdrg_prepare": "models.prdrg_probe",
          "models.trophic_prepare": "models.trophic_probe"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._open.pop()
            return self.wrap(result, probe) if probe else result

        return traced


def install() -> Tracer:
    tracer = Tracer()
    for name, (module_name, attr) in TRACED.items():
        original = getattr(sys.modules[module_name], attr)
        wrapped = tracer.wrap(original, name)
        for module_key, module in list(sys.modules.items()):
            if (module_key == "dirlap" or module_key.startswith("dirlap.")) \
                    and getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
    return tracer


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# (metric, unit, span names, what): "total" sums durations, "self" sums
# self times, "count" counts spans
LAYER_METRICS = [
    ("graphs.parse_s", "s", ("graphs.parse",), "total"),
    ("graphs.component_s", "s", ("graphs.largest_scc", "graphs.largest_wcc"), "total"),
    ("graphs.symmetrize_s", "s", ("graphs.symmetrize",), "total"),
    ("graphs.symmetrize_calls", "count", ("graphs.symmetrize",), "count"),
    ("graphs.connectivity_calls", "count", ("graphs.connectivity",), "count"),
    ("spectral.laplacian_s", "s", ("spectral.laplacian",), "total"),
    ("spectral.eigenpair_s", "s", ("spectral.eigenpair",), "total"),
    ("spectral.eigenpair_calls", "count", ("spectral.eigenpair",), "count"),
    ("spectral.trophic_s", "s", ("spectral.trophic",), "self"),
    ("models.prdrg_prepare_s", "s", ("models.prdrg_prepare",), "total"),
    ("models.prdrg_probe_s", "s", ("models.prdrg_probe",), "total"),
    ("models.prdrg_probes", "count", ("models.prdrg_probe",), "count"),
    ("models.trophic_prepare_s", "s", ("models.trophic_prepare",), "total"),
    ("models.trophic_probe_s", "s", ("models.trophic_probe",), "total"),
    ("models.trophic_probes", "count", ("models.trophic_probe",), "count"),
    ("models.expected_edges_s", "s",
     ("models.prdrg_expected", "models.trophic_expected"), "total"),
    ("models.expected_edges_calls", "count",
     ("models.prdrg_expected", "models.trophic_expected"), "count"),
    ("inference.mle_fits", "count", ("inference.mle",), "count"),
    ("inference.mle_self_s", "s", ("inference.mle",), "self"),
    ("inference.density_fits", "count", ("inference.density",), "count"),
    ("inference.density_self_s", "s", ("inference.density",), "self"),
    ("inference.compare_models_s", "s", ("inference.compare_models",), "total"),
    ("cli.self_s", "s", ("cli.main",), "self"),
]
LAYERS = ("graphs", "spectral", "models", "inference", "cli")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Layer metrics of one round of operations."""
    own = self_times(spans)
    out = {}
    for metric, _, names, what in LAYER_METRICS:
        picked = [k for k, span in enumerate(spans) if span[0] in names]
        if what == "count":
            out[metric] = len(picked)
        elif what == "self":
            out[metric] = sum(own[k] for k in picked)
        else:
            out[metric] = sum(spans[k][2] - spans[k][1] for k in picked)
    fits = {k for k, span in enumerate(spans) if span[0] == "inference.mle"}
    fit_probes = sum(1 for span in spans if span[3] in fits
                     and span[0] in PROBES.values())
    out["inference.probes_per_fit"] = fit_probes / len(fits) if fits else 0.0
    for layer in LAYERS:
        out[f"{layer}.layer_self_s"] = sum(
            own[k] for k, span in enumerate(spans)
            if span[0].split(".")[0] == layer)
    return out


METRIC_UNITS = {metric: unit for metric, unit, _, _ in LAYER_METRICS}
METRIC_UNITS["inference.probes_per_fit"] = "probes/fit"
METRIC_UNITS.update({f"{layer}.layer_self_s": "s" for layer in LAYERS})
