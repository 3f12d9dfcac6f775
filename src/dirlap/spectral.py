"""Magnetic and trophic Laplacians and the two node-scoring algorithms.

The magnetic path maps a directed graph to a complex Hermitian matrix
whose bottom eigenvector encodes a periodic arrangement of the nodes on
the unit circle; the trophic path solves a singular symmetric linear
system whose solution assigns each node a real level such that directed
edges tend to climb by exactly one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import (DirectedGraph, GraphStructureError, SymmetrizedView,
                     csv_text, is_weakly_connected, symmetrize)

TWO_PI = 2.0 * np.pi

_TINY_COMPONENT = 1e-12
_EIGENVALUE_GAP = 1e-10


class DegeneracyWarning(UserWarning):
    """Emitted when an eigenproblem is degenerate enough to blur the output."""


class NumericalError(RuntimeError):
    """A numerical postcondition failed (residual too large, non-finite value)."""


def _check_rotation(g: float) -> float:
    g = float(g)
    if not 0.0 <= g <= 0.5:
        raise ValueError(f"rotation parameter g={g} outside [0, 1/2]")
    return g


@dataclass(frozen=True)
class MagneticLaplacian:
    """Hermitian matrix diag(d) - T o W with per-edge rotation exp(-2*pi*g*alpha*1j)."""

    g: float
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PhaseAssignment:
    """Per-node angles in [0, 2*pi) with the gauge theta[0] = 0."""

    theta: np.ndarray
    g: float
    smallest_eigenvalue: float

    def __post_init__(self):
        self.theta.setflags(write=False)


@dataclass(frozen=True)
class TrophicAssignment:
    """Per-node levels shifted so min(h) = 0, with their incoherence value."""

    h: np.ndarray
    incoherence: float

    def __post_init__(self):
        self.h.setflags(write=False)


def frustration(sym: SymmetrizedView, theta, g: float) -> float:
    """Total squared mismatch of the angles against the edge rotations.

    Sums W_ij * |exp(1j*theta_i) - exp(1j*delta_ij) * exp(1j*theta_j)|^2
    over all ordered pairs, with delta_ij = -2*pi*g*alpha_ij.  Zero exactly
    when every unreciprocated edge advances the angle by 2*pi*g and every
    reciprocated pair sits at a common angle.
    """
    g = _check_rotation(g)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (sym.n,):
        raise ValueError(f"theta has length {theta.size}, expected {sym.n}")
    phase = np.exp(1j * theta)
    rot = np.exp(-1j * TWO_PI * g * sym.alpha)
    diff = phase[:, None] - rot * phase[None, :]
    return float(np.sum(sym.wsym * np.abs(diff) ** 2))


def build_magnetic_laplacian(sym: SymmetrizedView, g: float) -> MagneticLaplacian:
    """Assemble diag(degrees) - transporter o wsym for the given rotation g."""
    g = _check_rotation(g)
    transporter = np.exp(-1j * TWO_PI * g * sym.alpha)
    matrix = np.diag(sym.degrees).astype(complex) - transporter * sym.wsym
    return MagneticLaplacian(g=g, matrix=matrix)


def quadratic_form(lap: MagneticLaplacian, psi) -> float:
    """Evaluate psi^H L psi, checking the result is real up to roundoff."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (lap.n,):
        raise ValueError(f"psi has length {psi.size}, expected {lap.n}")
    value = complex(np.vdot(psi, lap.matrix @ psi))
    if abs(value.imag) > 1e-10 * (1.0 + abs(value.real)):
        raise NumericalError(
            f"quadratic form not real: imaginary part {value.imag:.3e}")
    return float(value.real)


def smallest_eigenpair(lap: MagneticLaplacian) -> tuple[float, np.ndarray]:
    """Eigenpair of the Hermitian matrix at the minimal eigenvalue.

    The eigenvector is unit-norm and gauge fixed: it is rotated by the
    unit complex scalar that makes component 0 real and nonnegative
    (falling back to the first component of modulus >= 1e-12).  When the
    smallest eigenvalue is tied within 1e-10 the last eigenvector of the
    tied group is returned and a DegeneracyWarning is emitted.
    """
    if lap.n < 1:
        raise ValueError("eigenproblem needs at least one node")
    eigenvalues, eigenvectors = np.linalg.eigh(lap.matrix)
    tied = int(np.sum(eigenvalues - eigenvalues[0] < _EIGENVALUE_GAP))
    if tied > 1:
        warnings.warn(
            f"smallest eigenvalue has multiplicity {tied} (gap < {_EIGENVALUE_GAP:g}); "
            "phase angles are not uniquely determined", DegeneracyWarning,
            stacklevel=2)
    vec = eigenvectors[:, tied - 1].copy()
    anchor = 0
    if abs(vec[0]) < _TINY_COMPONENT:
        anchor = int(np.argmax(np.abs(vec) >= _TINY_COMPONENT))
    vec *= np.conj(vec[anchor]) / abs(vec[anchor])
    return float(eigenvalues[tied - 1]), vec


def magnetic_algorithm(graph: DirectedGraph, g: float) -> PhaseAssignment:
    """Estimate node phase angles from the bottom magnetic eigenvector.

    Angles are the componentwise phases of the smallest eigenvector,
    wrapped to [0, 2*pi) under the gauge theta[0] = 0.  Components with
    modulus below 1e-12 get angle 0 and trigger a DegeneracyWarning.  The
    reflection ambiguity (conjugating the eigenvector, i.e. reversing the
    cycle orientation) is not resolved.
    """
    return _magnetic_phases(_magnetic_view(graph), g)


def _magnetic_view(graph: DirectedGraph) -> SymmetrizedView:
    """The g-independent half of magnetic_algorithm, done once per graph
    when several rotations are tried."""
    sym = symmetrize(graph)
    if not is_weakly_connected(graph):
        warnings.warn(
            "graph is not weakly connected; phases are only comparable "
            "within a component", DegeneracyWarning, stacklevel=3)
    return sym


def _magnetic_phases(sym: SymmetrizedView, g: float) -> PhaseAssignment:
    """Phase angles for rotation g from a graph's symmetrized view."""
    lap = build_magnetic_laplacian(sym, g)
    value, vec = smallest_eigenpair(lap)
    moduli = np.abs(vec)
    tiny = moduli < _TINY_COMPONENT
    theta = np.where(tiny, 0.0, np.angle(vec))
    if tiny.any():
        warnings.warn(
            f"{int(tiny.sum())} eigenvector component(s) have modulus below "
            f"{_TINY_COMPONENT:g}; their phase angles are set to 0",
            DegeneracyWarning, stacklevel=3)
    theta = np.mod(theta, TWO_PI)
    theta[theta >= TWO_PI] = 0.0
    return PhaseAssignment(theta=theta, g=float(g), smallest_eigenvalue=value)


def build_trophic_system(graph: DirectedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted degree system for level fitting.

    Returns (lam, chi, omega) where omega is total in+out weight per node,
    chi the in-minus-out imbalance, and lam = diag(omega) - A - A^T, a
    symmetric matrix with zero row sums.
    """
    a = graph.adjacency()
    w_in = a.sum(axis=0)
    w_out = a.sum(axis=1)
    omega = w_in + w_out
    chi = w_in - w_out
    lam = np.diag(omega) - a - a.T
    return lam, chi, omega


def trophic_incoherence(graph: DirectedGraph, h) -> float:
    """Normalized squared deviation of edges from a unit level climb.

    sum_ij A_ij (h_j - h_i - 1)^2 / sum_ij A_ij, using weights directly
    when present.  Zero exactly for a perfect linear hierarchy.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (graph.n,):
        raise ValueError(f"h has length {h.size}, expected {graph.n}")
    if not graph.edges:
        raise GraphStructureError("incoherence is undefined on an edgeless graph")
    idx = np.array(graph.edges)
    w = np.array(graph.weights) if graph.is_weighted else np.ones(len(idx))
    dev = h[idx[:, 1]] - h[idx[:, 0]] - 1.0
    return float(np.sum(w * dev**2) / np.sum(w))


def trophic_algorithm(graph: DirectedGraph) -> TrophicAssignment:
    """Solve for the levels that minimize trophic incoherence.

    The system lam @ h = chi is singular with the constant vector in its
    kernel, so it is solved with a bordered system enforcing sum(h) = 0
    and the result is then shifted so min(h) = 0.  Requires at least one
    edge and a weakly connected graph (otherwise the kernel is larger and
    levels are not comparable across components).
    """
    if graph.n == 0:
        raise GraphStructureError("graph has no nodes")
    if not graph.edges:
        raise GraphStructureError("graph has no edges; levels are undefined")
    if not is_weakly_connected(graph):
        raise GraphStructureError(
            "graph is not weakly connected; extract a connected component "
            "(e.g. largest_wcc) before computing levels")
    lam, chi, _ = build_trophic_system(graph)
    n = graph.n
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = lam
    bordered[:n, n] = 1.0
    bordered[n, :n] = 1.0
    rhs = np.append(chi, 0.0)
    solution = np.linalg.solve(bordered, rhs)
    h = solution[:n]
    residual = np.linalg.norm(lam @ h - chi)
    if residual > 1e-9 * (1.0 + np.linalg.norm(chi)):
        raise NumericalError(
            f"level solve residual {residual:.3e} exceeds tolerance")
    h = h - h.min()
    return TrophicAssignment(h=h, incoherence=trophic_incoherence(graph, h))


def assignment_to_csv(graph: DirectedGraph, values, fmt: str = "%.12g") -> str:
    """Serialize per-node values as ``label,value`` CSV rows.

    Labels are quoted only where CSV needs it (a comma, a double quote or
    a line break); plain labels are written as they are.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (graph.n,):
        raise ValueError(f"expected {graph.n} values, got {values.size}")
    return csv_text(["label", "value"],
                    ((graph.label(i), fmt % values[i]) for i in range(graph.n)))
