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
import scipy.linalg
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import cg

from .graphs import (DirectedGraph, GraphStructureError, SymmetrizedView,
                     _freeze_csr, is_weakly_connected, symmetrize)

TWO_PI = 2.0 * np.pi

_TINY_COMPONENT = 1e-12
_EIGENVALUE_GAP = 1e-10

# Bottom eigenpair solver.  From this many nodes on, LOBPCG on the sparse
# matrix; below it a dense solve for the two lowest pairs (README, "Bottom
# eigenpair").  Tolerances are relative to the Gershgorin bound on the
# spectral radius, twice the largest degree.
_LOBPCG_MIN_NODES = 220
_LOBPCG_BLOCK = 2           # Ritz pairs carried: the bottom pair and its certifier
_LOBPCG_TOL = 1e-14         # residual norm asked of the bottom vector
_LOBPCG_ACCEPT = 1e-11      # largest bottom residual accepted without the dense path
_LOBPCG_TIE_MARGIN = 1e-6   # least certified gap: below it the dense path decides
_LOBPCG_MAXITER = 500
_LOBPCG_STALL = 30          # steps the bottom residual may take to halve
_LOBPCG_PIVOT = 1e-8        # smallest Cholesky pivot of a usable basis Gram
_LOBPCG_SEED = 0            # fixed start block, so a g's phases depend on g alone

# Level solve: Jacobi-preconditioned conjugate gradients.  The residual
# check after the solve, not CG's own stopping test, decides success.
_CG_RTOL = 1e-14
_CG_MAXITER_PER_NODE = 10


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
    matrix: csr_matrix

    def __post_init__(self):
        _freeze_csr(self.matrix)

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
    over all ordered pairs, with W = ``wsym`` and delta_ij =
    -2*pi*g*alpha_ij.  Zero exactly when every unreciprocated edge
    advances the angle by 2*pi*g and every reciprocated pair sits at a
    common angle.  Minus half of it is the pair model's edge term.

    Each term is 2 * W_ij * (1 - cos(theta_i - theta_j + 2*pi*g*alpha_ij)),
    in real arithmetic.  The (i, j) and (j, i) terms are equal exactly, as
    W is symmetric, the angle difference and alpha change sign exactly and
    cos is even; so the view's entries with i < j are summed and doubled.
    O(m).
    """
    g = _check_rotation(g)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (sym.n,):
        raise ValueError(f"theta has length {theta.size}, expected {sym.n}")
    wsym = sym.wsym
    rows = np.repeat(np.arange(sym.n), np.diff(wsym.indptr))
    upper = np.flatnonzero(rows < wsym.indices)
    angle = theta[rows[upper]] - theta[wsym.indices[upper]]
    angle += TWO_PI * g * sym.alpha.data[upper]
    return 4.0 * float(np.sum(wsym.data[upper] * (1.0 - np.cos(angle))))


def build_magnetic_laplacian(sym: SymmetrizedView, g: float) -> MagneticLaplacian:
    """Assemble diag(degrees) - transporter o wsym for the given rotation g.

    The result is the view's sparse sum, CSR.  The transporter is
    evaluated once per distinct value of alpha and looked up for each
    stored entry of ``wsym``.
    """
    g = _check_rotation(g)
    alphas, slot = sym._distinct_alpha
    transporter = np.exp(-1j * TWO_PI * g * alphas)[slot]
    return MagneticLaplacian(g=g, matrix=sym.laplacian(transporter * sym.wsym.data))


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

    Only the bottom of the spectrum is computed: by LOBPCG from 220 nodes
    on, otherwise (and whenever LOBPCG does not certify its answer) by a
    dense solve for the two lowest pairs, widened to the full spectrum
    only when those two are tied.
    """
    if lap.n < 1:
        raise ValueError("eigenproblem needs at least one node")
    pair = _lobpcg_pair(lap.matrix) if lap.n >= _LOBPCG_MIN_NODES else None
    value, vec = pair if pair is not None else _dense_pair(lap.matrix)
    anchor = 0
    if abs(vec[0]) < _TINY_COMPONENT:
        anchor = int(np.argmax(np.abs(vec) >= _TINY_COMPONENT))
    vec = vec * (np.conj(vec[anchor]) / abs(vec[anchor]))
    # the rotation leaves rounding in the anchor's imaginary part
    vec[anchor] = abs(vec[anchor])
    return value, vec


def _lobpcg_pair(matrix: csr_matrix) -> tuple[float, np.ndarray] | None:
    """Bottom pair by LOBPCG, or None when the result is not certified: a
    bottom residual above tolerance, or a second Ritz value that may lie
    within the tie margin of the first.

    Block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23(2), 2001) on the two
    lowest pairs, with a Jacobi preconditioner.  Each step multiplies the
    matrix into the preconditioned residuals W alone; A X and A P are
    carried along.  The Cholesky factor of the Gram of [X, W, P]
    orthonormalizes [W, P] against X, and P is dropped for a step when
    that factor fails.  The second pair only certifies that the bottom is
    simple: its Ritz value less its residual must lie more than the tie
    margin above the bottom one.  The run stops once the bottom residual
    meets _LOBPCG_TOL and that certificate holds; or once the bottom
    residual has neither halved nor its value left the anchor's interval
    (value less residual) within _LOBPCG_STALL steps.  The check below then
    accepts or refuses what it has.
    """
    diagonal = matrix.diagonal().real
    # every row of |L| sums to twice its degree
    scale = 2.0 * float(diagonal.max())
    if scale == 0.0:
        return None

    def certified(values, norms, bar):
        return (norms[0] <= bar * scale
                and values[1] - values[0] - norms[1] > _LOBPCG_TIE_MARGIN * scale)

    n, k = matrix.shape[0], _LOBPCG_BLOCK
    jacobi = 1.0 / np.where(diagonal > 0.0, diagonal, 1.0)[:, None]
    rng = np.random.default_rng(_LOBPCG_SEED)
    x = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    ax = matrix @ x
    ritz = _rayleigh_ritz(x, ax)
    if ritz is None:
        return None
    values, coefficients = ritz
    x, ax = x @ coefficients, ax @ coefficients
    p = ap = None
    anchor, floor, anchor_step = np.inf, np.inf, 0
    for step in range(_LOBPCG_MAXITER):
        residual = ax - x * values
        norms = np.linalg.norm(residual, axis=0)
        if certified(values, norms, _LOBPCG_TOL):
            break
        if norms[0] < 0.5 * anchor or values[0] < floor:
            anchor, floor, anchor_step = norms[0], values[0] - norms[0], step
        elif step - anchor_step >= _LOBPCG_STALL:
            break
        w = jacobi * residual
        aw = matrix @ w
        ritz = None
        if p is not None:
            basis, image = np.hstack((x, w, p)), np.hstack((ax, aw, ap))
            ritz = _rayleigh_ritz(basis, image)
        if ritz is None:
            basis, image = np.hstack((x, w)), np.hstack((ax, aw))
            ritz = _rayleigh_ritz(basis, image)
            if ritz is None:
                return None
        values, coefficients = ritz
        # new X, and new P: the part of each Ritz vector outside the old X
        update = np.hstack((coefficients, coefficients))
        update[:k, k:] = 0.0
        xp, axp = basis @ update, image @ update
        x, p, ax, ap = xp[:, :k], xp[:, k:], axp[:, :k], axp[:, k:]
    vectors = x / np.linalg.norm(x, axis=0)
    residuals = np.linalg.norm(matrix @ vectors - vectors * values, axis=0)
    if not certified(values, residuals, _LOBPCG_ACCEPT):
        return None
    return float(values[0]), vectors[:, 0]


def _rayleigh_ritz(basis: np.ndarray, image: np.ndarray):
    """(values, coefficients) of the _LOBPCG_BLOCK lowest Ritz pairs on the
    span of ``basis``, whose product with the matrix is ``image``, or None
    when the Cholesky factor of the basis Gram (columns scaled to unit
    length) fails or has a pivot below _LOBPCG_PIVOT."""
    gram = basis.conj().T @ basis
    lengths = np.sqrt(gram.diagonal().real)
    if not lengths.all():
        return None
    try:
        factor = np.linalg.cholesky(gram / np.outer(lengths, lengths))
    except np.linalg.LinAlgError:
        return None
    if not factor.diagonal().real.min() >= _LOBPCG_PIVOT:
        return None
    # basis @ orthonormalizer has orthonormal columns
    orthonormalizer = np.linalg.inv(factor).conj().T / lengths[:, None]
    values, vectors = np.linalg.eigh(
        orthonormalizer.conj().T @ (basis.conj().T @ image) @ orthonormalizer)
    return values[:_LOBPCG_BLOCK], orthonormalizer @ vectors[:, :_LOBPCG_BLOCK]


def _dense_pair(matrix: csr_matrix) -> tuple[float, np.ndarray]:
    """Bottom pair by dense solves, warning when the minimum is tied."""
    dense = matrix.toarray()
    n = dense.shape[0]
    eigenvalues, eigenvectors = scipy.linalg.eigh(
        dense, subset_by_index=[0, min(1, n - 1)])
    if n > 1 and eigenvalues[1] - eigenvalues[0] < _EIGENVALUE_GAP:
        # the full spectrum gives the multiplicity and the tied group
        eigenvalues, eigenvectors = np.linalg.eigh(dense)
    tied = int(np.sum(eigenvalues - eigenvalues[0] < _EIGENVALUE_GAP))
    if tied > 1:
        warnings.warn(
            f"smallest eigenvalue has multiplicity {tied} (gap < {_EIGENVALUE_GAP:g}); "
            "phase angles are not uniquely determined", DegeneracyWarning,
            stacklevel=3)
    return float(eigenvalues[tied - 1]), eigenvectors[:, tied - 1]


def magnetic_algorithm(graph: DirectedGraph, g: float) -> PhaseAssignment:
    """Estimate node phase angles from the bottom magnetic eigenvector.

    Angles are the componentwise phases of the smallest eigenvector,
    wrapped to [0, 2*pi) under the gauge theta[0] = 0.  Components with
    modulus below 1e-12 get angle 0 and trigger a DegeneracyWarning.  The
    reflection ambiguity (conjugating the eigenvector, i.e. reversing the
    cycle orientation) is not resolved.  The graph keeps its symmetrized
    view, so trying several g builds it once.
    """
    sym = symmetrize(graph)
    if not is_weakly_connected(graph):
        warnings.warn(
            "graph is not weakly connected; phases are only comparable "
            "within a component", DegeneracyWarning, stacklevel=2)
    lap = build_magnetic_laplacian(sym, g)
    value, vec = smallest_eigenpair(lap)
    moduli = np.abs(vec)
    tiny = moduli < _TINY_COMPONENT
    theta = np.where(tiny, 0.0, np.angle(vec))
    if tiny.any():
        warnings.warn(
            f"{int(tiny.sum())} eigenvector component(s) have modulus below "
            f"{_TINY_COMPONENT:g}; their phase angles are set to 0",
            DegeneracyWarning, stacklevel=2)
    theta = np.mod(theta, TWO_PI)
    theta[theta >= TWO_PI] = 0.0
    return PhaseAssignment(theta=theta, g=float(g), smallest_eigenvalue=value)


def _squared_level_gaps(graph: DirectedGraph, h) -> np.ndarray:
    """(h_j - h_i - 1)^2 for each edge i -> j, in edge order; ``h`` holds
    one level per node."""
    h = np.asarray(h, dtype=float)
    if h.shape != (graph.n,):
        raise ValueError(f"h has length {h.size}, expected {graph.n}")
    src, dst = graph.edge_index.T
    return np.square(h[dst] - h[src] - 1.0)


def trophic_incoherence(graph: DirectedGraph, h) -> float:
    """Normalized squared deviation of edges from a unit level climb.

    sum_ij A_ij (h_j - h_i - 1)^2 / sum_ij A_ij, using weights directly
    when present.  Zero exactly for a perfect linear hierarchy.
    """
    gaps = _squared_level_gaps(graph, h)
    if graph.edge_count == 0:
        raise GraphStructureError("incoherence is undefined on an edgeless graph")
    w = graph.edge_weights if graph.is_weighted else np.ones(len(gaps))
    return float(np.sum(w * gaps) / np.sum(w))


def trophic_algorithm(graph: DirectedGraph) -> TrophicAssignment:
    """Solve for the levels that minimize trophic incoherence.

    The levels solve lam @ h = chi, where lam = diag(omega) - A - A^T with
    omega the total in+out weight per node, and chi is the in-minus-out
    imbalance: halved, diag(degrees) - wsym and -(row sums of alpha)/2 on
    the graph's symmetrized view, weights included.  lam is singular with
    the constants as kernel and chi orthogonal to them, so conjugate
    gradients find a solution, shifted so min(h) = 0.  Requires at least
    one edge and a weakly connected graph (otherwise levels are not
    comparable across components).
    """
    if graph.edge_count == 0:
        raise GraphStructureError("graph has no edges; levels are undefined")
    if not is_weakly_connected(graph):
        raise GraphStructureError(
            "graph is not weakly connected; extract a connected component "
            "(e.g. largest_wcc) before computing levels")
    sym = graph._symmetrized
    half_lam = sym.laplacian(sym.wsym.data)
    half_chi = -0.5 * np.ravel(sym.alpha.sum(axis=1))
    # every node of a connected graph has an edge, so degrees > 0
    h, _ = cg(half_lam, half_chi, rtol=_CG_RTOL, atol=0.0,
              maxiter=_CG_MAXITER_PER_NODE * sym.n, M=diags(1.0 / sym.degrees))
    residual = np.linalg.norm(half_lam @ h - half_chi)
    if residual > 1e-9 * (1.0 + np.linalg.norm(half_chi)):
        raise NumericalError(
            f"level solve residual {residual:.3e} exceeds tolerance")
    h = h - h.min()
    return TrophicAssignment(h=h, incoherence=trophic_incoherence(graph, h))
