import gc
import itertools
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import diags

from dirlap import (DEFAULT_G_CANDIDATES, DegeneracyWarning, DirectedGraph,
                    GraphStructureError, PRDRGParams, apply_ordering,
                    build_magnetic_laplacian, frustration,
                    gen_clustered_angles, is_weakly_connected, largest_scc,
                    largest_wcc, magnetic_algorithm, parse_edge_list,
                    prdrg_sample, quadratic_form, smallest_eigenpair,
                    symmetrize, trophic_algorithm, trophic_incoherence)
from dirlap import spectral
from dirlap.cli import main
from dirlap.graphs import _symmetrize
from helpers import (block_cycle_graph, build_trophic_system,
                     complex_frustration, count_view_builds,
                     dense_trophic_levels, level_fixtures, random_graph,
                     random_weakly_connected_graph,
                     reference_magnetic_laplacian, symmetrize_cases)

TWO_PI = 2 * np.pi


def three_cycle():
    return DirectedGraph(3, ((0, 1), (1, 2), (2, 0)))


class TestFrustration:
    def test_three_cycle_zero_at_matching_rotation(self):
        sym = symmetrize(three_cycle())
        theta = np.array([0.0, TWO_PI / 3, 2 * TWO_PI / 3])
        assert frustration(sym, theta, 1 / 3) == pytest.approx(0.0, abs=1e-12)

    def test_reciprocal_pair_zero_at_equal_angles(self):
        sym = symmetrize(DirectedGraph(2, ((0, 1), (1, 0))))
        for g in (0.0, 0.2, 0.5):
            assert frustration(sym, (0.0, 0.0), g) == pytest.approx(0.0, abs=1e-15)

    def test_single_edge_hand_value(self):
        # two ordered terms, each (1/2) * |1 - exp(-i*pi/2)|^2 = (1/2) * 2
        sym = symmetrize(DirectedGraph(2, ((0, 1),)))
        assert frustration(sym, (0.0, 0.0), 0.25) == pytest.approx(2.0, abs=1e-12)

    def test_invariant_under_global_rotation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            graph = random_graph(rng, 12, 0.3)
            sym = symmetrize(graph)
            theta = rng.uniform(0, TWO_PI, 12)
            g = rng.uniform(0, 0.5)
            base = frustration(sym, theta, g)
            shifted = frustration(sym, theta + rng.uniform(-10, 10), g)
            assert abs(base - shifted) <= 1e-10 * (1 + abs(base))

    def test_dimension_mismatch(self):
        sym = symmetrize(DirectedGraph(2, ((0, 1),)))
        with pytest.raises(ValueError):
            frustration(sym, (0.0,), 0.25)

    def test_matches_complex_oracle(self):
        # the real half-sum against one complex term per entry, weighted
        # views included
        rng = np.random.default_rng(31)
        for graph in symmetrize_cases(rng):
            sym = graph._symmetrized
            theta = rng.uniform(0, TWO_PI, graph.n)
            for g in (0.0, 0.2, 1 / 3, 0.5):
                assert frustration(sym, theta, g) == pytest.approx(
                    complex_frustration(sym, theta, g), rel=1e-12, abs=0.0)


class TestMagneticLaplacian:
    def test_single_edge_matrix(self):
        g = 0.2
        lap = build_magnetic_laplacian(symmetrize(DirectedGraph(2, ((0, 1),))), g)
        expected = np.array([
            [0.5, -np.exp(-1j * TWO_PI * g) / 2],
            [-np.exp(1j * TWO_PI * g) / 2, 0.5],
        ])
        np.testing.assert_allclose(lap.matrix.toarray(), expected, atol=1e-15)

    def test_g_zero_reciprocal_edge_is_standard_laplacian(self):
        lap = build_magnetic_laplacian(
            symmetrize(DirectedGraph(2, ((0, 1), (1, 0)))), 0.0)
        np.testing.assert_allclose(lap.matrix.toarray(), [[1, -1], [-1, 1]], atol=1e-15)

    def test_empty_graph_gives_zero_matrix(self):
        lap = build_magnetic_laplacian(symmetrize(DirectedGraph(3, ())), 0.3)
        assert not lap.matrix.toarray().any()

    def test_hermitian_and_positive_semidefinite(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            graph = random_graph(rng, int(rng.integers(2, 30)), 0.25)
            lap = build_magnetic_laplacian(symmetrize(graph), rng.uniform(0, 0.5))
            np.testing.assert_allclose(lap.matrix.toarray(), lap.matrix.toarray().conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(lap.matrix.toarray()).min() >= -1e-10

    def test_rejects_bad_rotation(self):
        sym = symmetrize(DirectedGraph(2, ((0, 1),)))
        with pytest.raises(ValueError):
            build_magnetic_laplacian(sym, 0.6)


class TestQuadraticForm:
    def test_zero_vector(self):
        lap = build_magnetic_laplacian(symmetrize(three_cycle()), 0.25)
        assert quadratic_form(lap, np.zeros(3, dtype=complex)) == 0.0

    def test_matches_half_frustration(self):
        # master identity: psi_j = exp(i theta_j) makes the form equal eta/2
        rng = np.random.default_rng(17)
        for _ in range(30):
            graph = random_graph(rng, int(rng.integers(2, 40)), 0.2)
            sym = symmetrize(graph)
            g = rng.uniform(0, 0.5)
            theta = rng.uniform(0, TWO_PI, graph.n)
            lap = build_magnetic_laplacian(sym, g)
            eta = frustration(sym, theta, g)
            form = quadratic_form(lap, np.exp(1j * theta))
            assert abs(form - eta / 2) <= 1e-10 * (1 + eta)

    def test_zero_on_matching_cycle_configuration(self):
        lap = build_magnetic_laplacian(symmetrize(three_cycle()), 1 / 3)
        psi = np.exp(1j * np.array([0.0, TWO_PI / 3, 2 * TWO_PI / 3]))
        assert quadratic_form(lap, psi) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        lap = build_magnetic_laplacian(symmetrize(three_cycle()), 0.25)
        with pytest.raises(ValueError):
            quadratic_form(lap, np.ones(2, dtype=complex))


class TestSmallestEigenpair:
    def test_zero_matrix(self):
        lap = build_magnetic_laplacian(symmetrize(DirectedGraph(3, ())), 0.2)
        with pytest.warns(DegeneracyWarning):
            value, vec = smallest_eigenpair(lap)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_path_laplacian_kernel(self):
        lap = build_magnetic_laplacian(
            symmetrize(DirectedGraph(2, ((0, 1), (1, 0)))), 0.0)
        value, vec = smallest_eigenpair(lap)
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(vec, [1 / np.sqrt(2), 1 / np.sqrt(2)],
                                   atol=1e-12)

    def test_three_cycle_matched_rotation_reaches_zero(self):
        # a zero quadratic form is attainable and eigenvalues are >= 0,
        # so the smallest eigenvalue must be 0
        lap = build_magnetic_laplacian(symmetrize(three_cycle()), 1 / 3)
        value, _ = smallest_eigenpair(lap)
        assert abs(value) <= 1e-10

    @pytest.mark.filterwarnings("ignore::dirlap.DegeneracyWarning")
    def test_residual_and_gauge(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            graph = random_graph(rng, int(rng.integers(2, 40)), 0.3)
            lap = build_magnetic_laplacian(symmetrize(graph), rng.uniform(0, 0.5))
            value, vec = smallest_eigenpair(lap)
            scale = max(np.linalg.norm(lap.matrix.toarray()), 1e-30)
            assert np.linalg.norm(lap.matrix.toarray() @ vec - value * vec) <= 1e-8 * scale
            assert np.linalg.norm(vec) == pytest.approx(1.0)
            anchor = 0 if abs(vec[0]) >= 1e-12 else int(np.argmax(np.abs(vec) >= 1e-12))
            assert vec[anchor].imag == pytest.approx(0.0, abs=1e-12)
            assert vec[anchor].real >= 0


class TestMagneticAlgorithm:
    def test_three_cycle_recovers_equal_spacing(self):
        # independent oracle: dense grid search of the frustration over
        # (theta_1, theta_2) with theta_0 = 0 confirms the minimizer set
        sym = symmetrize(three_cycle())
        steps = np.arange(0, 360) * TWO_PI / 360
        t1, t2 = np.meshgrid(steps, steps, indexing="ij")
        phase = np.stack([np.zeros_like(t1), t1, t2])
        rot = TWO_PI / 3
        # three unreciprocated edges 0->1->2->0, each wants +rot
        eta = ((2 - 2 * np.cos(phase[1] - phase[0] - rot))
               + (2 - 2 * np.cos(phase[2] - phase[1] - rot))
               + (2 - 2 * np.cos(phase[0] - phase[2] - rot)))
        best = np.unravel_index(np.argmin(eta), eta.shape)
        oracle = np.array([0.0, steps[best[0]], steps[best[1]]])
        assert frustration(sym, oracle, 1 / 3) <= 1e-10

        result = magnetic_algorithm(three_cycle(), 1 / 3)
        direct = np.array([0.0, TWO_PI / 3, 2 * TWO_PI / 3])
        reflected = np.mod(-direct, TWO_PI)
        match_direct = np.allclose(result.theta, direct, atol=1e-8)
        match_reflected = np.allclose(result.theta, reflected, atol=1e-8)
        assert match_direct or match_reflected
        # the oracle minimizer agrees with one orientation up to grid step
        assert (np.allclose(np.sort(oracle), np.sort(direct), atol=TWO_PI / 360)
                or np.allclose(np.sort(oracle), np.sort(reflected),
                               atol=TWO_PI / 360))

    def test_reciprocal_pair_equal_angles(self):
        result = magnetic_algorithm(DirectedGraph(2, ((0, 1), (1, 0))), 0.3)
        np.testing.assert_allclose(result.theta, [0.0, 0.0], atol=1e-10)

    def test_gauge_first_angle_zero(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            graph = random_graph(rng, 15, 0.3)
            result = magnetic_algorithm(graph, rng.uniform(0.05, 0.5))
            assert result.theta[0] == pytest.approx(0.0, abs=1e-12)
            assert ((result.theta >= 0) & (result.theta < TWO_PI)).all()

    def test_disconnected_warns(self):
        graph = DirectedGraph(4, ((0, 1), (1, 0)))
        with pytest.warns(DegeneracyWarning):
            magnetic_algorithm(graph, 0.25)

    def test_weighted_rejected(self):
        graph = DirectedGraph(2, ((0, 1),), weights=(0.5,))
        with pytest.raises(ValueError):
            magnetic_algorithm(graph, 0.25)


class TestSharedView:
    """Both algorithms read the one symmetrized view the graph keeps."""

    @pytest.fixture
    def builds(self, monkeypatch):
        return count_view_builds(monkeypatch)

    def test_magnetic_then_trophic_build_one_view(self, builds):
        graph = three_cycle()
        magnetic_algorithm(graph, 1 / 3)
        trophic_algorithm(graph)
        assert len(builds) == 1

    def test_weighted_levels_build_one_view(self, builds):
        graph = DirectedGraph(3, ((0, 1), (1, 2)), weights=(0.5, 0.25))
        first, second = trophic_algorithm(graph), trophic_algorithm(graph)
        np.testing.assert_array_equal(first.h, second.h)
        assert len(builds) == 1

    def test_view_released_with_graph(self):
        graph = three_cycle()
        magnetic_algorithm(graph, 1 / 3)
        view = weakref.ref(symmetrize(graph))
        del graph
        gc.collect()
        assert view() is None


class TestTrophicSystem:
    def test_single_edge(self):
        lam, chi, omega = build_trophic_system(DirectedGraph(2, ((0, 1),)))
        np.testing.assert_allclose(omega, [1, 1])
        np.testing.assert_allclose(chi, [-1, 1])
        np.testing.assert_allclose(lam, [[1, -1], [-1, 1]])

    def test_three_cycle_balanced(self):
        _, chi, _ = build_trophic_system(three_cycle())
        np.testing.assert_allclose(chi, [0, 0, 0])

    def test_weighted_edge(self):
        lam, chi, omega = build_trophic_system(
            DirectedGraph(2, ((0, 1),), weights=(0.5,)))
        np.testing.assert_allclose(omega, [0.5, 0.5])
        np.testing.assert_allclose(chi, [-0.5, 0.5])
        np.testing.assert_allclose(lam, [[0.5, -0.5], [-0.5, 0.5]])

    def test_zero_row_sums(self):
        rng = np.random.default_rng(37)
        graph = random_graph(rng, 20, 0.2)
        lam, _, _ = build_trophic_system(graph)
        np.testing.assert_allclose(lam.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(lam, lam.T)


class TestTrophicAlgorithm:
    def test_single_edge_exact_levels(self):
        result = trophic_algorithm(DirectedGraph(2, ((0, 1),)))
        np.testing.assert_allclose(result.h, [0.0, 1.0], atol=1e-12)
        assert result.incoherence == pytest.approx(0.0, abs=1e-12)

    def test_three_cycle_flat_levels(self):
        result = trophic_algorithm(three_cycle())
        np.testing.assert_allclose(result.h, [0.0, 0.0, 0.0], atol=1e-10)
        assert result.incoherence == pytest.approx(1.0, abs=1e-12)

    def test_disconnected_rejected(self):
        graph = DirectedGraph(4, ((0, 1), (2, 3)))
        with pytest.raises(GraphStructureError, match="connected"):
            trophic_algorithm(graph)

    def test_no_edges_rejected(self):
        with pytest.raises(GraphStructureError, match="edge"):
            trophic_algorithm(DirectedGraph(1, ()))

    def test_weighted_graph_supported(self):
        graph = DirectedGraph(2, ((0, 1),), weights=(0.5,))
        result = trophic_algorithm(graph)
        np.testing.assert_allclose(result.h, [0.0, 1.0], atol=1e-10)

    def test_solution_is_stationary_and_minimal(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            graph = random_weakly_connected_graph(rng, int(rng.integers(2, 60)))
            result = trophic_algorithm(graph)
            assert result.h.min() == pytest.approx(0.0, abs=1e-12)
            lam, chi, _ = build_trophic_system(graph)
            assert (np.linalg.norm(lam @ result.h - chi)
                    <= 1e-9 * (1 + np.linalg.norm(chi)))
            base = trophic_incoherence(graph, result.h)
            for _ in range(5):
                bump = result.h + 0.01 * rng.standard_normal(graph.n)
                assert trophic_incoherence(graph, bump) >= base - 1e-12


@st.composite
def weakly_connected_graphs(draw):
    """A random weakly connected graph on 2-60 nodes, weighted or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = random_weakly_connected_graph(
        rng, draw(st.integers(2, 60)), draw(st.sampled_from([0.0, 0.05, 0.3])))
    if not draw(st.booleans()):
        return graph
    return DirectedGraph(graph.n, graph.edge_index,
                         weights=rng.uniform(0.01, 0.99, graph.edge_count))


class TestLevelSolveOracle:
    """Conjugate-gradient levels against the dense bordered solve."""

    def test_fixtures(self):
        for graph, _ in level_fixtures():
            if is_weakly_connected(graph):
                np.testing.assert_allclose(trophic_algorithm(graph).h,
                                           dense_trophic_levels(graph),
                                           rtol=0, atol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(weakly_connected_graphs())
    def test_random_graphs(self, graph):
        np.testing.assert_allclose(trophic_algorithm(graph).h,
                                   dense_trophic_levels(graph), rtol=0, atol=1e-10)

    def test_long_path_levels_are_exact(self):
        n = 2000
        path = DirectedGraph(n, np.column_stack((np.arange(n - 1), np.arange(1, n))))
        np.testing.assert_allclose(trophic_algorithm(path).h, np.arange(n),
                                   rtol=0, atol=1e-9)

    def test_sparse_solve_memory(self):
        graph = block_cycle_graph(np.random.default_rng(71), 5, 800)
        tracemalloc.start()
        try:
            trophic_algorithm(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestTrophicIncoherence:
    def test_perfect_edge(self):
        graph = DirectedGraph(2, ((0, 1),))
        assert trophic_incoherence(graph, (0.0, 1.0)) == 0.0

    def test_flat_levels(self):
        graph = DirectedGraph(2, ((0, 1),))
        assert trophic_incoherence(graph, (0.0, 0.0)) == 1.0

    def test_reciprocal_pair_flat(self):
        graph = DirectedGraph(2, ((0, 1), (1, 0)))
        assert trophic_incoherence(graph, (0.0, 0.0)) == 1.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(43)
        graph = random_graph(rng, 15, 0.3)
        h = rng.standard_normal(15)
        base = trophic_incoherence(graph, h)
        for shift in (-10.0, -1.0, 0.5, 10.0):
            assert abs(trophic_incoherence(graph, h + shift) - base) <= 1e-12

    def test_empty_edges_rejected(self):
        with pytest.raises(GraphStructureError):
            trophic_incoherence(DirectedGraph(2, ()), (0.0, 0.0))


class TestBruteForceAgreement:
    """On clean structured instances, exhaustive search over discrete
    assignments induces the same node ordering as the spectral relaxation."""

    def test_directed_cycle_ordering_matches_exhaustive_search(self):
        n = 6
        graph = DirectedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))
        sym = symmetrize(graph)
        values = TWO_PI * np.arange(n) / n
        best_eta, best_perms = np.inf, []
        for perm in itertools.permutations(range(n)):
            eta = frustration(sym, values[list(perm)], 1 / n)
            if eta < best_eta - 1e-9:
                best_eta, best_perms = eta, [perm]
            elif eta <= best_eta + 1e-9:
                best_perms.append(perm)
        assert best_eta <= 1e-10
        result = magnetic_algorithm(graph, 1 / n)
        spectral_ranks = tuple(int(r) for r in apply_ordering(graph, result.theta))
        # the exhaustive minimizers are exactly the rotations/reflections of
        # the cycle order; the spectral ordering must be one of them
        minimizer_orders = set()
        for perm in best_perms:
            ranks = tuple(int(r) for r in np.argsort(perm, kind="stable"))
            minimizer_orders.add(ranks)
        assert spectral_ranks in minimizer_orders

    def test_directed_path_ordering_matches_exhaustive_search(self):
        n = 5
        graph = DirectedGraph(n, tuple((i, i + 1) for i in range(n - 1)))
        values = np.arange(1.0, n + 1.0)
        best_cost, best_perm = np.inf, None
        for perm in itertools.permutations(range(n)):
            h = values[list(perm)]
            cost = sum((h[j] - h[i] - 1) ** 2 for i, j in graph.edge_index.tolist())
            if cost < best_cost:
                best_cost, best_perm = cost, perm
        assert best_cost == pytest.approx(0.0, abs=1e-12)
        assert best_perm == tuple(range(n))
        result = trophic_algorithm(graph)
        np.testing.assert_allclose(result.h, np.arange(n), atol=1e-9)
        assert apply_ordering(graph, result.h).tolist() == list(range(n))


# ---------------------------------------------------------------------------
# the bottom eigenpair's fast paths against the full dense spectrum


def gauge_fixed(vec):
    anchor = 0 if abs(vec[0]) >= 1e-12 else int(np.argmax(np.abs(vec) >= 1e-12))
    return vec * (np.conj(vec[anchor]) / abs(vec[anchor]))


def spectral_scale(lap):
    """Gershgorin bound on the spectral radius: twice the largest degree."""
    return float(abs(lap.matrix).sum(axis=1).max())


def planted_pair_graph(clusters, size, seed):
    theta = gen_clustered_angles(clusters, size, 0.2, seed)
    graph = prdrg_sample(PRDRGParams(theta, 5.0, 1 / clusters), seed + 100)
    return largest_scc(graph)[0]


def sparse_block_graph(blocks, size, seed):
    return largest_scc(block_cycle_graph(np.random.default_rng(seed), blocks, size))[0]


LARGE_GRAPHS = {
    "pair-5x100": lambda: planted_pair_graph(5, 100, 1),
    "pair-4x250": lambda: planted_pair_graph(4, 250, 2),
    "blocks-5x100": lambda: sparse_block_graph(5, 100, 3),
}


class TestBottomEigenpairOracle:
    @pytest.mark.parametrize("name", [
        "pair-5x100", "blocks-5x100",
        pytest.param("pair-4x250", marks=pytest.mark.slow)])
    def test_lobpcg_matches_full_dense(self, name):
        graph = LARGE_GRAPHS[name]()
        assert graph.n >= spectral._LOBPCG_MIN_NODES
        sym = symmetrize(graph)
        for g in DEFAULT_G_CANDIDATES:
            lap = build_magnetic_laplacian(sym, g)
            certified = spectral._lobpcg_pair(lap.matrix)
            assert certified is not None, f"g={g}: LOBPCG fell back"
            value, vec = smallest_eigenpair(lap)
            assert value == certified[0]
            spectrum, vectors = np.linalg.eigh(lap.matrix.toarray())
            assert abs(value - spectrum[0]) <= 1e-9 * spectral_scale(lap)
            assert np.linalg.norm(vec - gauge_fixed(vectors[:, 0])) <= 1e-8

    def test_partial_dense_matches_full_below_cutoff(self):
        rng = np.random.default_rng(59)
        for n in (5, 20, 80, 200, spectral._LOBPCG_MIN_NODES - 1):
            graph = random_weakly_connected_graph(rng, n, extra_p=4.0 / n)
            lap = build_magnetic_laplacian(symmetrize(graph), rng.uniform(0.05, 0.5))
            value, vec = smallest_eigenpair(lap)
            spectrum, vectors = np.linalg.eigh(lap.matrix.toarray())
            assert abs(value - spectrum[0]) <= 1e-12 * spectral_scale(lap)
            assert np.linalg.norm(vec - gauge_fixed(vectors[:, 0])) <= 1e-10

    @staticmethod
    def two_copies(graph):
        n = graph.n
        return DirectedGraph(2 * n, np.vstack((graph.edge_index, graph.edge_index + n)))

    # edgeless: nothing for LOBPCG to precondition; two directed 250-cycles:
    # LOBPCG does not converge; two copies of one random graph: it converges
    # to two equal Ritz values
    @pytest.mark.parametrize("name, g, multiplicity", [
        ("edgeless", 0.2, 500), ("two-cycles", 0.2, 2), ("two-cycles", 1 / 3, 2),
        ("two-copies", 0.2, 2), ("two-copies", 1 / 3, 2)])
    def test_tie_above_cutoff_matches_full_dense(self, name, g, multiplicity):
        graph = {
            "edgeless": lambda: DirectedGraph(500, ()),
            "two-cycles": lambda: self.two_copies(
                DirectedGraph(250, tuple((i, (i + 1) % 250) for i in range(250)))),
            "two-copies": lambda: self.two_copies(
                random_graph(np.random.default_rng(67), 250, 0.05)),
        }[name]()
        lap = build_magnetic_laplacian(symmetrize(graph), g)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert spectral._lobpcg_pair(lap.matrix) is None
            value, vec = smallest_eigenpair(lap)
        assert [type(w.message) for w in caught] == [DegeneracyWarning]
        assert f"multiplicity {multiplicity} " in str(caught[0].message)
        spectrum, vectors = np.linalg.eigh(lap.matrix.toarray())
        tied = int(np.sum(spectrum - spectrum[0] < 1e-10))
        assert tied == multiplicity
        assert value == spectrum[tied - 1]
        np.testing.assert_array_equal(vec, gauge_fixed(vectors[:, tied - 1]))

    def test_unconverged_lobpcg_falls_back(self, monkeypatch):
        graph = LARGE_GRAPHS["blocks-5x100"]()
        lap = build_magnetic_laplacian(symmetrize(graph), 0.2)
        monkeypatch.setattr(spectral, "_LOBPCG_MAXITER", 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert spectral._lobpcg_pair(lap.matrix) is None
            value, vec = smallest_eigenpair(lap)
        assert caught == []
        spectrum, vectors = np.linalg.eigh(lap.matrix.toarray())
        assert abs(value - spectrum[0]) <= 1e-12 * spectral_scale(lap)
        assert np.linalg.norm(vec - gauge_fixed(vectors[:, 0])) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_gauge_node_angle_is_exactly_zero_on_lobpcg(self, seed):
        # the rotation that fixes the gauge leaves rounding of ~1e-17 in the
        # anchor's imaginary part of a LOBPCG vector
        rng = np.random.default_rng(seed)
        graph = random_weakly_connected_graph(rng, 250 + 10 * seed, extra_p=4.0 / 250)
        for g in (0.2, 1 / 3):
            lap = build_magnetic_laplacian(symmetrize(graph), g)
            assert spectral._lobpcg_pair(lap.matrix) is not None
            _, vec = smallest_eigenpair(lap)
            assert vec[0].imag == 0.0 and vec[0].real > 0.0
            assert magnetic_algorithm(graph, g).theta[0] == 0.0

    def test_same_phases_whatever_the_candidate_order(self):
        graph = LARGE_GRAPHS["blocks-5x100"]()
        first = [magnetic_algorithm(graph, g).theta for g in DEFAULT_G_CANDIDATES]
        again = [magnetic_algorithm(graph, g).theta
                 for g in reversed(DEFAULT_G_CANDIDATES)][::-1]
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)


def assert_bit_equal(matrix, reference):
    assert matrix.data.dtype == reference.data.dtype
    assert matrix.data.tobytes() == reference.data.tobytes()
    np.testing.assert_array_equal(matrix.indices, reference.indices)
    np.testing.assert_array_equal(matrix.indptr, reference.indptr)


class TestLaplacianPattern:
    """The Laplacian build against a reference sparse sum."""

    @pytest.mark.parametrize("name", sorted(LARGE_GRAPHS))
    def test_large_graphs(self, name):
        sym = symmetrize(LARGE_GRAPHS[name]())
        for g in DEFAULT_G_CANDIDATES:
            assert_bit_equal(build_magnetic_laplacian(sym, g).matrix,
                             reference_magnetic_laplacian(sym, g))

    def test_random_graphs(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            graph = random_graph(rng, int(rng.integers(2, 40)),
                                 rng.choice([0.02, 0.2, 0.6]))
            weighted = DirectedGraph(graph.n, graph.edge_index,
                                     weights=rng.uniform(0.01, 0.99, graph.edge_count))
            for sym in (symmetrize(graph), _symmetrize(weighted)):
                for g in DEFAULT_G_CANDIDATES + (0.0, rng.uniform(0, 0.5)):
                    assert_bit_equal(build_magnetic_laplacian(sym, g).matrix,
                                     reference_magnetic_laplacian(sym, g))
                if graph.edge_count:
                    # the level solve builds diag(degrees) - wsym
                    assert_bit_equal(sym.laplacian(sym.wsym.data),
                                     (diags(sym.degrees) - sym.wsym).tocsr())

    def test_edgeless_graph(self):
        sym = symmetrize(DirectedGraph(5, ()))
        for g in DEFAULT_G_CANDIDATES:
            matrix = build_magnetic_laplacian(sym, g).matrix
            assert matrix.nnz == 0
            assert_bit_equal(matrix, reference_magnetic_laplacian(sym, g))


def assert_certified_matches_full_dense(lap):
    certified = spectral._lobpcg_pair(lap.matrix)
    assert certified is not None, f"g={lap.g}: LOBPCG fell back"
    value, vec = smallest_eigenpair(lap)
    assert value == certified[0]
    spectrum, vectors = np.linalg.eigh(lap.matrix.toarray())
    assert abs(value - spectrum[0]) <= 1e-9 * spectral_scale(lap)
    assert np.linalg.norm(vec - gauge_fixed(vectors[:, 0])) <= 1e-8


class CountingMatrix:
    """A matrix that counts its products with blocks of vectors."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0
        self.shape = matrix.shape

    def diagonal(self):
        return self.matrix.diagonal()

    def __matmul__(self, block):
        self.products += 1
        return self.matrix @ block


class RecordingMatrix(CountingMatrix):
    """A counting matrix that keeps its last product and that product's input."""

    def __matmul__(self, block):
        self.last = block, super().__matmul__(block)
        return self.last[1]


# graphs between the LOBPCG cutoff and the former one, 400 nodes
MIDSIZE_GRAPHS = {
    "pair-5x50": lambda: planted_pair_graph(5, 50, 4),
    "blocks-5x70": lambda: sparse_block_graph(5, 70, 5),
    "random-380": lambda: random_weakly_connected_graph(
        np.random.default_rng(89), 380, extra_p=4.0 / 380),
}


class TestBlockLobpcg:
    """Harder inputs for the block solver, against the full dense spectrum."""

    @pytest.mark.parametrize("name", sorted(MIDSIZE_GRAPHS))
    def test_graphs_above_the_cutoff(self, name):
        graph = MIDSIZE_GRAPHS[name]()
        assert spectral._LOBPCG_MIN_NODES <= graph.n < 400
        sym = symmetrize(graph)
        for g in DEFAULT_G_CANDIDATES:
            assert_certified_matches_full_dense(build_magnetic_laplacian(sym, g))

    @pytest.mark.parametrize("name", sorted(MIDSIZE_GRAPHS) + sorted(LARGE_GRAPHS))
    def test_accepted_solves_meet_the_residual_bar(self, name):
        # the last product is the check's, of the two normalized Ritz
        # vectors: the bottom residual meets the bar, and the second Ritz
        # value less its residual clears the bottom one by the tie margin
        graph = {**MIDSIZE_GRAPHS, **LARGE_GRAPHS}[name]()
        sym = symmetrize(graph)
        for g in DEFAULT_G_CANDIDATES:
            lap = build_magnetic_laplacian(sym, g)
            matrix = RecordingMatrix(lap.matrix)
            certified = spectral._lobpcg_pair(matrix)
            assert certified is not None
            vectors, image = matrix.last
            assert vectors.shape == (graph.n, 2)
            np.testing.assert_array_equal(vectors[:, 0], certified[1])
            values = np.einsum("ij,ij->j", vectors.conj(), image).real
            residuals = np.linalg.norm(image - vectors * values, axis=0)
            scale = spectral_scale(lap)
            assert residuals[0] <= spectral._LOBPCG_ACCEPT * scale
            assert values[1] - values[0] - residuals[1] > spectral._LOBPCG_TIE_MARGIN * scale

    @staticmethod
    def generated_level_graph(folder, seed):
        # the largest WCC of a `dirlap generate` level-model file, as read back
        path = folder / f"levels-{seed}.edges"
        assert main(["generate", "--model", "trophic", "--clusters", "5",
                     "--cluster-size", "100", "--noise", "0.2", "--gamma", "5",
                     "--seed", str(seed), "--out", str(path)]) == 0
        return largest_wcc(parse_edge_list(path.read_text()).graph)[0]

    # with P refused at every step, the solve runs on [X, W] alone, as after
    # a failed Cholesky of the Gram of [X, W, P]
    @pytest.mark.parametrize("drop_p", [False, True], ids=["with-p", "p-dropped"])
    @pytest.mark.parametrize("seed, g", [(0, 1 / 5), (6, 1 / 5), (12, 1 / 4),
                                         (16, 1 / 4), (18, 1 / 3)])
    def test_level_model_graphs(self, tmp_path, monkeypatch, seed, g, drop_p):
        graph = self.generated_level_graph(tmp_path, seed)
        assert graph.n >= spectral._LOBPCG_MIN_NODES
        refused = []
        if drop_p:
            ritz = spectral._rayleigh_ritz

            def without_p(basis, image):
                if basis.shape[1] > 2 * spectral._LOBPCG_BLOCK:
                    refused.append(basis.shape[1])
                    return None
                return ritz(basis, image)

            monkeypatch.setattr(spectral, "_rayleigh_ritz", without_p)
        assert_certified_matches_full_dense(build_magnetic_laplacian(symmetrize(graph), g))
        assert bool(refused) == drop_p

    def test_deep_line(self):
        graph = largest_wcc(block_cycle_graph(np.random.default_rng(79), 30, 20,
                                              cyclic=False))[0]
        assert graph.n >= spectral._LOBPCG_MIN_NODES
        sym = symmetrize(graph)
        for g in DEFAULT_G_CANDIDATES:
            assert_certified_matches_full_dense(build_magnetic_laplacian(sym, g))

    @staticmethod
    def deep_line_95(blocks, size, seed):
        # 95 % of the edges run forward along a line of blocks: the bottom
        # residual plateaus for tens of steps before it converges
        return largest_wcc(block_cycle_graph(np.random.default_rng(seed), blocks, size,
                                             forward_share=0.95, cyclic=False))[0]

    def test_plateau_on_a_long_line_converges(self):
        graph = self.deep_line_95(30, 300, 0)
        assert graph.n == 9000
        sym = symmetrize(graph)
        for g in DEFAULT_G_CANDIDATES:
            lap = build_magnetic_laplacian(sym, g)
            certified = spectral._lobpcg_pair(lap.matrix)
            assert certified is not None, f"g={g}: LOBPCG fell back"
            value, vec = certified
            residual = np.linalg.norm(lap.matrix @ vec - value * vec)
            assert residual <= 1e-11 * spectral_scale(lap)

    @pytest.mark.slow
    def test_line_certified_against_full_dense(self):
        graph = self.deep_line_95(30, 34, 0)
        assert graph.n == 1020
        sym = symmetrize(graph)
        for g in DEFAULT_G_CANDIDATES:
            assert_certified_matches_full_dense(build_magnetic_laplacian(sym, g))

    @pytest.mark.parametrize("seed", [4, 7])
    def test_bottom_pair_certified_in_few_steps(self, seed):
        # the second pair is asked only to clear the tie margin, not to
        # converge: the former stop rule took 101 and 105 products here
        graph = largest_scc(block_cycle_graph(np.random.default_rng(seed), 5, 200))[0]
        matrix = CountingMatrix(build_magnetic_laplacian(symmetrize(graph), 1 / 5).matrix)
        assert spectral._lobpcg_pair(matrix) is not None
        assert matrix.products <= 60

    @pytest.mark.parametrize("g", [0.2, 1 / 3])
    def test_stalled_solve_gives_up_early(self, g):
        # two disjoint directed 250-cycles: the bottom eigenvalue is double
        # and close to the next, and the residuals stall far above the bar
        cycle = [(i, (i + 1) % 250) for i in range(250)]
        graph = DirectedGraph(500, cycle + [(i + 250, j + 250) for i, j in cycle])
        matrix = CountingMatrix(build_magnetic_laplacian(symmetrize(graph), g).matrix)
        assert spectral._lobpcg_pair(matrix) is None
        assert matrix.products <= 5 * spectral._LOBPCG_STALL

    def test_rank_deficient_basis_refused(self):
        rng = np.random.default_rng(83)
        basis = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        basis[:, 3] = basis[:, 0] + 1e-12 * basis[:, 1]
        assert spectral._rayleigh_ritz(basis, basis) is None
        assert spectral._rayleigh_ritz(basis[:, :3], basis[:, :3]) is not None


# ---------------------------------------------------------------------------
# metamorphic relations of the phases, on both sides of the LOBPCG cutoff


def assert_equal_up_to_rotation(a, b, atol=1e-7):
    """Angle vectors that differ by one global rotation (the gauge)."""
    turn = np.exp(1j * (np.asarray(b) - np.asarray(a)))
    np.testing.assert_allclose(turn, turn[0], atol=atol)


def relabelled(graph, perm):
    return DirectedGraph(graph.n, np.asarray(perm)[graph.edge_index])


def reversed_graph(graph):
    return DirectedGraph(graph.n, graph.edge_index[:, ::-1])


def check_metamorphic(graph, g, perm):
    theta = magnetic_algorithm(graph, g).theta
    # node i of graph is node perm[i] of the relabelled one
    moved = magnetic_algorithm(relabelled(graph, perm), g).theta
    assert_equal_up_to_rotation(theta, moved[perm])
    # reversing every edge conjugates the Laplacian, so theta -> -theta
    mirrored = magnetic_algorithm(reversed_graph(graph), g).theta
    assert_equal_up_to_rotation(-theta, mirrored)


@st.composite
def connected_small_graphs(draw):
    """A randomly oriented spanning tree plus extra edges, with a relabelling."""
    n = draw(st.integers(3, 40))
    edges = set()
    for k in range(1, n):
        parent = draw(st.integers(0, k - 1))
        edges.add((parent, k) if draw(st.booleans()) else (k, parent))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    edges.update((i, j) for i, j in extra if i != j)
    perm = np.array(draw(st.permutations(range(n))))
    return DirectedGraph(n, tuple(edges)), perm


def well_separated(graph, g):
    """A simple bottom eigenvalue and no vanishing component, so the
    phases are unique up to the gauge."""
    lap = build_magnetic_laplacian(symmetrize(graph), g)
    spectrum, vectors = np.linalg.eigh(lap.matrix.toarray())
    return (spectrum[1] - spectrum[0] > 1e-6 * spectral_scale(lap)
            and np.abs(vectors[:, 0]).min() > 1e-6)


class TestMetamorphicPhases:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(connected_small_graphs(), st.sampled_from(DEFAULT_G_CANDIDATES))
    def test_small_graphs(self, graph_and_perm, g):
        graph, perm = graph_and_perm
        assume(well_separated(graph, g))
        check_metamorphic(graph, g, perm)

    @pytest.mark.parametrize("name", ["pair-5x100", "blocks-5x100"])
    def test_large_graphs(self, name):
        graph = LARGE_GRAPHS[name]()
        assert graph.n >= spectral._LOBPCG_MIN_NODES
        perm = np.random.default_rng(61).permutation(graph.n)
        for g in (1 / 2, 1 / 5):
            check_metamorphic(graph, g, perm)
