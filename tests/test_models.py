import itertools
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from dirlap import (DirectedGraph, KernelModel, NumericalError, PRDRGParams,
                    TrophicParams, build_magnetic_laplacian, frustration,
                    gen_clustered_angles, gen_trophic_levels, kernel_loglik,
                    magnetic_algorithm, parse_edge_list, prdrg_expected_edges,
                    prdrg_loglik, prdrg_pair_probs, prdrg_sample,
                    quadratic_form, serialize_edge_list, symmetrize,
                    trophic_algorithm,
                    trophic_edge_prob, trophic_expected_edges,
                    trophic_loglik, trophic_sample, weighted_trophic_logdensity)
from dirlap.models import (_chebyshev_points, _level_rows, _LevelModel,
                           _LevelPairSums, _pair_rows, _PairModel,
                           _WeightedLevelModel, make_prdrg_loglik,
                           make_trophic_loglik)
from helpers import (adjacency, barycentric_level_weights, block_cycle_graph,
                     deep_hierarchy, direct_bernoulli_loglik,
                     direct_trophic_expected_edges, exact_prdrg_expected_edges,
                     exact_prdrg_loglik, level_fixtures,
                     masked_bernoulli_loglik, masked_trophic_expected_edges,
                     random_graph)

TWO_PI = 2 * np.pi
FOOD_WEB = Path(__file__).parent / "fixtures" / "food_web_scc.edges"
# the fit's default 32-point grid, plus a rate that needs more Fourier modes
ORACLE_GAMMAS = [*np.geomspace(1e-3, 50.0, 32), 1000.0]


def central_differences(f, x):
    """((f'(x), noise), (f''(x), noise)) by five-point central differences
    with step min(x/5, 1e-3), each with a floor for the rounding of f that
    the differences amplify (1e-12 of the largest |f| sampled)."""
    step = min(0.2 * x, 1e-3)
    f2, f1, f0, fm1, fm2 = values = [f(x + k * step) for k in (2, 1, 0, -1, -2)]
    first = (-f2 + 8.0 * f1 - 8.0 * fm1 + fm2) / (12.0 * step)
    second = (-f2 + 16.0 * f1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * step ** 2)
    noise = 1e-12 * max(map(abs, values))
    return (first, noise / step), (second, noise / step ** 2)


def naive_prdrg_loglik(graph, theta, gamma, g):
    """Literal product-form likelihood, safe only for small gamma."""
    a = adjacency(graph)
    total = 0.0
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            beta = theta[i] - theta[j]
            masses = {
                (1, 1): 1.0,
                (1, 0): math.exp(gamma * (1 - 2 * math.cos(beta)
                                          + math.cos(beta + TWO_PI * g))),
                (0, 1): math.exp(gamma * (1 - 2 * math.cos(beta)
                                          + math.cos(beta - TWO_PI * g))),
                (0, 0): math.exp(gamma * (2 - 2 * math.cos(beta))),
            }
            z = sum(masses.values())
            total += math.log(masses[(int(a[i, j]), int(a[j, i]))] / z)
    return total


def naive_trophic_loglik(graph, h, gamma):
    a = adjacency(graph)
    total = 0.0
    for i in range(graph.n):
        for j in range(graph.n):
            if i == j:
                continue
            f = 1.0 / (1.0 + math.exp(gamma * (h[j] - h[i] - 1.0) ** 2))
            total += math.log(f) if a[i, j] else math.log(1.0 - f)
    return total


class TestPairProbs:
    def test_gamma_zero_gives_quarters(self):
        probs = prdrg_pair_probs(1.3, 0.4, 0.0, 0.25)
        assert probs == (0.25, 0.25, 0.25, 0.25)

    def test_hand_value_beta_zero(self):
        # beta = 0, g = 1/4: cos(+-pi/2) = 0, so the forward/backward
        # exponents are -gamma and the reciprocal/none exponents are 0
        den = 2.0 + 2.0 * math.exp(-1.0)
        expected = (1 / den, math.exp(-1.0) / den, math.exp(-1.0) / den, 1 / den)
        probs = prdrg_pair_probs(0.7, 0.7, 1.0, 0.25)
        np.testing.assert_allclose(probs, expected, rtol=1e-14)

    def test_argument_swap_exchanges_directions(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ti, tj = rng.uniform(0, TWO_PI, 2)
            gamma = rng.uniform(0, 5)
            g = rng.uniform(0, 0.5)
            f1, q1, l1, n1 = prdrg_pair_probs(ti, tj, gamma, g)
            f2, q2, l2, n2 = prdrg_pair_probs(tj, ti, gamma, g)
            assert f1 == pytest.approx(f2, rel=1e-12)
            assert n1 == pytest.approx(n2, rel=1e-12)
            assert q1 == pytest.approx(l2, rel=1e-12)
            assert l1 == pytest.approx(q2, rel=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            probs = prdrg_pair_probs(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI),
                                     rng.uniform(0, 50), rng.uniform(0, 0.5))
            assert abs(sum(probs) - 1.0) <= 1e-12
            assert all(p >= 0 for p in probs)

    def test_disconnection_always_most_likely(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            f, q, l, none = prdrg_pair_probs(rng.uniform(0, TWO_PI),
                                             rng.uniform(0, TWO_PI),
                                             rng.uniform(0, 20),
                                             rng.uniform(0, 0.5))
            assert none >= f - 1e-15
            assert none >= q - 1e-15
            assert none >= l - 1e-15

    def test_large_gamma_no_overflow(self):
        probs = prdrg_pair_probs(0.0, np.pi, 50.0, 0.5)
        assert all(np.isfinite(probs))
        assert abs(sum(probs) - 1.0) <= 1e-12

    def test_expected_count_is_the_pair_sums_row(self):
        # 2f + q + l of one pair is the term the expected-count pair sum adds
        rng = np.random.default_rng(8)
        for _ in range(100):
            beta, gamma, g = rng.uniform(-TWO_PI, TWO_PI), rng.uniform(0, 50), rng.uniform(0, 0.5)
            f, q, l, _ = prdrg_pair_probs(beta, 0.0, gamma, g)
            row = _pair_rows(gamma, g, expected=True, derivatives=False)(np.array([beta]))
            assert 2 * f + q + l == pytest.approx(row[0, 0], rel=1e-13)


class TestPrdrgLoglik:
    def test_two_node_empty_graph(self):
        graph = DirectedGraph(2, ())
        params = PRDRGParams(np.zeros(2), 0.0, 0.25)
        assert prdrg_loglik(graph, params) == pytest.approx(math.log(0.25))

    def test_gamma_zero_counts_pairs(self):
        rng = np.random.default_rng(8)
        graph = random_graph(rng, 9, 0.3)
        params = PRDRGParams(rng.uniform(0, TWO_PI, 9), 0.0, 1 / 3)
        expected = math.comb(9, 2) * math.log(0.25)
        assert prdrg_loglik(graph, params) == pytest.approx(expected, rel=1e-12)

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            graph = random_graph(rng, 4, 0.4)
            theta = rng.uniform(0, TWO_PI, 4)
            gamma = rng.uniform(0, 3)
            g = rng.uniform(0, 0.5)
            ours = prdrg_loglik(graph, PRDRGParams(theta, gamma, g))
            oracle = naive_prdrg_loglik(graph, theta, gamma, g)
            assert ours == pytest.approx(oracle, rel=1e-10)

    def test_weighted_rejected(self):
        graph = DirectedGraph(2, ((0, 1),), weights=(0.5,))
        with pytest.raises(ValueError):
            prdrg_loglik(graph, PRDRGParams(np.zeros(2), 1.0, 0.25))

    def test_observed_excess_is_one_cosine_per_edge(self):
        # an unreciprocated edge gives cos(beta + 2*pi*g) - 1 and each edge
        # of a reciprocated pair cos(beta) - 1; the slope sums the view's
        # pairs instead, so only the summation order differs
        rng = np.random.default_rng(12)
        graph = random_graph(rng, 40, 0.2)
        src, dst = graph.edge_index.T
        reciprocated = adjacency(graph)[dst, src] != 0
        assert reciprocated.any() and not reciprocated.all()
        theta = rng.uniform(0, TWO_PI, graph.n)
        beta = theta[src] - theta[dst]
        for g in (0.0, 0.2, 1 / 3, 0.5):
            two_cosines = np.where(reciprocated, np.cos(beta), np.cos(beta + TWO_PI * g))
            assert _PairModel(theta, g, graph).slope == pytest.approx(
                float(np.sum(two_cosines - 1.0)), rel=1e-13)

    def test_observed_excess_is_minus_the_magnetic_quadratic_form(self):
        # the likelihood's edge term is -psi^H L psi = -frustration / 2 for
        # psi = exp(i theta), the quantity the magnetic algorithm minimizes
        rng = np.random.default_rng(14)
        graph = random_graph(rng, 40, 0.2)
        theta = rng.uniform(0, TWO_PI, graph.n)
        sym = symmetrize(graph)
        for g in (0.0, 0.2, 1 / 3, 0.37, 0.5):
            form = quadratic_form(build_magnetic_laplacian(sym, g), np.exp(1j * theta))
            slope = _PairModel(theta, g, graph).slope
            assert slope == pytest.approx(-form, rel=1e-12)
            assert slope == -frustration(sym, theta, g) / 2

    def test_edgeless_slope_is_positive_zero(self):
        for n in (0, 1, 3):
            slope = _PairModel(np.zeros(n), 0.25, DirectedGraph(n, ())).slope
            assert slope == 0.0 and math.copysign(1.0, slope) == 1.0

    def test_theta_length_checked(self):
        with pytest.raises(ValueError, match="theta has length 2, expected 3"):
            _PairModel(np.zeros(2), 0.25, DirectedGraph(3, ((0, 1),)))


def assert_pair_sums_match_oracle(graph, theta, g, gammas=ORACLE_GAMMAS):
    # the Fourier sum's rounding error is absolute (about eps * n^2 times the
    # largest pair term), so a sum that is tiny next to that, as for one pair
    # at a large gamma, gets a small absolute floor
    loglik = make_prdrg_loglik(graph, theta, g)
    floor = 1e-12 * graph.n
    for gamma in gammas:
        exact = exact_prdrg_loglik(graph, theta, gamma, g)
        assert loglik(gamma) == pytest.approx(exact, rel=1e-12, abs=floor)
        exact = exact_prdrg_expected_edges(theta, gamma, g)
        assert prdrg_expected_edges(theta, gamma, g) == pytest.approx(
            exact, rel=1e-12, abs=floor)


class TestFourierPairSums:
    """The Fourier-space pair sums against the O(n^2) pair-by-pair oracle."""

    @pytest.mark.parametrize("g", [1 / 2, 1 / 3, 1 / 5])
    def test_food_web_matches_oracle(self, g):
        graph = parse_edge_list(FOOD_WEB.read_text(encoding="utf-8")).graph
        assert_pair_sums_match_oracle(graph, magnetic_algorithm(graph, g).theta, g)

    @pytest.mark.parametrize("clusters, size, g, seed", [
        (2, 60, 1 / 2, 1), (3, 50, 1 / 3, 2), (5, 60, 1 / 5, 3), (6, 20, 1 / 6, 4)])
    def test_planted_graphs_match_oracle(self, clusters, size, g, seed):
        planted = gen_clustered_angles(clusters, size, 0.2, seed)
        graph = prdrg_sample(PRDRGParams(planted, 5.0, g), seed + 100)
        assert_pair_sums_match_oracle(graph, planted, g)
        assert_pair_sums_match_oracle(graph, magnetic_algorithm(graph, g).theta, g)

    def test_two_nodes(self):
        rng = np.random.default_rng(40)
        for edges in ((), ((0, 1),), ((1, 0),), ((0, 1), (1, 0))):
            assert_pair_sums_match_oracle(DirectedGraph(2, edges),
                                          rng.uniform(0, TWO_PI, 2), 0.3)

    def test_edgeless_graph(self):
        theta = np.random.default_rng(41).uniform(0, TWO_PI, 25)
        assert_pair_sums_match_oracle(DirectedGraph(25, ()), theta, 0.25)

    def test_all_equal_angles(self):
        graph = random_graph(np.random.default_rng(42), 40, 0.3)
        assert_pair_sums_match_oracle(graph, np.full(40, 1.7), 0.2)

    def test_single_node_has_no_pairs(self):
        loglik = make_prdrg_loglik(DirectedGraph(1, ()), [0.4], 0.2)
        assert loglik(3.0) == pytest.approx(0.0, abs=1e-12)
        assert prdrg_expected_edges([0.4], 3.0, 0.2) == pytest.approx(0.0, abs=1e-12)

    def test_relabelling_nodes_leaves_sums_unchanged(self):
        rng = np.random.default_rng(43)
        n = 60
        graph = random_graph(rng, n, 0.2)
        theta = rng.uniform(0, TWO_PI, n)
        perm = rng.permutation(n)
        moved = DirectedGraph(n, perm[graph.edge_index])
        moved_theta = np.empty(n)
        moved_theta[perm] = theta
        for gamma in (0.01, 1.0, 5.0, 50.0):
            assert make_prdrg_loglik(moved, moved_theta, 0.2)(gamma) == \
                pytest.approx(make_prdrg_loglik(graph, theta, 0.2)(gamma), rel=1e-12)
            assert prdrg_expected_edges(moved_theta, gamma, 0.2) == \
                pytest.approx(prdrg_expected_edges(theta, gamma, 0.2), rel=1e-12)

    def test_value_independent_of_probe_order(self):
        rng = np.random.default_rng(44)
        graph = random_graph(rng, 50, 0.3)
        theta = rng.uniform(0, TWO_PI, 50)
        fresh = make_prdrg_loglik(graph, theta, 0.25)(5.0)
        probed = make_prdrg_loglik(graph, theta, 0.25)
        probed(1000.0)          # builds more modes first
        assert probed(5.0) == fresh

    def test_gamma_past_mode_cap_fails_fast(self):
        rng = np.random.default_rng(45)
        graph = random_graph(rng, 200, 0.3)
        theta = rng.uniform(0, TWO_PI, 200)
        loglik = make_prdrg_loglik(graph, theta, 0.2)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(NumericalError, match="Fourier modes"):
                loglik(1e9)
            with pytest.raises(NumericalError, match="Fourier modes"):
                prdrg_expected_edges(theta, 1e9, 0.2)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 2.0
        assert peak < 16 * 2**20


class TestPrdrgSampler:
    def test_same_seed_same_graph(self):
        params = PRDRGParams(gen_clustered_angles(3, 5, 0.1, 0), 2.0, 1 / 3)
        assert np.array_equal(prdrg_sample(params, 123).edge_index,
                              prdrg_sample(params, 123).edge_index)

    def test_different_seed_differs(self):
        params = PRDRGParams(gen_clustered_angles(3, 5, 0.1, 0), 2.0, 1 / 3)
        assert not np.array_equal(prdrg_sample(params, 1).edge_index,
                                  prdrg_sample(params, 2).edge_index)

    def test_equal_angles_large_gamma_splits_between_both_and_none(self):
        # at beta = 0 the forward/backward exponents gamma*(cos(2*pi*g) - 1)
        # are hugely negative, leaving reciprocal and none at 1/2 each
        n = 120
        params = PRDRGParams(np.zeros(n), 50.0, 0.25)
        graph = prdrg_sample(params, 7)
        pairs = math.comb(n, 2)
        adj = adjacency(graph)
        both = int(((adj == 1) & (adj.T == 1)).sum() / 2)
        single = graph.edge_count - 2 * both
        assert single == 0
        se = 3 * math.sqrt(0.25 / pairs)
        assert abs(both / pairs - 0.5) <= se

    def test_empirical_frequencies_match_probabilities(self):
        # all pairs share beta = 0, so pair outcomes are iid draws
        n = 150
        gamma, g = 1.5, 0.2
        params = PRDRGParams(np.zeros(n), gamma, g)
        graph = prdrg_sample(params, 11)
        probs = prdrg_pair_probs(0.0, 0.0, gamma, g)
        pairs = math.comb(n, 2)
        adj = adjacency(graph).astype(bool)
        iu, ju = np.triu_indices(n, k=1)
        fwd, bwd = adj[iu, ju], adj[ju, iu]
        counts = np.array([
            (fwd & bwd).sum(), (fwd & ~bwd).sum(),
            (~fwd & bwd).sum(), (~fwd & ~bwd).sum(),
        ])
        for count, p in zip(counts, probs):
            se = math.sqrt(p * (1 - p) / pairs)
            assert abs(count / pairs - p) <= 3 * se


class TestTrophicEdgeProb:
    def test_unit_climb_is_half(self):
        for gamma in (0.0, 0.5, 5.0, 50.0):
            assert trophic_edge_prob(2.0, 3.0, gamma) == 0.5

    def test_same_level(self):
        assert trophic_edge_prob(1.0, 1.0, 1.0) == pytest.approx(
            1.0 / (1.0 + math.e), rel=1e-14)

    def test_gamma_zero_is_half(self):
        assert trophic_edge_prob(0.3, 7.7, 0.0) == 0.5

    def test_asymmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            hi, hj = rng.uniform(-3, 3, 2)
            gamma = rng.uniform(0.1, 5)
            forward = trophic_edge_prob(hi, hj, gamma)
            backward = trophic_edge_prob(hj, hi, gamma)
            fwd_pen = (hj - hi - 1) ** 2
            bwd_pen = (hi - hj - 1) ** 2
            if fwd_pen < bwd_pen:
                assert forward > backward
            elif fwd_pen > bwd_pen:
                assert forward < backward
        assert trophic_edge_prob(1.0, 1.0, 2.0) == trophic_edge_prob(1.0, 1.0, 2.0)


class TestTrophicLoglik:
    def test_two_node_empty(self):
        graph = DirectedGraph(2, ())
        assert trophic_loglik(graph, TrophicParams(np.zeros(2), 0.0)) \
            == pytest.approx(2 * math.log(0.5), rel=1e-14)

    def test_single_perfect_edge(self):
        graph = DirectedGraph(2, ((0, 1),))
        gamma = 2.3
        value = trophic_loglik(graph, TrophicParams(np.array([0.0, 1.0]), gamma))
        backward = trophic_edge_prob(1.0, 0.0, gamma)
        assert value == pytest.approx(math.log(0.5) + math.log(1 - backward),
                                      rel=1e-12)

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(14)
        for k in range(21):
            graph = random_graph(rng, 4, 0.4) if k < 20 else DirectedGraph(4, ())
            h = rng.uniform(0, 4, 4)
            for gamma in (rng.uniform(0, 5), 0.0):
                ours = trophic_loglik(graph, TrophicParams(h, gamma))
                oracle = naive_trophic_loglik(graph, h, gamma)
                assert ours == pytest.approx(oracle, rel=1e-10)


class TestSamplerMemory:
    """At n = 3000 (five clusters of 600, as ``generate --clusters 5
    --cluster-size 600`` draws) the samplers work one block of rows at a
    time and the edge list is written a column at a time, so each peak is
    a few copies of the edge arrays, not an array over all pairs.  Measured:
    78, 26 and 98 MiB; an array per pair took 549, 172 and 379 MiB."""

    @staticmethod
    def traced(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def pair_sample(self):
        theta = gen_clustered_angles(5, 600, 0.2, 1)
        return self.traced(lambda: prdrg_sample(PRDRGParams(theta, 5.0, 0.2), 2))

    def test_pair_sampler(self, pair_sample):
        graph, peak = pair_sample
        assert graph.edge_count > 1_700_000
        assert peak <= 160 * 2**20

    def test_level_sampler(self):
        h = gen_trophic_levels(5, 600, 0.2, 1)
        graph, peak = self.traced(lambda: trophic_sample(TrophicParams(h, 5.0), 2))
        assert graph.edge_count > 700_000
        assert peak <= 80 * 2**20

    def test_edge_list_writer(self, pair_sample):
        text, peak = self.traced(lambda: serialize_edge_list(pair_sample[0]))
        assert text.count("\n") == pair_sample[0].edge_count
        assert peak <= 200 * 2**20


class TestTrophicSampler:
    def test_seed_determinism(self):
        params = TrophicParams(gen_trophic_levels(3, 5, 0.1, 0), 2.0)
        assert np.array_equal(trophic_sample(params, 5).edge_index,
                              trophic_sample(params, 5).edge_index)

    def test_large_gamma_suppresses_off_target_edges(self):
        h = np.array([0.0, 0.5, 2.0])
        graph = trophic_sample(TrophicParams(h, 1e4), 3)
        assert graph.edge_count == 0

    def test_empirical_edge_frequency(self):
        n = 150
        h = np.zeros(n)
        gamma = 1.0
        graph = trophic_sample(TrophicParams(h, gamma), 17)
        pairs = n * (n - 1)
        p = trophic_edge_prob(0.0, 0.0, gamma)
        se = math.sqrt(p * (1 - p) / pairs)
        assert abs(graph.edge_count / pairs - p) <= 3 * se


class TestWeightedDensity:
    def test_zero_penalty_is_uniform(self):
        graph = DirectedGraph(2, ((0, 1),), weights=(0.37,))
        value = weighted_trophic_logdensity(
            graph, TrophicParams(np.array([0.0, 1.0]), 4.0))
        assert value == 0.0
        # no edges: pairs without an edge contribute nothing
        edgeless = DirectedGraph(2, (), weights=())
        assert weighted_trophic_logdensity(
            edgeless, TrophicParams(np.array([0.0, 3.0]), 4.0)) == 0.0

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(16)
        h = np.array([0.0, 2.5])
        for _ in range(10):
            gamma = rng.uniform(0.01, 10)
            def density(w):
                graph = DirectedGraph(2, ((0, 1),), weights=(w,))
                return math.exp(weighted_trophic_logdensity(
                    graph, TrophicParams(h, gamma)))
            integral, err = quad(density, 0.0, 1.0)
            assert abs(integral - 1.0) <= 1e-8 + 10 * err

    def test_tiny_rate_normalizer_series(self):
        # for x = gamma * penalty = 1e-12 the normalizer is 1 - x/2 + O(x^2);
        # recover Z from the density at w and compare
        x = 1e-12
        h = np.array([0.0, 2.0])  # penalty exactly 1
        graph = DirectedGraph(2, ((0, 1),), weights=(0.5,))
        logdens = weighted_trophic_logdensity(graph, TrophicParams(h, x))
        z = math.exp(-(logdens + x * 0.5 * 1.0))
        assert abs(z - (1.0 - x / 2.0)) <= 1e-15

    def test_normalizer_relative_accuracy(self):
        # L(x) = log((1 - exp(-x)) / x) against 60 digits: the series below
        # _SERIES_X keeps full relative precision down to x = 1e-12
        mpmath = pytest.importorskip("mpmath")
        from dirlap.models import _log_weight_normalizer
        xs = np.geomspace(1e-12, 0.9, 200)
        with mpmath.workdps(60):
            exact = [mpmath.log(-mpmath.expm1(-mpmath.mpf(x)) / x) for x in xs]
            worst = max(abs((mpmath.mpf(got) - ref) / ref)
                        for got, ref in zip(_log_weight_normalizer(xs), exact))
        assert worst <= 1e-15
        assert _log_weight_normalizer(np.array([0.0]))[0] == 0.0

    def test_unweighted_rejected(self):
        with pytest.raises(ValueError):
            weighted_trophic_logdensity(DirectedGraph(2, ((0, 1),)),
                                        TrophicParams(np.zeros(2), 1.0))

    def test_derivatives_match_central_differences(self):
        # node 1 sits one level above node 0, so edge 0 -> 1 has penalty 0;
        # the rates put x = gamma * penalty on both sides of the series cut
        rng = np.random.default_rng(17)
        h = np.concatenate([[0.0, 1.0], rng.uniform(-1.0, 3.0, 28)])
        edges = np.unique(np.vstack([[[0, 1]], random_graph(rng, 30, 0.2).edge_index]),
                          axis=0)
        graph = DirectedGraph(30, edges, weights=rng.uniform(0.01, 0.99, len(edges)))
        logdensity = _WeightedLevelModel(h, graph).loglik
        for gamma in [0.3, 2.0, 7.0, *ORACLE_GAMMAS]:
            value, first, second = logdensity(gamma, derivatives=True)
            assert value == weighted_trophic_logdensity(graph, TrophicParams(h, gamma))
            (d1, noise1), (d2, noise2) = central_differences(
                lambda x: weighted_trophic_logdensity(graph, TrophicParams(h, x)), gamma)
            assert first == pytest.approx(d1, rel=1e-6, abs=noise1)
            assert second == pytest.approx(d2, rel=1e-6, abs=noise2)
            assert second <= 0.0

    def test_zero_penalty_edge_has_no_slope(self):
        graph = DirectedGraph(2, ((0, 1),), weights=(0.37,))
        logdensity = _WeightedLevelModel([0.0, 1.0], graph).loglik
        for gamma in (0.0, 1e-3, 1.0, 50.0):
            assert logdensity(gamma, derivatives=True) == (0.0, 0.0, 0.0)

    def test_series_meets_closed_form(self):
        # the slope and curvature of log((1 - exp(-x)) / x) are continuous
        # where the series hands over to the closed forms
        from dirlap.models import _SERIES_X, _log_weight_normalizer
        below, above = np.nextafter(_SERIES_X, 0.0), _SERIES_X
        _, (s0, s1), (c0, c1) = _log_weight_normalizer(np.array([below, above]),
                                                       derivatives=True)
        assert s1 == pytest.approx(s0, rel=1e-14)
        assert c1 == pytest.approx(c0, rel=1e-14)
        _, slope, curvature = _log_weight_normalizer(np.array([0.0, 1e-9]),
                                                     derivatives=True)
        np.testing.assert_allclose(slope, [-0.5, -0.5 + 1e-9 / 12], rtol=1e-15)
        np.testing.assert_allclose(curvature, [1 / 12, 1 / 12], rtol=1e-15)


class TestKernelLoglik:
    def test_zero_kernel_gives_half_per_pair(self):
        graph = random_graph(np.random.default_rng(18), 6, 0.3)
        model = KernelModel(np.zeros((6, 2)), lambda x, y: 0.0, 3.0)
        expected = 6 * 5 * math.log(0.5)
        assert kernel_loglik(graph, model) == pytest.approx(expected, rel=1e-12)

    def test_scalar_level_kernel_reproduces_trophic(self):
        rng = np.random.default_rng(20)
        graph = random_graph(rng, 7, 0.3)
        h = rng.uniform(0, 3, 7)
        gamma = 1.7
        model = KernelModel(h, lambda x, y: float((y[0] - x[0] - 1.0) ** 2), gamma)
        assert kernel_loglik(graph, model) == pytest.approx(
            trophic_loglik(graph, TrophicParams(h, gamma)), rel=1e-12)

    def test_euclidean_kernel_matches_enumeration(self):
        rng = np.random.default_rng(22)
        attrs = rng.standard_normal((5, 2))
        for gamma, graph in itertools.product(
                (0.8, 0.0), (random_graph(rng, 5, 0.4), DirectedGraph(5, ()))):
            model = KernelModel(attrs, lambda x, y: float(np.sum((x - y) ** 2)), gamma)
            a = adjacency(graph)
            oracle = 0.0
            for i in range(5):
                for j in range(5):
                    if i == j:
                        continue
                    f = 1.0 / (1.0 + math.exp(gamma * np.sum((attrs[i] - attrs[j]) ** 2)))
                    oracle += math.log(f) if a[i, j] else math.log(1 - f)
            assert kernel_loglik(graph, model) == pytest.approx(oracle, rel=1e-10)

    def test_negative_kernel_rejected(self):
        graph = DirectedGraph(2, ((0, 1),))
        model = KernelModel(np.zeros(2), lambda x, y: -1.0, 1.0)
        with pytest.raises(ValueError, match="negative"):
            kernel_loglik(graph, model)


class TestGenerators:
    def test_noise_free_angles(self):
        np.testing.assert_allclose(gen_clustered_angles(4, 1, 0.0, 0),
                                   [0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_noise_free_levels(self):
        np.testing.assert_allclose(gen_trophic_levels(3, 1, 0.0, 0), [1, 2, 3])

    def test_angles_stay_within_cluster_band(self):
        theta = gen_clustered_angles(5, 100, 0.2, 42)
        assert theta.shape == (500,)
        centers = np.repeat(TWO_PI * np.arange(5) / 5, 100)
        assert (np.abs(theta - centers) <= 0.2).all()

    def test_levels_stay_within_cluster_band(self):
        h = gen_trophic_levels(5, 100, 0.2, 42)
        assert h.shape == (500,)
        centers = np.repeat(np.arange(1.0, 6.0), 100)
        assert (np.abs(h - centers) <= 0.2).all()

    def test_seed_determinism(self):
        a = gen_clustered_angles(3, 4, 0.3, 9)
        b = gen_clustered_angles(3, 4, 0.3, 9)
        np.testing.assert_array_equal(a, b)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_clustered_angles(0, 5, 0.1, 0)
        with pytest.raises(ValueError):
            gen_trophic_levels(3, 5, -0.1, 0)


class TestObjectiveLikelihoodEquivalence:
    """Exhaustive check that minimizing each spectral objective over
    permutations of discrete values maximizes the matching likelihood."""

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 5.0])
    def test_frustration_vs_pair_likelihood(self, gamma):
        rng = np.random.default_rng(24)
        n = 5
        values = TWO_PI * np.arange(n) / n
        g = 1 / n
        for _ in range(5):
            graph = random_graph(rng, n, 0.4)
            sym = symmetrize(graph)
            etas, logliks = [], []
            for perm in itertools.permutations(range(n)):
                theta = values[list(perm)]
                etas.append(frustration(sym, theta, g))
                logliks.append(prdrg_loglik(graph, PRDRGParams(theta, gamma, g)))
            etas = np.array(etas)
            logliks = np.array(logliks)
            min_set = set(np.flatnonzero(etas <= etas.min() + 1e-8 * (1 + etas.min())))
            max_set = set(np.flatnonzero(
                logliks >= logliks.max() - 1e-8 * (1 + abs(logliks.max()))))
            assert min_set == max_set

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 5.0])
    def test_deviation_vs_level_likelihood(self, gamma):
        rng = np.random.default_rng(26)
        n = 5
        values = np.arange(1.0, n + 1.0)
        for _ in range(5):
            graph = random_graph(rng, n, 0.4)
            if not graph.edge_count:
                continue
            costs, logliks = [], []
            for perm in itertools.permutations(range(n)):
                h = values[list(perm)]
                costs.append(sum((h[j] - h[i] - 1.0) ** 2 for i, j in graph.edge_index.tolist()))
                logliks.append(trophic_loglik(graph, TrophicParams(h, gamma)))
            costs = np.array(costs)
            logliks = np.array(logliks)
            min_set = set(np.flatnonzero(costs <= costs.min() + 1e-8 * (1 + costs.min())))
            max_set = set(np.flatnonzero(
                logliks >= logliks.max() - 1e-8 * (1 + abs(logliks.max()))))
            assert min_set == max_set


def pair_fixtures():
    """(name, graph, theta, g): the food web at three rotations with its
    magnetic angles, and planted pair-model graphs with their angles."""
    graph = parse_edge_list(FOOD_WEB.read_text(encoding="utf-8")).graph
    for g in (1 / 2, 1 / 3, 1 / 5):
        yield f"food-web-{g:.3f}", graph, magnetic_algorithm(graph, g).theta, g
    for clusters, size, g, seed in ((2, 60, 1 / 2, 1), (3, 50, 1 / 3, 2),
                                    (5, 60, 1 / 5, 3), (6, 20, 1 / 6, 4)):
        planted = gen_clustered_angles(clusters, size, 0.2, seed)
        yield (f"pair-{clusters}x{size}", prdrg_sample(PRDRGParams(planted, 5.0, g),
                                                         seed + 100), planted, g)


def model_probes():
    """(name, n, probes, n^2 oracles) of both models' likelihood and
    expected edge count on the pair and level fixtures."""
    for name, graph, theta, g in pair_fixtures():
        yield (name, graph.n, make_prdrg_loglik(graph, theta, g),
               _PairModel(theta, g).expected_edges,
               lambda x, graph=graph, theta=theta, g=g: exact_prdrg_loglik(graph, theta, x, g),
               lambda x, theta=theta, g=g: exact_prdrg_expected_edges(theta, x, g))
    for k, (graph, h) in enumerate(level_fixtures()):
        yield (f"levels-{k}", graph.n, make_trophic_loglik(graph, h),
               _LevelModel(h).expected_edges,
               lambda x, graph=graph, h=h: direct_bernoulli_loglik(graph, h, x),
               lambda x, h=h: direct_trophic_expected_edges(h, x))


MODEL_PROBES = list(model_probes())


class TestGammaDerivatives:
    """The derivative probes of both models: l', l'' and N' from one pass
    of the pair sums, against central differences of the n^2 oracles."""

    @pytest.mark.parametrize("name, n, loglik, expected, exact_loglik, exact_expected",
                             MODEL_PROBES, ids=[p[0] for p in MODEL_PROBES])
    def test_match_central_differences_of_oracle(self, name, n, loglik, expected,
                                                 exact_loglik, exact_expected):
        for gamma in ORACLE_GAMMAS:
            _, first, second = loglik(gamma, derivatives=True)
            (d1, noise1), (d2, noise2) = central_differences(exact_loglik, gamma)
            assert first == pytest.approx(d1, rel=1e-6, abs=noise1)
            assert second == pytest.approx(d2, rel=1e-6, abs=noise2)
            (d1, noise1), _ = central_differences(exact_expected, gamma)
            assert expected(gamma, derivatives=True)[1] == pytest.approx(
                d1, rel=1e-6, abs=noise1)

    @pytest.mark.parametrize("name, n, loglik, expected",
                             [p[:4] for p in MODEL_PROBES],
                             ids=[p[0] for p in MODEL_PROBES])
    def test_concave_likelihood_and_falling_count(self, name, n, loglik, expected):
        # up to the pair sums' absolute rounding, as in
        # assert_pair_sums_match_oracle: tiny sums at a large gamma can come
        # out a few ulps above 0
        floor = 1e-12 * n
        for gamma in [0.0, *ORACLE_GAMMAS]:
            assert loglik(gamma, derivatives=True)[2] <= floor
            assert expected(gamma, derivatives=True)[1] <= floor

    @pytest.mark.parametrize("name, loglik, expected",
                             [(p[0], *p[2:4]) for p in MODEL_PROBES],
                             ids=[p[0] for p in MODEL_PROBES])
    def test_value_row_equals_plain_probe(self, name, loglik, expected):
        # a derivative probe may sum on a finer grid than the plain probe
        for gamma in [0.0, *ORACLE_GAMMAS]:
            assert loglik(gamma, derivatives=True)[0] == pytest.approx(
                loglik(gamma), rel=1e-13, abs=0.0)
            assert expected(gamma, derivatives=True)[0] == pytest.approx(
                expected(gamma), rel=1e-13, abs=0.0)


class TestExpectedEdges:
    def test_prdrg_gamma_zero_value(self):
        # every outcome has probability 1/4 at gamma = 0, so each unordered
        # pair expects 2f + q + l = 1 directed edge
        theta = np.random.default_rng(28).uniform(0, TWO_PI, 12)
        assert prdrg_expected_edges(theta, 0.0, 0.25) == pytest.approx(
            math.comb(12, 2), rel=1e-12)

    def test_monotone_nonincreasing_in_gamma(self):
        rng = np.random.default_rng(30)
        theta = rng.uniform(0, TWO_PI, 10)
        h = rng.uniform(0, 4, 10)
        gammas = np.linspace(0, 20, 40)
        prdrg_counts = [prdrg_expected_edges(theta, x, 0.2) for x in gammas]
        trophic_counts = [trophic_expected_edges(h, x) for x in gammas]
        assert (np.diff(prdrg_counts) <= 1e-9).all()
        assert (np.diff(trophic_counts) <= 1e-9).all()


class TestLevelModelProbes:
    """One closure per level vector, probed in sequence, agrees with the
    n^2 oracle of tests/helpers.py to 1e-13 relative, and that oracle with
    the former masked n x n sums to 1e-14."""

    def test_expected_edges_equal_direct_sum(self):
        for _, h in level_fixtures():
            expected = _LevelModel(h).expected_edges
            for gamma in [0.0, *ORACLE_GAMMAS]:
                direct = direct_trophic_expected_edges(h, gamma)
                assert expected(gamma) == pytest.approx(direct, rel=1e-13, abs=0.0)
                assert trophic_expected_edges(h, gamma) == pytest.approx(
                    direct, rel=1e-13, abs=0.0)
                assert direct == pytest.approx(
                    masked_trophic_expected_edges(h, gamma), rel=1e-14, abs=0.0)

    def test_loglik_equal_direct_sum(self):
        for graph, h in level_fixtures():
            loglik = make_trophic_loglik(graph, h)
            for gamma in [0.0, *ORACLE_GAMMAS]:
                direct = direct_bernoulli_loglik(graph, h, gamma)
                assert loglik(gamma) == pytest.approx(direct, rel=1e-13, abs=0.0)
                assert direct == pytest.approx(
                    masked_bernoulli_loglik(graph, h, gamma), rel=1e-14, abs=0.0)

    def test_warm_probes_allocate_no_pair_array(self):
        # n = 1000: one n x n float array is 8 MB
        h = gen_trophic_levels(5, 200, 0.2, 7)
        graph = trophic_sample(TrophicParams(h, 5.0), 8)
        probes = (make_trophic_loglik(graph, h), _LevelModel(h).expected_edges)
        for probe in probes:
            probe(1.0)
            tracemalloc.start()
            try:
                probe(2.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2**20

    def test_probes_at_4000_nodes_form_no_pair_array(self):
        # one 4000 x 4000 float array is 128 MB
        graph = block_cycle_graph(np.random.default_rng(0), 5, 800)
        h = trophic_algorithm(graph).h
        tracemalloc.start()
        try:
            probes = (make_trophic_loglik(graph, h), _LevelModel(h).expected_edges)
            for probe in probes:
                for gamma in (1e-3, 1.0, 50.0):
                    probe(gamma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestLevelPairSums:
    """The Chebyshev pair sums against the n^2 oracle, on both branches and
    on a level vector with no spread."""

    GAMMAS = [0.0, *ORACLE_GAMMAS]          # ORACLE_GAMMAS holds 50

    @staticmethod
    def assert_match_oracle(graph, h):
        loglik = make_trophic_loglik(graph, h)
        expected = _LevelModel(h).expected_edges
        for gamma in TestLevelPairSums.GAMMAS:
            assert loglik(gamma) == pytest.approx(
                direct_bernoulli_loglik(graph, h, gamma), rel=1e-13, abs=0.0)
            assert expected(gamma) == pytest.approx(
                direct_trophic_expected_edges(h, gamma), rel=1e-13, abs=0.0)

    @staticmethod
    def node_counts(h, gammas):
        sums = _LevelPairSums(np.asarray(h, dtype=float))
        return {sums.node_count(_level_rows(gamma, expected, derivatives))
                for expected, derivatives in itertools.product((False, True), repeat=2)
                for gamma in gammas}

    def test_narrow_levels_stay_on_chebyshev_nodes(self):
        # n = 1000 with levels spread over ~0.2, as in a dense periodic graph
        h = gen_trophic_levels(1, 1000, 0.1, 31)
        graph = random_graph(np.random.default_rng(32), 1000, 0.01)
        assert max(self.node_counts(h, self.GAMMAS)) < 1000
        self.assert_match_oracle(graph, h)

    def test_six_levels_at_high_rate_take_the_exact_sum(self):
        h = gen_trophic_levels(6, 46, 0.2, 4)
        graph = trophic_sample(TrophicParams(h, 5.0), 104)
        assert self.node_counts(h, [50.0]) == {len(h)}
        self.assert_match_oracle(graph, h)

    def test_equal_levels_give_the_exact_sum(self):
        # every level of a directed cycle is 0
        cycle = DirectedGraph(100, tuple((i, (i + 1) % 100) for i in range(100)))
        h = trophic_algorithm(cycle).h
        assert np.ptp(h) == 0.0
        assert self.node_counts(h, self.GAMMAS) == {1}
        self.assert_match_oracle(cycle, h)
        expected = _LevelModel(h).expected_edges
        for gamma in self.GAMMAS:
            assert expected(gamma) == pytest.approx(
                100 * 99 * trophic_edge_prob(0.0, 0.0, gamma), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [250, 1000])
    def test_permuting_and_shifting_levels_leave_sums_unchanged(self, n):
        rng = np.random.default_rng(n)
        h = gen_trophic_levels(5, n // 5, 0.2, n)
        order = rng.permutation(n)
        for expected in (False, True):
            sums = [_LevelPairSums(v) for v in (h, h[order], h + 3.7, h - 1.25)]
            for gamma in self.GAMMAS:
                rows = _level_rows(gamma, expected, True)
                base = sums[0].sum(rows, gamma)
                for other in sums[1:]:
                    np.testing.assert_allclose(other.sum(rows, gamma), base,
                                               rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("levels", [
        lambda nodes: gen_trophic_levels(1, 1000, 0.1, 31),     # narrow
        lambda nodes: gen_trophic_levels(30, 100, 0.2, 5),      # a 30-level line
        lambda nodes: np.repeat(_chebyshev_points(0.5, 7.5, nodes), 2),  # on the points
    ], ids=["narrow", "line30", "on-points"])
    def test_moment_weights_match_barycentric_oracle(self, levels):
        for nodes in 2 ** np.arange(5, 13):
            h = levels(nodes)
            weights = _LevelPairSums(h)._build_grid(nodes)[1]
            np.testing.assert_allclose(weights, barycentric_level_weights(h, nodes),
                                       rtol=0.0, atol=1e-14 * len(h))

    def test_deep_hierarchy_at_high_rate(self):
        # R = 9.4: P stays below n = 3000 up to gamma = 30 and reaches it,
        # the exact sum, at 50
        graph, h = deep_hierarchy()
        sums = _LevelPairSums(h)
        loglik = make_trophic_loglik(graph, h)
        expected = _LevelModel(h).expected_edges
        for gamma in (1.0, 10.0, 30.0, 50.0):
            counts = {sums.node_count(_level_rows(gamma, e, d))
                      for e, d in itertools.product((False, True), repeat=2)}
            assert max(counts) < graph.n if gamma < 50.0 else counts == {graph.n}
            assert loglik(gamma) == pytest.approx(
                direct_bernoulli_loglik(graph, h, gamma), rel=1e-13, abs=0.0)
            assert expected(gamma) == pytest.approx(
                direct_trophic_expected_edges(h, gamma), rel=1e-13, abs=0.0)

    def test_value_independent_of_probe_order(self):
        graph, h = deep_hierarchy()
        fresh = [make_trophic_loglik(graph, h)(1.0, derivatives=True),
                 _LevelModel(h).expected_edges(1.0, derivatives=True)]
        probed = [make_trophic_loglik(graph, h), _LevelModel(h).expected_edges]
        for probe in probed:
            probe(30.0)         # builds more moments, and P = 2048, first
        assert [probe(1.0, derivatives=True) for probe in probed] == fresh
