from pathlib import Path

import numpy as np
import pytest

from dirlap import (DirectedGraph, NumericalError, PRDRGParams, TrophicParams,
                    compare_models, fit_gamma_density, fit_gamma_mle,
                    gen_clustered_angles, gen_trophic_levels, largest_scc,
                    largest_wcc, magnetic_algorithm, parse_edge_list,
                    prdrg_expected_edges, prdrg_loglik, prdrg_sample, select_g,
                    trophic_algorithm, trophic_expected_edges, trophic_sample)
from helpers import random_graph

FOOD_WEB = Path(__file__).parent / "fixtures" / "food_web_scc.edges"


class TestFitGammaMle:
    def test_quadratic_surrogate(self):
        fit = fit_gamma_mle(lambda g: -(g - 2.0) ** 2)
        assert abs(fit.gamma - 2.0) <= 1e-5
        assert not fit.at_upper_bound

    def test_boundary_flag_on_increasing_objective(self):
        fit = fit_gamma_mle(lambda g: g)
        assert fit.at_upper_bound
        assert fit.gamma == 50.0
        assert fit.loglik == 50.0

    def test_lower_bound_flag_on_decreasing_objective(self):
        fit = fit_gamma_mle(lambda g: -g, gamma_min=0.01)
        assert fit.at_lower_bound and not fit.at_upper_bound
        assert fit.gamma == 0.01
        assert not fit_gamma_mle(lambda g: g).at_lower_bound

    def test_level_fit_on_structureless_graph_stops_at_lower_bound(self):
        # a dense directed Erdos-Renyi graph has no level structure: the
        # level-model likelihood falls from the smallest allowed gamma on
        from dirlap.models import make_trophic_loglik
        graph = random_graph(np.random.default_rng(3), 120, 0.5)
        levels = trophic_algorithm(graph)
        fit = fit_gamma_mle(make_trophic_loglik(graph, levels.h), gamma_min=0.01)
        assert fit.gamma == 0.01
        assert fit.at_lower_bound and not fit.at_upper_bound
        report = compare_models(graph, gamma_min=0.01)
        assert report.trophic_fit.at_lower_bound

    def test_single_point_grid_brackets_with_gamma_max(self):
        # the one grid point is gamma_min; the maximizer lies above it
        fit = fit_gamma_mle(lambda g: -(g - 2.0) ** 2, grid_points=1)
        assert abs(fit.gamma - 2.0) <= 1e-5
        assert not fit.at_upper_bound and not fit.at_lower_bound

    def test_non_finite_objective_rejected(self):
        with pytest.raises(NumericalError):
            fit_gamma_mle(lambda g: float("nan"))

    def test_grid_refinement_never_decreases(self):
        objective = lambda g: -(np.log(g) - 1.0) ** 2
        coarse = fit_gamma_mle(objective, grid_points=32)
        fine = fit_gamma_mle(objective, grid_points=64)
        assert fine.loglik >= coarse.loglik - 1e-12

    def test_result_beats_every_grid_point(self):
        objective = lambda g: -(g - 0.37) ** 2
        fit = fit_gamma_mle(objective)
        assert (fit.loglik >= fit.grid_loglik).all()

    def test_recovers_generating_rate(self):
        # graph drawn at gamma = 5 with the true levels as attributes
        h = gen_trophic_levels(5, 100, 0.2, 1)
        graph = trophic_sample(TrophicParams(h, 5.0), 2)
        from dirlap.models import make_trophic_loglik
        fit = fit_gamma_mle(make_trophic_loglik(graph, h))
        assert abs(fit.gamma - 5.0) <= 0.5


class TestFitGammaDensity:
    def test_flat_expected_count_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            fit_gamma_density(lambda g: 10.0, 10.0)
        with pytest.raises(ValueError, match="constant"):
            fit_gamma_density(lambda g: 10.0, 9.0)

    def test_out_of_range_names_interval(self):
        with pytest.raises(ValueError, match="attainable"):
            fit_gamma_density(lambda g: 100.0 / (1.0 + g), 2000.0)

    def test_recovers_root(self):
        expected = lambda g: 100.0 * np.exp(-g)
        gamma = fit_gamma_density(expected, 100.0 * np.exp(-3.0))
        assert abs(gamma - 3.0) <= 1e-4

    def test_prdrg_expected_count_bracket(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(0, 2 * np.pi, 30)
        observed = prdrg_expected_edges(theta, 2.0, 0.25)
        gamma = fit_gamma_density(
            lambda g: prdrg_expected_edges(theta, g, 0.25), observed)
        assert abs(gamma - 2.0) <= 1e-3

    def test_trophic_density_estimate(self):
        rng = np.random.default_rng(1)
        h = rng.uniform(0, 4, 40)
        observed = trophic_expected_edges(h, 1.5)
        gamma = fit_gamma_density(lambda g: trophic_expected_edges(h, g), observed)
        assert abs(gamma - 1.5) <= 1e-3

    def test_mle_more_accurate_than_density_match(self):
        # on a planted periodic instance the likelihood maximizer tracks the
        # generating decay rate far better than the edge-density match does
        from dirlap import largest_scc, magnetic_algorithm
        from dirlap.models import make_prdrg_loglik
        truth, g = 5.0, 0.2
        theta = gen_clustered_angles(5, 100, 0.2, 20)
        graph = prdrg_sample(PRDRGParams(theta, truth, g), 21)
        scc, _ = largest_scc(graph)
        estimated = magnetic_algorithm(scc, g).theta
        mle = fit_gamma_mle(make_prdrg_loglik(scc, estimated, g))
        density = fit_gamma_density(
            lambda x: prdrg_expected_edges(estimated, x, g), scc.edge_count)
        assert abs(mle.gamma - truth) < abs(density - truth)
        assert abs(mle.gamma - truth) / truth <= 0.15


class TestSelectG:
    def test_singleton_matches_direct_run(self):
        rng = np.random.default_rng(3)
        theta = gen_clustered_angles(4, 10, 0.1, 4)
        graph = prdrg_sample(PRDRGParams(theta, 3.0, 0.25), 5)
        result = select_g(graph, [0.25])
        assert result.best.g == 0.25
        direct = magnetic_algorithm(graph, 0.25)
        np.testing.assert_array_equal(result.assignment.theta, direct.theta)
        fit = fit_gamma_mle(
            lambda g: prdrg_loglik(graph, PRDRGParams(direct.theta, g, 0.25)))
        assert result.best.loglik == pytest.approx(fit.loglik, rel=1e-12)
        del rng

    def test_symmetrizes_once_for_all_candidates(self, monkeypatch):
        import dirlap.spectral as spectral
        calls = []
        original = spectral.symmetrize
        monkeypatch.setattr(spectral, "symmetrize",
                            lambda graph: calls.append(graph) or original(graph))
        graph = prdrg_sample(PRDRGParams(gen_clustered_angles(3, 10, 0.1, 1),
                                         3.0, 1 / 3), 2)
        select_g(graph, [1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6])
        assert len(calls) == 1

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_g(DirectedGraph(2, ((0, 1),)), [])

    def test_candidate_range_validated(self):
        with pytest.raises(ValueError):
            select_g(DirectedGraph(2, ((0, 1),)), [0.7])

    def test_identifies_generating_rotation(self):
        theta = gen_clustered_angles(4, 30, 0.2, 6)
        graph = prdrg_sample(PRDRGParams(theta, 5.0, 0.25), 7)
        result = select_g(graph, [1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6])
        assert result.best.g == 0.25

    def test_linear_chain_prefers_smallest_rotation(self):
        # an open chain has no wrap-around, so the smallest tested rotation
        # (most clusters) fits best
        h = gen_trophic_levels(5, 40, 0.2, 8)
        graph = trophic_sample(TrophicParams(h, 5.0), 9)
        result = select_g(graph, [1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6])
        assert result.best.g == pytest.approx(1 / 6)


class TestCompareModels:
    def test_periodic_instance(self):
        theta = gen_clustered_angles(4, 25, 0.2, 10)
        graph = prdrg_sample(PRDRGParams(theta, 5.0, 0.25), 11)
        report = compare_models(graph)
        assert report.log_ratio > 0
        assert report.verdict == "periodic"
        assert report.best_g == report.prdrg_fit.g

    def test_linear_instance(self):
        h = gen_trophic_levels(4, 25, 0.2, 12)
        graph = trophic_sample(TrophicParams(h, 5.0), 13)
        report = compare_models(graph)
        assert report.log_ratio < 0
        assert report.verdict == "linear"

    def test_ratio_is_difference_of_maxima(self):
        theta = gen_clustered_angles(3, 15, 0.2, 14)
        graph = prdrg_sample(PRDRGParams(theta, 3.0, 1 / 3), 15)
        report = compare_models(graph)
        assert report.log_ratio == (report.prdrg_fit.loglik_at_mle
                                    - report.trophic_fit.loglik_at_mle)
        best = max(report.per_g, key=lambda fit: (fit.loglik, fit.g))
        assert report.best_g == best.g
        assert report.prdrg_fit.loglik_at_mle == best.loglik

    def test_deterministic_rerun(self):
        theta = gen_clustered_angles(3, 15, 0.2, 16)
        graph = prdrg_sample(PRDRGParams(theta, 3.0, 1 / 3), 17)
        first = compare_models(graph)
        second = compare_models(graph)
        assert first.log_ratio == second.log_ratio
        assert first.best_g == second.best_g
        np.testing.assert_array_equal(first.phases.theta, second.phases.theta)
        np.testing.assert_array_equal(first.levels.h, second.levels.h)
        np.testing.assert_array_equal(first.prdrg_fit.curve_loglik,
                                      second.prdrg_fit.curve_loglik)

    def test_weighted_rejected(self):
        graph = DirectedGraph(2, ((0, 1),), weights=(0.5,))
        with pytest.raises(ValueError):
            compare_models(graph)

    def test_density_estimates_present_on_dense_instance(self):
        # moderate decay keeps the observed count inside the attainable
        # band of both expected-count curves
        theta = gen_clustered_angles(3, 15, 0.2, 18)
        graph = prdrg_sample(PRDRGParams(theta, 1.0, 1 / 3), 19)
        report = compare_models(graph)
        assert report.prdrg_fit.gamma_density is not None
        assert report.trophic_fit.gamma_density is not None

    def test_density_estimate_none_when_observed_below_floor(self):
        # the four-outcome model keeps reciprocal edges at rate 1/2 between
        # aligned angles, so its expected count has a positive floor; a
        # sparser sample than that floor admits no density match
        theta = gen_clustered_angles(3, 15, 0.2, 18)
        graph = prdrg_sample(PRDRGParams(theta, 3.0, 1 / 3), 19)
        report = compare_models(graph)
        assert report.prdrg_fit.gamma_density is None

    def test_tuple_views_stay_unbuilt(self):
        # the pipeline reads the edge arrays only: no Python object per edge
        parsed = parse_edge_list(FOOD_WEB.read_text(encoding="utf-8")).graph
        sub, _ = largest_scc(parsed)
        compare_models(sub)
        for graph in (parsed, sub):
            assert "edges" not in graph.__dict__
            assert "weights" not in graph.__dict__


def invariance_graphs():
    """The food web and two planted graphs, each weakly connected."""
    parsed = parse_edge_list(FOOD_WEB.read_text(encoding="utf-8")).graph
    food_web, _ = largest_scc(parsed)
    theta = gen_clustered_angles(3, 20, 0.2, 31)
    pair = prdrg_sample(PRDRGParams(theta, 5.0, 1 / 3), 32)
    level, _ = largest_wcc(trophic_sample(
        TrophicParams(gen_trophic_levels(3, 20, 0.2, 33), 5.0), 34))
    return {"food-web": food_web, "pair-3x20": pair, "level-3x20": level}


INVARIANCE_GRAPHS = invariance_graphs()


class TestCompareInvariance:
    @pytest.mark.parametrize("name", sorted(INVARIANCE_GRAPHS))
    def test_reversing_every_edge(self, name):
        graph = INVARIANCE_GRAPHS[name]
        reversed_graph = DirectedGraph(graph.n, graph.edge_index[:, ::-1],
                                       None, graph.labels)
        report, mirrored = compare_models(graph), compare_models(reversed_graph)
        assert mirrored.log_ratio == pytest.approx(report.log_ratio, rel=1e-9)
        assert mirrored.verdict == report.verdict
        h = report.levels.h
        np.testing.assert_allclose(mirrored.levels.h, h.max() - h, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("name", sorted(INVARIANCE_GRAPHS))
    def test_relabelling_nodes(self, name):
        graph = INVARIANCE_GRAPHS[name]
        perm = np.random.default_rng(35).permutation(graph.n)
        labels = [None] * graph.n
        for i, label in enumerate(graph.labels or map(str, range(graph.n))):
            labels[perm[i]] = label
        moved = DirectedGraph(graph.n, perm[graph.edge_index], None, labels)
        report, relabelled = compare_models(graph), compare_models(moved)
        assert relabelled.log_ratio == pytest.approx(report.log_ratio, rel=1e-9)
        assert relabelled.verdict == report.verdict
        assert relabelled.best_g == report.best_g
