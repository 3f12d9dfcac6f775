import functools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dirlap import (DEFAULT_G_CANDIDATES, DegeneracyWarning, DirectedGraph,
                    GraphStructureError, NumericalError, PRDRGParams,
                    TrophicParams, compare_models, fit_gamma_density,
                    fit_gamma_mle, gen_clustered_angles,
                    gen_trophic_levels, largest_scc, largest_wcc,
                    likelihood_curve, magnetic_algorithm, parse_edge_list,
                    prdrg_expected_edges, prdrg_sample, select_g,
                    trophic_algorithm, trophic_expected_edges, trophic_sample)
from dirlap.models import (_LevelModel, _PairModel, make_prdrg_loglik,
                           make_trophic_loglik)
from helpers import (block_cycle_graph, count_view_builds, dense_grid_maximizer,
                     golden_section_fit, level_fixtures, random_graph)

FOOD_WEB = Path(__file__).parent / "fixtures" / "food_web_scc.edges"


def quadratic(peak):
    """-(g - peak)^2 with its first two derivatives."""
    return lambda g: (-(g - peak) ** 2, -2.0 * (g - peak), -2.0)


def fit_objectives():
    """(name, loglik, expected edge count, observed edges) of the pair model
    on the food web at every default rotation and on planted pair graphs,
    and of the level model on the level fixtures."""
    food_web, _ = largest_scc(parse_edge_list(FOOD_WEB.read_text(encoding="utf-8")).graph)
    pair_cases = [(f"food-web-{g:.3f}", food_web, magnetic_algorithm(food_web, g).theta, g)
                  for g in DEFAULT_G_CANDIDATES]
    for clusters, size, g, seed in ((2, 60, 1 / 2, 1), (3, 50, 1 / 3, 2),
                                    (5, 60, 1 / 5, 3)):
        planted = gen_clustered_angles(clusters, size, 0.2, seed)
        graph = prdrg_sample(PRDRGParams(planted, 5.0, g), seed + 100)
        pair_cases.append((f"pair-{clusters}x{size}", graph, planted, g))
    for name, graph, theta, g in pair_cases:
        yield (name, make_prdrg_loglik(graph, theta, g),
               _PairModel(theta, g).expected_edges, graph.edge_count)
    for k, (graph, h) in enumerate(level_fixtures()):
        yield (f"levels-{k}", make_trophic_loglik(graph, h),
               _LevelModel(h).expected_edges, graph.edge_count)


FIT_OBJECTIVES = list(fit_objectives())
FIT_IDS = [case[0] for case in FIT_OBJECTIVES]


def counted(probe, calls):
    """probe with derivatives, recording each gamma in ``calls``."""
    return lambda gamma: calls.append(gamma) or probe(gamma, derivatives=True)


class TestFitGammaMle:
    def test_quadratic_surrogate(self):
        fit = fit_gamma_mle(quadratic(2.0))
        assert abs(fit.gamma - 2.0) <= 1e-5
        assert not fit.at_upper_bound

    def test_boundary_flag_on_increasing_objective(self):
        fit = fit_gamma_mle(lambda g: (g, 1.0, 0.0))
        assert fit.at_upper_bound
        assert fit.gamma == 50.0
        assert fit.loglik == 50.0

    def test_lower_bound_flag_on_decreasing_objective(self):
        fit = fit_gamma_mle(lambda g: (-g, -1.0, 0.0), gamma_min=0.01)
        assert fit.at_lower_bound and not fit.at_upper_bound
        assert fit.gamma == 0.01
        assert not fit_gamma_mle(lambda g: (g, 1.0, 0.0)).at_lower_bound

    def test_level_fit_on_structureless_graph_stops_at_lower_bound(self):
        # a dense directed Erdos-Renyi graph has no level structure: the
        # level-model likelihood falls from the smallest allowed gamma on
        graph = random_graph(np.random.default_rng(3), 120, 0.5)
        levels = trophic_algorithm(graph)
        loglik = make_trophic_loglik(graph, levels.h)
        fit = fit_gamma_mle(functools.partial(loglik, derivatives=True), gamma_min=0.01)
        assert fit.gamma == 0.01
        assert fit.at_lower_bound and not fit.at_upper_bound
        assert loglik(0.01, derivatives=True)[1] < 0
        report = compare_models(graph, gamma_min=0.01)
        assert report.trophic_fit.at_lower_bound

    @pytest.mark.filterwarnings("ignore::dirlap.DegeneracyWarning")
    def test_flat_likelihood_rises_to_upper_bound(self):
        # at g = 1/3 the 3-cycle's phases are exact thirds: the pair-model
        # likelihood rises to its limit, flat to rounding at gamma_max,
        # where the score's sign decides the bound
        graph = parse_edge_list('a,1 b\nb "q\n"q a,1\n').graph
        report = compare_models(graph)
        third = next(fit for fit in report.per_g if fit.g == 1 / 3)
        assert third.gamma_mle == 50.0
        assert third.at_upper_bound and not third.at_lower_bound
        theta = magnetic_algorithm(graph, 1 / 3).theta
        assert make_prdrg_loglik(graph, theta, 1 / 3)(50.0, derivatives=True)[1] >= 0

    def test_single_point_grid_brackets_with_gamma_max(self):
        # a one-point likelihood curve holds only gamma_min; the fit does
        # not depend on it and finds the maximizer above
        objective = quadratic(2.0)
        grid, values = likelihood_curve(lambda g: objective(g)[0], points=1)
        assert list(grid) == [1e-3]
        fit = fit_gamma_mle(objective)
        assert abs(fit.gamma - 2.0) <= 1e-5
        assert not fit.at_upper_bound and not fit.at_lower_bound
        assert fit.loglik >= values.max()

    def test_non_finite_objective_rejected(self):
        with pytest.raises(NumericalError):
            fit_gamma_mle(lambda g: float("nan"))
        with pytest.raises(NumericalError):
            fit_gamma_mle(lambda g: (0.0, float("nan"), -1.0))

    def test_grid_refinement_never_decreases(self):
        # a tighter tolerance never ends lower; the objective is convex
        # above e^2, where the safeguard has to hold Newton in the bracket
        def objective(g):
            log_g = np.log(g)
            return (-(log_g - 1.0) ** 2, -2.0 * (log_g - 1.0) / g,
                    (2.0 * log_g - 4.0) / g ** 2)

        coarse = fit_gamma_mle(objective, tol=1e-3)
        fine = fit_gamma_mle(objective, tol=1e-9)
        assert fine.loglik >= coarse.loglik - 1e-12
        assert abs(fine.gamma - np.e) <= 1e-8

    def test_result_beats_every_grid_point(self):
        objective = quadratic(0.37)
        fit = fit_gamma_mle(objective)
        _, values = likelihood_curve(lambda g: objective(g)[0])
        assert (fit.loglik >= values).all()

    def test_recovers_generating_rate(self):
        # graph drawn at gamma = 5 with the true levels as attributes
        h = gen_trophic_levels(5, 100, 0.2, 1)
        graph = trophic_sample(TrophicParams(h, 5.0), 2)
        fit = fit_gamma_mle(functools.partial(make_trophic_loglik(graph, h),
                                              derivatives=True))
        assert abs(fit.gamma - 5.0) <= 0.5

    @pytest.mark.parametrize("name, loglik, expected, edges", FIT_OBJECTIVES, ids=FIT_IDS)
    def test_within_tol_of_dense_grid_maximizer(self, name, loglik, expected, edges):
        fit = fit_gamma_mle(functools.partial(loglik, derivatives=True))
        assert not fit.at_upper_bound and not fit.at_lower_bound
        assert abs(fit.gamma - dense_grid_maximizer(loglik)) <= 1e-6

    @pytest.mark.parametrize("name, loglik, expected, edges", FIT_OBJECTIVES, ids=FIT_IDS)
    def test_loglik_at_least_golden_section(self, name, loglik, expected, edges):
        fit = fit_gamma_mle(functools.partial(loglik, derivatives=True))
        _, golden = golden_section_fit(loglik)
        assert fit.loglik >= golden - 1e-14 * abs(golden)

    @pytest.mark.parametrize("name, loglik, expected, edges", FIT_OBJECTIVES, ids=FIT_IDS)
    def test_at_most_15_probes(self, name, loglik, expected, edges):
        calls = []
        fit_gamma_mle(counted(loglik, calls))
        assert len(calls) <= 15
        assert len(set(calls)) == len(calls)


class TestFitGammaDensity:
    def test_flat_expected_count_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            fit_gamma_density(lambda g: (10.0, 0.0), 10.0)
        with pytest.raises(ValueError, match="constant"):
            fit_gamma_density(lambda g: (10.0, 0.0), 9.0)

    def test_out_of_range_names_interval(self):
        with pytest.raises(ValueError, match="attainable"):
            fit_gamma_density(lambda g: (100.0 / (1.0 + g), -100.0 / (1.0 + g) ** 2),
                              2000.0)

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="gamma_min"):
            fit_gamma_density(lambda g: (100.0 / (1.0 + g), -100.0 / (1.0 + g) ** 2),
                              50.0, gamma_min=2.0, gamma_max=1.0)

    def test_recovers_root(self):
        expected = lambda g: (100.0 * np.exp(-g), -100.0 * np.exp(-g))
        gamma = fit_gamma_density(expected, 100.0 * np.exp(-3.0))
        assert abs(gamma - 3.0) <= 1e-4

    def test_prdrg_expected_count_bracket(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(0, 2 * np.pi, 30)
        observed = prdrg_expected_edges(theta, 2.0, 0.25)
        gamma = fit_gamma_density(functools.partial(
            _PairModel(theta, 0.25).expected_edges, derivatives=True), observed)
        assert abs(gamma - 2.0) <= 1e-3

    def test_trophic_density_estimate(self):
        rng = np.random.default_rng(1)
        h = rng.uniform(0, 4, 40)
        observed = trophic_expected_edges(h, 1.5)
        gamma = fit_gamma_density(functools.partial(
            _LevelModel(h).expected_edges, derivatives=True), observed)
        assert abs(gamma - 1.5) <= 1e-3

    def test_mle_more_accurate_than_density_match(self):
        # on a planted periodic instance the likelihood maximizer tracks the
        # generating decay rate far better than the edge-density match does
        truth, g = 5.0, 0.2
        theta = gen_clustered_angles(5, 100, 0.2, 20)
        graph = prdrg_sample(PRDRGParams(theta, truth, g), 21)
        scc, _ = largest_scc(graph)
        estimated = magnetic_algorithm(scc, g).theta
        mle = fit_gamma_mle(functools.partial(make_prdrg_loglik(scc, estimated, g),
                                              derivatives=True))
        density = fit_gamma_density(functools.partial(
            _PairModel(estimated, g).expected_edges, derivatives=True), scc.edge_count)
        assert abs(mle.gamma - truth) < abs(density - truth)
        assert abs(mle.gamma - truth) / truth <= 0.15

    @pytest.mark.parametrize("name, loglik, expected, edges", FIT_OBJECTIVES, ids=FIT_IDS)
    def test_match_bracketed_in_at_most_15_probes(self, name, loglik, expected, edges):
        # the count falls through the observed one within rel_tol of the
        # match, checked by plain probes on either side
        calls = []
        try:
            gamma = fit_gamma_density(counted(expected, calls), edges)
        except ValueError:
            assert len(calls) == 2          # only the two ends were probed
            return
        assert len(calls) <= 15
        assert expected(gamma * (1.0 - 1e-6)) >= edges >= expected(gamma * (1.0 + 1e-6))


class TestSelectG:
    def test_singleton_matches_direct_run(self):
        rng = np.random.default_rng(3)
        theta = gen_clustered_angles(4, 10, 0.1, 4)
        graph = prdrg_sample(PRDRGParams(theta, 3.0, 0.25), 5)
        result = select_g(graph, [0.25])
        assert result.best.g == 0.25
        direct = magnetic_algorithm(graph, 0.25)
        np.testing.assert_array_equal(result.assignment.theta, direct.theta)
        fit = fit_gamma_mle(functools.partial(
            make_prdrg_loglik(graph, direct.theta, 0.25), derivatives=True))
        assert result.best.loglik == pytest.approx(fit.loglik, rel=1e-12)
        del rng

    @pytest.mark.parametrize("run", [select_g, compare_models])
    def test_symmetrizes_once_for_all_candidates(self, monkeypatch, run):
        calls = count_view_builds(monkeypatch)
        graph = prdrg_sample(PRDRGParams(gen_clustered_angles(3, 10, 0.1, 1),
                                         3.0, 1 / 3), 2)
        run(graph, [1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6])
        assert len(calls) == 1

    def test_disconnected_graph_warns_once_per_candidate(self):
        # each candidate's magnetic_algorithm call warns for itself
        graph = DirectedGraph(5, ((0, 1), (1, 2), (2, 0), (3, 4)))
        candidates = [1 / 2, 1 / 3, 1 / 4]
        with pytest.warns(DegeneracyWarning) as record:
            select_g(graph, candidates)
        disconnected = [w for w in record if "not weakly connected" in str(w.message)]
        assert len(disconnected) == len(candidates)

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
    def test_peak_memory_at_n_4000(self):
        # O(n + m) throughout: 7.3 MiB measured, against 128 MB for one
        # dense n x n float64 matrix
        graph = block_cycle_graph(np.random.default_rng(0), 5, 800)
        tracemalloc.start()
        try:
            compare_models(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

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

    def test_connectivity_computed_once(self, monkeypatch):
        import dirlap.graphs as graphs
        runs = []
        original = graphs.connected_components

        def counted(*args, **kwargs):
            runs.append(kwargs["connection"])
            return original(*args, **kwargs)

        monkeypatch.setattr(graphs, "connected_components", counted)
        theta = gen_clustered_angles(3, 15, 0.2, 14)
        compare_models(prdrg_sample(PRDRGParams(theta, 3.0, 1 / 3), 15))
        assert runs == ["weak"]

    def test_pairs_edges_with_reverse_once(self, monkeypatch):
        # the symmetrized view fills the pair model's reciprocated mask
        import dirlap.graphs as graphs
        calls = []
        original = graphs._paired_with_reverse
        monkeypatch.setattr(graphs, "_paired_with_reverse",
                            lambda graph: calls.append(graph) or original(graph))
        theta = gen_clustered_angles(3, 15, 0.2, 14)
        compare_models(prdrg_sample(PRDRGParams(theta, 3.0, 1 / 3), 15))
        assert len(calls) == 1

    @pytest.mark.filterwarnings("ignore::dirlap.DegeneracyWarning")
    def test_disconnected_rejected(self):
        two_cycles = DirectedGraph(6, ((0, 1), (1, 2), (2, 0),
                                       (3, 4), (4, 5), (5, 3)))
        with pytest.raises(GraphStructureError, match="not weakly connected"):
            compare_models(two_cycles)

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
