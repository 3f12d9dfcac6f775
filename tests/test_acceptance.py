"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from dirlap import (DirectedGraph, PRDRGParams, TrophicParams,
                    build_magnetic_laplacian, compare_models, frustration,
                    gen_clustered_angles, gen_trophic_levels, largest_scc,
                    largest_wcc, parse_edge_list, prdrg_pair_probs, prdrg_sample,
                    quadratic_form, symmetrize, trophic_algorithm,
                    trophic_edge_prob, trophic_incoherence, trophic_sample,
                    weighted_trophic_logdensity)
from dirlap.cli import main as cli_main
from dirlap.models import make_prdrg_loglik, make_trophic_loglik
from helpers import (adjacency, build_trophic_system, circular_correlation,
                     random_graph, random_weakly_connected_graph)

TWO_PI = 2 * np.pi
FOOD_WEB = Path(__file__).parent / "fixtures" / "food_web_scc.edges"


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_01_quadratic_form_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        graph = random_graph(rng, int(rng.integers(2, 51)), 0.2)
        sym = symmetrize(graph)
        g = rng.uniform(0.0, 0.5)
        theta = rng.uniform(0.0, TWO_PI, graph.n)
        eta = frustration(sym, theta, g)
        form = quadratic_form(build_magnetic_laplacian(sym, g),
                              np.exp(1j * theta))
        worst = max(worst, abs(form - eta / 2.0) / (1.0 + eta))
    elapsed = time.perf_counter() - started
    report(1, "quadratic form equals half the frustration",
           worst <= 1e-10 and elapsed < 10.0,
           f"worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_permutation_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    n = 6
    perms = list(itertools.permutations(range(n)))
    angle_values = TWO_PI * np.arange(n) / n
    level_values = np.arange(1.0, n + 1.0)
    rotations = (1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6)
    checked = 0
    for trial in range(50):
        graph = random_graph(rng, n, 0.35)
        if not graph.edges:
            continue
        sym = symmetrize(graph)
        g = rotations[trial % len(rotations)]
        etas = np.empty(len(perms))
        numerators = np.empty(len(perms))
        angle_logliks = {gamma: np.empty(len(perms)) for gamma in (0.5, 1.0, 5.0)}
        level_logliks = {gamma: np.empty(len(perms)) for gamma in (0.5, 1.0, 5.0)}
        for k, perm in enumerate(perms):
            theta = angle_values[list(perm)]
            h = level_values[list(perm)]
            etas[k] = frustration(sym, theta, g)
            numerators[k] = sum((h[j] - h[i] - 1.0) ** 2 for i, j in graph.edges)
            angle_fn = make_prdrg_loglik(graph, theta, g)
            level_fn = make_trophic_loglik(graph, h)
            for gamma in (0.5, 1.0, 5.0):
                angle_logliks[gamma][k] = angle_fn(gamma)
                level_logliks[gamma][k] = level_fn(gamma)
        eta_min = set(np.flatnonzero(etas <= etas.min()
                                     + 1e-8 * (1.0 + etas.min())))
        num_min = set(np.flatnonzero(numerators <= numerators.min()
                                     + 1e-8 * (1.0 + numerators.min())))
        for gamma in (0.5, 1.0, 5.0):
            best = angle_logliks[gamma].max()
            assert eta_min == set(np.flatnonzero(
                angle_logliks[gamma] >= best - 1e-8 * (1.0 + abs(best)))), \
                f"angle argmin/argmax mismatch (trial {trial}, gamma {gamma})"
            best = level_logliks[gamma].max()
            assert num_min == set(np.flatnonzero(
                level_logliks[gamma] >= best - 1e-8 * (1.0 + abs(best)))), \
                f"level argmin/argmax mismatch (trial {trial}, gamma {gamma})"
        checked += 1
    elapsed = time.perf_counter() - started
    report(2, "exhaustive permutation search matches both likelihoods",
           checked >= 45 and elapsed < 60.0,
           f"{checked} graphs x 720 permutations, {elapsed:.1f}s")


def test_criterion_03_periodic_synthetic_reproduction():
    started = time.perf_counter()
    clusters, size, gamma, noise = 5, 100, 5.0, 0.2
    theta_true = gen_clustered_angles(clusters, size, noise, 301)
    graph = prdrg_sample(PRDRGParams(theta_true, gamma, 1.0 / clusters), 302)
    scc, index_map = largest_scc(graph)
    result = compare_models(scc)
    corr = abs(circular_correlation(result.phases.theta,
                                    theta_true[list(index_map)]))
    elapsed = time.perf_counter() - started
    ratio_ref = 5.98e4
    ok = (result.best_g == pytest.approx(1.0 / clusters)
          and result.verdict == "periodic"
          and corr >= 0.95
          and ratio_ref / 3.0 <= result.log_ratio <= ratio_ref * 3.0
          and elapsed < 120.0)
    report(3, "periodic synthetic: rotation, verdict, phases, ratio scale", ok,
           f"scc {scc.n}/{scc.edge_count}, best g {result.best_g:.3f}, "
           f"|circ corr| {corr:.4f}, ln ratio {result.log_ratio:.3e}, "
           f"{elapsed:.1f}s")


def test_criterion_04_linear_synthetic_reproduction():
    started = time.perf_counter()
    clusters, size, gamma, noise = 5, 100, 5.0, 0.2
    h_true = gen_trophic_levels(clusters, size, noise, 401)
    graph = trophic_sample(TrophicParams(h_true, gamma), 402)
    wcc, index_map = largest_wcc(graph)
    result = compare_models(wcc)
    pearson = float(np.corrcoef(result.levels.h, h_true[list(index_map)])[0, 1])
    gamma_err = abs(result.trophic_fit.gamma_mle - gamma) / gamma
    elapsed = time.perf_counter() - started
    ok = (result.verdict == "linear"
          and pearson >= 0.95
          and gamma_err <= 0.25
          and elapsed < 120.0)
    report(4, "linear synthetic: verdict, levels, decay-rate recovery", ok,
           f"wcc {wcc.n}/{wcc.edge_count}, pearson {pearson:.4f}, "
           f"gamma {result.trophic_fit.gamma_mle:.3f}, best g "
           f"{result.best_g:.3f}, ln ratio {result.log_ratio:.3e}, "
           f"{elapsed:.1f}s")


def test_criterion_05_special_values():
    quarters = prdrg_pair_probs(1.234, 0.567, 0.0, 0.3)
    dev_quarters = max(abs(p - 0.25) for p in quarters)
    dev_half = abs(trophic_edge_prob(0.7, 1.7, 3.3) - 0.5)
    dev_equal = max(abs(trophic_edge_prob(h, h, gamma)
                        - 1.0 / (1.0 + math.exp(gamma)))
                    for h in (0.0, 2.5) for gamma in (0.5, 1.0, 5.0))
    ok = dev_quarters <= 1e-12 and dev_half <= 1e-12 and dev_equal <= 1e-12
    report(5, "closed-form probability special values", ok,
           f"max devs {dev_quarters:.1e} / {dev_half:.1e} / {dev_equal:.1e}")


def test_criterion_06_level_solver_optimality():
    rng = np.random.default_rng(606)
    worst_resid = 0.0
    worst_min = 0.0
    for _ in range(100):
        graph = random_weakly_connected_graph(rng, int(rng.integers(2, 201)))
        result = trophic_algorithm(graph)
        lam, chi, _ = build_trophic_system(graph)
        resid = (np.linalg.norm(lam @ result.h - chi)
                 / (1.0 + np.linalg.norm(chi)))
        worst_resid = max(worst_resid, resid)
        worst_min = max(worst_min, abs(result.h.min()))
        base = trophic_incoherence(graph, result.h)
        for _ in range(20):
            bump = result.h + 0.01 * rng.standard_normal(graph.n)
            assert trophic_incoherence(graph, bump) >= base - 1e-12
    ok = worst_resid <= 1e-9 and worst_min <= 1e-12
    report(6, "level solver: residual, anchoring, local optimality", ok,
           f"worst rel residual {worst_resid:.2e}")


def test_criterion_07_weight_density_normalization():
    rng = np.random.default_rng(707)
    cases = [(1.0, 1e-12), (1.0, 1e-6), (1.0, 10.0)]
    while len(cases) < 100:
        cases.append((float(rng.uniform(0.05, 20.0)),
                      float(rng.uniform(0.0, 4.0) ** 2)))
    worst = 0.0
    for gamma, penalty in cases:
        h = np.array([0.0, 1.0 + math.sqrt(penalty)])
        def density(w):
            graph = DirectedGraph(2, ((0, 1),), weights=(w,))
            return math.exp(weighted_trophic_logdensity(
                graph, TrophicParams(h, gamma)))
        integral, _ = quad(density, 0.0, 1.0)
        worst = max(worst, abs(integral - 1.0))
    report(7, "edge-weight density integrates to one", worst <= 1e-8,
           f"100 (gamma, penalty) pairs, worst dev {worst:.2e}")


def test_criterion_08_sampler_fidelity():
    # every pair shares the same outcome probabilities, so the pairs of a
    # single large draw are 1e5 iid samples
    n = 448                      # C(448, 2) = 100128 pairs
    gamma, g = 1.2, 0.2
    graph = prdrg_sample(PRDRGParams(np.zeros(n), gamma, g), 801)
    probs = prdrg_pair_probs(0.0, 0.0, gamma, g)
    pairs = math.comb(n, 2)
    adj = adjacency(graph).astype(bool)
    iu, ju = np.triu_indices(n, k=1)
    fwd, bwd = adj[iu, ju], adj[ju, iu]
    counts = np.array([(fwd & bwd).sum(), (fwd & ~bwd).sum(),
                       (~fwd & bwd).sum(), (~fwd & ~bwd).sum()])
    prdrg_ok = True
    prdrg_dev = 0.0
    for count, p in zip(counts, probs):
        se = math.sqrt(p * (1.0 - p) / pairs)
        dev = abs(count / pairs - p) / se
        prdrg_dev = max(prdrg_dev, dev)
        prdrg_ok = prdrg_ok and dev <= 3.0

    m = 318                      # 318 * 317 = 100806 ordered pairs
    gamma = 1.7
    tgraph = trophic_sample(TrophicParams(np.zeros(m), gamma), 802)
    p = trophic_edge_prob(0.0, 0.0, gamma)
    ordered = m * (m - 1)
    se = math.sqrt(p * (1.0 - p) / ordered)
    trophic_dev = abs(tgraph.edge_count / ordered - p) / se
    ok = prdrg_ok and trophic_dev <= 3.0
    report(8, "sampler frequencies within three standard errors", ok,
           f"max |z| four-outcome {prdrg_dev:.2f}, edge {trophic_dev:.2f}")


def test_criterion_09_food_web_sign():
    parsed_scc, _ = largest_scc(parse_edge_list(FOOD_WEB.read_text()).graph)
    result = compare_models(parsed_scc)
    ok = (parsed_scc.n == 12 and parsed_scc.edge_count == 28
          and result.best_g == pytest.approx(1 / 3)
          and result.log_ratio > 0)
    report(9, "food web: three-cluster rotation wins, ratio positive", ok,
           f"best g {result.best_g:.3f}, ln ratio {result.log_ratio:.4e} "
           "(informational)")


def test_criterion_10_byte_identical_runs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main(["compare", "--input", str(FOOD_WEB),
                         "--out-dir", str(out)])
        assert code == 0
    names = ("report.txt", "summary.csv", "phases.csv", "levels.csv",
             "likelihood_curve_prdrg.csv", "likelihood_curve_trophic.csv")
    same = all((out_a / name).read_bytes() == (out_b / name).read_bytes()
               for name in names)
    report(10, "compare reruns are byte-identical", same,
           f"{len(names)} files compared")
