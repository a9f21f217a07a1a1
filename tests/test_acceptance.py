"""Acceptance gate: one test per numbered criterion, one pass/fail line each.

Every test prints ``criterion N: PASS/FAIL`` with the measured numbers before
asserting, so a transcript of this module is the certification record.
"""

import math
import time

import numpy as np
import pytest

from cmclab import functionals as fn
from cmclab import metrics as mt
from cmclab.geometry import (area_element_comparison_residual, build_geometry,
                             mean_curvature_comparison_residual)
from cmclab.harness.config import load_config
from cmclab.harness.experiments import run_scan
from cmclab.solver import (CmcOptions, round_mean_curvature, solve_cmc,
                           stability_spectrum, trace_foliation)
from cmclab.sphere import (QuadratureGrid, SphereGraph, corpus_graph, lm_index,
                           moment_normalize, n_coeffs)

FOUR_PI = 4.0 * math.pi
SIXTEEN_PI = 16.0 * math.pi


def announce(number, ok, detail):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def grid32():
    return QuadratureGrid(32, 64)


def bumpy(seed, L, amp, scale):
    rng = np.random.default_rng(seed)
    c = np.zeros(n_coeffs(L))
    c[4:] = amp * rng.standard_normal(n_coeffs(L) - 4)
    return SphereGraph(np.zeros(3), scale, L, c)


def mixed_graph(weights, eps, L):
    c = np.zeros(n_coeffs(L))
    for (l, m), w in weights.items():
        c[lm_index(l, m)] = w
    c *= eps / np.linalg.norm(c[4:])
    return SphereGraph(np.zeros(3), 1.0, L, c)


@pytest.fixture(scope="module")
def schwarzschild_traces():
    """Five-leaf canonical foliations for masses 1 and 2."""
    traces = {}
    for mass in (1.0, 2.0):
        model = mt.schwarzschild_model(mass)
        trace = trace_foliation(
            model, round_mean_curvature(model, 6.0 * mass),
            round_mean_curvature(model, 16.0 * mass), n_leaves=5, L=16,
            opts=CmcOptions(tolerance=1e-9))
        assert not trace.truncated
        traces[mass] = (model, trace)
    return traces


def test_criterion_01_spectral_floor(grid32):
    start = time.perf_counter()
    cache = build_geometry(SphereGraph.round_sphere(2.0, L=24),
                           mt.euclidean_model(), grid32)
    h_err = float(np.max(np.abs(cache.H - 1.0)))
    gauss_err = abs(cache.integrate(cache.K) - FOUR_PI)
    elapsed = time.perf_counter() - start
    ok = h_err <= 1e-11 and gauss_err <= 1e-10 and elapsed < 1.0
    announce(1, ok, f"max|H-2/r|={h_err:.2e} (<=1e-11), "
                    f"|Gauss-4pi|={gauss_err:.2e} (<=1e-10), {elapsed:.2f}s (<1s)")


def test_criterion_02_hawking_exactness(grid32):
    start = time.perf_counter()
    worst = 0.0
    for mass in (1.0, 2.0):
        model = mt.schwarzschild_model(mass)
        for r in (4.0, 8.0, 16.0, 32.0, 64.0):
            cache = build_geometry(SphereGraph.round_sphere(r, L=6), model,
                                   grid32)
            worst = max(worst, abs(fn.hawking_mass(cache) - mass))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    announce(2, ok, f"max|m_H - m|={worst:.2e} (<=1e-8) over m in {{1,2}}, "
                    f"r in {{4..64}}, {elapsed:.2f}s (<5s)")


def test_criterion_03_area_H2_trend(grid32):
    start = time.perf_counter()
    model = mt.perturbed_model(1.0, mt.PerturbationSpec(terms=(
        mt.PerturbationTerm(power=2.0, amplitude=0.3, i=2, j=2,
                            profile=((1.0, (0, 0, 2)),)),)))
    trace = trace_foliation(model, round_mean_curvature(model, 5.0),
                            round_mean_curvature(model, 40.0), n_leaves=16,
                            L=16, opts=CmcOptions(tolerance=1e-9))
    assert not trace.truncated
    defects = []
    inv_r = []
    for leaf in trace.leaves:
        cache = build_geometry(leaf.surface, model, grid32)
        area = cache.area()
        defects.append(abs(area * leaf.H_target**2 - SIXTEEN_PI))
        inv_r.append(math.sqrt(FOUR_PI / area))
    slope = float(np.polyfit(inv_r, defects, 1)[0])
    ratio = defects[-1] / defects[0]
    elapsed = time.perf_counter() - start
    ok = slope > 0.0 and ratio < 0.25 and elapsed < 120.0
    announce(3, ok, f"16-leaf defect fit vs 1/r: slope={slope:.3g} (>0), "
                    f"last/first={ratio:.3f} (<0.25), {elapsed:.1f}s (<2min)")


def test_criterion_04_cy_on_stable_leaves(grid32, schwarzschild_traces):
    margins = []
    count = 0
    for mass, (model, trace) in schwarzschild_traces.items():
        for leaf in trace.leaves:
            assert leaf.converged and leaf.stable
            cache = build_geometry(leaf.surface, model, grid32)
            margins.append(fn.cy_deficit(cache)[2])
            count += 1
    flat = solve_cmc(bumpy(5, 8, 0.002, 2.1), mt.euclidean_model(), 1.0,
                     CmcOptions(tolerance=1e-10))
    assert flat.converged and flat.stable
    cache = build_geometry(flat.surface, mt.euclidean_model(), grid32)
    margins.append(fn.cy_deficit(cache)[2])
    count += 1
    worst = min(margins)
    ok = worst >= -1e-8
    announce(4, ok, f"min CY margin={worst:.3e} (>=-1e-8) over {count} "
                    f"converged stable leaves in zero-R models")


def test_criterion_05_deficit_expansion():
    epsilons = (1e-3, 3.1e-3, 1e-2, 3.1e-2, 1e-1)
    alphas = []
    orders = []
    for mode in ((2, 0), (3, 0), (4, 2)):
        alpha, order = fn.taylor_prefactor_fit(mode, epsilons)
        alphas.append(alpha)
        orders.append(order)
    spread = max(alphas) / min(alphas) - 1.0
    ok = min(orders) >= 2.8 and spread <= 0.02
    announce(5, ok, f"remainder orders={[f'{o:.2f}' for o in orders]} (>=2.8), "
                    f"alpha spread={100 * spread:.2f}% (<=2%), "
                    f"alpha~{np.mean(alphas):.4f}")


def test_criterion_06_sharp_minkowski_limit(grid32):
    families = (
        {(2, 0): 0.8, (3, 1): 0.5, (4, 2): 0.33},
        {(2, 1): 0.5, (3, 0): -0.7, (4, 0): 0.5},
    )
    worst_at_1e2 = 0.0
    monotone = True
    for weights in families:
        ratios = []
        for eps in (1e-2, 3e-3, 1e-3):
            graph, _, _ = moment_normalize(mixed_graph(weights, eps, L=6))
            cache = build_geometry(graph, mt.euclidean_model(), grid32)
            gap = math.sqrt(SIXTEEN_PI * cache.area_bar()) \
                - cache.integrate_bar(cache.H_bar)
            ratios.append(max(0.0, gap) / cache.integrate_bar(cache.tf2_bar))
        worst_at_1e2 = max(worst_at_1e2, ratios[0])
        monotone = monotone and ratios[0] >= ratios[1] >= ratios[2]
    ok = worst_at_1e2 <= 0.05 and monotone
    announce(6, ok, f"ratio at eps=1e-2: {worst_at_1e2:.3g} (<=0.05), "
                    f"monotone decreasing over eps {{1e-2,3e-3,1e-3}}: {monotone}")


def test_criterion_07_dlm_band_and_corpus(grid32):
    # the ratio tends to 1 - 2/(l(l+1)) on a single-mode family, so only
    # bands built from degrees >= 5 can reach [0.9, 1.1]
    lo, hi = math.inf, -math.inf
    families = [{(5, 2): 1.0}, {(6, 0): 1.0}, {(8, 4): 1.0},
                {(5, -2): 0.6, (6, 1): 0.5, (8, 0): 0.4}]
    for weights in families:
        for eps in (1e-2, 3e-3):
            L = max(l for l, _ in weights)
            cache = build_geometry(mixed_graph(weights, eps, L=L),
                                   mt.euclidean_model(), grid32)
            ratio = fn.dlm_ratio(cache)[1]
            lo, hi = min(lo, ratio), max(hi, ratio)
    corpus_max = 0.0
    for seed in range(100):
        cache = build_geometry(corpus_graph(seed, L=12, c1_target=0.1),
                               mt.euclidean_model(), grid32)
        corpus_max = max(corpus_max, fn.dlm_ratio(cache)[1])
    ok = lo >= 0.9 and hi <= 1.1 and corpus_max <= 2.0 + 1e-6
    announce(7, ok, f"near-round band [{lo:.3f}, {hi:.3f}] in [0.9, 1.1], "
                    f"corpus max={corpus_max:.4f} (<=2.0+1e-6, 100 seeds)")


def test_criterion_08_scaling_flux(tmp_path):
    config = load_config(environ={}, flag_overrides={
        "scan.lambdas": "4,8,16,32", "scan.xis": "2,0,0"})
    out = tmp_path / "scan8"
    status, _ = run_scan(config, str(out))
    assert status == 0
    import csv
    with open(out / "scan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    fluxes = [float(r["lambda2_flux"]) for r in rows]
    spread = (max(fluxes) - min(fluxes)) / min(fluxes)
    floor = min(fluxes)
    div = max(abs(float(r["divergence_residual"])) for r in rows)
    ok = spread < 0.05 and floor > 0.0 and div <= 1e-9
    announce(8, ok, f"lambda^2*flux spread={100 * spread:.2f}% (<5%), "
                    f"floor={floor:.6f} (>0), max divergence residual="
                    f"{div:.2e} (<=1e-9)")


def test_criterion_09_comparison_orders(grid32):
    model = mt.schwarzschild_model(1.0)
    exact = 0.0
    for r, center in ((4.0, (0.0, 0.0, 0.0)), (16.0, (48.0, 0.0, 0.0))):
        cache = build_geometry(SphereGraph.round_sphere(r, center=center, L=8),
                               model, grid32)
        exact = max(exact,
                    float(np.max(np.abs(area_element_comparison_residual(cache)))),
                    float(np.max(np.abs(mean_curvature_comparison_residual(cache)))))
    perturbed = mt.perturbed_model(1.0, mt.PerturbationSpec(terms=(
        mt.PerturbationTerm(power=2.0, amplitude=0.2, i=0, j=1,
                            profile=((1.0, (0, 0, 2)),)),
        mt.PerturbationTerm(power=2.0, amplitude=0.1, i=1, j=2),
    )))
    radii = np.array([8.0, 16.0, 32.0, 64.0])
    area_res, h_res = [], []
    for r in radii:
        cache = build_geometry(SphereGraph.round_sphere(r, L=8), perturbed,
                               grid32)
        area_res.append(np.max(np.abs(area_element_comparison_residual(cache))))
        h_res.append(np.max(np.abs(mean_curvature_comparison_residual(cache))))
    slope_a = float(np.polyfit(np.log(radii), np.log(area_res), 1)[0])
    slope_h = float(np.polyfit(np.log(radii), np.log(h_res), 1)[0])
    ok = exact <= 1e-10 and slope_a <= -3.5 and slope_h <= -3.5
    announce(9, ok, f"exact-Schwarzschild residual={exact:.2e} (<=1e-10), "
                    f"perturbed decay slopes=({slope_a:.2f}, {slope_h:.2f}) "
                    f"(<=-3.5)")


def test_criterion_10_stability_spectra(schwarzschild_traces):
    model = mt.euclidean_model()
    report = solve_cmc(SphereGraph.round_sphere(2.0, L=8), model, 1.0)
    vals = stability_spectrum(report, model, k=24, L_op=6)
    expected = np.repeat([(l * (l + 1) - 2) / 4.0 for l in (1, 2, 3, 4)],
                         [3, 5, 7, 9])
    euclid_err = float(np.max(np.abs(vals - expected)))
    leaf_min = min(leaf.stability_eigenvalue
                   for _, trace in schwarzschild_traces.values()
                   for leaf in trace.leaves)
    ok = euclid_err <= 1e-8 and leaf_min >= -1e-8
    announce(10, ok, f"Euclid eigenvalue error={euclid_err:.2e} (<=1e-8, "
                     f"l=1..4), Schwarzschild leaf min={leaf_min:.3e} "
                     f"(>=-1e-8)")


def test_criterion_11_performance(tmp_path):
    model = mt.schwarzschild_model(1.0)
    start = time.perf_counter()
    report = solve_cmc(bumpy(3, 24, 0.0004, 7.6), model,
                       round_mean_curvature(model, 8.0), CmcOptions())
    solve_time = time.perf_counter() - start
    assert report.converged
    diag = 2.0 / math.sqrt(3.0)
    config = load_config(environ={}, flag_overrides={
        "workers": "4",
        "scan.lambdas": "4,5.66,8,11.31,16,22.63,32,45.25",
        "scan.xis": f"2,0,0;0,2,0;0,0,2;{diag},{diag},{diag}"})
    start = time.perf_counter()
    status, _ = run_scan(config, str(tmp_path / "scan32"))
    scan_time = time.perf_counter() - start
    assert status == 0
    import csv
    with open(tmp_path / "scan32" / "scan.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 32
    ok = solve_time < 5.0 and scan_time < 180.0
    announce(11, ok, f"L=24 leaf solve {solve_time:.2f}s (<5s), 32-point "
                     f"scan with 4 workers {scan_time:.1f}s (<3min)")
