"""Newton CMC solver: round oracles, stability spectra, foliation tracing."""

import functools
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, null_space

import cmclab.solver as solver
from cmclab import metrics as mt
from cmclab.errors import PreconditionError
from cmclab.geometry import (background_at, build_geometry,
                             mean_curvature_from_jets)
from cmclab.solver import (IMAG_STEP, JET_KEYS, CmcOptions, SolveReport,
                           _node_jacobian, _node_sensitivities,
                           round_mean_curvature,
                           round_seed_radius, solve_cmc, stability_spectrum,
                           trace_foliation)
from cmclab.sphere import (QuadratureGrid, SphereGraph, SphereJets, _guard_grid,
                           n_coeffs, quadrature_grid, synthesize)
from test_sphere import reference_basis_matrices

FOUR_PI = 4.0 * math.pi


def bumpy_seed(seed, L=8, amp=0.002, scale=2.0, center=(0.0, 0.0, 0.0)):
    rng = np.random.default_rng(seed)
    c = np.zeros(n_coeffs(L))
    c[4:] = amp * rng.standard_normal(n_coeffs(L) - 4)
    return SphereGraph(np.asarray(center, dtype=float), scale, L, c)


def flat_radius(graph):
    cache = build_geometry(graph, mt.euclidean_model(), QuadratureGrid(32, 64))
    return math.sqrt(cache.area_bar() / FOUR_PI)


# strong anisotropic bump: sigma_xx = 12 / |x|^2 outside the cutoff ramp
STRONG_XX = mt.perturbed_model(
    1.0, mt.PerturbationSpec((mt.PerturbationTerm(2.0, 12.0, 0, 0),)))


# --- contract under bad input ---

def test_solve_outside_metric_domain_reports_instead_of_raising():
    # the surface reaches radius 0.5, inside the excluded unit ball
    start = SphereGraph.round_sphere(1.5, center=(2.0, 0.0, 0.0))
    report = solve_cmc(start, mt.schwarzschild_model(1.0), 0.5)
    assert not report.converged
    assert report.iterations == 0
    assert math.isnan(report.final_residual)
    assert "cannot be evaluated" in report.message
    assert report.surface is start


# --- round-sphere curvature oracles ---

def test_round_mean_curvature_closed_form():
    assert round_mean_curvature(mt.euclidean_model(), 5.0) == pytest.approx(
        0.4, rel=1e-15)
    # m=2, r=4: (1/2)(3/4)/(5/4)^3 = 24/125
    assert round_mean_curvature(mt.schwarzschild_model(2.0), 4.0) == \
        pytest.approx(24.0 / 125.0, rel=1e-14)
    u = 1.0 + 1.0 / 6.0
    assert round_mean_curvature(mt.schwarzschild_model(1.0), 3.0) == \
        pytest.approx((2.0 / 3.0) * (1.0 - 1.0 / 6.0) / u**3, rel=1e-14)


def test_round_seed_radius_round_trip():
    for model in (mt.euclidean_model(), mt.schwarzschild_model(1.0),
                  mt.schwarzschild_model(2.0)):
        for H in (0.1, 0.02, 0.004):
            r = round_seed_radius(model, H)
            assert round_mean_curvature(model, r) == pytest.approx(H, rel=1e-11)
    for H in (0.5, 0.1, 0.02, 0.004, 3e-8):
        assert round_seed_radius(mt.euclidean_model(), H) == 2.0 / H


def test_round_seed_radius_takes_outer_root():
    # m=2: H peaks near r = 3.73, so H = 0.15 has two preimages
    model = mt.schwarzschild_model(2.0)
    r = round_seed_radius(model, 0.15)
    assert r > 3.8
    assert round_mean_curvature(model, r) == pytest.approx(0.15, rel=1e-11)
    # outer branch: H decreasing in r
    assert round_mean_curvature(model, 1.01 * r) < 0.15


def test_round_seed_radius_guards():
    model = mt.schwarzschild_model(1.0)
    with pytest.raises(PreconditionError):
        round_seed_radius(model, 0.0)
    with pytest.raises(PreconditionError):
        round_seed_radius(model, -0.3)
    # above the maximal round-sphere mean curvature for this mass
    with pytest.raises(PreconditionError):
        round_seed_radius(model, 1.0)


# --- solve_cmc ---

def test_solve_rejects_nonpositive_target():
    seed = SphereGraph.round_sphere(2.0, L=4)
    with pytest.raises(PreconditionError):
        solve_cmc(seed, mt.euclidean_model(), 0.0)
    with pytest.raises(PreconditionError):
        solve_cmc(seed, mt.euclidean_model(), -1.0)


def test_euclid_solve_recovers_round_sphere():
    # translations are exact zero modes in flat space, so the solution may
    # drift off center; certify roundness by translation-invariant posts
    model = mt.euclidean_model()
    seed = bumpy_seed(5, L=8, amp=0.002, scale=2.1)
    report = solve_cmc(seed, model, 1.0, CmcOptions(tolerance=1e-10))
    assert report.converged
    assert report.final_residual <= 1e-10
    cache = build_geometry(report.surface, model, QuadratureGrid(32, 64))
    assert cache.integrate_bar(cache.tf2_bar) <= 1e-9
    assert math.sqrt(cache.area_bar() / FOUR_PI) == pytest.approx(2.0, abs=1e-8)
    assert report.stable
    assert report.stability_eigenvalue >= -1e-8


def test_refined_certificate_matches_independent_residual():
    model = mt.euclidean_model()
    report = solve_cmc(bumpy_seed(11, L=6, amp=0.002), model, 1.0,
                       CmcOptions(tolerance=1e-10))
    assert report.converged
    cache = build_geometry(report.surface, model, QuadratureGrid(40, 80))
    independent = float(np.max(np.abs(cache.H - 1.0)))
    assert independent <= 10.0 * 1e-10
    assert report.final_residual <= 1e-10


def test_schwarzschild_solve_radius_oracle():
    # centered round chart spheres are the only CMC spheres here, so the
    # converged flat area radius must match the seed-radius root
    model = mt.schwarzschild_model(1.0)
    target = round_mean_curvature(model, 6.0)
    seed = bumpy_seed(3, L=8, amp=0.002, scale=5.5)
    report = solve_cmc(seed, model, target, CmcOptions(tolerance=1e-11))
    assert report.converged
    cache = build_geometry(report.surface, model, QuadratureGrid(32, 64))
    assert math.sqrt(cache.area_bar() / FOUR_PI) == pytest.approx(6.0, abs=1e-8)
    assert cache.integrate_bar(cache.tf2_bar) <= 1e-15
    assert report.stable


def test_iteration_cap_reports_honestly():
    seed = bumpy_seed(7, L=6, amp=0.008, scale=2.0)
    report = solve_cmc(seed, mt.euclidean_model(), 1.0,
                       CmcOptions(max_iterations=2, tolerance=1e-12))
    assert not report.converged
    assert report.iterations == 2
    assert "iteration cap" in report.message
    assert np.isfinite(report.final_residual)
    assert math.isnan(report.stability_eigenvalue)
    assert not report.stable


@pytest.mark.parametrize("model, center, size", [
    (mt.euclidean_model(), (0.0, 0.0, 0.0), n_coeffs(8) - 3),
    (mt.schwarzschild_model(1.0), (0.3, 0.0, 0.0), n_coeffs(8))],
    ids=["flat", "schwarzschild"])
def test_singular_jacobian_reports_instead_of_raising(model, center, size,
                                                      monkeypatch):
    # flat space is translation invariant and solves the block without
    # degree 1; every step in Schwarzschild solves the full system
    sizes = []

    def spy(a, b):
        sizes.append(len(b))
        return solve(a, b)

    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", spy)
    monkeypatch.setattr(solver, "_node_jacobian",
                        lambda *args: np.zeros((n_coeffs(8), n_coeffs(8))))
    seed = bumpy_seed(2, L=8, amp=0.002, scale=6.0, center=center)
    report = solve_cmc(seed, model, round_mean_curvature(model, 6.3))
    assert sizes == [size]
    assert not report.converged
    assert report.iterations == 1
    assert report.message == "singular Newton Jacobian"
    assert report.surface.center.tolist() == list(center)


# --- translation gauge ---

@pytest.mark.parametrize("seed", [3, 4, 23])
def test_flat_solve_does_not_drift_along_translations(seed):
    # run_verify's flat solve for these verify seeds; the ridged normal
    # equations stalled on all three
    report = solve_cmc(bumpy_seed(seed + 5, L=8, amp=0.002, scale=2.1),
                       mt.euclidean_model(), 1.0,
                       CmcOptions(tolerance=1e-10))
    assert report.converged
    assert report.iterations <= 5


def test_odd_perturbation_shifts_the_center():
    # the sigma_xz = 0.3 (x/|x|) / |x|^2 term pushes the leaf along z; the
    # shift goes into the center and no degree-1 content is left
    model = mt.perturbed_model(1.0, mt.PerturbationSpec(
        (mt.PerturbationTerm(2.0, 0.3, 0, 2, ((1.0, (1, 0, 0)),)),)))
    target = round_mean_curvature(model, 5.0)
    seed = SphereGraph.round_sphere(round_seed_radius(model, target), L=16)
    report = solve_cmc(seed, model, target)
    assert report.converged
    assert report.surface.coeffs[1:4].tolist() == [0.0, 0.0, 0.0]
    assert report.surface.center[2] == pytest.approx(-0.0248, abs=1e-4)
    area = build_geometry(report.surface, model, QuadratureGrid(32, 64)).area()
    # the area the ridged normal-equation solver gave, with the shift held
    # as degree-1 content of the graph instead of in the center
    assert area == pytest.approx(459.97941141120907, rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1])
def test_off_center_seed_moves_to_the_symmetry_center(seed):
    # the z^2 perturbation keeps the reflection symmetries of Schwarzschild,
    # so the leaf is centered; the ridged solver stalled at 2.048e-9 here
    model = mt.perturbed_model(1.0, mt.PerturbationSpec(
        (mt.PerturbationTerm(3.0, 0.3, 2, 2, ((1.0, (0, 0, 2)),)),)))
    start = bumpy_seed(seed, L=8, amp=3e-3, scale=6.0, center=(0.1, 0.0, 0.2))
    report = solve_cmc(start, model, round_mean_curvature(model, 6.3))
    assert report.converged
    assert report.iterations <= 5
    assert np.linalg.norm(report.surface.center) <= 1e-6


def solve24_problem():
    # the L=24 benchmark's first problem (seed 0, pass 0, solve 0): a bumpy
    # graph in Schwarzschild whose translation force is not zero by symmetry
    model = mt.schwarzschild_model(1.0)
    return (bumpy_seed([0, 0], L=24, amp=4e-4, scale=0.95 * 8.0), model,
            round_mean_curvature(model, 8.0))


def test_curved_solve_ends_at_round_off():
    # every step balances the translation force, so none is left behind at
    # the tolerance; a step that dropped degree 1 ended at 5.1e-11 here
    graph, model, target = solve24_problem()
    report = solve_cmc(graph, model, target)
    assert report.converged
    assert report.final_residual <= 1e-14


def test_round_off_floor_above_a_tenth_of_the_tolerance_stops():
    # the coarse residual cannot reach 1e-16 here; the stop needs the
    # stagnation exit, not the margin, and the report carries no message
    graph, model, target = solve24_problem()
    report = solve_cmc(graph, model, target,
                       CmcOptions(tolerance=1e-15))
    assert report.converged
    assert report.iterations <= 5
    assert report.message == ""


def test_ladder_reports_its_steps_per_degree():
    graph, model, target = solve24_problem()
    report = solve_cmc(graph, model, target)
    ladder = report.to_json_dict()["ladder"]
    assert [degree for degree, _ in ladder] == [8, 12, 16, 20, 24]
    assert sum(steps for _, steps in ladder) == report.iterations
    assert ladder[-1] == [graph.L, 0]


def recording_jacobian_degrees(monkeypatch, zero_below=None):
    """Record the degree of every Newton Jacobian; below ``zero_below`` the
    Jacobian is replaced by zeros."""
    degrees = []
    node_jacobian = solver._node_jacobian

    def recording(jets, background, center, scale, model, grid, L):
        degrees.append(L)
        if zero_below is not None and L < zero_below:
            return np.zeros((n_coeffs(L), n_coeffs(L)))
        return node_jacobian(jets, background, center, scale, model, grid, L)

    monkeypatch.setattr(solver, "_node_jacobian", recording)
    return degrees


def test_solve24_assembles_no_jacobian_at_the_top_degree(monkeypatch):
    # the lower degrees take the Newton steps down to round-off, so the top
    # degree starts at round-off and takes no step
    degrees = recording_jacobian_degrees(monkeypatch)
    graph, model, target = solve24_problem()
    report = solve_cmc(graph, model, target)
    assert report.converged
    assert report.final_residual <= 1e-14
    assert degrees.count(24) == 0
    assert len(degrees) == report.iterations


def test_first_criterion3_leaf_takes_no_step_at_the_top_degree(monkeypatch):
    # the first leaf of criterion 3's z^2 foliation at L=16: the lower
    # degrees resolve it to their round-off, so the top degree stops at once,
    # inside the 0.1 tol margin
    degrees = recording_jacobian_degrees(monkeypatch)
    model = mt.perturbed_model(1.0, mt.PerturbationSpec(
        (mt.PerturbationTerm(2.0, 0.3, 2, 2, ((1.0, (0, 0, 2)),)),)))
    target = round_mean_curvature(model, 5.0)
    seed = SphereGraph.round_sphere(round_seed_radius(model, target), L=16)
    report = solve_cmc(seed, model, target)
    assert report.converged
    assert report.final_residual <= 0.1 * CmcOptions().tolerance
    assert degrees.count(16) == 0
    assert report.ladder[-1] == [16, 0]


def test_failed_lower_levels_hand_on_their_start(monkeypatch):
    # a zero Jacobian fails every lower level at its first step; the top
    # degree then solves from the seed itself
    degrees = recording_jacobian_degrees(monkeypatch, zero_below=24)
    graph, model, target = solve24_problem()
    report = solve_cmc(graph, model, target)
    assert report.converged
    assert report.final_residual <= 1e-14
    assert degrees[:4] == [8, 12, 16, 20]
    assert report.ladder[:4] == [[8, 1], [12, 1], [16, 1], [20, 1]]


@pytest.mark.parametrize("seed", [1, 7])
def test_far_field_leaf_stays_at_the_symmetry_center(seed):
    # at r = 1000 the degree-1 block of J is about 6m/r^3 = 6e-9; a force
    # left at the tolerance put the center 5.4e-5 r and 6.0e-5 r away
    r = 1000.0
    model = mt.schwarzschild_model(1.0)
    start = bumpy_seed(seed, L=16, amp=4e-4, scale=0.95 * r)
    report = solve_cmc(start, model, round_mean_curvature(model, r))
    assert report.converged
    assert np.linalg.norm(report.surface.center) <= 1e-6 * r


@pytest.mark.parametrize("seed", [1, 5])
def test_far_field_leaf_converges_from_its_low_degrees(seed):
    # at r = 5000 a first step at L=16 threw the center 0.65 r and 0.30 r
    # away and the solve stalled; the low degrees drop the seed's high-degree
    # content before the center moves
    r = 5000.0
    model = mt.schwarzschild_model(1.0)
    start = bumpy_seed(seed, L=16, amp=4e-4, scale=0.95 * r)
    report = solve_cmc(start, model, round_mean_curvature(model, r))
    assert report.converged
    assert np.linalg.norm(report.surface.center) <= 1e-6 * r


def test_far_leaf_keeps_its_start_when_a_low_degree_wanders():
    # at r = 20000 the degree-8 level stops at its truncation floor with the
    # center 1.4 scale away: handing that iterate on lost this leaf, so a
    # floor iterate that moved the center by more than the embedding bound
    # times the scale is dropped
    r = 20000.0
    model = mt.schwarzschild_model(1.0)
    start = bumpy_seed(0, L=16, amp=4e-4, scale=0.95 * r)
    report = solve_cmc(start, model, round_mean_curvature(model, r))
    assert report.converged
    assert np.linalg.norm(report.surface.center) <= 1e-6 * r


# --- constrained stability spectrum ---

def test_euclid_spectrum_closed_form():
    # volume-constrained Jacobi eigenvalues of the round r-sphere are
    # (l(l+1) - 2) / r^2 with multiplicity 2l+1, l >= 1
    model = mt.euclidean_model()
    report = solve_cmc(SphereGraph.round_sphere(2.0, L=8), model, 1.0)
    assert report.converged and report.iterations == 0
    vals = stability_spectrum(report, model, k=24)
    expected = np.repeat([(l * (l + 1) - 2) / 4.0 for l in (1, 2, 3, 4)],
                         [3, 5, 7, 9])
    np.testing.assert_allclose(vals, expected, atol=1e-8)


def test_schwarzschild_spectrum_strictly_stable():
    model = mt.schwarzschild_model(1.0)
    target = round_mean_curvature(model, 8.0)
    report = solve_cmc(SphereGraph.round_sphere(8.0, L=8), model, target)
    assert report.converged
    vals = stability_spectrum(report, model, k=8)
    assert vals[0] >= -1e-8
    assert report.stable


@pytest.mark.parametrize("L", [8, 16, 24])
def test_schwarzschild_spectrum_closed_form(L):
    # on the centered sphere of coordinate radius r and area radius
    # R = r (1 + m/2r)^2, |h|^2 = H^2/2 and Ric(nu,nu) = -2m/R^3, so the
    # volume-constrained eigenvalues are (l(l+1) - 2)/R^2 + 6m/R^3 with
    # multiplicity 2l+1; the l=1 triplet is the positive-mass translation mode
    m = 1.0
    model = mt.schwarzschild_model(m)
    for r in (8.0, 40.0, 200.0, 1000.0, 5000.0):
        R = r * (1.0 + m / (2.0 * r)) ** 2
        want = [(l * (l + 1) - 2) / R**2 + 6.0 * m / R**3 for l in (1, 2)]
        vals, _ = solver._constrained_spectrum(
            SphereGraph.round_sphere(r, L=L), model, 8)
        np.testing.assert_allclose(vals[:3], want[0], rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(vals[3:], want[1], rtol=1e-12, atol=0.0)


def test_stability_spectrum_requires_convergence():
    report = SolveReport(converged=False, iterations=0, final_residual=1.0,
                         surface=SphereGraph.round_sphere(2.0, L=4),
                         H_target=1.0)
    with pytest.raises(PreconditionError):
        stability_spectrum(report, mt.euclidean_model(), k=4)


@functools.lru_cache(maxsize=None)
def unstable_leaf_report():
    # a strong constant sigma_xx flips the lowest constrained eigenvalue;
    # target the perturbed sphere's own mean curvature so Newton converges
    surface = SphereGraph.round_sphere(3.0, L=16)
    cache = build_geometry(surface, STRONG_XX, QuadratureGrid(34, 68))
    target = cache.integrate(cache.H) / cache.area()
    return solve_cmc(surface, STRONG_XX, target, CmcOptions(tolerance=1e-8))


def test_unstable_leaf_detected():
    report = unstable_leaf_report()
    assert report.converged
    assert report.stability_eigenvalue < -1e-3
    assert not report.stable


def test_floor_iterates_are_handed_on():
    # degrees 8 and 12 stop at their truncation floors (6.6e-6 and 7.7e-8
    # from 2.3e-2); handing those iterates on saves the steps that redid them
    report = unstable_leaf_report()
    assert report.ladder == [[8, 3], [12, 2], [16, 2]]


# --- foliation tracing ---

def test_trace_foliation_schwarzschild_nested():
    model = mt.schwarzschild_model(2.0)
    H_start = round_mean_curvature(model, 6.0)
    H_end = round_mean_curvature(model, 16.0)
    trace = trace_foliation(model, H_start, H_end, n_leaves=4, L=10,
                            opts=CmcOptions(tolerance=1e-9))
    assert not trace.truncated
    assert trace.nested_ok
    assert len(trace.leaves) == 4
    targets = np.geomspace(H_start, H_end, 4)
    for leaf, target in zip(trace.leaves, targets):
        assert leaf.converged and leaf.stable
        assert leaf.H_target == pytest.approx(target, rel=1e-14)
        assert flat_radius(leaf.surface) == pytest.approx(
            round_seed_radius(model, target), abs=1e-6)
    assert all(b > a for a, b in zip(trace.volumes, trace.volumes[1:]))
    payload = trace.to_json_dict()
    assert payload["truncated"] is False
    assert len(payload["leaves"]) == 4
    assert payload["metric"]["kind"] == "schwarzschild"


def test_trace_truncates_on_unreachable_start():
    trace = trace_foliation(mt.schwarzschild_model(1.0), 1.0, 0.1, n_leaves=3,
                            L=8)
    assert trace.truncated
    assert trace.diagnostic.startswith("leaf 0 seeding failed")
    assert trace.leaves == []


def test_trace_truncates_on_failed_leaf():
    model = mt.perturbed_model(
        1.0, mt.PerturbationSpec((mt.PerturbationTerm(2.0, 0.3, 0, 1),)))
    H_start = round_mean_curvature(model, 5.0)
    trace = trace_foliation(model, H_start, 0.5 * H_start, n_leaves=2, L=8,
                            opts=CmcOptions(max_iterations=1, tolerance=1e-12))
    assert trace.truncated
    assert "leaf 0" in trace.diagnostic
    assert "did not converge" in trace.diagnostic
    assert trace.leaves == []


def test_trace_guards():
    model = mt.schwarzschild_model(1.0)
    with pytest.raises(PreconditionError):
        trace_foliation(model, 0.1, 0.2, n_leaves=3)
    with pytest.raises(PreconditionError):
        trace_foliation(model, 0.2, -0.1, n_leaves=3)
    with pytest.raises(PreconditionError):
        trace_foliation(model, 0.2, 0.1, n_leaves=0)


# --- Jacobian, spectrum and basis use against the dense references ---

def reference_node_sensitivities(jets, center, scale, model, grid):
    """Every jet evaluates the metric at its own points."""
    names = ("f", "dth", "dph", "dthth", "dthph", "dphph")
    arrays = {k: getattr(jets, f) for k, f in zip(JET_KEYS, names)}
    out = []
    for key in JET_KEYS:
        bumped = dict(arrays)
        bumped[key] = arrays[key] + 1j * IMAG_STEP
        jp = SphereJets(*(bumped[k] for k in JET_KEYS))
        G = np.imag(
            mean_curvature_from_jets(jp, center, scale, model, grid)
        ) / IMAG_STEP
        out.append(G)
    return out


@pytest.mark.parametrize("model", [
    mt.euclidean_model(), mt.schwarzschild_model(1.0),
    mt.perturbed_model(1.0, mt.PerturbationSpec(
        (mt.PerturbationTerm(3.0, 0.3, 2, 2, ((1.0, (0, 0, 2)),)),)))],
    ids=["euclidean", "schwarzschild", "perturbed"])
def test_node_jacobian_matches_per_jet_reference_bitwise(model):
    graph = bumpy_seed(3, L=6, amp=0.003, scale=4.0, center=(0.3, 0.0, -0.2))
    grid = QuadratureGrid(12, 24)
    jets = synthesize(graph.coeffs, grid, graph.L)
    background = background_at(jets, graph.center, graph.scale, model, grid)
    assert (background is None) == (model.kind == mt.EUCLIDEAN)
    args = (jets, background, graph.center, graph.scale, model, grid)
    want = reference_node_sensitivities(jets, graph.center, graph.scale,
                                        model, grid)
    got = _node_sensitivities(*args)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    # the sum-factorised coefficient Jacobian against the dense A @ M
    basis = reference_basis_matrices(grid, graph.L)
    M = sum(G[:, None] * basis[k] for k, G in zip(JET_KEYS, want))
    dense = (basis["val"] * grid.weights[:, None]).T @ M
    J = _node_jacobian(*args, graph.L)
    assert np.max(np.abs(J - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_solves_and_spectra_build_no_basis_matrix():
    quadrature_grid.cache_clear()  # the cache outlives tests
    model = mt.schwarzschild_model(1.0)
    for seed in (1, 2):
        report = solve_cmc(bumpy_seed(seed, L=6, amp=0.001, scale=5.7), model,
                           round_mean_curvature(model, 6.0))
        assert report.converged and report.stable
        assert np.isfinite(report.stability_eigenvalue)
    # the Jacobians and the spectra were assembled by sum factorisation
    for shape in ((32, 64), (14, 26)):
        assert ("theta_columns", 6) in quadrature_grid(*shape)._cache


def reference_constrained_spectrum(surface, model, k, grid):
    """The spectrum from the dense basis matrices, an orthonormal null-space
    basis of the constraint and a full generalized eigensolve."""
    cache = build_geometry(surface, model, grid)
    basis = reference_basis_matrices(grid, surface.L)
    B, Bt, Bp = basis["val"], basis["dth"], basis["dph"]
    wj = grid.weights * cache.J
    gi = cache.ginv_ind
    Q = (Bt.T @ ((wj * gi[:, 0, 0])[:, None] * Bt)
         + Bt.T @ ((wj * gi[:, 0, 1])[:, None] * Bp)
         + Bp.T @ ((wj * gi[:, 0, 1])[:, None] * Bt)
         + Bp.T @ ((wj * gi[:, 1, 1])[:, None] * Bp))
    pot = cache.tf2 + 0.5 * cache.H**2 + cache.ric_nu_nu
    Q -= B.T @ ((wj * pot)[:, None] * B)
    Mass = B.T @ (wj[:, None] * B)
    N = null_space((B.T @ wj)[None, :])
    Qc = N.T @ Q @ N
    Mc = N.T @ Mass @ N
    return eigh(0.5 * (Qc + Qc.T), 0.5 * (Mc + Mc.T), eigvals_only=True)[:k]


Z2_MODEL = mt.perturbed_model(1.0, mt.PerturbationSpec(
    (mt.PerturbationTerm(2.0, 0.3, 2, 2, ((1.0, (0, 0, 2)),)),)))


def perturbed_pencil(L):
    surface = bumpy_seed(4, L=L, amp=3e-4, scale=8.0, center=(0.2, -0.1, 0.3))
    return surface, Z2_MODEL


def criterion_10_pencil(L):
    # the flat round sphere of criterion 10: 24 values
    return SphereGraph.round_sphere(2.0, L=L), mt.euclidean_model()


def unstable_leaf_pencil(L):
    # the converged L=16 leaf of test_unstable_leaf_detected, lambda_min < 0
    report = unstable_leaf_report()
    assert report.converged and report.surface.L == L
    return report.surface, STRONG_XX


@pytest.mark.parametrize("pencil, L, ks", [
    pytest.param(perturbed_pencil, 16, (1, 4, 8), id="16"),
    pytest.param(perturbed_pencil, 24, (1, 4, 8), id="24"),
    pytest.param(criterion_10_pencil, 8, (24,), id="criterion-10"),
    pytest.param(unstable_leaf_pencil, 16, (1, 4, 8), id="unstable-leaf")])
def test_constrained_spectrum_matches_dense_reference(pencil, L, ks):
    surface, model = pencil(L)
    # the reference is the degree-L pencil on the grid the spectrum uses, the
    # guard grid of L; the adaptive value must agree with it
    grid = _guard_grid(L)
    want = reference_constrained_spectrum(surface, model, max(ks), grid)
    for k in ks:
        got, _ = solver._constrained_spectrum(surface, model, k)
        assert got.shape == (k,)
        # up to k = 4 relative to lambda_min; beyond it (the l=2 modes) and
        # for criterion 10, whose lambda_min is 0, relative to max|want[:k]|
        scale = abs(want[0]) if k <= 4 else np.max(np.abs(want[:k]))
        assert np.max(np.abs(got - want[:k])) <= 1e-10 * scale


@settings(max_examples=25, derandomize=True, deadline=None)
@given(model=st.one_of(st.just(mt.euclidean_model()),
                       st.floats(0.5, 2.0).map(mt.schwarzschild_model),
                       st.just(Z2_MODEL)),
       L=st.sampled_from([4, 6, 8]), amp=st.floats(1e-4, 1e-3),
       seed=st.integers(0, 2**16), scale=st.floats(3.0, 50.0))
def test_constrained_spectrum_matches_dense_reference_on_drawn_surfaces(
        model, L, amp, seed, scale):
    # degree >= 2 content of largest amplitude amp makes the area density
    # non-constant, so the constraint row is not a multiple of e_0
    x = np.random.default_rng(seed).standard_normal(n_coeffs(L) - 4)
    c = np.zeros(n_coeffs(L))
    c[4:] = amp * x / np.max(np.abs(x))
    surface = SphereGraph(np.zeros(3), scale, L, c)
    want = reference_constrained_spectrum(surface, model, 4, _guard_grid(L))
    # the flat model's translation triplet lies at 0 up to the bumps, so
    # there the bound is relative to the first l=2 value
    flat = model.kind == mt.EUCLIDEAN
    bound = 1e-10 * (np.max(np.abs(want)) if flat else abs(want[0]))
    for k in (1, 4):
        got, _ = solver._constrained_spectrum(surface, model, k)
        assert np.max(np.abs(got - want[:k])) <= bound


def recording_pencils(monkeypatch):
    """Record every pencil (Q, M, k) and the constrained values the Cholesky
    congruence gave for it."""
    pencils = []
    route = solver._pencil_eigenvalues

    def recording(Q, M, k):
        values = route(Q, M, k)
        pencils.append((Q.copy(), M.copy(), k, values))
        return values

    monkeypatch.setattr(solver, "_pencil_eigenvalues", recording)
    return pencils


def assert_matches_subset_eigh(pencils):
    # scipy's generalized subset eigh of the constrained pencil, on an
    # orthonormal basis of the null space of the constraint row M[0].
    # Where lambda_min lies far below the pencil's scale (perturbed 24:
    # 3.2e-5 against a round-off floor of 1e-12 at n = 624), every dense
    # solver is accurate only to that floor: there scipy's subset and full
    # solves are 5.4e-11 and 1.0e-10 relative off the Rayleigh quotient of
    # their eigenvector in extended precision.  So the bound is 1e-12
    # relative or a tenth of the floor the spectrum loop stops on.
    for Q, M, k, got in pencils:
        N = null_space(M[:1])
        want = eigh(N.T @ Q @ N, N.T @ M @ N, eigvals_only=True,
                    subset_by_index=[0, k - 1])
        floor = ((Q.shape[0] - 1) * np.finfo(float).eps
                 * np.max(np.abs(np.diagonal(Q))) / np.min(np.diagonal(M)))
        assert got.shape == (k,)
        assert np.max(np.abs(got - want)) <= max(
            1e-12 * np.max(np.abs(want)), 0.1 * floor)


@pytest.mark.parametrize("pencil, L, ks", [
    pytest.param(perturbed_pencil, 16, (1, 4, 8), id="16"),
    pytest.param(perturbed_pencil, 24, (1, 4, 8), id="24"),
    pytest.param(criterion_10_pencil, 8, (24,), id="criterion-10"),
    pytest.param(unstable_leaf_pencil, 16, (1, 4, 8), id="unstable-leaf")])
def test_cholesky_congruence_matches_scipy_subset_eigh(monkeypatch, pencil, L,
                                                       ks):
    surface, model = pencil(L)
    pencils = recording_pencils(monkeypatch)
    for k in ks:
        solver._constrained_spectrum(surface, model, k)
    # every pencil runs up to degree L (n = 624 free values at 24)
    assert max(Q.shape[0] for Q, *_ in pencils) == (L + 1) ** 2
    assert_matches_subset_eigh(pencils)


def test_indefinite_mass_raises_linalg_error():
    Q = np.diag([1.0, 2.0, 3.0])
    for M in (np.diag([1.0, -1.0, 2.0]), np.diag([1.0, 0.0, 2.0])):
        with pytest.raises(np.linalg.LinAlgError):
            solver._pencil_eigenvalues(Q, M, 1)


def test_constrained_spectrum_rejects_k_out_of_range():
    # (L + 1)^2 coefficients less the volume constraint
    model = mt.euclidean_model()
    surfaces = {L: SphereGraph.round_sphere(2.0, L=L) for L in (3, 4)}
    reports = {L: SolveReport(converged=True, iterations=0, final_residual=0.0,
                              surface=surface, H_target=1.0)
               for L, surface in surfaces.items()}
    for k, L in ((0, 4), (-1, 3), (25, 4), (16, 3)):
        with pytest.raises(PreconditionError, match="k must lie in"):
            solver._constrained_spectrum(surfaces[L], model, k)
        with pytest.raises(PreconditionError, match="k must lie in"):
            stability_spectrum(reports[L], model, k=k)
    assert solver._constrained_spectrum(surfaces[4], model,
                                        24)[0].shape == (24,)
    assert stability_spectrum(reports[3], model, k=15).shape == (15,)


@pytest.mark.parametrize("pencil, L", [
    pytest.param(perturbed_pencil, 16, id="16"),
    pytest.param(perturbed_pencil, 24, id="24"),
    pytest.param(unstable_leaf_pencil, 16, id="unstable-leaf")])
def test_lambda_min_does_not_rise_with_the_operator_degree(monkeypatch,
                                                          pencil, L):
    # every pencil is built on the guard grid of L and the constrained
    # subspaces are nested in the degree, so by Courant-Fischer lambda_min
    # can only fall as the degree grows; these pencils run up to L
    surface, model = pencil(L)
    pencils = recording_pencils(monkeypatch)
    solver._constrained_spectrum(surface, model, 1)
    assert [Q.shape[0] for Q, *_ in pencils] == [
        (degree + 1) ** 2 for degree in range(8, L + 1, 4)]
    values = [got[0] for *_, got in pencils]
    for coarse, fine in zip(values, values[1:]):
        assert fine <= coarse + 1e-13 * abs(coarse)


def test_certificate_stops_at_the_degree_that_resolves_it(monkeypatch):
    # a solve24 problem: Schwarzschild m=1, L=24, round radius 8, scale 0.95 r
    # and amplitude 4e-4; the certificate's pencils stay at degree <= 12
    L = 24
    calls = []
    galerkin = solver.galerkin

    def recording(grid, degree, terms):
        calls.append((grid, degree))
        return galerkin(grid, degree, terms)

    monkeypatch.setattr(solver, "galerkin", recording)
    pencils = recording_pencils(monkeypatch)
    model = mt.schwarzschild_model(1.0)
    c = np.zeros(n_coeffs(L))
    c[4:] = 4e-4 * np.random.default_rng(1).standard_normal(c.size - 4)
    report = solve_cmc(SphereGraph(np.zeros(3), 0.95 * 8.0, L, c), model,
                       round_mean_curvature(model, 8.0))
    assert report.converged and report.stable
    degrees = [degree for grid, degree in calls if grid is _guard_grid(L)]
    assert degrees and max(degrees) == 12
    assert [Q.shape[0] for Q, *_ in pencils] == [81, 169]
    assert_matches_subset_eigh(pencils)
    assert report.stability_error <= 1e-10 * abs(report.stability_eigenvalue)
    assert report.to_json_dict()["stability_error"] == report.stability_error


def test_stability_error_of_a_single_pencil_is_zero():
    # at L <= 8 the first pencil is the full one
    model = mt.schwarzschild_model(1.0)
    report = solve_cmc(SphereGraph.round_sphere(8.0, L=8), model,
                       round_mean_curvature(model, 8.0))
    assert report.converged and report.stability_error == 0.0


def run_fresh(script: str) -> str:
    """Stdout of ``script`` run in a fresh interpreter on this cmclab, with
    BLAS pinned to one thread so its per-thread buffers do not count."""
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_solve_with_stability_stays_small_at_L32():
    # dense node-by-coefficient matrices at L=32 (six on the solve grid,
    # three on the spectrum grid: 343 MB) alone would exceed this bound; BLAS
    # is pinned to one thread so its per-thread buffers do not count.  The
    # child's VmHWM is its own peak: ru_maxrss carries the parent's high-water
    # mark across fork and execve
    script = textwrap.dedent("""
        import numpy as np
        from cmclab import metrics as mt
        from cmclab.solver import round_mean_curvature, solve_cmc
        from cmclab.sphere import SphereGraph, n_coeffs
        L = 32
        c = np.zeros(n_coeffs(L))
        c[4:] = 4e-4 * np.random.default_rng(1).standard_normal(c.size - 4)
        model = mt.schwarzschild_model(1.0)
        report = solve_cmc(SphereGraph(np.zeros(3), 7.6, L, c), model,
                           round_mean_curvature(model, 8.0))
        with open("/proc/self/status") as fh:
            hwm = next(line for line in fh if line.startswith("VmHWM:"))
        print(report.converged, report.stable, hwm.split()[1])
    """)
    converged, stable, hwm_kib = run_fresh(script).split()
    assert (converged, stable) == ("True", "True")
    assert int(hwm_kib) / 1024.0 <= 350.0


def test_scale_recipe_at_L48_takes_no_step_at_the_top_degree():
    # the scale recipe (Schwarzschild m=1, scale 7.6, H of round radius 8,
    # degree >= 2 coefficients at 1e-4): the ladder resolves the leaf below
    # degree 48, so no 2401 x 2401 Jacobian is assembled
    script = textwrap.dedent("""
        import numpy as np
        import cmclab.solver as solver
        from cmclab import metrics as mt
        from cmclab.sphere import SphereGraph, n_coeffs
        degrees = []
        node_jacobian = solver._node_jacobian
        def recording(jets, background, center, scale, model, grid, L):
            degrees.append(L)
            return node_jacobian(jets, background, center, scale, model,
                                 grid, L)
        solver._node_jacobian = recording
        L = 48
        c = np.zeros(n_coeffs(L))
        c[4:] = 1e-4 * np.random.default_rng(1).standard_normal(c.size - 4)
        model = mt.schwarzschild_model(1.0)
        report = solver.solve_cmc(SphereGraph(np.zeros(3), 7.6, L, c), model,
                                  solver.round_mean_curvature(model, 8.0))
        print(report.converged, report.stable, degrees.count(L),
              repr(report.stability_eigenvalue))
    """)
    converged, stable, top_jacobians, lam = run_fresh(script).split()
    assert (converged, stable, top_jacobians) == ("True", "True", "0")
    assert float(lam) == pytest.approx(8.1453107395e-3, rel=1e-9)


def test_trace_foliation_seeds_each_leaf_once(monkeypatch):
    calls = []
    original = solver.round_seed_radius

    def counted(model, H_target, *args, **kwargs):
        calls.append(float(H_target))
        return original(model, H_target, *args, **kwargs)

    monkeypatch.setattr(solver, "round_seed_radius", counted)
    model = mt.schwarzschild_model(1.0)
    H = round_mean_curvature(model, 6.0)
    trace = trace_foliation(model, H, 0.8 * H, n_leaves=3, L=6)
    assert not trace.truncated
    assert calls == list(np.geomspace(H, 0.8 * H, 3))


def reference_round_seed_radius(model, H_target, r_min=2.05, r_max=1e8):
    """The seed's 4000-point scan for the outer root, then brentq.  The scan
    also samples the closed-form peak radius m (2 + sqrt 3) / 2, so targets
    just below the peak get a bracket."""
    from scipy.optimize import brentq
    if H_target <= 0.0:
        raise PreconditionError("H_target must be positive")
    rs = np.geomspace(max(r_min, 0.51 * model.mass), r_max, 4000)
    r_peak = 0.5 * (2.0 + math.sqrt(3.0)) * model.mass
    if r_peak > rs[0]:
        rs = np.union1d(rs, [r_peak])
    Hs = np.array([round_mean_curvature(model, r) for r in rs])
    peak = int(np.argmax(Hs))
    if H_target > Hs[peak]:
        raise PreconditionError("above the maximal round-sphere H")
    tail = np.nonzero(Hs[peak:] <= H_target)[0]
    if tail.size == 0:
        raise PreconditionError("no round sphere below r_max")
    hi_idx = peak + tail[0]
    a, b = rs[max(hi_idx - 1, 0)], rs[hi_idx]
    if a == b:
        return float(a)
    return float(brentq(lambda r: round_mean_curvature(model, r) - H_target,
                        a, b, xtol=1e-13, rtol=8.9e-16))


def radius_condition(model, r):
    """Relative condition number |H / (r dH/dr)| of the round-sphere radius
    as a function of H: (1 - x^2) / |1 - 4x + x^2| with x = m/2r.  It
    diverges at the peak x = 2 - sqrt 3."""
    x = model.mass / (2.0 * r)
    return (1.0 - x * x) / abs(1.0 - 4.0 * x + x * x)


@pytest.mark.parametrize("mass", [0.0, 0.5, 1.0, 1.1, 2.0, 5.0])
def test_round_seed_radius_matches_the_scan_reference(mass):
    model = mt.schwarzschild_model(mass) if mass else mt.euclidean_model()
    H_peak = round_mean_curvature(model, max(2.05, 0.5 * (2.0 + math.sqrt(3.0)) * mass))
    targets = [round_mean_curvature(model, r) for r in np.geomspace(2.2, 1e6, 9)]
    targets += [2.0 * H_peak, 0.999 * H_peak, (1.0 - 1e-6) * H_peak, 1e-9,
                round_mean_curvature(model, 5e7)]
    for H in targets:
        try:
            want = reference_round_seed_radius(model, H)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                round_seed_radius(model, H)
            continue
        # 1e-13, unless the root itself is worse conditioned than that: just
        # below a fold any float evaluation of H(r) or of its law in m/2r
        # leaves an error of a few eps times the condition number
        rel = max(1e-13, 8.0 * np.finfo(float).eps * radius_condition(model, want))
        assert round_seed_radius(model, H) == pytest.approx(want, rel=rel)
