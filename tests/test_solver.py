"""Newton CMC solver: round oracles, stability spectra, foliation tracing."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
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
from cmclab.sphere import (QuadratureGrid, SphereGraph, SphereJets, n_coeffs,
                           quadrature_grid, synthesize)

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
    assert round_seed_radius(mt.euclidean_model(), 0.5) == pytest.approx(
        4.0, rel=1e-12)


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


def test_jacobian_variants_agree():
    # Schwarzschild pins the center, so both variants land on the same surface
    model = mt.schwarzschild_model(1.0)
    target = round_mean_curvature(model, 6.0)
    seed = bumpy_seed(3, L=6, amp=0.002, scale=5.8)
    exact = solve_cmc(seed, model, target, CmcOptions(tolerance=1e-10))
    central = solve_cmc(seed, model, target,
                        CmcOptions(tolerance=1e-10, jacobian="central"))
    assert exact.converged and central.converged
    np.testing.assert_allclose(central.surface.coeffs, exact.surface.coeffs,
                               atol=1e-7)


# --- constrained stability spectrum ---

def test_euclid_spectrum_closed_form():
    # volume-constrained Jacobi eigenvalues of the round r-sphere are
    # (l(l+1) - 2) / r^2 with multiplicity 2l+1, l >= 1
    model = mt.euclidean_model()
    report = solve_cmc(SphereGraph.round_sphere(2.0, L=8), model, 1.0)
    assert report.converged and report.iterations == 0
    vals = stability_spectrum(report, model, k=24, L_op=6)
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


def test_stability_spectrum_requires_convergence():
    report = SolveReport(converged=False, iterations=0, final_residual=1.0,
                         surface=SphereGraph.round_sphere(2.0, L=4),
                         H_target=1.0)
    with pytest.raises(PreconditionError):
        stability_spectrum(report, mt.euclidean_model(), k=4)


def test_unstable_leaf_detected():
    # a strong constant sigma_xx flips the lowest constrained eigenvalue;
    # target the perturbed sphere's own mean curvature so Newton converges
    surface = SphereGraph.round_sphere(3.0, L=16)
    cache = build_geometry(surface, STRONG_XX, QuadratureGrid(34, 68))
    target = cache.integrate(cache.H) / cache.area()
    report = solve_cmc(surface, STRONG_XX, target,
                       CmcOptions(tolerance=1e-8, stability_modes=4))
    assert report.converged
    assert report.stability_eigenvalue < -1e-3
    assert not report.stable


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


def test_trace_forces_stability_check():
    model = mt.schwarzschild_model(1.0)
    H = round_mean_curvature(model, 6.0)
    trace = trace_foliation(model, H, 0.9 * H, n_leaves=2, L=8,
                            opts=CmcOptions(check_stability=False))
    assert not trace.truncated
    for leaf in trace.leaves:
        assert np.isfinite(leaf.stability_eigenvalue)
        assert leaf.stable


# --- Jacobian, spectrum and basis use against the dense references ---

def reference_node_sensitivities(jets, center, scale, model, grid, opts):
    """Every jet evaluates the metric at its own points."""
    names = ("f", "dth", "dph", "dthth", "dthph", "dphph")
    arrays = {k: getattr(jets, f) for k, f in zip(JET_KEYS, names)}
    out = []
    for key in JET_KEYS:
        if opts.jacobian == "exact":
            bumped = dict(arrays)
            bumped[key] = arrays[key] + 1j * IMAG_STEP
            jp = SphereJets(*(bumped[k] for k in JET_KEYS))
            G = np.imag(
                mean_curvature_from_jets(jp, center, scale, model, grid)
            ) / IMAG_STEP
        else:
            h = opts.central_step
            up, dn = dict(arrays), dict(arrays)
            up[key] = arrays[key] + h
            dn[key] = arrays[key] - h
            Hp = mean_curvature_from_jets(SphereJets(*(up[k] for k in JET_KEYS)),
                                          center, scale, model, grid)
            Hm = mean_curvature_from_jets(SphereJets(*(dn[k] for k in JET_KEYS)),
                                          center, scale, model, grid)
            G = (Hp - Hm) / (2.0 * h)
        out.append(G)
    return out


@pytest.mark.parametrize("jacobian", ["exact", "central"])
@pytest.mark.parametrize("model", [
    mt.euclidean_model(), mt.schwarzschild_model(1.0),
    mt.perturbed_model(1.0, mt.PerturbationSpec(
        (mt.PerturbationTerm(3.0, 0.3, 2, 2, ((1.0, (0, 0, 2)),)),)))],
    ids=["euclidean", "schwarzschild", "perturbed"])
def test_node_jacobian_matches_per_jet_reference_bitwise(model, jacobian):
    graph = bumpy_seed(3, L=6, amp=0.003, scale=4.0, center=(0.3, 0.0, -0.2))
    grid = QuadratureGrid(12, 24)
    jets = synthesize(graph.coeffs, grid, graph.L)
    opts = CmcOptions(jacobian=jacobian)
    background = background_at(jets, graph.center, graph.scale, model, grid)
    assert (background is None) == (model.kind == mt.EUCLIDEAN)
    args = (jets, background, graph.center, graph.scale, model, grid)
    want = reference_node_sensitivities(jets, graph.center, graph.scale,
                                        model, grid, opts)
    got = _node_sensitivities(*args, opts)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    # the sum-factorised coefficient Jacobian against the dense A @ M
    basis = grid.basis_matrices(graph.L)
    M = sum(G[:, None] * basis[k] for k, G in zip(JET_KEYS, want))
    dense = (basis["val"] * grid.weights[:, None]).T @ M
    J = _node_jacobian(*args, graph.L, opts)
    assert np.max(np.abs(J - dense)) <= 1e-13 * np.max(np.abs(dense))


def counting_basis_builds(monkeypatch):
    built = []
    original = QuadratureGrid._basis_matrix

    def counted(grid, L, key):
        built.append(((grid.n_theta, grid.n_phi), L, key))
        return original(grid, L, key)

    monkeypatch.setattr(QuadratureGrid, "_basis_matrix", counted)
    return built


def test_solves_and_spectra_build_no_basis_matrix(monkeypatch):
    quadrature_grid.cache_clear()  # the cache outlives tests
    built = counting_basis_builds(monkeypatch)
    model = mt.schwarzschild_model(1.0)
    opts = CmcOptions(stability_modes=4)
    for seed in (1, 2):
        report = solve_cmc(bumpy_seed(seed, L=6, amp=0.001, scale=5.7), model,
                           round_mean_curvature(model, 6.0), opts)
        assert report.converged and report.stable
        assert np.isfinite(report.stability_eigenvalue)
    assert built == []
    for shape in ((32, 64), (14, 26)):
        grid = quadrature_grid(*shape)
        assert not [k for k in grid._cache if k[0] == "B"]
        assert ("theta_columns", 6) in grid._cache


def reference_constrained_spectrum(surface, model, k, grid):
    """The spectrum assembled from the dense basis matrices."""
    L_op = surface.L
    cache = build_geometry(surface, model, grid)
    basis = grid.basis_matrices(L_op, keys=("val", "dth", "dph"))
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


@pytest.mark.parametrize("L", [16, 24])
def test_constrained_spectrum_matches_dense_reference(L):
    model = mt.perturbed_model(1.0, mt.PerturbationSpec(
        (mt.PerturbationTerm(2.0, 0.3, 2, 2, ((1.0, (0, 0, 2)),)),)))
    surface = bumpy_seed(4, L=L, amp=3e-4, scale=8.0, center=(0.2, -0.1, 0.3))
    grid = QuadratureGrid(2 * (L + 1), 2 * (2 * L + 1))
    want = reference_constrained_spectrum(surface, model, 4, grid)
    got = solver._constrained_spectrum(surface, model, 4, grid=grid)
    assert np.max(np.abs(got - want)) <= 1e-10 * abs(want[0])


def test_solve_with_stability_stays_small_at_L32():
    # dense node-by-coefficient matrices at L=32 (six on the solve grid,
    # three on the spectrum grid: 343 MB) alone would exceed this bound; BLAS
    # is pinned to one thread so its per-thread buffers do not count
    script = textwrap.dedent("""
        import resource
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
        print(report.converged, report.stable,
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    converged, stable, maxrss_kib = proc.stdout.split()
    assert (converged, stable) == ("True", "True")
    assert int(maxrss_kib) / 1024.0 <= 350.0


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
