"""Scalar functionals: frozen-value oracles, identities, and the audit ledger."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from cmclab import functionals as fn
from cmclab import metrics as mt
from cmclab.errors import FitError, PreconditionError, UndefinedRatioError
from cmclab.geometry import build_geometry
from cmclab.sphere import QuadratureGrid, SphereGraph, lm_index, n_coeffs

FOUR_PI = 4.0 * math.pi
SIXTEEN_PI = 16.0 * math.pi

# unit sphere centered at distance 2: closed-form flux value (pi/8)(ln 9 - 8/9)
FLUX_UNIT_AT_2 = 0.5137822234069348


def bumpy(seed, L=7, amp=0.003, scale=1.0, center=(0.0, 0.0, 0.0)):
    rng = np.random.default_rng(seed)
    c = np.zeros(n_coeffs(L))
    c[4:] = amp * rng.standard_normal(n_coeffs(L) - 4)
    return SphereGraph(np.asarray(center, dtype=float), scale, L, c)


def mode_graph(l, m, eps, L=None, scale=1.0, center=(0.0, 0.0, 0.0)):
    L = max(l, 2) if L is None else L
    c = np.zeros(n_coeffs(L))
    c[lm_index(l, m)] = eps
    return SphereGraph(np.asarray(center, dtype=float), scale, L, c)


def cache_of(graph, model=None, grid=None):
    return build_geometry(graph, model or mt.euclidean_model(),
                          grid or QuadratureGrid(32, 64))


# --- Willmore / Hawking / Christodoulou-Yau ---

def test_willmore_round_spheres_flat(grid):
    for r, center in ((1.0, (0, 0, 0)), (3.0, (7.0, -2.0, 1.0))):
        cache = cache_of(SphereGraph.round_sphere(r, center=center, L=6), grid=grid)
        assert fn.willmore_energy(cache) == pytest.approx(SIXTEEN_PI, rel=1e-13)


@pytest.mark.parametrize("mass", [1.0, 2.0])
@pytest.mark.parametrize("r", [4.0, 64.0])
def test_hawking_mass_exact_schwarzschild(mass, r, grid):
    model = mt.schwarzschild_model(mass)
    cache = cache_of(SphereGraph.round_sphere(r, L=6), model, grid)
    assert fn.hawking_mass(cache) == pytest.approx(mass, abs=1e-10)


def test_hawking_round_flat_zero(grid):
    cache = cache_of(SphereGraph.round_sphere(5.0, L=6), grid=grid)
    assert fn.hawking_mass(cache) == pytest.approx(0.0, abs=1e-12)


def test_cy_deficit_centered_schwarzschild_sphere(grid):
    # r=4, m=2: integral of H^2 is H^2 * area = (24/125)^2 * 16pi * 1.25^4 * 16
    model = mt.schwarzschild_model(2.0)
    cache = cache_of(SphereGraph.round_sphere(4.0, L=6), model, grid)
    lhs, rhs, margin = fn.cy_deficit(cache)
    H2A = (24.0 / 125.0) ** 2 * FOUR_PI * 16.0 * 1.25**4
    assert rhs == pytest.approx(SIXTEEN_PI - H2A, rel=1e-12)
    assert rhs == pytest.approx(SIXTEEN_PI - 18.0956, abs=2e-4)
    assert lhs == pytest.approx(0.0, abs=1e-11)       # scalar-flat and umbilic
    assert margin == pytest.approx(rhs, rel=1e-12)
    assert margin > 0.0


def test_flat_willmore_tracefree_identity(grid):
    # integral H^2 = 16pi + 2 * tracefree energy, flat metric, any graph
    cache = cache_of(bumpy(21, scale=2.0), grid=grid)
    lhs = cache.integrate_bar(cache.H_bar**2)
    rhs = SIXTEEN_PI + 2.0 * cache.integrate_bar(cache.tf2_bar)
    assert lhs == pytest.approx(rhs, abs=1e-8)


# --- De Lellis-Mueller ratio ---

def dlm_identity_oracle(cache):
    """Ratio reconstructed from deficit, area, and tracefree energy only."""
    D = fn.minkowski_deficit(cache)
    A = cache.area_bar()
    E = cache.integrate_bar(cache.tf2_bar)
    return 1.0 - D * (math.sqrt(SIXTEEN_PI / A) + D / (2.0 * A)) / E


def test_dlm_ratio_identity_oracle(grid):
    for seed in (1, 2, 3):
        cache = cache_of(bumpy(seed, amp=0.004, scale=3.0), grid=grid)
        lam, ratio = fn.dlm_ratio(cache)
        assert ratio == pytest.approx(dlm_identity_oracle(cache), abs=1e-9)
        assert lam == pytest.approx(3.0, rel=0.01)


@pytest.mark.parametrize("l,m,limit", [
    (2, 0, 2.0 / 3.0),       # 1 - 2/(l(l+1))
    (3, 0, 5.0 / 6.0),
    (5, 2, 14.0 / 15.0),
    (6, 0, 20.0 / 21.0),
    (8, 4, 35.0 / 36.0),
])
def test_dlm_ratio_small_amplitude_limits(l, m, limit, grid):
    cache = cache_of(mode_graph(l, m, 1e-4), grid=grid)
    _, ratio = fn.dlm_ratio(cache)
    assert ratio == pytest.approx(limit, abs=1e-3)


def test_dlm_ratio_undefined_on_round(grid):
    cache = cache_of(SphereGraph.round_sphere(2.0, L=4), grid=grid)
    with pytest.raises(UndefinedRatioError):
        fn.dlm_ratio(cache)


# --- Minkowski deficit, quadratic form, Taylor fit ---

def test_minkowski_deficit_zero_on_round(grid):
    for r in (1.0, 6.0):
        cache = cache_of(SphereGraph.round_sphere(r, L=4), grid=grid)
        assert fn.minkowski_deficit(cache) == pytest.approx(0.0, abs=1e-10)


def test_minkowski_deficit_positive_near_round(grid):
    cache = cache_of(mode_graph(3, 1, 0.01), grid=grid)
    assert fn.minkowski_deficit(cache) > 0.0


@pytest.mark.parametrize("l,m,q", [(2, 0, 4.0), (3, 0, 10.0), (4, 2, 18.0)])
def test_quadratic_form_spectral_values(l, m, q):
    # Q(Y) = l(l+1) - 2 for a single unit l >= 2 mode, exact in floating point
    c = np.zeros(n_coeffs(l))
    c[lm_index(l, m)] = 1.0
    assert fn.minkowski_quadratic_form(c, l) == q


def test_quadratic_form_mean_mode():
    # the mean mode carries zero net weight: 2 c00^2 - 2 c00^2 + 0
    c = np.zeros(n_coeffs(2))
    c[0] = 1e-6
    assert fn.minkowski_quadratic_form(c, 2) == 0.0


def test_taylor_prefactor_is_half():
    eps = (1e-3, 3.1e-3, 1e-2, 3.1e-2, 1e-1)
    alphas = []
    for l, m in ((2, 0), (3, 0), (4, 2)):
        alpha, order = fn.taylor_prefactor_fit((l, m), eps)
        alphas.append(alpha)
        assert alpha == pytest.approx(0.5, abs=1e-4)
        assert order >= 2.8
    spread = (max(alphas) - min(alphas)) / min(alphas)
    assert spread < 0.02


def test_taylor_fit_guards():
    with pytest.raises(FitError):
        fn.taylor_prefactor_fit((1, 0), (1e-3, 1e-2, 1e-1))
    with pytest.raises(FitError):
        fn.taylor_prefactor_fit((2, 0), (1e-3, 1e-2))


# --- Bochner-style identity ---

def test_bochner_identity_degree_one_pins_gradient_coefficient():
    # for an l=1 mode the Hessian is pure trace, so the identity degenerates
    # to integral |Hess|^2 = integral |grad|^2 = 2; a gradient coefficient of
    # 2 would fail this by a factor of two
    g = mode_graph(1, 0, 1e-3, L=2)
    assert fn.bochner_tracefree_check(g) < 1e-14


def test_bochner_identity_random_graphs():
    for seed in (5, 6):
        assert fn.bochner_tracefree_check(bumpy(seed, L=6, amp=0.002)) < 1e-10


# --- flux and divergence identities ---

def test_flux_frozen_value_matches_closed_form():
    assert FLUX_UNIT_AT_2 == pytest.approx(
        (math.pi / 8.0) * (math.log(9.0) - 8.0 / 9.0), abs=1e-15)


def test_flux_unit_sphere_frozen_oracle(grid):
    cache = cache_of(SphereGraph.round_sphere(1.0, center=(2.0, 0.0, 0.0), L=4),
                     grid=grid)
    assert fn.flux_integral(cache) == pytest.approx(FLUX_UNIT_AT_2, abs=1e-12)


def test_flux_unit_sphere_dblquad_oracle():
    # independent quadrature of <X, nu>^2 / |x|^6 over the unit sphere at (2,0,0)
    def integrand(phi, theta):
        st = math.sin(theta)
        xdn = 1.0 + 2.0 * st * math.cos(phi)
        r2 = 5.0 + 4.0 * st * math.cos(phi)
        return xdn**2 / r2**3 * st

    val, err = integrate.dblquad(integrand, 0.0, math.pi,
                                 0.0, 2.0 * math.pi, epsabs=1e-12)
    assert val == pytest.approx(FLUX_UNIT_AT_2, abs=1e-9)


def test_flux_centered_round(grid):
    for r in (1.0, 4.0):
        cache = cache_of(SphereGraph.round_sphere(r, L=4), grid=grid)
        assert fn.flux_integral(cache) == pytest.approx(FOUR_PI / r**2, rel=1e-13)


def test_flux_scaling_invariant(grid):
    base = bumpy(31, amp=0.004, scale=1.0, center=(3.0, 0.0, 0.5))
    f1 = fn.flux_integral(cache_of(base, grid=grid))
    lam = 5.0
    big = SphereGraph(base.center * lam, base.scale * lam, base.L, base.coeffs)
    f2 = fn.flux_integral(cache_of(big, grid=grid))
    assert lam**2 * f2 == pytest.approx(f1, rel=1e-12)


def test_divergence_identity_both_sides(grid):
    out = cache_of(SphereGraph.round_sphere(1.0, center=(4.0, 1.0, 0.0), L=4),
                   grid=grid)
    assert fn.divergence_identity_residual(out) == pytest.approx(0.0, abs=1e-12)
    enc = cache_of(SphereGraph.round_sphere(3.0, center=(0.4, 0.0, 0.0), L=4),
                   grid=grid)
    assert fn.divergence_identity_residual(enc) == pytest.approx(FOUR_PI, abs=1e-10)


def test_enclosed_volume(grid):
    cache = cache_of(SphereGraph.round_sphere(2.0, center=(9.0, 0.0, 0.0), L=4),
                     grid=grid)
    assert fn.enclosed_volume_flat(cache) == pytest.approx(
        FOUR_PI / 3.0 * 8.0, rel=1e-13)


# --- the big-inequality audit ledger ---

def test_audit_refined_grid_oracle():
    model = mt.schwarzschild_model(1.0)
    g = bumpy(41, L=6, amp=0.003, scale=3.0, center=(12.0, 2.0, 0.0))
    coarse = fn.big_inequality_audit(cache_of(g, model))
    fine = fn.big_inequality_audit(cache_of(g, model, QuadratureGrid(64, 128)))
    # |tracefree h| has cusps at momentarily-umbilic points, so the mixed
    # error integral (and the total containing it) converges slower than the
    # smooth entries
    slow = {"error_Htf_x2", "error_total"}
    for key, val in coarse.items():
        if isinstance(val, bool):
            assert fine[key] == val
        else:
            rel = 1e-3 if key in slow else 1e-8
            assert fine[key] == pytest.approx(val, rel=rel, abs=1e-12), key


def test_audit_round_sphere_values(grid):
    model = mt.schwarzschild_model(1.5)
    cache = cache_of(SphereGraph.round_sphere(2.0, center=(10.0, 0.0, 0.0), L=4),
                     model, grid)
    ledger = fn.big_inequality_audit(cache, tau=2.5, delta=0.1)
    assert ledger["gamma_defined"] is False
    assert ledger["gamma"] == 0.0
    assert ledger["coeff_tracefree"] == pytest.approx(
        (2.0 / 3.0) * 0.9 / 1.1 + 2.0, rel=1e-13)
    assert ledger["term_favorable"] == pytest.approx(
        4.0 * 1.5**2 * (1.0 - 2.0 / 2.5) * ledger["flux"], rel=1e-13)
    assert ledger["error_total"] == pytest.approx(
        ledger["error_x5"] + ledger["error_h2_x3"] + ledger["error_Htf_x2"]
        + ledger["error_H_x3"] + ledger["error_H2_x2"], rel=1e-13)
    assert ledger["r0"] == pytest.approx(8.0, abs=1e-7)


def test_audit_euclidean_favorable_term_vanishes(grid):
    cache = cache_of(SphereGraph.round_sphere(1.0, center=(4.0, 0.0, 0.0), L=4),
                     grid=grid)
    ledger = fn.big_inequality_audit(cache)
    assert ledger["term_favorable"] == 0.0
    assert ledger["mass"] == 0.0


def test_audit_guards(grid):
    model = mt.schwarzschild_model(1.0)
    cache = cache_of(SphereGraph.round_sphere(1.0, center=(5.0, 0.0, 0.0), L=4),
                     model, grid)
    with pytest.raises(PreconditionError):
        fn.big_inequality_audit(cache, tau=2.0)
    with pytest.raises(PreconditionError):
        fn.big_inequality_audit(cache, tau=8.0 / 3.0)
    with pytest.raises(PreconditionError):
        fn.big_inequality_audit(cache, delta=0.0)
    enclosing = cache_of(SphereGraph.round_sphere(4.0, L=4), model, grid)
    with pytest.raises(PreconditionError):
        fn.big_inequality_audit(enclosing)


# --- report assembly ---

def test_report_matches_direct_calls(grid):
    model = mt.schwarzschild_model(1.0)
    g = bumpy(51, L=6, amp=0.002, scale=2.0, center=(8.0, 0.0, 0.0))
    cache = cache_of(g, model, grid)
    report = fn.build_report(cache)
    assert report.area == pytest.approx(cache.area(), rel=1e-14)
    assert report.willmore == pytest.approx(fn.willmore_energy(cache), rel=1e-14)
    assert report.hawking == pytest.approx(fn.hawking_mass(cache), rel=1e-12)
    lhs, rhs, _ = fn.cy_deficit(cache)
    assert report.cy_lhs == pytest.approx(lhs, abs=1e-14)
    assert report.cy_rhs == pytest.approx(rhs, rel=1e-12)
    lam, ratio = fn.dlm_ratio(cache)
    assert report.dlm_lambda == pytest.approx(lam, rel=1e-14)
    assert report.dlm_ratio == pytest.approx(ratio, rel=1e-12)
    assert report.minkowski_deficit == pytest.approx(
        fn.minkowski_deficit(cache), abs=1e-14)
    assert report.flux == pytest.approx(fn.flux_integral(cache), rel=1e-14)
    assert report.H_mean == pytest.approx(
        cache.integrate(cache.H) / cache.area(), rel=1e-13)
    assert (tuple(f.name for f in dataclasses.fields(report))
            == fn.FunctionalReport.FIELDS)


def test_report_round_sphere_nan_ratio(grid):
    cache = cache_of(SphereGraph.round_sphere(3.0, L=4), grid=grid)
    report = fn.build_report(cache)
    # the optimal radius stays defined on round spheres; only the ratio is nan
    assert math.isnan(report.dlm_ratio)
    assert report.dlm_lambda == pytest.approx(3.0, rel=1e-12)


def test_report_dilation_covariance(grid):
    base = bumpy(61, L=6, amp=0.003, scale=1.0, center=(3.0, 1.0, 0.0))
    lam = 4.0
    scaled = SphereGraph(base.center * lam, base.scale * lam, base.L, base.coeffs)
    r1 = fn.build_report(cache_of(base, grid=grid))
    r2 = fn.build_report(cache_of(scaled, grid=grid))
    assert r2.area == pytest.approx(lam**2 * r1.area, rel=1e-12)
    assert r2.willmore == pytest.approx(r1.willmore, rel=1e-12)
    assert r2.minkowski_deficit == pytest.approx(
        lam * r1.minkowski_deficit, rel=1e-9)
    assert r2.flux == pytest.approx(r1.flux / lam**2, rel=1e-12)
    assert r2.r0 == pytest.approx(lam * r1.r0, rel=1e-9)
    assert r2.H_mean == pytest.approx(r1.H_mean / lam, rel=1e-12)
    assert r2.dlm_ratio == pytest.approx(r1.dlm_ratio, rel=1e-10)
