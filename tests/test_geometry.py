"""Geometry engine: curvatures, measures, and the two comparison laws."""

import dataclasses
import math

import numpy as np
import pytest

from cmclab import metrics as mt
from cmclab.errors import PreconditionError
from cmclab.geometry import (_background, _cross, _embedding, _inv2,
                             _surface_forms, area_element_comparison_residual,
                             background_at, build_geometry,
                             gauss_curvature_check,
                             mean_curvature_comparison_residual,
                             mean_curvature_from_jets)
from cmclab.sphere import (SphereGraph, SphereJets, lm_index, n_coeffs,
                           synthesize)

FOUR_PI = 4.0 * math.pi

PERTURBED = mt.perturbed_model(
    1.0,
    mt.PerturbationSpec(terms=(
        mt.PerturbationTerm(power=2.0, amplitude=0.2, i=0, j=1,
                            profile=((1.0, (0, 0, 2)),)),
        mt.PerturbationTerm(power=2.0, amplitude=0.1, i=1, j=2),
    )))


def bumpy(seed, L=8, amp=0.003, scale=1.0, center=(0.0, 0.0, 0.0)):
    rng = np.random.default_rng(seed)
    c = np.zeros(n_coeffs(L))
    c[4:] = amp * rng.standard_normal(n_coeffs(L) - 4)
    return SphereGraph(np.asarray(center, dtype=float), scale, L, c)


@pytest.mark.parametrize("r", [1.0, 2.5, 7.0])
def test_round_sphere_flat_curvatures(r, grid):
    cache = build_geometry(SphereGraph.round_sphere(r, L=8),
                           mt.euclidean_model(), grid)
    assert np.max(np.abs(cache.H - 2.0 / r)) < 1e-13 / r
    assert np.max(np.abs(cache.K - 1.0 / r**2)) < 1e-13
    assert np.max(np.abs(cache.J - r**2)) < 1e-11 * r**2
    assert cache.area() == pytest.approx(FOUR_PI * r**2, rel=1e-13)


def test_outward_orientation(grid):
    cache = build_geometry(bumpy(4, scale=2.0, center=(5.0, 1.0, 0.0)),
                           mt.euclidean_model(), grid)
    rel = cache.X - np.array([5.0, 1.0, 0.0])[None, :]
    assert np.all(np.sum(cache.nu_bar * rel, axis=-1) > 0.0)


def test_round_sphere_schwarzschild_closed_form(grid):
    # H(r; m) = (2/r)(1 - m/2r) / (1 + m/2r)^3, e.g. H(4; 2) = 24/125
    model = mt.schwarzschild_model(2.0)
    cache = build_geometry(SphereGraph.round_sphere(4.0, L=8), model, grid)
    assert np.max(np.abs(cache.H - 24.0 / 125.0)) < 1e-13
    # metric area picks up the conformal factor to the 4th power
    u = 1.0 + 2.0 / (2.0 * 4.0)
    assert cache.area() == pytest.approx(FOUR_PI * 16.0 * u**4, rel=1e-12)
    assert np.max(np.abs(cache.u - u)) < 1e-14


def test_euclidean_fast_path_aliases(grid):
    cache = build_geometry(bumpy(9), mt.euclidean_model(), grid)
    assert cache.H is cache.H_bar
    assert cache.J is cache.J_bar
    assert np.all(cache.u == 1.0)
    assert not cache.scalar.any()


@pytest.mark.parametrize("model", [
    mt.euclidean_model(), mt.schwarzschild_model(1.0), PERTURBED])
def test_gauss_bonnet(model, grid):
    g = bumpy(2, scale=3.0, center=(9.0, 0.0, 0.0))
    check = gauss_curvature_check(build_geometry(g, model, grid))
    assert abs(check["gauss_bonnet_defect"]) < 1e-9
    assert check["total_curvature"] == pytest.approx(FOUR_PI, rel=1e-9)


def test_gauss_equation_residual_small(grid):
    # K from the ambient sectional part plus det(h)/det(g) must match the
    # intrinsic curvature integral; the pointwise residual field is reported
    for model in (mt.schwarzschild_model(1.5), PERTURBED):
        cache = build_geometry(bumpy(5, scale=2.0, center=(8.0, -1.0, 2.0)),
                               model, grid)
        assert gauss_curvature_check(cache)["gauss_equation_residual"] < 1e-9


def test_scaling_covariance(grid):
    g1 = bumpy(7, scale=1.0, center=(0.0, 0.0, 0.0))
    g2 = SphereGraph(g1.center * 3.0, g1.scale * 3.0, g1.L, g1.coeffs)
    c1 = build_geometry(g1, mt.euclidean_model(), grid)
    c2 = build_geometry(g2, mt.euclidean_model(), grid)
    assert c2.H == pytest.approx(c1.H / 3.0, abs=1e-12)
    assert c2.area() == pytest.approx(9.0 * c1.area(), rel=1e-13)
    assert c2.K == pytest.approx(c1.K / 9.0, abs=1e-13)


def test_translation_invariance_flat(grid):
    g1 = bumpy(8, scale=2.0, center=(0.0, 0.0, 0.0))
    g2 = SphereGraph(np.array([4.0, -7.0, 1.0]), 2.0, g1.L, g1.coeffs)
    c1 = build_geometry(g1, mt.euclidean_model(), grid)
    c2 = build_geometry(g2, mt.euclidean_model(), grid)
    assert c2.H == pytest.approx(c1.H, abs=1e-12)
    assert c2.tf2_bar == pytest.approx(c1.tf2_bar, abs=1e-12)


def test_umbilic_detection(grid):
    round_cache = build_geometry(SphereGraph.round_sphere(2.0, L=6),
                                 mt.euclidean_model(), grid)
    assert round_cache.integrate_bar(round_cache.tf2_bar) < 1e-13
    bump_cache = build_geometry(bumpy(3), mt.euclidean_model(), grid)
    assert bump_cache.integrate_bar(bump_cache.tf2_bar) > 1e-8


def test_comparison_laws_exact_without_perturbation(grid):
    # sigma = 0 makes both comparison laws close exactly, any radius
    model = mt.schwarzschild_model(1.0)
    for r in (4.0, 16.0):
        for center in ((0.0, 0.0, 0.0), (3.0 * r, 0.0, 0.0)):
            cache = build_geometry(
                SphereGraph.round_sphere(r, center=center, L=8), model, grid)
            assert np.max(np.abs(area_element_comparison_residual(cache))) < 1e-12
            assert np.max(np.abs(mean_curvature_comparison_residual(cache))) < 1e-12


def test_comparison_laws_reject_euclidean(grid):
    cache = build_geometry(bumpy(1), mt.euclidean_model(), grid)
    with pytest.raises(PreconditionError):
        area_element_comparison_residual(cache)
    with pytest.raises(PreconditionError):
        mean_curvature_comparison_residual(cache)


def fit_decay_slope(radii, values):
    return np.polyfit(np.log(radii), np.log(values), 1)[0]


def test_comparison_residual_decay_orders(grid):
    # with a generic sigma ~ r^-2 both residuals decay at least like r^-3.5;
    # the measured orders sit near -3.9
    radii = np.array([8.0, 16.0, 32.0, 64.0])
    area_res = []
    h_res = []
    for r in radii:
        cache = build_geometry(SphereGraph.round_sphere(r, L=8), PERTURBED, grid)
        area_res.append(np.max(np.abs(area_element_comparison_residual(cache))))
        h_res.append(np.max(np.abs(mean_curvature_comparison_residual(cache))))
    assert fit_decay_slope(radii, area_res) < -3.5
    assert -4.3 < fit_decay_slope(radii, area_res) < -3.7
    assert fit_decay_slope(radii, h_res) < -3.5


def test_geometry_cache_gauss_bonnet(grid):
    cache = build_geometry(bumpy(6), mt.euclidean_model(), grid)
    assert cache.integrate(cache.K) == pytest.approx(FOUR_PI, rel=1e-9)


@pytest.mark.parametrize("model", [mt.euclidean_model(),
                                   mt.schwarzschild_model(1.0), PERTURBED],
                         ids=["euclidean", "schwarzschild", "perturbed"])
def test_build_geometry_evaluates_the_metric_once(model, grid, monkeypatch):
    calls = {"evaluate_metric": 0, "christoffel": 0}
    for name in calls:
        original = getattr(mt, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(mt, name, counted)
    build_geometry(bumpy(5, scale=4.0, center=(8.0, 0.0, 1.0)), model, grid)
    curved = model.kind != mt.EUCLIDEAN
    assert calls == {"evaluate_metric": int(curved), "christoffel": int(curved)}


@pytest.mark.parametrize("model", [mt.schwarzschild_model(1.0), PERTURBED],
                         ids=["schwarzschild", "perturbed"])
def test_solver_background_needs_first_derivatives_only(model, grid,
                                                        monkeypatch):
    # the Newton background (background_at, and mean_curvature_from_jets on
    # real and complex jets) never asks for second metric derivatives
    orders = []
    original = mt.evaluate_metric

    def counted(model, x, order=2):
        orders.append(order)
        return original(model, x, order=order)

    monkeypatch.setattr(mt, "evaluate_metric", counted)
    graph = bumpy(5, scale=4.0, center=(8.0, 0.0, 1.0))
    jets = synthesize(graph.coeffs, grid, graph.L)
    background = background_at(jets, graph.center, graph.scale, model, grid)
    H = mean_curvature_from_jets(jets, graph.center, graph.scale, model, grid)
    complex_jets = dataclasses.replace(jets, f=jets.f + 1e-20j * jets.dth)
    mean_curvature_from_jets(complex_jets, graph.center, graph.scale, model,
                             grid)
    assert orders == [1, 1, 1]
    assert np.array_equal(H, mean_curvature_from_jets(
        jets, graph.center, graph.scale, model, grid, background=background))
    assert orders == [1, 1, 1]


@pytest.mark.parametrize("model", [mt.euclidean_model(),
                                   mt.schwarzschild_model(1.0), PERTURBED],
                         ids=["euclidean", "schwarzschild", "perturbed"])
def test_build_geometry_matches_the_node_kernel_bitwise(model, grid):
    # the cache and the solver's H come from the same node kernel
    graph = bumpy(5, scale=4.0, center=(8.0, 0.0, 1.0))
    cache = build_geometry(graph, model, grid)
    jets = synthesize(graph.coeffs, grid, graph.L)

    def solver_H(m):
        background = background_at(jets, graph.center, graph.scale, m, grid)
        return mean_curvature_from_jets(jets, graph.center, graph.scale, m,
                                        grid, background=background)

    assert np.array_equal(cache.H, solver_H(model))
    assert np.array_equal(cache.H_bar, solver_H(mt.euclidean_model()))


# The seed's node kernel and comparison laws, one einsum per tangential
# contraction and nu lowered by g3: the references of the pullback helpers.

def reference_surface_forms(chart, ncov, background):
    _, Xth, Xph, Xthth, Xthph, Xphph = chart
    g3, Gam, g3inv = background or (None, None, None)
    tangents = (Xth, Xph)
    gind = np.empty(Xth.shape[:-1] + (2, 2), dtype=Xth.dtype)
    for a in range(2):
        for b in range(2):
            gind[..., a, b] = (np.sum(tangents[a] * tangents[b], axis=-1)
                               if g3 is None else
                               np.einsum("nij,ni,nj->n", g3, tangents[a], tangents[b]))
    ginv, det = _inv2(gind)
    if g3 is None:
        nu = ncov / np.sqrt(np.sum(ncov * ncov, axis=-1))[:, None]
    else:
        raised = np.einsum("nij,nj->ni", g3inv, ncov)
        nu = raised / np.sqrt(np.einsum("ni,ni->n", ncov, raised))[:, None]
    nu_cov = np.einsum("nij,nj->ni", g3, nu) if g3 is not None else nu
    seconds = {(0, 0): Xthth, (0, 1): Xthph, (1, 1): Xphph}
    h = np.empty_like(gind, dtype=np.result_type(nu_cov, Xthth, Xthph, Xphph))
    for (a, b), Xab in seconds.items():
        acc = np.einsum("ni,ni->n", nu_cov, Xab)
        if Gam is not None:
            acc = acc + np.einsum("nk,nkij,ni,nj->n", nu_cov, Gam,
                                  tangents[a], tangents[b])
        h[..., a, b] = h[..., b, a] = -acc
    return gind, ginv, det, nu, h, np.einsum("nab,nab->n", ginv, h)


def reference_area_residual(cache):
    sig, _, _ = mt.sigma_with_derivatives(cache.model, cache.X)
    tang = (cache.Xth, cache.Xph)
    tr = sum(cache.ginv_ind[..., a, b]
             * np.einsum("nij,ni,nj->n", sig, tang[a], tang[b])
             for a in range(2) for b in range(2))
    return cache.J / cache.J_bar - cache.u**4 * (1.0 + 0.5 * tr)


def reference_mean_curvature_residual(cache):
    m, u, nu, gi = cache.model.mass, cache.u, cache.nu, cache.ginv_ind
    rhs = cache.H_bar - (2.0 * m / cache.r**3) * np.sum(
        cache.X * cache.nu_bar, axis=-1) / u
    if cache.model.kind == mt.PERTURBED:
        sig, dsig, _ = mt.sigma_with_derivatives(cache.model, cache.X)
        tang = (cache.Xth, cache.Xph)
        sig_ab = np.empty_like(cache.g_ind)
        div_term = nu_term = 0.0
        for a in range(2):
            for b in range(2):
                sig_ab[..., a, b] = np.einsum("nij,ni,nj->n", sig, tang[a], tang[b])
                div_term = div_term + gi[..., a, b] * np.einsum(
                    "nk,nkij,ni,nj->n", tang[a], dsig, nu, tang[b])
                nu_term = nu_term + gi[..., a, b] * np.einsum(
                    "nk,nkij,ni,nj->n", nu, dsig, tang[a], tang[b])
        sig_h = np.einsum("nac,nbd,nab,ncd->n", gi, gi, sig_ab, cache.h)
        sig_nn = np.einsum("nij,ni,nj->n", sig, nu, nu)
        rhs = rhs - sig_h + 0.5 * cache.H * sig_nn - div_term + 0.5 * nu_term
    return u**2 * cache.H - rhs


def reference_gauss_curvature(cache):
    g3, _, _ = mt.evaluate_metric(cache.model, cache.X)
    _, riem, _, _ = mt.curvature_tensors(cache.model, cache.X)
    e1 = cache.Xth / np.sqrt(np.einsum("nij,ni,nj->n", g3, cache.Xth, cache.Xth))[:, None]
    w = cache.Xph - np.einsum("nij,ni,nj->n", g3, cache.Xph, e1)[:, None] * e1
    e2 = w / np.sqrt(np.einsum("nij,ni,nj->n", g3, w, w))[:, None]
    vec = np.einsum("nlijk,ni,nj,nk->nl", riem, e1, e2, e2)
    h = cache.h
    return (np.einsum("nlm,nl,nm->n", g3, vec, e1)
            + (h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] ** 2) / np.linalg.det(cache.g_ind))


def assert_close(got, want, rel=1e-13):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= rel * scale


MODELS = [mt.euclidean_model(), mt.schwarzschild_model(1.0), PERTURBED]
MODEL_IDS = ["euclidean", "schwarzschild", "perturbed"]


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
@pytest.mark.parametrize("bump", [None, "f", "dth", "dphph"])
def test_node_kernel_matches_the_einsum_reference(model, bump, grid):
    # real jets, and complex-step jets whose imaginary parts are the
    # directional derivatives the Jacobian reads
    graph = bumpy(5, scale=4.0, center=(8.0, 0.0, 1.0))
    jets = synthesize(graph.coeffs, grid, graph.L)
    if bump is not None:
        field = np.cos(3.0 * np.arange(jets.f.size))
        fields = {k: getattr(jets, k) for k in ("f", "dth", "dph", "dthth",
                                                 "dthph", "dphph")}
        fields[bump] = fields[bump] + 1j * 1e-20 * field
        jets = SphereJets(**fields)
    chart = _embedding(jets, graph.center, graph.scale, grid.frames())
    ncov = _cross(chart[1], chart[2])
    background = _background(model, chart[0])
    got = _surface_forms(chart, ncov, background)
    want = reference_surface_forms(chart, ncov, background)
    for g, w in zip(got, want):
        assert_close(g.real, w.real)
        assert_close(np.imag(g), np.imag(w))
    assert (np.max(np.abs(want[-1].imag)) > 0.0) == (bump is not None)


@pytest.mark.parametrize("model", MODELS[1:], ids=MODEL_IDS[1:])
def test_geometry_cache_matches_the_einsum_reference(model, grid):
    cache = build_geometry(bumpy(5, scale=4.0, center=(8.0, 0.0, 1.0)), model, grid)
    h, gi = cache.h, cache.ginv_ind
    assert_close(cache.tf2, np.einsum("nac,nbd,nab,ncd->n", gi, gi, h, h)
                 - 0.5 * cache.H**2)
    assert_close(cache.K, reference_gauss_curvature(cache))
    # the comparison residuals are cancellations: compare against the size of
    # the terms that cancel, u^2 H
    for got, want in ((area_element_comparison_residual(cache),
                       reference_area_residual(cache)),
                      (mean_curvature_comparison_residual(cache),
                       reference_mean_curvature_residual(cache))):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(cache.u**2 * cache.H))
