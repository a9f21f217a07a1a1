"""Geometry engine: curvatures, measures, and the two comparison laws."""

import math

import numpy as np
import pytest

from cmclab import metrics as mt
from cmclab.errors import PreconditionError
from cmclab.geometry import (area_element_comparison_residual, background_at,
                             build_geometry, gauss_curvature_check,
                             mean_curvature_comparison_residual,
                             mean_curvature_from_jets)
from cmclab.sphere import SphereGraph, lm_index, n_coeffs, synthesize

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


def test_geometry_cache_summary_keys(grid):
    cache = build_geometry(bumpy(6), mt.euclidean_model(), grid)
    summary = cache.summary()
    for key in ("kind", "area", "area_flat", "willmore", "min_H", "max_H",
                "total_gauss_curvature"):
        assert key in summary
    assert summary["total_gauss_curvature"] == pytest.approx(FOUR_PI, rel=1e-9)


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
