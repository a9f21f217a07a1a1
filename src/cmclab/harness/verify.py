"""Self-check battery covering quadrature, geometry, functionals and solver.

Every check is cheap enough to run on each install; the whole suite targets
well under a minute.  Checks compare a computed value against a bound, so the
emitted record doubles as a numerical health report.  The checks run layer by
layer; a layer whose code raises gets a failed ``<layer>_layer`` entry that
names the exception, and the battery goes on with the next layer, so
``run_verify`` returns a report for every seed.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .. import functionals as fn
from .. import metrics as mt
from ..geometry import (area_element_comparison_residual, build_geometry,
                        gauss_curvature_check,
                        mean_curvature_comparison_residual)
from ..solver import (CmcOptions, _constrained_spectrum, round_mean_curvature,
                      round_seed_radius, solve_cmc, stability_spectrum)
from ..sphere import (SphereGraph, analyze, corpus_graph, degree_of_index,
                      galerkin, lm_index, moment_normalize, n_coeffs,
                      quadrature_grid, synthesize)
from .config import ExperimentConfig


class _Battery:
    def __init__(self) -> None:
        self.checks: list[dict] = []

    def record(self, name: str, value: float, bound: float) -> None:
        value = float(value)
        passed = bool(np.isfinite(value)) and value <= bound
        self.checks.append({"name": name, "passed": passed,
                            "value": value, "bound": float(bound)})

    @contextlib.contextmanager
    def layer(self, name: str):
        """Run one layer's checks; if its code raises, record the failed
        entry ``<name>_layer`` with the exception in ``error``, and go on."""
        try:
            yield
        except Exception as exc:  # a check that raises is a failed check
            self.checks.append({"name": f"{name}_layer", "passed": False,
                                "value": math.nan, "bound": 0.0,
                                "error": f"{type(exc).__name__}: {exc}"})

    def report(self) -> dict:
        failures = [c["name"] for c in self.checks if not c["passed"]]
        return {"suite": "cmclab-verify", "checks": self.checks,
                "failures": failures}


def _bumpy(seed: int, L: int, amp: float, scale: float = 1.0,
           center=(0.0, 0.0, 0.0)) -> SphereGraph:
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(n_coeffs(L))
    coeffs[4:] = amp * rng.standard_normal(n_coeffs(L) - 4)
    return SphereGraph(np.asarray(center, dtype=float), scale, L, coeffs)


def run_verify(config: ExperimentConfig | None = None) -> dict:
    seed = 0 if config is None else config["seed"]
    b = _Battery()
    grid = quadrature_grid(32, 64)
    small = quadrature_grid(16, 32)
    rng = np.random.default_rng(seed)
    model = mt.schwarzschild_model(1.0)
    r = 6.0
    m = model.mass
    H_exact = round_mean_curvature(model, r)

    with b.layer("transform"):
        # the Gram matrix through the assembly the solver and spectrum use
        L = 10
        gram = galerkin(small, L, [("val", "val", small.weights)])
        b.record("quadrature_gram_identity",
                 np.max(np.abs(gram - np.eye(n_coeffs(L)))), 1e-12)

        coeffs = rng.standard_normal(n_coeffs(L))
        jets = synthesize(coeffs, small, L)
        b.record("transform_roundtrip",
                 np.max(np.abs(analyze(jets.f, small, L) - coeffs)), 1e-11)
        b.record("parseval",
                 abs(np.sum(small.weights * jets.f**2) - np.sum(coeffs**2)),
                 1e-10)

        for l in (3, 7):
            c = np.zeros(n_coeffs(L))
            c[lm_index(l, 1)] = 1.0
            j = synthesize(c, small, L)
            st = np.repeat(small.sin_theta, small.n_phi)
            grad2 = j.dth**2 + (j.dph / st) ** 2
            b.record(f"gradient_energy_l{l}",
                     abs(np.sum(small.weights * grad2) - l * (l + 1)), 1e-10)

    with b.layer("metric"):
        pts = 3.0 + 4.0 * rng.random((40, 3))
        g, _, _ = mt.evaluate_metric(model, pts)
        eigs = np.linalg.eigvalsh(g)
        b.record("metric_positive_definite", max(0.0, -float(np.min(eigs))), 0.0)
        b.record("metric_scalar_flat",
                 np.max(np.abs(mt.scalar_curvature(model, pts))), 1e-9)
        g0, _, _ = mt.evaluate_metric(mt.schwarzschild_model(0.0), pts)
        b.record("metric_zero_mass_flat",
                 np.max(np.abs(g0 - np.eye(3))), 1e-15)

    with b.layer("geometry"):
        round_g = SphereGraph.round_sphere(r, L=12)
        cache = build_geometry(round_g, model, grid)
        b.record("round_sphere_H", np.max(np.abs(cache.H - H_exact)), 1e-11)
        gc = gauss_curvature_check(cache)
        b.record("round_gauss_bonnet", abs(gc["gauss_bonnet_defect"]), 1e-10)
        b.record("gauss_equation_residual", gc["gauss_equation_residual"], 1e-9)
        b.record("comparison_area_round",
                 np.max(np.abs(area_element_comparison_residual(cache))), 1e-12)
        b.record("comparison_H_round",
                 np.max(np.abs(mean_curvature_comparison_residual(cache))),
                 1e-12)

        bump = _bumpy(seed + 1, 8, 0.003, scale=5.0, center=(9.0, 0.0, 0.0))
        pcache = build_geometry(bump, mt.euclidean_model(), grid)
        gcp = gauss_curvature_check(pcache)
        b.record("bumpy_gauss_bonnet", abs(gcp["gauss_bonnet_defect"]), 1e-8)
        willmore_gap = (pcache.integrate_bar(pcache.H_bar**2)
                        - fn.SIXTEEN_PI
                        - 2.0 * pcache.integrate_bar(pcache.tf2_bar))
        b.record("flat_willmore_identity", abs(willmore_gap), 1e-8)

    with b.layer("functional"):
        b.record("bochner_identity",
                 fn.bochner_tracefree_check(_bumpy(seed + 2, 6, 0.004)), 1e-10)

        c20 = np.zeros(n_coeffs(2))
        c20[lm_index(2, 0)] = 1.0
        qf = fn.minkowski_quadratic_form(c20, 2)
        b.record("quadratic_form_l2", abs(qf - 4.0), 1e-6)

        alpha, order = fn.taylor_prefactor_fit((2, 0),
                                               (1e-3, 3e-3, 1e-2, 3e-2, 1e-1))
        b.record("taylor_alpha_half", abs(alpha - 0.5), 5e-3)
        b.record("taylor_order_l2", max(0.0, 2.8 - order), 0.0)

        # Spectral gap of the deficit quadratic form against the H^1 norm on
        # the complement of the low modes.
        worst = -np.inf
        mu = None
        for s in range(100):
            rloc = np.random.default_rng((seed, 2000 + s))
            c = np.zeros(n_coeffs(8))
            c[4:] = rloc.standard_normal(n_coeffs(8) - 4)
            if mu is None:
                mu = degree_of_index(8).astype(float)
                mu = mu * (mu + 1.0)
            q = fn.minkowski_quadratic_form(c, 8)
            h1 = np.sum(c**2) + np.sum(mu * c**2)
            worst = max(worst, (h1 / 3.0 - q))
            if worst > 0.0:
                break
        b.record("deficit_gap_high_modes", max(0.0, worst), 0.0)

        # Curvature-ratio corpus: C1-small graphs stay below the uniform bound.
        ratio_max = 0.0
        for s in range(100):
            graph = corpus_graph((seed, s))
            ccache = build_geometry(graph, mt.euclidean_model(), grid)
            _, ratio = fn.dlm_ratio(ccache)
            ratio_max = max(ratio_max, ratio)
        b.record("curvature_ratio_corpus", ratio_max, 2.0 + 1e-6)

        # Flux scaling: lambda^2 * flux is a dilation invariant.
        base = _bumpy(seed + 3, 6, 0.004, scale=1.0, center=(3.0, 0.5, 0.0))
        f1 = fn.flux_integral(build_geometry(base, mt.euclidean_model(), grid))
        double = SphereGraph(base.center * 2.0, base.scale * 2.0, base.L,
                             base.coeffs)
        f2 = fn.flux_integral(build_geometry(double, mt.euclidean_model(), grid))
        b.record("flux_dilation_covariance",
                 abs(2.0**2 * f2 - f1) / abs(f1), 1e-12)

        out = build_geometry(
            SphereGraph.round_sphere(1.0, center=(4.0, 0.0, 0.0), L=8),
            mt.euclidean_model(), grid)
        b.record("divergence_outlying",
                 abs(fn.divergence_identity_residual(out)), 1e-10)
        enc = build_geometry(
            SphereGraph.round_sphere(3.0, center=(0.5, 0.0, 0.0), L=8),
            mt.euclidean_model(), grid)
        b.record("divergence_enclosing",
                 abs(fn.divergence_identity_residual(enc) - fn.FOUR_PI), 1e-10)

        sch_cache = build_geometry(
            SphereGraph.round_sphere(3.0, center=(12.0, 0.0, 0.0), L=8),
            model, grid)
        ledger = fn.big_inequality_audit(sch_cache)
        finite = all(np.isfinite(v) for k, v in ledger.items()
                     if isinstance(v, float))
        b.record("audit_entries_finite", 0.0 if finite else 1.0, 0.0)

    with b.layer("normalization"):
        moved = _bumpy(seed + 4, 6, 0.002, scale=1.0, center=(0.02, -0.01, 0.03))
        normed, _, _ = moment_normalize(moved)
        nf = synthesize(normed.coeffs, grid, normed.L).f
        moments = [abs(np.sum(grid.weights * nf * grid.nodes[:, i]))
                   for i in range(3)]
        mean = abs(float(normed.coeffs[0]))
        b.record("moment_normalize_posts", max(moments + [mean]), 1e-9)
        again, _, _ = moment_normalize(normed)
        b.record("moment_normalize_idempotent",
                 np.max(np.abs(again.coeffs - normed.coeffs)), 1e-11)

    with b.layer("solver"):
        opts = CmcOptions(tolerance=1e-10)
        seed_graph = _bumpy(seed + 5, 8, 0.002, scale=2.1)
        sol = solve_cmc(seed_graph, mt.euclidean_model(), 1.0, opts)
        b.record("euclid_solve_residual",
                 sol.final_residual if sol.converged else np.inf, 1e-9)
        if sol.converged:
            # H == const in flat space forces a round sphere, possibly
            # translated; umbilicity and area radius are the
            # translation-invariant posts
            scache = build_geometry(sol.surface, mt.euclidean_model(), grid)
            b.record("euclid_solve_umbilic",
                     scache.integrate_bar(scache.tf2_bar), 1e-9)
            b.record("euclid_solve_radius",
                     abs(math.sqrt(scache.area_bar() / fn.FOUR_PI) - 2.0), 1e-8)
        else:
            b.record("euclid_solve_umbilic", np.inf, 1e-9)
            b.record("euclid_solve_radius", np.inf, 1e-8)
        if sol.converged:
            spec = stability_spectrum(sol, mt.euclidean_model(), k=9)
            expect = np.array([0.0, 0.0, 0.0] + [(l * (l + 1) - 2) / 4.0
                                                 for l in (2, 2, 2, 2, 2, 3)])
            b.record("euclid_constrained_spectrum",
                     np.max(np.abs(spec - expect)), 1e-8)
        else:
            b.record("euclid_constrained_spectrum", np.inf, 1e-8)

        # centered Schwarzschild spheres of area radius R = r (1 + m/2r)^2:
        # (l(l+1) - 2)/R^2 + 6m/R^3, the l=1 triplet and the l=2 quintet
        worst = 0.0
        for rs in (8.0, 1000.0):
            R = rs * (1.0 + m / (2.0 * rs)) ** 2
            expect = np.repeat([(l * (l + 1) - 2) / R**2 + 6.0 * m / R**3
                                for l in (1, 2)], [3, 5])
            spec, _ = _constrained_spectrum(
                SphereGraph.round_sphere(rs, L=8), model, 8)
            worst = max(worst, float(np.max(np.abs(spec / expect - 1.0))))
        b.record("schwarzschild_constrained_spectrum", worst, 1e-9)

        b.record("round_radius_inverse",
                 abs(round_seed_radius(model, H_exact) - r), 1e-9)

    with b.layer("serialization"):
        # built to a C1 target: raw random amplitudes can leave the bound
        g1 = corpus_graph(seed + 6, L=5, l_band=(2, 5), c1_target=0.25,
                          scale=3.0, center=(1.0, 2.0, 3.0))
        g2 = SphereGraph.from_json_dict(g1.to_json_dict())
        ser = max(float(np.max(np.abs(g1.coeffs - g2.coeffs))),
                  float(np.max(np.abs(g1.center - g2.center))),
                  abs(g1.scale - g2.scale))
        b.record("graph_serialization_roundtrip", ser, 0.0)
        spec_model = mt.perturbed_model(
            1.5, mt.PerturbationSpec(terms=(
                mt.PerturbationTerm(power=2.0, amplitude=0.3, i=0, j=1,
                                    profile=((1.0, (0, 0, 2)),)),)))
        same = mt.model_from_dict(mt.model_to_dict(spec_model)) == spec_model
        b.record("model_serialization_roundtrip", 0.0 if same else 1.0, 0.0)

    return b.report()
