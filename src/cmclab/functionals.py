"""Integral functionals of graph surfaces.

Quasi-local mass, curvature-energy deficits, roundness ratios, the
Minkowski-deficit expansion, and the far-field inequality audit.  Everything
here is a pure function of a GeometryCache (or a unit-sphere graph for the
spectral identities); quadrature is exact for band-limited integrands up to
the grid capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics as mt
from .errors import FitError, PreconditionError, UndefinedRatioError
from .geometry import GeometryCache, build_geometry
from .sphere import (SphereGraph, _guard_grid, degree_of_index, lm_index,
                     n_coeffs, synthesize, working_grid)

FOUR_PI = 4.0 * math.pi
SIXTEEN_PI = 16.0 * math.pi

# below this, a surface is treated as exactly round and the roundness ratio
# is undefined
TRACEFREE_FLOOR = 1e-14


def willmore_energy(cache: GeometryCache) -> float:
    return cache.integrate(cache.H**2)


def hawking_mass(cache: GeometryCache) -> float:
    """sqrt(area/16pi) (1 - willmore/16pi) with the metric measure."""
    area = cache.area()
    return math.sqrt(area / SIXTEEN_PI) * (1.0 - willmore_energy(cache) / SIXTEEN_PI)


def cy_deficit(cache: GeometryCache) -> tuple[float, float, float]:
    """Curvature-energy deficit (lhs, rhs, margin).

    lhs = (2/3) integral of (R + |tracefree h|^2), rhs = 16pi - willmore,
    margin = rhs - lhs.  The sign of the margin is reported, not asserted:
    margin >= 0 is a theorem only for stable constant-mean-curvature spheres
    in nonnegative scalar curvature.
    """
    lhs = (2.0 / 3.0) * cache.integrate(cache.scalar + cache.tf2)
    rhs = SIXTEEN_PI - willmore_energy(cache)
    return lhs, rhs, rhs - lhs


def dlm_ratio(cache: GeometryCache) -> tuple[float, float]:
    """Optimal round-comparison radius and the flat roundness ratio.

    lambda_opt minimizes the flat integral of (H_flat - 2/lambda)^2; the
    ratio divides that minimum by twice the flat tracefree energy.  Raises
    UndefinedRatioError on (numerically) round spheres, where both sides
    vanish.
    """
    tf = cache.integrate_bar(cache.tf2_bar)
    if tf <= TRACEFREE_FLOOR:
        raise UndefinedRatioError(
            f"tracefree energy {tf:.3e} below {TRACEFREE_FLOOR:.0e}; "
            "ratio undefined on round spheres"
        )
    lam = 2.0 * cache.area_bar() / cache.integrate_bar(cache.H_bar)
    num = cache.integrate_bar((cache.H_bar - 2.0 / lam) ** 2)
    return lam, num / (2.0 * tf)


def minkowski_deficit(cache: GeometryCache) -> float:
    """Flat total mean curvature minus sqrt(16pi area), zero on round spheres."""
    return cache.integrate_bar(cache.H_bar) - math.sqrt(SIXTEEN_PI * cache.area_bar())


def minkowski_quadratic_form(c, L: int) -> float:
    """Second-order model of the Minkowski deficit at the unit sphere.

    For the graph r = 1 + f with harmonic coefficients ``c`` of degree <= L,
    the spectral value of (1/2pi)(int f)^2 - 2 int f^2 + int |grad f|^2;
    vanishes identically on degrees 0 and 1.
    """
    c = np.asarray(c, dtype=float)
    mu = degree_of_index(L)
    mu = mu * (mu + 1)
    return float(2.0 * c[0] ** 2 - 2.0 * np.sum(c**2) + np.sum(mu * c**2))


def taylor_prefactor_fit(mode: tuple[int, int], epsilons) -> tuple[float, float]:
    """Fit deficit(eps * Y_mode) = alpha * eps^2 * Q(mode) + remainder.

    The deficits are measured on ``working_grid`` of the mode's degree.
    Returns (alpha, remainder_order) where the order is the log-log slope of
    the remainder against eps.  Raises FitError for modes with vanishing
    quadratic form (degree <= 1) or when every deficit sits at round-off.
    """
    l, m = mode
    if abs(m) > l:
        raise ValueError(f"invalid harmonic index ({l}, {m})")
    eps = np.sort(np.asarray(epsilons, dtype=float))
    if eps.size < 3 or np.min(eps) <= 0.0:
        raise FitError("need at least 3 positive epsilons")
    L = max(l, 2)
    coeffs = np.zeros(n_coeffs(L))
    coeffs[lm_index(l, m)] = 1.0
    qform = minkowski_quadratic_form(coeffs, L)
    if abs(qform) < 1e-12:
        raise FitError(f"quadratic form vanishes for degree {l}")
    grid = working_grid(L)
    model = mt.euclidean_model()
    deficits = np.array([
        minkowski_deficit(build_geometry(
            SphereGraph(np.zeros(3), 1.0, L, coeffs * e), model, grid))
        for e in eps
    ])
    if np.max(np.abs(deficits)) < 1e-13:
        raise FitError("all deficits below 1e-13; nothing to fit")
    # deficit/(eps^2 Q) = alpha + O(eps); quadratic fit isolates the intercept
    scaled = deficits / (eps**2 * qform)
    alpha = float(np.polyfit(eps, scaled, 2)[-1])
    remainder = np.abs(deficits - alpha * eps**2 * qform)
    keep = remainder > 1e-14
    if np.count_nonzero(keep) < 2:
        return alpha, float("inf")
    order = float(np.polyfit(np.log(eps[keep]), np.log(remainder[keep]), 1)[0])
    return alpha, order


def bochner_tracefree_check(graph: SphereGraph) -> float:
    """Residual of the tracefree-Hessian energy identity on the unit sphere.

    For band-limited f the identity
    int |Hess f|^2 = 2 int |Hess f - (lap f / 2) g|^2 + int |grad f|^2
    holds exactly; the returned quadrature residual is its violation.
    """
    if abs(graph.scale - 1.0) > 1e-12:
        raise PreconditionError("identity is evaluated on the unit sphere; "
                                f"got scale {graph.scale!r}")
    # integrands are degree <= 2L, so use the 2L-exact guard rule
    grid = _guard_grid(graph.L)
    jets = synthesize(graph.coeffs, grid, graph.L)
    st = np.repeat(grid.sin_theta, grid.n_phi)
    ct = np.repeat(grid.cos_theta, grid.n_phi)
    A_tt = jets.dthth
    A_tp = jets.dthph - (ct / st) * jets.dph
    A_pp = jets.dphph + st * ct * jets.dth
    hess2 = A_tt**2 + 2.0 * (A_tp / st) ** 2 + (A_pp / st**2) ** 2
    lap = A_tt + A_pp / st**2
    tf2 = hess2 - 0.5 * lap**2
    grad2 = jets.dth**2 + (jets.dph / st) ** 2
    w = grid.weights
    return float(abs(np.sum(w * hess2) - 2.0 * np.sum(w * tf2) - np.sum(w * grad2)))


def flux_integral(cache: GeometryCache) -> float:
    """Flat integral of <X, nu_flat>^2 / |x|^6; equals 4pi/r^2 for centered
    round spheres and scales like 1/r0^2 on outlying families."""
    xdn = np.sum(cache.X * cache.nu_bar, axis=-1)
    return cache.integrate_bar(xdn**2 / cache.r**6)


def divergence_identity_residual(cache: GeometryCache) -> float:
    """Flat integral of <X, nu_flat>/|x|^3: 0 for surfaces not enclosing the
    origin, 4pi for enclosing ones (divergence theorem for x/|x|^3)."""
    xdn = np.sum(cache.X * cache.nu_bar, axis=-1)
    return cache.integrate_bar(xdn / cache.r**3)


def enclosed_volume_flat(cache: GeometryCache) -> float:
    xdn = np.sum(cache.X * cache.nu_bar, axis=-1)
    return cache.integrate_bar(xdn) / 3.0


def big_inequality_audit(cache: GeometryCache, tau: float = 2.5,
                         delta: float = 0.1) -> dict:
    """Term-by-term ledger of the far-field mass-lower-bound inequality.

    Charts which side dominates for an outlying surface: the tracefree term
    with coefficient (2/3)(1-delta)/(1+delta) + 2 - tau*gamma (gamma is the
    measured roundness ratio, 0 with gamma_defined=False on round spheres),
    the favorable flux term 4 m^2 (1 - 2/tau) * flux, and the error
    integrals of the dropped remainders.  Requires tau in (2, 8/3), delta in
    (0, 1), and a surface not enclosing the origin.
    """
    if not 2.0 < tau < 8.0 / 3.0:
        raise PreconditionError(f"tau must lie in (2, 8/3); got {tau!r}")
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must lie in (0, 1); got {delta!r}")
    if cache.graph.encloses_origin():
        raise PreconditionError("audit requires a surface not enclosing the origin")
    try:
        _, gamma = dlm_ratio(cache)
        gamma_defined = True
    except UndefinedRatioError:
        gamma, gamma_defined = 0.0, False
    coeff = (2.0 / 3.0) * (1.0 - delta) / (1.0 + delta) + 2.0 - tau * gamma
    tf_flat = cache.integrate_bar(cache.tf2_bar)
    flux = flux_integral(cache)
    r = cache.r
    H = cache.H
    h2 = cache.tf2 + 0.5 * H**2
    err_x5 = cache.integrate(r**-5)
    err_h2_x3 = cache.integrate(h2 * r**-3)
    err_Htf_x2 = cache.integrate(H * np.sqrt(np.maximum(cache.tf2, 0.0)) * r**-2)
    err_H_x3 = cache.integrate(H * r**-3)
    err_H2_x2 = cache.integrate(H**2 * r**-2)
    area = cache.area()
    return {
        "mass": cache.model.mass,
        "tau": tau,
        "delta": delta,
        "gamma": gamma,
        "gamma_defined": gamma_defined,
        "coeff_tracefree": coeff,
        "tracefree_energy_flat": tf_flat,
        "term_tracefree": coeff * tf_flat,
        "flux": flux,
        "term_favorable": 4.0 * cache.model.mass**2 * (1.0 - 2.0 / tau) * flux,
        "error_x5": err_x5,
        "error_h2_x3": err_h2_x3,
        "error_Htf_x2": err_Htf_x2,
        "error_H_x3": err_H_x3,
        "error_H2_x2": err_H2_x2,
        "error_total": err_x5 + err_h2_x3 + err_Htf_x2 + err_H_x3 + err_H2_x2,
        "divergence_residual": divergence_identity_residual(cache),
        "r0": cache.graph.r0(),
        "mean_H": cache.integrate(H) / area,
    }


@dataclass(frozen=True)
class FunctionalReport:
    """All scalar functionals of one (surface, metric) pair."""

    area: float
    willmore: float
    hawking: float
    cy_lhs: float
    cy_rhs: float
    dlm_lambda: float
    dlm_ratio: float
    minkowski_deficit: float
    flux: float
    r0: float
    H_mean: float

    FIELDS = ("area", "willmore", "hawking", "cy_lhs", "cy_rhs", "dlm_lambda",
              "dlm_ratio", "minkowski_deficit", "flux", "r0", "H_mean")


def build_report(cache: GeometryCache) -> FunctionalReport:
    """Assemble the full functional report; the roundness ratio is nan on
    round spheres rather than an error."""
    area = cache.area()
    try:
        lam, ratio = dlm_ratio(cache)
    except UndefinedRatioError:
        lam = 2.0 * cache.area_bar() / cache.integrate_bar(cache.H_bar)
        ratio = float("nan")
    lhs, rhs, _ = cy_deficit(cache)
    return FunctionalReport(
        area=area,
        willmore=willmore_energy(cache),
        hawking=hawking_mass(cache),
        cy_lhs=lhs,
        cy_rhs=rhs,
        dlm_lambda=lam,
        dlm_ratio=ratio,
        minkowski_deficit=minkowski_deficit(cache),
        flux=flux_integral(cache),
        r0=cache.graph.r0(),
        H_mean=cache.integrate(cache.H) / area,
    )
