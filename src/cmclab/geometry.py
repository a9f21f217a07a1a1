"""Extrinsic geometry of graph surfaces against a background metric.

For every surface the Euclidean ("barred") fundamental forms are computed
alongside the metric ones, since all comparison laws are phrased between the
two.  Sign convention: the round sphere of radius r with outward normal has
mean curvature H = 2/r > 0 in the flat background.

The node-level algebra is dtype-agnostic; feeding complex jets through
``mean_curvature_from_jets`` yields machine-accurate directional derivatives
of H (used by the solver's Jacobian).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics as mt
from .errors import GeometryError, PreconditionError
from .sphere import QuadratureGrid, SphereGraph, SphereJets, synthesize


def _points(rho, center, nhat):
    """Graph points center + rho * direction, (N, 3)."""
    return np.asarray(center)[None, :] + rho[:, None] * nhat


def _embedding(jets: SphereJets, center, scale, frames):
    """Embedding and its chart derivatives from graph jets.

    Returns X, X_th, X_ph, X_thth, X_thph, X_phph with shape (N, 3).
    """
    nhat, that, phat, st, ct = frames
    rho = scale * (1.0 + jets.f)
    X = _points(rho, center, nhat)
    Xth = (scale * jets.dth)[:, None] * nhat + rho[:, None] * that
    Xph = (scale * jets.dph)[:, None] * nhat + (rho * st)[:, None] * phat
    Xthth = (scale * jets.dthth - rho)[:, None] * nhat + (2.0 * scale * jets.dth)[:, None] * that
    Xthph = (
        (scale * jets.dthph)[:, None] * nhat
        + (scale * jets.dph)[:, None] * that
        + (scale * jets.dth * st + rho * ct)[:, None] * phat
    )
    Xphph = (
        (scale * jets.dphph - rho * st * st)[:, None] * nhat
        - (rho * st * ct)[:, None] * that
        + (2.0 * scale * jets.dph * st)[:, None] * phat
    )
    return X, Xth, Xph, Xthth, Xthph, Xphph


def _cross(a, b):
    out = np.empty(a.shape, dtype=np.result_type(a, b))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _dot(a, b):
    return np.sum(a * b, axis=-1)


def _induced(Xth, Xph, g3=None):
    """Induced 2-metric components as a (N, 2, 2) stack."""
    if g3 is None:
        g_tt = _dot(Xth, Xth)
        g_tp = _dot(Xth, Xph)
        g_pp = _dot(Xph, Xph)
    else:
        g_tt = np.einsum("nij,ni,nj->n", g3, Xth, Xth)
        g_tp = np.einsum("nij,ni,nj->n", g3, Xth, Xph)
        g_pp = np.einsum("nij,ni,nj->n", g3, Xph, Xph)
    g = np.empty(Xth.shape[:-1] + (2, 2),
                 dtype=np.result_type(g_tt, g_tp, g_pp))
    g[..., 0, 0] = g_tt
    g[..., 0, 1] = g[..., 1, 0] = g_tp
    g[..., 1, 1] = g_pp
    return g


def _inv2(g):
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    inv = np.empty_like(g)
    inv[..., 0, 0] = g[..., 1, 1] / det
    inv[..., 1, 1] = g[..., 0, 0] / det
    inv[..., 0, 1] = inv[..., 1, 0] = -g[..., 0, 1] / det
    return inv, det


def _second_form(nu_vec, g3, Gam, Xth, Xph, Xthth, Xthph, Xphph):
    """h_ab = -g(nu, ambient second derivative of the immersion)."""
    nu_cov = np.einsum("nij,nj->ni", g3, nu_vec) if g3 is not None else nu_vec
    tangents = (Xth, Xph)
    seconds = {(0, 0): Xthth, (0, 1): Xthph, (1, 1): Xphph}
    dtype = np.result_type(nu_cov, Xth, Xthth, Xthph, Xphph)
    h = np.empty(Xth.shape[:-1] + (2, 2), dtype=dtype)
    for (a, b), Xab in seconds.items():
        acc = np.einsum("ni,ni->n", nu_cov, Xab)
        if Gam is not None:
            acc = acc + np.einsum(
                "nk,nkij,ni,nj->n", nu_cov, Gam, tangents[a], tangents[b]
            )
        h[..., a, b] = -acc
        h[..., b, a] = -acc
    return h


def _background(model: mt.MetricModel, X):
    """(g3, Gam, g3inv) at the points X, or None in the flat model."""
    if model.kind == mt.EUCLIDEAN:
        return None
    g3, dg3, _ = mt.evaluate_metric(model, X)
    Gam, g3inv = mt.christoffel(g3, dg3)
    return g3, Gam, g3inv


def background_at(jets: SphereJets, center, scale, model: mt.MetricModel,
                  grid: QuadratureGrid):
    """Metric, Christoffel symbols and inverse metric at the graph's points.

    Returns (g3, Gam, g3inv) at the real points of the jets' value field, or
    None in the flat model.  Only the value jet moves the points, so one
    background serves every jet that perturbs a derivative field (see
    ``mean_curvature_from_jets``).
    """
    X = _points(scale * (1.0 + jets.f), center, grid.frames()[0])
    return _background(model, X)


def mean_curvature_from_jets(jets: SphereJets, center, scale, model: mt.MetricModel,
                             grid: QuadratureGrid, background=None):
    """Node-wise mean curvature of the graph described by the jets.

    Complex-safe: perturbing a jet component by an imaginary step and reading
    the imaginary part of H gives the exact directional derivative.

    ``background`` is the ``background_at`` result of jets with the same
    value field ``f``; passing it skips the metric evaluation.  Without it the
    metric is evaluated at the jets' own (possibly complex) points.
    """
    frames = grid.frames()
    X, Xth, Xph, Xthth, Xthph, Xphph = _embedding(jets, center, scale, frames)
    if background is None:
        background = _background(model, X)
    g3, Gam, g3inv = background or (None, None, None)
    gind = _induced(Xth, Xph, g3)
    ginv, det = _inv2(gind)
    ncov = _cross(Xth, Xph)
    orient = np.real(_dot(ncov, X - np.asarray(center)[None, :]))
    sign = np.where(orient >= 0.0, 1.0, -1.0)
    ncov = ncov * sign[:, None]
    if g3 is None:
        nu = ncov / np.sqrt(_dot(ncov, ncov))[:, None]
    else:
        raised = np.einsum("nij,nj->ni", g3inv, ncov)
        nu = raised / np.sqrt(np.einsum("ni,ni->n", ncov, raised))[:, None]
    h = _second_form(nu, g3, Gam, Xth, Xph, Xthth, Xthph, Xphph)
    H = np.einsum("nab,nab->n", ginv, h)
    return H


@dataclass
class GeometryCache:
    """Node-wise geometric data of one (surface, metric) pair.

    All arrays are indexed by the grid's flattened node order.  The barred
    fields are the Euclidean quantities of the same surface and are always
    populated.  ``J`` and ``J_bar`` are area densities relative to the round
    measure, so integrals are ``sum(weights * J * values)``.
    """

    graph: SphereGraph
    model: mt.MetricModel
    grid: QuadratureGrid
    X: np.ndarray
    r: np.ndarray
    Xth: np.ndarray
    Xph: np.ndarray
    nu: np.ndarray
    nu_bar: np.ndarray
    g_ind: np.ndarray
    gbar_ind: np.ndarray
    ginv_ind: np.ndarray
    gbar_inv: np.ndarray
    h: np.ndarray
    h_bar: np.ndarray
    H: np.ndarray
    H_bar: np.ndarray
    tf2: np.ndarray
    tf2_bar: np.ndarray
    J: np.ndarray
    J_bar: np.ndarray
    K: np.ndarray
    K_bar: np.ndarray
    scalar: np.ndarray
    ric_nu_nu: np.ndarray
    u: np.ndarray

    def integrate(self, values) -> float:
        return float(np.sum(self.grid.weights * self.J * values))

    def integrate_bar(self, values) -> float:
        return float(np.sum(self.grid.weights * self.J_bar * values))

    def area(self) -> float:
        return float(np.sum(self.grid.weights * self.J))

    def area_bar(self) -> float:
        return float(np.sum(self.grid.weights * self.J_bar))

    def summary(self) -> dict:
        """Integral quantities of the pair, JSON-ready."""
        return {
            "kind": self.model.kind,
            "area": self.area(),
            "area_flat": self.area_bar(),
            "willmore": self.integrate(self.H**2),
            "tracefree_energy": self.integrate(self.tf2),
            "tracefree_energy_flat": self.integrate_bar(self.tf2_bar),
            "total_gauss_curvature": self.integrate(self.K),
            "min_H": float(np.min(self.H)),
            "max_H": float(np.max(self.H)),
        }


def build_geometry(graph: SphereGraph, model: mt.MetricModel,
                   grid: QuadratureGrid) -> GeometryCache:
    """Assemble the full geometric cache for a surface in a background."""
    grid.require_capacity(graph.L)
    jets = synthesize(graph.coeffs, grid, graph.L)
    frames = grid.frames()
    st = frames[3]
    X, Xth, Xph, Xthth, Xthph, Xphph = _embedding(jets, graph.center, graph.scale, frames)
    r = np.sqrt(_dot(X, X))

    # Euclidean twin
    gbar = _induced(Xth, Xph)
    gbar_inv, det_bar = _inv2(gbar)
    if np.min(det_bar) <= 0.0:
        raise GeometryError(
            "degenerate induced metric", node_index=int(np.argmin(det_bar))
        )
    ncov = _cross(Xth, Xph)
    orient = _dot(ncov, X - graph.center[None, :])
    if np.min(orient) <= 0.0:
        raise GeometryError(
            "normal orientation flip", node_index=int(np.argmin(orient))
        )
    nu_bar = ncov / np.sqrt(_dot(ncov, ncov))[:, None]
    hbar = _second_form(nu_bar, None, None, Xth, Xph, Xthth, Xthph, Xphph)
    Hbar = np.einsum("nab,nab->n", gbar_inv, hbar)
    hbar2 = np.einsum("nac,nbd,nab,ncd->n", gbar_inv, gbar_inv, hbar, hbar)
    tf2_bar = hbar2 - 0.5 * Hbar**2
    Jbar = np.sqrt(det_bar) / st
    Kbar = (hbar[..., 0, 0] * hbar[..., 1, 1] - hbar[..., 0, 1] ** 2) / det_bar

    if model.kind == mt.EUCLIDEAN:
        zeros = np.zeros_like(Hbar)
        return GeometryCache(
            graph=graph, model=model, grid=grid, X=X, r=r, Xth=Xth, Xph=Xph,
            nu=nu_bar, nu_bar=nu_bar, g_ind=gbar, gbar_ind=gbar,
            ginv_ind=gbar_inv, gbar_inv=gbar_inv, h=hbar, h_bar=hbar,
            H=Hbar, H_bar=Hbar, tf2=tf2_bar, tf2_bar=tf2_bar, J=Jbar,
            J_bar=Jbar, K=Kbar, K_bar=Kbar, scalar=zeros, ric_nu_nu=zeros,
            u=np.ones_like(Hbar),
        )

    g3, dg3, ddg3 = mt.evaluate_metric(model, X)
    Gam, g3inv = mt.christoffel(g3, dg3)
    _, riem, ric, scal = mt.curvature_tensors(
        model, X, metric=(g3, dg3, ddg3), connection=(Gam, g3inv))
    gind = _induced(Xth, Xph, g3)
    ginv, det = _inv2(gind)
    if np.min(det) <= 0.0:
        raise GeometryError(
            "degenerate induced metric in background", node_index=int(np.argmin(det))
        )
    raised = np.einsum("nij,nj->ni", g3inv, ncov)
    nu = raised / np.sqrt(np.einsum("ni,ni->n", ncov, raised))[:, None]
    h = _second_form(nu, g3, Gam, Xth, Xph, Xthth, Xthph, Xphph)
    H = np.einsum("nab,nab->n", ginv, h)
    h2 = np.einsum("nac,nbd,nab,ncd->n", ginv, ginv, h, h)
    tf2 = h2 - 0.5 * H**2
    J = np.sqrt(det) / st
    ric_nn = np.einsum("njk,nj,nk->n", ric, nu, nu)

    # Gauss curvature: ambient sectional curvature of the tangent plane plus
    # the shape-operator determinant.
    e1 = Xth / np.sqrt(np.einsum("nij,ni,nj->n", g3, Xth, Xth))[:, None]
    proj = np.einsum("nij,ni,nj->n", g3, Xph, e1)
    w = Xph - proj[:, None] * e1
    e2 = w / np.sqrt(np.einsum("nij,ni,nj->n", g3, w, w))[:, None]
    vec = np.einsum("nlijk,ni,nj,nk->nl", riem, e1, e2, e2)
    sec = np.einsum("nlm,nl,nm->n", g3, vec, e1)
    K = sec + (h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] ** 2) / det

    u, _, _ = mt.conformal_factor(model, X)
    return GeometryCache(
        graph=graph, model=model, grid=grid, X=X, r=r, Xth=Xth, Xph=Xph,
        nu=nu, nu_bar=nu_bar, g_ind=gind, gbar_ind=gbar, ginv_ind=ginv,
        gbar_inv=gbar_inv, h=h, h_bar=hbar, H=H, H_bar=Hbar, tf2=tf2,
        tf2_bar=tf2_bar, J=J, J_bar=Jbar, K=K, K_bar=Kbar, scalar=scal,
        ric_nu_nu=ric_nn, u=u,
    )


def _require_curved(cache: GeometryCache, op: str):
    if cache.model.kind == mt.EUCLIDEAN:
        raise PreconditionError(f"{op} compares against the flat background; "
                                "it is undefined for the euclidean model")


def area_element_comparison_residual(cache: GeometryCache) -> np.ndarray:
    """Node-wise relative defect of the conformal area-density comparison.

    Returns (J - u^4 (1 + tr_sigma/2) J_bar) / J_bar, where the trace of the
    restricted perturbation is taken with the full induced metric.  Exactly
    zero for the unperturbed conformal background; decays at fourth order in
    1/|x| for perturbed models.
    """
    _require_curved(cache, "area element comparison")
    sig, _, _ = mt.sigma_with_derivatives(cache.model, cache.X)
    sig_tt = np.einsum("nij,ni,nj->n", sig, cache.Xth, cache.Xth)
    sig_tp = np.einsum("nij,ni,nj->n", sig, cache.Xth, cache.Xph)
    sig_pp = np.einsum("nij,ni,nj->n", sig, cache.Xph, cache.Xph)
    tr = (
        cache.ginv_ind[..., 0, 0] * sig_tt
        + 2.0 * cache.ginv_ind[..., 0, 1] * sig_tp
        + cache.ginv_ind[..., 1, 1] * sig_pp
    )
    return cache.J / cache.J_bar - cache.u**4 * (1.0 + 0.5 * tr)


def mean_curvature_comparison_residual(cache: GeometryCache) -> np.ndarray:
    """Node-wise defect of the conformal mean-curvature comparison law.

    The law states u^2 H = H_flat - u^-1 (2m/|x|^3) <X, nu_flat>
    - <sigma, h> + H sigma(nu, nu)/2 - tr(grad sigma)(nu, .) +
    tr(grad_nu sigma)/2 up to fourth-order decay; the returned residual is
    the left side minus the right side.  Exactly zero (round-off) when the
    perturbation vanishes.
    """
    _require_curved(cache, "mean curvature comparison")
    m = cache.model.mass
    u = cache.u
    x_dot_nubar = _dot(cache.X, cache.nu_bar)
    rhs = cache.H_bar - (2.0 * m / cache.r**3) * x_dot_nubar / u

    if cache.model.kind == mt.PERTURBED:
        sig, dsig, _ = mt.sigma_with_derivatives(cache.model, cache.X)
        tang = (cache.Xth, cache.Xph)
        sig_ab = np.empty_like(cache.g_ind)
        for a in range(2):
            for b in range(2):
                sig_ab[..., a, b] = np.einsum("nij,ni,nj->n", sig, tang[a], tang[b])
        # <sigma, h> over the surface with the induced metric
        sig_h = np.einsum("nac,nbd,nab,ncd->n", cache.ginv_ind, cache.ginv_ind,
                          sig_ab, cache.h)
        sig_nn = np.einsum("nij,ni,nj->n", sig, cache.nu, cache.nu)
        # tr (grad_. sigma)(nu, .) and tr grad_nu sigma over tangent directions
        div_term = np.zeros_like(cache.H)
        nu_term = np.zeros_like(cache.H)
        for a in range(2):
            for b in range(2):
                gab = cache.ginv_ind[..., a, b]
                div_term = div_term + gab * np.einsum(
                    "nk,nkij,ni,nj->n", tang[a], dsig, cache.nu, tang[b]
                )
                nu_term = nu_term + gab * np.einsum(
                    "nk,nkij,ni,nj->n", cache.nu, dsig, tang[a], tang[b]
                )
        rhs = rhs - sig_h + 0.5 * cache.H * sig_nn - div_term + 0.5 * nu_term
    return cache.u**2 * cache.H - rhs


def gauss_curvature_check(cache: GeometryCache) -> dict:
    """Total curvature and the contracted Gauss-equation residual.

    Returns a dict with the integral of K over the surface, its defect from
    4*pi, and the max-node residual of
    2K = R - 2 Ric(nu, nu) - |tracefree h|^2 + H^2/2.
    """
    total = cache.integrate(cache.K)
    residual = np.max(np.abs(
        2.0 * cache.K
        - (cache.scalar - 2.0 * cache.ric_nu_nu - cache.tf2 + 0.5 * cache.H**2)
    ))
    return {
        "total_curvature": total,
        "gauss_bonnet_defect": abs(total - 4.0 * np.pi),
        "gauss_equation_residual": float(residual),
    }
