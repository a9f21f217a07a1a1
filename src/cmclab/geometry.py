"""Extrinsic geometry of graph surfaces against a background metric.

For every surface the Euclidean ("barred") fundamental forms are computed
alongside the metric ones, since all comparison laws are phrased between the
two.  Sign convention: the round sphere of radius r with outward normal has
mean curvature H = 2/r > 0 in the flat background.

One node kernel, ``_surface_forms``, computes the induced metric, unit
normal, second fundamental form and H: ``build_geometry`` calls it for the
Euclidean and the metric forms, ``mean_curvature_from_jets`` (the solver's
H) for the metric ones.  It is dtype-agnostic; feeding complex jets through
``mean_curvature_from_jets`` yields machine-accurate directional derivatives
of H (used by the solver's Jacobian).

Every tangential contraction T(X_a, X_b) of an ambient symmetric 2-tensor
(the induced metric, the Christoffel term of h, the perturbation and its
derivatives in the comparison laws) goes through ``_pullback``; ``_trace``
and ``_inner`` contract the result with the inverse induced metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics as mt
from .errors import GeometryError, PreconditionError
from .sphere import (QuadratureGrid, SphereGraph, SphereJets, _embedding,
                     _points, synthesize)


def _cross(a, b):
    out = np.empty(a.shape, dtype=np.result_type(a, b))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _dot(a, b):
    return np.sum(a * b, axis=-1)


def _contract(T, *vectors):
    """T(..., v1, ..., vk): the trailing indices of a node-wise tensor
    contracted with node-wise vectors, one index at a time."""
    for v in reversed(vectors):
        T = np.einsum("n...k,nk->n...", T, v)
    return T


def _sym2(tt, tp, pp):
    """The symmetric (N, 2, 2) stack with entries tt, tp, pp."""
    out = np.empty(tt.shape + (2, 2), dtype=np.result_type(tt, tp, pp))
    out[..., 0, 0] = tt
    out[..., 0, 1] = out[..., 1, 0] = tp
    out[..., 1, 1] = pp
    return out


def _pullback(T, Xth, Xph):
    """T(X_a, X_b) of a symmetric ambient 2-tensor T, as an (N, 2, 2) stack.

    ``T=None`` is the flat dot product.  Complex-safe: no conjugation.
    """
    Tth, Tph = (Xth, Xph) if T is None else (_contract(T, Xth), _contract(T, Xph))
    return _sym2(_dot(Xth, Tth), _dot(Xth, Tph), _dot(Xph, Tph))


def _trace(ginv, P):
    """g^ab P_ab."""
    return np.einsum("nab,nab->n", ginv, P)


def _inner(ginv, A, B):
    """g^ac g^bd A_ab B_cd."""
    return _trace(ginv @ A @ ginv, B)


def _inv2(g):
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    inv = np.empty_like(g)
    inv[..., 0, 0] = g[..., 1, 1] / det
    inv[..., 1, 1] = g[..., 0, 0] / det
    inv[..., 0, 1] = inv[..., 1, 0] = -g[..., 0, 1] / det
    return inv, det


def _second_form(nu_cov, Gam, Xth, Xph, Xthth, Xthph, Xphph):
    """h_ab = -g(nu, ambient second derivative of the immersion).

    ``nu_cov`` is the unit normal lowered by the metric.
    """
    h = _sym2(_dot(nu_cov, Xthth), _dot(nu_cov, Xthph), _dot(nu_cov, Xphph))
    if Gam is not None:
        h = h + _pullback(np.einsum("nk,nkij->nij", nu_cov, Gam), Xth, Xph)
    return -h


def _background(model: mt.MetricModel, X):
    """(g3, Gam, g3inv) at the points X, or None in the flat model.

    The Christoffel symbols need only first metric derivatives, so the metric
    is evaluated at ``order=1``.
    """
    if model.kind == mt.EUCLIDEAN:
        return None
    g3, dg3 = mt.evaluate_metric(model, X, order=1)
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


def _surface_forms(chart, ncov, background):
    """The node kernel: induced metric and normal, second form and H.

    ``chart`` is ``_embedding``'s result, ``ncov`` the outward chart normal
    X_th x X_ph and ``background`` ``(g3, Gam, g3inv)``, or None for the flat
    metric.  Returns (g_ind, ginv, det, nu, h, H); complex-safe.
    """
    _, Xth, Xph, Xthth, Xthph, Xphph = chart
    g3, Gam, g3inv = background or (None, None, None)
    gind = _pullback(g3, Xth, Xph)
    ginv, det = _inv2(gind)
    # ncov annihilates the tangents: nu = g3^-1 ncov / |ncov|_g3, and g3 nu
    # is ncov / |ncov|_g3 without a product by g3
    raised = ncov if g3 is None else _contract(g3inv, ncov)
    norm = np.sqrt(_dot(ncov, raised))[:, None]
    h = _second_form(ncov / norm, Gam, Xth, Xph, Xthth, Xthph, Xphph)
    return gind, ginv, det, raised / norm, h, _trace(ginv, h)


def mean_curvature_from_jets(jets: SphereJets, center, scale, model: mt.MetricModel,
                             grid: QuadratureGrid, background=None):
    """Node-wise mean curvature of the graph described by the jets.

    Complex-safe: perturbing a jet component by an imaginary step and reading
    the imaginary part of H gives the exact directional derivative.

    ``background`` is the ``background_at`` result of jets with the same
    value field ``f``; passing it skips the metric evaluation.  Without it the
    metric is evaluated at the jets' own (possibly complex) points.  The chart
    normal X_th x X_ph is outward: its product with X - center is
    rho^3 sin(theta), positive for every radius rho = scale (1 + f) > 0.
    """
    chart = _embedding(jets, center, scale, grid.frames())
    X, Xth, Xph = chart[:3]
    if background is None:
        background = _background(model, X)
    return _surface_forms(chart, _cross(Xth, Xph), background)[-1]


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
    ginv_ind: np.ndarray
    h: np.ndarray
    H: np.ndarray
    H_bar: np.ndarray
    tf2: np.ndarray
    tf2_bar: np.ndarray
    J: np.ndarray
    J_bar: np.ndarray
    K: np.ndarray
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


def build_geometry(graph: SphereGraph, model: mt.MetricModel,
                   grid: QuadratureGrid) -> GeometryCache:
    """Assemble the full geometric cache for a surface in a background."""
    grid.require_capacity(graph.L)
    jets = synthesize(graph.coeffs, grid, graph.L)
    frames = grid.frames()
    st = frames[3]
    chart = _embedding(jets, graph.center, graph.scale, frames)
    X, Xth, Xph = chart[:3]
    r = np.sqrt(_dot(X, X))
    ncov = _cross(Xth, Xph)
    orient = _dot(ncov, X - graph.center[None, :])
    if np.min(orient) <= 0.0:
        raise GeometryError(
            "normal orientation flip", node_index=int(np.argmin(orient))
        )

    # Euclidean twin
    gbar, gbar_inv, det_bar, nu_bar, hbar, Hbar = _surface_forms(chart, ncov, None)
    if np.min(det_bar) <= 0.0:
        raise GeometryError(
            "degenerate induced metric", node_index=int(np.argmin(det_bar))
        )
    tf2_bar = _inner(gbar_inv, hbar, hbar) - 0.5 * Hbar**2
    Jbar = np.sqrt(det_bar) / st

    if model.kind == mt.EUCLIDEAN:
        zeros = np.zeros_like(Hbar)
        K = (hbar[..., 0, 0] * hbar[..., 1, 1] - hbar[..., 0, 1] ** 2) / det_bar
        return GeometryCache(
            graph=graph, model=model, grid=grid, X=X, r=r, Xth=Xth, Xph=Xph,
            nu=nu_bar, nu_bar=nu_bar, g_ind=gbar, ginv_ind=gbar_inv, h=hbar,
            H=Hbar, H_bar=Hbar, tf2=tf2_bar, tf2_bar=tf2_bar, J=Jbar,
            J_bar=Jbar, K=K, scalar=zeros, ric_nu_nu=zeros,
            u=np.ones_like(Hbar),
        )

    g3, dg3, ddg3 = mt.evaluate_metric(model, X)
    Gam, g3inv = mt.christoffel(g3, dg3)
    _, riem, ric, scal = mt.curvature_tensors(
        model, X, metric=(g3, dg3, ddg3), connection=(Gam, g3inv))
    gind, ginv, det, nu, h, H = _surface_forms(chart, ncov, (g3, Gam, g3inv))
    if np.min(det) <= 0.0:
        raise GeometryError(
            "degenerate induced metric in background", node_index=int(np.argmin(det))
        )
    tf2 = _inner(ginv, h, h) - 0.5 * H**2
    J = np.sqrt(det) / st
    ric_nn = _contract(ric, nu, nu)

    # Gauss curvature: ambient sectional curvature of the tangent plane,
    # Rm(X_th, X_ph, X_ph, X_th) / det g, plus the shape-operator determinant.
    sec = _contract(g3, _contract(riem, Xth, Xph, Xph), Xth)
    K = (sec + h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] ** 2) / det

    u = mt.conformal_factor(model, X, order=1)[0]
    return GeometryCache(
        graph=graph, model=model, grid=grid, X=X, r=r, Xth=Xth, Xph=Xph,
        nu=nu, nu_bar=nu_bar, g_ind=gind, ginv_ind=ginv, h=h, H=H,
        H_bar=Hbar, tf2=tf2, tf2_bar=tf2_bar, J=J, J_bar=Jbar, K=K,
        scalar=scal, ric_nu_nu=ric_nn, u=u,
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
    sig, _ = mt.sigma_with_derivatives(cache.model, cache.X, order=1)
    tr = _trace(cache.ginv_ind, _pullback(sig, cache.Xth, cache.Xph))
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
        sig, dsig = mt.sigma_with_derivatives(cache.model, cache.X, order=1)
        ginv, nu, Xth, Xph = cache.ginv_ind, cache.nu, cache.Xth, cache.Xph
        # <sigma, h> over the surface with the induced metric
        sig_h = _inner(ginv, _pullback(sig, Xth, Xph), cache.h)
        sig_nn = _contract(sig, nu, nu)
        # tr (grad_. sigma)(nu, .) over tangent directions: A_kj = d_k sigma_ij
        # nu^i is not symmetric, but g^ab is, so its symmetric part is traced
        A = _contract(dsig, nu)
        div_term = _trace(ginv, _pullback(0.5 * (A + np.swapaxes(A, 1, 2)), Xth, Xph))
        # tr grad_nu sigma over tangent directions
        nu_term = _trace(ginv, _pullback(np.einsum("nk,nkij->nij", nu, dsig), Xth, Xph))
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
