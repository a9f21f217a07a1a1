"""Newton solver for constant-mean-curvature graph spheres.

The mean-curvature operator is quasi-linear in the 6-jet of the graph
function, so each node's H depends on that node's jet alone.  Perturbing one
jet component at every node by a tiny imaginary step therefore yields, in a
single evaluation, the exact partial of H with respect to that component at
all nodes at once; six such evaluations give the node sensitivities G_k
without truncation error.  A central-difference fallback is available.  Only
the value jet moves the surface points, so the background metric and its
Christoffel symbols are evaluated once per Newton iterate and shared by the
five derivative jets; the value jet evaluates them at its own points.

The coefficient Jacobian sum_k B_val^T diag(w G_k) B_k and the Galerkin
matrices of the stability form are assembled by ``sphere.galerkin`` (sum
factorisation on the product grid), and jets and residual coefficients come
from ``synthesize``/``analyze``, so no solve or spectrum forms a dense
node-by-coefficient matrix.  Grids come from the process-wide cache
(``sphere.quadrature_grid``).

Also provides the volume-constrained stability spectrum and continuation
along a mean-curvature ladder (foliation tracing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, null_space
from scipy.optimize import brentq

from . import metrics as mt
from .errors import (DomainError, EmbeddingError, GeometryError,
                     PreconditionError)
from .functionals import enclosed_volume_flat
from .geometry import background_at, build_geometry, mean_curvature_from_jets
from .sphere import (C1_EMBEDDING_BOUND, JET_KEYS, QuadratureGrid,
                     SphereGraph, SphereJets, _guard_grid, analyze,
                     c1_seminorms, galerkin, quadrature_grid, synthesize)

IMAG_STEP = 1e-20


@dataclass
class CmcOptions:
    tolerance: float = 1e-9
    max_iterations: int = 60
    jacobian: str = "exact"          # "exact" or "central"
    central_step: float = 1e-6
    armijo_factor: float = 0.5
    armijo_floor: float = 2.0**-10
    armijo_slope: float = 1e-4
    max_bad_steps: int = 5
    ridge: float = 1e-11
    check_stability: bool = True
    stability_modes: int = 8
    grid: QuadratureGrid | None = None

    def resolve_grid(self, L: int) -> QuadratureGrid:
        if self.grid is not None:
            self.grid.require_capacity(L)
            return self.grid
        return quadrature_grid(max(32, L + 2), max(64, 2 * L + 3))


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    final_residual: float
    surface: SphereGraph
    H_target: float
    stability_eigenvalue: float = float("nan")
    stable: bool = False
    message: str = ""

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "H_target": self.H_target,
            "stability_eigenvalue": self.stability_eigenvalue,
            "stable": self.stable,
            "message": self.message,
            "surface": self.surface.to_json_dict(),
        }


def _node_sensitivities(jets: SphereJets, background, center, scale, model,
                        grid, opts: CmcOptions) -> list:
    """d(H at node)/d(jet field) at every node, one array per ``JET_KEYS``.

    ``background`` is ``background_at(jets, ...)``; the five derivative jets
    reuse it, the value jet evaluates the metric at its own moved points.
    """
    names = ("f", "dth", "dph", "dthth", "dthph", "dphph")
    arrays = {k: getattr(jets, f) for k, f in zip(JET_KEYS, names)}

    def H_of(key, bumped_field):
        fields = dict(arrays, **{key: bumped_field})
        return mean_curvature_from_jets(
            SphereJets(*(fields[k] for k in JET_KEYS)), center, scale, model,
            grid, background=None if key == "val" else background)

    out = []
    for key in JET_KEYS:
        if opts.jacobian == "exact":
            G = np.imag(H_of(key, arrays[key] + 1j * IMAG_STEP)) / IMAG_STEP
        else:
            h = opts.central_step
            G = (H_of(key, arrays[key] + h)
                 - H_of(key, arrays[key] - h)) / (2.0 * h)
        out.append(G)
    return out


def _node_jacobian(jets: SphereJets, background, center, scale, model, grid,
                   L: int, opts: CmcOptions) -> np.ndarray:
    """Coefficient Jacobian d(coefficients of H)/d(coefficients), (n, n).

    The Galerkin sum over the jets of B_val^T diag(w G_k) B_k, with the node
    sensitivities G_k of ``_node_sensitivities``.
    """
    G = _node_sensitivities(jets, background, center, scale, model, grid, opts)
    w = grid.weights
    return galerkin(grid, L, [("val", k, w * Gk) for k, Gk in zip(JET_KEYS, G)])


def solve_cmc(initial: SphereGraph, model: mt.MetricModel, H_target: float,
              opts: CmcOptions | None = None) -> SolveReport:
    """Newton iteration on harmonic coefficients until H == H_target.

    The residual is the coefficient vector of H - H_target; its degree-0 row
    matches the mean of H to the target (fixing the scale degeneracy) while
    the higher rows drive the shape.  Damped steps use residual backtracking;
    divergence, the iteration cap, mid-iteration embedding violations and an
    initial surface the metric cannot be evaluated on all produce a
    non-converged report rather than an exception.
    """
    opts = opts or CmcOptions()
    if H_target <= 0.0:
        raise PreconditionError(f"H_target must be positive; got {H_target!r}")
    L = initial.L
    grid = opts.resolve_grid(L)
    center = initial.center
    scale = initial.scale

    def evaluate(coeffs):
        fmax, gmax = c1_seminorms(coeffs, L)
        if fmax + gmax >= C1_EMBEDDING_BOUND:
            raise EmbeddingError("trial graph violates the embedding bound",
                                 c1_norm=fmax + gmax)
        jets = synthesize(coeffs, grid, L)
        background = background_at(jets, center, scale, model, grid)
        H = mean_curvature_from_jets(jets, center, scale, model, grid,
                                     background=background)
        return H, jets, background

    c = initial.coeffs.copy()
    try:
        H, jets, background = evaluate(c)
    except (DomainError, GeometryError) as exc:
        return SolveReport(converged=False, iterations=0,
                           final_residual=float("nan"), surface=initial,
                           H_target=H_target,
                           message=f"initial surface cannot be evaluated: {exc}")
    res = H - H_target
    F = analyze(res, grid, L)
    norm = float(np.linalg.norm(F))
    bad_steps = 0
    message = ""
    iterations = 0

    while iterations < opts.max_iterations:
        if float(np.max(np.abs(res))) <= opts.tolerance:
            break
        iterations += 1
        J = _node_jacobian(jets, background, center, scale, model, grid, L,
                           opts)
        JtJ = J.T @ J
        lam = opts.ridge * np.trace(JtJ) / JtJ.shape[0]
        JtJ[np.diag_indices_from(JtJ)] += lam
        step = cho_solve(cho_factor(JtJ, lower=True), -J.T @ F)

        alpha = 1.0
        best = None
        accepted = False
        while alpha >= opts.armijo_floor:
            trial = c + alpha * step
            try:
                Ht_trial, jets_trial, bg_trial = evaluate(trial)
            except (EmbeddingError, DomainError, GeometryError):
                alpha *= opts.armijo_factor
                continue
            res_trial = Ht_trial - H_target
            F_trial = analyze(res_trial, grid, L)
            n_trial = float(np.linalg.norm(F_trial))
            if best is None or n_trial < best[0]:
                best = (n_trial, trial, Ht_trial, jets_trial, bg_trial,
                        res_trial, F_trial)
            if n_trial <= (1.0 - opts.armijo_slope * alpha) * norm:
                accepted = True
                break
            alpha *= opts.armijo_factor
        if best is None:
            message = "every damped trial violated the embedding or domain bounds"
            break
        n_best, c, H, jets, background, res, F = best
        grew = n_best >= norm
        norm = n_best
        bad_steps = 0 if (accepted and not grew) else bad_steps + 1
        if bad_steps >= opts.max_bad_steps:
            message = f"residual failed to decrease over {bad_steps} damped steps"
            break

    surface = SphereGraph(center, scale, L, c)
    coarse_ok = float(np.max(np.abs(res))) <= opts.tolerance
    if not coarse_ok and not message:
        message = f"iteration cap {opts.max_iterations} reached"
    # certify against aliasing on a doubled grid; the refined value is the
    # official residual
    fine = grid.refined(2)
    H_fine = mean_curvature_from_jets(synthesize(c, fine, L), center, scale,
                                      model, fine)
    final_residual = float(np.max(np.abs(H_fine - H_target)))
    converged = coarse_ok and final_residual <= opts.tolerance
    if coarse_ok and not converged:
        message = "refined-grid certificate failed"
    report = SolveReport(
        converged=converged,
        iterations=iterations,
        final_residual=final_residual,
        surface=surface,
        H_target=H_target,
        message=message,
    )
    if converged and opts.check_stability:
        evals = _constrained_spectrum(surface, model, opts.stability_modes)
        report.stability_eigenvalue = float(evals[0])
        report.stable = bool(evals[0] >= -1e-8)
    return report


def _constrained_spectrum(surface: SphereGraph, model: mt.MetricModel, k: int,
                          L_op: int | None = None,
                          grid: QuadratureGrid | None = None) -> np.ndarray:
    """k smallest eigenvalues of the volume-constrained Jacobi form.

    Quadratic form int(|grad phi|^2 - (|h|^2 + Ric(nu,nu)) phi^2) dmu against
    the mass form int phi^2 dmu, both restricted to int phi dmu = 0, in the
    harmonic basis up to L_op.
    """
    L_op = L_op if L_op is not None else surface.L
    if grid is None:
        grid = _guard_grid(L_op)
    grid.require_capacity(max(L_op, surface.L))
    cache = build_geometry(surface, model, grid)
    wj = grid.weights * cache.J
    gi = cache.ginv_ind
    pot = cache.tf2 + 0.5 * cache.H**2 + cache.ric_nu_nu
    Q = galerkin(grid, L_op, [
        ("dth", "dth", wj * gi[:, 0, 0]), ("dth", "dph", wj * gi[:, 0, 1]),
        ("dph", "dth", wj * gi[:, 0, 1]), ("dph", "dph", wj * gi[:, 1, 1]),
        ("val", "val", -wj * pot)])
    Mass = galerkin(grid, L_op, [("val", "val", wj)])
    constraint = analyze(cache.J, grid, L_op)
    N = null_space(constraint[None, :])
    Qc = N.T @ Q @ N
    Mc = N.T @ Mass @ N
    Qc = 0.5 * (Qc + Qc.T)
    Mc = 0.5 * (Mc + Mc.T)
    vals = eigh(Qc, Mc, eigvals_only=True)
    return vals[:k]


def stability_spectrum(report: SolveReport, model: mt.MetricModel, k: int = 8,
                       L_op: int | None = None,
                       grid: QuadratureGrid | None = None) -> np.ndarray:
    """Ascending volume-constrained Jacobi eigenvalues of a converged solve."""
    if not report.converged:
        raise PreconditionError("stability spectrum requires a converged solve")
    return _constrained_spectrum(report.surface, model, k, L_op=L_op, grid=grid)


def round_mean_curvature(model: mt.MetricModel, r: float) -> float:
    """Mean curvature of the centered round sphere of radius r under the
    conformal part of the model (exact for euclidean and schwarzschild)."""
    m = model.mass
    u = 1.0 + m / (2.0 * r)
    return (2.0 / r) * (1.0 - m / (2.0 * r)) / u**3


def round_seed_radius(model: mt.MetricModel, H_target: float,
                      r_min: float = 2.05, r_max: float = 1e8) -> float:
    """Radius of the centered round sphere with mean curvature H_target.

    Takes the outer root (H is not monotone near the neck for positive mass).
    """
    if H_target <= 0.0:
        raise PreconditionError(f"H_target must be positive; got {H_target!r}")
    lo = max(r_min, 0.51 * model.mass)
    rs = np.geomspace(lo, r_max, 4000)
    Hs = np.array([round_mean_curvature(model, r) for r in rs])
    peak = int(np.argmax(Hs))
    if H_target > Hs[peak]:
        raise PreconditionError(
            f"H_target {H_target!r} exceeds the maximal round-sphere mean "
            f"curvature {Hs[peak]:.6g} for this model"
        )
    tail = np.nonzero(Hs[peak:] <= H_target)[0]
    if tail.size == 0:
        raise PreconditionError(f"no round sphere below radius {r_max} has "
                                f"mean curvature {H_target!r}")
    hi_idx = peak + tail[0]
    a = rs[max(hi_idx - 1, 0)]
    b = rs[hi_idx]
    if a == b:
        return float(a)
    return float(brentq(lambda r: round_mean_curvature(model, r) - H_target,
                        a, b, xtol=1e-13, rtol=8.9e-16))


@dataclass
class FoliationTrace:
    leaves: list[SolveReport]
    metric: mt.MetricModel
    truncated: bool = False
    diagnostic: str = ""
    volumes: list[float] = field(default_factory=list)
    nested_ok: bool = True

    def to_json_dict(self) -> dict:
        return {
            "metric": mt.model_to_dict(self.metric),
            "truncated": self.truncated,
            "diagnostic": self.diagnostic,
            "volumes": list(self.volumes),
            "nested_ok": self.nested_ok,
            "leaves": [leaf.to_json_dict() for leaf in self.leaves],
        }


def trace_foliation(model: mt.MetricModel, H_start: float, H_end: float,
                    n_leaves: int, L: int = 24,
                    opts: CmcOptions | None = None) -> FoliationTrace:
    """Continuation along a geometric mean-curvature ladder.

    The first leaf is seeded by the centered round sphere matching H_start;
    each converged leaf, rescaled by the ratio of consecutive targets, seeds
    the next.  Every leaf must converge and be stable; otherwise the trace is
    truncated with a diagnostic.  Nesting is certified by strict growth of
    the flat enclosed volume.
    """
    if not 0.0 < H_end < H_start:
        raise PreconditionError(
            f"need 0 < H_end < H_start; got H_start={H_start!r}, H_end={H_end!r}"
        )
    if n_leaves < 1:
        raise PreconditionError(f"n_leaves must be >= 1; got {n_leaves!r}")
    opts = opts or CmcOptions()
    if not opts.check_stability:
        opts = CmcOptions(**{**opts.__dict__, "check_stability": True})
    targets = np.geomspace(H_start, H_end, n_leaves)
    trace = FoliationTrace(leaves=[], metric=model)
    try:
        radius = round_seed_radius(model, targets[0])
        seed = SphereGraph.round_sphere(radius, L=L)
    except PreconditionError as exc:
        trace.truncated = True
        trace.diagnostic = f"leaf 0 seeding failed: {exc}"
        return trace
    flat = mt.euclidean_model()
    grid = opts.resolve_grid(L)
    prev_volume = -math.inf
    for k, H_target in enumerate(targets):
        report = solve_cmc(seed, model, float(H_target), opts)
        if not (report.converged and report.stable):
            why = "did not converge" if not report.converged else "is unstable"
            trace.truncated = True
            trace.diagnostic = (f"leaf {k} (H_target={H_target:.6g}) {why}"
                                + (f": {report.message}" if report.message else ""))
            break
        volume = enclosed_volume_flat(build_geometry(report.surface, flat, grid))
        if volume <= prev_volume:
            trace.nested_ok = False
        prev_volume = volume
        trace.leaves.append(report)
        trace.volumes.append(volume)
        if k + 1 < len(targets):
            # fold the converged mean into the scale (exact reparametrization),
            # then rescale by the ratio of round radii; in curved models the
            # naive H-ratio underestimates how fast radii grow
            s = report.surface
            mean = s.coeffs[0] / math.sqrt(4.0 * math.pi)
            coeffs = s.coeffs / (1.0 + mean)
            coeffs[0] = 0.0
            next_radius = round_seed_radius(model, float(targets[k + 1]))
            ratio = next_radius / radius
            radius = next_radius
            seed = SphereGraph(s.center, s.scale * (1.0 + mean) * ratio, L, coeffs)
    return trace
