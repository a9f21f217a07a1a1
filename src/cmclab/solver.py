"""Newton solver for constant-mean-curvature graph spheres.

The mean-curvature operator is quasi-linear in the 6-jet of the graph
function, so each node's H depends on that node's jet alone.  Perturbing one
jet component at every node by a tiny imaginary step therefore yields, in a
single evaluation, the exact partial of H with respect to that component at
all nodes at once; six such evaluations give the node sensitivities G_k
without truncation error.  Only the value jet moves the surface points, so
the background metric and its Christoffel symbols are evaluated once per
Newton iterate and shared by the five derivative jets; the value jet
evaluates them at its own points.

The coefficient Jacobian sum_k B_val^T diag(w G_k) B_k and the Galerkin
matrices of the stability form are assembled by ``sphere.galerkin`` (sum
factorisation on the product grid), and jets and residual coefficients come
from ``synthesize``/``analyze``, so no solve or spectrum forms a dense
node-by-coefficient matrix.  A solve works on ``sphere.working_grid(L)``
and certifies on its refinement, after lower degrees have solved on their
own smaller grids; a spectrum builds the geometry once on the
guard grid of L and raises the operator degree from min(L, 8) in steps of 4
until the eigenvalues stop moving or the degree reaches L.  Each pencil is
symmetric-definite, so a Cholesky factor C of its mass matrix reduces it to
a standard symmetric eigenproblem (Golub & Van Loan, Matrix Computations,
4th ed., sec. 8.7), and the volume constraint, M-orthogonality to the
constant mode, is the coordinate y_0 = 0 of y = C^T c; the module needs
numpy alone.

Each Newton step is one square LU solve in a translation gauge.  Degree-1
content duplicates translations of the center (a kernel of the Jacobian in
flat space, a near-kernel of size 6m/R^3 in Schwarzschild), so a step puts it
into the center, never into the coefficients (a Lyapunov-Schmidt split in the
translation parameter, Ye 1996).  The model alone fixes the step: a
translation-invariant model solves the block of degrees other than 1, every
other model the full system at every step, so no translation force is left
behind.

A solve climbs a degree ladder (nested iteration; Brandt, Math. Comp. 31
(1977)): min(L, 8), then steps of 4 below L, then L, the stability
certificate's own ladder.  Every level runs Newton to the round-off floor
16 eps H_target, or until a step no longer halves the residual (round-off,
or a lower degree's truncation floor); the top level also stops within a
tenth of the tolerance.  The leaves are nearly round, so the low degrees
carry the Newton steps on small grids, and the top degree, on the working
grid, usually takes none.  A lower level that misses the tolerance hands on
its start unless it gained on it with the center kept near, so it never
ends the solve.

Also provides the volume-constrained stability spectrum and continuation
along a mean-curvature ladder (foliation tracing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics as mt
from .errors import (DomainError, EmbeddingError, GeometryError,
                     PreconditionError)
from .functionals import enclosed_volume_flat
from .geometry import background_at, build_geometry, mean_curvature_from_jets
from .sphere import (C1_EMBEDDING_BOUND, JET_KEYS, SphereGraph, SphereJets,
                     _guard_grid, analyze, c1_seminorms, galerkin, n_coeffs,
                     quadrature_grid, synthesize, working_grid)

IMAG_STEP = 1e-20
# damped steps: backtracking factor, smallest step, sufficient-decrease slope,
# and the count of steps without decrease that ends the solve
ARMIJO_FACTOR = 0.5
ARMIJO_FLOOR = 2.0**-10
ARMIJO_SLOPE = 1e-4
MAX_BAD_STEPS = 5
# the stop rule: a level stops at the floor ROUND_OFF * eps * H_target of
# the coarse residual (resolved leaves end at 2-8 eps H_target), or once a
# step cuts it by less than the factor STOP_STAGNATION; the top level also
# stops within STOP_MARGIN times the tolerance
STOP_MARGIN = 0.1
STOP_STAGNATION = 0.5
ROUND_OFF = 16.0
# Y_1,-1, Y_10 and Y_11 are Y1_NORM * (-y, z, -x)
Y1_NORM = math.sqrt(3.0 / (4.0 * math.pi))
# round_seed_radius's domain guards: the smallest radius that may seed a leaf
# (it caps the attainable H), and the largest radius a seed may have
SEED_R_MIN = 2.05
SEED_R_MAX = 1e8
# the degree ladder of the Newton solve and of the stability certificate:
# first degree and degree step
LADDER_START = 8
LADDER_STEP = 4
# the relative refinement tolerance of the adaptive stability pencil
SPECTRUM_RTOL = 1e-10


@dataclass
class CmcOptions:
    tolerance: float = 1e-9
    max_iterations: int = 60


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    final_residual: float
    surface: SphereGraph
    H_target: float
    stability_eigenvalue: float = float("nan")
    stability_error: float = float("nan")
    stable: bool = False
    message: str = ""
    ladder: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "ladder": [list(level) for level in self.ladder],
            "final_residual": self.final_residual,
            "H_target": self.H_target,
            "stability_eigenvalue": self.stability_eigenvalue,
            "stability_error": self.stability_error,
            "stable": self.stable,
            "message": self.message,
            "surface": self.surface.to_json_dict(),
        }


def _node_sensitivities(jets: SphereJets, background, center, scale, model,
                        grid) -> list:
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

    return [np.imag(H_of(key, arrays[key] + 1j * IMAG_STEP)) / IMAG_STEP
            for key in JET_KEYS]


def _node_jacobian(jets: SphereJets, background, center, scale, model, grid,
                   L: int) -> np.ndarray:
    """Coefficient Jacobian d(coefficients of H)/d(coefficients), (n, n).

    The Galerkin sum over the jets of B_val^T diag(w G_k) B_k, with the node
    sensitivities G_k of ``_node_sensitivities``.
    """
    G = _node_sensitivities(jets, background, center, scale, model, grid)
    w = grid.weights
    return galerkin(grid, L, [("val", k, w * Gk) for k, Gk in zip(JET_KEYS, G)])


def _degree_ladder(L: int, start: int = 0) -> list[int]:
    """The degrees max(min(L, LADDER_START), start), then steps of
    LADDER_STEP below L, then L: the ladder of ``solve_cmc`` and of the
    stability certificate."""
    return [*range(max(min(L, LADDER_START), start), L, LADDER_STEP), L]


def _newton(c: np.ndarray, center: np.ndarray, scale: float,
            model: mt.MetricModel, H_target: float, L: int, grid,
            tolerance: float, budget: int, final: bool):
    """Damped Newton steps on the degree-L coefficients ``c`` and the center,
    on ``grid``: at most ``budget`` steps.

    The loop stops on the coarse max-node residual r, the previous
    iterate's r_prev and the floor ROUND_OFF eps H_target.  A lower level
    stops once r is at the floor or above STOP_STAGNATION r_prev (round-off
    or its degree's truncation floor).  A ``final`` level stops once r is
    within the tolerance and either within max(STOP_MARGIN tolerance,
    floor) or above STOP_STAGNATION r_prev, so a resolved start takes no
    step.  Returns (c, center, res, r_start, steps, message) with the node
    residual ``res`` of the last iterate, the start's r, and a message when
    the loop broke down.  The start is evaluated first; when that raises a domain, geometry or embedding error, the error propagates
    and no step is taken.
    """
    def evaluate(coeffs, center):
        fmax, gmax = c1_seminorms(coeffs, L)
        if fmax + gmax >= C1_EMBEDDING_BOUND:
            raise EmbeddingError("trial graph violates the embedding bound",
                                 c1_norm=fmax + gmax)
        jets = synthesize(coeffs, grid, L)
        background = background_at(jets, center, scale, model, grid)
        H = mean_curvature_from_jets(jets, center, scale, model, grid,
                                     background=background)
        return H, jets, background

    H, jets, background = evaluate(c, center)
    res = H - H_target
    F = analyze(res, grid, L)
    norm = float(np.linalg.norm(F))
    # degree 1 is a kernel of J in a translation-invariant model: the step
    # solves the block of the other degrees and the center stays; every other
    # model solves all of J and turns the degree-1 part into a center shift
    invariant = model.mass == 0.0 and model.perturbation is None
    keep = np.r_[0, 4:F.size] if invariant else slice(None)
    bad_steps = 0
    message = ""
    steps = 0
    r_start = float(np.max(np.abs(res)))
    r_prev = math.inf
    floor = ROUND_OFF * np.finfo(float).eps * H_target

    while steps < budget:
        r = float(np.max(np.abs(res)))
        stagnant = r > STOP_STAGNATION * r_prev
        if final:
            done = r <= tolerance and (
                r <= max(STOP_MARGIN * tolerance, floor) or stagnant)
        else:
            done = r <= floor or stagnant
        if done:
            break
        r_prev = r
        steps += 1
        J = _node_jacobian(jets, background, center, scale, model, grid, L)
        step = np.zeros_like(F)
        try:
            step[keep] = np.linalg.solve(
                J[np.ix_(keep, keep)] if invariant else J, -F[keep])
        except np.linalg.LinAlgError:
            message = "singular Newton Jacobian"
            break
        # degree-1 content d . Y_1 = b . x, b = Y1_NORM (-d_2, -d_0, d_1), is
        # to first order a translation by scale * b
        shift = scale * Y1_NORM * np.array([-step[3], -step[1], step[2]])
        step[1:4] = 0.0

        alpha = 1.0
        best = None
        accepted = False
        while alpha >= ARMIJO_FLOOR:
            trial = c + alpha * step
            trial_center = center + alpha * shift
            try:
                Ht_trial, jets_trial, bg_trial = evaluate(trial, trial_center)
            except (EmbeddingError, DomainError, GeometryError):
                alpha *= ARMIJO_FACTOR
                continue
            res_trial = Ht_trial - H_target
            F_trial = analyze(res_trial, grid, L)
            n_trial = float(np.linalg.norm(F_trial))
            if best is None or n_trial < best[0]:
                best = (n_trial, trial, trial_center, jets_trial, bg_trial,
                        res_trial, F_trial)
            if n_trial <= (1.0 - ARMIJO_SLOPE * alpha) * norm:
                accepted = True
                break
            alpha *= ARMIJO_FACTOR
        if best is None:
            message = "every damped trial violated the embedding or domain bounds"
            break
        norm, c, center, jets, background, res, F = best
        bad_steps = 0 if accepted else bad_steps + 1
        if bad_steps >= MAX_BAD_STEPS:
            message = f"residual failed to decrease over {bad_steps} damped steps"
            break
    return c, center, res, r_start, steps, message


def solve_cmc(initial: SphereGraph, model: mt.MetricModel, H_target: float,
              opts: CmcOptions | None = None) -> SolveReport:
    """Newton iteration on harmonic coefficients and center until H == H_target.

    The residual is the coefficient vector of H - H_target; its degree-0 row
    matches the mean of H to the target (fixing the scale degeneracy), its
    degree-1 rows are the translation force, and the higher rows drive the
    shape.  In a translation-invariant model (mass 0, no perturbation) a
    step solves the square block of degrees other than 1; in every other
    model it solves the full system and turns its degree-1 part into a
    center shift.  Damped steps move coefficients and center together and use
    residual backtracking.

    The solve climbs ``_degree_ladder(L)`` (nested iteration: Brandt, Math.
    Comp. 31 (1977); Deuflhard, Newton Methods for Nonlinear Problems,
    2004).  A level d below L truncates the iterate to its degree-d prefix,
    so the seed's content above d is dropped there (a seed is only a
    start), and runs Newton on the capacity-minimal grid (d + 2, 2d + 3)
    with the lower-level stop rule of ``_newton``.  It hands its iterate,
    zero-padded, to the next level when the residual is within the
    tolerance, or when no step broke down, the residual ended below the
    start's and the center moved by less than C1_EMBEDDING_BOUND times the
    scale (a low degree that wanders off loses the leaf); otherwise it
    hands on its start unchanged, so it never ends the solve.  The top
    level works on ``working_grid(L)`` with the final stop rule of
    ``_newton``, so a leaf the lower levels resolved takes no step there.
    All levels share the budget ``opts.max_iterations``; ``iterations`` is
    their total and ``ladder`` the [degree, steps] of each level.

    The report is converged when the top level's r and the refined-grid
    residual are both within the tolerance, and a converged report carries
    no message.  Divergence, the iteration cap, a singular Jacobian,
    mid-iteration embedding violations and an initial surface the metric
    cannot be evaluated on all produce a non-converged report rather than an
    exception.
    """
    opts = opts or CmcOptions()
    if H_target <= 0.0:
        raise PreconditionError(f"H_target must be positive; got {H_target!r}")
    L = initial.L
    scale = initial.scale
    c = initial.coeffs.copy()
    center = initial.center
    ladder = []
    iterations = 0
    *lower, _ = _degree_ladder(L)
    for degree in lower:
        n = n_coeffs(degree)
        steps = 0
        try:
            c_d, center_d, res, r_start, steps, message = _newton(
                c[:n], center, scale, model, H_target, degree,
                quadrature_grid(degree + 2, 2 * degree + 3), opts.tolerance,
                opts.max_iterations - iterations, False)
        except (DomainError, EmbeddingError, GeometryError):
            pass
        else:
            r = float(np.max(np.abs(res)))
            moved = float(np.linalg.norm(center_d - center)) / scale
            if r <= opts.tolerance or (not message and r < r_start
                                       and moved < C1_EMBEDDING_BOUND):
                c = np.zeros_like(c)
                c[:n] = c_d
                center = center_d
        ladder.append([degree, steps])
        iterations += steps

    grid = working_grid(L)
    try:
        c, center, res, _, steps, message = _newton(
            c, center, scale, model, H_target, L, grid, opts.tolerance,
            opts.max_iterations - iterations, True)
    except (DomainError, EmbeddingError, GeometryError) as exc:
        return SolveReport(converged=False, iterations=iterations,
                           final_residual=float("nan"), surface=initial,
                           H_target=H_target, ladder=ladder + [[L, 0]],
                           message=f"initial surface cannot be evaluated: {exc}")
    ladder.append([L, steps])
    iterations += steps

    surface = SphereGraph(center, scale, L, c)
    coarse_ok = float(np.max(np.abs(res))) <= opts.tolerance
    # certify against aliasing on a doubled grid; the refined value is the
    # official residual
    fine = grid.refined()
    H_fine = mean_curvature_from_jets(synthesize(c, fine, L), center, scale,
                                      model, fine)
    final_residual = float(np.max(np.abs(H_fine - H_target)))
    converged = coarse_ok and final_residual <= opts.tolerance
    if converged:
        message = ""
    elif coarse_ok:
        message = "refined-grid certificate failed"
    elif not message:
        message = f"iteration cap {opts.max_iterations} reached"
    report = SolveReport(
        converged=converged,
        iterations=iterations,
        final_residual=final_residual,
        surface=surface,
        H_target=H_target,
        ladder=ladder,
        message=message,
    )
    if converged:
        evals, error = _constrained_spectrum(surface, model, 1)
        report.stability_eigenvalue = float(evals[0])
        report.stability_error = error
        report.stable = bool(evals[0] >= -1e-8)
    return report


def _constrained_spectrum(surface: SphereGraph, model: mt.MetricModel,
                          k: int) -> tuple[np.ndarray, float]:
    """k smallest eigenvalues of the volume-constrained Jacobi form, and the
    last refinement difference of the operator degree.

    Quadratic form int(|grad phi|^2 - (|h|^2 + Ric(nu,nu)) phi^2) dmu against
    the mass form int phi^2 dmu, both restricted to int phi dmu = 0, in the
    harmonic basis up to the operator degree.  Y_0 is the constant Y_00, so
    the mass matrix's row M_0j = Y_00 int Y_j dmu is the constraint row, and
    ``_pencil_eigenvalues`` imposes it on the full pencil (Q, M) as the first
    coordinate of the Cholesky factor.

    Grid rule: the geometry is built once, on the guard grid of the surface
    degree L, and every pencil is assembled on that grid.

    Stopping rule: the degree starts at min(L, 8), raised until the pencil
    has k free values, and steps by 4 up to L.  The constrained subspaces are
    nested, so by Courant-Fischer each lambda_i can only fall as the degree
    grows; the loop stops at the first degree whose values differ from the
    previous degree's by at most max(1e-10 max_i |lambda_i|, floor), or at L.
    The round-off floor is n eps max_j |Q_jj| / min_j M_jj with n free
    values: the pencil's dimension times the machine epsilon times the
    largest diagonal Rayleigh quotient, a stand-in for the largest
    eigenvalue, so it scales with the pencil.  The returned error is the
    largest last refinement difference, |lambda_min - lambda_min(previous
    degree)| for k = 1, and 0.0 when only one pencil was built.
    """
    L = surface.L
    n_free = (L + 1) ** 2 - 1
    if not 1 <= k <= n_free:
        raise PreconditionError(f"k must lie in [1, {n_free}] at L={L}; "
                                f"got {k!r}")
    grid = _guard_grid(L)
    cache = build_geometry(surface, model, grid)
    wj = grid.weights * cache.J
    gi = cache.ginv_ind
    pot = cache.tf2 + 0.5 * cache.H**2 + cache.ric_nu_nu
    q_terms = [
        ("dth", "dth", wj * gi[:, 0, 0]), ("dth", "dph", wj * gi[:, 0, 1]),
        ("dph", "dth", wj * gi[:, 0, 1]), ("dph", "dph", wj * gi[:, 1, 1]),
        ("val", "val", -wj * pot)]
    previous, error = None, 0.0
    # isqrt(k) is the smallest degree whose pencil has k free values
    for degree in _degree_ladder(L, math.isqrt(k)):
        Q = galerkin(grid, degree, q_terms)
        M = galerkin(grid, degree, [("val", "val", wj)])
        floor = (((degree + 1) ** 2 - 1) * np.finfo(float).eps
                 * float(np.max(np.abs(np.diagonal(Q))))
                 / float(np.min(np.diagonal(M))))
        evals = _pencil_eigenvalues(Q, M, k)
        if previous is not None:
            error = float(np.max(np.abs(evals - previous)))
            if error <= max(SPECTRUM_RTOL * float(np.max(np.abs(evals))),
                            floor):
                break
        previous = evals
    return evals, error


def _pencil_eigenvalues(Q: np.ndarray, M: np.ndarray, k: int) -> np.ndarray:
    """k smallest eigenvalues of the symmetric-definite pencil (Q, M) on the
    M-orthogonal complement of basis vector 0, by a Cholesky congruence.

    With M = C C^T (numpy's lower Cholesky factor, which does not pivot) and
    y = C^T c, the Rayleigh quotient c^T Q c / c^T M c is y^T C^-1 Q C^-T y /
    y^T y, and M_0j c_j = C_00 y_0 because row 0 of C is C_00 e_0.  So the
    constraint M[0] c = 0 reads y_0 = 0, and the constrained pencil's
    eigenvalues are those of Ci Q Ci^T with Ci the rows 1: of C^-1 (Golub &
    Van Loan, Matrix Computations, 4th ed., sec. 8.7.1; LAPACK's sygv
    route); its eigenvectors are c = Ci^T z.  ``np.linalg.cholesky`` reads
    only the lower triangle of M and ``np.linalg.eigvalsh`` only that of the
    congruence; an M that is not positive definite raises
    ``np.linalg.LinAlgError``."""
    Ci = np.linalg.inv(np.linalg.cholesky(M))[1:]
    return np.linalg.eigvalsh(Ci @ Q @ Ci.T)[:k]


def stability_spectrum(report: SolveReport, model: mt.MetricModel,
                       k: int = 8) -> np.ndarray:
    """Ascending volume-constrained Jacobi eigenvalues of a converged solve."""
    if not report.converged:
        raise PreconditionError("stability spectrum requires a converged solve")
    return _constrained_spectrum(report.surface, model, k)[0]


def round_mean_curvature(model: mt.MetricModel, r: float) -> float:
    """Mean curvature of the centered round sphere of radius r under the
    conformal part of the model (exact for euclidean and schwarzschild)."""
    m = model.mass
    u = 1.0 + m / (2.0 * r)
    return (2.0 / r) * (1.0 - m / (2.0 * r)) / u**3


def round_seed_radius(model: mt.MetricModel, H_target: float) -> float:
    """Radius of the centered round sphere with mean curvature H_target.

    Takes the outer root: for positive mass H rises to its peak at
    r* = m (2 + sqrt 3) / 2 and falls monotonically beyond it.  In
    y = 1/2r (so that m y = m/2r) the law H(r) = H_target reads

        f(y) = 4y (1 - m y) - H_target (1 + m y)^3 = 0,   0 < m y <= 2 - sqrt 3,

    and the outer radius is the smallest root.  f is concave and
    f(0) = -H_target < 0, so Newton from y = 0 climbs to that root without
    overshooting; it stops when a step is no longer positive or no longer
    moves y, and r = 1/2y.  For zero mass f is linear: one step gives
    y = H_target/4 and r = 2/H_target exactly.  The guards in front keep
    the root inside [max(r*, SEED_R_MIN), SEED_R_MAX].
    """
    if H_target <= 0.0:
        raise PreconditionError(f"H_target must be positive; got {H_target!r}")
    m = model.mass
    lo = max(SEED_R_MIN, 0.5 * (2.0 + math.sqrt(3.0)) * m)
    H_peak = round_mean_curvature(model, lo)
    if H_target > H_peak:
        raise PreconditionError(
            f"H_target {H_target!r} exceeds the maximal round-sphere mean "
            f"curvature {H_peak:.6g} for this model"
        )
    if round_mean_curvature(model, SEED_R_MAX) > H_target:
        raise PreconditionError(f"no round sphere below radius {SEED_R_MAX} has "
                                f"mean curvature {H_target!r}")
    H = float(H_target)
    y = 0.0
    while True:
        x = m * y
        step = ((H * (1.0 + x) ** 3 - 4.0 * y * (1.0 - x))
                / (4.0 - 8.0 * x - 3.0 * H * m * (1.0 + x) ** 2))
        if not step > 0.0 or y + step == y:
            return 0.5 / y
        y += step


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
    grid = working_grid(L)
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
