"""Background metrics on the asymptotic chart.

Three model kinds are supported:

* ``euclidean``     : the flat metric delta_ij everywhere,
* ``schwarzschild`` : the conformally flat metric (1 + m/2|x|)^4 delta_ij,
* ``perturbed``     : schwarzschild plus a symmetric decaying tensor field
  sigma_ij built from closed-form terms amplitude * |x|^-p * profile(x/|x|).

Every evaluation returns the tensor together with its first and second
coordinate derivatives in closed form, so downstream curvature assembly never
relies on numerical differentiation.  All evaluators accept arrays of points
with shape (..., 3) and preserve the input dtype; complex inputs are allowed
(used for step-free directional derivatives elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

EUCLIDEAN = "euclidean"
SCHWARZSCHILD = "schwarzschild"
PERTURBED = "perturbed"
KINDS = (EUCLIDEAN, SCHWARZSCHILD, PERTURBED)

# Monomial profile in the unit direction: coefficient * x^a y^b z^c.
Monomial = tuple[float, tuple[int, int, int]]


@dataclass(frozen=True)
class PerturbationTerm:
    """One closed-form term of the decaying perturbation.

    Contributes ``amplitude * |x|^(-power) * profile(x/|x|)`` to the (i, j)
    and (j, i) components.  ``power`` must be at least 2 so that the field and
    its derivatives obey the decay orders assumed by the comparison laws.
    """

    power: float
    amplitude: float
    i: int
    j: int
    profile: tuple[Monomial, ...] = ((1.0, (0, 0, 0)),)

    def __post_init__(self):
        if not np.isfinite(self.power) or self.power < 2:
            raise ValueError(f"perturbation power must be >= 2, got {self.power}")
        if not np.isfinite(self.amplitude):
            raise ValueError("perturbation amplitude must be finite")
        for idx in (self.i, self.j):
            if idx not in (0, 1, 2):
                raise ValueError(f"component index must be 0, 1 or 2, got {idx}")
        for coeff, expo in self.profile:
            if not np.isfinite(coeff):
                raise ValueError("profile coefficient must be finite")
            if len(expo) != 3 or any((not isinstance(e, int)) or e < 0 for e in expo):
                raise ValueError(f"profile exponents must be nonnegative ints, got {expo}")


@dataclass(frozen=True)
class PerturbationSpec:
    """Collection of perturbation terms with a smooth inner cutoff.

    The perturbation is switched on smoothly between ``cutoff`` and
    ``2 * cutoff`` (quintic ramp, C2 in the radius) and is identically zero
    inside the cutoff radius.  This keeps the composite metric well defined
    down to the evaluation boundary |x| = 1 regardless of term amplitudes.
    """

    terms: tuple[PerturbationTerm, ...]
    cutoff: float = 2.0

    def __post_init__(self):
        if not np.isfinite(self.cutoff) or self.cutoff <= 1:
            raise ValueError(f"cutoff radius must be > 1, got {self.cutoff}")
        if not self.terms:
            raise ValueError("perturbation needs at least one term")


@dataclass(frozen=True)
class MetricModel:
    """Immutable description of a background metric."""

    kind: str
    mass: float = 0.0
    perturbation: PerturbationSpec | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}, expected one of {KINDS}")
        if not np.isfinite(self.mass) or self.mass < 0:
            raise ValueError(f"mass must be a nonnegative real, got {self.mass}")
        if self.kind == PERTURBED and self.perturbation is None:
            raise ValueError("perturbed model requires a perturbation spec")
        if self.kind != PERTURBED and self.perturbation is not None:
            raise ValueError(f"{self.kind} model does not take a perturbation")
        if self.kind == EUCLIDEAN and self.mass != 0.0:
            raise ValueError("euclidean model must have zero mass")


def euclidean_model() -> MetricModel:
    return MetricModel(EUCLIDEAN)


def schwarzschild_model(mass: float) -> MetricModel:
    return MetricModel(SCHWARZSCHILD, mass=mass)


def perturbed_model(mass: float, spec: PerturbationSpec) -> MetricModel:
    return MetricModel(PERTURBED, mass=mass, perturbation=spec)


def _radius(x):
    # complex-safe |x|; never use np.abs here
    return np.sqrt(np.sum(x * x, axis=-1))


def check_domain(model: MetricModel, x: np.ndarray) -> None:
    """Raise DomainError if any point lies in the model's excluded region.

    The flat model is defined everywhere.  The curved models require
    |x| >= 1 and additionally |x| > mass/2 for the conformal factor.
    """
    if model.kind == EUCLIDEAN:
        return
    r = np.real(_radius(np.asarray(x, dtype=np.result_type(x, 1.0))))
    rmin = float(np.min(r))
    if rmin < 1.0:
        raise DomainError(
            f"point at radius {rmin:.6g} inside the excluded unit ball", radius=rmin
        )
    if rmin <= 0.5 * model.mass:
        raise DomainError(
            f"point at radius {rmin:.6g} inside |x| <= mass/2 = {0.5 * model.mass:.6g}",
            radius=rmin,
        )


def conformal_factor(model: MetricModel, x: np.ndarray):
    """Return (u, du, ddu) for the conformal factor u = 1 + m/(2|x|).

    du has shape (..., 3) with du[..., k] = d_k u, and ddu has shape
    (..., 3, 3).  For the flat model u is identically 1.
    """
    x = np.asarray(x)
    base = x.shape[:-1]
    if model.kind == EUCLIDEAN or model.mass == 0.0:
        one = np.ones(base, dtype=x.dtype if np.iscomplexobj(x) else float)
        return one, np.zeros(base + (3,), dtype=one.dtype), np.zeros(base + (3, 3), dtype=one.dtype)
    m = model.mass
    r = _radius(x)
    u = 1.0 + 0.5 * m / r
    r3 = r**3
    du = -0.5 * m * x / r3[..., None]
    eye = np.eye(3)
    ddu = -0.5 * m * (
        eye / r3[..., None, None]
        - 3.0 * x[..., :, None] * x[..., None, :] / (r**5)[..., None, None]
    )
    return u, du, ddu


def _smoothstep(t):
    """Quintic ramp: 0 for t<=0, 1 for t>=1, C2 at the joints.

    Returns (s, s', s'') as functions of t.  Branch selection uses the real
    part so complex perturbations of interior points stay on one branch.
    """
    tr = np.real(t)
    lo = tr <= 0.0
    hi = tr >= 1.0
    mid = ~(lo | hi)
    s = np.where(hi, 1.0, 0.0).astype(t.dtype if np.iscomplexobj(t) else float)
    ds = np.zeros_like(s)
    dds = np.zeros_like(s)
    if np.any(mid):
        tm = np.where(mid, t, 0.0)
        s = np.where(mid, tm**3 * (10.0 - 15.0 * tm + 6.0 * tm**2), s)
        ds = np.where(mid, 30.0 * tm**2 - 60.0 * tm**3 + 30.0 * tm**4, ds)
        dds = np.where(mid, 60.0 * tm - 180.0 * tm**2 + 120.0 * tm**3, dds)
    return s, ds, dds


def _monomial_radial(x, r, expo, q):
    """Value/gradient/Hessian of x1^a x2^b x3^c * |x|^(-q), closed form."""
    a = np.array(expo, dtype=float)
    dtype = x.dtype
    base = x.shape[:-1]

    def mono(e):
        # product over components; exponent 0 yields 1 even at x_k = 0
        out = np.ones(base, dtype=dtype)
        for k in range(3):
            ek = int(e[k])
            if ek > 0:
                out = out * x[..., k] ** ek
        return out

    rq = r ** (-float(q))
    val = mono(a) * rq
    grad = np.zeros(base + (3,), dtype=dtype)
    hess = np.zeros(base + (3, 3), dtype=dtype)
    r2 = r * r
    for k in range(3):
        if a[k] > 0:
            ek = a.copy()
            ek[k] -= 1
            grad[..., k] = a[k] * mono(ek) * rq
        grad[..., k] = grad[..., k] - q * mono(a) * x[..., k] * rq / r2
    for k in range(3):
        for l in range(k, 3):
            term = np.zeros(base, dtype=dtype)
            if a[k] > 0:
                ek = a.copy()
                ek[k] -= 1
                if ek[l] > 0:
                    ekl = ek.copy()
                    ekl[l] -= 1
                    term = term + a[k] * ek[l] * mono(ekl) * rq
                term = term - a[k] * q * mono(ek) * x[..., l] * rq / r2
            if a[l] > 0:
                el = a.copy()
                el[l] -= 1
                term = term - q * a[l] * mono(el) * x[..., k] * rq / r2
            term = term - q * mono(a) * ((1.0 if k == l else 0.0) * rq / r2)
            term = term + q * (q + 2.0) * mono(a) * x[..., k] * x[..., l] * rq / (r2 * r2)
            hess[..., k, l] = term
            hess[..., l, k] = term
    return val, grad, hess


def sigma_with_derivatives(model: MetricModel, x: np.ndarray):
    """Return (sigma, dsigma, ddsigma) of the perturbation field.

    Shapes: (..., 3, 3), (..., 3, 3, 3) with dsigma[..., k, i, j] = d_k sigma_ij,
    and (..., 3, 3, 3, 3) with ddsigma[..., k, l, i, j].  Identically zero for
    the unperturbed kinds.
    """
    x = np.asarray(x)
    dtype = np.result_type(x, 1.0)
    x = x.astype(dtype)
    base = x.shape[:-1]
    sig = np.zeros(base + (3, 3), dtype=dtype)
    dsig = np.zeros(base + (3, 3, 3), dtype=dtype)
    ddsig = np.zeros(base + (3, 3, 3, 3), dtype=dtype)
    if model.kind != PERTURBED:
        return sig, dsig, ddsig

    spec = model.perturbation
    r = _radius(x)
    c = spec.cutoff
    t = (r - c) / c
    s, ds_dt, dds_dt = _smoothstep(t)
    # radial chain factors for the ramp
    ds_dr = ds_dt / c
    dds_dr = dds_dt / (c * c)
    rhat = x / r[..., None]

    for term in spec.terms:
        val = np.zeros(base, dtype=dtype)
        grad = np.zeros(base + (3,), dtype=dtype)
        hess = np.zeros(base + (3, 3), dtype=dtype)
        for coeff, expo in term.profile:
            q = term.power + sum(expo)
            v, g, h = _monomial_radial(x, r, expo, q)
            val = val + coeff * v
            grad = grad + coeff * g
            hess = hess + coeff * h
        val = term.amplitude * val
        grad = term.amplitude * grad
        hess = term.amplitude * hess

        # ramped field s(r) * core, with d_k r = x_k / r
        tval = s * val
        tgrad = ds_dr[..., None] * rhat * val[..., None] + s[..., None] * grad
        eye = np.eye(3)
        rr = rhat[..., :, None] * rhat[..., None, :]
        drhat = eye / r[..., None, None] - rr / r[..., None, None]
        thess = (
            dds_dr[..., None, None] * rr * val[..., None, None]
            + ds_dr[..., None, None]
            * (
                drhat * val[..., None, None]
                + rhat[..., :, None] * grad[..., None, :]
                + rhat[..., None, :] * grad[..., :, None]
            )
            + s[..., None, None] * hess
        )

        for (i, j) in {(term.i, term.j), (term.j, term.i)}:
            sig[..., i, j] += tval
            dsig[..., :, i, j] += tgrad
            ddsig[..., :, :, i, j] += thess
    return sig, dsig, ddsig


def evaluate_metric(model: MetricModel, x: np.ndarray):
    """Evaluate g_ij and its two derivative orders at points x.

    Returns (g, dg, ddg) with shapes (..., 3, 3), (..., 3, 3, 3) and
    (..., 3, 3, 3, 3); dg[..., k, i, j] = d_k g_ij and
    ddg[..., k, l, i, j] = d_k d_l g_ij.  Points in the excluded region raise
    DomainError.
    """
    x = np.asarray(x)
    check_domain(model, x)
    dtype = np.result_type(x, 1.0)
    x = x.astype(dtype)
    base = x.shape[:-1]
    eye = np.eye(3, dtype=dtype)
    g = np.broadcast_to(eye, base + (3, 3)).copy()
    dg = np.zeros(base + (3, 3, 3), dtype=dtype)
    ddg = np.zeros(base + (3, 3, 3, 3), dtype=dtype)
    if model.kind == EUCLIDEAN:
        return g, dg, ddg

    u, du, ddu = conformal_factor(model, x)
    u3 = u**3
    g = (u**4)[..., None, None] * eye
    dg = (4.0 * u3[..., None] * du)[..., :, None, None] * eye
    ddg = (
        12.0 * (u * u)[..., None, None] * du[..., :, None] * du[..., None, :]
        + 4.0 * u3[..., None, None] * ddu
    )[..., :, :, None, None] * eye

    if model.kind == PERTURBED:
        sig, dsig, ddsig = sigma_with_derivatives(model, x)
        g = g + sig
        dg = dg + dsig
        ddg = ddg + ddsig
    return g, dg, ddg


def christoffel(g, dg):
    """Gamma^k_ij = 1/2 g^kl (d_i g_lj + d_j g_il - d_l g_ij)."""
    ginv = np.linalg.inv(g)
    # dg[..., k, i, j] = d_k g_ij; lower[..., l, i, j] = d_i g_lj + d_j g_il - d_l g_ij
    lower = np.swapaxes(dg, -3, -2) + np.einsum("...jil->...lij", dg) - dg
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, lower), ginv


def curvature_tensors(model: MetricModel, x: np.ndarray, metric=None,
                      connection=None):
    """Return (Gamma, Riemann, Ricci, R) at points x.

    Conventions: Riem[..., l, i, j, k] are the components of R(d_i, d_j)d_k
    in the d_l direction, Ric_jk = Riem^i_ijk, and R = g^jk Ric_jk.  The round
    sphere's Ricci tensor is positive in this convention.

    A caller that already holds ``evaluate_metric(model, x)`` passes it as
    ``metric``, and ``christoffel`` of it as ``connection``; each is then
    not computed again.
    """
    g, dg, ddg = metric if metric is not None else evaluate_metric(model, x)
    Gam, ginv = connection if connection is not None else christoffel(g, dg)
    # derivative of the inverse: d_m g^ab = -g^ak d_m g_kl g^lb
    dginv = -np.einsum("...ak,...mkl,...lb->...mab", ginv, dg, ginv)
    # d_m Gamma^k_ij
    lower = np.swapaxes(dg, -3, -2) + np.einsum("...jil->...lij", dg) - dg
    dlower = np.swapaxes(ddg, -3, -2) + np.einsum("...mjil->...mlij", ddg) - ddg
    dGam = 0.5 * (
        np.einsum("...mkl,...lij->...mkij", dginv, lower)
        + np.einsum("...kl,...mlij->...mkij", ginv, dlower)
    )
    riem = (
        np.einsum("...iljk->...lijk", dGam)
        - np.einsum("...jlik->...lijk", dGam)
        + np.einsum("...lim,...mjk->...lijk", Gam, Gam)
        - np.einsum("...ljm,...mik->...lijk", Gam, Gam)
    )
    ric = np.einsum("...iijk->...jk", riem)
    scal = np.einsum("...jk,...jk->...", ginv, ric)
    return Gam, riem, ric, scal


def scalar_curvature(model: MetricModel, x: np.ndarray):
    """Scalar curvature assembled from the closed-form metric derivatives."""
    return curvature_tensors(model, x)[3]


def ricci_tensor(model: MetricModel, x: np.ndarray):
    return curvature_tensors(model, x)[2]


def model_to_dict(model: MetricModel) -> dict:
    """JSON-ready description of a metric model."""
    out: dict = {"kind": model.kind, "mass": model.mass}
    if model.perturbation is not None:
        spec = model.perturbation
        out["perturbation"] = {
            "cutoff": spec.cutoff,
            "terms": [
                {
                    "power": t.power,
                    "amplitude": t.amplitude,
                    "i": t.i,
                    "j": t.j,
                    "profile": [[c, list(e)] for c, e in t.profile],
                }
                for t in spec.terms
            ],
        }
    return out


def model_from_dict(data: dict) -> MetricModel:
    spec = None
    if data.get("perturbation") is not None:
        p = data["perturbation"]
        spec = PerturbationSpec(
            terms=tuple(
                PerturbationTerm(
                    power=t["power"], amplitude=t["amplitude"], i=t["i"],
                    j=t["j"],
                    profile=tuple((c, tuple(e)) for c, e in t["profile"]),
                )
                for t in p["terms"]
            ),
            cutoff=p["cutoff"],
        )
    return MetricModel(kind=data["kind"], mass=data.get("mass", 0.0),
                       perturbation=spec)
