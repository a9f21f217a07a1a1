"""Spectral machinery on the unit sphere and radial surface graphs.

The basis is the real orthonormal spherical harmonic family: the integral of
Y_lm * Y_l'm' over the sphere is the Kronecker delta, so the constant function
1 has the single coefficient sqrt(4*pi) at (l, m) = (0, 0).  Quadrature uses
Gauss-Legendre nodes in the colatitude and a uniform longitude grid, which
integrates products of two degree-L harmonics exactly when n_theta >= L + 1
and n_phi >= 2L + 1.  Gauss-Legendre nodes never touch the poles, so all
1/sin(theta) factors below are safe.

Coefficient layout is flat with index l*l + l + m for m in [-l, l].

There is one transform path: ``synthesize`` and ``analyze`` for node values,
and ``galerkin`` for Galerkin matrices sum(B_a^T diag(W) B_b) of the jet
fields.  All three use the product structure of the grid (a longitude sum,
then a colatitude sum per order m), so none of them forms a dense
node-by-coefficient matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .errors import CapacityError, EmbeddingError, NormalizationError, PreconditionError

COEFF_DROP = 1e-15  # serialized coefficients below this magnitude are omitted


def n_coeffs(L: int) -> int:
    return (L + 1) * (L + 1)


def lm_index(l: int, m: int) -> int:
    """Flat index of the (l, m) coefficient."""
    if l < 0 or abs(m) > l:
        raise ValueError(f"invalid mode (l, m) = ({l}, {m})")
    return l * l + l + m


def index_lm(idx: int) -> tuple[int, int]:
    l = math.isqrt(idx)
    return l, idx - l * l - l


def degree_of_index(L: int) -> np.ndarray:
    """Array mapping flat coefficient index to its degree l."""
    ls = np.empty(n_coeffs(L), dtype=int)
    for l in range(L + 1):
        ls[l * l : (l + 1) * (l + 1)] = l
    return ls


JET_KEYS = ("val", "dth", "dph", "dthth", "dthph", "dphph")
# factors of each jet's basis function: index into theta_block's (P, dP, ddP)
# and into the longitude factors (T, dT, ddT) of ``galerkin``
_THETA_FACTOR = {"val": 0, "dth": 1, "dph": 0, "dthth": 2, "dthph": 1,
                 "dphph": 0}
_PHI_FACTOR = {"val": 0, "dth": 0, "dph": 1, "dthth": 0, "dthph": 1,
               "dphph": 2}


def _frozen(*arrays) -> tuple:
    """The arrays, marked read-only (grids are shared, see quadrature_grid)."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def _flat_lm(L: int):
    """Degree and order of every flat coefficient index, built once per L.

    Returns read-only (ls, ms); coefficient ``idx`` sits at [ms + L, ls] of
    the (2L+1, L+1) coefficient table.
    """
    ls = degree_of_index(L)
    ms = np.arange(n_coeffs(L)) - ls * ls - ls
    return _frozen(ls, ms)


@functools.lru_cache(maxsize=None)
def _order_major(L: int):
    """The flat coefficients sorted by order m, then degree l; built once per L.

    Returns read-only (order, counts, position): ``order`` lists the flat
    indices in that sequence, ``counts[m + L]`` is the number of degrees of
    order m, and ``position[idx]`` is the place of ``idx`` in ``order``.
    """
    ls, ms = _flat_lm(L)
    order = np.argsort(ms, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    return _frozen(order, np.bincount(ms + L), position)


class QuadratureGrid:
    """Gauss-Legendre x uniform-longitude product grid on the sphere.

    Attributes
    ----------
    n_theta, n_phi : int
        Node counts in colatitude and longitude.
    theta, phi : ndarray
        1D node coordinate arrays.
    nodes : ndarray, shape (n_theta * n_phi, 3)
        Unit direction vectors, theta-major flattening.
    weights : ndarray, shape (n_theta * n_phi,)
        Quadrature weights for the round measure; they sum to 4*pi.

    Instances are immutable: every array a grid holds or caches is read-only,
    and the internal cache (frames, Legendre and trigonometric blocks, basis
    matrices) is append-only, so one instance can be shared between callers
    and threads.  ``quadrature_grid`` returns the shared instance of a shape.
    """

    def __init__(self, n_theta: int, n_phi: int):
        if n_theta < 2 or n_phi < 3:
            raise ValueError(f"grid too small: ({n_theta}, {n_phi})")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        xs, ws = np.polynomial.legendre.leggauss(self.n_theta)
        self.cos_theta = xs
        self.sin_theta = np.sqrt(1.0 - xs * xs)
        self.theta = np.arccos(xs)
        self.theta_weights = ws
        self.phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        w2d = np.outer(ws * (2.0 * np.pi / self.n_phi), np.ones(self.n_phi))
        self.weights = w2d.ravel()
        st = self.sin_theta[:, None]
        ct = self.cos_theta[:, None]
        cp = np.cos(self.phi)[None, :]
        sp = np.sin(self.phi)[None, :]
        nx = st * cp
        ny = st * sp
        nz = np.broadcast_to(ct, nx.shape)
        self.nodes = np.stack([nx.ravel(), ny.ravel(), nz.ravel()], axis=-1)
        _frozen(self.cos_theta, self.sin_theta, self.theta, self.theta_weights,
                self.phi, self.weights, self.nodes)
        self._cache: dict = {}

    @property
    def n_nodes(self) -> int:
        return self.n_theta * self.n_phi

    @property
    def capacity(self) -> int:
        """Largest degree L whose harmonic products integrate exactly."""
        return min(self.n_theta - 1, (self.n_phi - 1) // 2)

    def refined(self, factor: int = 2) -> "QuadratureGrid":
        return quadrature_grid(self.n_theta * factor, self.n_phi * factor)

    def require_capacity(self, L: int) -> None:
        if L > self.capacity:
            raise CapacityError(
                f"grid ({self.n_theta}, {self.n_phi}) supports degree <= "
                f"{self.capacity}, requested {L}"
            )

    # node-frame helpers used by the geometry pipeline
    def frames(self):
        key = "frames"
        if key not in self._cache:
            st = np.repeat(self.sin_theta, self.n_phi)
            ct = np.repeat(self.cos_theta, self.n_phi)
            cp = np.tile(np.cos(self.phi), self.n_theta)
            sp = np.tile(np.sin(self.phi), self.n_theta)
            that = np.stack([ct * cp, ct * sp, -st], axis=-1)
            phat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
            self._cache[key] = (self.nodes,) + _frozen(that, phat, st, ct)
        return self._cache[key]

    def theta_block(self, L: int):
        key = ("theta", L)
        if key not in self._cache:
            self._cache[key] = _frozen(*_theta_block(L, self.cos_theta,
                                                     self.sin_theta))
        return self._cache[key]

    def trig_block(self, L: int):
        key = ("trig", L)
        if key not in self._cache:
            self._cache[key] = _frozen(*_trig_block(L, self.phi))
        return self._cache[key]

    def theta_columns(self, L: int):
        """(P, dP, ddP) re-laid out per coefficient, each (n_theta, n).

        Column k holds, at every colatitude node, the colatitude factor of
        the k-th coefficient in order-major sequence (``_order_major``), so
        the columns of one order m are adjacent.  ``galerkin`` reads its
        right-hand factors from here.  Cached read-only under
        ("theta_columns", L).
        """
        key = ("theta_columns", L)
        if key not in self._cache:
            ls, ms = _flat_lm(L)
            order = _order_major(L)[0]
            self._cache[key] = _frozen(*(
                np.ascontiguousarray(block[ls[order], np.abs(ms[order])].T)
                for block in self.theta_block(L)))
        return self._cache[key]

    def basis_matrices(self, L: int, keys=JET_KEYS) -> dict:
        """Dense node-by-coefficient matrices of the requested jet fields.

        No cmclab code calls this: solves, spectra and the verify battery
        assemble their matrices with ``galerkin`` and transform with
        ``synthesize``/``analyze``.  It is kept because the benchmark's
        tracer (benchmarks/tracer.py) wraps it by name; it goes when the
        benchmark drops it.

        Keys are drawn from ``JET_KEYS``: 'val', 'dth', 'dph', 'dthth',
        'dthph', 'dphph'.  Each matrix is built on first request, as one
        broadcast product of its theta factor (from ``theta_block``) and phi
        factor (from ``trig_block``), and cached under ("B", L, key).  The
        matrices are C-contiguous and read-only, and stay cached as long as
        the grid lives.
        """
        out = {}
        for key in keys:
            cache_key = ("B", L, key)
            if cache_key not in self._cache:
                self._cache[cache_key] = self._basis_matrix(L, key)
            out[key] = self._cache[cache_key]
        return out

    def _basis_matrix(self, L: int, key: str) -> np.ndarray:
        P, dP, ddP = self.theta_block(L)
        T, dT = self.trig_block(L)
        ddT = -(np.arange(-L, L + 1) ** 2)[:, None] * T
        theta, phi = {"val": (P, T), "dth": (dP, T), "dph": (P, dT),
                      "dthth": (ddP, T), "dthph": (dP, dT),
                      "dphph": (P, ddT)}[key]
        ls = degree_of_index(L)
        ms = np.arange(n_coeffs(L)) - ls * ls - ls
        # per coefficient: theta factor (n, n_theta), phi factor (n, n_phi)
        theta, phi = theta[ls, np.abs(ms)], phi[ms + L]
        out = np.empty((self.n_theta, self.n_phi, ms.size))
        np.multiply(theta.T[:, None, :], phi.T[None, :, :], out=out)
        return _frozen(out.reshape(self.n_nodes, ms.size))[0]


@functools.lru_cache(maxsize=None)
def quadrature_grid(n_theta: int, n_phi: int) -> QuadratureGrid:
    """The process-wide shared grid of this shape.

    Frames and Legendre blocks are then built once per process for each
    shape instead of once per grid object.  The cache is unbounded: a grid
    and everything it caches (per L: the Legendre and trig blocks and their
    per-coefficient layout, about 48 * n_theta * (L+1)^2 bytes) live for the
    life of the process; ``quadrature_grid.cache_clear()`` drops them all.
    """
    return QuadratureGrid(n_theta, n_phi)


@functools.lru_cache(maxsize=None)
def _recurrence(L: int):
    """Coefficients of the Legendre recurrence up to degree L, built once.

    Returns (diag, sub, rows): ``diag[m-1]`` and ``sub[m]`` step the diagonal
    P[m, m] and the first off-diagonal P[m+1, m]; ``rows[l-2]`` holds the
    (a, b) column vectors of the three-term step to degree l over the orders
    m < l - 1.
    """
    diag = np.array([-math.sqrt((2.0 * m + 1.0) / (2.0 * m))
                     for m in range(1, L + 1)])
    sub = np.array([math.sqrt(2.0 * m + 3.0) for m in range(L)])
    rows = []
    for l in range(2, L + 1):
        a = [math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m)) for m in range(l - 1)]
        b = [math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
             for m in range(l - 1)]
        rows.append((np.array(a)[:, None], np.array(b)[:, None]))
    return diag, sub, rows


@functools.lru_cache(maxsize=None)
def _flat_layout(L: int):
    """Flat indices of the Legendre table entries, built once per L.

    Returns (zonal, ls, ms, cos_idx, sin_idx): ``zonal[l]`` is the index of
    (l, 0); the pairs (ls, ms) run over 1 <= m <= l, and ``cos_idx`` and
    ``sin_idx`` are the indices of (l, m) and (l, -m).
    """
    degrees = np.arange(L + 1)
    ls, ms = np.tril_indices(L)
    ls, ms = ls + 1, ms + 1
    return (degrees * degrees + degrees, ls, ms, ls * ls + ls + ms,
            ls * ls + ls - ms)


def _legendre(L: int, ct: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Orthonormalized associated Legendre stack P[l, m], shape (L+1, L+1, npts).

    P[l, m] is the colatitude factor of the degree-l order-m harmonic (m >= 0,
    Condon-Shortley phase folded in); entries with m > l are zero.  The
    diagonal is a running product, then each degree is one three-term step
    over all orders at once.
    """
    diag, sub, rows = _recurrence(L)
    P = np.zeros((L + 1, L + 1, ct.shape[0]))
    d = np.arange(L + 1)
    steps = np.empty((L + 1, ct.shape[0]))
    steps[0] = 1.0 / math.sqrt(4.0 * math.pi)
    steps[1:] = diag[:, None] * st
    P[d, d] = np.cumprod(steps, axis=0)
    P[d[1:], d[:-1]] = sub[:, None] * ct * P[d[:-1], d[:-1]]
    for l, (a, b) in enumerate(rows, start=2):
        P[l, : l - 1] = a * (ct * P[l - 1, : l - 1] - b * P[l - 2, : l - 1])
    return P


def _theta_block(L: int, ct: np.ndarray, st: np.ndarray):
    """Orthonormalized associated Legendre stack and theta-derivatives.

    Returns (P, dP, ddP), each of shape (L+1, L+1, npts), with P from
    ``_legendre``.  First derivatives come from the ladder identity, second
    derivatives from the defining ODE; both are exact and pole-free on
    Gauss-Legendre nodes.
    """
    P = _legendre(L, ct, st)
    dP = np.zeros_like(P)
    ddP = np.zeros_like(P)
    for l in range(1, L + 1):
        dP[l, 0] = math.sqrt(l * (l + 1.0)) * P[l, 1] if l >= 1 else 0.0
        for m in range(1, l + 1):
            up = P[l, m + 1] if m + 1 <= l else 0.0
            c1 = math.sqrt((l - m) * (l + m + 1.0))
            c2 = math.sqrt((l + m) * (l - m + 1.0))
            dP[l, m] = 0.5 * (c1 * up - c2 * P[l, m - 1])
    cot = ct / st
    inv_st2 = 1.0 / (st * st)
    for l in range(L + 1):
        for m in range(l + 1):
            ddP[l, m] = -cot * dP[l, m] - (l * (l + 1.0) - m * m * inv_st2) * P[l, m]
    return P, dP, ddP


def _trig_block(L: int, phi: np.ndarray):
    """Longitude factors and derivatives; row m + L holds order m."""
    T = np.zeros((2 * L + 1, phi.shape[0]))
    dT = np.zeros_like(T)
    s2 = math.sqrt(2.0)
    T[L] = 1.0
    for m in range(1, L + 1):
        T[L + m] = s2 * np.cos(m * phi)
        dT[L + m] = -m * s2 * np.sin(m * phi)
        T[L - m] = s2 * np.sin(m * phi)
        dT[L - m] = m * s2 * np.cos(m * phi)
    return T, dT


def _coeff_table(coeffs: np.ndarray, L: int) -> np.ndarray:
    """Reshape flat coefficients to a (2L+1, L+1) table indexed [m+L, l]."""
    ls, ms = _flat_lm(L)
    C = np.zeros((2 * L + 1, L + 1), dtype=coeffs.dtype)
    C[ms + L, ls] = coeffs
    return C


def _table_coeffs(C: np.ndarray, L: int) -> np.ndarray:
    ls, ms = _flat_lm(L)
    return C[ms + L, ls]


@dataclass
class SphereJets:
    """Point values and chart derivatives of a graph function on a grid."""

    f: np.ndarray
    dth: np.ndarray
    dph: np.ndarray
    dthth: np.ndarray
    dthph: np.ndarray
    dphph: np.ndarray


def synthesize(coeffs: np.ndarray, grid: QuadratureGrid, L: int) -> SphereJets:
    """Evaluate a coefficient vector and its chart derivatives on the grid.

    Uses the separable theta/phi structure, so no dense node-by-coefficient
    matrix is materialized.
    """
    grid.require_capacity(L)
    P, dP, ddP = grid.theta_block(L)
    T, dT = grid.trig_block(L)
    C = _coeff_table(np.asarray(coeffs), L)
    nm = 2 * L + 1
    nt = grid.n_theta

    def pair(Pblk):
        A = np.zeros((nm, nt), dtype=C.dtype)
        for m in range(-L, L + 1):
            A[m + L] = Pblk[:, abs(m), :].T @ C[m + L]
        return A

    Av, Ad, Add = pair(P), pair(dP), pair(ddP)
    m2 = (np.arange(-L, L + 1) ** 2)[:, None]
    f = (Av.T @ T).ravel()
    dth = (Ad.T @ T).ravel()
    dph = (Av.T @ dT).ravel()
    dthth = (Add.T @ T).ravel()
    dthph = (Ad.T @ dT).ravel()
    dphph = (Av.T @ (-m2 * T)).ravel()
    return SphereJets(f, dth, dph, dthth, dthph, dphph)


def analyze(values: np.ndarray, grid: QuadratureGrid, L: int) -> np.ndarray:
    """Project node values onto coefficients up to degree L.

    This is the quadrature realization of L2 projection; for band-limited
    input it inverts ``synthesize`` to round-off.
    """
    grid.require_capacity(L)
    P, _, _ = grid.theta_block(L)
    T, _ = grid.trig_block(L)
    F = np.asarray(values).reshape(grid.n_theta, grid.n_phi)
    G = F @ T.T * (2.0 * np.pi / grid.n_phi)  # (n_theta, 2L+1)
    G = G * grid.theta_weights[:, None]
    C = np.zeros((2 * L + 1, L + 1), dtype=G.dtype)
    for m in range(-L, L + 1):
        C[m + L] = P[:, abs(m), :] @ G[:, m + L]
    return _table_coeffs(C, L)


def galerkin(grid: QuadratureGrid, L: int, terms) -> np.ndarray:
    """Galerkin matrix sum(B_a^T diag(W) B_b) over ``(key_a, key_b, W)`` terms.

    B_key is the node-by-coefficient matrix of a jet field (keys from
    ``JET_KEYS``) and W a node field; the result is (n, n) in the flat
    coefficient layout.  Every basis function is a colatitude factor times a
    longitude factor, so the node sum factors (sum factorisation):
    - the longitude sum of each term gives an (n_theta, 2L+1, 2L+1) array,
      and terms with the same pair of colatitude factors are added there;
    - the colatitude sum is then one GEMM per order m of the row, over all
      factor pairs at once, against the re-laid-out ``theta_columns``.
    No node-by-coefficient array is formed.  The longitude sums cost
    2 n_nodes (2L+1)^2 flops per term and the colatitude GEMMs 2 n^2 n_theta
    per factor pair, against 2 n^2 n_nodes per term for the dense product;
    the result agrees with the dense product to round-off.
    """
    grid.require_capacity(L)
    nt, nm, n = grid.n_theta, 2 * L + 1, n_coeffs(L)
    T, dT = grid.trig_block(L)
    orders = np.arange(-L, L + 1)
    phis = (T, dT, -(orders**2)[:, None] * T)
    sums: dict = {}
    for key_a, key_b, W in terms:
        Wg = np.asarray(W, dtype=float).reshape(nt, grid.n_phi)
        # products of the two longitude factors, one row per (m_a, m_b)
        trig = phis[_PHI_FACTOR[key_a]][:, None, :] * phis[_PHI_FACTOR[key_b]]
        part = Wg @ trig.reshape(nm * nm, grid.n_phi).T
        pair = (_THETA_FACTOR[key_a], _THETA_FACTOR[key_b])
        sums[pair] = sums[pair] + part if pair in sums else part
    pairs = list(sums)
    # longitude sums as [m_a][theta node, m_b], one block per row order
    by_row = [np.ascontiguousarray(
        sums[p].reshape(nt, nm, nm).transpose(1, 0, 2)) for p in pairs]
    blocks = grid.theta_block(L)
    columns = grid.theta_columns(L)
    _, counts, position = _order_major(L)
    right = np.empty((len(pairs) * nt, n))
    out = np.empty((n, n))   # rows flat, columns order-major
    for m in orders:
        for k, (_, b) in enumerate(pairs):
            np.multiply(np.repeat(by_row[k][m + L], counts, axis=1),
                        columns[b], out=right[k * nt:(k + 1) * nt])
        am = abs(int(m))
        left = np.concatenate([blocks[a][am:, am, :] for a, _ in pairs], axis=1)
        ls = np.arange(am, L + 1)
        out[ls * ls + ls + m] = left @ right
    return out[:, position]


def basis_at(unit_vectors: np.ndarray, L: int) -> np.ndarray:
    """Values of all basis functions at arbitrary unit vectors, (P, n) matrix."""
    v = np.asarray(unit_vectors, dtype=float)
    ct = np.clip(v[..., 2], -1.0, 1.0).ravel()
    st = np.sqrt(np.maximum(1.0 - ct * ct, 1e-300))
    phi = np.arctan2(v[..., 1], v[..., 0]).ravel()
    P = _legendre(L, ct, st)
    zonal, ls, ms, cos_idx, sin_idx = _flat_layout(L)
    out = np.empty((ct.shape[0], n_coeffs(L)))
    out[:, zonal] = P[:, 0].T
    angle = ms[:, None] * phi
    Pm = math.sqrt(2.0) * P[ls, ms]
    out[:, cos_idx] = (Pm * np.cos(angle)).T
    out[:, sin_idx] = (Pm * np.sin(angle)).T
    return out


def _guard_grid(L: int) -> QuadratureGrid:
    """2x refined evaluation grid used for norm guards and r0 measurements."""
    return quadrature_grid(2 * (L + 1), 2 * (2 * L + 1))


def c1_seminorms(coeffs: np.ndarray, L: int) -> tuple[float, float]:
    """(max |f|, max |grad f|) of the unit graph on the refined guard grid."""
    grid = _guard_grid(L)
    jets = synthesize(coeffs, grid, L)
    st = np.repeat(grid.sin_theta, grid.n_phi)
    grad = np.sqrt(jets.dth**2 + (jets.dph / st) ** 2)
    return float(np.max(np.abs(jets.f))), float(np.max(grad))


C1_EMBEDDING_BOUND = 0.5


@dataclass(eq=False)
class SphereGraph:
    """Radial graph surface: center + scale * (1 + f(direction)) * direction.

    ``f`` is stored as real orthonormal harmonic coefficients up to degree L.
    Construction validates finiteness and the C1 smallness bound
    max|f| + max|grad f| < 1/2 that keeps the graph embedded and star-shaped.
    Instances are treated as immutable; they compare and hash by identity.
    """

    center: np.ndarray
    scale: float
    L: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(3)
        self.coeffs = np.asarray(self.coeffs, dtype=float).copy()
        if not np.all(np.isfinite(self.center)):
            raise ValueError("graph center must be finite")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise ValueError(f"graph scale must be positive, got {self.scale}")
        if self.L < 0 or self.coeffs.shape != (n_coeffs(self.L),):
            raise ValueError(
                f"coefficient vector must have length {n_coeffs(self.L)} for L={self.L}"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("graph coefficients must be finite")
        sup, grad = c1_seminorms(self.coeffs, self.L)
        norm = sup + grad
        if norm >= C1_EMBEDDING_BOUND:
            raise EmbeddingError(
                f"graph C1 norm {norm:.4g} exceeds embedding bound {C1_EMBEDDING_BOUND}",
                c1_norm=norm,
            )
        self.c1_norm = norm
        self._r0: float | None = None

    @classmethod
    def round_sphere(cls, radius: float, center=(0.0, 0.0, 0.0), L: int = 24) -> "SphereGraph":
        return cls(np.asarray(center, dtype=float), float(radius), L, np.zeros(n_coeffs(L)))

    def with_coeffs(self, coeffs: np.ndarray) -> "SphereGraph":
        return SphereGraph(self.center, self.scale, self.L, coeffs)

    def radial_values(self, unit_vectors: np.ndarray) -> np.ndarray:
        """Distances from center to the surface along the given directions."""
        B = basis_at(unit_vectors, self.L)
        return self.scale * (1.0 + B @ self.coeffs)

    def points(self, grid: QuadratureGrid) -> np.ndarray:
        jets = synthesize(self.coeffs, grid, self.L)
        rho = self.scale * (1.0 + jets.f)
        return self.center[None, :] + rho[:, None] * grid.nodes

    def r0(self) -> float:
        """Distance from the chart origin to the surface.

        Refined-grid minimum polished by a local simplex search in the chart
        angles; accurate to optimizer tolerance, not just grid resolution.
        Computed on the first call and cached, since graphs are immutable.
        """
        if self._r0 is not None:
            return self._r0
        grid = _guard_grid(self.L)
        jets = synthesize(self.coeffs, grid, self.L)
        rho = self.scale * (1.0 + jets.f)
        pts = self.center[None, :] + rho[:, None] * grid.nodes
        dist = np.linalg.norm(pts, axis=-1)
        k = int(np.argmin(dist))
        x0 = np.array([math.acos(np.clip(grid.nodes[k, 2], -1.0, 1.0)),
                       math.atan2(grid.nodes[k, 1], grid.nodes[k, 0])])

        def objective(tp):
            st, ct = math.sin(tp[0]), math.cos(tp[0])
            n = np.array([st * math.cos(tp[1]), st * math.sin(tp[1]), ct])
            return float(np.linalg.norm(
                self.center + self.radial_values(n[None, :])[0] * n))

        res = optimize.minimize(objective, x0, method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-13})
        self._r0 = min(float(dist[k]), float(res.fun))
        return self._r0

    def encloses_origin(self) -> bool:
        """Ray-parity test of the origin against the star-shaped surface.

        For a graph surface a single radial comparison along the ray from the
        center through the origin decides the parity.
        """
        d = float(np.linalg.norm(self.center))
        if d == 0.0:
            return True
        direction = -self.center / d
        return d < float(self.radial_values(direction[None, :])[0])

    def to_json_dict(self) -> dict:
        triples = []
        for idx, v in enumerate(self.coeffs):
            if abs(v) >= COEFF_DROP:
                l, m = index_lm(idx)
                triples.append([l, m, float(v)])
        return {
            "center": [float(c) for c in self.center],
            "scale": float(self.scale),
            "L": int(self.L),
            "coeffs": triples,
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "SphereGraph":
        L = int(record["L"])
        coeffs = np.zeros(n_coeffs(L))
        for l, m, v in record["coeffs"]:
            coeffs[lm_index(int(l), int(m))] = float(v)
        return cls(np.asarray(record["center"], dtype=float), float(record["scale"]), L, coeffs)


def _translated_radii(coeffs, L, grid, v, warm=None, tol=1e-14, max_inner=30):
    """Radial function of the surface {(1+f)w} about the shifted center v.

    Solves per node direction d: find t > 0 with |v + t d| = 1 + f(unit(v+td)).
    Returns the node-wise distances t.
    """
    d = grid.nodes
    vd = d @ v
    v2 = float(v @ v)
    t = warm.copy() if warm is not None else np.ones(grid.n_nodes)
    for _ in range(max_inner):
        p = v[None, :] + t[:, None] * d
        u = p / np.linalg.norm(p, axis=-1, keepdims=True)
        B = basis_at(u, L)
        R = 1.0 + B @ coeffs
        t_new = -vd + np.sqrt(vd * vd + R * R - v2)
        if np.max(np.abs(t_new - t)) <= tol:
            return t_new
        t = t_new
    return t


def moment_normalize(graph: SphereGraph, grid: QuadratureGrid | None = None,
                     max_outer: int = 50, tol: float = 1e-13):
    """Translate and homothetically rescale a graph to kill low moments.

    Finds the center shift v (a fixed point of the translation-moment map)
    such that the re-graphed function has vanishing first moments, then
    rescales away the mean.  Returns (normalized_graph, applied_translation,
    scale_factor).  The output coefficients satisfy integral f = 0 and
    integral x^a f = 0 to quadrature precision, and the geometric surface is
    unchanged.

    Requires ``c1 norm < 0.2``; raises NormalizationError if the moment
    iteration fails to contract within ``max_outer`` steps.
    """
    if graph.c1_norm >= 0.2:
        raise PreconditionError(
            f"moment normalization needs C1 norm < 0.2, got {graph.c1_norm:.4g}"
        )
    L = graph.L
    grid = grid or _guard_grid(L)
    grid.require_capacity(L)
    w = grid.weights
    nodes = grid.nodes
    v = np.zeros(3)
    warm = None
    residual = np.inf
    for _ in range(max_outer):
        t = _translated_radii(graph.coeffs, L, grid, v, warm=warm)
        warm = t
        fv = t - 1.0
        moment = (3.0 / (4.0 * np.pi)) * (w * fv) @ nodes
        residual = float(np.linalg.norm(moment))
        if residual <= tol:
            break
        v = v + moment
    else:
        raise NormalizationError(
            f"moment iteration did not contract below {tol:g}", residual=residual
        )
    c_shift = analyze(fv, grid, L)
    rho = 1.0 + c_shift[0] / math.sqrt(4.0 * math.pi)
    c_out = c_shift / rho
    c_out[0] = (c_shift[0] - math.sqrt(4.0 * math.pi) * (rho - 1.0)) / rho
    out = SphereGraph(graph.center + graph.scale * v, graph.scale * rho, L, c_out)
    return out, graph.scale * v, rho


def corpus_graph(seed: int, L: int = 24, l_band: tuple[int, int] = (2, 6),
                 c1_target: float = 0.08, scale: float = 4.0,
                 center=(0.0, 0.0, 0.0)) -> SphereGraph:
    """Deterministic pseudo-random graph used by the verification corpus."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(n_coeffs(L))
    lo, hi = l_band
    hi = min(hi, L)
    for l in range(lo, hi + 1):
        for m in range(-l, l + 1):
            coeffs[lm_index(l, m)] = rng.normal() / (1.0 + l * (l + 1.0))
    sup, grad = c1_seminorms(coeffs, L)
    norm = sup + grad
    if norm > 0:
        coeffs *= c1_target / norm
    return SphereGraph(np.asarray(center, dtype=float), scale, L, coeffs)
