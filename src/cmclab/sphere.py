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
node-by-coefficient matrix.  ``values_at`` evaluates at scattered unit
vectors with the same per-order colatitude sums, and ``SphereGraph.r0``
polishes its minimum with the jets of ``synthesize``'s helper at one point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
    and the internal cache (frames, Legendre and trigonometric blocks and
    their per-coefficient layout) is append-only, so one instance can be
    shared between callers and threads.  ``quadrature_grid`` returns the
    shared instance of a shape.
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

    def refined(self) -> "QuadratureGrid":
        """The shared grid with twice the nodes in each direction."""
        return quadrature_grid(2 * self.n_theta, 2 * self.n_phi)

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
            frame = _frame(np.repeat(self.sin_theta, self.n_phi),
                           np.repeat(self.cos_theta, self.n_phi),
                           np.tile(np.cos(self.phi), self.n_theta),
                           np.tile(np.sin(self.phi), self.n_theta))
            self._cache[key] = (self.nodes,) + _frozen(*frame[1:])
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


@functools.lru_cache(maxsize=None)
def _ladder(L: int):
    """Index and coefficient arrays of ``_theta_block``, built once per L.

    Returns read-only (lt, mt, ls, ms, c1, c2): the pairs (lt, mt) with
    0 <= m <= l, and the pairs (ls, ms) among them with m >= 1 with the
    coefficients c1 = sqrt((l - m)(l + m + 1)), which is 0 at m = l, and
    c2 = sqrt((l + m)(l - m + 1)) of the ladder identity.
    """
    lt, mt = np.tril_indices(L + 1)
    ls, ms = lt[mt > 0], mt[mt > 0]
    c1 = np.sqrt((ls - ms) * (ls + ms + 1.0))[:, None]
    c2 = np.sqrt((ls + ms) * (ls - ms + 1.0))[:, None]
    return _frozen(lt, mt, ls, ms, c1, c2)


def _theta_block(L: int, ct: np.ndarray, st: np.ndarray):
    """Orthonormalized associated Legendre stack and theta-derivatives.

    Returns (P, dP, ddP), each of shape (L+1, L+1, npts), with P from
    ``_legendre``.  First derivatives come from the ladder identity, second
    derivatives from the defining ODE; both are exact and pole-free on
    Gauss-Legendre nodes.  Each identity is one array step over all (l, m)
    at once, with the coefficients of ``_ladder``.
    """
    P = _legendre(L, ct, st)
    dP = np.zeros_like(P)
    ddP = np.zeros_like(P)
    lt, mt, ls, ms, c1, c2 = _ladder(L)
    if L > 0:
        l = np.arange(1, L + 1)
        dP[1:, 0] = np.sqrt(l * (l + 1.0))[:, None] * P[1:, 1]
    # P[l, m + 1] is zero at m = l (and past the last column at l = L), and
    # c1 is zero there
    up = np.zeros((ls.size, P.shape[2]))
    inner = ms < ls
    up[inner] = P[ls[inner], ms[inner] + 1]
    dP[ls, ms] = 0.5 * (c1 * up - c2 * P[ls, ms - 1])
    cot = ct / st
    inv_st2 = 1.0 / (st * st)
    ddP[lt, mt] = (-cot * dP[lt, mt]
                   - ((lt * (lt + 1.0))[:, None] - (mt * mt)[:, None] * inv_st2)
                   * P[lt, mt])
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


def _frame(st, ct, cp, sp):
    """Chart frame at points given by the sines and cosines of their angles.

    Returns (nhat, that, phat, st, ct): the unit direction and the unit
    colatitude and longitude tangents, each (N, 3), then the inputs.
    """
    nhat = np.stack([st * cp, st * sp, ct], axis=-1)
    that = np.stack([ct * cp, ct * sp, -st], axis=-1)
    phat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return nhat, that, phat, st, ct


@dataclass
class SphereJets:
    """Point values and chart derivatives of a graph function on a grid."""

    f: np.ndarray
    dth: np.ndarray
    dph: np.ndarray
    dthth: np.ndarray
    dthph: np.ndarray
    dphph: np.ndarray


def _points(rho, center, nhat):
    """Graph points center + rho * direction, (N, 3)."""
    return np.asarray(center)[None, :] + rho[:, None] * nhat


def _embedding(jets: SphereJets, center, scale, frames):
    """Embedding and its chart derivatives from graph jets.

    ``frames`` is ``_frame``'s result at the jets' points.  Returns X, X_th,
    X_ph, X_thth, X_thph, X_phph with shape (N, 3).
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


def _order_sums(Pblk: np.ndarray, C: np.ndarray, L: int) -> np.ndarray:
    """Colatitude sums per order, shape (2L+1, npts).

    Row m + L holds sum_l Pblk[l, |m|] C[m + L, l] at each of ``Pblk``'s
    colatitudes, for a Legendre stack ``Pblk`` (or a derivative of it) and a
    coefficient table ``C`` from ``_coeff_table``.
    """
    A = np.zeros((2 * L + 1, Pblk.shape[-1]), dtype=C.dtype)
    for m in range(-L, L + 1):
        A[m + L] = Pblk[:, abs(m), :].T @ C[m + L]
    return A


def _product_jets(coeffs: np.ndarray, L: int, theta_blocks,
                  trig_blocks) -> SphereJets:
    """Jets of a coefficient vector on a product of colatitudes x longitudes.

    ``theta_blocks`` is ``_theta_block``'s (P, dP, ddP) at the colatitudes
    and ``trig_blocks`` ``_trig_block``'s (T, dT) at the longitudes; the
    fields are flattened colatitude-major.
    """
    T, dT = trig_blocks
    C = _coeff_table(np.asarray(coeffs), L)
    Av, Ad, Add = (_order_sums(block, C, L) for block in theta_blocks)
    m2 = (np.arange(-L, L + 1) ** 2)[:, None]
    f = (Av.T @ T).ravel()
    dth = (Ad.T @ T).ravel()
    dph = (Av.T @ dT).ravel()
    dthth = (Add.T @ T).ravel()
    dthph = (Ad.T @ dT).ravel()
    dphph = (Av.T @ (-m2 * T)).ravel()
    return SphereJets(f, dth, dph, dthth, dthph, dphph)


def synthesize(coeffs: np.ndarray, grid: QuadratureGrid, L: int) -> SphereJets:
    """Evaluate a coefficient vector and its chart derivatives on the grid.

    Uses the separable theta/phi structure, so no dense node-by-coefficient
    matrix is materialized.
    """
    grid.require_capacity(L)
    return _product_jets(coeffs, L, grid.theta_block(L), grid.trig_block(L))


def values_at(coeffs: np.ndarray, L: int, unit_vectors: np.ndarray) -> np.ndarray:
    """Values of a coefficient vector at arbitrary unit vectors, (npts,).

    The per-order colatitude sums of ``synthesize`` at each point's
    colatitude, times the longitude factors at its longitude; no
    point-by-coefficient matrix is formed.
    """
    v = np.asarray(unit_vectors, dtype=float).reshape(-1, 3)
    ct = np.clip(v[:, 2], -1.0, 1.0)
    st = np.sqrt(np.maximum(1.0 - ct * ct, 1e-300))
    C = _coeff_table(np.asarray(coeffs), L)
    sums = _order_sums(_legendre(L, ct, st), C, L)
    T, _ = _trig_block(L, np.arctan2(v[:, 1], v[:, 0]))
    return np.einsum("mk,mk->k", sums, T)


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


def working_grid(L: int) -> QuadratureGrid:
    """The solve and measurement grid of degree-L surfaces.

    Every Newton solve, foliation leaf, scan row and expansion fit of degree
    L works on this grid; ``refined()`` of it certifies a solve.  At least
    (32, 64), so that every L <= 30 shares one grid, and above that
    (L + 2, 2L + 3), a margin over the (L + 1, 2L + 1) that degree L needs.
    """
    return quadrature_grid(max(32, L + 2), max(64, 2 * L + 3))


def _guard_grid(L: int) -> QuadratureGrid:
    """2x refined evaluation grid used for norm guards, r0 measurements,
    moment normalization and stability spectra."""
    return quadrature_grid(2 * (L + 1), 2 * (2 * L + 1))


def c1_seminorms(coeffs: np.ndarray, L: int) -> tuple[float, float]:
    """(max |f|, max |grad f|) of the unit graph on the refined guard grid."""
    grid = _guard_grid(L)
    jets = synthesize(coeffs, grid, L)
    st = np.repeat(grid.sin_theta, grid.n_phi)
    grad = np.sqrt(jets.dth**2 + (jets.dph / st) ** 2)
    return float(np.max(np.abs(jets.f))), float(np.max(grad))


C1_EMBEDDING_BOUND = 0.5

# the Newton polish of SphereGraph.r0, in the chart angles (radians)
R0_STEP_CAP = 0.1        # longest step
R0_MAX_STEPS = 12
R0_STEP_TOL = 1e-10      # a shorter step ends the polish
R0_RCOND = 1e-10         # relative cut of the Hessian's singular values
R0_POLE_GAP = 1e-8       # colatitude kept this far from the poles


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

    def radial_values(self, unit_vectors: np.ndarray) -> np.ndarray:
        """Distances from center to the surface along the given directions."""
        return self.scale * (1.0 + values_at(self.coeffs, self.L, unit_vectors))

    def points(self, grid: QuadratureGrid) -> np.ndarray:
        jets = synthesize(self.coeffs, grid, self.L)
        return _points(self.scale * (1.0 + jets.f), self.center, grid.nodes)

    def r0(self) -> float:
        """Distance from the chart origin to the surface.

        The minimum of |X| over the refined guard grid, polished by Newton
        steps on |X|^2 / 2 in the chart angles (gradient X.X_a, Hessian
        X_a.X_b + X.X_ab), from the graph's jets at the current point.
        Each step is a least-squares solve, so a degenerate minimum (a ring)
        takes no step along its flat direction; steps are capped at
        ``R0_STEP_CAP`` and the colatitude stays ``R0_POLE_GAP`` away from
        the poles, where the chart is singular.  The smallest |X| seen is
        returned.  Computed on the first call and cached, since graphs are
        immutable.
        """
        if self._r0 is not None:
            return self._r0
        grid = _guard_grid(self.L)
        dist = np.linalg.norm(self.points(grid), axis=-1)
        k = int(np.argmin(dist))
        best = float(dist[k])
        angles = np.array([grid.theta[k // grid.n_phi],
                           grid.phi[k % grid.n_phi]])
        for _ in range(R0_MAX_STEPS):
            th, ph = angles[:1], angles[1:]
            ct, st = np.cos(th), np.sin(th)
            jets = _product_jets(self.coeffs, self.L,
                                 _theta_block(self.L, ct, st),
                                 _trig_block(self.L, ph))
            X, Xth, Xph, Xthth, Xthph, Xphph = (a[0] for a in _embedding(
                jets, self.center, self.scale,
                _frame(st, ct, np.cos(ph), np.sin(ph))))
            best = min(best, float(np.linalg.norm(X)))
            grad = np.array([X @ Xth, X @ Xph])
            mixed = Xth @ Xph + X @ Xthph
            hess = np.array([[Xth @ Xth + X @ Xthth, mixed],
                             [mixed, Xph @ Xph + X @ Xphph]])
            step = np.linalg.lstsq(hess, -grad, rcond=R0_RCOND)[0]
            size = float(np.linalg.norm(step))
            if size > R0_STEP_CAP:
                step *= R0_STEP_CAP / size
            moved = angles + step
            moved[0] = np.clip(moved[0], R0_POLE_GAP, math.pi - R0_POLE_GAP)
            if np.linalg.norm(moved - angles) <= R0_STEP_TOL:
                break
            angles = moved
        self._r0 = best
        return best

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


# moment_normalize's fixed-point iteration: step cap and first-moment target;
# its inner radial solve: step cap and distance tolerance
MOMENT_MAX_STEPS = 50
MOMENT_TOL = 1e-13
RADII_MAX_STEPS = 30
RADII_TOL = 1e-14


def _translated_radii(coeffs, L, grid, v, warm=None):
    """Radial function of the surface {(1+f)w} about the shifted center v.

    Solves per node direction d: find t > 0 with |v + t d| = 1 + f(unit(v+td)).
    Returns the node-wise distances t.
    """
    d = grid.nodes
    vd = d @ v
    v2 = float(v @ v)
    t = warm.copy() if warm is not None else np.ones(grid.n_nodes)
    for _ in range(RADII_MAX_STEPS):
        p = v[None, :] + t[:, None] * d
        u = p / np.linalg.norm(p, axis=-1, keepdims=True)
        R = 1.0 + values_at(coeffs, L, u)
        t_new = -vd + np.sqrt(vd * vd + R * R - v2)
        if np.max(np.abs(t_new - t)) <= RADII_TOL:
            return t_new
        t = t_new
    return t


def moment_normalize(graph: SphereGraph):
    """Translate and homothetically rescale a graph to kill low moments.

    Finds the center shift v (a fixed point of the translation-moment map)
    such that the re-graphed function has vanishing first moments, then
    rescales away the mean.  Returns (normalized_graph, applied_translation,
    scale_factor).  The output coefficients satisfy integral f = 0 and
    integral x^a f = 0 to quadrature precision, and the geometric surface is
    unchanged.

    Works on the guard grid of the graph's degree.  Requires
    ``c1 norm < 0.2``; raises NormalizationError if the moment iteration
    fails to contract below ``MOMENT_TOL`` within ``MOMENT_MAX_STEPS`` steps.
    """
    if graph.c1_norm >= 0.2:
        raise PreconditionError(
            f"moment normalization needs C1 norm < 0.2, got {graph.c1_norm:.4g}"
        )
    L = graph.L
    grid = _guard_grid(L)
    w = grid.weights
    nodes = grid.nodes
    v = np.zeros(3)
    warm = None
    residual = np.inf
    for _ in range(MOMENT_MAX_STEPS):
        t = _translated_radii(graph.coeffs, L, grid, v, warm=warm)
        warm = t
        fv = t - 1.0
        moment = (3.0 / (4.0 * np.pi)) * (w * fv) @ nodes
        residual = float(np.linalg.norm(moment))
        if residual <= MOMENT_TOL:
            break
        v = v + moment
    else:
        raise NormalizationError(
            f"moment iteration did not contract below {MOMENT_TOL:g}",
            residual=residual
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
