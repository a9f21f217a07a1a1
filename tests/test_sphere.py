"""Quadrature grid, harmonic transform, graph type, normalization."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cmclab.sphere as sphere
from cmclab.errors import CapacityError, EmbeddingError
from cmclab.sphere import (JET_KEYS, QuadratureGrid, SphereGraph,
                           _coeff_table, _table_coeffs, _theta_block, analyze,
                           basis_at, c1_seminorms, corpus_graph,
                           degree_of_index, galerkin, index_lm, lm_index,
                           moment_normalize, n_coeffs, quadrature_grid,
                           synthesize)

FOUR_PI = 4.0 * math.pi


def test_weights_sum_to_sphere_area(small_grid):
    assert np.sum(small_grid.weights) == pytest.approx(FOUR_PI, abs=1e-13)


def test_capacity_formula():
    g = QuadratureGrid(8, 16)
    assert g.capacity == min(8 - 1, (16 - 1) // 2)
    g.require_capacity(7)
    with pytest.raises(CapacityError):
        g.require_capacity(8)


def test_index_maps_are_inverse():
    for l in range(7):
        for m in range(-l, l + 1):
            assert index_lm(lm_index(l, m)) == (l, m)
    degs = degree_of_index(6)
    assert degs[0] == 0 and degs[3] == 1 and degs[4] == 2
    assert len(degs) == n_coeffs(6)


def test_known_harmonic_point_values(small_grid):
    # orthonormal real convention: Y_00 = 1/sqrt(4pi), Y_10 = sqrt(3/4pi) cos(theta)
    c = np.zeros(n_coeffs(2))
    c[lm_index(0, 0)] = 1.0
    f = synthesize(c, small_grid, 2).f
    assert f == pytest.approx(np.full_like(f, 1.0 / math.sqrt(FOUR_PI)), abs=1e-14)

    c = np.zeros(n_coeffs(2))
    c[lm_index(1, 0)] = 1.0
    f = synthesize(c, small_grid, 2).f
    ct = np.repeat(small_grid.cos_theta, small_grid.n_phi)
    assert f == pytest.approx(math.sqrt(3.0 / FOUR_PI) * ct, abs=1e-14)

    # m = 1 carries the Condon-Shortley phase: the basis function is -x
    c = np.zeros(n_coeffs(2))
    c[lm_index(1, 1)] = 1.0
    f = synthesize(c, small_grid, 2).f
    x = small_grid.nodes[:, 0]
    assert f == pytest.approx(-math.sqrt(3.0 / FOUR_PI) * x, abs=1e-14)


def test_orthonormal_gram(small_grid):
    B = small_grid.basis_matrices(8)["val"]
    gram = B.T @ (B * small_grid.weights[:, None])
    assert gram == pytest.approx(np.eye(n_coeffs(8)), abs=1e-12)


def test_transform_roundtrip_and_parseval(small_grid, rng):
    L = 9
    coeffs = rng.standard_normal(n_coeffs(L))
    jets = synthesize(coeffs, small_grid, L)
    back = analyze(jets.f, small_grid, L)
    assert back == pytest.approx(coeffs, abs=1e-12)
    assert np.sum(small_grid.weights * jets.f**2) == pytest.approx(
        np.sum(coeffs**2), abs=1e-10)


def test_derivatives_match_refined_differences(small_grid):
    # spectral dth against a one-mode closed form
    L = 4
    c = np.zeros(n_coeffs(L))
    c[lm_index(2, 0)] = 1.0
    jets = synthesize(c, small_grid, L)
    ct = np.repeat(small_grid.cos_theta, small_grid.n_phi)
    st = np.repeat(small_grid.sin_theta, small_grid.n_phi)
    # Y_20 = sqrt(5/4pi) (3cos^2 - 1)/2, d/dtheta = -3 sqrt(5/4pi) cos sin
    a = math.sqrt(5.0 / FOUR_PI)
    assert jets.f == pytest.approx(a * (3 * ct**2 - 1) / 2, abs=1e-13)
    assert jets.dth == pytest.approx(-3 * a * ct * st, abs=1e-13)
    assert jets.dthth == pytest.approx(-3 * a * (ct**2 - st**2), abs=1e-12)
    assert not jets.dph.any()


@given(st.integers(0, 10_000), st.integers(2, 6))
def test_roundtrip_property(seed, L):
    rng = np.random.default_rng(seed)
    grid = QuadratureGrid(2 * (L + 1), 2 * (2 * L + 1))
    coeffs = rng.standard_normal(n_coeffs(L))
    assert analyze(synthesize(coeffs, grid, L).f, grid, L) == pytest.approx(
        coeffs, abs=1e-11)


def test_embedding_guard():
    c = np.zeros(n_coeffs(4))
    c[lm_index(2, 0)] = 1.0          # C1 norm far above 0.5
    with pytest.raises(EmbeddingError) as exc:
        SphereGraph(np.zeros(3), 1.0, 4, c)
    assert exc.value.c1_norm > 0.5


def test_c1_seminorms_scale_linearly():
    c = np.zeros(n_coeffs(3))
    c[lm_index(2, 1)] = 0.01
    f1, g1 = c1_seminorms(c, 3)
    f2, g2 = c1_seminorms(2.0 * c, 3)
    assert f2 == pytest.approx(2.0 * f1, rel=1e-12)
    assert g2 == pytest.approx(2.0 * g1, rel=1e-12)


def test_round_sphere_and_r0():
    g = SphereGraph.round_sphere(3.0, center=(10.0, 0.0, 0.0), L=6)
    assert g.r0() == pytest.approx(7.0, abs=1e-10)
    assert not g.encloses_origin()
    centered = SphereGraph.round_sphere(3.0, L=6)
    assert centered.r0() == pytest.approx(3.0, abs=1e-12)
    assert centered.encloses_origin()


def test_graph_serialization_roundtrip(rng):
    c = np.zeros(n_coeffs(5))
    c[4:] = 0.003 * rng.standard_normal(n_coeffs(5) - 4)
    g = SphereGraph(np.array([1.0, -2.0, 0.5]), 2.5, 5, c)
    h = SphereGraph.from_json_dict(g.to_json_dict())
    assert np.array_equal(g.coeffs, h.coeffs)
    assert np.array_equal(g.center, h.center)
    assert g.scale == h.scale and g.L == h.L


def test_moment_normalize_posts(grid):
    rng = np.random.default_rng(77)
    c = np.zeros(n_coeffs(6))
    c[4:] = 0.002 * rng.standard_normal(n_coeffs(6) - 4)
    g = SphereGraph(np.array([0.03, -0.02, 0.01]), 1.0, 6, c)
    normed, shift, factor = moment_normalize(g)
    f = synthesize(normed.coeffs, grid, normed.L).f
    for i in range(3):
        assert np.sum(grid.weights * f * grid.nodes[:, i]) == pytest.approx(
            0.0, abs=1e-10)
    assert normed.coeffs[0] == pytest.approx(0.0, abs=1e-12)
    assert factor > 0.0

    again, shift2, factor2 = moment_normalize(normed)
    assert again.coeffs == pytest.approx(normed.coeffs, abs=1e-11)
    assert np.linalg.norm(shift2) < 1e-11
    assert factor2 == pytest.approx(1.0, abs=1e-11)


def test_moment_normalize_preserves_surface(grid):
    # same point set, new parametrization: compare flat areas
    from cmclab.geometry import build_geometry
    from cmclab import metrics as mt

    rng = np.random.default_rng(3)
    c = np.zeros(n_coeffs(5))
    c[4:] = 0.002 * rng.standard_normal(n_coeffs(5) - 4)
    g = SphereGraph(np.array([0.01, 0.02, -0.015]), 1.0, 5, c)
    normed, _, factor = moment_normalize(g)
    a0 = build_geometry(g, mt.euclidean_model(), grid).area_bar()
    a1 = build_geometry(normed, mt.euclidean_model(), grid).area_bar()
    assert a1 == pytest.approx(a0 / factor**2, rel=1e-9)


def test_moment_normalize_rejects_large_graphs():
    from cmclab.errors import PreconditionError

    # inside the embedding bound but beyond the contraction regime
    c = np.zeros(n_coeffs(4))
    c[lm_index(2, 0)] = 0.2
    g = SphereGraph(np.zeros(3), 1.0, 4, c)
    with pytest.raises(PreconditionError):
        moment_normalize(g)


def test_corpus_graph_deterministic_and_bounded():
    a = corpus_graph(11)
    b = corpus_graph(11)
    assert np.array_equal(a.coeffs, b.coeffs)
    fmax, gmax = c1_seminorms(a.coeffs, a.L)
    assert fmax + gmax <= 0.1 + 1e-12
    assert not np.array_equal(a.coeffs, corpus_graph(12).coeffs)


# --- point evaluator against the per-(l, m) reference construction ---

def reference_theta_block(L, ct, st):
    """Legendre table built one (l, m) entry at a time, with derivatives."""
    npts = ct.shape[0]
    P = np.zeros((L + 1, L + 1, npts))
    dP = np.zeros_like(P)
    ddP = np.zeros_like(P)
    P[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, L + 1):
        P[m, m] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * st * P[m - 1, m - 1]
    for m in range(L):
        P[m + 1, m] = math.sqrt(2.0 * m + 3.0) * ct * P[m, m]
    for m in range(L + 1):
        for l in range(m + 2, L + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            P[l, m] = a * (ct * P[l - 1, m] - b * P[l - 2, m])
    for l in range(1, L + 1):
        dP[l, 0] = math.sqrt(l * (l + 1.0)) * P[l, 1]
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


def reference_basis_at(unit_vectors, L):
    v = np.asarray(unit_vectors, dtype=float)
    ct = np.clip(v[..., 2], -1.0, 1.0).ravel()
    st = np.sqrt(np.maximum(1.0 - ct * ct, 1e-300))
    phi = np.arctan2(v[..., 1], v[..., 0]).ravel()
    P, _, _ = reference_theta_block(L, ct, st)
    out = np.empty((ct.shape[0], n_coeffs(L)))
    s2 = math.sqrt(2.0)
    for l in range(L + 1):
        out[:, lm_index(l, 0)] = P[l, 0]
        for m in range(1, l + 1):
            out[:, lm_index(l, m)] = s2 * P[l, m] * np.cos(m * phi)
            out[:, lm_index(l, -m)] = s2 * P[l, m] * np.sin(m * phi)
    return out


POLES = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


@pytest.mark.parametrize("L", [0, 1, 2, 16, 24])
def test_basis_at_matches_reference_bitwise(L):
    rng = np.random.default_rng(100 + L)
    v = rng.standard_normal((57, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v = np.concatenate([POLES, v])
    assert np.array_equal(basis_at(v, L), reference_basis_at(v, L))
    # one point at a time, as the r0 search and encloses_origin call it
    for point in np.concatenate([POLES, v[2:7]]):
        assert np.array_equal(basis_at(point[None, :], L),
                              reference_basis_at(point[None, :], L))


@pytest.mark.parametrize("L", [0, 1, 2, 16, 24])
def test_theta_block_matches_reference_bitwise(L):
    grid = QuadratureGrid(L + 2, 2 * L + 3)
    got = _theta_block(L, grid.cos_theta, grid.sin_theta)
    want = reference_theta_block(L, grid.cos_theta, grid.sin_theta)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def counting_basis_at(monkeypatch):
    calls = []
    original = sphere.basis_at

    def counted(unit_vectors, L):
        calls.append(L)
        return original(unit_vectors, L)

    monkeypatch.setattr(sphere, "basis_at", counted)
    return calls


def test_r0_is_computed_once_per_graph(monkeypatch):
    g = corpus_graph(5, L=8, c1_target=0.05, scale=2.0, center=(5.0, 1.0, 0.0))
    calls = counting_basis_at(monkeypatch)
    first = g.r0()
    assert calls
    n_first = len(calls)
    assert g.r0() == first
    assert len(calls) == n_first

    # a new graph gets its own search and its own value
    h = g.with_coeffs(0.5 * g.coeffs)
    assert h.r0() != first
    assert len(calls) > n_first
    assert g.r0() == first


# --- basis matrices against the per-(l, m) reference construction ---

def reference_basis_matrices(grid, L):
    """The six jet matrices filled one (l, m) column at a time."""
    P, dP, ddP = grid.theta_block(L)
    T, dT = grid.trig_block(L)
    n = n_coeffs(L)
    mats = {k: np.empty((grid.n_nodes, n)) for k in JET_KEYS}
    for l in range(L + 1):
        for m in range(-l, l + 1):
            idx = lm_index(l, m)
            am = abs(m)
            th, dth, ddth = P[l, am], dP[l, am], ddP[l, am]
            tr, dtr = T[m + L], dT[m + L]
            ddtr = -(m * m) * tr
            mats["val"][:, idx] = np.outer(th, tr).ravel()
            mats["dth"][:, idx] = np.outer(dth, tr).ravel()
            mats["dph"][:, idx] = np.outer(th, dtr).ravel()
            mats["dthth"][:, idx] = np.outer(ddth, tr).ravel()
            mats["dthph"][:, idx] = np.outer(dth, dtr).ravel()
            mats["dphph"][:, idx] = np.outer(th, ddtr).ravel()
    return mats


def basis_keys(grid):
    return {k for k in grid._cache if k[0] == "B"}


@pytest.mark.parametrize("L", [0, 1, 2, 8, 16, 24])
def test_basis_matrices_match_reference_bitwise(L):
    grid = QuadratureGrid(L + 2, 2 * L + 3)
    want = reference_basis_matrices(grid, L)
    got = grid.basis_matrices(L)
    assert set(got) == set(JET_KEYS)
    for key in JET_KEYS:
        assert np.array_equal(got[key], want[key]), key
        assert got[key].flags.c_contiguous
        assert got[key].shape == (grid.n_nodes, n_coeffs(L))


@pytest.mark.parametrize("keys", [("val", "dth", "dph"), ("dphph",),
                                  ("dthph", "val")])
def test_basis_matrices_build_only_the_requested_keys(keys):
    L = 8
    grid = QuadratureGrid(L + 3, 2 * L + 4)
    want = reference_basis_matrices(grid, L)
    got = grid.basis_matrices(L, keys=keys)
    assert set(got) == set(keys)
    assert basis_keys(grid) == {("B", L, k) for k in keys}
    for key in keys:
        assert np.array_equal(got[key], want[key])
        assert got[key].flags.c_contiguous
    # a later request for every key reuses the cached ones
    again = grid.basis_matrices(L)
    for key in keys:
        assert again[key] is got[key]
    assert basis_keys(grid) == {("B", L, k) for k in JET_KEYS}


def test_quadrature_grid_is_shared_per_shape():
    grid = quadrature_grid(10, 19)
    assert quadrature_grid(10, 19) is grid
    assert quadrature_grid(11, 19) is not grid
    assert grid.refined(2) is quadrature_grid(20, 38)
    assert sphere._guard_grid(4) is quadrature_grid(10, 18)


def test_grid_arrays_are_read_only():
    grid = quadrature_grid(9, 17)
    held = [grid.cos_theta, grid.sin_theta, grid.theta, grid.theta_weights,
            grid.phi, grid.weights, grid.nodes]
    held += list(grid.frames()) + list(grid.theta_block(4))
    held += list(grid.trig_block(4)) + list(grid.basis_matrices(4).values())
    held += list(grid.theta_columns(4))
    for array in held:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0


def test_sphere_graph_compares_by_identity():
    a = SphereGraph.round_sphere(2.0, L=4)
    b = SphereGraph.round_sphere(2.0, L=4)
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2


# --- coefficient tables against the per-(l, m) loops they replace ---

def reference_coeff_table(coeffs, L):
    C = np.zeros((2 * L + 1, L + 1), dtype=coeffs.dtype)
    for l in range(L + 1):
        for m in range(-l, l + 1):
            C[m + L, l] = coeffs[lm_index(l, m)]
    return C


def reference_table_coeffs(C, L):
    out = np.zeros(n_coeffs(L), dtype=C.dtype)
    for l in range(L + 1):
        for m in range(-l, l + 1):
            out[lm_index(l, m)] = C[m + L, l]
    return out


@pytest.mark.parametrize("L", [0, 1, 2, 8, 24])
@pytest.mark.parametrize("dtype", [float, complex])
def test_coeff_tables_match_reference_loops(L, dtype):
    rng = np.random.default_rng(L)
    coeffs = rng.standard_normal(n_coeffs(L)).astype(dtype)
    if dtype is complex:
        coeffs += 1j * rng.standard_normal(n_coeffs(L))
    table = _coeff_table(coeffs, L)
    assert table.dtype == coeffs.dtype
    assert np.array_equal(table, reference_coeff_table(coeffs, L))
    full = rng.standard_normal((2 * L + 1, L + 1)).astype(dtype)
    back = _table_coeffs(full, L)
    assert back.dtype == full.dtype
    assert np.array_equal(back, reference_table_coeffs(full, L))
    assert np.array_equal(_table_coeffs(table, L), coeffs)


# --- sum-factorised Galerkin matrices against the dense products ---

@pytest.mark.parametrize("L", [0, 1, 2, 8, 16, 24])
def test_galerkin_matches_dense_products(L):
    grid = QuadratureGrid(L + 3, 2 * L + 4)
    B = reference_basis_matrices(grid, L)
    rng = np.random.default_rng(L)
    for key_a in JET_KEYS:
        for key_b in JET_KEYS:
            W = rng.standard_normal(grid.n_nodes) * grid.weights
            want = B[key_a].T @ (W[:, None] * B[key_b])
            got = galerkin(grid, L, [(key_a, key_b, W)])
            assert got.shape == (n_coeffs(L), n_coeffs(L))
            assert (np.max(np.abs(got - want))
                    <= 1e-13 * np.max(np.abs(want))), (key_a, key_b)
    # several terms, some sharing a colatitude factor pair, add up
    Ws = [rng.standard_normal(grid.n_nodes) for _ in JET_KEYS]
    terms = [("val", k, W) for k, W in zip(JET_KEYS, Ws)]
    terms += [("dph", "dth", Ws[0]), ("dth", "dth", Ws[1])]
    want = sum(B[a].T @ (W[:, None] * B[b]) for a, b, W in terms)
    got = galerkin(grid, L, terms)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
