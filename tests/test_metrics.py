"""Metric backend: closed-form fields against finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmclab import metrics as mt
from cmclab.errors import DomainError


def fd_metric_derivative(model, x, step=1e-6):
    """Central-difference oracle for d_k g_ij."""
    out = np.zeros((3, 3, 3))
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = step
        gp, _, _ = mt.evaluate_metric(model, x + dx)
        gm, _, _ = mt.evaluate_metric(model, x - dx)
        out[k] = (gp - gm) / (2.0 * step)
    return out


def fd_second_derivative(model, x, step=1e-5):
    """Central-difference oracle for d_k d_l g_ij from the first derivatives."""
    out = np.zeros((3, 3, 3, 3))
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = step
        _, dgp, _ = mt.evaluate_metric(model, x + dx)
        _, dgm, _ = mt.evaluate_metric(model, x - dx)
        out[k] = (dgp - dgm) / (2.0 * step)
    return out


PERTURBED = mt.perturbed_model(
    1.0,
    mt.PerturbationSpec(terms=(
        mt.PerturbationTerm(power=2.0, amplitude=0.3, i=0, j=1,
                            profile=((1.0, (0, 0, 2)),)),
        mt.PerturbationTerm(power=3.0, amplitude=0.5, i=2, j=2,
                            profile=((1.0, (1, 1, 0)),)),
    )))


def sample_points(rng, n, step=0.0):
    """n points with 2.5 <= |x| <= 10.5 (both sides of the perturbation's
    ramp), shifted by an imaginary step when ``step`` is nonzero."""
    x = rng.uniform(-1, 1, (n, 3))
    x *= (2.5 + 8.0 * rng.random(n))[:, None] / np.linalg.norm(x, axis=1)[:, None]
    return x + 1j * step * rng.standard_normal((n, 3)) if step else x


def test_euclidean_identity():
    pts = np.array([[1.5, 0.0, 0.0], [3.0, -2.0, 1.0]])
    g, dg, ddg = mt.evaluate_metric(mt.euclidean_model(), pts)
    assert np.array_equal(g[0], np.eye(3))
    assert not dg.any() and not ddg.any()


def test_schwarzschild_conformal_closed_form():
    # g = (1 + m/2|x|)^4 delta; at |x| = 4, m = 1 the factor is 1.125^4
    model = mt.schwarzschild_model(1.0)
    g, _, _ = mt.evaluate_metric(model, np.array([4.0, 0.0, 0.0]))
    assert g == pytest.approx(1.125**4 * np.eye(3), abs=1e-15)


def test_zero_mass_is_flat():
    g, dg, ddg = mt.evaluate_metric(mt.schwarzschild_model(0.0),
                                    np.array([2.0, 1.0, -1.0]))
    assert np.array_equal(g, np.eye(3))
    assert not dg.any() and not ddg.any()


@pytest.mark.parametrize("model", [mt.schwarzschild_model(1.3), PERTURBED])
def test_first_derivative_fd_oracle(model, rng):
    for _ in range(5):
        x = rng.uniform(-5, 5, 3)
        x *= (3.0 + 4.0 * rng.random()) / np.linalg.norm(x)
        _, dg, _ = mt.evaluate_metric(model, x)
        assert dg == pytest.approx(fd_metric_derivative(model, x), abs=2e-9)


@pytest.mark.parametrize("model", [mt.schwarzschild_model(1.3), PERTURBED])
def test_second_derivative_fd_oracle(model, rng):
    for _ in range(5):
        x = rng.uniform(-5, 5, 3)
        x *= (3.0 + 4.0 * rng.random()) / np.linalg.norm(x)
        _, _, ddg = mt.evaluate_metric(model, x)
        assert ddg == pytest.approx(fd_second_derivative(model, x), abs=2e-7)


def test_christoffel_fd_oracle(rng):
    model = mt.schwarzschild_model(2.0)
    x = np.array([3.0, -4.0, 2.0])
    g, dg, _ = mt.evaluate_metric(model, x)
    gam, ginv = mt.christoffel(g, dg)
    dg_fd = fd_metric_derivative(model, x)
    gam_fd = np.zeros((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                gam_fd[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg_fd[i, l, j] + dg_fd[j, i, l] - dg_fd[l, i, j])
                    for l in range(3))
    assert gam == pytest.approx(gam_fd, abs=1e-9)


def test_schwarzschild_scalar_flat(rng):
    # the conformal factor is harmonic, so the slice has zero scalar curvature
    model = mt.schwarzschild_model(1.7)
    pts = rng.uniform(-6, 6, (30, 3))
    pts *= (2.5 + 5.0 * rng.random(30))[:, None] / np.linalg.norm(pts, axis=1)[:, None]
    assert np.max(np.abs(mt.scalar_curvature(model, pts))) < 1e-10


def test_ricci_symmetry_and_trace(rng):
    pts = rng.uniform(3, 6, (10, 3))
    ric = mt.curvature_tensors(PERTURBED, pts)[2]
    assert ric == pytest.approx(np.swapaxes(ric, -1, -2), abs=1e-12)
    g, _, _ = mt.evaluate_metric(PERTURBED, pts)
    tr = np.einsum("nij,nij->n", np.linalg.inv(g), ric)
    assert tr == pytest.approx(mt.scalar_curvature(PERTURBED, pts), abs=1e-10)


def test_domain_error_inside_unit_ball():
    with pytest.raises(DomainError) as exc:
        mt.evaluate_metric(mt.schwarzschild_model(1.0),
                           np.array([0.5, 0.0, 0.0]))
    assert exc.value.radius == pytest.approx(0.5)


def test_perturbation_vanishes_inside_cutoff():
    g, dg, ddg = mt.evaluate_metric(PERTURBED, np.array([1.5, 0.9, 0.0]))
    g0, dg0, ddg0 = mt.evaluate_metric(
        mt.schwarzschild_model(1.0), np.array([1.5, 0.9, 0.0]))
    assert np.array_equal(g, g0)
    assert np.array_equal(dg, dg0) and np.array_equal(ddg, ddg0)


def test_perturbation_ramp_is_c1(rng):
    # finite differences across the ramp edges stay bounded like the interior
    model = PERTURBED
    for r in (2.0, 4.0):
        x = np.array([r, 0.0, 0.0])
        d = fd_metric_derivative(model, x, step=1e-7)
        _, dg, _ = mt.evaluate_metric(model, x)
        assert d == pytest.approx(dg, abs=1e-6)


def test_perturbation_quadratic_decay():
    spec = mt.PerturbationSpec(terms=(
        mt.PerturbationTerm(power=2.0, amplitude=0.4, i=0, j=0),))
    model = mt.perturbed_model(1.0, spec)
    flat = mt.schwarzschild_model(1.0)
    for r in (8.0, 16.0, 32.0):
        x = np.array([0.0, r, 0.0])
        sig = mt.evaluate_metric(model, x)[0] - mt.evaluate_metric(flat, x)[0]
        assert sig[0, 0] == pytest.approx(0.4 / r**2, rel=1e-12)


@given(st.floats(0.1, 4.0), st.integers(0, 10_000))
def test_metric_symmetric_positive_definite(mass, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, 3)
    x *= (2.5 + 8.0 * rng.random()) / np.linalg.norm(x)
    g, _, _ = mt.evaluate_metric(mt.schwarzschild_model(mass), x)
    assert g == pytest.approx(g.T, abs=1e-15)
    assert np.min(np.linalg.eigvalsh(g)) > 0.0


def test_model_guards():
    with pytest.raises(ValueError):
        mt.schwarzschild_model(-1.0)
    with pytest.raises(ValueError):
        mt.MetricModel(mt.EUCLIDEAN, mass=1.0)
    with pytest.raises(ValueError):
        mt.MetricModel(mt.PERTURBED, mass=1.0)
    with pytest.raises(ValueError):
        mt.PerturbationTerm(power=1.5, amplitude=0.1, i=0, j=0)


def test_model_serialization_roundtrip():
    for model in (mt.euclidean_model(), mt.schwarzschild_model(2.5), PERTURBED):
        assert mt.model_from_dict(mt.model_to_dict(model)) == model


@pytest.mark.parametrize("model", [mt.schwarzschild_model(1.5), PERTURBED],
                         ids=["schwarzschild", "perturbed"])
def test_curvature_tensors_reuse_a_given_metric_bitwise(model, rng):
    x = 3.0 + 4.0 * rng.random((20, 3))
    metric = mt.evaluate_metric(model, x)
    connection = mt.christoffel(metric[0], metric[1])
    ref = np.linalg.inv(metric[0])
    assert np.max(np.abs(connection[1] - ref)) <= 1e-14 * np.max(np.abs(ref))
    want = mt.curvature_tensors(model, x)
    for got in (mt.curvature_tensors(model, x, metric=metric),
                mt.curvature_tensors(model, x, metric=metric,
                                     connection=connection)):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def reference_curvature_tensors(model, x):
    """The seed's route: d_m Gamma from the derivative of the inverse metric."""
    g, dg, ddg = mt.evaluate_metric(model, x)
    Gam, ginv = mt.christoffel(g, dg)
    dginv = -np.einsum("...ak,...mkl,...lb->...mab", ginv, dg, ginv)
    lower = np.swapaxes(dg, -3, -2) + np.einsum("...jil->...lij", dg) - dg
    dlower = np.swapaxes(ddg, -3, -2) + np.einsum("...mjil->...mlij", ddg) - ddg
    dGam = 0.5 * (np.einsum("...mkl,...lij->...mkij", dginv, lower)
                  + np.einsum("...kl,...mlij->...mkij", ginv, dlower))
    riem = (np.einsum("...iljk->...lijk", dGam)
            - np.einsum("...jlik->...lijk", dGam)
            + np.einsum("...lim,...mjk->...lijk", Gam, Gam)
            - np.einsum("...ljm,...mik->...lijk", Gam, Gam))
    ric = np.einsum("...iijk->...jk", riem)
    return Gam, riem, ric, np.einsum("...jk,...jk->...", ginv, ric)


@pytest.mark.parametrize("model", [mt.schwarzschild_model(1.5), PERTURBED],
                         ids=["schwarzschild", "perturbed"])
@pytest.mark.parametrize("step", [0.0, 1e-20], ids=["real", "complex-step"])
def test_curvature_tensors_match_the_inverse_derivative_route(model, step, rng):
    # real points and complex-step points, whose imaginary parts are the
    # directional derivatives of each tensor
    x = sample_points(rng, 2048, step)
    # R vanishes in schwarzschild, so every tensor is held to the Riemann scale
    got = mt.curvature_tensors(model, x)[1:]
    want = reference_curvature_tensors(model, x)[1:]
    for part in (np.real, np.imag):
        scale = np.max(np.abs(part(want[0])))
        assert (scale > 0.0) == (part is np.real or step > 0.0)
        for g, w in zip(got, want):
            assert np.max(np.abs(part(g) - part(w))) <= 1e-13 * scale


MODELS = [mt.euclidean_model(), mt.schwarzschild_model(1.5), PERTURBED]
MODEL_IDS = ["euclidean", "schwarzschild", "perturbed"]


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
@pytest.mark.parametrize("step", [0.0, 1e-20], ids=["real", "complex-step"])
def test_first_order_evaluation_is_the_same_bytes(model, step, rng):
    x = sample_points(rng, 512, step)
    first = mt.evaluate_metric(model, x, order=1)
    full = mt.evaluate_metric(model, x)
    assert len(first) == 2 and len(full) == 3
    for got, want in zip(first, full):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    sig_first = mt.sigma_with_derivatives(model, x, order=1)
    sig_full = mt.sigma_with_derivatives(model, x)
    assert len(sig_first) == 2
    for got, want in zip(sig_first, sig_full):
        assert np.array_equal(got, want)


def test_first_order_evaluation_keeps_the_domain_check():
    with pytest.raises(DomainError):
        mt.evaluate_metric(mt.schwarzschild_model(1.0),
                           np.array([0.5, 0.0, 0.0]), order=1)


@pytest.mark.parametrize("order", [0, 3, 1.5])
def test_derivative_order_guard(order):
    x = np.array([3.0, 0.0, 0.0])
    for evaluate in (mt.evaluate_metric, mt.sigma_with_derivatives,
                     mt.conformal_factor):
        with pytest.raises(ValueError):
            evaluate(PERTURBED, x, order=order)


@pytest.mark.parametrize("model", MODELS[1:], ids=MODEL_IDS[1:])
def test_cofactor_inverse_matches_lapack(model, rng):
    g = mt.evaluate_metric(model, sample_points(rng, 2048), order=1)[0]
    want = np.linalg.inv(g)
    got = mt._inv3(g)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # a generic symmetric positive definite stack, far from the identity
    a = rng.standard_normal((256, 3, 3))
    spd = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(3)
    want = np.linalg.inv(spd)
    rel = np.max(np.abs(mt._inv3(spd) - want), axis=(1, 2)) / (
        np.max(np.abs(want), axis=(1, 2)) * np.linalg.cond(spd))
    assert np.max(rel) <= 1e-14


def test_cofactor_inverse_complex_step(rng):
    # d/dt (g + t dg)^-1 = -g^-1 dg g^-1, read off the imaginary part
    model = PERTURBED
    x = sample_points(rng, 256)
    g, dg = mt.evaluate_metric(model, x, order=1)
    direction = rng.standard_normal((256, 3))
    dg_dir = np.einsum("nk,nkij->nij", direction, dg)
    step = 1e-20
    got = np.imag(mt._inv3(g + 1j * step * dg_dir)) / step
    ginv = np.linalg.inv(g)
    want = -ginv @ dg_dir @ ginv
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the same through the metric's own complex-step evaluation
    gc = mt.evaluate_metric(model, x + 1j * step * direction, order=1)[0]
    got = np.imag(mt._inv3(gc)) / step
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
