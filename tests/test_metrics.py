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
    ric = mt.ricci_tensor(PERTURBED, pts)
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
    assert np.array_equal(connection[1], np.linalg.inv(metric[0]))
    want = mt.curvature_tensors(model, x)
    for got in (mt.curvature_tensors(model, x, metric=metric),
                mt.curvature_tensors(model, x, metric=metric,
                                     connection=connection)):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
