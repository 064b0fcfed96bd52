import numpy as np
import pytest

from spinwehrl.quadrature import QuadratureSpec, sphere_nodes, sphere_points


def test_weights_sum_to_one():
    thetas, phis, w_theta, w_phi = sphere_nodes(QuadratureSpec(8, 12))
    assert np.sum(w_theta) * np.sum(np.full(len(phis), w_phi)) == pytest.approx(1.0)


def test_exact_for_low_degree_harmonics():
    # Gauss-Legendre in cos(theta) x uniform phi integrates cos^2(theta) and
    # sin^2(theta)cos(2 phi) exactly
    thetas, phis, w_theta, w_phi = sphere_nodes(QuadratureSpec(4, 8))
    ct = np.cos(thetas)
    val = np.sum(w_theta * ct ** 2)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-14)
    grid = np.outer(np.sin(thetas) ** 2, np.cos(2 * phis))
    assert np.sum(w_theta[:, None] * w_phi * grid) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 17, 64, 1024])
def test_nodes_match_leggauss(n):
    # numpy's companion-matrix rule, kept as the oracle: it takes O(n^2)
    # memory and O(n^3) time, against O(n) for the rule the package builds
    thetas, _, w_theta, _ = sphere_nodes(QuadratureSpec(n, 1))
    u, w = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(np.cos(thetas) - u)) < 1e-15
    assert np.max(np.abs(w_theta - w / 2)) < 1e-13


def test_sphere_points_follow_the_weights():
    # theta-major unit vectors; the weighted mean of z^2 is 1/3, of x and y 0
    spec = QuadratureSpec(4, 8)
    thetas, phis, w_theta, w_phi = sphere_nodes(spec)
    points = sphere_points(spec)
    w = np.outer(w_theta, w_phi).ravel()
    assert points.shape == (32, 3)
    assert np.allclose(np.linalg.norm(points, axis=1), 1.0, atol=1e-15)
    assert np.allclose(points[9], [np.sin(thetas[1]) * np.cos(phis[1]),
                                   np.sin(thetas[1]) * np.sin(phis[1]), np.cos(thetas[1])])
    assert w @ points[:, 2] ** 2 == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert np.allclose(w @ points[:, :2], 0.0, atol=1e-15)


def test_doubled():
    s = QuadratureSpec(8, 12, tol=1e-7)
    d = s.doubled()
    assert (d.n_theta, d.n_phi, d.tol) == (16, 24, 1e-7)


def test_invalid_spec():
    with pytest.raises(ValueError):
        QuadratureSpec(0, 4)
