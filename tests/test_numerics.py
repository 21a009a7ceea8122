import math

import numpy as np
import pytest

from carlembed.errors import InputError, NumericError
from carlembed.geometry import Space
from carlembed.numerics import (
    MAX_GAUSS_ORDER,
    MAX_QUAD_NODES,
    HermitianMatrix,
    QuadratureSpec,
    ball_quadrature,
    ball_rule,
    boundary_rule,
    boundary_quadrature,
    default_quadrature,
    disc_quadrature,
    disc_rule,
    extreme_eigs,
    gauss_legendre,
    rng_stream,
)


def test_gauss_legendre_polynomial_exactness():
    nodes, weights = gauss_legendre(6)
    # order-6 rule integrates degree <= 11 exactly on [-1, 1]
    for k in (0, 2, 4, 10):
        got = float(weights @ nodes**k)
        want = 2.0 / (k + 1)
        assert got == pytest.approx(want, abs=1e-14)
    assert float(weights @ nodes**3) == pytest.approx(0.0, abs=1e-15)


def test_gauss_legendre_order_one_is_midpoint():
    nodes, weights = gauss_legendre(1)
    assert nodes.shape == (1,)
    assert nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert weights[0] == pytest.approx(2.0, abs=1e-15)


def test_gauss_legendre_rejects_bad_orders():
    with pytest.raises(InputError):
        gauss_legendre(0)
    with pytest.raises(InputError):
        gauss_legendre(513)
    with pytest.raises(InputError):
        gauss_legendre(2.5)


def test_quadrature_spec_validation():
    with pytest.raises(InputError):
        QuadratureSpec(radial_order=2, angular_order=16, sphere_nodes=8, tol=1e-8)
    with pytest.raises(InputError):
        QuadratureSpec(radial_order=16, angular_order=16, sphere_nodes=8, tol=0.0)
    spec = default_quadrature(Space.disc())
    assert spec.radial_order == 64 and spec.angular_order == 128
    with pytest.raises(InputError, match="radial_order"):
        QuadratureSpec(radial_order=10**6, angular_order=10**6, sphere_nodes=10**6)
    with pytest.raises(InputError, match="sphere_nodes"):
        QuadratureSpec(sphere_nodes=MAX_GAUSS_ORDER + 1)
    QuadratureSpec(radial_order=MAX_GAUSS_ORDER, sphere_nodes=MAX_GAUSS_ORDER)


def test_quadrature_rules_check_node_count_before_building():
    # Every rule here is rejected before any node is allocated.
    huge = QuadratureSpec(angular_order=10**6)
    with pytest.raises(InputError, match="nodes, limit is"):
        disc_rule(huge)
    with pytest.raises(InputError, match="nodes, limit is"):
        ball_rule(huge, 1)
    with pytest.raises(InputError, match="nodes, limit is"):
        ball_rule(huge, 2)
    with pytest.raises(InputError, match="nodes, limit is"):
        boundary_rule(huge, Space.ball(2))
    with pytest.raises(InputError, match="nodes, limit is"):
        boundary_rule(QuadratureSpec(angular_order=MAX_QUAD_NODES + 1), Space.disc())
    # the ball(2) default of green-check at the largest radial order
    # accepted by the node cap, and one above it
    assert 341 * 24 * 32 ** 2 <= MAX_QUAD_NODES < 342 * 24 * 32 ** 2
    with pytest.raises(InputError, match="nodes, limit is"):
        ball_rule(QuadratureSpec(radial_order=342, angular_order=32, sphere_nodes=24), 2)


def test_disc_quadrature_area_anchor():
    q = QuadratureSpec(radial_order=64, angular_order=128, sphere_nodes=24, tol=1e-8)
    mass = disc_quadrature(lambda zs: np.ones(zs.shape[0]), q)
    assert mass == pytest.approx(math.pi, abs=1e-12)


def test_disc_quadrature_log_anchor():
    # integrable log singularity at the origin: integral of log(1/|z|) is pi/2
    q = QuadratureSpec(radial_order=64, angular_order=128, sphere_nodes=24, tol=1e-8)
    val = disc_quadrature(lambda zs: -0.5 * np.log((zs[:, 0] * zs[:, 0].conj()).real), q)
    assert val == pytest.approx(math.pi / 2.0, abs=1e-8)


def test_disc_quadrature_harmonic_moment():
    # integral of |z|^2 over the disc is pi/2
    q = QuadratureSpec(radial_order=32, angular_order=64, sphere_nodes=24, tol=1e-8)
    val = disc_quadrature(lambda zs: (zs[:, 0] * zs[:, 0].conj()).real, q)
    assert val == pytest.approx(math.pi / 2.0, abs=1e-13)


def test_ball_quadrature_volume_anchor():
    q = QuadratureSpec(radial_order=32, angular_order=24, sphere_nodes=16, tol=1e-8)
    vol = ball_quadrature(lambda zs: np.ones(zs.shape[0]), q)
    assert vol == pytest.approx(math.pi**2 / 2.0, abs=1e-10)


def test_ball_quadrature_dim_one_matches_disc():
    q = QuadratureSpec(radial_order=32, angular_order=64, sphere_nodes=16, tol=1e-8)
    f = lambda zs: (zs[:, 0] * zs[:, 0].conj()).real
    assert ball_quadrature(f, q, dim=1) == pytest.approx(disc_quadrature(f, q), abs=1e-14)


def test_boundary_quadrature_masses():
    q = QuadratureSpec(radial_order=32, angular_order=64, sphere_nodes=24, tol=1e-8)
    one = lambda zs: np.ones(zs.shape[0])
    assert boundary_quadrature(one, q, Space.disc()) == pytest.approx(1.0, abs=1e-14)
    assert boundary_quadrature(one, q, Space.ball(2)) == pytest.approx(1.0, abs=1e-12)


def test_boundary_quadrature_hardy_monomial():
    # on the 3-sphere with normalized measure, |z1 z2|^2 averages to 1/6
    q = QuadratureSpec(radial_order=32, angular_order=32, sphere_nodes=24, tol=1e-8)
    f = lambda zs: ((zs[:, 0] * zs[:, 0].conj()) * (zs[:, 1] * zs[:, 1].conj())).real
    assert boundary_quadrature(f, q, Space.ball(2)) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_quadrature_rejects_bad_field_shape():
    # returning the wrong shape is a caller bug, not a numeric failure
    q = QuadratureSpec(radial_order=8, angular_order=8, sphere_nodes=8, tol=1e-8)
    with pytest.raises(InputError):
        disc_quadrature(lambda zs: np.ones(3), q)


def test_quadrature_reports_nonfinite_field():
    q = QuadratureSpec(radial_order=8, angular_order=8, sphere_nodes=8, tol=1e-8)
    with pytest.raises(NumericError):
        disc_quadrature(lambda zs: np.full(zs.shape[0], np.nan), q)


def test_hermitian_matrix_validation():
    with pytest.raises(InputError):
        HermitianMatrix(np.ones((2, 3)))
    skew = np.array([[1.0, 2.0], [2.0 + 1e-6j, 1.0]])
    with pytest.raises(InputError):
        HermitianMatrix(skew)


def test_extreme_eigs_diagonal():
    m = HermitianMatrix(np.diag([3.0, -1.0, 2.0]))
    lo, hi = extreme_eigs(m)
    assert lo == pytest.approx(-1.0, abs=1e-14)
    assert hi == pytest.approx(3.0, abs=1e-14)


def test_extreme_eigs_two_by_two_oracle():
    # eigenvalues of [[2, 1], [1, 2]] are 1 and 3
    m = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    lo, hi = extreme_eigs(m)
    assert lo == pytest.approx(1.0, abs=1e-14)
    assert hi == pytest.approx(3.0, abs=1e-14)


def test_rng_stream_determinism_and_independence():
    a = rng_stream(42, 0).normal(size=8)
    b = rng_stream(42, 0).normal(size=8)
    c = rng_stream(42, 1).normal(size=8)
    d = rng_stream(43, 0).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
