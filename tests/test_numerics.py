import math

import numpy as np
import pytest

from carlembed.errors import InputError, NumericError, UnsupportedError
from carlembed.geometry import Space
from carlembed.numerics import (
    MAX_GAUSS_ORDER,
    MAX_QUAD_NODES,
    HermitianMatrix,
    QuadratureSpec,
    _certified_top_eig,
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

from conftest import hermitian_with_spectrum


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
    for got, want in zip(ball_rule(q, 1), disc_rule(q)):
        assert np.array_equal(got, want)
    f = lambda zs: (zs[:, 0] * zs[:, 0].conj()).real
    assert ball_quadrature(f, q, dim=1) == disc_quadrature(f, q)


# The four separate rule builders that the product rule replaced, kept as
# the oracle: the product rule must reproduce their nodes and weights bit
# for bit, so that every quadrature-backed output stays the same.


def _old_radial_rule(order, power):
    x, w = np.polynomial.legendre.leggauss(order)
    s = 0.5 * (x + 1.0)
    return s * s, 0.5 * w * 2.0 * s ** (2 * power + 1)


def _old_disc_rule(radial_order, angular_order):
    r, wr = _old_radial_rule(radial_order, 1)
    theta = 2.0 * np.pi * np.arange(angular_order) / angular_order
    wt = 2.0 * np.pi / angular_order
    points = (r[:, None] * np.exp(1j * theta)[None, :]).reshape(-1, 1)
    return points, np.repeat(wr * wt, angular_order)


def _old_ball2_rule(radial_order, angular_order, sphere_nodes):
    r, wr = _old_radial_rule(radial_order, 3)
    xe, we = np.polynomial.legendre.leggauss(sphere_nodes)
    eta = 0.25 * np.pi * (xe + 1.0)
    weta = 0.25 * np.pi * we * np.cos(eta) * np.sin(eta)
    p = 2.0 * np.pi * np.arange(angular_order) / angular_order
    wp = 2.0 * np.pi / angular_order
    R, E, P1, P2 = np.meshgrid(r, eta, p, p, indexing="ij")
    z1 = (R * np.cos(E) * np.exp(1j * P1)).ravel()
    z2 = (R * np.sin(E) * np.exp(1j * P2)).ravel()
    WR, WE = np.meshgrid(wr, weta, p, p, indexing="ij")[:2]
    return np.column_stack([z1, z2]), (WR * WE).ravel() * wp * wp


def _old_circle_rule(angular_order):
    theta = 2.0 * np.pi * np.arange(angular_order) / angular_order
    return np.exp(1j * theta).reshape(-1, 1), np.full(angular_order, 1.0 / angular_order)


def _old_sphere3_rule(angular_order, sphere_nodes):
    xe, we = np.polynomial.legendre.leggauss(sphere_nodes)
    eta = 0.25 * np.pi * (xe + 1.0)
    weta = 0.25 * np.pi * we * np.cos(eta) * np.sin(eta)
    p = 2.0 * np.pi * np.arange(angular_order) / angular_order
    E, P1, P2 = np.meshgrid(eta, p, p, indexing="ij")
    z1 = (np.cos(E) * np.exp(1j * P1)).ravel()
    z2 = (np.sin(E) * np.exp(1j * P2)).ravel()
    WE = np.meshgrid(weta, p, p, indexing="ij")[0]
    return np.column_stack([z1, z2]), WE.ravel() * (2.0 / angular_order ** 2)


@pytest.mark.parametrize(
    "spec",
    [(64, 128, 24), (48, 32, 24), (16, 24, 12), (7, 13, 5), (33, 100, 9), (64, 130, 24)],
    ids=lambda spec: "-".join(map(str, spec)),
)
def test_product_rules_match_the_separate_builders_bit_for_bit(spec):
    radial, angular, sphere = spec
    q = QuadratureSpec(radial_order=radial, angular_order=angular, sphere_nodes=sphere)
    pairs = [
        (disc_rule(q), _old_disc_rule(radial, angular)),
        (ball_rule(q, 1), _old_disc_rule(radial, angular)),
        (boundary_rule(q, Space.disc()), _old_circle_rule(angular)),
        (boundary_rule(q, Space.ball(2)), _old_sphere3_rule(angular, sphere)),
    ]
    if radial * sphere * angular ** 2 <= MAX_QUAD_NODES:
        pairs.append((ball_rule(q, 2), _old_ball2_rule(radial, angular, sphere)))
    for (points, weights), (want_points, want_weights) in pairs:
        assert points.shape == want_points.shape and weights.shape == want_weights.shape
        assert np.array_equal(points, want_points)
        assert np.array_equal(weights, want_weights)
        assert not points.flags.writeable and not weights.flags.writeable


def test_product_rules_are_cached_per_order_and_reject_dimension_three():
    q = QuadratureSpec(radial_order=8, angular_order=8, sphere_nodes=8)
    same_orders = QuadratureSpec(radial_order=8, angular_order=8, sphere_nodes=8, tol=1e-3)
    assert ball_rule(q, 2)[0] is ball_rule(same_orders, 2)[0]
    assert disc_rule(q)[0] is ball_rule(q, 1)[0]
    with pytest.raises(UnsupportedError, match="dimension <= 2, got 3"):
        ball_rule(q, 3)
    with pytest.raises(UnsupportedError, match="boundary quadrature"):
        boundary_rule(q, Space.ball(3))


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


def test_certified_top_eig_brackets_a_known_spectrum():
    eigs = np.concatenate([[3.0, 1.0], np.linspace(0.9, 0.1, 298)])
    a = hermitian_with_spectrum(eigs, 11)
    rho, t = _certified_top_eig(a.copy())
    assert rho == pytest.approx(3.0, rel=1e-13)
    assert 3.0 <= t <= rho * (1 + 1e-8)


def test_certified_top_eig_declines_near_degenerate_top_pair(monkeypatch):
    factors = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda *a, **k: factors.append(1))
    eigs = np.concatenate([[1.0, 0.995], np.linspace(0.5, 0.1, 298)])
    a = hermitian_with_spectrum(eigs, 12)
    b = a.copy()
    assert _certified_top_eig(b) is None
    # the residual never met the rule, so no factor was tried and b is intact
    assert factors == []
    assert np.array_equal(a, b)


def test_certified_top_eig_declines_top_vector_orthogonal_to_start(monkeypatch):
    # The iterate from the all-ones vector settles on the second
    # eigenvalue 1 within a few products; only the factor of
    # s I - a, which fails for s < 1.2, reveals the eigenvalue above it.
    eigs = np.concatenate([[1.2, 1.0], np.linspace(0.1, 0.01, 298)])
    a = hermitian_with_spectrum(eigs, 13, top_orthogonal_to_ones=True)
    assert abs(np.linalg.eigh(a)[1][:, -1].sum()) < 1e-12
    factors = []
    cholesky = np.linalg.cholesky

    def counted(b, **kwargs):
        factors.append(b.shape)
        return cholesky(b, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    assert _certified_top_eig(a.copy()) is None
    assert factors == [a.shape]


def test_certified_top_eig_factors_with_the_numpy_1_signature(monkeypatch):
    # numpy 1.x cholesky takes the matrix alone and factors its lower
    # triangle; the routine must work with that signature and hand it the
    # upper triangle of s I - a.
    eigs = np.concatenate([[3.0, 1.0], np.linspace(0.9, 0.1, 298)])
    a = hermitian_with_spectrum(eigs, 11)
    want = _certified_top_eig(a.copy())
    cholesky = np.linalg.cholesky
    factored = []

    def numpy_1_cholesky(b):
        factored.append(np.array_equal(np.tril(b), np.triu(a_work).T))
        return cholesky(b)

    monkeypatch.setattr(np.linalg, "cholesky", numpy_1_cholesky)
    a_work = a.copy()
    assert _certified_top_eig(a_work) == want
    assert factored == [True]


def test_certified_top_eig_declines_diagonal_out_of_range():
    a = hermitian_with_spectrum(np.linspace(2.0, 1.0, 20), 14)
    for scale in (2.0 ** 300, 2.0 ** -300, -1.0, np.nan):
        assert _certified_top_eig(a * scale) is None


def test_certified_top_eig_leaves_a_declined_matrix_unchanged(monkeypatch):
    # one matrix per way to decline: the diagonal out of range, a
    # near-degenerate top pair, and a factor that fails
    declined = [
        hermitian_with_spectrum(np.linspace(2.0, 1.0, 20), 14) * 2.0 ** 300,
        hermitian_with_spectrum(np.concatenate([[1.0, 0.995], np.linspace(0.5, 0.1, 298)]), 12),
        hermitian_with_spectrum(np.concatenate([[1.2, 1.0], np.linspace(0.1, 0.01, 298)]), 13,
                                top_orthogonal_to_ones=True),
    ]
    factors = []
    cholesky = np.linalg.cholesky

    def counted(b, **kwargs):
        factors.append(b.shape)
        return cholesky(b, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    for a in declined:
        b = a.copy()
        assert _certified_top_eig(b) is None
        assert b.tobytes() == a.tobytes()
    assert factors == [(300, 300)]  # only the last reached the factor


def test_rng_stream_determinism_and_independence():
    a = rng_stream(42, 0).normal(size=8)
    b = rng_stream(42, 0).normal(size=8)
    c = rng_stream(42, 1).normal(size=8)
    d = rng_stream(43, 0).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
