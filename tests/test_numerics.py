import math
import re

import numpy as np
import pytest

from carlembed import numerics
from carlembed.errors import InputError, NumericError, UnsupportedError
from carlembed.geometry import Space
from carlembed.numerics import (
    MAX_GAUSS_ORDER,
    MAX_QUAD_NODES,
    HermitianMatrix,
    QuadratureSpec,
    _RuleStream,
    _certified_top_eig,
    _hermitian_deviation,
    _row_blocks,
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
        QuadratureSpec(radial_order=2, angular_order=16, sphere_nodes=8)
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
    q = QuadratureSpec(radial_order=64, angular_order=128, sphere_nodes=24)
    mass = disc_quadrature(lambda zs: np.ones(zs.shape[0]), q)
    assert mass == pytest.approx(math.pi, abs=1e-12)


def test_disc_quadrature_log_anchor():
    # integrable log singularity at the origin: integral of log(1/|z|) is pi/2
    q = QuadratureSpec(radial_order=64, angular_order=128, sphere_nodes=24)
    val = disc_quadrature(lambda zs: -0.5 * np.log((zs[:, 0] * zs[:, 0].conj()).real), q)
    assert val == pytest.approx(math.pi / 2.0, abs=1e-8)


def test_disc_quadrature_harmonic_moment():
    # integral of |z|^2 over the disc is pi/2
    q = QuadratureSpec(radial_order=32, angular_order=64, sphere_nodes=24)
    val = disc_quadrature(lambda zs: (zs[:, 0] * zs[:, 0].conj()).real, q)
    assert val == pytest.approx(math.pi / 2.0, abs=1e-13)


def test_ball_quadrature_volume_anchor():
    q = QuadratureSpec(radial_order=32, angular_order=24, sphere_nodes=16)
    vol = ball_quadrature(lambda zs: np.ones(zs.shape[0]), q)
    assert vol == pytest.approx(math.pi**2 / 2.0, abs=1e-10)


def test_ball_quadrature_dim_one_matches_disc():
    q = QuadratureSpec(radial_order=32, angular_order=64, sphere_nodes=16)
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


def _streamed(stream, width):
    """The nodes and weights of a stream, concatenated from blocks of width rows."""
    points, weights = [], []
    for start in range(0, len(stream), width):
        rows = slice(start, start + width)
        points.append(stream.points(rows).copy())
        weights.append(stream.weigh(rows, np.ones(len(points[-1]))))
    return np.concatenate(points), np.concatenate(weights)


# (radial, angular, sphere) orders and a block width; narrow blocks only
# on the smaller rules, whose ball(2) rule has at most 40,000 blocks.
_STREAM_CASES = [
    (spec, width)
    for spec in [(4, 5, 4), (7, 13, 5), (16, 24, 12), (48, 32, 24)]
    for width in [1, 3, 8, 2000]
    if spec[0] * spec[2] * spec[1] ** 2 <= 40000 * width
]


@pytest.mark.parametrize(
    "spec, width", _STREAM_CASES,
    ids=["-".join(map(str, spec)) + f"-w{width}" for spec, width in _STREAM_CASES],
)
def test_rule_stream_blocks_equal_the_full_rules_bit_for_bit(spec, width):
    # Blocks start and stop inside a row of the torus, at a row's end or
    # across many rows; the accessors fill the whole rule through the same
    # filler, so the separate builders of test_product_rules_... are the
    # independent oracle.
    radial, angular, sphere = spec
    q = QuadratureSpec(radial_order=radial, angular_order=angular, sphere_nodes=sphere)
    cases = [
        (_RuleStream(1, angular, sphere, radial), disc_rule(q), _old_disc_rule(radial, angular)),
        (_RuleStream(2, angular, sphere, radial), ball_rule(q, 2),
         _old_ball2_rule(radial, angular, sphere)),
        (_RuleStream(1, angular, sphere), boundary_rule(q, Space.disc()),
         _old_circle_rule(angular)),
        (_RuleStream(2, angular, sphere), boundary_rule(q, Space.ball(2)),
         _old_sphere3_rule(angular, sphere)),
    ]
    for stream, rule, old in cases:
        got = _streamed(stream, width)
        for g, r, o in zip(got, rule, old):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert g.tobytes() == r.tobytes() == o.tobytes()


def test_rule_stream_last_block_of_one_row_and_overlapping_ranges():
    # 400 nodes in blocks of 3 leave one node for the last block; ranges
    # may overlap and come in any order, as the kernel blocks ask them.
    q = QuadratureSpec(radial_order=4, angular_order=5, sphere_nodes=4)
    stream = _RuleStream(2, 5, 4, 4)
    points, weights = ball_rule(q, 2)
    assert len(stream) == len(points) == 400 and len(stream) % 3 == 1
    for rows in [slice(399, 402), slice(397, 400), slice(0, 400), slice(5, 6), slice(3, 130)]:
        got = stream.points(rows)
        assert got.tobytes() == points[rows].tobytes()
        assert stream.weigh(rows, np.ones(len(got))).tobytes() == weights[rows].tobytes()


def test_rule_stream_scratch_is_reused_and_refuses_an_over_cap_rule():
    stream = _RuleStream(2, 32, 24, 48)
    first = stream.points(slice(0, 5000))
    assert stream.points(slice(7000, 9000)).base is first.base
    with pytest.raises(InputError, match="nodes, limit is"):
        _RuleStream(2, 32, 24, 342)


def test_product_rules_are_filled_anew_per_call_and_reject_dimension_three():
    q = QuadratureSpec(radial_order=8, angular_order=8, sphere_nodes=8)
    same_orders = QuadratureSpec(radial_order=8, angular_order=8, sphere_nodes=8)
    first, again = ball_rule(q, 2), ball_rule(same_orders, 2)
    for a, b in zip(first, again):
        assert a is not b and a.flags.writeable and a.tobytes() == b.tobytes()
    assert disc_rule(q)[0].tobytes() == ball_rule(q, 1)[0].tobytes()
    one = lambda zs: np.ones(zs.shape[0])
    for call in (lambda: ball_rule(q, 3), lambda: boundary_rule(q, Space.ball(3)),
                 lambda: ball_quadrature(one, q, 3), lambda: boundary_quadrature(one, q, Space.ball(3))):
        with pytest.raises(UnsupportedError, match="dimension <= 2, got 3"):
            call()


def test_ball_rule_refuses_a_dimension_that_is_no_positive_integer():
    q = QuadratureSpec(radial_order=8, angular_order=8, sphere_nodes=8)
    ball_rule(q, 1), ball_rule(q, 2)  # factors cached: True and 2.0 must not find them
    one = lambda zs: np.ones(zs.shape[0])
    for dim in (True, 2.0, "2", 0, -1, None, np.bool_(True)):
        for call in (ball_rule, lambda q, dim: ball_quadrature(one, q, dim)):
            with pytest.raises(InputError, match=f"^complex dimension must be a positive integer, "
                                                 f"got {re.escape(repr(dim))}$"):
                call(q, dim)
    assert np.array_equal(ball_rule(q, np.int64(2))[0], ball_rule(q, 2)[0])


def test_boundary_quadrature_masses():
    q = QuadratureSpec(radial_order=32, angular_order=64, sphere_nodes=24)
    one = lambda zs: np.ones(zs.shape[0])
    assert boundary_quadrature(one, q, Space.disc()) == pytest.approx(1.0, abs=1e-14)
    assert boundary_quadrature(one, q, Space.ball(2)) == pytest.approx(1.0, abs=1e-12)


def test_boundary_quadrature_hardy_monomial():
    # on the 3-sphere with normalized measure, |z1 z2|^2 averages to 1/6
    q = QuadratureSpec(radial_order=32, angular_order=32, sphere_nodes=24)
    f = lambda zs: ((zs[:, 0] * zs[:, 0].conj()) * (zs[:, 1] * zs[:, 1].conj())).real
    assert boundary_quadrature(f, q, Space.ball(2)) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_quadrature_rejects_bad_field_shape():
    # returning the wrong shape is a caller bug, not a numeric failure
    q = QuadratureSpec(radial_order=8, angular_order=8, sphere_nodes=8)
    with pytest.raises(InputError):
        disc_quadrature(lambda zs: np.ones(3), q)


def test_quadrature_reports_nonfinite_field():
    q = QuadratureSpec(radial_order=8, angular_order=8, sphere_nodes=8)
    with pytest.raises(NumericError):
        disc_quadrature(lambda zs: np.full(zs.shape[0], np.nan), q)


# Each quadrature against the one-sum formula over its accessor's whole
# rule: (accessor, quadrature, node count of (radial, angular, sphere)).
_QUADRATURES = [
    (disc_rule, disc_quadrature, lambda r, a, s: r * a),
    (lambda q: ball_rule(q, 1), lambda f, q: ball_quadrature(f, q, 1), lambda r, a, s: r * a),
    (lambda q: ball_rule(q, 2), lambda f, q: ball_quadrature(f, q, 2),
     lambda r, a, s: r * s * a * a),
    (lambda q: boundary_rule(q, Space.disc()), lambda f, q: boundary_quadrature(f, q, Space.disc()),
     lambda r, a, s: a),
    (lambda q: boundary_rule(q, Space.ball(2)),
     lambda f, q: boundary_quadrature(f, q, Space.ball(2)), lambda r, a, s: s * a * a),
]
_INTEGRANDS = [
    lambda zs: (zs * zs.conj()).real.sum(axis=1),
    lambda zs: -0.5 * np.log((zs[:, 0] * zs[:, 0].conj()).real),
    lambda zs: np.abs(1.0 + 2.0 * zs[:, 0] ** 3 - zs[:, -1] ** 2) ** 2 * np.cos(zs[:, -1].real),
]


@pytest.mark.parametrize(
    "spec, block_entries",
    [((4, 5, 4), 6), ((7, 13, 5), 1 << 16), ((16, 24, 12), 1 << 16), ((48, 32, 24), 1 << 16),
     ((7, 28087, 4), 1 << 16)],
    ids=["4-5-4-b6", "7-13-5", "16-24-12", "48-32-24", "7-28087-4"],
)
def test_rule_stream_quadratures_equal_one_sum_over_the_whole_rule_bit_for_bit(
        spec, block_entries, monkeypatch):
    # Blocks of 6 entries hold 6 nodes of a dim-1 rule or 3 of a ball(2)
    # rule, so of the rules of (4, 5, 4) the 400-node ball(2) and the
    # 100-node sphere rule end in a block of one node; at the default size
    # so does the 196,609-node disc rule of (7, 28087, 4).  The ball(2)
    # rule of (48, 32, 24) is the 1.18 M-node default of uchiyama, in 36
    # blocks.
    monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", block_entries)
    q = QuadratureSpec(*spec)
    for rule, quadrature, nodes in _QUADRATURES:
        if nodes(*spec) > 2_000_000:
            continue
        points, weights = rule(q)
        for f in _INTEGRANDS:
            assert quadrature(f, q) == float(np.sum(weights * f(points)))


def test_rule_stream_quadrature_errors_name_the_global_node():
    # 8,192 disc nodes in blocks of 4096: the first bad node of the second block
    q = QuadratureSpec(radial_order=64, angular_order=128, sphere_nodes=4)
    node = disc_rule(q)[0][5000]

    def spiky(zs):
        return np.where(zs[:, 0] == node[0], np.nan, 1.0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_BLOCK_ENTRIES", 4096)
        with pytest.raises(NumericError, match=rf"^integrand is not finite at node 5000, z = "
                                               rf"{re.escape(str(node))}$"):
            disc_quadrature(spiky, q)
        with pytest.raises(InputError, match=r"^integrand returned shape \(4096, 1\), expected \(4096,\)$"):
            disc_quadrature(lambda zs: np.ones((len(zs), 1)), q)
    with pytest.raises(InputError, match="integrand returned shape"):
        boundary_quadrature(lambda zs: 1.0, q, Space.ball(2))


def test_rule_stream_ball_quadrature_holds_one_block_and_a_float_per_node():
    # the default ball(2) rule has 1.18 M nodes: its nodes and weights
    # alone would take 47 MB, the array of terms takes 9.4 MB
    import tracemalloc

    q = default_quadrature(Space.ball(2))
    f = lambda zs: (zs * zs.conj()).real.sum(axis=1)
    ball_quadrature(f, q)  # the rule's factors, cached
    tracemalloc.start()
    try:
        ball_quadrature(f, q)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6 and held < 2e6


def test_hermitian_matrix_validation():
    with pytest.raises(InputError):
        HermitianMatrix(np.ones((2, 3)))
    skew = np.array([[1.0, 2.0], [2.0 + 1e-6j, 1.0]])
    with pytest.raises(InputError):
        HermitianMatrix(skew)


# The deviation test before it ran over row blocks of one triangle: the
# whole |a - a^H| and |a| at once.  The blocked test must return its
# values on every finite input.


def _dense_hermitian_deviation(a):
    scale = np.max(np.abs(a), axis=(-2, -1))
    deviation = np.max(np.abs(a - a.conj().swapaxes(-1, -2)), axis=(-2, -1))
    return deviation, scale, deviation > 1e-12 * np.maximum(scale, 1e-300)


def _skewed(a, where, skew):
    a = a.copy()
    a[where] += skew
    return a


@pytest.mark.parametrize("block_entries", [7 * 30, None], ids=["5 blocks", "one block"])
def test_blocked_hermitian_deviation_equals_dense(block_entries, monkeypatch):
    if block_entries is not None:
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", block_entries)
        blocks = _row_blocks(30, 30)
        assert len(blocks) == 5 and blocks[-1].stop > 30
    rng = rng_stream(1717, 3)
    a = hermitian_with_spectrum(np.linspace(2.0, 0.1, 30), 17)
    matrices = [a]
    for skew in (1e-14, 1e-9):  # below and above the 1e-12 relative tolerance
        matrices += [
            _skewed(a, (11, 11), 1j * skew),   # a diagonal imaginary part
            _skewed(a, (0, 29), skew),         # an upper entry of the first block
            _skewed(a, (29, 3), -skew * 1j),   # a lower entry of the last block
        ]
    matrices.append(rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30)))
    fails = []
    for m in matrices:
        got = _hermitian_deviation(m)
        assert all(np.array_equal(x, y) for x, y in zip(got, _dense_hermitian_deviation(m)))
        fails.append(bool(got[2]))
    assert fails == [False] * 4 + [True] * 4


# inf - inf in a - a^H is numpy's "invalid value" warning, before the InputError
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_hermitian_check_refuses_non_finite_entries(bad):
    # nan > tol is False and |inf - inf| is nan, so the tolerance alone lets these pass
    a = np.array([[1.0, bad], [np.conj(bad), 1.0]], dtype=complex)
    with pytest.raises(InputError, match=r" 2 non-finite entries, a\[0, 1\] = .*, a\[1, 0\] ="):
        HermitianMatrix(a)
    with pytest.raises(InputError, match="non-finite"):
        extreme_eigs(a)
    b = np.eye(3, dtype=complex)
    b[2, 2] = bad
    with pytest.raises(InputError, match=r" 1 non-finite entries, a\[2, 2\] = "):
        HermitianMatrix(b)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_hermitian_check_refuses_an_overflowing_modulus():
    # finite parts, but |a_00| = 2.1e308 is inf, so the relative test has no scale
    a = np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]])
    with pytest.raises(InputError, match=r"max \|a\| is inf, 0 non-finite entries$"):
        HermitianMatrix(a)


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


def _certified(a):
    """_certified_top_eig on a, which equals its conjugate transpose exactly."""
    assert np.array_equal(a, a.conj().T)
    return _certified_top_eig(a)


def test_certified_top_eig_brackets_a_known_spectrum():
    eigs = np.concatenate([[3.0, 1.0], np.linspace(0.9, 0.1, 298)])
    a = hermitian_with_spectrum(eigs, 11)
    rho, t = _certified(a.copy())
    assert rho == pytest.approx(3.0, rel=1e-13)
    assert 3.0 <= t <= rho * (1 + 1e-8)


def test_certified_top_eig_declines_near_degenerate_top_pair(monkeypatch):
    factors = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda *a, **k: factors.append(1))
    eigs = np.concatenate([[1.0, 0.995], np.linspace(0.5, 0.1, 298)])
    a = hermitian_with_spectrum(eigs, 12)
    b = a.copy()
    assert _certified(b) is None
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
    assert _certified(a.copy()) is None
    assert factors == [a.shape]


def test_certified_top_eig_factors_with_the_numpy_1_signature(monkeypatch):
    # numpy 1.x cholesky takes the matrix alone and factors its lower
    # triangle; the routine must work with that signature and hand it the
    # upper triangle of s I - a.
    eigs = np.concatenate([[3.0, 1.0], np.linspace(0.9, 0.1, 298)])
    a = hermitian_with_spectrum(eigs, 11)
    want = _certified(a.copy())
    cholesky = np.linalg.cholesky
    factored = []

    def numpy_1_cholesky(b):
        factored.append(np.array_equal(np.tril(b), np.triu(a_work).T))
        return cholesky(b)

    monkeypatch.setattr(np.linalg, "cholesky", numpy_1_cholesky)
    a_work = a.copy()
    assert _certified(a_work) == want
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
        assert _certified(b) is None
        assert b.tobytes() == a.tobytes()
    assert factors == [(300, 300)]  # only the last reached the factor


# Light-tailed spectrum: ||P a P||_F of the top eigenvector is about 0.55.
LIGHT_TAIL = np.concatenate([[1.0, 0.5], 0.1 * 0.9 ** np.arange(98)])


def recorded(monkeypatch, module, name):
    """Record the result of every call of module.name."""
    calls = []
    original = getattr(module, name)

    def record(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(module, name, record)
    return calls


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_certified_gap_tier_upper_end_holds_for_poor_iterates(seed):
    # Unit vectors tilted off the top eigenvector, mostly toward the
    # second, where the Kato-Temple end is nearly tight: a gap bound
    # below lambda_2 (rho_x^2 dropped) shows as t < lambda_max, one
    # above rho (the 2 on ||a x||^2 dropped) as no bound at all.
    a = hermitian_with_spectrum(LIGHT_TAIL, seed)
    top = np.linalg.eigvalsh(a, UPLO="U")[-1]
    vecs = np.linalg.eigh(a)[1]
    rng = rng_stream(seed, 1)
    tail = vecs[:, :-2] @ (rng.normal(size=98) + 1j * rng.normal(size=98))
    for tilt in np.geomspace(2e-3, 0.17, 7):
        v = vecs[:, -1] + tilt * (vecs[:, -2] + 0.3 * tail / np.linalg.norm(tail))
        v /= np.linalg.norm(v)
        w = a @ v
        rho = np.vdot(v, w).real
        res = float(np.linalg.norm(w - rho * v))
        assert 1e-3 <= res / rho <= 1e-1
        t = numerics._kato_temple_upper_end(a, v, w, rho, res)
        assert t is not None and t >= top


def test_certified_top_eig_gap_tier_never_certifies_a_lower_eigenvector(monkeypatch):
    # The iterate settles on the eigenvalue 1; the top vector, orthogonal
    # to the start, stays in P a P, so the gap bound is at least 1.2.
    eigs = np.concatenate([[1.2], LIGHT_TAIL])
    a = hermitian_with_spectrum(eigs, 15, top_orthogonal_to_ones=True)
    ends = recorded(monkeypatch, numerics, "_kato_temple_upper_end")
    b = a.copy()
    assert _certified(b) is None
    assert ends == [None]
    assert b.tobytes() == a.tobytes()


def test_certified_top_eig_heavy_tail_reaches_the_factor(monkeypatch):
    # ||P a P||_F is about 9.6 here, above rho = 3: only the factor proves t.
    eigs = np.concatenate([[3.0, 1.0], np.linspace(0.9, 0.1, 298)])
    a = hermitian_with_spectrum(eigs, 11)
    ends = recorded(monkeypatch, numerics, "_kato_temple_upper_end")
    factors = recorded(monkeypatch, np.linalg, "cholesky")
    rho, t = _certified(a.copy())
    assert ends == [None] and len(factors) == 1
    assert rho <= 3.0 * (1 + 1e-13) and 3.0 <= t <= rho * (1 + 1e-8)


def test_rng_stream_determinism_and_independence():
    a = rng_stream(42, 0).normal(size=8)
    b = rng_stream(42, 0).normal(size=8)
    c = rng_stream(42, 1).normal(size=8)
    d = rng_stream(43, 0).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert np.array_equal(rng_stream(np.int64(42), np.uint8(0)).normal(size=8), a)
    # truncated, 1.9 and True would draw seed 1's stream
    for seed, stream in [(1.9, 0), (True, 0), (0, np.True_), (None, 0), ("1", 0), (2 ** 64, 0)]:
        with pytest.raises(InputError, match=r"^seed and stream must be integers in \[0, 2\*\*64"):
            rng_stream(seed, stream)
