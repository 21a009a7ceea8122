"""Numerical kernels: Hermitian extreme eigenvalues, quadrature rules, RNG streams.

Everything here is generic plumbing.  The quadrature rules realize the
unnormalized area/volume integrals dA on the disc and dV on the ball of
complex dimension 2, plus the normalized boundary means dm on the circle
and d(sigma) on the sphere S^3.  Integrands are vectorized callables
mapping an (m, n) complex array of points to an (m,) real array.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, UnsupportedError

MAX_GAUSS_ORDER = 512
# Node cap of one interior or boundary rule, checked before the rule is
# built: the points and weights of a 2^23-node ball(2) rule alone take
# 336 MB.  The default rules stay far below (1.18 M nodes for uchiyama
# on ball(2), 1.57 M for green-check --space ball2).
MAX_QUAD_NODES = 1 << 23

# Fixed Philox key component so that distinct consumers of rng_stream
# can never collide with user-facing seeds by accident.
_PHILOX_WORDS = 2


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution of the product quadrature rules.

    radial_order   Gauss-Legendre order of the radial rule.
    angular_order  nodes on each periodic angle (the circle for the disc,
                   each torus angle of the Hopf rule for the ball).
    sphere_nodes   Gauss-Legendre order of the polar Hopf angle on S^3.
    tol            target accuracy used by callers as a pass/fail gate.
    """

    radial_order: int = 64
    angular_order: int = 128
    sphere_nodes: int = 24
    tol: float = 1e-8

    def __post_init__(self):
        for name in ("radial_order", "angular_order", "sphere_nodes"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 4:
                raise InputError(f"{name} must be an integer >= 4, got {value!r}")
            if name != "angular_order" and value > MAX_GAUSS_ORDER:
                raise InputError(
                    f"{name} is a Gauss-Legendre order, at most {MAX_GAUSS_ORDER}, got {value}"
                )
        if not self.tol > 0:
            raise InputError(f"tol must be positive, got {self.tol!r}")


def default_quadrature(space):
    """Sensible QuadratureSpec per space.

    The ball rule carries four coordinate factors, so it trades angular
    resolution for runtime; its integrands here have rapidly decaying
    angular Fourier content, which 32 nodes per torus angle resolve far
    below the 1e-3 tolerances used for ball-side checks.
    """
    if space.kind == "disc" or space.dim == 1:
        return QuadratureSpec()
    return QuadratureSpec(radial_order=48, angular_order=32, sphere_nodes=24, tol=1e-3)


class HermitianMatrix:
    """Dense Hermitian matrix with the deviation check done at construction.

    The upper triangle is authoritative: the eigensolver reads UPLO='U'.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InputError(f"expected a square matrix, got shape {a.shape}")
        scale = np.max(np.abs(a))
        deviation = np.max(np.abs(a - a.conj().T))
        if deviation > 1e-12 * max(scale, 1e-300):
            raise InputError(
                f"matrix is not Hermitian: deviation {deviation:.3e} "
                f"exceeds 1e-12 * {scale:.3e}"
            )
        self.entries = a

    @property
    def order(self):
        return self.entries.shape[0]


def extreme_eigs(m):
    """Smallest and largest eigenvalue of a Hermitian matrix.

    Accepts a HermitianMatrix or anything convertible to one (the
    conversion re-runs the Hermitian deviation check).
    """
    if not isinstance(m, HermitianMatrix):
        m = HermitianMatrix(m)
    try:
        eigs = np.linalg.eigvalsh(m.entries, UPLO="U")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    return float(eigs[0]), float(eigs[-1])


@functools.lru_cache(maxsize=None)
def _leggauss(order):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    if not isinstance(order, int) or not 1 <= order <= MAX_GAUSS_ORDER:
        raise InputError(f"order must be an integer in [1, {MAX_GAUSS_ORDER}], got {order!r}")
    nodes, weights = _leggauss(order)
    return nodes.copy(), weights.copy()


def _radial_rule(order, power):
    """Nodes r in (0, 1) and weights for integrating r**power * dr.

    Uses the substitution r = s**2, which makes integrands with a log
    singularity at the origin smooth enough for spectral accuracy; the
    plain mapped rule stalls near 1e-7 for the log weight.
    """
    x, w = _leggauss(order)
    s = 0.5 * (x + 1.0)
    ws = 0.5 * w
    r = s * s
    wr = ws * 2.0 * s ** (2 * power + 1)
    return r, wr


@functools.lru_cache(maxsize=None)
def _disc_rule(radial_order, angular_order):
    r, wr = _radial_rule(radial_order, 1)
    theta = 2.0 * np.pi * np.arange(angular_order) / angular_order
    wt = 2.0 * np.pi / angular_order
    points = (r[:, None] * np.exp(1j * theta)[None, :]).reshape(-1, 1)
    weights = np.repeat(wr * wt, angular_order)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


@functools.lru_cache(maxsize=None)
def _ball2_rule(radial_order, angular_order, sphere_nodes):
    # Hopf coordinates on S^3: z = r (cos(eta) e^{i p1}, sin(eta) e^{i p2}),
    # dV = r^3 dr * cos(eta) sin(eta) d(eta) dp1 dp2.
    r, wr = _radial_rule(radial_order, 3)
    xe, we = _leggauss(sphere_nodes)
    eta = 0.25 * np.pi * (xe + 1.0)
    weta = 0.25 * np.pi * we * np.cos(eta) * np.sin(eta)
    p = 2.0 * np.pi * np.arange(angular_order) / angular_order
    wp = 2.0 * np.pi / angular_order

    R, E, P1, P2 = np.meshgrid(r, eta, p, p, indexing="ij")
    z1 = (R * np.cos(E) * np.exp(1j * P1)).ravel()
    z2 = (R * np.sin(E) * np.exp(1j * P2)).ravel()
    points = np.column_stack([z1, z2])
    WR, WE = np.meshgrid(wr, weta, p, p, indexing="ij")[:2]
    weights = (WR * WE).ravel() * wp * wp
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def _check_node_count(count):
    if count > MAX_QUAD_NODES:
        raise InputError(f"quadrature rule has {count} nodes, limit is {MAX_QUAD_NODES}")


def disc_rule(q):
    """Interior nodes (m, 1) and weights carrying dA on the unit disc."""
    _check_node_count(q.radial_order * q.angular_order)
    return _disc_rule(q.radial_order, q.angular_order)


def ball_rule(q, dim=2):
    """Interior nodes (m, dim) and weights carrying dV on the unit ball.

    Only complex dimensions 1 and 2 are integrable; higher dimensions
    would need a 2n-1 real-dimensional sphere product rule.
    """
    if dim == 1:
        _check_node_count(q.radial_order * q.angular_order)
        return _disc_rule(q.radial_order, q.angular_order)
    if dim == 2:
        _check_node_count(q.radial_order * q.sphere_nodes * q.angular_order ** 2)
        return _ball2_rule(q.radial_order, q.angular_order, q.sphere_nodes)
    raise UnsupportedError(f"quadrature is implemented for complex dimension <= 2, got {dim}")


@functools.lru_cache(maxsize=None)
def _circle_rule(angular_order):
    theta = 2.0 * np.pi * np.arange(angular_order) / angular_order
    points = np.exp(1j * theta).reshape(-1, 1)
    weights = np.full(angular_order, 1.0 / angular_order)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


@functools.lru_cache(maxsize=None)
def _sphere3_rule(angular_order, sphere_nodes):
    xe, we = _leggauss(sphere_nodes)
    eta = 0.25 * np.pi * (xe + 1.0)
    weta = 0.25 * np.pi * we * np.cos(eta) * np.sin(eta)
    p = 2.0 * np.pi * np.arange(angular_order) / angular_order

    E, P1, P2 = np.meshgrid(eta, p, p, indexing="ij")
    z1 = (np.cos(E) * np.exp(1j * P1)).ravel()
    z2 = (np.sin(E) * np.exp(1j * P2)).ravel()
    points = np.column_stack([z1, z2])
    # dS = cos(eta) sin(eta) d(eta) dp1 dp2 and |S^3| = 2 pi^2, so the
    # normalized weights are weta * (2 pi / M)^2 / (2 pi^2).
    WE = np.meshgrid(weta, p, p, indexing="ij")[0]
    weights = WE.ravel() * (2.0 / angular_order ** 2)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def boundary_rule(q, space):
    """Boundary nodes and weights for the normalized measure (total mass 1)."""
    if space.kind == "disc" or space.dim == 1:
        _check_node_count(q.angular_order)
        return _circle_rule(q.angular_order)
    if space.dim == 2:
        _check_node_count(q.sphere_nodes * q.angular_order ** 2)
        return _sphere3_rule(q.angular_order, q.sphere_nodes)
    raise UnsupportedError(
        f"boundary quadrature is implemented for complex dimension <= 2, got {space.dim}"
    )


def _apply_rule(f, points, weights):
    values = np.asarray(f(points), dtype=float)
    if values.shape != weights.shape:
        raise InputError(
            f"integrand returned shape {values.shape}, expected {weights.shape}"
        )
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericError(f"integrand is not finite at node {i}, z = {points[i]}")
    return float(np.sum(weights * values))


def disc_quadrature(f, q):
    """Integral of f over the unit disc against unnormalized area dA."""
    points, weights = disc_rule(q)
    return _apply_rule(f, points, weights)


def ball_quadrature(f, q, dim=2):
    """Integral of f over the unit ball against unnormalized volume dV."""
    points, weights = ball_rule(q, dim)
    return _apply_rule(f, points, weights)


def boundary_quadrature(f, q, space):
    """Mean of f over the boundary circle/sphere (measure normalized to 1)."""
    points, weights = boundary_rule(q, space)
    return _apply_rule(f, points, weights)


def rng_stream(seed, stream):
    """Deterministic counter-based generator for the pair (seed, stream).

    Distinct streams are statistically independent; identical pairs
    reproduce identical draws on every platform.
    """
    if seed < 0 or stream < 0:
        raise InputError("seed and stream must be non-negative integers")
    bit_gen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    return np.random.Generator(bit_gen)
