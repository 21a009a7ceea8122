"""Numerical kernels: Hermitian extreme eigenvalues, quadrature rules, RNG streams.

Everything here is generic plumbing.  The quadrature rules realize the
unnormalized area/volume integrals dA on the disc and dV on the ball,
plus the normalized boundary means dm on the circle and d(sigma) on the
sphere.  Each rule is one product, radial (interior rules only) x moduli
(|z_1|, ..., |z_n|) on the sphere x n uniform torus angles; the moduli
rule, the only dimension-specific piece, covers n <= 2.  Integrands are
vectorized callables mapping an (m, n) complex array of points to an
(m,) real array.
"""

import functools
import math
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
    if space.dim == 1:
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


def _moduli_rule(dim, sphere_nodes):
    """Nodes (|z_1|, ..., |z_dim|) on the unit sphere and their weights.

    With z_j = |z_j| e^{i p_j}, the surface measure of the sphere is these
    weights times d(p_1) ... d(p_dim); this is the only piece of a rule
    that depends on the dimension.
    """
    if dim == 1:
        moduli, weights = np.ones((1, 1)), np.ones(1)
    else:
        # Hopf coordinates on S^3: (|z_1|, |z_2|) = (cos(eta), sin(eta)),
        # dS = cos(eta) sin(eta) d(eta) dp1 dp2.
        xe, we = _leggauss(sphere_nodes)
        eta = 0.25 * np.pi * (xe + 1.0)
        moduli = np.column_stack([np.cos(eta), np.sin(eta)])
        weights = 0.25 * np.pi * we * moduli[:, 0] * moduli[:, 1]
    return moduli, weights


def _torus_product(moduli, wmod, angular_order, scale):
    """Nodes moduli[k, i] e^{i p_i} over dim uniform angles p_i per modulus row.

    Node order is meshgrid(indexing="ij") over (row, p_1, ..., p_dim); the
    weight of a node is wmod[k] * scale * ... * scale (dim factors).
    """
    rows, dim = moduli.shape
    m = angular_order
    phase = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
    points = np.empty((rows * m ** dim, dim), dtype=complex)
    grid = points.reshape((rows,) + (m,) * dim + (dim,))
    for i, p in enumerate(np.meshgrid(*[phase] * dim, indexing="ij", sparse=True)):
        np.multiply(moduli[:, i].reshape((rows,) + (1,) * dim), p[None], out=grid[..., i])
    weights = wmod
    for _ in range(dim):
        weights = weights * scale
    weights = np.repeat(weights, m ** dim)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def _check_node_count(count):
    if count > MAX_QUAD_NODES:
        raise InputError(f"quadrature rule has {count} nodes, limit is {MAX_QUAD_NODES}")


@functools.lru_cache(maxsize=None)
def _product_rule(dim, angular_order, sphere_nodes, radial_order=None):
    """Interior rule carrying dV, or without radial_order the normalized boundary rule.

    The interior rule is the radial rule for r^(2 dim - 1) dr times the
    moduli times the torus; the boundary rule drops the radial factor.
    The node count is checked before the rule is built.
    """
    moduli, wmod = _moduli_rule(dim, sphere_nodes)
    _check_node_count((radial_order or 1) * len(wmod) * angular_order ** dim)
    if radial_order is None:
        # |S^(2n-1)| = 2 pi^n / (n-1)!, so the torus factor (2 pi / M)^n
        # over the sphere's area is (n-1)! 2^(n-1) / M^n.
        norm = math.factorial(dim - 1) * 2 ** (dim - 1) / angular_order ** dim
        return _torus_product(moduli, wmod * norm, angular_order, 1.0)
    r, wr = _radial_rule(radial_order, 2 * dim - 1)
    return _torus_product(
        np.multiply.outer(r, moduli).reshape(-1, dim),
        np.outer(wr, wmod).ravel(),
        angular_order,
        2.0 * np.pi / angular_order,
    )


def disc_rule(q):
    """Interior nodes (m, 1) and weights carrying dA on the unit disc."""
    return _product_rule(1, q.angular_order, q.sphere_nodes, q.radial_order)


def ball_rule(q, dim=2):
    """Interior nodes (m, dim) and weights carrying dV on the unit ball.

    The rule is radial x moduli x torus: Gauss-Legendre in r (after
    r = s^2), the moduli (|z_1|, ..., |z_dim|) on the sphere, and dim
    uniform angles.  Only the moduli depend on the dimension, and they
    are implemented for complex dimensions 1 and 2.
    """
    if dim not in (1, 2):
        raise UnsupportedError(f"quadrature is implemented for complex dimension <= 2, got {dim}")
    return _product_rule(dim, q.angular_order, q.sphere_nodes, q.radial_order)


def boundary_rule(q, space):
    """Boundary nodes and weights for the normalized measure (total mass 1)."""
    if space.dim not in (1, 2):
        raise UnsupportedError(
            f"boundary quadrature is implemented for complex dimension <= 2, got {space.dim}"
        )
    return _product_rule(space.dim, q.angular_order, q.sphere_nodes)


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
