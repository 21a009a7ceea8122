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


def _hermitian_deviation(a):
    """The deviation test over the last two axes of a: (deviation, scale, fails).

    deviation is max |a - a^H| and scale max |a| per matrix; a matrix
    fails when its deviation exceeds 1e-12 * scale.
    """
    scale = np.max(np.abs(a), axis=(-2, -1))
    deviation = np.max(np.abs(a - a.conj().swapaxes(-1, -2)), axis=(-2, -1))
    return deviation, scale, deviation > 1e-12 * np.maximum(scale, 1e-300)


def _not_hermitian(deviation, scale):
    return InputError(
        f"matrix is not Hermitian: deviation {deviation:.3e} exceeds 1e-12 * {scale:.3e}"
    )


class HermitianMatrix:
    """Dense Hermitian matrix with the deviation check done at construction.

    The upper triangle is authoritative: the eigensolver reads UPLO='U'.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InputError(f"expected a square matrix, got shape {a.shape}")
        deviation, scale, fails = _hermitian_deviation(a)
        if fails:
            raise _not_hermitian(deviation, scale)
        self.entries = a

    @property
    def order(self):
        return self.entries.shape[0]


def _eigvalsh(a):
    """Ascending eigenvalues of a Hermitian matrix or stack, read from the upper triangle."""
    try:
        return np.linalg.eigvalsh(a, UPLO="U")
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc


def extreme_eigs(m):
    """Smallest and largest eigenvalue of a Hermitian matrix.

    Accepts a HermitianMatrix or anything convertible to one (the
    conversion re-runs the Hermitian deviation check).
    """
    if not isinstance(m, HermitianMatrix):
        m = HermitianMatrix(m)
    eigs = _eigvalsh(m.entries)
    return float(eigs[0]), float(eigs[-1])


def _top_eigs(a):
    """Largest eigenvalue of each matrix of a (r, k, k) complex stack.

    Each matrix that fails HermitianMatrix's deviation test gets its
    InputError in place of a value; the others go to one batched
    eigensolve.  When that fails to converge, they are solved one at a
    time, so a NumericError belongs only to the matrix that raised it.
    """
    deviation, scale, fails = _hermitian_deviation(a)
    out = [_not_hermitian(deviation[i], scale[i]) if fails[i] else None for i in range(len(a))]
    good = np.flatnonzero(~fails)
    try:
        tops = _eigvalsh(a[good])[:, -1]
    except NumericError:
        tops = []
        for i in good:
            try:
                tops.append(_eigvalsh(a[i])[-1])
            except NumericError as exc:
                tops.append(exc)
    for i, top in zip(good, tops):
        out[i] = top if isinstance(top, NumericError) else float(top)
    return out


# _certified_top_eig: power-iteration cap, bracket width relative to rho,
# and the range of the largest diagonal entry it accepts (outside it the
# squares in the norms and the factor could over- or underflow).
_POWER_STEPS = 64
_BRACKET_TOL = 1e-8
_DIAGONAL_RANGE = (2.0 ** -200, 2.0 ** 200)
_UNIT_ROUNDOFF = 2.0 ** -53
_SMALLEST_SUBNORMAL = 2.0 ** -1074


def _cholesky_error_factor(n):
    """g with ||R^H R - B||_2 <= g tr(B) when a complex Cholesky factor R of B completes.

    Each entry of R^H R - B is the rounding of one row of the factor: the
    real and the imaginary part of b_jk - sum_{i<j} conj(r_ij) r_ik are
    each a real sum of at most 2n - 1 products, then divided by r_jj (the
    diagonal, b_jj - sum |r_ij|^2, likewise, then a square root).  In any
    evaluation order each part is off by at most gamma_{2n} times the sum
    of its products' magnitudes, and |Re a Re b| + |Im a Im b| <= |a| |b|,
    so |R^H R - B| <= gamma |R|^T |R| entrywise with gamma =
    sqrt(2) gamma_{2n+2} (gamma_k = k u / (1 - k u), u = 2^-53): the
    real-arithmetic gamma_{n+1} of Demmel's bound, stretched for complex
    parts.  Then ||R e_j||^2 = b_jj + (R^H R - B)_jj gives
    ||R e_j||^2 <= b_jj / (1 - gamma), and
    || |R|^T |R| ||_2 <= ||R||_F^2 <= tr(B) / (1 - gamma).
    """
    k = 2 * n + 2
    gamma = math.sqrt(2.0) * k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
    return gamma / (1.0 - gamma)


def _certified_top_eig(a):
    """Bracket (rho, t) with rho <= lambda_max(a) <= t and t - rho <= 1e-8 rho, or None.

    a is an (n, n) complex Hermitian array with a positive diagonal; it is
    overwritten when a bracket is returned, and the factor reads its
    upper triangle, as extreme_eigs does.  rho is the Rayleigh quotient
    of a power iterate from the all-ones vector, a lower bound up to its
    own rounding.  t is proven by Rump's verified positive-definiteness
    test (S. M. Rump, BIT 46 (2006) 433-452): the floating-point Cholesky
    factor of s I - a completes.  The iteration stops on the residual
    r = a v - rho v, once ||r|| plus the bracket's rounding allowance is
    within 1e-8 rho; it never stops on successive rho, which can keep
    flipping by an ulp after it has settled.

    Returns None, and leaves a as it was bit for bit, when the diagonal
    lies outside _DIAGONAL_RANGE, when the residual misses the stopping
    rule within _POWER_STEPS products (a near-degenerate top pair, or a
    start vector without a top component), or when the factor fails (the
    iterate found a lower eigenvalue).  The allowance grows like n^2, so
    from about n = 2800 on the rule is never met.
    """
    n = len(a)
    diag = a.diagonal().real
    if not (diag.min() > 0.0 and _DIAGONAL_RANGE[0] <= diag.max() <= _DIAGONAL_RANGE[1]):
        return None
    g = _cholesky_error_factor(n)
    v = np.full(n, n ** -0.5, dtype=complex)
    for _ in range(_POWER_STEPS):
        w = a @ v
        rho = np.vdot(v, w).real
        res = float(np.linalg.norm(w - rho * v))
        # Rump's shift for s = rho + res + shift: since the diagonal is
        # positive and 2 g n < 1, g tr(s I - a) < g n s < shift.  s stays
        # above rho + res by it, so a tiny ||r|| cannot fail the factor
        # through rounding alone.  Below, t - s is at most
        # 2 g n s (1 + u) + 2 u s and an ulp, so t - rho stays under
        # res + 5 g n (rho + res).
        shift = 2.0 * g * n * (rho + res)
        if res + 5.0 * g * n * (rho + res) <= _BRACKET_TOL * rho:
            break
        v = w / np.linalg.norm(w)
    else:
        return None
    s = rho + res + shift
    saved = a.diagonal().copy()
    # B = s I - a in place: -a_jk is exact, only b_jj = fl(s - a_jj) rounds.
    np.negative(a, out=a)
    a.flat[:: n + 1] += s
    # a.T is a view whose lower triangle is the upper triangle of B, so
    # cholesky factors conj(B): the same trace and spectrum, and numpy
    # 1.x has no upper= keyword.
    try:
        np.linalg.cholesky(a.T)
    except np.linalg.LinAlgError:
        # -(-a_jk) is exact: a is restored for the dense eigensolve
        np.negative(a, out=a)
        a.flat[:: n + 1] = saved
        return None
    # B + E = R^H R is positive semidefinite with ||E||_2 <= g tr(B), so
    # lambda_min(B) >= -g tr(B).  s I - a differs from B by the diagonal
    # rounding, at most u b_jj per entry.  Gradual underflow adds at most
    # about 2 eta per complex product and eta r_jj per division to each
    # entry of E (eta the smallest subnormal), so at most
    # 8 n (n + 1 + max b_jj) eta in 2-norm.  Hence
    # lambda_max(a) <= s + g tr(B) + u max b_jj + that term; c doubles it
    # to cover the rounding of c itself, and nextafter the rounding of s + c.
    b = a.diagonal().real
    bmax = float(b.max())
    c = 2.0 * (g * float(b.sum()) + _UNIT_ROUNDOFF * bmax
               + 8.0 * n * (n + 1 + bmax) * _SMALLEST_SUBNORMAL)
    return float(rho), float(np.nextafter(s + c, np.inf))


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
    if not (0 <= seed < 2 ** 64 and 0 <= stream < 2 ** 64):
        raise InputError("seed and stream must be integers in [0, 2**64)")
    bit_gen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    return np.random.Generator(bit_gen)
