"""Numerical kernels: Hermitian extreme eigenvalues, quadrature rules, RNG streams.

Everything here is generic plumbing.  The quadrature rules realize the
unnormalized area/volume integrals dA on the disc and dV on the ball,
plus the normalized boundary means dm on the circle and d(sigma) on the
sphere.  Each rule is one product, radial (interior rules only) x moduli
(|z_1|, ..., |z_n|) on the sphere x n uniform torus angles; the moduli
rule, the only dimension-specific piece, covers n <= 2 and alone refuses
a larger n.  Only the factors of a rule are cached (_rule_factors).  Every
integral streams its rule: a _RuleStream (or, for the blocks of
calculus.uchiyama_checks, _fill_nodes itself) fills one row block of
nodes after another from the factors, so a pass holds one block and at
most 8 bytes per node.  The public rule accessors fill a whole rule the same way
on each call and cache nothing.  A QuadratureSpec holds only the orders
of a rule; pass/fail tolerances belong to its callers.  Integrands are
vectorized callables mapping an (m, n) complex array of points to an
(m,) real array; they are evaluated one row block at a time.

HermitianMatrix tests the matrices that come from outside the program;
the program's own Gram matrices are Hermitian by construction
(measure._weighted_gram), and _top_eigs takes them untested.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, NumericError, UnsupportedError, _as_integer, _check_integer

MAX_GAUSS_ORDER = 512
# Node cap of one interior or boundary rule, checked before any node
# exists.  A streamed pass holds one block and 8 bytes per node: 67 MB at
# the cap, where the whole rule's points and weights would take 336 MB.
# The default rules stay far below (1.18 M nodes for uchiyama on ball(2),
# 1.57 M for green-check --space ball2).
MAX_QUAD_NODES = 1 << 23


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution of the product quadrature rules.

    radial_order   Gauss-Legendre order of the radial rule.
    angular_order  nodes on each periodic angle (the circle for the disc,
                   each torus angle of the Hopf rule for the ball).
    sphere_nodes   Gauss-Legendre order of the polar Hopf angle on S^3.
    """

    radial_order: int = 64
    angular_order: int = 128
    sphere_nodes: int = 24

    def __post_init__(self):
        for name in ("radial_order", "angular_order", "sphere_nodes"):
            value = _check_integer(name, getattr(self, name), 4)
            object.__setattr__(self, name, value)
            if name != "angular_order" and value > MAX_GAUSS_ORDER:
                raise InputError(
                    f"{name} is a Gauss-Legendre order, at most {MAX_GAUSS_ORDER}, got {value}"
                )


def default_quadrature(space):
    """Sensible QuadratureSpec per space.

    The ball rule carries four coordinate factors, so it trades angular
    resolution for runtime; its integrands here have rapidly decaying
    angular Fourier content, which 32 nodes per torus angle resolve far
    below the 1e-3 slack of the ball-side checks (cli.BALL_SLACK).
    """
    if space.dim == 1:
        return QuadratureSpec()
    return QuadratureSpec(radial_order=48, angular_order=32, sphere_nodes=24)


# Every blocked pass works on row blocks of about this many entries, so
# no full (rows x columns) matrix is held: the 1 - <z, lam> blocks of
# measure._kernel_blocks behind every Poisson block (c_supp, uchiyama's
# atoms and nodes) and every Gram build (the search's stacks included),
# the grid scan's blocks of directions and chunks of radii, the box
# scan, the Hermitian check and the Green's-formula stencil.  A complex
# block is 1 MiB; of 2^14-2^20, 2^15-2^16 ran the ball(2) green-check
# and uchiyama passes fastest (fresh processes, 2 vCPUs).
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(rows, cols):
    """Slices covering range(rows), each at most _BLOCK_ENTRIES // cols rows."""
    step = max(1, _BLOCK_ENTRIES // cols)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _hermitian_deviation(a):
    """The deviation test of a square matrix a: (deviation, scale, fails).

    deviation is max |a - a^H| and scale max |a|; a fails when its
    deviation exceeds 1e-12 * scale, or when scale is NaN or inf: an
    entry is non-finite, or its modulus overflows.  |a - a^H| is the same
    on both sides of the diagonal, so row block [r0, r1) compares only
    a[r0:r1, r0:] with a[r0:, r0:r1]^H, in scratch of one block.  The
    block maxima combine by np.maximum, which keeps a NaN (Python's max
    drops it).
    """
    k = len(a)
    blocks = _row_blocks(k, k)
    shape = (min(blocks[0].stop, k), k)
    diff, mag = np.empty(shape, dtype=complex), np.empty(shape)
    deviation = scale = -np.inf
    for rows in blocks:
        r0 = rows.start
        h = min(rows.stop, k) - r0
        d = np.conjugate(a[r0:, rows].T, out=diff[:h, r0:])
        dev = np.abs(np.subtract(a[rows, r0:], d, out=d), out=mag[:h, r0:])
        deviation = np.maximum(deviation, dev.max())
        scale = np.maximum(scale, np.abs(a[rows], out=mag[:h]).max())
    fails = not np.isfinite(scale) or deviation > 1e-12 * np.maximum(scale, 1e-300)
    return deviation, scale, fails


def _not_hermitian(a, deviation, scale):
    """The InputError of a matrix that fails the deviation test, or has no finite scale."""
    if not math.isfinite(scale):
        bad = np.argwhere(~np.isfinite(a))
        listed = "".join(f", a[{j}, {k}] = {a[j, k]}" for j, k in bad[:4])
        more = ", ..." if len(bad) > 4 else ""
        return InputError(
            f"matrix entries are not finite in modulus: max |a| is {scale}, "
            f"{len(bad)} non-finite entries{listed}{more}"
        )
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
            raise _not_hermitian(a, deviation, scale)
        self.entries = a


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


# From this order on _top_eigs tries the certified power iteration
# first.  Best of 15 runs (3 at order 2000) on three random disc and
# ball(2) measures each, two sessions (2 vCPUs, numpy 2.4.6, OpenBLAS
# 0.3.31), eigvalsh against the certificate: order 100, 0.6-1.1 ms
# against 0.9-1.7 ms, and two of the three ball(2) certificates declined
# (top pair too close for the step cap); order 256, 6.3-11 ms against
# 1.1-4.0 ms; order 2000, 1.2-2.0 s against 0.021-0.027 s.  Orders 150
# and 200 would gain too, but below this order a_sq is eigvalsh's value,
# and the certificate's rho differs from it in the last digits, so
# moving the threshold changes printed output.
_CERTIFIED_MIN_ORDER = 256


def _top_eigs(a):
    """Largest eigenvalue of each matrix of a (r, k, k) complex stack.

    Every matrix equals its conjugate transpose exactly, as the Gram
    matrices of measure._weighted_gram do; nothing here tests it.  From
    order _CERTIFIED_MIN_ORDER on each matrix takes rho of
    _certified_top_eig's bracket; the rest go to one batched
    eigensolve, and when that fails to converge, one at a time, so a
    NumericError belongs only to the matrix that raised it.
    """
    out = [None] * len(a)
    if a.shape[-1] >= _CERTIFIED_MIN_ORDER:
        for i in range(len(a)):
            bracket = _certified_top_eig(a[i])
            if bracket is not None:
                out[i] = bracket[0]
    rest = [i for i, top in enumerate(out) if top is None]
    if not rest:
        return out
    try:
        # a[rest] would copy the whole stack, a 2000-atom Gram matrix too
        tops = _eigvalsh(a if len(rest) == len(a) else a[rest])[:, -1]
    except NumericError:
        tops = []
        for i in rest:
            try:
                tops.append(_eigvalsh(a[i])[-1])
            except NumericError as exc:
                tops.append(exc)
    for i, top in zip(rest, tops):
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


def _sqrt_out(q, up):
    """A float s, as a Fraction, with s^2 >= q if up, else s^2 <= q; q >= 0 a Fraction."""
    s = math.sqrt(float(q))
    while Fraction(s) ** 2 < q if up else Fraction(s) ** 2 > q:
        s = math.nextafter(s, math.inf if up else 0.0)
    return Fraction(s)


def _kato_temple_upper_end(a, v, w, rho, res):
    """A float t >= lambda_max(a) from a power iterate v, or None when the gap bound fails.

    a equals its conjugate transpose exactly.  w = a @ v, rho =
    np.vdot(v, w).real and res = np.linalg.norm(w - rho * v) as the
    power loop computes them, with 0.5 <= ||v||^2 <= 2.  O(n^2) work:
    one np.vdot over a, which is only read.  With x = v / ||v||, rho_x =
    x^H a x, eps = ||a x - rho_x x|| and P = I - x x^H:

    - Gap.  alpha^2 = ||P a P||_F^2 = ||a||_F^2 - 2 ||a x||^2 + rho_x^2.
      The compression of a to x^perp has top eigenvalue at least
      lambda_2 (Cauchy interlacing), so lambda_2 <= alpha.
    - Upper end (Kato-Temple).  When alpha < rho_x <= lambda_1, lambda_1
      is the only eigenvalue above alpha, so with c_i the components of
      x on the eigenvectors, 0 <= sum (lambda_i - lambda_1)(lambda_i -
      alpha) |c_i|^2 = eps^2 - (lambda_1 - rho_x)(rho_x - alpha), and
      lambda_1 <= rho_x + eps^2 / (rho_x - alpha).  An iterate near a
      lower eigenvector leaves the top one in P a P, so alpha >=
      lambda_1 > rho_x and this returns None.

    Rounding: u = 2^-53, eta = 2^-1074, gamma_k = k u / (1 - k u), and
    2 n^2 u < 1 for any array that fits in memory.  A real sum of k
    products in any order, with or without fused multiply-adds, is off
    by at most gamma_k times the sum of the products' moduli, plus k eta
    for underflow (a product loses at most eta / 2 to it, a subnormal
    sum is exact).  Every reduction below is such a sum with k <= 2 n^2,
    and tiny = 3 n^2 eta covers each underflow term.  With N = ||v||^2
    and F_a = ||a||_F:

    - ||a||_F^2 is a sum of 2 n^2 squares, so F_a^2 <= (fl + tiny) /
      (1 - gamma_{2n^2}); ||v||^2 and ||w||^2, of 2n squares, are
      bracketed likewise with gamma_2n.
    - Re and Im of (a v)_j are sums of 2n products whose moduli sum to
      at most (|a| |v|)_j, and || |a| ||_2 <= F_a, so ||w - a v|| <= dw
      = 3/2 gamma_2n F_a sqrt N + tiny, as 3/2 >= sqrt 2.  Hence
      ||a v|| >= ||w|| - dw, and |rho - v^H a v| <= gamma_2n sqrt N ||w||
      + tiny + sqrt N dw brackets rho_x = v^H a v / N.
    - Each part of fl(w - rho v) is off by at most gamma_2 (|w_j| +
      |rho v_j|) + eta, gamma_2 <= gamma_2n, and res is the rounded
      square root of a sum of 2n squares, so ||a v - rho v|| <=
      sqrt(((res / (1 - u))^2 + tiny) / (1 - gamma_2n)) + gamma_2n
      (||w|| + rho sqrt N) + tiny + dw; divided by sqrt N it bounds eps,
      since rho_x minimizes ||a x - sigma x|| over sigma.

    The bounds, alpha^2 and t are combined in exact rational arithmetic;
    each square root is stepped outward to a float whose square lies on
    the safe side (_sqrt_out), and t is returned as the float above it.
    ||a||_F^2 < 2^900 keeps every bound a finite float.
    """
    n = len(a)
    f2, nv, ww = (float(np.vdot(x, x).real) for x in (a, v, w))
    if not (rho > 0.0 and f2 < 2.0 ** 900 and 0.5 <= nv <= 2.0):
        return None
    u, tiny = Fraction(_UNIT_ROUNDOFF), 3 * n * n * Fraction(_SMALLEST_SUBNORMAL)
    g = 2 * n * u / (1 - 2 * n * u)
    g_frob = 2 * n * n * u / (1 - 2 * n * n * u)
    fa = _sqrt_out((Fraction(f2) + tiny) / (1 - g_frob), True)
    n_lo, n_hi = (Fraction(nv) - tiny) / (1 + g), (Fraction(nv) + tiny) / (1 - g)
    root_n = _sqrt_out(n_hi, True)
    w_hi = _sqrt_out((Fraction(ww) + tiny) / (1 - g), True)
    w_lo = _sqrt_out(max((Fraction(ww) - tiny) / (1 + g), 0), False)
    dw = Fraction(3, 2) * g * fa * root_n + tiny
    hv_lo = max(w_lo - dw, 0)
    drq = g * root_n * w_hi + tiny + root_n * dw
    rho_lo, rho_hi = (Fraction(rho) - drq) / n_hi, (Fraction(rho) + drq) / n_lo
    alpha = _sqrt_out(fa ** 2 - 2 * hv_lo ** 2 / n_hi + rho_hi ** 2, True)
    if not alpha < rho_lo:
        return None
    r = _sqrt_out(((Fraction(res) / (1 - u)) ** 2 + tiny) / (1 - g), True)
    resid = r + g * (w_hi + Fraction(rho) * root_n) + tiny + dw
    return math.nextafter(float(rho_hi + resid ** 2 / n_lo / (rho_lo - alpha)), math.inf)


def _certified_top_eig(a):
    """Bracket (rho, t) with rho <= lambda_max(a) <= t and t - rho <= 1e-8 rho, or None.

    a equals its conjugate transpose exactly and has a positive
    diagonal.  rho is the Rayleigh quotient of a power iterate from the
    all-ones vector, a lower bound up to its own rounding.  The
    iteration stops on the residual r = a v - rho v, once ||r|| plus the
    Cholesky tier's rounding allowance is within 1e-8 rho; it never
    stops on successive rho, which can keep flipping by an ulp after it
    has settled.  Then t comes from the first tier that proves it:

    - the gap tier (_kato_temple_upper_end), O(n^2) work that only reads
      a, when the Frobenius gap bound alpha >= lambda_2 lies below rho
      and the Kato-Temple end is within 1e-8 rho;
    - else Rump's verified positive-definiteness test (S. M. Rump, BIT
      46 (2006) 433-452): the floating-point Cholesky factor of s I - a
      completes.  This tier overwrites a when it returns a bracket.

    Returns None, and leaves a as it was bit for bit, when the diagonal
    lies outside _DIAGONAL_RANGE, when the residual misses the stopping
    rule within _POWER_STEPS products (a near-degenerate top pair, or a
    start vector without a top component), or when both tiers fail (the
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
    t = _kato_temple_upper_end(a, v, w, rho, res)
    if t is not None and t - rho <= _BRACKET_TOL * rho:
        return float(rho), t
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
    nodes, weights = _leggauss(_check_integer("order", order, 1, MAX_GAUSS_ORDER))
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
    that depends on the dimension, and it is implemented for n <= 2.
    """
    if dim == 1:
        moduli, weights = np.ones((1, 1)), np.ones(1)
    elif dim == 2:
        # Hopf coordinates on S^3: (|z_1|, |z_2|) = (cos(eta), sin(eta)),
        # dS = cos(eta) sin(eta) d(eta) dp1 dp2.
        xe, we = _leggauss(sphere_nodes)
        eta = 0.25 * np.pi * (xe + 1.0)
        moduli = np.column_stack([np.cos(eta), np.sin(eta)])
        weights = 0.25 * np.pi * we * moduli[:, 0] * moduli[:, 1]
    else:
        raise UnsupportedError(f"quadrature is implemented for complex dimension <= 2, got {dim}")
    return moduli, weights


def _check_node_count(count):
    if count > MAX_QUAD_NODES:
        raise InputError(f"quadrature rule has {count} nodes, limit is {MAX_QUAD_NODES}")


# typed: every order and dimension reaching it is an int (QuadratureSpec
# and _interior_stream convert them), so any other type shows as a second rule
@functools.lru_cache(maxsize=None, typed=True)
def _rule_factors(dim, angular_order, sphere_nodes, radial_order=None):
    """The factors (rows, row_weights, phases) of one product rule, a few hundred entries.

    With radial_order the rule is the interior rule carrying dV: the
    radial rule for r^(2 dim - 1) dr times the moduli times the torus;
    without it, the normalized boundary rule, which drops the radial
    factor.  rows (R, dim) complex holds the moduli of each
    radial x moduli row, row_weights (R,) their weights times the torus
    factor.  The torus nodes t = (p_1, ..., p_dim), in meshgrid "ij"
    order, have phases e^{i p_j}; phases (dim, M^dim dim) is the matrix
    whose column t dim + j holds the phase of p_j in row j and zeros
    elsewhere.  So coordinate j of node k M^dim + t of the rule is entry
    t dim + j of rows[k] @ phases: one product rows[k, j] e^{i p_j},
    since the other terms are exact zeros, and its weight is
    row_weights[k].  The node count is checked before anything of the
    size of the rule exists.
    """
    moduli, wmod = _moduli_rule(dim, sphere_nodes)
    _check_node_count((radial_order or 1) * len(wmod) * angular_order ** dim)
    if radial_order is None:
        # |S^(2n-1)| = 2 pi^n / (n-1)!, so the torus factor (2 pi / M)^n
        # over the sphere's area is (n-1)! 2^(n-1) / M^n.
        norm = math.factorial(dim - 1) * 2 ** (dim - 1) / angular_order ** dim
        rows, weights, scale = moduli, wmod * norm, 1.0
    else:
        r, wr = _radial_rule(radial_order, 2 * dim - 1)
        rows = np.multiply.outer(r, moduli).reshape(-1, dim)
        weights, scale = np.outer(wr, wmod).ravel(), 2.0 * np.pi / angular_order
    for _ in range(dim):
        weights = weights * scale
    m = angular_order
    phase = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
    phases = np.zeros((dim, m ** dim, dim), dtype=complex)
    for j, p in enumerate(np.meshgrid(*[phase] * dim, indexing="ij")):
        phases[j, :, j] = p.ravel()
    # moduli with zero imaginary parts: a node's coordinate is the product
    # modulus * phase, with the bits numpy gives a float times a complex
    factors = rows.astype(complex), weights, phases.reshape(dim, -1)
    for a in factors:
        a.setflags(write=False)
    return factors


def _fill_nodes(factors, start, stop, points=None, weighted=None):
    """Write nodes [start, stop) of the rule of factors into points, or weigh values by them.

    The one formula for a node (_rule_factors): node k M^dim + t is
    columns [t dim, (t + 1) dim) of rows[k] @ phases, with weight
    row_weights[k].  points (stop - start, dim) complex receives the
    nodes of the range; weighted (stop - start,) holds a value per node
    of the range and is multiplied by its weights in place.  Either may
    be None.  A range is at most a partial row, whole rows and a partial
    row, each one matrix product into points (BLAS writes the
    interleaved coordinates in half the time of one broadcast product
    per coordinate, and the exact zeros leave every node's bits as they
    are) and one broadcast product by the row weights.
    """
    rows, row_weights, phases = factors
    dim = rows.shape[1]
    per_row = phases.shape[1] // dim
    j = start
    while j < stop:
        k, t = divmod(j, per_row)
        if t == 0 and stop - j >= per_row:
            k1, t1 = k + (stop - j) // per_row, per_row
        else:
            k1, t1 = k + 1, min(per_row, t + stop - j)
        shape = (k1 - k, t1 - t)
        out = slice(j - start, j - start + shape[0] * shape[1])
        if points is not None:
            np.matmul(rows[k:k1], phases[:, t * dim:t1 * dim],
                      out=points[out].reshape(shape[0], shape[1] * dim))
        if weighted is not None:
            block = weighted[out].reshape(shape)
            np.multiply(block, row_weights[k:k1, None], out=block)
        j = out.stop + start


class _RuleStream:
    """The nodes and weights of one product rule, filled range by range from its cached factors.

    points(rows) fills the nodes of a row slice, clipped to the rule,
    into scratch of this stream, grown to the longest range asked for,
    and its result holds until its next call; weigh(rows, values)
    multiplies a value per node of rows by their weights in place.  A
    stream belongs to one pass: scratch shared by passes that run side
    by side would be overwritten under them.  The node count is checked
    when the stream is made, before any node exists.
    """

    __slots__ = ("shape", "_factors", "_points")

    def __init__(self, dim, angular_order, sphere_nodes, radial_order=None):
        self._factors = _rule_factors(dim, angular_order, sphere_nodes, radial_order)
        rows, _, phases = self._factors
        self.shape = (len(rows) * phases.shape[1] // dim, dim)
        self._points = np.empty((0, dim), dtype=complex)

    def __len__(self):
        return self.shape[0]

    def points(self, rows):
        """(k, dim) complex nodes of rows."""
        start, stop, _ = rows.indices(len(self))
        if stop - start > len(self._points):
            self._points = np.empty((stop - start, self.shape[1]), dtype=complex)
        out = self._points[:stop - start]
        _fill_nodes(self._factors, start, stop, points=out)
        return out

    def weigh(self, rows, values):
        """values, one float per node of rows, times the weights of those nodes, in place."""
        start, stop, _ = rows.indices(len(self))
        _fill_nodes(self._factors, start, stop, weighted=values)
        return values


def _interior_stream(q, dim):
    """The stream of ball_rule(q, dim); dim must be a positive integer."""
    dim = _check_integer("complex dimension", dim, 1)
    return _RuleStream(dim, q.angular_order, q.sphere_nodes, q.radial_order)


def _whole_rule(stream):
    """(nodes, weights) of the whole rule of stream, filled as one range into new arrays."""
    return stream.points(slice(None)), stream.weigh(slice(None), np.ones(len(stream)))


def disc_rule(q):
    """Interior nodes (m, 1) and weights carrying dA on the unit disc."""
    return _whole_rule(_interior_stream(q, 1))


def ball_rule(q, dim=2):
    """Interior nodes (m, dim) and weights carrying dV on the unit ball.

    Gauss-Legendre in r (after r = s^2) x the moduli (|z_1|, ..., |z_dim|)
    on the sphere x dim uniform angles, for complex dimensions 1 and 2.
    """
    return _whole_rule(_interior_stream(q, dim))


def boundary_rule(q, space):
    """Boundary nodes and weights for the normalized measure (total mass 1)."""
    return _whole_rule(_RuleStream(space.dim, q.angular_order, q.sphere_nodes))


def _integrate(f, stream):
    """Sum of f times the weights over stream, one row block of values checked at a time.

    One np.sum over a value per node adds the terms of the whole rule in its order.
    """
    terms = np.empty(len(stream))
    for rows in _row_blocks(len(stream), stream.shape[1]):
        points = stream.points(rows)
        values = np.asarray(f(points), dtype=float)
        if values.shape != (len(points),):
            raise InputError(f"integrand returned shape {values.shape}, expected {(len(points),)}")
        bad = ~np.isfinite(values)
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericError(f"integrand is not finite at node {rows.start + i}, z = {points[i]}")
        terms[rows] = values
        stream.weigh(rows, terms[rows])
    return float(np.sum(terms))


def disc_quadrature(f, q):
    """Integral of f over the unit disc against unnormalized area dA."""
    return _integrate(f, _interior_stream(q, 1))


def ball_quadrature(f, q, dim=2):
    """Integral of f over the unit ball against unnormalized volume dV."""
    return _integrate(f, _interior_stream(q, dim))


def boundary_quadrature(f, q, space):
    """Mean of f over the boundary circle/sphere (measure normalized to 1)."""
    return _integrate(f, _RuleStream(space.dim, q.angular_order, q.sphere_nodes))


def rng_stream(seed, stream):
    """Deterministic counter-based generator for the pair (seed, stream).

    Distinct streams are statistically independent; identical pairs
    reproduce identical draws on every platform.
    """
    seed, stream = _as_integer(seed), _as_integer(stream)
    if seed is None or stream is None or not (0 <= seed < 2 ** 64 and 0 <= stream < 2 ** 64):
        raise InputError("seed and stream must be integers in [0, 2**64)")
    bit_gen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    return np.random.Generator(bit_gen)
