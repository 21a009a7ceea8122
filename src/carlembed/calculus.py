"""Differential and integral machinery behind the embedding proofs.

Contents: flat and invariant Laplacians (closed forms and finite
differences), Green weights and Green's-formula verification in both
metrics, the induced measure density e^phi * Lap(phi) * G, the
contraction and pointwise key inequalities, Hardy norms of polynomial
test functions, and the beta-integral constant (n!)^2 / (2n)!.

The contraction, the bounded-potential corollary and the key inequality
at every atom integrate against the same rule, potential phi and test
function f.  uchiyama_checks computes them in one loop over row blocks
of the rule, evaluating |f|^2 (nested Horner), |z|^2, the node-by-atom
|1 - <z, lam_j>|^2 and from it phi, e^phi, the density and the
node-by-atom kernel once per node; uchiyama_embedding_check,
corollary_check and key_inequality_check are views of that pass.

Function arguments named ``u`` or ``f`` follow two conventions.  The
pointwise stencil ops (laplacian_fd, invariant_laplacian_fd) take a
scalar callable of one SpacePoint.  The quadrature-driven checks take a
vectorized callable mapping an (m, n) complex array to an (m,) real
array, matching the numerics module.
"""

import math

import numpy as np

from .errors import InputError, NumericError
from .geometry import (
    BALL, DISC, Space, SpacePoint, _denominator, _denominator_sq_matrix, _ipow, _norm_sq_rows,
    inner, poisson_kernel,
)
from .measure import _check_atom_count, _point_row, _poisson_blocks, _potential_field
from .numerics import (
    QuadratureSpec, _row_blocks, ball_rule, boundary_quadrature, default_quadrature,
)

__all__ = [
    "MultiPoly",
    "QuadratureSpec",
    "default_quadrature",
    "hardy_norm_sq",
    "laplacian_fd",
    "laplacian_poisson_disc",
    "potential_laplacian_closed",
    "invariant_laplacian_fd",
    "invariant_laplacian_poisson_ball",
    "poisson_gradient_ball",
    "green_weight_disc",
    "green_function_ball",
    "greens_formula_check",
    "uchiyama_density",
    "uchiyama_checks",
    "uchiyama_embedding_check",
    "corollary_check",
    "key_inequality_check",
    "beta_constant",
]

# Default central-difference step; near the boundary the step shrinks to
# a quarter of the remaining distance so stencils stay inside the ball.
FD_STEP = 1e-3

# Largest total degree of a MultiPoly.  Evaluation (_horner) and
# hardy_norm_sq cost O(degree) whatever the number of terms.  uchiyama
# needs a degree below the angular order of its rule (128 on the disc,
# 32 on ball(2)), so no command integrates a polynomial near the cap.
MAX_POLY_DEGREE = 4096


class MultiPoly:
    """Analytic polynomial in n complex variables: multi-index -> coefficient.

    The total degree is at most MAX_POLY_DEGREE.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms):
        if not isinstance(dim, int) or dim < 1:
            raise InputError(f"dim must be a positive integer, got {dim!r}")
        items = terms.items() if hasattr(terms, "items") else terms
        cleaned = {}
        for alpha, coeff in items:
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dim or any(a < 0 for a in alpha):
                raise InputError(f"multi-index {alpha!r} invalid for dimension {dim}")
            coeff = complex(coeff)
            if coeff != 0:
                cleaned[alpha] = cleaned.get(alpha, 0.0) + coeff
        terms = {a: c for a, c in cleaned.items() if c != 0}
        degree = max(map(sum, terms), default=0)
        if degree > MAX_POLY_DEGREE:
            raise InputError(f"polynomial degree {degree} exceeds the cap {MAX_POLY_DEGREE}")
        self.dim = dim
        self.terms = terms

    def __call__(self, z):
        if z.dim != self.dim:
            raise InputError(f"point has dimension {z.dim}, polynomial has {self.dim}")
        return _horner(self.terms, z.coords) if self.terms else 0j

    def eval_array(self, zs):
        """Values at the rows of zs as an (m,) complex array, by nested Horner."""
        out = _horner(self.terms, zs.T) if self.terms else 0j
        return np.full(zs.shape[0], out) if np.isscalar(out) else out


def _horner(terms, cols):
    """Sum of coeff * prod_i cols[i]^alpha_i over a nonempty {alpha: coeff}.

    cols is z.coords (numbers) or zs.T (one array per variable).  Horner
    in the first variable; the coefficient of each of its powers is a
    polynomial in the remaining ones, evaluated the same way.
    """
    if len(cols) == 0:
        return terms[()]
    by_power = {}
    for alpha, coeff in terms.items():
        by_power.setdefault(alpha[0], {})[alpha[1:]] = coeff
    z, rest = cols[0], cols[1:]
    top = max(by_power)
    out = _horner(by_power[top], rest)
    for k in range(top - 1, -1, -1):
        out *= z  # in place only on a fresh array, never on a view of cols
        if k in by_power:
            out += _horner(by_power[k], rest)
    return out


def _check_poly_dim(f, space):
    if f.dim != space.dim:
        raise InputError(f"polynomial has dimension {f.dim}, space has {space.dim}")


def hardy_norm_sq(f, space):
    """Squared Hardy norm of an analytic polynomial.

    With sigma(S) = 1, ||z^alpha||^2 = (n-1)! alpha! / (n-1+|alpha|)!, the
    standard monomial orthogonality on the sphere; on the disc (n = 1)
    every monomial has norm 1.
    """
    _check_poly_dim(f, space)
    n = space.dim
    total = 0.0
    for alpha, coeff in f.terms.items():
        monomial = math.factorial(n - 1)
        for a in alpha:
            monomial *= math.factorial(a)
        monomial /= math.factorial(n - 1 + sum(alpha))
        total += (coeff * coeff.conjugate()).real * monomial
    return float(total)


# ---------------------------------------------------------------------------
# Finite-difference stencils.


def _stencil_sum(u, zs, v, h, u0):
    """u(z+hv) + u(z-hv) + u(z+ihv) + u(z-ihv) - 4 u(z); u0 = u(zs).

    The direction v is one (n,) vector or one per row, (m, n); h is a
    scalar or one step per row.
    """
    hv = np.asarray(h)[..., None] * v
    shifted = np.empty(np.broadcast_shapes(zs.shape, hv.shape), dtype=complex)
    acc = -4.0 * u0
    for unit in (1, -1, 1j, -1j):
        np.multiply(hv, unit, out=shifted)
        shifted += zs
        acc += np.asarray(u(shifted), dtype=float)
    return acc


def _flat_laplacian_field(u, zs, h):
    """5-point Laplacian of u at the rows of zs; h scalar or per-row array."""
    e_1 = np.eye(zs.shape[1])[0]
    return _stencil_sum(u, zs, e_1, h, np.asarray(u(zs), dtype=float)) / (h * h)


def _invariant_laplacian_field(u, zs, h):
    """Invariant Laplacian 4 sum g^{ij} dbar_i d_j u by n complex-line stencils.

    In a unitary frame whose first vector spans z the inverse Bergman
    metric g^{ij} = ((1 - |z|^2)/(n + 1)) (delta_ij - conj(z_i) z_j) is
    diagonal: (1 - |z|^2)^2/(n + 1) along z and (1 - |z|^2)/(n + 1)
    across it, so the operator is a weighted sum of flat 5-point
    Laplacians along the frame's complex lines.  The frame is the
    columns of the Householder reflection I - 2 w w^*/|w|^2 with
    w = z/|z| + e^{i arg z_1} e_1, so |w|^2 >= 1; at the origin, where
    the metric is isotropic, it is I - 2 e_1 e_1^T.
    """
    n = zs.shape[1]
    nrm = _norm_sq_rows(zs)
    r = np.sqrt(nrm)
    w = zs / np.where(r > 0.0, r, 1.0)[:, None]
    w[:, 0] += np.exp(1j * np.angle(zs[:, 0]))
    scale = 2.0 / _norm_sq_rows(w)
    u0 = np.asarray(u(zs), dtype=float)
    across = (1.0 - nrm) / (n + 1)
    total = 0.0
    for k in range(n):
        v = -(scale * w[:, k].conj())[:, None] * w  # column k of the reflection
        v[:, k] += 1.0
        weight = (1.0 - nrm) * across if k == 0 else across
        total = total + weight * _stencil_sum(u, zs, v, h, u0)
    return total / (h * h)


def _as_field(u):
    """Wrap a scalar SpacePoint callable as a vectorized field."""

    def field(zs):
        return np.array([float(u(SpacePoint(row))) for row in zs], dtype=float)

    return field


def _stencil_margin(z, h):
    if not h > 0:
        raise InputError(f"step h must be positive, got {h!r}")
    if 1.0 - math.sqrt(z.norm_sq) <= 2.0 * h:
        raise InputError(
            f"stencil escapes the ball: 1 - |z| = {1.0 - math.sqrt(z.norm_sq):.3e} <= 2h"
        )


def laplacian_fd(u, z, h=FD_STEP):
    """Flat Laplacian of a scalar function by the 5-point central stencil.

    Second-order accurate for C^4 functions; exact on quadratics.
    """
    if z.dim != 1:
        raise InputError("the flat 5-point stencil is defined on the disc")
    _stencil_margin(z, h)
    zs = np.array([[z.coords[0]]], dtype=complex)
    return float(_flat_laplacian_field(_as_field(u), zs, h)[0])


def invariant_laplacian_fd(u, z, space, h=FD_STEP):
    """Invariant (Bergman) Laplacian of a scalar function by central stencils."""
    if z.dim != space.dim:
        raise InputError(f"point has dimension {z.dim}, space has {space.dim}")
    _stencil_margin(z, h)
    zs = z.as_array().reshape(1, -1)
    return float(_invariant_laplacian_field(_as_field(u), zs, h)[0])


# ---------------------------------------------------------------------------
# Closed-form derivatives of the Poisson-Szego kernel.


def _laplacian_factor(space, z_norm_sq):
    """factor in Lap_z P_z(lam) = -factor (1 - |lam|^2) / |1 - <z, lam>|^(2n+2).

    4 on the disc (flat), (4 n^2/(n+1)) (1 - |z|^2)^(n+1) on the ball (invariant).
    """
    if space.kind == DISC:
        return 4.0
    n = space.dim
    return (4.0 * n * n / (n + 1.0)) * (1.0 - z_norm_sq) ** (n + 1)


def _poisson_laplacian(z, lam, space):
    d = _denominator(z, lam, space)
    atom = _atom_matrix((d * d.conjugate()).real, space.dim)
    return -_laplacian_factor(space, z.norm_sq) * (1.0 - lam.norm_sq) * atom


def laplacian_poisson_disc(z, lam):
    """Delta_z P_z(lam) = 4 (|lam|^2 - 1) / |1 - conj(lam) z|^4, always <= 0."""
    if z.dim != 1 or lam.dim != 1:
        raise InputError("disc formula needs one-dimensional points")
    return _poisson_laplacian(z, lam, Space.disc())


def invariant_laplacian_poisson_ball(z, lam, space):
    """Closed form of Lemma-type identity for the ball kernel.

    Lap~_z P_z(lam) = -(4 n^2 / (n + 1)) (1 - |z|^2) P_z(lam) P_lam(z)^(1/n),
    and P_lam(z)^(1/n) = (1 - |lam|^2) / |1 - <z, lam>|^2 without any
    fractional power.
    """
    if space.kind != BALL:
        raise InputError("invariant Laplacian formula needs a ball space")
    return _poisson_laplacian(z, lam, space)


def poisson_gradient_ball(z, lam, j, space):
    """Holomorphic partial d_j P_z(lam) in the z variable, 1-based index j.

    d_j P = n [conj(lam_j)/(1 - <z, lam>) - conj(z_j)/(1 - |z|^2)] P_z(lam);
    the conjugate partial is the complex conjugate since P is real.
    """
    n = space.dim
    if not 1 <= j <= n:
        raise InputError(f"coordinate index {j} out of range 1..{n}")
    d = 1.0 - inner(z, lam)
    bracket = lam.coords[j - 1].conjugate() / d - z.coords[j - 1].conjugate() / (1.0 - z.norm_sq)
    return n * bracket * poisson_kernel(z, lam, space)


def _atom_matrix(d_sq, n):
    """A[i, j] = 1 / |1 - <z_i, lam_j>|^(2n+2), given d_sq[i, j] = |1 - <z_i, lam_j>|^2."""
    return 1.0 / _ipow(d_sq, n + 1)


def _atom_mass(mu):
    """w_j (1 - |lam_j|^2) for every atom."""
    return mu.weights_array() * (1.0 - _norm_sq_rows(mu.points_array()))


def _atom_sum(mu, zs):
    """sum_j w_j (1 - |lam_j|^2) / |1 - <z, lam_j>|^(2n+2) at every row z of zs."""
    d_sq = _denominator_sq_matrix(zs, mu.points_array())
    return _atom_matrix(d_sq, mu.space.dim) @ _atom_mass(mu)


def _potential_laplacian_field(space, zs, core):
    """Lap(phi) at the rows of zs, given core = _atom_sum(mu, zs)."""
    return _laplacian_factor(space, _norm_sq_rows(zs)) * core


def potential_laplacian_closed(mu, z):
    """Laplacian of the Carleson potential, exactly, summed over atoms.

    Disc: Delta phi(z) = 4 sum_j w_j (1 - |lam_j|^2) / |1 - conj(lam_j) z|^4.
    Ball: Lap~ phi(z) = (4 n^2/(n+1)) (1-|z|^2) sum_j w_j P_z(lam_j) P_{lam_j}(z)^(1/n).
    Both are nonnegative: the potential is (invariant) subharmonic.
    """
    zs = _point_row(mu, z)
    return float(_potential_laplacian_field(mu.space, zs, _atom_sum(mu, zs))[0])


# ---------------------------------------------------------------------------
# Green weights and Green's formulas.


def green_weight_disc(z):
    """Disc Green weight log(1/|z|); positive, +inf sentinel at the origin."""
    if z.dim != 1:
        raise InputError("disc weight needs a one-dimensional point")
    if z.norm_sq == 0.0:
        return math.inf
    return float(_green_ball_field(math.sqrt(z.norm_sq), 1))


def _green_ball_field(r, n):
    """Invariant Green's function with pole at 0 as a function of r = |z|.

    G = ((n+1)/(2n)) * int_r^1 (1 - t^2)^(n-1) t^(1-2n) dt; the binomial
    expansion integrates termwise, the k = n-1 term giving log(1/r).
    """
    out = 0.0
    for k in range(n):
        c = math.comb(n - 1, k) * (-1) ** k
        e = 2 * k + 2 - 2 * n
        if e == 0:
            out = out - c * np.log(r)
        else:
            out = out + c * (1.0 - r ** e) / e
    return (n + 1.0) / (2.0 * n) * out


def green_function_ball(lam, space):
    """G(lam) for the invariant Laplacian, pole at 0; log(1/|lam|) when n = 1.

    Satisfies ((n+1)/(4 n^2)) (1 - |lam|^2)^n <= G(lam) and decreases in
    |lam|; +inf sentinel at the origin.
    """
    if space.kind != BALL:
        raise InputError("invariant Green's function needs a ball space")
    if lam.dim != space.dim:
        raise InputError(f"point has dimension {lam.dim}, space has {space.dim}")
    if lam.norm_sq == 0.0:
        return math.inf
    return float(_green_ball_field(math.sqrt(lam.norm_sq), space.dim))


def _check_finite(name, value):
    if not math.isfinite(value):
        raise NumericError(f"{name} is not finite: {value!r}")
    return value


def greens_formula_check(u, space, q=None, laplacian=None):
    """Both sides of the Green's formula for a C^2 function u.

    Disc: (1/2pi) int Delta(u) log(1/|z|) dA = int_T u dm - u(0).
    Ball: (n!/pi^n) int Lap~(u) G dg = int_S u dsigma - u(0), with
    dg = dV / (1 - |z|^2)^(n+1).

    u must be vectorized ((m, n) complex -> (m,) real).  The Laplacian
    comes from ``laplacian`` (same vectorized signature) when supplied,
    else from central differences with a per-node step capped at a
    quarter of the boundary distance.  Returns (lhs, rhs, gap).
    """
    if q is None:
        q = default_quadrature(space)
    n = space.dim
    points, weights = ball_rule(q, n)
    stencil = _flat_laplacian_field if space.kind == DISC else _invariant_laplacian_field
    # Every per-node quantity lives only in its row block, which bounds the
    # stencil-shifted copies of the rule held at once; the one sum over all
    # terms keeps the summation order of the whole array.
    terms = np.empty(len(weights))
    for rows in _row_blocks(len(points), 4 * n):
        zs = points[rows]
        nrm2 = _norm_sq_rows(zs)
        r = np.sqrt(nrm2)
        if laplacian is None:
            lap = stencil(u, zs, np.minimum(FD_STEP, 0.25 * (1.0 - r)))
        else:
            lap = np.asarray(laplacian(zs), dtype=float)
        if space.kind == DISC:
            density = _green_ball_field(r, 1)
        else:
            density = _green_ball_field(r, n) / (1.0 - nrm2) ** (n + 1)
        np.multiply(weights[rows] * lap, density, out=terms[rows])
    if space.kind == DISC:
        lhs = float(np.sum(terms)) / (2.0 * np.pi)
    else:
        lhs = math.factorial(n) / np.pi ** n * float(np.sum(terms))
    origin = np.zeros((1, space.dim), dtype=complex)
    rhs = boundary_quadrature(u, q, space) - float(np.asarray(u(origin), dtype=float)[0])
    _check_finite("Green's formula lhs", lhs)
    _check_finite("Green's formula rhs", rhs)
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# The induced measure density and the proof inequalities.


def _density_field(n, nrm, core):
    """Lap(phi) * Green weight against dV where |z|^2 = nrm; core = _atom_sum(mu, zs).

    The corollary integrates against this density, the Uchiyama measure
    against e^phi times it.  The (1 - |z|^2)^(n+1) cancellation between
    Lap~(phi) and dg/dV is folded in analytically, so nothing blows up
    at the boundary:
      Lap~(phi) G / (1-|z|^2)^(n+1)
        = (4 n^2/(n+1)) G sum_j w_j (1-|lam_j|^2) / |1-<z,lam_j>|^(2n+2).
    At n = 1 this is the disc density (1/2pi) Delta(phi) log(1/|z|).
    """
    scale = math.factorial(n) / np.pi ** n * (4.0 * n * n / (n + 1.0))
    return scale * _green_ball_field(np.sqrt(nrm), n) * core


def uchiyama_density(mu, z):
    """Density of d(nu) = e^phi Lap(phi) Green-weight against dA or dV.

    Disc: (1/2pi) e^phi Delta(phi) log(1/|z|); ball: (n!/pi^n) e^phi
    Lap~(phi) G / (1 - |z|^2)^(n+1).  Nonnegative; +inf sentinel at 0.
    """
    zs = _point_row(mu, z)
    if z.norm_sq == 0.0:
        return math.inf
    density = _density_field(mu.space.dim, _norm_sq_rows(zs), _atom_sum(mu, zs))
    return float(np.exp(_potential_field(mu, zs))[0] * density[0])


def _uchiyama_values(mu, f, q):
    """uchiyama_checks without its finiteness checks."""
    _check_poly_dim(f, mu.space)
    _check_atom_count(len(mu), "measure has {} atoms")
    if q is None:
        q = default_quadrature(mu.space)
    # |f|^2 has angular modes up to +-deg f, and the torus trapezoid rule
    # integrates a mode exactly only below its order.
    degree = max(map(sum, f.terms), default=0)
    if degree >= q.angular_order:
        raise InputError(f"polynomial degree {degree} is not below angular order {q.angular_order}")
    n = mu.space.dim
    points, weights = ball_rule(q, mu.space.dim)
    lams, wts, mass = mu.points_array(), mu.weights_array(), _atom_mass(mu)
    contraction = corollary = 0.0
    phi_atoms = _potential_field(mu, lams)
    phi_sup = float(np.max(-phi_atoms))
    key = np.zeros(len(mu))
    # phi (as measure._potential_field) and the atom matrix share d_sq.
    for rows, nrm, d_sq, p in _poisson_blocks(points, lams, n):
        w_f = weights[rows] * np.abs(f.eval_array(points[rows])) ** 2
        phi = -(p @ wts)
        w_f_e = w_f * np.exp(phi)
        a = _atom_matrix(d_sq, n)
        density = _density_field(n, nrm, a @ mass)
        contraction += float(np.sum(w_f_e * density))
        corollary += float(np.sum(w_f * density))
        phi_sup = max(phi_sup, float(np.max(-phi)))
        key += (w_f_e * (1.0 - nrm) ** n) @ a

    prefactor, constant = math.factorial(n) / math.pi ** n, beta_constant(n)
    norm_sq = hardy_norm_sq(f, mu.space)
    lhs = prefactor * (1.0 - _norm_sq_rows(lams)) * key
    rhs = constant * np.exp(phi_atoms) * np.abs(f.eval_array(lams)) ** 2
    keys = list(zip(lhs.tolist(), rhs.tolist()))
    return (contraction, norm_sq), (corollary, math.e * phi_sup * norm_sq), keys


def uchiyama_checks(mu, f, q=None):
    """The contraction, the corollary and every key inequality in one pass.

    Returns ((integral, ||f||^2), (integral, e ||phi||_inf ||f||^2),
    [(lhs, rhs) per atom]), as uchiyama_embedding_check, corollary_check
    and key_inequality_check return them.  One loop over row blocks of
    the rule computes |f|^2, phi, e^phi, the density and the node-by-atom
    kernel once per node and feeds all three checks.
    """
    contraction, corollary, keys = _uchiyama_values(mu, f, q)
    _check_finite("Uchiyama integral", contraction[0])
    _check_finite("corollary integral", corollary[0])
    for lhs, _ in keys:
        _check_finite("key inequality lhs", lhs)
    return contraction, corollary, keys


def uchiyama_embedding_check(mu, f, q=None):
    """Contraction check: returns (integral of |f|^2 d(nu), ||f||^2).

    The lemma guarantees integral <= norm for every discrete measure;
    callers assert with their quadrature slack.
    """
    integral, norm_sq = _uchiyama_values(mu, f, q)[0]
    return _check_finite("Uchiyama integral", integral), norm_sq


def corollary_check(mu, f, q=None):
    """Bounded-potential corollary: returns (integral, e * ||phi||_inf * ||f||^2).

    The integral drops the e^phi factor from the density.  ||phi||_inf is
    estimated as the max of -phi over the quadrature nodes and the atoms,
    a lower bound of the true supremum.
    """
    integral, bound = _uchiyama_values(mu, f, q)[1]
    return _check_finite("corollary integral", integral), bound


def key_inequality_check(mu, f, lambda_idx, q=None):
    """Pointwise key inequality at an atom; returns (lhs, rhs), lhs >= rhs.

    Disc: (1/pi) int |f|^2 e^phi (1-|lam|^2)(1-|z|^2)/|1-conj(lam) z|^4 dA
    >= (1/2) e^(phi(lam)) |f(lam)|^2.  Ball: prefactor n!/pi^n, kernel
    (1-|lam|^2)(1-|z|^2)^n / |1-<z,lam>|^(2n+2), constant (n!)^2/(2n)!.
    """
    _check_poly_dim(f, mu.space)
    if not 0 <= lambda_idx < len(mu):
        raise InputError(f"atom index {lambda_idx} out of range 0..{len(mu) - 1}")
    lhs, rhs = _uchiyama_values(mu, f, q)[2][lambda_idx]
    return _check_finite("key inequality lhs", lhs), rhs


def beta_constant(n):
    """(n!)^2 / (2n)! = 2n * int_0^1 (1 - r^2)^n r^(2n-1) dr."""
    if not isinstance(n, int) or n < 1:
        raise InputError(f"n must be a positive integer, got {n!r}")
    return math.factorial(n) ** 2 / math.factorial(2 * n)
