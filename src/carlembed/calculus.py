"""Differential and integral machinery behind the embedding proofs.

Contents: flat and invariant Laplacians (closed forms and finite
differences), Green weights and Green's-formula verification in both
metrics, the induced measure density e^phi * Lap(phi) * G, the
contraction and pointwise key inequalities, Hardy norms of polynomial
test functions, and the beta-integral constant (n!)^2 / (2n)!.

The contraction, the bounded-potential corollary and the key inequality
at every atom integrate against the same rule, potential phi and test
function f.  uchiyama_checks computes them in one loop over blocks of
the rule's factors (whole radial x moduli rows, or ranges of one row's
torus nodes): f from matrix products of the rows' monomials and the
torus phase powers; |z|^2, the Green factor and (1 - |z|^2)^n once per
row; the node-by-atom |1 - <z, lam_j>|^2 and from it phi, e^phi, the
density and the node-by-atom kernel once per node.
uchiyama_embedding_check, corollary_check and key_inequality_check are
views of that pass.

Function arguments named ``u`` or ``f`` follow two conventions.  The
pointwise stencil ops (laplacian_fd, invariant_laplacian_fd) take a
scalar callable of one SpacePoint.  The quadrature-driven checks take a
vectorized callable mapping an (m, n) complex array to an (m,) real
array, matching the numerics module.
"""

import cmath
import math

import numpy as np

from .errors import (
    InputError, NumericError, _as_integer, _check_dim, _check_integer, _finite_complex,
    _finite_real,
)
from .geometry import (
    BALL, DISC, Space, SpacePoint, _denominator, _ipow, _norm_sq_rows, _poisson, poisson_kernel,
)
from .measure import _check_atom_count, _point_row, _poisson_blocks, _potential_field
from .numerics import (
    QuadratureSpec, _fill_nodes, _interior_stream, _row_blocks, _rule_factors,
    boundary_quadrature, default_quadrature,
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

    A coefficient is a finite number, never a bool or a string (errors.py
    decides).  The total degree is at most MAX_POLY_DEGREE.
    """

    __slots__ = ("dim", "terms", "_plan")

    def __init__(self, dim, terms):
        dim = _check_integer("dim", dim, 1)
        items = terms.items() if hasattr(terms, "items") else terms
        cleaned = {}
        for alpha, coeff in items:
            index = tuple(map(_as_integer, alpha))
            if len(index) != dim or any(a is None or a < 0 for a in index):
                raise InputError(f"multi-index {alpha!r} invalid for dimension {dim}")
            value = _finite_complex(coeff)
            if value is None:
                raise InputError(
                    f"coefficient of {alpha!r} must be a finite number other than a bool, "
                    f"got {coeff!r}"
                )
            if value != 0:
                cleaned[index] = cleaned.get(index, 0.0) + value
        terms = {a: c for a, c in cleaned.items() if c != 0}
        if not all(map(cmath.isfinite, terms.values())):
            raise InputError("repeated multi-indices sum to a coefficient past the double range")
        degree = max(map(sum, terms), default=0)
        if degree > MAX_POLY_DEGREE:
            raise InputError(f"polynomial degree {degree} exceeds the cap {MAX_POLY_DEGREE}")
        self.dim = dim
        self.terms = terms
        self._plan = _horner_plan(terms) if terms else None

    def __call__(self, z):
        _check_dim("point", z.dim, "polynomial", self.dim)
        return _horner(self._plan, z.coords) if self.terms else 0j

    def eval_array(self, zs):
        """Values at the rows of zs as an (m,) complex array, by nested Horner."""
        out = _horner(self._plan, zs.T) if self.terms else 0j
        return np.full(zs.shape[0], out) if np.isscalar(out) else out


def _horner_plan(terms):
    """A nonempty {alpha: coeff} nested by powers: {k: plan of the coefficient of z_1^k}.

    The coefficient of each power of the first variable is a polynomial
    in the remaining ones, nested the same way; with no variable left it
    is the coefficient itself.  Built once per polynomial, so evaluating
    a block of a blocked pass does no grouping.
    """
    if len(next(iter(terms))) == 0:
        return terms[()]
    by_power = {}
    for alpha, coeff in terms.items():
        by_power.setdefault(alpha[0], {})[alpha[1:]] = coeff
    return {k: _horner_plan(rest) for k, rest in by_power.items()}


def _horner(plan, cols):
    """The polynomial of a _horner_plan at cols: Horner in the first variable, nested.

    cols is z.coords (numbers) or zs.T (one array per variable).
    """
    if len(cols) == 0:
        return plan
    z, rest = cols[0], cols[1:]
    top = max(plan)
    out = _horner(plan[top], rest)
    for k in range(top - 1, -1, -1):
        out *= z  # in place only on a fresh array, never on a view of cols
        if k in plan:
            out += _horner(plan[k], rest)
    return out


def hardy_norm_sq(f, space):
    """Squared Hardy norm of an analytic polynomial.

    With sigma(S) = 1, ||z^alpha||^2 = (n-1)! alpha! / (n-1+|alpha|)!, the
    standard monomial orthogonality on the sphere; on the disc (n = 1)
    every monomial has norm 1.
    """
    _check_dim("polynomial", f.dim, "space", space.dim)
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
    if not (_finite_real(h) and h > 0):
        raise InputError(f"step h must be positive and finite, got {h!r}")
    if 1.0 - math.sqrt(z.norm_sq) <= 2.0 * h:
        raise InputError(
            f"stencil escapes the ball: 1 - |z| = {1.0 - math.sqrt(z.norm_sq):.3e} <= 2h"
        )


def laplacian_fd(u, z, h=FD_STEP):
    """Flat Laplacian of a scalar function by the 5-point central stencil.

    Second-order accurate for C^4 functions; exact on quadratics.
    """
    _check_dim("point", z.dim, "disc", 1)
    _stencil_margin(z, h)
    zs = np.array([[z.coords[0]]], dtype=complex)
    return float(_flat_laplacian_field(_as_field(u), zs, h)[0])


def invariant_laplacian_fd(u, z, space, h=FD_STEP):
    """Invariant (Bergman) Laplacian of a scalar function by central stencils."""
    _check_dim("point", z.dim, "space", space.dim)
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
    d = _denominator(z, lam, space)
    j = _check_integer("coordinate index", j, 1, n)
    bracket = lam.coords[j - 1].conjugate() / d - z.coords[j - 1].conjugate() / (1.0 - z.norm_sq)
    return n * bracket * poisson_kernel(z, lam, space)


def _atom_matrix(d_sq, n, out=None):
    """A[i, j] = 1 / |1 - <z_i, lam_j>|^(2n+2), given d_sq[i, j] = |1 - <z_i, lam_j>|^2.

    out, an array other than d_sq, receives the values when it is given.
    """
    power = _ipow(d_sq, n + 1, out)
    if isinstance(power, np.ndarray):  # not d_sq, as n + 1 >= 2
        return np.divide(1.0, power, out=power)
    return 1.0 / power


def _atom_mass(mu):
    """w_j (1 - |lam_j|^2) for every atom."""
    return mu.weights_array() * (1.0 - _norm_sq_rows(mu.points_array()))


def _point_terms(mu, z):
    """(|z|^2, phi(z), _atom_matrix @ _atom_mass) at z as (1,) arrays, from one Poisson block."""
    (_, _, nrm, d_sq, p), = _poisson_blocks(_point_row(mu, z), mu.points_array())
    return nrm, -(p @ mu.weights_array()), _atom_matrix(d_sq, mu.space.dim) @ _atom_mass(mu)


def potential_laplacian_closed(mu, z):
    """Laplacian of the Carleson potential, exactly, summed over atoms.

    Disc: Delta phi(z) = 4 sum_j w_j (1 - |lam_j|^2) / |1 - conj(lam_j) z|^4.
    Ball: Lap~ phi(z) = (4 n^2/(n+1)) (1-|z|^2) sum_j w_j P_z(lam_j) P_{lam_j}(z)^(1/n).
    Both are nonnegative: the potential is (invariant) subharmonic.
    """
    nrm, _, core = _point_terms(mu, z)
    return float((_laplacian_factor(mu.space, nrm) * core)[0])


# ---------------------------------------------------------------------------
# Green weights and Green's formulas.


def green_weight_disc(z):
    """Disc Green weight log(1/|z|); positive, +inf sentinel at the origin."""
    _check_dim("point", z.dim, "disc", 1)
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
    _check_dim("point", lam.dim, "space", space.dim)
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
    rule = _interior_stream(q, n)
    stencil = _flat_laplacian_field if space.kind == DISC else _invariant_laplacian_field
    # Every per-node quantity, the nodes and weights included, lives only
    # in its row block, which bounds the stencil-shifted copies held at
    # once; the one sum over all terms keeps the summation order of the
    # whole array.
    terms = np.empty(len(rule))
    for rows in _row_blocks(len(rule), 4 * n):
        zs = rule.points(rows)
        nrm2 = _norm_sq_rows(zs)
        r = np.sqrt(nrm2)
        if laplacian is None:
            lap = stencil(u, zs, np.minimum(FD_STEP, 0.25 * (1.0 - r)))
        else:
            lap = laplacian(zs)
        if space.kind == DISC:
            density = _green_ball_field(r, 1)
        else:
            density = _green_ball_field(r, n) / (1.0 - nrm2) ** (n + 1)
        # (weight * lap) * density, the weights scaling the Laplacian in place
        block = terms[rows]
        block[...] = lap
        np.multiply(rule.weigh(rows, block), density, out=block)
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
    """Lap(phi) * Green weight against dV where |z|^2 = nrm; core = _atom_matrix @ _atom_mass.

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
    nrm, phi, core = _point_terms(mu, z)
    if z.norm_sq == 0.0:
        return math.inf
    density = _density_field(mu.space.dim, nrm, core)
    return float(np.exp(phi)[0] * density[0])


def _factor_blocks(factors, atoms):
    """The blocks (rows, t0, t1) of the rule of factors, torus nodes [t0, t1) of factor rows rows.

    A block is whole factor rows, as many as fit their node-by-atom
    entries in _BLOCK_ENTRIES (at least one); when one row's entries do
    not fit, each row's torus nodes split into even ranges that do, so
    no range is a single node (numpy takes a one-row product through
    gemv, which rounds otherwise than gemm) unless a block holds only
    one.  No block is longer than the first.
    """
    moduli, _, phases = factors
    per_row = phases.shape[1] // moduli.shape[1]
    parts = len(_row_blocks(per_row, atoms))
    if parts == 1:
        for rows in _row_blocks(len(moduli), per_row * atoms):
            yield slice(rows.start, min(rows.stop, len(moduli))), 0, per_row
        return
    cuts = [-(-per_row * i // parts) for i in range(parts + 1)]
    for k in range(len(moduli)):
        for t0, t1 in zip(cuts, cuts[1:]):
            yield slice(k, k + 1), t0, t1


def _block_nodes(block, per_row):
    """(start, stop) of a block of _factor_blocks in the node order of the whole rule."""
    rows, t0, t1 = block
    return rows.start * per_row + t0, (rows.stop - 1) * per_row + t1


def _poly_blocks(f, factors, atoms):
    """(block, f at its nodes) for each block of _factor_blocks(factors, atoms).

    The values are scratch held until the next block.  A node is
    z_j = r_j e^{i p_j}, the moduli r of its factor row times the phases
    of its torus angles p (numerics._rule_factors), so
    f(z) = sum_alpha (c_alpha r^alpha) prod_j e^{i alpha_j p_j}.  Per
    block, the coefficients times the rows' monomials, a (rows, A_1, ...,
    A_n) array with A_j - 1 the degree of f in z_j, are contracted with
    the phase powers e^{i a p} of one coordinate at a time, the last
    first, each one matrix product; the first coordinate takes only the
    angles the block's torus range reaches.  No array grows like terms x
    torus nodes.  The powers of the moduli and of the phases are built
    once per pass by repeated multiplication (cumprod).
    """
    moduli, _, phases = factors
    count, n = moduli.shape
    per_row = phases.shape[1] // n
    m = round(per_row ** (1.0 / n))
    shape = tuple(1 + max((alpha[j] for alpha in f.terms), default=0) for j in range(n))
    top = max(shape)
    box = np.zeros(shape, dtype=complex)
    for alpha, coeff in f.terms.items():
        box[alpha] = coeff
    # the phases of the last coordinate's m angles head its row of phases
    powers = np.empty((m, top), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = phases[n - 1, n - 1::n][:m, None]
    np.cumprod(powers, axis=1, out=powers)
    radii = np.empty((count, n, top))
    radii[..., 0] = 1.0
    radii[..., 1:] = moduli.real[..., None]
    np.cumprod(radii, axis=2, out=radii)
    # scratch: the coefficient block, then the product over each coordinate
    first, _, _ = next(_factor_blocks(factors, atoms))
    rows_max = first.stop - first.start
    sizes = [rows_max * math.prod(shape)]
    sizes += [rows_max * math.prod(shape[:j]) * m ** (n - j) for j in reversed(range(n))]
    scratch = [np.empty(size, dtype=complex) for size in sizes]
    for block in _factor_blocks(factors, atoms):
        rows, t0, t1 = block
        k = rows.stop - rows.start
        x = scratch[0][:k * box.size].reshape((k,) + shape)
        x[...] = box
        for j in range(n):
            # the rows' powers of |z_j|, along axis j + 1
            x *= radii[rows, j, :shape[j]].reshape((k,) + (1,) * j + (-1,) + (1,) * (n - 1 - j))
        span = 1  # torus angles of the coordinates after j, as one axis
        for step, j in enumerate(reversed(range(n)), 1):
            lo, hi = (t0 // span, -(-t1 // span)) if j == 0 else (0, m)
            out = scratch[step][:x.size // shape[j] * (hi - lo)]
            if span == 1:
                x = np.matmul(x.reshape(-1, shape[j]), powers[lo:hi, :shape[j]].T,
                              out=out.reshape(-1, hi - lo))
            else:
                x = np.matmul(powers[lo:hi, :shape[j]], x.reshape(-1, shape[j], span),
                              out=out.reshape(-1, hi - lo, span))
            span *= hi - lo
        offset = t0 - lo * (span // (hi - lo))
        yield block, x.reshape(-1)[offset:offset + k * (t1 - t0)]


def uchiyama_checks(mu, f, q=None):
    """The contraction, the corollary and every key inequality in one pass.

    Returns ((integral, ||f||^2), (integral, e ||phi||_inf ||f||^2),
    [(lhs, rhs) per atom]), as uchiyama_embedding_check, corollary_check
    and key_inequality_check return them.  One loop over the blocks of
    _factor_blocks feeds all three checks.  |z|^2, the density's Green
    factor, (1 - |z|^2)^n and the weights are taken once per factor row,
    f from _poly_blocks; from the filled nodes the node-by-atom
    |1 - <z, lam_j>|^2 gives the Poisson block and the atom kernel, each
    node's phi is the sum of its Poisson row in one fixed order
    (einsum), and e^phi and the density follow once per node.  Every
    block array lives in scratch allocated once per pass.  Any
    non-finite integral or lhs raises NumericError.
    """
    _check_dim("polynomial", f.dim, "space", mu.space.dim)
    _check_atom_count(len(mu), "measure has {} atoms")
    if q is None:
        q = default_quadrature(mu.space)
    # |f|^2 has angular modes up to +-deg f, and the torus trapezoid rule
    # integrates a mode exactly only below its order.
    degree = max(map(sum, f.terms), default=0)
    if degree >= q.angular_order:
        raise InputError(f"polynomial degree {degree} is not below angular order {q.angular_order}")
    n, m = mu.space.dim, len(mu)
    factors = _rule_factors(n, q.angular_order, q.sphere_nodes, q.radial_order)
    moduli, row_weights, phases = factors
    per_row = phases.shape[1] // n
    lams, wts, mass = mu.points_array(), mu.weights_array(), _atom_mass(mu)
    lams_h = lams.conj().T
    contraction = corollary = 0.0
    phi_atoms = _potential_field(lams, wts, lams)
    phi_sup = float(np.max(-phi_atoms))
    key = np.zeros(m)
    # per factor row: |z|^2 (the moduli have zero imaginary parts), the
    # density's Green factor and the key kernel's (1 - |z|^2)^n
    nrm = _norm_sq_rows(moduli)
    green = _density_field(n, nrm, 1.0)
    damping = (1.0 - nrm) ** n
    rows, t0, t1 = next(_factor_blocks(factors, m))
    size = (rows.stop - rows.start) * (t1 - t0)
    zs = np.empty((size, n), dtype=complex)
    # d, then |d|^2 in its real part; the spare's memory holds P and the atom kernel
    d_pair = np.empty((2, size, m), dtype=complex)
    vec = np.empty((3, size))
    for block, f_z in _poly_blocks(f, factors, m):
        (rows, t0, t1), (start, stop) = block, _block_nodes(block, per_row)
        count, shape = stop - start, (rows.stop - rows.start, t1 - t0)
        z = zs[:count]
        _fill_nodes(factors, start, stop, points=z)
        d, spare = d_pair[:, :count]
        np.subtract(1.0, np.matmul(z, lams_h, out=d), out=d)
        d_sq = np.multiply(d, np.conjugate(d, out=spare), out=d).real
        p, a = spare.reshape(-1).view(float).reshape(2, count, m)
        _poisson(d_sq.reshape(shape + (m,)), nrm[rows, None, None], n, p.reshape(shape + (m,)))
        _atom_matrix(d_sq, n, a)
        e_phi, w_f, density = vec[:, :count]
        # -phi: each Poisson row summed in one order, whatever the block
        np.einsum("ij,j->i", p, wts, out=e_phi)
        phi_sup = max(phi_sup, float(np.max(e_phi)))
        np.exp(np.negative(e_phi, out=e_phi), out=e_phi)
        np.multiply(f_z.real, f_z.real, out=w_f)
        w_f += np.multiply(f_z.imag, f_z.imag, out=density)
        by_row = w_f.reshape(shape)
        np.multiply(by_row, row_weights[rows, None], out=by_row)
        w_f_e = np.multiply(e_phi, w_f, out=e_phi)
        by_row = np.matmul(a, mass, out=density).reshape(shape)
        np.multiply(by_row, green[rows, None], out=by_row)
        corollary += float(np.sum(np.multiply(w_f, density, out=w_f)))
        contraction += float(np.sum(np.multiply(w_f_e, density, out=density)))
        by_row = w_f_e.reshape(shape)
        np.multiply(by_row, damping[rows, None], out=by_row)
        key += w_f_e @ a

    prefactor, constant = math.factorial(n) / math.pi ** n, beta_constant(n)
    norm_sq = hardy_norm_sq(f, mu.space)
    lhs = prefactor * (1.0 - _norm_sq_rows(lams)) * key
    rhs = constant * np.exp(phi_atoms) * np.abs(f.eval_array(lams)) ** 2
    keys = list(zip(lhs.tolist(), rhs.tolist()))
    _check_finite("Uchiyama integral", contraction)
    _check_finite("corollary integral", corollary)
    for value, _ in keys:
        _check_finite("key inequality lhs", value)
    return (contraction, norm_sq), (corollary, math.e * phi_sup * norm_sq), keys


def uchiyama_embedding_check(mu, f, q=None):
    """Contraction check: returns (integral of |f|^2 d(nu), ||f||^2).

    The lemma guarantees integral <= norm for every discrete measure;
    callers assert with their quadrature slack.
    """
    return uchiyama_checks(mu, f, q)[0]


def corollary_check(mu, f, q=None):
    """Bounded-potential corollary: returns (integral, e * ||phi||_inf * ||f||^2).

    The integral drops the e^phi factor from the density.  ||phi||_inf is
    estimated as the max of -phi over the quadrature nodes and the atoms,
    a lower bound of the true supremum.
    """
    return uchiyama_checks(mu, f, q)[1]


def key_inequality_check(mu, f, lambda_idx, q=None):
    """Pointwise key inequality at an atom; returns (lhs, rhs), lhs >= rhs.

    Disc: (1/pi) int |f|^2 e^phi (1-|lam|^2)(1-|z|^2)/|1-conj(lam) z|^4 dA
    >= (1/2) e^(phi(lam)) |f(lam)|^2.  Ball: prefactor n!/pi^n, kernel
    (1-|lam|^2)(1-|z|^2)^n / |1-<z,lam>|^(2n+2), constant (n!)^2/(2n)!.
    """
    _check_dim("polynomial", f.dim, "space", mu.space.dim)
    lambda_idx = _check_integer("atom index", lambda_idx, 0, len(mu) - 1)
    return uchiyama_checks(mu, f, q)[2][lambda_idx]


def beta_constant(n):
    """(n!)^2 / (2n)! = 2n * int_0^1 (1 - r^2)^n r^(2n-1) dr."""
    n = _check_integer("n", n, 1)
    return math.factorial(n) ** 2 / math.factorial(2 * n)
