"""Finitely supported measures and their Carleson/embedding constants.

For mu = sum_j w_j delta_{lam_j} the embedding H^2 -> L^2(mu) is a
finite-rank operator whose squared norm A(mu)^2 is the top eigenvalue of
the weighted kernel Gram matrix M[j, k] = sqrt(w_j w_k) K(lam_j, lam_k).
The kernel constant on the support, c_supp = max_k sum_j w_j P_{lam_k}(lam_j),
is the hypothesis constant of the embedding theorems; the theorems bound
A(mu)^2 <= 2e c_supp on the disc and A(mu)^2 <= e (2n)! / (n!)^2 c_supp
on the ball of dimension n.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, NumericError, UnsupportedError
from .geometry import (
    DISC, SpacePoint, _denominator_sq_matrix, _norm_sq_rows, _poisson, _poisson_scratch,
    _szego_matrix,
)
from .numerics import HermitianMatrix, _certified_top_eig, _row_blocks, extreme_eigs, rng_stream

MAX_ATOMS = 2000
# The grid holds about 2.7 * resolution^2 disc points (2.8 M at 1024),
# so the limit is checked before the grid is built.
MAX_GRID_RESOLUTION = 1024

# Relative slack of every "value <= theorem bound" verdict.
BOUND_SLACK = 1e-9

# Grid radii stop a hair inside the ball so kernel values stay finite.
_GRID_RADIUS_CAP = 1.0 - 1e-4
_GRID_DIRECTION_SEED = 20231115

# From this order on embedding_norm_sq tries the certified power
# iteration first.  Best of several runs on random disc and ball(2)
# measures (2 vCPUs, numpy 2.4.6, OpenBLAS 0.3.31), eigvalsh against the
# certificate: order 100, 0.7 ms against 0.5-0.7 ms, a tie; order 256,
# 6.5-6.7 ms against 2.2-2.8 ms; order 2000, 1.76-1.80 s against
# 0.25-0.27 s.  At orders 150 and 200 the ball(2) certificate declined
# (top pair too close for the step cap), which costs a second matrix
# build on top of eigvalsh, so smaller measures stay on the dense path.
_CERTIFIED_MIN_ORDER = 256

class DiscreteMeasure:
    """Finite list of (point, positive weight) atoms on a space.

    Duplicate points are merged at ingestion by summing their weights,
    which keeps the kernel Gram matrix nonsingular for separated data.
    """

    __slots__ = ("space", "atoms", "_points", "_weights")

    def __init__(self, space, atoms):
        merged = {}
        for point, weight in atoms:
            if not isinstance(point, SpacePoint):
                point = SpacePoint(point)
            if point.dim != space.dim:
                raise InputError(
                    f"atom has dimension {point.dim}, space has dimension {space.dim}"
                )
            if isinstance(weight, (bool, np.bool_)):
                raise InputError(f"weights must be numbers, got {weight!r}")
            weight = float(weight)
            if not 0.0 < weight < math.inf:
                raise InputError(f"weights must be positive and finite, got {weight!r}")
            merged[point] = merged.get(point, 0.0) + weight
        if not merged:
            raise InputError("a measure needs at least one atom")
        self.space = space
        self.atoms = tuple(merged.items())
        self._points = self._weights = None

    def __len__(self):
        return len(self.atoms)

    def points_array(self):
        """(m, n) complex atom coordinates, built once and read-only."""
        if self._points is None:
            self._points = np.array([p.coords for p, _ in self.atoms], dtype=complex)
            self._points.setflags(write=False)
        return self._points

    def weights_array(self):
        """(m,) atom weights, built once and read-only."""
        if self._weights is None:
            self._weights = np.array([w for _, w in self.atoms], dtype=float)
            self._weights.setflags(write=False)
        return self._weights

    def scaled(self, c):
        if not c > 0.0:
            raise InputError("scale factor must be positive")
        return DiscreteMeasure(self.space, [(p, c * w) for p, w in self.atoms])


@dataclass(frozen=True)
class AnalysisReport:
    """All constants of one measure plus the theorem verdict."""

    a_sq: float
    c_supp: float
    c_grid: float
    i_box: Optional[float]
    bound: float
    ratio: float
    holds: bool
    grid_resolution: int


def _point_row(mu, z):
    """z as a (1, n) coordinate array, checked against the space of mu."""
    if z.dim != mu.space.dim:
        raise InputError(f"point has dimension {z.dim}, space has {mu.space.dim}")
    return z.as_array().reshape(1, -1)


def _poisson_blocks(zs, lams, n):
    """(rows, |z|^2, D, P) for each row block of zs against the atoms lams.

    D[i, j] = |1 - <z_i, lam_j>|^2 and P[i, j] = P_{z_i}(lam_j) over the
    rows z_i of zs[rows].  Every block is written into one
    _poisson_scratch sized for the largest, so D and P hold only until
    the next block is drawn.
    """
    blocks = _row_blocks(len(zs), len(lams))
    d_scratch, p_scratch = _poisson_scratch(min(blocks[0].stop, len(zs)), len(lams))
    for rows in blocks:
        block = zs[rows]
        nrm = _norm_sq_rows(block)
        d_sq = _denominator_sq_matrix(block, lams, d_scratch)
        yield rows, nrm, d_sq, _poisson(d_sq, nrm[:, None], n, p_scratch[:len(block)])


def _potential_field(mu, zs):
    """phi at every row z of zs, one Poisson row block at a time."""
    w = mu.weights_array()
    phi = np.empty(len(zs))
    for rows, _, _, p in _poisson_blocks(zs, mu.points_array(), mu.space.dim):
        phi[rows] = -(p @ w)
    return phi


def carleson_potential(mu, z):
    """phi(z) = -sum_j w_j P_z(lam_j), a bounded negative subharmonic function."""
    return float(_potential_field(mu, _point_row(mu, z))[0])


def kernel_constant_on_support(mu):
    """c_supp = max over atoms lam_k of sum_j w_j P_{lam_k}(lam_j) = max of -phi there."""
    return float(np.max(-_potential_field(mu, mu.points_array())))


def _check_atom_count(count, what):
    """Refuse more than MAX_ATOMS atoms before any count x count array is built."""
    if count > MAX_ATOMS:
        raise InputError(f"{what.format(count)}, practical guard is {MAX_ATOMS}")


def _check_resolution(resolution):
    if not isinstance(resolution, int) or not 8 <= resolution <= MAX_GRID_RESOLUTION:
        raise InputError(
            f"resolution must be an integer in [8, {MAX_GRID_RESOLUTION}], got {resolution!r}"
        )


def _grid_points(space, resolution):
    """Deterministic interior grid, nested as resolution grows.

    The grid is a union of levels L = 8, 16, ... up to resolution; each
    level pairs L Chebyshev-spaced radii in [0, 1 - 1e-4] with 2L uniform
    angles (disc) or L seeded unit directions (ball).  A level depends
    only on its own L, so grids at lower resolutions are subsets of
    grids at higher ones and the scanned supremum is monotone.
    """
    _check_resolution(resolution)
    blocks = []
    level = 8
    while level <= resolution:
        idx = np.arange(level)
        radii = _GRID_RADIUS_CAP * 0.5 * (1.0 + np.cos(np.pi * (2 * idx + 1) / (2 * level)))
        if space.dim == 1:
            angles = 2.0 * np.pi * np.arange(2 * level) / (2 * level)
            pts = (radii[:, None] * np.exp(1j * angles)[None, :]).reshape(-1, 1)
        else:
            rng = rng_stream(_GRID_DIRECTION_SEED, level)
            raw = rng.normal(size=(level, 2 * space.dim))
            dirs = raw[:, ::2] + 1j * raw[:, 1::2]
            dirs /= np.sqrt(_norm_sq_rows(dirs))[:, None]
            pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, space.dim)
        blocks.append(pts)
        level *= 2
    return np.concatenate(blocks, axis=0)


def _support_and_grid_constants(mu, resolution):
    """(c_supp, c_grid): maxima of -phi over the atoms and over the grid union the atoms.

    The atoms are the last rows of one potential field over both.
    """
    grid = np.concatenate([_grid_points(mu.space, resolution), mu.points_array()], axis=0)
    phi = _potential_field(mu, grid)
    return -float(np.min(phi[-len(mu):])), -float(np.min(phi))


def kernel_constant_grid(mu, resolution):
    """Scanned supremum of sum_j w_j P_z(lam_j) over a grid union the atoms.

    A lower bound of the true supremum over the whole ball; monotone
    nondecreasing in resolution and never below the support constant.
    """
    return _support_and_grid_constants(mu, resolution)[1]


def box_constant(mu, directions=64):
    """Lower-bound estimate of I(mu) = sup mu(D cap Q(xi, r)) / r, disc only.

    Q(xi, r) is the euclidean ball of radius r centered at xi on the unit
    circle.  For a fixed center the ratio jumps exactly at the radii
    |lam_j - xi| and decreases in between, so scanning those critical
    radii over a center grid (refined toward each atom's direction)
    yields the estimate.  Per center, the atoms sorted by distance give
    the masses as a cumulative sum, so C centers cost O(C m log m).
    """
    if mu.space.kind != DISC:
        raise UnsupportedError("box geometry is defined only on the disc")
    if not isinstance(directions, int) or directions < 16:
        raise InputError(f"directions must be an integer >= 16, got {directions!r}")
    lam = mu.points_array()[:, 0]
    w = mu.weights_array()

    base_step = 2.0 * np.pi / directions
    halves = base_step * 2.0 ** -np.arange(1.0, 7.0)
    offsets = np.concatenate([[0.0], np.column_stack([halves, -halves]).ravel()])
    t = np.arctan2(lam.imag, lam.real)[lam != 0.0]
    angles = np.concatenate([
        2.0 * np.pi * np.arange(directions) / directions,
        (t[:, None] + offsets[None, :]).ravel(),
    ])
    centers = np.exp(1j * angles)

    # Scratch for the largest block of centers, reused by every block:
    # ordered holds the weights, then the distances, in distance order.
    blocks = _row_blocks(len(centers), len(lam))
    size = min(blocks[0].stop, len(centers))
    diff = np.empty((size, len(lam)), dtype=complex)
    dist, ordered, mass = np.empty((3, size, len(lam)))
    row_starts = len(lam) * np.arange(size)[:, None]
    best = -math.inf
    for rows in blocks:
        block = centers[rows, None]
        k = len(block)
        np.abs(np.subtract(lam[None, :], block, out=diff[:k]), out=dist[:k])
        order = np.argsort(dist[:k], axis=1)
        np.take(w, order, out=ordered[:k], mode="clip")
        np.cumsum(ordered[:k], axis=1, out=mass[:k])
        order += row_starts[:k]
        np.take(dist[:k], order, out=ordered[:k], mode="clip")
        best = max(best, float(np.max(np.divide(mass[:k], ordered[:k], out=ordered[:k]))))
    return best


def _weighted_gram(points, root_w):
    """M[..., j, k] = r_j r_k K(lam_j, lam_k) for atoms lam_j (rows of points), r = root_w.

    points may be one (m, n) array or a stack (..., m, n) with root_w (..., m).
    M is the only array of its size: each row block of the kernel is
    written into it through scratch d = 1 - <lam_j, lam_k> of one block,
    then weighted in place.  The last block ends at the last row and is
    as long as the others, overlapping the one before: numpy takes a
    one-row product through gemv, which rounds otherwise than the gemm
    of the whole matrix.
    """
    order, n = points.shape[-2:]
    m = np.empty(points.shape[:-1] + (order,), dtype=complex)
    blocks = _row_blocks(order, points.size // n)
    size = min(blocks[0].stop, order)
    blocks[-1] = slice(order - size, order)
    d = np.empty(points.shape[:-2] + (size, order), dtype=complex)
    for rows in blocks:
        block = m[..., rows, :]
        _szego_matrix(points[..., rows, :], points, n, block, d)
        block *= root_w[..., rows, None] * root_w[..., None, :]
    return m


def _weighted_kernel_matrix(points, root_w):
    """The weighted Gram matrix of one measure as a checked HermitianMatrix."""
    return HermitianMatrix(_weighted_gram(points, root_w))


def embedding_norm_sq(mu):
    """Exact best constant A(mu)^2: top eigenvalue of the weighted Gram matrix.

    From order _CERTIFIED_MIN_ORDER on it is the lower end rho of the
    certified bracket of numerics._certified_top_eig, within 1e-8 rho of
    the proven upper end; when the certificate declines, and below that
    order, it comes from the dense eigensolve.
    """
    _check_atom_count(len(mu), "measure has {} atoms")
    m = _weighted_kernel_matrix(mu.points_array(), np.sqrt(mu.weights_array()))
    if m.order >= _CERTIFIED_MIN_ORDER:
        bracket = _certified_top_eig(m.entries)
        if bracket is not None:
            return bracket[0]
    return extreme_eigs(m)[1]


def theorem_bound_constant(space):
    """e (2n)! / (n!)^2 on the ball of dimension n; 2e on the disc (n = 1)."""
    n = space.dim
    return math.e * math.factorial(2 * n) / math.factorial(n) ** 2


def analyze(mu, resolution=64):
    """Compute every constant and the theorem verdict for one measure."""
    _check_resolution(resolution)
    a_sq = embedding_norm_sq(mu)
    c_supp, c_grid = _support_and_grid_constants(mu, resolution)
    i_box = box_constant(mu) if mu.space.kind == DISC else None
    const = theorem_bound_constant(mu.space)
    bound = const * c_supp
    ratio = a_sq / c_supp
    values = {"a_sq": a_sq, "c_supp": c_supp, "c_grid": c_grid, "i_box": i_box,
              "bound": bound, "ratio": ratio}
    bad = [k for k, v in values.items() if v is not None and not math.isfinite(v)]
    if bad:
        raise NumericError(f"{', '.join(bad)} not finite in double precision")
    return AnalysisReport(
        a_sq=a_sq,
        c_supp=c_supp,
        c_grid=c_grid,
        i_box=i_box,
        bound=bound,
        ratio=ratio,
        holds=bool(a_sq <= bound * (1.0 + BOUND_SLACK)),
        grid_resolution=resolution,
    )
