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

from .errors import (
    InputError, NumericError, UnsupportedError, _check_dim, _check_integer, _finite_real,
)
from .geometry import DISC, SpacePoint, _ipow, _norm_sq_rows, _poisson, _szego
from .numerics import _RuleStream, _row_blocks, _top_eigs, rng_stream

MAX_ATOMS = 2000
# The grid holds about 2.7 * resolution^2 disc points (2.8 M at 1024),
# so the limit is checked before the grid is built.
MAX_GRID_RESOLUTION = 1024

# Relative slack of every "value <= theorem bound" verdict.
BOUND_SLACK = 1e-9

# Grid radii stop a hair inside the ball so kernel values stay finite.
_GRID_RADIUS_CAP = 1.0 - 1e-4
_GRID_DIRECTION_SEED = 20231115

# Uniform box centers on the circle, before the 13 refined toward each atom.
_BOX_DIRECTIONS = 64

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
            _check_dim("atom", point.dim, "space", space.dim)
            if not (_finite_real(weight) and weight > 0.0):
                raise InputError(f"weights must be positive and finite, got {weight!r}")
            merged[point] = merged.get(point, 0.0) + float(weight)
        if not merged:
            raise InputError("a measure needs at least one atom")
        if not all(map(math.isfinite, merged.values())):
            raise InputError("duplicate atoms sum to a weight past the double range")
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
        if not (_finite_real(c) and c > 0.0):
            raise InputError(f"scale factor must be positive and finite, got {c!r}")
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
    _check_dim("point", z.dim, "space", mu.space.dim)
    return z.as_array().reshape(1, -1)


def _kernel_blocks(zs, lams):
    """(rows, z, d, spare) per row block: z the points of rows, d[..., i, j] = 1 - <z_i, lam_j>.

    zs (..., k, n) and lams (..., m, n) are one point set and its atoms,
    or stacks of them with the same leading axes; or zs is a
    numerics._RuleStream (k, n), whose node rows are filled block by
    block.  d and spare, scratch of d's shape, are one complex pair held
    until the next block.  Every block is as long as the first: the last
    ends at row k, overlapping the one before, and yields only its new
    rows, since numpy takes a one-row product through gemv, which rounds
    otherwise than gemm.
    """
    k, n = zs.shape[-2:]
    blocks = _row_blocks(k, lams.size // n)
    size = min(blocks[0].stop, k)
    scratch = np.empty((2,) + zs.shape[:-2] + (size, lams.shape[-2]), dtype=complex)
    lams_h = lams.conj().swapaxes(-1, -2)
    stream = isinstance(zs, _RuleStream)
    for rows in blocks:
        start = min(rows.start, k - size)
        block = slice(start, start + size)
        z = zs.points(block) if stream else zs[..., block, :]
        d = np.matmul(z, lams_h, out=scratch[0])
        new = slice(rows.start - start, None)
        d = np.subtract(1.0, d, out=d)
        yield rows, z[..., new, :], d[..., new, :], scratch[1][..., new, :]


def _poisson_blocks(zs, lams):
    """(rows, z, |z|^2, D, P) for each block of _kernel_blocks(zs, lams), held until the next.

    D = |d|^2 is the real part of d * conj(d), as in the scalar kernels.
    P[..., i, j] = P_{z_i}(lam_j) goes to a C-contiguous float block: a
    matvec over a strided P sums in another order and moves the last bit.
    """
    p_scratch = None
    for rows, z, d, spare in _kernel_blocks(zs, lams):
        if p_scratch is None:
            p_scratch = np.empty(spare.shape)
        nrm = _norm_sq_rows(z)
        d_sq = np.multiply(d, np.conjugate(d, out=spare), out=spare).real
        p = _poisson(d_sq, nrm[..., None], zs.shape[-1], p_scratch[..., :d.shape[-2], :])
        yield rows, z, nrm, d_sq, p


def _potential_field(lams, w, zs):
    """phi at every row z of zs for the atoms lams with weights w, one Poisson row block at a time.

    Stacks (..., m, n), (..., m) and (..., k, n) give phi of shape (..., k).
    """
    phi = np.empty(zs.shape[:-1])
    for rows, _, _, _, p in _poisson_blocks(zs, lams):
        phi[..., rows] = -(p @ w[..., None])[..., 0]
    return phi


def carleson_potential(mu, z):
    """phi(z) = -sum_j w_j P_z(lam_j), a bounded negative subharmonic function."""
    return float(_potential_field(mu.points_array(), mu.weights_array(), _point_row(mu, z))[0])


def kernel_constant_on_support(mu):
    """c_supp = max over atoms lam_k of sum_j w_j P_{lam_k}(lam_j) = max of -phi there."""
    pts = mu.points_array()
    return float(np.max(-_potential_field(pts, mu.weights_array(), pts)))


def _check_atom_count(count, what):
    """Refuse more than MAX_ATOMS atoms before any count x count array is built."""
    if count > MAX_ATOMS:
        raise InputError(f"{what.format(count)}, practical guard is {MAX_ATOMS}")


def _grid_levels(space, resolution):
    """(radii, directions) of each level L = 8, 16, ... up to resolution of the interior grid.

    Level L pairs L Chebyshev-spaced radii in [0, 1 - 1e-4], an (L,)
    float array, with 2L uniform angles (disc) or L seeded unit
    directions (ball), a (2L or L, n) complex array; its points are
    every radius times every direction.  A level depends only on its own
    L, so grids at lower resolutions are subsets of grids at higher ones
    and the scanned supremum is monotone.
    """
    resolution = _check_integer("resolution", resolution, 8, MAX_GRID_RESOLUTION)
    levels = []
    level = 8
    while level <= resolution:
        idx = np.arange(level)
        radii = _GRID_RADIUS_CAP * 0.5 * (1.0 + np.cos(np.pi * (2 * idx + 1) / (2 * level)))
        if space.dim == 1:
            angles = 2.0 * np.pi * np.arange(2 * level) / (2 * level)
            dirs = np.exp(1j * angles)[:, None]
        else:
            rng = rng_stream(_GRID_DIRECTION_SEED, level)
            raw = rng.normal(size=(level, 2 * space.dim))
            dirs = raw[:, ::2] + 1j * raw[:, 1::2]
            dirs /= np.sqrt(_norm_sq_rows(dirs))[:, None]
        levels.append((radii, dirs))
        level *= 2
    return levels


def _grid_points(space, resolution):
    """The points of _grid_levels, level by level, each radius times every direction."""
    return np.concatenate([
        (radii[:, None, None] * dirs[None, :, :]).reshape(-1, space.dim)
        for radii, dirs in _grid_levels(space, resolution)
    ], axis=0)


def _grid_maximum(mu, resolution):
    """max of -phi over the grid of _grid_levels, NaN if any point's value is.

    A point r u of a level has 1 - <r u, lam_j> = 1 - r g_j with
    g_j = <u, lam_j>, so g is formed once per numerics._row_blocks block
    of directions, from real products added over the coordinates in
    order.  Each chunk of radii (at most _BLOCK_ENTRIES entries, or one
    radius) then takes q = (1/r - Re g)^2 + (Im g)^2 = |1 - r g|^2 / r^2
    (every radius is positive) and P = ((1 - r^2) / r^2 / q)^n, which is
    (1 - |r u|^2)^n / |1 - r g|^(2n) as u is a unit vector.  Every row of
    P is C-contiguous and summed against w by einsum in one order: no
    matmul touches a grid value, so a point's value has the same bits in
    every block and under every BLAS thread count.
    """
    lams, w = mu.points_array(), mu.weights_array()
    m, n = lams.shape
    lam_re, lam_im = lams.real.T.copy(), lams.imag.T.copy()
    # Every block of a level takes the chunks of radii sized by its first
    # (longest) block; one scratch pair fits the largest g block and one
    # the largest chunk of any level.
    plans, g_entries, entries = [], 0, 0
    for radii, dirs in _grid_levels(mu.space, resolution):
        blocks = _row_blocks(len(dirs), m)
        block_entries = min(blocks[0].stop, len(dirs)) * m
        chunks = _row_blocks(len(radii), block_entries)
        plans.append((radii, dirs, blocks, chunks))
        g_entries = max(g_entries, block_entries)
        entries = max(entries, min(chunks[0].stop, len(radii)) * block_entries)
    g_pair, pair = np.empty((2, g_entries)), np.empty((2, entries))
    best = -math.inf
    for radii, dirs, blocks, chunks in plans:
        for rows in blocks:
            u_re, u_im = dirs[rows].real, dirs[rows].imag
            shape = (len(u_re), m)
            re_g, im_g = g_pair[:, :len(u_re) * m].reshape((2,) + shape)
            t, s = pair[:, :re_g.size].reshape((2,) + shape)
            re_g.fill(0.0)
            im_g.fill(0.0)
            for k in range(n):
                # Re g += Re u_k Re lam_k + Im u_k Im lam_k
                re_g += np.add(np.multiply(u_re[:, k, None], lam_re[k], out=t),
                               np.multiply(u_im[:, k, None], lam_im[k], out=s), out=t)
                # Im g += Im u_k Re lam_k - Re u_k Im lam_k
                im_g += np.subtract(np.multiply(u_im[:, k, None], lam_re[k], out=t),
                                    np.multiply(u_re[:, k, None], lam_im[k], out=s), out=t)
            im_sq = np.multiply(im_g, im_g, out=im_g)
            for chunk in chunks:
                r = radii[chunk, None, None]
                q, p = pair[:, :len(r) * re_g.size].reshape((2, len(r)) + shape)
                np.subtract(1.0 / r, re_g, out=q)
                np.multiply(q, q, out=q)
                q += im_sq
                p = _ipow(np.divide((1.0 - r * r) / (r * r), q, out=p), n, q)
                best = np.maximum(best, np.max(np.einsum("ij,j->i", p.reshape(-1, m), w)))
    return float(best)


def _support_and_grid_constants(mu, resolution):
    """(c_supp, c_grid): kernel_constant_on_support(mu), and the max of it and -phi on the grid."""
    grid_max = _grid_maximum(mu, resolution)
    c_supp = kernel_constant_on_support(mu)
    return c_supp, max(c_supp, grid_max)


def kernel_constant_grid(mu, resolution):
    """Scanned supremum of sum_j w_j P_z(lam_j) over a grid union the atoms.

    A lower bound of the true supremum over the whole ball; monotone
    nondecreasing in resolution and never below the support constant.
    """
    return _support_and_grid_constants(mu, resolution)[1]


def box_constant(mu):
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
    lam = mu.points_array()[:, 0]
    w = mu.weights_array()

    base_step = 2.0 * np.pi / _BOX_DIRECTIONS
    halves = base_step * 2.0 ** -np.arange(1.0, 7.0)
    offsets = np.concatenate([[0.0], np.column_stack([halves, -halves]).ravel()])
    t = np.arctan2(lam.imag, lam.real)[lam != 0.0]
    angles = np.concatenate([
        2.0 * np.pi * np.arange(_BOX_DIRECTIONS) / _BOX_DIRECTIONS,
        (t[:, None] + offsets[None, :]).ravel(),
    ])
    centers = np.exp(1j * angles)

    # Scratch for the largest block of centers, reused by every block:
    # ordered holds the weights, then the distances, in distance order.
    # The complex differences lam - xi, dead once dist is taken, lie in
    # the memory of ordered and mass: one allocation of 3 float blocks.
    blocks = _row_blocks(len(centers), len(lam))
    size = min(blocks[0].stop, len(centers))
    scratch = np.empty((3, size, len(lam)))
    dist, ordered, mass = scratch
    diff = scratch[1:].reshape(-1).view(complex).reshape(size, len(lam))
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
    M is the only array of its size, built in one pass over the row
    blocks of _kernel_blocks.  The zgemm blocks are not Hermitian to the
    bit at every order, so only the upper part is kernel: row block
    [r0, r1) takes K from d[..., r0:] and is weighted in place; left of
    column r0 it takes the conjugate mirror of the columns the earlier
    blocks built, and below the diagonal of its square the mirror of the
    square's upper triangle.  With the diagonal's imaginary part set to
    zero, every M equals its conjugate transpose exactly, as K(z, w) =
    conj K(w, z) does.  The zgemm still forms whole rows of d: narrowed
    to columns r0:, its product rounds otherwise.
    """
    m = np.empty(points.shape[:-1] + points.shape[-2:-1], dtype=complex)
    for rows, _, d, _ in _kernel_blocks(points, points):
        r0 = rows.start
        block = _szego(d[..., r0:], points.shape[-1], m[..., rows, r0:])
        block *= root_w[..., rows, None] * root_w[..., None, r0:]
        np.conjugate(m[..., :r0, rows].swapaxes(-1, -2), out=m[..., rows, :r0])
        square = m[..., rows, rows]
        below = np.tri(square.shape[-1], k=-1, dtype=bool)
        np.copyto(square, np.conjugate(square.swapaxes(-1, -2)), where=below)
    m.imag.reshape(m.shape[:-2] + (-1,))[..., :: m.shape[-1] + 1] = 0.0
    return m


def embedding_norm_sq(mu):
    """Exact best constant A(mu)^2: top eigenvalue of the weighted Gram matrix.

    It comes from numerics._top_eigs: at large orders the lower end of a
    certified bracket of width 1e-8 relative, else the dense eigensolve.
    """
    _check_atom_count(len(mu), "measure has {} atoms")
    top, = _top_eigs(_weighted_gram(mu.points_array(), np.sqrt(mu.weights_array()))[None])
    if isinstance(top, Exception):
        raise top
    return top


def theorem_bound_constant(space):
    """e (2n)! / (n!)^2 on the ball of dimension n, inf past the double range; 2e on the disc."""
    n = space.dim
    try:
        return math.e * math.comb(2 * n, n)
    except OverflowError:  # from n = 515 the binomial itself has no float
        return math.inf


def analyze(mu, resolution=64):
    """Compute every constant and the theorem verdict for one measure."""
    resolution = _check_integer("resolution", resolution, 8, MAX_GRID_RESOLUTION)
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
