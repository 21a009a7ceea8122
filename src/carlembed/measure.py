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
from .geometry import DISC, SpacePoint, _norm_sq_rows, _poisson_matrix, _szego_matrix
from .numerics import HermitianMatrix, extreme_eigs, rng_stream

MAX_ATOMS = 2000
# The grid holds about 2.7 * resolution^2 disc points (2.8 M at 1024),
# so the limit is checked before the grid is built.
MAX_GRID_RESOLUTION = 1024

# Grid radii stop a hair inside the ball so kernel values stay finite.
_GRID_RADIUS_CAP = 1.0 - 1e-4
_GRID_DIRECTION_SEED = 20231115

# The grid and box scans work on row blocks of about this many
# point-by-atom entries, so no full (points x atoms) matrix is held.
_BLOCK_ENTRIES = 1 << 20


class DiscreteMeasure:
    """Finite list of (point, positive weight) atoms on a space.

    Duplicate points are merged at ingestion by summing their weights,
    which keeps the kernel Gram matrix nonsingular for separated data.
    """

    __slots__ = ("space", "atoms")

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

    def __len__(self):
        return len(self.atoms)

    def points_array(self):
        return np.array([p.coords for p, _ in self.atoms], dtype=complex)

    def weights_array(self):
        return np.array([w for _, w in self.atoms], dtype=float)

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


def _potential_field(mu, zs):
    """phi at every row z of zs."""
    return -(_poisson_matrix(zs, mu.points_array(), mu.space.dim) @ mu.weights_array())


def carleson_potential(mu, z):
    """phi(z) = -sum_j w_j P_z(lam_j), a bounded negative subharmonic function."""
    return float(_potential_field(mu, _point_row(mu, z))[0])


def kernel_constant_on_support(mu):
    """c_supp = max over atoms lam_k of sum_j w_j P_{lam_k}(lam_j)."""
    pts = mu.points_array()
    p = _poisson_matrix(pts, pts, mu.space.dim)
    return float(np.max(p @ mu.weights_array()))


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


def _row_blocks(rows, cols):
    """Slices covering range(rows), each at most _BLOCK_ENTRIES // cols rows."""
    step = max(1, _BLOCK_ENTRIES // cols)
    return [slice(start, start + step) for start in range(0, rows, step)]


def kernel_constant_grid(mu, resolution):
    """Scanned supremum of sum_j w_j P_z(lam_j) over a grid union the atoms.

    A lower bound of the true supremum over the whole ball; monotone
    nondecreasing in resolution and never below the support constant.
    """
    pts = mu.points_array()
    w = mu.weights_array()
    grid = np.concatenate([_grid_points(mu.space, resolution), pts], axis=0)
    return float(np.max([
        np.max(_poisson_matrix(grid[rows], pts, mu.space.dim) @ w)
        for rows in _row_blocks(len(grid), len(pts))
    ]))


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

    def block_max(rows):
        dist = np.abs(lam[None, :] - centers[rows, None])
        order = np.argsort(dist, axis=1)
        mass = np.cumsum(w[order], axis=1)
        return np.max(mass / np.take_along_axis(dist, order, axis=1))

    return float(np.max([block_max(rows) for rows in _row_blocks(len(centers), len(lam))]))


def embedding_norm_sq(mu):
    """Exact best constant A(mu)^2: top eigenvalue of the weighted Gram matrix."""
    _check_atom_count(len(mu), "measure has {} atoms")
    pts = mu.points_array()
    root_w = np.sqrt(mu.weights_array())
    m = root_w[:, None] * _szego_matrix(pts, pts, mu.space.dim) * root_w[None, :]
    return extreme_eigs(HermitianMatrix(m))[1]


def theorem_bound_constant(space):
    """e (2n)! / (n!)^2 on the ball of dimension n; 2e on the disc (n = 1)."""
    n = space.dim
    return math.e * math.factorial(2 * n) / math.factorial(n) ** 2


def analyze(mu, resolution=64):
    """Compute every constant and the theorem verdict for one measure."""
    _check_resolution(resolution)
    a_sq = embedding_norm_sq(mu)
    c_supp = kernel_constant_on_support(mu)
    c_grid = kernel_constant_grid(mu, resolution)
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
        holds=bool(a_sq <= bound * (1.0 + 1e-9)),
        grid_resolution=resolution,
    )
