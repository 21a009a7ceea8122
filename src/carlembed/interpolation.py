"""Carleson interpolation pipeline on the disc.

For a finite sequence {lam_k} the separation constant is
delta = min_k prod_{j != k} |(lam_k - lam_j)/(1 - conj(lam_j) lam_k)|.
The induced measure sum_k (1 - |lam_k|^2) delta_{lam_k} has embedding
norm K^2, and the normalized-kernel Gram matrix G realizes the
orthogonalizer bound ||J|| ||J^-1|| = sqrt(cond(G)) <= delta^-1 K^2;
G is that measure's weighted kernel matrix, so one eigensolve of G gives
both K^2 and cond(G).
Chaining K^2 <= 2e (1 + 2 ln delta^-1) gives the interpolation constant
C = 2e delta^-1 (1 + 2 ln delta^-1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, UnsupportedError, _check_dim, _check_integer
from .geometry import DISC, SpacePoint
from .measure import (
    BOUND_SLACK, MAX_GRID_RESOLUTION, DiscreteMeasure, _check_atom_count, _weighted_gram,
    kernel_constant_grid,
)
from . import numerics


class PointSequence:
    """Finite list of distinct interior points of the disc."""

    __slots__ = ("space", "points")

    def __init__(self, space, points):
        if space.kind != DISC:
            raise UnsupportedError("interpolation machinery is defined on the disc")
        pts = []
        for p in points:
            if not isinstance(p, SpacePoint):
                p = SpacePoint(p)
            _check_dim("sequence point", p.dim, "space", space.dim)
            pts.append(p)
        if not pts:
            raise InputError("a sequence needs at least one point")
        if len(set(pts)) != len(pts):
            raise InputError("sequence points must be pairwise distinct")
        self.space = space
        self.points = tuple(pts)

    def __len__(self):
        return len(self.points)

    def values(self):
        return np.array([p.coords[0] for p in self.points], dtype=complex)


@dataclass(frozen=True)
class InterpolationReport:
    """Every quantity of the interpolation chain for one finite sequence.

    holds_cond      sqrt(cond(G)) <= delta^-1 K^2
    holds_embedding K^2 <= 2e (1 + 2 ln delta^-1)
    holds_kernel_sup  grid sup of the kernel integral <= 1 + 2 ln delta^-1;
                      recorded but never asserted, since the cited bound
                      concerns genuinely Carleson sequences and arbitrary
                      finite inputs do violate it.
    """

    delta: float
    k_sq: float
    k_sq_bound: float
    gram_cond_root: float
    orth_bound: float
    interp_constant: float
    kernel_sup: float
    kernel_sup_bound: float
    holds_cond: bool
    holds_embedding: bool
    holds_kernel_sup: bool
    grid_resolution: int


def carleson_delta(seq):
    """Separation constant delta, computed in log space to dodge underflow.

    Refuses more than MAX_ATOMS points before any m x m array is built.
    """
    _check_atom_count(len(seq), "sequence has {} points")
    lam = seq.values()
    n = len(lam)
    if n == 1:
        return 1.0
    num = np.abs(lam[:, None] - lam[None, :])
    den = np.abs(1.0 - lam[:, None] * lam[None, :].conj())
    if np.min(num + np.eye(n)) <= 0.0:
        raise InputError("duplicate points give delta = 0")
    ratio = num / den
    np.fill_diagonal(ratio, 1.0)
    logs = np.log(ratio)
    worst = min(math.fsum(row) for row in logs)
    return math.exp(worst)


def sequence_measure(seq):
    """The measure sum_k (1 - |lam_k|^2) delta_{lam_k} induced by the sequence."""
    return DiscreteMeasure(seq.space, [(p, 1.0 - p.norm_sq) for p in seq.points])


def _gram(seq):
    """G as an array, Hermitian by construction; refuses more than MAX_ATOMS points first."""
    _check_atom_count(len(seq), "sequence has {} points")
    lam = seq.values()
    return _weighted_gram(lam[:, None], np.sqrt(1.0 - (lam * lam.conj()).real))


def gram_matrix(seq):
    """Gram matrix of the normalized kernels, as a HermitianMatrix.

    G[j, k] = sqrt((1-|lam_j|^2)(1-|lam_k|^2)) / (1 - lam_j conj(lam_k)):
    unit diagonal, Hermitian, positive definite for separated sequences.
    Refuses more than MAX_ATOMS points before G is built.
    """
    return numerics.HermitianMatrix(_gram(seq))


def _gram_extremes(seq):
    """(lambda_min(G), lambda_max(G)); refuses a numerically singular G.

    G is also the weighted kernel matrix of sequence_measure(seq), so
    lambda_max(G) is its embedding norm K^2.  A NaN end is refused too.
    """
    eigs = numerics._eigvalsh(_gram(seq))
    lo, hi = float(eigs[0]), float(eigs[-1])
    if not lo > 1e-14 * hi:
        raise NumericError(
            f"degenerate sequence: smallest Gram eigenvalue {lo:.3e} vs largest {hi:.3e}"
        )
    return lo, hi


def orthogonalizer_cond(seq):
    """sqrt(lambda_max(G) / lambda_min(G)), the realization of ||J|| ||J^-1||.

    J = G^(-1/2) orthonormalizes the kernel system, so ||J|| ||J^-1|| is
    exactly the square root of the condition number of G.  Refuses more
    than MAX_ATOMS points before G is built.
    """
    lo, hi = _gram_extremes(seq)
    return math.sqrt(hi / lo)


def interpolation_report(seq, resolution=64):
    """Assemble the full section-3 chain for a finite sequence of at most MAX_ATOMS points."""
    resolution = _check_integer("resolution", resolution, 8, MAX_GRID_RESOLUTION)
    delta = carleson_delta(seq)
    if not delta > 0.0:
        raise InputError("delta must be positive for the interpolation chain")
    lo, k_sq = _gram_extremes(seq)
    gram_cond_root = math.sqrt(k_sq / lo)
    log_inv = math.log(1.0 / delta)
    k_sq_bound = 2.0 * math.e * (1.0 + 2.0 * log_inv)
    orth_bound = k_sq / delta
    interp_constant = 2.0 * math.e / delta * (1.0 + 2.0 * log_inv)
    kernel_sup = kernel_constant_grid(sequence_measure(seq), resolution)
    kernel_sup_bound = 1.0 + 2.0 * log_inv
    return InterpolationReport(
        delta=delta,
        k_sq=k_sq,
        k_sq_bound=k_sq_bound,
        gram_cond_root=gram_cond_root,
        orth_bound=orth_bound,
        interp_constant=interp_constant,
        kernel_sup=kernel_sup,
        kernel_sup_bound=kernel_sup_bound,
        holds_cond=bool(gram_cond_root <= orth_bound * (1.0 + BOUND_SLACK)),
        holds_embedding=bool(k_sq <= k_sq_bound * (1.0 + BOUND_SLACK)),
        holds_kernel_sup=bool(kernel_sup <= kernel_sup_bound * (1.0 + BOUND_SLACK)),
        grid_resolution=resolution,
    )
