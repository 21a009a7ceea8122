"""Reproducing kernels, Poisson-Szego kernels, and Mobius automorphisms.

Points live in the open unit ball of C^n (n = 1 for the disc).  With
<z, w> the Hermitian inner product sum(z_i * conj(w_i)), the Szego
kernel is K(z, w) = 1 / (1 - <z, w>)^n, its normalization is
k_lam(z) = (1 - |lam|^2)^(n/2) * K(z, lam), and the Poisson-Szego
kernel is P_z(lam) = |k_z(lam)|^2 = (1 - |z|^2)^n / |1 - <lam, z>|^(2n).

The module also exposes private vectorized helpers used by the measure,
calculus and extremal modules; those operate on (m, n) complex
coordinate arrays, or stacks of them, instead of SpacePoint values.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InputError, KernelConditioningWarning, SingularityError, _as_complex, _check_dim,
    _check_integer,
)

DISC = "disc"
BALL = "ball"

# Construction of a point with norm_sq above 1 - this margin emits a
# KernelConditioningWarning: kernels blow up like (1 - |z|^2)**-n.
CONDITIONING_MARGIN = 1e-8

# Guard against a vanishing kernel denominator; unreachable for genuine
# interior points, catches rounding disasters.
_DENOM_FLOOR = 1e-280


@dataclass(frozen=True)
class Space:
    """Ambient domain: the unit disc or the unit ball of C^dim."""

    kind: str
    dim: int = 1

    def __post_init__(self):
        if self.kind not in (DISC, BALL):
            raise InputError(f"kind must be {DISC!r} or {BALL!r}, got {self.kind!r}")
        object.__setattr__(self, "dim", _check_integer("dim", self.dim, 1))
        if self.kind == DISC and self.dim != 1:
            raise InputError("the disc has complex dimension 1")

    @classmethod
    def disc(cls):
        return cls(DISC, 1)

    @classmethod
    def ball(cls, dim):
        return cls(BALL, dim)


class SpacePoint:
    """A point of the open unit ball of C^n with its cached squared norm."""

    __slots__ = ("coords", "norm_sq")

    def __init__(self, coords):
        if isinstance(coords, (int, float, complex, np.number)):
            coords = (coords,)
        try:
            cs = tuple(map(_as_complex, coords))
        except TypeError:  # not iterable
            cs = (None,)
        if None in cs:
            raise InputError(
                f"point coordinates must be numbers in the double range, not bools, got {coords!r}"
            )
        if not cs:
            raise InputError("a point needs at least one coordinate")
        norm_sq = math.fsum(c.real * c.real + c.imag * c.imag for c in cs)
        if not norm_sq < 1.0:
            raise InputError(f"point must lie strictly inside the unit ball, |z|^2 = {norm_sq}")
        if norm_sq > 1.0 - CONDITIONING_MARGIN:
            warnings.warn(
                f"point has 1 - |z|^2 = {1.0 - norm_sq:.3e}; kernel values are ill conditioned",
                KernelConditioningWarning,
                stacklevel=2,
            )
        self.coords = cs
        self.norm_sq = norm_sq

    @property
    def dim(self):
        return len(self.coords)

    def as_array(self):
        return np.array(self.coords, dtype=complex)

    def __eq__(self, other):
        return isinstance(other, SpacePoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"SpacePoint({list(self.coords)!r})"


def inner(z, w):
    """Hermitian inner product <z, w> = sum(z_i * conj(w_i))."""
    _check_dim("point", z.dim, "other point", w.dim)
    return complex(sum(a * b.conjugate() for a, b in zip(z.coords, w.coords)))


def _ipow(base, n, out=None):
    """Integer power by repeated multiplication (no branch ambiguity).

    Takes Python numbers and numpy arrays alike (arrays multiply in place,
    into out when it is given and n > 1).
    """
    if n == 1:
        return base
    out = base * base if out is None else np.multiply(base, base, out=out)
    for _ in range(n - 2):
        out *= base
    return out


# Each kernel formula below is written once in terms of d = 1 - <z, w>
# (the Poisson-Szego kernel in terms of |d|^2): a Python complex or float
# for the scalar functions, an array for the matrices.
def _szego(d, n, out=None):
    """K(z, w) = 1 / d^n with d = 1 - <z, w>.

    out, an array other than d, receives the values when it is given.
    """
    if out is None:
        return 1.0 / _ipow(d, n)
    return np.divide(1.0, _ipow(d, n, out), out=out)


def _poisson(d_sq, z_norm_sq, n, out=None):
    """P_z(lam) = (1 - |z|^2)^n / |d|^(2n), given d_sq = |d|^2 with d = 1 - <lam, z>.

    out, an array other than d_sq, receives the values when it is given;
    without it, Python numbers give a Python number.
    """
    num = (1.0 - z_norm_sq) ** n
    if out is None:
        return num / _ipow(d_sq, n)
    return np.divide(num, _ipow(d_sq, n, out), out=out)


def _denominator(a, b, s):
    """d = 1 - <a, b> for two points of s, refusing a vanishing d."""
    _check_dim("point", a.dim, "space", s.dim)
    _check_dim("point", b.dim, "space", s.dim)
    d = 1.0 - inner(a, b)
    if abs(d) < _DENOM_FLOOR:
        raise SingularityError(f"kernel denominator |1 - <z, w>| = {abs(d):.3e}")
    return d


def szego_kernel(z, w, s):
    """Unnormalized reproducing kernel K(z, w) = 1 / (1 - <z, w>)^n."""
    return _szego(_denominator(z, w, s), s.dim)


def normalized_kernel(lam, z, s):
    """Unit-norm kernel k_lam(z) = (1 - |lam|^2)^(n/2) / (1 - <z, lam>)^n."""
    return (1.0 - lam.norm_sq) ** (s.dim / 2.0) * szego_kernel(z, lam, s)


def poisson_kernel(z, lam, s):
    """Poisson-Szego kernel P_z(lam) = |k_z(lam)|^2, strictly positive."""
    d = _denominator(lam, z, s)
    return _poisson((d * d.conjugate()).real, z.norm_sq, s.dim)


def mobius(lam, z, s):
    """Involutive automorphism exchanging lam and 0.

    Disc: b_lam(z) = (lam - z) / (1 - conj(lam) z).  Ball: the standard
    projection form (lam - P z - s Q z) / (1 - <z, lam>) with P the
    projection onto span(lam), Q = I - P, s = sqrt(1 - |lam|^2); for
    lam = 0 this degenerates to -z.
    """
    _check_dim("point", lam.dim, "space", s.dim)
    _check_dim("point", z.dim, "space", s.dim)
    if s.dim == 1:
        l0, z0 = lam.coords[0], z.coords[0]
        return SpacePoint((l0 - z0) / (1.0 - l0.conjugate() * z0))
    if lam.norm_sq == 0.0:
        return SpacePoint(tuple(-c for c in z.coords))
    a = inner(z, lam)
    scale = a / lam.norm_sq
    proj = tuple(scale * c for c in lam.coords)
    s_lam = math.sqrt(1.0 - lam.norm_sq)
    denom = 1.0 - a
    coords = tuple(
        (l - p - s_lam * (c - p)) / denom for l, p, c in zip(lam.coords, proj, z.coords)
    )
    return SpacePoint(coords)


def pseudo_hyperbolic(a, b, s):
    """Pseudo-hyperbolic distance |b_a(b)|, a value in [0, 1)."""
    image = mobius(a, b, s)
    return math.sqrt(image.norm_sq)


# ---------------------------------------------------------------------------
# Vectorized internals over (..., m, n) complex coordinate arrays: one
# (m, n) array, or a stack of them with the same leading axes.


def _norm_sq_rows(zs):
    """|z|^2 per row: re^2 + im^2 by columns, bit-identical to Re sum z conj(z), no copies."""
    out = zs[..., 0].real ** 2 + zs[..., 0].imag ** 2
    for k in range(1, zs.shape[-1]):
        out += zs[..., k].real ** 2 + zs[..., k].imag ** 2
    return out
