"""Shared corpora for the test suite, drawn with carlembed.corpus.

All randomness flows through seeded counter-based streams so every test
is reproducible bit for bit.  Radius caps are chosen so that stencil and
quadrature truncation stay well inside the tolerances asserted by the
tests that consume the corpus.
"""

import math

import numpy as np

from carlembed import calculus
from carlembed.corpus import random_measure, random_point, random_poly
from carlembed.geometry import DISC, Space, _ipow, _norm_sq_rows
from carlembed.numerics import (
    _row_blocks, ball_rule, boundary_quadrature, default_quadrature, rng_stream,
)


# Dense kernel matrices, each formed in one piece with fresh temporaries:
# the oracles of the blocked scans and of the Gram matrix builder, which
# write every block into scratch.


def dense_denominator_sq(zs, lams):
    """D[..., i, j] = |1 - <zs[..., i], lams[..., j]>|^2, the real part of d * conj(d)."""
    d = 1.0 - zs @ lams.conj().swapaxes(-1, -2)
    return (d * d.conj()).real


def dense_poisson(zs, lams, n):
    """P[..., i, j] = P_{zs[..., i]}(lams[..., j]) = (1 - |z_i|^2)^n / D[..., i, j]^n."""
    return (1.0 - _norm_sq_rows(zs)[..., None]) ** n / _ipow(dense_denominator_sq(zs, lams), n)


def dense_szego(zs, ws, n):
    """K[..., i, j] = K(zs[..., i], ws[..., j]) = 1 / (1 - <z_i, w_j>)^n."""
    return 1.0 / _ipow(1.0 - zs @ ws.conj().swapaxes(-1, -2), n)


# The stencils as they were before the frame came from a real reflection
# times phase products: each node's Householder frame built from np.angle,
# a complex exp and a complex division, and every shift a complex product
# h v times 1, -1, i or -i.  The oracles of calculus._flat_laplacian_field
# (bit for bit) and calculus._invariant_laplacian_field.


def householder_stencil_sum(u, zs, v, h, u0):
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


def householder_flat_laplacian_field(u, zs, h):
    """5-point Laplacian of u at the rows of zs; h scalar or per-row array."""
    e_1 = np.eye(zs.shape[1])[0]
    return householder_stencil_sum(u, zs, e_1, h, np.asarray(u(zs), dtype=float)) / (h * h)


def householder_frame(zs):
    """(m, n, n) complex: [i, k] is column k of I - 2 w w^*/|w|^2 at zs[i].

    w = z/|z| + e^{i arg z_1} e_1, so |w|^2 >= 1; at the origin the frame
    is I - 2 e_1 e_1^T.
    """
    r = np.sqrt(_norm_sq_rows(zs))
    w = zs / np.where(r > 0.0, r, 1.0)[:, None]
    w[:, 0] += np.exp(1j * np.angle(zs[:, 0]))
    scale = 2.0 / _norm_sq_rows(w)
    frame = -(scale[:, None] * w.conj())[:, :, None] * w[:, None, :]
    frame += np.eye(zs.shape[1])
    return frame


def householder_invariant_laplacian_field(u, zs, h):
    """The invariant Laplacian as n flat stencils along the lines of householder_frame."""
    n = zs.shape[1]
    nrm = _norm_sq_rows(zs)
    frame = householder_frame(zs)
    u0 = np.asarray(u(zs), dtype=float)
    across = (1.0 - nrm) / (n + 1)
    total = 0.0
    for k in range(n):
        weight = (1.0 - nrm) * across if k == 0 else across
        total = total + weight * householder_stencil_sum(u, zs, frame[:, k], h, u0)
    return total / (h * h)


# The Green's-formula pass as it read the whole rule from the cached
# accessor, before the rule was streamed block by block, with the
# stencils above: the oracle of calculus.greens_formula_check, which
# equals it bit for bit on the disc and within 1e-13 relative on the
# ball.  Argument checks are left to the library.


def full_rule_greens_formula_check(u, space, q=None, laplacian=None):
    """calculus.greens_formula_check over the fully built ball_rule, node by node."""
    if q is None:
        q = default_quadrature(space)
    n = space.dim
    points, weights = ball_rule(q, n)
    stencil = (householder_flat_laplacian_field if space.kind == DISC
               else householder_invariant_laplacian_field)
    terms = np.empty(len(weights))
    for rows in _row_blocks(len(points), 4 * n):
        zs = points[rows]
        nrm2 = _norm_sq_rows(zs)
        r = np.sqrt(nrm2)
        if laplacian is None:
            lap = stencil(u, zs, np.minimum(calculus.FD_STEP, 0.25 * (1.0 - r)))
        else:
            lap = np.asarray(laplacian(zs), dtype=float)
        if space.kind == DISC:
            density = calculus._green_ball_field(r, 1)
        else:
            density = calculus._green_ball_field(r, n) / (1.0 - nrm2) ** (n + 1)
        np.multiply(weights[rows] * lap, density, out=terms[rows])
    if space.kind == DISC:
        lhs = float(np.sum(terms)) / (2.0 * np.pi)
    else:
        lhs = math.factorial(n) / np.pi ** n * float(np.sum(terms))
    origin = np.zeros((1, space.dim), dtype=complex)
    rhs = boundary_quadrature(u, q, space) - float(np.asarray(u(origin), dtype=float)[0])
    return lhs, rhs, abs(lhs - rhs)


def disc_measure_corpus(count, max_atoms, rmax, seed, stream):
    rng = rng_stream(seed, stream)
    space = Space.disc()
    return [random_measure(rng, space, max_atoms, rmax) for _ in range(count)]


def ball_measure_corpus(count, max_atoms, rmax, seed, stream):
    rng = rng_stream(seed, stream)
    space = Space.ball(2)
    return [random_measure(rng, space, max_atoms, rmax) for _ in range(count)]


def pair_corpus(count, dim, rmax, seed, stream):
    """(z, lambda) point pairs for differential-operator oracles."""
    rng = rng_stream(seed, stream)
    return [
        (random_point(rng, dim, rmax), random_point(rng, dim, rmax))
        for _ in range(count)
    ]


def measure_poly_corpus(count, space, max_atoms, rmax, max_degree, seed, stream):
    rng = rng_stream(seed, stream)
    out = []
    for _ in range(count):
        mu = random_measure(rng, space, max_atoms, rmax)
        f = random_poly(rng, space.dim, max_degree)
        out.append((mu, f))
    return out


def sequence_corpus(count, max_points, rmax, min_delta, seed, stream):
    """Finite disc sequences with separation constant above min_delta.

    Rejection-samples until the product separation clears the floor, so
    the Gram matrices stay honestly conditioned.
    """
    from carlembed.interpolation import PointSequence, carleson_delta

    rng = rng_stream(seed, stream)
    space = Space.disc()
    out = []
    while len(out) < count:
        n = int(rng.integers(2, max_points + 1))
        pts = [random_point(rng, 1, rmax) for _ in range(n)]
        try:
            seq = PointSequence(space, pts)
        except Exception:
            continue
        if carleson_delta(seq) > min_delta:
            out.append(seq)
    return out


def hermitian_with_spectrum(eigs, seed, top_orthogonal_to_ones=False):
    """Q diag(eigs) Q^H for a seeded unitary Q; its first column can be made orthogonal to ones."""
    rng = rng_stream(seed, 0)
    n = len(eigs)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if top_orthogonal_to_ones:
        x[:, 0] -= x[:, 0].mean()
    q, _ = np.linalg.qr(x)
    a = (q * np.asarray(eigs)) @ q.conj().T
    return (a + a.conj().T) / 2
