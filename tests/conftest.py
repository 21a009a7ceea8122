"""Shared corpora for the test suite, drawn with carlembed.corpus.

All randomness flows through seeded counter-based streams so every test
is reproducible bit for bit.  Radius caps are chosen so that stencil and
quadrature truncation stay well inside the tolerances asserted by the
tests that consume the corpus.
"""

from carlembed.corpus import random_measure, random_point, random_poly
from carlembed.geometry import Space
from carlembed.numerics import rng_stream


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
