"""Seeded random inputs: interior points, atomic measures and polynomials.

The CLI's identity suites and the test corpora draw from these builders,
so one seed gives the same points everywhere.  ``rng`` is a
numpy Generator, usually from numerics.rng_stream.
"""

import itertools
import math

from .calculus import MultiPoly
from .geometry import SpacePoint
from .measure import DiscreteMeasure


def random_point(rng, dim, rmax):
    """Uniform direction, uniform radius in [0, rmax)."""
    raw = rng.normal(size=2 * dim)
    vec = raw[::2] + 1j * raw[1::2]
    vec /= math.sqrt(sum((vec * vec.conj()).real.tolist()))
    return SpacePoint(vec * (rmax * rng.random()))


def random_measure(rng, space, max_atoms, rmax):
    """1 to max_atoms atoms within radius rmax, log-normal weights."""
    count = int(rng.integers(1, max_atoms + 1))
    atoms = [
        (random_point(rng, space.dim, rmax), math.exp(rng.normal(0.0, 0.5)))
        for _ in range(count)
    ]
    return DiscreteMeasure(space, atoms)


def random_poly(rng, dim, max_degree):
    """Dense random polynomial of total degree <= max_degree, terms drawn in lexicographic order."""
    terms = {
        alpha: complex(rng.normal(), rng.normal())
        for alpha in itertools.product(range(max_degree + 1), repeat=dim)
        if sum(alpha) <= max_degree
    }
    return MultiPoly(dim, terms)
