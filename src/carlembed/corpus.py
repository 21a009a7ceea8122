"""Seeded random inputs: interior points, atomic measures and polynomials.

The CLI's identity suites and the test corpora draw from these builders,
so one seed gives the same points everywhere.  ``rng`` is a
numpy Generator, usually from numerics.rng_stream.
"""

import math

import numpy as np

from .calculus import MultiPoly
from .geometry import SpacePoint
from .measure import DiscreteMeasure


def random_point(rng, dim, rmax):
    """Uniform direction, uniform radius in [0, rmax)."""
    raw = rng.normal(size=2 * dim)
    vec = raw[::2] + 1j * raw[1::2]
    vec /= math.sqrt(float(np.sum((vec * vec.conj()).real)))
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
    """Dense random polynomial of total degree <= max_degree (dim 1 or 2)."""
    terms = {}
    if dim == 1:
        for k in range(max_degree + 1):
            terms[(k,)] = complex(rng.normal(), rng.normal())
    else:
        for a in range(max_degree + 1):
            for b in range(max_degree + 1 - a):
                terms[(a, b)] = complex(rng.normal(), rng.normal())
    return MultiPoly(dim, terms)
