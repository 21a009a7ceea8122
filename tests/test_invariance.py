"""Exact-invariance oracles: constants that a unitary change of variables keeps.

A unitary map U of C^n preserves <z, w>, so z -> U z maps the ball onto
itself and leaves every Szego and Poisson-Szego kernel value unchanged.
Rotating every atom of a measure therefore leaves both the embedding
norm A(mu)^2 and the support constant c_supp unchanged.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlembed.geometry import Space, SpacePoint
from carlembed.measure import DiscreteMeasure, embedding_norm_sq, kernel_constant_on_support

REL_TOL = 1e-11

_unit = st.floats(-1.0, 1.0)
_angle = st.floats(0.0, 2.0 * math.pi)


def _atoms(dim):
    """(point, weight) pairs with |point| <= 0.95 and up to 19 atoms."""
    direction = st.lists(_unit, min_size=2 * dim, max_size=2 * dim).filter(
        lambda v: math.fsum(x * x for x in v) > 1e-6
    )
    atom = st.tuples(st.floats(0.0, 0.95), direction, st.floats(0.05, 20.0))
    return st.lists(atom, min_size=1, max_size=19)


def _unitary(dim, psi, t, alpha, beta):
    """exp(i psi) on the disc; on C^2 exp(i psi) [[a, -conj(b)], [b, conj(a)]]
    with a = cos(t) exp(i alpha), b = sin(t) exp(i beta), which covers U(2)."""
    phase = np.exp(1j * psi)
    if dim == 1:
        return np.array([[phase]])
    a = math.cos(t) * np.exp(1j * alpha)
    b = math.sin(t) * np.exp(1j * beta)
    return phase * np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def _measure(space, atoms, u):
    out = []
    for radius, raw, weight in atoms:
        vec = np.array(raw[::2]) + 1j * np.array(raw[1::2])
        vec *= radius / np.linalg.norm(vec)
        out.append((SpacePoint(u @ vec), weight))
    return DiscreteMeasure(space, out)


def _rel(a, b):
    return abs(a - b) / abs(a)


@pytest.mark.parametrize("space", [Space.disc(), Space.ball(2)], ids=["disc", "ball2"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), angles=st.tuples(_angle, _angle, _angle, _angle))
def test_constants_invariant_under_unitary_rotation(space, data, angles):
    atoms = data.draw(_atoms(space.dim))
    mu = _measure(space, atoms, np.eye(space.dim))
    # Atoms closer than rounding may merge on one side only; the constants
    # are continuous in the atoms, so the comparison still holds.
    rotated = _measure(space, atoms, _unitary(space.dim, *angles))
    assert _rel(embedding_norm_sq(mu), embedding_norm_sq(rotated)) <= REL_TOL
    assert _rel(kernel_constant_on_support(mu), kernel_constant_on_support(rotated)) <= REL_TOL
