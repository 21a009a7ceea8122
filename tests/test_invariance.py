"""Exact-invariance oracles: constants that a change of variables keeps.

A unitary map U of C^n preserves <z, w>, so z -> U z maps the ball onto
itself and leaves every Szego and Poisson-Szego kernel value unchanged.
Rotating every atom of a measure therefore leaves both the embedding
norm A(mu)^2 and the support constant c_supp unchanged.

The Mobius involution phi_a is not unitary, but f -> (f o phi_a) k_a is
a unitary map of H^2 and P_{phi_a z}(phi_a lam) |k_a(lam)|^2 = P_z(lam).
So the pushforward of |k_a|^2 mu under phi_a, which moves each atom lam
to phi_a(lam) and multiplies its weight by |k_a(lam)|^2, has the same
A(mu)^2 and the same c_supp as mu.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlembed.geometry import Space, SpacePoint, mobius, normalized_kernel
from carlembed.measure import DiscreteMeasure, embedding_norm_sq, kernel_constant_on_support

REL_TOL = 1e-11

_unit = st.floats(-1.0, 1.0)
_angle = st.floats(0.0, 2.0 * math.pi)


def _direction(dim):
    return st.lists(_unit, min_size=2 * dim, max_size=2 * dim).filter(
        lambda v: math.fsum(x * x for x in v) > 1e-6
    )


def _atoms(dim, rmax=0.95):
    """(point, weight) pairs with |point| <= rmax and up to 19 atoms."""
    atom = st.tuples(st.floats(0.0, rmax), _direction(dim), st.floats(0.05, 20.0))
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


def _vector(radius, raw):
    vec = np.array(raw[::2]) + 1j * np.array(raw[1::2])
    return vec * (radius / np.linalg.norm(vec))


def _measure(space, atoms, u):
    return DiscreteMeasure(
        space, [(SpacePoint(u @ _vector(radius, raw)), weight) for radius, raw, weight in atoms]
    )


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


@pytest.mark.parametrize(
    "space", [Space.disc(), Space.ball(2), Space.ball(3)], ids=["disc", "ball2", "ball3"]
)
@settings(derandomize=True, max_examples=50, deadline=None)
@given(data=st.data())
def test_constants_invariant_under_mobius_pushforward(space, data):
    atoms = data.draw(_atoms(space.dim, rmax=0.9))
    radius, raw = data.draw(st.tuples(st.floats(0.0, 0.9), _direction(space.dim)))
    a = SpacePoint(_vector(radius, raw))
    mu = _measure(space, atoms, np.eye(space.dim))
    pushed = DiscreteMeasure(space, [
        (mobius(a, lam, space), w * abs(normalized_kernel(a, lam, space)) ** 2)
        for lam, w in mu.atoms
    ])
    assert _rel(embedding_norm_sq(mu), embedding_norm_sq(pushed)) <= REL_TOL
    assert _rel(kernel_constant_on_support(mu), kernel_constant_on_support(pushed)) <= REL_TOL
