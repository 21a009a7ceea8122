import math

import numpy as np
import pytest

from carlembed.corpus import random_point
from carlembed.errors import InputError, KernelConditioningWarning
from carlembed.geometry import (
    Space,
    SpacePoint,
    _norm_sq_rows,
    inner,
    mobius,
    normalized_kernel,
    poisson_kernel,
    pseudo_hyperbolic,
    szego_kernel,
)
from carlembed.measure import _poisson_blocks, _weighted_gram
from carlembed.numerics import rng_stream


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_point_draws_equal_the_numpy_sum_formula(dim):
    # random_point once normalized by float(np.sum(...)) of the squared
    # moduli; below 8 terms numpy adds them in order, as Python's sum does
    rng, old = rng_stream(2727, dim), rng_stream(2727, dim)
    for _ in range(2000):
        raw = old.normal(size=2 * dim)
        vec = raw[::2] + 1j * raw[1::2]
        vec /= math.sqrt(float(np.sum((vec * vec.conj()).real)))
        want = SpacePoint(vec * (0.95 * old.random()))
        assert random_point(rng, dim, 0.95).as_array().tobytes() == want.as_array().tobytes()


def test_space_constructors():
    d = Space.disc()
    assert d.kind == "disc" and d.dim == 1
    b = Space.ball(3)
    assert b.kind == "ball" and b.dim == 3
    with pytest.raises(InputError):
        Space.ball(0)
    with pytest.raises(InputError, match="dim must be a positive integer, got True"):
        Space.ball(True)


def test_space_point_scalar_and_vector():
    p = SpacePoint(0.3 + 0.4j)
    assert p.dim == 1
    assert p.norm_sq == pytest.approx(0.25, abs=1e-16)
    q = SpacePoint([0.3, 0.4j])
    assert q.dim == 2
    assert q.norm_sq == pytest.approx(0.25, abs=1e-16)


def test_space_point_takes_numpy_scalars_as_one_coordinate():
    # complex() took a Python scalar only; a numpy scalar was iterated
    assert SpacePoint(np.float32(0.5)).coords == (0.5 + 0j,)
    assert SpacePoint(np.int64(0)).coords == (0j,)
    assert SpacePoint(np.complex64(0.5j)).coords == (0.5j,)
    row = np.array([0.3, 0.4j])
    assert SpacePoint(row) == SpacePoint([0.3, 0.4j]) == SpacePoint(tuple(row))
    assert all(type(c) is complex for c in SpacePoint(row).coords)


@pytest.mark.parametrize("coords", [
    "0.5", ["0.5"], [False], False, [np.True_], np.True_, None, [None], [0.1, "0.2"], [10 ** 400],
])
def test_space_point_refuses_coordinates_that_are_no_numbers(coords):
    # complex() read ["0.5"] as 0.5 and [False] as the origin, and raised a
    # bare ValueError or TypeError for "0.5" and None
    with pytest.raises(InputError, match="^point coordinates must be numbers in the double range"):
        SpacePoint(coords)


def test_space_point_rejects_exterior():
    with pytest.raises(InputError):
        SpacePoint(1.0)
    with pytest.raises(InputError):
        SpacePoint([0.8, 0.7])


def test_space_point_warns_near_boundary():
    with pytest.warns(KernelConditioningWarning):
        SpacePoint(math.sqrt(1.0 - 1e-9))


def test_inner_conjugates_second_argument():
    z = SpacePoint([0.1 + 0.2j, 0.3])
    w = SpacePoint([0.4, 0.5j])
    # sum z_j conj(w_j) by hand
    want = (0.1 + 0.2j) * 0.4 + 0.3 * (-0.5j)
    assert inner(z, w) == pytest.approx(want, abs=1e-16)
    with pytest.raises(InputError):
        inner(z, SpacePoint(0.1))


def test_szego_kernel_disc_oracle():
    sp = Space.disc()
    z = SpacePoint(0.5)
    w = SpacePoint(0.25j)
    # 1 / (1 - z conj(w)) = 1 / (1 + 0.125j)
    want = 1.0 / (1.0 + 0.125j)
    assert szego_kernel(z, w, sp) == pytest.approx(want, abs=1e-16)
    assert szego_kernel(SpacePoint(0.0), SpacePoint(0.0), sp) == 1.0


def test_szego_kernel_ball_power():
    sp = Space.ball(2)
    z = SpacePoint([0.5, 0.0])
    w = SpacePoint([0.5, 0.0])
    want = 1.0 / (1.0 - 0.25) ** 2
    assert szego_kernel(z, w, sp) == pytest.approx(want, abs=1e-14)


def test_normalized_kernel_self_value():
    # k_lambda(lambda) = (1 - |lambda|^2)^(-n/2)
    sp = Space.disc()
    lam = SpacePoint(0.6)
    assert normalized_kernel(lam, lam, sp) == pytest.approx((1 - 0.36) ** -0.5, abs=1e-14)
    sp2 = Space.ball(2)
    lam2 = SpacePoint([0.6, 0.0])
    assert normalized_kernel(lam2, lam2, sp2) == pytest.approx(1.0 / (1 - 0.36), abs=1e-14)


def test_poisson_kernel_disc_oracle():
    sp = Space.disc()
    z = SpacePoint(0.5)
    lam = SpacePoint(0.3)
    want = (1.0 - 0.25) / abs(1.0 - 0.3 * 0.5) ** 2
    assert poisson_kernel(z, lam, sp) == pytest.approx(want, abs=1e-15)


def test_poisson_kernel_is_squared_normalized_kernel():
    sp = Space.ball(2)
    z = SpacePoint([0.4, 0.1j])
    lam = SpacePoint([-0.2, 0.3])
    k = normalized_kernel(z, lam, sp)
    assert poisson_kernel(z, lam, sp) == pytest.approx(abs(k) ** 2, rel=1e-13)


def test_mobius_exchanges_lambda_and_zero():
    for sp, lam in (
        (Space.disc(), SpacePoint(0.3 - 0.4j)),
        (Space.ball(2), SpacePoint([0.3, -0.4j])),
    ):
        zero = SpacePoint([0.0] * sp.dim)
        img = mobius(lam, lam, sp)
        assert max(abs(c) for c in img.coords) < 1e-15
        back = mobius(lam, zero, sp)
        assert all(
            abs(a - b) < 1e-15 for a, b in zip(back.coords, lam.coords)
        )


def test_mobius_involution_and_norm_identity():
    sp = Space.ball(2)
    lam = SpacePoint([0.5, 0.2j])
    z = SpacePoint([-0.1, 0.6])
    img = mobius(lam, z, sp)
    back = mobius(lam, img, sp)
    assert all(abs(a - b) < 1e-14 for a, b in zip(back.coords, z.coords))
    want = (1 - lam.norm_sq) * (1 - z.norm_sq) / abs(1 - inner(z, lam)) ** 2
    assert 1 - img.norm_sq == pytest.approx(want, rel=1e-13)


def test_pseudo_hyperbolic_disc_oracle():
    sp = Space.disc()
    a = SpacePoint(0.5)
    b = SpacePoint(-0.5)
    # |a - b| / |1 - conj(a) b| = 1 / 1.25
    assert pseudo_hyperbolic(a, b, sp) == pytest.approx(0.8, abs=1e-15)
    assert pseudo_hyperbolic(a, a, sp) == pytest.approx(0.0, abs=1e-15)


def test_pseudo_hyperbolic_mobius_invariance():
    sp = Space.disc()
    a = SpacePoint(0.3 + 0.1j)
    b = SpacePoint(-0.2 + 0.5j)
    c = SpacePoint(0.4)
    d0 = pseudo_hyperbolic(a, b, sp)
    d1 = pseudo_hyperbolic(mobius(c, a, sp), mobius(c, b, sp), sp)
    assert d1 == pytest.approx(d0, rel=1e-13)


@pytest.mark.parametrize("space", [Space.disc(), Space.ball(2)], ids=["disc", "ball2"])
def test_scalar_kernels_match_matrix_entries(space):
    # The scalar kernels and the kernel blocks share one formula each and
    # differ only in how they form <z, w>, so they agree to rounding.
    rng = rng_stream(20260101, space.dim)
    pts = [random_point(rng, space.dim, 0.95) for _ in range(60)]
    zs = np.array([p.coords for p in pts], dtype=complex)
    szego = _weighted_gram(zs, np.ones(len(zs)))  # unit weights leave the kernel exact
    (_, _, _, _, poisson), = _poisson_blocks(zs, zs)
    worst = 0.0
    for i, z in enumerate(pts):
        for j, w in enumerate(pts):
            norm = (1.0 - w.norm_sq) ** (space.dim / 2.0)
            for got, want in (
                (szego_kernel(z, w, space), szego[i, j]),
                (poisson_kernel(z, w, space), poisson[i, j]),
                (normalized_kernel(w, z, space), norm * szego[i, j]),
            ):
                worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-13


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_norm_sq_rows_equals_conjugate_product(dim):
    # re^2 + im^2 summed over a row is bit-identical to the real part of
    # sum z conj(z), without building a conjugated copy.
    rng = rng_stream(909, dim)
    zs = rng.normal(size=(100_003, dim)) + 1j * rng.normal(size=(100_003, dim))
    zs *= rng.random((100_003, 1)) ** 3
    assert np.array_equal(_norm_sq_rows(zs), np.einsum("ij,ij->i", zs, zs.conj()).real)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("atoms", [1, 3, 8])
def test_kernel_matrices_of_a_stack_match_each_matrix(dim, atoms):
    # The lockstep search evaluates a stack of measures at once; each
    # matrix of the stack must be bit-identical to the 2-D call on its rows.
    rng = rng_stream(910, 10 * dim + atoms)
    stack = rng.normal(size=(5, atoms, dim)) + 1j * rng.normal(size=(5, atoms, dim))
    stack /= 1.5 * np.sqrt(_norm_sq_rows(stack))[..., None]
    nsq = _norm_sq_rows(stack)
    ones = np.ones(stack.shape[:-1])
    szego = _weighted_gram(stack, ones)
    for i, zs in enumerate(stack):
        assert np.array_equal(nsq[i], _norm_sq_rows(zs))
        assert np.array_equal(szego[i], _weighted_gram(zs, ones[i]))
