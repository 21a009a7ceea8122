import math

import numpy as np
import pytest

from carlembed.corpus import random_point
from carlembed.errors import InputError, UnsupportedError
from carlembed.geometry import Space, SpacePoint, _poisson_matrix
from carlembed.measure import (
    MAX_GRID_RESOLUTION,
    DiscreteMeasure,
    _grid_points,
    _potential_field,
    _row_blocks,
    analyze,
    box_constant,
    carleson_potential,
    embedding_norm_sq,
    kernel_constant_grid,
    kernel_constant_on_support,
    theorem_bound_constant,
)
from carlembed.numerics import rng_stream

from conftest import ball_measure_corpus, disc_measure_corpus


def pair_measure():
    sp = Space.disc()
    return DiscreteMeasure(
        sp, [(SpacePoint(0.5), 0.75), (SpacePoint(-0.5), 0.75)]
    )


def test_measure_merges_duplicate_atoms():
    sp = Space.disc()
    mu = DiscreteMeasure(sp, [(SpacePoint(0.5), 1.0), (SpacePoint(0.5), 2.0)])
    assert len(mu) == 1
    assert mu.atoms[0][1] == pytest.approx(3.0)


def test_measure_validates_weights_and_dims():
    sp = Space.disc()
    with pytest.raises(InputError):
        DiscreteMeasure(sp, [(SpacePoint(0.5), 0.0)])
    with pytest.raises(InputError):
        DiscreteMeasure(sp, [(SpacePoint(0.5), -1.0)])
    with pytest.raises(InputError):
        DiscreteMeasure(sp, [(SpacePoint([0.5, 0.0]), 1.0)])
    with pytest.raises(InputError):
        DiscreteMeasure(sp, [])
    for weight in (True, np.True_, math.inf, math.nan):
        with pytest.raises(InputError):
            DiscreteMeasure(sp, [(SpacePoint(0.5), weight)])


def test_carleson_potential_single_atom_oracle():
    # atom at the origin: phi(z) = -w (1 - |z|^2)^n
    sp = Space.disc()
    mu = DiscreteMeasure(sp, [(SpacePoint(0.0), 1.0)])
    z = SpacePoint(0.6)
    assert carleson_potential(mu, z) == pytest.approx(-(1 - 0.36), abs=1e-15)
    sp2 = Space.ball(2)
    mu2 = DiscreteMeasure(sp2, [(SpacePoint([0.0, 0.0]), 2.0)])
    z2 = SpacePoint([0.6, 0.0])
    assert carleson_potential(mu2, z2) == pytest.approx(-2 * (1 - 0.36) ** 2, abs=1e-15)


@pytest.mark.parametrize("corpus", [disc_measure_corpus, ball_measure_corpus])
def test_carleson_potential_is_the_field_at_one_point(corpus):
    rng = rng_stream(515, 1)
    for mu in corpus(10, 12, 0.95, 515, 0):
        z = random_point(rng, mu.space.dim, 0.95)
        assert carleson_potential(mu, z) == _potential_field(mu, z.as_array()[None])[0]


def test_kernel_constant_on_support_pair_oracle():
    # at 0.5: 0.75 * [1/0.75 + 0.75/1.5625] = 1 + 0.36 = 1.36
    assert kernel_constant_on_support(pair_measure()) == pytest.approx(1.36, abs=1e-14)


def test_embedding_norm_sq_pair_oracle():
    # Gram matrix [[1, 0.6], [0.6, 1]] / (1 - 0.25) -> top eigenvalue 1.6
    assert embedding_norm_sq(pair_measure()) == pytest.approx(1.6, abs=1e-13)


def test_embedding_norm_sq_single_atom_matches_support_constant():
    sp = Space.ball(2)
    mu = DiscreteMeasure(sp, [(SpacePoint([0.3, 0.4j]), 1.7)])
    assert embedding_norm_sq(mu) == pytest.approx(
        kernel_constant_on_support(mu), rel=1e-13
    )


def test_embedding_norm_rejects_oversize_measure():
    sp = Space.disc()
    atoms = [(SpacePoint(1e-5 * (k + 1)), 1.0) for k in range(2001)]
    mu = DiscreteMeasure(sp, atoms)
    with pytest.raises(InputError):
        embedding_norm_sq(mu)


def test_kernel_constant_grid_refines_monotonically():
    mu = pair_measure()
    vals = [kernel_constant_grid(mu, resolution=r) for r in (8, 16, 32, 64)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[0] >= kernel_constant_on_support(mu) - 1e-12
    with pytest.raises(InputError):
        kernel_constant_grid(mu, resolution=4)
    with pytest.raises(InputError):
        kernel_constant_grid(mu, resolution=MAX_GRID_RESOLUTION + 1)


def test_kernel_constant_grid_matches_unblocked_scan():
    rng = rng_stream(41, 0)
    for space, count in ((Space.disc(), 300), (Space.ball(2), 600)):
        atoms = [(random_point(rng, space.dim, 0.95), 1.0 + rng.random()) for _ in range(count)]
        mu = DiscreteMeasure(space, atoms)
        pts = mu.points_array()
        grid = np.concatenate([_grid_points(mu.space, 64), pts], axis=0)
        assert len(_row_blocks(len(grid), len(pts))) >= 3
        want = float(np.max(_poisson_matrix(grid, pts, mu.space.dim) @ mu.weights_array()))
        assert kernel_constant_grid(mu, 64) == pytest.approx(want, rel=1e-14)


def _box_constant_loop(mu, directions=64):
    """Per-radius double loop over the center grid: the oracle for box_constant."""
    lam = mu.points_array()[:, 0]
    w = mu.weights_array()
    angles = list(2.0 * np.pi * np.arange(directions) / directions)
    base_step = 2.0 * np.pi / directions
    for z in lam:
        if abs(z) == 0.0:
            continue
        t = math.atan2(z.imag, z.real)
        angles.append(t)
        for k in range(1, 7):
            angles.extend((t + base_step * 2.0 ** -k, t - base_step * 2.0 ** -k))
    centers = np.exp(1j * np.asarray(angles))
    dist = np.abs(lam[None, :] - centers[:, None])
    best = 0.0
    for row in dist:
        for r in row:
            mass = float(np.sum(w[row <= r * (1.0 + 1e-12)]))
            best = max(best, mass / r)
    return best


def test_box_constant_matches_loop_oracle():
    sp = Space.disc()
    corpus = disc_measure_corpus(30, 50, 0.95, seed=2024, stream=0)
    # both atoms lie exactly at distance |0.7 + 0.1i - 1| from the center 1
    tie = DiscreteMeasure(sp, [(SpacePoint(0.7 + 0.1j), 1.0), (SpacePoint(0.7 - 0.1j), 1.0)])
    assert box_constant(tie) == 2.0 / abs(0.7 + 0.1j - 1.0)
    for mu in corpus + [tie, pair_measure()]:
        oracle = _box_constant_loop(mu)
        got = box_constant(mu)
        # The loop counts atoms within a relative 1e-12 of each radius;
        # cumulative sums add the masses in another order, which moves
        # a sum of m positive terms by at most about 2 m eps.
        rounding = 2 * len(mu) * np.finfo(float).eps
        assert oracle / (1.0 + 1e-12) <= got <= oracle * (1.0 + rounding)


def test_box_constant_single_atom_oracle():
    # the box through the atom at 0.5 has radius 0.5 and mass 1
    sp = Space.disc()
    mu = DiscreteMeasure(sp, [(SpacePoint(0.5), 1.0)])
    val = box_constant(mu)
    assert val >= 2.0 - 1e-12
    assert val <= 2.0 + 1e-9


def test_box_constant_rejects_ball_and_few_directions():
    sp = Space.ball(2)
    mu = DiscreteMeasure(sp, [(SpacePoint([0.3, 0.0]), 1.0)])
    with pytest.raises(UnsupportedError):
        box_constant(mu)
    with pytest.raises(InputError):
        box_constant(pair_measure(), directions=8)


def test_theorem_bound_constants():
    assert theorem_bound_constant(Space.disc()) == pytest.approx(2 * math.e, abs=1e-15)
    assert theorem_bound_constant(Space.ball(1)) == theorem_bound_constant(Space.disc())
    assert theorem_bound_constant(Space.ball(2)) == pytest.approx(6 * math.e, abs=1e-14)
    assert theorem_bound_constant(Space.ball(3)) == pytest.approx(20 * math.e, abs=1e-13)


def test_analyze_pair_report():
    rep = analyze(pair_measure(), resolution=32)
    assert rep.a_sq == pytest.approx(1.6, abs=1e-13)
    assert rep.c_supp == pytest.approx(1.36, abs=1e-14)
    assert rep.c_grid >= rep.c_supp - 1e-12
    assert rep.i_box == pytest.approx(1.5, abs=1e-6)
    assert rep.ratio == pytest.approx(1.6 / 1.36, rel=1e-12)
    assert rep.holds
    assert rep.grid_resolution == 32


def test_analyze_ball_has_no_box_constant():
    sp = Space.ball(2)
    mu = DiscreteMeasure(sp, [(SpacePoint([0.3, 0.4j]), 1.0)])
    rep = analyze(mu, resolution=16)
    assert rep.i_box is None
    assert rep.holds


def test_scaling_moves_constants_linearly():
    mu = pair_measure()
    big = mu.scaled(3.0)
    assert embedding_norm_sq(big) == pytest.approx(3 * embedding_norm_sq(mu), rel=1e-12)
    assert kernel_constant_on_support(big) == pytest.approx(
        3 * kernel_constant_on_support(mu), rel=1e-14
    )
