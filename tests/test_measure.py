import math
import tracemalloc

import numpy as np
import pytest

from carlembed import calculus, geometry, measure, numerics
from carlembed.calculus import MultiPoly, beta_constant, hardy_norm_sq, uchiyama_checks
from carlembed.corpus import random_point, random_poly
from carlembed.errors import InputError, UnsupportedError
from carlembed.geometry import (
    Space, SpacePoint, _denominator_sq_matrix, _ipow, _norm_sq_rows, _poisson, _poisson_matrix,
    _szego_matrix,
)
from carlembed.measure import (
    _CERTIFIED_MIN_ORDER,
    MAX_GRID_RESOLUTION,
    DiscreteMeasure,
    _grid_points,
    _potential_field,
    _support_and_grid_constants,
    _weighted_gram,
    _weighted_kernel_matrix,
    analyze,
    box_constant,
    carleson_potential,
    embedding_norm_sq,
    kernel_constant_grid,
    kernel_constant_on_support,
    theorem_bound_constant,
)
from carlembed.numerics import (
    HermitianMatrix, QuadratureSpec, _row_blocks, ball_rule, extreme_eigs, rng_stream,
)

from conftest import ball_measure_corpus, disc_measure_corpus, hermitian_with_spectrum


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


def test_measure_arrays_are_built_once_and_read_only():
    mu = pair_measure()
    pts, w = mu.points_array(), mu.weights_array()
    assert mu.points_array() is pts and mu.weights_array() is w
    assert pts.tolist() == [[0.5], [-0.5]] and w.tolist() == [0.75, 0.75]
    with pytest.raises(ValueError):
        pts[0, 0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0
    assert embedding_norm_sq(mu) == pytest.approx(1.6, abs=1e-13)


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


# The earlier bodies of kernel_constant_on_support, kernel_constant_grid,
# embedding_norm_sq, the potential field and the uchiyama pass, which
# built their own Poisson and weighted kernel matrices; the constants are
# now maxima of -phi, every potential comes from the Poisson row blocks
# of measure._poisson_blocks, and the weighted matrix comes from one
# builder shared with the interpolation Gram matrix.


def _potential_field_oracle(mu, zs):
    return -(_poisson_matrix(zs, mu.points_array(), mu.space.dim) @ mu.weights_array())


def _uchiyama_oracle(mu, f, q):
    """uchiyama_checks with phi at the atoms from the full matrix and each node block afresh."""
    n = mu.space.dim
    points, weights = ball_rule(q, n)
    lams, wts, mass = mu.points_array(), mu.weights_array(), calculus._atom_mass(mu)
    contraction = corollary = 0.0
    phi_atoms = _potential_field_oracle(mu, lams)
    phi_sup = float(np.max(-phi_atoms))
    key = np.zeros(len(mu))
    for rows in _row_blocks(len(points), len(mu)):
        zs = points[rows]
        nrm = _norm_sq_rows(zs)
        w_f = weights[rows] * np.abs(f.eval_array(zs)) ** 2
        d_sq = _denominator_sq_matrix(zs, lams)
        phi = -(_poisson(d_sq, nrm[:, None], n) @ wts)
        w_f_e = w_f * np.exp(phi)
        a = calculus._atom_matrix(d_sq, n)
        density = calculus._density_field(n, nrm, a @ mass)
        contraction += float(np.sum(w_f_e * density))
        corollary += float(np.sum(w_f * density))
        phi_sup = max(phi_sup, float(np.max(-phi)))
        key += (w_f_e * (1.0 - nrm) ** n) @ a
    norm_sq = hardy_norm_sq(f, mu.space)
    lhs = math.factorial(n) / math.pi ** n * (1.0 - _norm_sq_rows(lams)) * key
    rhs = beta_constant(n) * np.exp(phi_atoms) * np.abs(f.eval_array(lams)) ** 2
    keys = list(zip(lhs.tolist(), rhs.tolist()))
    return (contraction, norm_sq), (corollary, math.e * phi_sup * norm_sq), keys


def _support_constant_oracle(mu):
    pts = mu.points_array()
    p = _poisson_matrix(pts, pts, mu.space.dim)
    return float(np.max(p @ mu.weights_array()))


def _grid_constant_oracle(mu, resolution):
    pts = mu.points_array()
    w = mu.weights_array()
    grid = np.concatenate([_grid_points(mu.space, resolution), pts], axis=0)
    return float(np.max([
        np.max(_poisson_matrix(grid[rows], pts, mu.space.dim) @ w)
        for rows in _row_blocks(len(grid), len(pts))
    ]))


def _embedding_norm_sq_oracle(mu):
    pts = mu.points_array()
    root_w = np.sqrt(mu.weights_array())
    m = root_w[:, None] * _szego_matrix(pts, pts, mu.space.dim) * root_w[None, :]
    return float(np.linalg.eigvalsh(m)[-1])


@pytest.mark.parametrize("corpus", [disc_measure_corpus, ball_measure_corpus])
def test_kernel_constants_equal_earlier_bodies(corpus, monkeypatch):
    rng = rng_stream(616, 1)
    q = QuadratureSpec(radial_order=4, angular_order=8, sphere_nodes=4)
    for mu in corpus(20, 12, 0.95, 616, 0):
        # Blocks of 4 rows, so every field below runs over many of them.
        # OpenBLAS's gemv sums rows in groups of 4, 2 and 1 in different
        # orders, and numpy takes a one-row product through a dot, so a
        # row matches the full matrix bit for bit only where the blocks
        # hold a multiple of 4 rows: the grid (a multiple of 64 rows)
        # does, the grid with one atom appended does not.
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 4 * len(mu))
        grid = _grid_points(mu.space, 32)
        assert len(_row_blocks(len(grid), len(mu))) >= 3
        assert np.array_equal(_potential_field(mu, grid), _potential_field_oracle(mu, grid))
        assert kernel_constant_on_support(mu) == _support_constant_oracle(mu)
        assert kernel_constant_grid(mu, 32) == _grid_constant_oracle(mu, 32)
        f = random_poly(rng, mu.space.dim, 3)
        assert uchiyama_checks(mu, f, q) == _uchiyama_oracle(mu, f, q)
        want = _embedding_norm_sq_oracle(mu)
        assert embedding_norm_sq(mu) == pytest.approx(want, rel=1e-13)


def test_potentials_at_max_atoms_form_no_block_above_block_entries(monkeypatch):
    # An unblocked potential at MAX_ATOMS atoms forms a 2000 x 2000 Poisson
    # matrix and two complex temporaries of that shape, about 125 MB.
    rng = rng_stream(1616, 0)
    atoms = [(random_point(rng, 1, 0.9), 1.0) for _ in range(measure.MAX_ATOMS)]
    mu = DiscreteMeasure(Space.disc(), atoms)
    sizes = []

    def spy(owner, name, size):
        original = getattr(owner, name)

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            sizes.append(size(out))
            return out

        monkeypatch.setattr(owner, name, recorded)

    spy(measure, "_poisson_scratch", lambda scratch: scratch[1].size)
    for owner in (geometry, measure, calculus):
        spy(owner, "_denominator_sq_matrix", lambda d_sq: d_sq.size)
    # the eigensolve forms no Poisson block and would add 2 s
    monkeypatch.setattr(measure, "embedding_norm_sq", lambda mu: 1.0)
    f = MultiPoly(1, {(1,): 1.0})
    for run in (kernel_constant_on_support, analyze, lambda mu: uchiyama_checks(mu, f)):
        sizes.clear()
        run(mu)
        assert sizes and max(sizes) <= numerics._BLOCK_ENTRIES


# The blocked scans before they wrote every block into scratch allocated
# once per call: each block built its Poisson matrix and box temporaries
# afresh.  The scratch path must equal them bit for bit.


def _fresh_block_poisson_matrix(zs, lams, n):
    d = 1.0 - zs @ lams.conj().T
    return (1.0 - _norm_sq_rows(zs)[:, None]) ** n / _ipow((d * d.conj()).real, n)


def _fresh_block_scan_oracle(mu, resolution):
    """(c_supp, c_grid) from the per-block scan of -phi = P @ w with fresh temporaries."""
    pts, w = mu.points_array(), mu.weights_array()
    grid = np.concatenate([_grid_points(mu.space, resolution), pts], axis=0)
    first_atom = len(grid) - len(mu)
    c_supp = c_grid = -math.inf
    for rows in _row_blocks(len(grid), len(mu)):
        values = _fresh_block_poisson_matrix(grid[rows], pts, mu.space.dim) @ w
        c_grid = max(c_grid, float(np.max(values)))
        if rows.stop > first_atom:
            c_supp = max(c_supp, float(np.max(values[max(first_atom - rows.start, 0):])))
    return c_supp, c_grid


def _fresh_block_box_oracle(mu, directions=64):
    """box_constant with a fresh block_max per block of centers."""
    lam = mu.points_array()[:, 0]
    w = mu.weights_array()
    base_step = 2.0 * np.pi / directions
    halves = base_step * 2.0 ** -np.arange(1.0, 7.0)
    offsets = np.concatenate([[0.0], np.column_stack([halves, -halves]).ravel()])
    t = np.arctan2(lam.imag, lam.real)[lam != 0.0]
    angles = np.concatenate([
        2.0 * np.pi * np.arange(directions) / directions,
        (t[:, None] + offsets[None, :]).ravel(),
    ])
    centers = np.exp(1j * angles)

    def block_max(rows):
        dist = np.abs(lam[None, :] - centers[rows, None])
        order = np.argsort(dist, axis=1)
        mass = np.cumsum(w[order], axis=1)
        return np.max(mass / np.take_along_axis(dist, order, axis=1))

    return float(np.max([block_max(rows) for rows in _row_blocks(len(centers), len(lam))]))


def _random_measure(space, count, rmax, seed):
    rng = rng_stream(seed, 0)
    atoms = [(random_point(rng, space.dim, rmax), 0.1 + rng.random()) for _ in range(count)]
    return DiscreteMeasure(space, atoms)


@pytest.mark.parametrize("space, count, resolution, shape", [
    (Space.disc(), 100, 64, "short last block"),
    (Space.ball(2), 2000, 64, "MAX_ATOMS"),
    (Space.ball(3), 300, 32, "ball(3)"),
    (Space.disc(), 2, 64, "one block"),
    (Space.disc(), 72, 32, "atoms straddle two blocks"),
])
def test_scratch_scans_equal_fresh_block_scans(space, count, resolution, shape):
    mu = _random_measure(space, count, 0.95, 1500 + count)
    rows = len(_grid_points(space, resolution)) + count
    blocks = _row_blocks(rows, count)
    assert {
        "short last block": len(blocks) > 1 and blocks[-1].stop > rows,
        "MAX_ATOMS": count == measure.MAX_ATOMS and len(blocks) > 1,
        "ball(3)": space.dim == 3 and len(blocks) > 1,
        "one block": len(blocks) == 1,
        "atoms straddle two blocks": sum(b.stop > rows - count for b in blocks) == 2,
    }[shape]
    c_supp, c_grid = _support_and_grid_constants(mu, resolution)
    assert (c_supp, c_grid) == _fresh_block_scan_oracle(mu, resolution)
    assert kernel_constant_grid(mu, resolution) == c_grid
    if space.dim == 1:
        assert box_constant(mu) == _fresh_block_box_oracle(mu)


# _weighted_gram before it wrote each row block of the kernel into one
# preallocated matrix: the whole Szego matrix, then the weights r_j r_k
# as one product per entry (r_j K r_k, in either order, rounds
# differently).  The blocked build must equal it bit for bit.


def _dense_gram_oracle(points, root_w):
    kernel = _szego_matrix(points, points, points.shape[-1])
    return kernel * (root_w[..., :, None] * root_w[..., None, :])


def _random_points(rng, shape, dim):
    rows = [random_point(rng, dim, 0.95).coords for _ in range(math.prod(shape))]
    return np.array(rows, dtype=complex).reshape(shape + (dim,))


@pytest.mark.parametrize("shape, dim, block_entries", [
    ((99,), 2, 7 * 99),         # 15 blocks, the last of 1 row
    ((100,), 1, 7 * 100),       # 15 blocks, the last of 2 rows
    ((1000,), 2, None),         # 16 blocks of the default size, the last of 25 rows
    ((60,), 3, 8 * 60),         # _ipow's loop; 8 blocks, the last of 4 rows
    ((5, 9), 2, 2 * 5 * 9),     # a search stack in blocks of 2 rows, the last of 1
    ((5, 9), 3, 2 * 5 * 9),
    ((40, 8), 1, None),         # a search stack of one block
])
def test_blocked_gram_equals_dense_gram(shape, dim, block_entries, monkeypatch):
    rng = rng_stream(1717, len(shape) * 10 + dim)
    points = _random_points(rng, shape, dim)
    root_w = np.sqrt(0.1 + rng.random(shape))
    if block_entries is not None:
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", block_entries)
    order = shape[-1]
    blocks = _row_blocks(order, math.prod(shape))
    assert (len(blocks) >= 3 and blocks[-1].stop > order) or len(shape) == 2
    assert np.array_equal(_weighted_gram(points, root_w), _dense_gram_oracle(points, root_w))


def test_weighted_kernel_matrix_allocates_one_square_array():
    # The dense build held the kernel, d = 1 - <lam_j, lam_k> and the
    # weighting product beside M, and the Hermitian check a - a^H and two
    # magnitude arrays: 45.9 MiB at this size.  tracemalloc sees numpy data.
    mu = _random_measure(Space.ball(2), 1000, 0.95, 1717)
    points, root_w = mu.points_array(), np.sqrt(mu.weights_array())
    tracemalloc.start()
    try:
        m = _weighted_kernel_matrix(points, root_w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= m.entries.nbytes + 4 * 2 ** 20


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


def sized_measure(space, count, seed):
    rng = rng_stream(seed, count)
    atoms = [(random_point(rng, space.dim, 0.95), math.exp(rng.normal(0.0, 0.5)))
             for _ in range(count)]
    return DiscreteMeasure(space, atoms)


def count_calls(monkeypatch, module, name):
    """Record the result of every call of module.name."""
    calls = []
    original = getattr(module, name)

    def counted(m):
        result = original(m)
        calls.append(result)
        return result

    monkeypatch.setattr(module, name, counted)
    return calls


def dense_top_eig(mu):
    m = _weighted_kernel_matrix(mu.points_array(), np.sqrt(mu.weights_array()))
    return extreme_eigs(m)[1]


@pytest.mark.parametrize("space", [Space.disc(), Space.ball(2)], ids=["disc", "ball2"])
@pytest.mark.parametrize("count", [256, 600, 2000])
def test_embedding_norm_sq_certified_bracket_holds_the_eigensolve(space, count, monkeypatch):
    mu = sized_measure(space, count, 700)
    want = _embedding_norm_sq_oracle(mu)
    brackets = count_calls(monkeypatch, measure, "_certified_top_eig")
    dense = count_calls(monkeypatch, measure, "extreme_eigs")
    got = embedding_norm_sq(mu)
    assert dense == []  # a path that always fell back would call the eigensolve
    (rho, t), = brackets
    assert got == rho
    assert got == pytest.approx(want, rel=1e-13)
    assert t - rho <= 1e-8 * rho
    # rho is a Rayleigh quotient; eigvalsh, backward stable, may return
    # a value a few ulps below it
    assert rho <= want * (1 + 1e-13) and want <= t


def test_embedding_norm_sq_below_threshold_uses_the_eigensolve(monkeypatch):
    mu = sized_measure(Space.ball(2), _CERTIFIED_MIN_ORDER - 1, 701)
    dense = count_calls(monkeypatch, measure, "extreme_eigs")
    brackets = count_calls(monkeypatch, measure, "_certified_top_eig")
    assert embedding_norm_sq(mu) == pytest.approx(_embedding_norm_sq_oracle(mu), rel=1e-13)
    assert len(dense) == 1 and brackets == []


def test_embedding_norm_sq_falls_back_on_near_degenerate_top_pair(monkeypatch):
    # Two mirrored clusters near the circle, the second 0.1% heavier:
    # lambda_2 / lambda_1 = 0.9978, too close for 64 power steps.
    z = 0.999 * np.exp(1j * 1e-3 * np.arange(150) / 150)
    mu = DiscreteMeasure(Space.disc(), [(SpacePoint(complex(p)), 1.0) for p in z]
                         + [(SpacePoint(complex(-p)), 1.001) for p in z])
    eigs = np.linalg.eigvalsh(
        _weighted_kernel_matrix(mu.points_array(), np.sqrt(mu.weights_array())).entries)
    assert eigs[-2] / eigs[-1] > 0.99
    brackets = count_calls(monkeypatch, measure, "_certified_top_eig")
    dense = count_calls(monkeypatch, measure, "extreme_eigs")
    assert embedding_norm_sq(mu) == dense_top_eig(mu)
    assert brackets == [None] and len(dense) == 1


def test_embedding_norm_sq_falls_back_when_top_vector_is_orthogonal_to_start(monkeypatch):
    # The certificate fails after it has overwritten the matrix and
    # restores it, so the fallback needs no second build.
    eigs = np.concatenate([[1.2, 1.0], np.linspace(0.1, 0.01, 298)])
    a = hermitian_with_spectrum(eigs, 13, top_orthogonal_to_ones=True)
    builds = []

    def build(*args):
        builds.append(1)
        return HermitianMatrix(a.copy())

    monkeypatch.setattr(measure, "_weighted_kernel_matrix", build)
    brackets = count_calls(monkeypatch, measure, "_certified_top_eig")
    mu = sized_measure(Space.disc(), 300, 702)
    assert embedding_norm_sq(mu) == extreme_eigs(a)[1]
    assert brackets == [None]
    assert builds == [1]


@pytest.mark.parametrize("weight", [1e-300, 1e300])
def test_analyze_extreme_weights_take_the_eigensolve(weight):
    # Outside the certificate's diagonal range embedding_norm_sq falls
    # back to eigvalsh, so the report is the dense path's, bit for bit.
    rng = rng_stream(300, 1)
    for space in (Space.disc(), Space.ball(2)):
        atoms = [(random_point(rng, space.dim, 0.95), weight * (1.0 + rng.random()))
                 for _ in range(300)]
        mu = DiscreteMeasure(space, atoms)
        rep = analyze(mu, resolution=16)
        assert rep.a_sq == dense_top_eig(mu)
        assert rep.c_supp == kernel_constant_on_support(mu)
        assert rep.holds


@pytest.mark.parametrize("space", [Space.disc(), Space.ball(2)], ids=["disc", "ball2"])
@pytest.mark.parametrize("resolution", [8, 64, 256])
def test_analyze_constants_from_one_scan_equal_separate_scans(space, resolution, monkeypatch):
    # No eigensolve or box scan: only the two kernel constants are compared,
    # c_supp with kernel_constant_on_support, which keeps its own scan.
    monkeypatch.setattr(measure, "embedding_norm_sq", lambda mu: 1.0)
    monkeypatch.setattr(measure, "box_constant", lambda mu: 1.0)
    counts = (1, 2, 37, 300) + ((2000,) if resolution == 64 else ())
    for count in counts:
        mu = sized_measure(space, count, 703)
        rep = analyze(mu, resolution)
        assert rep.c_supp == kernel_constant_on_support(mu)
        assert rep.c_grid == _grid_constant_oracle(mu, resolution)
        assert rep.c_grid == kernel_constant_grid(mu, resolution)
