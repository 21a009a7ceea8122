import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from carlembed import calculus, extremal, measure, numerics
from carlembed.calculus import MultiPoly, beta_constant, hardy_norm_sq, uchiyama_checks
from carlembed.corpus import random_point, random_poly
from carlembed.errors import InputError, UnsupportedError
from carlembed.geometry import Space, SpacePoint, _ipow, _norm_sq_rows, _poisson, _szego
from carlembed.measure import (
    MAX_GRID_RESOLUTION,
    DiscreteMeasure,
    _grid_levels,
    _grid_maximum,
    _grid_points,
    _poisson_blocks,
    _potential_field,
    _support_and_grid_constants,
    _weighted_gram,
    analyze,
    box_constant,
    carleson_potential,
    embedding_norm_sq,
    kernel_constant_grid,
    kernel_constant_on_support,
    theorem_bound_constant,
)
from carlembed.numerics import (
    _CERTIFIED_MIN_ORDER, HermitianMatrix, QuadratureSpec, _row_blocks, ball_rule, extreme_eigs,
    rng_stream,
)

from conftest import (
    ball_measure_corpus, dense_denominator_sq, dense_poisson, dense_szego, disc_measure_corpus,
    hermitian_with_spectrum,
)


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


def test_measure_refuses_duplicate_atoms_past_the_double_range():
    sp = Space.disc()
    with pytest.raises(InputError, match="^duplicate atoms sum to a weight past the double range$"):
        DiscreteMeasure(sp, [(SpacePoint(0.5), 1e308), (SpacePoint(0.5), 1e308)])
    mu = DiscreteMeasure(sp, [(SpacePoint(0.5), 1e308), (SpacePoint(0.5), 7e307)])
    assert mu.atoms[0][1] == 1.7e308


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
    for weight in (True, np.True_, math.inf, math.nan, "0.5", 0.5j, 1 + 0j, None, 10 ** 400):
        with pytest.raises(InputError):
            DiscreteMeasure(sp, [(SpacePoint(0.5), weight)])
    mu = DiscreteMeasure(sp, [(SpacePoint(0.5), np.float32(0.5)), (SpacePoint(0.1), np.int64(2))])
    assert [w for _, w in mu.atoms] == [0.5, 2.0]
    assert all(type(w) is float for _, w in mu.atoms)
    for c in ("2", 2j, True, np.True_, None, math.inf, math.nan, 10 ** 400, 0.0, -1.0):
        with pytest.raises(InputError):
            mu.scaled(c)
    assert [w for _, w in mu.scaled(np.int64(2)).atoms] == [1.0, 4.0]


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
        phi = _potential_field(mu.points_array(), mu.weights_array(), z.as_array()[None])
        assert carleson_potential(mu, z) == phi[0]


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
        want = float(np.max(dense_poisson(grid, pts, mu.space.dim) @ mu.weights_array()))
        assert kernel_constant_grid(mu, 64) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("space", [Space.disc(), Space.ball(2), Space.ball(3)],
                         ids=["disc", "ball2", "ball3"])
def test_grid_maximum_is_block_independent_and_monotone(space, monkeypatch):
    # No matmul touches a grid value, so the grid maximum has the same
    # bits at every block size and, in CI's one-BLAS-thread step, at every
    # thread count.  c_supp is still a gemv scan whose last bit can follow
    # the blocks (ball(3), 777 atoms: two values over these four sizes),
    # so c_grid is the block-independent grid maximum wherever that wins.
    for count in (1, 7, 100, 777):
        mu = _random_measure(space, count, 0.95, 3300 + count)
        grid_max = set()
        for log_entries in (10, 13, 16, 20):
            monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1 << log_entries)
            value = _grid_maximum(mu, 64)
            grid_max.add(value)
            assert kernel_constant_grid(mu, 64) == max(kernel_constant_on_support(mu), value)
        assert len(grid_max) == 1
        monkeypatch.undo()
        scan = [kernel_constant_grid(mu, res) for res in (8, 16, 32, 64, 256)]
        assert scan == sorted(scan)


def _exact_minus_phi(mu, r, u):
    """-phi(r u) as a Fraction, from the doubles of r, of u and of the atoms and weights of mu."""
    n = mu.space.dim
    z = [(Fraction(r) * Fraction(c.real), Fraction(r) * Fraction(c.imag)) for c in u]
    num = (1 - sum(x * x + y * y for x, y in z)) ** n
    total = Fraction(0)
    for lam, w in zip(mu.points_array(), mu.weights_array()):
        re = im = Fraction(0)  # of <z, lam>
        for (x, y), c in zip(z, lam):
            a, b = Fraction(c.real), Fraction(c.imag)
            re += x * a + y * b
            im += y * a - x * b
        total += Fraction(w) * num / ((1 - re) ** 2 + im * im) ** n
    return total


@pytest.mark.parametrize("space", [Space.disc(), Space.ball(2)], ids=["disc", "ball2"])
def test_grid_maximum_matches_the_exact_rational_maximum(space):
    # 3 atoms out to |lam| = 0.999 at resolution 8: 128 disc or 64 ball(2)
    # points, each point's -phi exact at z = r u from the scan's doubles
    rng = rng_stream(3400, space.dim)
    atoms = []
    for modulus in (0.6, 0.95, 0.999):
        raw = rng.normal(size=2 * space.dim)
        u = (raw[::2] + 1j * raw[1::2]) / math.sqrt(float(np.sum(raw * raw)))
        atoms.append((modulus * u, 0.5 + rng.random()))
    mu = DiscreteMeasure(space, atoms)
    levels = _grid_levels(space, 8)
    assert sum(len(radii) * len(dirs) for radii, dirs in levels) == 128 // space.dim
    exact = max(_exact_minus_phi(mu, r, u) for radii, dirs in levels for r in radii for u in dirs)
    assert _grid_maximum(mu, 8) == pytest.approx(float(exact), rel=1e-13)
    on_support = max(_exact_minus_phi(mu, 1.0, lam) for lam in mu.points_array())
    assert kernel_constant_grid(mu, 8) == pytest.approx(float(max(exact, on_support)), rel=1e-13)


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
    return -(dense_poisson(zs, mu.points_array(), mu.space.dim) @ mu.weights_array())


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
        d_sq = dense_denominator_sq(zs, lams)
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
    p = dense_poisson(pts, pts, mu.space.dim)
    return float(np.max(p @ mu.weights_array()))


def _grid_constant_oracle(mu, resolution):
    """c_grid from gemv row blocks of the dense Poisson matrix of the grid points and the atoms.

    The scan of the grid before measure._grid_maximum: c_grid now equals
    it within 1e-13 relative, and _grid_level_oracle bit for bit.
    """
    pts = mu.points_array()
    w = mu.weights_array()
    grid = np.concatenate([_grid_points(mu.space, resolution), pts], axis=0)
    return float(np.max([
        np.max(dense_poisson(grid[rows], pts, mu.space.dim) @ w)
        for rows in _row_blocks(len(grid), len(pts))
    ]))


def _grid_level_oracle(mu, resolution):
    """max of -phi over the grid, each point r u of _grid_levels on its own dense row.

    The formula of measure._grid_maximum, point by point: g = <u, lam_j>
    from real products summed over the coordinates in order,
    q = (1/r - Re g)^2 + (Im g)^2 = |1 - r g|^2 / r^2 and
    P = ((1 - r^2) / r^2 / q)^n, each row summed against w by einsum;
    rows of 1024 points at a time keep the memory small.
    """
    lams, w = mu.points_array(), mu.weights_array()
    n = lams.shape[1]
    levels = _grid_levels(mu.space, resolution)
    r = np.concatenate([np.repeat(radii, len(dirs)) for radii, dirs in levels])[:, None]
    u = np.concatenate([np.tile(dirs, (len(radii), 1)) for radii, dirs in levels])
    best = -math.inf
    for start in range(0, len(r), 1024):
        rr, uu = r[start:start + 1024], u[start:start + 1024]
        re = im = 0.0
        for k in range(n):
            ur, ui = uu[:, k, None].real, uu[:, k, None].imag
            lr, li = lams[:, k].real, lams[:, k].imag
            re = re + (ur * lr + ui * li)
            im = im + (ui * lr - ur * li)
        t = 1.0 / rr - re
        q = t * t + im * im
        p = _ipow((1.0 - rr * rr) / (rr * rr) / q, n)
        best = np.maximum(best, np.max(np.einsum("ij,j->i", p, w)))
    return float(best)


def _embedding_norm_sq_oracle(mu):
    pts = mu.points_array()
    root_w = np.sqrt(mu.weights_array())
    m = root_w[:, None] * dense_szego(pts, pts, mu.space.dim) * root_w[None, :]
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
        phi = _potential_field(mu.points_array(), mu.weights_array(), grid)
        assert np.array_equal(phi, _potential_field_oracle(mu, grid))
        c_supp = _support_constant_oracle(mu)
        assert kernel_constant_on_support(mu) == c_supp
        c_grid = kernel_constant_grid(mu, 32)
        assert c_grid == max(c_supp, _grid_level_oracle(mu, 32))
        assert c_grid == pytest.approx(_grid_constant_oracle(mu, 32), rel=1e-13)
        # uchiyama takes |z|^2 per factor row, f from torus products and
        # -phi from einsum row sums, so it agrees with this pass to
        # rounding; the key right sides are formed as before, bit for bit.
        f = random_poly(rng, mu.space.dim, 3)
        (*got, got_keys), (*want, want_keys) = uchiyama_checks(mu, f, q), _uchiyama_oracle(mu, f, q)
        assert np.ravel(got + got_keys).tolist() == pytest.approx(
            np.ravel(want + want_keys).tolist(), rel=1e-13, abs=0.0)
        assert [rhs for _, rhs in got_keys] == [rhs for _, rhs in want_keys]
        want = _embedding_norm_sq_oracle(mu)
        assert embedding_norm_sq(mu) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("atoms, points, block_rows", [
    (1, 1, None),
    (8, 8, None),       # a search stack: each measure's potential at its atoms
    (8, 30, 4),         # blocks of 4 rows, the last of 2
    (3, 7, 1),          # blocks of one row
])
def test_potential_field_of_a_stack_matches_each_measure(dim, atoms, points, block_rows,
                                                         monkeypatch):
    # The lockstep search takes c_supp of a stack of measures from one
    # call; each measure's phi must be bit-identical to its 2-D call in
    # the same row blocks (gemv rounds by the rows of a block).
    rng = rng_stream(911, 100 * dim + atoms + points)
    lams = _random_points(rng, (5, atoms), dim)
    zs = lams if points == atoms else _random_points(rng, (5, points), dim)
    w = 0.5 + rng.random((5, atoms))
    if block_rows is not None:
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", block_rows * 5 * atoms)
    phi = _potential_field(lams, w, zs)
    assert phi.shape == (5, points)
    if block_rows is not None:
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", block_rows * atoms)
    for i in range(5):
        assert np.array_equal(phi[i], _potential_field(lams[i], w[i], zs[i]))


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

    spy(measure, "_poisson", lambda p: p.size)
    spy(calculus, "_poisson", lambda p: p.size)
    kernel_blocks = measure._kernel_blocks

    def blocks(zs, lams):
        for rows, z, d, spare in kernel_blocks(zs, lams):
            sizes.append(d.size)
            yield rows, z, d, spare

    monkeypatch.setattr(measure, "_kernel_blocks", blocks)
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


def _fresh_block_scan_oracle(mu, resolution):
    """(c_supp, c_grid) from per-block scans of -phi = P @ w with fresh temporaries.

    c_supp scans the atoms alone, c_grid the grid and then c_supp.
    """
    pts, w = mu.points_array(), mu.weights_array()

    def scan(zs):
        return max(
            float(np.max(dense_poisson(zs[rows], pts, mu.space.dim) @ w))
            for rows in _row_blocks(len(zs), len(mu))
        )

    c_supp = scan(pts)
    return c_supp, max(c_supp, scan(_grid_points(mu.space, resolution)))


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
    rows = len(_grid_points(space, resolution))
    blocks = _row_blocks(rows, count)
    # the blocks of the grid scan; the last case is a measure whose atoms,
    # appended to the grid as analyze once scanned them, straddled two
    appended = _row_blocks(rows + count, count)
    assert {
        "short last block": len(blocks) > 1 and blocks[-1].stop > rows,
        "MAX_ATOMS": count == measure.MAX_ATOMS and len(blocks) > 1,
        "ball(3)": space.dim == 3 and len(blocks) > 1,
        "one block": len(blocks) == 1,
        "atoms straddle two blocks": sum(b.stop > rows for b in appended) == 2,
    }[shape]
    c_supp, c_grid = _support_and_grid_constants(mu, resolution)
    want_supp, want_grid = _fresh_block_scan_oracle(mu, resolution)
    assert c_supp == want_supp
    assert c_grid == max(want_supp, _grid_level_oracle(mu, resolution))
    assert c_grid == pytest.approx(want_grid, rel=1e-13)
    assert kernel_constant_grid(mu, resolution) == c_grid
    if space.dim == 1:
        assert box_constant(mu) == _fresh_block_box_oracle(mu)


# _weighted_gram before it wrote each row block of the kernel into one
# preallocated matrix: the whole Szego matrix, then the weights r_j r_k
# as one product per entry (r_j K r_k, in either order, rounds
# differently).  The blocked build must equal it bit for bit in the upper
# triangle and the real part of the diagonal; the rest is the mirror.


def _dense_gram_oracle(points, root_w, rows=slice(None)):
    kernel = dense_szego(points[..., rows, :], points, points.shape[-1])
    return kernel * (root_w[..., rows, None] * root_w[..., None, :])


def _random_points(rng, shape, dim):
    rows = [random_point(rng, dim, 0.95).coords for _ in range(math.prod(shape))]
    return np.array(rows, dtype=complex).reshape(shape + (dim,))


def _assert_gram_is_the_mirrored_oracle(m, points, root_w, chunk=512):
    """m is the upper triangle of _dense_gram_oracle, in row chunks, and its exact mirror."""
    order = m.shape[-1]
    upper, lower = np.triu_indices(order, 1), np.tril_indices(order, -1)
    assert m[..., lower[0], lower[1]].tobytes() == np.conj(m[..., lower[1], lower[0]]).tobytes()
    diagonal = np.diagonal(m, axis1=-2, axis2=-1)
    assert np.all(diagonal.imag == 0.0)
    assert np.array_equal(m, m.conj().swapaxes(-1, -2))
    for r0 in range(0, order, chunk):
        rows = slice(r0, r0 + chunk)
        want = _dense_gram_oracle(points, root_w, rows)
        mask = upper[0] // chunk == r0 // chunk
        i, j = upper[0][mask], upper[1][mask]
        assert m[..., i, j].tobytes() == want[..., i - r0, j].tobytes()
        k = np.arange(r0, min(r0 + chunk, order))
        assert diagonal[..., k].real.tobytes() == want[..., k - r0, k].real.tobytes()


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
    _assert_gram_is_the_mirrored_oracle(_weighted_gram(points, root_w), points, root_w)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", [2, 3, 4, 5, 39, 40, 255, 256, 1999])
def test_weighted_gram_is_hermitian_to_the_bit(dim, order):
    # The zgemm blocks alone are Hermitian to the bit on the disc and at
    # ball orders divisible by 4, never at 2, 3, 5 or 39 (numpy 2.4,
    # OpenBLAS 0.3.31).  Atoms reach 1 - |z| = 1e-7; stacks are the
    # search's (r, m, m).
    rng = rng_stream(2828, 10 * order + dim)
    shape = (3, order) if order <= 256 else (order,)
    raw = rng.normal(size=shape + (dim,)) + 1j * rng.normal(size=shape + (dim,))
    radii = 1.0 - 10.0 ** -rng.uniform(0.1, 7.0, size=shape)
    radii[..., 0] = 1.0 - 1e-7
    points = raw * (radii / np.sqrt(_norm_sq_rows(raw)))[..., None]
    root_w = np.sqrt(np.exp(rng.normal(0.0, 0.5, size=shape)))
    _assert_gram_is_the_mirrored_oracle(_weighted_gram(points, root_w), points, root_w)


# _weighted_gram before it built M in one pass: the kernel and weights on
# every entry of each row block of _kernel_blocks, then a second walk
# over the row blocks that overwrote the strict lower triangle with its
# conjugate mirror.


def _two_pass_gram(points, root_w):
    m = np.empty(points.shape[:-1] + points.shape[-2:-1], dtype=complex)
    for rows, _, d, _ in measure._kernel_blocks(points, points):
        block = _szego(d, points.shape[-1], m[..., rows, :])
        block *= root_w[..., rows, None] * root_w[..., None, :]
    k = m.shape[-1]
    for rows in _row_blocks(k, m.size // k):
        r0 = rows.start
        np.conjugate(m[..., :r0, rows].swapaxes(-1, -2), out=m[..., rows, :r0])
        square = m[..., rows, rows]
        below = np.tri(square.shape[-1], k=-1, dtype=bool)
        np.copyto(square, np.conjugate(square.swapaxes(-1, -2)), where=below)
    m.imag.reshape(m.shape[:-2] + (-1,))[..., :: k + 1] = 0.0
    return m


@pytest.mark.parametrize("block_entries", [2 ** 10, 2 ** 13, 2 ** 16, 2 ** 20])
@pytest.mark.parametrize("shape", [
    (1,), (2,), (256,), (257,), (571,), (1999,), (2000,), (64, 8), (4, 8), (3, 257),
], ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_one_pass_gram_equals_two_pass_gram(dim, shape, block_entries, monkeypatch):
    # At 2^16 entries 571 atoms end in a one-row block and 257 in a
    # two-row one; at 2^10 every block is one row.  Stacks are the
    # search's (r, m, m).
    rng = rng_stream(3434, 10 * shape[-1] + dim)
    points = _random_points(rng, shape, dim)
    root_w = np.sqrt(0.1 + rng.random(shape))
    monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", block_entries)
    order, stack = shape[-1], math.prod(shape[:-1])
    starts, evaluated = [], []

    def counted_szego(d, n, out):
        # out is a view of M whose first entry opens its block's diagonal square
        first = (out.ctypes.data - out.base.ctypes.data) // out.itemsize
        *_, row, col = np.unravel_index(first, out.base.shape)
        assert row == col and out.shape[-1] == order - row
        starts.append(row)
        evaluated.append(out.size)
        return _szego(d, n, out)

    monkeypatch.setattr(measure, "_szego", counted_szego)
    got = _weighted_gram(points, root_w)
    assert got.tobytes() == _two_pass_gram(points, root_w).tobytes()
    blocks = _row_blocks(order, math.prod(shape))
    assert starts == [rows.start for rows in blocks]
    # the upper triangle with the diagonal, and the strict lower triangle of each square
    heights = [min(rows.stop, order) - rows.start for rows in blocks]
    squares = sum(h * (h - 1) // 2 for h in heights)
    assert sum(evaluated) == stack * (order * (order + 1) // 2 + squares)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("atoms", [37, 300, 777, 1500])
def test_kernel_blocks_one_row_tail_equals_dense_denominator(dim, atoms):
    # k rows in blocks of 2^16 // atoms leave one row for the last block.
    # Computed alone, numpy takes it through gemv, which rounds otherwise
    # than the gemm of the other blocks; on ball(2) and ball(3) such a
    # row differed from the dense matrix in its last bits.
    rng = rng_stream(2121, 10000 * dim + atoms)
    k = 2 * (2 ** 16 // atoms) + 1
    pts = rng.normal(size=(k + atoms, dim)) + 1j * rng.normal(size=(k + atoms, dim))
    pts /= 1.5 * np.sqrt(_norm_sq_rows(pts))[:, None]
    zs, lams = pts[:k], pts[k:]
    want = dense_denominator_sq(zs, lams)
    seen = []
    for rows, _, _, d_sq, _ in _poisson_blocks(zs, lams):
        seen.append(rows)
        assert np.array_equal(d_sq, want[rows])
    assert [rows.start for rows in seen[-2:]] == [k - 1 - k // 2, k - 1]


def test_weighted_kernel_matrix_allocates_one_square_array():
    # The dense build held the kernel, d = 1 - <lam_j, lam_k> and the
    # weighting product beside M, and the Hermitian check a - a^H and two
    # magnitude arrays: 45.9 MiB at this size.  tracemalloc sees numpy data.
    mu = _random_measure(Space.ball(2), 1000, 0.95, 1717)
    points, root_w = mu.points_array(), np.sqrt(mu.weights_array())
    tracemalloc.start()
    try:
        m = HermitianMatrix(_weighted_gram(points, root_w))
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


def test_box_constant_rejects_ball():
    sp = Space.ball(2)
    mu = DiscreteMeasure(sp, [(SpacePoint([0.3, 0.0]), 1.0)])
    with pytest.raises(UnsupportedError):
        box_constant(mu)


def test_theorem_bound_constants():
    assert theorem_bound_constant(Space.disc()) == pytest.approx(2 * math.e, abs=1e-15)
    assert theorem_bound_constant(Space.ball(1)) == theorem_bound_constant(Space.disc())
    assert theorem_bound_constant(Space.ball(2)) == pytest.approx(6 * math.e, abs=1e-14)
    assert theorem_bound_constant(Space.ball(3)) == 20 * math.e
    # finite while e (2n)!/(n!)^2 is, inf from there on
    assert theorem_bound_constant(Space.ball(513)) == pytest.approx(4.8677760772365e307)
    assert theorem_bound_constant(Space.ball(514)) == math.inf
    assert theorem_bound_constant(Space.ball(600)) == math.inf


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

    def counted(*args):
        result = original(*args)
        calls.append(result)
        return result

    monkeypatch.setattr(module, name, counted)
    return calls


def dense_top_eig(mu):
    m = HermitianMatrix(_weighted_gram(mu.points_array(), np.sqrt(mu.weights_array())))
    return extreme_eigs(m)[1]


@pytest.mark.parametrize("space", [Space.disc(), Space.ball(2)], ids=["disc", "ball2"])
@pytest.mark.parametrize("count", [256, 600, 2000])
def test_embedding_norm_sq_certified_bracket_holds_the_eigensolve(space, count, monkeypatch):
    mu = sized_measure(space, count, 700)
    want = _embedding_norm_sq_oracle(mu)
    brackets = count_calls(monkeypatch, numerics, "_certified_top_eig")
    dense = count_calls(monkeypatch, numerics, "_eigvalsh")
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
    dense = count_calls(monkeypatch, numerics, "_eigvalsh")
    brackets = count_calls(monkeypatch, numerics, "_certified_top_eig")
    assert embedding_norm_sq(mu) == pytest.approx(_embedding_norm_sq_oracle(mu), rel=1e-13)
    assert len(dense) == 1 and brackets == []


def test_embedding_norm_sq_falls_back_on_near_degenerate_top_pair(monkeypatch):
    # Two mirrored clusters near the circle, the second 0.1% heavier:
    # lambda_2 / lambda_1 = 0.9978, too close for 64 power steps.
    z = 0.999 * np.exp(1j * 1e-3 * np.arange(150) / 150)
    mu = DiscreteMeasure(Space.disc(), [(SpacePoint(complex(p)), 1.0) for p in z]
                         + [(SpacePoint(complex(-p)), 1.001) for p in z])
    eigs = np.linalg.eigvalsh(_weighted_gram(mu.points_array(), np.sqrt(mu.weights_array())))
    assert eigs[-2] / eigs[-1] > 0.99
    want = dense_top_eig(mu)
    brackets = count_calls(monkeypatch, numerics, "_certified_top_eig")
    dense = count_calls(monkeypatch, numerics, "_eigvalsh")
    assert embedding_norm_sq(mu) == want
    assert brackets == [None] and len(dense) == 1


def test_embedding_norm_sq_falls_back_when_top_vector_is_orthogonal_to_start(monkeypatch):
    # The certificate fails after it has overwritten the matrix and
    # restores it, so the fallback needs no second build.
    eigs = np.concatenate([[1.2, 1.0], np.linspace(0.1, 0.01, 298)])
    a = hermitian_with_spectrum(eigs, 13, top_orthogonal_to_ones=True)
    builds = []

    def build(*args):
        builds.append(1)
        return a.copy()

    monkeypatch.setattr(measure, "_weighted_gram", build)
    brackets = count_calls(monkeypatch, numerics, "_certified_top_eig")
    mu = sized_measure(Space.disc(), 300, 702)
    assert embedding_norm_sq(mu) == extreme_eigs(a)[1]
    assert brackets == [None]
    assert builds == [1]


@pytest.mark.parametrize("space", [Space.disc(), Space.ball(2)], ids=["disc", "ball2"])
def test_embedding_norm_sq_certifies_2000_atoms_without_a_factor(space, monkeypatch):
    # The gap tier proves the upper end and only reads the Gram matrix.
    mu = sized_measure(space, 2000, 704)
    factors = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda *a, **k: factors.append(1))
    built = []

    def build(points, root_w):
        m = _weighted_gram(points, root_w)
        built.append((m, m.copy()))
        return m

    monkeypatch.setattr(measure, "_weighted_gram", build)
    brackets = count_calls(monkeypatch, numerics, "_certified_top_eig")
    got = embedding_norm_sq(mu)
    (m, entries), = built
    (rho, t), = brackets
    assert factors == [] and got == rho <= t
    assert m.tobytes() == entries.tobytes()


def test_embedding_norm_sq_peak_memory_is_about_the_gram_matrix():
    # numpy's Cholesky held a copy of s I - M and the factor beside M.
    mu = sized_measure(Space.ball(2), 1000, 705)
    mu.points_array(), mu.weights_array()  # cached on the measure, so built untraced
    tracemalloc.start()
    try:
        embedding_norm_sq(mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 1000 ** 2 * np.dtype(complex).itemsize


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
    # No eigensolve or box scan: only the kernel constants are compared,
    # c_supp with kernel_constant_on_support and the ratio with
    # extremal.ratio under the same stand-in for A(mu)^2.
    for owner in (measure, extremal):
        monkeypatch.setattr(owner, "embedding_norm_sq", lambda mu: 1.0)
    monkeypatch.setattr(measure, "box_constant", lambda mu: 1.0)
    counts = (1, 2, 37, 300) + ((2000,) if resolution == 64 else ())
    cases = [(sized_measure(space, count, 703), resolution) for count in counts]
    if space.dim == 1:
        # When analyze read c_supp off the atoms appended as the last rows
        # of its grid scan, these atoms straddled two row blocks there, and
        # c_supp came out as 41.42438723406051 against the 41.424387234060504
        # of kernel_constant_on_support.
        cases.append((_random_measure(space, 72, 0.95, 1572), 32))
    for mu, res in cases:
        rep = analyze(mu, res)
        assert rep.c_supp == kernel_constant_on_support(mu)
        assert rep.ratio == extremal.ratio(mu)
        assert rep.c_grid == max(rep.c_supp, _grid_level_oracle(mu, res))
        assert rep.c_grid == pytest.approx(_grid_constant_oracle(mu, res), rel=1e-13)
        assert rep.c_grid == kernel_constant_grid(mu, res)
