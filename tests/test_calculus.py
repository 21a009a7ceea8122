import fractions
import json
import math
import tracemalloc

import numpy as np
import pytest

from carlembed import calculus, cli, measure, numerics
from carlembed.calculus import (
    MultiPoly,
    beta_constant,
    corollary_check,
    green_function_ball,
    green_weight_disc,
    greens_formula_check,
    hardy_norm_sq,
    invariant_laplacian_fd,
    invariant_laplacian_poisson_ball,
    key_inequality_check,
    laplacian_fd,
    laplacian_poisson_disc,
    poisson_gradient_ball,
    potential_laplacian_closed,
    uchiyama_checks,
    uchiyama_density,
    uchiyama_embedding_check,
)
from carlembed.corpus import random_point, random_poly
from carlembed.errors import InputError
from carlembed.geometry import (
    Space, SpacePoint, _ipow, _norm_sq_rows, _poisson, inner, poisson_kernel,
)
from carlembed.measure import DiscreteMeasure, carleson_potential, kernel_constant_on_support
from carlembed.numerics import QuadratureSpec, ball_rule, default_quadrature, rng_stream
from conftest import (
    full_rule_greens_formula_check, measure_poly_corpus, pair_corpus,
)

DISC = Space.disc()
BALL2 = Space.ball(2)

# unit mass at the origin; many closed-form values are available for it
MU0_DISC = DiscreteMeasure(DISC, [(SpacePoint(0.0), 1.0)])
MU0_BALL = DiscreteMeasure(BALL2, [(SpacePoint([0.0, 0.0]), 1.0)])
ONE_DISC = MultiPoly(1, {(0,): 1.0})
ONE_BALL = MultiPoly(2, {(0, 0): 1.0})

# independent 1-d reductions of the origin-atom integrals, evaluated by
# series (disc) and high-order Gauss-Legendre after r = s^2 (ball)
NU_MASS_DISC = 0.48482910699568765
NU_MASS_BALL = 0.546033597000947
KEY_LHS_DISC = 1.0 - 2.0 / math.e
KEY_LHS_BALL = 0.11470357398386982


def test_multipoly_eval():
    f = MultiPoly(1, {(0,): 1.0, (2,): 2.0})
    assert f(SpacePoint(0.5)) == pytest.approx(1.5, abs=1e-16)
    zs = np.array([[0.0], [0.5j]])
    got = f.eval_array(zs)
    assert got[0] == pytest.approx(1.0)
    assert got[1] == pytest.approx(1.0 - 0.5, abs=1e-16)
    g = MultiPoly(2, {(1, 1): 1.0})
    assert g(SpacePoint([0.3, 0.5])) == pytest.approx(0.15, abs=1e-16)
    with pytest.raises(InputError, match="dim must be a positive integer, got True"):
        MultiPoly(True, {(0,): 1.0})


def test_multipoly_refuses_multi_index_entries_that_are_no_non_negative_integers():
    # int() would turn 1.5 into 1 and "2" into 2; the message shows the index as given
    for alpha in [(1.5,), ("2",), (True,), (np.True_,), (None,), (-1,), [2.0], (1, 0)]:
        with pytest.raises(InputError) as info:
            MultiPoly(1, [(alpha, 1.0)])
        assert str(info.value) == f"multi-index {alpha!r} invalid for dimension 1"
    f = MultiPoly(np.int64(2), [((np.int64(1), np.uint8(2)), 1.0), ((1, 2), 1.0)])
    assert type(f.dim) is int and f.terms == {(1, 2): 2.0}
    assert all(type(a) is int for a in next(iter(f.terms)))


@pytest.mark.parametrize("coeff", [
    "2", True, np.True_, None, [1.0], float("nan"), float("inf"), complex(1.0, float("nan")),
    -math.inf, 10 ** 400,
])
def test_multipoly_refuses_coefficients_that_are_no_finite_numbers(coeff):
    # complex() turned "2" into 2 and True into 1, and kept a NaN that
    # hardy_norm_sq and uchiyama then carried
    with pytest.raises(InputError) as info:
        MultiPoly(1, {(0,): coeff})
    assert str(info.value) == (
        f"coefficient of (0,) must be a finite number other than a bool, got {coeff!r}"
    )


def test_multipoly_takes_numpy_and_rational_coefficients():
    f = MultiPoly(1, {(0,): np.float32(0.5), (1,): np.int64(3), (2,): np.complex64(1j),
                      (3,): fractions.Fraction(1, 4)})
    assert f.terms == {(0,): 0.5, (1,): 3.0, (2,): 1j, (3,): 0.25}
    assert all(type(c) is complex for c in f.terms.values())
    with pytest.raises(InputError, match="^repeated multi-indices sum to a coefficient past"):
        MultiPoly(1, [((0,), 1e308), ((0,), 1e308)])


def test_multipoly_refuses_degree_above_cap():
    # evaluation and hardy_norm_sq cost O(degree), however sparse the terms
    cap = calculus.MAX_POLY_DEGREE
    with pytest.raises(InputError, match=f"polynomial degree 2000000 exceeds the cap {cap}"):
        MultiPoly(1, {(2_000_000,): 1, (0,): 1})
    with pytest.raises(InputError, match=f"degree {cap + 1} exceeds"):
        MultiPoly(2, {(cap, 1): 1.0})
    f = MultiPoly(2, {(cap - 1, 1): 1.0, (0, 0): 1.0})
    assert f(SpacePoint([0.5, 0.5])) == pytest.approx(1.0 + 0.5 ** cap, abs=1e-16)
    assert MultiPoly(1, {(10 ** 9,): 0.0}).terms == {}


def test_hardy_norm_disc_is_coefficient_sum():
    f = MultiPoly(1, {(0,): 3.0, (1,): 4.0j, (5,): 1.0 + 1.0j})
    assert hardy_norm_sq(f, DISC) == pytest.approx(9.0 + 16.0 + 2.0, abs=1e-13)
    assert hardy_norm_sq(f, DISC) == hardy_norm_sq(f, Space.ball(1))


def test_hardy_norm_ball_monomials():
    # ||z^alpha||^2 = (n-1)! alpha! / (n-1+|alpha|)!
    assert hardy_norm_sq(MultiPoly(2, {(1, 1): 1.0}), BALL2) == pytest.approx(1 / 6)
    assert hardy_norm_sq(MultiPoly(2, {(2, 0): 1.0}), BALL2) == pytest.approx(1 / 3)
    mixed = MultiPoly(2, {(0, 0): 2.0, (1, 0): 1.0j})
    assert hardy_norm_sq(mixed, BALL2) == pytest.approx(4.0 + 0.5, abs=1e-13)


def test_flat_laplacian_exact_on_quadratics():
    val = laplacian_fd(lambda p: p.norm_sq, SpacePoint(0.3 + 0.2j), 1e-3)
    assert val == pytest.approx(4.0, abs=1e-9)
    harmonic = lambda p: (p.coords[0] ** 2).real
    assert laplacian_fd(harmonic, SpacePoint(0.1), 1e-3) == pytest.approx(0.0, abs=1e-9)


def test_laplacian_fd_guards_step_and_boundary():
    with pytest.raises(InputError):
        laplacian_fd(lambda p: p.norm_sq, SpacePoint(0.3), 0.0)
    with pytest.raises(InputError):
        laplacian_fd(lambda p: p.norm_sq, SpacePoint(0.999), 1e-2)


def test_disc_poisson_laplacian_closed_vs_stencil():
    z = SpacePoint(0.4 + 0.1j)
    lam = SpacePoint(-0.3 + 0.2j)
    closed = laplacian_poisson_disc(z, lam)
    fd = laplacian_fd(lambda p: poisson_kernel(p, lam, DISC), z, 2e-4)
    assert fd == pytest.approx(closed, rel=1e-7)
    # hand value: 4(|lam|^2 - 1)/|1 - conj(lam) z|^4
    num = 4 * (abs(-0.3 + 0.2j) ** 2 - 1)
    den = abs(1 - (-0.3 - 0.2j) * (0.4 + 0.1j)) ** 4
    assert closed == pytest.approx(num / den, rel=1e-14)


def test_invariant_laplacian_radial_identity():
    # invariant Laplacian of 1 - |z|^2 is -4 (1-|z|^2)(n-|z|^2)/(n+1)
    z = SpacePoint([0.3, 0.4j])
    r2 = z.norm_sq
    want = -4.0 * (1 - r2) * (2 - r2) / 3.0
    got = invariant_laplacian_fd(lambda p: 1 - p.norm_sq, z, BALL2, 1e-3)
    assert got == pytest.approx(want, rel=1e-9)


def test_invariant_laplacian_poisson_closed_vs_stencil():
    z = SpacePoint([0.35, -0.15j])
    lam = SpacePoint([-0.2, 0.4])
    closed = invariant_laplacian_poisson_ball(z, lam, BALL2)
    fd = invariant_laplacian_fd(lambda p: poisson_kernel(p, lam, BALL2), z, BALL2, 1e-3)
    assert fd == pytest.approx(closed, rel=1e-6)
    # the closed form avoids fractional powers: P_lam(z)^{1/n} = (1-|lam|^2)/|1-<z,lam>|^2
    assert closed < 0.0


def test_invariant_laplacian_annihilates_pluriharmonic():
    # Re(z1 z2) is pluriharmonic, so the invariant Laplacian vanishes;
    # the stencil is exact on bilinear terms, so the error is rounding
    u = lambda p: (p.coords[0] * p.coords[1]).real
    val = invariant_laplacian_fd(u, SpacePoint([0.3, 0.1 - 0.2j]), BALL2, 1e-3)
    assert val == pytest.approx(0.0, abs=1e-9)


def test_poisson_gradient_closed_vs_stencil():
    z = SpacePoint([0.3, 0.2j])
    lam = SpacePoint([-0.1, 0.45])
    h = 1e-4
    for j in (1, 2):
        closed = poisson_gradient_ball(z, lam, j, BALL2)

        def u(p):
            return poisson_kernel(p, lam, BALL2)

        def shifted(delta):
            c = list(z.coords)
            c[j - 1] += delta
            return SpacePoint(c)

        ux = (u(shifted(h)) - u(shifted(-h))) / (2 * h)
        uy = (u(shifted(1j * h)) - u(shifted(-1j * h))) / (2 * h)
        assert 0.5 * (ux - 1j * uy) == pytest.approx(closed, rel=1e-6)
    with pytest.raises(InputError):
        poisson_gradient_ball(z, lam, 3, BALL2)


def test_potential_laplacian_closed_origin_atom():
    # disc: Lap phi = 4 w (1-|lam|^2)/|1-conj(lam) z|^4 = 4 for lam = 0
    z = SpacePoint(0.37 - 0.21j)
    assert potential_laplacian_closed(MU0_DISC, z) == pytest.approx(4.0, abs=1e-14)
    # ball n=2: invariant Lap phi = (16/3)(1-|z|^2)^3 for lam = 0
    z2 = SpacePoint([0.5, 0.0])
    want = (16.0 / 3.0) * 0.75**3
    assert potential_laplacian_closed(MU0_BALL, z2) == pytest.approx(want, rel=1e-14)


def test_potential_laplacian_is_nonnegative():
    mu = DiscreteMeasure(
        DISC, [(SpacePoint(0.5), 1.0), (SpacePoint(-0.3 + 0.6j), 0.2)]
    )
    for z in (SpacePoint(0.0), SpacePoint(0.8j), SpacePoint(-0.7)):
        assert potential_laplacian_closed(mu, z) > 0.0


def test_green_weight_disc_oracle():
    assert green_weight_disc(SpacePoint(0.5)) == pytest.approx(math.log(2.0), abs=1e-15)
    assert math.isinf(green_weight_disc(SpacePoint(0.0)))


# The earlier closed forms, before they became the shared factor times the
# atom kernel (Laplacians) and the n = 1 Green function (disc weight).


def _laplacian_poisson_disc_oracle(z, lam):
    d = 1.0 - lam.coords[0].conjugate() * z.coords[0]
    d2 = (d * d.conjugate()).real
    return 4.0 * (lam.norm_sq - 1.0) / (d2 * d2)


def _invariant_laplacian_poisson_ball_oracle(z, lam, space):
    n = space.dim
    d = 1.0 - inner(z, lam)
    root = (1.0 - lam.norm_sq) / (d * d.conjugate()).real
    return -(4.0 * n * n / (n + 1.0)) * (1.0 - z.norm_sq) * poisson_kernel(z, lam, space) * root


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_closed_form_laplacians_match_earlier_bodies(dim):
    space = Space.ball(dim)
    for z, lam in pair_corpus(500, dim, 0.99, 818, dim):
        got = invariant_laplacian_poisson_ball(z, lam, space)
        want = _invariant_laplacian_poisson_ball_oracle(z, lam, space)
        assert abs(got - want) <= 1e-15 * abs(want)
        if dim == 1:
            want = _laplacian_poisson_disc_oracle(z, lam)
            assert abs(laplacian_poisson_disc(z, lam) - want) <= 1e-15 * abs(want)


def test_green_weight_disc_matches_earlier_body():
    # log(1/|z|) has condition number 1/log(1/|z|), so near the circle both
    # forms keep only an absolute rounding error of a few ulps of 1.
    for z, w in pair_corpus(2000, 1, 0.999, 818, 4):
        for p in (z, w):
            want = -0.5 * math.log(p.norm_sq)
            tol = 1e-15 * want if math.sqrt(p.norm_sq) <= 0.9 else 1e-15
            assert abs(green_weight_disc(p) - want) <= tol


def test_green_function_ball_oracle_and_bound():
    # n = 2 closed form (3/4)(1/(2 r^2) - 1/2 + log r) at r = 0.5
    val = green_function_ball(SpacePoint([0.5, 0.0]), BALL2)
    assert val == pytest.approx(0.6051396145800411, rel=1e-13)
    assert math.isinf(green_function_ball(SpacePoint([0.0, 0.0]), BALL2))
    # lower bound (n+1)/(4 n^2) (1-r^2)^n
    for r in (0.1, 0.4, 0.7, 0.95):
        g = green_function_ball(SpacePoint([r, 0.0]), BALL2)
        assert g >= (3.0 / 16.0) * (1 - r * r) ** 2 - 1e-15


def test_green_function_dim_one_reduces_to_log():
    b1 = Space.ball(1)
    val = green_function_ball(SpacePoint([0.3]), b1)
    assert val == pytest.approx(math.log(1 / 0.3), rel=1e-13)


def test_greens_formula_disc_cases():
    one = lambda zs: np.ones(zs.shape[0])
    zero = lambda zs: np.zeros(zs.shape[0])
    lhs, rhs, gap = greens_formula_check(one, DISC, laplacian=zero)
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(0.0, abs=1e-14)

    radial = lambda zs: 1.0 - (zs[:, 0] * zs[:, 0].conj()).real
    const = lambda zs: np.full(zs.shape[0], -4.0)
    lhs, rhs, gap = greens_formula_check(radial, DISC, laplacian=const)
    assert rhs == pytest.approx(-1.0, abs=1e-14)
    assert gap <= 1e-10


def test_greens_formula_disc_quartic_closed_form():
    # u = |z|^4: Lap u = 16 |z|^2, boundary mean 1, u(0) = 0
    u = lambda zs: (zs[:, 0] * zs[:, 0].conj()).real ** 2
    lap = lambda zs: 16.0 * (zs[:, 0] * zs[:, 0].conj()).real
    lhs, rhs, gap = greens_formula_check(u, DISC, laplacian=lap)
    assert rhs == pytest.approx(1.0, abs=1e-14)
    assert gap <= 1e-8


def test_greens_formula_ball_radial_and_nonradial():
    radial = lambda zs: 1.0 - np.einsum("ij,ij->i", zs, zs.conj()).real
    lhs, rhs, gap = greens_formula_check(radial, BALL2)
    assert rhs == pytest.approx(-1.0, abs=1e-14)
    assert gap <= 1e-9

    # u = |z1|^2 has boundary mean 1/2, u(0) = 0; stencil is exact on it
    u = lambda zs: (zs[:, 0] * zs[:, 0].conj()).real
    lhs, rhs, gap = greens_formula_check(u, BALL2)
    assert rhs == pytest.approx(0.5, abs=1e-12)
    assert gap <= 1e-9


def test_greens_formula_blocked_stencil_equals_one_block(monkeypatch):
    cases = [
        (DISC, lambda zs: (zs[:, 0] * zs[:, 0].conj()).real ** 2, default_quadrature(DISC)),
        (
            BALL2,
            lambda zs: ((zs[:, 0] * zs[:, 0].conj()) * (zs[:, 1] * zs[:, 1].conj())).real,
            QuadratureSpec(radial_order=16, angular_order=16, sphere_nodes=8),
        ),
    ]
    for space, u, q in cases:
        nodes = len(ball_rule(q, space.dim)[1])
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1 << 20)
        assert len(numerics._row_blocks(nodes, 4 * space.dim)) == 1
        whole = greens_formula_check(u, space, q)
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1000)
        assert len(numerics._row_blocks(nodes, 4 * space.dim)) >= 8
        assert greens_formula_check(u, space, q) == whole
        monkeypatch.undo()


@pytest.mark.parametrize("fn", ["mixed", "radial"])
def test_greens_formula_default_ball_rule_equals_old_block_size(fn, monkeypatch):
    # The stencil, the density and the terms are per node, and one sum
    # over the whole rule keeps its order: the result does not depend on
    # the block size, down to the last bit.
    u, lap = cli._green_case(BALL2, fn)
    got = greens_formula_check(u, BALL2, laplacian=lap)
    monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1 << 20)
    assert greens_formula_check(u, BALL2, laplacian=lap) == got


def test_uchiyama_density_is_bounded_near_boundary():
    mu = DiscreteMeasure(DISC, [(SpacePoint(0.5), 1.0)])
    vals = [uchiyama_density(mu, SpacePoint(r)) for r in (0.9, 0.99, 0.999, 0.9999)]
    assert all(math.isfinite(v) and v >= 0.0 for v in vals)
    # the log weight kills the density at the boundary
    assert vals[-1] < vals[0]

    mub = DiscreteMeasure(BALL2, [(SpacePoint([0.4, 0.2]), 1.0)])
    vb = [uchiyama_density(mub, SpacePoint([r, 0.0])) for r in (0.9, 0.999)]
    assert all(math.isfinite(v) and v >= 0.0 for v in vb)
    assert math.isinf(uchiyama_density(mu, SpacePoint(0.0)))


def test_uchiyama_density_origin_atom_oracle():
    # hand evaluation of the three factors: (1/2pi) e^{-0.75} * 4 * log 2
    want = math.exp(-0.75) * 4.0 * math.log(2.0) / (2.0 * math.pi)
    got = uchiyama_density(MU0_DISC, SpacePoint(0.5))
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.20844175571210585, rel=1e-14)


def test_uchiyama_embedding_origin_atom_series_oracle():
    integral, norm_sq = uchiyama_embedding_check(MU0_DISC, ONE_DISC)
    assert norm_sq == pytest.approx(1.0, abs=1e-15)
    assert integral == pytest.approx(NU_MASS_DISC, abs=1e-10)
    assert integral <= norm_sq


def test_uchiyama_embedding_ball_origin_atom_oracle():
    integral, norm_sq = uchiyama_embedding_check(MU0_BALL, ONE_BALL)
    assert norm_sq == pytest.approx(1.0, abs=1e-15)
    assert integral == pytest.approx(NU_MASS_BALL, abs=1e-6)
    assert integral <= norm_sq


def test_corollary_origin_atom():
    # the corollary measure drops the e^phi factor: its total mass is
    # (1/2pi) * 4 * integral of log(1/|z|) = 1 exactly for the origin atom,
    # and sup |phi| = 1 makes the bound e * ||f||^2
    integral, bound = corollary_check(MU0_DISC, ONE_DISC)
    assert bound == pytest.approx(math.e, rel=1e-12)
    assert integral == pytest.approx(1.0, abs=1e-10)
    assert integral <= bound


def test_key_inequality_origin_atom_disc():
    lhs, rhs = key_inequality_check(MU0_DISC, ONE_DISC, 0)
    assert lhs == pytest.approx(KEY_LHS_DISC, abs=1e-12)
    assert rhs == pytest.approx(0.5 / math.e, abs=1e-15)
    assert lhs >= rhs


def test_key_inequality_origin_atom_ball():
    lhs, rhs = key_inequality_check(MU0_BALL, ONE_BALL, 0)
    assert lhs == pytest.approx(KEY_LHS_BALL, abs=1e-6)
    assert rhs == pytest.approx(1.0 / (6.0 * math.e), abs=1e-15)
    assert lhs >= rhs


def test_key_inequality_index_guard():
    with pytest.raises(InputError):
        key_inequality_check(MU0_DISC, ONE_DISC, 1)


def test_beta_constant_values():
    assert beta_constant(1) == pytest.approx(0.5, abs=1e-16)
    assert beta_constant(2) == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert beta_constant(3) == pytest.approx(1.0 / 20.0, abs=1e-16)
    with pytest.raises(InputError):
        beta_constant(0)


def test_poly_dimension_guard():
    with pytest.raises(InputError):
        uchiyama_embedding_check(MU0_BALL, ONE_DISC)


# ---------------------------------------------------------------------------
# The frame stencil against the coordinate stencil it replaced.  These
# are the earlier bodies of calculus._shift, _stencil_sum and
# _invariant_laplacian_field (a 4-point stencil per coordinate and the 16
# corners of the mixed partials per coordinate pair, 4n + 16 n(n-1)/2 + 1
# evaluations of u), kept as the oracle.


def _shift(zs, col, step):
    out = zs.copy()
    out[:, col] = out[:, col] + step
    return out


def _coordinate_stencil_sum(u, zs, col, h, u0):
    acc = -4.0 * u0
    for step in (h, -h, 1j * h, -1j * h):
        acc = acc + np.asarray(u(_shift(zs, col, step)), dtype=float)
    return acc


def _coordinate_invariant_laplacian(u, zs, h):
    n = zs.shape[1]
    c = (1.0 - _norm_sq_rows(zs)) / (n + 1)
    h = np.asarray(h, dtype=float)
    h2 = h * h
    u0 = np.asarray(u(zs), dtype=float)

    total = np.zeros(zs.shape[0])
    for i in range(n):
        dbar_ii = _coordinate_stencil_sum(u, zs, i, h, u0) / (4.0 * h2)
        g_ii = c * (1.0 - (zs[:, i] * zs[:, i].conj()).real)
        total += g_ii * dbar_ii

    for i in range(n):
        for j in range(i + 1, n):
            partials = []
            for si, sj in ((1.0, 1.0), (1j, 1j), (1j, 1.0), (1.0, 1j)):
                cross = (
                    np.asarray(u(_shift(_shift(zs, i, si * h), j, sj * h)), dtype=float)
                    - np.asarray(u(_shift(_shift(zs, i, si * h), j, -sj * h)), dtype=float)
                    - np.asarray(u(_shift(_shift(zs, i, -si * h), j, sj * h)), dtype=float)
                    + np.asarray(u(_shift(_shift(zs, i, -si * h), j, -sj * h)), dtype=float)
                ) / (4.0 * h2)
                partials.append(cross)
            u_xx, u_yy, u_yx, u_xy = partials
            dbar_ij = 0.25 * (u_xx + u_yy + 1j * (u_yx - u_xy))
            g_ij = c * (-(zs[:, i].conj() * zs[:, j]))
            total += 2.0 * (g_ij * dbar_ij).real

    return 4.0 * total


def _pair_arrays(count, dim, rmax, stream):
    pairs = pair_corpus(count, dim, rmax, 20261018, stream)
    zs = np.array([z.coords for z, _ in pairs], dtype=complex)
    lams = np.array([lam.coords for _, lam in pairs], dtype=complex)
    return zs, lams


def _row_poisson(lams):
    """u(zs)[k] = P_{zs[k]}(lams[k]): one kernel per row, vectorized."""
    n = lams.shape[1]

    def u(zs):
        d = 1.0 - np.einsum("ij,ij->i", zs, lams.conj())
        return _poisson((d * d.conj()).real, _norm_sq_rows(zs), n)

    return u


def _norm_sq_points(dim):
    """z = 0, a point on the e_1 axis, points with z_1 = 0, and generic points."""
    rng = rng_stream(20261018, 100 + dim)
    rows = [np.zeros(dim), 0.6 * np.eye(dim)[0], -0.3j * np.eye(dim)[0]]
    if dim > 1:
        rows += [0.5j * np.eye(dim)[1], 0.4 * np.eye(dim)[-1] - 0.2j * np.eye(dim)[1]]
    rows += [random_point(rng, dim, 0.9).coords for _ in range(20)]
    return np.array(rows, dtype=complex)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_frame_stencil_matches_coordinate_stencil(dim):
    # Both are second-order stencils for the same operator on different
    # nodes; the worst relative gaps on these corpora are 3.7e-10, 3.6e-6
    # and 2.6e-5 for n = 1, 2, 3.
    zs, lams = _pair_arrays(300, dim, 0.8, dim)
    u = _row_poisson(lams)
    got = calculus._invariant_laplacian_field(u, zs, 1e-3)
    want = _coordinate_invariant_laplacian(u, zs, 1e-3)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 3e-5


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_frame_stencil_exact_on_norm_sq(dim):
    # Lap~ |z|^2 = 4 (1 - |z|^2)(n - |z|^2)/(n + 1); the 5-point stencil
    # is exact on quadratics along every complex line of the frame.
    zs = _norm_sq_points(dim)
    nrm = _norm_sq_rows(zs)
    want = 4.0 * (1.0 - nrm) * (dim - nrm) / (dim + 1.0)
    got = calculus._invariant_laplacian_field(_norm_sq_rows, zs, 1e-3)
    assert np.max(np.abs(got - want)) <= 1e-9
    space = Space.ball(dim)
    for z, value in zip(zs, want):
        point = SpacePoint(z)
        fd = invariant_laplacian_fd(lambda p: p.norm_sq, point, space, 1e-3)
        assert fd == pytest.approx(value, abs=1e-9)


def test_invariant_laplacian_poisson_closed_vs_stencil_dim3():
    ball3 = Space.ball(3)
    for z, lam in pair_corpus(40, 3, 0.6, 20261018, 7):
        closed = invariant_laplacian_poisson_ball(z, lam, ball3)
        fd = invariant_laplacian_fd(lambda p: poisson_kernel(p, lam, ball3), z, ball3, 1e-3)
        assert fd == pytest.approx(closed, rel=1e-5)
        assert closed < 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stencils_evaluate_u_4n_plus_1_times(dim):
    zs, lams = _pair_arrays(7, dim, 0.8, 10 + dim)
    u = _row_poisson(lams)
    rows = []

    def counted(points):
        rows.append(len(points))
        return u(points)

    calculus._invariant_laplacian_field(counted, zs, np.full(len(zs), 1e-3))
    assert rows == [len(zs)] * (4 * dim + 1)
    if dim == 1:
        rows.clear()
        calculus._flat_laplacian_field(counted, zs, 1e-3)
        assert rows == [len(zs)] * 5


# ---------------------------------------------------------------------------
# MultiPoly.eval_array and __call__ (both nested Horner) against the
# per-term powers of _eval_powers below.


def _term_scale(f, z):
    """sum |coeff| |z^alpha|: the size of the terms before they cancel."""
    return sum(abs(c) * math.prod(abs(x) ** a for x, a in zip(z.coords, alpha))
               for alpha, c in f.terms.items())


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_multipoly_eval_array_matches_scalar_call(dim):
    rng = rng_stream(20261018, dim)
    polys = [MultiPoly(dim, {}), MultiPoly(dim, {(0,) * dim: 2.0 - 1.5j})]
    for _ in range(40):
        # sparse terms with gaps in every coordinate's degree
        terms = {}
        for _ in range(int(rng.integers(1, 8))):
            alpha = tuple(int(a) for a in rng.integers(0, 9, size=dim))
            terms[alpha] = complex(rng.normal(), rng.normal())
        polys.append(MultiPoly(dim, terms))
    # the corpus draw: one term per multi-index of total degree <= 2
    dense = random_poly(rng, dim, 2)
    assert len(dense.terms) == math.comb(dim + 2, 2)
    polys.append(dense)
    points = [random_point(rng, dim, 0.99) for _ in range(25)]
    zs = np.array([p.coords for p in points], dtype=complex)
    for f in polys:
        got = f.eval_array(zs)
        assert got.dtype == complex and got.shape == (len(points),)
        for value, want, z in zip(got, _eval_powers(f, zs), points):
            scale = _term_scale(f, z)
            assert abs(value - want) <= 1e-14 * scale
            assert type(f(z)) is complex and abs(f(z) - want) <= 1e-14 * scale
    assert not np.any(polys[0].eval_array(zs))
    assert np.all(polys[1].eval_array(zs) == 2.0 - 1.5j)


# ---------------------------------------------------------------------------
# uchiyama_checks against the three separate checks it replaced.  These
# are the earlier bodies of uchiyama_embedding_check, corollary_check and
# key_inequality_check, kept as the oracle, with the earlier density and
# atom sum inlined; _eval_powers is the earlier MultiPoly.eval_array.
# The rule, |f|^2, phi and the atom sum behind the density are computed
# once per (mu, f, q) by _oracle_fields and shared by the three oracles;
# every formula and its order of operations is the earlier one.


def _eval_powers(f, zs):
    out = np.zeros(zs.shape[0], dtype=complex)
    for alpha, coeff in f.terms.items():
        term = np.full(zs.shape[0], coeff)
        for i, a in enumerate(alpha):
            if a:
                term *= zs[:, i] ** a
        out += term
    return out


def _density_oracle(mu, zs):
    """factor -> factor times the density at the rows of zs."""
    n = mu.space.dim
    lams = mu.points_array()
    d = 1.0 - zs @ lams.conj().T
    mass = mu.weights_array() * (1.0 - _norm_sq_rows(lams))
    core = (1.0 / _ipow((d * d.conj()).real, n + 1)) @ mass
    if mu.space.kind == "disc":
        four_core, log_inv = 4.0 * core, -np.log(np.abs(zs[:, 0]))
        return lambda factor: factor * four_core * log_inv / (2.0 * np.pi)
    green = calculus._green_ball_field(np.sqrt(_norm_sq_rows(zs)), n)
    scale = math.factorial(n) / np.pi ** n * (4.0 * n * n / (n + 1.0))
    return lambda factor: scale * factor * green * core


def _oracle_fields(mu, f, q):
    """(points, weights, |f|^2, phi, density) on the rule of q."""
    points, weights = ball_rule(q, mu.space.dim)
    f_sq = np.abs(_eval_powers(f, points)) ** 2
    phi = measure._potential_field(mu.points_array(), mu.weights_array(), points)
    return points, weights, f_sq, phi, _density_oracle(mu, points)


def _contraction_oracle(mu, f, fields):
    _, weights, f_sq, phi, density = fields
    values = f_sq * density(np.exp(phi))
    return float(np.sum(weights * values)), hardy_norm_sq(f, mu.space)


def _corollary_oracle(mu, f, fields):
    _, weights, f_sq, phi, density = fields
    values = f_sq * density(1.0)
    integral = float(np.sum(weights * values))
    phi_sup = max(kernel_constant_on_support(mu), float(np.max(-phi)))
    return integral, math.e * phi_sup * hardy_norm_sq(f, mu.space)


def _key_oracle(mu, f, lambda_idx, fields):
    lam, _ = mu.atoms[lambda_idx]
    n = mu.space.dim
    points, weights, f_sq, phi, _ = fields
    d = 1.0 - points @ lam.as_array().conj()
    d2 = (d * d.conj()).real
    a_z = 1.0 - _norm_sq_rows(points)
    kernel = (1.0 - lam.norm_sq) * a_z ** n / _ipow(d2, n + 1)
    if mu.space.kind == "disc":
        prefactor, constant = 1.0 / math.pi, 0.5
    else:
        prefactor = math.factorial(n) / math.pi ** n
        constant = beta_constant(n)
    values = f_sq * np.exp(phi) * kernel
    lhs = prefactor * float(np.sum(weights * values))
    f_lam = f(lam)
    rhs = constant * math.exp(carleson_potential(mu, lam)) * (f_lam * f_lam.conjugate()).real
    return lhs, rhs


def _flat(result):
    (a, b), (c, d), keys = result
    return [a, b, c, d] + [x for pair in keys for x in pair]


def _assert_close(got, want, rel):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= rel * abs(w), (g, w)


def _check_against_oracle(mu, f, q):
    fields = _oracle_fields(mu, f, q)
    want = [*_contraction_oracle(mu, f, fields), *_corollary_oracle(mu, f, fields)]
    for idx in range(len(mu)):
        want.extend(_key_oracle(mu, f, idx, fields))
    _assert_close(_flat(uchiyama_checks(mu, f, q)), want, 1e-12)


# The criterion 07/08 corpora; the ball pairs run on a 73,728-node rule
# here (the default rule is 16x larger) to keep the oracle's 1 + m passes
# cheap, the bench-shaped inputs below run on the default rule.
_ORACLE_SEED = 20260222
_SMALL_BALL_RULE = QuadratureSpec(radial_order=24, angular_order=16, sphere_nodes=12)
# 4,096 nodes in 16 factor rows: cheap passes at hundreds of atoms
_TINY_BALL_RULE = QuadratureSpec(radial_order=4, angular_order=16, sphere_nodes=4)


def test_uchiyama_checks_match_oracle_disc_corpus():
    q = default_quadrature(DISC)
    for mu, f in measure_poly_corpus(50, DISC, 5, 0.8, 5, _ORACLE_SEED, 7):
        _check_against_oracle(mu, f, q)


def test_uchiyama_checks_match_oracle_ball_corpus():
    for mu, f in measure_poly_corpus(10, BALL2, 5, 0.6, 5, _ORACLE_SEED, 8):
        _check_against_oracle(mu, f, _SMALL_BALL_RULE)


def test_uchiyama_checks_match_oracle_bench_shaped_ball():
    # 3 atoms, rmax 0.6, degree 5 on the default 1.18 M-node rule (four
    # row blocks).
    rng = rng_stream(_ORACLE_SEED, 9)
    q = default_quadrature(BALL2)
    for _ in range(3):
        mu = DiscreteMeasure(
            BALL2, [(random_point(rng, 2, 0.6), math.exp(rng.normal(0.0, 0.5))) for _ in range(3)]
        )
        _check_against_oracle(mu, random_poly(rng, 2, 5), q)


def test_uchiyama_checks_blocked_equals_one_block(monkeypatch):
    q = default_quadrature(DISC)
    for mu, f in measure_poly_corpus(5, DISC, 5, 0.8, 5, _ORACLE_SEED, 10):
        whole = _flat(uchiyama_checks(mu, f, q))
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1000)
        assert len(numerics._row_blocks(8192, len(mu))) >= 8
        _assert_close(_flat(uchiyama_checks(mu, f, q)), whole, 1e-13)
        monkeypatch.undo()


def test_uchiyama_checks_ball_match_old_block_size(monkeypatch):
    # Per-block sums of the contraction, the corollary and the key
    # inequalities reorder with the block size, so the default ball(2)
    # rule agrees with the old 2^20-entry blocks to rounding, not bit for bit.
    rng = rng_stream(_ORACLE_SEED, 12)
    q = default_quadrature(BALL2)
    for _ in range(2):
        mu = DiscreteMeasure(
            BALL2, [(random_point(rng, 2, 0.6), math.exp(rng.normal(0.0, 0.5))) for _ in range(3)]
        )
        f = random_poly(rng, 2, 5)
        got = _flat(uchiyama_checks(mu, f, q))
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1 << 20)
        _assert_close(got, _flat(uchiyama_checks(mu, f, q)), 1e-13)
        monkeypatch.undo()


def test_uchiyama_views_match_fused_routine():
    mu, f = measure_poly_corpus(1, DISC, 5, 0.8, 5, _ORACLE_SEED, 11)[0]
    mu = DiscreteMeasure(DISC, list(mu.atoms) + [(SpacePoint(0.3 - 0.2j), 0.5)])
    contraction, corollary, keys = uchiyama_checks(mu, f)
    assert uchiyama_embedding_check(mu, f) == contraction
    assert corollary_check(mu, f) == corollary
    assert [key_inequality_check(mu, f, idx) for idx in range(len(mu))] == keys


def test_uchiyama_computes_each_node_potential_once(tmp_path, monkeypatch, capsys):
    mu = DiscreteMeasure(BALL2, [
        (SpacePoint([0.3, 0.1j]), 1.0), (SpacePoint([-0.2, 0.4]), 0.5),
        (SpacePoint([0.1j, -0.3]), 2.0),
    ])
    f = {"dim": 2, "terms": [{"alpha": [1, 2], "re": 1.0, "im": -0.5}]}
    mu_path, f_path = tmp_path / "mu.json", tmp_path / "f.json"
    mu_path.write_text(json.dumps(cli.measure_to_dict(mu)))
    f_path.write_text(json.dumps(f))
    # Poisson rows formed at the atoms (measure._potential_field) and at
    # the nodes (the node pass calls geometry._poisson on each block)
    atom_rows, node_rows = [], []

    def counted(rows, poisson):
        def run(d_sq, z_norm_sq, n, out=None):
            rows.append(d_sq.size // d_sq.shape[-1])
            return poisson(d_sq, z_norm_sq, n, out)
        return run

    monkeypatch.setattr(measure, "_poisson", counted(atom_rows, measure._poisson))
    monkeypatch.setattr(calculus, "_poisson", counted(node_rows, calculus._poisson))
    monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1 << 16)
    assert cli.main(["uchiyama", str(mu_path), "--poly", str(f_path), "--quad-order", "8"]) == 0
    assert capsys.readouterr().out.count("PASS") == 5
    q = QuadratureSpec(radial_order=8, angular_order=32, sphere_nodes=24)
    nodes = len(ball_rule(q, 2)[1])
    blocks = list(calculus._factor_blocks(numerics._rule_factors(2, 32, 24, 8), 3))
    # phi at the three atoms once, for ||phi||_inf and every key
    # inequality; then each block of the node pass once, and the blocks
    # cover every node once (test_factor_blocks_partition_the_rule)
    assert atom_rows == [3]
    assert sum(node_rows) == nodes and len(node_rows) == len(blocks) > 1


# The quadrature passes fill the rule block by block from its cached
# factors; the Green's-formula oracle in conftest reads the whole rule.


def _random_pair(space, atoms, rmax, seed):
    rng = rng_stream(_ORACLE_SEED, seed)
    mu = DiscreteMeasure(space, [
        (random_point(rng, space.dim, rmax), math.exp(rng.normal(0.0, 0.5))) for _ in range(atoms)
    ])
    return mu, random_poly(rng, space.dim, 5)


def _bench_shaped_ball_pair(seed):
    return _random_pair(BALL2, 3, 0.6, seed)


# The node pass before it ran on the rule's factors, kept as the oracle
# of uchiyama_checks: row blocks of the streamed rule through
# measure._poisson_blocks, |f|^2 by nested Horner and |z|^2 at each
# node, and phi by the gemv p @ w.  The pass now takes |z|^2, the Green
# factor and (1 - |z|^2)^n once per factor row, f from products over the
# torus and -phi as einsum row sums, so its numbers agree with these to
# rounding; the key right sides are computed as before, bit for bit.


def _node_pass_oracle(mu, f, q=None):
    if q is None:
        q = default_quadrature(mu.space)
    n = mu.space.dim
    rule = numerics._interior_stream(q, n)
    lams, wts, mass = mu.points_array(), mu.weights_array(), calculus._atom_mass(mu)
    contraction = corollary = 0.0
    phi_atoms = measure._potential_field(lams, wts, lams)
    phi_sup = float(np.max(-phi_atoms))
    key = np.zeros(len(mu))
    a_scratch = None
    for rows, zs, nrm, d_sq, p in measure._poisson_blocks(rule, lams):
        if a_scratch is None:
            a_scratch = np.empty(d_sq.shape)
        w_f = rule.weigh(rows, np.abs(f.eval_array(zs)) ** 2)
        phi = -(p @ wts)
        w_f_e = w_f * np.exp(phi)
        a = calculus._atom_matrix(d_sq, n, a_scratch[:len(d_sq)])
        density = calculus._density_field(n, nrm, a @ mass)
        contraction += float(np.sum(w_f_e * density))
        corollary += float(np.sum(w_f * density))
        phi_sup = max(phi_sup, float(np.max(-phi)))
        key += (w_f_e * (1.0 - nrm) ** n) @ a
    prefactor, constant = math.factorial(n) / math.pi ** n, beta_constant(n)
    norm_sq = hardy_norm_sq(f, mu.space)
    lhs = prefactor * (1.0 - _norm_sq_rows(lams)) * key
    rhs = constant * np.exp(phi_atoms) * np.abs(f.eval_array(lams)) ** 2
    return ((contraction, norm_sq), (corollary, math.e * phi_sup * norm_sq),
            list(zip(lhs.tolist(), rhs.tolist())))


@pytest.mark.parametrize("cases", [
    # the criterion 07/08 corpora on the default rules
    lambda: measure_poly_corpus(50, DISC, 5, 0.8, 5, _ORACLE_SEED, 7),
    lambda: measure_poly_corpus(10, BALL2, 5, 0.6, 5, _ORACLE_SEED, 8),
    lambda: [_bench_shaped_ball_pair(seed) for seed in (15, 16, 17)],
    lambda: [_random_pair(BALL2, 300, 0.8, 18) + (_SMALL_BALL_RULE,)],
], ids=["criterion-disc", "criterion-ball2", "bench-ball2", "300-atom-ball2"])
def test_uchiyama_checks_match_the_node_pass(cases):
    for mu, f, *q in cases():
        got, want = uchiyama_checks(mu, f, *q), _node_pass_oracle(mu, f, *q)
        _assert_close(_flat(got), _flat(want), 1e-13)
        assert [rhs for _, rhs in got[2]] == [rhs for _, rhs in want[2]]


def test_factor_blocks_partition_the_rule(monkeypatch):
    # Each block is whole factor rows or a range of one row's torus
    # nodes; together they cover the rule in its node order, each block
    # within _BLOCK_ENTRIES node-by-atom entries, of two nodes or more and
    # no longer than the first, which sizes the scratch of the pass.
    for dim, q in [(1, default_quadrature(DISC)), (2, _SMALL_BALL_RULE)]:
        factors = numerics._rule_factors(dim, q.angular_order, q.sphere_nodes, q.radial_order)
        per_row = q.angular_order ** dim
        nodes = len(factors[0]) * per_row
        for exponent, atoms in [(10, 1), (10, 100), (13, 3), (16, 300), (16, 2000), (20, 7)]:
            monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1 << exponent)
            blocks = list(calculus._factor_blocks(factors, atoms))
            ranges = [calculus._block_nodes(block, per_row) for block in blocks]
            assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
            assert ranges[-1][1] == nodes
            for (rows, t0, t1), (start, stop) in zip(blocks, ranges):
                assert (t0, t1) == (0, per_row) or rows.stop - rows.start == 1
                assert 2 <= stop - start <= ranges[0][1]
                assert (stop - start) * atoms <= 1 << exponent
            whole = per_row * atoms <= 1 << exponent
            assert all((t0, t1) == (0, per_row) for _, t0, t1 in blocks) == whole


def _monomial_scale(f, zs):
    """sum |coeff| |z^alpha| at each row of zs: the size of the terms before they cancel."""
    scale = np.zeros(len(zs))
    for alpha, coeff in f.terms.items():
        scale += abs(coeff) * np.prod(np.abs(zs) ** np.array(alpha), axis=1)
    return scale


@pytest.mark.parametrize("space, q", [
    (DISC, default_quadrature(DISC)),
    (BALL2, _TINY_BALL_RULE),
], ids=["disc", "ball2"])
@pytest.mark.parametrize("atoms", [1, 100])
def test_poly_blocks_equal_horner_at_the_filled_nodes(space, q, atoms, monkeypatch):
    # 2^12 entries: blocks of whole rows for one atom, ranges of a row for 100
    monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1 << 12)
    n, top = space.dim, q.angular_order - 1
    rng = rng_stream(_ORACLE_SEED, 19 + n)
    polys = [MultiPoly(n, {}), MultiPoly(n, {(0,) * n: 2.0 - 1.5j})]
    for _ in range(10):
        # sparse terms with gaps in every coordinate's degree
        terms = {}
        for _ in range(int(rng.integers(1, 6))):
            alpha = [int(a) for a in rng.integers(0, top // n + 1, size=n)]
            terms[tuple(alpha)] = complex(rng.normal(), rng.normal())
        polys.append(MultiPoly(n, terms))
    # total degree angular_order - 1, in one coordinate and spread over all
    polys.append(MultiPoly(n, {(top,) + (0,) * (n - 1): 1.0 - 0.5j, (0,) * n: 0.25}))
    spread = (top - top // n,) + (top // n,) * (n - 1)
    polys.append(MultiPoly(n, {(0,) * (n - 1) + (top,): 0.5j, spread: -1.0}))
    polys.append(random_poly(rng, n, 5))
    factors = numerics._rule_factors(n, q.angular_order, q.sphere_nodes, q.radial_order)
    blocks = list(calculus._factor_blocks(factors, atoms))
    assert any((t0, t1) != (0, q.angular_order ** n) for _, t0, t1 in blocks) == (atoms > 1)
    for f in polys:
        seen = []
        for block, values in calculus._poly_blocks(f, factors, atoms):
            seen.append(block)
            start, stop = calculus._block_nodes(block, q.angular_order ** n)
            zs = np.empty((stop - start, n), dtype=complex)
            numerics._fill_nodes(factors, start, stop, points=zs)
            want = f.eval_array(zs)
            assert values.shape == want.shape
            assert np.all(np.abs(values - want) <= 1e-13 * _monomial_scale(f, zs)), f.terms
        assert seen == blocks
    zero = MultiPoly(n, {})
    assert not any(np.any(v) for _, v in calculus._poly_blocks(zero, factors, atoms))


# split: whether the blocks are ranges of one factor row's torus nodes at
# _BLOCK_ENTRIES 2^10, 2^13, 2^16 and 2^20
@pytest.mark.parametrize("space, atoms, q, seed, split", [
    (DISC, 4, None, 24, [False] * 4),
    # the gemv p @ w, which sums a row otherwise at other places in a
    # block, moves this measure's bound between the sizes (OpenBLAS 0.3.31)
    (DISC, 40, None, 25, [True, False, False, False]),
    (DISC, 200, None, 220, [True, True, False, False]),
    (BALL2, 3, _SMALL_BALL_RULE, 23, [False] * 4),
    (BALL2, 250, _TINY_BALL_RULE, 270, [True, True, False, False]),
], ids=["disc-4", "disc-40", "disc-200", "ball2-3", "ball2-250"])
def test_corollary_bound_is_block_independent(space, atoms, q, seed, split, monkeypatch):
    # Each node's -phi is the einsum sum of its own Poisson row, so
    # ||phi||_inf, and with it the printed bound e ||phi||_inf ||f||^2,
    # has the same bits at every block size, whether a block is whole
    # factor rows or a range of one row's torus nodes.
    mu, f = _random_pair(space, atoms, 0.9, seed)
    q = q or default_quadrature(space)
    factors = numerics._rule_factors(space.dim, q.angular_order, q.sphere_nodes, q.radial_order)
    bounds, splits = set(), []
    for exponent in (10, 13, 16, 20):
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1 << exponent)
        bounds.add(uchiyama_checks(mu, f, q)[1][1])
        _, _, t1 = next(calculus._factor_blocks(factors, atoms))
        splits.append(t1 < q.angular_order ** space.dim)
    assert len(bounds) == 1
    assert splits == split


@pytest.mark.parametrize("space", [DISC, BALL2], ids=["disc", "ball2"])
@pytest.mark.parametrize("fn", ["one", "radial", "re1", "mixed"])
def test_rule_stream_greens_formula_equals_full_rule_oracle(space, fn):
    u, lap = cli._green_case(space, fn)
    q = default_quadrature(space) if fn == "mixed" else _SMALL_BALL_RULE
    want = full_rule_greens_formula_check(u, space, q, laplacian=lap)
    assert greens_formula_check(u, space, q, laplacian=lap) == want
    # a scalar Laplacian broadcasts over the block, as it did over the rule
    assert (greens_formula_check(u, space, q, laplacian=lambda zs: 2.5)
            == full_rule_greens_formula_check(u, space, q, laplacian=lambda zs: 2.5))


def _traced_peak(run, peaks=None):
    """Peak traced allocation of run(), also appended to peaks when run raises."""
    tracemalloc.start()
    try:
        run()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        if peaks is not None:
            peaks.append(peak)
    return peak


def test_streamed_passes_hold_one_block_whatever_the_node_count():
    # The whole default ball(2) rule of uchiyama is 1.18 M nodes, 45 MB
    # of nodes and weights; green-check keeps only its full-length terms.
    mu, f = _bench_shaped_ball_pair(16)
    uchiyama_checks(mu, f)  # the rule's factors are cached once per process
    assert _traced_peak(lambda: uchiyama_checks(mu, f)) < 10 * 2 ** 20
    u, lap = cli._green_case(BALL2, "mixed")
    nodes = len(numerics._interior_stream(default_quadrature(BALL2), 2))
    peak = _traced_peak(lambda: greens_formula_check(u, BALL2, laplacian=lap))
    assert peak < 8 * nodes + 10 * 2 ** 20


def test_over_cap_rule_is_refused_by_both_passes_before_any_block(monkeypatch):
    def no_block(*args, **kwargs):
        raise AssertionError("a block was filled")

    monkeypatch.setattr(numerics, "_fill_nodes", no_block)
    monkeypatch.setattr(calculus, "_fill_nodes", no_block)
    q = QuadratureSpec(radial_order=342, angular_order=32, sphere_nodes=24)
    mu, f = _bench_shaped_ball_pair(17)
    u, lap = cli._green_case(BALL2, "mixed")
    peaks = []
    for run in (lambda: uchiyama_checks(mu, f, q), lambda: greens_formula_check(u, BALL2, q)):
        with pytest.raises(InputError, match="nodes, limit is"):
            _traced_peak(run, peaks)
    assert len(peaks) == 2 and max(peaks) < 2 ** 20
