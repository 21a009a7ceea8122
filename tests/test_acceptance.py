"""Acceptance gate: one test per numbered criterion.

Each test prints a single uncaptured verdict line

    ACCEPTANCE NN slug: PASS/FAIL  detail

and then asserts.  Tolerances and corpus sizes are pinned here on
purpose; loosening them is a contract change, not a fix.  Corpus radius
caps are free parameters and sit where stencil truncation and quadrature
error are an order of magnitude inside the asserted slack.
"""

import math
import time

import numpy as np
import pytest

from carlembed.calculus import (
    beta_constant,
    greens_formula_check,
    invariant_laplacian_fd,
    invariant_laplacian_poisson_ball,
    laplacian_fd,
    laplacian_poisson_disc,
    uchiyama_checks,
)
from carlembed.extremal import SearchConfig, search
from carlembed.geometry import Space, SpacePoint, poisson_kernel
from carlembed.interpolation import (
    PointSequence,
    carleson_delta,
    interpolation_report,
    orthogonalizer_cond,
    sequence_measure,
)
from carlembed.measure import (
    embedding_norm_sq,
    kernel_constant_on_support,
    theorem_bound_constant,
)
from carlembed.numerics import (
    QuadratureSpec,
    ball_quadrature,
    boundary_quadrature,
    disc_quadrature,
    gauss_legendre,
)
from conftest import (
    ball_measure_corpus,
    disc_measure_corpus,
    measure_poly_corpus,
    pair_corpus,
    sequence_corpus,
)

SEED = 20260222


def _verdict(capsys, num, slug, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {slug}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({slug}) failed: {detail}"


def test_criterion_01_disc_sandwich(capsys):
    limit, slack = 60.0, 1e-9
    t0 = time.perf_counter()
    corpus = disc_measure_corpus(1000, max_atoms=20, rmax=0.995, seed=SEED, stream=1)
    worst_low = worst_high = 0.0
    for mu in corpus:
        a_sq = embedding_norm_sq(mu)
        c_supp = kernel_constant_on_support(mu)
        worst_low = max(worst_low, (c_supp - a_sq) / a_sq)
        worst_high = max(worst_high, (a_sq - 2 * math.e * c_supp) / a_sq)
    elapsed = time.perf_counter() - t0
    ok = worst_low <= slack and worst_high <= slack and elapsed < limit
    _verdict(
        capsys, 1, "disc-sandwich", ok,
        f"1000 measures, worst lower excess {worst_low:.2e}, "
        f"worst upper excess {worst_high:.2e}, {elapsed:.1f}s (limit {limit:.0f}s)",
    )


def test_criterion_02_ball_sandwich(capsys):
    limit, slack = 60.0, 1e-9
    t0 = time.perf_counter()
    corpus = ball_measure_corpus(200, max_atoms=20, rmax=0.995, seed=SEED, stream=2)
    worst = 0.0
    for mu in corpus:
        a_sq = embedding_norm_sq(mu)
        c_supp = kernel_constant_on_support(mu)
        worst = max(worst, (a_sq - 6 * math.e * c_supp) / a_sq)
    elapsed = time.perf_counter() - t0
    ok = worst <= slack and elapsed < limit
    _verdict(
        capsys, 2, "ball-sandwich", ok,
        f"200 measures, worst excess over 6e c_supp {worst:.2e}, "
        f"{elapsed:.1f}s (limit {limit:.0f}s)",
    )


def test_criterion_03_invariant_laplacian_oracle(capsys):
    limit, tol, h = 10.0, 1e-5, 1e-3
    space = Space.ball(2)
    t0 = time.perf_counter()
    pairs = pair_corpus(100, dim=2, rmax=0.8, seed=SEED, stream=3)
    worst = 0.0
    for z, lam in pairs:
        closed = invariant_laplacian_poisson_ball(z, lam, space)
        fd = invariant_laplacian_fd(
            lambda p: poisson_kernel(p, lam, space), z, space, h
        )
        worst = max(worst, abs(fd - closed) / abs(closed))
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < limit
    _verdict(
        capsys, 3, "ball-invariant-laplacian", ok,
        f"100 pairs, h={h:g}, worst rel err {worst:.2e} (tol {tol:g}), "
        f"{elapsed:.1f}s (limit {limit:.0f}s)",
    )


def test_criterion_04_disc_laplacian_oracle(capsys):
    limit, tol, h = 5.0, 1e-6, 2e-4
    t0 = time.perf_counter()
    pairs = pair_corpus(100, dim=1, rmax=0.8, seed=SEED, stream=4)
    worst = 0.0
    for z, lam in pairs:
        closed = laplacian_poisson_disc(z, lam)
        fd = laplacian_fd(lambda p: poisson_kernel(p, lam, Space.disc()), z, h)
        worst = max(worst, abs(fd - closed) / abs(closed))
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < limit
    _verdict(
        capsys, 4, "disc-poisson-laplacian", ok,
        f"100 pairs, h={h:g}, worst rel err {worst:.2e} (tol {tol:g}), "
        f"{elapsed:.1f}s (limit {limit:.0f}s)",
    )


def test_criterion_05_greens_formula_disc(capsys):
    limit, tol = 5.0, 1e-8
    t0 = time.perf_counter()
    u = lambda zs: 1.0 - np.einsum("ij,ij->i", zs, zs.conj()).real
    lap = lambda zs: np.full(zs.shape[0], -4.0)
    q = QuadratureSpec(radial_order=64, angular_order=128, sphere_nodes=24)
    lhs, rhs, gap = greens_formula_check(u, Space.disc(), q, laplacian=lap)
    elapsed = time.perf_counter() - t0
    ok = gap <= tol and abs(lhs + 1.0) <= tol and abs(rhs + 1.0) <= tol and elapsed < limit
    _verdict(
        capsys, 5, "greens-formula-disc", ok,
        f"lhs={lhs:.12f}, rhs={rhs:.12f}, gap={gap:.2e} (tol {tol:g}), "
        f"{elapsed:.1f}s (limit {limit:.0f}s)",
    )


def test_criterion_06_greens_formula_ball(capsys):
    limit, tol = 60.0, 1e-3
    t0 = time.perf_counter()
    u = lambda zs: 1.0 - np.einsum("ij,ij->i", zs, zs.conj()).real
    lhs, rhs, gap = greens_formula_check(u, Space.ball(2))
    elapsed = time.perf_counter() - t0
    ok = gap <= tol and abs(rhs + 1.0) <= 1e-12 and elapsed < limit
    _verdict(
        capsys, 6, "greens-formula-ball", ok,
        f"lhs={lhs:.12f}, rhs={rhs:.12f}, gap={gap:.2e} (tol {tol:g}), "
        f"{elapsed:.1f}s (limit {limit:.0f}s)",
    )


def _uchiyama_corpora():
    disc = measure_poly_corpus(
        50, Space.disc(), max_atoms=5, rmax=0.8, max_degree=5, seed=SEED, stream=7
    )
    ball = measure_poly_corpus(
        10, Space.ball(2), max_atoms=5, rmax=0.6, max_degree=5, seed=SEED, stream=8
    )
    return disc, ball


def test_criterion_07_uchiyama_contraction(capsys):
    limit = 120.0
    t0 = time.perf_counter()
    disc, ball = _uchiyama_corpora()
    worst_disc = worst_ball = -math.inf
    for mu, f in disc:
        integral, norm_sq = uchiyama_checks(mu, f)[0]
        worst_disc = max(worst_disc, (integral - norm_sq) / norm_sq)
    for mu, f in ball:
        integral, norm_sq = uchiyama_checks(mu, f)[0]
        worst_ball = max(worst_ball, (integral - norm_sq) / norm_sq)
    elapsed = time.perf_counter() - t0
    ok = worst_disc <= 1e-6 and worst_ball <= 1e-3 and elapsed < limit
    _verdict(
        capsys, 7, "uchiyama-contraction", ok,
        f"50 disc pairs worst excess {worst_disc:.2e} (slack 1e-06), "
        f"10 ball pairs worst excess {worst_ball:.2e} (slack 1e-03), "
        f"{elapsed:.1f}s (limit {limit:.0f}s)",
    )


def test_criterion_08_key_inequality_at_atoms(capsys):
    limit = 120.0
    t0 = time.perf_counter()
    disc, ball = _uchiyama_corpora()
    worst_disc = worst_ball = -math.inf
    for mu, f in disc:
        for lhs, rhs in uchiyama_checks(mu, f)[2]:
            if rhs > 0.0:
                worst_disc = max(worst_disc, (rhs * (1 - 1e-6) - lhs) / rhs)
    for mu, f in ball:
        for lhs, rhs in uchiyama_checks(mu, f)[2]:
            if rhs > 0.0:
                worst_ball = max(worst_ball, (rhs - lhs) / rhs)
    elapsed = time.perf_counter() - t0
    ok = worst_disc <= 0.0 and worst_ball <= 1e-3 and elapsed < limit
    _verdict(
        capsys, 8, "key-inequality-at-atoms", ok,
        f"disc worst deficit {worst_disc:.2e} (factor 1-1e-06), "
        f"ball worst deficit {worst_ball:.2e} (slack 1e-03), "
        f"{elapsed:.1f}s (limit {limit:.0f}s)",
    )


def test_criterion_09_interpolation_exact_case(capsys):
    limit = 1.0
    t0 = time.perf_counter()
    seq = PointSequence(Space.disc(), [SpacePoint(0.5), SpacePoint(-0.5)])
    delta = carleson_delta(seq)
    k_sq = embedding_norm_sq(sequence_measure(seq))
    cond_root = orthogonalizer_cond(seq)
    rep = interpolation_report(seq, resolution=32)
    want_interp = 2 * math.e * 1.25 * (1 + 2 * math.log(1.25))
    checks = (
        abs(delta - 0.8) <= 1e-10,
        abs(k_sq - 1.6) <= 1e-10,
        abs(cond_root - 2.0) <= 1e-10,
        abs(cond_root - k_sq / delta) <= 1e-10,
        abs(rep.interp_constant - want_interp) <= 1e-10 * want_interp,
    )
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < limit
    _verdict(
        capsys, 9, "interpolation-exact-case", ok,
        f"delta={delta:.12f}, K^2={k_sq:.12f}, cond_root={cond_root:.12f}, "
        f"interp={rep.interp_constant:.12f} (want {want_interp:.12f}), "
        f"{elapsed:.2f}s (limit {limit:.0f}s)",
    )


def test_criterion_10_interpolation_fuzz(capsys):
    limit, slack = 60.0, 1e-9
    t0 = time.perf_counter()
    seqs = sequence_corpus(
        200, max_points=8, rmax=0.9, min_delta=0.05, seed=SEED, stream=10
    )
    worst_cond = worst_embed = -math.inf
    for seq in seqs:
        delta = carleson_delta(seq)
        mu = sequence_measure(seq)
        k_sq = embedding_norm_sq(mu)
        c_supp = kernel_constant_on_support(mu)
        cond_root = orthogonalizer_cond(seq)
        bound = k_sq / delta
        worst_cond = max(worst_cond, (cond_root - bound) / bound)
        worst_embed = max(worst_embed, (k_sq - 2 * math.e * c_supp) / k_sq)
    elapsed = time.perf_counter() - t0
    ok = worst_cond <= slack and worst_embed <= slack and elapsed < limit
    _verdict(
        capsys, 10, "interpolation-fuzz", ok,
        f"200 sequences, worst cond excess {worst_cond:.2e}, "
        f"worst embedding excess {worst_embed:.2e} (slack {slack:g}), "
        f"{elapsed:.1f}s (limit {limit:.0f}s)",
    )


def test_criterion_11_search_sanity(capsys):
    limit = 120.0
    t0 = time.perf_counter()
    single = search(
        SearchConfig(space=Space.disc(), atom_count=1, iterations=300, restarts=2, seed=42)
    )
    cfg = SearchConfig(
        space=Space.disc(), atom_count=2, iterations=2500, restarts=4, seed=42
    )
    run1 = search(cfg)
    run2 = search(cfg)
    vals = [v for _, v in run1.trace]
    monotone = all(a <= b for a, b in zip(vals, vals[1:]))
    identical = run1.best_ratio == run2.best_ratio and run1.trace == run2.trace
    elapsed = time.perf_counter() - t0
    ok = (
        abs(single.best_ratio - 1.0) <= 1e-9
        and 1.17 <= run1.best_ratio <= 2 * math.e * (1 + 1e-9)
        and monotone
        and identical
        and elapsed < limit
    )
    _verdict(
        capsys, 11, "search-sanity", ok,
        f"single-atom ratio {single.best_ratio:.12f}, two-atom best "
        f"{run1.best_ratio:.12f} in [1.17, 2e], monotone={monotone}, "
        f"rerun identical={identical}, {elapsed:.1f}s (limit {limit:.0f}s)",
    )


def test_criterion_12_constants_table(capsys):
    limit, tol = 1.0, 1e-12
    t0 = time.perf_counter()
    vals = {
        "disc": (theorem_bound_constant(Space.disc()), 2 * math.e),
        "ball1": (theorem_bound_constant(Space.ball(1)), 2 * math.e),
        "ball2": (theorem_bound_constant(Space.ball(2)), 6 * math.e),
        "ball3": (theorem_bound_constant(Space.ball(3)), 20 * math.e),
    }
    worst = max(abs(got - want) / want for got, want in vals.values())

    # cross-check beta_constant(n) = n * B(n+1, n) with B evaluated by
    # Gauss-Legendre on [0,1]; the integrand is a polynomial, so the
    # quadrature value is exact up to rounding
    nodes, weights = gauss_legendre(16)
    t = 0.5 * (nodes + 1.0)
    wt = 0.5 * weights
    worst_beta = 0.0
    for n in (1, 2, 3):
        quad = float(np.sum(wt * t**n * (1.0 - t) ** (n - 1)))
        worst_beta = max(worst_beta, abs(beta_constant(n) - n * quad))
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and worst_beta <= tol and elapsed < limit
    _verdict(
        capsys, 12, "constants-table", ok,
        f"bound rel err {worst:.2e}, beta vs quadrature {worst_beta:.2e} "
        f"(tol {tol:g}), {elapsed:.2f}s (limit {limit:.0f}s)",
    )


def test_criterion_13_quadrature_anchors(capsys):
    limit = 5.0
    t0 = time.perf_counter()
    q = QuadratureSpec(radial_order=64, angular_order=128, sphere_nodes=24)
    one = lambda zs: np.ones(zs.shape[0])
    area = disc_quadrature(one, q)
    log_moment = disc_quadrature(
        lambda zs: -0.5 * np.log((zs[:, 0] * zs[:, 0].conj()).real), q
    )
    circle_mass = boundary_quadrature(one, q, Space.disc())
    sphere_mass = boundary_quadrature(one, q, Space.ball(2))
    errs = (
        abs(area - math.pi),
        abs(log_moment - math.pi / 2.0),
        abs(circle_mass - 1.0),
        abs(sphere_mass - 1.0),
    )
    tols = (1e-12, 1e-8, 1e-10, 1e-10)
    elapsed = time.perf_counter() - t0
    ok = all(e <= t for e, t in zip(errs, tols)) and elapsed < limit
    _verdict(
        capsys, 13, "quadrature-anchors", ok,
        f"area err {errs[0]:.2e} (1e-12), log err {errs[1]:.2e} (1e-08), "
        f"circle mass err {errs[2]:.2e}, sphere mass err {errs[3]:.2e} (1e-10), "
        f"{elapsed:.1f}s (limit {limit:.0f}s)",
    )
