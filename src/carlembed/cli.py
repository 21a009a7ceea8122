"""Command-line frontend and the JSON/CSV serialization layer.

Exit codes: 0 success, 1 usage, 2 invalid input data, 3 a mathematical
inequality failed beyond its slack, 4 numerical failure.

File formats.  A measure file is
    {"space": {"kind": "disc"} | {"kind": "ball", "dim": n},
     "atoms": [{"point": [re1, im1, ..., re_n, im_n], "weight": w}, ...]}
A sequence file replaces "atoms" with "points": [[re, im], ...].  A
polynomial file is {"dim": n, "terms": [{"alpha": [..], "re": .., "im": ..}]}.
"""

import argparse
import cmath
import dataclasses
import json
import math
import sys

import numpy as np

from . import calculus, extremal, geometry, interpolation, measure
from .corpus import random_measure, random_point, random_poly
from .errors import (
    InputError,
    NumericError,
    SingularityError,
    UnsupportedError,
)
from .geometry import Space, SpacePoint
from .numerics import default_quadrature, rng_stream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VIOLATION = 3
EXIT_NUMERIC = 4

# Assertion slacks for the inequality-checking commands; the ball side
# is looser because its quadrature and stencils run at lower resolution.
DISC_SLACK = 1e-6
BALL_SLACK = 1e-3

# Values of --space in verify-identities, green-check and search.
_SPACES = {"disc": Space.disc(), "ball2": Space.ball(2)}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x):
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# Serialization.


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def space_from_dict(data):
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("space must be an object with a 'kind' field")
    kind = data["kind"]
    if kind == "disc":
        return Space.disc()
    if kind == "ball":
        dim = data.get("dim")
        if not isinstance(dim, int) or dim < 1:
            raise InputError("ball space needs a positive integer 'dim'")
        return Space.ball(dim)
    raise InputError(f"unknown space kind {kind!r}")


def space_to_dict(space):
    if space.kind == "disc":
        return {"kind": "disc"}
    return {"kind": "ball", "dim": space.dim}


def _point_from_list(raw, dim, where):
    if not isinstance(raw, list) or len(raw) != 2 * dim:
        raise InputError(f"{where}: point must be a list of {2 * dim} reals")
    try:
        values = [float(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: point entries must be numbers") from exc
    coords = [complex(values[2 * i], values[2 * i + 1]) for i in range(dim)]
    try:
        return SpacePoint(coords)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _point_to_list(point):
    out = []
    for c in point.coords:
        out.extend((c.real, c.imag))
    return out


def measure_from_dict(data):
    if not isinstance(data, dict):
        raise InputError("measure file must contain a JSON object")
    space = space_from_dict(data.get("space"))
    atoms_raw = data.get("atoms")
    if not isinstance(atoms_raw, list) or not atoms_raw:
        raise InputError("measure file needs a nonempty 'atoms' list")
    atoms = []
    for i, entry in enumerate(atoms_raw):
        if not isinstance(entry, dict):
            raise InputError(f"atoms[{i}] must be an object")
        point = _point_from_list(entry.get("point"), space.dim, f"atoms[{i}]")
        weight = entry.get("weight")
        if (
            isinstance(weight, bool)
            or not isinstance(weight, (int, float))
            or not 0 < weight <= sys.float_info.max
        ):
            raise InputError(f"atoms[{i}]: weight must be a positive finite number")
        atoms.append((point, float(weight)))
    return measure.DiscreteMeasure(space, atoms)


def measure_to_dict(mu):
    return {
        "space": space_to_dict(mu.space),
        "atoms": [
            {"point": _point_to_list(p), "weight": w} for p, w in mu.atoms
        ],
    }


def sequence_from_dict(data):
    if not isinstance(data, dict):
        raise InputError("sequence file must contain a JSON object")
    space = space_from_dict(data.get("space"))
    pts_raw = data.get("points")
    if not isinstance(pts_raw, list) or not pts_raw:
        raise InputError("sequence file needs a nonempty 'points' list")
    points = [
        _point_from_list(raw, space.dim, f"points[{i}]") for i, raw in enumerate(pts_raw)
    ]
    return interpolation.PointSequence(space, points)


def sequence_to_dict(seq):
    return {
        "space": space_to_dict(seq.space),
        "points": [_point_to_list(p) for p in seq.points],
    }


def poly_from_dict(data):
    if not isinstance(data, dict):
        raise InputError("polynomial file must contain a JSON object")
    dim = data.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise InputError("polynomial file needs a positive integer 'dim'")
    terms_raw = data.get("terms")
    if not isinstance(terms_raw, list):
        raise InputError("polynomial file needs a 'terms' list")
    terms = {}
    for i, entry in enumerate(terms_raw):
        if not isinstance(entry, dict):
            raise InputError(f"terms[{i}] must be an object")
        alpha = entry.get("alpha")
        if (
            not isinstance(alpha, list)
            or len(alpha) != dim
            or any(isinstance(a, bool) or not isinstance(a, int) or a < 0 for a in alpha)
        ):
            raise InputError(f"terms[{i}]: alpha must be a list of {dim} non-negative integers")
        try:
            coeff = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"terms[{i}]: re and im must be numbers") from exc
        if not cmath.isfinite(coeff):
            raise InputError(f"terms[{i}]: re and im must be finite")
        key = tuple(alpha)
        terms[key] = terms.get(key, 0.0) + coeff
    return calculus.MultiPoly(dim, terms)


def analysis_report_to_dict(report, space):
    return {"space": space_to_dict(space), **dataclasses.asdict(report)}


def analysis_report_to_csv(report):
    """A header row and a value row: "" for None, lower-case bools."""
    names = [f.name for f in dataclasses.fields(report)]
    cells = [getattr(report, name) for name in names]
    row = ["" if v is None else _fmt(v) if isinstance(v, float) else str(v).lower() for v in cells]
    return ",".join(names) + "\n" + ",".join(row) + "\n"


def _write_output(text, out_path):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Commands.


def _cmd_analyze(args):
    mu = measure_from_dict(load_json(args.path))
    report = measure.analyze(mu, resolution=args.grid)
    if args.format == "json":
        text = json.dumps(
            analysis_report_to_dict(report, mu.space), indent=2, allow_nan=False
        ) + "\n"
    else:
        text = analysis_report_to_csv(report)
    _write_output(text, args.out)
    return EXIT_OK if report.holds else EXIT_VIOLATION


def _random_pair(rng, dim, rmax):
    """(lam, z), drawn in that order."""
    return random_point(rng, dim, rmax), random_point(rng, dim, rmax)


def _worst(count, trial):
    """Largest error over count calls of trial, and at least 0.0."""
    err = 0.0
    for _ in range(count):
        err = max(err, trial())
    return err


def _verify(space, rng, samples, h, tol):
    """Identity rows of one space, drawing from rng in row order."""
    n = space.dim
    disc = space.kind == "disc"

    def normalization():
        lam = random_point(rng, n, 0.95)
        want = (1.0 - lam.norm_sq) ** (-n / 2.0)
        got = geometry.normalized_kernel(lam, lam, space)
        return abs(got - want) / abs(want)

    def involution():
        lam, z = _random_pair(rng, n, 0.9)
        back = geometry.mobius(lam, geometry.mobius(lam, z, space), space)
        return max(abs(a - b) for a, b in zip(back.coords, z.coords))

    def norm_identity():
        lam, z = _random_pair(rng, n, 0.9)
        image = geometry.mobius(lam, z, space)
        want = (1.0 - lam.norm_sq) * (1.0 - z.norm_sq) / abs(
            1.0 - geometry.inner(z, lam)
        ) ** 2
        return abs((1.0 - image.norm_sq) - want) / want

    rows = [
        ("kernel normalization", _worst(samples, normalization), tol),
        ("mobius involution", _worst(samples, involution), tol),
        ("mobius norm identity", _worst(samples, norm_identity), tol),
    ]
    rows += (_disc_rows if disc else _ball_rows)(space, rng, samples, h, tol)

    # e^phi |f|^2 is (invariantly) subharmonic with Laplacian at least
    # e^phi Lap(phi) |f|^2; checked by stencil against the closed form.
    cap, degree, radius = (25, 3, 0.8) if disc else (10, 2, 0.75)

    def minorant():
        mu = random_measure(rng, space, 3, 0.6)
        f = random_poly(rng, n, degree)
        z = random_point(rng, n, radius)

        def u(p):
            val = f(p)
            return math.exp(measure.carleson_potential(mu, p)) * (val * val.conjugate()).real

        if disc:
            lhs = calculus.laplacian_fd(u, z, h)
        else:
            lhs = calculus.invariant_laplacian_fd(u, z, space, h)
        fz = f(z)
        rhs = (
            math.exp(measure.carleson_potential(mu, z))
            * calculus.potential_laplacian_closed(mu, z)
            * (fz * fz.conjugate()).real
        )
        return (rhs - lhs) / (1.0 + abs(rhs))

    name = "subharmonic minorant" if disc else "invariant subharmonic minorant"
    rows.append((name, _worst(min(samples, cap), minorant), max(tol, 200.0 * h * h)))
    return rows


def _disc_rows(space, rng, samples, h, tol):
    def jacobian():
        lam, z = _random_pair(rng, 1, 0.8)
        l0, z0 = lam.coords[0], z.coords[0]
        deriv = (
            geometry.mobius(lam, SpacePoint(z0 + h), space).coords[0]
            - geometry.mobius(lam, SpacePoint(z0 - h), space).coords[0]
        ) / (2.0 * h)
        want = ((1.0 - lam.norm_sq) / abs(1.0 - l0.conjugate() * z0) ** 2) ** 2
        got = (deriv * deriv.conjugate()).real
        return abs(got - want) / want

    def laplacian():
        lam, z = _random_pair(rng, 1, 0.8)
        closed = calculus.laplacian_poisson_disc(z, lam)
        fd = calculus.laplacian_fd(lambda p: geometry.poisson_kernel(p, lam, space), z, h)
        return abs(fd - closed) / abs(closed)

    return [
        ("mobius jacobian vs stencil", _worst(samples, jacobian), tol),
        ("poisson laplacian vs stencil", _worst(samples, laplacian), tol),
    ]


def _ball_rows(space, rng, samples, h, tol):
    n = space.dim

    def laplacian():
        lam, z = _random_pair(rng, n, 0.75)
        closed = calculus.invariant_laplacian_poisson_ball(z, lam, space)
        fd = calculus.invariant_laplacian_fd(
            lambda p: geometry.poisson_kernel(p, lam, space), z, space, h
        )
        return abs(fd - closed) / abs(closed)

    def gradient():
        lam, z = _random_pair(rng, n, 0.8)
        j = int(rng.integers(1, n + 1))
        closed = calculus.poisson_gradient_ball(z, lam, j, space)

        def u(delta):
            c = list(z.coords)
            c[j - 1] += delta
            return geometry.poisson_kernel(SpacePoint(c), lam, space)

        ux = (u(h) - u(-h)) / (2.0 * h)
        uy = (u(1j * h) - u(-1j * h)) / (2.0 * h)
        fd = 0.5 * (ux - 1j * uy)
        # The two terms of the closed form can nearly cancel, so the error
        # is measured against the sum of their magnitudes instead.
        scale = n * geometry.poisson_kernel(z, lam, space) * (
            abs(lam.coords[j - 1]) / abs(1.0 - geometry.inner(z, lam))
            + abs(z.coords[j - 1]) / (1.0 - z.norm_sq)
        )
        return abs(fd - closed) / scale

    return [
        ("invariant laplacian vs stencil", _worst(samples, laplacian), tol),
        ("poisson gradient vs stencil", _worst(samples, gradient), tol),
    ]


def _cmd_verify_identities(args):
    if args.samples < 1:
        raise _UsageError("--samples must be >= 1")
    if not args.fd_step > 0:
        raise _UsageError("--fd-step must be positive")
    if not args.tol > 0:
        raise _UsageError("--tol must be positive")
    space = _SPACES[args.space]
    rows = _verify(space, rng_stream(args.seed, 0), args.samples, args.fd_step, args.tol)
    failed = 0
    for name, err, tol in rows:
        ok = err <= tol
        failed += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name:34s} max_err={err:.3e}  tol={tol:.3e}")
    return EXIT_OK if failed == 0 else EXIT_VIOLATION


_GREEN_FNS = {
    "one": "u = 1",
    "radial": "u = 1 - |z|^2",
    "re1": "u = Re z_1",
    "mixed": "u = |z|^4 (disc) or |z_1 z_2|^2 (ball)",
}


def _green_case(space, name):
    if name == "one":
        return (lambda zs: np.ones(zs.shape[0])), (lambda zs: np.zeros(zs.shape[0]))
    if name == "radial":
        u = lambda zs: 1.0 - geometry._norm_sq_rows(zs)
        lap = (lambda zs: np.full(zs.shape[0], -4.0)) if space.kind == "disc" else None
        return u, lap
    if name == "re1":
        u = lambda zs: zs[:, 0].real
        lap = (lambda zs: np.zeros(zs.shape[0])) if space.kind == "disc" else None
        return u, lap
    if space.kind == "disc":
        u = lambda zs: geometry._norm_sq_rows(zs) ** 2
        lap = lambda zs: 16.0 * geometry._norm_sq_rows(zs)
        return u, lap
    u = lambda zs: ((zs[:, 0] * zs[:, 0].conj()) * (zs[:, 1] * zs[:, 1].conj())).real
    return u, None


def _cmd_green_check(args):
    space = _SPACES[args.space]
    q = dataclasses.replace(default_quadrature(space), radial_order=args.quad_order)
    if space.kind == "disc":
        q = dataclasses.replace(q, angular_order=max(2 * args.quad_order, 8))
    u, lap = _green_case(space, args.fn)
    lhs, rhs, gap = calculus.greens_formula_check(u, space, q, laplacian=lap)
    ok = gap <= q.tol
    print(f"fn: {args.fn} ({_GREEN_FNS[args.fn]})")
    print(f"lhs = {_fmt(lhs)}")
    print(f"rhs = {_fmt(rhs)}")
    print(f"gap = {gap:.3e}  tol = {q.tol:.1e}  {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_uchiyama(args):
    mu = measure_from_dict(load_json(args.path))
    f = poly_from_dict(load_json(args.poly))
    q = default_quadrature(mu.space)
    if args.quad_order is not None:
        q = dataclasses.replace(q, radial_order=args.quad_order)
    slack = DISC_SLACK if mu.space.kind == "disc" else BALL_SLACK
    failed = 0

    (integral, norm_sq), (corollary, bound), keys = calculus.uchiyama_checks(mu, f, q)
    ok = integral <= norm_sq * (1.0 + slack) + 1e-15
    failed += 0 if ok else 1
    print(
        f"{'PASS' if ok else 'FAIL'}  contraction      "
        f"integral={_fmt(integral)}  norm_sq={_fmt(norm_sq)}"
    )

    ok = corollary <= bound * (1.0 + slack) + 1e-15
    failed += 0 if ok else 1
    print(
        f"{'PASS' if ok else 'FAIL'}  bounded corollary "
        f"integral={_fmt(corollary)}  bound={_fmt(bound)}"
    )

    for idx, (lhs, rhs) in enumerate(keys):
        ok = lhs >= rhs * (1.0 - slack) - 1e-15
        failed += 0 if ok else 1
        print(
            f"{'PASS' if ok else 'FAIL'}  key inequality at atom {idx}: "
            f"lhs={_fmt(lhs)}  rhs={_fmt(rhs)}"
        )
    return EXIT_OK if failed == 0 else EXIT_VIOLATION


def _cmd_interpolate(args):
    seq = sequence_from_dict(load_json(args.path))
    report = interpolation.interpolation_report(seq, resolution=args.grid)
    print(f"delta            = {_fmt(report.delta)}")
    print(f"k_sq             = {_fmt(report.k_sq)}")
    print(f"k_sq_bound       = {_fmt(report.k_sq_bound)}")
    print(f"gram_cond_root   = {_fmt(report.gram_cond_root)}")
    print(f"orth_bound       = {_fmt(report.orth_bound)}")
    print(f"interp_constant  = {_fmt(report.interp_constant)}")
    print(f"kernel_sup       = {_fmt(report.kernel_sup)}  (grid {report.grid_resolution})")
    print(f"kernel_sup_bound = {_fmt(report.kernel_sup_bound)}")
    print(f"cond <= delta^-1 K^2 : {'PASS' if report.holds_cond else 'FAIL'}")
    print(f"K^2 <= 2e(1+2 ln d^-1): {'PASS' if report.holds_embedding else 'FAIL'}")
    print(
        "kernel_sup <= bound  : "
        f"{'yes' if report.holds_kernel_sup else 'no'} (reported, not asserted)"
    )
    ok = report.holds_cond and report.holds_embedding
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_search(args):
    space = _SPACES[args.space]
    cfg = extremal.SearchConfig(
        space=space,
        atom_count=args.atoms,
        iterations=args.iters,
        restarts=args.restarts,
        seed=args.seed,
        step_init=args.step_init,
        step_decay=args.step_decay,
    )
    result = extremal.search(cfg)
    lines = ["iteration,best_ratio"]
    lines.extend(f"{it},{_fmt(val)}" for it, val in result.trace)
    _write_output("\n".join(lines) + "\n", args.out)
    bound = measure.theorem_bound_constant(space)
    print(f"best_ratio = {_fmt(result.best_ratio)}  (bound {_fmt(bound)})", file=sys.stderr)
    print(
        "best_measure = " + json.dumps(measure_to_dict(result.best_measure)),
        file=sys.stderr,
    )
    if result.best_ratio > bound * (1.0 + 1e-9):
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly.


def build_parser():
    parser = _Parser(
        prog="carlembed",
        description=(
            "Carleson constants, Hardy-space embedding norms, and proof-identity "
            "verification for finitely supported measures on the disc and the "
            "two-dimensional complex ball."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="constants and theorem verdict for a measure file")
    p.add_argument("path", help="measure JSON file")
    p.add_argument("--grid", type=int, default=64, help="grid resolution (default 64)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify-identities", help="kernel and Laplacian identity suites")
    p.add_argument("--space", choices=tuple(_SPACES), default="disc")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--fd-step", type=float, default=1e-3, dest="fd_step")
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=_cmd_verify_identities)

    p = sub.add_parser("green-check", help="Green's formula on a named test function")
    p.add_argument("--space", choices=tuple(_SPACES), default="disc")
    p.add_argument("--fn", choices=tuple(_GREEN_FNS), default="radial")
    p.add_argument("--quad-order", type=int, default=64, dest="quad_order")
    p.set_defaults(func=_cmd_green_check)

    p = sub.add_parser("uchiyama", help="contraction, corollary, and key inequalities")
    p.add_argument("path", help="measure JSON file")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--quad-order", type=int, default=None, dest="quad_order")
    p.set_defaults(func=_cmd_uchiyama)

    p = sub.add_parser("interpolate", help="separation constant and Gram conditioning")
    p.add_argument("path", help="sequence JSON file")
    p.add_argument("--grid", type=int, default=64)
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("search", help="hill-climbing probe of the sharpness conjecture")
    p.add_argument("--space", choices=tuple(_SPACES), default="disc")
    p.add_argument("--atoms", type=int, default=2)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--step-init", type=float, default=0.5, dest="step_init")
    p.add_argument("--step-decay", type=float, default=0.9, dest="step_decay")
    p.add_argument("--out", default=None, help="trace CSV path (default stdout)")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, UnsupportedError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericError, SingularityError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
