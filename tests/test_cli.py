import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from carlembed import calculus, cli, extremal, interpolation, measure, numerics
from carlembed.errors import InputError

PAIR = {
    "space": {"kind": "disc"},
    "atoms": [
        {"point": [0.5, 0.0], "weight": 0.75},
        {"point": [-0.5, 0.0], "weight": 0.75},
    ],
}
POLY = {"dim": 1, "terms": [{"alpha": [0], "re": 1.0, "im": 0.0}]}
SEQ = {"space": {"kind": "disc"}, "points": [[0.5, 0.0], [-0.5, 0.0]]}
# Weights whose constants overflow: analyze exits 4.
HUGE = {"space": {"kind": "disc"}, "atoms": [{"point": [0.5, 0.0], "weight": 1e308},
                                             {"point": [-0.5, 0.0], "weight": 1e308}]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_analyze_json_output(tmp_path, capsys):
    path = write(tmp_path, "pair.json", PAIR)
    rc = cli.main(["analyze", path, "--grid", "16"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["a_sq"] == pytest.approx(1.6, abs=1e-12)
    assert out["c_supp"] == pytest.approx(1.36, abs=1e-13)
    assert out["holds"] is True
    assert out["grid_resolution"] == 16


def test_analyze_csv_output(tmp_path):
    path = write(tmp_path, "pair.json", PAIR)
    out_path = tmp_path / "report.csv"
    rc = cli.main(["analyze", path, "--format", "csv", "--out", str(out_path)])
    assert rc == 0
    header, row = out_path.read_text().strip().splitlines()
    assert header.startswith("a_sq,c_supp,c_grid,i_box,bound")
    cells = row.split(",")
    assert float(cells[0]) == pytest.approx(1.6, abs=1e-12)
    assert cells[6] == "true"


def test_measure_round_trip(tmp_path):
    mu = cli.measure_from_dict(PAIR)
    again = cli.measure_from_dict(json.loads(json.dumps(cli.measure_to_dict(mu))))
    assert again.atoms == mu.atoms


def test_sequence_round_trip():
    seq = cli.sequence_from_dict(SEQ)
    again = cli.sequence_from_dict(cli.sequence_to_dict(seq))
    assert again.points == seq.points


def test_malformed_json_names_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"space": {"kind": "disc"},\n  "atoms": [')
    rc = cli.main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line" in err and "column" in err


def test_missing_file_is_input_error(capsys):
    rc = cli.main(["analyze", "/nonexistent/mu.json"])
    assert rc == 2


def test_schema_violations(tmp_path, capsys):
    bad_weight = {
        "space": {"kind": "disc"},
        "atoms": [{"point": [0.5, 0.0], "weight": -1.0}],
    }
    rc = cli.main(["analyze", write(tmp_path, "w.json", bad_weight)])
    assert rc == 2
    bad_point = {
        "space": {"kind": "disc"},
        "atoms": [{"point": [2.0, 0.0], "weight": 1.0}],
    }
    rc = cli.main(["analyze", write(tmp_path, "p.json", bad_point)])
    assert rc == 2
    with pytest.raises(InputError):
        cli.space_from_dict({"kind": "polydisc"})
    for weight in (True, math.inf):
        bad = {"space": {"kind": "disc"}, "atoms": [{"point": [0.5, 0.0], "weight": weight}]}
        rc = cli.main(["analyze", write(tmp_path, "b.json", bad)])
        assert rc == 2


def test_analyze_overflow_is_numeric_error(tmp_path, capsys):
    rc = cli.main(["analyze", write(tmp_path, "huge.json", HUGE), "--grid", "8"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert "not finite" in captured.err


def test_overflowing_weights_print_one_error_line(tmp_path, capsys):
    # numpy's overflow warnings stay silent; the finiteness checks report,
    # with the exit code of a numerical failure for both commands
    over = {"space": {"kind": "disc"}, "atoms": [{"point": [0.9, 0.0], "weight": 1.5e308},
                                                 {"point": [0.0, 0.5], "weight": 1.0}]}
    poly = write(tmp_path, "f.json", POLY)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for mu in (over, HUGE):
            path = write(tmp_path, "mu.json", mu)
            assert cli.main(["analyze", path]) == 4
            assert capsys.readouterr() == (
                "", "numeric error: a_sq, c_supp, c_grid, i_box, bound, ratio not finite "
                    "in double precision\n")
            assert cli.main(["uchiyama", path, "--poly", poly]) == 4
            assert capsys.readouterr() == (
                "", "numeric error: Uchiyama integral is not finite: nan\n")
    assert caught == []


def test_duplicate_atoms_past_the_double_range_exit_2(tmp_path, capsys):
    atom = {"point": [0.5, 0.0], "weight": 1e308}
    path = write(tmp_path, "mu.json", {"space": {"kind": "disc"}, "atoms": [atom, atom]})
    poly = write(tmp_path, "f.json", POLY)
    for argv in (["analyze", path], ["uchiyama", path, "--poly", poly]):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", "input error: duplicate atoms sum to a weight past the double range\n")


@pytest.mark.parametrize("space, point, weight", [
    ({"kind": "disc"}, [0.9, 0.0], 1.5e308),
    ({"kind": "disc"}, [0.0, -0.999999], 1e303),
    ({"kind": "disc"}, [0.9999999, 0.0], 1e302),
    ({"kind": "ball", "dim": 2}, [0.0, 0.0, 0.9999, 0.0], 1e301),
    ({"kind": "ball", "dim": 2}, [0.7, 0.0, 0.0, 0.7], 1e307),
])
def test_overflowing_weight_times_kernel_never_holds(tmp_path, capsys, space, point, weight):
    # w K(lam, lam) overflows, and LAPACK returns a value for a matrix with
    # non-finite entries; c_supp carries the same P_lam(lam) = K(lam, lam)
    # term, so analyze's finiteness check refuses a verdict
    dim = space.get("dim", 1)
    atoms = [{"point": point, "weight": weight},
             {"point": [0.1] * (2 * dim), "weight": 1.0}]
    assert weight / (1.0 - sum(x * x for x in point)) ** dim == math.inf
    path = write(tmp_path, "mu.json", {"space": space, "atoms": atoms})
    assert cli.main(["analyze", path, "--grid", "8"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numeric error: ") and err.count("\n") == 1


def test_analyze_atoms_near_the_sphere_exit_0(tmp_path, capsys):
    # 1 - |z|^2 is about 6e-5 at the first atom; the zgemm Gram of this
    # measure is not Hermitian to the bit, and a_sq is the top eigenvalue
    # of the dense Gram matrix
    mu = {"space": {"kind": "ball", "dim": 2}, "atoms": [
        {"point": [-0.493963, -0.815761, -0.152982, 0.25898], "weight": 1.0},
        {"point": [0.761759, 0.073562, -0.370569, -0.526223], "weight": 1.0},
        {"point": [0.340729, 0.743935, 0.124128, -0.561246], "weight": 1.0}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["analyze", write(tmp_path, "mu.json", mu), "--grid", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    pts = np.array([a["point"] for a in mu["atoms"]])
    lam = pts[:, ::2] + 1j * pts[:, 1::2]
    dense = 1.0 / (1.0 - lam @ lam.conj().T) ** 2
    want = np.linalg.eigvalsh((dense + dense.conj().T) / 2)[-1]
    assert out["a_sq"] == pytest.approx(want, rel=1e-9)
    assert out["holds"] is True and out["ratio"] <= 3.0


def test_analyze_bound_constant_of_high_dimensional_balls(tmp_path, capsys):
    # (2n)! alone leaves double precision from n = 86; e (2n)!/(n!)^2
    # itself does from n = 514
    for dim, rc in ((86, 0), (600, 4)):
        atoms = [{"point": [0.3, 0.1] + [0.0] * (2 * dim - 2), "weight": 1.0},
                 {"point": [0.0] * (2 * dim - 2) + [-0.2, 0.4], "weight": 0.5}]
        mu = {"space": {"kind": "ball", "dim": dim}, "atoms": atoms}
        assert cli.main(["analyze", write(tmp_path, f"ball{dim}.json", mu), "--grid", "8"]) == rc
    assert capsys.readouterr().err == "numeric error: bound not finite in double precision\n"


def test_grid_above_cap_is_input_error(tmp_path, capsys):
    too_fine = str(measure.MAX_GRID_RESOLUTION + 1)
    rc = cli.main(["analyze", write(tmp_path, "pair.json", PAIR), "--grid", too_fine])
    assert rc == 2
    rc = cli.main(["interpolate", write(tmp_path, "seq.json", SEQ), "--grid", too_fine])
    assert rc == 2
    assert "resolution" in capsys.readouterr().err


def test_malformed_polynomial_is_input_error(tmp_path, capsys):
    mu_path = write(tmp_path, "pair.json", PAIR)
    for term in (
        {"alpha": [0], "re": "x"},
        {"alpha": [True], "re": 1.0},
        {"alpha": [1.5], "re": 1.0},
        {"alpha": ["1"], "re": 1.0},
        {"alpha": [-1], "re": 1.0},
    ):
        poly = write(tmp_path, "bad_poly.json", {"dim": 1, "terms": [term]})
        rc = cli.main(["uchiyama", mu_path, "--poly", poly])
        assert rc == 2, term
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("point", [["0.5", False], ["0.5", 0.0], [0.5, True], [0.5, None]])
def test_point_entries_must_be_json_numbers(point, tmp_path, capsys):
    # float() would take "0.5" and False; JSON strings and booleans are not reals
    mu = {"space": {"kind": "disc"}, "atoms": [{"point": point, "weight": 1.0}]}
    assert cli.main(["analyze", write(tmp_path, "mu.json", mu)]) == 2
    assert capsys.readouterr().err == "input error: atoms[0]: point entries must be numbers\n"
    seq = {"space": {"kind": "disc"}, "points": [[0.5, 0.0], point]}
    assert cli.main(["interpolate", write(tmp_path, "seq.json", seq)]) == 2
    assert capsys.readouterr().err == "input error: points[1]: point entries must be numbers\n"


@pytest.mark.parametrize("coeff", [{"re": "2", "im": True}, {"re": "2"}, {"im": False},
                                   {"re": 1.0, "im": None}])
def test_polynomial_coefficients_must_be_json_numbers(coeff, tmp_path, capsys):
    poly = {"dim": 1, "terms": [{"alpha": [1], "re": 1.0}, {"alpha": [0], **coeff}]}
    with pytest.raises(InputError, match=r"^terms\[1\]: re and im must be numbers$"):
        cli.poly_from_dict(poly)
    mu_path, poly_path = write(tmp_path, "pair.json", PAIR), write(tmp_path, "f.json", poly)
    assert cli.main(["uchiyama", mu_path, "--poly", poly_path]) == 2
    assert capsys.readouterr().err == "input error: terms[1]: re and im must be numbers\n"


def test_unknown_command_is_usage_error(capsys):
    rc = cli.main(["frobnicate"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_bad_flag_value_is_usage_error(capsys):
    rc = cli.main(["verify-identities", "--samples", "0"])
    assert rc == 1


@pytest.mark.parametrize("space", ["disc", "ball2"])
def test_verify_identities_fd_step_below_stencil_limit(space, capsys):
    # Points reach |z| = 0.8 and stencils need 1 - |z| > 2h: h = 0.1 is
    # refused up front, whatever the seed draws, and h = 0.099 runs.
    rc = cli.main(["verify-identities", "--space", space, "--fd-step", "0.1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "usage error: --fd-step must be below 0.1\n"
    for seed in range(8):
        argv = ["verify-identities", "--space", space, "--seed", str(seed), "--fd-step", "0.099"]
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc in (0, 3) and err == ""
        assert out.count("PASS") + out.count("FAIL") == 6


def test_verify_identities_runs_clean(capsys):
    rc = cli.main(["verify-identities", "--space", "disc", "--samples", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    rc = cli.main(["verify-identities", "--space", "ball2", "--samples", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out


def test_verify_identities_ball2_gradient_regression(capsys):
    # This seed printed a false FAIL while the gradient error was taken
    # relative to the closed form, whose two terms can nearly cancel.
    rc = cli.main(["verify-identities", "--space", "ball2", "--seed", "410215546"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS  poisson gradient vs stencil" in out


def test_verify_identities_ball2_catches_wrong_gradient(monkeypatch, capsys):
    closed = calculus.poisson_gradient_ball
    monkeypatch.setattr(
        calculus, "poisson_gradient_ball", lambda *args: 1.001 * closed(*args)
    )
    rc = cli.main(["verify-identities", "--space", "ball2", "--seed", "410215546"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL  poisson gradient vs stencil" in out
    assert out.count("FAIL") == 1


def test_green_check_disc_radial(capsys):
    rc = cli.main(["green-check", "--space", "disc", "--fn", "radial"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


def test_green_check_ball_mixed(capsys):
    rc = cli.main(
        ["green-check", "--space", "ball2", "--fn", "mixed", "--quad-order", "24"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


@pytest.mark.parametrize("space", ["disc", "ball2"])
@pytest.mark.parametrize("fn", ["one", "re1"])
def test_green_check_harmonic_functions(space, fn, capsys):
    rc = cli.main(["green-check", "--space", space, "--fn", fn])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith(f"fn: {fn} (")
    assert out.splitlines()[-1].endswith("PASS")


def test_uchiyama_command(tmp_path, capsys):
    mu_path = write(tmp_path, "pair.json", PAIR)
    poly_path = write(tmp_path, "poly.json", POLY)
    rc = cli.main(["uchiyama", mu_path, "--poly", poly_path])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 4  # contraction, corollary, two atoms


@pytest.mark.parametrize("space, point, flag", [
    ({"kind": "disc"}, [0.99, 0.0], "1 atom(s) with |lam| > 0.9 (up to 0.9900)"),
    ({"kind": "ball", "dim": 2}, [0.0, 0.0, 0.95, 0.0], "1 atom(s) with |lam| > 0.8 (up to 0.9500)"),
])
def test_uchiyama_flags_atoms_near_the_boundary(tmp_path, capsys, space, point, flag):
    dim = len(point) // 2
    inner = {"space": space, "atoms": [{"point": [0.3] + [0.0] * (2 * dim - 1), "weight": 1.0}]}
    outer = {"space": space, "atoms": inner["atoms"] + [{"point": point, "weight": 1.0}]}
    poly = {"dim": dim, "terms": [{"alpha": [0] * dim, "re": 1.0},
                                  {"alpha": [1] + [0] * (dim - 1), "re": 0.5}]}
    poly_path = write(tmp_path, "poly.json", poly)
    cli.main(["uchiyama", write(tmp_path, "inner.json", inner), "--poly", poly_path])
    assert capsys.readouterr().err == ""
    cli.main(["uchiyama", write(tmp_path, "outer.json", outer), "--poly", poly_path])
    out, err = capsys.readouterr()
    assert out.count("\n") == 4  # the verdicts, on stdout only
    assert err.count("\n") == 1 and err.startswith("warning: " + flag)
    assert not re.search(r"\bFAIL\b", err)


def test_quadrature_limits_are_input_errors(tmp_path, capsys):
    # Rejected while the QuadratureSpec or the rule is checked, before
    # any node is allocated.
    mu_path = write(tmp_path, "pair.json", PAIR)
    poly_path = write(tmp_path, "poly.json", POLY)
    rc = cli.main(["uchiyama", mu_path, "--poly", poly_path, "--quad-order", "513"])
    assert rc == 2
    assert "radial_order is a Gauss-Legendre order, at most 512" in capsys.readouterr().err
    rc = cli.main(["green-check", "--space", "disc", "--quad-order", "513"])
    assert rc == 2
    assert "at most 512" in capsys.readouterr().err
    # 400 * 24 * 32^2 = 9,830,400 ball(2) nodes, above the 2^23 cap
    rc = cli.main(["green-check", "--space", "ball2", "--fn", "mixed", "--quad-order", "400"])
    assert rc == 2
    assert "quadrature rule has 9830400 nodes, limit is 8388608" in capsys.readouterr().err


def test_uchiyama_dimension_mismatch(tmp_path, capsys):
    mu_path = write(tmp_path, "pair.json", PAIR)
    poly2 = {"dim": 2, "terms": [{"alpha": [0, 0], "re": 1.0}]}
    rc = cli.main(["uchiyama", mu_path, "--poly", write(tmp_path, "p2.json", poly2)])
    assert rc == 2
    ball = {"space": {"kind": "ball", "dim": 2}, "atoms": [{"point": [0.5, 0, 0, 0], "weight": 1}]}
    rc = cli.main(["uchiyama", write(tmp_path, "b.json", ball),
                   "--poly", write(tmp_path, "p1.json", POLY)])
    assert rc == 2
    assert "polynomial has dimension 1, space has 2" in capsys.readouterr().err


def test_uchiyama_refuses_degree_at_angular_order(tmp_path, capsys):
    # |f|^2 has angular modes up to +-deg f; the default disc rule has
    # angular order 128.  The checks run before any evaluation, so a huge
    # exponent exits at once instead of stepping through every power:
    # above MAX_POLY_DEGREE the file is refused when it is read.
    mu_path = write(tmp_path, "pair.json", PAIR)
    cap = calculus.MAX_POLY_DEGREE
    cases = [
        ([[128]], "polynomial degree 128 is not below angular order 128"),
        ([[200_000_000]], f"polynomial degree 200000000 exceeds the cap {cap}"),
        ([[2_000_000], [0]], f"polynomial degree 2000000 exceeds the cap {cap}"),
    ]
    for alphas, message in cases:
        poly = {"dim": 1, "terms": [{"alpha": alpha, "re": 1.0} for alpha in alphas]}
        start = time.perf_counter()
        rc = cli.main(["uchiyama", mu_path, "--poly", write(tmp_path, "big.json", poly)])
        assert time.perf_counter() - start < 5.0
        assert rc == 2
        assert message in capsys.readouterr().err
    poly = {"dim": 1, "terms": [{"alpha": [127], "re": 1.0}]}
    assert cli.main(["uchiyama", mu_path, "--poly", write(tmp_path, "p127.json", poly)]) != 2


def test_interpolate_command(tmp_path, capsys):
    rc = cli.main(["interpolate", write(tmp_path, "seq.json", SEQ), "--grid", "16"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "delta            = 0.8" in out
    assert "PASS" in out


def test_interpolate_checks_grid_before_eigensolves(tmp_path, capsys):
    # 400 random points: the Gram matrix is numerically singular, which
    # exits 4 if the eigensolves run before the grid limit is checked.
    rng = np.random.default_rng(0)
    z = 0.95 * np.sqrt(rng.random(400)) * np.exp(2j * np.pi * rng.random(400))
    seq = {"space": {"kind": "disc"}, "points": [[p.real, p.imag] for p in z]}
    path = write(tmp_path, "seq400.json", seq)
    rc = cli.main(["interpolate", path, "--grid", str(measure.MAX_GRID_RESOLUTION + 1)])
    assert rc == 2
    assert "resolution" in capsys.readouterr().err


def test_no_command_builds_a_whole_rule(tmp_path, capsys, monkeypatch):
    # every integral of every command streams its rule block by block
    def whole_rule(*args, **kwargs):
        raise AssertionError("a whole rule was built")

    for module in (numerics, calculus, cli, measure):
        for name in ("disc_rule", "ball_rule", "boundary_rule"):
            monkeypatch.setattr(module, name, whole_rule, raising=False)
    mu_ball = {"space": {"kind": "ball", "dim": 2},
               "atoms": [{"point": [0.3, 0.0, 0.0, 0.1], "weight": 1.0}]}
    poly_ball = {"dim": 2, "terms": [{"alpha": [1, 1], "re": 1.0, "im": 0.0}]}
    disc = [write(tmp_path, "mu.json", PAIR), "--poly", write(tmp_path, "f.json", POLY)]
    ball = [write(tmp_path, "mu2.json", mu_ball), "--poly", write(tmp_path, "f2.json", poly_ball)]
    runs = [
        ["analyze", disc[0]], ["interpolate", write(tmp_path, "seq.json", SEQ)],
        ["uchiyama", *disc], ["uchiyama", *ball, "--quad-order", "8"],
        ["verify-identities", "--samples", "3"],
        ["search", "--atoms", "2", "--iters", "5", "--restarts", "1"],
    ]
    runs += [["green-check", "--space", space, "--fn", fn, "--quad-order", "8"]
             for space in ("disc", "ball2") for fn in ("one", "radial", "re1", "mixed")]
    for argv in runs:
        assert cli.main(argv) != cli.EXIT_INPUT, argv
    capsys.readouterr()


def _refuse(*args, **kwargs):
    raise AssertionError("work the size guard refuses was started before it")


def test_oversize_inputs_exit_2_before_any_square_array(tmp_path, capsys, monkeypatch):
    for owner, name in [
        (interpolation.PointSequence, "values"), (measure, "_kernel_blocks"),
        (measure, "_poisson_blocks"), (extremal, "rng_stream"),
    ]:
        monkeypatch.setattr(owner, name, _refuse)
    count = measure.MAX_ATOMS + 1
    z = 0.9 * np.exp(2j * np.pi * np.arange(count) / count)
    seq = {"space": {"kind": "disc"}, "points": [[p.real, p.imag] for p in z]}
    assert cli.main(["interpolate", write(tmp_path, "seq.json", seq)]) == 2
    assert "sequence has 2001 points, practical guard is 2000" in capsys.readouterr().err
    for dim in (1, 2):
        points = [[p.real, p.imag] + [0.0, 0.0] * (dim - 1) for p in z]
        mu = {
            "space": {"kind": "disc"} if dim == 1 else {"kind": "ball", "dim": 2},
            "atoms": [{"point": p, "weight": 1.0} for p in points],
        }
        poly = POLY if dim == 1 else {"dim": 2, "terms": [{"alpha": [0, 0], "re": 1.0}]}
        mu_path = write(tmp_path, f"mu{dim}.json", mu)
        poly_path = write(tmp_path, f"poly{dim}.json", poly)
        assert cli.main(["uchiyama", mu_path, "--poly", poly_path]) == 2
        assert "measure has 2001 atoms, practical guard is 2000" in capsys.readouterr().err
        assert cli.main(["analyze", mu_path]) == 2
        assert "measure has 2001 atoms" in capsys.readouterr().err
    argv = ["search", "--atoms", str(count), "--iters", "1", "--restarts", "2"]
    assert cli.main(argv) == 2
    assert "search measures have 2001 atoms, practical guard is 2000" in capsys.readouterr().err
    # one generator per restart and the stacked raw vectors come before
    # any evaluation: 10^8 restarts would ask for about 65 GB
    assert cli.main(["search", "--atoms", "2", "--iters", "1", "--restarts", "100000000"]) == 2
    assert capsys.readouterr() == ("", "input error: restarts x atoms is 100000000 x 2, "
                                       "practical guard is 65536\n")


_DISC_ATOMS = [{"point": [0.5, 0.0], "weight": 1.0}]


@pytest.mark.parametrize("command, data, rc, message", [
    pytest.param("analyze", [], 2, "input error: measure file must contain a JSON object",
                 id="measure-not-object"),
    pytest.param("analyze", {"space": "disc", "atoms": _DISC_ATOMS}, 2,
                 "input error: space must be an object with a 'kind' field", id="space-not-object"),
    pytest.param("analyze", {"space": {"kind": "ball", "dim": 2.0}, "atoms": _DISC_ATOMS}, 2,
                 "input error: ball space needs a positive integer 'dim'", id="ball-dim-not-int"),
    pytest.param("analyze", {"space": {"kind": "ball", "dim": True}, "atoms": _DISC_ATOMS}, 2,
                 "input error: ball space needs a positive integer 'dim'", id="ball-dim-bool"),
    pytest.param("analyze", {"space": {"kind": "disc"}}, 2,
                 "input error: measure file needs a nonempty 'atoms' list", id="atoms-missing"),
    pytest.param("analyze", {"space": {"kind": "disc"}, "atoms": []}, 2,
                 "input error: measure file needs a nonempty 'atoms' list", id="atoms-empty"),
    pytest.param("analyze", {"space": {"kind": "disc"}, "atoms": [[0.5, 0.0]]}, 2,
                 "input error: atoms[0] must be an object", id="atom-not-object"),
    pytest.param("analyze", {"space": {"kind": "disc"}, "atoms": [{"point": [0.5], "weight": 1.0}]},
                 2, "input error: atoms[0]: point must be a list of 2 reals", id="point-length"),
    pytest.param("interpolate", [], 2, "input error: sequence file must contain a JSON object",
                 id="sequence-not-object"),
    pytest.param("interpolate", {"space": {"kind": "disc"}}, 2,
                 "input error: sequence file needs a nonempty 'points' list", id="points-missing"),
    pytest.param("interpolate", {"space": {"kind": "disc"}, "points": []}, 2,
                 "input error: sequence file needs a nonempty 'points' list", id="points-empty"),
    pytest.param("interpolate", {"space": {"kind": "ball", "dim": True}, "points": [[0.5, 0.0]]},
                 2, "input error: ball space needs a positive integer 'dim'",
                 id="sequence-dim-bool"),
    pytest.param("uchiyama", [], 2, "input error: polynomial file must contain a JSON object",
                 id="poly-not-object"),
    pytest.param("uchiyama", {"terms": []}, 2,
                 "input error: polynomial file needs a positive integer 'dim'", id="poly-no-dim"),
    pytest.param("uchiyama", {"dim": True, "terms": []}, 2,
                 "input error: polynomial file needs a positive integer 'dim'",
                 id="poly-dim-bool"),
    pytest.param("uchiyama", {"dim": 1, "terms": {}}, 2,
                 "input error: polynomial file needs a 'terms' list", id="terms-not-list"),
    pytest.param("uchiyama", {"dim": 1, "terms": [[0]]}, 2,
                 "input error: terms[0] must be an object", id="term-not-object"),
    pytest.param("uchiyama", {"dim": 1, "terms": [{"alpha": [0], "re": 10 ** 399}]}, 2,
                 "input error: terms[0]: re and im must be numbers", id="coeff-overflow"),
    pytest.param("uchiyama", {"dim": 1, "terms": [{"alpha": [0], "re": math.inf}]}, 2,
                 "input error: terms[0]: re and im must be finite", id="coeff-infinite"),
    *[pytest.param(command, raw, 2, "input error: {path}: " + reason, id=f"{command}-{kind}")
      for command in ("analyze", "interpolate", "uchiyama")
      for kind, raw, reason in [
          ("not-utf8", b'{"x": "\xff\xfe"}', "not UTF-8 text: invalid start byte at byte 7"),
          ("nested-100000", b"[" * 100000 + b"]" * 100000, "JSON nested too deeply to read"),
      ]],
    pytest.param("verify-identities --fd-step 0", None, 1,
                 "usage error: --fd-step must be positive", id="fd-step-zero"),
    pytest.param("verify-identities --tol 0", None, 1, "usage error: --tol must be positive",
                 id="tol-zero"),
    pytest.param("search --atoms 2 --iters 5 --restarts 1 --step-init inf", None, 2,
                 "input error: step_init must be positive and finite, got inf",
                 id="step-init-infinite"),
])
def test_malformed_input_exits_with_one_line_message(command, data, rc, message, tmp_path,
                                                     capsys):
    # the JSON module writes 10 ** 399 as 400 digits and math.inf as
    # Infinity, which json.load reads back; bytes are the file itself
    argv, path = command.split(), tmp_path / "data.json"
    if data is not None:
        path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
        argv = (["uchiyama", write(tmp_path, "pair.json", PAIR), "--poly", str(path)]
                if command == "uchiyama" else [command, str(path)])
    assert cli.main(argv) == rc
    assert capsys.readouterr() == ("", message.format(path=path) + "\n")


@pytest.mark.parametrize("command", ["analyze", "interpolate", "uchiyama"])
def test_coordinate_beyond_float_range_is_input_error(command, tmp_path, capsys):
    # JSON integers have no size limit, and float() of this one overflows
    point = [10 ** 400, 0.0]
    if command == "interpolate":
        data, where = {"space": {"kind": "disc"}, "points": [point, [0.5, 0.0]]}, "points[0]"
    else:
        data, where = {"space": {"kind": "disc"}, "atoms": [{"point": point, "weight": 1.0}]}, "atoms[0]"
    argv = [command, write(tmp_path, "big.json", data)]
    if command == "uchiyama":
        argv += ["--poly", write(tmp_path, "poly.json", POLY)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"input error: {where}: point entry out of floating-point range\n"


@pytest.mark.parametrize("argv", [
    ["search", "--atoms", "2", "--iters", "1", "--restarts", "1"],
    ["verify-identities", "--samples", "2"],
])
def test_seed_must_fit_in_64_bits(argv, capsys):
    assert cli.main(argv + ["--seed", str(2 ** 64)]) == 2
    assert capsys.readouterr().err == "input error: seed and stream must be integers in [0, 2**64)\n"
    assert cli.main(argv + ["--seed", str(2 ** 64 - 1)]) == 0


def test_search_ratio_above_the_bound_exits_3(capsys, monkeypatch):
    # every ratio is at least 1, the single-atom value; the search's own
    # warning prints under the command's silenced numpy warnings
    monkeypatch.setattr(cli.measure, "theorem_bound_constant", lambda space: 0.5)
    monkeypatch.setattr(extremal, "theorem_bound_constant", lambda space: 0.5)
    with pytest.warns(RuntimeWarning, match="above the theorem bound 0.5"):
        assert cli.main(["search", "--atoms", "2", "--iters", "5", "--restarts", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("best_ratio = ") and "(bound 0.5)" in err


def test_search_command_trace(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    args = [
        "search", "--space", "disc", "--atoms", "2", "--iters", "120",
        "--restarts", "2", "--seed", "42", "--out", str(out_path),
    ]
    rc = cli.main(args)
    err = capsys.readouterr().err
    assert rc == 0
    assert "best_ratio" in err
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "iteration,best_ratio"
    vals = [float(row.split(",")[1]) for row in lines[1:]]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert 1.0 - 1e-9 <= vals[-1] <= 2 * math.e * (1 + 1e-9)

    rc2 = cli.main(args)
    assert rc2 == 0
    assert out_path.read_text().strip().splitlines() == lines


@pytest.mark.parametrize("argv", [
    ["analyze", "{pair}"],
    ["search", "--atoms", "2", "--iters", "1", "--restarts", "1"],
])
def test_unwritable_out_is_input_error(argv, tmp_path, capsys):
    out_path = tmp_path / "missing" / "out.txt"
    argv = [a.format(pair=write(tmp_path, "pair.json", PAIR)) for a in argv]
    assert cli.main(argv + ["--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {out_path}: ")
    assert err.count("\n") == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0


# The parser main keeps for the life of the process.

GREEN_ONE = ["green-check", "--space", "disc", "--fn", "one"]


def run(argv, capsys):
    """Exit code (SystemExit's code for --help), stdout and stderr of one main call."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = ("SystemExit", exc.code)
    return (rc, *capsys.readouterr())


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli._main_parser.cache_clear()
    assert run(GREEN_ONE, capsys)[0] == 0
    assert built[0] == "carlembed" and len(built) == 7  # the parser and its six commands
    del built[:]
    assert run(GREEN_ONE, capsys)[0] == 0
    assert run(["analyze", "--help"], capsys)[0] == ("SystemExit", 0)
    assert built == []


@pytest.mark.parametrize("argv, rc", [
    (["bogus"], 1),
    (["green-check", "--fn", "nope"], 1),
    (["analyze", "/nonexistent/mu.json"], 2),
    (["analyze", "{huge}", "--grid", "8"], 4),
    (["--help"], ("SystemExit", 0)),
    (["analyze", "--help"], ("SystemExit", 0)),
])
def test_failed_calls_leave_the_next_call_unchanged(argv, rc, tmp_path, capsys):
    argv = [a.format(huge=write(tmp_path, "huge.json", HUGE)) for a in argv]
    before, first = run(GREEN_ONE, capsys), run(argv, capsys)
    after, second = run(GREEN_ONE, capsys), run(argv, capsys)
    assert before == after and before[0] == 0
    assert first == second and first[0] == rc
    if rc == ("SystemExit", 0):
        assert first[1].startswith("usage: carlembed") and first[2] == ""


def test_build_parser_returns_a_new_parser(capsys):
    argv = ["--extra", "x"] + GREEN_ONE
    before = run(argv, capsys)
    parser = cli.build_parser()
    assert parser is not cli.build_parser() and parser is not cli._main_parser()
    parser.add_argument("--extra")
    assert parser.parse_args(argv).extra == "x"
    assert run(argv, capsys) == before and before[0] == 1


def test_module_entry_point_reads_sys_argv(capsys):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "carlembed.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = module(*GREEN_ONE)
    assert (done.returncode, done.stdout) == run(GREEN_ONE, capsys)[:2]
    assert done.returncode == 0
    assert module("bogus").returncode == 1
