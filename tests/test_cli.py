import json
import math

import numpy as np
import pytest

from carlembed import calculus, cli, interpolation, measure
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
    huge = {
        "space": {"kind": "disc"},
        "atoms": [
            {"point": [0.5, 0.0], "weight": 1e308},
            {"point": [-0.5, 0.0], "weight": 1e308},
        ],
    }
    with np.errstate(all="ignore"):
        rc = cli.main(["analyze", write(tmp_path, "huge.json", huge), "--grid", "8"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert "not finite" in captured.err


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


def test_unknown_command_is_usage_error(capsys):
    rc = cli.main(["frobnicate"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_bad_flag_value_is_usage_error(capsys):
    rc = cli.main(["verify-identities", "--samples", "0"])
    assert rc == 1


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


def test_uchiyama_command(tmp_path, capsys):
    mu_path = write(tmp_path, "pair.json", PAIR)
    poly_path = write(tmp_path, "poly.json", POLY)
    rc = cli.main(["uchiyama", mu_path, "--poly", poly_path])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 4  # contraction, corollary, two atoms


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


def _refuse(*args, **kwargs):
    raise AssertionError("an atoms x atoms array was built before the size guard")


def test_oversize_inputs_exit_2_before_any_square_array(tmp_path, capsys, monkeypatch):
    for owner, name in [
        (interpolation, "carleson_delta"), (interpolation, "_szego_matrix"),
        (measure, "_szego_matrix"), (measure, "_poisson_matrix"),
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


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
