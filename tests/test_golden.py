"""Golden CLI outputs: every command on fixed inputs, against stored text.

Each case runs ``carlembed.cli.main`` in process on the input files in
tests/golden/ and compares its exit code and its non-numeric output
exactly, and every number in the output to GOLDEN_RTOL relative.  A
change that only simplifies code keeps all of these outputs.

The inputs were drawn once from fixed seeds with carlembed.corpus.  To
rewrite the inputs and the expected outputs (only when a change to the
outputs is intended, and say so in the change log):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from carlembed import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_RTOL = 1e-13

# name -> argv; {dir} is the golden directory, {out} an output file path.
CASES = {
    "disc-analyze": ["analyze", "{dir}/disc_mu.json", "--grid", "32"],
    "disc-analyze-csv": ["analyze", "{dir}/disc_mu.json", "--format", "csv", "--out", "{out}"],
    "disc-analyze-grid-limit": ["analyze", "{dir}/disc_mu.json", "--grid", "2048"],
    "disc-uchiyama": ["uchiyama", "{dir}/disc_mu.json", "--poly", "{dir}/disc_poly.json"],
    "disc-interpolate": ["interpolate", "{dir}/disc_seq.json", "--grid", "32"],
    "disc-green-radial": ["green-check", "--fn", "radial"],
    "disc-green-mixed": ["green-check", "--fn", "mixed", "--quad-order", "32"],
    "disc-verify": ["verify-identities", "--samples", "20", "--seed", "7"],
    "disc-search": ["search", "--atoms", "3", "--iters", "150", "--restarts", "2", "--seed", "5"],
    "ball-analyze": ["analyze", "{dir}/ball_mu.json"],
    "ball-uchiyama": ["uchiyama", "{dir}/ball_mu_small.json", "--poly", "{dir}/ball_poly.json"],
    "ball-green-mixed": ["green-check", "--space", "ball2", "--fn", "mixed"],
    "ball-verify": ["verify-identities", "--space", "ball2", "--samples", "10", "--seed", "3"],
    "ball-search": ["search", "--space", "ball2", "--atoms", "2", "--iters", "100",
                    "--restarts", "1", "--seed", "11"],
}

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def run_case(argv, out_path):
    """Exit code, stdout, stderr and the --out file of one in-process run, as text."""
    argv = [a.format(dir=GOLDEN, out=out_path) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    written = Path(out_path).read_text() if Path(out_path).exists() else ""
    return (f"exit {rc}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
            f"--- file\n{written}")


def _numbers_close(got, want):
    a, b = float(got), float(want)
    return a == b or abs(a - b) <= GOLDEN_RTOL * max(abs(a), abs(b))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    got = run_case(CASES[name], tmp_path / "out.txt")
    want = (GOLDEN / f"{name}.out").read_text()
    assert got.splitlines()[0] == want.splitlines()[0]  # the exit code
    assert _NUMBER.split(got) == _NUMBER.split(want), f"{name}: text differs\n{got}"
    got_nums, want_nums = _NUMBER.findall(got), _NUMBER.findall(want)
    bad = [(g, w) for g, w in zip(got_nums, want_nums) if not _numbers_close(g, w)]
    assert not bad, f"{name}: numbers beyond {GOLDEN_RTOL:g} relative: {bad}"


def _poly_to_dict(f):
    return {"dim": f.dim, "terms": [
        {"alpha": list(alpha), "re": c.real, "im": c.imag} for alpha, c in f.terms.items()
    ]}


def _write_inputs():
    from carlembed.corpus import random_measure, random_point, random_poly
    from carlembed.geometry import Space
    from carlembed.interpolation import PointSequence
    from carlembed.numerics import rng_stream

    disc, ball2 = Space.disc(), Space.ball(2)
    # name -> (stream of the seed, builder); streams picked for 15, 39 and 3 atoms.
    inputs = {
        "disc_mu": (1, lambda rng: cli.measure_to_dict(random_measure(rng, disc, 16, 0.95))),
        "disc_poly": (2, lambda rng: _poly_to_dict(random_poly(rng, 1, 4))),
        "disc_seq": (3, lambda rng: cli.sequence_to_dict(
            PointSequence(disc, [random_point(rng, 1, 0.9) for _ in range(8)])
        )),
        "ball_mu": (12, lambda rng: cli.measure_to_dict(random_measure(rng, ball2, 50, 0.9))),
        "ball_mu_small": (9, lambda rng: cli.measure_to_dict(random_measure(rng, ball2, 3, 0.6))),
        "ball_poly": (4, lambda rng: _poly_to_dict(random_poly(rng, 2, 3))),
    }
    for name, (stream, build) in inputs.items():
        data = build(rng_stream(20261018, stream))
        (GOLDEN / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    _write_inputs()
    out_path = GOLDEN / "out.tmp"
    for name, argv in sorted(CASES.items()):
        with contextlib.suppress(FileNotFoundError):
            out_path.unlink()
        (GOLDEN / f"{name}.out").write_text(run_case(argv, out_path))
    with contextlib.suppress(FileNotFoundError):
        out_path.unlink()


if __name__ == "__main__":
    _regenerate()
