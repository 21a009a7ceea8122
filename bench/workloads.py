"""Workload definitions: seeded input files and the command cycle of each workload.

A workload is a fixed cycle of CLI commands.  Operation i runs command
``cycle[i % len(cycle)]`` on input number ``i // len(cycle)`` of that
command's pool, taken modulo the pool size.  Problem sizes (atom counts,
point counts) are stratified rather than drawn at random, and a run
stops only after whole rounds, in which every input of every pool runs
equally often; so every run sees the same mix of sizes and only the
coordinates depend on the seed.  The program only ever sees the
generated files and argv.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import separation_delta

NAMES = ("disc-analyze", "disc-suite", "ball-analyze", "ball-certify", "ball-green", "search")

# The machine-speed probe (probes.py) whose work is most like each
# workload's dominant work: Python-level loops, one large dense
# eigensolve, or arithmetic over arrays of a million quadrature nodes.
# ball-green has none: over two pairs of ten-run sets the arrays probe
# more than doubled its spread and once moved its median by 22% while
# the raw median moved 12%, so its times are reported raw.
PROBE = {
    "disc-analyze": "interpreter",
    "disc-suite": "interpreter",
    "ball-analyze": "lapack",
    "ball-certify": "arrays",
    "ball-green": None,
    "search": "interpreter",
}

# Search problem shape; search_eval_us divides by RESTARTS * (ITERS + 1).
# 500 iterations keep an operation near half a second, so that a run
# holds enough operations for a steady median.
SEARCH_ATOMS = 8
SEARCH_RESTARTS = 4
SEARCH_ITERS = 500


@dataclass
class Op:
    """One CLI invocation and what its checker needs to know about the inputs."""

    command: str  # metric stem: analyze, interpolate, certify, green, verify, search
    argv: list
    data: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    cycle: list  # one list of Op per command, in cycle order

    def op(self, i):
        pool = self.cycle[i % len(self.cycle)]
        return pool[(i // len(self.cycle)) % len(pool)]

    @property
    def commands(self):
        return [pool[0].command for pool in self.cycle]

    @property
    def round(self):
        """Operations in a round: every input of every pool equally often."""
        return len(self.cycle) * math.lcm(*(len(pool) for pool in self.cycle))


def _point(rng, dim, rmax):
    """Uniform direction, radius uniform in [0, rmax); 2*dim interleaved reals."""
    raw = rng.normal(size=2 * dim)
    raw *= rmax * rng.random() / math.sqrt(float(raw @ raw))
    return [float(x) for x in raw]


def _measure(rng, dim, atoms, rmax):
    space = {"kind": "disc"} if dim == 1 else {"kind": "ball", "dim": dim}
    return {
        "space": space,
        "atoms": [
            {"point": _point(rng, dim, rmax), "weight": math.exp(rng.normal(0.0, 0.5))}
            for _ in range(atoms)
        ],
    }


def _poly(rng, dim, degree):
    if dim == 1:
        alphas = [[k] for k in range(degree + 1)]
    else:
        alphas = [[a, b] for a in range(degree + 1) for b in range(degree + 1 - a)]
    return {
        "dim": dim,
        "terms": [
            {"alpha": alpha, "re": float(rng.normal()), "im": float(rng.normal())}
            for alpha in alphas
        ],
    }


def _sequence(rng, points, rmax, min_delta):
    """Rejection-sample a disc sequence whose separation constant exceeds min_delta."""
    while True:
        pts = [_point(rng, 1, rmax) for _ in range(points)]
        z = np.array([complex(x, y) for x, y in pts])
        if separation_delta(z) > min_delta:
            return {"space": {"kind": "disc"}, "points": pts}


def _write(directory, name, obj):
    path = Path(directory) / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _analyze_pool(rng, directory, dim, atoms, count, rmax):
    pool = []
    for k in range(count):
        mu = _measure(rng, dim, atoms, rmax)
        path = _write(directory, f"analyze{k}.json", mu)
        pool.append(Op("analyze", ["analyze", path], {"measure": mu}))
    return pool


def _uchiyama_pool(rng, directory, dim, atom_counts, rmax, degree):
    pool = []
    for k, atoms in enumerate(atom_counts):
        mu = _measure(rng, dim, atoms, rmax)
        poly = _poly(rng, dim, degree)
        mpath = _write(directory, f"uchiyama{k}.json", mu)
        ppath = _write(directory, f"poly{k}.json", poly)
        pool.append(
            Op("certify", ["uchiyama", mpath, "--poly", ppath], {"measure": mu, "poly": poly})
        )
    return pool


def build(name, seed, directory, tiny=False):
    """Write the inputs of workload `name` for `seed` into `directory`.

    tiny shrinks every problem so that the benchmark's own tests can run
    every workload in seconds; the shapes stay the same.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    Path(directory).mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, NAMES.index(name)])

    if name == "disc-analyze":
        # 100 atoms up to rmax 0.95, four inputs per run.
        return Workload(name, [_analyze_pool(rng, directory, 1, 12 if tiny else 100, 4, 0.95)])

    if name == "disc-suite":
        # The millisecond disc commands, four inputs each.
        # interpolate: criterion-10 shapes, 2 to 8 points, delta > 0.05.
        # uchiyama: criterion-07 shapes, 1 to 5 atoms, rmax 0.8, degree 5.
        interpolate = []
        for k, points in enumerate((2, 4, 6, 8)):
            seq = _sequence(rng, points, 0.9, 0.05)
            path = _write(directory, f"sequence{k}.json", seq)
            interpolate.append(Op("interpolate", ["interpolate", path], {"sequence": seq}))
        uchiyama = _uchiyama_pool(rng, directory, 1, [1, 2, 4, 5], 0.8, 5)
        green = [
            Op("green", ["green-check", "--space", "disc", "--fn", fn], {"space": "disc", "fn": fn})
            for fn in ("one", "radial", "re1", "mixed")
        ]
        verify = [
            Op("verify", ["verify-identities", "--space", "disc", "--seed", str(s)])
            for s in rng.integers(0, 2**31, size=4)
        ]
        return Workload(name, [interpolate, uchiyama, green, verify])

    if name == "ball-analyze":
        # At the MAX_ATOMS = 2000 guard.  One input per run keeps the
        # rounds short and the dense oracle cheap; the seed varies it.
        return Workload(name, [_analyze_pool(rng, directory, 2, 20 if tiny else 2000, 1, 0.95)])

    if name == "ball-certify":
        # Criteria 07/08 ball shapes: 3 atoms, rmax 0.6, degree 5; one
        # input per run.
        uchiyama = _uchiyama_pool(rng, directory, 2, [3], 0.6, 5)
        if tiny:
            uchiyama[0].argv += ["--quad-order", "8"]
        return Workload(name, [uchiyama])

    if name == "ball-green":
        # The finite-difference path of green-check.  The command takes no
        # input file, so the seed changes nothing here.
        # verify-identities --space ball2 is left out of the ball
        # workloads: for about a quarter of its --seed values the program
        # prints a false FAIL (README.md), and a benchmark workload must
        # be free of failing operations.
        argv = ["green-check", "--space", "ball2", "--fn", "mixed"]
        if tiny:
            argv += ["--quad-order", "8"]
        return Workload(name, [[Op("green", argv, {"space": "ball2", "fn": "mixed"})]])

    iters = 20 if tiny else SEARCH_ITERS
    seeds = [int(s) for s in rng.integers(0, 2**31, size=4)]
    search = [
        Op(
            "search",
            ["search", "--space", "disc", "--atoms", str(SEARCH_ATOMS),
             "--restarts", str(SEARCH_RESTARTS), "--iters", str(iters), "--seed", str(s)],
            {"evals": SEARCH_RESTARTS * (iters + 1)},
        )
        for s in seeds
    ]
    return Workload(name, [search])
