"""carlembed benchmark: one workload, one client, closed loop, in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; carlembed is imported from ./src.  Each
operation calls carlembed.cli.main(argv) on inputs generated from the
seed, back to back, for S seconds rounded up to whole rounds of the
workload's inputs, and for at least one round.  Outputs are checked
against plain-numpy oracles after the timed loop.  The last line of
stdout is the result JSON; the line before it, and
.bench_out/<workload>-s<seed>/result-trace<k>.json, hold the environment
record and per-command details.

--trace 0 reports the end-to-end metrics, scaled to a quiet machine's
speed by the workload's probe (probes.py), which runs in a second
interpreter.  --trace 1 runs every
operation twice, untraced and traced in alternating order, and reports
the per-layer metrics, the untraced per-command times and the tracing
overhead measured from those pairs; its spans go to spans.json.
Thread settings are left at the library defaults and only recorded.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_REPS = 3

# Metric names and units, in the order of BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
MARGINS = {  # per-layer name: (checker margin, aggregate)
    "measure.sandwich_slack_min": ("sandwich_slack", min),
    "numerics.oracle_rel_err_max": ("oracle_rel_err", max),
    "calculus.key_deficit_max": ("key_deficit", max),
    "calculus.contraction_excess_max": ("contraction_excess", max),
    "calculus.green_gap_max": ("green_gap", max),
}


def _die(message):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_cli():
    """Import carlembed.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "carlembed" / "cli.py").is_file():
        _die(f"no carlembed sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import carlembed.cli

    if Path(carlembed.cli.__file__).resolve().parent != (SRC / "carlembed").resolve():
        _die(f"imported carlembed from {carlembed.cli.__file__}, not from {SRC}")
    return carlembed.cli


def child_import_seconds():
    """Wall seconds to import carlembed.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import carlembed.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def environment(seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var, "unset")
           for var in ("CARLEMBED_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "commit": commit,
        "seed": seed,
    }


class Execution:
    """Outcome of one call of cli.main."""

    def __init__(self, op, traced):
        self.op = op
        self.traced = traced
        self.rc = None
        self.out = self.err = ""
        self.error = None
        self.wall = self.cpu = 0.0


def execute(cli, op, tracer=None, op_index=None):
    """Run op through cli.main, capturing its streams; traced when a tracer is given."""
    ex = Execution(op, tracer is not None)
    out, err = io.StringIO(), io.StringIO()
    call = lambda: cli.main(list(op.argv))  # noqa: E731
    if tracer is not None:
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ex.rc = tracer.run_op(op_index, call)[0] if tracer is not None else call()
    except Exception:  # the benchmark records the failure and carries on
        ex.error = traceback.format_exc(limit=3)
    finally:
        ex.wall = time.perf_counter() - t0
        ex.cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    ex.out, ex.err = out.getvalue(), err.getvalue()
    return ex


def _medians(runs, key):
    by_command = {}
    for ex in runs:
        if not ex.traced:
            by_command.setdefault(ex.op.command, []).append(key(ex))
    return {c: statistics.median(v) for c, v in by_command.items()}


def _check_all(warm, runs):
    """Problems per execution, and the margins aggregated over all of them."""
    memo = {}
    problems = []
    for ex in runs:
        key = (tuple(ex.op.argv), ex.rc, ex.out, ex.err, ex.error)
        if key not in memo:
            memo[key] = checks.check(ex.op, ex.rc, ex.out, ex.err, ex.error)
        problems.append(list(memo[key][0]))
    # The first round repeats the warm-up operations, and a traced run
    # executes every operation twice: all copies must print the same bytes.
    first = {}
    for k, ex in enumerate(runs + warm):
        j, ref = first.setdefault(tuple(ex.op.argv), (k, ex.out))
        if ex.out != ref:
            problems[j if k >= len(runs) else k].append(
                "stdout differs between two runs of the same operation")
    margins = {}
    for name, (margin, pick) in MARGINS.items():
        values = [m[margin] for _, m in memo.values() if margin in m]
        margins[name] = pick(values) if values else 0.0
    return problems, margins


def _layer_values(tracer, runs):
    """Per-layer numbers from the spans, and process numbers from the untraced runs."""
    layer = {}
    rule_build_s = 0.0
    for op_index, spans in tracing.by_op(tracer.spans).items():
        if op_index < 0:  # warm-up
            selfs = tracing.self_times(spans)
            rule_build_s += sum(selfs[s[0]] for s in spans if s[1] in tracing.RULE_SPANS)
            continue
        for name, value in tracing.op_metrics(spans).items():
            layer.setdefault(name, []).append(value)
    values = {name: (max if name.endswith("_max") else statistics.fmean)(v)
              for name, v in layer.items()}
    values["numerics.rule_build_s"] = rule_build_s
    plain = [ex for ex in runs if not ex.traced]
    plain_wall = sum(ex.wall for ex in plain)
    values["trace.overhead_frac"] = sum(ex.wall for ex in runs if ex.traced) / plain_wall - 1.0
    values["process.cpu_util"] = sum(ex.cpu for ex in plain) / plain_wall
    for c, u in _medians(runs, lambda ex: ex.cpu / ex.wall).items():
        values[f"process.cpu_util.{c}"] = u
    return values


def run(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result line, details, (tracer, executions))."""
    kind = workloads.PROBE[workload]
    # The probe's interpreter starts before carlembed is imported.
    with probes.Probe(kind) as probe:
        return _run(probe, workload, seed, seconds, trace, tiny)


def _run(probe, workload, seed, seconds, trace, tiny):
    cli = import_cli()
    kind = probe.kind
    import_s = statistics.median(child_import_seconds() for _ in range(IMPORT_REPS))
    wl = workloads.build(workload, seed, OUT / f"{workload}-s{seed}", tiny=tiny)
    tracer = tracing.Tracer() if trace else None

    # Warm-up: one operation of each command fills the lazy caches
    # (quadrature rules, Gauss-Legendre tables, grids).  The timed loop
    # starts with the same operations, which checks determinism.
    warm = []
    for c in range(len(wl.cycle)):
        probe.tick()
        warm.append(execute(cli, wl.op(c), tracer, op_index=-1 - c))
    setup_wall = import_s + sum(ex.wall for ex in warm)

    runs = []
    i = 0
    start = time.perf_counter()
    while i == 0 or i % wl.round or time.perf_counter() - start < seconds:
        op = wl.op(i)
        probe.tick()
        if trace:
            order = (tracer, None) if i % 2 else (None, tracer)
            runs.extend(execute(cli, op, t, op_index=i) for t in order)
        else:
            runs.append(execute(cli, op))
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # One machine speed for the whole run: a set-up has too few probes
    # of its own for a steady median.
    probe_s = probe.median()
    problems, margins = _check_all(warm, runs)
    failed = sum(bool(p) for p in problems)
    walls = _medians(runs, lambda ex: ex.wall)
    per_command = {f"{c}_s": w for c, w in walls.items() if c != "search"}
    if "search" in walls:
        per_command["search_eval_us"] = _medians(
            runs, lambda ex: ex.wall / ex.op.data["evals"] * 1e6)["search"]

    if not trace:
        op_wall = math.exp(statistics.fmean(math.log(w) for w in walls.values()))
        values = {
            "op_s": probes.at_reference_speed(op_wall, kind, probe_s),
            "setup_s": probes.at_reference_speed(setup_wall, kind, probe_s),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        units = PER_LAYER
        values = _layer_values(tracer, runs)
        values["fail_rate"] = failed / len(runs)
        values["bench.probe_s"] = probe_s
        values.update(per_command)
        values.update(margins)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": metrics}

    details = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "operations": i,
        "commands": {c: sum(1 for ex in runs if ex.op.command == c and not ex.traced)
                     for c in wl.commands},
        "per_command": per_command,
        "walls": {c: [round(ex.wall, 6) for ex in runs if ex.op.command == c and not ex.traced]
                  for c in wl.commands},
        "import_s": import_s,
        "setup_wall_s": setup_wall,
        "probe": kind,
        "probe_s": probe_s,
        "problems": [
            {"argv": ex.op.argv, "traced": ex.traced, "problems": p}
            for ex, p in zip(runs, problems) if p
        ][:20],
    }
    if trace:
        details["untraced_targets"] = tracer.missing
    return result, details, (tracer, runs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    result, details, (tracer, _) = run(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    folder = OUT / f"{args.workload}-s{args.seed}"
    (folder / f"result-trace{args.trace}.json").write_text(
        json.dumps({"result": result, **details}, indent=1), encoding="utf-8")
    if tracer is not None:
        with open(folder / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "thread", "size", "op"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
