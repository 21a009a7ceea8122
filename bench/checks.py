"""Plain-numpy oracles and the per-operation output checker.

Nothing here imports carlembed: every reference value is recomputed from
the generated input files.  The checker returns a list of problems (an
operation fails when the list is not empty) and the accuracy margins it
measured on the way.

Stated tolerances, all relative unless marked absolute:
  a_sq, k_sq, search best ratio  1e-9   (dense eigvalsh of the Szego Gram)
  c_supp                        1e-11  (direct Poisson sum)
  delta                         1e-11  (direct separation product)
  Hardy norm, key-inequality rhs 1e-9
  Green's formula rhs           1e-12 absolute (exact boundary mean - u(0))
"""

import json
import math
import re

import numpy as np

EIG_RTOL = 1e-9
SUM_RTOL = 1e-11
NORM_RTOL = 1e-9
GREEN_ATOL = 1e-12

# Exact int_boundary u - u(0) for the green-check test functions.
GREEN_EXACT = {
    ("disc", "one"): 0.0,
    ("disc", "radial"): -1.0,
    ("disc", "re1"): 0.0,
    ("disc", "mixed"): 1.0,
    ("ball2", "mixed"): 1.0 / 6.0,
}

_NONFINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
_FAIL = re.compile(r"\bFAIL\b")
_FIELD = re.compile(r"(\w+)\s*=\s*(\S+)")


# ---------------------------------------------------------------------------
# Oracles.


def atoms_arrays(measure):
    """(m, n) complex points and (m,) weights of a measure file."""
    dim = measure["space"].get("dim", 1)
    raw = np.array([a["point"] for a in measure["atoms"]], dtype=float).reshape(-1, 2 * dim)
    points = raw[:, 0::2] + 1j * raw[:, 1::2]
    weights = np.array([a["weight"] for a in measure["atoms"]], dtype=float)
    return points, weights


def embedding_norm_sq(points, weights):
    """Top eigenvalue of sqrt(w_j w_k) / (1 - <z_j, z_k>)^n by dense eigvalsh."""
    n = points.shape[1]
    gram = (1.0 - points @ points.conj().T) ** (-n)
    root = np.sqrt(weights)
    return float(np.linalg.eigvalsh(root[:, None] * gram * root[None, :])[-1])


def poisson_sums(points, weights):
    """sum_j w_j P_{z_k}(z_j) for every atom z_k, one atom z_k at a time."""
    n = points.shape[1]
    norm_sq = np.sum(np.abs(points) ** 2, axis=1)
    out = np.empty(len(points))
    for k in range(len(points)):
        inner = points @ points[k].conj()  # <z_j, z_k> for every j
        out[k] = np.sum(weights * (1.0 - norm_sq[k]) ** n / np.abs(1.0 - inner) ** (2 * n))
    return out


def separation_delta(z):
    """min_k prod_{j != k} |(z_k - z_j) / (1 - conj(z_j) z_k)|, a direct product."""
    best = math.inf
    for k in range(len(z)):
        prod = 1.0
        for j in range(len(z)):
            if j != k:
                prod *= abs((z[k] - z[j]) / (1.0 - z[j].conjugate() * z[k]))
        best = min(best, prod)
    return 1.0 if len(z) == 1 else best


def hardy_norm_sq(poly):
    """Disc: sum |c|^2.  Ball: sum |c|^2 (n-1)! alpha! / (n-1+|alpha|)!."""
    n = poly["dim"]
    total = 0.0
    for term in poly["terms"]:
        c = complex(term["re"], term["im"])
        weight = math.factorial(n - 1) / math.factorial(n - 1 + sum(term["alpha"]))
        for a in term["alpha"]:
            weight *= math.factorial(a)
        total += abs(c) ** 2 * weight
    return total


def poly_value(poly, z):
    total = 0j
    for term in poly["terms"]:
        value = complex(term["re"], term["im"])
        for zi, a in zip(z, term["alpha"]):
            value *= zi ** a
        total += value
    return total


def theorem_constant(dim):
    return math.e * math.factorial(2 * dim) / math.factorial(dim) ** 2


# ---------------------------------------------------------------------------
# Checker.


class _Report:
    def __init__(self):
        self.problems = []
        self.margins = {}

    def fail(self, message):
        self.problems.append(message)

    def margin(self, name, value, pick=max):
        old = self.margins.get(name)
        self.margins[name] = value if old is None else pick(old, value)

    def close(self, name, got, want, rtol=None, atol=None):
        """Compare against an oracle; records the relative error as a margin."""
        if not math.isfinite(got):
            self.fail(f"{name} is not finite: {got!r}")
            return
        err = abs(got - want)
        rel = err / abs(want) if want != 0 else err
        if want != 0:
            self.margin("oracle_rel_err", rel)
        if (rtol is not None and rel > rtol) or (atol is not None and err > atol):
            self.fail(f"{name} = {got!r} disagrees with oracle {want!r}")


def _fields(text):
    return {k: v for k, v in _FIELD.findall(text)}


def _number(rep, fields, name):
    try:
        value = float(fields[name])
    except (KeyError, ValueError):
        rep.fail(f"output has no numeric field {name!r}")
        return math.nan
    if not math.isfinite(value):
        rep.fail(f"{name} is not finite: {value!r}")
    return value


def _check_analyze(rep, op, out):
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        rep.fail(f"analyze output is not JSON: {exc}")
        return
    for key in ("a_sq", "c_supp", "c_grid", "bound", "ratio"):
        value = report.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            rep.fail(f"{key} is not a finite number: {value!r}")
            return
    points, weights = atoms_arrays(op.data["measure"])
    dim = points.shape[1]
    c_supp = float(np.max(poisson_sums(points, weights)))
    rep.close("a_sq", report["a_sq"], embedding_norm_sq(points, weights), rtol=EIG_RTOL)
    rep.close("c_supp", report["c_supp"], c_supp, rtol=SUM_RTOL)
    rep.close("bound", report["bound"], theorem_constant(dim) * c_supp, rtol=SUM_RTOL)
    if report["c_grid"] < report["c_supp"] * (1.0 - 1e-12):
        rep.fail("c_grid is below c_supp")
    if report.get("holds") is not True:
        rep.fail("verdict does not hold")
    if dim == 1 and not (isinstance(report.get("i_box"), float) and report["i_box"] > 0):
        rep.fail(f"disc i_box missing or not positive: {report.get('i_box')!r}")
    rep.margin("sandwich_slack", report["bound"] / report["a_sq"] - 1.0, pick=min)


def _check_interpolate(rep, op, out):
    fields = _fields(out)
    z = np.array([complex(x, y) for x, y in op.data["sequence"]["points"]])
    delta = _number(rep, fields, "delta")
    k_sq = _number(rep, fields, "k_sq")
    for name in ("k_sq_bound", "gram_cond_root", "orth_bound", "interp_constant",
                 "kernel_sup", "kernel_sup_bound"):
        _number(rep, fields, name)
    rep.close("delta", delta, separation_delta(z), rtol=SUM_RTOL)
    weights = 1.0 - np.abs(z) ** 2
    rep.close("k_sq", k_sq, embedding_norm_sq(z.reshape(-1, 1), weights), rtol=EIG_RTOL)
    if out.count("PASS") != 2:
        rep.fail("interpolate did not print both PASS verdicts")


def _check_certify(rep, op, out):
    points, weights = atoms_arrays(op.data["measure"])
    poly = op.data["poly"]
    dim = points.shape[1]
    lines = out.splitlines()
    if len(lines) != 2 + len(points):
        rep.fail(f"expected {2 + len(points)} result lines, got {len(lines)}")
        return
    contraction = _fields(lines[0])
    integral = _number(rep, contraction, "integral")
    norm_sq = _number(rep, contraction, "norm_sq")
    rep.close("norm_sq", norm_sq, hardy_norm_sq(poly), rtol=NORM_RTOL)
    rep.margin("contraction_excess", (integral - norm_sq) / norm_sq)
    corollary = _fields(lines[1])
    _number(rep, corollary, "integral")
    _number(rep, corollary, "bound")
    beta = 0.5 if dim == 1 else math.factorial(dim) ** 2 / math.factorial(2 * dim)
    potential = poisson_sums(points, weights)
    for k, line in enumerate(lines[2:]):
        key = _fields(line)
        lhs = _number(rep, key, "lhs")
        rhs = _number(rep, key, "rhs")
        want = beta * math.exp(-potential[k]) * abs(poly_value(poly, points[k])) ** 2
        rep.close(f"key rhs at atom {k}", rhs, want, rtol=NORM_RTOL)
        if rhs > 0:
            rep.margin("key_deficit", (rhs - lhs) / rhs)


def _check_green(rep, op, out):
    fields = _fields(out)
    _number(rep, fields, "lhs")
    rhs = _number(rep, fields, "rhs")
    gap = _number(rep, fields, "gap")
    rep.close("green rhs", rhs, GREEN_EXACT[(op.data["space"], op.data["fn"])], atol=GREEN_ATOL)
    rep.margin("green_gap", gap)
    if "PASS" not in out:
        rep.fail("green-check printed no PASS")


def _check_verify(rep, op, out):
    rows = [line for line in out.splitlines() if line.strip()]
    want = 6
    passed = sum(line.startswith("PASS") for line in rows)
    if len(rows) != want or passed != want:
        rep.fail(f"expected {want} PASS rows, got {passed} of {len(rows)}")
    for row in rows:
        fields = _fields(row)
        _number(rep, fields, "max_err")
        _number(rep, fields, "tol")


def _check_search(rep, op, out, err):
    rows = out.strip().splitlines()
    if not rows or rows[0] != "iteration,best_ratio":
        rep.fail("search trace has no CSV header")
        return
    try:
        trace = [(int(a), float(b)) for a, b in (row.split(",") for row in rows[1:])]
    except ValueError as exc:
        rep.fail(f"search trace does not parse: {exc}")
        return
    its = [t[0] for t in trace]
    vals = [t[1] for t in trace]
    if not trace or not all(math.isfinite(v) for v in vals):
        rep.fail("search trace is empty or not finite")
        return
    if any(a >= b for a, b in zip(its, its[1:])) or any(a > b for a, b in zip(vals, vals[1:])):
        rep.fail("search trace is not monotone")
    fields = _fields(err)
    best = _number(rep, fields, "best_ratio")
    if not 1.0 - 1e-12 <= best <= 2.0 * math.e * (1.0 + 1e-9):
        rep.fail(f"best ratio {best!r} outside [1, 2e]")
    if best != vals[-1]:
        rep.fail("best ratio differs from the last trace value")
    match = re.search(r"best_measure = (\{.*\})", err)
    if match is None:
        rep.fail("search printed no best measure")
        return
    points, weights = atoms_arrays(json.loads(match.group(1)))
    want = embedding_norm_sq(points, weights) / float(np.max(poisson_sums(points, weights)))
    rep.close("best ratio", best, want, rtol=EIG_RTOL)


_CHECKERS = {
    "analyze": _check_analyze,
    "interpolate": _check_interpolate,
    "certify": _check_certify,
    "green": _check_green,
    "verify": _check_verify,
}


def check(op, rc, out, err, error=None):
    """Problems found in one operation's outcome, and the margins measured."""
    rep = _Report()
    if error is not None:
        rep.fail(f"raised {error}")
    elif rc != 0:
        rep.fail(f"exit code {rc}: {err.strip()[-300:]}")
    if _FAIL.search(out) or _FAIL.search(err):
        rep.fail("printed a FAIL line")
    if _NONFINITE.search(out) or _NONFINITE.search(err):
        rep.fail("printed a non-finite value")
    if not rep.problems:
        try:
            if op.command == "search":
                _check_search(rep, op, out, err)
            else:
                _CHECKERS[op.command](rep, op, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            rep.fail(f"output does not parse: {exc!r}")
    return rep.problems, rep.margins
