"""Derivative-free search for measures with a large embedding-to-Carleson ratio.

The objective A(mu)^2 / c_supp(mu) is bounded by the theorem constants
(2e on the disc), and the search probes how close finite measures get.
Atoms are parameterized without constraints: a raw vector y in R^(2n)
maps to the point tanh(|y|) y/|y| and a raw scalar v maps to the weight
exp(v); the ratio is invariant under a common weight scale, so v is
recentered every step.  Restarts draw from independent seeded streams;
the merge picks the best ratio, ties broken by the lower restart index.

The restarts climb in lookahead windows.  Each live restart proposes
its next k steps as though all of them were rejected: it draws them
from its own stream in the order of a climb run on its own, and the
step decays as _STALL_WINDOW rejections would decay it.  The windows of
all live restarts are one _ratios call on their stack: the atom points
and weights as arrays, the top eigenvalues of the Gram stack from
numerics._top_eigs (the route of embedding_norm_sq) and one Poisson
stack.  Each restart then walks its window in iteration order, keeps it
up to its first accepted or aborting step, drops the rest and opens its
next window there with the draws it has not used, so its trace and
best ratio are bit-identical to a climb run on its own.  A proposal
with an atom within CONDITIONING_MARGIN of the sphere, where kernel
values are ill conditioned, or with a weight that is not positive and
finite, is refused on its arrays.  A DiscreteMeasure is built only for
the winner.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CarlembedError, InputError, NumericError, _check_integer, _finite_real
from .geometry import CONDITIONING_MARGIN, _norm_sq_rows
from .measure import (
    BOUND_SLACK, DiscreteMeasure, _check_atom_count, _potential_field,
    _weighted_gram, embedding_norm_sq, kernel_constant_on_support, theorem_bound_constant,
)
from .numerics import _BLOCK_ENTRIES, _row_blocks, _top_eigs, rng_stream

# Consecutive rejected proposals before the step contracts.
_STALL_WINDOW = 20

# Steps in a restart's window while the Gram stack of every live restart's
# window fits one block of _BLOCK_ENTRIES entries, else 1: of 4-64, 16 ran
# the 8-atom, 4-restart search fastest, and windows of 4, which just fit,
# ran 120 disc atoms x 1 restart 4% slower than windows of 1 (2 vCPUs).
_LOOKAHEAD = 16

# Largest restarts x atom_count, refused before the per-restart generators and
# state are built: a one-iteration search of one disc atom per restart peaks
# at 73 MB (tracemalloc, numpy 2.4) at the cap.
MAX_SEARCH_ATOMS = 1 << 16


@dataclass(frozen=True)
class SearchConfig:
    space: object
    atom_count: int = 2
    iterations: int = 2000
    restarts: int = 4
    seed: int = 0
    step_init: float = 0.5
    step_decay: float = 0.9

    def __post_init__(self):
        for name in ("atom_count", "iterations", "restarts"):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), 1))
        _check_atom_count(self.atom_count, "search measures have {} atoms")
        if self.restarts * self.atom_count > MAX_SEARCH_ATOMS:
            raise InputError(f"restarts x atoms is {self.restarts} x {self.atom_count}, "
                             f"practical guard is {MAX_SEARCH_ATOMS}")
        object.__setattr__(self, "seed", _check_integer("seed", self.seed, 0))
        if not (_finite_real(self.step_init) and self.step_init > 0.0):
            raise InputError(f"step_init must be positive and finite, got {self.step_init!r}")
        if not (_finite_real(self.step_decay) and 0.0 < self.step_decay < 1.0):
            raise InputError("step_decay must lie in (0, 1)")


@dataclass(frozen=True)
class SearchResult:
    best_ratio: float
    best_measure: DiscreteMeasure
    trace: tuple
    seed: int
    notes: tuple = ()


def ratio(mu):
    """A(mu)^2 / c_supp(mu); equals 1 for a single atom, scale-invariant."""
    return embedding_norm_sq(mu) / kernel_constant_on_support(mu)


def _proposal_arrays(y, v):
    """Points (..., m, n) and weights (..., m) of raw vectors y (..., m, 2n) and v (..., m).

    A row goes to tanh(|y|) y / |y|.  Where |y|^2 is past the double
    range, y is divided by its largest |entry| before the norm, so the
    row lands near the sphere, not at the origin.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a huge step overflows, silently
        v = v - np.mean(v, axis=-1, keepdims=True)
        norm_sq = np.sum(y * y, axis=-1)
        radii_raw = np.sqrt(norm_sq)
        scale = np.where(radii_raw > 1e-12, np.tanh(radii_raw) / np.maximum(radii_raw, 1e-12), 1.0)
        scaled = y * scale[..., None]
        huge = np.isinf(norm_sq)
        if np.any(huge):
            top = np.max(np.abs(y[huge]), axis=-1, keepdims=True)
            unit = y[huge] / top
            norm = np.sqrt(np.sum(unit * unit, axis=-1, keepdims=True))
            scaled[huge] = np.tanh(top * norm) * (unit / norm)
        return scaled[..., ::2] + 1j * scaled[..., 1::2], np.exp(v)


def _build_measure(space, y, v):
    points, weights = _proposal_arrays(y, v)
    return DiscreteMeasure(space, [(p, float(w)) for p, w in zip(points, weights)])


def _ratios(space, y, v):
    """ratio of each proposal (y[i], v[i]) of a stack: (values, errors).

    A CarlembedError of proposal i goes to errors[i], and values[i] stays
    NaN; the caller decides what it means.  A row whose vectorized |z|^2
    is not at most 1 - CONDITIONING_MARGIN gives an InputError: its
    kernel values are ill conditioned, its atom lies on the sphere
    (tanh(|y|) rounds to 1 once |y| >= 19), or a step overflowed to NaN.
    For n <= 2 this is SpacePoint's warning condition bit for bit, as its
    fsum of two rounded |z_j|^2 is their rounded sum.  Else a weight that
    is not positive and finite gives DiscreteMeasure's InputError.  The
    rest are evaluated on the stack, two equal rows unmerged, which gives
    the merged atom's ratio up to rounding.
    """
    points, weights = _proposal_arrays(y, v)
    order = points.shape[1]
    nsq = _norm_sq_rows(points)
    inside = np.all(nsq <= 1.0 - CONDITIONING_MARGIN, axis=-1)  # False at a NaN
    bad = ~((weights > 0.0) & (weights < np.inf))
    refused = ~inside | np.any(bad, axis=-1)
    values = np.full(len(y), np.nan)
    errors = {}
    for i in np.flatnonzero(refused).tolist():
        if not inside[i]:
            errors[i] = InputError(f"an atom has 1 - |z|^2 = {1.0 - np.max(nsq[i]):.3e}, not above "
                                   f"{CONDITIONING_MARGIN:g}; kernel values are ill conditioned")
        else:  # the first bad weight, as DiscreteMeasure reports it
            first = float(weights[i][bad[i]][0])
            errors[i] = InputError(f"weights must be positive and finite, got {first!r}")
    ready = np.flatnonzero(~refused)
    # stacks of about _BLOCK_ENTRIES Gram entries, so memory stays that of
    # one matrix at large orders
    for rows in _row_blocks(len(ready), order * order):
        idx = ready[rows]
        pts, w = points[idx], weights[idx]
        tops = _top_eigs(_weighted_gram(pts, np.sqrt(w)))
        c_supp = np.max(-_potential_field(pts, w, pts), axis=-1)
        for i, top, c in zip(idx.tolist(), tops, c_supp):
            if isinstance(top, CarlembedError):
                errors[i] = top
            else:
                values[i] = top / c
    return values, errors


def _rejected(step, stall, decay):
    """A restart's step and stall count after one more rejected proposal."""
    stall += 1
    return (step * decay, 0) if stall >= _STALL_WINDOW else (step, stall)


def search(cfg):
    """Random-restart hill climbing; deterministic for a fixed config.

    Every restart owns the generator stream (seed, restart index).  The
    restarts advance in lookahead windows (module docstring) of
    _LOOKAHEAD proposals while the Gram stack of every live restart's
    window is one block of _BLOCK_ENTRIES entries, else of one, and
    never past the last iteration.  A restart whose start raises, or
    whose step raises anything but an InputError (a rejected step), is
    recorded as a failed entry and does not disturb the others.  The
    warnings of ratios above the theorem bound come at the end, in
    (iteration, restart) order.
    """
    space, count, decay = cfg.space, cfg.atom_count, cfg.step_decay
    bound = theorem_bound_constant(space)
    limit = bound * (1.0 + BOUND_SLACK)
    shape = (count, 2 * space.dim)
    split = count * 2 * space.dim  # a step draws dy (count, 2n), then dv (count,)
    rngs = [rng_stream(cfg.seed, r) for r in range(cfg.restarts)]
    y = np.empty((cfg.restarts,) + shape)
    v = np.empty((cfg.restarts, count))
    for r, rng in enumerate(rngs):
        y[r] = rng.normal(0.0, 0.7, size=shape)
        v[r] = rng.normal(0.0, 0.3, size=count)
    high = []
    best, errors = _ratios(space, y, v)
    best = best.tolist()
    notes = {r: f"restart {r} aborted: {exc}" for r, exc in errors.items()}
    traces = {r: [(0, best[r])] for r in range(cfg.restarts) if r not in notes}
    live = sorted(traces)
    step, stall = [float(cfg.step_init)] * cfg.restarts, [0] * cfg.restarts
    done = [0] * cfg.restarts  # iterations taken
    unused = {}  # restart: the rows it drew for its last window and did not take
    while live:
        k = _LOOKAHEAD if len(live) * _LOOKAHEAD * count * count <= _BLOCK_ENTRIES else 1
        sizes = [min(k, cfg.iterations - done[r]) for r in live]
        steps = []
        draws = np.empty((sum(sizes), split + count))
        first = 0
        for r, size in zip(live, sizes):
            taken = 0
            if r in unused:
                rows = unused.pop(r)[:size]
                taken = len(rows)
                draws[first:first + taken] = rows
            if taken < size:
                draws[first + taken:first + size] = rngs[r].normal(
                    0.0, 1.0, size=(size - taken, split + count))
            first += size
            s, t = step[r], stall[r]
            steps.append(s)
            for _ in range(size - 1):
                s, t = _rejected(s, t, decay)
                steps.append(s)
        owner, steps = np.repeat(live, sizes), np.array(steps)
        with np.errstate(over="ignore", invalid="ignore"):  # refused in _ratios
            cand_y = y[owner] + steps[:, None, None] * draws[:, :split].reshape((-1,) + shape)
            cand_v = v[owner] + (0.5 * steps)[:, None] * draws[:, split:]
        values, errors = _ratios(space, cand_y, cand_v)
        values = values.tolist()
        first = 0
        for r, size in zip(live, sizes):
            for i in range(first, first + size):
                done[r] += 1
                if i in errors and not isinstance(errors[i], InputError):
                    notes[r] = f"restart {r} aborted: {errors[i]}"
                    break
                if values[i] > limit:
                    high.append((done[r], r, values[i]))
                if values[i] > best[r]:
                    traces[r].append((done[r], values[i]))
                    y[r], v[r], best[r], stall[r] = cand_y[i], cand_v[i], values[i], 0
                    break
                step[r], stall[r] = _rejected(step[r], stall[r], decay)
            if i + 1 < first + size:
                unused[r] = draws[i + 1:first + size]
            first += size
        live = [r for r in live if r not in notes and done[r] < cfg.iterations]
    for _, _, value in sorted(high):
        warnings.warn(
            f"search found ratio {value!r} above the theorem bound {bound!r}; "
            "this falsifies the implementation or the theorem",
            RuntimeWarning,
            stacklevel=2,
        )
    survivors = [r for r in range(cfg.restarts) if r not in notes]
    notes = tuple(notes[r] for r in sorted(notes))
    if not survivors:
        raise NumericError("all restarts failed: " + "; ".join(notes))
    winner = max(survivors, key=lambda r: best[r])  # the first of equal ratios
    best_measure = _build_measure(space, y[winner], v[winner])
    return SearchResult(
        best_ratio=best[winner],
        best_measure=best_measure,
        trace=tuple(traces[winner]),
        seed=cfg.seed,
        notes=notes,
    )
