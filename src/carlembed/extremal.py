"""Derivative-free search for measures with a large embedding-to-Carleson ratio.

The objective A(mu)^2 / c_supp(mu) is bounded by the theorem constants
(2e on the disc), and the search probes how close finite measures get.
Atoms are parameterized without constraints: a raw vector y in R^(2n)
maps to the point tanh(|y|) y/|y| and a raw scalar v maps to the weight
exp(v); the ratio is invariant under a common weight scale, so v is
recentered every step.  Restarts draw from independent seeded streams;
the merge picks the best ratio, ties broken by the lower restart index.

The restarts climb in lockstep, and every evaluation, of the starts and
of each iteration's proposals, is one _ratios call on their stack: the
atom points and weights as arrays, one batched Gram eigensolve and one
Poisson stack.  Every restart draws the same numbers in the same order
as a climb run on its own, and its trace and best ratio are
bit-identical to one.  A DiscreteMeasure is built only for the winner
and for a proposal that the arrays cannot stand for: an atom at or near
the boundary, a bad weight, two rows of equal norm, or 256 atoms and
more, where embedding_norm_sq certifies its eigenvalue one matrix at a
time.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CarlembedError, InputError, KernelConditioningWarning, NumericError
from .geometry import CONDITIONING_MARGIN, _norm_sq_rows, _poisson_matrix
from .measure import (
    _CERTIFIED_MIN_ORDER, BOUND_SLACK, DiscreteMeasure, _check_atom_count, _weighted_gram,
    embedding_norm_sq, kernel_constant_on_support, theorem_bound_constant,
)
from .numerics import _row_blocks, _top_eigs, rng_stream

# Consecutive rejected proposals before the step contracts.
_STALL_WINDOW = 20

# A proposal with a row whose vectorized |z|^2 reaches this is built as a
# measure, so that SpacePoint's exact fsum decides the boundary error and
# the conditioning warning.  The vectorized sum of 2n squares is off by
# about 2n ulps, far inside the 1e-12 of room.
_EDGE_SCREEN = 1.0 - CONDITIONING_MARGIN - 1e-12


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
        if not isinstance(self.atom_count, int) or self.atom_count < 1:
            raise InputError(f"atom_count must be a positive integer, got {self.atom_count!r}")
        _check_atom_count(self.atom_count, "search measures have {} atoms")
        if self.iterations < 1 or self.restarts < 1:
            raise InputError("iterations and restarts must be >= 1")
        if self.seed < 0:
            raise InputError("seed must be a non-negative integer")
        if not self.step_init > 0:
            raise InputError("step_init must be positive")
        if not 0.0 < self.step_decay < 1.0:
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
    """Points (..., m, n) and weights (..., m) of raw vectors y (..., m, 2n) and v (..., m)."""
    v = v - np.mean(v, axis=-1, keepdims=True)
    radii_raw = np.sqrt(np.sum(y * y, axis=-1))
    scale = np.where(radii_raw > 1e-12, np.tanh(radii_raw) / np.maximum(radii_raw, 1e-12), 1.0)
    scaled = y * scale[..., None]
    return scaled[..., ::2] + 1j * scaled[..., 1::2], np.exp(v)


def _build_measure(space, y, v):
    points, weights = _proposal_arrays(y, v)
    return DiscreteMeasure(space, [(p, float(w)) for p, w in zip(points, weights)])


def _ratios(space, y, v):
    """ratio of each proposal (y[i], v[i]) of a stack: (values, errors).

    A CarlembedError of proposal i goes to errors[i], and values[i] stays
    NaN; the caller decides what it means.  An InputError says that the
    proposal is no measure (tanh(|y|) rounds to 1 once |y| >= 19, an atom
    on the boundary) or that its Gram matrix fails the Hermitian test.

    A proposal is evaluated on the stack when its arrays are the atoms
    of its measure as they stand: every row inside _EDGE_SCREEN, every
    weight positive and finite, no two rows of equal |z|^2 (so none
    equal, and DiscreteMeasure merges nothing), and fewer atoms than
    embedding_norm_sq's certified path takes.  Any other is evaluated as
    ratio(_build_measure(...)), with every check and warning of that path.
    """
    points, weights = _proposal_arrays(y, v)
    order = points.shape[1]
    nsq = np.sort(_norm_sq_rows(points), axis=-1)
    stacked = (
        (nsq[:, -1] < _EDGE_SCREEN)
        & ~np.any(nsq[:, 1:] == nsq[:, :-1], axis=-1)
        & np.all((weights > 0.0) & (weights < np.inf), axis=-1)
        & (order < _CERTIFIED_MIN_ORDER)
    )
    values = np.full(len(y), np.nan)
    errors = {}
    for i in np.flatnonzero(~stacked):
        try:
            values[i] = ratio(_build_measure(space, y[i], v[i]))
        except CarlembedError as exc:
            errors[i] = exc
    ready = np.flatnonzero(stacked)
    # stacks of about _BLOCK_ENTRIES Gram entries, so memory stays that of
    # one matrix at large orders
    for rows in _row_blocks(len(ready), order * order):
        idx = ready[rows]
        pts, w = points[idx], weights[idx]
        tops = _top_eigs(_weighted_gram(pts, np.sqrt(w)))
        c_supp = np.max((_poisson_matrix(pts, pts, pts.shape[-1]) @ w[..., None])[..., 0], axis=-1)
        for i, top, c in zip(idx, tops, c_supp):
            if isinstance(top, CarlembedError):
                errors[i] = top
            else:
                values[i] = top / c
    return values, errors


def search(cfg):
    """Random-restart hill climbing; deterministic for a fixed config.

    Every restart owns the generator stream (seed, restart index), and
    the restarts advance one iteration at a time.  A restart whose start
    raises, or whose step raises anything but an InputError (a rejected
    step), is recorded as a failed entry and does not disturb the others.
    The KernelConditioningWarnings of atoms near the sphere come out as
    one warning that counts them.
    """
    bound = theorem_bound_constant(cfg.space)
    shape = (cfg.atom_count, 2 * cfg.space.dim)
    rngs = [rng_stream(cfg.seed, r) for r in range(cfg.restarts)]
    y = np.empty((cfg.restarts,) + shape)
    v = np.empty((cfg.restarts, cfg.atom_count))
    for r, rng in enumerate(rngs):
        y[r] = rng.normal(0.0, 0.7, size=shape)
        v[r] = rng.normal(0.0, 0.3, size=cfg.atom_count)
    edge = []
    with warnings.catch_warnings():
        # count every KernelConditioningWarning; show any other as it comes
        warnings.simplefilter("always", KernelConditioningWarning)
        show = warnings.showwarning
        warnings.showwarning = lambda message, category, *rest: (
            edge.append(message) if issubclass(category, KernelConditioningWarning)
            else show(message, category, *rest))
        best, errors = _ratios(cfg.space, y, v)
        notes = {int(r): f"restart {r} aborted: {exc}" for r, exc in errors.items()}
        traces = {r: [(0, float(best[r]))] for r in range(cfg.restarts) if r not in notes}
        live = np.array(sorted(traces), dtype=int)
        step = np.full(cfg.restarts, cfg.step_init, dtype=float)
        stall = np.zeros(cfg.restarts, dtype=int)
        dy, dv = np.empty_like(y), np.empty_like(v)
        for it in range(1, cfg.iterations + 1):
            if not len(live):
                break
            for j, r in enumerate(live):
                dy[j] = rngs[r].normal(0.0, 1.0, size=shape)
                dv[j] = rngs[r].normal(0.0, 1.0, size=cfg.atom_count)
            cand_y = y[live] + step[live, None, None] * dy[:len(live)]
            cand_v = v[live] + (0.5 * step[live])[:, None] * dv[:len(live)]
            values, errors = _ratios(cfg.space, cand_y, cand_v)
            for i in np.flatnonzero(values > bound * (1.0 + BOUND_SLACK)):
                warnings.warn(
                    f"search found ratio {float(values[i])!r} above the theorem bound {bound!r}; "
                    "this falsifies the implementation or the theorem",
                    RuntimeWarning,
                    stacklevel=2,
                )
            ok = np.ones(len(live), dtype=bool)
            for i, exc in errors.items():
                if not isinstance(exc, InputError):
                    notes[int(live[i])] = f"restart {live[i]} aborted: {exc}"
                    ok[i] = False
            accept = values > best[live]
            for i in np.flatnonzero(accept):
                traces[live[i]].append((it, float(values[i])))
            took = live[accept]
            y[took], v[took], best[took] = cand_y[accept], cand_v[accept], values[accept]
            stall[took] = 0
            held = live[ok & ~accept]
            stall[held] += 1
            decay = held[stall[held] >= _STALL_WINDOW]
            step[decay] *= cfg.step_decay
            stall[decay] = 0
            live = live[ok]
        survivors = [r for r in range(cfg.restarts) if r not in notes]
        notes = tuple(notes[r] for r in sorted(notes))
        if not survivors:
            raise NumericError("all restarts failed: " + "; ".join(notes))
        winner = max(survivors, key=lambda r: best[r])  # the first of equal ratios
        best_measure = _build_measure(cfg.space, y[winner], v[winner])
    if edge:
        warnings.warn(f"search built {len(edge)} proposal atoms with 1 - |z|^2 below "
                      f"{CONDITIONING_MARGIN:g}; kernel values are ill conditioned",
                      KernelConditioningWarning, stacklevel=2)
    return SearchResult(
        best_ratio=float(best[winner]),
        best_measure=best_measure,
        trace=tuple(traces[winner]),
        seed=cfg.seed,
        notes=notes,
    )
