"""Derivative-free search for measures with a large embedding-to-Carleson ratio.

The objective A(mu)^2 / c_supp(mu) is bounded by the theorem constants
(2e on the disc), and the search probes how close finite measures get.
Atoms are parameterized without constraints: a raw vector y in R^(2n)
maps to the point tanh(|y|) y/|y| and a raw scalar v maps to the weight
exp(v); the ratio is invariant under a common weight scale, so v is
recentered every step.  Restarts draw from independent seeded streams;
the merge picks the best ratio, ties broken by the lower restart index.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CarlembedError, InputError, NumericError
from .measure import (
    BOUND_SLACK, DiscreteMeasure, _check_atom_count, embedding_norm_sq,
    kernel_constant_on_support, theorem_bound_constant,
)
from .numerics import rng_stream

# Consecutive rejected proposals before the step contracts.
_STALL_WINDOW = 20


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


def _build_measure(space, y, v):
    v = v - np.mean(v)
    radii_raw = np.sqrt(np.sum(y * y, axis=1))
    scale = np.where(radii_raw > 1e-12, np.tanh(radii_raw) / np.maximum(radii_raw, 1e-12), 1.0)
    scaled = y * scale[:, None]
    atoms = []
    for row, vj in zip(scaled, v):
        coords = row[::2] + 1j * row[1::2]
        atoms.append((coords, float(np.exp(vj))))
    return DiscreteMeasure(space, atoms)


def _climb(cfg, restart, bound):
    rng = rng_stream(cfg.seed, restart)
    dim2 = 2 * cfg.space.dim
    y = rng.normal(0.0, 0.7, size=(cfg.atom_count, dim2))
    v = rng.normal(0.0, 0.3, size=cfg.atom_count)
    mu = _build_measure(cfg.space, y, v)
    best = ratio(mu)
    best_mu = mu
    trace = [(0, best)]
    step = cfg.step_init
    stall = 0
    for it in range(1, cfg.iterations + 1):
        dy = rng.normal(0.0, 1.0, size=y.shape)
        dv = rng.normal(0.0, 1.0, size=v.shape)
        cand_y = y + step * dy
        cand_v = v + 0.5 * step * dv
        try:
            cand_mu = _build_measure(cfg.space, cand_y, cand_v)
        except InputError:
            # tanh(|y|) rounds to 1 once |y| >= 19, putting an atom on the
            # boundary: the proposal counts as one rejected step.
            value = None
        else:
            value = ratio(cand_mu)
            if value > bound * (1.0 + BOUND_SLACK):
                warnings.warn(
                    f"search found ratio {value!r} above the theorem bound {bound!r}; "
                    "this falsifies the implementation or the theorem",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if value is not None and value > best:
            y, v = cand_y, cand_v
            best, best_mu = value, cand_mu
            trace.append((it, best))
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_WINDOW:
                step *= cfg.step_decay
                stall = 0
    return best, best_mu, tuple(trace)


def search(cfg):
    """Random-restart hill climbing; deterministic for a fixed config.

    Every restart owns the generator stream (seed, restart index).  A
    restart that dies with a numeric error is recorded as a failed entry
    and does not disturb the others.
    """
    bound = theorem_bound_constant(cfg.space)
    winner = None
    notes = []
    for r in range(cfg.restarts):
        try:
            outcome = _climb(cfg, r, bound)
        except CarlembedError as exc:
            notes.append(f"restart {r} aborted: {exc}")
            continue
        if winner is None or outcome[0] > winner[0]:
            winner = outcome
    if winner is None:
        raise NumericError("all restarts failed: " + "; ".join(notes))
    best, best_mu, trace = winner
    return SearchResult(
        best_ratio=best,
        best_measure=best_mu,
        trace=trace,
        seed=cfg.seed,
        notes=tuple(notes),
    )
