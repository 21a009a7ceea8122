import math
import warnings

import pytest

from carlembed import extremal
from carlembed.errors import InputError, KernelConditioningWarning, NumericError
from carlembed.extremal import SearchConfig, SearchResult, ratio, search
from carlembed.geometry import Space, SpacePoint
from carlembed.measure import DiscreteMeasure, theorem_bound_constant

DISC = Space.disc()


def test_ratio_single_atom_is_one():
    mu = DiscreteMeasure(DISC, [(SpacePoint(0.7j), 2.5)])
    assert ratio(mu) == pytest.approx(1.0, abs=1e-12)
    mub = DiscreteMeasure(Space.ball(2), [(SpacePoint([0.4, 0.3]), 0.5)])
    assert ratio(mub) == pytest.approx(1.0, abs=1e-12)


def test_ratio_is_scale_invariant():
    mu = DiscreteMeasure(DISC, [(SpacePoint(0.5), 1.0), (SpacePoint(-0.5), 1.0)])
    assert ratio(mu.scaled(7.0)) == pytest.approx(ratio(mu), rel=1e-12)


def test_config_validation():
    with pytest.raises(InputError):
        SearchConfig(space=DISC, atom_count=0)
    with pytest.raises(InputError):
        SearchConfig(space=DISC, iterations=0)
    with pytest.raises(InputError):
        SearchConfig(space=DISC, step_decay=1.0)
    with pytest.raises(InputError):
        SearchConfig(space=DISC, step_init=-0.1)
    with pytest.raises(InputError):
        SearchConfig(space=DISC, seed=-1)


def test_search_single_atom_fixed_point():
    cfg = SearchConfig(space=DISC, atom_count=1, iterations=100, restarts=2, seed=3)
    res = search(cfg)
    assert res.best_ratio == pytest.approx(1.0, abs=1e-9)


def test_search_trace_monotone_and_deterministic():
    cfg = SearchConfig(space=DISC, atom_count=2, iterations=400, restarts=3, seed=7)
    a = search(cfg)
    b = search(cfg)
    assert a.best_ratio == b.best_ratio
    assert a.trace == b.trace
    assert a.seed == 7
    assert a.notes == ()
    vals = [v for _, v in a.trace]
    assert all(x <= y for x, y in zip(vals, vals[1:]))
    assert a.trace[0][0] == 0


def test_search_saturated_proposal_is_one_rejected_step():
    # Steps this large put tanh(|y|) at exactly 1, an atom on the boundary.
    cfg = SearchConfig(
        space=DISC, atom_count=2, iterations=100, restarts=2, seed=1, step_init=20.0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KernelConditioningWarning)
        a = search(cfg)
        b = search(cfg)
    assert a.notes == ()
    assert a.best_ratio == b.best_ratio
    assert a.trace == b.trace


def test_search_respects_theorem_bound():
    cfg = SearchConfig(space=DISC, atom_count=3, iterations=600, restarts=2, seed=11)
    res = search(cfg)
    assert res.best_ratio <= 2 * math.e * (1 + 1e-9)
    assert len(res.best_measure) <= 3


def test_search_ball_smoke():
    cfg = SearchConfig(space=Space.ball(2), atom_count=2, iterations=60, restarts=2, seed=5)
    res = search(cfg)
    assert 1.0 - 1e-9 <= res.best_ratio <= 6 * math.e * (1 + 1e-9)


def test_search_records_aborted_restart(monkeypatch):
    cfg = SearchConfig(space=DISC, atom_count=2, iterations=150, restarts=3, seed=9)
    bound = theorem_bound_constant(DISC)
    outcomes = [extremal._climb(cfg, r, bound) for r in range(cfg.restarts)]
    best = max(range(cfg.restarts), key=lambda r: (outcomes[r][0], -r))
    climb = extremal._climb

    def fail(cfg, restart, bound):
        raise NumericError("eigensolve failed")

    def fail_best(cfg, restart, bound):
        return (fail if restart == best else climb)(cfg, restart, bound)

    monkeypatch.setattr(extremal, "_climb", fail_best)
    res = search(cfg)
    assert res.notes == (f"restart {best} aborted: eigensolve failed",)
    rest = [outcomes[r] for r in range(cfg.restarts) if r != best]
    winner = max(rest, key=lambda o: o[0])
    assert res.best_ratio == winner[0]
    assert res.trace == winner[2]

    monkeypatch.setattr(extremal, "_climb", fail)
    with pytest.raises(NumericError, match="all restarts failed"):
        search(cfg)
