import json
import math
import re
import warnings

import numpy as np
import pytest

from carlembed import cli, extremal, numerics
from carlembed.errors import CarlembedError, InputError, KernelConditioningWarning, NumericError
from carlembed.extremal import SearchConfig, SearchResult, ratio, search
from carlembed.geometry import Space, SpacePoint
from carlembed.measure import (
    BOUND_SLACK, DiscreteMeasure, _weighted_gram, theorem_bound_constant,
)
from carlembed.numerics import rng_stream

DISC = Space.disc()
BALL2 = Space.ball(2)


# The search before the lockstep climb, kept as the oracle: each restart
# climbs alone and builds a DiscreteMeasure for every proposal.
_STALL_WINDOW = 20


def _oracle_build_measure(space, y, v):
    v = v - np.mean(v)
    with np.errstate(over="ignore", invalid="ignore"):
        norm_sq = np.sum(y * y, axis=1)
        radii_raw = np.sqrt(norm_sq)
        scale = np.where(radii_raw > 1e-12, np.tanh(radii_raw) / np.maximum(radii_raw, 1e-12), 1.0)
        scaled = y * scale[:, None]
        for j in np.flatnonzero(np.isinf(norm_sq)):  # |y|^2 past the double range
            top = np.max(np.abs(y[j]))
            unit = y[j] / top
            norm = np.sqrt(np.sum(unit * unit))
            scaled[j] = np.tanh(top * norm) * (unit / norm)
    atoms = []
    for row, vj in zip(scaled, v):
        coords = row[::2] + 1j * row[1::2]
        atoms.append((coords, float(np.exp(vj))))
    return DiscreteMeasure(space, atoms)


def _oracle_ratio(space, y, v):
    """(measure, ratio) of a proposal; an atom at which SpacePoint warns makes it an InputError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", KernelConditioningWarning)
        try:
            mu = _oracle_build_measure(space, y, v)
        except KernelConditioningWarning as exc:
            raise InputError(str(exc)) from None
    return mu, ratio(mu)


def _climb(cfg, restart, bound):
    rng = rng_stream(cfg.seed, restart)
    dim2 = 2 * cfg.space.dim
    y = rng.normal(0.0, 0.7, size=(cfg.atom_count, dim2))
    v = rng.normal(0.0, 0.3, size=cfg.atom_count)
    best_mu, best = _oracle_ratio(cfg.space, y, v)
    trace = [(0, best)]
    step = cfg.step_init
    stall = 0
    for it in range(1, cfg.iterations + 1):
        dy = rng.normal(0.0, 1.0, size=y.shape)
        dv = rng.normal(0.0, 1.0, size=v.shape)
        cand_y = y + step * dy
        cand_v = v + 0.5 * step * dv
        try:
            cand_mu, value = _oracle_ratio(cfg.space, cand_y, cand_v)
        except InputError:  # no measure, or an atom within 1e-8 of the sphere
            value = None
        else:
            if value > bound * (1.0 + BOUND_SLACK):
                warnings.warn(f"search found ratio {value!r} above the theorem bound {bound!r}; "
                              "this falsifies the implementation or the theorem",
                              RuntimeWarning, stacklevel=2)
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


def _oracle_outcomes(cfg):
    """Per restart, the oracle climb's (best, best_mu, trace) or its abort note."""
    bound = theorem_bound_constant(cfg.space)
    outcomes = []
    for r in range(cfg.restarts):
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # overflowing steps
                outcomes.append(_climb(cfg, r, bound))
        except CarlembedError as exc:
            outcomes.append(f"restart {r} aborted: {exc}")
    return outcomes


def _winner(outcomes, skip=()):
    winner = None
    for r, outcome in enumerate(outcomes):
        if r in skip or isinstance(outcome, str):
            continue
        if winner is None or outcome[0] > winner[0]:
            winner = outcome
    return winner


def _atoms(mu):
    return [(p.coords, w) for p, w in mu.atoms]


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
    for step in (-0.1, math.inf, math.nan):
        with pytest.raises(InputError, match="^step_init must be positive and finite"):
            SearchConfig(space=DISC, step_init=step)
    for step in (True, np.bool_(True), "0.5", None, 10 ** 400):
        with pytest.raises(InputError, match=f"^step_init must be positive and finite, got "
                                             f"{re.escape(repr(step))}$"):
            SearchConfig(space=DISC, step_init=step)
        with pytest.raises(InputError, match=r"^step_decay must lie in \(0, 1\)$"):
            SearchConfig(space=DISC, step_decay=step)
    cfg = SearchConfig(space=DISC, step_init=np.int64(2), step_decay=np.float32(0.5))
    assert cfg.step_init == 2 and cfg.step_decay == 0.5
    for seed in (-1, 1.5, None, True, "1"):
        with pytest.raises(InputError, match=f"^seed must be a non-negative integer, got {seed!r}"):
            SearchConfig(space=DISC, seed=seed)
    assert SearchConfig(space=DISC, seed=np.int64(3)).seed == 3
    for name, value in [("iterations", 2.0), ("restarts", 2.5), ("restarts", "3"),
                        ("restarts", True), ("atom_count", True)]:
        with pytest.raises(InputError, match=f"^{name} must be a positive integer, got {value!r}$"):
            SearchConfig(space=DISC, **{name: value})
    cap = extremal.MAX_SEARCH_ATOMS
    assert SearchConfig(space=DISC, atom_count=2, restarts=cap // 2).restarts == cap // 2
    with pytest.raises(InputError, match=f"^restarts x atoms is {cap // 2 + 1} x 2, practical"):
        SearchConfig(space=DISC, atom_count=2, restarts=cap // 2 + 1)


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


ORACLE_CONFIGS = [
    SearchConfig(space=DISC, atom_count=1, iterations=100, restarts=2, seed=3),
    SearchConfig(space=DISC, atom_count=2, iterations=400, restarts=3, seed=7),
    SearchConfig(space=DISC, atom_count=3, iterations=300, restarts=2, seed=11),
    SearchConfig(space=DISC, atom_count=8, iterations=200, restarts=4, seed=5),
    SearchConfig(space=BALL2, atom_count=2, iterations=200, restarts=3, seed=5),
    SearchConfig(space=BALL2, atom_count=8, iterations=100, restarts=4, seed=6),
    SearchConfig(space=DISC, atom_count=2, iterations=100, restarts=2, seed=1, step_init=20.0),
    SearchConfig(space=DISC, atom_count=2, iterations=2500, restarts=4, seed=42),
    # steps this large reject proposals with atoms near the sphere
    SearchConfig(space=BALL2, atom_count=1, iterations=100, restarts=2, seed=5, step_init=5.0),
    # steps that overflow: NaN points, and weights that are 0, infinite or NaN
    SearchConfig(space=DISC, atom_count=3, iterations=60, restarts=3, seed=0, step_init=1e300),
    SearchConfig(space=BALL2, atom_count=2, iterations=60, restarts=3, seed=0, step_init=1e308),
]


def _cfg_id(c):
    return f"{c.space.kind}{c.space.dim}-m{c.atom_count}-it{c.iterations}-step{c.step_init:g}"


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=_cfg_id)
def test_search_matches_per_restart_oracle(cfg):
    _match_oracle(cfg)


def _match_oracle(cfg):
    """search(cfg) against the oracle, bit for bit; the oracle outcomes and winner."""
    outcomes = _oracle_outcomes(cfg)
    res = search(cfg)
    winner = _winner(outcomes)
    assert res.best_ratio == winner[0]
    assert res.trace == winner[2]
    assert _atoms(res.best_measure) == _atoms(winner[1])
    assert res.notes == tuple(o for o in outcomes if isinstance(o, str))
    assert type(res.best_ratio) is float and all(type(x) is float for _, x in res.trace)
    return outcomes, winner


def _oracle_proposals(cfg, restart, trace):
    """(iteration, y, v) of every proposal of the oracle climb of restart, replayed from its trace."""
    rng = rng_stream(cfg.seed, restart)
    shape = (cfg.atom_count, 2 * cfg.space.dim)
    y = rng.normal(0.0, 0.7, size=shape)
    v = rng.normal(0.0, 0.3, size=cfg.atom_count)
    accepted = {it for it, _ in trace}
    step, stall = cfg.step_init, 0
    for it in range(1, cfg.iterations + 1):
        cand_y = y + step * rng.normal(0.0, 1.0, size=shape)
        cand_v = v + 0.5 * step * rng.normal(0.0, 1.0, size=cfg.atom_count)
        yield it, cand_y, cand_v
        if it in accepted:
            y, v, stall = cand_y, cand_v, 0
        else:
            stall += 1
            if stall >= _STALL_WINDOW:
                step, stall = step * cfg.step_decay, 0


# The lookahead windows: 3 restarts of 4 disc atoms take windows of 16.
WINDOW_CFG = SearchConfig(space=DISC, atom_count=4, iterations=120, restarts=3, seed=2)


def test_window_acceptance_mid_window_matches_per_restart_oracle():
    cfg = WINDOW_CFG
    assert cfg.restarts * extremal._LOOKAHEAD * cfg.atom_count ** 2 <= numerics._BLOCK_ENTRIES
    _, winner = _match_oracle(cfg)
    # windows open after each acceptance a, at a + 1, a + 17, ...; an
    # acceptance b inside one drops the window's later proposals, and their
    # draws open the next window
    its = [it for it, _ in winner[2]]
    assert any(0 < (b - a - 1) % extremal._LOOKAHEAD < extremal._LOOKAHEAD - 1
               for a, b in zip(its, its[1:]))


def test_window_step_decay_matches_per_restart_oracle():
    _, winner = _match_oracle(WINDOW_CFG)
    # the step decays after the rejection at a + 20, inside the window
    # a + 17 to a + 32, and an acceptance b > a + 20 took the decayed step
    its = [it for it, _ in winner[2]]
    assert any(b - a > _STALL_WINDOW for a, b in zip(its, its[1:]))


def test_window_abort_mid_window_matches_per_restart_oracle(monkeypatch):
    cfg = WINDOW_CFG
    outcomes = _oracle_outcomes(cfg)
    best = max(range(cfg.restarts), key=lambda r: (outcomes[r][0], -r))
    (first, _), (second, _) = outcomes[best][2][1:3]
    # the second proposal of the window that opens after the first acceptance
    assert second > first + 2
    _, y, v = next(p for p in _oracle_proposals(cfg, best, outcomes[best][2]) if p[0] == first + 2)
    mu = _oracle_build_measure(DISC, y, v)
    target = _weighted_gram(mu.points_array(), np.sqrt(mu.weights_array()))
    eigvalsh = np.linalg.eigvalsh

    def fail_target(a, UPLO="L"):
        if _holds(a, target):
            raise np.linalg.LinAlgError("eigensolve failed")
        return eigvalsh(a, UPLO=UPLO)

    monkeypatch.setattr(np.linalg, "eigvalsh", fail_target)
    aborted, _ = _match_oracle(cfg)
    assert aborted[best] == (
        f"restart {best} aborted: eigensolver failed to converge: eigensolve failed")
    assert [o[2] for r, o in enumerate(aborted) if r != best] == [
        o[2] for r, o in enumerate(outcomes) if r != best]


def test_window_above_bound_warnings_per_restart_oracle_order(monkeypatch):
    cfg = SearchConfig(space=DISC, atom_count=2, iterations=40, restarts=3, seed=7)
    low = 1.1
    outcomes = _oracle_outcomes(cfg)
    expected = []
    for r in range(cfg.restarts):
        for it, y, v in _oracle_proposals(cfg, r, outcomes[r][2]):
            value = ratio(_oracle_build_measure(DISC, y, v))
            if value > low * (1.0 + BOUND_SLACK):
                expected.append((it, r, value))
    restarts = [r for _, r, _ in sorted(expected)]
    assert restarts != sorted(restarts)  # the restarts interleave
    monkeypatch.setattr(extremal, "theorem_bound_constant", lambda space: low)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = search(cfg)
    assert [str(w.message) for w in caught] == [
        f"search found ratio {value!r} above the theorem bound {low!r}; "
        "this falsifies the implementation or the theorem" for _, _, value in sorted(expected)]
    assert all(w.category is RuntimeWarning and w.filename == __file__ for w in caught)
    assert res.trace == _winner(outcomes)[2]


def test_search_windows_make_few_stacked_calls(monkeypatch):
    calls = []
    ratios = extremal._ratios

    def counted(space, y, v):
        calls.append(len(y))
        return ratios(space, y, v)

    monkeypatch.setattr(extremal, "_ratios", counted)
    # the benchmark's search: 501 calls with one proposal per restart
    search(SearchConfig(space=DISC, atom_count=8, iterations=500, restarts=4, seed=0))
    assert len(calls) <= 60
    # windows of 16 would not fit one block: one proposal per restart
    calls.clear()
    search(SearchConfig(space=DISC, atom_count=100, iterations=3, restarts=4, seed=0))
    assert calls == [4] * 4


ABORT_CFG = SearchConfig(space=DISC, atom_count=2, iterations=150, restarts=3, seed=9)


def _abort_setup():
    """The oracle outcomes of ABORT_CFG, its winning restart, and that restart's Gram matrices."""
    outcomes = _oracle_outcomes(ABORT_CFG)
    best = max(range(ABORT_CFG.restarts), key=lambda r: (outcomes[r][0], -r))
    rng = rng_stream(ABORT_CFG.seed, best)
    y = rng.normal(0.0, 0.7, size=(ABORT_CFG.atom_count, 2))
    v = rng.normal(0.0, 0.3, size=ABORT_CFG.atom_count)

    def gram(mu):
        return _weighted_gram(mu.points_array(), np.sqrt(mu.weights_array()))

    start = gram(_oracle_build_measure(DISC, y, v))
    # the best measure of that restart is a proposal accepted mid-climb
    assert outcomes[best][2][-1][0] > 0
    return outcomes, best, {"start": start, "mid-climb": gram(outcomes[best][1])}


def _holds(a, target):
    return any(np.array_equal(m, target) for m in (a if a.ndim == 3 else [a]))


def test_search_records_aborted_restart(monkeypatch):
    outcomes, best, grams = _abort_setup()
    eigvalsh = np.linalg.eigvalsh
    for target in grams.values():

        def fail_best(a, UPLO="L"):
            # a batched call holding the matrix fails, then the matrix alone
            if _holds(a, target):
                raise np.linalg.LinAlgError("eigensolve failed")
            return eigvalsh(a, UPLO=UPLO)

        monkeypatch.setattr(np.linalg, "eigvalsh", fail_best)
        res = search(ABORT_CFG)
        assert res.notes == (
            f"restart {best} aborted: eigensolver failed to converge: eigensolve failed",
        )
        winner = _winner(outcomes, skip={best})
        assert res.best_ratio == winner[0]
        assert res.trace == winner[2]
        assert _atoms(res.best_measure) == _atoms(winner[1])

    def fail(a, UPLO="L"):
        raise np.linalg.LinAlgError("eigensolve failed")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericError, match="all restarts failed"):
        search(ABORT_CFG)


def test_search_integer_step_init_equals_float():
    # 200 iterations stall often enough to decay the integer step
    a, b = (search(SearchConfig(space=DISC, atom_count=2, iterations=200, restarts=2, seed=4,
                                step_init=step)) for step in (10, 10.0))
    assert a.best_ratio == b.best_ratio and a.trace == b.trace and a.notes == b.notes
    assert _atoms(a.best_measure) == _atoms(b.best_measure)


@pytest.mark.parametrize("space", [DISC, BALL2], ids=["disc", "ball2"])
@pytest.mark.parametrize("count", [2, 3, 4])
@pytest.mark.parametrize("step", [6.0, 15.0])
def test_search_ratio_never_exceeds_the_atom_count(space, count, step):
    # An exact oracle: lambda_max(M) <= trace M, and c_supp is at least
    # each diagonal entry M_jj, since P_lam(lam) = K(lam, lam); so no
    # measure of m atoms has a ratio above m.  Steps this large put atoms
    # within rounding of the sphere, where the ratio in double precision
    # is meaningless (4.000000000000001 on ball(2), 4 atoms, step 6, seed
    # 0, for a measure whose exact ratio is 1): such proposals are
    # rejected steps, without a warning.
    for seed in range(6):
        cfg = SearchConfig(space, atom_count=count, iterations=100, restarts=6,
                           step_init=step, seed=seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = search(cfg)
        assert all(value <= count for _, value in res.trace) and res.best_ratio <= count
        assert caught == [] and res.notes == ()


def _measure_path(monkeypatch):
    """Every DiscreteMeasure built from now on."""
    measures = []
    init = DiscreteMeasure.__init__

    def counted(self, space, atoms):
        measures.append(self)
        init(self, space, atoms)

    monkeypatch.setattr(DiscreteMeasure, "__init__", counted)
    return measures


def test_stacked_proposal_with_equal_rows_matches_merged_measure(monkeypatch):
    # Two equal rows stay two atoms on the stack: the duplicated Gram rows
    # give the merged atom's top eigenvalue, and c_supp counts both weights
    # at that atom, so the ratio is the merged measure's up to rounding.
    rng = np.random.default_rng(0)
    y, v = rng.normal(0.0, 0.7, size=(3, 4, 2)), rng.normal(0.0, 0.3, size=(3, 4))
    y[1, 2] = y[1, 0]
    merged = extremal._build_measure(DISC, y[1], v[1])
    assert len(merged) == 3
    expected = [ratio(extremal._build_measure(DISC, y[i], v[i])) for i in range(3)]
    measures = _measure_path(monkeypatch)
    values, errors = extremal._ratios(DISC, y, v)
    assert errors == {} and measures == []
    assert values[1] == pytest.approx(expected[1], rel=1e-13, abs=0.0)
    assert values[0] == expected[0] and values[2] == expected[2]


def test_stacked_proposal_past_the_boundary_is_rejected(monkeypatch):
    rng = np.random.default_rng(1)
    y, v = rng.normal(0.0, 0.7, size=(2, 3, 4)), rng.normal(0.0, 0.3, size=(2, 3))
    y[0, 1] = [40.0, 0.0, 0.0, 0.0]  # tanh(40) rounds to 1: |z|^2 = 1
    measures = _measure_path(monkeypatch)
    values, errors = extremal._ratios(BALL2, y, v)
    assert math.isnan(values[0]) and measures == []
    assert list(errors) == [0] and isinstance(errors[0], InputError)
    assert str(errors[0]) == ("an atom has 1 - |z|^2 = 0.000e+00, not above 1e-08; "
                              "kernel values are ill conditioned")
    assert values[1] == ratio(extremal._build_measure(BALL2, y[1], v[1]))


def test_proposal_past_the_double_range_lands_near_the_sphere(monkeypatch):
    # |y|^2 overflows in the first atom of rows 0 and 1, and |y| itself in
    # row 1.  Such an atom went to the origin; it lands at tanh(|y|) y / |y|,
    # on the sphere to rounding, and the conditioning screen refuses it.
    y = np.array([[[1e200, 3e199], [0.3, 0.1]],
                  [[1e308, -1e308], [0.3, 0.1]],
                  [[0.2, -0.4], [0.3, 0.1]]])
    v = np.zeros((3, 2))
    points, _ = extremal._proposal_arrays(y, v)
    for row, point in zip(y[:2, 0], points[:2, 0, 0]):
        unit = row / np.max(np.abs(row))
        assert point == pytest.approx(complex(*unit) / math.hypot(*unit), rel=1e-15, abs=0.0)
        assert abs(abs(point) - 1.0) <= 1e-15
    for i in range(2):  # the oracle's copy of the map refuses them too
        with pytest.raises(InputError):
            _oracle_ratio(DISC, y[i], v[i])
    measures = _measure_path(monkeypatch)
    values, errors = extremal._ratios(DISC, y, v)
    assert measures == [] and sorted(errors) == [0, 1]
    assert all(isinstance(exc, InputError) and "ill conditioned" in str(exc)
               for exc in errors.values())
    assert values[2] == ratio(extremal._build_measure(DISC, y[2], v[2]))


@pytest.mark.parametrize("space", [DISC, BALL2], ids=["disc", "ball2"])
def test_stacked_proposal_is_rejected_where_spacepoint_warns(space, monkeypatch):
    # For n <= 2 the vectorized |z|^2 is SpacePoint's fsum bit for bit, so
    # the stack refuses exactly the atoms at which SpacePoint warns.  Radii
    # |y| around 9.9: 1 - tanh(|y|)^2 lies in 8.5e-9 to 1.1e-8.
    rng = rng_stream(77, space.dim)
    count = 400
    y = rng.normal(size=(count, 1, 2 * space.dim))
    y *= rng.uniform(9.85, 9.98, size=(count, 1, 1)) / np.sqrt(np.sum(y * y, axis=-1))[..., None]
    y = np.concatenate([y, rng.normal(0.0, 0.7, size=(count, 2, 2 * space.dim))], axis=1)
    v = rng.normal(0.0, 0.3, size=(count, 3))
    warns = []
    for i in range(count):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            SpacePoint(extremal._proposal_arrays(y[i], v[i])[0][0])
        warns.append(bool(caught))
    assert 0 < sum(warns) < count
    measures = _measure_path(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, errors = extremal._ratios(space, y, v)
    assert measures == [] and sorted(errors) == [i for i in range(count) if warns[i]]
    assert all(isinstance(exc, InputError) for exc in errors.values())
    assert all(math.isnan(values[i]) != (i not in errors) for i in range(count))


@pytest.mark.parametrize("space", [DISC, BALL2], ids=["disc", "ball2"])
def test_stacked_certified_orders_match_per_restart_oracle(space, monkeypatch):
    # From 256 atoms on the Gram matrices of a stack take the certificate,
    # as embedding_norm_sq does for each measure of the oracle.
    rng = rng_stream(260, space.dim)
    y = rng.normal(0.0, 0.7, size=(3, 260, 2 * space.dim))
    v = rng.normal(0.0, 0.3, size=(3, 260))
    measures = _measure_path(monkeypatch)
    brackets = []
    certified_top_eig = numerics._certified_top_eig

    def counted(a):
        brackets.append(certified_top_eig(a))
        return brackets[-1]

    monkeypatch.setattr(numerics, "_certified_top_eig", counted)
    values, errors = extremal._ratios(space, y, v)
    assert errors == {} and measures == [] and len(brackets) == 3
    for i in range(3):
        assert values[i] == ratio(extremal._build_measure(space, y[i], v[i]))


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=_cfg_id)
def test_all_stacked_search_builds_only_the_winner(cfg, monkeypatch):
    # every proposal is decided on its arrays, the overflowing ones too
    measures = _measure_path(monkeypatch)
    res = search(cfg)
    assert len(measures) == 1 and measures[0] is res.best_measure


def test_stacked_proposal_with_a_nan_point_or_a_bad_weight_is_refused(monkeypatch):
    rng = np.random.default_rng(2)
    y, v = rng.normal(0.0, 0.7, size=(4, 3, 2)), rng.normal(0.0, 0.3, size=(4, 3))
    y[1, 2] = [np.inf, 0.0]  # tanh(inf) / inf = 0, and inf * 0 is NaN
    v[2] = [3000.0, 0.0, 0.0]  # weights exp(2000), exp(-1000), exp(-1000): inf, 0, 0
    v[3] = [-3000.0, 0.0, 0.0]  # 0, inf, inf
    refusals = {}
    for i, weight in [(2, "inf"), (3, "0.0")]:
        with pytest.raises(InputError) as exc:
            extremal._build_measure(DISC, y[i], v[i])
        assert str(exc.value) == f"weights must be positive and finite, got {weight}"
        refusals[i] = str(exc.value)
    measures = _measure_path(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, errors = extremal._ratios(DISC, y, v)
    assert measures == [] and sorted(errors) == [1, 2, 3]
    assert all(isinstance(exc, InputError) for exc in errors.values())
    assert str(errors[1]) == ("an atom has 1 - |z|^2 = nan, not above 1e-08; "
                              "kernel values are ill conditioned")
    assert {i: str(errors[i]) for i in (2, 3)} == refusals
    assert not math.isnan(values[0]) and all(math.isnan(values[i]) for i in (1, 2, 3))


@pytest.mark.parametrize("space", [DISC, BALL2], ids=["disc", "ball2"])
@pytest.mark.parametrize("step", [1e300, 1e308])
def test_search_with_overflowing_steps_raises_no_warning(space, step):
    cfg = SearchConfig(space, atom_count=3, iterations=60, restarts=3, seed=0, step_init=step)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = search(cfg)
    assert caught == [] and res.notes == ()


def test_search_rejects_atoms_near_the_sphere_without_a_warning(capsys):
    # Steps this large put 931 ball(2) proposal atoms within 1e-8 of the
    # sphere; each is a rejected step, and no measure is built for it.
    argv = ["search", "--space", "ball2", "--atoms", "3", "--iters", "100", "--restarts", "6",
            "--step-init", "10", "--seed", "0"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert caught == []
    cfg = SearchConfig(BALL2, atom_count=3, iterations=100, restarts=6, step_init=10.0, seed=0)
    winner = _winner(_oracle_outcomes(cfg))
    assert out == "iteration,best_ratio\n" + "".join(
        f"{it},{cli._fmt(val)}\n" for it, val in winner[2])
    bound = cli._fmt(theorem_bound_constant(BALL2))
    assert err.splitlines() == [
        f"best_ratio = {cli._fmt(winner[0])}  (bound {bound})",
        "best_measure = " + json.dumps(cli.measure_to_dict(winner[1])),
    ]
