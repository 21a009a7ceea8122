import math
import tracemalloc

import numpy as np
import pytest

from carlembed import numerics
from carlembed.errors import InputError, NumericError, UnsupportedError
from carlembed.geometry import Space, SpacePoint
from carlembed.interpolation import (
    PointSequence,
    carleson_delta,
    gram_matrix,
    interpolation_report,
    orthogonalizer_cond,
    sequence_measure,
)
from carlembed.measure import MAX_ATOMS, embedding_norm_sq
from carlembed.numerics import extreme_eigs
from conftest import dense_szego, sequence_corpus

DISC = Space.disc()


def seq_pm_half():
    return PointSequence(DISC, [SpacePoint(0.5), SpacePoint(-0.5)])


def test_sequence_rejects_duplicates_and_ball():
    with pytest.raises(InputError):
        PointSequence(DISC, [SpacePoint(0.5), SpacePoint(0.5)])
    with pytest.raises(UnsupportedError):
        PointSequence(Space.ball(2), [SpacePoint([0.1, 0.2])])
    with pytest.raises(InputError):
        PointSequence(DISC, [])
    # single point: the empty separation product is 1 by convention
    assert carleson_delta(PointSequence(DISC, [SpacePoint(0.5)])) == 1.0


def test_carleson_delta_two_point_oracle():
    # pseudo-hyperbolic distance between 0.5 and -0.5 is 0.8
    assert carleson_delta(seq_pm_half()) == pytest.approx(0.8, abs=1e-15)


def test_carleson_delta_three_point_oracle():
    seq = PointSequence(DISC, [SpacePoint(0.0), SpacePoint(0.5), SpacePoint(-0.5)])
    # products: at 0 -> 0.25, at +-0.5 -> 0.5 * 0.8 = 0.4
    assert carleson_delta(seq) == pytest.approx(0.25, abs=1e-15)


def test_sequence_measure_weights():
    mu = sequence_measure(seq_pm_half())
    assert all(w == pytest.approx(0.75, abs=1e-15) for _, w in mu.atoms)


def test_gram_matrix_matches_embedding_route():
    # Gram top eigenvalue equals the embedding norm of the sequence measure
    seq = PointSequence(
        DISC, [SpacePoint(0.3 + 0.2j), SpacePoint(-0.4), SpacePoint(0.1 - 0.6j)]
    )
    _, top = extreme_eigs(gram_matrix(seq))
    assert top == pytest.approx(embedding_norm_sq(sequence_measure(seq)), rel=1e-12)


def _gram_oracle(seq):
    """The earlier body of gram_matrix, before the shared weighted-kernel builder."""
    lam = seq.values()
    a = np.sqrt(1.0 - (lam * lam.conj()).real)
    pts = lam[:, None]
    return a[:, None] * a[None, :] * dense_szego(pts, pts, 1)


def test_gram_matrix_equals_earlier_body():
    for seq in sequence_corpus(30, 12, 0.95, 1e-6, 717, 0):
        got = gram_matrix(seq).entries
        assert got.dtype == complex
        assert np.array_equal(got, _gram_oracle(seq))


def test_orthogonalizer_cond_exact_pair():
    # G = [[1, 0.6], [0.6, 1]]: eigenvalues 1.6 and 0.4, condition root 2
    assert orthogonalizer_cond(seq_pm_half()) == pytest.approx(2.0, abs=1e-12)


def test_report_equality_case(monkeypatch):
    calls = []
    eigvalsh = numerics._eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(numerics, "_eigvalsh", counted)
    rep = interpolation_report(seq_pm_half(), resolution=32)
    assert calls == [(2, 2)]  # K^2 and cond(G) come from one eigensolve
    assert rep.delta == pytest.approx(0.8, abs=1e-12)
    assert rep.k_sq == pytest.approx(1.6, abs=1e-12)
    assert rep.gram_cond_root == pytest.approx(2.0, abs=1e-10)
    assert rep.orth_bound == pytest.approx(2.0, abs=1e-10)
    want = 2 * math.e * 1.25 * (1 + 2 * math.log(1.25))
    assert rep.interp_constant == pytest.approx(want, rel=1e-12)
    assert rep.holds_cond
    assert rep.holds_embedding


def test_report_bounds_on_random_sequence():
    seq = PointSequence(
        DISC,
        [SpacePoint(0.2), SpacePoint(-0.3 + 0.4j), SpacePoint(0.6j), SpacePoint(-0.55)],
    )
    rep = interpolation_report(seq, resolution=32)
    assert 0.0 < rep.delta < 1.0
    assert rep.gram_cond_root <= rep.orth_bound * (1 + 1e-9)
    assert rep.k_sq <= rep.k_sq_bound * (1 + 1e-9)
    assert rep.interp_constant >= rep.orth_bound
    assert rep.kernel_sup >= 1.0 - 1e-12


def test_report_builds_no_hermitian_matrix(monkeypatch):
    # G is Hermitian by construction; only the public gram_matrix wraps it
    built = []
    init = numerics.HermitianMatrix.__init__

    def counted(self, entries):
        built.append(1)
        init(self, entries)

    monkeypatch.setattr(numerics.HermitianMatrix, "__init__", counted)
    seq = seq_pm_half()
    interpolation_report(seq, resolution=32)
    orthogonalizer_cond(seq)
    assert built == []
    gram_matrix(seq)
    assert built == [1]


def test_gram_extremes_refuse_a_nan_end(monkeypatch):
    monkeypatch.setattr(numerics, "_eigvalsh", lambda a: np.array([np.nan, 1.0]))
    with pytest.raises(NumericError, match="^degenerate sequence: smallest Gram eigenvalue nan"):
        orthogonalizer_cond(seq_pm_half())


@pytest.mark.parametrize("fn", [gram_matrix, orthogonalizer_cond, carleson_delta])
def test_point_cap_is_checked_before_any_square_array(fn):
    m = MAX_ATOMS + 1
    seq = PointSequence(DISC, [SpacePoint(0.9 * k / m) for k in range(m)])
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"^sequence has {m} points, practical guard is 2000$"):
            fn(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
