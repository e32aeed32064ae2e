"""The searches' fixed work is built once and reused bit for bit.

sknorm._start_vectors caches the seeded starts of every search,
sknorm._start_frames the Rayleigh ascent's frames of those starts, and each
hermitian operator keeps the PSD shift cI - sigma y of each sign through
BipartiteOperator.psd_shift.  No cache may change a result: a second run
must repeat the first exactly, and no search may write into a cached
array.  The operator-norm exit may only stop searches early: where no
search reaches the operator norm, the results equal a run without it.
"""

import dataclasses

import numpy as np
import pytest

import entnorms.linalg as linalg
import entnorms.sknorm as sknorm
from entnorms.linalg import bipartite
from entnorms.sknorm import (
    BlockPositivityResult,
    NormInterval,
    SeeSawResult,
    _rayleigh_ascent,
    _start_frames,
    _start_vectors,
    block_positivity_check,
    prod_radius_bisect,
    prod_radius_bounds,
    seesaw_lower,
    sk_bounds,
)
from oracles import ascend_no_exit_ref


@pytest.fixture(autouse=True)
def cold_start_cache():
    _start_vectors.cache_clear()
    _start_frames.cache_clear()
    yield
    _start_vectors.cache_clear()
    _start_frames.cache_clear()


def _ginibre(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _hermitian(rng, m, n):
    g = _ginibre(rng, m * n)
    return bipartite((g + g.conj().T) / 2.0, m, n)


def _fingerprint(result):
    """Every number a result reports, certificate vectors as bytes."""
    if isinstance(result, SeeSawResult):
        return (result.value, result.iterations, result.converged, result.seed,
                result.objective_trace, result.v.amplitudes.tobytes(),
                result.w.amplitudes.tobytes())
    if isinstance(result, NormInterval):
        return (result.lower, result.upper, result.lower_method, result.upper_method,
                result.exact, _fingerprint(result.certificate))
    if isinstance(result, BlockPositivityResult):
        return (result.verdict, result.c, _fingerprint(result.interval),
                _fingerprint(result.witness))
    assert result is None
    return None


def test_starts_are_read_only_and_cached_per_key():
    starts = _start_vectors(3, 3, 2, 8, 5)
    assert starts.shape == (8, 9) and not starts.flags.writeable
    with pytest.raises(ValueError):
        starts[0, 0] = 0.0
    assert _start_vectors(3, 3, 2, 8, 5) is starts
    assert _start_vectors(3, 3, 1, 8, 5) is not starts
    assert _start_vectors(3, 3, 2, 8, 6) is not starts
    fresh = _start_vectors.__wrapped__(3, 3, 2, 8, 5)
    assert fresh is not starts
    assert fresh.tobytes() == starts.tobytes()


def test_searches_do_not_write_into_the_cached_starts():
    rng = np.random.default_rng(31)
    x = bipartite(_ginibre(rng, 9), 3, 3)
    psd = bipartite(x.mat @ x.mat.conj().T, 3, 3, symmetrize=True)
    starts = _start_vectors(3, 3, 1, 6, 4)
    before = starts.tobytes()
    first = seesaw_lower(x, 1, restarts=6, seed=4)
    ascent = _rayleigh_ascent(psd, 1, 6, 500, 4)
    assert first.iterations > 1 and ascent.iterations > 1
    assert _start_vectors(3, 3, 1, 6, 4) is starts
    assert starts.tobytes() == before == _start_vectors.__wrapped__(3, 3, 1, 6, 4).tobytes()
    assert _fingerprint(seesaw_lower(x, 1, restarts=6, seed=4)) == _fingerprint(first)


def test_start_frames_are_read_only_and_cached_per_key():
    frames = _start_frames(3, 4, 2, 8, 5)
    assert frames.shape == (8, 4, 2) and not frames.flags.writeable
    with pytest.raises(ValueError):
        frames[0, 0, 0] = 0.0
    assert _start_frames(3, 4, 2, 8, 5) is frames
    assert _start_frames(3, 4, 1, 8, 5) is not frames
    assert _start_frames(3, 4, 2, 8, 6) is not frames
    fresh = _start_frames.__wrapped__(3, 4, 2, 8, 5)
    assert fresh is not frames
    assert fresh.tobytes() == frames.tobytes()
    # Each frame spans the right Schmidt vectors, conjugated, of its start.
    for start, frame in zip(_start_vectors(3, 4, 2, 8, 5), frames, strict=True):
        mat = start.reshape(3, 4)
        assert np.allclose(mat.conj() @ frame @ frame.conj().T, mat.conj(), atol=1e-12)


def test_searches_do_not_write_into_the_cached_frames():
    rng = np.random.default_rng(33)
    y = _hermitian(rng, 3, 3)
    _, psd = y.psd_shift(1.0)
    frames = _start_frames(3, 3, 1, 6, 4)
    before = frames.tobytes()
    first = _rayleigh_ascent(psd, 1, 6, 500, 4)
    assert first.iterations > 1
    block_positivity_check(y, 1, restarts=6, seed=4)
    prod_radius_bounds(y, 1, restarts=6, seed=4)
    assert _start_frames.cache_info().hits > 0
    assert _start_frames(3, 3, 1, 6, 4) is frames
    assert frames.tobytes() == before == _start_frames.__wrapped__(3, 3, 1, 6, 4).tobytes()
    assert _fingerprint(_rayleigh_ascent(psd, 1, 6, 500, 4)) == _fingerprint(first)


def test_random_operators_give_the_results_of_a_search_without_the_exit(monkeypatch):
    rng = np.random.default_rng(2024)
    calls = []
    for m, n in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4)):
        for k in range(1, min(m, n)):
            g = _ginibre(rng, m * n)
            rho = bipartite(g @ g.conj().T, m, n, symmetrize=True)
            y = _hermitian(rng, m, n)
            x = bipartite(_ginibre(rng, m * n), m, n)
            calls += [
                lambda x=x, k=k: sk_bounds(x, k),
                lambda rho=rho, k=k: sk_bounds(rho, k),
                lambda rho=rho, k=k: prod_radius_bounds(rho, k),
                lambda y=y, k=k: prod_radius_bounds(y, k),
                lambda y=y, k=k: block_positivity_check(y, k),
            ]
    results = [call() for call in calls]
    monkeypatch.setattr(sknorm, "_ascend", ascend_no_exit_ref)
    assert [_fingerprint(r) for r in results] == [_fingerprint(call()) for call in calls]


@pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (2, 4)])
def test_a_warm_run_repeats_the_cold_run(m, n):
    rng = np.random.default_rng(40 + m * n)
    x = bipartite(_ginibre(rng, m * n), m, n)
    y = _hermitian(rng, m, n)
    calls = []
    for k in range(1, min(m, n)):
        calls += [
            lambda k=k: seesaw_lower(x, k),
            lambda k=k: sk_bounds(x, k),
            lambda k=k: prod_radius_bounds(y, k),
            lambda k=k: block_positivity_check(y, k),
        ]
    cold = [call() for call in calls]
    assert _start_vectors.cache_info().hits > 0  # later searches reuse the starts
    warm = [call() for call in calls]
    assert [_fingerprint(r) for r in warm] == [_fingerprint(r) for r in cold]
    # The searches ran, so the comparison covers their iterations and pairs.
    assert all(r.iterations > 1 for r in cold[::4])
    assert cold[2].certificate is not None and cold[2].certificate.iterations > 1


class _ShiftSvds:
    """Counts the svds of whole 9 x 9 operators and keeps their matrices."""

    def __init__(self, monkeypatch):
        self.mats = []
        svd = linalg.svd

        def counted(mat):
            if np.shape(mat) == (9, 9):
                self.mats.append(np.array(mat))
            return svd(mat)

        monkeypatch.setattr(linalg, "svd", counted)


def test_each_sign_is_shifted_and_decomposed_once(monkeypatch):
    rng = np.random.default_rng(77)
    y = _hermitian(rng, 3, 3)
    svds = _ShiftSvds(monkeypatch)
    for k in (1, 2):
        block_positivity_check(y, k)
        prod_radius_bounds(y, k)
    for k in (1, 2):
        prod_radius_bisect(y, k)
    assert len(svds.mats) == 2
    shifts = [y.psd_shift(sign) for sign in (1.0, -1.0)]
    assert y.psd_shift(1.0) is shifts[0]
    assert sorted(a.tobytes() for a in svds.mats) == sorted(
        shift.mat.tobytes() for _, shift in shifts)
    lam = np.linalg.eigvalsh(y.mat)
    for (c, shift), sign in zip(shifts, (1.0, -1.0)):
        assert shift.hermitian and shift.dims == y.dims
        assert abs(c - np.max(sign * lam)) <= 1e-12 * np.max(np.abs(lam))
        assert np.min(np.linalg.eigvalsh(shift.mat)) >= -1e-12 * np.max(np.abs(lam))


def test_an_equal_operator_builds_its_own_shifts(monkeypatch):
    rng = np.random.default_rng(78)
    y = _hermitian(rng, 3, 3)
    twin = bipartite(np.array(y.mat), 3, 3)
    svds = _ShiftSvds(monkeypatch)
    first = block_positivity_check(y, 1)
    # The shift cache adds no field, so the twin still equals y field by field.
    assert [f.name for f in dataclasses.fields(twin)] == ["mat", "dim_a", "dim_b", "hermitian"]
    assert np.array_equal(twin.mat, y.mat) and (twin.dims, twin.hermitian) == (y.dims, y.hermitian)
    assert _fingerprint(block_positivity_check(twin, 1)) == _fingerprint(first)
    assert len(svds.mats) == 2
    assert twin.psd_shift(1.0) is not y.psd_shift(1.0)
    assert twin.psd_shift(1.0)[1] is not y.psd_shift(1.0)[1]
