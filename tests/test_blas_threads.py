"""The searches and the gamma witness run their BLAS calls on one thread.

linalg._one_blas_thread wraps exactly sknorm._ascend and
dualnorms.best_gamma_witness.  Inside them every loaded OpenBLAS runs on
one thread; on leaving, normally or by an exception, and from any number
of Python threads, the caller's thread count comes back.  The setting
changes no result: with the control switched off the endpoints, tags and
certificates are bit-identical.  Every test is skipped where no OpenBLAS
thread control is found.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

import entnorms.linalg as linalg
import entnorms.schmidt as schmidt
import entnorms.sknorm as sknorm
from entnorms.dualnorms import gamma_bounds, robustness_bounds
from entnorms.errors import NumericalError
from entnorms.linalg import bipartite
from entnorms.sknorm import block_positivity_check, sk_bounds
from entnorms.states import EnsembleSpec, generate


def _density(seed: int = 7):
    return generate(EnsembleSpec("ginibre_density", 8, 8, seed=seed))


def _traceless(x):
    """x minus its mean eigenvalue: indefinite, so block positivity runs its search."""
    return bipartite(x.mat - np.eye(64) / 64.0, 8, 8)


def _counts(control) -> list[int]:
    return [get() for get, _ in control]


@pytest.fixture
def blas():
    """The OpenBLAS control, with every thread count set to 2 for the test
    and the counts found before it restored afterwards."""
    with linalg._one_blas_thread():
        pass
    control = linalg._BLAS_CONTROL
    if control is None:
        pytest.skip("no OpenBLAS thread control in this process")
    saved = _counts(control)
    for _, set_ in control:
        set_(2)
    yield control
    for (_, set_), count in zip(control, saved):
        set_(count)


def test_a_search_runs_on_one_thread(blas, monkeypatch):
    # The Rayleigh ascent's block steps call sknorm._top_eigenpairs, and
    # the see-saw's Gram truncations schmidt._top_eigenpairs.
    seen = []
    inner = linalg._top_eigenpairs

    def spy(*args, **kwargs):
        seen.append(_counts(blas))
        return inner(*args, **kwargs)

    monkeypatch.setattr(sknorm, "_top_eigenpairs", spy)
    monkeypatch.setattr(schmidt, "_top_eigenpairs", spy)
    caller = _counts(blas)
    x = _density()
    block_positivity_check(_traceless(x), 2)
    rayleigh = len(seen)
    sk_bounds(x, 2)
    assert 0 < rayleigh < len(seen)
    assert all(counts == [1] * len(blas) for counts in seen)
    assert _counts(blas) == caller


def test_entry_points_restore_the_callers_count(blas):
    caller = _counts(blas)
    x = _density()
    sk_bounds(x, 2)
    assert _counts(blas) == caller
    gamma_bounds(x, 2)
    assert _counts(blas) == caller
    block_positivity_check(_traceless(x), 2)
    assert _counts(blas) == caller


def test_a_failing_search_restores_the_callers_count(blas):
    caller = _counts(blas)
    x = _density()
    x.svd  # kept, so the injected failure is raised inside the search
    linalg.inject_svd_failure(True)
    try:
        with pytest.raises(NumericalError) as info:
            sk_bounds(x, 2)
    finally:
        linalg.inject_svd_failure(False)
    assert any(entry.name == "_ascend" for entry in info.traceback)
    assert _counts(blas) == caller
    assert linalg._blas_depth == 0


def test_concurrent_searches_restore_the_callers_count(blas):
    caller = _counts(blas)
    expected = sk_bounds(_density(), 2)
    results, errors = [], []

    def search():
        try:
            results.append(sk_bounds(_density(), 2))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=search) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert [(r.lower, r.upper) for r in results] == [(expected.lower, expected.upper)] * 4
    assert _counts(blas) == caller
    assert linalg._blas_depth == 0


def _bits(interval):
    pair = interval.certificate
    arrays = [getattr(pair, f.name) for f in dataclasses.fields(pair)]
    arrays = [a.amplitudes if hasattr(a, "amplitudes") else getattr(a, "mat", a) for a in arrays]
    return (
        interval.lower, interval.upper, interval.lower_method, interval.upper_method,
        [np.asarray(a).tobytes() for a in arrays],
    )


def test_one_thread_changes_no_result(blas, monkeypatch):
    def run():
        x = _density(11)
        return [_bits(f(x, 2)) for f in (sk_bounds, gamma_bounds, robustness_bounds)]

    scoped = run()
    monkeypatch.setattr(linalg, "_BLAS_CONTROL", None)
    assert run() == scoped
