"""Every entry point decomposes its operator at most once per call.

The spies sit on numpy.linalg.svd and numpy.linalg.eigh, under every
entnorms binding.  They count every call, and separately the calls
whose argument equals the operator's own matrix.  A second call on the same
operator reads the cached factors and never decomposes that matrix
again; on the gamma side and the realignment criteria it makes no svd
or eigh at all, since the Schmidt profiles and the realignment svd are
kept with the operator too, and so is a density's local filter.  A warm
operator answers every entry point and every k bit for bit as a cold one
does.
"""

import dataclasses

import numpy as np
import pytest

from entnorms import (
    EnsembleSpec,
    bipartite,
    block_positivity_check,
    best_gamma_witness,
    cross_norm_test,
    decomposition_oracle,
    detect_schmidt_number,
    gamma_bounds,
    generate,
    local_filter,
    prod_radius_bounds,
    robustness_bounds,
    sn_certify,
    weak_realignment,
)
from entnorms import criteria
from entnorms.errors import NumericalError, PreconditionError


def _isotropic(p):
    return lambda: generate(EnsembleSpec("isotropic", 3, 3, p=p))


def _ginibre():
    rng = np.random.default_rng(7)
    return bipartite(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)), 3, 3)


INPUTS = {
    "isotropic_0.65": _isotropic(0.65),
    # Separable, so sn_certify(budget=...) reaches the LP oracle.
    "isotropic_0.15": _isotropic(0.15),
    "ginibre": _ginibre,
}

CALLS = {
    "gamma_bounds": lambda x: gamma_bounds(x, 1),
    "robustness_bounds": lambda x: robustness_bounds(x, 1),
    "sn_certify": lambda x: sn_certify(x, 1),
    "sn_certify_budget": lambda x: sn_certify(x, 1, budget=400),
    "cross_norm_test": lambda x: cross_norm_test(x, 1),
    "detect_schmidt_number": lambda x: detect_schmidt_number(x, 1, use_filter=True),
    "prod_radius_bounds": lambda x: prod_radius_bounds(x, 1, restarts=4),
    "block_positivity_check": lambda x: block_positivity_check(x, 1, restarts=4),
}


# Entry points whose second call on an operator makes no svd or eigh at
# all: every decomposition they need is kept with the operator.
REPEAT_FREE = {
    "gamma_bounds": CALLS["gamma_bounds"],
    "robustness_bounds": CALLS["robustness_bounds"],
    "sn_certify": CALLS["sn_certify"],
    "cross_norm_test": CALLS["cross_norm_test"],
    "detect_schmidt_number_raw": lambda x: detect_schmidt_number(x, 1),
    "detect_schmidt_number": CALLS["detect_schmidt_number"],
    "local_filter": local_filter,
    "weak_realignment": lambda x: weak_realignment(x, 1),
}

# Every entry point that reads a kept decomposition, as a function of k.
BY_K = {
    "gamma_bounds": gamma_bounds,
    "best_gamma_witness": best_gamma_witness,
    "robustness_bounds": robustness_bounds,
    "sn_certify": sn_certify,
    "sn_certify_budget": lambda x, k: sn_certify(x, k, budget=400),
    "decomposition_oracle": lambda x, k: decomposition_oracle(x, k, budget=400),
    "cross_norm_test": cross_norm_test,
    "detect_schmidt_number": detect_schmidt_number,
    "detect_schmidt_number_filtered": lambda x, k: detect_schmidt_number(x, k, use_filter=True),
    "weak_realignment": weak_realignment,
}


class Spy:
    def __init__(self, monkeypatch):
        self.target = None
        self.own = {"svd": 0, "eigh": 0}
        self.every = dict(self.own)
        for name in self.own:
            monkeypatch.setattr(np.linalg, name, self._wrap(name, getattr(np.linalg, name)))

    def _wrap(self, name, fn):
        def wrapper(a, *args, **kwargs):
            arr = np.asarray(a)
            self.every[name] += 1
            if arr.shape == self.target.shape and np.array_equal(arr, self.target):
                self.own[name] += 1
            return fn(a, *args, **kwargs)

        return wrapper

    def run(self, call, x):
        """call(x), or the error it raises, with the calls it made on x's
        own matrix and in all."""
        self.target = x.mat
        self.own = dict.fromkeys(self.own, 0)
        self.every = dict.fromkeys(self.every, 0)
        return _outcome(call, x), self.own, self.every


def _outcome(call, *args):
    try:
        return call(*args)
    except PreconditionError as exc:
        return exc


def _value(obj):
    """Comparable form of a result: dataclass fields (certificates
    included) and the raw bytes of every array."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, [_value(getattr(obj, f.name)) for f in dataclasses.fields(obj)])
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (tuple, list)):
        return [_value(o) for o in obj]
    if isinstance(obj, Exception):
        return (type(obj).__name__, str(obj))
    return obj


@pytest.mark.parametrize("input_name", sorted(INPUTS))
@pytest.mark.parametrize("call_name", sorted(CALLS))
def test_one_decomposition_per_call(monkeypatch, input_name, call_name):
    spy = Spy(monkeypatch)
    x = INPUTS[input_name]()
    call = CALLS[call_name]
    first, own, _ = spy.run(call, x)
    assert own["svd"] <= 1 and own["eigh"] <= 1, own
    again, own, _ = spy.run(call, x)
    assert own == {"svd": 0, "eigh": 0}
    assert _value(again) == _value(first)


@pytest.mark.parametrize("input_name", sorted(INPUTS))
@pytest.mark.parametrize("call_name", sorted(REPEAT_FREE))
def test_second_call_makes_no_decomposition(monkeypatch, input_name, call_name):
    spy = Spy(monkeypatch)
    x = INPUTS[input_name]()
    call = REPEAT_FREE[call_name]
    first, _, _ = spy.run(call, x)
    again, _, every = spy.run(call, x)
    assert every == {"svd": 0, "eigh": 0}
    assert _value(again) == _value(first)


def _ginibre_density():
    return generate(EnsembleSpec("ginibre_density", 3, 3, seed=7))


def _product_diagonal():
    return bipartite(np.diag([0.4, 0.3, 0.2, 0.1]), 2, 2)


def test_first_call_counts(monkeypatch):
    # One svd each of x, of its realignment and of the Schmidt stacks of its
    # singular vectors and of its eigenvectors, and one eigh of x.
    spy = Spy(monkeypatch)
    _, _, every = spy.run(lambda x: robustness_bounds(x, 1), _ginibre_density())
    assert every == {"svd": 4, "eigh": 1}
    # The chunk split adds the svds of the generator check and of the
    # residual penalty, both on the decomposition.
    cert, _, every = spy.run(lambda x: sn_certify(x, 1), _product_diagonal())
    assert cert.verdict == "at_most_k" and cert.decomposition is not None
    assert every == {"svd": 6, "eigh": 1}


def test_four_entry_points_at_every_k_share_six_svds(monkeypatch):
    def sweep(x):
        for k in (1, 2, 3):
            for call in (gamma_bounds, robustness_bounds, sn_certify, detect_schmidt_number):
                call(x, k)

    _, _, every = Spy(monkeypatch).run(sweep, _ginibre_density())
    assert every == {"svd": 6, "eigh": 1}


@pytest.mark.parametrize("input_name", sorted(INPUTS))
def test_warm_results_equal_cold_ones(input_name):
    make = INPUTS[input_name]
    ks = (1, 2, 3)
    cold = {(name, k): _value(_outcome(call, make(), k)) for name, call in BY_K.items() for k in ks}
    # One operator answers every entry point at every k, k descending, so
    # each call but the first finds caches that other calls filled.
    x = make()
    for k in reversed(ks):
        for name, call in BY_K.items():
            assert _value(_outcome(call, x, k)) == cold[name, k], (name, k)


def test_cached_factors_are_read_only():
    x = generate(EnsembleSpec("isotropic", 3, 3, p=0.65))
    members = ("svd", "eigh", "singular_schmidt", "eigen_schmidt", "realigned_svd")
    for member in members:
        for arr in getattr(x, member):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0.0
        assert getattr(x, member) is getattr(x, member)
    # The isotropic state is already in normal form; the Ginibre density
    # takes whitening rounds.
    for rho in (x, _ginibre_density()):
        fr = local_filter(rho)
        assert fr is local_filter(rho)
        for arr in (fr.f_a, fr.f_b, fr.rho.mat):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0


def test_filtered_detection_filters_once_per_density(monkeypatch):
    whiten, rounds = criteria._whiten, []

    def counting(*args):
        rounds[-1] += 1
        return whiten(*args)

    monkeypatch.setattr(criteria, "_whiten", counting)

    def scan(x):
        for k in (1, 2, 3):
            rounds.append(0)
            detect_schmidt_number(x, k, use_filter=True)

    spy = Spy(monkeypatch)
    _, _, every_scan = spy.run(scan, _ginibre_density())
    assert rounds[0] > 0 and rounds[1:] == [0, 0]
    _, _, every_k1 = spy.run(CALLS["detect_schmidt_number"], _ginibre_density())
    assert every_scan == every_k1


def test_each_filter_cap_is_kept_apart():
    x = _ginibre_density()
    capped, full = local_filter(x, max_iter=0), local_filter(x)
    assert capped is not full and capped.iterations == 0 < full.iterations
    assert local_filter(x, max_iter=0) is capped and local_filter(x) is full
    assert _value(capped) == _value(local_filter(_ginibre_density(), max_iter=0))
    assert _value(full) == _value(local_filter(_ginibre_density()))


def test_a_failed_filter_is_not_kept(monkeypatch):
    support, failures = criteria._support_spectrum, [NumericalError("injected")]

    def failing_once(marginal):
        if failures:
            raise failures.pop()
        return support(marginal)

    monkeypatch.setattr(criteria, "_support_spectrum", failing_once)
    x = _ginibre_density()
    fallback = detect_schmidt_number(x, 1, use_filter=True)
    assert not failures
    assert _value(fallback) == _value(detect_schmidt_number(x, 1))
    cold = detect_schmidt_number(_ginibre_density(), 1, use_filter=True)
    assert cold.filtered and cold.detected
    assert _value(detect_schmidt_number(x, 1, use_filter=True)) == _value(cold)
