"""Every entry point decomposes its operator at most once per call.

The spies sit on numpy.linalg.svd and numpy.linalg.eigh, under every
entnorms binding, and count only the calls whose argument equals the
operator's own matrix.  A second call on the same operator reads the
cached factors and makes no call at all.
"""

import dataclasses

import numpy as np
import pytest

from entnorms import (
    EnsembleSpec,
    bipartite,
    block_positivity_check,
    cross_norm_test,
    detect_schmidt_number,
    gamma_bounds,
    generate,
    prod_radius_bounds,
    robustness_bounds,
    sn_certify,
)
from entnorms.errors import PreconditionError


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


class Spy:
    def __init__(self, monkeypatch):
        self.target = None
        self.counts = {"svd": 0, "eigh": 0}
        for name in self.counts:
            monkeypatch.setattr(np.linalg, name, self._wrap(name, getattr(np.linalg, name)))

    def _wrap(self, name, fn):
        def wrapper(a, *args, **kwargs):
            arr = np.asarray(a)
            if arr.shape == self.target.shape and np.array_equal(arr, self.target):
                self.counts[name] += 1
            return fn(a, *args, **kwargs)

        return wrapper

    def run(self, call, x):
        self.target = x.mat
        self.counts = dict.fromkeys(self.counts, 0)
        try:
            out = call(x)
        except PreconditionError as exc:
            out = exc
        return out, self.counts


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
    first, counts = spy.run(call, x)
    assert counts["svd"] <= 1 and counts["eigh"] <= 1, counts
    again, counts = spy.run(call, x)
    assert counts == {"svd": 0, "eigh": 0}
    assert _value(again) == _value(first)


def test_cached_factors_are_read_only():
    x = generate(EnsembleSpec("isotropic", 3, 3, p=0.65))
    for arr in (*x.svd, *x.eigh):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert x.svd is x.svd and x.eigh is x.eigh
