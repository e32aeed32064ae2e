"""Property tests for the gamma_k lower bounds.

Random nonzero complex operators on splits up to 3x3, hermitian or not,
full rank or rank one, at scales 1e-3 to 1e3 and every k <= min(dims).
The chain |x|_S(k) <= |x|_op <= |x|_1 <= gamma_k holds for every such
operator, and the sign unitary of x already attains |x|_1, so no
Schmidt-rank-<=k ket-bra (whose pairing is at most |x|_op) can improve
on the witness that best_gamma_witness returns.  The lower endpoint of
every gamma bracket is the bound of the witness it carries, and both
endpoints are homogeneous of degree one under exact power-of-two
scalings far from unit scale.
"""

import pytest

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entnorms.dualnorms import best_gamma_witness, gamma_bounds
from entnorms.linalg import bipartite
from entnorms.sknorm import sk_bounds

REL = 1e-12

_FLOATS = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
# Entries are 0 or at least 2^-100 in magnitude, so 2^-600 times any
# entry of a case (a product of two entries and a power of ten at least
# 1e-3) is still a normal float and every scaling below is exact.
_SCALABLE = _FLOATS.map(lambda v: v if abs(v) >= 2.0**-100 else 0.0)


@st.composite
def operator_cases(draw, entries=_FLOATS):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, min(m, n)))
    d = m * n
    if draw(st.booleans()):  # rank one
        a = draw(arrays(np.float64, (2, d), elements=entries))
        b = draw(arrays(np.float64, (2, d), elements=entries))
        g = np.outer(a[0] + 1j * a[1], (b[0] + 1j * b[1]).conj())
    else:
        re = draw(arrays(np.float64, (d, d), elements=entries))
        im = draw(arrays(np.float64, (d, d), elements=entries))
        g = re + 1j * im
    if draw(st.booleans()):
        g = (g + g.conj().T) / 2.0
    g = g * 10.0 ** draw(st.integers(-3, 3))
    assume(np.max(np.abs(g)) > 0.0)
    return g, m, n, k


@settings(max_examples=150, deadline=None)
@given(operator_cases())
def test_sk_norm_never_exceeds_gamma_lower_bound(case):
    mat, m, n, k = case
    x = bipartite(mat, m, n)
    # The S(k) upper endpoint is the operator norm or a closed form; the
    # see-saw budget does not enter it.
    assert sk_bounds(x, k, restarts=2).upper <= gamma_bounds(x, k).lower * (1 + REL)


# A rank-one operator of subnormal entries, where the dual ket-bra's
# pairing must still round like the trace norm.
_SUBNORMAL_RANK_ONE = (np.outer(np.full(4, 1.76e-321 + 1.76e-321j), np.eye(4)[0]), 2, 2, 1)


@settings(max_examples=150, deadline=None)
@given(operator_cases())
@example(_SUBNORMAL_RANK_ONE)
def test_best_witness_reaches_the_trace_norm(case):
    mat, m, n, k = case
    x = bipartite(mat, m, n)
    trace_norm = float(np.sum(np.linalg.svd(mat, compute_uv=False)))
    assert best_gamma_witness(x, k).bound >= (1 - REL) * trace_norm


@settings(max_examples=150, deadline=None)
@given(operator_cases())
def test_certificate_attains_the_lower_endpoint(case):
    mat, m, n, k = case
    iv = gamma_bounds(bipartite(mat, m, n), k)
    assert iv.lower <= iv.certificate.bound <= iv.lower * (1 + 1e-9)


@pytest.mark.parametrize("exponent", [-600, 600])
@settings(max_examples=100, deadline=None)
@given(case=operator_cases(_SCALABLE))
def test_gamma_bracket_is_homogeneous(exponent, case):
    mat, m, n, k = case
    iv = gamma_bounds(bipartite(mat, m, n), k)
    scaled = gamma_bounds(bipartite(np.ldexp(1.0, exponent) * mat, m, n), k)
    for end, end_scaled in ((iv.lower, scaled.lower), (iv.upper, scaled.upper)):
        assert abs(np.ldexp(end_scaled, -exponent) - end) <= REL * abs(end)
