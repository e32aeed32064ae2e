"""Property tests for the robustness bracket.

Random hermitian operators on splits up to 3x3 at every k <= min(dims):
the bracket is ordered, its lower endpoint is the gamma_k lower bound
(R_k >= gamma_k), and both endpoints are homogeneous of degree one under
exact power-of-two scalings far from unit scale.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entnorms.dualnorms import gamma_bounds, robustness_bounds
from entnorms.linalg import bipartite

REL = 1e-12

# Entries are 0 or at least 2^-100 in magnitude, so 2^-600 times any of
# them is still a normal float and every scaling below is exact.
_ENTRIES = st.floats(-10.0, 10.0, allow_nan=False).map(lambda v: v if abs(v) >= 2.0**-100 else 0.0)


@st.composite
def hermitian_cases(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, min(m, n)))
    d = m * n
    re = draw(arrays(np.float64, (d, d), elements=_ENTRIES))
    im = draw(arrays(np.float64, (d, d), elements=_ENTRIES))
    g = re + 1j * im
    return (g + g.conj().T) / 2.0, m, n, k


@settings(max_examples=150, deadline=None)
@given(hermitian_cases())
def test_robustness_bracket_is_ordered_above_the_gamma_bound(case):
    mat, m, n, k = case
    y = bipartite(mat, m, n)
    iv = robustness_bounds(y, k)
    assert iv.lower <= iv.upper
    assert iv.lower == gamma_bounds(y, k).lower


@pytest.mark.parametrize("exponent", [-600, 600])
@settings(max_examples=100, deadline=None)
@given(case=hermitian_cases())
def test_robustness_bracket_is_homogeneous(exponent, case):
    mat, m, n, k = case
    iv = robustness_bounds(bipartite(mat, m, n), k)
    scaled = robustness_bounds(bipartite(np.ldexp(1.0, exponent) * mat, m, n), k)
    for end, end_scaled in ((iv.lower, scaled.lower), (iv.upper, scaled.upper)):
        assert abs(np.ldexp(end_scaled, -exponent) - end) <= REL * abs(end)
