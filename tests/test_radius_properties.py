"""Property tests for the restricted numerical radius brackets.

Random hermitian operators on splits up to 3x3 at k in {1, 2}: the
bracket is symmetric under y -> -y, ordered, and lies between the
largest product-basis value max_i |y_ii| and the operator norm.  The
flip operators and the witnesses W_k = k I - d |Phi+><Phi+| have known
radii, which both entry points must contain exactly.  The
prod_radius_bounds endpoints are homogeneous of degree one under exact
power-of-two scalings far from unit scale.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entnorms.linalg import bipartite, swap_operator
from entnorms.sknorm import prod_radius_bisect, prod_radius_bounds

REL = 1e-12

_FLOATS = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
# Entries are 0 or at least 2^-100 in magnitude, so 2^-600 times any of
# them (halved by the hermitian part) is still a normal float and every
# scaling below is exact.
_SCALABLE = _FLOATS.map(lambda v: v if abs(v) >= 2.0**-100 else 0.0)


@st.composite
def hermitian_cases(draw, entries=_FLOATS):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    k = draw(st.sampled_from([kk for kk in (1, 2) if kk <= min(m, n)]))
    d = m * n
    re = draw(arrays(np.float64, (d, d), elements=entries))
    im = draw(arrays(np.float64, (d, d), elements=entries))
    g = re + 1j * im
    return (g + g.conj().T) / 2.0, m, n, k


@settings(max_examples=100, deadline=None)
@given(hermitian_cases())
def test_radius_is_even(case):
    mat, m, n, k = case
    iv = prod_radius_bounds(bipartite(mat, m, n), k, restarts=8)
    neg = prod_radius_bounds(bipartite(-mat, m, n), k, restarts=8)
    # eigh(-y) may differ from -eigh(y) in the last bit, so equality is
    # up to rounding.
    scale = max(abs(iv.upper), abs(neg.upper))
    assert abs(neg.lower - iv.lower) <= REL * scale
    assert abs(neg.upper - iv.upper) <= REL * scale


@settings(max_examples=100, deadline=None)
@given(hermitian_cases())
def test_radius_between_diagonal_and_operator_norm(case):
    mat, m, n, k = case
    iv = prod_radius_bounds(bipartite(mat, m, n), k, restarts=8)
    diag = float(np.max(np.abs(np.diag(mat))))
    opn = float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    slack = REL * opn
    assert iv.lower <= iv.upper
    for end in (iv.lower, iv.upper):
        assert diag - slack <= end <= opn + slack


def _witness(d: int, k: int):
    phi = np.zeros(d * d)
    phi[[i * d + i for i in range(d)]] = 1.0 / np.sqrt(d)
    return bipartite(k * np.eye(d * d) - d * np.outer(phi, phi), d, d, symmetrize=True)


def test_analytic_radii_are_contained():
    # The flip has eigenvalues +-1 and |<ab|F|ab>| = |<a|b>|^2 reaches 1 on
    # product vectors.  On Schmidt rank <= k vectors |<v|Phi+>|^2 <= k/d,
    # so <v|W_k|v> lies in [0, k] and the radius of W_k at k is k.
    cases = [(swap_operator(d), k, 1.0) for d in (2, 3) for k in (1, 2)]
    cases += [(_witness(d, k), k, float(k)) for d in (2, 3) for k in (1, 2)]
    for y, k, radius in cases:
        for iv in (prod_radius_bounds(y, k), prod_radius_bisect(y, k)):
            assert iv.lower <= radius <= iv.upper, (y.dims, k, iv)


@pytest.mark.parametrize("exponent", [-600, 600])
@settings(max_examples=100, deadline=None)
@given(case=hermitian_cases(_SCALABLE))
def test_radius_bracket_is_homogeneous(exponent, case):
    mat, m, n, k = case
    iv = prod_radius_bounds(bipartite(mat, m, n), k, restarts=8)
    scaled = prod_radius_bounds(bipartite(np.ldexp(1.0, exponent) * mat, m, n), k, restarts=8)
    for end, end_scaled in ((iv.lower, scaled.lower), (iv.upper, scaled.upper)):
        assert abs(np.ldexp(end_scaled, -exponent) - end) <= REL * abs(end)
