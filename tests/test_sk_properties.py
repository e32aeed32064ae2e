"""Property tests for the S(k) brackets of sk_bounds.

Random nonzero complex operators on splits 2x2 to 3x3 at k < min(dims),
hermitian or not, full rank or rank one.  |x|_S(k) is invariant under
local unitaries on either side, |(A (x) B) x (C (x) D)|_S(k) = |x|_S(k),
and homogeneous, so the bracket of c (A (x) B) x (C (x) D) must overlap
c times the bracket of x at every scale c = 2^s, |s| <= 900.  Only the
overlap is asserted: below unit scale the see-saw stops earlier (ROADMAP
item 10), so its endpoints need not agree.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entnorms.linalg import bipartite
from entnorms.sknorm import EXACTNESS_RTOL, sk_bounds

REL = 1e-12


def _haar(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def sk_cases(draw):
    m, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    k = draw(st.integers(1, min(m, n) - 1))
    d = m * n
    entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
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
    assume(np.max(np.abs(g)) > 1e-6)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = np.kron(_haar(rng, m), _haar(rng, n))
    right = np.kron(_haar(rng, m), _haar(rng, n))
    return g, m, n, k, left, right, draw(st.sampled_from([-900, -1, 0, 1, 900]))


def _overlap(a_lo, a_hi, b_lo, b_hi):
    slack = REL * max(abs(a_hi), abs(b_hi))
    return a_lo <= b_hi + slack and b_lo <= a_hi + slack


@settings(max_examples=50, deadline=None)
@given(sk_cases())
def test_sk_bracket_is_ordered_invariant_and_homogeneous(case):
    mat, m, n, k, left, right, s = case
    base = sk_bounds(bipartite(mat, m, n), k)
    c = 2.0**s
    moved = sk_bounds(bipartite(c * (left @ mat @ right), m, n), k)
    for iv in (base, moved):
        assert iv.lower <= iv.upper
        if iv.exact:
            assert iv.upper - iv.lower <= EXACTNESS_RTOL * abs(iv.upper)
    assert _overlap(moved.lower, moved.upper, c * base.lower, c * base.upper)
