"""Property tests for the realignment criterion, raw and after the filter.

Ginibre densities of every rank 1..mn on the splits 2x2, 2x3, 3x3, 2x4 and
3x4, at every k <= min(dims).  Local unitaries U (x) V keep the Schmidt
number, the singular values of the realignment and, since the filter
whitens marginals by their own spectra, the filtered state up to the
same local unitary.  So the value of detect_schmidt_number, with the
filter or without, must be the same for rho and (U (x) V) rho (U (x) V)^dag,
and so must the verdict wherever the value is not within rounding of the
threshold.  Some draws stop the filter unconverged at its cap; the value
of its last iterate is still covariant.

The raw value is a function of singular values and agrees to REL.  The
filtered value carries the rounding of every filter round: on rank-2 3x4
densities, whose filters run 100-125 slowly contracting rounds, the two
sides stop at the same round with well-conditioned maps, yet 2 of 8,000
draws differed by more than 1e-12 (at most 8.2e-12), so it is held to
FILTERED_REL.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entnorms.criteria import detect_schmidt_number
from entnorms.linalg import bipartite, kron
from entnorms.states import EnsembleSpec, generate, haar_unitary

REL = 1e-12
FILTERED_REL = 1e-10
NEAR_THRESHOLD = 1e-9


@st.composite
def density_cases(draw):
    m, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]))
    rank = draw(st.integers(1, m * n))
    k = draw(st.integers(1, min(m, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    rho = generate(EnsembleSpec("ginibre_density", m, n, rank=rank, seed=seed))
    rng = np.random.default_rng(seed)
    lift = kron(haar_unitary(m, rng), haar_unitary(n, rng))
    moved = bipartite(lift @ rho.mat @ lift.conj().T, m, n, symmetrize=True)
    return rho, moved, k


@settings(max_examples=150, deadline=None)
@given(density_cases())
def test_detection_is_invariant_under_local_unitaries(case):
    rho, moved, k = case
    for use_filter, rel in ((False, REL), (True, FILTERED_REL)):
        rep = detect_schmidt_number(rho, k, use_filter=use_filter)
        rep_moved = detect_schmidt_number(moved, k, use_filter=use_filter)
        assert abs(rep_moved.value - rep.value) <= rel * rep.value
        if abs(rep.value - 1.0) > NEAR_THRESHOLD:
            assert rep_moved.detected == rep.detected
