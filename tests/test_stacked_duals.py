"""The stacked (k,2)-dual kernel and the gamma-side calls built on it.

kyfan finds the break indices of a whole stack of profiles at once.  It
must agree bit for bit with the one-profile loop it replaced
(oracles.k2_dual_loop_ref), and each stacked row with its own call.  The
gamma side decomposes each vector set once per call, so its svd count
does not grow with the operator's rank.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entnorms import EnsembleSpec, generate, sn_bounded_ensemble
from entnorms.dualnorms import (
    DEFAULT_CERTIFY_TOL,
    Decomposition,
    certified_upper_from_decomposition,
    gamma_bounds,
    robustness_bounds,
    sn_certify,
)
from entnorms.errors import DegenerateInputError, ParameterError
from entnorms.kyfan import (
    BreakIndexResult,
    break_index,
    k2_dual,
    k2_dual_attainer,
    k2_dual_from_singular_values,
    k2_norm,
)
from entnorms.linalg import bipartite, svd
from oracles import k2_dual_loop_ref

# A few magnitudes drawn often, so that profiles and matrices repeat values
# (ties), lose rank (zeros) and straddle the 1e-14 relative zero cut; every
# draw is then scaled by 2^[-900, 900], where it stays a normal float.
_LEVELS = st.sampled_from([0.0, 0.0, 1e-15, 1e-13, 0.25, 0.5, 1.0, 1.0, 3.0])
_SCALES = st.integers(-900, 900)


@st.composite
def profiles(draw):
    size = draw(st.integers(1, 64))
    values = st.one_of(_LEVELS, st.floats(2.0**-20, 4.0))
    sigma = np.sort(draw(st.lists(values, min_size=size, max_size=size)))[::-1]
    return np.ldexp(sigma, draw(_SCALES)), draw(st.integers(1, 64))


@st.composite
def matrix_stacks(draw):
    m, n, rows = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    size = 2 * rows * m * n
    parts = np.array(draw(st.lists(_LEVELS, min_size=size, max_size=size)))
    mats = (parts[::2] - 1j * parts[1::2]).reshape(rows, m, n)
    if draw(st.booleans()):  # off the grid: generic singular values
        mats = mats * np.exp(1j * np.arange(m * n)).reshape(m, n) + 0.125
    return mats * 2.0 ** draw(_SCALES), draw(st.integers(1, min(m, n)))


@settings(max_examples=300, deadline=None)
@given(profiles())
# Profiles whose dual value moves by one ulp if the tail value is squared
# as x * x rather than by pow(), as the loop does.
@example((np.array([0.8551294190608083, 0.6967443562366735,
                    0.6512737959575886, 0.020073381514860933]), 2))
@example((np.array([0.5934994391016865, 0.4424041395866032,
                    0.28399811701764766, 0.18597180841477168]), 3))
def test_profile_kernel_matches_the_one_profile_loop(case):
    sigma, k = case
    r, sigma_tilde, value = k2_dual_loop_ref(sigma, k)
    assert break_index(sigma, k) == BreakIndexResult(r, sigma_tilde)
    assert k2_dual_from_singular_values(sigma, k) == value


@settings(max_examples=200, deadline=None)
@given(matrix_stacks())
def test_stacked_dual_matches_the_one_profile_loop_row_by_row(case):
    mats, k = case
    stacked = k2_dual(mats, k)
    assert isinstance(stacked, np.ndarray) and stacked.shape == mats.shape[:1]
    for mat, row in zip(mats, stacked):
        value = k2_dual_loop_ref(svd(mat)[1], k)[2]
        single = k2_dual(mat, k)
        assert isinstance(single, float)
        assert single == value and row == value
        if value > 0.0:
            assert k2_dual_attainer(mat, k)[1] == value
        else:
            with pytest.raises(DegenerateInputError):
                k2_dual_attainer(mat, k)


def test_single_matrix_functions_reject_a_stack():
    stack = np.ones((2, 3, 3))
    with pytest.raises(ParameterError):
        k2_norm(stack, 1)
    with pytest.raises(ParameterError):
        k2_dual_attainer(stack, 1)


@pytest.mark.parametrize("call", [
    lambda x: gamma_bounds(x, 1),
    lambda x: robustness_bounds(x, 1),
    lambda x: sn_certify(x, 1),
], ids=["gamma_bounds", "robustness_bounds", "sn_certify"])
def test_svd_calls_do_not_grow_with_rank(monkeypatch, call):
    real, calls = np.linalg.svd, []

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    counts = []
    for rank in (2, 9):
        x = generate(EnsembleSpec("ginibre_density", 3, 3, rank=rank, seed=0))
        calls.clear()
        call(x)
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def test_robustness_of_the_zero_operator_is_exactly_zero():
    iv = robustness_bounds(bipartite(np.zeros((6, 6)), 2, 3), 1)
    assert (iv.lower, iv.upper, iv.exact) == (0.0, 0.0, True)
    assert (iv.lower_method, iv.upper_method) == ("gamma_zero_operator", "pure_split_k1")


def _ensemble():
    return sn_bounded_ensemble(EnsembleSpec("sn_bounded_density", 3, 3, k=1, terms=4, seed=2))


def test_the_generating_decomposition_certifies():
    rho, dec = _ensemble()
    out = sn_certify(rho, 1, candidate=dec)
    assert out.verdict == "at_most_k" and out.decomposition is dec


@pytest.mark.parametrize("flaw", ["non_unit", "schmidt_rank_3"])
@pytest.mark.parametrize("row, sides", [(0, "both"), (-1, "both"), (1, "right")])
def test_inadmissible_candidate_generators_are_rejected(flaw, row, sides):
    rho, dec = _ensemble()
    lefts, rights = np.array(dec.lefts), np.array(dec.rights)
    # The maximally entangled unit vector has Schmidt rank 3 > k = 1.
    bad = 1.5 * rights[row] if flaw == "non_unit" else np.eye(3).reshape(-1) / np.sqrt(3.0)
    rights[row] = bad
    if sides == "both":
        lefts[row] = bad
    candidate = Decomposition(dec.coefficients, lefts, rights, 3, 3, 1, dec.residual)
    # Each term is priced at its own gamma_1, so the flawed rows cost more
    # than their coefficients and the candidate does not decide the verdict.
    assert certified_upper_from_decomposition(rho, candidate) > 1.0 + DEFAULT_CERTIFY_TOL
    assert sn_certify(rho, 1, candidate=candidate).decomposition is not candidate


@pytest.mark.parametrize("vec, gamma", [
    ([2.0, 0.0, 0.0, 0.0], 1.0),  # |00><00| from a norm-2 generator at c = 1/4
    ([2.0**-0.5, 0.0, 0.0, 2.0**-0.5], 2.0),  # the Bell projector, SR 2 > k = 1
], ids=["non_unit", "bell"])
def test_decompositions_outside_the_type_promise_stay_sound(vec, gamma):
    v = np.array(vec, dtype=np.complex128)
    coeff = 1.0 / float(np.vdot(v, v).real)
    x = bipartite(coeff * np.outer(v, v.conj()), 2, 2)
    dec = Decomposition([coeff], [v], [v], 2, 2, 1, 0.0)
    lower = gamma_bounds(x, 1).lower
    assert lower == pytest.approx(gamma, rel=1e-12)
    assert certified_upper_from_decomposition(x, dec) >= lower


@pytest.mark.parametrize("k", [1, 2])
def test_stacked_uppers_equal_the_per_vector_running_sums(k):
    # Nine terms: np.sum would pair them, the index-order sum does not.
    x = generate(EnsembleSpec("ginibre_density", 3, 3, seed=0))
    u, s, vh = x.svd
    mixture = 0.0
    for i in range(s.size):
        mixture += float(s[i]) * k2_dual(u[:, i].reshape(3, 3), k) * k2_dual(vh[i].conj().reshape(3, 3), k)
    assert gamma_bounds(x, k).upper == mixture
    lam, vecs = x.eigh
    split = 0.0
    for i in range(lam.size):
        split += float(abs(lam[i])) * (2.0 * k2_dual(vecs[:, i].reshape(3, 3), 1) ** 2 - 1.0)
    assert robustness_bounds(x, k).upper == split
