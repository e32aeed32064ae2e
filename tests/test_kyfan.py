import numpy as np
import pytest

from entnorms.errors import DegenerateInputError, ParameterError
from entnorms.kyfan import (
    break_index,
    k2_dual,
    k2_dual_attainer,
    k2_dual_from_singular_values,
    k2_norm,
)
from entnorms.linalg import hs_inner, matrix_norms
from oracles import ascent_k2_dual, atomic_lp_dual


def test_break_index_k1_convention():
    """k=1 forces r=0 and sigma_tilde equal to the full sum."""
    res = break_index([5.0, 2.0, 1.0], 1)
    assert res.r == 0
    assert abs(res.sigma_tilde - 8.0) < 1e-14


def test_break_index_split_profile():
    res = break_index([3.0, 1.0], 2)
    assert res.r == 1
    assert abs(res.sigma_tilde - 1.0) < 1e-14


def test_break_index_flat_profile():
    # 1 > (1+1+1)/1 fails at r=1, so the whole profile averages
    res = break_index([1.0, 1.0, 1.0, 1.0], 2)
    assert res.r == 0
    assert abs(res.sigma_tilde - 2.0) < 1e-14


def test_break_index_rejects_empty():
    with pytest.raises(DegenerateInputError):
        break_index([], 2)


def test_k2_norm_endpoints():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mn = matrix_norms(x)
    assert abs(k2_norm(x, 1) - mn.operator) < 1e-10
    assert abs(k2_norm(x, 4) - mn.frobenius) < 1e-10


def test_k2_norm_singular_profile():
    x = np.diag([2.0, 2.0, 1.0])
    assert abs(k2_norm(x, 2) - np.sqrt(8.0)) < 1e-12
    # the ascent over the rank-constrained ball lands on the same value
    assert abs(ascent_k2_dual(x.astype(complex), 2, restarts=20, seed=0)
               - k2_dual(x, 2)) < 1e-8


def test_k2_dual_is_trace_norm_at_k1():
    x = np.diag([1.0, 1.0]).astype(complex)
    assert abs(k2_dual(x, 1) - 2.0) < 1e-12


def test_k2_dual_split_case():
    """sigma (3,1) at k=2 gives sqrt(10), the Frobenius value, since r=1."""
    x = np.diag([3.0, 1.0]).astype(complex)
    val = k2_dual(x, 2)
    assert abs(val - np.sqrt(10.0)) < 1e-12
    assert abs(ascent_k2_dual(x, 2, restarts=20, seed=1) - val) < 1e-8


def test_k2_dual_flat_case_saturates_cauchy_schwarz():
    x = np.eye(4, dtype=complex)
    val = k2_dual(x, 2)
    assert abs(val - np.sqrt(8.0)) < 1e-12
    assert abs(ascent_k2_dual(x, 2, restarts=20, seed=2) - val) < 1e-8
    # <X,X> = 4 equals ||X||_(2,2) * dual = sqrt(2) * sqrt(8)
    assert abs(hs_inner(x, x).real - k2_norm(x, 2) * val) < 1e-12


def test_k2_dual_matches_restricted_decomposition_program():
    """An atomic program over rank-<=k unit atoms can only sit above the dual."""
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for k in (1, 2):
        lp = atomic_lp_dual(x, k, budget=900, seed=k)
        val = k2_dual(x, k)
        assert lp >= val - 1e-7
        if k == 1:
            # rank-one chunks of the singular expansion are optimal here
            assert abs(lp - val) < 1e-7


def test_k2_dual_monotone_and_rank_collapse():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        vals = [k2_dual(x, k) for k in (1, 2, 3, 4)]
        fro = matrix_norms(x).frobenius
        for a, b in zip(vals, vals[1:]):
            assert a >= b - 1e-12
        assert abs(vals[-1] - fro) < 1e-10
        assert all(v >= fro - 1e-10 for v in vals)
        # rank <= k collapses the dual to the Frobenius norm
        u, s, vh = np.linalg.svd(x)
        low = (u[:, :2] * s[:2]) @ vh[:2, :]
        assert abs(k2_dual(low, 2) - np.linalg.norm(low)) < 1e-10
        assert abs(k2_dual(low, 3) - np.linalg.norm(low)) < 1e-10


def test_k2_pairing_inequality():
    rng = np.random.default_rng(9)
    for trial in range(20):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for k in (1, 2, 3):
            lhs = hs_inner(x, x).real
            assert lhs <= k2_norm(x, k) * k2_dual(x, k) + 1e-9


def test_k2_value_from_profile_handles_short_input():
    # profiles shorter than k behave as zero padded
    assert abs(k2_dual_from_singular_values([2.0], 3) - 2.0) < 1e-12
    assert abs(k2_dual_from_singular_values([1.0, 1.0], 4) - np.sqrt(2.0)) < 1e-12


def test_k2_norm_parameter_errors():
    x = np.eye(3)
    with pytest.raises(ParameterError):
        k2_norm(x, 0)
    with pytest.raises(ParameterError):
        k2_norm(x, 4)
    with pytest.raises(ParameterError):
        k2_dual(x, -1)


def test_k2_dual_attainer_has_unit_norm_and_attains_the_dual():
    rng = np.random.default_rng(14)
    mats = [np.outer(rng.standard_normal(3), rng.standard_normal(3))]
    for shape in ((3, 3), (2, 5), (4, 3)):
        mats += [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(5)]
    for x in mats:
        for k in range(1, min(x.shape) + 1):
            y, value = k2_dual_attainer(x, k)
            assert value == k2_dual(x, k)
            assert abs(k2_norm(y, k) - 1.0) < 1e-12
            assert abs(hs_inner(y, x).real - value) <= 1e-12 * value
    with pytest.raises(DegenerateInputError):
        k2_dual_attainer(np.zeros((2, 2)), 1)
    with pytest.raises(ParameterError):
        k2_dual_attainer(np.eye(3), 4)


@pytest.mark.parametrize("c", [1e-300, 1e-12, 1e200])
def test_break_index_dual_and_attainer_are_scale_invariant(c):
    rng = np.random.default_rng(12)
    mats = [np.diag([3.0, 1.0, 0.5, 0.2]).astype(complex)]
    mats += [rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)) for _ in range(3)]
    for x in mats:
        s = np.linalg.svd(x, compute_uv=False)
        for k in (1, 2, 3, 4):
            assert break_index(c * s, k).r == break_index(s, k).r
            val = k2_dual(x, k)
            assert abs(k2_dual(c * x, k) - c * val) <= 1e-12 * c * val
            val = k2_norm(x, k)
            assert abs(k2_norm(c * x, k) - c * val) <= 1e-12 * c * val
            y, _ = k2_dual_attainer(x, k)
            yc, _ = k2_dual_attainer(c * x, k)
            assert np.max(np.abs(yc - y)) <= 1e-12


@pytest.mark.parametrize("scale", [2.0**-40, 1.0, 2.0**40])
@pytest.mark.parametrize("profile", [[1.0, 3.0], [2.0, 1.0, 1.5], [1.0, 0.5, -0.25]],
                         ids=["unsorted", "unsorted_tail", "negative"])
def test_profile_checks_are_relative_to_the_largest_entry(scale, profile):
    sigma = scale * np.array(profile)
    with pytest.raises(ParameterError):
        break_index(sigma, 2)
    with pytest.raises(ParameterError):
        k2_dual_from_singular_values(sigma, 2)


def test_a_tiny_unsorted_profile_is_not_read_as_sorted():
    # Sorted, [3e-12, 1e-12] has r = 1; the unsorted order must be rejected
    # rather than answered with r = 0.
    assert break_index([3e-12, 1e-12], 2).r == 1
    with pytest.raises(ParameterError):
        break_index([1e-12, 3e-12], 2)
