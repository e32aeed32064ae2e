import numpy as np
import pytest

from entnorms.errors import DegenerateInputError, ParameterError
from entnorms.kyfan import k2_dual
from entnorms.linalg import kron
from entnorms.schmidt import (
    _truncate_gram,
    pure_state,
    s_k_dual,
    s_k_norm,
    schmidt_decompose,
    schmidt_rank,
    schmidt_truncate,
)
from entnorms.states import haar_unitary
from oracles import atomic_lp_dual, product_overlap_grid

SQ7 = np.sqrt(0.7)
SQ3 = np.sqrt(0.3)


def two_term_state():
    v = np.zeros(4, dtype=complex)
    v[0] = SQ7
    v[3] = SQ3
    return pure_state(v, 2, 2)


def max_entangled(n):
    v = np.zeros(n * n, dtype=complex)
    v[:: n + 1] = 1.0 / np.sqrt(n)
    return pure_state(v, n, n)


def haar_state(rng, m, n):
    g = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    return pure_state(g / np.linalg.norm(g), m, n)


def test_decompose_product_state():
    v = pure_state([1.0, 0.0, 0.0, 0.0], 2, 2)
    sd = schmidt_decompose(v)
    assert sd.rank == 1
    assert abs(sd.coeffs[0] - 1.0) < 1e-12


def test_decompose_bell_state():
    sd = schmidt_decompose(max_entangled(2))
    assert np.allclose(sd.coeffs, [1.0 / np.sqrt(2.0)] * 2, atol=1e-12)


def test_decompose_two_term_profile():
    sd = schmidt_decompose(two_term_state())
    assert np.allclose(sd.coeffs, [SQ7, SQ3], atol=1e-12)
    assert np.max(np.abs(sd.reconstruct() - two_term_state().amplitudes)) < 1e-12


def test_decompose_reconstructs_random_states():
    rng = np.random.default_rng(10)
    for m, n in ((2, 3), (3, 3), (4, 2)):
        v = haar_state(rng, m, n)
        sd = schmidt_decompose(v)
        assert np.max(np.abs(sd.reconstruct() - v.amplitudes)) < 1e-9
        assert abs(np.sum(sd.coeffs ** 2) - 1.0) < 1e-9
        # frames are orthonormal rows
        assert np.allclose(sd.left @ sd.left.conj().T, np.eye(sd.rank), atol=1e-10)
        assert np.allclose(sd.right @ sd.right.conj().T, np.eye(sd.rank), atol=1e-10)


def test_decompose_rejects_zero_vector():
    v = pure_state(np.zeros(4), 2, 2, require_normalized=False)
    with pytest.raises(DegenerateInputError):
        schmidt_decompose(v)


def test_rank_product_and_max_entangled():
    assert schmidt_rank(pure_state([0.0, 1.0, 0.0, 0.0], 2, 2)) == 1
    for n in (2, 3, 4):
        assert schmidt_rank(max_entangled(n)) == n


def test_rank_of_planted_rank_two():
    rng = np.random.default_rng(30)
    for _ in range(10):
        a = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
        b = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
        g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec = sum(g[i] * np.kron(a[:, i], b[:, i]) for i in range(2))
        vec /= np.linalg.norm(vec)
        assert schmidt_rank(pure_state(vec, 4, 4)) == 2


def test_truncate_returns_low_rank_input_unchanged():
    v = two_term_state()
    t = schmidt_truncate(v, 2)
    phase = np.vdot(t.amplitudes, v.amplitudes)
    assert abs(abs(phase) - 1.0) < 1e-12


def test_truncate_overlap_values():
    t = schmidt_truncate(max_entangled(4), 2)
    assert abs(abs(np.vdot(t.amplitudes, max_entangled(4).amplitudes)) - np.sqrt(0.5)) < 1e-12
    t = schmidt_truncate(two_term_state(), 1)
    assert abs(abs(np.vdot(t.amplitudes, two_term_state().amplitudes)) - SQ7) < 1e-12


def test_truncate_achieves_the_norm():
    """|<truncate(v,k)|v>| = s_k_norm(v,k) on random states."""
    rng = np.random.default_rng(44)
    for _ in range(10):
        v = haar_state(rng, 3, 4)
        for k in (1, 2, 3):
            t = schmidt_truncate(v, k)
            overlap = abs(np.vdot(t.amplitudes, v.amplitudes))
            assert abs(overlap - s_k_norm(v, k)) < 1e-10
            assert schmidt_rank(t) <= k


@pytest.mark.parametrize("scale", [1e-300, 1e-13, 1e160, 1e300])
def test_truncate_and_decompose_hold_at_every_scale(scale):
    # Only the zero vector is degenerate, and no nonzero scale under- or
    # overflows the truncation or the coefficients.
    v = haar_state(np.random.default_rng(45), 3, 4)
    scaled = pure_state(scale * v.amplitudes, 3, 4, require_normalized=False)
    for k in (1, 2, 3):
        t = schmidt_truncate(scaled, k)
        assert np.max(np.abs(t.amplitudes - schmidt_truncate(v, k).amplitudes)) <= 1e-14
    coeffs = schmidt_decompose(scaled).coeffs / scale
    assert np.allclose(coeffs, schmidt_decompose(v).coeffs, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("m, n", [(2, 4), (4, 2), (3, 3)])
def test_gram_truncation_matches_the_svd(m, n):
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((6, m * n)) + 1j * rng.standard_normal((6, m * n))
    for k in range(1, min(m, n) + 1):
        vecs, gains = _truncate_gram(rows, m, n, k)
        assert vecs.shape == rows.shape and gains.shape == (6,)
        for row, vec, gain in zip(rows, vecs, gains):
            s = np.linalg.svd(vec.reshape(m, n), compute_uv=False)
            assert np.count_nonzero(s > 1e-12 * s[0]) <= k
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-14
            ref = np.linalg.norm(np.linalg.svd(row.reshape(m, n), compute_uv=False)[:k])
            assert abs(gain - ref) <= 1e-12 * ref
            assert abs(np.vdot(vec, row) - gain) <= 1e-12 * ref


def test_gram_truncation_keeps_zero_rows_and_extreme_scales():
    # Unscaled, the Gram entries of the 2^600 row overflow and those of the
    # 2^-600 row underflow to zero; a zero row keeps no weight.
    rng = np.random.default_rng(13)
    row = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    mixed = np.where(np.arange(9) % 3 == 0, 1.0, 2.0**-600)
    rows = np.stack([np.zeros(9), row * 2.0**600, row * 2.0**-600, mixed, 1j * mixed[::-1]])
    for k in (1, 2):
        vecs, gains = _truncate_gram(rows, 3, 3, k)
        assert gains[0] == 0.0 and np.array_equal(vecs[0], rows[0])
        assert np.all(gains[1:] > 0.0)
        assert np.allclose(np.linalg.norm(vecs[1:], axis=1), 1.0, rtol=0.0, atol=1e-14)
        unit = np.linalg.norm(np.linalg.svd(row.reshape(3, 3), compute_uv=False)[:k])
        for gain, scale in ((gains[1], 2.0**600), (gains[2], 2.0**-600)):
            assert abs(gain / scale - unit) <= 1e-12 * unit


def test_s_k_norm_values():
    v = two_term_state()
    assert abs(s_k_norm(v, 2) - 1.0) < 1e-12
    assert abs(s_k_norm(v, 1) - SQ7) < 1e-12
    for n in (2, 3):
        for k in range(1, n + 1):
            assert abs(s_k_norm(max_entangled(n), k) - np.sqrt(k / n)) < 1e-12


def test_s_k_norm_matches_product_grid():
    """Grid search over product states reproduces the k=1 value."""
    assert abs(product_overlap_grid(two_term_state().amplitudes, 2) - SQ7) < 1e-3


def test_s_k_dual_values():
    v = two_term_state()
    # k=1 collapses to the coefficient sum
    assert abs(s_k_dual(v, 1) - (SQ7 + SQ3)) < 1e-12
    assert abs(s_k_dual(v, 2) - 1.0) < 1e-12
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            assert abs(s_k_dual(max_entangled(n), k) - np.sqrt(n / k)) < 1e-12


def test_s_k_dual_matches_atomic_program():
    """Frozen: sqrt(.7) + sqrt(.3) = 1.3843825840392416."""
    v = two_term_state()
    lp = atomic_lp_dual(v.amplitudes.reshape(2, 2), 1, budget=800, seed=2)
    assert abs(lp - 1.3843825840392416) < 1e-9
    assert abs(s_k_dual(v, 1) - lp) < 1e-9


def test_norm_and_dual_are_monotone_in_k():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = haar_state(rng, 3, 3)
        norms = [s_k_norm(v, k) for k in (1, 2, 3)]
        duals = [s_k_dual(v, k) for k in (1, 2, 3)]
        assert norms[0] <= norms[1] <= norms[2] + 1e-12
        assert duals[0] >= duals[1] >= duals[2] - 1e-12
        assert abs(norms[2] - 1.0) < 1e-10
        assert abs(duals[2] - 1.0) < 1e-10


def test_pairing_at_the_state_itself():
    rng = np.random.default_rng(6)
    for _ in range(10):
        v = haar_state(rng, 2, 4)
        for k in (1, 2):
            assert s_k_norm(v, k) * s_k_dual(v, k) >= 1.0 - 1e-9
    # equality on a flat profile
    b = max_entangled(2)
    assert abs(s_k_norm(b, 1) * s_k_dual(b, 1) - 1.0) < 1e-12


def test_coefficients_invariant_under_local_unitaries():
    rng = np.random.default_rng(23)
    v = haar_state(rng, 3, 3)
    base = schmidt_decompose(v).coeffs
    for _ in range(5):
        u = haar_unitary(3, rng)
        w = haar_unitary(3, rng)
        rotated = kron(u, w) @ v.amplitudes
        coeffs = schmidt_decompose(pure_state(rotated, 3, 3, require_normalized=False)).coeffs
        assert np.max(np.abs(coeffs - base)) < 1e-9


def test_dual_matches_matricized_closed_form():
    rng = np.random.default_rng(31)
    v = haar_state(rng, 3, 4)
    for k in (1, 2, 3):
        assert abs(s_k_dual(v, k) - k2_dual(v.matrix(), k)) < 1e-12


def test_norms_are_homogeneous():
    rng = np.random.default_rng(13)
    g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = pure_state(g, 2, 3, require_normalized=False)
    unit = pure_state(g / np.linalg.norm(g), 2, 3)
    assert abs(s_k_norm(v, 1) - np.linalg.norm(g) * s_k_norm(unit, 1)) < 1e-10
    assert abs(s_k_dual(v, 2) - np.linalg.norm(g) * s_k_dual(unit, 2)) < 1e-10


def test_equal_coefficients_any_order():
    # a tied profile gives the same values no matter how ties are fed in
    v1 = pure_state(np.diag([np.sqrt(0.4), np.sqrt(0.4), np.sqrt(0.2)]).reshape(-1), 3, 3)
    v2 = pure_state(np.diag([np.sqrt(0.4), np.sqrt(0.2), np.sqrt(0.4)]).reshape(-1), 3, 3)
    for k in (1, 2, 3):
        assert abs(s_k_norm(v1, k) - s_k_norm(v2, k)) < 1e-12
        assert abs(s_k_dual(v1, k) - s_k_dual(v2, k)) < 1e-12


def test_pure_state_validation():
    with pytest.raises(ParameterError):
        pure_state([1.0, 1.0], 1, 2)
    with pytest.raises(ParameterError):
        pure_state([np.nan, 0.0], 1, 2, require_normalized=False)
    with pytest.raises(ParameterError):
        s_k_norm(two_term_state(), 3)
    with pytest.raises(ParameterError):
        s_k_dual(two_term_state(), 0)
