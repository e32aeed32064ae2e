import numpy as np
import pytest

from entnorms.errors import DimensionError, NumericalError, ParameterError, PreconditionError
from entnorms.linalg import (
    BipartiteOperator,
    _top_eigenpairs,
    bipartite,
    eig_hermitian,
    hs_inner,
    inject_svd_failure,
    kron,
    matrix_norms,
    partial_trace,
    partial_transpose,
    realign,
    realign_inverse,
    svd,
    swap_operator,
)
from entnorms.sknorm import prod_radius_bounds
from oracles import kron_ref, partial_trace_ref, partial_transpose_ref, realign_ref

BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
BELL_RHO = np.outer(BELL, BELL.conj())


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal():
    out = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_kron_matches_index_formula():
    """Entry (i*rb+s, j*cb+t) must equal A[i,j] * B[s,t]."""
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = random_complex(rng, (2, 2))
        b = random_complex(rng, (2, 2))
        assert np.max(np.abs(kron(a, b) - kron_ref(a, b))) < 1e-13


def test_kron_size_cap():
    with pytest.raises(DimensionError):
        kron(np.eye(70), np.eye(70))


def test_partial_trace_product_case():
    """Tr_B(rho_A (x) rho_B) = rho_A Tr(rho_B)."""
    rng = np.random.default_rng(3)
    ga = random_complex(rng, (3, 3))
    gb = random_complex(rng, (2, 2))
    rho_a = ga @ ga.conj().T
    rho_b = gb @ gb.conj().T
    x = bipartite(kron(rho_a, rho_b), 3, 2)
    assert np.allclose(partial_trace(x, "B"), rho_a * np.trace(rho_b), atol=1e-10)
    assert np.allclose(partial_trace(x, "A"), rho_b * np.trace(rho_a), atol=1e-10)


def test_partial_trace_identity():
    x = bipartite(np.eye(6), 2, 3)
    assert np.allclose(partial_trace(x, "A"), 2.0 * np.eye(3))
    assert np.allclose(partial_trace(x, "B"), 3.0 * np.eye(2))


def test_partial_trace_bell_marginal():
    x = bipartite(BELL_RHO, 2, 2)
    assert np.allclose(partial_trace(x, "B"), np.eye(2) / 2.0, atol=1e-12)
    # cross-check both marginals against the plain index sum
    assert np.allclose(partial_trace(x, "A"), partial_trace_ref(BELL_RHO, 2, 2, "A"), atol=1e-13)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(8)
    g = random_complex(rng, (6, 6))
    x = bipartite(g, 2, 3)
    assert abs(np.trace(partial_trace(x, "B")) - np.trace(g)) < 1e-12
    with pytest.raises(ParameterError):
        partial_trace(x, "C")


def test_partial_transpose_elementary_tensor():
    rng = np.random.default_rng(5)
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (3, 3))
    x = bipartite(kron(a, b), 2, 3)
    assert np.allclose(partial_transpose(x).mat, kron(a, b.T), atol=1e-13)


def test_partial_transpose_involution():
    rng = np.random.default_rng(6)
    g = random_complex(rng, (6, 6))
    x = bipartite(g, 3, 2)
    assert np.array_equal(partial_transpose(partial_transpose(x)).mat, x.mat)


def test_partial_transpose_bell_is_half_swap():
    """The partially transposed Bell projector is S/2 with spectrum (.5,.5,.5,-.5)."""
    x = bipartite(BELL_RHO, 2, 2)
    pt = partial_transpose(x)
    assert np.allclose(pt.mat, swap_operator(2).mat / 2.0, atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(pt.mat), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert np.allclose(pt.mat, partial_transpose_ref(BELL_RHO, 2, 2), atol=1e-13)


def test_swap_small_cases():
    assert np.array_equal(swap_operator(1).mat, np.eye(1))
    s2 = swap_operator(2).mat
    expected = np.eye(4)[[0, 2, 1, 3]]
    assert np.array_equal(s2, expected)


def test_swap_exchanges_factors():
    rng = np.random.default_rng(4)
    s = swap_operator(3)
    assert np.allclose(s.mat @ s.mat, np.eye(9))
    assert s.hermitian
    for _ in range(5):
        v = random_complex(rng, 3)
        w = random_complex(rng, 3)
        assert np.allclose(s.mat @ np.kron(v, w), np.kron(w, v), atol=1e-13)


def test_realign_separable_pure_is_rank_one():
    a = np.array([1.0, 0.0])
    b = np.array([0.6, 0.8])
    rho = np.outer(np.kron(a, b), np.kron(a, b).conj())
    l = realign(bipartite(rho, 2, 2))
    sig = np.linalg.svd(l, compute_uv=False)
    assert abs(sig[0] - 1.0) < 1e-12
    assert sig[1] < 1e-12


def test_realign_bell_trace_norm():
    """The reshuffled Bell projector has trace norm 2."""
    l = realign(bipartite(BELL_RHO, 2, 2))
    assert abs(np.sum(np.linalg.svd(l, compute_uv=False)) - 2.0) < 1e-12
    assert np.allclose(l, realign_ref(BELL_RHO, 2, 2), atol=1e-14)


def test_realign_rank_one_factorization():
    """realign(|v><v|) equals V (x) conj(V) for the matricization V of v."""
    rng = np.random.default_rng(17)
    g = random_complex(rng, 6)
    v = g / np.linalg.norm(g)
    rho = np.outer(v, v.conj())
    vmat = v.reshape(2, 3)
    assert np.allclose(realign(bipartite(rho, 2, 3)), np.kron(vmat, vmat.conj()), atol=1e-13)


def test_realign_preserves_frobenius_and_round_trips():
    rng = np.random.default_rng(9)
    for m, n in ((2, 2), (2, 3), (3, 3)):
        g = random_complex(rng, (m * n, m * n))
        x = bipartite(g, m, n)
        l = realign(x)
        assert abs(np.linalg.norm(l) - np.linalg.norm(g)) < 1e-12
        assert np.array_equal(realign_inverse(l, m, n), g)


def test_svd_identity_and_signs():
    _, s, _ = svd(np.eye(3))
    assert np.allclose(s, [1.0, 1.0, 1.0])
    _, s, _ = svd(np.diag([3.0, -1.0]))
    assert np.allclose(s, [3.0, 1.0])


def test_svd_reconstruction_and_gram():
    """Reconstruct within 1e-10 and match the eigenvalues of x^dag x."""
    rng = np.random.default_rng(12)
    x = random_complex(rng, (3, 5))
    u, s, vh = svd(x)
    assert np.max(np.abs((u * s) @ vh - x)) < 1e-10
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10
    assert np.max(np.abs(vh @ vh.conj().T - np.eye(3))) < 1e-10
    gram = np.linalg.eigvalsh(x.conj().T @ x)[::-1][:3]
    assert np.allclose(s ** 2, gram, atol=1e-9)


def test_svd_failure_injection():
    inject_svd_failure(True)
    try:
        with pytest.raises(NumericalError):
            svd(np.eye(2))
        with pytest.raises(NumericalError):
            _top_eigenpairs(np.eye(2)[None])
    finally:
        inject_svd_failure(False)
    svd(np.eye(2))


def test_top_eigenpairs_of_a_stack():
    rng = np.random.default_rng(9)
    g = random_complex(rng, (5, 4, 4))
    forms = g @ g.conj().transpose(0, 2, 1)
    vals, vecs = _top_eigenpairs(forms)
    assert vals.shape == (5,) and vecs.shape == (5, 4)
    for form, val, vec in zip(forms, vals, vecs):
        assert abs(val - np.linalg.eigvalsh(form)[-1]) <= 1e-12 * val
        assert np.linalg.norm(form @ vec - val * vec) <= 1e-12 * val


@pytest.mark.parametrize("k", [1, 2, 4])
def test_top_eigenpairs_returns_a_top_k_block(k):
    rng = np.random.default_rng(10)
    g = random_complex(rng, (5, 4, 4))
    forms = g @ g.conj().transpose(0, 2, 1)
    vals, frames = _top_eigenpairs(forms, k)
    assert vals.shape == (5, k) and frames.shape == (5, 4, k)
    for form, val, frame in zip(forms, vals, frames):
        ref = np.linalg.eigvalsh(form)[-k:]
        assert np.allclose(val, ref, rtol=1e-12, atol=0.0)
        assert np.linalg.norm(frame.conj().T @ frame - np.eye(k)) <= 1e-14 * k
        assert np.linalg.norm(form @ frame - frame * val) <= 1e-12 * ref[-1]


def test_eig_hermitian_identity_and_swap():
    lam, _ = eig_hermitian(np.eye(3))
    assert np.allclose(lam, [1.0, 1.0, 1.0])
    lam, vecs = eig_hermitian(swap_operator(2).mat)
    assert np.allclose(lam, [1.0, 1.0, 1.0, -1.0], atol=1e-12)
    rebuilt = (vecs * lam) @ vecs.conj().T
    assert np.max(np.abs(rebuilt - swap_operator(2).mat)) < 1e-10


def test_eig_hermitian_trace_identity():
    rng = np.random.default_rng(2)
    g = random_complex(rng, (4, 4))
    h = (g + g.conj().T) / 2.0
    lam, _ = eig_hermitian(h)
    assert abs(np.sum(lam) - np.real(np.trace(h))) < 1e-12
    with pytest.raises(PreconditionError):
        eig_hermitian(g)


def test_matrix_norms_identity_and_rank_one():
    mn = matrix_norms(np.eye(3))
    assert np.allclose([mn.operator, mn.trace, mn.frobenius], [1.0, 3.0, np.sqrt(3.0)])
    v = np.array([0.6, 0.8])
    w = np.array([1.0, 0.0])
    mn = matrix_norms(np.outer(v, w))
    assert np.allclose([mn.operator, mn.trace, mn.frobenius], [1.0, 1.0, 1.0], atol=1e-12)


def test_matrix_norms_inner_product_checks():
    rng = np.random.default_rng(15)
    for _ in range(10):
        x = random_complex(rng, (3, 4))
        mn = matrix_norms(x)
        inner = hs_inner(x, x).real
        assert abs(mn.frobenius ** 2 - inner) < 1e-10
        # the operator and trace norms pair up across the inner product
        assert inner <= mn.operator * mn.trace + 1e-9


def test_norms_invariant_under_transposes():
    rng = np.random.default_rng(21)
    g = random_complex(rng, (6, 6))
    x = bipartite(g, 2, 3)
    base = matrix_norms(g)
    for other in (g.T, g.conj()):
        mn = matrix_norms(other)
        assert abs(mn.operator - base.operator) < 1e-10
        assert abs(mn.trace - base.trace) < 1e-10
        assert abs(mn.frobenius - base.frobenius) < 1e-10
    # the partial transpose only keeps the Frobenius norm in general (the
    # Bell projector changes trace norm from 1 to 2), but on elementary
    # tensors A (x) B it keeps all three
    pt = matrix_norms(partial_transpose(x).mat)
    assert abs(pt.frobenius - base.frobenius) < 1e-10
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (3, 3))
    elem = bipartite(kron(a, b), 2, 3)
    before = matrix_norms(elem.mat)
    after = matrix_norms(partial_transpose(elem).mat)
    assert abs(before.operator - after.operator) < 1e-10
    assert abs(before.trace - after.trace) < 1e-10
    assert abs(before.frobenius - after.frobenius) < 1e-10


def test_bipartite_validation():
    with pytest.raises(DimensionError):
        bipartite(np.eye(5), 2, 3)
    g = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert not bipartite(g, 1, 2).hermitian
    assert bipartite(g, 1, 2, symmetrize=True).hermitian


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1.0, 1e12, 1e300])
def test_hermitian_flag_is_relative_at_every_scale(scale):
    e01 = np.zeros((4, 4), dtype=complex)
    e01[0, 1] = scale
    x = bipartite(e01, 2, 2)
    assert not x.hermitian
    with pytest.raises(PreconditionError):
        prod_radius_bounds(x, 1)
    assert bipartite(BELL_RHO * scale, 2, 2).hermitian


def test_zero_matrix_is_hermitian():
    assert bipartite(np.zeros((4, 4)), 2, 2).hermitian


@pytest.mark.parametrize("make", [
    lambda a: BipartiteOperator(a, 2, 2, hermitian=True),
    lambda a: bipartite(a, 2, 2),
])
def test_operator_keeps_a_frozen_copy(make):
    a = BELL_RHO.copy()
    x = make(a)
    u, s, vh = x.svd
    a[0, 0] = 7.0
    assert not x.mat.flags.writeable
    assert np.array_equal(x.mat, BELL_RHO)
    assert x.svd[1] is s and np.array_equal(s, svd(BELL_RHO)[1])
    with pytest.raises(ValueError):
        x.svd[0][0, 0] = 1.0


def test_operators_compare_and_hash_by_identity():
    # Entrywise equal matrices still make two operators, each with its
    # own cached factors; comparing them must not compare arrays.
    x, y = bipartite(np.eye(4), 2, 2), bipartite(np.eye(4), 2, 2)
    assert x == x and x != y and not (x == y)
    assert hash(x) == hash(x)
    assert len({x, y, x}) == 2
