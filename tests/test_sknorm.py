import numpy as np
import pytest

from entnorms.errors import ParameterError, PreconditionError
from entnorms.linalg import bipartite, swap_operator
from entnorms.schmidt import pure_state, schmidt_rank
from entnorms.sknorm import (
    NormInterval,
    block_positivity_check,
    prod_radius_bisect,
    prod_radius_bounds,
    seesaw_lower,
    sk_bounds,
    sk_elementary,
    sk_pure,
)
from entnorms.states import EnsembleSpec, generate

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


def projector(v):
    return bipartite(np.outer(v.amplitudes, v.amplitudes.conj()), v.dim_a, v.dim_b,
                     symmetrize=True)


def test_sk_pure_values():
    v = two_term_state()
    assert abs(sk_pure(v, 2) - 1.0) < 1e-12
    assert abs(sk_pure(v, 1) - 0.7) < 1e-12
    for n in (2, 3):
        for k in range(1, n + 1):
            assert abs(sk_pure(max_entangled(n), k) - k / n) < 1e-12


def test_sk_pure_matches_seesaw():
    """The alternating optimizer recovers the closed-form projector value."""
    res = seesaw_lower(projector(two_term_state()), 1, restarts=32, seed=0)
    assert abs(res.value - 0.7) < 1e-8


def test_sk_elementary_values():
    prod = pure_state([1.0, 0.0, 0.0, 0.0], 2, 2)
    assert abs(sk_elementary(prod, prod, 1) - 1.0) < 1e-12
    b = max_entangled(2)
    assert abs(sk_elementary(b, b, 1) - 0.5) < 1e-12
    with pytest.raises(ParameterError):
        sk_elementary(prod, max_entangled(3), 1)


def test_sk_elementary_matches_seesaw_on_ketbra():
    rng = np.random.default_rng(18)
    v = haar_state(rng, 3, 3)
    w = haar_state(rng, 3, 3)
    x = bipartite(np.outer(v.amplitudes, w.amplitudes.conj()), 3, 3)
    for k in (1, 2):
        res = seesaw_lower(x, k, restarts=16, seed=1)
        assert abs(res.value - sk_elementary(v, w, k)) < 1e-6


def test_seesaw_identity_and_zero():
    x = bipartite(np.eye(9), 3, 3)
    res = seesaw_lower(x, 1, restarts=4, seed=0)
    assert abs(res.value - 1.0) < 1e-10
    res = seesaw_lower(bipartite(np.zeros((4, 4)), 2, 2), 1, restarts=2, seed=0)
    assert res.value == 0.0
    assert res.converged


def test_seesaw_trace_is_monotone_and_consistent():
    rng = np.random.default_rng(25)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    x = bipartite(g, 3, 3)
    res = seesaw_lower(x, 2, restarts=8, seed=3)
    trace = res.objective_trace
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
    assert abs(trace[-1] - res.value) < 1e-10
    # the reported pair reproduces the reported value and stays rank-limited
    pair_val = abs(res.v.amplitudes.conj() @ g @ res.w.amplitudes)
    assert abs(pair_val - res.value) < 1e-10
    assert schmidt_rank(res.v) <= 2
    assert schmidt_rank(res.w) <= 2


def test_seesaw_is_deterministic_in_the_seed():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    x = bipartite(g, 2, 3)
    a = seesaw_lower(x, 1, restarts=6, seed=42)
    b = seesaw_lower(x, 1, restarts=6, seed=42)
    assert a.value == b.value
    assert np.array_equal(a.v.amplitudes, b.v.amplitudes)
    c = seesaw_lower(x, 1, restarts=6, seed=43)
    assert c.value <= a.value + 1e-6 or c.value >= a.value - 1e-6


def test_sk_bounds_rank_one_exact():
    rng = np.random.default_rng(12)
    v = haar_state(rng, 3, 3)
    w = haar_state(rng, 3, 3)
    x = bipartite(np.outer(v.amplitudes, w.amplitudes.conj()), 3, 3)
    iv = sk_bounds(x, 2)
    assert iv.exact
    assert abs(iv.lower - sk_elementary(v, w, 2)) < 1e-12
    assert iv.upper == iv.lower


def test_sk_bounds_top_k_is_operator_norm():
    rng = np.random.default_rng(19)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    x = bipartite(g, 2, 3)
    iv = sk_bounds(x, 2)
    opn = np.linalg.svd(g, compute_uv=False)[0]
    assert iv.exact
    assert abs(iv.lower - opn) < 1e-10


def test_sk_bounds_antisymmetric_projector():
    """I - S on 2x2 has S(1) norm 1: twice the antisymmetric projector."""
    y = bipartite(np.eye(4) - swap_operator(2).mat, 2, 2, symmetrize=True)
    iv = sk_bounds(y, 1, restarts=16, seed=0)
    assert iv.lower <= 1.0 <= iv.upper + 1e-9
    assert iv.width <= 1e-6


def test_sk_bounds_sandwich_and_monotone():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    x = bipartite(g, 3, 3)
    ivs = [sk_bounds(x, k, restarts=12, seed=1) for k in (1, 2, 3)]
    opn = np.linalg.svd(g, compute_uv=False)[0]
    for iv in ivs:
        assert -1e-12 <= iv.lower <= iv.upper <= opn + 1e-9
    for a, b in zip(ivs, ivs[1:]):
        assert a.lower <= b.upper + 1e-9
    assert abs(ivs[2].lower - opn) < 1e-10


def test_prod_radius_identity_and_pure():
    assert prod_radius_bounds(bipartite(np.eye(4), 2, 2), 1).lower == 1.0
    v = two_term_state()
    iv = prod_radius_bounds(projector(v), 1)
    assert iv.exact
    assert abs(iv.lower - 0.7) < 1e-12


def test_prod_radius_indefinite_shift():
    """I - 2|bell><bell| at k=1: product vectors reach 1 and nothing beats it."""
    b = max_entangled(2)
    y = bipartite(np.eye(4) - 2.0 * np.outer(b.amplitudes, b.amplitudes.conj()), 2, 2,
                  symmetrize=True)
    iv = prod_radius_bounds(y, 1, restarts=16, seed=0)
    assert iv.lower >= 1.0 - 1e-6
    assert iv.upper <= 1.0 + 1e-12


def test_prod_radius_requires_hermitian():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(PreconditionError):
        prod_radius_bounds(bipartite(g, 2, 2), 1)
    with pytest.raises(PreconditionError):
        block_positivity_check(bipartite(g, 2, 2), 1)


def test_block_positivity_psd_and_negative():
    rng = np.random.default_rng(14)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psd = bipartite(g @ g.conj().T, 2, 2, symmetrize=True)
    assert block_positivity_check(psd, 1).verdict == "certified_positive"
    res = block_positivity_check(bipartite(-np.eye(4), 2, 2), 1)
    assert res.verdict == "certified_negative"
    assert res.witness is not None
    # the witness pair really violates positivity: <v|(-I)|v> = -1 < 0
    pair_val = res.witness.value
    assert pair_val > res.c + 1e-10


def test_block_positivity_swap_boundary():
    """The swap operator sits exactly on the k=1 positivity boundary."""
    res = block_positivity_check(swap_operator(2), 1, seed=0)
    assert res.verdict == "certified_positive"
    assert abs(res.c - 1.0) < 1e-12
    assert abs(res.interval.upper - 1.0) < 1e-8


def test_bisect_identity_and_pure_projectors():
    iv = prod_radius_bisect(bipartite(np.eye(4), 2, 2), 1, depth=25)
    assert iv.lower <= 1.0 + 1e-9
    assert iv.upper >= 1.0 - 1e-9
    assert iv.width < 1e-6
    rng = np.random.default_rng(77)
    for _ in range(3):
        v = haar_state(rng, 3, 3)
        for k in (1, 2):
            iv = prod_radius_bisect(projector(v), k, depth=30, seed=5)
            want = sk_pure(v, k)
            assert iv.lower - 1e-9 <= want <= iv.upper + 1e-9
            assert iv.width < 1e-6


def test_bisect_agrees_with_direct_bounds():
    rng = np.random.default_rng(55)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = bipartite(g + g.conj().T, 2, 2, symmetrize=True)
    direct = prod_radius_bounds(y, 1, restarts=16, seed=2)
    via = prod_radius_bisect(y, 1, depth=25, restarts=8, seed=2)
    # the two brackets must overlap
    assert via.lower <= direct.upper + 1e-9
    assert direct.lower <= via.upper + 1e-9


def test_interval_validation():
    with pytest.raises(ParameterError):
        NormInterval(2.0, 1.0, "a", "b", False)
    with pytest.raises(ParameterError):
        NormInterval(0.0, 1.0, "a", "b", True)
    iv = NormInterval(1.0, 1.5, "lo", "hi", False)
    assert abs(iv.width - 0.5) < 1e-15


def test_budget_validation():
    x = bipartite(np.eye(4), 2, 2)
    with pytest.raises(ParameterError):
        seesaw_lower(x, 1, restarts=0)
    with pytest.raises(ParameterError):
        seesaw_lower(x, 1, max_iter=0)
    with pytest.raises(ParameterError):
        seesaw_lower(x, 1, seed=-1)
    with pytest.raises(ParameterError):
        sk_bounds(x, 5)


def test_exact_is_relative_to_the_value():
    """A bracket far below 1e-9 in absolute terms is not exact when its
    endpoints differ by a third of the value."""
    rho = generate(EnsembleSpec("ginibre_density", 3, 3, seed=1))
    iv = sk_bounds(bipartite(rho.mat * 1e-12, 3, 3), 1)
    assert iv.upper < 1e-12
    assert iv.upper - iv.lower > 0.1 * iv.upper
    assert not iv.exact
    with pytest.raises(ParameterError):
        NormInterval(2.7e-13, 3.96e-13, "a", "b", True)
    assert NormInterval(1e9, 1e9 + 0.5, "a", "b", True).exact


def test_sk_certificate_attains_the_lower_endpoint():
    rng = np.random.default_rng(23)
    g = bipartite(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)), 3, 3)
    cases = [
        (g, 1, "seesaw"),
        (g, 3, "operator_norm_exact"),
        (projector(haar_state(rng, 3, 3)), 2, "rank_one_exact"),
        (bipartite(np.zeros((9, 9)), 3, 3), 1, "zero_operator"),
    ]
    for x, k, tag in cases:
        iv = sk_bounds(x, k, restarts=8)
        pair = iv.certificate
        assert iv.lower_method == tag
        assert pair.value == iv.lower
        assert schmidt_rank(pair.v) <= k and schmidt_rank(pair.w) <= k
        pairing = abs(np.vdot(pair.v.amplitudes, x.mat @ pair.w.amplitudes))
        assert abs(pairing - iv.lower) <= 1e-12 * max(1.0, iv.lower)
