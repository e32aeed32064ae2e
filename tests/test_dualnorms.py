import numpy as np
import pytest

import entnorms.dualnorms as dualnorms
from entnorms.dualnorms import (
    Decomposition,
    Witness,
    build_decomposition,
    certified_upper_from_decomposition,
    conjecture_probe,
    decomposition_from_mixture,
    decomposition_oracle,
    gamma_bounds,
    gamma_pure,
    gamma_rank_one,
    robustness_bounds,
    robustness_to_entanglement,
    sn_certify,
)
from entnorms.errors import ParameterError, PreconditionError
from entnorms.linalg import bipartite
from entnorms.schmidt import pure_state, s_k_dual, schmidt_decompose
from entnorms.sknorm import NormInterval, sk_elementary, sk_pure
from entnorms.states import EnsembleSpec, generate, sn_bounded_ensemble

SQ7 = np.sqrt(0.7)
SQ3 = np.sqrt(0.3)
TWO_TERM_GAMMA1 = 1.9165151389911679


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


def test_gamma_pure_values():
    v = two_term_state()
    assert abs(gamma_pure(v, 1) - TWO_TERM_GAMMA1) < 1e-12
    assert abs(gamma_pure(v, 1) - (SQ7 + SQ3) ** 2) < 1e-12
    assert abs(gamma_pure(v, 2) - 1.0) < 1e-12
    for n in (2, 3):
        for k in range(1, n + 1):
            assert abs(gamma_pure(max_entangled(n), k) - n / k) < 1e-12


def test_gamma_pure_unnormalized_profile():
    """Hand-checked flattened tail on a subnormalized three-term vector."""
    v = np.zeros(9, dtype=complex)
    v[0] = 0.9
    v[4] = 0.31623
    v[8] = 0.3
    state = pure_state(v, 3, 3, require_normalized=False)
    want = 0.81 + (0.31623 + 0.3) ** 2
    assert abs(gamma_pure(state, 2) - want) < 1e-12
    # the sampled oracle never certifies below the true value
    upper, _ = decomposition_oracle(projector(state), 2, budget=400, seed=0)
    assert upper >= want - 1e-9


def test_gamma_rank_one():
    rng = np.random.default_rng(6)
    v = haar_state(rng, 3, 3)
    assert abs(gamma_rank_one(v, v, 2) - gamma_pure(v, 2)) < 1e-12
    e0 = pure_state([1, 0, 0, 0], 2, 2)
    e1 = pure_state([0, 0, 0, 1], 2, 2)
    assert abs(gamma_rank_one(e0, e1, 1) - 1.0) < 1e-12
    assert abs(gamma_rank_one(max_entangled(2), e0, 1) - np.sqrt(2.0)) < 1e-12
    with pytest.raises(ParameterError):
        gamma_rank_one(e0, max_entangled(3), 1)


def test_gamma_bounds_exact_paths():
    b = max_entangled(2)
    iv = gamma_bounds(projector(b), 1)
    assert iv.exact and abs(iv.lower - 2.0) < 1e-12
    iv = gamma_bounds(bipartite(np.eye(4), 2, 2), 1)
    assert abs(iv.lower - 4.0) < 1e-12 and abs(iv.upper - 4.0) < 1e-12
    rng = np.random.default_rng(21)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    x = bipartite(g, 3, 3)
    iv = gamma_bounds(x, 3)
    tn = float(np.sum(np.linalg.svd(g, compute_uv=False)))
    assert iv.exact and abs(iv.lower - tn) < 1e-10
    iv = gamma_bounds(bipartite(np.zeros((4, 4)), 2, 2), 1)
    assert iv.exact and iv.lower == 0.0


def test_gamma_bounds_on_bounded_mixture():
    rho = generate(EnsembleSpec("sn_bounded_density", 3, 3, k=1, terms=6, seed=9))
    iv = gamma_bounds(rho, 1, restarts=16, seed=0)
    assert iv.lower >= 1.0 - 1e-9
    assert iv.lower <= 1.0 + 1e-9
    assert iv.upper >= iv.lower


def test_oracle_two_term_and_bell():
    upper, dec = decomposition_oracle(projector(two_term_state()), 1, budget=600, seed=0)
    assert abs(upper - TWO_TERM_GAMMA1) < 1e-9
    assert upper >= TWO_TERM_GAMMA1 - 1e-9
    assert dec.residual < 1e-9
    upper, dec = decomposition_oracle(projector(max_entangled(2)), 1, budget=600, seed=0)
    assert abs(upper - 2.0) < 1e-9
    assert len(dec) == 4


def test_oracle_on_low_rank_projector():
    v = generate(EnsembleSpec("sr_bounded_pure", 3, 3, k=2, seed=5))
    upper, dec = decomposition_oracle(projector(v), 2, budget=2000, seed=1)
    assert upper <= 1.0 + 1e-6
    assert abs(upper - 1.0000000000000016) < 1e-9
    assert len(dec) == 1


def test_oracle_homogeneity():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a, _ = decomposition_oracle(bipartite(g, 2, 2), 1, budget=600, seed=2)
    b, _ = decomposition_oracle(bipartite(2.5 * g, 2, 2), 1, budget=600, seed=2)
    assert abs(b - 2.5 * a) < 1e-9 * max(1.0, b)


def test_oracle_parameter_errors():
    x = bipartite(np.eye(4), 2, 2)
    with pytest.raises(ParameterError):
        decomposition_oracle(x, 1, budget=10)
    with pytest.raises(ParameterError):
        decomposition_oracle(bipartite(np.zeros((4, 4)), 2, 2), 1, budget=600)
    with pytest.raises(ParameterError):
        decomposition_oracle(x, 1, budget=600, seed=-3)


def test_decomposition_validation_and_reconstruct():
    with pytest.raises(ParameterError):
        Decomposition(np.array([1.0]), np.eye(4, dtype=complex)[:1], np.eye(3, dtype=complex)[:1],
                      2, 2, 1, 0.0)
    with pytest.raises(ParameterError):
        Decomposition(np.array([-1.0]), np.eye(4, dtype=complex)[:1], np.eye(4, dtype=complex)[:1],
                      2, 2, 1, 0.0)
    with pytest.raises(ParameterError):
        Decomposition(np.zeros(0), np.zeros((0, 4), dtype=complex), np.zeros((0, 4), dtype=complex),
                      2, 2, 1, 0.0)
    x = projector(two_term_state())
    dec = decomposition_from_mixture(x, 2)
    assert dec.residual < 1e-12
    assert np.max(np.abs(dec.reconstruct() - x.mat)) < 1e-12
    assert abs(dec.weight - 1.0) < 1e-12


def test_chunked_mixture_weight_at_k1():
    """Chunking the two-term projector at k = 1 pays the full dual value."""
    dec = decomposition_from_mixture(projector(two_term_state()), 1)
    assert abs(dec.weight - TWO_TERM_GAMMA1) < 1e-12
    assert len(dec) == 4


def test_certified_upper_adds_residual_penalty():
    x = projector(two_term_state())
    dec = decomposition_from_mixture(x, 1)
    assert abs(certified_upper_from_decomposition(x, dec) - dec.weight) < 1e-12
    # drop a term: the penalty keeps the bound sound
    short = Decomposition(dec.coefficients[:-1], dec.lefts[:-1], dec.rights[:-1],
                          2, 2, 1, 0.0)
    bound = certified_upper_from_decomposition(x, short)
    assert bound >= TWO_TERM_GAMMA1 - 1e-9
    y = projector(max_entangled(3))
    with pytest.raises(ParameterError):
        certified_upper_from_decomposition(y, dec)


def test_build_decomposition_residual():
    x = projector(two_term_state())
    lefts = np.eye(4, dtype=complex)[:1]
    rights = np.eye(4, dtype=complex)[:1]
    dec = build_decomposition(np.array([0.7]), lefts, rights, 2, 2, 1, x)
    assert abs(dec.residual - np.sqrt(0.51)) < 1e-12


def test_witness_validation():
    x = projector(max_entangled(2))
    with pytest.raises(ParameterError):
        Witness(x, 0.0, 1.0, 1, "test")
    with pytest.raises(ParameterError):
        Witness(x, 1.0, -0.5, 1, "test")
    w = Witness(x, 0.5, 1.0, 1, "test")
    assert abs(w.bound - 2.0) < 1e-15


def test_pairing_inequality_rank_one():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m, n = rng.integers(2, 4, size=2)
        v, w = haar_state(rng, m, n), haar_state(rng, m, n)
        a, b = haar_state(rng, m, n), haar_state(rng, m, n)
        x = np.outer(v.amplitudes, w.amplitudes.conj())
        y = np.outer(a.amplitudes, b.amplitudes.conj())
        k = int(rng.integers(1, min(m, n) + 1))
        pairing = abs(np.vdot(y, x))
        cap = sk_elementary(a, b, k) * gamma_rank_one(v, w, k)
        assert pairing <= cap + 1e-9


def test_saturating_pair_construction():
    """Flattening the Schmidt tail yields a witness meeting gamma exactly."""
    rng = np.random.default_rng(0)
    v = haar_state(rng, 3, 4)
    sd = schmidt_decompose(v)
    alpha = sd.coeffs
    for k in (1, 2, 3):
        d = s_k_dual(v, k)
        r = 0
        for rr in range(k - 1, 0, -1):
            if alpha[rr - 1] > np.sum(alpha[rr:]) / (k - rr):
                r = rr
                break
        flat = np.sum(alpha[r:]) / (k - r)
        beta = np.concatenate([alpha[:r], np.full(alpha.size - r, flat)]) / d
        amp = ((sd.left.T * beta) @ sd.right).reshape(-1)
        w = pure_state(amp, 3, 4, require_normalized=False)
        assert abs(sk_pure(w, k) - 1.0) < 1e-12
        pairing = abs(np.vdot(amp, v.amplitudes)) ** 2
        assert abs(pairing - gamma_pure(v, k)) < 1e-10


def test_robustness_brackets():
    b = projector(max_entangled(2))
    iv = robustness_bounds(b, 1)
    assert abs(iv.lower - 2.0) < 1e-9
    assert abs(iv.upper - 3.0) < 1e-9
    iv = robustness_bounds(bipartite(np.eye(4) / 4.0, 2, 2), 1)
    assert iv.lower >= 1.0 - 1e-9
    assert abs(iv.upper - 1.0) < 1e-12
    rng = np.random.default_rng(40)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    h = bipartite(g + g.conj().T, 3, 3, symmetrize=True)
    iv = robustness_bounds(h, 3)
    tn = float(np.sum(np.abs(np.linalg.eigvalsh(h.mat))))
    assert iv.exact and abs(iv.lower - tn) < 1e-9
    with pytest.raises(PreconditionError):
        robustness_bounds(bipartite(g, 3, 3), 1)


def test_robustness_separable_cap():
    rho = generate(EnsembleSpec("sn_bounded_density", 3, 3, k=1, terms=6, seed=2))
    iv = robustness_bounds(rho, 1, restarts=16, sn_at_most_k=True)
    assert iv.upper == 1.0
    assert iv.lower >= 1.0 - 1e-9
    e = robustness_to_entanglement(iv)
    assert e.upper == 0.0
    assert e.lower >= -1e-9


def test_robustness_to_entanglement_rescale():
    b = projector(max_entangled(2))
    e = robustness_to_entanglement(robustness_bounds(b, 1))
    assert abs(e.lower - 0.5) < 1e-9
    assert abs(e.upper - 1.0) < 1e-9


def test_conjecture_probe_edges():
    rng = np.random.default_rng(4)
    v = haar_state(rng, 3, 3)
    pr = conjecture_probe(v, 1, restarts=8)
    assert pr.inside and not pr.in_open_regime
    assert abs(pr.candidate - pr.interval.upper) < 1e-12
    pr = conjecture_probe(v, 3, restarts=8)
    assert pr.inside and not pr.in_open_regime
    assert abs(pr.candidate - 1.0) < 1e-12
    with pytest.raises(ParameterError):
        conjecture_probe(v, 4)


def test_conjecture_probe_open_regime():
    rng = np.random.default_rng(17)
    for _ in range(3):
        pr = conjecture_probe(haar_state(rng, 3, 3), 2, restarts=16)
        assert pr.in_open_regime
        assert pr.inside, f"candidate {pr.candidate} escaped {pr.interval}"
        assert pr.gap == 0.0


def test_sn_certify_bell_exceeds():
    cert = sn_certify(projector(max_entangled(2)), 1)
    assert cert.verdict == "exceeds_k"
    assert cert.gamma.lower > 1.0 + 1e-6
    assert cert.witness is not None
    assert cert.witness.bound > 1.0


def test_sn_certify_candidate_path():
    rho, dec = sn_bounded_ensemble(EnsembleSpec("sn_bounded_density", 3, 3, k=2,
                                                terms=5, seed=7))
    cert = sn_certify(rho, 2, candidate=dec, restarts=8)
    assert cert.verdict == "at_most_k"
    assert cert.decomposition is dec
    assert cert.witness is None


def test_sn_certify_chunk_path():
    v = generate(EnsembleSpec("sr_bounded_pure", 3, 3, k=2, seed=11))
    cert = sn_certify(projector(v), 2, restarts=8)
    assert cert.verdict == "at_most_k"
    assert cert.decomposition is not None
    assert len(cert.decomposition) == 1


def test_sn_certify_undecided_without_budget():
    rho = generate(EnsembleSpec("isotropic", 3, 3, p=0.2, seed=0))
    cert = sn_certify(rho, 1, restarts=8)
    assert cert.verdict == "undecided"
    assert cert.gamma.lower <= 1.0 + 1e-9


def test_sn_certify_validation():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    with pytest.raises(PreconditionError):
        sn_certify(bipartite(g, 3, 3), 1)
    h = bipartite(g @ g.conj().T, 3, 3, symmetrize=True)
    with pytest.raises(PreconditionError):
        sn_certify(h, 1)  # trace far from 1
    rho, dec = sn_bounded_ensemble(EnsembleSpec("sn_bounded_density", 3, 3, k=2,
                                                terms=5, seed=7))
    sep = generate(EnsembleSpec("sn_bounded_density", 3, 3, k=1, terms=6, seed=2))
    with pytest.raises(ParameterError):
        sn_certify(sep, 1, candidate=dec, restarts=8)


def test_entanglement_rescale_keeps_exact_only_for_equal_endpoints():
    r = NormInterval(1.0, 1.0 + 1e-10, "lo", "hi", True)
    assert not robustness_to_entanglement(r).exact
    assert robustness_to_entanglement(NormInterval(3.0, 3.0, "lo", "hi", True)).exact


def test_sn_certify_reuses_the_gamma_witness(monkeypatch):
    calls = []
    seesaw = dualnorms.seesaw_lower

    def counted(*args, **kwargs):
        calls.append(1)
        return seesaw(*args, **kwargs)

    monkeypatch.setattr(dualnorms, "seesaw_lower", counted)
    rho = generate(EnsembleSpec("isotropic", 3, 3, p=0.65))
    cert = sn_certify(rho, 1, restarts=8)
    assert cert.verdict == "exceeds_k"
    assert len(calls) == 1
    assert cert.witness is cert.gamma.certificate
    assert cert.witness.bound > 1.0


def test_gamma_certificate_on_pure_projectors():
    rng = np.random.default_rng(31)
    for m, n in ((2, 3), (3, 3), (3, 4), (4, 4)):
        x = projector(haar_state(rng, m, n))
        for k in range(1, min(m, n)):
            iv = gamma_bounds(x, k)
            wit = iv.certificate
            u, s, vh = np.linalg.svd(wit.w.mat)
            assert s[1] <= 1e-12 * s[0]
            a = pure_state(np.sqrt(s[0]) * u[:, 0], m, n, require_normalized=False)
            b = pure_state(np.sqrt(s[0]) * vh[0].conj(), m, n, require_normalized=False)
            assert sk_elementary(a, b, k) <= 1.0 + 1e-12
            assert abs(wit.bound - iv.lower) <= 1e-12 * iv.lower
        iv = gamma_bounds(x, min(m, n))
        assert iv.certificate.method == "sign_unitary"
        assert iv.certificate.bound == iv.lower
