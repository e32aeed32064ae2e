import inspect
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import entnorms.dualnorms as dualnorms
import entnorms.sknorm as sknorm
from entnorms.criteria import realignment_value
from entnorms.dualnorms import (
    DEFAULT_CERTIFY_TOL,
    ConjectureProbe,
    Decomposition,
    Witness,
    best_gamma_witness,
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
from entnorms.errors import InfeasibleError, ParameterError, PreconditionError
from entnorms.linalg import bipartite
from entnorms.schmidt import pure_state, s_k_dual, schmidt_decompose
from entnorms.sknorm import NormInterval, sk_elementary, sk_pure
from entnorms.states import EnsembleSpec, generate, sn_bounded_ensemble
from oracles import full_span_lp_ref, random_sr_vec_ref, svd_atoms_loop_ref

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
    iv = gamma_bounds(rho, 1)
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


def failed_solve():
    return SimpleNamespace(status=2, x=None)


def test_oracle_retries_with_unit_columns_after_a_failed_solve(monkeypatch):
    shapes = []
    solver = dualnorms.linprog

    def fail_once(c, A_eq, b_eq):
        shapes.append(A_eq.shape)
        if len(shapes) == 1:
            return failed_solve()
        return solver(c, A_eq, b_eq)

    monkeypatch.setattr(dualnorms, "linprog", fail_once)
    rho = generate(EnsembleSpec("ginibre_density", 2, 2, seed=0))
    upper, dec = decomposition_oracle(rho, 1, budget=32, seed=0)
    # a hermitian target has d^2 = 16 real coordinates, and the retry
    # appends the d^2 = 16 phased matrix units to the 32-column pool
    assert shapes == [(16, 32), (16, 48)]
    assert upper >= np.linalg.norm(rho.mat, "nuc")
    assert dec.residual < 1e-9


def test_oracle_raises_when_both_solves_fail(monkeypatch):
    monkeypatch.setattr(dualnorms, "linprog", lambda c, A_eq, b_eq: failed_solve())
    rho = generate(EnsembleSpec("ginibre_density", 2, 2, seed=0))
    with pytest.raises(InfeasibleError, match="failed twice"):
        decomposition_oracle(rho, 1, budget=32, seed=0)


def test_linprog_seam_keeps_its_a_eq_parameter():
    # The traced benchmark reads the LP size off this argument by name.
    assert "A_eq" in inspect.signature(dualnorms.linprog).parameters


def _retry_block(monkeypatch, mat):
    """The A_eq columns the retry appends to the 32-column pool of a 2x2
    operator, and the row count of the first program."""
    programs = []
    solver = dualnorms.linprog

    def fail_once(c, A_eq, b_eq):
        programs.append(A_eq)
        if len(programs) == 1:
            return failed_solve()
        return solver(c, A_eq, b_eq)

    monkeypatch.setattr(dualnorms, "linprog", fail_once)
    decomposition_oracle(bipartite(mat, 2, 2), 1, budget=32, seed=0)
    assert programs[1].shape[1] == 48
    return programs[1][:, 32:], programs[0].shape[0]


def _phased_units(mat):
    # Retry column a*d + b is phase(x_ab) e_a e_b^dag; a zero entry, signed
    # or not, takes phase 1.
    d = mat.shape[0]
    units = np.zeros((d * d, d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            z = mat[a, b]
            units[a * d + b, a, b] = z / abs(z) if z != 0 else 1.0
    return units


def test_retry_columns_are_the_phased_matrix_units(monkeypatch):
    # On a hermitian target each column holds the coordinates of herm(G):
    # the diagonal, then the real and the imaginary strict upper triangle.
    mat = np.array(generate(EnsembleSpec("ginibre_density", 2, 2, seed=0)).mat)
    mat[0, 3] = mat[3, 0] = 0.0
    mat[1, 2] = mat[2, 1] = -0.0
    block, rows = _retry_block(monkeypatch, mat)
    assert rows == 16
    upper = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    expected = np.zeros((16, 16))
    for col, unit in enumerate(_phased_units(mat)):
        herm = (unit + unit.conj().T) / 2
        expected[:4, col] = np.diag(herm).real
        expected[4:10, col] = [herm[a, b].real for a, b in upper]
        expected[10:, col] = [herm[a, b].imag for a, b in upper]
    assert np.allclose(block, expected, rtol=0.0, atol=1e-15)


def test_retry_columns_are_the_phased_matrix_units_on_a_general_target(monkeypatch):
    # A non-hermitian target keeps one row per real and per imaginary entry.
    rng = np.random.default_rng(12)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mat[0, 3] = 0.0
    mat[1, 2] = -0.0
    block, rows = _retry_block(monkeypatch, mat)
    assert rows == 32
    expected = _phased_units(mat).reshape(16, 16).T
    assert np.allclose(block[:16] + 1j * block[16:], expected, rtol=0.0, atol=1e-15)


def test_lp_options_are_all_accepted_by_scipy():
    # scipy warns about an option value it cannot read and then ignores it:
    # presolve given as the string "off" would silently stay on.
    import scipy.optimize  # noqa: F401  imported first: only the solve runs under the filter

    assert dualnorms._LP_OPTIONS["presolve"] is False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dualnorms.linprog(np.ones(2), np.ones((1, 2)), np.ones(1))
    assert res.status == 0 and abs(res.fun - 1.0) < 1e-12


def _ginibre(m, n, scale=1.0):
    rho = generate(EnsembleSpec("ginibre_density", m, n, seed=3))
    return bipartite(scale * rho.mat, m, n)


@pytest.mark.parametrize(
    "make, k, budget, fail_first",
    [
        (lambda: _ginibre(2, 2), 1, 32, False),
        (lambda: _ginibre(3, 3), 1, 162, False),
        (lambda: _ginibre(4, 4), 2, 512, False),
        (lambda: generate(EnsembleSpec("isotropic", 3, 3, p=0.2)), 1, 162, False),
        (lambda: projector(generate(EnsembleSpec("haar_pure", 3, 3, seed=3))), 1, 162, False),
        (lambda: _ginibre(3, 3), 1, 2000, False),
        (lambda: _ginibre(2, 2), 1, 32, True),
        (lambda: _ginibre(3, 3, 1e-12), 1, 162, False),
        (lambda: _ginibre(3, 3, 1e12), 1, 162, False),
    ],
    ids=["2x2", "3x3", "4x4-k2", "isotropic", "haar-projector", "3x3-budget2000",
         "unit-column-retry", "scale1e-12", "scale1e12"],
)
def test_lp_settings_reach_the_default_highs_optimum(monkeypatch, make, k, budget, fail_first):
    # Presolve is off in _LP_OPTIONS; scipy's default settings keep it on.
    import scipy.optimize

    calls = []
    programs = []
    solver = dualnorms.linprog

    def recording(c, A_eq, b_eq):
        calls.append(A_eq.shape)
        if fail_first and len(calls) == 1:
            return failed_solve()
        res = solver(c, A_eq, b_eq)
        programs.append((c, A_eq, b_eq, res))
        return res

    monkeypatch.setattr(dualnorms, "linprog", recording)
    decomposition_oracle(make(), k, budget=budget)
    assert len(calls) == (2 if fail_first else 1) and len(programs) == 1
    c, a_eq, b_eq, res = programs[0]
    ref = scipy.optimize.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0 and ref.status == 0
    assert abs(res.fun - ref.fun) <= 1e-9 * abs(ref.fun)


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
    iv = robustness_bounds(rho, 1)
    assert iv.lower >= 1.0 - 1e-9
    e = robustness_to_entanglement(iv)
    assert e.lower >= -1e-9


def test_robustness_to_entanglement_rescale():
    b = projector(max_entangled(2))
    e = robustness_to_entanglement(robustness_bounds(b, 1))
    assert abs(e.lower - 0.5) < 1e-9
    assert abs(e.upper - 1.0) < 1e-9


def test_conjecture_probe_edges():
    rng = np.random.default_rng(4)
    v = haar_state(rng, 3, 3)
    pr = conjecture_probe(v, 1)
    assert pr.inside and not pr.in_open_regime
    assert abs(pr.candidate - pr.interval.upper) < 1e-12
    pr = conjecture_probe(v, 3)
    assert pr.inside and not pr.in_open_regime
    assert abs(pr.candidate - 1.0) < 1e-12
    with pytest.raises(ParameterError):
        conjecture_probe(v, 4)


def test_conjecture_probe_requires_a_unit_vector():
    # 2 gamma_k - 1 is a formula for unit vectors; at scale 2 it would
    # report a false escape of gap 3 at k = 1, where equality is a theorem.
    v = haar_state(np.random.default_rng(4), 3, 3)
    for scale in (2.0, 0.5):
        scaled = pure_state(scale * v.amplitudes, 3, 3, require_normalized=False)
        for k in (1, 2):
            with pytest.raises(PreconditionError):
                conjecture_probe(scaled, k)


def test_conjecture_probe_open_regime():
    rng = np.random.default_rng(17)
    for _ in range(3):
        pr = conjecture_probe(haar_state(rng, 3, 3), 2)
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
    cert = sn_certify(rho, 2, candidate=dec)
    assert cert.verdict == "at_most_k"
    assert cert.decomposition is dec
    assert cert.witness is None


def test_sn_certify_chunk_path():
    v = generate(EnsembleSpec("sr_bounded_pure", 3, 3, k=2, seed=11))
    cert = sn_certify(projector(v), 2)
    assert cert.verdict == "at_most_k"
    assert cert.decomposition is not None
    assert len(cert.decomposition) == 1


def test_sn_certify_undecided_without_budget():
    rho = generate(EnsembleSpec("isotropic", 3, 3, p=0.2, seed=0))
    cert = sn_certify(rho, 1)
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
        sn_certify(sep, 1, candidate=dec)


def test_entanglement_rescale_judges_exact_on_its_own_endpoints():
    r = NormInterval(1.0, 1.0 + 1e-10, "lo", "hi")
    assert r.exact
    # E = [0, 5e-11]: next to 0 the width is all of the value.
    assert not robustness_to_entanglement(r).exact
    e = robustness_to_entanglement(NormInterval(2.0, 2.0 + 5e-10, "lo", "hi"))
    assert e.lower == 0.5 and e.upper - 0.5 < 2.6e-10 and e.exact
    assert robustness_to_entanglement(NormInterval(3.0, 3.0, "lo", "hi")).exact


def test_sn_certify_rejects_a_bad_tolerance():
    """tol = -0.5 would call the separable isotropic state at p = 0.1
    entangled, and tol = inf the entangled one at p = 0.9 separable."""
    sep = generate(EnsembleSpec("isotropic", 3, 3, p=0.1))
    ent = generate(EnsembleSpec("isotropic", 3, 3, p=0.9))
    for rho, tol in ((sep, -0.5), (ent, np.inf), (sep, np.nan), (ent, -np.inf)):
        with pytest.raises(ParameterError):
            sn_certify(rho, 1, tol=tol)
    assert sn_certify(sep, 1, tol=0.0).verdict != "exceeds_k"
    assert sn_certify(ent, 1, tol=0.0).verdict == "exceeds_k"


def test_probe_fields_follow_the_candidate_and_the_bracket():
    iv = NormInterval(1.0, 2.0, "lo", "hi")
    probe = ConjectureProbe(2, (3, 3), 2.5, iv)
    assert probe.gap == 0.5 and not probe.inside and probe.in_open_regime
    probe = ConjectureProbe(1, (3, 3), 2.0 + 1e-10, iv)
    assert probe.gap <= 1e-9 and probe.inside and not probe.in_open_regime
    assert ConjectureProbe(3, (3, 4), 1.5, iv).gap == 0.0


def test_sn_certify_reuses_the_gamma_witness(monkeypatch):
    calls = []
    seesaw = sknorm.seesaw_lower

    def counted(*args, **kwargs):
        calls.append(1)
        return seesaw(*args, **kwargs)

    # Count see-saws through every binding; gamma_k witnesses need none.
    monkeypatch.setattr(sknorm, "seesaw_lower", counted)
    monkeypatch.setattr(dualnorms, "seesaw_lower", counted, raising=False)
    rho = generate(EnsembleSpec("isotropic", 3, 3, p=0.65))
    cert = sn_certify(rho, 1)
    assert cert.verdict == "exceeds_k"
    assert len(calls) == 0
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
            assert abs(best_gamma_witness(x, k).bound - iv.lower) <= 1e-12 * iv.lower
        iv = gamma_bounds(x, min(m, n))
        assert iv.certificate.method == "sign_unitary"
        assert iv.certificate.bound == iv.lower
        assert abs(best_gamma_witness(x, min(m, n)).bound - iv.lower) <= 1e-12 * iv.lower


def test_eigenprojector_witness_is_not_dominated():
    """At k = 5 on a 6x6 split a noisy projector's leading eigenprojector
    beats both the sign unitary (trace norm 1) and the realignment witness
    (1.0225).  At k = 1 the realignment witness provably dominates, since
    |L(|u><u|)|_op = sigma_1^2 = sk_pure(u, 1)."""
    sigma = np.array([0.84194704] + [0.24129864] * 5)
    u = np.zeros(36)
    u[::7] = sigma / np.linalg.norm(sigma)
    proj = np.outer(u, u)
    rho = bipartite(0.99 * proj + 0.01 * (np.eye(36) - proj) / 35, 6, 6)
    iv = gamma_bounds(rho, 5)
    assert iv.lower_method == "eigenprojector"
    assert iv.lower > realignment_value(rho, 5) + 0.02


def test_sn_certify_exceeds_carries_the_realignment_witness():
    rho = generate(EnsembleSpec("ginibre_density", 2, 2, rank=2, seed=20130413))
    cert = sn_certify(rho, 1)
    assert cert.verdict == "exceeds_k"
    assert cert.gamma.lower_method == "realigned_dual"
    assert cert.witness is cert.gamma.certificate
    assert cert.witness.bound > 1.0 + DEFAULT_CERTIFY_TOL


def test_sn_certify_skips_the_futile_chunk_split(monkeypatch):
    calls = []
    build = dualnorms.decomposition_from_mixture

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(dualnorms, "decomposition_from_mixture", counted)
    rho = generate(EnsembleSpec("ginibre_density", 3, 3, seed=0))
    cert = sn_certify(rho, 2)
    assert cert.verdict == "undecided"
    assert cert.gamma.upper > 1.0 + DEFAULT_CERTIFY_TOL
    assert calls == []
    # where the gamma upper endpoint allows it, the split still runs
    v = generate(EnsembleSpec("sr_bounded_pure", 3, 3, k=2, seed=11))
    assert sn_certify(projector(v), 2).verdict == "at_most_k"
    assert len(calls) == 1


def test_robustness_brackets_carry_the_gamma_witness():
    rng = np.random.default_rng(40)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    cases = [
        (projector(max_entangled(2)), 1),
        (bipartite(g + g.conj().T, 3, 3, symmetrize=True), 3),
        (generate(EnsembleSpec("ginibre_density", 3, 3, seed=0)), 1),
    ]
    for y, k in cases:
        iv = robustness_bounds(y, k)
        assert iv.certificate.method == gamma_bounds(y, k).certificate.method
        assert iv.certificate.bound == iv.lower


def test_gamma_witness_builds_only_the_winning_operator(monkeypatch):
    rho = generate(EnsembleSpec("ginibre_density", 4, 4, seed=3))
    assert np.all(rho.eigh[0] > 0.0)
    wrapped = []

    def counting(*args, **kwargs):
        wrapped.append(args[0])
        return bipartite(*args, **kwargs)

    monkeypatch.setattr(dualnorms, "bipartite", counting)
    wit = best_gamma_witness(rho, 2)
    assert len(wrapped) == 1
    assert wit.w.mat.shape == (16, 16)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_oracle_solves_at_unit_scale(monkeypatch, dims):
    # HiGHS tolerances are absolute: without rescaling, 1e-12 returned the
    # residual penalty alone and 1e6 a spurious infeasible first solve.
    m, n = dims
    rho = generate(EnsembleSpec("ginibre_density", m, n, seed=3))
    budget = 2 * (m * n) ** 2
    statuses = []
    solver = dualnorms.linprog

    def recording(*args):
        res = solver(*args)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(dualnorms, "linprog", recording)
    base, _ = decomposition_oracle(rho, 1, budget=budget)
    for scale in (1e-12, 1e6, 1e12):
        statuses.clear()
        upper, _ = decomposition_oracle(bipartite(scale * rho.mat, m, n), 1, budget=budget)
        assert statuses == [0]
        assert abs(upper / scale - base) <= 1e-9 * base


@pytest.mark.parametrize("scale", [1e-300, 1e300])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_oracle_residual_scales_to_the_extremes(dims, scale):
    # The residual is measured at unit scale through an exact power of two;
    # dividing by the subnormal peak of a 1e-300 density overflowed to inf.
    m, n = dims
    rho = generate(EnsembleSpec("ginibre_density", m, n, seed=3))
    budget = 2 * (m * n) ** 2
    base, base_dec = decomposition_oracle(rho, 1, budget=budget)
    upper, dec = decomposition_oracle(bipartite(scale * rho.mat, m, n), 1, budget=budget)
    assert np.isfinite(dec.residual) and dec.residual <= 1e-12 * scale
    assert base_dec.residual <= 1e-12
    assert abs(upper / scale - base) <= 1e-9 * base


@pytest.mark.parametrize("ratio, closed", [(1e-13, False), (1e-15, True)])
def test_rank_one_closed_forms_share_one_cutoff(ratio, closed):
    # One cutoff on s_2 / s_1 decides rank one for both brackets.
    rng = np.random.default_rng(4)
    u, v = (np.linalg.qr(rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2)))[0]
            for _ in range(2))
    x = bipartite((u * [1.0, ratio]) @ v.conj().T, 3, 3)
    s = x.svd[1]
    assert abs(s[1] / s[0] - ratio) <= 0.1 * ratio
    for k in (1, 2):
        sk = sknorm.sk_bounds(x, k, restarts=2, max_iter=20)
        gb = gamma_bounds(x, k)
        assert (sk.upper_method == "rank_one_exact") == closed
        assert (gb.upper_method == "rank_one_exact") == closed


def test_residual_stays_finite_at_huge_scale():
    # Squaring entries near 1e300 overflowed the Frobenius norm to inf.
    scale = 1e300
    rho = generate(EnsembleSpec("ginibre_density", 2, 2, seed=3))
    _, unit = decomposition_oracle(rho, 1)
    _, huge = decomposition_oracle(bipartite(scale * rho.mat, 2, 2), 1)
    assert np.isfinite(huge.residual)
    assert abs(huge.residual - scale * unit.residual) <= 1e-12 * scale
    # an order-one residual scales to rounding level
    x = projector(two_term_state())
    lefts = np.eye(4, dtype=complex)[:1]
    big_x = bipartite(scale * x.mat, 2, 2)
    big = build_decomposition(np.array([0.7 * scale]), lefts, lefts, 2, 2, 1, big_x)
    assert abs(big.residual - scale * np.sqrt(0.51)) <= 1e-12 * scale * np.sqrt(0.51)


@pytest.mark.parametrize("dims, k", [((2, 2), 1), ((2, 3), 1), ((3, 3), 2), ((3, 4), 2)])
def test_random_pairs_reproduce_the_sequential_stream(dims, k):
    # Each pool vector is, bit for bit, the truncation of the next draw of
    # the sequential stream, and within 1e-12 of the svd reference's.
    m, n = dims
    lefts, rights = dualnorms._random_pairs(np.random.default_rng(5), 40, m, n, k)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    for pair in zip(lefts, rights):
        for vec in pair:
            draw = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            assert np.array_equal(vec, sknorm._sr_unit_vectors(draw.reshape(1, -1), m, n, k)[0])
            assert np.max(np.abs(vec - random_sr_vec_ref(ref_rng, m, n, k))) <= 1e-12


_HERMITIAN_INPUTS = {
    "2x2": (lambda: _ginibre(2, 2), 1),
    "2x3": (lambda: _ginibre(2, 3), 1),
    "3x3": (lambda: _ginibre(3, 3), 1),
    "3x4": (lambda: _ginibre(3, 4), 1),
    "4x4-k2": (lambda: _ginibre(4, 4), 2),
    "isotropic": (lambda: generate(EnsembleSpec("isotropic", 3, 3, p=0.2)), 1),
    "haar-projector": (lambda: projector(generate(EnsembleSpec("haar_pure", 3, 3, seed=3))), 1),
    "rank-2": (lambda: generate(EnsembleSpec("ginibre_density", 3, 3, rank=2, seed=3)), 1),
}


@pytest.mark.parametrize("factor", [1, 3])
@pytest.mark.parametrize("name", list(_HERMITIAN_INPUTS))
def test_hermitian_program_is_never_looser_than_the_full_span(monkeypatch, name, factor):
    # Every decomposition of x over the pool is one of its hermitian part,
    # so matching only the d^2 hermitian coordinates cannot raise the optimum.
    make, k = _HERMITIAN_INPUTS[name]
    x = make()
    m, n = x.dims
    d = m * n
    budget = factor * 2 * d * d
    shapes = []
    solver = dualnorms.linprog

    def recording(c, A_eq, b_eq):
        shapes.append(A_eq.shape)
        return solver(c, A_eq, b_eq)

    monkeypatch.setattr(dualnorms, "linprog", recording)
    upper, dec = decomposition_oracle(x, k, budget=budget, seed=0)
    assert shapes == [(d * d, budget)]

    atom_lefts, atom_rights, _ = dualnorms._svd_atoms(x, k)
    rand_lefts, rand_rights = dualnorms._random_pairs(
        np.random.default_rng(0), budget - len(atom_lefts), m, n, k)
    ref = full_span_lp_ref(np.array(x.mat), np.concatenate([atom_lefts, rand_lefts]),
                           np.concatenate([atom_rights, rand_rights]))
    assert upper <= ref * (1 + 1e-9)
    assert upper >= np.linalg.norm(x.mat, "nuc") * (1 - 1e-12)
    assert dec.residual < 1e-9
    assert abs(dec.weight - upper) <= 1e-9 * upper
    for side in (dec.lefts, dec.rights):
        assert np.max(np.abs(np.linalg.norm(side, axis=1) - 1.0)) <= 1e-12
        s = np.linalg.svd(side.reshape(-1, m, n), compute_uv=False)
        assert s.shape[1] <= k or np.max(s[:, k] / s[:, 0]) <= 1e-8


def test_general_targets_keep_the_full_span_program(monkeypatch):
    rng = np.random.default_rng(8)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    x = bipartite(g, 2, 3)
    assert not x.hermitian
    shapes = []
    solver = dualnorms.linprog

    def recording(c, A_eq, b_eq):
        shapes.append(A_eq.shape)
        return solver(c, A_eq, b_eq)

    monkeypatch.setattr(dualnorms, "linprog", recording)
    upper, dec = decomposition_oracle(x, 1, budget=72, seed=0)
    assert shapes == [(72, 72)]
    atom_lefts, atom_rights, _ = dualnorms._svd_atoms(x, 1)
    rand_lefts, rand_rights = dualnorms._random_pairs(
        np.random.default_rng(0), 72 - len(atom_lefts), 2, 3, 1)
    ref = full_span_lp_ref(g, np.concatenate([atom_lefts, rand_lefts]),
                           np.concatenate([atom_rights, rand_rights]))
    assert abs(upper - ref) <= 1e-9 * ref
    assert dec.residual < 1e-9


@pytest.mark.parametrize("dims", [(1, 3), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
def test_svd_atoms_match_the_per_vector_chunk_loop(dims):
    m, n = dims
    d = m * n
    rng = np.random.default_rng(m * 10 + n)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    low = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    # Schmidt rank below min(m, n): the trailing coefficients are rounding
    # noise, which the per-vector cutoff drops.
    a = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    b = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    short = np.kron(a[0], b[0]) + (np.kron(a[1], b[1]) if min(m, n) > 2 else 0.0)
    for mat in (g, g @ g.conj().T, low @ low.conj().T, np.outer(v, v.conj()),
                np.outer(short, short.conj())):
        x = bipartite(mat, m, n)
        for k in range(1, min(m, n) + 1):
            lefts, rights, coeffs = dualnorms._svd_atoms(x, k)
            ref_lefts, ref_rights, ref_coeffs = svd_atoms_loop_ref(np.array(x.mat), m, n, k)
            assert lefts.shape == ref_lefts.shape and rights.shape == ref_rights.shape
            assert np.max(np.abs(lefts - ref_lefts)) <= 1e-15
            assert np.max(np.abs(rights - ref_rights)) <= 1e-15
            assert np.max(np.abs(coeffs - ref_coeffs)) <= 1e-15 * np.max(ref_coeffs)
