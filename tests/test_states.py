import numpy as np
import pytest

from entnorms.criteria import realignment_value
from entnorms.dualnorms import certified_upper_from_decomposition, sn_certify
from entnorms.errors import ParameterError
from entnorms.schmidt import schmidt_rank
from entnorms.states import EnsembleSpec, generate, haar_unitary, sn_bounded_ensemble


def test_max_entangled_is_bell():
    v = generate(EnsembleSpec("max_entangled", 2, 2))
    want = np.zeros(4, dtype=complex)
    want[0] = want[3] = 1.0 / np.sqrt(2.0)
    assert np.max(np.abs(v.amplitudes - want)) == 0.0


def test_max_entangled_unequal_dims():
    v = generate(EnsembleSpec("max_entangled", 2, 3))
    assert schmidt_rank(v) == 2
    assert abs(v.norm() - 1.0) < 1e-12


def test_isotropic_endpoints_and_validation():
    flat = generate(EnsembleSpec("isotropic", 3, 3, p=0.0))
    assert np.max(np.abs(flat.mat - np.eye(9) / 9.0)) < 1e-15
    pure = generate(EnsembleSpec("isotropic", 2, 2, p=1.0))
    assert abs(np.real(np.trace(pure.mat @ pure.mat)) - 1.0) < 1e-12
    with pytest.raises(ParameterError):
        generate(EnsembleSpec("isotropic", 3, 3, p=1.5))
    with pytest.raises(ParameterError):
        generate(EnsembleSpec("isotropic", 2, 3, p=0.5))
    with pytest.raises(ParameterError):
        generate(EnsembleSpec("isotropic", 3, 3))


def test_generation_is_deterministic():
    a = generate(EnsembleSpec("haar_pure", 3, 4, seed=12))
    b = generate(EnsembleSpec("haar_pure", 3, 4, seed=12))
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = generate(EnsembleSpec("haar_pure", 3, 4, seed=13))
    assert np.max(np.abs(a.amplitudes - c.amplitudes)) > 1e-3
    x = generate(EnsembleSpec("ginibre_density", 2, 2, seed=5))
    y = generate(EnsembleSpec("ginibre_density", 2, 2, seed=5))
    assert np.array_equal(x.mat, y.mat)


def test_sr_bounded_plants_the_rank():
    for seed in range(8):
        for k in (1, 2, 3):
            v = generate(EnsembleSpec("sr_bounded_pure", 3, 4, k=k, seed=seed))
            assert schmidt_rank(v) == k
            assert abs(v.norm() - 1.0) < 1e-12


def test_sn_bounded_is_a_sound_density():
    rho = generate(EnsembleSpec("sn_bounded_density", 3, 3, k=2, terms=5, seed=1))
    lam = np.linalg.eigvalsh(rho.mat)
    assert lam[0] > -1e-12
    assert abs(np.real(np.trace(rho.mat)) - 1.0) < 1e-12
    assert rho.hermitian
    # realignment never incriminates a state built inside the k class
    assert realignment_value(rho, 2) <= 1.0 + 1e-9


def test_ginibre_rank_control():
    rho = generate(EnsembleSpec("ginibre_density", 3, 3, rank=2, seed=2))
    lam = np.linalg.eigvalsh(rho.mat)
    assert np.sum(lam > 1e-12) == 2
    with pytest.raises(ParameterError):
        generate(EnsembleSpec("ginibre_density", 2, 2, rank=9))


def test_spec_validation():
    with pytest.raises(ParameterError):
        EnsembleSpec("volcano", 2, 2)
    with pytest.raises(ParameterError):
        EnsembleSpec("haar_pure", 0, 2)
    with pytest.raises(ParameterError):
        EnsembleSpec("haar_pure", 2, 2, seed=-1)
    with pytest.raises(ParameterError):
        generate(EnsembleSpec("sr_bounded_pure", 2, 2, k=3))
    with pytest.raises(ParameterError):
        generate(EnsembleSpec("sr_bounded_pure", 2, 2, k=1.5))
    with pytest.raises(ParameterError):
        generate(EnsembleSpec("sn_bounded_density", 2, 2, k=1))
    with pytest.raises(ParameterError):
        generate(EnsembleSpec("sn_bounded_density", 2, 2, k=1, terms=0))


def test_haar_unitary_properties():
    rng = np.random.default_rng(9)
    u = haar_unitary(4, rng)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12
    v = haar_unitary(4, np.random.default_rng(9))
    assert np.array_equal(u, v)


def test_ensemble_returns_generating_decomposition():
    spec = EnsembleSpec("sn_bounded_density", 3, 3, k=2, terms=5, seed=7)
    rho, dec = sn_bounded_ensemble(spec)
    again = generate(spec)
    assert np.array_equal(rho.mat, again.mat)
    assert dec.residual < 1e-12
    assert abs(dec.weight - 1.0) < 1e-12
    assert certified_upper_from_decomposition(rho, dec) <= 1.0 + 1e-9
    cert = sn_certify(rho, 2, candidate=dec, restarts=8)
    assert cert.verdict == "at_most_k"
    with pytest.raises(ParameterError):
        sn_bounded_ensemble(EnsembleSpec("haar_pure", 2, 2))
