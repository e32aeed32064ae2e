import numpy as np
import pytest

import entnorms.criteria as criteria
from entnorms.criteria import (
    DetectionReport,
    cross_norm_test,
    detect_schmidt_number,
    local_filter,
    pure_state_sr_test,
    realignment_value,
    weak_realignment,
)
from entnorms.errors import ParameterError, PreconditionError
from entnorms.linalg import bipartite, partial_trace
from entnorms.schmidt import pure_state, schmidt_rank
from entnorms.states import EnsembleSpec, generate
from oracles import local_filter_ref

SQ7 = np.sqrt(0.7)
SQ3 = np.sqrt(0.3)


def two_term_state():
    v = np.zeros(4, dtype=complex)
    v[0] = SQ7
    v[3] = SQ3
    return pure_state(v, 2, 2)


def max_entangled_rho(n):
    v = np.zeros(n * n, dtype=complex)
    v[:: n + 1] = 1.0 / np.sqrt(n)
    return bipartite(np.outer(v, v.conj()), n, n, symmetrize=True)


def projector(v):
    return bipartite(np.outer(v.amplitudes, v.amplitudes.conj()), v.dim_a, v.dim_b,
                     symmetrize=True)


def haar_state(rng, m, n):
    g = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    return pure_state(g / np.linalg.norm(g), m, n)


def test_realignment_values():
    e0 = pure_state([1, 0, 0, 0], 2, 2)
    assert abs(realignment_value(projector(e0), 1) - 1.0) < 1e-12
    m3 = max_entangled_rho(3)
    assert abs(realignment_value(m3, 1) - 3.0) < 1e-10
    assert abs(realignment_value(m3, 2) - 1.5) < 1e-10
    assert abs(realignment_value(m3, 3) - 1.0) < 1e-10


def test_realignment_at_full_k_is_purity():
    rho = generate(EnsembleSpec("ginibre_density", 2, 3, seed=4))
    val = realignment_value(rho, 2)
    assert val <= 1.0 + 1e-12
    assert abs(val - np.linalg.norm(rho.mat)) < 1e-10


def test_detect_bell_and_maxent():
    rep = detect_schmidt_number(max_entangled_rho(2), 1)
    assert rep.criterion == "gen_realign"
    assert abs(rep.value - 2.0) < 1e-10
    assert rep.detected and not rep.filtered
    assert rep.threshold == 1.0
    rep = detect_schmidt_number(max_entangled_rho(3), 3)
    assert abs(rep.value - 1.0) < 1e-9
    assert not rep.detected


def test_detect_isotropic_family():
    hot = generate(EnsembleSpec("isotropic", 3, 3, p=0.9, seed=0))
    rep = detect_schmidt_number(hot, 1)
    assert abs(rep.value - (1.0 + 8.0 * 0.9) / 3.0) < 1e-10
    assert rep.detected
    cold = generate(EnsembleSpec("isotropic", 3, 3, p=0.2, seed=0))
    rep = detect_schmidt_number(cold, 1)
    assert abs(rep.value - (1.0 + 8.0 * 0.2) / 3.0) < 1e-10
    assert not rep.detected


def test_detect_with_filter_can_only_help():
    raw = detect_schmidt_number(projector(two_term_state()), 1)
    assert abs(raw.value - (SQ7 + SQ3) ** 2) < 1e-10
    helped = detect_schmidt_number(projector(two_term_state()), 1, use_filter=True)
    assert helped.filtered
    assert abs(helped.value - 2.0) < 1e-9
    # the isotropic state is already in normal form: nothing to gain
    iso = generate(EnsembleSpec("isotropic", 3, 3, p=0.9, seed=0))
    rep = detect_schmidt_number(iso, 1, use_filter=True)
    assert not rep.filtered
    assert abs(rep.value - (1.0 + 8.0 * 0.9) / 3.0) < 1e-10
    rng = np.random.default_rng(13)
    for _ in range(5):
        rho = projector(haar_state(rng, 3, 3))
        a = detect_schmidt_number(rho, 1)
        b = detect_schmidt_number(rho, 1, use_filter=True)
        assert b.value >= a.value - 1e-12


def test_detect_rejects_non_densities():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    with pytest.raises(PreconditionError):
        detect_schmidt_number(bipartite(g, 3, 3), 1)
    h = bipartite(g @ g.conj().T, 3, 3, symmetrize=True)
    with pytest.raises(PreconditionError):
        detect_schmidt_number(h, 1)
    neg = bipartite(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), 2, 2)
    with pytest.raises(PreconditionError):
        detect_schmidt_number(neg, 1)


def test_weak_realignment():
    rep = weak_realignment(max_entangled_rho(2), 1)
    assert rep.criterion == "weak_realign"
    assert abs(rep.value - 2.0) < 1e-10
    assert rep.threshold == 1.0
    assert rep.detected
    sep = generate(EnsembleSpec("sn_bounded_density", 3, 3, k=1, terms=6, seed=3))
    rep = weak_realignment(sep, 1)
    assert rep.value <= 1.0 + 1e-9
    assert not rep.detected
    m3 = max_entangled_rho(3)
    assert weak_realignment(m3, 2).detected
    assert not weak_realignment(m3, 3).detected


def test_weak_implies_generalized():
    rng_seeds = [0, 1, 2]
    states = [max_entangled_rho(2), max_entangled_rho(3)]
    states += [generate(EnsembleSpec("ginibre_density", 3, 3, seed=s)) for s in rng_seeds]
    states += [generate(EnsembleSpec("isotropic", 3, 3, p=0.7, seed=0))]
    for rho in states:
        kmax = min(rho.dims)
        for k in range(1, kmax + 1):
            weak = weak_realignment(rho, k)
            gen = detect_schmidt_number(rho, k)
            assert weak.value <= k * gen.value + 1e-9
            if weak.detected:
                assert gen.detected


def test_cross_norm_test():
    bell = max_entangled_rho(2)
    rep = cross_norm_test(bell, 1)
    assert rep.criterion == "cross_norm"
    assert rep.detected
    assert rep.value >= 2.0 - 1e-9
    sep = generate(EnsembleSpec("sn_bounded_density", 3, 3, k=1, terms=6, seed=3))
    rep = cross_norm_test(sep, 1)
    assert not rep.detected
    assert rep.value >= 1.0 - 1e-9
    rho = generate(EnsembleSpec("ginibre_density", 3, 3, seed=1))
    assert cross_norm_test(rho, 2).value >= realignment_value(rho, 2) - 1e-9


def test_pure_state_sr_verdicts():
    e0 = pure_state([1, 0, 0, 0], 2, 2)
    assert pure_state_sr_test(e0, 1) == "sr_at_most_k"
    v = np.zeros(16, dtype=complex)
    v[::5] = 0.5
    m4 = pure_state(v, 4, 4)
    assert pure_state_sr_test(m4, 3) == "sr_exceeds_k"
    assert pure_state_sr_test(m4, 4) == "sr_at_most_k"
    planted = generate(EnsembleSpec("sr_bounded_pure", 4, 4, k=2, seed=8))
    assert pure_state_sr_test(planted, 2) == "sr_at_most_k"
    assert pure_state_sr_test(planted, 1) == "sr_exceeds_k"


def test_pure_state_sr_agrees_with_rank():
    rng = np.random.default_rng(30)
    for trial in range(10):
        s = int(rng.integers(1, 4))
        v = generate(EnsembleSpec("sr_bounded_pure", 3, 4, k=s, seed=100 + trial))
        r = schmidt_rank(v)
        for k in (1, 2, 3):
            want = "sr_at_most_k" if r <= k else "sr_exceeds_k"
            assert pure_state_sr_test(v, k) == want


def test_pure_state_sr_needs_unit_norm():
    v = pure_state([0.5, 0, 0, 0], 2, 2, require_normalized=False)
    with pytest.raises(PreconditionError):
        pure_state_sr_test(v, 1)


def test_filter_fixed_points():
    iso = generate(EnsembleSpec("isotropic", 3, 3, p=0.5, seed=0))
    fr = local_filter(iso)
    assert fr.converged and fr.iterations == 0
    assert np.max(np.abs(fr.rho.mat - iso.mat)) < 1e-12
    assert np.max(np.abs(fr.f_a - np.eye(3))) < 1e-12
    prod = projector(pure_state([1, 0, 0, 0], 2, 2))
    fr = local_filter(prod)
    assert fr.converged and fr.iterations == 0


def test_filter_flattens_pure_states():
    fr = local_filter(projector(two_term_state()))
    assert fr.converged and fr.iterations >= 1
    bell = max_entangled_rho(2)
    assert np.max(np.abs(fr.rho.mat - bell.mat)) < 1e-9
    # the accumulated maps reproduce the filtered state
    lift = np.kron(fr.f_a, fr.f_b)
    raw = lift @ projector(two_term_state()).mat @ lift.conj().T
    raw /= np.real(np.trace(raw))
    assert np.max(np.abs(raw - fr.rho.mat)) < 1e-9


def test_filter_flattens_marginals():
    rho = generate(EnsembleSpec("ginibre_density", 3, 3, seed=6))
    fr = local_filter(rho)
    assert fr.converged
    for side, dim in (("B", 3), ("A", 3)):
        marg = partial_trace(fr.rho, side)
        assert np.max(np.abs(marg - np.eye(dim) / dim)) < 1e-8


def test_filter_iteration_cap():
    rho = generate(EnsembleSpec("ginibre_density", 3, 3, seed=6))
    fr = local_filter(rho, max_iter=0)
    assert not fr.converged
    assert fr.iterations == 0
    with pytest.raises(ParameterError):
        local_filter(rho, max_iter=-1)


# An sn_bounded_density on which the filter stops unconverged at the cap.
UNCONVERGED = EnsembleSpec("sn_bounded_density", 3, 3, k=1, terms=4, seed=20130418)


@pytest.mark.parametrize("rho", [
    projector(two_term_state()),
    generate(EnsembleSpec("ginibre_density", 3, 3, seed=6)),
    generate(EnsembleSpec("isotropic", 3, 3, p=0.4)),
    generate(UNCONVERGED),
], ids=["pure", "ginibre", "isotropic", "unconverged"])
def test_filter_matches_the_kronecker_lift_reference(rho):
    m, n = rho.dims
    ref_rho, ref_a, ref_b, ref_iterations, ref_converged = local_filter_ref(rho.mat, m, n)
    fr = local_filter(rho)
    assert (fr.iterations, fr.converged) == (ref_iterations, ref_converged)
    for got, ref in ((fr.rho.mat, ref_rho), (fr.f_a, ref_a), (fr.f_b, ref_b)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert fr.rho.hermitian and not fr.rho.mat.flags.writeable


@pytest.mark.parametrize("spec", [UNCONVERGED, EnsembleSpec("ginibre_density", 3, 3, seed=6)])
def test_filter_wraps_only_its_result(monkeypatch, spec):
    rho = generate(spec)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return bipartite(*args, **kwargs)

    monkeypatch.setattr(criteria, "bipartite", counting)
    fr = local_filter(rho)
    assert fr.iterations >= 10
    assert len(calls) <= 1


def test_unconverged_filter_still_supplies_the_detection_value():
    # Every filter iterate is a local operation on rho, so the value of the
    # last one is sound even when the filter stops at its cap.
    rho = generate(UNCONVERGED)
    fr = local_filter(rho)
    assert not fr.converged and fr.iterations == criteria.FILTER_MAX_ITER
    raw = realignment_value(rho, 1)
    rep = detect_schmidt_number(rho, 1, use_filter=True)
    assert abs(raw - 0.9577) < 1e-4
    assert rep.value == realignment_value(fr.rho, 1)
    assert abs(rep.value - 0.99999999999994) < 1e-13
    assert rep.filtered and not rep.detected


def test_detected_is_derived_from_value_threshold_and_tol():
    assert DetectionReport("gen_realign", 1, 2.0, 1.0, False, 1e-9).detected
    assert not DetectionReport("gen_realign", 1, 1.0 + 1e-9, 1.0, False, 1e-9).detected
    assert DetectionReport("weak_realign", 2, 2.5, 2.0, False, 0.0).detected


def test_decision_tolerances_must_be_finite_and_nonnegative():
    """A negative tol would turn the separable 3x3 isotropic state at
    p = 0.1 (realignment value 0.6) into a detection, and |00> into Schmidt
    rank > 1; every criterion rejects such a tol first."""
    sep = generate(EnsembleSpec("isotropic", 3, 3, p=0.1))
    assert abs(realignment_value(sep, 1) - 0.6) < 1e-12
    product = pure_state(np.eye(1, 4, dtype=complex)[0], 2, 2)
    for tol in (-0.5, -1e-300, np.inf, -np.inf, np.nan):
        for criterion in (detect_schmidt_number, weak_realignment, cross_norm_test):
            with pytest.raises(ParameterError):
                criterion(sep, 1, tol=tol)
        with pytest.raises(ParameterError):
            pure_state_sr_test(product, 1, tol=tol)
    # tol = 0 stays legal.
    assert not detect_schmidt_number(sep, 1, tol=0.0).detected
    assert not cross_norm_test(sep, 1, tol=0.0).detected
    assert pure_state_sr_test(product, 1, tol=0.0) == "sr_at_most_k"
