"""Each benchmark checker accepts a sound result and rejects an unsound one.

    python3 -m pytest -q bench/test_checks.py

The results here are made up with numpy; entnorms is not imported.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import checks
from run import _without_wall_time
from workloads import Bracket, CliCommand, _flip, _phi_plus, _witness_w, cli_check

RNG = np.random.default_rng(7)


def _density(m, n, rank=None):
    g = RNG.standard_normal((m * n, rank or m * n)) + 1j * RNG.standard_normal((m * n, rank or m * n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _isotropic(d, p):
    phi = _phi_plus(d)
    return p * np.outer(phi, phi) + (1 - p) * np.eye(d * d) / d**2


def _unit(v):
    return v / np.linalg.norm(v)


def rejects(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


def test_sk_bracket():
    rho = _density(3, 3)
    opn = checks.op_norm(rho)
    checks.sk_bracket(Bracket(0.9 * opn, opn, False), rho, 1, 3, 3)
    rejects(checks.sk_bracket, Bracket(0.5 * opn, 0.9 * opn, False), rho, 1, 3, 3)
    rejects(checks.sk_bracket, Bracket(opn, 0.9 * opn, False), rho, 1, 3, 3)
    v = _unit(RNG.standard_normal(9) + 0j)
    s = checks.schmidt_coeffs(v, 3, 3)
    proj = np.outer(v, v.conj())
    checks.sk_bracket(Bracket(s[0] ** 2, s[0] ** 2, True), proj, 1, 3, 3, v)
    rejects(checks.sk_bracket, Bracket(0.5 * s[0] ** 2, 0.9 * s[0] ** 2, False), proj, 1, 3, 3, v)


def test_gamma_bracket():
    rho = _density(3, 3)
    checks.gamma_bracket(Bracket(1.0, 1.4, False), rho, 1, 3, 3)
    rejects(checks.gamma_bracket, Bracket(0.6, 0.9, False), rho, 1, 3, 3)  # upper below the trace norm
    v = _unit(RNG.standard_normal(9) + 1j * RNG.standard_normal(9))
    proj = np.outer(v, v.conj())
    g1 = float(np.sum(checks.schmidt_coeffs(v, 3, 3))) ** 2
    checks.gamma_bracket(Bracket(g1, g1, True), proj, 1, 3, 3, v)
    rejects(checks.gamma_bracket, Bracket(1.0, 0.99 * g1, False), proj, 1, 3, 3, v)
    g2 = checks.k_support_norm(checks.schmidt_coeffs(v, 3, 3), 2) ** 2
    checks.gamma_bracket(Bracket(g2, g2, True), proj, 2, 3, 3, v)
    rejects(checks.gamma_bracket, Bracket(g1, g1, True), proj, 2, 3, 3, v)


def test_k_support_norm_is_the_dual_of_the_top_k_l2_norm():
    for _ in range(50):
        s = np.sort(RNG.random(6))[::-1]
        assert np.isclose(checks.k_support_norm(s, 1), s.sum())
        assert np.isclose(checks.k_support_norm(s, 6), np.linalg.norm(s))
        for k in range(1, 7):
            value = checks.k_support_norm(s, k)
            for _ in range(20):
                y = RNG.standard_normal(6)
                top = np.sqrt(np.sum(np.sort(np.abs(y))[::-1][:k] ** 2))
                assert abs(s @ y) <= value * top * (1 + 1e-12)


def test_robustness_bracket():
    rho = _isotropic(3, 0.1)
    checks.robustness_bracket(Bracket(1.0, 1.3, False), rho, True)
    rejects(checks.robustness_bracket, Bracket(1.2, 1.3, False), rho, True)
    rejects(checks.robustness_bracket, Bracket(0.8, 1.3, False), rho, None)


def test_verdicts_against_the_isotropic_threshold():
    assert checks.isotropic_sn_at_most(0.2, 3, 1)
    assert not checks.isotropic_sn_at_most(0.3, 3, 1)
    assert checks.isotropic_sn_at_most(0.6, 3, 2) and not checks.isotropic_sn_at_most(0.7, 3, 2)
    checks.verdict("undecided", False, "sn")
    rejects(checks.verdict, "at_most_k", checks.isotropic_sn_at_most(0.6, 3, 1), "sn")
    rejects(checks.verdict, "exceeds_k", checks.isotropic_sn_at_most(0.2, 3, 1), "sn")
    rejects(checks.verdict, "maybe", None, "sn")


def _product_decomposition(rho, m, n):
    """An explicit separable decomposition of a product-basis-diagonal state."""
    lefts = np.eye(m * n, dtype=complex)
    return np.real(np.diag(rho)), lefts, lefts


def test_sn_certification():
    m = n = 2
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    c, le, ri = _product_decomposition(rho, m, n)
    good = SimpleNamespace(verdict="at_most_k", gamma=Bracket(1.0, 1.0, True),
                           decomposition=SimpleNamespace(coefficients=c, lefts=le, rights=ri))
    checks.sn_certification(good, rho, 1, m, n, True)
    heavy = SimpleNamespace(verdict="at_most_k", gamma=Bracket(1.0, 1.0, True),
                            decomposition=SimpleNamespace(coefficients=1.5 * c, lefts=le, rights=ri))
    rejects(checks.sn_certification, heavy, rho, 1, m, n, True)
    bell = _phi_plus(2).astype(complex)
    entangled = SimpleNamespace(verdict="at_most_k", gamma=Bracket(1.0, 1.0, True),
                                decomposition=SimpleNamespace(coefficients=np.array([1.0]),
                                                              lefts=bell[None], rights=bell[None]))
    rejects(checks.sn_certification, entangled, np.outer(bell, bell).astype(complex), 1, m, n, None)
    loose = SimpleNamespace(verdict="exceeds_k", gamma=Bracket(1.0, 1.2, False), decomposition=None)
    rejects(checks.sn_certification, loose, rho, 1, m, n, None)


def test_detection():
    rho = _isotropic(3, 0.6)
    ref = checks.trace_norm(checks.realign_by_index(rho, 3, 3))
    ok = SimpleNamespace(value=ref, threshold=1.0, tol=1e-9, detected=ref > 1 + 1e-9, filtered=False)
    checks.detection(ok, rho, 1, 3, 3, False)
    off = SimpleNamespace(value=ref * 1.01, threshold=1.0, tol=1e-9, detected=True, filtered=False)
    rejects(checks.detection, off, rho, 1, 3, 3, False)
    low = SimpleNamespace(value=ref * 0.9, threshold=1.0, tol=1e-9, detected=True, filtered=True)
    rejects(checks.detection, low, rho, 1, 3, 3, False)
    sep = _isotropic(3, 0.1)
    wrong = SimpleNamespace(value=1.5, threshold=1.0, tol=1e-9, detected=True, filtered=True)
    rejects(checks.detection, wrong, sep, 1, 3, 3, True)


def test_realign_by_index_matches_the_product_rule():
    # L(A x B) = vec(A) vec(B)^T for the row-major composite index.
    a = RNG.standard_normal((2, 2))
    b = RNG.standard_normal((3, 3))
    np.testing.assert_allclose(checks.realign_by_index(np.kron(a, b), 2, 3),
                               np.outer(a.reshape(-1), b.reshape(-1)))


def test_block_positivity():
    w1 = _witness_w(3, 1)
    c = float(np.linalg.eigvalsh(w1)[-1])
    ok = SimpleNamespace(verdict="certified_positive", c=c, interval=Bracket(0.0, c, False))
    checks.block_positivity(ok, w1, True)
    rejects(checks.block_positivity, SimpleNamespace(verdict="certified_negative", c=c,
                                                     interval=Bracket(0.0, c, False)), w1, True)
    rejects(checks.block_positivity, ok, w1, False)
    rejects(checks.block_positivity, SimpleNamespace(verdict="undecided", c=c + 0.5,
                                                     interval=Bracket(0.0, c, False)), w1, None)


def test_radius_bracket_and_overlap():
    flip = _flip(2)
    checks.radius_bracket(Bracket(1.0, 1.0, True), flip, "radius", 1.0)
    rejects(checks.radius_bracket, Bracket(0.2, 0.9, False), flip, "radius", None)  # below max |y_ii|
    rejects(checks.radius_bracket, Bracket(0.2, 1.5, False), flip, "radius", None)  # above |y|_op
    w2 = _witness_w(3, 2)
    rejects(checks.radius_bracket, Bracket(2.5, 3.0, False), w2, "radius", 2.0)
    checks.overlap(Bracket(0.5, 1.0, False), Bracket(0.9, 1.0, False), "overlap")
    rejects(checks.overlap, Bracket(0.5, 0.8, False), Bracket(0.9, 1.0, False), "overlap")


def test_oracle():
    m = n = 2
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    c, le, ri = _product_decomposition(rho, m, n)
    checks.oracle(1.0, SimpleNamespace(coefficients=c, lefts=le, rights=ri), rho, 1, m, n)
    rejects(checks.oracle, 0.9, SimpleNamespace(coefficients=c, lefts=le, rights=ri), rho, 1, m, n)
    half = SimpleNamespace(coefficients=c / 2, lefts=le, rights=ri)  # residual penalty is 2 * 0.5
    rejects(checks.oracle, 1.2, half, rho, 1, m, n)
    rejects(checks.oracle, 1.0, SimpleNamespace(coefficients=c, lefts=2 * le, rights=ri), rho, 1, m, n)


def test_cli_reports():
    report = ('{\n  "command": "oracle",\n  "inputs": "ab",\n  "k": 1,\n  "result": {"upper": 1.0, '
              '"terms": 4, "weight": 1.0, "residual": 0.0},\n  "tolerances": {},\n  "seed": 0,\n'
              '  "wall_time_ms": 3.1,\n  "warnings": []\n}\n')
    cmd = CliCommand(["oracle"], lambda rep: None)
    cli_check(cmd, 0, report)
    rejects(cli_check, cmd, 1, report)
    rejects(cli_check, cmd, 0, report.replace('"warnings": []', '"notes": []'))
    rejects(cli_check, cmd, 0, report.replace('"residual": 0.0', '"resid": 0.0'))
    assert _without_wall_time(report) == _without_wall_time(report.replace("3.1", "4.7"))
    assert _without_wall_time(report) != _without_wall_time(report.replace('"terms": 4', '"terms": 5'))
