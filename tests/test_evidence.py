"""Every endpoint of every bracket, recomputed from its evidence with numpy.

A lower endpoint carries its certificate: a unit Schmidt-rank-<=k pair
whose pairing |v^H x w| it is, or a duality witness W whose
|<W, x>| / sk_upper it is, with sk_upper rechecked here.  Every other
endpoint is a closed form of the operator that its tag names.  Each tag
has one recomputation in the tables below, and the walk fails on a tag
without one, so a new kind of endpoint brings its recomputation along.

The walk covers sk_bounds, prod_radius_bounds, prod_radius_bisect,
block_positivity_check, gamma_bounds, robustness_bounds and sn_certify
on fixed inputs.  Endpoints agree to REL relative to the value.  A radius
lower endpoint is a pairing with c I - sigma y less the shift c, so it
is held to REL relative to the operator norm of y instead.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from entnorms.dualnorms import (
    DEFAULT_CERTIFY_TOL,
    Witness,
    certified_upper_from_decomposition,
    gamma_bounds,
    robustness_bounds,
    sn_certify,
)
from entnorms.linalg import SINGULAR_ZERO_RTOL, bipartite
from entnorms.sknorm import (
    SeeSawResult,
    block_positivity_check,
    prod_radius_bisect,
    prod_radius_bounds,
    sk_bounds,
)
from entnorms.states import EnsembleSpec, generate, sn_bounded_ensemble
from oracles import k2_dual_loop_ref

REL = 1e-12


# ------------------------------------------------------------ numpy pieces

def _singular_values(a: np.ndarray) -> np.ndarray:
    return np.linalg.svd(a, compute_uv=False)


def _schmidt(vec: np.ndarray, m: int, n: int) -> np.ndarray:
    return _singular_values(vec.reshape(m, n))


def _dual(vec: np.ndarray, m: int, n: int, k: int) -> float:
    """The dual Schmidt value of vec: the (k,2)-dual of its coefficients."""
    return k2_dual_loop_ref(_schmidt(vec, m, n), k)[2]


def _sk_vector(vec: np.ndarray, m: int, n: int, k: int) -> float:
    """Root of the sum of vec's k leading squared Schmidt coefficients."""
    return float(np.linalg.norm(_schmidt(vec, m, n)[:k]))


def _require_unit_sr(vec: np.ndarray, m: int, n: int, k: int, where: str) -> None:
    assert abs(np.linalg.norm(vec) - 1.0) <= REL, f"{where}: certificate vector is not unit"
    s = _schmidt(vec, m, n)
    assert s.size <= k or s[k] <= REL * s[0], f"{where}: certificate vector has Schmidt rank > {k}"


def _realign(x: np.ndarray, m: int, n: int) -> np.ndarray:
    return x.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)


def _pair_value(x: np.ndarray, m: int, n: int, k: int, pair: SeeSawResult, where: str) -> float:
    v, w = pair.v.amplitudes, pair.w.amplitudes
    _require_unit_sr(v, m, n, k, where)
    _require_unit_sr(w, m, n, k, where)
    return float(abs(np.vdot(v, x @ w)))


# ------------------------------------------------ witnesses: |W|_S(k) bound

def _unit_sk_bound(check):
    """A witness recomputation that proves |W|_S(k) <= 1 by check(w, m, n, k)."""

    def bound(w, m, n, k):
        assert check(w, m, n, k) <= 1.0 + REL, "witness S(k) norm bound exceeds 1"
        return 1.0

    return bound


def _ketbra_sk_norm(w, m, n, k):
    u, s, vh = np.linalg.svd(w)
    assert s[1] <= REL * s[0], "dual_ketbra witness is not rank one"
    return s[0] * _sk_vector(u[:, 0], m, n, k) * _sk_vector(vh[0].conj(), m, n, k)


def _eigenprojector_sk_norm(w, m, n, k):
    lam, vecs = np.linalg.eigh(w)
    c = vecs[:, -1]
    assert np.allclose(w, np.outer(c, c.conj()), rtol=0.0, atol=REL), "not a unit projector"
    return _sk_vector(c, m, n, k) ** 2


WITNESS_SK_BOUND = {
    # operator norm 1 bounds every S(k) norm
    "sign_unitary": _unit_sk_bound(lambda w, m, n, k: _singular_values(w)[0]),
    # the S(k) norm of s |a><b| is s |a|_(k) |b|_(k)
    "dual_ketbra": _unit_sk_bound(_ketbra_sk_norm),
    # a unit-(k^2,2)-norm L(W) has S(k) norm at most 1 (dualnorms docstring)
    "realigned_dual": _unit_sk_bound(
        lambda w, m, n, k: np.linalg.norm(_singular_values(_realign(w, m, n))[: k * k])
    ),
    # the exact S(k) norm of |c><c|: c's k leading squared Schmidt coefficients
    "eigenprojector": _eigenprojector_sk_norm,
}


def _witness_value(x: np.ndarray, m: int, n: int, k: int, wit: Witness, where: str) -> float:
    assert isinstance(wit, Witness), f"{where}: expected a Witness, got {wit!r}"
    if wit.method not in WITNESS_SK_BOUND:
        pytest.fail(f"{where}: no recomputation for witness method {wit.method!r}")
    SEEN.add(("witness", wit.method))
    sk_upper = WITNESS_SK_BOUND[wit.method](wit.w.mat, m, n, k)
    assert abs(sk_upper - wit.sk_upper) <= REL * sk_upper, (
        f"{where}: sk_upper {wit.sk_upper} != {sk_upper}"
    )
    return float(abs(np.vdot(wit.w.mat, x))) / sk_upper


# ------------------------------------------------------------ tag tables
# Each entry maps (x, m, n, k, certificate, where) to the endpoint.

def _pair(x, m, n, k, cert, where):
    assert isinstance(cert, SeeSawResult), f"{where}: expected a pair, got {cert!r}"
    return _pair_value(x, m, n, k, cert, where)


def _zero(x, m, n, k, cert, where):
    assert not x.any(), f"{where}: zero_operator tag on a nonzero operator"
    return 0.0


def _s1(x, m, n, k, cert, where):
    return float(_singular_values(x)[0])


def _rank_one_sk(x, m, n, k, cert, where):
    u, s, vh = np.linalg.svd(x)
    assert s[1] <= SINGULAR_ZERO_RTOL * s[0], f"{where}: rank_one_exact on a rank > 1 operator"
    return s[0] * _sk_vector(u[:, 0], m, n, k) * _sk_vector(vh[0].conj(), m, n, k)


def _trace_norm(x, m, n, k, cert, where):
    return float(np.sum(_singular_values(x)))


def _rank_one_gamma(x, m, n, k, cert, where):
    u, s, vh = np.linalg.svd(x)
    assert s[1] <= SINGULAR_ZERO_RTOL * s[0], f"{where}: rank_one_exact on a rank > 1 operator"
    return s[0] * _dual(u[:, 0], m, n, k) * _dual(vh[0], m, n, k)


def _svd_mixture(x, m, n, k, cert, where):
    # np.linalg.svd of the same matrix: on a degenerate spectrum the
    # weight depends on which singular basis is split.
    u, s, vh = np.linalg.svd(x)
    live = np.flatnonzero(s > SINGULAR_ZERO_RTOL * s[0])
    return float(sum(s[i] * _dual(u[:, i], m, n, k) * _dual(vh[i], m, n, k) for i in live))


def _pure_split_k1(x, m, n, k, cert, where):
    lam, vecs = np.linalg.eigh(x)
    live = np.flatnonzero(np.abs(lam) > SINGULAR_ZERO_RTOL * np.max(np.abs(lam)))
    # R_1(|u><u|) = 2 gamma_1(u) - 1, gamma_1(u) the squared sum of u's Schmidt coefficients
    duals = [np.sum(_schmidt(vecs[:, i], m, n)) for i in live]
    return float(sum(abs(lam[i]) * (2.0 * d**2 - 1.0) for i, d in zip(live, duals)))


def _no_certificate(closed_form):
    def endpoint(x, m, n, k, cert, where):
        assert cert is None, f"{where}: closed-form endpoint carries {cert!r}"
        return closed_form(x)

    return endpoint


PAIR_TAGS = ("seesaw", "operator_norm_exact", "rank_one_exact", "zero_operator")
SK_LOWER = {**dict.fromkeys(PAIR_TAGS, _pair), "trivial": _no_certificate(lambda x: 0.0)}
SK_UPPER = {
    "operator_norm": _s1,
    "operator_norm_exact": _s1,
    "rank_one_exact": _rank_one_sk,
    "zero_operator": _zero,
}
# Radius lowers: a pair certifies |<v|y|v>| directly, the product basis
# vectors certify the largest |y_ii|.
RADIUS_LOWER = {
    **dict.fromkeys(PAIR_TAGS, _pair),
    "product_basis": _no_certificate(lambda y: float(np.max(np.abs(np.diag(y).real)))),
}
GAMMA_LOWER = {
    "sign_unitary": _witness_value,
    "realigned_dual": _witness_value,
    "eigenprojector": _witness_value,
    "trace_norm_exact": _witness_value,
    "rank_one_exact": _witness_value,
    "zero_operator": _no_certificate(lambda x: 0.0),
}
GAMMA_UPPER = {
    "svd_mixture": _svd_mixture,
    "trace_norm_exact": _trace_norm,
    "rank_one_exact": _rank_one_gamma,
    "zero_operator": _zero,
}


def _gamma_exact(x, m, n, k, cert, where):
    # R_min is gamma_min: the trace norm's witness, or 0 without one.
    return _zero(x, m, n, k, cert, where) if cert is None else _witness_value(x, m, n, k, cert, where)


ROBUSTNESS_LOWER = {
    "gamma_exact": _gamma_exact,
    **{f"gamma_{tag}": fn for tag, fn in GAMMA_LOWER.items() if tag != "trace_norm_exact"},
}
ROBUSTNESS_UPPER = {"sign_split": _trace_norm, "pure_split_k1": _pure_split_k1}

TABLES = {
    "sk_lower": SK_LOWER,
    "sk_upper": SK_UPPER,
    "radius_lower": RADIUS_LOWER,
    "radius_upper": SK_UPPER,
    "gamma_lower": GAMMA_LOWER,
    "gamma_upper": GAMMA_UPPER,
    "robustness_lower": ROBUSTNESS_LOWER,
    "robustness_upper": ROBUSTNESS_UPPER,
}
SEEN: set = set()


def _recompute(table: str, tag: str, x, m, n, k, cert, where: str) -> float:
    if tag not in TABLES[table]:
        pytest.fail(f"{where}: no recomputation for {table} tag {tag!r}")
    SEEN.add((table, tag))
    return TABLES[table][tag](x, m, n, k, cert, where)


def _close(got: float, want: float, scale: float, where: str) -> None:
    assert abs(got - want) <= REL * scale, f"{where}: endpoint {got!r}, recomputed {want!r}"


# ------------------------------------------------------------ brackets

def _check_bracket(family, iv, x, m, n, k, where):
    """An S(k), gamma or robustness bracket: both endpoints by their tags."""
    lo = _recompute(f"{family}_lower", iv.lower_method, x, m, n, k, iv.certificate, where + " lower")
    hi = _recompute(f"{family}_upper", iv.upper_method, x, m, n, k, None, where + " upper")
    _close(iv.lower, lo, abs(lo), where + " lower")
    _close(iv.upper, hi, abs(hi), where + " upper")


def _check_radius(iv, y, m, n, k, where):
    opn = float(_singular_values(y)[0])
    lo = _recompute("radius_lower", iv.lower_method, y, m, n, k, iv.certificate, where + " lower")
    _close(iv.lower, lo, opn, where + " lower")
    # The upper endpoint is the closed form named by its tag on the shifted
    # operator c_s I - s y of one sign s, less c_s, capped at |y|.
    candidates = []
    for s in (1.0, -1.0):
        c = float(np.linalg.eigvalsh(s * y)[-1])
        shifted = c * np.eye(m * n) - s * y
        try:
            hi = _recompute("radius_upper", iv.upper_method, shifted, m, n, k, None, where)
        except AssertionError:  # the tag's closed form does not apply to this sign
            continue
        candidates.append(min(hi - c, opn))
    assert any(abs(iv.upper - hi) <= REL * opn for hi in candidates), (
        f"{where} upper: {iv.upper!r} is none of {candidates}"
    )


def _check_blockpos(res, y, m, n, k, where):
    opn = float(_singular_values(y)[0])
    _close(res.c, float(np.linalg.eigvalsh(y)[-1]), opn, where + " c")
    _check_bracket("sk", res.interval, res.c * np.eye(m * n) - y, m, n, k, where + " shifted")
    if res.verdict == "certified_negative":
        assert res.witness is res.interval.certificate
        pair = _pair_value(res.c * np.eye(m * n) - y, m, n, k, res.witness, where)
        assert pair > res.c, f"{where}: witness pairing {pair} does not exceed c = {res.c}"
    else:
        assert res.witness is None


def _check_certification(cert, rho, m, n, k, where):
    _check_bracket("gamma", cert.gamma, rho, m, n, k, where + " gamma")
    if cert.verdict == "exceeds_k":
        assert cert.witness is cert.gamma.certificate
        bound = _witness_value(rho, m, n, k, cert.witness, where)
        assert bound > 1.0 + DEFAULT_CERTIFY_TOL
        return
    assert cert.witness is None
    if cert.verdict == "undecided":
        assert cert.decomposition is None
        return
    # at_most_k: weight + ceil(min / k) |residual|_1, over unit SR <= k generators
    dec = cert.decomposition
    SEEN.add(("decomposition", "at_most_k"))
    for vec in np.concatenate([dec.lefts, dec.rights]):
        _require_unit_sr(vec, m, n, k, where + " generator")
    residual = rho - (dec.lefts.T * dec.coefficients) @ dec.rights.conj()
    value = float(np.sum(dec.coefficients)) + math.ceil(min(m, n) / k) * float(
        np.sum(_singular_values(residual))
    )
    _close(certified_upper_from_decomposition(bipartite(rho, m, n), dec), value, value, where)
    assert value <= 1.0 + DEFAULT_CERTIFY_TOL, f"{where}: decomposition certifies {value}"


# ------------------------------------------------------------ inputs

def _phi_plus_projector(d: int) -> np.ndarray:
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    return np.outer(phi, phi)


def _flip(d: int) -> np.ndarray:
    return np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)


def _inputs():
    """(name, operator, is a density) with fixed seeds."""
    rng = np.random.default_rng(20130409)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    haar = generate(EnsembleSpec("haar_pure", 3, 3, seed=11)).amplitudes
    return [
        ("ginibre 3x3", generate(EnsembleSpec("ginibre_density", 3, 3, seed=1)), True),
        ("ginibre 2x3, rank 2", generate(EnsembleSpec("ginibre_density", 2, 3, rank=2, seed=2)), True),
        ("isotropic 3x3 p=0.2", generate(EnsembleSpec("isotropic", 3, 3, p=0.2)), True),
        ("isotropic 3x3 p=0.65", generate(EnsembleSpec("isotropic", 3, 3, p=0.65)), True),
        ("isotropic 2x2 p=0.2", generate(EnsembleSpec("isotropic", 2, 2, p=0.2)), True),
        ("haar projector 3x3", bipartite(np.outer(haar, haar.conj()), 3, 3, symmetrize=True), True),
        ("W_1 3x3", bipartite(np.eye(9) - 3.0 * _phi_plus_projector(3), 3, 3), False),
        ("flip 2x2", bipartite(_flip(2), 2, 2), False),
        ("flip 3x3", bipartite(_flip(3), 3, 3), False),
        ("hermitian 2x3", bipartite((h + h.conj().T) / 2.0, 2, 3), False),
        ("non-hermitian 3x3", bipartite(g, 3, 3), False),
        ("zero 2x2", bipartite(np.zeros((4, 4)), 2, 2), False),
    ]


@lru_cache(maxsize=1)
def _walk() -> int:
    """Check every endpoint of every entry point on every input; returns
    the number of results checked."""
    checked = 0
    for name, op, density in _inputs():
        x, (m, n) = np.array(op.mat), op.dims
        for k in range(1, min(m, n) + 1):
            where = f"{name}, k={k}"
            _check_bracket("sk", sk_bounds(op, k), x, m, n, k, f"sk_bounds({where})")
            _check_bracket("gamma", gamma_bounds(op, k), x, m, n, k, f"gamma_bounds({where})")
            checked += 2
            if op.hermitian:
                _check_radius(prod_radius_bounds(op, k), x, m, n, k, f"prod_radius_bounds({where})")
                _check_radius(prod_radius_bisect(op, k), x, m, n, k, f"prod_radius_bisect({where})")
                _check_blockpos(block_positivity_check(op, k), x, m, n, k,
                                f"block_positivity_check({where})")
                _check_bracket("robustness", robustness_bounds(op, k), x, m, n, k,
                               f"robustness_bounds({where})")
                checked += 4
            if density:
                _check_certification(sn_certify(op, k), x, m, n, k, f"sn_certify({where})")
                checked += 1
    # A caller's candidate, which the chunk split could not have found.
    rho, dec = sn_bounded_ensemble(EnsembleSpec("sn_bounded_density", 3, 3, k=2, terms=5, seed=7))
    cert = sn_certify(rho, 2, candidate=dec)
    assert cert.verdict == "at_most_k" and cert.decomposition is dec
    _check_certification(cert, np.array(rho.mat), 3, 3, 2, "sn_certify(sn_bounded 3x3, candidate)")
    return checked + 1


def test_every_endpoint_is_recomputed_from_its_evidence():
    assert _walk() > 150


def test_the_walk_reaches_every_recomputation():
    _walk()
    tables = {(table, tag) for table, entries in TABLES.items() for tag in entries}
    tables |= {("witness", method) for method in WITNESS_SK_BOUND}
    tables.add(("decomposition", "at_most_k"))
    assert tables - SEEN == set()
    assert SEEN - tables == set()
