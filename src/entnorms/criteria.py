"""Schmidt-number detection criteria built on the realignment map.

The workhorse inequality: a density matrix with Schmidt number at most k
satisfies k2_dual(L(rho), k^2) <= 1, where L is the entry reshuffle from
linalg.realign.  Values above 1 therefore certify SN > k.  A weaker trace
variant bounds the trace norm of L(rho) by k, and on pure-state projectors
the dual value equals 1 exactly when the Schmidt rank is at most k, giving
a sharp rank test.  Local filtering (alternating marginal whitening) can
only help: it preserves Schmidt number, so the criterion applied after
filtering is sound as well, and on pure states it provably flattens the
Schmidt spectrum to the maximally entangled state on the support.

The filter is the normal-form iteration of Verstraete, Dehaene and De Moor
(PRA 68, 012103, 2003); its details (pseudo-inverse square roots on
supports, trace renormalization, tolerance, iteration cap) are chosen here,
and only the filter-then-detect composition is part of the criterion.  Its
iterates stay plain arrays: only the entry points validate and wrap.  A
density keeps its k-independent filter result, so no k reruns the rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kyfan
from .dualnorms import _require_density, gamma_bounds
from .errors import EntnormsError, NumericalError, ParameterError, PreconditionError
from .kyfan import _check_k
from .linalg import BipartiteOperator, _read_only, bipartite, eig_hermitian
from .schmidt import PureState

DETECTION_TOL = 1e-9
FILTER_TOL = 1e-9
FILTER_MAX_ITER = 200
SUPPORT_CUTOFF_RTOL = 1e-12


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of one detection criterion on one input.

    detected is always value > threshold + tol; for gen_realign and
    weak_realign on density matrices a detection certifies SN > k.
    filtered marks reports whose value came from the filtered state.
    """

    criterion: str
    k: int
    value: float
    threshold: float
    detected: bool
    filtered: bool
    tol: float

    def __post_init__(self):
        if self.detected != (self.value > self.threshold + self.tol):
            raise ParameterError("detected flag inconsistent with value and threshold")


def realignment_value(rho: BipartiteOperator, k: int) -> float:
    """The dual (k^2, 2)-norm of the realigned operator.

    At most 1 for density matrices of Schmidt number <= k; on pure-state
    projectors it exceeds 1 exactly when the Schmidt rank exceeds k.
    """
    m, n = rho.dims
    _check_k(m, n, k)
    return float(kyfan._dual_rows(rho.realigned_svd[1], k * k)[2])


def detect_schmidt_number(
    rho: BipartiteOperator,
    k: int,
    use_filter: bool = False,
    tol: float = DETECTION_TOL,
) -> DetectionReport:
    """Realignment criterion against threshold 1, optionally after a local
    filter.

    Both the raw and the filtered value are sound, so the report carries
    the larger; filtered records whether the filtered path supplied it.  The
    filter runs with FILTER_TOL and FILTER_MAX_ITER; one that fails leaves
    the raw value, and one that stops unconverged still supplies its last
    iterate's value, as every iterate is a local operation on rho.
    """
    _require_density(rho, "detect_schmidt_number")
    value = realignment_value(rho, k)
    filtered = False
    if use_filter:
        try:
            fr = local_filter(rho)
            fval = realignment_value(fr.rho, k)
        except EntnormsError:
            fval = None
        if fval is not None and fval > value:
            value = fval
            filtered = True
    return DetectionReport(
        criterion="gen_realign",
        k=k,
        value=value,
        threshold=1.0,
        detected=value > 1.0 + tol,
        filtered=filtered,
        tol=tol,
    )


def weak_realignment(rho: BipartiteOperator, k: int, tol: float = DETECTION_TOL) -> DetectionReport:
    """Trace-norm realignment criterion against threshold k.

    Weaker than detect_schmidt_number: the trace norm of L(rho) is at most
    k times the dual (k^2,2) value, so every weak detection is also a
    detection of the generalized criterion.
    """
    _require_density(rho, "weak_realignment")
    m, n = rho.dims
    _check_k(m, n, k)
    value = float(np.sum(rho.realigned_svd[1]))
    return DetectionReport(
        criterion="weak_realign",
        k=k,
        value=value,
        threshold=float(k),
        detected=value > float(k) + tol,
        filtered=False,
        tol=tol,
    )


def cross_norm_test(rho: BipartiteOperator, k: int, tol: float = DETECTION_TOL) -> DetectionReport:
    """Certified gamma_k lower bound against threshold 1.

    Density matrices of Schmidt number <= k have gamma_k exactly 1, so any
    certified lower bound above 1 detects SN > k.  Subsumes the realignment
    value (it is one of the gamma lower bounds) at the cost of rho's svd and
    eigendecomposition, each computed once and kept on rho; no search is
    involved.
    """
    _require_density(rho, "cross_norm_test")
    gb = gamma_bounds(rho, k)
    return DetectionReport(
        criterion="cross_norm",
        k=k,
        value=gb.lower,
        threshold=1.0,
        detected=gb.lower > 1.0 + tol,
        filtered=False,
        tol=tol,
    )


def pure_state_sr_test(v: PureState, k: int, tol: float = DETECTION_TOL) -> str:
    """Sharp Schmidt-rank test for unit vectors: "sr_at_most_k" when the
    realignment value of |v><v| stays within 1 + tol, else "sr_exceeds_k".

    Agrees with schmidt_rank on every input: the value is 1 exactly at
    SR <= k and strictly larger otherwise.
    """
    m, n = v.dims
    _check_k(m, n, k)
    nrm = v.norm()
    if abs(nrm - 1.0) > 1e-9:
        raise PreconditionError(f"pure_state_sr_test needs a unit vector, norm is {nrm}")
    proj = np.outer(v.amplitudes, v.amplitudes.conj())
    value = realignment_value(bipartite(proj, m, n, symmetrize=True), k)
    return "sr_at_most_k" if value <= 1.0 + tol else "sr_exceeds_k"


@dataclass(frozen=True)
class FilterResult:
    """Filtered state with the accumulated local maps.

    rho equals (f_a tensor f_b) rho_in (f_a tensor f_b)^dag up to trace
    normalization; f_a and f_b are read-only, as the result is kept with
    rho_in.  iterations counts completed whitening rounds; converged
    reports whether both marginals ended within tolerance of maximally
    mixed on their supports.
    """

    rho: BipartiteOperator
    f_a: np.ndarray
    f_b: np.ndarray
    converged: bool
    iterations: int


def _support_spectrum(marginal: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    lam, vecs = eig_hermitian(marginal)
    cutoff = SUPPORT_CUTOFF_RTOL * max(float(lam[0]), 0.0)
    rank = int(np.sum(lam > cutoff))
    if rank == 0:
        raise NumericalError("marginal has collapsed to zero during filtering")
    return lam, vecs, rank


def _flatness(spectrum: tuple[np.ndarray, np.ndarray, int]) -> float:
    """Frobenius distance from the maximally mixed state on the support."""
    lam, _, rank = spectrum
    target = np.zeros_like(lam)
    target[:rank] = 1.0 / rank
    return float(np.linalg.norm(lam - target))


def _pinv_sqrt(spectrum: tuple[np.ndarray, np.ndarray, int]) -> np.ndarray:
    lam, vecs, rank = spectrum
    inv = np.zeros_like(lam)
    inv[:rank] = 1.0 / np.sqrt(lam[:rank])
    return (vecs * inv) @ vecs.conj().T


def local_filter(rho: BipartiteOperator, max_iter: int = FILTER_MAX_ITER) -> FilterResult:
    """Alternating marginal whitening toward the filter normal form.

    Each round applies the pseudo-inverse square root of one marginal on
    its support (a local, invertible-on-support map, so the Schmidt number
    cannot increase), renormalizes the trace, and alternates sides.  Stops
    when both marginals are within FILTER_TOL (Frobenius) of maximally mixed on
    their supports, or after max_iter rounds with converged=False.  On a
    pure state one round flattens the Schmidt coefficients exactly.  The
    iterates are plain arrays (marginals read their (m, n, m, n) view); only
    the returned state is wrapped as a BipartiteOperator.  The result is kept
    with rho per max_iter and later calls return the same object; a filter
    that raises is not kept.  At 8x8 a kept result holds about 0.2 MiB, with
    the filtered state's realignment svd.
    """
    _require_density(rho, "local_filter")
    if max_iter < 0:
        raise ParameterError(f"max_iter must be >= 0, got {max_iter}")
    return rho._keep(("filter", max_iter), lambda: _filter(rho, max_iter))


def _filter(rho: BipartiteOperator, max_iter: int) -> FilterResult:
    m, n = rho.dims
    work = (rho.mat + rho.mat.conj().T) / 2.0
    f_a = np.eye(m, dtype=np.complex128)
    f_b = np.eye(n, dtype=np.complex128)

    for iterations in range(max_iter + 1):
        t = work.reshape(m, n, m, n)
        spec_a = _support_spectrum(np.einsum("ikjk->ij", t))
        flat_a = _flatness(spec_a) <= FILTER_TOL
        converged = flat_a and _flatness(_support_spectrum(np.einsum("ikil->kl", t))) <= FILTER_TOL
        if converged or iterations == max_iter:
            return FilterResult(bipartite(work, m, n), *_read_only((f_a, f_b)), converged, iterations)

        step_a = _pinv_sqrt(spec_a)
        work = _whiten(work, step_a, "A")
        f_a = step_a @ f_a

        step_b = _pinv_sqrt(_support_spectrum(np.einsum("ikil->kl", work.reshape(m, n, m, n))))
        work = _whiten(work, step_b, "B")
        f_b = step_b @ f_b

    raise AssertionError("unreachable")


def _whiten(work: np.ndarray, step: np.ndarray, side: str) -> np.ndarray:
    """Renormalized (S (x) I) work (S (x) I)^dag for side "A", with I (x) S
    for "B": two matmuls over reshaped views, the second of which yields
    the adjoint, whose hermitian part is the same."""
    d = work.shape[0]
    shape = (len(step), -1) if side == "A" else (-1, len(step), d)
    once = (step @ work.reshape(shape)).reshape(d, d).conj().T
    return _renormalize((step @ once.reshape(shape)).reshape(d, d))


def _renormalize(work: np.ndarray) -> np.ndarray:
    work = (work + work.conj().T) / 2.0
    tr = float(np.real(np.trace(work)))
    if tr <= 0.0:
        raise NumericalError("filter drove the trace nonpositive")
    return work / tr
