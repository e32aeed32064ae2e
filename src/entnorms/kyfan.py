"""The (k,2) norm family: l2 norm of the k largest singular values, and its dual.

For a matrix X with singular values s_1 >= s_2 >= ... the primal norm is

    |X|_(k,2) = sqrt(s_1^2 + ... + s_k^2).

Its dual has a closed form built around a break index r: the largest
1 <= r < k whose singular value strictly dominates the mean of the whole
remaining tail spread over the k - r slots left,

    s_r > (s_{r+1} + s_{r+2} + ...) / (k - r),

with r = 0 when no index qualifies (always for k = 1).  Writing
t = (sum of s_i for i > r) / (k - r), the dual value is

    sqrt(s_1^2 + ... + s_r^2 + (k - r) * t^2).

At k = 1 this reduces to the trace norm, at k = min(m, n) to the Frobenius
norm, and for rank(X) <= k it equals the Frobenius norm as well.

k2_dual also takes a stack (..., m, n), one value per matrix.  _dual_rows and
_attainer_from_svd take profiles or factors: the gamma side passes the Schmidt
and realignment svds a BipartiteOperator computes on first read and keeps for
every k (about 0.5 MiB at 8x8; a one-shot process still pays each once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError
from .linalg import SINGULAR_ZERO_RTOL, _as_complex_matrix, svd

# Near-ties within this fraction of the largest singular value fall to the
# smaller r; the dual value is continuous across them, so only r is affected.
TIE_GUARD = 1e-12


@dataclass(frozen=True)
class BreakIndexResult:
    """Break index r and the averaged tail value t for a given profile."""

    r: int
    sigma_tilde: float


def _checked_profile(sigma, k: int) -> np.ndarray:
    arr = np.asarray(sigma, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DegenerateInputError("singular value profile must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("singular value profile contains NaN or Inf")
    scale = float(np.max(np.abs(arr)))
    if np.any(arr < -TIE_GUARD * scale):
        raise ParameterError("singular values must be nonnegative")
    if np.any(arr[1:] - arr[:-1] > 1e-9 * scale):
        raise ParameterError("singular values must be sorted in descending order")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k!r}")
    return arr


def _dual_rows(sigma: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, sigma_tilde, dual value), each of shape (...), of every row of a
    stack (..., p) of descending profiles.  Entries below SINGULAR_ZERO_RTOL
    times the row's first are zero; each row is scaled into [1/2, 1) by a
    power of two, so no square overflows, and summed as it would be alone."""
    clean = np.clip(sigma, 0.0, None).reshape(-1, sigma.shape[-1])
    clean[clean < SINGULAR_ZERO_RTOL * clean[:, :1]] = 0.0
    exp = np.frexp(clean[:, 0])[1]
    unit = np.ldexp(clean, -exp[:, None])
    total, p = np.sum(unit, axis=-1), unit.shape[1]
    r, tail, head = np.zeros(total.shape, dtype=np.intp), total.copy(), np.zeros_like(total)
    # The largest qualifying candidate wins; candidates past p never qualify.
    for cand in range(min(k - 1, p), 0, -1):
        rest = total - np.sum(unit[:, :cand], axis=-1) if cand < p else np.zeros_like(total)
        hit = (r == 0) & (unit[:, cand - 1] > rest / (k - cand) + TIE_GUARD * unit[:, 0])
        r[hit], tail[hit] = cand, rest[hit]
        head[hit] = np.sum(unit[hit, :cand] ** 2, axis=-1)
    sigma_tilde = tail / (k - r)
    # pow() squares sigma_tilde, as the one-profile formula did: x * x
    # differs in the last bit on about one input in a thousand.
    value = np.ldexp(np.sqrt(head + (k - r) * np.float_power(sigma_tilde, 2)), exp)
    return tuple(a.reshape(sigma.shape[:-1]) for a in (r, np.ldexp(sigma_tilde, exp), value))


def break_index(sigma, k: int) -> BreakIndexResult:
    """Locate the break index of a descending nonnegative profile.

    Order and sign are checked relative to the largest entry.  Indices past
    the end of the profile count as zeros, so k may exceed len(sigma).  The
    returned sigma_tilde is the tail sum past r divided by k - r; for r >= 1
    the defining strict inequality holds at r and fails for every larger one.
    """
    r, sigma_tilde, _ = _dual_rows(_checked_profile(sigma, k), k)
    return BreakIndexResult(r=int(r), sigma_tilde=float(sigma_tilde))


def k2_dual_from_singular_values(sigma, k: int) -> float:
    """Dual norm value from a descending singular value profile, checked first."""
    return float(_dual_rows(_checked_profile(sigma, k), k)[2])


def _check_k(dim_a: int, dim_b: int, k: int) -> None:
    """The Schmidt-rank parameter of an m x n split: an integer in [1, min(m, n)]."""
    kmax = min(dim_a, dim_b)
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= kmax:
        raise ParameterError(f"k must satisfy 1 <= k <= {kmax}, got {k!r}")


def _checked_svd(mat, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """svd of a matrix or a stack (..., m, n), with k checked against (m, n)."""
    arr = _as_complex_matrix(mat, stacked=True)
    _check_k(*arr.shape[-2:], k)
    return svd(arr)


def k2_norm(mat, k: int) -> float:
    """l2 norm of the k largest singular values, by hypot: homogeneous at any scale."""
    return math.hypot(*_checked_svd(_as_complex_matrix(mat), k)[1][:k])


def k2_dual(mat, k: int) -> float | np.ndarray:
    """Dual of the (k,2) norm, via the break-index closed form: a float for
    one matrix, an array of shape (...) for a stack (..., m, n)."""
    value = _dual_rows(_checked_svd(mat, k)[1], k)[2]
    return value if value.ndim else float(value)


def k2_dual_attainer(mat, k: int) -> tuple[np.ndarray, float]:
    """A unit-(k,2)-norm Y with Re tr(Y^dag mat) = k2_dual(mat, k), and that
    value: mat's singular frames with the profile past the break index
    flattened to sigma_tilde, divided by the dual value."""
    return _attainer_from_svd(*_checked_svd(_as_complex_matrix(mat), k), k)


def _attainer_from_svd(u: np.ndarray, s: np.ndarray, vh: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """k2_dual_attainer of the matrix u diag(s) vh, from its svd factors."""
    r, sigma_tilde, value = _dual_rows(s, k)
    if value <= 0.0:
        raise DegenerateInputError("the zero matrix has no attaining dual matrix")
    beta = np.where(np.arange(s.size) < r, s, sigma_tilde)
    return (u * (beta / value)) @ vh, float(value)
