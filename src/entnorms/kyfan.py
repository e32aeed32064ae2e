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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError
from .linalg import _as_complex_matrix, svd

# Singular values this far below the largest are treated as exact zeros
# before the break-index predicate is evaluated.
CLAMP_RTOL = 1e-14
# Near-ties in the strict predicate fall to the smaller r; the dual value is
# continuous across the tie, so only the reported index is affected.
TIE_GUARD = 1e-12


@dataclass(frozen=True)
class BreakIndexResult:
    """Break index r and the averaged tail value t for a given profile."""

    r: int
    sigma_tilde: float


def _clean_profile(sigma, k: int) -> np.ndarray:
    arr = np.asarray(sigma, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DegenerateInputError("singular value profile must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("singular value profile contains NaN or Inf")
    if np.any(arr < -TIE_GUARD):
        raise ParameterError("singular values must be nonnegative")
    if np.any(arr[1:] - arr[:-1] > 1e-9 * max(1.0, float(arr[0]))):
        raise ParameterError("singular values must be sorted in descending order")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k!r}")
    arr = np.clip(arr, 0.0, None)
    if arr[0] > 0.0:
        arr[arr < CLAMP_RTOL * arr[0]] = 0.0
    return arr


def break_index(sigma, k: int) -> BreakIndexResult:
    """Locate the break index of a descending nonnegative profile.

    Indices beyond the end of the profile count as zeros, so k may exceed
    len(sigma).  The returned sigma_tilde is the tail sum past r divided by
    k - r; for r >= 1 the defining strict inequality holds at r and fails
    for every larger candidate.
    """
    arr = _clean_profile(sigma, k)
    guard = TIE_GUARD * max(1.0, float(arr[0]))
    total = float(np.sum(arr))

    def tail(r: int) -> float:
        return total - float(np.sum(arr[:r])) if r < arr.size else 0.0

    r = 0
    for cand in range(k - 1, 0, -1):
        s_cand = float(arr[cand - 1]) if cand <= arr.size else 0.0
        if s_cand > tail(cand) / (k - cand) + guard:
            r = cand
            break
    return BreakIndexResult(r=r, sigma_tilde=tail(r) / (k - r))


def k2_dual_from_singular_values(sigma, k: int) -> float:
    """Dual norm value from a descending singular value profile."""
    arr = _clean_profile(sigma, k)
    bi = break_index(arr, k)
    head = float(np.sum(arr[: bi.r] ** 2))
    return math.sqrt(head + (k - bi.r) * bi.sigma_tilde**2)


def _check_k(dim_a: int, dim_b: int, k: int) -> None:
    """The Schmidt-rank parameter of an m x n split: an integer in [1, min(m, n)]."""
    kmax = min(dim_a, dim_b)
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= kmax:
        raise ParameterError(f"k must satisfy 1 <= k <= {kmax}, got {k!r}")


def _checked_svd(mat, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    arr = _as_complex_matrix(mat)
    _check_k(*arr.shape, k)
    return svd(arr)


def k2_norm(mat, k: int) -> float:
    """l2 norm of the k largest singular values."""
    s = _checked_svd(mat, k)[1]
    return float(np.sqrt(np.sum(s[:k] ** 2)))


def k2_dual(mat, k: int) -> float:
    """Dual of the (k,2) norm, via the break-index closed form."""
    s = _checked_svd(mat, k)[1]
    return k2_dual_from_singular_values(s, k)


def k2_dual_attainer(mat, k: int) -> tuple[np.ndarray, float]:
    """A unit-(k,2)-norm Y with Re tr(Y^dag mat) = k2_dual(mat, k), and that
    value: mat's singular frames with the profile past the break index
    flattened to sigma_tilde, divided by the dual value."""
    u, s, vh = _checked_svd(mat, k)
    value = k2_dual_from_singular_values(s, k)
    if value <= 0.0:
        raise DegenerateInputError("the zero matrix has no attaining dual matrix")
    bi = break_index(s, k)
    beta = s.copy()
    beta[bi.r :] = bi.sigma_tilde
    return (u * (beta / value)) @ vh, value
