"""Schmidt decompositions of bipartite vectors and the vector norms they induce.

A vector v in C^m (x) C^n matricizes to the m x n matrix V with
V[i, k] = v[i*n + k]; its singular values are the Schmidt coefficients and
its rank the Schmidt rank.  The s(k) norm of v is the largest overlap
|<u|v>| over unit vectors u of Schmidt rank at most k, which equals the
(k,2) norm of V; its dual is the (k,2) dual of V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kyfan
from .errors import DegenerateInputError, DimensionError, ParameterError
from .linalg import svd

NORMALIZATION_ATOL = 1e-10
DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class PureState:
    """Amplitudes of a bipartite vector with its split (dim_a, dim_b)."""

    amplitudes: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionError(f"subsystem dimensions must be >= 1, got ({self.dim_a}, {self.dim_b})")
        if self.amplitudes.shape != (self.dim_a * self.dim_b,):
            raise DimensionError(
                f"amplitude vector of length {self.amplitudes.shape} does not match dims "
                f"{self.dim_a}x{self.dim_b}"
            )

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_a, self.dim_b)

    def matrix(self) -> np.ndarray:
        """The m x n matricization of the amplitudes."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def pure_state(amplitudes, dim_a: int, dim_b: int, *, require_normalized: bool = True) -> PureState:
    """Build a PureState from raw amplitudes.

    By default the Euclidean norm must be 1 within 1e-10; pass
    require_normalized=False for unnormalized vectors (the norm operations
    are homogeneous and accept them).
    """
    arr = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise ParameterError("amplitudes contain NaN or Inf")
    if require_normalized and abs(np.linalg.norm(arr) - 1.0) > NORMALIZATION_ATOL:
        raise ParameterError(
            f"amplitudes are not normalized (norm = {np.linalg.norm(arr):.12g}); "
            "pass require_normalized=False to accept"
        )
    arr = arr.copy()
    arr.flags.writeable = False
    return PureState(arr, dim_a, dim_b)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Coefficients and orthonormal frames of v = sum_t coeffs[t] left[t] (x) right[t].

    coeffs is descending and strictly positive; left has shape (r, m) with
    rows left[t], right has shape (r, n).  tol records the relative cutoff
    used to drop trailing coefficients.
    """

    coeffs: np.ndarray
    left: np.ndarray
    right: np.ndarray
    tol: float

    @property
    def rank(self) -> int:
        return int(self.coeffs.size)

    def reconstruct(self) -> np.ndarray:
        """Amplitudes of the represented vector."""
        mat = (self.left.T * self.coeffs) @ self.right
        return mat.reshape(-1)


def schmidt_decompose(v: PureState, tol: float = DEFAULT_RANK_TOL) -> SchmidtDecomposition:
    """Schmidt decomposition of v.

    Parameters
    ----------
    v : PureState
        Vector to decompose; any nonzero norm is accepted.
    tol : float
        Relative cutoff in (0, 1): coefficients at or below tol times the
        largest are dropped.

    Returns
    -------
    SchmidtDecomposition
        Descending positive coefficients with matching orthonormal frames.
        The reconstruction equals v up to fp error at the retained rank.
    """
    if not 0.0 < tol < 1.0:
        raise ParameterError(f"tol must lie in (0, 1), got {tol!r}")
    if np.linalg.norm(v.amplitudes) <= 1e-12:
        raise DegenerateInputError("cannot decompose a (numerically) zero vector")
    u, s, vh = svd(v.matrix())
    keep = s > tol * s[0]
    r = int(np.count_nonzero(keep))
    return SchmidtDecomposition(
        coeffs=s[:r].copy(),
        left=np.ascontiguousarray(u[:, :r].T),
        right=np.ascontiguousarray(vh[:r, :]),
        tol=float(tol),
    )


def schmidt_rank(v: PureState, tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of Schmidt coefficients above the relative cutoff."""
    return schmidt_decompose(v, tol).rank


def schmidt_truncate(v: PureState, k: int) -> PureState:
    """Nearest unit vector of Schmidt rank at most k.

    The overlap |<result|v>| equals s_k_norm(v, k) for unit v; when the
    Schmidt rank of v is already <= k the result is v itself up to fp error.
    """
    kyfan._check_k(v.dim_a, v.dim_b, k)
    if np.linalg.norm(v.amplitudes) <= 1e-12:
        raise DegenerateInputError("cannot truncate a (numerically) zero vector")
    vec, gain = _truncate_raw(v.amplitudes, v.dim_a, v.dim_b, k)
    if gain <= 0.0:
        raise DegenerateInputError("leading Schmidt coefficients are all zero")
    return pure_state(vec, v.dim_a, v.dim_b, require_normalized=False)


def _truncate_raw(u: np.ndarray, m: int, n: int, k: int) -> tuple[np.ndarray, float]:
    """Top-k Schmidt truncation of a raw vector, normalized.

    Returns (unit vector, gain) where gain is the l2 norm of the k leading
    Schmidt coefficients of u, i.e. the largest overlap of u with any
    Schmidt-rank-<=k unit vector; the returned vector attains it.  A zero
    gain returns u itself.
    """
    uu, s, vh = svd(u.reshape(m, n))
    kk = min(k, s.size)
    gain = float(np.linalg.norm(s[:kk]))
    if gain <= 0.0:
        return u.reshape(-1), 0.0
    vec = ((uu[:, :kk] * (s[:kk] / gain)) @ vh[:kk, :]).reshape(-1)
    return vec, gain


def s_k_norm(v: PureState, k: int) -> float:
    """Largest overlap with Schmidt-rank-<=k unit vectors; homogeneous in v.

    Equals the l2 norm of the k leading Schmidt coefficients, and the plain
    Euclidean norm at k = min(dims).
    """
    return kyfan.k2_norm(v.matrix(), k)


def s_k_dual(v: PureState, k: int) -> float:
    """Dual of s_k_norm, via the break-index form on the Schmidt profile.

    At k = 1 this is the sum of the Schmidt coefficients, at k = min(dims)
    the Euclidean norm.
    """
    return kyfan.k2_dual(v.matrix(), k)
