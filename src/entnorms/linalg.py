"""Dense complex kernels for bipartite operators.

Composite index convention, used by every reshuffling map in the package:
the product basis vector e_i (x) e_k of C^m (x) C^n sits at row-major
position i*n + k.  All reshapes below are plain views under this
convention, so realignment and partial transpose are entry permutations
and preserve the Frobenius norm exactly.

A BipartiteOperator is decomposed at most once: its svd, eigh, Schmidt and
realignment svds are computed on first read and kept as read-only factors.
svd() also accepts a stack of shape (..., m, n) and decomposes every matrix
in one call, which the see-saw and the Schmidt truncations use to avoid a
Python round trip per small matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    NumericalError,
    ParameterError,
    PreconditionError,
)

HERMITIAN_RTOL = 1e-10
DEFAULT_KRON_CAP = 4096
# Singular values (or |eigenvalues|) this far below the largest count as
# zero: they decide rank one, cut spectral sums and clamp (k,2) profiles.
SINGULAR_ZERO_RTOL = 1e-14

# Testing hook: when set, svd() and the stacked eigh of _top_eigenpairs()
# raise NumericalError.  Used by the CLI's --inject-svd-failure flag to
# exercise the numerical-failure exit path; cached work is not redone, so
# it does not fail: an operator's kept decompositions, shifts and filters, the search starts.
_SVD_FAILURE_INJECTED = False


def inject_svd_failure(enabled: bool) -> None:
    global _SVD_FAILURE_INJECTED
    _SVD_FAILURE_INJECTED = bool(enabled)


def _as_complex_matrix(mat, what: str = "matrix", stacked: bool = False) -> np.ndarray:
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2 and not (stacked and arr.ndim > 2):
        raise ParameterError(f"{what} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{what} contains NaN or Inf entries")
    return arr


def is_hermitian(mat: np.ndarray) -> bool:
    if mat.shape[0] != mat.shape[1] or mat.size == 0:
        return mat.size == 0
    scale = float(np.max(np.abs(mat)))
    return float(np.max(np.abs(mat - mat.conj().T))) <= HERMITIAN_RTOL * scale


@dataclass(frozen=True, eq=False)
class BipartiteOperator:
    """A square matrix on C^m (x) C^n together with its split (m, n).

    The hermitian flag is part of the value: when True the matrix is
    conjugate-symmetric within HERMITIAN_RTOL relative to its largest entry.
    Instances are immutable: a writeable (or borrowed) array is replaced by
    a read-only copy, so the cached factors stay valid.  Each decomposition
    below runs on its first read and is kept with the operator (at 8x8 all
    five hold about 0.7 MiB, a kept local filter 0.2 MiB more): further k
    and entry points reuse it; a one-shot process still pays each one once.
    Operators compare and hash by identity, as array equality is elementwise.
    """

    mat: np.ndarray
    dim_a: int
    dim_b: int
    hermitian: bool = False

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionError(f"subsystem dimensions must be >= 1, got ({self.dim_a}, {self.dim_b})")
        d = self.dim_a * self.dim_b
        if self.mat.shape != (d, d):
            raise DimensionError(
                f"matrix shape {self.mat.shape} does not match dims {self.dim_a}x{self.dim_b} (expected {(d, d)})"
            )
        if self.hermitian and not is_hermitian(self.mat):
            raise PreconditionError("hermitian flag set but matrix is not hermitian within tolerance")
        if self.mat.flags.writeable or not self.mat.flags.owndata:
            frozen = self.mat.copy()
            frozen.flags.writeable = False
            object.__setattr__(self, "mat", frozen)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_a, self.dim_b)

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """svd(mat) as read-only (u, s, vh), computed on first read."""
        return _read_only(svd(self.mat))

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """eig_hermitian(mat) as read-only (w, V), computed on first read."""
        return _read_only(eig_hermitian(self.mat))

    @cached_property
    def singular_schmidt(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked Schmidt svd of the r live singular vectors u_i, then conj(w_i):
        read-only (2r, ...) factors; r counts s_i > SINGULAR_ZERO_RTOL * s_0."""
        u, s, vh = self.svd
        r = int(np.count_nonzero(s > SINGULAR_ZERO_RTOL * float(s[0])))
        return _read_only(svd(np.concatenate([u[:, :r].T, vh[:r].conj()]).reshape(2 * r, *self.dims)))

    @cached_property
    def eigen_schmidt(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked Schmidt svd of eigh's eigenvectors, in order (hermitian only)."""
        return _read_only(svd(self.eigh[1].T.reshape(-1, *self.dims)))

    @cached_property
    def realigned_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """svd(realign(self)) as read-only (u, s, vh), computed on first read."""
        return _read_only(svd(realign(self)))

    def _keep(self, key, build):
        """build(), kept under key from its first successful run on."""
        kept = self.__dict__.setdefault("_kept", {})
        if key not in kept:
            kept[key] = build()
        return kept[key]

    def psd_shift(self, sign: float) -> tuple[float, BipartiteOperator]:
        """(c, cI - z) for z = sign * mat and c = lambda_max(z), a PSD operator;
        built on first request per sign and kept, like svd and eigh, so its
        own cached svd is computed once too.  Requires a hermitian operator."""
        def build():
            lam = self.eigh[0]
            c = float(lam[0]) if sign > 0 else -float(lam[-1])
            x_mat = c * np.eye(self.mat.shape[0], dtype=np.complex128) - sign * self.mat
            x_mat = (x_mat + x_mat.conj().T) / 2.0
            return c, BipartiteOperator(x_mat, self.dim_a, self.dim_b, hermitian=True)
        return self._keep(("psd_shift", sign), build)


def _read_only(arrays: tuple) -> tuple:
    for arr in arrays:
        arr.flags.writeable = False
    return tuple(arrays)


def bipartite(mat, dim_a: int, dim_b: int, *, symmetrize: bool = False) -> BipartiteOperator:
    """Wrap a matrix as a BipartiteOperator, detecting hermiticity.

    With symmetrize=True the matrix is replaced by (M + M^dag)/2 before the
    flag is computed.  Symmetrization never happens implicitly.
    """
    arr = _as_complex_matrix(mat, "operator")
    if symmetrize:
        arr = (arr + arr.conj().T) / 2.0
    return BipartiteOperator(arr, dim_a, dim_b, hermitian=is_hermitian(arr))


def kron(a, b) -> np.ndarray:
    """Kronecker product with a side cap of DEFAULT_KRON_CAP on the result."""
    aa = np.asarray(a, dtype=np.complex128)
    bb = np.asarray(b, dtype=np.complex128)
    rows = aa.shape[0] * bb.shape[0] if aa.ndim == 2 and bb.ndim == 2 else aa.size * bb.size
    cols = aa.shape[1] * bb.shape[1] if aa.ndim == 2 and bb.ndim == 2 else 1
    if max(rows, cols) > DEFAULT_KRON_CAP:
        raise DimensionError(f"kron result side {max(rows, cols)} exceeds cap {DEFAULT_KRON_CAP}")
    return np.kron(aa, bb)


def partial_trace(x: BipartiteOperator, which: str) -> np.ndarray:
    """Trace out one subsystem; which is "A" or "B".

    Tracing out "B" leaves the m x m marginal on the first factor.
    """
    m, n = x.dims
    t = x.mat.reshape(m, n, m, n)
    if which == "B":
        return np.einsum("ikjk->ij", t)
    if which == "A":
        return np.einsum("ikil->kl", t)
    raise ParameterError(f'which must be "A" or "B", got {which!r}')


def partial_transpose(x: BipartiteOperator) -> BipartiteOperator:
    """Transpose the second factor only."""
    m, n = x.dims
    t = x.mat.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(m * n, m * n)
    return bipartite(t, m, n)


def swap_operator(n: int) -> BipartiteOperator:
    """The operator on C^n (x) C^n exchanging the factors: S(v (x) w) = w (x) v."""
    if n < 1:
        raise DimensionError(f"n must be >= 1, got {n}")
    s = np.zeros((n * n, n * n), dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            s[a * n + b, b * n + a] = 1.0
    return bipartite(s, n, n)


def realign(x: BipartiteOperator) -> np.ndarray:
    """Realignment map: the m^2 x n^2 matrix L with

        L[(i, j), (k, l)] = x[(i, k), (j, l)]

    where row pairs (i, j) run over the first factor twice and column pairs
    (k, l) over the second factor twice, both row-major.  This is a pure
    entry permutation, so Frobenius norms are preserved exactly.  On a
    rank-one input |v><w| it factorizes as V (x) conj(W) with V, W the m x n
    matricizations of v and w; their ranks are the Schmidt ranks.
    """
    m, n = x.dims
    return np.ascontiguousarray(
        x.mat.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
    )


def realign_inverse(l: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Invert realign(): returns the mn x mn matrix whose realignment is l."""
    arr = _as_complex_matrix(l, "realigned matrix")
    m, n = dim_a, dim_b
    if arr.shape != (m * m, n * n):
        raise DimensionError(f"expected shape {(m * m, n * n)}, got {arr.shape}")
    return np.ascontiguousarray(
        arr.reshape(m, m, n, n).transpose(0, 2, 1, 3).reshape(m * n, m * n)
    )


def svd(mat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD, M = U diag(s) Vh, singular values descending.

    A stack of shape (..., m, n) returns stacked factors, one thin SVD per
    matrix, from a single call.
    """
    arr = _as_complex_matrix(mat, stacked=True)
    if _SVD_FAILURE_INJECTED:
        raise NumericalError("svd failure injected by testing hook")
    try:
        return np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"svd did not converge: {exc}") from exc


def eig_hermitian(mat) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a hermitian matrix, eigenvalues descending.

    Returns (w, V) with eigenvector columns V[:, i] matching w[i].  Raises
    PreconditionError if the input is not hermitian within HERMITIAN_RTOL.
    """
    arr = _as_complex_matrix(mat)
    if not is_hermitian(arr):
        raise PreconditionError("eig_hermitian requires a hermitian matrix")
    try:
        w, v = np.linalg.eigh((arr + arr.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigh did not converge: {exc}") from exc
    order = np.argsort(w)[::-1]
    return np.real(w[order]), v[:, order]


def _top_eigenpairs(forms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of each hermitian matrix in
    a stack (..., d, d), from one stacked eigh: shapes (...) and (..., d).

    Only the lower triangles are read, and nothing is validated: the
    callers build the stack as hermitian forms.  The svd failure hook fails
    this call too.
    """
    if _SVD_FAILURE_INJECTED:
        raise NumericalError("eigh failure injected by testing hook")
    try:
        w, v = np.linalg.eigh(forms)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigh did not converge: {exc}") from exc
    return w[..., -1], v[..., -1]


class MatrixNorms(NamedTuple):
    operator: float
    trace: float
    frobenius: float


def matrix_norms(mat) -> MatrixNorms:
    """Operator, trace, and Frobenius norms, all from one SVD."""
    s = svd(mat)[1]
    if s.size == 0:
        return MatrixNorms(0.0, 0.0, 0.0)
    return MatrixNorms(float(s[0]), float(np.sum(s)), float(np.sqrt(np.sum(s * s))))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product <A, B> = Tr(A^dag B)."""
    return complex(np.vdot(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)))
