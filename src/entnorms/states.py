"""Seeded generation of the test ensembles used across the package.

Every kind is driven by a single numpy Generator constructed from the
spec's seed, so identical specs produce identical outputs.  Haar vectors
come from normalized complex Gaussians, Haar unitaries from QR with the
phase fix that makes the factorization unique, bounded-Schmidt-rank
vectors from Gaussian coefficients on Haar frames, and bounded-Schmidt-
number densities from Dirichlet-weighted mixtures of those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dualnorms import Decomposition, build_decomposition
from .errors import ParameterError
from .kyfan import _check_k
from .linalg import BipartiteOperator, bipartite
from .schmidt import PureState, pure_state

KINDS = (
    "haar_pure",
    "max_entangled",
    "isotropic",
    "sr_bounded_pure",
    "sn_bounded_density",
    "ginibre_density",
)


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters for one draw; fields beyond (kind, dims, seed) are
    kind-specific and validated in generate."""

    kind: str
    dim_a: int
    dim_b: int
    k: int | None = None
    p: float | None = None
    rank: int | None = None
    terms: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown ensemble kind {self.kind!r}; choose from {KINDS}")
        if self.dim_a < 1 or self.dim_b < 1:
            raise ParameterError(f"dims must be >= 1, got ({self.dim_a}, {self.dim_b})")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ParameterError(f"seed must be a nonnegative integer, got {self.seed!r}")

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_a, self.dim_b)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix with the
    diagonal phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _haar_vec(rng: np.random.Generator, size: int) -> np.ndarray:
    g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return g / np.linalg.norm(g)


def _sr_bounded_vec(rng: np.random.Generator, m: int, n: int, k: int) -> np.ndarray:
    frame_a = haar_unitary(m, rng)[:, :k]
    frame_b = haar_unitary(n, rng)[:, :k]
    g = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    mat = (frame_a * g) @ frame_b.T
    vec = mat.reshape(-1)
    return vec / np.linalg.norm(vec)


def _sn_bounded_draw(
    spec: EnsembleSpec, rng: np.random.Generator
) -> tuple[BipartiteOperator, np.ndarray, list[np.ndarray]]:
    """The sn_bounded_density mixture with its weights and pure terms."""
    m, n = spec.dims
    k = _check_k_param(spec)
    terms = _need(spec, "terms")
    if terms < 1:
        raise ParameterError(f"terms must be >= 1, got {terms}")
    weights = rng.exponential(size=terms)
    weights = weights / np.sum(weights)
    vecs = [_sr_bounded_vec(rng, m, n, k) for _ in range(terms)]
    rho = np.zeros((m * n, m * n), dtype=np.complex128)
    for w, v in zip(weights, vecs):
        rho += w * np.outer(v, v.conj())
    return bipartite(rho, m, n, symmetrize=True), weights, vecs


def _need(spec: EnsembleSpec, field: str):
    value = getattr(spec, field)
    if value is None:
        raise ParameterError(f"kind {spec.kind!r} requires {field}")
    return value


def _check_k_param(spec: EnsembleSpec) -> int:
    k = _need(spec, "k")
    _check_k(spec.dim_a, spec.dim_b, k)
    return k


def generate(spec: EnsembleSpec) -> PureState | BipartiteOperator:
    """Draw one state or density matrix according to spec.

    haar_pure and sr_bounded_pure and max_entangled return PureState; the
    density kinds return a hermitian BipartiteOperator with unit trace.
    max_entangled on unequal dims lives on the smaller of the two: the sum
    runs over min(m, n) paired basis vectors.
    """
    m, n = spec.dims
    rng = np.random.default_rng(spec.seed)

    if spec.kind == "haar_pure":
        return pure_state(_haar_vec(rng, m * n), m, n)

    if spec.kind == "max_entangled":
        d = min(m, n)
        vec = np.zeros(m * n, dtype=np.complex128)
        for i in range(d):
            vec[i * n + i] = 1.0 / np.sqrt(d)
        return pure_state(vec, m, n)

    if spec.kind == "isotropic":
        if m != n:
            raise ParameterError(f"isotropic needs equal dims, got ({m}, {n})")
        p = _need(spec, "p")
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"p must lie in [0, 1], got {p}")
        phi = generate(EnsembleSpec("max_entangled", m, n, seed=spec.seed)).amplitudes
        rho = p * np.outer(phi, phi.conj()) + (1.0 - p) * np.eye(m * n) / (m * n)
        return bipartite(rho, m, n, symmetrize=True)

    if spec.kind == "sr_bounded_pure":
        k = _check_k_param(spec)
        return pure_state(_sr_bounded_vec(rng, m, n, k), m, n)

    if spec.kind == "sn_bounded_density":
        return _sn_bounded_draw(spec, rng)[0]

    if spec.kind == "ginibre_density":
        rank = spec.rank if spec.rank is not None else m * n
        if not 1 <= rank <= m * n:
            raise ParameterError(f"rank must satisfy 1 <= rank <= {m * n}, got {rank}")
        g = rng.standard_normal((m * n, rank)) + 1j * rng.standard_normal((m * n, rank))
        rho = g @ g.conj().T
        rho /= np.real(np.trace(rho))
        return bipartite(rho, m, n, symmetrize=True)

    raise ParameterError(f"unknown ensemble kind {spec.kind!r}")


def sn_bounded_ensemble(spec: EnsembleSpec) -> tuple[BipartiteOperator, Decomposition]:
    """Draw an sn_bounded_density together with its generating decomposition.

    The density equals generate(spec) for the same spec; the returned
    Decomposition lists the mixture's own projector terms, which certifies
    the Schmidt number bound constructively (its certified value is the
    weight sum, 1).
    """
    if spec.kind != "sn_bounded_density":
        raise ParameterError(f"sn_bounded_ensemble needs kind sn_bounded_density, got {spec.kind!r}")
    m, n = spec.dims
    target, weights, vecs = _sn_bounded_draw(spec, np.random.default_rng(spec.seed))
    arr = np.array(vecs)
    dec = build_decomposition(weights, arr, arr, m, n, spec.k, target)
    return target, dec
