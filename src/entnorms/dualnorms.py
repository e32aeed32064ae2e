"""Projective tensor norm gamma_k, its witnesses, and robustness R_k.

gamma_k(X) is the least total coefficient mass over decompositions
X = sum_i c_i |v_i><w_i| with unit vectors of Schmidt rank <= k; it is dual
to the S(k) norm.  R_k(Y) is the least c1 + c2 over Hermitian splittings
Y = c1 rho1 - c2 rho2 with Schmidt-number-<=k density parts; it is dual to
the restricted numerical radius.  Both are exactly computable on rank-one
operators and at k = min(dims), and otherwise bracketed:

  lower bounds   trace norm, the realigned dual value k2_dual(L(x), k^2),
                 and duality witnesses (pairing divided by a certified
                 dual-side upper bound);
  upper bounds   explicit decompositions: singular triples split with the
                 rank-one closed form, and a sampled linear program over
                 Schmidt-truncated generators.

The realigned lower bound is valid for every operator, not only density
matrices: if x = sum c_i |v_i><w_i| with SR <= k factors, then L maps each
unit ket-bra to a matrix of rank <= k^2 and unit Frobenius norm (L of a
product ket-bra |a tensor b><c tensor d| is the rank-one |a tensor c*>
<b* tensor d|, and a ket-bra with SR <= k factors is a k x k grid of such
terms), so the pairing of L(x) against any unit-(k^2,2)-norm matrix is at
most sum c_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from . import kyfan
from .errors import InfeasibleError, ParameterError, PreconditionError
from .kyfan import _check_k
from .linalg import BipartiteOperator, bipartite, eig_hermitian, realign, svd
from .schmidt import PureState, pure_state, schmidt_decompose
from .sknorm import (
    NormInterval,
    _check_budgets,
    _exact_interval,
    _finish_interval,
    _random_sr_vec,
    seesaw_lower,
    sk_pure,
)

COEFF_PRUNE_RTOL = 1e-12
SPECTRAL_CUTOFF_RTOL = 1e-14
DENSITY_TRACE_ATOL = 1e-9
DEFAULT_CERTIFY_TOL = 1e-9

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True)
class Witness:
    """Duality certificate: pairing / sk_upper lower-bounds the primal norm.

    sk_upper must be a certified upper bound on the dual-side norm of w
    (the S(k) norm for gamma witnesses, the restricted numerical radius for
    robustness witnesses); soundness of bound depends on it.
    """

    w: BipartiteOperator
    sk_upper: float
    pairing: float
    k: int
    method: str

    def __post_init__(self):
        if not self.sk_upper > 0.0:
            raise ParameterError(f"witness needs a positive dual-norm bound, got {self.sk_upper}")
        if self.pairing < 0.0:
            raise ParameterError("witness pairing must be reported as a magnitude")

    @property
    def bound(self) -> float:
        return self.pairing / self.sk_upper


@dataclass(frozen=True)
class Decomposition:
    """Explicit sum x ~ sum_i c_i |lefts_i><rights_i| with SR <= k factors.

    coefficients are nonnegative (phases live in the generators), generator
    rows are unit vectors, residual is the Frobenius distance between the
    reconstruction and the target it was built for.
    """

    coefficients: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray
    dim_a: int
    dim_b: int
    k: int
    residual: float

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=np.float64)
        le = np.array(self.lefts, dtype=np.complex128)
        ri = np.array(self.rights, dtype=np.complex128)
        d = self.dim_a * self.dim_b
        if c.ndim != 1 or le.shape != (c.size, d) or ri.shape != (c.size, d):
            raise ParameterError("decomposition arrays have inconsistent shapes")
        if c.size == 0:
            raise ParameterError("decomposition needs at least one term")
        if np.any(c < 0.0) or not np.all(np.isfinite(c)):
            raise ParameterError("decomposition coefficients must be finite and nonnegative")
        for arr, name in ((c, "coefficients"), (le, "lefts"), (ri, "rights")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_a, self.dim_b)

    @property
    def weight(self) -> float:
        return float(np.sum(self.coefficients))

    def __len__(self) -> int:
        return int(self.coefficients.size)

    def reconstruct(self) -> np.ndarray:
        return (self.lefts.T * self.coefficients) @ self.rights.conj()


def _chunk_vector(vec: np.ndarray, m: int, n: int, k: int) -> list[tuple[np.ndarray, float]]:
    """Split a raw vector into Schmidt-rank-<=k pieces.

    Returns unit vectors u_c and weights n_c with vec = sum_c n_c u_c and
    sum_c n_c^2 = |vec|^2; each piece takes k consecutive Schmidt terms.
    """
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0:
        return []
    sd = schmidt_decompose(pure_state(vec, m, n, require_normalized=False))
    pieces = []
    for g in range(0, sd.rank, k):
        c = sd.coeffs[g : g + k]
        w = float(np.linalg.norm(c))
        if w == 0.0:
            continue
        piece = ((sd.left[g : g + k].T * (c / w)) @ sd.right[g : g + k]).reshape(-1)
        pieces.append((piece, w))
    return pieces


def _svd_atoms(
    x: BipartiteOperator, k: int
) -> tuple[list[np.ndarray], list[np.ndarray], list[float]]:
    """Generators from x's own singular triples, Schmidt-chunked.

    Splitting each singular triple sigma u w^dag into the grid of chunk
    pairs reproduces x exactly with nonnegative coefficients, so these
    atoms alone are always a feasible decomposition.
    """
    m, n = x.dims
    u, s, vh = svd(x.mat)
    lefts: list[np.ndarray] = []
    rights: list[np.ndarray] = []
    coeffs: list[float] = []
    cutoff = SPECTRAL_CUTOFF_RTOL * float(s[0]) if s.size else 0.0
    for i in range(s.size):
        if s[i] <= cutoff:
            break
        uchunks = _chunk_vector(u[:, i], m, n, k)
        wchunks = _chunk_vector(vh[i, :].conj(), m, n, k)
        for uc, nu in uchunks:
            for wc, nw in wchunks:
                lefts.append(uc)
                rights.append(wc)
                coeffs.append(float(s[i]) * nu * nw)
    return lefts, rights, coeffs


def _residual_penalty(m: int, n: int, k: int, residual_mat: np.ndarray) -> float:
    # gamma_k of the residual is at most ceil(min/k) times its trace norm:
    # any unit pair splits into that many Schmidt chunks per side, and
    # Cauchy-Schwarz bounds the chunk-norm sums by sqrt of the chunk count.
    chunks = math.ceil(min(m, n) / k)
    return chunks * float(np.sum(svd(residual_mat)[1]))


def build_decomposition(
    coefficients: np.ndarray,
    lefts: np.ndarray,
    rights: np.ndarray,
    dim_a: int,
    dim_b: int,
    k: int,
    target: BipartiteOperator,
) -> Decomposition:
    """Package generator arrays against a target, computing the residual."""
    if target.dims != (dim_a, dim_b):
        raise ParameterError(f"target dims {target.dims} do not match ({dim_a}, {dim_b})")
    c = np.array(coefficients, dtype=np.float64)
    le = np.array(lefts, dtype=np.complex128)
    ri = np.array(rights, dtype=np.complex128)
    rec = (le.T * c) @ ri.conj()
    residual = float(np.linalg.norm(target.mat - rec))
    return Decomposition(c, le, ri, dim_a, dim_b, k, residual)


def decomposition_from_mixture(x: BipartiteOperator, k: int) -> Decomposition:
    """Constructive decomposition by Schmidt-chunking x's singular triples.

    The weight sum_i sigma_i (sum_c |u_c|)(sum_d |w_d|) is a valid but
    generally loose upper bound on gamma_k(x); its virtue is being explicit
    and exact for targets whose singular vectors already have SR <= k.
    """
    m, n = x.dims
    _check_k(m, n, k)
    lefts, rights, coeffs = _svd_atoms(x, k)
    if not lefts:
        raise ParameterError("cannot decompose the zero operator")
    return build_decomposition(
        np.array(coeffs), np.array(lefts), np.array(rights), m, n, k, x
    )


def certified_upper_from_decomposition(x: BipartiteOperator, dec: Decomposition) -> float:
    """Sound upper bound on gamma_k(x) from a decomposition: weight plus a
    penalty covering whatever the reconstruction misses."""
    if dec.dims != x.dims:
        raise ParameterError(f"decomposition dims {dec.dims} do not match {x.dims}")
    residual_mat = x.mat - dec.reconstruct()
    return dec.weight + _residual_penalty(x.dim_a, x.dim_b, dec.k, residual_mat)


def gamma_pure(v: PureState, k: int) -> float:
    """gamma_k of the projector |v><v|: the squared dual Schmidt value
    s_k_dual(v)^2.  At k=1 this is (sum of Schmidt coefficients)^2; it is 1
    exactly when SR(v) <= k."""
    return float(kyfan.k2_dual(v.matrix(), k) ** 2)


def gamma_rank_one(v: PureState, w: PureState, k: int) -> float:
    """gamma_k of |v><w|: the product s_k_dual(v) * s_k_dual(w)."""
    if v.dims != w.dims:
        raise ParameterError(f"mismatched dims {v.dims} vs {w.dims}")
    return float(kyfan.k2_dual(v.matrix(), k) * kyfan.k2_dual(w.matrix(), k))


def _vec_dual(col: np.ndarray, m: int, n: int, k: int) -> float:
    return float(kyfan.k2_dual(col.reshape(m, n), k))


def _sign_unitary_witness(
    u: np.ndarray, s: np.ndarray, vh: np.ndarray, m: int, n: int, k: int
) -> Witness:
    """u vh from x = u diag(s) vh: operator norm 1, so S(k) norm at most 1,
    and its pairing with x is the trace norm."""
    return Witness(bipartite(u @ vh, m, n), 1.0, float(np.sum(s)), k, "sign_unitary")


def best_gamma_witness(
    x: BipartiteOperator,
    k: int,
    restarts: int = 32,
    max_iter: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
) -> Witness:
    """Strongest available duality witness for a lower bound on gamma_k(x).

    Candidates: the best see-saw ket-bra (its S(k) norm is 1 by
    construction), the sign unitary of x's SVD (operator norm 1, pairing
    the trace norm), and for hermitian x each eigenprojector normalized by
    its exact S(k) value.
    """
    m, n = x.dims
    _check_k(m, n, k)
    _check_budgets(restarts, max_iter, seed)
    u, s, vh = svd(x.mat)
    if s[0] <= 0.0:
        raise ParameterError("the zero operator admits no witness")

    ss = seesaw_lower(x, k, restarts=restarts, max_iter=max_iter, tol=tol, seed=seed)
    ketbra = np.outer(ss.v.amplitudes, ss.w.amplitudes.conj())
    candidates = [
        Witness(bipartite(ketbra, m, n), 1.0, ss.value, k, "seesaw_ketbra"),
        _sign_unitary_witness(u, s, vh, m, n, k),
    ]

    if x.hermitian:
        lam, vecs = eig_hermitian(x.mat)
        for i in range(lam.size):
            if abs(lam[i]) <= SPECTRAL_CUTOFF_RTOL * s[0]:
                continue
            col = vecs[:, i]
            sk_val = sk_pure(pure_state(col, m, n, require_normalized=False), k)
            if sk_val <= 0.0:
                continue
            candidates.append(
                Witness(
                    bipartite(np.outer(col, col.conj()), m, n, symmetrize=True),
                    sk_val,
                    float(abs(lam[i])),
                    k,
                    "eigenprojector",
                )
            )

    return max(candidates, key=lambda c: c.bound)


def gamma_bounds(
    x: BipartiteOperator,
    k: int,
    restarts: int = 32,
    max_iter: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
    oracle_budget: int | None = None,
) -> NormInterval:
    """Certified bracket for gamma_k(x).

    Exact on rank-one inputs (the closed-form dual product) and at
    k = min(dims) (the trace norm).  Otherwise the lower endpoint is the
    best of trace norm, realigned dual value, and duality witnesses; the
    upper endpoint the best explicit decomposition, including the sampled
    LP oracle when a budget is passed.  The certificate is the best
    Witness (bound at most lower): the dual-attaining ket-bra on rank-one
    inputs, the sign unitary at k = min(dims).
    """
    m, n = x.dims
    _check_k(m, n, k)
    u, s, vh = svd(x.mat)

    if s[0] <= 0.0:
        return _exact_interval(0.0, "zero_operator")
    trace_norm = float(np.sum(s))
    if k == min(m, n):
        wit = _sign_unitary_witness(u, s, vh, m, n, k)
        return _exact_interval(trace_norm, "trace_norm_exact", wit)
    if s.size == 1 or s[1] <= SPECTRAL_CUTOFF_RTOL * s[0]:
        a, dual_u = kyfan.k2_dual_attainer(u[:, 0].reshape(m, n), k)
        b, dual_w = kyfan.k2_dual_attainer(vh[0, :].conj().reshape(m, n), k)
        ketbra = np.outer(a.reshape(-1), b.reshape(-1).conj())
        pairing = float(abs(np.vdot(ketbra, x.mat)))
        wit = Witness(bipartite(ketbra, m, n), 1.0, pairing, k, "dual_ketbra")
        return _exact_interval(float(s[0]) * dual_u * dual_w, "rank_one_exact", wit)

    lowers = [
        ("trace_norm", trace_norm),
        ("realigned_dual", float(kyfan.k2_dual(realign(x), k * k))),
    ]
    wit = best_gamma_witness(x, k, restarts=restarts, max_iter=max_iter, tol=tol, seed=seed)
    lowers.append((f"witness_{wit.method}", wit.bound))

    cutoff = SPECTRAL_CUTOFF_RTOL * float(s[0])
    mixture = 0.0
    for i in range(s.size):
        if s[i] <= cutoff:
            break
        mixture += float(s[i]) * _vec_dual(u[:, i], m, n, k) * _vec_dual(vh[i, :].conj(), m, n, k)
    uppers = [("svd_mixture", mixture)]
    if oracle_budget is not None:
        o_upper, _ = decomposition_oracle(x, k, budget=oracle_budget, seed=seed)
        uppers.append(("oracle", o_upper))

    lo_tag, lo = max(lowers, key=lambda t: t[1])
    hi_tag, hi = min(uppers, key=lambda t: t[1])
    return _finish_interval(lo, hi, lo_tag, hi_tag, wit)


def decomposition_oracle(
    x: BipartiteOperator,
    k: int,
    budget: int = 2000,
    seed: int = 0,
) -> tuple[float, Decomposition]:
    """Certified upper bound on gamma_k(x) by linear programming over a
    sampled generator pool.

    The pool always contains x's own Schmidt-chunked singular triples (a
    feasible decomposition, so the program is solvable whenever the solver
    cooperates), topped up to `budget` with Schmidt-truncated Gaussian
    ket-bra pairs; complex phases live in the generators, so coefficients
    are nonnegative and min sum c_i s.t. sum c_i G_i = x is a plain LP.
    If the solver still reports failure, one retry adds the matrix units
    with the phases of x's entries.  The returned value adds a penalty
    covering the reconstruction residual, so it is sound even when the
    solver terminates slightly off-feasible.
    """
    m, n = x.dims
    d = m * n
    _check_k(m, n, k)
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    span_dim = 2 * d * d
    if budget < span_dim:
        raise ParameterError(
            f"budget {budget} is below the real span dimension {span_dim}"
        )
    if float(np.max(np.abs(x.mat))) == 0.0:
        raise ParameterError("cannot decompose the zero operator")

    lefts_l, rights_l, _ = _svd_atoms(x, k)
    rng = np.random.default_rng(seed)
    n_random = budget - len(lefts_l)
    for _ in range(n_random):
        lefts_l.append(_random_sr_vec(rng, m, n, k))
        rights_l.append(_random_sr_vec(rng, m, n, k))

    lefts = np.array(lefts_l)
    rights = np.array(rights_l)
    target = x.mat.reshape(-1)

    def solve(le: np.ndarray, ri: np.ndarray):
        atoms = np.einsum("ni,nj->nij", le, ri.conj()).reshape(le.shape[0], d * d)
        a_eq = np.vstack([atoms.real.T, atoms.imag.T])
        b_eq = np.concatenate([target.real, target.imag])
        return linprog(
            c=np.ones(le.shape[0]),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(0, None),
            method="highs",
            options=dict(_LP_OPTIONS),
        )

    res = solve(lefts, rights)
    if res.status != 0 or res.x is None:
        unit_lefts = []
        unit_rights = []
        for a in range(d):
            for b in range(d):
                ea = np.zeros(d, dtype=np.complex128)
                eb = np.zeros(d, dtype=np.complex128)
                phase = np.exp(1j * np.angle(x.mat[a, b])) if x.mat[a, b] != 0 else 1.0
                ea[a] = phase
                eb[b] = 1.0
                unit_lefts.append(ea)
                unit_rights.append(eb)
        lefts = np.vstack([lefts, np.array(unit_lefts)])
        rights = np.vstack([rights, np.array(unit_rights)])
        res = solve(lefts, rights)
        if res.status != 0 or res.x is None:
            raise InfeasibleError(
                f"decomposition program failed twice (status {res.status}); "
                "budget too small for this operator"
            )

    c = np.clip(np.asarray(res.x, dtype=np.float64), 0.0, None)
    keep = c > COEFF_PRUNE_RTOL * max(1.0, float(np.sum(c)))
    if not np.any(keep):
        keep = c >= np.max(c)
    dec = build_decomposition(
        c[keep], lefts[keep], rights[keep], m, n, k, x
    )
    upper = certified_upper_from_decomposition(x, dec)
    return upper, dec


def robustness_bounds(
    y: BipartiteOperator,
    k: int,
    restarts: int = 32,
    max_iter: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
    sn_at_most_k: bool = False,
) -> NormInterval:
    """Certified bracket for the robustness R_k of a hermitian operator.

    Lower bounds are the gamma_k lower bounds (R_k >= gamma_k: every
    admissible splitting is in particular a decomposition) together with
    hermitian duality witnesses, which for eigenprojectors coincide with
    the gamma eigenprojector witnesses since radius and S(k) norm agree on
    PSD operators.  The upper bound splits the eigendecomposition
    eigenvector by eigenvector with the proven k = 1 pure formula
    R_1(|u><u|) = 2 gamma_1(u) - 1, admissible for every k.  Pass
    sn_at_most_k=True when the input is a density matrix already known to
    have Schmidt number <= k; that caps the upper bound at the exact 1.
    """
    if not y.hermitian:
        raise PreconditionError("robustness_bounds requires a hermitian operator")
    m, n = y.dims
    _check_k(m, n, k)

    gb = gamma_bounds(y, k, restarts=restarts, max_iter=max_iter, tol=tol, seed=seed)
    if gb.exact and k == min(m, n):
        # R_min equals the trace norm as well: splitting the eigenvalues by
        # sign is admissible at full k and matches the gamma lower bound.
        return NormInterval(gb.lower, gb.upper, "gamma_exact", "sign_split", True)

    lam, vecs = eig_hermitian(y.mat)
    upper = 0.0
    scale = float(np.max(np.abs(lam)))
    for i in range(lam.size):
        if abs(lam[i]) <= SPECTRAL_CUTOFF_RTOL * scale:
            continue
        ui = pure_state(vecs[:, i], m, n, require_normalized=False)
        upper += float(abs(lam[i])) * (2.0 * gamma_pure(ui, 1) - 1.0)
    hi_tag = "pure_split_k1"
    if sn_at_most_k:
        if upper > 1.0:
            upper = 1.0
            hi_tag = "sn_assumption"
    return _finish_interval(gb.lower, upper, f"gamma_{gb.lower_method}", hi_tag)


def robustness_to_entanglement(r: NormInterval) -> NormInterval:
    """Rescale a robustness interval for a density matrix to the
    generalized-robustness convention E = (R - 1) / 2."""
    # The shift can move a value next to 0, where a relative width no
    # longer holds, so only identical endpoints stay exact.
    lower, upper = (r.lower - 1.0) / 2.0, (r.upper - 1.0) / 2.0
    return NormInterval(lower, upper, r.lower_method, r.upper_method, r.exact and lower == upper)


@dataclass(frozen=True)
class ConjectureProbe:
    """Numerical comparison of the closed-form candidate 2 gamma_k - 1
    against the certified robustness bracket of a pure-state projector.

    inside reports containment up to 1e-9; gap is how far outside the
    bracket the candidate lands (0 when inside).  This never asserts the
    equality: in_open_regime marks the k where it is unproven either way.
    """

    k: int
    dims: tuple[int, int]
    candidate: float
    interval: NormInterval
    inside: bool
    gap: float
    in_open_regime: bool


def conjecture_probe(
    v: PureState,
    k: int,
    restarts: int = 32,
    max_iter: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
) -> ConjectureProbe:
    """Probe whether 2 gamma_k(v) - 1 falls inside the robustness bracket.

    k = 1 and k = min(dims) sit outside the open regime (the equality is a
    theorem there) but are accepted for calibrating the bracket itself.
    """
    m, n = v.dims
    _check_k(m, n, k)
    candidate = 2.0 * gamma_pure(v, k) - 1.0
    proj = np.outer(v.amplitudes, v.amplitudes.conj())
    interval = robustness_bounds(
        bipartite(proj, m, n, symmetrize=True),
        k,
        restarts=restarts,
        max_iter=max_iter,
        tol=tol,
        seed=seed,
    )
    gap = max(0.0, interval.lower - candidate, candidate - interval.upper)
    inside = gap <= 1e-9
    return ConjectureProbe(
        k=k,
        dims=(m, n),
        candidate=candidate,
        interval=interval,
        inside=inside,
        gap=gap,
        in_open_regime=1 < k < min(m, n),
    )


@dataclass(frozen=True)
class SnCertification:
    """Outcome of a Schmidt-number query on a density matrix.

    verdict is one of at_most_k, exceeds_k, undecided.  The evidence is the
    gamma bracket plus, depending on the verdict, the witness whose bound
    pushed gamma above 1 or the decomposition certifying gamma <= 1."""

    verdict: str
    k: int
    gamma: NormInterval
    witness: Witness | None
    decomposition: Decomposition | None


def _require_density(rho: BipartiteOperator, what: str) -> None:
    """Hermitian, PSD within 1e-9 of the spectral scale, unit trace within
    DENSITY_TRACE_ATOL; PreconditionError otherwise."""
    if not rho.hermitian:
        raise PreconditionError(f"{what} requires a hermitian density matrix")
    lam, _ = eig_hermitian(rho.mat)
    scale = max(1.0, float(np.max(np.abs(lam))))
    if lam[-1] < -1e-9 * scale:
        raise PreconditionError(f"{what}: input is not PSD (min eigenvalue {lam[-1]:.3e})")
    tr = float(np.real(np.trace(rho.mat)))
    if abs(tr - 1.0) > DENSITY_TRACE_ATOL:
        raise PreconditionError(f"{what}: trace {tr} is not 1 within {DENSITY_TRACE_ATOL}")


def sn_certify(
    rho: BipartiteOperator,
    k: int,
    tol: float = DEFAULT_CERTIFY_TOL,
    budget: int | None = None,
    candidate: Decomposition | None = None,
    restarts: int = 32,
    max_iter: int = 500,
    seed: int = 0,
) -> SnCertification:
    """Three-way Schmidt-number certificate via gamma_k(rho) vs 1.

    A density matrix has SN <= k exactly when gamma_k = 1.  Any certified
    lower bound above 1 + tol proves SN > k; any decomposition with
    certified value at most 1 + tol proves SN <= k.  Decompositions are
    tried in order: a caller-supplied candidate (e.g. the known generators
    of a constructed mixture), the constructive Schmidt-chunk split, then
    the LP oracle when a budget is given.  Anything else is undecided.
    """
    _require_density(rho, "sn_certify")
    m, n = rho.dims
    _check_k(m, n, k)

    gb = gamma_bounds(rho, k, restarts=restarts, max_iter=max_iter, seed=seed)
    if gb.lower > 1.0 + tol:
        wit = gb.certificate if gb.certificate.bound > 1.0 + tol else None
        return SnCertification("exceeds_k", k, gb, wit, None)

    def check(dec: Decomposition) -> float | None:
        if dec.dims != rho.dims or dec.k > k:
            raise ParameterError("candidate decomposition does not match the query")
        if not _generators_admissible(dec, tol):
            raise ParameterError("candidate decomposition has inadmissible generators")
        value = certified_upper_from_decomposition(rho, dec)
        return value if value <= 1.0 + tol else None

    if candidate is not None:
        value = check(candidate)
        if value is not None:
            return SnCertification("at_most_k", k, gb, None, candidate)

    chunk = decomposition_from_mixture(rho, k)
    if check(chunk) is not None:
        return SnCertification("at_most_k", k, gb, None, chunk)

    if budget is not None:
        upper, dec = decomposition_oracle(rho, k, budget=budget, seed=seed)
        if upper <= 1.0 + tol:
            return SnCertification("at_most_k", k, gb, None, dec)

    return SnCertification("undecided", k, gb, None, None)


def _generators_admissible(dec: Decomposition, tol: float) -> bool:
    """Every generator must be unit within tol and of Schmidt rank <= k."""
    m, n = dec.dims
    for row in range(len(dec)):
        for side in (dec.lefts[row], dec.rights[row]):
            nrm = float(np.linalg.norm(side))
            if abs(nrm - 1.0) > max(tol, 1e-9):
                return False
            s = svd(side.reshape(m, n))[1]
            if s.size > dec.k and s[dec.k] > 1e-8 * s[0]:
                return False
    return True
