"""Projective tensor norm gamma_k, its witnesses, and robustness R_k.

gamma_k(X) is the least total coefficient mass over decompositions
X = sum_i c_i |v_i><w_i| with unit vectors of Schmidt rank <= k; it is dual
to the S(k) norm.  R_k(Y) is the least c1 + c2 over Hermitian splittings
Y = c1 rho1 - c2 rho2 with Schmidt-number-<=k density parts; it is dual to
the restricted numerical radius.  Both are exactly computable on rank-one
operators and at k = min(dims), and otherwise bracketed:

  lower bounds   duality witnesses only, each a pairing divided by a
                 certified upper bound on the witness's S(k) norm: the sign
                 unitary of x (the trace norm), the realignment witness
                 (the realigned dual value k2_dual(L(x), k^2)) and, for
                 hermitian x, its eigenprojectors; no search is needed;
  upper bounds   explicit decompositions: singular triples split with the
                 rank-one closed form, and a sampled linear program over
                 Schmidt-truncated generators, the one place scipy is
                 used (HiGHS through `linprog`, imported on the first
                 solve, with presolve off: the program is dense).  On
                 hermitian x the program matches only the d^2 real
                 coordinates of the hermitian part, half the rows of the
                 general program, and never reaches a looser optimum.

The realignment witness is W = L^-1(Y) for the unit-(k^2,2)-norm matrix Y
attaining k2_dual(L(x), k^2); as L permutes entries, <W, x> = <Y, L(x)>.
Its S(k) norm is at most 1, so the bound holds for every operator, not only
density matrices: L maps each unit ket-bra with SR <= k factors to a matrix
of rank <= k^2 and unit Frobenius norm (L of a product ket-bra
|a tensor b><c tensor d| is the rank-one |a tensor c*><b* tensor d|, and a
ket-bra with SR <= k factors is a k x k grid of such terms), and the
pairing of Y with such a matrix is at most its (k^2,2) norm, 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kyfan
from .errors import InfeasibleError, ParameterError, PreconditionError
from .kyfan import _check_k
from .linalg import SINGULAR_ZERO_RTOL, BipartiteOperator, bipartite, realign_inverse, svd
from .schmidt import DEFAULT_RANK_TOL, PureState
from .sknorm import NormInterval, _exact_interval, _finish_interval, _sr_unit_vectors

COEFF_PRUNE_RTOL = 1e-12
DENSITY_TRACE_ATOL = 1e-9
DEFAULT_CERTIFY_TOL = 1e-9
# Unit generator factors this close entry by entry make a self-adjoint term.
_SELF_ADJOINT_ATOL = 1e-12

_LP_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def linprog(c: np.ndarray, A_eq: np.ndarray, b_eq: np.ndarray):
    """Solve min c.x s.t. A_eq x = b_eq, x >= 0 with HiGHS; returns scipy's
    OptimizeResult.

    scipy.optimize is imported on the first call, not with this module:
    only the LP oracle solves a program, and loading the solver takes most
    of the time of a cold `import entnorms`.

    HiGHS presolve is off.  The oracle's equality system has one row per
    real coordinate of x over dense generator columns, so presolve finds
    nothing to remove yet takes most of each solve: on a 2-vCPU Xeon the
    256 x 512 program of a 4x4 density at k = 2 solves in about 0.09 s
    instead of 0.25 s, to the same objective.  scipy reads only a bool
    here; it warns about a string such as "off" and keeps presolve on.
    """
    import scipy.optimize

    return scipy.optimize.linprog(
        c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs", options=dict(_LP_OPTIONS)
    )


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


def _svd_atoms(x: BipartiteOperator, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generators from x's own singular triples, Schmidt-chunked.

    Each singular vector is split into unit pieces of k consecutive
    Schmidt terms (coefficients at or below DEFAULT_RANK_TOL times its
    largest dropped), weighted by their norms; one stacked svd decomposes
    all of them.  Splitting each singular triple sigma u w^dag into the
    grid of chunk pairs reproduces x exactly with nonnegative
    coefficients, so these atoms alone are always a feasible
    decomposition.  Returns (lefts, rights, coefficients), ordered by
    triple, then left chunk, then right chunk.
    """
    m, n = x.dims
    s = x.svd[1]
    uu, sv, svh = x.singular_schmidt
    r = sv.shape[0] // 2
    sv = np.where(sv > DEFAULT_RANK_TOL * sv[:, :1], sv, 0.0)
    pieces, weights = [], []
    for g in range(0, sv.shape[1], k):
        c = sv[:, g : g + k]
        w = np.sqrt(np.vecdot(c, c))
        c = c / np.where(w > 0.0, w, 1.0)[:, None]
        piece = (uu[:, :, g : g + k] * c[:, None, :]) @ svh[:, g : g + k]
        pieces.append(piece.reshape(2 * r, m * n))
        weights.append(w)
    pieces, weights = np.stack(pieces, axis=1), np.stack(weights, axis=1)
    # Triple i pairs left chunk g of u_i with right chunk h of w_i.
    chunks = weights.shape[1]
    i, g, h = (a.reshape(-1) for a in np.indices((r, chunks, chunks)))
    live = (weights[i, g] > 0.0) & (weights[r + i, h] > 0.0)
    i, g, h = i[live], g[live], h[live]
    return pieces[i, g], pieces[r + i, h], s[i] * weights[i, g] * weights[r + i, h]


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
    diff = target.mat - (le.T * c) @ ri.conj()
    # Frobenius norm at unit scale: squaring entries near 1e300 overflows.
    peak = float(np.max(np.abs(diff)))
    residual = peak * float(np.linalg.norm(diff / peak)) if peak > 0.0 else 0.0
    return Decomposition(c, le, ri, dim_a, dim_b, k, residual)


def decomposition_from_mixture(x: BipartiteOperator, k: int) -> Decomposition:
    """Constructive decomposition by Schmidt-chunking x's singular triples.

    The weight sum_i sigma_i (sum_c |u_c|)(sum_d |w_d|) is a valid but
    generally loose upper bound on gamma_k(x); its virtue is being explicit
    and exact for targets whose singular vectors already have SR <= k.
    """
    m, n = x.dims
    _check_k(m, n, k)
    if float(np.max(np.abs(x.mat))) == 0.0:
        raise ParameterError("cannot decompose the zero operator")
    lefts, rights, coeffs = _svd_atoms(x, k)
    return build_decomposition(coeffs, lefts, rights, m, n, k, x)


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


def _running_sum(terms: np.ndarray) -> float:
    """0.0 + terms[0] + terms[1] + ... left to right (np.sum pairs from 8 terms on)."""
    return float(np.cumsum(np.append(0.0, terms))[-1])


def best_gamma_witness(x: BipartiteOperator, k: int) -> Witness:
    """Strongest available duality witness for a lower bound on gamma_k(x).

    Where gamma_k has a closed form the witness attains it: the sign
    unitary of x's SVD at k = min(dims), and on rank-one x = s u w^dag the
    ket-bra of the vectors attaining the dual values of u and w (dual_ketbra).
    Otherwise the candidates, in this order (ties go to the earlier one),
    are the sign unitary (operator norm 1, pairing the trace norm), the
    realignment witness of the module docstring (S(k) norm at most 1,
    pairing the realigned dual value) and, for hermitian x, each
    eigenprojector normalized by its exact S(k) value.  No ket-bra |v><w|
    of S(k) norm 1 can beat the sign unitary: its pairing |<v|x|w>| is at
    most |x|_op <= |x|_1.
    """
    m, n = x.dims
    _check_k(m, n, k)
    u, s, vh = x.svd
    if s[0] <= 0.0:
        raise ParameterError("the zero operator admits no witness")
    if k < min(m, n) and (s.size == 1 or s[1] <= SINGULAR_ZERO_RTOL * s[0]):
        uu, sv, svh = x.singular_schmidt
        a, _ = kyfan._attainer_from_svd(uu[0], sv[0], svh[0], k)
        b, _ = kyfan._attainer_from_svd(uu[1], sv[1], svh[1], k)
        ketbra = np.outer(a.reshape(-1), b.reshape(-1).conj())
        pairing = float(abs(np.vdot(ketbra, x.mat)))
        return Witness(bipartite(ketbra, m, n), 1.0, pairing, k, "dual_ketbra")
    if k == min(m, n):
        return Witness(bipartite(u @ vh, m, n), 1.0, float(np.sum(s)), k, "sign_unitary")

    # Candidates are scored by pairing / sk_upper; only the winner is built.
    y, realigned = kyfan._attainer_from_svd(*x.realigned_svd, k * k)
    candidates = [
        (float(np.sum(s)), 1.0, "sign_unitary", lambda: bipartite(u @ vh, m, n)),
        (realigned, 1.0, "realigned_dual", lambda: bipartite(realign_inverse(y, m, n), m, n)),
    ]
    if x.hermitian:
        # Each eigenprojector's S(k) value is its k leading squared Schmidt coefficients.
        lam, vecs = x.eigh
        sk_vals = np.sum(x.eigen_schmidt[1][:, :k] ** 2, axis=-1)
        live = np.flatnonzero((np.abs(lam) > SINGULAR_ZERO_RTOL * s[0]) & (sk_vals > 0.0))
        if live.size:
            i = live[np.argmax(np.abs(lam[live]) / sk_vals[live])]
            proj = lambda c=vecs[:, i]: bipartite(np.outer(c, c.conj()), m, n, symmetrize=True)
            candidates.append((float(abs(lam[i])), float(sk_vals[i]), "eigenprojector", proj))

    pairing, sk_upper, method, build = max(candidates, key=lambda c: c[0] / c[1])
    return Witness(build(), sk_upper, pairing, k, method)


def gamma_bounds(x: BipartiteOperator, k: int) -> NormInterval:
    """Certified bracket for gamma_k(x).

    The certificate is best_gamma_witness and the lower endpoint its
    bound.  That witness attains gamma_k at k = min(dims) (the trace norm)
    and on rank-one inputs (its dual_ketbra closed form), where the
    bracket is exact.  Otherwise the upper endpoint is the weight of the
    Schmidt-chunked singular triples, tagged svd_mixture, and the lower tag
    is the witness's method; the sampled LP oracle is the separate
    decomposition_oracle.
    """
    m, n = x.dims
    _check_k(m, n, k)
    if float(np.max(np.abs(x.mat))) == 0.0:
        return _exact_interval(0.0, "zero_operator")
    wit = best_gamma_witness(x, k)
    if k == min(m, n):
        return _exact_interval(wit.bound, "trace_norm_exact", wit)
    if wit.method == "dual_ketbra":
        return _exact_interval(wit.bound, "rank_one_exact", wit)

    duals = kyfan._dual_rows(x.singular_schmidt[1], k)[2].reshape(2, -1)
    mixture = _running_sum(x.svd[1][: duals.shape[1]] * duals[0] * duals[1])
    return _finish_interval(wit.bound, mixture, wit.method, "svd_mixture", wit)


def _random_pairs(
    rng: np.random.Generator, count: int, m: int, n: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """count Schmidt-truncated Gaussian ket-bra pairs (lefts, rights).

    One draw feeds one stacked truncation; pair i takes the real then the
    imaginary part of its left, then of its right factor, the order in
    which drawing the factors one at a time consumes the stream.
    """
    g = rng.standard_normal((count, 2, 2, m * n))
    vecs = _sr_unit_vectors(g[:, :, 0] + 1j * g[:, :, 1], m, n, k)
    return vecs[:, 0], vecs[:, 1]


def _complex_coordinates(mats: np.ndarray) -> np.ndarray:
    """The 2 d^2 real coordinates of (..., d, d) matrices: the real parts of
    the entries, row-major, then the imaginary parts."""
    flat = mats.reshape(*mats.shape[:-2], -1)
    return np.concatenate([flat.real, flat.imag], axis=-1)


def _hermitian_coordinates(mats: np.ndarray) -> np.ndarray:
    """The d^2 real coordinates of the hermitian parts (M + M^dag) / 2 of
    (..., d, d) matrices: the diagonal, then the real and the imaginary
    parts of the strict upper triangle, row-major."""
    rows, cols = np.triu_indices(mats.shape[-1], 1)
    upper = (mats[..., rows, cols] + mats[..., cols, rows].conj()) / 2.0
    diag = np.diagonal(mats, axis1=-2, axis2=-1).real
    return np.concatenate([diag, upper.real, upper.imag], axis=-1)


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
    are nonnegative and min sum c_i s.t. sum c_i G_i = x is a plain LP
    with one row per real coordinate: 2 d^2 in general.  If the solver
    still reports failure, one retry adds the matrix units with the phases
    of x's entries.  The returned value adds a penalty covering the
    reconstruction residual, so it is sound even when the solver
    terminates slightly off-feasible.

    On hermitian x the program is solved in the hermitian span: column i
    is herm(G_i) = (G_i + G_i^dag) / 2, matched against the d^2 real
    coordinates of x (its diagonal and its strict upper triangle).  A
    solution c stands for the adjoint pairs |v_i><w_i| and |w_i><v_i| at
    c_i / 2 each, or one term where G_i is its own adjoint, so the
    decomposition's weight is the program's objective.  The optimum is
    never looser than the general program's over the same pool: taking
    hermitian parts maps each of its feasible points to one of this
    program with the same objective.
    """
    m, n = x.dims
    d = m * n
    _check_k(m, n, k)
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    span_dim = 2 * d * d
    if budget < span_dim:
        raise ParameterError(
            f"budget {budget} is below {span_dim}, the real span dimension of "
            "the general program"
        )
    if float(np.max(np.abs(x.mat))) == 0.0:
        raise ParameterError("cannot decompose the zero operator")

    atom_lefts, atom_rights, _ = _svd_atoms(x, k)
    rand_lefts, rand_rights = _random_pairs(
        np.random.default_rng(seed), budget - len(atom_lefts), m, n, k
    )
    lefts = np.concatenate([atom_lefts, rand_lefts])
    rights = np.concatenate([atom_rights, rand_rights])
    # HiGHS tolerances are absolute, so the program is solved for x / scale
    # with the exact power of two nearest the trace norm (1 on densities).
    scale = math.ldexp(1.0, round(math.log2(float(np.sum(x.svd[1])))))
    coordinates = _hermitian_coordinates if x.hermitian else _complex_coordinates
    b_eq = coordinates(x.mat / scale)

    def solve(le: np.ndarray, ri: np.ndarray):
        a_eq = coordinates(np.einsum("ni,nj->nij", le, ri.conj())).T
        return linprog(np.ones(le.shape[0]), a_eq, b_eq)

    res = solve(lefts, rights)
    if res.status != 0 or res.x is None:
        # Matrix unit a*d + b is phase(x_ab) e_a e_b^dag, row-major over (a, b).
        phases = np.where(x.mat != 0, np.exp(1j * np.angle(x.mat)), 1.0).reshape(-1)
        lefts = np.vstack([lefts, np.repeat(np.eye(d), d, axis=0) * phases[:, None]])
        rights = np.vstack([rights, np.tile(np.eye(d), (d, 1))])
        res = solve(lefts, rights)
        if res.status != 0 or res.x is None:
            raise InfeasibleError(
                f"decomposition program failed twice (status {res.status}); "
                "budget too small for this operator"
            )

    c = np.clip(np.asarray(res.x, dtype=np.float64), 0.0, None) * scale
    keep = c > COEFF_PRUNE_RTOL * float(np.sum(c))
    if not np.any(keep):
        keep = c >= np.max(c)
    c, lefts, rights = c[keep], lefts[keep], rights[keep]
    if x.hermitian:
        # Column i matched herm(|v><w|), which the adjoint pair |v><w| and
        # |w><v| at c_i / 2 each reproduces; a self-adjoint |v><v| stays one term.
        pair = np.max(np.abs(lefts - rights), axis=1) > _SELF_ADJOINT_ATOL
        c = np.concatenate([np.where(pair, c / 2.0, c), c[pair] / 2.0])
        lefts, rights = np.concatenate([lefts, rights[pair]]), np.concatenate([rights, lefts[pair]])
    dec = build_decomposition(c, lefts, rights, m, n, k, x)
    upper = certified_upper_from_decomposition(x, dec)
    return upper, dec


def robustness_bounds(y: BipartiteOperator, k: int) -> NormInterval:
    """Certified bracket for the robustness R_k of a hermitian operator.

    The lower endpoint is the gamma_k lower bound (R_k >= gamma_k: every
    admissible splitting is in particular a decomposition), and the
    certificate is the gamma witness W behind it.  W is a robustness
    witness as well: |<W, c1 rho1 - c2 rho2>| <= (c1 + c2) |W|_S(k) for
    Schmidt-number-<=k densities rho1, rho2.  No search is involved.
    The upper bound splits the eigendecomposition eigenvector by
    eigenvector with the proven k = 1 pure formula
    R_1(|u><u|) = 2 gamma_1(u) - 1, admissible for every k.
    """
    if not y.hermitian:
        raise PreconditionError("robustness_bounds requires a hermitian operator")
    m, n = y.dims
    _check_k(m, n, k)

    gb = gamma_bounds(y, k)
    if gb.exact and k == min(m, n):
        # R_min equals the trace norm as well: splitting the eigenvalues by
        # sign is admissible at full k and matches the gamma lower bound.
        return NormInterval(gb.lower, gb.upper, "gamma_exact", "sign_split", True, gb.certificate)

    lam = y.eigh[0]
    live = np.abs(lam) > SINGULAR_ZERO_RTOL * float(np.max(np.abs(lam)))
    duals = kyfan._dual_rows(y.eigen_schmidt[1][live], 1)[2]
    # gamma_pure squares each dual value with pow(), as float_power does.
    upper = _running_sum(np.abs(lam[live]) * (2.0 * np.float_power(duals, 2) - 1.0))
    return _finish_interval(
        gb.lower, upper, f"gamma_{gb.lower_method}", "pure_split_k1", gb.certificate
    )


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


def conjecture_probe(v: PureState, k: int) -> ConjectureProbe:
    """Probe whether 2 gamma_k(v) - 1 falls inside the robustness bracket.

    v must be a unit vector within 1e-9 (PreconditionError otherwise).
    k = 1 and k = min(dims) sit outside the open regime (the equality is a
    theorem there) but are accepted for calibrating the bracket itself.
    """
    m, n = v.dims
    _check_k(m, n, k)
    nrm = v.norm()
    if abs(nrm - 1.0) > 1e-9:
        raise PreconditionError(f"conjecture_probe needs a unit vector, norm is {nrm}")
    candidate = 2.0 * gamma_pure(v, k) - 1.0
    proj = np.outer(v.amplitudes, v.amplitudes.conj())
    interval = robustness_bounds(bipartite(proj, m, n, symmetrize=True), k)
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
    is the gamma lower endpoint above 1 (always present on exceeds_k) or
    the decomposition certifying gamma <= 1."""

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
    lam, _ = rho.eigh
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
    seed: int = 0,
) -> SnCertification:
    """Three-way Schmidt-number certificate via gamma_k(rho) vs 1.

    A density matrix has SN <= k exactly when gamma_k = 1.  A gamma lower
    endpoint above 1 + tol proves SN > k, and its certificate is the
    witness.  Any decomposition with certified value at most 1 + tol
    proves SN <= k.  Decompositions are tried in order: a caller-supplied
    candidate (e.g. the known generators of a constructed mixture), the
    constructive Schmidt-chunk split, then the LP oracle (seeded by seed)
    when a budget is given.  The chunk split is skipped when the gamma
    upper endpoint exceeds 1 + tol: that endpoint is at most the chunk
    weight, so the split could not pass.  Anything else is undecided.
    """
    _require_density(rho, "sn_certify")
    m, n = rho.dims
    _check_k(m, n, k)

    gb = gamma_bounds(rho, k)
    if gb.lower > 1.0 + tol:
        return SnCertification("exceeds_k", k, gb, gb.certificate, None)

    def certifies(dec: Decomposition) -> bool:
        if dec.dims != rho.dims or dec.k > k:
            raise ParameterError("candidate decomposition does not match the query")
        if not _generators_admissible(dec, tol):
            raise ParameterError("candidate decomposition has inadmissible generators")
        return certified_upper_from_decomposition(rho, dec) <= 1.0 + tol

    if candidate is not None and certifies(candidate):
        return SnCertification("at_most_k", k, gb, None, candidate)

    if gb.upper <= 1.0 + tol:
        chunk = decomposition_from_mixture(rho, k)
        if certifies(chunk):
            return SnCertification("at_most_k", k, gb, None, chunk)

    if budget is not None:
        upper, dec = decomposition_oracle(rho, k, budget=budget, seed=seed)
        if upper <= 1.0 + tol:
            return SnCertification("at_most_k", k, gb, None, dec)

    return SnCertification("undecided", k, gb, None, None)


def _generators_admissible(dec: Decomposition, tol: float) -> bool:
    """Every generator must be unit within tol and of Schmidt rank <= k."""
    sides = np.concatenate([dec.lefts, dec.rights])
    if np.any(np.abs(np.linalg.norm(sides, axis=1) - 1.0) > max(tol, 1e-9)):
        return False
    s = svd(sides.reshape(-1, *dec.dims))[1]
    return s.shape[1] <= dec.k or not np.any(s[:, dec.k] > 1e-8 * s[:, 0])
