"""Schmidt-restricted operator norm S(k) and the restricted numerical radius.

For a bipartite operator X and a hermitian operator y,

    |X|_S(k)    = sup |<v|X|w>|  over unit v, w of Schmidt rank <= k,
    radius_k(y) = sup |<v|y|v>|  over unit v of Schmidt rank <= k.

Neither supremum is efficiently computable in general, so this module
produces certified two-sided bounds.  Lower bounds come from alternating
maximization (see-saw): for fixed w the optimal v is the normalized
Schmidt truncation of Xw, and symmetrically, so the objective never
decreases.  Upper bounds come from the operator norm, with closed forms on
rank-one inputs and at k = min(dims).

Block positivity and the radius both reduce to the S(k) norm of a shifted
operator.  For hermitian z with c = lambda_max(z), cI - z is PSD, and on
PSD operators the S(k) norm is the largest <v|.|v> over Schmidt rank <= k,
so |cI - z|_S(k) = c - min_v <v|z|v>.  Hence y is k-block positive exactly
when c >= |cI - y|_S(k), and

    radius_k(y) = max over sigma = +/-1 of |c_s I - sigma y|_S(k) - c_s,

with c_s = lambda_max(sigma y).  Each bracket on the shifted S(k) norm is
therefore a bracket on either quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, PreconditionError
from .kyfan import _check_k
from .linalg import BipartiteOperator, eig_hermitian, svd
from .schmidt import PureState, _truncate_raw, pure_state

EXACTNESS_RTOL = 1e-9
RANK_ONE_RTOL = 1e-12


def _is_exact(lower: float, upper: float) -> bool:
    return upper - lower <= EXACTNESS_RTOL * max(abs(lower), abs(upper))


@dataclass(frozen=True)
class NormInterval:
    """Certified bracket [lower, upper] for a norm value.

    The method tags record which bound produced each endpoint.  exact is set
    when the two endpoints agree to within 1e-9 relative to the value (in
    particular on closed-form paths, where both are the same number).
    certificate is the lower-side evidence, if any: the SeeSawResult pair
    for S(k) brackets, the best Witness for gamma brackets.
    """

    lower: float
    upper: float
    lower_method: str
    upper_method: str
    exact: bool
    certificate: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ParameterError("interval endpoints must be finite")
        if self.lower > self.upper + 1e-12 * max(1.0, abs(self.upper)):
            raise ParameterError(f"inconsistent interval [{self.lower}, {self.upper}]")
        if self.exact and not _is_exact(self.lower, self.upper):
            raise ParameterError("exact flag requires endpoints within 1e-9 relative")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _exact_interval(value: float, method: str, certificate=None) -> NormInterval:
    return NormInterval(value, value, method, method, True, certificate)


def _finish_interval(
    lower: float, upper: float, lo_tag: str, hi_tag: str, certificate=None
) -> NormInterval:
    # A sound lower bound can poke above a sound upper bound only by fp
    # noise; clamp that, but treat anything larger as a real bug.
    if lower > upper:
        if lower - upper > 1e-9 * max(1.0, abs(upper)):
            raise ParameterError(f"bound inconsistency: lower {lower} > upper {upper}")
        lower = upper
    return NormInterval(lower, upper, lo_tag, hi_tag, _is_exact(lower, upper), certificate)


@dataclass(frozen=True)
class SeeSawResult:
    """Best pair found by alternating maximization.

    value equals |<v|X|w>| for the returned pair; objective_trace holds the
    half-step objectives of the winning restart and is nondecreasing.
    """

    v: PureState
    w: PureState
    value: float
    iterations: int
    converged: bool
    seed: int
    objective_trace: tuple[float, ...]


def _check_budgets(restarts: int, max_iter: int, seed: int) -> None:
    if restarts < 1:
        raise ParameterError(f"restarts must be >= 1, got {restarts}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


def _basis_product_vec(m: int, n: int) -> np.ndarray:
    vec = np.zeros(m * n, dtype=np.complex128)
    vec[0] = 1.0
    return vec


def _random_sr_vec(rng: np.random.Generator, m: int, n: int, k: int) -> np.ndarray:
    g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    vec, gain = _truncate_raw(g.reshape(-1), m, n, k)
    if gain <= 0.0:  # vanishing Gaussian draw; practically unreachable
        return _basis_product_vec(m, n)
    return vec


def seesaw_lower(
    x: BipartiteOperator,
    k: int,
    restarts: int = 32,
    max_iter: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
) -> SeeSawResult:
    """Certified lower bound on |x|_S(k) by alternating maximization.

    Each restart starts from an independent Schmidt-truncated Gaussian w and
    alternates v <- trunc_k(Xw), w <- trunc_k(X^dag v), both normalized; each
    half-step maximizes the objective exactly for the other side fixed, so
    the trace is nondecreasing.  Restart r draws from a stream derived from
    (seed, r), which makes the result independent of evaluation order.
    """
    m, n = x.dims
    _check_k(m, n, k)
    _check_budgets(restarts, max_iter, seed)
    mat = x.mat

    if float(np.max(np.abs(mat))) == 0.0:
        v0 = pure_state(_basis_product_vec(m, n), m, n)
        return SeeSawResult(v0, v0, 0.0, 0, True, seed, ())

    best: tuple[float, np.ndarray, np.ndarray, int, bool, tuple[float, ...]] | None = None
    for ridx in range(restarts):
        rng = np.random.default_rng([seed, ridx])
        w = _random_sr_vec(rng, m, n, k)
        v = _basis_product_vec(m, n)
        trace: list[float] = []
        prev = -np.inf
        converged = False
        iterations = 0
        for iterations in range(1, max_iter + 1):
            u = mat @ w
            v_new, gain1 = _truncate_raw(u, m, n, k)
            if gain1 <= 0.0:
                converged = True
                break
            v = v_new
            trace.append(gain1)
            u2 = mat.conj().T @ v
            w_new, gain2 = _truncate_raw(u2, m, n, k)
            if gain2 <= 0.0:
                converged = True
                break
            w = w_new
            trace.append(gain2)
            if gain2 - prev <= tol * max(1.0, gain2):
                converged = True
                break
            prev = gain2
        value = float(abs(np.vdot(v, mat @ w)))
        if best is None or value > best[0]:
            best = (value, v, w, iterations, converged, tuple(trace))

    value, v, w, iterations, converged, trace = best
    return SeeSawResult(
        pure_state(v, m, n, require_normalized=False),
        pure_state(w, m, n, require_normalized=False),
        value, iterations, converged, seed, trace,
    )


def sk_pure(v: PureState, k: int) -> float:
    """S(k) norm of the projector |v><v|: sum of the k leading squared Schmidt
    coefficients of v.  Homogeneous of degree 2 in v."""
    _check_k(v.dim_a, v.dim_b, k)
    s = svd(v.matrix())[1]
    return float(np.sum(s[:k] ** 2))


def sk_elementary(v: PureState, w: PureState, k: int) -> float:
    """S(k) norm of the rank-one operator |v><w|: s_k_norm(v) * s_k_norm(w)."""
    if v.dims != w.dims:
        raise ParameterError(f"mismatched dims {v.dims} vs {w.dims}")
    _check_k(v.dim_a, v.dim_b, k)
    sv = svd(v.matrix())[1]
    sw = svd(w.matrix())[1]
    return float(np.linalg.norm(sv[:k]) * np.linalg.norm(sw[:k]))


def _sk_bounds_full(
    x: BipartiteOperator,
    k: int,
    restarts: int,
    max_iter: int,
    tol: float,
    seed: int,
    skip_seesaw_at: float | None = None,
) -> NormInterval:
    """Bounds on |x|_S(k), certified by the pair achieving the lower bound.

    The see-saw is skipped when the operator-norm upper bound is at or
    below skip_seesaw_at, where the caller's question is already decided;
    the reported lower endpoint is then the trivial 0 with no certificate.
    """
    m, n = x.dims
    _check_k(m, n, k)
    _check_budgets(restarts, max_iter, seed)

    u, s, vh = svd(x.mat)
    if s[0] <= 0.0:
        v0 = pure_state(_basis_product_vec(m, n), m, n)
        pair = SeeSawResult(v0, v0, 0.0, 0, True, seed, ())
        return _exact_interval(0.0, "zero_operator", pair)

    closed = None
    if k == min(m, n):
        # At maximal k the restriction is vacuous and the norm is the
        # operator norm; the optimal pair is the leading singular pair.
        closed = (u[:, 0], vh[0, :].conj(), float(s[0]), "operator_norm_exact")
    elif s.size == 1 or s[1] <= RANK_ONE_RTOL * s[0]:
        v_vec, gv = _truncate_raw(u[:, 0], m, n, k)
        w_vec, gw = _truncate_raw(vh[0, :].conj(), m, n, k)
        closed = (v_vec, w_vec, float(s[0] * gv * gw), "rank_one_exact")
    if closed is not None:
        v_vec, w_vec, value, tag = closed
        pair = SeeSawResult(
            pure_state(v_vec, m, n, require_normalized=False),
            pure_state(w_vec, m, n, require_normalized=False),
            value, 0, True, seed, (value,),
        )
        return _exact_interval(value, tag, pair)

    upper = float(s[0])
    if skip_seesaw_at is not None and upper <= skip_seesaw_at:
        return NormInterval(0.0, upper, "trivial", "operator_norm", False)

    ss = seesaw_lower(x, k, restarts=restarts, max_iter=max_iter, tol=tol, seed=seed)
    return _finish_interval(ss.value, upper, "seesaw", "operator_norm", ss)


def sk_bounds(
    x: BipartiteOperator,
    k: int,
    restarts: int = 32,
    max_iter: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
) -> NormInterval:
    """Certified bracket for |x|_S(k).

    Exact on rank-one inputs (value s_1 * s_k_norm(u_1) * s_k_norm(w_1)) and
    at k = min(dims) (operator norm); otherwise the see-saw lower bound
    against the operator-norm upper bound.  The certificate is the
    Schmidt-rank-<=k pair whose pairing |<v|x|w>| is the lower endpoint.
    """
    return _sk_bounds_full(x, k, restarts, max_iter, tol, seed)


def _shifted_sk(
    y: BipartiteOperator,
    lam: np.ndarray,
    sign: float,
    k: int,
    restarts: int,
    max_iter: int,
    tol: float,
    seed: int,
    margin: float,
) -> tuple[float, NormInterval]:
    """c = lambda_max(z) for z = sign * y, and the S(k) bracket of the PSD
    operator cI - z, certified by the pair attaining its lower endpoint.

    lam holds the eigenvalues of y, descending.  The see-saw is skipped
    when the operator-norm upper bound is at most c + margin.
    """
    m, n = y.dims
    c = float(lam[0]) if sign > 0 else -float(lam[-1])
    x_mat = c * np.eye(m * n, dtype=np.complex128) - sign * y.mat
    x_mat = (x_mat + x_mat.conj().T) / 2.0
    x = BipartiteOperator(x_mat, m, n, hermitian=True)
    return c, _sk_bounds_full(x, k, restarts, max_iter, tol, seed, c + margin)


def prod_radius_bounds(
    y: BipartiteOperator,
    k: int,
    restarts: int = 32,
    max_iter: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
) -> NormInterval:
    """Certified bracket for the Schmidt-restricted numerical radius of a
    hermitian operator.

    With c_s = lambda_max(sigma y) and [L_s, U_s] the S(k) bracket of the
    PSD operator c_s I - sigma y, the radius lies in
    [max_s (L_s - c_s), max_s (U_s - c_s)], capped at |y|; the product
    basis adds max_i |y_ii| to the lower candidates.  The closed
    forms of sk_bounds apply per sign, so the bracket is exact whenever
    the winning sign's shifted operator is rank one or k = min(dims).  The
    sign with the larger reach lambda_max(-sigma y) goes first, and a sign
    runs its see-saw only when its upper bound could beat the best lower
    bound so far.
    """
    if not y.hermitian:
        raise PreconditionError("prod_radius_bounds requires a hermitian operator")
    lam, _ = eig_hermitian(y.mat)
    opn = float(max(abs(lam[0]), abs(lam[-1])))
    lowers = [(float(np.max(np.abs(np.real(np.diag(y.mat))))), "product_basis")]
    uppers: list[tuple[float, str]] = []
    for sign in ((-1.0, 1.0) if lam[0] >= -lam[-1] else (1.0, -1.0)):
        c, iv = _shifted_sk(y, lam, sign, k, restarts, max_iter, tol, seed, max(lowers)[0])
        lowers.append((iv.lower - c, iv.lower_method))
        uppers.append((iv.upper - c, iv.upper_method))
    lower, lo_tag = max(lowers)
    upper, hi_tag = max(uppers)
    return _finish_interval(lower, min(upper, opn), lo_tag, hi_tag)


@dataclass(frozen=True)
class BlockPositivityResult:
    """Three-way verdict on k-block positivity of a hermitian operator.

    c is the largest eigenvalue, interval the bracket computed for
    |cI - y|_S(k), and witness (present for certified_negative) a
    Schmidt-rank-<=k pair whose pairing with cI - y exceeds c.
    """

    verdict: str
    c: float
    interval: NormInterval
    witness: SeeSawResult | None


def block_positivity_check(
    y: BipartiteOperator,
    k: int,
    tol: float = 1e-9,
    restarts: int = 32,
    max_iter: int = 500,
    seesaw_tol: float = 1e-10,
    seed: int = 0,
) -> BlockPositivityResult:
    """Decide whether <v|y|v> >= 0 for all Schmidt-rank-<=k vectors v.

    y is k-block positive exactly when c >= |cI - y|_S(k), with c its top
    eigenvalue.  The verdict is certified_positive when c clears the upper
    bound, certified_negative when c falls below the lower bound, else
    undecided.  Comparisons use a relative band of tol so exact-boundary
    cases decide deterministically.  The see-saw lower bound is only
    computed when the cheap upper bound does not already settle the
    question.
    """
    if not y.hermitian:
        raise PreconditionError("block_positivity_check requires a hermitian operator")
    lam, _ = eig_hermitian(y.mat)
    band = tol * max(1.0, abs(float(lam[0])), float(lam[0] - lam[-1]))
    c, interval = _shifted_sk(y, lam, 1.0, k, restarts, max_iter, seesaw_tol, seed, band)
    if c >= interval.upper - band:
        return BlockPositivityResult("certified_positive", c, interval, None)
    if c < interval.lower - band:
        return BlockPositivityResult("certified_negative", c, interval, interval.certificate)
    return BlockPositivityResult("undecided", c, interval, None)


def prod_radius_bisect(
    x: BipartiteOperator,
    k: int,
    depth: int = 30,
    tol: float = 1e-9,
    restarts: int = 8,
    max_iter: int = 500,
    seed: int = 0,
) -> NormInterval:
    """Bracket the restricted numerical radius: prod_radius_bounds with the
    given restarts, max_iter and seed.

    The radius is the least shift s making both sI + x and sI - x k-block
    positive, and the shifted-S(k) bracket answers that for every s at
    once.  depth and tol are accepted for compatibility and do not affect
    the result.
    """
    return prod_radius_bounds(x, k, restarts=restarts, max_iter=max_iter, seed=seed)
