"""Independent checks of entnorms outputs.

Every reference value here is computed with numpy from the input matrix
or vector alone: operator and trace norms, Schmidt coefficients, an
index-by-index realignment, the analytic Schmidt number of the inputs
the workloads construct.  Nothing is imported from entnorms.  A check
that fails raises CheckFailed with a message naming the quantity.
"""

from __future__ import annotations

import math

import numpy as np

REL = 1e-9
RANK_RTOL = 1e-8


class CheckFailed(AssertionError):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def op_norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2))


def trace_norm(mat: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def schmidt_coeffs(vec: np.ndarray, m: int, n: int) -> np.ndarray:
    return np.linalg.svd(np.asarray(vec).reshape(m, n), compute_uv=False)


def schmidt_rank(vec: np.ndarray, m: int, n: int) -> int:
    s = schmidt_coeffs(vec, m, n)
    return int(np.sum(s > RANK_RTOL * s[0])) if s[0] > 0 else 0


def realign_by_index(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """L[(i, j), (k, l)] = X[(i, k), (j, l)], one entry at a time."""
    out = np.zeros((m * m, n * n), dtype=complex)
    for i in range(m):
        for j in range(m):
            for k in range(n):
                for l in range(n):
                    out[i * m + j, k * n + l] = mat[i * n + k, j * n + l]
    return out


def k_support_norm(s: np.ndarray, k: int) -> float:
    """Dual of the l2 norm of the k largest entries of s >= 0 (the
    k-support norm, Argyriou, Foygel and Srebro 2012): with s sorted
    descending and r the unique integer in [0, k) such that
    s[k-r-2] > tail(k-r-1) / (r+1) >= s[k-r-1], where tail(j) sums s[j:],
    the value is sqrt(sum_{i < k-r-1} s_i^2 + tail(k-r-1)^2 / (r+1))."""
    s = np.sort(np.abs(np.asarray(s, dtype=float)))[::-1]
    s = np.concatenate([s, np.zeros(max(0, k - s.size))])
    for r in range(k):
        head = k - r - 1
        tail = float(np.sum(s[head:])) / (r + 1)
        above = head == 0 or s[head - 1] > tail * (1 - 1e-12)
        if above and tail >= s[head] * (1 - 1e-12):
            return math.sqrt(float(np.sum(s[:head] ** 2)) + (r + 1) * tail**2)
    raise CheckFailed(f"no break index for profile {s} at k={k}")


def isotropic_sn_at_most(p: float, d: int, k: int) -> bool:
    """Isotropic state p|Phi+><Phi+| + (1-p) I/d^2: SN <= k iff its
    fidelity with Phi+ is at most k/d (Terhal and Horodecki 2000)."""
    return p + (1 - p) / d**2 <= k / d


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def interval(lower: float, upper: float, what: str) -> None:
    require(math.isfinite(lower) and math.isfinite(upper), f"{what}: non-finite endpoint")
    require(lower <= upper + REL * max(1.0, abs(upper)),
            f"{what}: lower {lower!r} > upper {upper!r}")


def contains(lower: float, upper: float, value: float, what: str, rel: float = REL) -> None:
    slack = rel * max(1.0, abs(value))
    require(lower - slack <= value <= upper + slack,
            f"{what}: [{lower!r}, {upper!r}] misses the reference {value!r}")


def sk_bracket(iv, mat: np.ndarray, k: int, m: int, n: int, pure=None) -> None:
    """S(k) bracket: sound, the upper equal to the operator norm unless the
    input is a pure projector, whose value is sum_{i<=k} s_i^2."""
    interval(iv.lower, iv.upper, "sk_bounds")
    opn = op_norm(mat)
    if pure is None:
        require(_close(iv.upper, opn), f"sk_bounds: upper {iv.upper!r} != operator norm {opn!r}")
    else:
        s = schmidt_coeffs(pure, m, n)
        contains(iv.lower, iv.upper, float(np.sum(s[:k] ** 2)), "sk_bounds(pure)")
        require(iv.upper <= opn * (1 + REL), f"sk_bounds: upper {iv.upper!r} above operator norm")


def gamma_bracket(iv, mat: np.ndarray, k: int, m: int, n: int, pure=None) -> None:
    """gamma_k bracket: lower at least the trace norm; on a pure projector
    it holds the squared k-support norm of the Schmidt coefficients,
    which is (sum s_i)^2 at k = 1."""
    interval(iv.lower, iv.upper, "gamma_bounds")
    tn = trace_norm(mat)
    require(iv.lower >= tn * (1 - REL), f"gamma_bounds: lower {iv.lower!r} below trace norm {tn!r}")
    if pure is not None:
        value = k_support_norm(schmidt_coeffs(pure, m, n), k) ** 2
        contains(iv.lower, iv.upper, value, "gamma_bounds(pure)")


def robustness_bracket(iv, mat: np.ndarray, sn_at_most_k) -> None:
    """R_k >= gamma_k >= trace norm; a density of SN <= k has R_k = 1."""
    interval(iv.lower, iv.upper, "robustness_bounds")
    tn = trace_norm(mat)
    require(iv.lower >= tn * (1 - REL), f"robustness_bounds: lower {iv.lower!r} below trace norm {tn!r}")
    if sn_at_most_k:
        require(iv.lower <= 1 + REL, f"robustness_bounds: lower {iv.lower!r} > 1 on a state of SN <= k")


def verdict(v: str, sn_at_most_k, what: str) -> None:
    """sn_at_most_k is True, False, or None when the Schmidt number is unknown."""
    require(v in ("at_most_k", "exceeds_k", "undecided"), f"{what}: unknown verdict {v!r}")
    if sn_at_most_k is True:
        require(v != "exceeds_k", f"{what}: exceeds_k on a state of Schmidt number <= k")
    if sn_at_most_k is False:
        require(v != "at_most_k", f"{what}: at_most_k on a state of Schmidt number > k")


def generators(lefts, rights, k: int, m: int, n: int, what: str) -> None:
    for side in (lefts, rights):
        for vec in np.asarray(side):
            require(abs(float(np.linalg.norm(vec)) - 1.0) <= 1e-8, f"{what}: generator is not a unit vector")
            r = schmidt_rank(vec, m, n)
            require(r <= k, f"{what}: generator of Schmidt rank {r} > {k}")


def certified_value(coefficients, lefts, rights, mat: np.ndarray, k: int, m: int, n: int) -> float:
    """Weight plus ceil(min(m, n)/k) times the trace norm of the residual."""
    c = np.asarray(coefficients, dtype=float)
    require(bool(np.all(c >= 0)), "decomposition: negative coefficient")
    rec = np.einsum("t,ti,tj->ij", c, np.asarray(lefts), np.asarray(rights).conj())
    return float(np.sum(c)) + math.ceil(min(m, n) / k) * trace_norm(mat - rec)


def sn_certification(cert, mat: np.ndarray, k: int, m: int, n: int, sn_at_most_k, tol: float = 1e-9) -> None:
    verdict(cert.verdict, sn_at_most_k, "sn_certify")
    gamma_bracket(cert.gamma, mat, k, m, n)
    if cert.verdict == "exceeds_k":
        require(cert.gamma.lower > 1 + tol, "sn_certify: exceeds_k without gamma lower > 1")
    if cert.verdict == "at_most_k":
        dec = cert.decomposition
        generators(dec.lefts, dec.rights, k, m, n, "sn_certify")
        value = certified_value(dec.coefficients, dec.lefts, dec.rights, mat, k, m, n)
        require(value <= 1 + tol + REL, f"sn_certify: at_most_k but the decomposition certifies {value!r}")


def detection(report, mat: np.ndarray, k: int, m: int, n: int, sn_at_most_k) -> None:
    """At k = 1 the value is the trace norm of the realigned matrix (or,
    after filtering, at least that); no detection on a state of SN <= k."""
    require(report.detected == (report.value > report.threshold + report.tol),
            "detect: detected flag disagrees with value")
    if k == 1:
        ref = trace_norm(realign_by_index(mat, m, n))
        if report.filtered:
            require(report.value >= ref * (1 - REL), f"detect: filtered value {report.value!r} below raw {ref!r}")
        else:
            require(_close(report.value, ref), f"detect: value {report.value!r} != realigned trace norm {ref!r}")
    if sn_at_most_k:
        require(not report.detected, "detect: detection on a state of Schmidt number <= k")


def block_positivity(res, mat: np.ndarray, positive) -> None:
    """positive is the analytic k-block positivity, or None when unknown."""
    lam = np.linalg.eigvalsh(mat)
    require(_close(res.c, float(lam[-1])), f"blockpos: c {res.c!r} != top eigenvalue {lam[-1]!r}")
    interval(res.interval.lower, res.interval.upper, "blockpos interval")
    if positive is True:
        require(res.verdict != "certified_negative", "blockpos: certified_negative on a k-block-positive operator")
    if positive is False:
        require(res.verdict != "certified_positive", "blockpos: certified_positive on an operator that is not k-block positive")


# prod_radius_bisect documents that its endpoints inherit the relative
# decision band (tol = 1e-9) of block_positivity_check, whose scale is up
# to |c| + spread, about three times the operator norm.
RADIUS_BAND = 1e-8


def radius_bracket(iv, mat: np.ndarray, what: str, radius=None) -> None:
    """The restricted radius lies in [max_i |y_ii|, |y|_op]: product basis
    vectors have Schmidt rank 1.  radius, when known, must be inside."""
    interval(iv.lower, iv.upper, what)
    diag = float(np.max(np.abs(np.diag(mat))))
    opn = op_norm(mat)
    require(iv.lower >= -REL, f"{what}: negative lower {iv.lower!r}")
    require(iv.upper >= diag - RADIUS_BAND * opn, f"{what}: upper {iv.upper!r} below max |y_ii| {diag!r}")
    require(iv.lower <= opn * (1 + RADIUS_BAND), f"{what}: lower {iv.lower!r} above operator norm {opn!r}")
    require(iv.upper <= opn * (1 + RADIUS_BAND), f"{what}: upper {iv.upper!r} above operator norm {opn!r}")
    if radius is not None:
        contains(iv.lower, iv.upper, radius, what, rel=RADIUS_BAND)


def overlap(a, b, what: str) -> None:
    slack = RADIUS_BAND * max(1.0, abs(a.upper), abs(b.upper))
    require(max(a.lower, b.lower) <= min(a.upper, b.upper) + slack,
            f"{what}: [{a.lower!r}, {a.upper!r}] and [{b.lower!r}, {b.upper!r}] are disjoint")


def oracle(upper: float, dec, mat: np.ndarray, k: int, m: int, n: int) -> None:
    tn = trace_norm(mat)
    require(upper >= tn * (1 - REL), f"oracle: upper {upper!r} below trace norm {tn!r}")
    generators(dec.lefts, dec.rights, k, m, n, "oracle")
    value = certified_value(dec.coefficients, dec.lefts, dec.rights, mat, k, m, n)
    require(value <= upper * (1 + REL), f"oracle: decomposition certifies {value!r} > reported upper {upper!r}")
