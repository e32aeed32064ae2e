"""Independent reference computations the tests freeze expected values against."""

import itertools
import math

import numpy as np
from scipy.optimize import linprog, minimize


def kron_ref(a, b):
    """Kronecker product by the index formula, no library calls."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for s in range(rb):
                for t in range(cb):
                    out[i * rb + s, j * cb + t] = a[i, j] * b[s, t]
    return out


def partial_trace_ref(x, m, n, which):
    """Trace out one factor by summing matrix entries directly."""
    if which == "B":
        out = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                out[i, j] = sum(x[i * n + s, j * n + s] for s in range(n))
    else:
        out = np.zeros((n, n), dtype=complex)
        for s in range(n):
            for t in range(n):
                out[s, t] = sum(x[i * n + s, i * n + t] for i in range(m))
    return out


def partial_transpose_ref(x, m, n):
    """Transpose the second factor entry by entry."""
    out = np.zeros_like(np.asarray(x, dtype=complex))
    for i in range(m):
        for j in range(m):
            for s in range(n):
                for t in range(n):
                    out[i * n + t, j * n + s] = x[i * n + s, j * n + t]
    return out


def realign_ref(x, m, n):
    """Reshuffle x[(i,k),(j,l)] into out[(i,j),(k,l)] with explicit loops."""
    out = np.zeros((m * m, n * n), dtype=complex)
    for i in range(m):
        for j in range(m):
            for s in range(n):
                for t in range(n):
                    out[i * m + j, s * n + t] = x[i * n + s, j * n + t]
    return out


def k2_norm_ref(y, k):
    """Root of the sum of the k largest squared singular values."""
    sig = np.linalg.svd(y, compute_uv=False)
    return float(np.sqrt(np.sum(sig[:k] ** 2)))


def ascent_k2_dual(x, k, restarts=200, seed=0):
    """Best-of-restarts block ascent of |<X,Y>| / ||Y||_(k,2).

    Y is kept factored as U diag(tau) V*.  The frame block has the closed
    Procrustes maximizer (align U, V with the singular frames of X), and
    the tau block is solved over the defining constraint set, one ball per
    k-subset of indices, with SLSQP.  Each restart varies the tau start.
    The returned value is evaluated on the explicit final Y, so it is a
    certified lower bound on the dual norm whatever the solver did.
    """
    m, n = x.shape
    p = min(m, n)
    ux, sx, vxh = np.linalg.svd(x, full_matrices=False)

    def subset_jac(t, idx):
        j = np.zeros_like(t)
        j[idx] = -2.0 * t[idx]
        return j

    cons = [{"type": "ineq",
             "fun": (lambda t, idx=list(s): 1.0 - np.sum(t[idx] ** 2)),
             "jac": (lambda t, idx=list(s): subset_jac(t, idx))}
            for s in itertools.combinations(range(p), k)]

    def topk2(t):
        return float(np.sqrt(np.sum(np.sort(np.abs(t))[::-1][:k] ** 2)))

    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(restarts):
        t0 = np.abs(rng.standard_normal(p))
        t0 /= max(topk2(t0), 1e-12)
        res = minimize(lambda t: -(sx @ t), t0, jac=lambda t: -sx,
                       method="SLSQP", bounds=[(0.0, None)] * p,
                       constraints=cons,
                       options={"maxiter": 300, "ftol": 1e-14})
        tau = np.clip(res.x, 0.0, None)
        y = (ux * tau) @ vxh
        h = k2_norm_ref(y, k)
        if h > 1e-12:
            val = abs(np.vdot(x, y)) / h
            if val > best:
                best = float(val)
    return best


def atomic_lp_dual(x, k, budget=1200, seed=0):
    """Upper bound on the (k,2) dual norm by a restricted atomic program.

    Minimizes the coefficient sum over decompositions of x into sampled
    unit-Frobenius rank<=k atoms.  The pool always contains the chunks of
    x's own singular expansion, so the program is feasible and the value
    can only sit above the true minimum over all decompositions.
    """
    m, n = x.shape
    u, s, vh = np.linalg.svd(x)
    keep = s > 1e-13 * max(s[0], 1e-300)
    rank = int(np.sum(keep))
    atoms = []
    for start in range(0, rank, k):
        stop = min(start + k, rank)
        chunk = (u[:, start:stop] * s[start:stop]) @ vh[start:stop, :]
        atoms.append(chunk / np.linalg.norm(chunk))
    rng = np.random.default_rng(seed)
    while len(atoms) < budget:
        a = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        b = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        g = a @ b
        atoms.append(g / np.linalg.norm(g))
    cols = np.stack([a.ravel() for a in atoms], axis=1)
    a_eq = np.vstack([cols.real, cols.imag])
    b_eq = np.concatenate([x.ravel().real, x.ravel().imag])
    res = linprog(np.ones(len(atoms)), A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError("atomic reference program infeasible")
    return float(res.fun)


def product_overlap_grid(v, n, steps=240):
    """Grid search of max |<a x b|v>| over product states, 2 x n only.

    For a fixed left vector the best right vector is closed form, so only
    the left Bloch angles are gridded.
    """
    mat = np.asarray(v, dtype=complex).reshape(2, n)
    theta = np.linspace(0.0, np.pi / 2, steps)
    phi = np.linspace(0.0, 2 * np.pi, steps, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    amps = np.stack([np.cos(tt), np.sin(tt) * np.exp(1j * pp)], axis=-1)
    rows = amps.conj() @ mat
    return float(np.max(np.linalg.norm(rows, axis=-1)))


def local_filter_ref(rho, m, n, max_iter=200, tol=1e-9, support_rtol=1e-12):
    """Alternating marginal whitening with explicit Kronecker lifts.

    The same iteration as the library filter, written on d x d matrices:
    each round symmetrizes, whitens the first factor with
    (S_A (x) I) rho (S_A (x) I)^dag, renormalizes, whitens the second with
    (I (x) S_B), renormalizes.  Returns (rho, f_a, f_b, iterations,
    converged).
    """

    def sym(x):
        return (x + x.conj().T) / 2.0

    def spectrum(marginal):
        lam, vecs = np.linalg.eigh(sym(marginal))
        lam, vecs = lam[::-1], vecs[:, ::-1]
        rank = int(np.sum(lam > support_rtol * max(lam[0], 0.0)))
        return lam, vecs, rank

    def flat(spec):
        lam, _, rank = spec
        target = np.zeros_like(lam)
        target[:rank] = 1.0 / rank
        return np.linalg.norm(lam - target) <= tol

    def pinv_sqrt(spec):
        lam, vecs, rank = spec
        inv = np.zeros_like(lam)
        inv[:rank] = 1.0 / np.sqrt(lam[:rank])
        return (vecs * inv) @ vecs.conj().T

    def renormalize(x):
        x = sym(x)
        return x / np.trace(x).real

    work = np.array(rho, dtype=complex)
    f_a = np.eye(m, dtype=complex)
    f_b = np.eye(n, dtype=complex)
    for iterations in range(max_iter + 1):
        work = sym(work)
        spec_a = spectrum(partial_trace_ref(work, m, n, "B"))
        converged = flat(spec_a) and flat(spectrum(partial_trace_ref(work, m, n, "A")))
        if converged or iterations == max_iter:
            return work, f_a, f_b, iterations, converged
        step_a = pinv_sqrt(spec_a)
        lift = np.kron(step_a, np.eye(n))
        work = renormalize(lift @ work @ lift.conj().T)
        f_a = step_a @ f_a
        step_b = pinv_sqrt(spectrum(partial_trace_ref(work, m, n, "A")))
        lift = np.kron(np.eye(m), step_b)
        work = renormalize(lift @ work @ lift.conj().T)
        f_b = step_b @ f_b


def _truncate_ref(u, m, n, k):
    """Unit top-k Schmidt truncation of one vector and its gain."""
    uu, s, vh = np.linalg.svd(u.reshape(m, n), full_matrices=False)
    kk = min(k, s.size)
    gain = float(np.linalg.norm(s[:kk]))
    if gain <= 0.0:
        return u.reshape(-1), 0.0
    return ((uu[:, :kk] * (s[:kk] / gain)) @ vh[:kk, :]).reshape(-1), gain


def random_sr_vec_ref(rng, m, n, k):
    """One Schmidt-truncated complex Gaussian, real part drawn first."""
    g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    vec, gain = _truncate_ref(g.reshape(-1), m, n, k)
    if gain <= 0.0:
        vec = np.zeros(m * n, dtype=complex)
        vec[0] = 1.0
    return vec


def seesaw_loop_ref(mat, m, n, k, restarts, max_iter, seed, tol, each=False):
    """The S(k) see-saw one restart at a time, on the unscaled matrix.

    Restart r starts from random_sr_vec_ref(default_rng([seed, r])) and
    alternates v <- trunc_k(X w), w <- trunc_k(X^dag v) until a half-step
    has zero gain, a full step gains at most tol * max(1, gain), or
    max_iter steps ran.  Returns (value, iterations, converged, trace) of
    the first restart with the largest |<v|X|w>|, or with each, the list
    of every restart's.
    """
    runs = []
    for ridx in range(restarts):
        rng = np.random.default_rng([seed, ridx])
        w = random_sr_vec_ref(rng, m, n, k)
        v = np.zeros(m * n, dtype=complex)
        v[0] = 1.0
        trace = []
        prev = -np.inf
        converged = False
        for iterations in range(1, max_iter + 1):
            v_new, gain1 = _truncate_ref(mat @ w, m, n, k)
            if gain1 <= 0.0:
                converged = True
                break
            v = v_new
            trace.append(gain1)
            w_new, gain2 = _truncate_ref(mat.conj().T @ v, m, n, k)
            if gain2 <= 0.0:
                converged = True
                break
            w = w_new
            trace.append(gain2)
            if gain2 - prev <= tol * max(1.0, gain2):
                converged = True
                break
            prev = gain2
        runs.append((float(abs(np.vdot(v, mat @ w))), iterations, converged, tuple(trace)))
    return runs if each else max(runs, key=lambda run: run[0])


def rayleigh_loop_ref(mat, m, n, k, restarts, max_iter, seed, tol, each=False):
    """The Rayleigh block ascent one restart at a time, with explicit
    isometries.

    Restart r starts from the right Schmidt frame B (n x k) of
    random_sr_vec_ref(default_rng([seed, r])).  A step takes A as the top
    eigenvector of L^dag X L with L = I (x) B, orthonormalizes it by QR,
    then B the same way with L = A (x) I; both objectives are recorded.
    A restart stops after a step gaining at most tol * max(max |X_ij|,
    gain), which no rescaling of X moves, or after max_iter steps.
    Returns (value, iterations, converged, trace) of the first restart
    with the largest <v|X|v>, or with each, the list of every restart's.
    """
    peak = float(np.max(np.abs(mat)))

    def top(iso):
        w, vecs = np.linalg.eigh(iso.conj().T @ mat @ iso)
        return w[-1], vecs[:, -1]

    runs = []
    for ridx in range(restarts):
        rng = np.random.default_rng([seed, ridx])
        start = random_sr_vec_ref(rng, m, n, k).reshape(m, n)
        frame = np.linalg.svd(start)[2][:k].T
        trace = []
        prev = -np.inf
        converged = False
        for iterations in range(1, max_iter + 1):
            gain1, a = top(np.einsum("ac,jt->ajct", np.eye(m), frame).reshape(m * n, m * k))
            a = np.linalg.qr(a.reshape(m, k))[0]
            gain2, b = top(np.einsum("it,jc->ijct", a, np.eye(n)).reshape(m * n, n * k))
            b = b.reshape(n, k)
            trace += [gain1, gain2]
            if gain2 - prev <= tol * max(peak, gain2):
                converged = True
                break
            prev = gain2
            frame = np.linalg.qr(b)[0]
        v = (a @ b.T).reshape(-1)
        runs.append((float(abs(np.vdot(v, mat @ v))), iterations, converged, tuple(trace)))
    return runs if each else max(runs, key=lambda run: run[0])


def svd_atoms_loop_ref(mat, m, n, k, rank_tol=1e-10, zero_rtol=1e-14):
    """Schmidt-chunked singular triples of mat, one vector at a time.

    Each singular triple s u w^dag above zero_rtol * s_1 has u and w split
    into unit pieces of k consecutive Schmidt terms (coefficients at or
    below rank_tol times the vector's largest dropped) with their norms as
    weights; every (left piece, right piece) pair of a triple is one atom
    of coefficient s * weight * weight.  Returns (lefts, rights, coeffs)
    ordered by triple, then left piece, then right piece.
    """
    def pieces(vec):
        uu, s, vh = np.linalg.svd(vec.reshape(m, n), full_matrices=False)
        rank = int(np.sum(s > rank_tol * s[0]))
        out = []
        for g in range(0, rank, k):
            c = s[g:min(g + k, rank)]
            w = float(np.linalg.norm(c))
            out.append((((uu[:, g:g + c.size] * (c / w)) @ vh[g:g + c.size]).reshape(-1), w))
        return out

    u, s, vh = np.linalg.svd(mat)
    lefts, rights, coeffs = [], [], []
    for i in range(s.size):
        if s[i] <= zero_rtol * s[0]:
            break
        for left, nu in pieces(u[:, i]):
            for right, nw in pieces(vh[i].conj()):
                lefts.append(left)
                rights.append(right)
                coeffs.append(float(s[i]) * nu * nw)
    return np.array(lefts), np.array(rights), np.array(coeffs)


def full_span_lp_ref(x, lefts, rights):
    """Optimum of min sum c_i s.t. sum c_i |lefts_i><rights_i| = x, c >= 0,
    with one equality row per real and per imaginary entry of x (2 d^2
    rows), solved by HiGHS with presolve at scipy's default."""
    tn = float(np.sum(np.linalg.svd(x, compute_uv=False)))
    cols = np.einsum("ni,nj->nij", lefts, rights.conj()).reshape(len(lefts), -1)
    target = np.asarray(x).reshape(-1) / tn
    res = linprog(np.ones(len(lefts)), A_eq=np.vstack([cols.real.T, cols.imag.T]),
                  b_eq=np.concatenate([target.real, target.imag]), bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError("full-span reference program failed")
    return float(res.fun) * tn


def k2_dual_loop_ref(sigma, k, tie_guard=1e-12, zero_rtol=1e-14):
    """The (k,2)-dual closed form on one descending profile, one break
    candidate at a time, in Python floats.

    Entries below zero_rtol times the first count as zero.  Candidates
    k - 1, ..., 1 are tried from the top; the first whose entry exceeds
    the remaining tail spread over the k - cand slots left, by more than
    tie_guard times the first entry, is r.  The value is computed on the
    profile scaled by the power of two that puts its first entry in
    [1/2, 1), while r and sigma_tilde come from the unscaled profile.
    Returns (r, sigma_tilde, value).
    """

    def cut(arr):
        arr = np.clip(np.asarray(arr, dtype=np.float64), 0.0, None)
        if arr[0] > 0.0:
            arr[arr < zero_rtol * arr[0]] = 0.0
        return arr

    def brk(clean):
        guard = tie_guard * float(clean[0])
        total = float(np.sum(clean))

        def tail(r):
            return total - float(np.sum(clean[:r])) if r < clean.size else 0.0

        r = 0
        for cand in range(k - 1, 0, -1):
            s_cand = float(clean[cand - 1]) if cand <= clean.size else 0.0
            if s_cand > tail(cand) / (k - cand) + guard:
                r = cand
                break
        return r, tail(r) / (k - r)

    clean = cut(sigma)
    exp = math.frexp(float(clean[0]))[1]
    unit = np.ldexp(clean, -exp)
    r, sigma_tilde = brk(unit)
    head = float(np.sum(unit[:r] ** 2))
    value = math.ldexp(math.sqrt(head + (k - r) * sigma_tilde**2), exp)
    return (*brk(clean), value)


def ascend_no_exit_ref(x, k, restarts, max_iter, seed, kernel):
    """sknorm._ascend without the operator-norm exit: the same kernels and
    per-restart stop, so every restart runs until its own step stalls.

    Monkeypatched over sknorm._ascend, it gives the results the searches
    would give if no restart were stopped at the ceiling.
    """
    from entnorms import sknorm
    from entnorms.schmidt import pure_state

    m, n = x.dims
    mat, e = sknorm._scaled(x)
    step, floor, pairs = kernel(mat, e, m, n, k, restarts, seed)
    live = np.arange(restarts)
    iterations = np.zeros(restarts, dtype=np.int64)
    converged = np.zeros(restarts, dtype=bool)
    prev = np.full(restarts, -np.inf)
    gains = []
    for it in range(1, max_iter + 1):
        iterations[live] = it
        gains.append(np.full((restarts, 2), np.nan))
        moved = step(live, gains[-1])
        converged[np.setdiff1d(live, moved)] = True
        g2 = gains[-1][moved, 1]
        stop = g2 - prev[moved] <= sknorm.SEESAW_TOL * np.maximum(floor, g2)
        converged[moved[stop]] = True
        prev[moved] = g2
        live = moved[~stop]
        if live.size == 0:
            break
    v, w = pairs()
    values = np.ldexp(np.abs(np.vecdot(v, (mat @ w[..., None])[..., 0])), e)
    best = int(np.argmax(values))
    trace = np.ldexp(np.stack(gains)[: iterations[best], best].reshape(-1), e)
    v_best = pure_state(v[best], m, n, require_normalized=False)
    w_best = v_best if w is v else pure_state(w[best], m, n, require_normalized=False)
    return sknorm.SeeSawResult(
        v_best, w_best, float(values[best]), int(iterations[best]), bool(converged[best]),
        seed, tuple(trace[~np.isnan(trace)].tolist()),
    )
