import numpy as np
import pytest

import entnorms.sknorm as sknorm
from entnorms.errors import NumericalError, ParameterError, PreconditionError
from entnorms.linalg import bipartite, inject_svd_failure, swap_operator
from entnorms.schmidt import pure_state, schmidt_rank
from entnorms.sknorm import (
    SEESAW_TOL,
    NormInterval,
    _finish_interval,
    _rayleigh_ascent,
    block_positivity_check,
    prod_radius_bisect,
    prod_radius_bounds,
    seesaw_lower,
    sk_bounds,
    sk_elementary,
    sk_pure,
)
from entnorms.states import EnsembleSpec, generate
from oracles import ascend_no_exit_ref, rayleigh_loop_ref, seesaw_loop_ref

SQ7 = np.sqrt(0.7)
SQ3 = np.sqrt(0.3)


def two_term_state():
    v = np.zeros(4, dtype=complex)
    v[0] = SQ7
    v[3] = SQ3
    return pure_state(v, 2, 2)


def max_entangled(n):
    v = np.zeros(n * n, dtype=complex)
    v[:: n + 1] = 1.0 / np.sqrt(n)
    return pure_state(v, n, n)


def haar_state(rng, m, n):
    g = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    return pure_state(g / np.linalg.norm(g), m, n)


def projector(v):
    return bipartite(np.outer(v.amplitudes, v.amplitudes.conj()), v.dim_a, v.dim_b,
                     symmetrize=True)


def test_sk_pure_values():
    v = two_term_state()
    assert abs(sk_pure(v, 2) - 1.0) < 1e-12
    assert abs(sk_pure(v, 1) - 0.7) < 1e-12
    for n in (2, 3):
        for k in range(1, n + 1):
            assert abs(sk_pure(max_entangled(n), k) - k / n) < 1e-12


def test_sk_pure_matches_seesaw():
    """The alternating optimizer recovers the closed-form projector value."""
    res = seesaw_lower(projector(two_term_state()), 1, restarts=32, seed=0)
    assert abs(res.value - 0.7) < 1e-8


def test_sk_elementary_values():
    prod = pure_state([1.0, 0.0, 0.0, 0.0], 2, 2)
    assert abs(sk_elementary(prod, prod, 1) - 1.0) < 1e-12
    b = max_entangled(2)
    assert abs(sk_elementary(b, b, 1) - 0.5) < 1e-12
    with pytest.raises(ParameterError):
        sk_elementary(prod, max_entangled(3), 1)


def test_sk_elementary_matches_seesaw_on_ketbra():
    rng = np.random.default_rng(18)
    v = haar_state(rng, 3, 3)
    w = haar_state(rng, 3, 3)
    x = bipartite(np.outer(v.amplitudes, w.amplitudes.conj()), 3, 3)
    for k in (1, 2):
        res = seesaw_lower(x, k, restarts=16, seed=1)
        assert abs(res.value - sk_elementary(v, w, k)) < 1e-6


def test_seesaw_identity_and_zero():
    x = bipartite(np.eye(9), 3, 3)
    res = seesaw_lower(x, 1, restarts=4, seed=0)
    assert abs(res.value - 1.0) < 1e-10
    res = seesaw_lower(bipartite(np.zeros((4, 4)), 2, 2), 1, restarts=2, seed=0)
    assert res.value == 0.0
    assert res.converged


def test_seesaw_trace_is_monotone_and_consistent():
    rng = np.random.default_rng(25)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    x = bipartite(g, 3, 3)
    res = seesaw_lower(x, 2, restarts=8, seed=3)
    trace = res.objective_trace
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
    assert abs(trace[-1] - res.value) < 1e-10
    # the reported pair reproduces the reported value and stays rank-limited
    pair_val = abs(res.v.amplitudes.conj() @ g @ res.w.amplitudes)
    assert abs(pair_val - res.value) < 1e-10
    assert schmidt_rank(res.v) <= 2
    assert schmidt_rank(res.w) <= 2


def test_seesaw_is_deterministic_in_the_seed():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    x = bipartite(g, 2, 3)
    a = seesaw_lower(x, 1, restarts=6, seed=42)
    b = seesaw_lower(x, 1, restarts=6, seed=42)
    assert a.value == b.value
    assert np.array_equal(a.v.amplitudes, b.v.amplitudes)
    c = seesaw_lower(x, 1, restarts=6, seed=43)
    assert c.value <= a.value + 1e-6 or c.value >= a.value - 1e-6


def test_sk_bounds_rank_one_exact():
    rng = np.random.default_rng(12)
    v = haar_state(rng, 3, 3)
    w = haar_state(rng, 3, 3)
    x = bipartite(np.outer(v.amplitudes, w.amplitudes.conj()), 3, 3)
    iv = sk_bounds(x, 2)
    assert iv.exact
    assert abs(iv.lower - sk_elementary(v, w, 2)) < 1e-12
    assert iv.upper == iv.lower


def test_sk_bounds_top_k_is_operator_norm():
    rng = np.random.default_rng(19)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    x = bipartite(g, 2, 3)
    iv = sk_bounds(x, 2)
    opn = np.linalg.svd(g, compute_uv=False)[0]
    assert iv.exact
    assert abs(iv.lower - opn) < 1e-10


def test_sk_bounds_antisymmetric_projector():
    """I - S on 2x2 has S(1) norm 1: twice the antisymmetric projector."""
    y = bipartite(np.eye(4) - swap_operator(2).mat, 2, 2, symmetrize=True)
    iv = sk_bounds(y, 1, restarts=16, seed=0)
    assert iv.lower <= 1.0 <= iv.upper + 1e-9
    assert iv.width <= 1e-6


def test_sk_bounds_sandwich_and_monotone():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    x = bipartite(g, 3, 3)
    ivs = [sk_bounds(x, k, restarts=12, seed=1) for k in (1, 2, 3)]
    opn = np.linalg.svd(g, compute_uv=False)[0]
    for iv in ivs:
        assert -1e-12 <= iv.lower <= iv.upper <= opn + 1e-9
    for a, b in zip(ivs, ivs[1:]):
        assert a.lower <= b.upper + 1e-9
    assert abs(ivs[2].lower - opn) < 1e-10


def test_prod_radius_identity_and_pure():
    assert prod_radius_bounds(bipartite(np.eye(4), 2, 2), 1).lower == 1.0
    v = two_term_state()
    iv = prod_radius_bounds(projector(v), 1)
    assert iv.exact
    assert abs(iv.lower - 0.7) < 1e-12


def test_prod_radius_indefinite_shift():
    """I - 2|bell><bell| at k=1: product vectors reach 1 and nothing beats it."""
    b = max_entangled(2)
    y = bipartite(np.eye(4) - 2.0 * np.outer(b.amplitudes, b.amplitudes.conj()), 2, 2,
                  symmetrize=True)
    iv = prod_radius_bounds(y, 1, restarts=16, seed=0)
    assert iv.lower >= 1.0 - 1e-6
    assert iv.upper <= 1.0 + 1e-12


def test_prod_radius_requires_hermitian():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(PreconditionError):
        prod_radius_bounds(bipartite(g, 2, 2), 1)
    with pytest.raises(PreconditionError):
        block_positivity_check(bipartite(g, 2, 2), 1)


def test_block_positivity_psd_and_negative():
    rng = np.random.default_rng(14)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psd = bipartite(g @ g.conj().T, 2, 2, symmetrize=True)
    assert block_positivity_check(psd, 1).verdict == "certified_positive"
    res = block_positivity_check(bipartite(-np.eye(4), 2, 2), 1)
    assert res.verdict == "certified_negative"
    assert res.witness is not None
    # the witness pair really violates positivity: <v|(-I)|v> = -1 < 0
    pair_val = res.witness.value
    assert pair_val > res.c + 1e-10


def test_block_positivity_swap_boundary():
    """The swap operator sits exactly on the k=1 positivity boundary."""
    res = block_positivity_check(swap_operator(2), 1, seed=0)
    assert res.verdict == "certified_positive"
    assert abs(res.c - 1.0) < 1e-12
    assert abs(res.interval.upper - 1.0) < 1e-8


def test_block_positivity_rejects_a_bad_tolerance():
    """tol = -2 would report the identity as not block positive."""
    eye = bipartite(np.eye(9), 3, 3)
    for tol in (-2.0, -1e-12, np.inf, np.nan):
        with pytest.raises(ParameterError):
            block_positivity_check(eye, 1, tol=tol)
    res = block_positivity_check(eye, 1, tol=0.0)
    assert res.verdict == "certified_positive" and res.witness is None


def test_bisect_identity_and_pure_projectors():
    iv = prod_radius_bisect(bipartite(np.eye(4), 2, 2), 1, depth=25)
    assert iv.lower <= 1.0 + 1e-9
    assert iv.upper >= 1.0 - 1e-9
    assert iv.width < 1e-6
    rng = np.random.default_rng(77)
    for _ in range(3):
        v = haar_state(rng, 3, 3)
        for k in (1, 2):
            iv = prod_radius_bisect(projector(v), k, depth=30, seed=5)
            want = sk_pure(v, k)
            assert iv.lower - 1e-9 <= want <= iv.upper + 1e-9
            assert iv.width < 1e-6


def test_bisect_agrees_with_direct_bounds():
    rng = np.random.default_rng(55)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = bipartite(g + g.conj().T, 2, 2, symmetrize=True)
    direct = prod_radius_bounds(y, 1, restarts=16, seed=2)
    via = prod_radius_bisect(y, 1, depth=25, restarts=8, seed=2)
    # the two brackets must overlap
    assert via.lower <= direct.upper + 1e-9
    assert direct.lower <= via.upper + 1e-9


def test_interval_validation():
    with pytest.raises(ParameterError):
        NormInterval(2.0, 1.0, "a", "b")
    assert not NormInterval(0.0, 1.0, "a", "b").exact
    iv = NormInterval(1.0, 1.5, "lo", "hi")
    assert abs(iv.width - 0.5) < 1e-15
    # The certificate is keyword-only: a stale positional exact flag fails.
    with pytest.raises(TypeError):
        NormInterval(1.0, 1.0, "a", "b", True)


def test_interval_guards_are_relative_below_unit_scale():
    with pytest.raises(ParameterError):
        NormInterval(2e-300, 1e-300, "a", "b")
    # a 1e-7 relative inversion is no rounding noise, at any scale
    with pytest.raises(ParameterError):
        _finish_interval(1.0000001e-20, 1e-20, "a", "b")
    iv = _finish_interval(1e-20 * (1 + 1e-15), 1e-20, "a", "b")
    assert iv.lower == iv.upper == 1e-20 and iv.exact


def test_budget_validation():
    x = bipartite(np.eye(4), 2, 2)
    with pytest.raises(ParameterError):
        seesaw_lower(x, 1, restarts=0)
    with pytest.raises(ParameterError):
        seesaw_lower(x, 1, max_iter=0)
    with pytest.raises(ParameterError):
        seesaw_lower(x, 1, seed=-1)
    with pytest.raises(ParameterError):
        sk_bounds(x, 5)


def test_exact_is_relative_to_the_value():
    """A bracket far below 1e-9 in absolute terms is not exact when its
    endpoints differ by a third of the value."""
    rho = generate(EnsembleSpec("ginibre_density", 3, 3, seed=1))
    iv = sk_bounds(bipartite(rho.mat * 1e-12, 3, 3), 1)
    assert iv.upper < 1e-12
    assert iv.upper - iv.lower > 0.1 * iv.upper
    assert not iv.exact
    assert not NormInterval(2.7e-13, 3.96e-13, "a", "b").exact
    assert NormInterval(1e9, 1e9 + 0.5, "a", "b").exact


def test_sk_certificate_attains_the_lower_endpoint():
    rng = np.random.default_rng(23)
    g = bipartite(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)), 3, 3)
    cases = [
        (g, 1, "seesaw"),
        (g, 3, "operator_norm_exact"),
        (projector(haar_state(rng, 3, 3)), 2, "rank_one_exact"),
        (bipartite(np.zeros((9, 9)), 3, 3), 1, "zero_operator"),
    ]
    for x, k, tag in cases:
        iv = sk_bounds(x, k, restarts=8)
        pair = iv.certificate
        assert iv.lower_method == tag
        assert pair.value == iv.lower
        assert schmidt_rank(pair.v) <= k and schmidt_rank(pair.w) <= k
        pairing = abs(np.vdot(pair.v.amplitudes, x.mat @ pair.w.amplitudes))
        assert abs(pairing - iv.lower) <= 1e-12 * max(1.0, iv.lower)


def _w1_witness():
    phi = np.zeros(9)
    phi[[0, 4, 8]] = 1.0 / np.sqrt(3.0)
    return np.eye(9) - 3.0 * np.outer(phi, phi)


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1e-9, 1.0, 1e9, 1e300])
def test_block_positivity_verdicts_do_not_depend_on_scale(scale):
    # The flip is 1-block positive but not PSD (k = 2 = min(dims) on 2x2);
    # W_1 = I - 3|Phi+><Phi+| is 1- but not 2-block positive.
    cases = (
        (swap_operator(2).mat, 2, {1: "certified_positive", 2: "certified_negative"}),
        (_w1_witness(), 3, {1: "certified_positive", 2: "certified_negative"}),
    )
    for mat, d, verdicts in cases:
        y = bipartite(scale * mat, d, d)
        for k, verdict in verdicts.items():
            assert block_positivity_check(y, k).verdict == verdict


def _seesaw_cases():
    rng = np.random.default_rng(31)
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 3), (4, 4)):
        d = m * n
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
        for kind, mat in (("general", g), ("psd", g @ g.conj().T), ("rank2", a @ a.conj().T)):
            for k in range(1, min(m, n)):
                yield pytest.param(mat, m, n, k, id=f"{m}x{n}-{kind}-k{k}")


def _each_restart(monkeypatch, search, x, k, restarts, max_iter):
    """search(x, k, 1, max_iter, 7) once per restart of the seed-7 starts,
    fed that restart's start alone; the start frames are then built uncached."""
    m, n = x.dims
    runs = []
    monkeypatch.setattr(sknorm, "_start_frames", sknorm._start_frames.__wrapped__)
    for start in sknorm._start_vectors(m, n, k, restarts, 7):
        monkeypatch.setattr(sknorm, "_start_vectors", lambda *_, s=start: s[None].copy())
        runs.append(search(x, k, 1, max_iter, 7))
    monkeypatch.undo()
    return runs


def _check_each_restart(res, runs, refs):
    """Every single-restart run matches its restart of the reference loop,
    and the batched result res is, bit for bit, the first best of them."""
    for run, (value, iterations, converged, trace) in zip(runs, refs, strict=True):
        assert abs(run.value - value) <= 1e-12 * value
        assert (run.iterations, run.converged) == (iterations, converged)
        assert len(run.objective_trace) == len(trace)
        assert np.allclose(run.objective_trace, trace, rtol=1e-12, atol=0.0)
    best = max(runs, key=lambda run: run.value)
    assert (res.value, res.iterations, res.converged, res.objective_trace) == (
        best.value, best.iterations, best.converged, best.objective_trace)
    assert np.array_equal(res.v.amplitudes, best.v.amplitudes)
    assert np.array_equal(res.w.amplitudes, best.w.amplitudes)


@pytest.mark.parametrize("mat, m, n, k", list(_seesaw_cases()))
@pytest.mark.parametrize("restarts, max_iter", [(1, 200), (6, 200), (4, 1)])
def test_seesaw_matches_the_per_restart_loop(monkeypatch, mat, m, n, k, restarts, max_iter):
    x = bipartite(mat, m, n)
    res = seesaw_lower(x, k, restarts=restarts, max_iter=max_iter, seed=7)
    refs = seesaw_loop_ref(mat, m, n, k, restarts, max_iter, 7, SEESAW_TOL, each=True)
    runs = _each_restart(monkeypatch, seesaw_lower, x, k, restarts, max_iter)
    _check_each_restart(res, runs, refs)
    if max_iter == 1:
        assert res.iterations == 1


def test_seesaw_reports_an_exhausted_budget():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    res = seesaw_lower(bipartite(g, 4, 4), 2, restarts=3, max_iter=2, seed=0)
    ref = seesaw_loop_ref(g, 4, 4, 2, 3, 2, 0, SEESAW_TOL)
    assert not res.converged
    assert (res.iterations, len(res.objective_trace)) == (2, 4)
    assert abs(res.value - ref[0]) <= 1e-12 * ref[0]
    assert (res.iterations, res.converged) == ref[1:3]


def _fixed_starts(monkeypatch, *indices):
    starts = np.zeros((len(indices), 4), dtype=complex)
    starts[np.arange(len(indices)), list(indices)] = 1.0
    monkeypatch.setattr(sknorm, "_start_vectors", lambda m, n, k, restarts, seed: starts.copy())


def test_seesaw_retires_a_restart_whose_truncation_keeps_no_weight(monkeypatch):
    # On diag(1, 0, 0, 0), x|11> = 0: the first half-step keeps no Schmidt
    # weight, so the restart retires converged after one step, with no gain.
    # Beside it, the start |00> reaches the operator norm 1 at step 1, where
    # every restart stops.
    x = bipartite(np.diag([1.0, 0.0, 0.0, 0.0]), 2, 2)
    _fixed_starts(monkeypatch, 3)
    res = seesaw_lower(x, 1, restarts=1)
    assert (res.value, res.iterations, res.converged, res.objective_trace) == (0.0, 1, True, ())
    _fixed_starts(monkeypatch, 3, 0)
    res = seesaw_lower(x, 1, restarts=2)
    assert (res.value, res.iterations, res.converged, res.objective_trace) == (
        1.0, 1, True, (1.0, 1.0))


def test_only_sk_bounds_calls_seesaw_lower_through_the_module(monkeypatch):
    # Traced runs wrap sknorm.seesaw_lower by module attribute: sk_bounds of
    # a general operator must reach it there, and block positivity, which
    # runs the Rayleigh ascent, must not.
    calls = []
    seesaw = sknorm.seesaw_lower

    def counted(*args, **kwargs):
        calls.append(1)
        return seesaw(*args, **kwargs)

    monkeypatch.setattr(sknorm, "seesaw_lower", counted)
    rng = np.random.default_rng(8)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    assert sk_bounds(bipartite(g, 3, 3), 1).lower_method == "seesaw"
    assert len(calls) == 1
    bp = block_positivity_check(bipartite((g + g.conj().T) / 2.0, 3, 3), 1)
    assert bp.interval.lower_method == "seesaw"
    assert len(calls) == 1


@pytest.mark.xfail(
    strict=True,
    reason="the see-saw stop is absolute below unit gain (ROADMAP item 10); the "
    "ascent's relative stop made certify_grid sweep_s slower in 5 of 7 paired "
    "runs (median +17%), so it waits for its own baseline",
)
def test_seesaw_lower_is_scale_invariant_far_below_unit_scale():
    rho = generate(EnsembleSpec("ginibre_density", 3, 3, seed=0))
    base = seesaw_lower(rho, 1)
    tiny = seesaw_lower(bipartite(1e-300 * rho.mat, 3, 3), 1)
    assert tiny.iterations == base.iterations
    assert abs(tiny.value / 1e-300 - base.value) <= 1e-9 * base.value


def test_seesaw_raises_on_svd_failure():
    x = bipartite(np.diag(np.arange(1.0, 5.0)), 2, 2)
    inject_svd_failure(True)
    try:
        with pytest.raises(NumericalError):
            seesaw_lower(x, 1, restarts=2)
    finally:
        inject_svd_failure(False)


def test_seesaw_step_raises_on_injected_failure():
    # The starts of a (dims, k, restarts, seed) key are kept from the first
    # call on, and the fresh operator keeps the svd its exit test reads, so
    # only the see-saw's own step can fail.
    rng = np.random.default_rng(22)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    seesaw_lower(bipartite(g, 3, 3), 1, restarts=3, seed=5)
    fresh = bipartite(g.T, 3, 3)
    fresh.svd
    inject_svd_failure(True)
    try:
        with pytest.raises(NumericalError):
            seesaw_lower(fresh, 1, restarts=3, seed=5)
    finally:
        inject_svd_failure(False)


def test_sk_bounds_see_saw_survives_huge_scale():
    # Squared Schmidt coefficients of x * 1e200 overflowed, and the see-saw
    # lower endpoint collapsed to 0.
    scale = 1e200
    rho = generate(EnsembleSpec("ginibre_density", 3, 3, seed=0))
    base = sk_bounds(rho, 1)
    huge = bipartite(scale * rho.mat, 3, 3)
    res = sk_bounds(huge, 1)
    assert res.lower_method == "seesaw"
    assert abs(res.lower / scale - base.lower) <= 1e-8 * base.lower
    assert prod_radius_bounds(huge, 1).lower_method == "seesaw"


def _shifted(mat, m, n, sign):
    """c I - sign * y for hermitian y, with c = lambda_max(sign * y): PSD."""
    z = sign * (mat + mat.conj().T) / 2.0
    x = float(np.linalg.eigvalsh(z)[-1]) * np.eye(m * n) - z
    return bipartite((x + x.conj().T) / 2.0, m, n)


@pytest.mark.parametrize(
    "mat, m, n, k", [case for case in _seesaw_cases() if "-general-" not in case.id])
@pytest.mark.parametrize("restarts, max_iter", [(1, 200), (6, 200), (4, 1)])
def test_rayleigh_ascent_matches_the_per_restart_loop(
        monkeypatch, mat, m, n, k, restarts, max_iter):
    x = bipartite(mat, m, n)
    res = _rayleigh_ascent(x, k, restarts, max_iter, 7)
    refs = rayleigh_loop_ref(mat, m, n, k, restarts, max_iter, 7, SEESAW_TOL, each=True)
    runs = _each_restart(monkeypatch, _rayleigh_ascent, x, k, restarts, max_iter)
    _check_each_restart(res, runs, refs)
    assert all(len(run.objective_trace) == 2 * run.iterations for run in runs)


def test_rayleigh_ascent_trace_is_monotone_and_attained():
    rng = np.random.default_rng(26)
    for m, n, k in ((3, 3, 1), (3, 3, 2), (2, 4, 1), (4, 4, 2)):
        g = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
        for sign in (1.0, -1.0):
            x = _shifted(g, m, n, sign)
            res = _rayleigh_ascent(x, k, 8, 500, 3)
            trace = res.objective_trace
            assert all(b >= a - 1e-12 * abs(b) for a, b in zip(trace, trace[1:]))
            assert abs(trace[-1] - res.value) <= 1e-10 * res.value
            v = res.v.amplitudes
            assert res.w is res.v and schmidt_rank(res.v) <= k
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert abs(np.vdot(v, x.mat @ v).real - res.value) <= 1e-12 * res.value


def test_rayleigh_ascent_never_trails_the_see_saw_on_shifted_operators():
    # At the default 32 restarts the exact block steps reach at least the
    # see-saw's value on every operator of this fixed set.
    rng = np.random.default_rng(61)
    for m, n in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4)):
        for _ in range(3):
            g = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
            for k in range(1, min(m, n)):
                for sign in (1.0, -1.0):
                    x = _shifted(g, m, n, sign)
                    ascent = _rayleigh_ascent(x, k, 32, 500, 0).value
                    assert ascent >= seesaw_lower(x, k).value * (1.0 - 1e-9), (m, n, k, sign)


def _flip_and_w1_and_random():
    rng = np.random.default_rng(45)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    return ((swap_operator(2).mat, 2), (_w1_witness(), 3), ((g + g.conj().T) / 2.0, 3))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_rayleigh_ascent_stops_alike_at_every_scale(sign):
    for mat, d in _flip_and_w1_and_random():
        unit = _shifted(mat, d, d, sign)
        base = _rayleigh_ascent(unit, 1, 32, 500, 0)
        for scale in (1e-300, 1e300):
            res = _rayleigh_ascent(bipartite(scale * unit.mat, d, d), 1, 32, 500, 0)
            assert res.iterations == base.iterations
            assert abs(res.value / scale - base.value) <= 1e-12 * base.value


def test_radius_lower_endpoint_scales_with_the_operator():
    for mat, d in _flip_and_w1_and_random():
        base = prod_radius_bounds(bipartite(mat, d, d), 1)
        for scale in (1e-300, 1e300):
            iv = prod_radius_bounds(bipartite(scale * mat, d, d), 1)
            assert abs(iv.lower / scale - base.lower) <= 1e-12 * base.lower


def test_radius_brackets_carry_the_winning_pair():
    rng = np.random.default_rng(52)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    cases = [((g + g.conj().T) / 2.0, 3, 3, k) for k in (1, 2)]
    cases += [(swap_operator(2).mat, 2, 2, 1), (_w1_witness(), 3, 3, 1), (_w1_witness(), 3, 3, 2)]
    for mat, m, n, k in cases:
        y = bipartite(mat, m, n)
        lam = np.linalg.eigvalsh(mat)
        for iv in (prod_radius_bounds(y, k), prod_radius_bisect(y, k)):
            pair = iv.certificate
            if iv.lower_method == "product_basis":
                assert pair is None
                continue
            assert schmidt_rank(pair.v) <= k
            v = pair.v.amplitudes
            assert np.array_equal(v, pair.w.amplitudes)
            misses = []
            for sign, c in ((1.0, lam[-1]), (-1.0, -lam[0])):
                shifted = c * np.eye(m * n) - sign * mat
                misses.append(abs(np.vdot(v, shifted @ v).real - c - iv.lower))
            assert min(misses) <= 1e-12 * iv.lower
    # On a diagonal operator both signs' upper bounds are reached by the
    # product basis, so no search runs and no pair is attached.
    iv = prod_radius_bounds(bipartite(np.diag([1.0, 0.5, 0.2, 0.1]), 2, 2), 1)
    assert (iv.lower, iv.lower_method, iv.certificate) == (1.0, "product_basis", None)


def _wk_witness(d, k):
    """W_k = k I - d |Phi+><Phi+| on C^d (x) C^d."""
    phi = np.zeros(d * d)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    return k * np.eye(d * d) - d * np.outer(phi, phi)


@pytest.mark.parametrize("mat, d, k, radius", [
    (_wk_witness(3, 1), 3, 1, 1.0),
    (_wk_witness(3, 2), 3, 2, 2.0),
    (_wk_witness(4, 1), 4, 1, 1.0),
    (swap_operator(2).mat, 2, 1, 1.0),
    (swap_operator(3).mat, 3, 1, 1.0),
    (swap_operator(3).mat, 3, 2, 1.0),
])
def test_witness_radii_are_exact_and_their_ascent_stops_at_the_operator_norm(mat, d, k, radius):
    # (d - k) I + W_k = d (I - P(Phi+)) and I + F = 2 P(sym) reach their
    # operator norm on a product vector, so the winning sign's ascent stops
    # after one step, where it would otherwise run a confirming second one.
    y = bipartite(mat, d, d)
    iv = prod_radius_bounds(y, k)
    assert iv.exact
    assert abs(iv.lower - radius) <= 1e-12 and abs(iv.upper - radius) <= 1e-12
    c, x = y.psd_shift(-1.0)
    res = _rayleigh_ascent(x, k, 32, 500, 0)
    assert (res.iterations, res.converged) == (1, True)
    assert abs(res.value - c - radius) <= 1e-12
    assert ascend_no_exit_ref(x, k, 32, 500, 0, sknorm._rayleigh_kernel).iterations == 2


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 3)])
def test_seesaw_reaches_the_norm_of_a_product_operator_and_exits(m, n):
    # |A (x) B|_S(1) = |A| |B| = |A (x) B|: the see-saw stops once within
    # SEESAW_TOL of it, before its own stall test would.
    rng = np.random.default_rng(3 + m * n)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = bipartite(np.kron(a, b), m, n)
    norm = np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
    res = seesaw_lower(x, 1)
    assert res.converged
    assert norm * (1.0 - 2.0 * SEESAW_TOL) <= res.value <= norm * (1.0 + 1e-14)
    assert res.iterations < ascend_no_exit_ref(x, 1, 32, 500, 0, sknorm._seesaw_kernel).iterations
