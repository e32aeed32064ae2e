"""Acceptance gate: one test per criterion, one [PASS]/[FAIL] line each.

Run with -s to see the per-criterion lines.  Every tolerance here is part
of the package contract; loosening one is a behavior change, not a test
fix.
"""

import json
import re

import numpy as np

from oracles import ascent_k2_dual
from entnorms.cli import load_operator, run, save_operator
from entnorms.criteria import (
    detect_schmidt_number,
    pure_state_sr_test,
    realignment_value,
    weak_realignment,
)
from entnorms.dualnorms import (
    conjecture_probe,
    decomposition_oracle,
    gamma_bounds,
    gamma_pure,
    gamma_rank_one,
    robustness_bounds,
)
from entnorms.kyfan import k2_dual
from entnorms.linalg import bipartite, partial_transpose, swap_operator
from entnorms.schmidt import pure_state, schmidt_decompose
from entnorms.sknorm import (
    block_positivity_check,
    prod_radius_bisect,
    seesaw_lower,
    sk_bounds,
    sk_elementary,
    sk_pure,
)
from entnorms.states import EnsembleSpec, generate, haar_unitary


def _verdict(num: int, desc: str, ok: bool) -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:02d}: {desc}")
    return ok


def _haar(rng, m, n):
    g = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    return pure_state(g / np.linalg.norm(g), m, n)


def _projector(v):
    return bipartite(np.outer(v.amplitudes, v.amplitudes.conj()), v.dim_a, v.dim_b,
                     symmetrize=True)


def _bell_rho():
    b = generate(EnsembleSpec("max_entangled", 2, 2))
    return _projector(b)


def test_c01_dual_closed_form_matches_ascent():
    problems = []
    for idx in range(20):
        rng = np.random.default_rng([11, idx])
        m, n = (4, 4) if idx < 10 else (5, 7)
        x = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        s = np.linalg.svd(x, compute_uv=False)
        if abs(k2_dual(x, 1) - np.sum(s)) > 1e-10:
            problems.append(f"matrix {idx}: k=1 is not the trace norm")
        if abs(k2_dual(x, min(m, n)) - np.linalg.norm(x)) > 1e-10:
            problems.append(f"matrix {idx}: k=min is not Frobenius")
        for k in (1, 2, 3):
            formula = k2_dual(x, k)
            climbed = ascent_k2_dual(x, k, restarts=200, seed=idx)
            if abs(formula - climbed) > 1e-3:
                problems.append(f"matrix {idx} k={k}: gap {abs(formula - climbed):.2e}")
            if formula < climbed - 1e-9:
                problems.append(f"matrix {idx} k={k}: formula below ascent")
    assert _verdict(1, "closed-form dual matches 200-restart ascent on 20 matrices",
                    not problems), problems[:5]


def test_c02_pure_state_formulas():
    problems = []
    for n in (2, 3, 4):
        v = generate(EnsembleSpec("max_entangled", n, n))
        for k in range(1, n + 1):
            if abs(sk_pure(v, k) - k / n) > 1e-12:
                problems.append(f"maxent {n} k={k}: sk_pure off")
            if abs(gamma_pure(v, k) - n / k) > 1e-12:
                problems.append(f"maxent {n} k={k}: gamma_pure off")
    rng = np.random.default_rng(2024)
    for trial in range(50):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        v = _haar(rng, m, n)
        alpha = schmidt_decompose(v).coeffs
        if abs(gamma_pure(v, 1) - float(np.sum(alpha)) ** 2) > 1e-10:
            problems.append(f"trial {trial}: gamma_pure(1) is not (sum alpha)^2")
    assert _verdict(2, "maximally entangled k/n and n/k values, k=1 coefficient sum",
                    not problems), problems[:5]


def test_c03_duality_pairing_and_saturation():
    problems = []
    rng = np.random.default_rng(303)
    for trial in range(200):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a, b = _haar(rng, m, n), _haar(rng, m, n)
        v, w = _haar(rng, m, n), _haar(rng, m, n)
        k = int(rng.integers(1, min(m, n) + 1))
        pairing = abs(np.vdot(a.amplitudes, v.amplitudes)
                      * np.vdot(w.amplitudes, b.amplitudes))
        cap = sk_elementary(a, b, k) * gamma_rank_one(v, w, k)
        if pairing > cap + 1e-9:
            problems.append(f"trial {trial}: pairing {pairing:.6f} beats cap {cap:.6f}")
    srng = np.random.default_rng(77)
    for k in (1, 2, 3):
        v = _haar(srng, 3, 4)
        sd = schmidt_decompose(v)
        alpha = sd.coeffs
        d = k2_dual(v.matrix(), k)
        r = 0
        for rr in range(k - 1, 0, -1):
            if alpha[rr - 1] > np.sum(alpha[rr:]) / (k - rr):
                r = rr
                break
        flat = np.sum(alpha[r:]) / (k - r)
        beta = np.concatenate([alpha[:r], np.full(alpha.size - r, flat)]) / d
        amp = ((sd.left.T * beta) @ sd.right).reshape(-1)
        w = pure_state(amp, 3, 4, require_normalized=False)
        pairing = abs(np.vdot(amp, v.amplitudes)) ** 2
        cap = sk_pure(w, k) * gamma_pure(v, k)
        if abs(pairing - cap) > 1e-9:
            problems.append(f"k={k}: saturating pair misses by {abs(pairing - cap):.2e}")
    assert _verdict(3, "rank-one pairing never beats the norm product; built pairs saturate",
                    not problems), problems[:5]


def test_c04_realignment_never_incriminates_bounded_mixtures():
    problems = []
    for k, base in ((1, 0), (2, 100)):
        for trial in range(50):
            rho = generate(EnsembleSpec("sn_bounded_density", 3, 3, k=k, terms=6,
                                        seed=base + trial))
            value = realignment_value(rho, k)
            if value > 1.0 + 1e-9:
                problems.append(f"k={k} seed {base + trial}: false positive {value:.12f}")
    rep = detect_schmidt_number(_bell_rho(), 1)
    if abs(rep.value - 2.0) > 1e-10:
        problems.append(f"bell value {rep.value!r} is not 2.0 within 1e-10")
    if not rep.detected:
        problems.append("bell density escaped detection at k=1")
    assert _verdict(4, "zero false positives on 100 bounded mixtures; bell reads 2.0",
                    not problems), problems[:5]


def test_c05_planted_rank_decisions_with_margin():
    problems = []
    for trial in range(100):
        s = trial % 4 + 1
        v = generate(EnsembleSpec("sr_bounded_pure", 4, 4, k=s, seed=trial))
        proj = _projector(v)
        for k in (1, 2, 3, 4):
            verdict = pure_state_sr_test(v, k)
            want = "sr_at_most_k" if k >= s else "sr_exceeds_k"
            if verdict != want:
                problems.append(f"trial {trial} s={s} k={k}: verdict {verdict}")
            if k < s:
                value = realignment_value(proj, k)
                if abs(value - 1.0) < 1e-8:
                    problems.append(f"trial {trial} s={s} k={k}: margin {value - 1.0:.2e}")
    m3 = _projector(generate(EnsembleSpec("max_entangled", 3, 3)))
    for k, want in ((1, 3.0), (2, 1.5), (3, 1.0)):
        value = realignment_value(m3, k)
        if abs(value - want) > 1e-10:
            problems.append(f"maxent3 k={k}: value {value!r} is not {want}")
    assert _verdict(5, "planted Schmidt ranks decided at every k with clear margins",
                    not problems), problems[:5]


def test_c06_decomposition_oracle_certifies_from_above():
    problems = []
    upper, _ = decomposition_oracle(_bell_rho(), 1, budget=2000, seed=0)
    if not (2.0 - 1e-9 <= upper <= 2.10):
        problems.append(f"bell oracle upper {upper!r} outside [2 - 1e-9, 2.10]")
    for k, seed in ((1, 5), (2, 5), (2, 6)):
        v = generate(EnsembleSpec("sr_bounded_pure", 3, 3, k=k, seed=seed))
        up, _ = decomposition_oracle(_projector(v), k, budget=2000, seed=0)
        if up > 1.0 + 1e-6:
            problems.append(f"rank-{k} projector seed {seed}: oracle {up!r} above 1")
    suite = [
        (_bell_rho(), 1),
        (_projector(generate(EnsembleSpec("sr_bounded_pure", 2, 2, k=2, seed=3))), 1),
        (generate(EnsembleSpec("isotropic", 3, 3, p=0.9, seed=0)), 1),
        (generate(EnsembleSpec("sn_bounded_density", 3, 3, k=2, terms=5, seed=1)), 2),
        (generate(EnsembleSpec("ginibre_density", 2, 2, seed=4)), 1),
        (generate(EnsembleSpec("ginibre_density", 2, 3, seed=8)), 2),
    ]
    for i, (x, k) in enumerate(suite):
        lower = gamma_bounds(x, k).lower
        up, _ = decomposition_oracle(x, k, budget=2000, seed=0)
        if up < lower - 1e-9:
            problems.append(f"suite input {i}: oracle {up:.9f} below lower {lower:.9f}")
    assert _verdict(6, "sampled decomposition bound stays above every certified lower",
                    not problems), problems[:5]


def test_c07_seesaw_recovers_pure_projector_norms():
    problems = []
    for trial in range(25):
        rng = np.random.default_rng([7, trial])
        v = _haar(rng, 3, 3)
        proj = _projector(v)
        for k in (1, 2):
            res = seesaw_lower(proj, k, restarts=8, seed=trial)
            want = sk_pure(v, k)
            if abs(res.value - want) > 1e-8:
                problems.append(f"trial {trial} k={k}: off by {abs(res.value - want):.2e}")
            trace = res.objective_trace
            if any(b < a - 1e-12 for a, b in zip(trace, trace[1:])):
                problems.append(f"trial {trial} k={k}: objective trace decreased")
    assert _verdict(7, "8-restart see-saw recovers 50 pure projector norms to 1e-8",
                    not problems), problems[:5]


def test_c08_block_positivity_boundary_cases():
    problems = []
    res = block_positivity_check(swap_operator(2), 1, seed=0)
    if res.verdict != "certified_positive":
        problems.append(f"swap verdict {res.verdict}")
    if abs(res.interval.lower - 1.0) > 1e-8 or abs(res.interval.upper - 1.0) > 1e-8:
        problems.append(f"swap boundary bracket {res.interval.lower}, {res.interval.upper}")
    neg = block_positivity_check(bipartite(-np.eye(4), 2, 2), 1, seed=0)
    if neg.verdict != "certified_negative":
        problems.append(f"-I verdict {neg.verdict}")
    rng = np.random.default_rng(88)
    for trial in range(3):
        v = _haar(rng, 3, 3)
        for k in (1, 2):
            iv = prod_radius_bisect(_projector(v), k, depth=30, seed=trial)
            want = sk_pure(v, k)
            if iv.width > 1e-6:
                problems.append(f"trial {trial} k={k}: bisect width {iv.width:.2e}")
            if not (iv.lower - 1e-9 <= want <= iv.upper + 1e-9):
                problems.append(f"trial {trial} k={k}: {want} outside bisect bracket")
    assert _verdict(8, "swap certified positive on the boundary; bisection hits pure values",
                    not problems), problems[:5]


def test_c09_invariance_under_local_rotations_and_transposes():
    problems = []
    rng = np.random.default_rng(909)
    swap = swap_operator(3).mat
    for trial in range(20):
        v = _haar(rng, 3, 3)
        vec = v.amplitudes
        base_coeffs = np.linalg.svd(vec.reshape(3, 3), compute_uv=False)
        k = trial % 3 + 1
        base_sk = sk_pure(v, k)
        base_gamma = gamma_pure(v, k)
        rotated = np.kron(haar_unitary(3, rng), haar_unitary(3, rng)) @ vec
        for tag, tvec in (("rotated", rotated), ("swapped", swap @ vec)):
            tv = pure_state(tvec, 3, 3, require_normalized=False)
            dev = max(
                float(np.max(np.abs(np.linalg.svd(tvec.reshape(3, 3), compute_uv=False)
                                    - base_coeffs))),
                abs(sk_pure(tv, k) - base_sk),
                abs(gamma_pure(tv, k) - base_gamma),
            )
            if dev > 1e-9:
                problems.append(f"trial {trial} {tag}: deviation {dev:.2e}")
        parts = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
                 for d in (3, 3, 3, 3)]
        elem = bipartite(np.outer(np.kron(parts[0], parts[1]),
                                  np.kron(parts[2], parts[3]).conj()), 3, 3)
        before = sk_bounds(elem, k).upper
        after = sk_bounds(partial_transpose(elem), k).upper
        if abs(before - after) > 1e-10:
            problems.append(f"trial {trial}: transpose moved product ket-bra norm "
                            f"by {abs(before - after):.2e}")
    assert _verdict(9, "norms invariant under rotations, swap, and partial transpose",
                    not problems), problems[:5]


def test_c10_weak_criterion_never_outruns_the_generalized_one():
    problems = []
    densities = [_bell_rho(), _projector(generate(EnsembleSpec("max_entangled", 3, 3)))]
    densities += [generate(EnsembleSpec("isotropic", 3, 3, p=p, seed=0))
                  for p in (0.1, 0.5, 0.9)]
    densities += [generate(EnsembleSpec("sn_bounded_density", 3, 3, k=k, terms=6, seed=s))
                  for k, s in ((1, 0), (1, 7), (2, 3), (2, 11))]
    densities += [generate(EnsembleSpec("ginibre_density", 3, 3, seed=s)) for s in (0, 1)]
    densities += [generate(EnsembleSpec("ginibre_density", 2, 2, seed=2)),
                  generate(EnsembleSpec("ginibre_density", 3, 3, rank=2, seed=3)),
                  bipartite(np.eye(9) / 9.0, 3, 3),
                  bipartite(np.eye(4) / 4.0, 2, 2)]
    for i, rho in enumerate(densities):
        for k in range(1, min(rho.dims) + 1):
            weak = weak_realignment(rho, k)
            gen = detect_schmidt_number(rho, k)
            if weak.detected and not gen.detected:
                problems.append(f"density {i} k={k}: weak detected but generalized missed")
            if weak.value > k * gen.value + 1e-9:
                problems.append(f"density {i} k={k}: trace value {weak.value:.9f} "
                                f"above k * {gen.value:.9f}")
    assert _verdict(10, "trace-norm criterion dominated by the generalized value everywhere",
                    not problems), problems[:5]


def test_c11_robustness_brackets_and_probes():
    problems = []
    for seed in range(20):
        rho = generate(EnsembleSpec("sn_bounded_density", 3, 3, k=1, terms=6, seed=seed))
        iv = robustness_bounds(rho, 1)
        if not (1.0 - 1e-9 <= iv.lower <= 1.0 + 1e-9 and iv.upper >= 1.0 - 1e-9):
            problems.append(f"separable seed {seed}: bracket [{iv.lower}, {iv.upper}]")
    bell = robustness_bounds(_bell_rho(), 1)
    if abs(bell.upper - 3.0) > 1e-9:
        problems.append(f"bell upper {bell.upper!r} is not 3 within 1e-9")
    rng = np.random.default_rng(111)
    for trial in range(20):
        pr = conjecture_probe(_haar(rng, 3, 3), 2)
        if not pr.inside:
            problems.append(f"probe {trial}: candidate {pr.candidate:.9f} escaped "
                            f"[{pr.interval.lower:.9f}, {pr.interval.upper:.9f}]")
    assert _verdict(11, "robustness brackets separable states at 1, bell at 3; probes inside",
                    not problems), problems[:5]


def test_c12_cli_round_trips_and_exit_codes(tmp_path, capsys):
    problems = []
    state = str(tmp_path / "state.json")
    if run(["gen", "--kind", "haar_pure", "--m", "3", "--n", "3", "--seed", "7",
            "--out", state]) != 0:
        problems.append("gen exited nonzero")
    capsys.readouterr()
    copy = str(tmp_path / "copy.json")
    save_operator(copy, load_operator(state), meta={"kind": "haar_pure", "seed": "7"})
    with open(state, "rb") as fh:
        first = fh.read()
    with open(copy, "rb") as fh:
        second = fh.read()
    if first != second:
        problems.append("gen -> load -> save round trip changed bytes")

    reports = []
    for name in ("r1.json", "r2.json"):
        dest = str(tmp_path / name)
        if run(["norm", "--which", "gamma", "--k", "1", "--out", dest, state]) != 0:
            problems.append("norm run exited nonzero")
        capsys.readouterr()
        with open(dest, encoding="utf-8") as fh:
            reports.append(re.sub(r'"wall_time_ms": [0-9.]+', '"wall_time_ms": 0',
                                  fh.read()))
    if reports[0] != reports[1]:
        problems.append("reports differ beyond wall_time_ms")

    broken = tmp_path / "broken.json"
    broken.write_text('{"dims": [2, 2], "kind": "state_vector"}')
    if run(["schmidt", str(broken)]) != 1:
        problems.append("malformed input did not exit 1")
    capsys.readouterr()

    if run(["norm", "--which", "gamma", "--k", "1", "--inject-svd-failure", state]) != 2:
        problems.append("forced decomposition failure did not exit 2")
    capsys.readouterr()

    m3 = generate(EnsembleSpec("max_entangled", 3, 3)).amplitudes
    h = generate(EnsembleSpec("haar_pure", 3, 3, seed=123)).amplitudes
    x = bipartite(np.outer(m3, m3.conj()) + 0.5 * np.outer(h, h.conj()), 3, 3,
                  symmetrize=True)
    iv = sk_bounds(x, 1, restarts=32, seed=0)
    y = bipartite(0.5 * (iv.lower + iv.upper) * np.eye(9) - x.mat, 3, 3,
                  symmetrize=True)
    fence = str(tmp_path / "fence.json")
    save_operator(fence, y)
    if run(["blockpos", "--k", "1", "--require-decision", fence]) != 3:
        problems.append("undecided case with --require-decision did not exit 3")
    capsys.readouterr()

    assert _verdict(12, "stable file round trips, reproducible reports, exit codes 1/2/3",
                    not problems), problems[:5]
