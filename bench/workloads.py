"""The benchmark's inputs and operations, built from a seed.

A library workload is a list of Op: one call into the public entnorms
API on one generated input, with the independent check of its result
(bench/checks.py) and the brackets and verdicts it yields for the
metrics.  The list is one sweep; a run repeats whole sweeps.  The same
seed gives the same inputs; the program receives only those inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

import checks

E = None  # the entnorms package, bound by load_package()

# Inputs are fixed draws (seeded from BASE_SEED) moved by local unitaries
# U x V drawn from the run's seed.  Local unitaries keep the Schmidt
# number, the S(k) norm, gamma_k, the restricted radius and block
# positivity, so every seed poses a problem of the same difficulty while
# the matrices the program sees differ; timings then measure the program
# rather than the luck of the draw.
BASE_SEED = 20130409


def load_package():
    global E
    import entnorms

    E = entnorms
    return entnorms


class Bracket(NamedTuple):
    lower: float
    upper: float
    exact: bool


def _summary(result) -> tuple[list, list]:
    """Brackets and verdicts of a result, read off its type."""
    if hasattr(result, "verdict"):
        iv = result.gamma if hasattr(result, "gamma") else result.interval
        return [iv], [result.verdict]
    if hasattr(result, "upper"):
        return [result], []
    return [], []


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    summary: Callable[[Any], tuple[list, list]] = field(default=_summary)
    last: Any = None  # result of the latest call, read by checks that compare ops


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode())])


def _draw(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _projector(vec: np.ndarray, m: int, n: int):
    return E.bipartite(np.outer(vec, vec.conj()), m, n, symmetrize=True)


def _phi_plus(d: int) -> np.ndarray:
    phi = np.zeros(d * d)
    phi[[i * d + i for i in range(d)]] = 1 / np.sqrt(d)
    return phi


def _witness_w(d: int, k: int) -> np.ndarray:
    """W_k = k I - d |Phi+><Phi+|: k-block positive, not (k+1)-block
    positive, and of restricted radius k at every k' <= 2k."""
    phi = _phi_plus(d)
    return k * np.eye(d * d) - d * np.outer(phi, phi)


def _flip(d: int) -> np.ndarray:
    f = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            f[a * d + b, b * d + a] = 1.0
    return f


def _random_hermitian(m: int, n: int, base: int) -> np.ndarray:
    rng = np.random.default_rng(base)
    g = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
    return (g + g.conj().T) / 2


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotate(rng: np.random.Generator, a: np.ndarray, m: int, n: int) -> np.ndarray:
    """(U x V) a (U x V)^dag for a hermitian matrix, (U x V) a for a
    vector, with Haar U, V drawn from rng."""
    u = np.kron(_haar(rng, m), _haar(rng, n))
    if a.ndim == 1:
        return u @ a
    b = u @ a @ u.conj().T
    return (b + b.conj().T) / 2


def _density(rng: np.random.Generator, spec) -> "E.BipartiteOperator":
    """The fixed draw `spec` (its own seed), moved by seeded local unitaries."""
    m, n = spec.dim_a, spec.dim_b
    mat = _rotate(rng, np.array(E.generate(spec).mat), m, n)
    return E.bipartite(mat, m, n, symmetrize=True)


# ---------------------------------------------------------------- certify_grid

def certify_grid(seed: int) -> list[Op]:
    """Ginibre densities over the 2x2..8x8 grid at k in {1, 2, min},
    bounded-Schmidt-number mixtures, isotropic states on both sides of
    their threshold and Haar pure projectors, each through the five
    certify entry points."""
    rng = _rng(seed, "certify_grid")
    spec = E.EnsembleSpec
    cells = []  # (operator, k, pure vector or None, SN <= k known?)
    # Below full rank where k = 1 is asked: such draws are detected as
    # entangled, where full-rank ones flip between exceeds_k and undecided
    # from draw to draw.
    for (m, n), rank, ks in (((2, 2), 2, (1,)), ((3, 3), 4, (1, 2, 3)), ((2, 4), 2, (1,)),
                             ((4, 4), 8, (1, 2)), ((8, 8), 64, (2,))):
        rho = _density(rng, spec("ginibre_density", m, n, rank=rank, seed=BASE_SEED + m * n))
        for k in ks:
            cells.append((rho, k, None, True if k == min(m, n) else None))
    for m, n, kc in ((3, 3, 1), (4, 4, 2), (3, 4, 1)):
        rho = _density(rng, spec("sn_bounded_density", m, n, k=kc, terms=4, seed=BASE_SEED + m * n))
        cells.append((rho, kc, None, True))
    for d, k, ps in ((3, 1, (0.15, 0.65)), (4, 2, (0.3, 0.75))):
        for p in ps:
            cells.append((_density(rng, spec("isotropic", d, d, p=p)), k, None,
                          checks.isotropic_sn_at_most(p, d, k)))
    for m, n, k in ((3, 3, 1), (4, 4, 2), (2, 3, 1)):
        base = E.generate(spec("haar_pure", m, n, seed=BASE_SEED + m * n)).amplitudes
        v = _rotate(rng, np.array(base), m, n)
        cells.append((_projector(v, m, n), k, v, checks.schmidt_rank(v, m, n) <= k))

    ops = []
    for x, k, pure, sn_ok in cells:
        m, n = x.dims
        mat = np.array(x.mat)
        ops += [
            Op("sk_bounds", lambda x=x, k=k: E.sk_bounds(x, k),
               lambda r, mat=mat, k=k, m=m, n=n, pure=pure: checks.sk_bracket(r, mat, k, m, n, pure)),
            Op("gamma_bounds", lambda x=x, k=k: E.gamma_bounds(x, k),
               lambda r, mat=mat, k=k, m=m, n=n, pure=pure: checks.gamma_bracket(r, mat, k, m, n, pure)),
            Op("robustness_bounds", lambda x=x, k=k: E.robustness_bounds(x, k),
               lambda r, mat=mat, sn_ok=sn_ok: checks.robustness_bracket(r, mat, sn_ok)),
            Op("sn_certify", lambda x=x, k=k: E.sn_certify(x, k),
               lambda r, mat=mat, k=k, m=m, n=n, sn_ok=sn_ok: checks.sn_certification(r, mat, k, m, n, sn_ok)),
            Op("detect_schmidt_number", lambda x=x, k=k: E.detect_schmidt_number(x, k, use_filter=True),
               lambda r, mat=mat, k=k, m=m, n=n, sn_ok=sn_ok: checks.detection(r, mat, k, m, n, sn_ok)),
        ]
    return ops


# -------------------------------------------------------------- witness_radius

def witness_radius(seed: int) -> list[Op]:
    """Analytic witnesses W_k, flip operators and random hermitian
    operators through block positivity and both radius brackets at
    k in {1, 2}."""
    rng = _rng(seed, "witness_radius")
    cases = []  # (matrix, m, n, {k: block positive?}, radius or None)
    for d, k in ((3, 1), (3, 2), (4, 1)):
        cases.append((_witness_w(d, k), d, d, {1: 1 <= k, 2: 2 <= k}, float(k)))
    for d in (2, 3):
        cases.append((_flip(d), d, d, {1: True, 2: False}, 1.0))
    for m, n in ((2, 3), (3, 3), (2, 4)):
        cases.append((_random_hermitian(m, n, BASE_SEED + m * n), m, n, {}, None))
    cases = [(_rotate(rng, mat, m, n), m, n, pos, radius) for mat, m, n, pos, radius in cases]

    ops = []
    for mat, m, n, positive, radius in cases:
        y = E.bipartite(mat, m, n)
        for k in (1, 2):
            ops.append(Op("block_positivity_check", lambda y=y, k=k: E.block_positivity_check(y, k),
                          lambda r, mat=mat, pos=positive.get(k): checks.block_positivity(r, mat, pos)))
        for k in (1, 2):
            bounds = Op("prod_radius_bounds", lambda y=y, k=k: E.prod_radius_bounds(y, k),
                        lambda r, mat=mat, radius=radius: checks.radius_bracket(r, mat, "prod_radius_bounds", radius))
            ops.append(bounds)
            ops.append(Op("prod_radius_bisect", lambda y=y, k=k: E.prod_radius_bisect(y, k),
                          _bisect_check(mat, radius, bounds)))
    return ops


def _bisect_check(mat, radius, bounds_op: Op):
    """The bisection bracket is checked alone and against the bracket of
    prod_radius_bounds on the same operator, which ran just before it in
    the same sweep."""

    def check(r):
        checks.radius_bracket(r, mat, "prod_radius_bisect", radius)
        checks.overlap(bounds_op.last, r, "prod_radius_bounds vs prod_radius_bisect")

    return check


# ------------------------------------------------------------------- oracle_lp

def oracle_lp(seed: int) -> list[Op]:
    """decomposition_oracle and sn_certify(budget=...) on 2x2..4x4
    densities, budgets from the 2d^2 floor to three times it, including
    the separable 3x3 isotropic state at p = 0.2.  The sn_certify inputs
    have a known Schmidt number: isotropic states on both sides of the
    threshold and bounded-Schmidt-number mixtures."""
    rng = _rng(seed, "oracle_lp")
    ops = []

    def oracle(rho, k, factors):
        m, n = rho.dims
        mat = np.array(rho.mat)
        tn = checks.trace_norm(mat)
        for f in factors:
            budget = f * 2 * (m * n) ** 2
            ops.append(Op("decomposition_oracle",
                          lambda rho=rho, k=k, b=budget: E.decomposition_oracle(rho, k, budget=b),
                          lambda r, mat=mat, k=k, m=m, n=n: checks.oracle(r[0], r[1], mat, k, m, n),
                          lambda r, tn=tn: ([Bracket(tn, r[0], False)], [])))

    def certify(rho, k, factors, sn_ok):
        m, n = rho.dims
        mat = np.array(rho.mat)
        for f in factors:
            budget = f * 2 * (m * n) ** 2
            ops.append(Op("sn_certify",
                          lambda rho=rho, k=k, b=budget: E.sn_certify(rho, k, budget=b),
                          lambda r, mat=mat, k=k, m=m, n=n: checks.sn_certification(r, mat, k, m, n, sn_ok)))

    spec = E.EnsembleSpec
    # The 4x4 LP (512 rows) runs at k = 2 only: at k = 1 the same LP size
    # takes twice as long and one call would be a third of the sweep.
    for (m, n), k, factors in (((2, 2), 1, (1, 2)), ((2, 3), 1, (1, 2, 3)), ((3, 3), 1, (1, 2)),
                               ((3, 4), 1, (1,)), ((4, 4), 2, (1,))):
        oracle(_density(rng, spec("ginibre_density", m, n, seed=BASE_SEED + m * n)), k, factors)
    iso = E.generate(spec("isotropic", 3, 3, p=0.2))
    oracle(iso, 1, (1, 3))
    certify(iso, 1, (1, 3), checks.isotropic_sn_at_most(0.2, 3, 1))
    for d, ps in ((2, (0.25, 0.7)), (3, (0.1, 0.65))):
        for p in ps:
            certify(_density(rng, spec("isotropic", d, d, p=p)), 1, (1,), checks.isotropic_sn_at_most(p, d, 1))
    for m, n, kc, factors in ((3, 3, 1, (1, 2)), (4, 4, 2, (1,))):
        rho = _density(rng, spec("sn_bounded_density", m, n, k=kc, terms=3, seed=BASE_SEED + m * n))
        certify(rho, kc, factors, True)
    return ops


LIBRARY = {
    "certify_grid": certify_grid,
    "witness_radius": witness_radius,
    "oracle_lp": oracle_lp,
}


# ----------------------------------------------------------------- cli_oneshot

@dataclass
class CliCommand:
    argv: list[str]
    check: Callable[[dict], None]


CLI_REPORT_KEYS = {"command", "inputs", "k", "result", "tolerances", "seed", "wall_time_ms", "warnings"}
CLI_RESULT_KEYS = {
    "gen": {"kind", "dims", "file_kind", "path"},
    "schmidt": {"rank", "coefficients"},
    "detect": {"criterion", "value", "threshold", "detected", "filtered"},
    "norm": None,  # depends on --which; checked per command
    "oracle": {"upper", "terms", "weight", "residual"},
    "blockpos": {"verdict", "c", "interval"},
}


CLI_ISO_P = 0.65  # an entangled 3x3 isotropic state


def _write(path: str, dims, kind: str, data: np.ndarray) -> None:
    """The documented operator file format, written without entnorms."""
    pairs = np.stack([data.real, data.imag], axis=-1).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dims": list(dims), "kind": kind, "data": pairs, "meta": {}}, fh)


def cli_inputs(seed: int, workdir: str) -> dict:
    """Write the cli_oneshot input files; returns name -> (path, m, n, array)
    and the seeds of the two gen commands."""
    rng = _rng(seed, "cli_oneshot")
    files = {}

    def add(name, dims, kind, data):
        path = os.path.join(workdir, f"{name}.json")
        _write(path, dims, kind, data)
        files[name] = (path, dims[0], dims[1], data)

    spec = E.EnsembleSpec
    for name, (m, n) in (("g22", (2, 2)), ("g33", (3, 3))):
        rho = _density(rng, spec("ginibre_density", m, n, seed=BASE_SEED + m * n))
        add(name, (m, n), "density", np.array(rho.mat))
    for name, (m, n) in (("h33", (3, 3)), ("h24", (2, 4))):
        v = E.generate(spec("haar_pure", m, n, seed=BASE_SEED + m * n)).amplitudes
        add(name, (m, n), "state_vector", _rotate(rng, np.array(v), m, n))
    add("iso33", (3, 3), "density", np.array(_density(rng, spec("isotropic", 3, 3, p=CLI_ISO_P)).mat))
    add("w1", (3, 3), "operator", _rotate(rng, _witness_w(3, 1).astype(complex), 3, 3))
    add("flip2", (2, 2), "operator", _rotate(rng, _flip(2).astype(complex), 2, 2))
    files["gen_seeds"] = [_draw(rng), _draw(rng)]
    return files


def cli_commands(files: dict, workdir: str) -> list[CliCommand]:
    s1, s2 = files["gen_seeds"]

    def f(name):
        return files[name][0]

    def arr(name):
        _, m, n, data = files[name]
        return m, n, data

    def c_gen(path, kind, m, n):
        def check(rep):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            data = np.array(doc["data"])
            z = data[..., 0] + 1j * data[..., 1]
            checks.require(doc["dims"] == [m, n], "gen: wrong dims in the written file")
            if kind == "haar_pure":
                checks.require(abs(np.linalg.norm(z) - 1) <= 1e-9, "gen: state vector is not unit")
            else:
                lam = np.linalg.eigvalsh((z + z.conj().T) / 2)
                checks.require(lam[0] >= -1e-9 and abs(np.trace(z).real - 1) <= 1e-9,
                               "gen: density is not PSD with unit trace")
            checks.require(rep["result"]["dims"] == [m, n], "gen: reported dims")
        return check

    def c_schmidt(name):
        m, n, v = arr(name)

        def check(rep):
            s = checks.schmidt_coeffs(v, m, n)
            s = s[s > 1e-10 * s[0]]
            got = np.array(rep["result"]["coefficients"])
            checks.require(rep["result"]["rank"] == s.size and got.shape == s.shape
                           and np.allclose(got, s, rtol=1e-9, atol=1e-12), "schmidt: coefficients differ from numpy")
        return check

    def c_detect(name, filtered, sn_ok):
        m, n, rho = arr(name)

        def check(rep):
            r = rep["result"]
            ref = checks.trace_norm(checks.realign_by_index(rho, m, n))
            if filtered:
                checks.require(r["value"] >= ref * (1 - 1e-9), "detect --filter: value below the raw realignment")
            else:
                checks.require(abs(r["value"] - ref) <= 1e-9 * max(1, ref), "detect: value != realigned trace norm")
            checks.require(r["detected"] == (r["value"] > 1 + 1e-9), "detect: detected flag")
            if sn_ok:
                checks.require(not r["detected"], "detect: detection on a state of Schmidt number <= k")
        return check

    def c_value(name, ref_fn, keys=frozenset({"value", "method"})):
        def check(rep):
            r = rep["result"]
            checks.require(set(r) == keys, f"norm: result keys {sorted(r)}")
            ref = ref_fn(*arr(name))
            checks.require(abs(r["value"] - ref) <= 1e-9 * max(1, ref), f"norm: {r['value']!r} != numpy {ref!r}")
        return check

    def c_gamma(name, k):
        m, n, data = arr(name)
        pure = data if data.ndim == 1 else None
        mat = np.outer(data, data.conj()) if pure is not None else data

        def check(rep):
            r = rep["result"]
            checks.require(set(r) == {"lower", "upper", "methods", "exact"}, "norm --which gamma: result keys")
            checks.gamma_bracket(Bracket(r["lower"], r["upper"], r["exact"]), mat, k, m, n, pure)
        return check

    def c_oracle(name):
        m, n, rho = arr(name)

        def check(rep):
            r = rep["result"]
            tn = checks.trace_norm(rho)
            checks.require(r["upper"] >= tn * (1 - 1e-9), "oracle: upper below trace norm")
            checks.require(r["terms"] >= 1 and r["weight"] <= r["upper"] * (1 + 1e-9) and r["residual"] >= 0,
                           "oracle: inconsistent terms, weight or residual")
        return check

    def c_blockpos(name, positive):
        m, n, y = arr(name)

        def check(rep):
            r = rep["result"]
            res = _BlockPos(r["verdict"], r["c"], Bracket(r["interval"]["lower"], r["interval"]["upper"],
                                                           r["interval"]["exact"]))
            checks.block_positivity(res, y, positive)
        return check

    def k2(k):
        return lambda m, n, mat: float(np.sqrt(np.sum(np.linalg.svd(mat, compute_uv=False)[:k] ** 2)))

    def dual_vec(k):
        return lambda m, n, v: checks.k_support_norm(checks.schmidt_coeffs(v, m, n), k)

    iso_ok = checks.isotropic_sn_at_most(CLI_ISO_P, 3, 1)
    out = os.path.join(workdir, "gen_{}.json")
    return [
        CliCommand(["gen", "--kind", "haar_pure", "--m", "3", "--n", "3", "--seed", str(s1),
                    "--out", out.format("a")], c_gen(out.format("a"), "haar_pure", 3, 3)),
        CliCommand(["gen", "--kind", "ginibre_density", "--m", "2", "--n", "2", "--seed", str(s2),
                    "--out", out.format("b")], c_gen(out.format("b"), "ginibre_density", 2, 2)),
        CliCommand(["schmidt", f("h33")], c_schmidt("h33")),
        CliCommand(["schmidt", f("h24")], c_schmidt("h24")),
        CliCommand(["detect", "--k", "1", f("g33")], c_detect("g33", False, None)),
        CliCommand(["detect", "--k", "1", "--filter", f("g33")], c_detect("g33", True, None)),
        CliCommand(["detect", "--k", "1", f("iso33")], c_detect("iso33", False, iso_ok)),
        CliCommand(["detect", "--k", "1", "--filter", f("g22")], c_detect("g22", True, None)),
        CliCommand(["norm", "--which", "k2", "--k", "1", f("g33")], c_value("g33", k2(1))),
        CliCommand(["norm", "--which", "k2", "--k", "2", f("g33")], c_value("g33", k2(2))),
        CliCommand(["norm", "--which", "sk-dual-vec", "--k", "1", f("h33")], c_value("h33", dual_vec(1))),
        CliCommand(["norm", "--which", "sk-dual-vec", "--k", "2", f("h33")], c_value("h33", dual_vec(2))),
        CliCommand(["norm", "--which", "gamma", "--k", "1", f("g22")], c_gamma("g22", 1)),
        CliCommand(["norm", "--which", "gamma", "--k", "1", f("g33")], c_gamma("g33", 1)),
        CliCommand(["norm", "--which", "gamma", "--k", "1", f("h33")], c_gamma("h33", 1)),
        CliCommand(["oracle", "--k", "1", "--budget", "32", f("g22")], c_oracle("g22")),
        CliCommand(["oracle", "--k", "1", "--budget", "162", f("g33")], c_oracle("g33")),
        CliCommand(["blockpos", "--k", "1", f("w1")], c_blockpos("w1", True)),
        CliCommand(["blockpos", "--k", "2", f("w1")], c_blockpos("w1", False)),
        CliCommand(["blockpos", "--k", "1", f("flip2")], c_blockpos("flip2", True)),
    ]


class _BlockPos(NamedTuple):
    verdict: str
    c: float
    interval: Bracket


def cli_check(cmd: CliCommand, code: int, stdout: str) -> dict:
    """Exit code 0, the documented key sets, then the command's own check."""
    checks.require(code == 0, f"{' '.join(cmd.argv[:3])}: exit code {code}")
    rep = json.loads(stdout)
    checks.require(set(rep) == CLI_REPORT_KEYS, f"report keys {sorted(rep)}")
    keys = CLI_RESULT_KEYS[rep["command"]]
    if keys is not None:
        checks.require(set(rep["result"]) == keys, f"{rep['command']}: result keys {sorted(rep['result'])}")
    cmd.check(rep)
    return rep


def cli_summary(rep: dict) -> tuple[list, list]:
    r = rep["result"]
    if rep["command"] == "blockpos":
        iv = r["interval"]
        return [Bracket(iv["lower"], iv["upper"], iv["exact"])], [r["verdict"]]
    if "lower" in r:
        return [Bracket(r["lower"], r["upper"], r["exact"])], []
    return [], []
