"""Command line interface: operator files in, machine-readable reports out.

File format (JSON): {"dims": [m, n], "kind": "state_vector" | "operator" |
"density", "data": nested [re, im] pairs (row-major), "meta": {...}}.
Densities are checked against hermiticity/PSD/unit-trace at 1e-6 on load;
violations are surfaced as warnings in the report, never silently fixed
(commands with stricter preconditions still reject such inputs).

Reports are JSON with a fixed key set: command, inputs (sha256 of the input
file or of the parameter string), k, result, tolerances, seed,
wall_time_ms, warnings.  run() builds every report: it loads the input,
and each command's handler returns only its result and the tolerances it
read.  A command takes only the flags it reads, or for norm may read; any
other is a usage error.  Without --seed the report's seed is null.  With
the same argv and seed the report is byte-identical apart from
wall_time_ms.  The text format is a human rendering of the same data and
is not a stable interface.

Exit codes: 0 success; 1 input or parameter errors (including usage and a
report that cannot be written); 2 numerical failures (svd/eig
non-convergence, LP failure, overflow); 3 an undecided verdict when
--require-decision was set.

Only oracle solves a linear program, so only oracle loads scipy; every
other command starts with numpy alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import criteria, dualnorms, kyfan, sknorm, states
from .errors import ParameterError
from .linalg import BipartiteOperator, bipartite, inject_svd_failure, kron, partial_transpose, swap_operator
from .schmidt import DEFAULT_RANK_TOL, PureState, pure_state, schmidt_decompose, s_k_dual
from .sknorm import NormInterval

_FILE_KINDS = ("state_vector", "operator", "density")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which this tool reserves
    # for numerical failures; route them to exit 1 instead.
    def error(self, message):
        raise _UsageError(message)


def _to_pairs(arr: np.ndarray) -> list:
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _from_pairs(data, shape: tuple[int, ...], path: str) -> np.ndarray:
    try:
        arr = np.array(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{path}: field 'data' is not numeric [re, im] nesting: {exc}") from exc
    if arr.shape != shape + (2,):
        raise ParameterError(
            f"{path}: field 'data' has shape {arr.shape}, expected {shape + (2,)}"
        )
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{path}: field 'data' contains non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def save_operator(path: str, value: PureState | BipartiteOperator, meta: dict | None = None) -> None:
    """Write a state vector or operator to the JSON file format."""
    if isinstance(value, PureState):
        kind = "state_vector"
        dims = [value.dim_a, value.dim_b]
        data = _to_pairs(value.amplitudes)
    else:
        dims = [value.dim_a, value.dim_b]
        tr = float(np.real(np.trace(value.mat)))
        kind = "density" if value.hermitian and abs(tr - 1.0) <= 1e-6 else "operator"
        data = _to_pairs(value.mat)
    doc = {"dims": dims, "kind": kind, "data": data, "meta": dict(meta or {})}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _parse_operator_doc(doc, path: str) -> tuple[PureState | BipartiteOperator, list[str]]:
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: top level must be a JSON object")
    for field in ("dims", "kind", "data"):
        if field not in doc:
            raise ParameterError(f"{path}: missing field '{field}'")
    dims = doc["dims"]
    # type(), not isinstance(): JSON true/false load as bool, an int subclass.
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(type(d) is int and d >= 1 for d in dims)
    ):
        raise ParameterError(f"{path}: field 'dims' must be two positive integers")
    m, n = dims
    kind = doc["kind"]
    if kind not in _FILE_KINDS:
        raise ParameterError(f"{path}: field 'kind' must be one of {_FILE_KINDS}, got {kind!r}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ParameterError(f"{path}: field 'meta' must be an object")

    warnings: list[str] = []
    if kind == "state_vector":
        vec = _from_pairs(doc["data"], (m * n,), path)
        nrm = float(np.linalg.norm(vec))
        if abs(nrm - 1.0) > 1e-6:
            warnings.append(f"state vector norm {nrm:.9g} deviates from 1 beyond 1e-6")
        return pure_state(vec, m, n, require_normalized=False), warnings

    mat = _from_pairs(doc["data"], (m * n, m * n), path)
    value = bipartite(mat, m, n)
    if kind == "density":
        if not value.hermitian:
            warnings.append("density file is not hermitian within tolerance")
        else:
            lam = value.eigh[0]
            scale = max(1.0, float(np.max(np.abs(lam))))
            if float(lam[-1]) < -1e-6 * scale:
                warnings.append(f"density file is not PSD within 1e-6 (min eigenvalue {lam[-1]:.3e})")
        tr = float(np.real(np.trace(mat)))
        if abs(tr - 1.0) > 1e-6:
            warnings.append(f"density file trace {tr:.9g} deviates from 1 beyond 1e-6")
    return value, warnings


def _load(path: str) -> tuple[PureState | BipartiteOperator, list[str], str]:
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except RecursionError as exc:
        raise ParameterError(f"{path}: JSON nested too deeply to read") from exc
    value, warnings = _parse_operator_doc(doc, path)
    return value, warnings, digest


def load_operator(path: str) -> PureState | BipartiteOperator:
    """Load a state vector or operator from the JSON file format."""
    return _load(path)[0]


def _as_operator(value: PureState | BipartiteOperator) -> BipartiteOperator:
    """Operator commands accept state vectors by passing to the projector."""
    if isinstance(value, PureState):
        proj = np.outer(value.amplitudes, value.amplitudes.conj())
        return bipartite(proj, value.dim_a, value.dim_b, symmetrize=True)
    return value


def _as_pure(value: PureState | BipartiteOperator, command: str) -> PureState:
    if not isinstance(value, PureState):
        raise ParameterError(f"{command} requires a state_vector input file")
    return value


def _interval_dict(iv: NormInterval) -> dict:
    return {
        "lower": iv.lower,
        "upper": iv.upper,
        "methods": [iv.lower_method, iv.upper_method],
        "exact": iv.exact,
    }


def _param_digest(parts: list) -> str:
    canon = "|".join(str(p) for p in parts)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _seesaw_kwargs(args) -> dict:
    return {
        "restarts": args.restarts,
        "max_iter": args.max_iter,
        "seed": args.seed,
    }


def _cmd_schmidt(args, value):
    sd = schmidt_decompose(_as_pure(value, "schmidt"), tol=args.tol)
    return {"rank": sd.rank, "coefficients": [float(c) for c in sd.coeffs]}, {"rank_tol": args.tol}


def _cmd_norm(args, value):
    which = args.which
    if which == "sk-dual-vec":
        v = _as_pure(value, "norm --which sk-dual-vec")
        return {"value": s_k_dual(v, args.k), "method": "closed_form"}, {}
    if which in ("k2", "k2dual"):
        mat = value.matrix() if isinstance(value, PureState) else value.mat
        fn = kyfan.k2_norm if which == "k2" else kyfan.k2_dual
        return {"value": float(fn(mat, args.k)), "method": "closed_form"}, {}
    x = _as_operator(value)
    if which == "gamma":
        return _interval_dict(dualnorms.gamma_bounds(x, args.k)), {}
    bracket = sknorm.sk_bounds if which == "sk" else sknorm.prod_radius_bounds
    return _interval_dict(bracket(x, args.k, **_seesaw_kwargs(args))), {}


def _cmd_detect(args, value):
    rho = _as_operator(value)
    if args.weak:
        if args.filter:
            raise ParameterError("--weak has no filtered variant; drop --filter")
        report = criteria.weak_realignment(rho, args.k, tol=args.tol)
    else:
        report = criteria.detect_schmidt_number(rho, args.k, use_filter=args.filter, tol=args.tol)
    result = {
        "criterion": report.criterion,
        "value": report.value,
        "threshold": report.threshold,
        "detected": report.detected,
        "filtered": report.filtered,
    }
    return result, {"tol": args.tol}


def _cmd_blockpos(args, value):
    y = _as_operator(value)
    res = sknorm.block_positivity_check(y, args.k, tol=args.tol, **_seesaw_kwargs(args))
    result = {
        "verdict": res.verdict,
        "c": res.c,
        "interval": _interval_dict(res.interval),
    }
    return result, {"tol": args.tol}


def _cmd_witness(args, value):
    wit = dualnorms.best_gamma_witness(_as_operator(value), args.k)
    result = {
        "method": wit.method,
        "pairing": wit.pairing,
        "sk_upper": wit.sk_upper,
        "bound": wit.bound,
    }
    return result, {}


def _cmd_oracle(args, value):
    upper, dec = dualnorms.decomposition_oracle(
        _as_operator(value), args.k, budget=args.budget, seed=args.seed
    )
    result = {
        "upper": upper,
        "terms": len(dec),
        "weight": dec.weight,
        "residual": dec.residual,
    }
    return result, {"budget": args.budget}


def _cmd_probe(args, value):
    probe = dualnorms.conjecture_probe(_as_pure(value, "probe-conjecture"), args.k)
    result = {
        "candidate": probe.candidate,
        "interval": _interval_dict(probe.interval),
        "inside": probe.inside,
        "gap": probe.gap,
        "in_open_regime": probe.in_open_regime,
    }
    return result, {}


def _cmd_gen(args, value):
    if not args.out:
        raise ParameterError("gen requires --out FILE for the generated state")
    spec = states.EnsembleSpec(
        kind=args.kind,
        dim_a=args.m,
        dim_b=args.n,
        k=args.k,
        p=args.p,
        rank=args.rank,
        terms=args.terms,
        seed=args.seed,
    )
    state = states.generate(spec)
    save_operator(args.out, state, meta={"kind": args.kind, "seed": str(args.seed)})
    result = {
        "kind": args.kind,
        "dims": [args.m, args.n],
        "file_kind": "state_vector" if isinstance(state, PureState) else "density",
        "path": args.out,
    }
    return result, {}


def _cmd_invariance(args, value):
    m, n, k = args.m, args.n, args.k
    for flag, count in (("--m", m), ("--n", n), ("--trials", args.trials)):
        if count < 1:
            raise ParameterError(f"{flag} must be at least 1, got {count}")
    rng = np.random.default_rng(args.seed)
    deviations: list[float] = []
    swap = swap_operator(m).mat if m == n else None

    def coeffs(vec: np.ndarray) -> np.ndarray:
        return np.linalg.svd(vec.reshape(m, n), compute_uv=False)

    for _ in range(args.trials):
        g = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
        vec = g / np.linalg.norm(g)
        v = pure_state(vec, m, n)
        base_coeffs = coeffs(vec)
        base_sk = sknorm.sk_pure(v, k)
        base_gamma = dualnorms.gamma_pure(v, k)

        rotated = kron(states.haar_unitary(m, rng), states.haar_unitary(n, rng)) @ vec
        transformed = [rotated, vec.conj()]
        if swap is not None:
            transformed.append(swap @ vec)
        for tvec in transformed:
            tv = pure_state(tvec, m, n, require_normalized=False)
            deviations.append(float(np.max(np.abs(coeffs(tvec) - base_coeffs))))
            deviations.append(abs(sknorm.sk_pure(tv, k) - base_sk))
            deviations.append(abs(dualnorms.gamma_pure(tv, k) - base_gamma))

        prod = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (m, n, m, n)]
        prod = [p / np.linalg.norm(p) for p in prod]
        ketbra = np.outer(np.kron(prod[0], prod[1]), np.kron(prod[2], prod[3]).conj())
        elem = bipartite(ketbra, m, n)
        before = sknorm.sk_bounds(elem, k)
        after = sknorm.sk_bounds(partial_transpose(elem), k)
        deviations.append(abs(before.upper - after.upper))

    max_dev = max(deviations)
    result = {
        "trials": args.trials,
        "dims": [m, n],
        "checks": len(deviations),
        "max_deviation": max_dev,
        "ok": max_dev <= 1e-9,
    }
    return result, {"deviation_tol": 1e-9}


# The commands without an input file digest their parameters instead.
_PARAMETERS = {
    "gen": ("kind", "m", "n", "k", "p", "terms", "rank", "seed"),
    "invariance": ("m", "n", "k", "trials", "seed"),
}

_HANDLERS = {
    "schmidt": _cmd_schmidt,
    "norm": _cmd_norm,
    "detect": _cmd_detect,
    "blockpos": _cmd_blockpos,
    "witness": _cmd_witness,
    "oracle": _cmd_oracle,
    "probe-conjecture": _cmd_probe,
    "gen": _cmd_gen,
    "invariance": _cmd_invariance,
}


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes the report options plus only the groups it reads.
    report = _Parser(add_help=False)
    report.add_argument("--format", choices=("json", "text"), default="json",
                        help="report rendering (json is the stable interface)")
    report.add_argument("--out", default=None,
                        help="write the report here instead of stdout (gen: the state file)")
    report.add_argument("--inject-svd-failure", action="store_true",
                        help="testing hook: force the next svd to fail")

    def tol(default: float) -> argparse.ArgumentParser:
        # A parent per command: subparsers share a parent's actions, and
        # with them its default.
        parent = _Parser(add_help=False)
        parent.add_argument("--tol", type=float, default=default,
                            help="decision tolerance (default per command)")
        return parent

    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")
    seesaw = _Parser(add_help=False)
    seesaw.add_argument("--restarts", type=int, default=32, help="see-saw restarts")
    seesaw.add_argument("--max-iter", type=int, default=500, help="see-saw iteration cap")

    parser = _Parser(prog="entnorms",
                     description="Entanglement norms: bounds, certificates, detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", parents=[report, tol(DEFAULT_RANK_TOL)],
                       help="Schmidt decomposition of a state vector")
    p.add_argument("file")

    p = sub.add_parser("norm", parents=[report, seed, seesaw], help="norm values and certified brackets")
    p.add_argument("--which", required=True,
                   choices=("sk", "gamma", "radius", "k2", "k2dual", "sk-dual-vec"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("file")

    p = sub.add_parser("detect", parents=[report, tol(criteria.DETECTION_TOL)],
                       help="Schmidt-number detection criteria")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--filter", action="store_true", help="try a local filter first")
    p.add_argument("--weak", action="store_true", help="trace-norm variant instead")
    p.add_argument("file")

    p = sub.add_parser("blockpos", parents=[report, tol(sknorm.BLOCK_POSITIVITY_TOL), seed, seesaw],
                       help="k-block positivity check")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--require-decision", action="store_true",
                   help="exit 3 when the verdict is undecided")
    p.add_argument("file")

    p = sub.add_parser("witness", parents=[report], help="best duality witness for gamma_k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("file")

    p = sub.add_parser("oracle", parents=[report, seed], help="LP decomposition upper bound on gamma_k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=2000, help="generator pool size")
    p.add_argument("file")

    p = sub.add_parser("probe-conjecture", parents=[report],
                       help="compare 2*gamma_k - 1 against the robustness bracket")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("file")

    p = sub.add_parser("gen", parents=[report, seed], help="generate a seeded test state")
    p.add_argument("--kind", required=True, choices=states.KINDS)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)

    p = sub.add_parser("invariance", parents=[report, seed],
                       help="run the isometry-invariance property suite")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=int, default=20)

    return parser


def _render_text(report: dict) -> str:
    lines: list[str] = []

    def emit(key, value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for kk, vv in value.items():
                emit(kk, vv, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{pad}{key}:")
            for i, vv in enumerate(value):
                emit(str(i), vv, indent + 1)
        else:
            lines.append(f"{pad}{key}: {value}")

    for key, value in report.items():
        emit(key, value, 0)
    return "\n".join(lines) + "\n"


def run(argv=None) -> int:
    """Execute one command; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"entnorms: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    if args.inject_svd_failure:
        inject_svd_failure(True)
    start = time.perf_counter()
    try:
        if args.command in _PARAMETERS:
            parts = [args.command] + [getattr(args, a) for a in _PARAMETERS[args.command]]
            value, warnings, digest = None, [], _param_digest(parts)
        else:
            value, warnings, digest = _load(args.file)
        result, tolerances = _HANDLERS[args.command](args, value)
        report = {
            "command": args.command,
            "inputs": digest,
            "k": getattr(args, "k", None),
            "result": result,
            "tolerances": tolerances,
            "seed": getattr(args, "seed", None),
            "wall_time_ms": round((time.perf_counter() - start) * 1000.0, 3),
            "warnings": warnings,
        }
        rendered = (
            json.dumps(report, indent=2) + "\n" if args.format == "json" else _render_text(report)
        )
        if args.command != "gen" and args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        else:
            sys.stdout.write(rendered)
    except (ValueError, OSError) as exc:
        print(f"entnorms: error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"entnorms: numerical failure: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.inject_svd_failure:
            inject_svd_failure(False)
    return 3 if getattr(args, "require_decision", False) and result["verdict"] == "undecided" else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
