"""Benchmark of entnorms: four workloads, end-to-end metrics or a traced
per-layer breakdown, every output checked against numpy.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  One
caller runs a closed loop: each operation starts when the previous one
has returned.  A run repeats whole sweeps of the workload's operations
until S seconds have passed and at least MIN_SWEEPS sweeps are done.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; a fuller record goes to bench/results/.
See bench/README.md for the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
WORKLOADS = ("certify_grid", "witness_radius", "oracle_lp", "cli_oneshot")
MIN_SWEEPS = 2
SETUP_REPEATS = 5
CLI_IMPORT_REPEATS = 3

PER_LAYER = {
    # metric name: (span name, field, unit)
    "linalg.svd.calls": ("linalg.svd", "calls", "count"),
    "linalg.svd.ms": ("linalg.svd", "ms", "ms"),
    "linalg.eig_hermitian.calls": ("linalg.eig_hermitian", "calls", "count"),
    "linalg.eig_hermitian.ms": ("linalg.eig_hermitian", "ms", "ms"),
    "kyfan.k2_dual.calls": ("kyfan.k2_dual", "calls", "count"),
    "kyfan.k2_dual.ms": ("kyfan.k2_dual", "ms", "ms"),
    "schmidt.schmidt_decompose.calls": ("schmidt.schmidt_decompose", "calls", "count"),
    "schmidt.schmidt_decompose.ms": ("schmidt.schmidt_decompose", "ms", "ms"),
    "sknorm.seesaw_lower.calls": ("sknorm.seesaw_lower", "calls", "count"),
    "sknorm.seesaw_lower.ms": ("sknorm.seesaw_lower", "ms", "ms"),
    "sknorm.seesaw_lower.self_ms": ("sknorm.seesaw_lower", "self_ms", "ms"),
    "sknorm.seesaw_lower.restarts": ("sknorm.seesaw_lower", "restarts", "count"),
    "sknorm.seesaw_lower.iterations": ("sknorm.seesaw_lower", "iterations", "count"),
    "sknorm.seesaw_lower.converged": ("sknorm.seesaw_lower", "converged", "count"),
    "sknorm.sk_bounds.ms": ("sknorm.sk_bounds", "ms", "ms"),
    "sknorm.block_positivity_check.calls": ("sknorm.block_positivity_check", "calls", "count"),
    "sknorm.block_positivity_check.ms": ("sknorm.block_positivity_check", "ms", "ms"),
    "sknorm.prod_radius_bounds.ms": ("sknorm.prod_radius_bounds", "ms", "ms"),
    "sknorm.prod_radius_bisect.ms": ("sknorm.prod_radius_bisect", "ms", "ms"),
    "dualnorms.best_gamma_witness.calls": ("dualnorms.best_gamma_witness", "calls", "count"),
    "dualnorms.best_gamma_witness.ms": ("dualnorms.best_gamma_witness", "ms", "ms"),
    "dualnorms.gamma_bounds.ms": ("dualnorms.gamma_bounds", "ms", "ms"),
    "dualnorms.robustness_bounds.ms": ("dualnorms.robustness_bounds", "ms", "ms"),
    "dualnorms.sn_certify.ms": ("dualnorms.sn_certify", "ms", "ms"),
    "dualnorms.decomposition_oracle.calls": ("dualnorms.decomposition_oracle", "calls", "count"),
    "dualnorms.decomposition_oracle.ms": ("dualnorms.decomposition_oracle", "ms", "ms"),
    "dualnorms.linprog.ms": ("dualnorms.linprog", "ms", "ms"),
    "dualnorms.oracle_assembly.ms": ("dualnorms.decomposition_oracle", "assembly_ms", "ms"),
    "dualnorms.linprog.rows": ("dualnorms.linprog", "rows", "count"),
    "dualnorms.linprog.cols": ("dualnorms.linprog", "cols", "count"),
    "dualnorms.oracle.terms_per_column": ("dualnorms.decomposition_oracle", "terms_per_column", "1"),
    "criteria.detect_schmidt_number.ms": ("criteria.detect_schmidt_number", "ms", "ms"),
    "criteria.local_filter.calls": ("criteria.local_filter", "calls", "count"),
    "criteria.local_filter.ms": ("criteria.local_filter", "ms", "ms"),
    "criteria.local_filter.iterations": ("criteria.local_filter", "iterations", "count"),
    "states.generate.ms": ("states.generate", "ms", "ms"),
}
# Means per call, which spans.summarize computes; every other figure is a
# total per traced sweep.
PER_CALL = {"dualnorms.linprog.rows", "dualnorms.linprog.cols", "dualnorms.oracle.terms_per_column"}


def _cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# latency_tail_ms is the latency of the operation with TAIL_RANK - 1
# slower ones: 10 samples lie beyond it at the minimum of two sweeps.
TAIL_RANK = 6


def _latencies(per_op: dict[int, list[float]]) -> tuple[float, float]:
    """Median and tail over the operations of a sweep, each operation
    represented by its median latency over the run's sweeps.  Taking the
    per-operation median first keeps the figures from jumping between
    two operations' costs when machine noise reorders single samples."""
    typical = sorted(statistics.median(v) for v in per_op.values())
    return statistics.median(typical), typical[-TAIL_RANK]


def _rel_width(brackets) -> list[float]:
    return [(b.upper - b.lower) / b.upper for b in brackets if not b.exact and b.upper > 0]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _measure_setup(workload: str, seed: int, workdir: str) -> list[float]:
    """Wall time from starting a fresh interpreter to its inputs being ready."""
    times = []
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed), "--workdir", workdir]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env()) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup child failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def _measure_cli_import() -> list[float]:
    code = ("import time; t = time.perf_counter(); import entnorms.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    out = []
    for _ in range(CLI_IMPORT_REPEATS):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=_child_env(), check=True)
        out.append(float(res.stdout.strip()))
    return out


def _layer_metrics(summary: dict, sweeps: int) -> dict:
    out = {}
    for name, (span, field, unit) in PER_LAYER.items():
        value = summary.get(span, {}).get(field, 0)
        out[name] = _metric(float(value if name in PER_CALL else value / sweeps), unit)
    return out


class Run:
    """Counters, latencies and per-sweep figures of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # operations that raised or exited non-zero
        self.wrong: list[str] = []  # outputs the checks rejected
        self.latencies_ms: dict[int, list[float]] = {}  # operation index -> samples
        self.sweep_s: list[float] = []
        self.cpu_s: list[float] = []
        self.traced_sweep_s: list[float] = []
        self.widths: list[float] = []
        self.decided: list[int] = []
        self.extra: dict = {}

    def done(self, sweeps: int, t_start: float) -> bool:
        return sweeps >= MIN_SWEEPS and time.perf_counter() - t_start >= self.seconds

    def add_sweep(self, traced: bool, wall: float, cpu: float) -> None:
        if traced:
            self.traced_sweep_s.append(wall)
        else:
            self.sweep_s.append(wall)
            self.cpu_s.append(cpu)

    def score_sweep(self, brackets: list, verdicts: list[str]) -> None:
        widths = _rel_width(brackets)
        self.widths.append(statistics.fmean(widths) if widths else 0.0)
        self.decided.append(sum(v != "undecided" for v in verdicts))


def run_library(run: Run, workdir: str) -> tuple[dict, dict, list]:
    setup_times = _measure_setup(run.workload, run.seed, workdir)
    workloads.load_package()
    setup_rec = spans.Recorder()
    if run.trace:
        setup_rec.install()
    ops = workloads.LIBRARY[run.workload](run.seed)
    setup_rec.uninstall()

    # Warm-up outside the timed phase: one call per entry point, so lazy
    # imports and first-call costs do not land in the first sweep.
    for name in dict.fromkeys(op.name for op in ops):
        next(op for op in ops if op.name == name).call()

    rec = spans.Recorder()
    traced_sweeps = 0
    t_start = time.perf_counter()
    sweeps = 0
    while not run.done(sweeps, t_start):
        traced = run.trace and sweeps % 2 == 1
        results = []
        if traced:
            rec.install()
        c0 = _cpu_self()
        w0 = time.perf_counter()
        try:
            for idx, op in enumerate(ops):
                run.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = rec.call(op.name, op.call) if traced else op.call()
                except Exception as exc:  # a failed operation is counted, not fatal
                    run.failed += 1
                    run.errors.append(f"{op.name} raised {exc!r}")
                    result = exc
                else:
                    run.latencies_ms.setdefault(idx, []).append((time.perf_counter() - t0) * 1e3)
                results.append(result)
        finally:
            rec.uninstall()
        run.add_sweep(traced, time.perf_counter() - w0, _cpu_self() - c0)
        traced_sweeps += traced
        sweeps += 1

        brackets, verdicts = [], []
        for op, result in zip(ops, results):
            if isinstance(result, Exception):
                continue
            op.last = result
            try:
                op.check(result)
            except checks.CheckFailed as exc:
                run.wrong.append(f"{op.name}: {exc}")
            b, v = op.summary(result)
            brackets += b
            verdicts += v
        run.score_sweep(brackets, verdicts)

    run.extra["ops_per_sweep"] = len(ops)
    run.extra["setup_samples_s"] = setup_times
    layers = {}
    if run.trace:
        layers = _layer_metrics(spans.summarize(rec.spans), traced_sweeps)
        # The library workloads generate their inputs once, before the sweeps.
        generate = spans.summarize(setup_rec.spans).get("states.generate", {})
        layers["states.generate.ms"] = _metric(float(generate.get("ms", 0.0)), "ms")
        layers["cli.import.ms"] = _metric(statistics.median(_measure_cli_import()), "ms")
        layers["cli.handler.ms"] = _metric(0.0, "ms")
        layers["cli.overhead.ms"] = _metric(0.0, "ms")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return _end_to_end(run, setup_times, peak, len(ops)), layers, rec.spans


def _run_cli_process(argv: list[str], traced: bool, workdir: str, index: int):
    """One one-shot process; returns (exit code, stdout, wall s, cpu s, maxrss KiB, spans file)."""
    spans_file = os.path.join(workdir, f"spans-{index}.json")
    if traced:
        cmd = [sys.executable, os.path.join(BENCH, "spans.py"), spans_file, *argv]
    else:
        cmd = [sys.executable, "-c", "from entnorms.cli import main; main()", *argv]
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=_child_env())
        try:
            out = proc.stdout.read()
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8") as fh:
            sys.stderr.write(fh.read())
    return proc.returncode, out.decode("utf-8"), wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, \
        (spans_file if traced else None)


def _without_wall_time(stdout: str) -> str:
    return "\n".join(line for line in stdout.splitlines() if '"wall_time_ms"' not in line)


def run_cli(run: Run, workdir: str) -> tuple[dict, dict, list]:
    setup_times = _measure_setup(run.workload, run.seed, workdir)
    workloads.load_package()
    files = workloads.cli_inputs(run.seed, workdir)
    commands = workloads.cli_commands(files, workdir)

    first_reports: dict[int, str] = {}
    peak_kib = 0
    all_spans = []  # per traced process: argv and spans
    traced_sweeps = 0
    handler_ms: list[float] = []
    overhead_ms: list[float] = []
    import_ms: list[float] = []
    t_start = time.perf_counter()
    sweeps = 0
    while not run.done(sweeps, t_start):
        traced = run.trace and sweeps % 2 == 1
        c0 = _cpu_self()
        w0 = time.perf_counter()
        child_cpu = 0.0
        outputs = []
        for i, cmd in enumerate(commands):
            run.attempted += 1
            code, out, wall, cpu, rss, spans_file = _run_cli_process(cmd.argv, traced, workdir, i)
            child_cpu += cpu
            peak_kib = max(peak_kib, rss)
            if code != 0:
                run.failed += 1
                run.errors.append(f"{' '.join(cmd.argv[:3])}: exit code {code}")
            else:
                run.latencies_ms.setdefault(i, []).append(wall * 1e3)
            outputs.append((code, out, wall, spans_file))
        run.add_sweep(traced, time.perf_counter() - w0, _cpu_self() - c0 + child_cpu)
        traced_sweeps += traced
        sweeps += 1

        brackets, verdicts, sweep_handler, sweep_wall = [], [], 0.0, 0.0
        for i, (cmd, (code, out, wall, spans_file)) in enumerate(zip(commands, outputs)):
            if code != 0:
                continue
            try:
                rep = workloads.cli_check(cmd, code, out)
                stable = _without_wall_time(out)
                checks.require(first_reports.setdefault(i, stable) == stable,
                               "report differs from the first run of the same argv")
            except (checks.CheckFailed, ValueError, KeyError) as exc:
                run.wrong.append(f"{' '.join(cmd.argv[:4])}: {exc}")
                continue
            b, v = workloads.cli_summary(rep)
            brackets += b
            verdicts += v
            sweep_handler += rep["wall_time_ms"]
            sweep_wall += wall * 1e3
            if spans_file is not None:
                with open(spans_file, encoding="utf-8") as fh:
                    doc = json.load(fh)
                import_ms.append(doc["import_ms"])
                all_spans.append({"argv": cmd.argv, "spans": doc["spans"]})
        run.score_sweep(brackets, verdicts)
        if not traced:
            handler_ms.append(sweep_handler)
            overhead_ms.append(sweep_wall - sweep_handler)

    run.extra["ops_per_sweep"] = len(commands)
    run.extra["setup_samples_s"] = setup_times
    layers = {}
    if run.trace:
        # One span list for all traced processes, with ids made distinct.
        joined = []
        for proc in all_spans:
            base = len(joined)
            joined += [[sid + base, None if parent is None else parent + base, *rest]
                       for sid, parent, *rest in proc["spans"]]
        layers = _layer_metrics(spans.summarize(joined), traced_sweeps)
        layers["cli.import.ms"] = _metric(statistics.median(import_ms), "ms")
        layers["cli.handler.ms"] = _metric(statistics.median(handler_ms), "ms")
        layers["cli.overhead.ms"] = _metric(statistics.median(overhead_ms), "ms")
    return _end_to_end(run, setup_times, peak_kib / 1024.0, len(commands)), layers, all_spans


def _end_to_end(run: Run, setup_times: list[float], peak_mib: float, ops_per_sweep: int) -> dict:
    p50, tail = _latencies(run.latencies_ms)
    run.extra["latency_samples"] = sum(len(v) for v in run.latencies_ms.values())
    run.extra["tail_percentile"] = 100.0 * (1 - (TAIL_RANK - 1) / ops_per_sweep)
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "sweep_s": _metric(statistics.median(run.sweep_s), "s"),
        "cpu_s": _metric(statistics.median(run.cpu_s), "s"),
        "latency_p50_ms": _metric(p50, "ms"),
        "latency_tail_ms": _metric(tail, "ms"),
        "bracket_rel_width": _metric(statistics.median(run.widths), "1"),
        "verdicts_decided": _metric(float(statistics.median(run.decided)), "count"),
        "peak_rss_mb": _metric(peak_mib, "MiB"),
    }


def _blas_threads() -> str:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return f"unset (OpenBLAS default: one thread per core, {os.cpu_count()} cores)"


def setup_only(workload: str, seed: int, workdir: str) -> None:
    workloads.load_package()
    if workload == "cli_oneshot":
        workloads.cli_inputs(seed, workdir)
    else:
        workloads.LIBRARY[workload](seed)
    print("ready", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "entnorms", "__init__.py")):
        print(f"bench: no entnorms package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        setup_only(args.workload, args.seed, args.workdir)
        return 0

    workdir = os.path.join(BENCH, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        if args.workload == "cli_oneshot":
            e2e, layers, span_log = run_cli(run, workdir)
        else:
            e2e, layers, span_log = run_library(run, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass

    if run.trace:
        traced = statistics.median(run.traced_sweep_s)
        plain = statistics.median(run.sweep_s)
        layers["trace.overhead_pct"] = _metric((traced / plain - 1.0) * 100.0, "%")
    metrics = layers if run.trace else e2e
    result = {"correct": not run.wrong, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "end_to_end": e2e, "per_layer": layers, "errors": run.errors, "wrong": run.wrong,
                   "sweep_s": run.sweep_s, "traced_sweep_s": run.traced_sweep_s, "cpu_s": run.cpu_s,
                   "blas_threads": _blas_threads(), **run.extra}, fh, indent=1)
    if run.trace:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(span_log, fh)
    for err in run.errors + run.wrong:
        print(f"bench: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
