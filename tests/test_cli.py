import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from entnorms.cli import load_operator, run, save_operator
from entnorms.linalg import bipartite, swap_operator
from entnorms.schmidt import pure_state
from entnorms.sknorm import sk_bounds
from entnorms.states import EnsembleSpec, generate

REPORT_KEYS = ["command", "inputs", "k", "result", "tolerances", "seed",
               "wall_time_ms", "warnings"]


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which RFC 8259 JSON does not allow")


def run_json(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    report = json.loads(captured.out, parse_constant=_reject_constant)
    assert list(report.keys()) == REPORT_KEYS
    return report


def bell_file(tmp_path, capsys):
    path = str(tmp_path / "bell.json")
    run_json(["gen", "--kind", "max_entangled", "--m", "2", "--n", "2",
              "--out", path], capsys)
    return path


def test_gen_report_and_round_trip(tmp_path, capsys):
    path = str(tmp_path / "state.json")
    report = run_json(["gen", "--kind", "haar_pure", "--m", "3", "--n", "3",
                       "--seed", "7", "--out", path], capsys)
    assert report["command"] == "gen"
    assert report["result"]["path"] == path
    assert report["result"]["file_kind"] == "state_vector"
    value = load_operator(path)
    copy = str(tmp_path / "copy.json")
    save_operator(copy, value, meta={"kind": "haar_pure", "seed": "7"})
    with open(path, "rb") as fh:
        original = fh.read()
    with open(copy, "rb") as fh:
        rewritten = fh.read()
    assert original == rewritten


def test_gen_requires_out(capsys):
    code = run(["gen", "--kind", "haar_pure", "--m", "2", "--n", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "requires --out" in err


def test_schmidt_command(tmp_path, capsys):
    report = run_json(["schmidt", bell_file(tmp_path, capsys)], capsys)
    assert report["result"]["rank"] == 2
    for c in report["result"]["coefficients"]:
        assert abs(c - np.sqrt(0.5)) < 1e-12
    assert report["k"] is None


def test_schmidt_rejects_operators(tmp_path, capsys):
    path = str(tmp_path / "swap.json")
    save_operator(path, swap_operator(2))
    code = run(["schmidt", path])
    err = capsys.readouterr().err
    assert code == 1
    assert "state_vector" in err


def test_norm_gamma_on_bell(tmp_path, capsys):
    report = run_json(["norm", "--which", "gamma", "--k", "1",
                       bell_file(tmp_path, capsys)], capsys)
    res = report["result"]
    assert res["exact"]
    assert abs(res["lower"] - 2.0) < 1e-9
    assert res["upper"] - res["lower"] < 1e-9


def test_norm_radius_on_maxent3(tmp_path, capsys):
    path = str(tmp_path / "m3.json")
    run_json(["gen", "--kind", "max_entangled", "--m", "3", "--n", "3",
              "--out", path], capsys)
    report = run_json(["norm", "--which", "radius", "--k", "2", path], capsys)
    res = report["result"]
    assert res["exact"]
    assert abs(res["lower"] - 2.0 / 3.0) < 1e-10


def test_norm_closed_forms_on_swap(tmp_path, capsys):
    path = str(tmp_path / "swap.json")
    save_operator(path, swap_operator(2))
    report = run_json(["norm", "--which", "k2", "--k", "1", path], capsys)
    assert abs(report["result"]["value"] - 1.0) < 1e-12
    report = run_json(["norm", "--which", "k2dual", "--k", "1", path], capsys)
    assert abs(report["result"]["value"] - 4.0) < 1e-12


def test_norm_sk_dual_vec(tmp_path, capsys):
    report = run_json(["norm", "--which", "sk-dual-vec", "--k", "1",
                       bell_file(tmp_path, capsys)], capsys)
    assert abs(report["result"]["value"] - np.sqrt(2.0)) < 1e-12


def test_detect_bell(tmp_path, capsys):
    report = run_json(["detect", "--k", "1", bell_file(tmp_path, capsys)], capsys)
    res = report["result"]
    assert res["criterion"] == "gen_realign"
    assert abs(res["value"] - 2.0) < 1e-10
    assert res["detected"] and not res["filtered"]


def test_detect_weak_filter_conflict(tmp_path, capsys):
    code = run(["detect", "--k", "1", "--weak", "--filter",
                bell_file(tmp_path, capsys)])
    err = capsys.readouterr().err
    assert code == 1
    assert "drop --filter" in err


def test_bad_decision_tolerances_exit_one(tmp_path, capsys):
    iso = str(tmp_path / "iso.json")
    save_operator(iso, generate(EnsembleSpec("isotropic", 3, 3, p=0.1)))
    swap = str(tmp_path / "swap.json")
    save_operator(swap, swap_operator(2))
    for argv in (["detect", "--k", "1", "--tol", "-0.5", iso],
                 ["detect", "--k", "1", "--weak", "--tol", "inf", iso],
                 ["blockpos", "--k", "1", "--tol", "nan", swap]):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", argv
        assert "tol must be finite and >= 0" in captured.err


def test_blockpos_swap_boundary(tmp_path, capsys):
    path = str(tmp_path / "swap.json")
    save_operator(path, swap_operator(2))
    report = run_json(["blockpos", "--k", "1", path], capsys)
    res = report["result"]
    assert res["verdict"] == "certified_positive"
    assert abs(res["c"] - 1.0) < 1e-10


def test_blockpos_undecided_exit_code(tmp_path, capsys):
    m3 = generate(EnsembleSpec("max_entangled", 3, 3)).amplitudes
    h = generate(EnsembleSpec("haar_pure", 3, 3, seed=123)).amplitudes
    x = bipartite(np.outer(m3, m3.conj()) + 0.5 * np.outer(h, h.conj()), 3, 3,
                  symmetrize=True)
    iv = sk_bounds(x, 1, restarts=32, seed=0)
    c0 = 0.5 * (iv.lower + iv.upper)
    y = bipartite(c0 * np.eye(9) - x.mat, 3, 3, symmetrize=True)
    path = str(tmp_path / "onfence.json")
    save_operator(path, y)
    code = run(["blockpos", "--k", "1", path])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "undecided"
    code = run(["blockpos", "--k", "1", "--require-decision", path])
    out = capsys.readouterr().out
    assert code == 3
    assert json.loads(out)["result"]["verdict"] == "undecided"


def test_witness_and_oracle_on_bell(tmp_path, capsys):
    path = bell_file(tmp_path, capsys)
    report = run_json(["witness", "--k", "1", path], capsys)
    assert report["result"]["bound"] >= 2.0 - 1e-9
    report = run_json(["oracle", "--k", "1", "--budget", "600", path], capsys)
    assert abs(report["result"]["upper"] - 2.0) < 1e-6
    assert report["result"]["terms"] == 4
    assert report["tolerances"] == {"budget": 600}


def test_probe_conjecture_smoke(tmp_path, capsys):
    path = str(tmp_path / "h.json")
    run_json(["gen", "--kind", "haar_pure", "--m", "3", "--n", "3",
              "--seed", "17", "--out", path], capsys)
    report = run_json(["probe-conjecture", "--k", "2", path], capsys)
    res = report["result"]
    assert res["inside"] and res["in_open_regime"]
    assert res["gap"] == 0.0


def test_invariance_command(capsys):
    report = run_json(["invariance", "--k", "2", "--trials", "5"], capsys)
    res = report["result"]
    assert res["ok"]
    assert res["checks"] == 50
    assert res["max_deviation"] <= 1e-9


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_invariance_needs_a_trial(capsys, trials):
    assert run(["invariance", "--k", "1", "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"entnorms: error: --trials must be at least 1, got {trials}\n"


@pytest.mark.parametrize("flag", ["--m", "--n"])
@pytest.mark.parametrize("dim", ["0", "-2"])
def test_invariance_needs_positive_dims(capsys, flag, dim):
    assert run(["invariance", "--k", "1", flag, dim]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"entnorms: error: {flag} must be at least 1, got {dim}\n"


def test_oracle_report_at_tiny_scale_is_strict_json(tmp_path, capsys):
    rho = generate(EnsembleSpec("ginibre_density", 2, 2, seed=0))
    path = str(tmp_path / "tiny.json")
    save_operator(path, bipartite(rho.mat * 1e-300, 2, 2))
    res = run_json(["oracle", "--k", "1", "--budget", "32", path], capsys)["result"]
    assert 0.0 <= res["residual"] <= 1e-312
    assert res["upper"] > 0.0


def test_unwritable_report_exits_one(tmp_path, capsys):
    path = bell_file(tmp_path, capsys)
    dest = str(tmp_path / "no" / "such" / "dir" / "r.json")
    assert run(["schmidt", "--out", dest, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("entnorms: error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_reports_are_reproducible(tmp_path, capsys):
    path = bell_file(tmp_path, capsys)
    outs = []
    for name in ("a.json", "b.json"):
        dest = str(tmp_path / name)
        code = run(["norm", "--which", "gamma", "--k", "1", "--out", dest, path])
        assert code == 0
        capsys.readouterr()
        with open(dest, encoding="utf-8") as fh:
            outs.append(re.sub(r'"wall_time_ms": [0-9.]+', '"wall_time_ms": 0',
                               fh.read()))
    assert outs[0] == outs[1]


def test_malformed_files_exit_one(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    missing.write_text('{"dims": [2, 2], "kind": "state_vector"}')
    code = run(["schmidt", str(missing)])
    err = capsys.readouterr().err
    assert code == 1
    assert "missing field 'data'" in err and str(missing) in err

    bad_shape = tmp_path / "shape.json"
    bad_shape.write_text(json.dumps(
        {"dims": [2, 2], "kind": "state_vector", "data": [[1.0, 0.0]] * 3}))
    code = run(["schmidt", str(bad_shape)])
    err = capsys.readouterr().err
    assert code == 1
    assert "field 'data'" in err

    bad_nesting = tmp_path / "nest.json"
    bad_nesting.write_text(json.dumps(
        {"dims": [2, 2], "kind": "state_vector", "data": ["x"] * 4}))
    assert run(["schmidt", str(bad_nesting)]) == 1
    capsys.readouterr()

    toplevel = tmp_path / "top.json"
    toplevel.write_text("[1, 2, 3]")
    assert run(["schmidt", str(toplevel)]) == 1
    capsys.readouterr()

    assert run(["schmidt", str(tmp_path / "nofile.json")]) == 1
    capsys.readouterr()


def test_deeply_nested_file_exits_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert run(["schmidt", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("entnorms: error:") and "nested too deeply" in err


def test_nonfinite_data_exits_one(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(
        {"dims": [2, 2], "kind": "state_vector",
         "data": [[1e999, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}))
    code = run(["schmidt", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "non-finite" in err


def test_boolean_dims_exit_one(tmp_path, capsys):
    # JSON true loads as a Python bool, which is an int subclass.
    path = tmp_path / "booldims.json"
    path.write_text(json.dumps(
        {"dims": [True, 2], "kind": "operator",
         "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}))
    code = run(["norm", "--which", "sk", "--k", "1", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "field 'dims' must be two positive integers" in err


def test_density_deviation_warnings(tmp_path, capsys):
    mat = np.eye(9) / 9.0 * 0.999998
    doc = {"dims": [3, 3], "kind": "density",
           "data": np.stack([mat.real, mat.imag], axis=-1).tolist(),
           "meta": {}}
    path = tmp_path / "offtrace.json"
    path.write_text(json.dumps(doc))
    report = run_json(["norm", "--which", "gamma", "--k", "3", str(path)], capsys)
    assert any("trace" in w for w in report["warnings"])


def test_injected_svd_failure_exits_two_then_resets(tmp_path, capsys):
    path = bell_file(tmp_path, capsys)
    code = run(["norm", "--which", "gamma", "--k", "1", "--inject-svd-failure", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "numerical failure" in err
    report = run_json(["norm", "--which", "gamma", "--k", "1", path], capsys)
    assert abs(report["result"]["lower"] - 2.0) < 1e-9


def test_blockpos_injected_failure_exits_two(tmp_path, capsys):
    path = str(tmp_path / "swap.json")
    save_operator(path, swap_operator(3))
    code = run(["blockpos", "--k", "2", "--inject-svd-failure", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("entnorms: numerical failure:")
    assert captured.out == ""
    # The 3x3 flip is not 2-block positive; the hook is off again.
    report = run_json(["blockpos", "--k", "2", path], capsys)
    assert report["result"]["verdict"] == "certified_negative"


def test_usage_errors_exit_one(capsys):
    assert run(["norm", "--k", "1", "nowhere.json"]) == 1
    err = capsys.readouterr().err
    assert "entnorms: error:" in err
    assert run(["blockpos", "nowhere.json"]) == 1
    capsys.readouterr()
    assert run([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_text_format(tmp_path, capsys):
    code = run(["detect", "--k", "1", "--format", "text",
                bell_file(tmp_path, capsys)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("command: detect")
    assert "  detected: True" in out


def test_gamma_at_huge_scale_scales_the_bracket(tmp_path, capsys):
    rho = generate(EnsembleSpec("ginibre_density", 3, 3, seed=0))
    unit, huge = str(tmp_path / "unit.json"), str(tmp_path / "huge.json")
    save_operator(unit, rho)
    save_operator(huge, bipartite(rho.mat * 1e200, 3, 3))
    base = run_json(["norm", "--which", "gamma", "--k", "1", unit], capsys)["result"]
    res = run_json(["norm", "--which", "gamma", "--k", "1", huge], capsys)["result"]
    for end in ("lower", "upper"):
        assert abs(res[end] - 1e200 * base[end]) <= 1e-12 * 1e200 * base[end]


def test_overflow_exits_two(tmp_path, capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr("entnorms.dualnorms.gamma_bounds", overflow)
    path = bell_file(tmp_path, capsys)
    assert run(["norm", "--which", "gamma", "--k", "1", path]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "Traceback" not in err


# Flags each command does not read; argv holds the rest of a valid command
# line.
UNREAD_FLAGS = [
    (["schmidt"], ("--restarts", "--max-iter", "--seed")),
    (["detect", "--k", "1"], ("--restarts", "--max-iter", "--seed")),
    (["norm", "--which", "sk", "--k", "1"], ("--tol",)),
    (["oracle", "--k", "1"], ("--tol", "--restarts", "--max-iter")),
    (["gen", "--kind", "haar_pure", "--m", "2", "--n", "2", "--out", "{out}"],
     ("--tol", "--restarts", "--max-iter")),
    (["invariance", "--k", "1"], ("--tol", "--restarts", "--max-iter")),
    (["witness", "--k", "1"], ("--tol", "--restarts", "--max-iter", "--seed")),
    (["probe-conjecture", "--k", "1"], ("--tol", "--restarts", "--max-iter", "--seed")),
]


def test_commands_reject_flags_they_do_not_read(tmp_path, capsys):
    path = bell_file(tmp_path, capsys)
    out = str(tmp_path / "gen.json")
    for argv, flags in UNREAD_FLAGS:
        argv = [a.format(out=out) for a in argv]
        if argv[0] not in ("gen", "invariance"):
            argv.append(path)
        for flag in flags:
            assert run(argv[:1] + [flag, "3"] + argv[1:]) == 1, (argv[0], flag)
            assert "unrecognized arguments" in capsys.readouterr().err, (argv[0], flag)
    assert not os.path.exists(out)


def test_reports_declare_only_what_the_command_reads(tmp_path, capsys):
    path = bell_file(tmp_path, capsys)
    for argv in (["witness", "--k", "1"], ["probe-conjecture", "--k", "1"]):
        report = run_json(argv + [path], capsys)
        assert report["tolerances"] == {} and report["seed"] is None
    report = run_json(["schmidt", path], capsys)
    assert report["tolerances"] == {"rank_tol": 1e-10} and report["seed"] is None
    report = run_json(["detect", "--k", "1", path], capsys)
    assert report["tolerances"] == {"tol": 1e-9} and report["seed"] is None
    for which in ("sk", "gamma", "radius"):
        report = run_json(["norm", "--which", which, "--k", "1", "--seed", "4", path], capsys)
        assert report["tolerances"] == {} and report["seed"] == 4


def test_witness_attains_the_closed_form_gamma(tmp_path, capsys):
    path = str(tmp_path / "h.json")
    run_json(["gen", "--kind", "haar_pure", "--m", "3", "--n", "3",
              "--seed", "0", "--out", path], capsys)
    wit = run_json(["witness", "--k", "2", path], capsys)["result"]
    gamma = run_json(["norm", "--which", "gamma", "--k", "2", path], capsys)["result"]
    assert wit["method"] == "dual_ketbra"
    assert gamma["exact"] and abs(wit["bound"] - gamma["lower"]) <= 1e-12 * gamma["lower"]


def test_probe_conjecture_rejects_a_non_unit_state(tmp_path, capsys):
    v = generate(EnsembleSpec("haar_pure", 3, 3, seed=0)).amplitudes
    path = str(tmp_path / "v2.json")
    save_operator(path, pure_state(2.0 * v, 3, 3, require_normalized=False))
    assert run(["probe-conjecture", "--k", "1", path]) == 1
    assert "unit vector" in capsys.readouterr().err


def test_oracle_lp_failure_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("entnorms.dualnorms.linprog",
                        lambda c, A_eq, b_eq: SimpleNamespace(status=2, x=None))
    path = str(tmp_path / "rho.json")
    save_operator(path, generate(EnsembleSpec("ginibre_density", 2, 2, seed=0)))
    assert run(["oracle", "--k", "1", "--budget", "32", path]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "failed twice" in err
    assert "Traceback" not in err


# Runs in a fresh interpreter: commands without an LP must not load scipy.
_COLD_START = """
import json, sys
import entnorms
import entnorms.cli as cli

density, operator = sys.argv[1:3]
codes = [
    cli.run(["norm", "--which", "gamma", "--k", "1", "--out", "gamma.json", density]),
    cli.run(["detect", "--k", "1", "--filter", "--out", "detect.json", density]),
    cli.run(["blockpos", "--k", "1", "--out", "blockpos.json", operator]),
]
cold = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
codes.append(cli.run(["oracle", "--k", "1", "--budget", "32", "--out", "oracle.json", density]))
print(json.dumps({"codes": codes, "cold": cold,
                  "optimize": "scipy.optimize" in sys.modules}))
"""


def test_cold_start_loads_the_solver_only_for_the_oracle(tmp_path):
    density, operator = str(tmp_path / "rho.json"), str(tmp_path / "swap.json")
    save_operator(density, generate(EnsembleSpec("ginibre_density", 2, 2, seed=0)))
    save_operator(operator, swap_operator(2))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", _COLD_START, density, operator],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout)
    assert state["codes"] == [0, 0, 0, 0]
    assert state["cold"] == []
    assert state["optimize"]
