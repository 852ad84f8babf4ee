import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dickeprep import cli
from dickeprep.config import config_to_dict, load_config, parse_config
from dickeprep.core import ParseError, ValidationError


def _read_csv(path):
    header = {}
    columns = None
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            if " = " in line:
                key, value = line[2:].split(" = ", 1)
                header[key] = value
            continue
        if columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


def test_parse_config_minimal_defaults():
    cfg = parse_config({"two_j": 4})
    assert cfg.target_two_mt == 0
    assert cfg.angle_policy == "geometric"
    assert cfg.reset_policy.kind == "none"
    assert cfg.seed == 0
    assert cfg.max_iterations > 0


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ParseError, match="two_jj"):
        parse_config({"two_j": 4, "two_jj": 8})


def test_parse_config_lists_all_violations():
    with pytest.raises(ValidationError) as err:
        parse_config({"two_j": 4, "target_two_mt": 3, "seed": "abc"})
    message = str(err.value)
    assert "target_two_mt" in message and "seed" in message


def test_parse_config_reset_variants():
    assert parse_config({"two_j": 4, "reset_policy": "sqrt_j"}).reset_policy.kind == "sqrt_j"
    custom = parse_config({"two_j": 4, "reset_policy": {"custom": 1.5}}).reset_policy
    assert custom.kind == "custom" and custom.threshold == 1.5
    with pytest.raises(ParseError):
        parse_config({"two_j": 4, "reset_policy": {"custom": 1.5, "extra": 1}})
    with pytest.raises(ValidationError):
        parse_config({"two_j": 4, "reset_policy": "sometimes"})
    assert parse_config({"two_j": 4, "reset_policy": {"custom": 2}}).reset_policy.threshold == 2.0


@pytest.mark.parametrize("threshold", [None, "abc", [1], True, {"t": 1}, 10**400])
def test_parse_config_rejects_non_number_reset_threshold(tmp_path, capsys, threshold):
    data = {"two_j": 4, "reset_policy": {"custom": threshold}}
    with pytest.raises(ParseError, match="reset_policy"):
        parse_config(data)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    rc = cli.main(["--no-timestamp", "simulate", "--config", str(path), "--runs", "1",
                   "--out", str(tmp_path / "stats.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "reset_policy" in err
    assert not (tmp_path / "stats.json").exists()


def test_config_round_trip(tmp_path):
    cfg = parse_config(
        {"two_j": 10, "target_two_mt": 2, "angle_policy": "numeric_optimal",
         "reset_policy": {"custom": 2.0}, "seed": 9}
    )
    again = parse_config(config_to_dict(cfg))
    assert again == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert load_config(path) == cfg


def test_load_config_errors(tmp_path):
    with pytest.raises(ParseError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(bad)


def test_cli_dmatrix_prints_to_stdout(capsys):
    rc = cli.main(["--no-timestamp", "dmatrix", "--two-j", "2", "--two-m", "2",
                   "--theta", str(math.pi / 2)])
    assert rc == 0
    out = capsys.readouterr().out
    data = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert data[0] == "two_m_prime,amplitude,probability"
    assert len(data) == 4


def test_cli_dmatrix(tmp_path):
    out = tmp_path / "col.csv"
    rc = cli.main(["--no-timestamp", "dmatrix", "--two-j", "4", "--two-m", "4",
                   "--theta", str(math.pi / 2), "--out", str(out)])
    assert rc == 0
    _, columns, rows = _read_csv(out)
    assert columns == ["two_m_prime", "amplitude", "probability"]
    probs = [float(r[2]) for r in rows]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    assert probs == pytest.approx([1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16], abs=1e-12)


def test_cli_dmatrix_rejects_removed_backend(capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(["--no-timestamp", "dmatrix", "--two-j", "4", "--two-m", "4",
                  "--theta", "0.5", "--backend", "a"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --backend a" in capsys.readouterr().err


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_cli_dmatrix_rejects_non_finite_angle(capsys, theta):
    rc = cli.main(["--no-timestamp", "dmatrix", "--two-j", "4", "--two-m", "4", f"--theta={theta}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


def test_cli_angles(tmp_path):
    out = tmp_path / "angles.csv"
    rc = cli.main(["--no-timestamp", "angles", "--two-j", "20", "--two-mt", "0", "--out", str(out)])
    assert rc == 0
    _, columns, rows = _read_csv(out)
    assert columns == ["two_m", "theta_geometric", "theta_optimal", "overlap_geometric", "overlap_optimal"]
    assert len(rows) == 20  # target row excluded
    for r in rows:
        assert float(r[4]) >= float(r[3]) - 1e-12


def test_cli_chain_expected_steps_and_sweep(tmp_path):
    out = tmp_path / "steps.csv"
    rc = cli.main(["--no-timestamp", "chain", "--expected-steps", "--j-list", "4,8", "--out", str(out)])
    assert rc == 0
    _, columns, rows = _read_csv(out)
    assert columns == ["j", "steps_geometric", "steps_optimal", "steps_naive"]
    assert len(rows) == 2

    out2 = tmp_path / "sweep.csv"
    rc = cli.main(["--no-timestamp", "chain", "--mt-sweep", "--two-j", "16", "--out", str(out2)])
    assert rc == 0
    _, columns2, rows2 = _read_csv(out2)
    assert columns2 == ["two_mt", "expected_steps"]
    steps = [float(r[1]) for r in rows2]
    assert int(np.argmax(steps)) == 0


def test_cli_expected_steps_reaches_j_2_17(tmp_path):
    # the numeric_optimal column refines only the entered states, so the
    # ladder reaches j = 2^17 (two_j = 2^18)
    out = tmp_path / "steps.csv"
    rc = cli.main(["--no-timestamp", "chain", "--expected-steps", "--j-list", "65536,131072", "--out", str(out)])
    assert rc == 0
    _, columns, rows = _read_csv(out)
    assert [int(r[0]) for r in rows] == [65536, 131072]
    values = np.array([[float(v) for v in r[1:]] for r in rows])
    assert np.isfinite(values).all()
    geo, opt = values[:, 0], values[:, 1]
    assert np.all(opt <= geo + 1e-9) and np.all(geo <= 2.0 * opt)


def test_cli_chain_emit_matrix(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"two_j": 12, "angle_policy": "approx_mt0"}))
    out = tmp_path / "matrix.csv"
    rc = cli.main(["--no-timestamp", "chain", "--config", str(cfg), "--emit", str(out)])
    assert rc == 0
    header, columns, rows = _read_csv(out)
    assert header["two_j"] == "12"
    assert len(columns) == 13 and len(rows) == 13
    sums = [sum(float(v) for v in r) for r in rows]
    assert sums == pytest.approx([1.0] * 13, abs=1e-9)


def test_cli_simulate_and_dump(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"two_j": 8, "angle_policy": "approx_mt0", "seed": 5}))
    out = tmp_path / "stats.json"
    dump = tmp_path / "traj.csv"
    rc = cli.main(["--no-timestamp", "simulate", "--config", str(cfg), "--runs", "500",
                   "--out", str(out), "--dump-trajectories", str(dump)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["n_runs"] == 500
    assert payload["success_rate"] == 1.0
    _, columns, rows = _read_csv(dump)
    assert columns == ["run", "step", "two_m_before", "theta", "two_m_after", "reset"]
    assert len(rows) == round(payload["mean_iterations"] * 500)


def test_cli_simulate_statevector_engine(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"two_j": 6, "angle_policy": "geometric", "seed": 2}))
    out = tmp_path / "sv.json"
    rc = cli.main(["--no-timestamp", "simulate", "--config", str(cfg), "--runs", "200",
                   "--engine", "statevector", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["engine"] == "statevector"
    assert payload["success_rate"] == 1.0


def test_cli_chain_requires_an_action():
    with pytest.raises(SystemExit):
        cli.main(["chain"])


def test_cli_seed_accepted_before_or_after_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"two_j": 6, "angle_policy": "approx_mt0"}))
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    cli.main(["--no-timestamp", "--seed", "21", "simulate", "--config", str(cfg),
              "--runs", "200", "--out", str(a)])
    cli.main(["--no-timestamp", "simulate", "--config", str(cfg), "--runs", "200",
              "--seed", "21", "--out", str(b)])
    cli.main(["--no-timestamp", "simulate", "--config", str(cfg), "--runs", "200",
              "--seed", "22", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "cavity",
                     "--mode", "estimate", "--reps", "40", "--photons", "1000",
                     "--seed", "4"]) == 0


def test_cli_simulate_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"two_j": 8, "angle_policy": "approx_mt0", "seed": 5}))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    cli.main(["--no-timestamp", "simulate", "--config", str(cfg), "--runs", "300", "--out", str(a)])
    cli.main(["--no-timestamp", "simulate", "--config", str(cfg), "--runs", "300", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_asymptotics_modes(tmp_path):
    rc = cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "asymptotics",
                   "--mode", "stationary-phase", "--two-j", "2000", "--two-m", "20"])
    assert rc == 0
    rc = cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "asymptotics",
                   "--mode", "bessel", "--two-m", "40", "--j-list", "1000,4000", "--max-offset", "2"])
    assert rc == 0
    rc = cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "asymptotics",
                   "--mode", "contraction", "--two-j", "800", "--alpha", "0.05"])
    assert rc == 0
    rc = cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "asymptotics",
                   "--mode", "moments", "--two-j", "100", "--two-m", "14", "--two-mt", "0"])
    assert rc == 0
    _, _, rows = _read_csv(tmp_path / "moments.csv")
    for r in rows:
        assert float(r[3]) < 1e-8


def test_cli_husimi_geometry_cavity(tmp_path):
    assert cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "husimi",
                     "--two-j", "20", "--two-m", "0", "--grid", "61"]) == 0
    assert cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "geometry", "--pdf",
                     "--two-j", "100", "--two-m", "14"]) == 0
    assert cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "cavity",
                     "--mode", "fisher"]) == 0
    assert cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "cavity",
                     "--mode", "estimate", "--reps", "50", "--photons", "2000"]) == 0
    assert cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "cavity",
                     "--mode", "resolvability"]) == 0
    _, _, rows = _read_csv(tmp_path / "cavity_fisher.csv")
    for r in rows:
        assert abs(float(r[1]) - float(r[2])) < 1e-8


@pytest.mark.parametrize("job,params", [
    ("fig2a", ["two_j=20"]),
    ("fig2b", ["two_j=20"]),
    ("fig2c", ["j_list=4,8"]),
    ("fig2d", ["two_j_list=20"]),
    ("pdf-comparison", ["two_j=100", "two_m=14"]),
    ("cavity-spectrum", ["points=41"]),
])
def test_figure_jobs_rerun_byte_identical(tmp_path, job, params):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for d in (dir_a, dir_b):
        argv = ["--no-timestamp", "--out-dir", str(d), "figure", "--job", job]
        for p in params:
            argv += ["--param", p]
        assert cli.main(argv) == 0
    files_a = sorted(p.name for p in dir_a.iterdir())
    files_b = sorted(p.name for p in dir_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_cli_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"two_j": 4, "unknown_key": 1}))
    rc = cli.main(["simulate", "--config", str(bad), "--runs", "10",
                   "--out", str(tmp_path / "x.json")])
    assert rc == 1


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_cli_simulate_rejects_run_counts_below_one(tmp_path, capsys, runs):
    # each used to escape as a raw ValueError traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"two_j": 6, "angle_policy": "geometric", "seed": 2}))
    out = tmp_path / "stats.json"
    rc = cli.main(["--no-timestamp", "simulate", "--config", str(cfg), "--runs", runs, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_runs" in err
    assert not out.exists()

def test_fig2b_matrix_rows_stochastic(tmp_path):
    assert cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "figure",
                     "--job", "fig2b", "--param", "two_j=100"]) == 0
    _, columns, rows = _read_csv(tmp_path / "fig2b_matrix.csv")
    assert len(columns) == 101 and len(rows) == 101
    for r in rows:
        assert sum(float(v) for v in r) == pytest.approx(1.0, abs=1e-9)

def _run_python(code, **env):
    """Run code in a fresh interpreter that imports this checkout's package."""
    import dickeprep

    src = str(Path(dickeprep.__file__).resolve().parents[1])
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=full_env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_loads_no_numpy():
    out = _run_python("import sys, dickeprep.cli; print('numpy' in sys.modules, 'scipy' in sys.modules)")
    assert out.split() == ["False", "False"]


def test_runtime_imports_no_scipy_special():
    # bessel_limit imports scipy.special (about 45 ms) on first use, not at import
    out = _run_python("import sys, dickeprep.angles, dickeprep.asymptotics, dickeprep.chain, dickeprep.cli, "
                      "dickeprep.simulate; print('scipy.special' in sys.modules)")
    assert out.split() == ["False"]


def test_threads_flag_overrides_preset_blas_variable():
    code = (
        "import os\n"
        "from dickeprep import cli\n"
        "cli.main(['--threads=1', '--no-timestamp', 'dmatrix', '--two-j', '4', '--two-m', '0', '--theta', '0.5'])\n"
        "threads = None\n"
        "if os.path.exists('/proc/self/status'):\n"
        "    with open('/proc/self/status') as f:\n"
        "        threads = next(int(ln.split()[1]) for ln in f if ln.startswith('Threads:'))\n"
        "print('RESULT', os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'], threads)\n"
    )
    out = _run_python(code, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", DICKE_PREP_THREADS="2")
    _, openblas, omp, threads = out.splitlines()[-1].split()
    assert (openblas, omp) == ("1", "1")
    if threads != "None":
        assert threads == "1"  # numpy's BLAS started under the cap


@pytest.mark.parametrize("flag", [["--threads", "0"], ["--threads=-2"], ["--threads", "-2"]])
def test_threads_below_one_is_a_usage_error(flag):
    # these used to run and export OPENBLAS_NUM_THREADS=0 or -2
    code = (
        "import os, sys\n"
        "from dickeprep import cli\n"
        "try:\n"
        f"    cli.main({flag!r} + ['--no-timestamp', 'dmatrix', '--two-j', '4', '--two-m', '0', '--theta', '0.5'])\n"
        "except SystemExit as exited:\n"
        "    print('RESULT', exited.code, os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])\n"
    )
    out = _run_python(code, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", DICKE_PREP_THREADS="2")
    assert out.splitlines()[-1].split() == ["RESULT", "2", "2", "2"]


def test_threads_env_fallback_fills_only_unset_variables():
    code = (
        "import os\n"
        "from dickeprep import cli\n"
        "os.environ.pop('MKL_NUM_THREADS', None)\n"
        "cli._apply_thread_cap(None, cli._build_parser())\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])\n"
    )
    out = _run_python(code, OPENBLAS_NUM_THREADS="2", DICKE_PREP_THREADS="1")
    assert out.split() == ["2", "1"]


@pytest.mark.parametrize("value", ["0", "-2", "abc"])
def test_threads_env_below_one_is_a_usage_error(value):
    # these used to run with exit 0 and export OPENBLAS_NUM_THREADS=0, -2 or abc
    code = (
        "import contextlib, io, os\n"
        "from dickeprep import cli\n"
        "blas = ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')\n"
        "for var in blas:\n"
        "    os.environ.pop(var, None)\n"
        "err = io.StringIO()\n"
        "try:\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        cli.main(['--no-timestamp', 'dmatrix', '--two-j', '4', '--two-m', '0', '--theta', '0.5'])\n"
        "except SystemExit as exited:\n"
        "    named = 'usage:' in err.getvalue() and 'DICKE_PREP_THREADS' in err.getvalue()\n"
        "    print('RESULT', exited.code, named, *(os.environ.get(var) for var in blas))\n"
    )
    out = _run_python(code, DICKE_PREP_THREADS=value)
    assert out.splitlines()[-1].split() == ["RESULT", "2", "True", "None", "None", "None"]


def test_cli_runs_without_mpmath(tmp_path):
    # mpmath is only a test dependency: block it and run the main commands
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"two_j": 16, "reset_policy": "sqrt_j", "seed": 3}))
    commands = [
        ["dmatrix", "--two-j", "100", "--two-m", "100", "--theta", "1.5708"],
        ["chain", "--expected-steps", "--j-list", "4,8", "--out", str(tmp_path / "steps.csv")],
        ["simulate", "--config", str(cfg), "--runs", "50", "--out", str(tmp_path / "stats.json")],
    ]
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from dickeprep import cli\n"
        f"codes = [cli.main(['--no-timestamp', *argv]) for argv in {commands!r}]\n"
        "try:\n"
        "    import mpmath\n"
        "    blocked = False\n"
        "except ImportError:\n"
        "    blocked = True\n"
        "print('RESULT', blocked, *codes)\n"
    )
    out = _run_python(code)
    assert out.splitlines()[-1].split() == ["RESULT", "True", "0", "0", "0"]


def test_cli_negative_float_in_exponent_form(tmp_path, capsys):
    # argparse used to read '-1e-3' and '-inf' as options ("expected one argument")
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    base = ["--no-timestamp", "dmatrix", "--two-j", "4", "--two-m", "4"]
    assert cli.main([*base, "--theta", "-1e-3", "--out", str(spaced)]) == 0
    assert cli.main([*base, "--theta=-1e-3", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    capsys.readouterr()
    assert cli.main([*base, "--theta", "-inf"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv,code", [
    (["chain", "--expected-steps", "--j-list", "4,x"], 2),
    (["cavity", "--mode", "spectrum", "--weights", "a"], 2),
    (["asymptotics", "--mode", "moments", "--alphas", "0.5,x"], 2),
    (["figure", "--job", "fig2a", "--param", "two_j=abc"], 1),
])
def test_cli_malformed_values_are_reported(tmp_path, capsys, argv, code):
    # each used to escape as a raw ValueError traceback
    try:
        rc = cli.main(["--no-timestamp", "--out-dir", str(tmp_path), *argv])
    except SystemExit as exited:  # argparse's usage error
        rc = exited.code
    assert rc == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and "two_j" in err
    else:
        assert "error: argument" in err and repr(argv[-1]) in err
    assert not list(tmp_path.iterdir())


def test_cli_figure_rejects_unknown_param(tmp_path, capsys):
    rc = cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "figure", "--job", "pdf-comparison",
                   "--param", "twoj=8"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "twoj" in err
    assert all(key in err for key in cli._JOBS["pdf-comparison"].params)
    assert not list(tmp_path.iterdir())
    with pytest.raises(ParseError, match="twoj"):
        cli.run_figure_job(cli.FigureJob("fig2a", {"twoj": "8"}, tmp_path))


@pytest.mark.parametrize("argv", [
    ["chain", "--mt-sweep", "--two-j", "-4"],
    ["figure", "--job", "fig2d", "--param", "two_j_list=-4"],
    ["angles", "--two-j", "20", "--two-mt", "2", "--policy", "approx_mt0"],
])
def test_cli_rejects_out_of_range_sweep_and_approx_target(tmp_path, capsys, argv):
    # these used to write a header-only sweep and an m_t = 0 table under m_t = 2
    assert cli.main(["--no-timestamp", "--out-dir", str(tmp_path), *argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("job,params,argv", [
    ("fig2a", ["two_j=20"], ["angles", "--two-j", "20", "--policy", "both", "--out", "{out}"]),
    ("fig2b", ["two_j=12"], ["chain", "--config", "{cfg}", "--emit", "{out}"]),
    ("fig2c", ["j_list=4,8"], ["chain", "--expected-steps", "--j-list", "4,8", "--out", "{out}"]),
    ("pdf-comparison", ["two_j=100", "two_m=14"],
     ["geometry", "--pdf", "--two-j", "100", "--two-m", "14", "--out", "{out}"]),
    ("cavity-spectrum", ["points=41"], ["cavity", "--mode", "spectrum", "--points", "41", "--out", "{out}"]),
])
def test_figure_job_rows_equal_subcommand_rows(tmp_path, job, params, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"two_j": 12, "angle_policy": "approx_mt0"}))
    out = tmp_path / "sub" / "table.csv"
    assert cli.main(["--no-timestamp", *(a.format(cfg=cfg, out=out) for a in argv)]) == 0
    fig_args = [a for p in params for a in ("--param", p)]
    assert cli.main(["--no-timestamp", "--out-dir", str(tmp_path / "fig"), "figure", "--job", job, *fig_args]) == 0
    (fig_path,) = (tmp_path / "fig").iterdir()
    _, fig_columns, fig_rows = _read_csv(fig_path)
    _, columns, rows = _read_csv(out)
    assert fig_columns == columns and fig_rows == rows and rows


def test_readme_figure_table_lists_job_parameters():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {line.split("|")[1].strip(" `"): line for line in readme.splitlines() if line.startswith("| `")}
    for figure_id, job in cli._JOBS.items():
        row = rows[figure_id]
        for key, (_, default) in job.params.items():
            assert (f"`{key}`" if default is None else f"`{key}={default}`") in row, (figure_id, key)


def test_pdf_defaults_follow_the_parity_of_two_j(tmp_path):
    # two_mt used to default to 0 and two_m to an even value, which odd two_j rejects
    assert cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "figure", "--job", "pdf-comparison",
                     "--param", "two_j=101"]) == 0
    header, columns, rows = _read_csv(tmp_path / "pdf_comparison.csv")
    assert (header["two_mt"], header["two_m"]) == ("1", "7")  # m_t = 1/2, m = 2 floor(sqrt(50.5) / 2) + 1/2
    out = tmp_path / "geometry.csv"
    assert cli.main(["--no-timestamp", "geometry", "--pdf", "--two-j", "101", "--two-m", "7", "--out", str(out)]) == 0
    sub_header, sub_columns, sub_rows = _read_csv(out)
    assert sub_header["two_mt"] == "1" and (sub_columns, sub_rows) == (columns, rows) and rows


def test_cli_chain_refuses_two_tables_in_one_out(tmp_path, capsys):
    argv = ["--no-timestamp", "--out-dir", str(tmp_path), "chain", "--expected-steps", "--j-list", "4",
            "--mt-sweep", "--two-j", "4"]
    with pytest.raises(SystemExit) as exited:
        cli.main([*argv, "--out", str(tmp_path / "both.csv")])
    assert "--expected-steps" in str(exited.value.code) and "--mt-sweep" in str(exited.value.code)
    assert not list(tmp_path.iterdir())
    assert cli.main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["expected_steps.csv", "mt_sweep.csv"]
    assert capsys.readouterr().out.count("\n") == 2


@pytest.mark.parametrize("argv", [
    ["cavity", "--mode", "spectrum", "--points", "0"],
    ["cavity", "--mode", "fisher", "--points", "0"],
    ["cavity", "--mode", "spectrum", "--points", "-3"],
    ["figure", "--job", "cavity-spectrum", "--param", "points=0"],
])
def test_cli_rejects_point_counts_below_one(tmp_path, capsys, argv):
    # these used to write a header-only CSV (0) or escape as a numpy traceback (-3)
    assert cli.main(["--no-timestamp", "--out-dir", str(tmp_path), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "points" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_cli_husimi_refuses_grids_below_one(tmp_path, capsys, grid):
    # 0 used to write a header-only CSV and -2 to escape as a numpy traceback
    argv = ["--no-timestamp", "--out-dir", str(tmp_path), "husimi", "--two-j", "20", "--two-m", "0"]
    assert cli.main([*argv, "--grid", grid]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_grid" in err
    assert not list(tmp_path.iterdir())


def test_cli_moments_target_follows_the_parity_of_two_j(tmp_path):
    # --two-mt used to default to 0, which every odd two_j rejects
    assert cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "asymptotics", "--mode", "moments",
                     "--two-j", "201", "--two-m", "21"]) == 0
    header, _, rows = _read_csv(tmp_path / "moments.csv")
    assert header["two_mt"] == "1" and rows


@pytest.mark.parametrize("argv", [
    ["geometry", "--pdf", "--two-j", "801", "--two-m", "21", "--two-mt", "0"],
    ["angles", "--two-j", "21", "--two-mt", "0", "--policy", "geometric"],
    ["angles", "--two-j", "21", "--two-mt", "0", "--policy", "numeric_optimal"],
    ["asymptotics", "--mode", "moments", "--two-j", "201", "--two-m", "21", "--two-mt", "0"],
])
def test_cli_wrong_parity_target_names_two_mt(tmp_path, capsys, argv):
    # the message used to name the source, two_m=0
    assert cli.main(["--no-timestamp", "--out-dir", str(tmp_path), *argv]) == 1
    assert capsys.readouterr().err.startswith("error: two_mt=0 must have the same parity as two_j=")
    assert not list(tmp_path.iterdir())


def test_cli_contraction_follows_the_parity_of_two_j(tmp_path):
    # the table used to build even two_m only, so every odd two_j failed
    # with "two_m=8 must have the same parity as two_j=401"
    from dickeprep.asymptotics import contraction_sum

    assert cli.main(["--no-timestamp", "--out-dir", str(tmp_path), "asymptotics", "--mode", "contraction",
                     "--two-j", "401"]) == 0
    _, columns, rows = _read_csv(tmp_path / "contraction.csv")
    assert columns == ["two_m", "contraction_sum"]
    # every m of two_j's parity in [j^(1/4), sqrt(j)] = [3.76, 14.16]
    assert [int(r[0]) for r in rows] == list(range(9, 28, 2))
    assert all(float(v) == contraction_sum(401, 0.05, int(tm)) for tm, v in rows)


@pytest.mark.parametrize("two_j", ["1", "3", "4", "6", "11"])
def test_cli_contraction_refuses_an_empty_interval(tmp_path, capsys, two_j):
    # no m of two_j's parity lies in [j^(1/4), sqrt(j)]: this used to write a
    # header-only CSV and exit 0
    argv = ["--no-timestamp", "--out-dir", str(tmp_path), "asymptotics", "--mode", "contraction", "--two-j", two_j]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: two_j={two_j} ") and "[j^(1/4), sqrt(j)]" in err
    assert not list(tmp_path.iterdir())


# every subcommand and mode, both simulate engine labels and every figure job
# at its defaults, run with --no-timestamp --seed 1 from an empty directory
_CLI_CONFIG = {"two_j": 40, "angle_policy": "geometric", "reset_policy": "sqrt_j", "seed": 7}
_CLI_RUNS = {
    "dmatrix": ["dmatrix", "--two-j", "20", "--two-m", "4", "--theta", "0.7", "--out", "dmatrix.csv"],
    "angles": ["angles", "--two-j", "40"],
    "chain-emit": ["chain", "--config", "../cfg.json", "--emit", "matrix.csv"],
    "chain-expected-steps": ["chain", "--expected-steps", "--j-list", "16,32"],
    "chain-mt-sweep": ["chain", "--mt-sweep", "--two-j", "20"],
    "simulate-chain": ["simulate", "--config", "../cfg.json", "--runs", "200", "--engine", "chain",
                       "--dump-trajectories", "traj.csv"],
    "simulate-statevector": ["simulate", "--config", "../cfg.json", "--runs", "200", "--engine", "statevector",
                             "--dump-trajectories", "traj.csv"],
    "asymptotics-stationary-phase": ["asymptotics", "--mode", "stationary-phase"],
    "asymptotics-bessel": ["asymptotics", "--mode", "bessel"],
    "asymptotics-contraction": ["asymptotics", "--mode", "contraction"],
    "asymptotics-moments": ["asymptotics", "--mode", "moments"],
    "husimi": ["husimi", "--two-j", "20", "--two-m", "4"],
    "geometry": ["geometry", "--pdf", "--two-j", "100", "--two-m", "10"],
    "cavity-spectrum": ["cavity", "--mode", "spectrum"],
    "cavity-fisher": ["cavity", "--mode", "fisher"],
    "cavity-estimate": ["cavity", "--mode", "estimate"],
    "cavity-resolvability": ["cavity", "--mode", "resolvability"],
    **{f"figure-{job}": ["figure", "--job", job] for job in cli._JOBS},
}
# SHA-256 of the exit code and of every file a run writes (name and bytes)
_CLI_DIGESTS = {
    "dmatrix": "2d9f6ab1f79d7a065db27affc570e0cc6d5347dd6dfaeffe5a727757f4c7b638",
    "angles": "4e6afbe9e83c6c1f4b2f5683b76db0e554ac7dc3bd6e3d297007675a1b9a2442",
    "chain-emit": "29be1ec30fa896c51799d5485b99131158657bcce769f03ebe12b1f8f5550c4f",
    "chain-expected-steps": "b84ad687b4d592c6a25818fd1fc3224b8e7ff0c08e71d48a3ada0e02359ef730",
    "chain-mt-sweep": "abca016d5798cf664ecf6a0ea5be76ecf61f39b548a05188350d05a47c33b861",
    "simulate-chain": "036e6ffcccb387a807aec74cb85ace17399bbfed4fbc1112edf896d7f5908a86",
    "simulate-statevector": "beb4990d32814964c8f3bfd866690473c7b0f41051b583b8f220bd145b69a4ab",
    "asymptotics-stationary-phase": "633b61cf7b5509d2c2f4255c75af12da8c1ccef632738ee524c4f4c7e95cfd79",
    "asymptotics-bessel": "77b5149fb16c8f1d4d5d368bd61baa8ce18955a4305c28672ebf6b588bd5363a",
    "asymptotics-contraction": "4e40f4a449842dd20930b5a6d4bd216955b3ecb014a63df703bc5d160fbbe20a",
    "asymptotics-moments": "23c027aba8a5409c8f0ecd7b09ecd3dde32dabd99a082f1e11d3736fee3c0924",
    "husimi": "be26c430fa512e5757bb6e45445a8965b9a568f9d3c6ade21a98c82b39490709",
    "geometry": "55db8dd8b643736398c5be91b839cfd87781cb16bd18f04c1e888a60c9a2f43a",
    "cavity-spectrum": "df6b379383ab1a1e61071b51eea5557be3f04ed1da94e1f94d2098976dad0bf1",
    "cavity-fisher": "f5eedb09334b24350c7b5a081134b0e99eddfa5ea9ab7c1903228345ab62133d",
    "cavity-estimate": "f5cd82463be5abc0dc64e0a723350f0023f6fe14d59087b4dc32a1780c0ca57e",
    "cavity-resolvability": "1f67c0eccbab8c595b8a91dd50da6b804213426b99d35cb76567b32a7db70ffa",
    "figure-fig2a": "169f6603c18f7c3a64e516cf1a5b471a105af5b29060947c4a607cfb69a50aa1",
    "figure-fig2b": "878c3ff04dc5486671a70f345bc21c44b4945ba1b8b79b2399be8221bec41f5a",
    "figure-fig2c": "be6b99c4fca84975ac6ea21807acb51619baf66e96241e4069ca2853c6cf7ae5",
    "figure-fig2d": "1efd660cc11d8b26951b0368c9ae6fa5ead467299b1a43fc644dcf79b367998d",
    "figure-pdf-comparison": "67f170143a82a3a9b47380d5a379ef755cc5fef670e35c4532ed94714fc174cf",
    "figure-cavity-spectrum": "49fbe1196857e248ef09fb42d9fcf131ba5e0627aba457ffcfba41ede11a92b7",
}


def _cli_digests(root: Path) -> dict:
    """Each _CLI_RUNS entry run from its own empty directory under root."""
    (root / "cfg.json").write_text(json.dumps(_CLI_CONFIG))
    got = {}
    for name, argv in _CLI_RUNS.items():
        run_dir = root / name
        run_dir.mkdir()
        os.chdir(run_dir)
        rc = cli.main(["--no-timestamp", "--seed", "1", *argv])
        digest = hashlib.sha256(f"{rc}\n".encode())
        for path in sorted(run_dir.rglob("*")):
            digest.update(f"{path.relative_to(run_dir).as_posix()}\n".encode() + path.read_bytes())
        got[name] = digest.hexdigest()
    return got


def test_cli_outputs_are_pinned(tmp_path):
    # in a fresh interpreter with BLAS at one thread: a threaded LAPACK
    # solve (fig2d's 100-state blocks) rounds differently
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import test_cli; "
            f"print(json.dumps(test_cli._cli_digests(test_cli.Path({str(tmp_path)!r}))))")
    out = _run_python(code, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    assert json.loads(out.splitlines()[-1]) == _CLI_DIGESTS
