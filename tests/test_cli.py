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
    assert "invalid choice: 'a'" in capsys.readouterr().err


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


def test_threads_env_fallback_fills_only_unset_variables():
    code = (
        "import os\n"
        "from dickeprep import cli\n"
        "os.environ.pop('MKL_NUM_THREADS', None)\n"
        "cli._apply_thread_cap(['chain'])\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])\n"
    )
    out = _run_python(code, OPENBLAS_NUM_THREADS="2", DICKE_PREP_THREADS="1")
    assert out.split() == ["2", "1"]


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
