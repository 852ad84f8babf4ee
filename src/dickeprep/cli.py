"""Unified command-line interface.

Subcommands: dmatrix, angles, chain, simulate, asymptotics, husimi,
geometry, cavity, figure.  Global flags --seed, --threads, --out-dir,
--no-timestamp; DICKE_PREP_THREADS is the environment fallback for
--threads.  Outputs are CSV with '#'-prefixed metadata headers (JSON for
simulation statistics); with --no-timestamp a re-run with the same seed is
byte-identical.

Heavy imports happen after --threads is applied, so the thread cap reaches
the BLAS backing numpy/scipy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

__all__ = ["main", "FigureJob", "run_figure_job"]

_FIGURE_IDS = ("fig2a", "fig2b", "fig2c", "fig2d", "pdf-comparison", "cavity-spectrum")


def _apply_thread_cap(argv: list[str]) -> None:
    """Export BLAS thread caps before numpy is imported anywhere.

    An explicit --threads N or --threads=N overrides the BLAS variables;
    DICKE_PREP_THREADS only fills those not already set.
    """
    threads = None
    for k, arg in enumerate(argv):
        if arg == "--threads" and k + 1 < len(argv):
            threads = argv[k + 1]
        elif arg.startswith("--threads="):
            threads = arg.partition("=")[2]
    fallback = os.environ.get("DICKE_PREP_THREADS")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if threads:
            os.environ[var] = threads
        elif fallback:
            os.environ.setdefault(var, fallback)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (bool,)):
        return "1" if value else "0"
    return str(value)


def _format_csv(meta: dict, columns: list[str], rows, no_timestamp: bool) -> str:
    from . import __version__

    lines = [f"# dickeprep {__version__}"]
    for key in sorted(meta):
        lines.append(f"# {key} = {meta[key]}")
    if not no_timestamp:
        lines.append(f"# generated = {datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    lines.append("")
    return "\n".join(lines)


def _write_csv(path: Path, meta: dict, columns: list[str], rows, no_timestamp: bool) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_format_csv(meta, columns, rows, no_timestamp))
    return path


def _out_path(args, default_name: str) -> Path:
    out = getattr(args, "out", None)
    if out:
        return Path(out)
    return Path(args.out_dir) / default_name


# ---------------------------------------------------------------------------
# subcommand implementations (imports deferred until after the thread cap)


def _cmd_dmatrix(args) -> int:
    from .core import SpinSpec
    from . import wigner

    spec = SpinSpec(args.two_j, args.two_m)
    col = wigner.d_column(spec, args.theta, backend=args.backend)
    rows = [
        (int(tm), float(a), float(a) * float(a))
        for tm, a in zip(wigner.two_m_values(args.two_j), col.amplitudes)
    ]
    meta = {"two_j": args.two_j, "two_m": args.two_m, "theta": repr(args.theta), "backend": args.backend}
    columns = ["two_m_prime", "amplitude", "probability"]
    if args.out is None:
        sys.stdout.write(_format_csv(meta, columns, rows, args.no_timestamp))
    else:
        print(_write_csv(Path(args.out), meta, columns, rows, args.no_timestamp))
    return 0


def _angle_table(two_j: int, two_mt: int, which: str):
    from . import angles as angles_mod

    states = [i for i in range(two_j + 1) if 2 * i - two_j != two_mt]
    if which in ("both", "numeric_optimal"):
        opt_angles, opt_overlaps = angles_mod.optimal_angles_for_target(two_j, two_mt)
    if which in ("both", "geometric"):
        geo = [angles_mod.geometric_angle(two_j, two_mt, 2 * i - two_j).radians for i in states]
        geo_overlaps = angles_mod.overlap_probabilities(two_j, two_mt, states, geo)
    if which == "approx_mt0":
        approx = [angles_mod.approx_angle_mt0(two_j, 2 * i - two_j).radians for i in states]
        approx_overlaps = angles_mod.overlap_probabilities(two_j, two_mt, states, approx)
    rows = []
    for k, i in enumerate(states):
        row: list = [2 * i - two_j]
        if which in ("both", "geometric"):
            row.append(geo[k])
        if which in ("both", "numeric_optimal"):
            row.append(float(opt_angles[i]))
        if which in ("both", "geometric"):
            row.append(float(geo_overlaps[k]))
        if which in ("both", "numeric_optimal"):
            row.append(float(opt_overlaps[i]))
        if which == "approx_mt0":
            row += [approx[k], float(approx_overlaps[k])]
        rows.append(tuple(row))
    return rows


def _cmd_angles(args) -> int:
    which = args.policy
    if which == "both":
        columns = ["two_m", "theta_geometric", "theta_optimal", "overlap_geometric", "overlap_optimal"]
    elif which == "geometric":
        columns = ["two_m", "theta_geometric", "overlap_geometric"]
    elif which == "numeric_optimal":
        columns = ["two_m", "theta_optimal", "overlap_optimal"]
    else:
        columns = ["two_m", "theta_approx", "overlap_approx"]
    rows = _angle_table(args.two_j, args.two_mt, which)
    meta = {"two_j": args.two_j, "two_mt": args.two_mt, "policy": which}
    path = _write_csv(_out_path(args, "angles.csv"), meta, columns, rows, args.no_timestamp)
    print(path)
    return 0


def _emit_matrix(path: Path, chain_obj, no_timestamp: bool, extra_meta: dict | None = None) -> Path:
    from .config import config_to_dict

    meta = {f"config.{k}": v for k, v in config_to_dict(chain_obj.config).items()}
    meta.update(extra_meta or {})
    meta["two_j"] = chain_obj.config.two_j
    n = chain_obj.size
    columns = [f"to_{2 * b - chain_obj.config.two_j}" for b in range(n)]
    rows = (tuple(float(x) for x in chain_obj.matrix[a]) for a in range(n))
    return _write_csv(path, meta, columns, rows, no_timestamp)


def _expected_steps_rows(js: list[int]) -> list[tuple]:
    """(j, geometric, numeric_optimal, naive) expected steps from m = j to
    m_t = 0 under the sqrt_j reset, one row per j."""
    from .core import AnglePolicy, ResetPolicy
    from . import chain as chain_mod

    reset = ResetPolicy(kind=ResetPolicy.SQRT_J)
    rows = []
    for j in js:
        two_j = 2 * j
        geo = chain_mod.expected_steps_for(two_j, 0, AnglePolicy.GEOMETRIC, reset).start_state_value
        opt = chain_mod.expected_steps_for(two_j, 0, AnglePolicy.NUMERIC_OPTIMAL, reset).start_state_value
        rows.append((j, geo, opt, chain_mod.naive_expected_steps(two_j)))
    return rows


def _cmd_chain(args) -> int:
    from . import chain as chain_mod
    from .config import load_config

    if not (args.config or args.expected_steps or args.mt_sweep):
        raise SystemExit("chain: nothing to do (use --config/--emit, --expected-steps, or --mt-sweep)")
    if args.emit and not args.config:
        raise SystemExit("chain: --emit needs --config")
    wrote = []
    if args.config:
        cfg = load_config(args.config)
        if args.seed is not None:
            from dataclasses import replace

            cfg = replace(cfg, seed=args.seed)
        if args.emit:
            wrote.append(_emit_matrix(Path(args.emit), chain_mod.build_chain(cfg), args.no_timestamp))
        else:
            report = chain_mod.expected_steps_for(
                cfg.two_j, cfg.target_two_mt, cfg.angle_policy, cfg.reset_policy
            )
            print(f"expected steps from m=j: {report.start_state_value!r}")
    if args.expected_steps:
        rows = _expected_steps_rows([int(x) for x in args.j_list.split(",") if x])
        meta = {"j_list": args.j_list, "reset_policy": "sqrt_j", "target_two_mt": 0}
        wrote.append(
            _write_csv(
                _out_path(args, "expected_steps.csv"),
                meta,
                ["j", "steps_geometric", "steps_optimal", "steps_naive"],
                rows,
                args.no_timestamp,
            )
        )
    if args.mt_sweep:
        two_j = args.two_j
        if two_j is None:
            raise SystemExit("--mt-sweep requires --two-j")
        sweep = chain_mod.mt_sweep(two_j)
        meta = {"two_j": two_j, "angle_policy": "geometric", "reset_policy": "none"}
        wrote.append(
            _write_csv(
                _out_path(args, "mt_sweep.csv"),
                meta,
                ["two_mt", "expected_steps"],
                sweep,
                args.no_timestamp,
            )
        )
    for p in wrote:
        print(p)
    return 0


def _cmd_simulate(args) -> int:
    from dataclasses import replace

    from .config import config_to_dict, load_config
    from . import simulate as sim

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    stats = sim.summarize(cfg, args.runs, engine=args.engine)
    payload = {
        "config": config_to_dict(cfg),
        "engine": stats.engine,
        "n_runs": stats.n_runs,
        "mean_iterations": stats.mean_iterations,
        "variance": stats.variance,
        "std_error": stats.std_error,
        "success_rate": stats.success_rate,
        "histogram": {str(k): v for k, v in sorted(stats.histogram.items())},
    }
    out = _out_path(args, "stats.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(out)
    if args.dump_trajectories:
        runner = sim.run_statevector if args.engine == "statevector" else sim.run_trajectory
        tables = sim.PolicyTables(cfg)
        rows = []
        for run in range(args.runs):
            rec = runner(cfg, sim.rng_stream(cfg.seed, run), tables)
            for step_i, st in enumerate(rec.steps):
                rows.append((run, step_i, st.two_m_before, st.angle, st.two_m_after, int(st.reset)))
        meta = {f"config.{k}": v for k, v in config_to_dict(cfg).items()}
        meta["engine"] = args.engine
        path = _write_csv(
            Path(args.dump_trajectories),
            meta,
            ["run", "step", "two_m_before", "theta", "two_m_after", "reset"],
            rows,
            args.no_timestamp,
        )
        print(path)
    return 0


def _cmd_asymptotics(args) -> int:
    from . import asymptotics as asy

    if args.mode == "stationary-phase":
        comps = asy.compare_stationary_phase(args.two_j, args.two_m)
        rows = [
            (c.two_m_prime, c.exact, c.approx, c.abs_error, c.predicted_error_scale)
            for c in comps
        ]
        meta = {"two_j": args.two_j, "two_m": args.two_m, "mode": args.mode}
        columns = ["two_m_prime", "exact", "approx", "abs_error", "predicted_error_scale"]
        name = "stationary_phase.csv"
    elif args.mode == "bessel":
        from .core import SpinSpec
        from . import wigner
        import math

        rows = []
        js = [int(x) for x in args.j_list.split(",") if x]
        for j in js:
            two_j = 2 * j
            spec = SpinSpec(two_j, args.two_m)
            beta = math.asin(spec.m / spec.j)
            col = wigner.d_column(spec, beta)
            for off in range(-args.max_offset, args.max_offset + 1):
                two_mp = args.two_m - 2 * off
                exact = col.amplitude(two_mp)
                lim = asy.bessel_limit(args.two_m, two_mp)
                rows.append((j, two_mp, exact, lim, abs(exact - lim)))
        meta = {"two_m": args.two_m, "j_list": args.j_list, "mode": args.mode}
        columns = ["j", "two_m_prime", "exact_d", "bessel_limit", "abs_diff"]
        name = "bessel_limit.csv"
    elif args.mode == "contraction":
        import math

        rows = []
        j = args.two_j / 2.0
        lo = int(math.ceil(j**0.25))
        hi = int(math.floor(math.sqrt(j)))
        for m in range(lo, hi + 1):
            rows.append((2 * m, asy.contraction_sum(args.two_j, args.alpha, 2 * m)))
        meta = {"two_j": args.two_j, "alpha": repr(args.alpha), "mode": args.mode}
        columns = ["two_m", "contraction_sum"]
        name = "contraction.csv"
    else:  # moments
        from . import geometry

        rows = []
        for alpha_s in args.alphas.split(","):
            alpha = float(alpha_s)
            closed = asy.beta_moment(alpha, args.two_j, args.two_m, args.two_mt)
            quadr = geometry.pdf_moment_quadrature(alpha, args.two_j, args.two_m, args.two_mt)
            rows.append((alpha, closed, quadr, abs(closed - quadr)))
        meta = {
            "two_j": args.two_j,
            "two_m": args.two_m,
            "two_mt": args.two_mt,
            "mode": args.mode,
        }
        columns = ["alpha", "closed_form", "quadrature", "abs_diff"]
        name = "moments.csv"
    path = _write_csv(_out_path(args, name), meta, columns, rows, args.no_timestamp)
    print(path)
    return 0


def _cmd_husimi(args) -> int:
    from .core import SpinSpec
    from . import geometry

    profile = geometry.husimi_q_profile(SpinSpec(args.two_j, args.two_m), n_grid=args.grid)
    rows = [(float(t), float(q)) for t, q in zip(profile.thetas, profile.values)]
    meta = {"two_j": args.two_j, "two_m": args.two_m, "grid": args.grid}
    path = _write_csv(_out_path(args, "husimi.csv"), meta, ["theta", "q_value"], rows, args.no_timestamp)
    print(path)
    return 0


def _pdf_comparison_rows(two_j: int, two_m: int, two_mt: int):
    from . import geometry, wigner
    from .core import SpinSpec
    from . import angles as angles_mod

    theta = angles_mod.geometric_angle(two_j, two_mt, two_m).radians
    exact = wigner.transition_probabilities(SpinSpec(two_j, two_m), theta)
    disc = geometry.discretized_pdf_lattice(two_j, two_m, two_mt)
    rows = []
    for i, tm in enumerate(wigner.two_m_values(two_j)):
        pdf_val = geometry.geometric_transition_pdf(two_j, two_m, two_mt, tm / 2.0)
        rows.append((int(tm), pdf_val, float(disc[i]), float(exact[i])))
    return rows


def _cmd_geometry(args) -> int:
    if not args.pdf:
        raise SystemExit("geometry: nothing to do (use --pdf)")
    two_mt = args.two_mt
    rows = _pdf_comparison_rows(args.two_j, args.two_m, two_mt)
    meta = {"two_j": args.two_j, "two_m": args.two_m, "two_mt": two_mt}
    path = _write_csv(
        _out_path(args, "pdf_comparison.csv"),
        meta,
        ["two_m_prime", "pdf", "discretized_mass", "exact_probability"],
        rows,
        args.no_timestamp,
    )
    print(path)
    return 0


def _spectrum_rows(kappa: float, chi: float, weights: list[int], points: int) -> list[tuple]:
    """(weight, offset, transmission) over points probe offsets in
    [-4 kappa, 4 kappa] from the bare cavity, for each Hamming weight w
    (dispersive shift chi * w)."""
    import numpy as np

    from . import cavity as cav

    params = cav.CavityParams(kappa=kappa, chi=chi)
    offsets = np.linspace(-4.0 * kappa, 4.0 * kappa, points)
    return [
        (w, float(off), cav.transmission(params, params.omega_c + off, chi * w))
        for w in weights
        for off in offsets
    ]


def _cmd_cavity(args) -> int:
    import numpy as np

    from . import cavity as cav

    if args.mode == "spectrum":
        rows = _spectrum_rows(args.kappa, args.chi, [int(x) for x in args.weights.split(",")], args.points)
        meta = {"kappa": repr(args.kappa), "chi": repr(args.chi), "weights": args.weights}
        columns = ["weight", "omega_offset", "transmission"]
        name = "cavity_spectrum.csv"
    elif args.mode == "fisher":
        params = cav.CavityParams(kappa=args.kappa, chi=args.chi)
        deltas = np.linspace(0.0, args.kappa / 5.0, args.points)
        rows = [
            (
                float(d),
                cav.fisher_information(params, float(d)),
                cav.fisher_information_bernoulli(params, float(d)),
                cav.crb_variance(params, float(d)),
            )
            for d in deltas
        ]
        meta = {"kappa": repr(args.kappa), "chi": repr(args.chi)}
        columns = ["delta_a", "fisher_closed_form", "fisher_bernoulli_fd", "crb_variance"]
        name = "cavity_fisher.csv"
    elif args.mode == "estimate":
        params = cav.CavityParams(kappa=args.kappa, chi=args.chi)
        study = cav.estimator_variance_study(
            params, args.n_atoms, args.weight, args.photons, args.reps, seed=args.seed or 0
        )
        rows = [
            (
                study["mean_estimate"],
                study["empirical_variance"],
                study["crb_variance"],
                study["z_score"],
                study["repetitions"],
                study["photons"],
            )
        ]
        meta = {
            "kappa": repr(args.kappa),
            "chi": repr(args.chi),
            "n_atoms": args.n_atoms,
            "weight": args.weight,
            "seed": args.seed or 0,
        }
        columns = [
            "mean_estimate",
            "empirical_variance",
            "crb_variance",
            "z_score",
            "repetitions",
            "photons",
        ]
        name = "cavity_estimate.csv"
    else:  # resolvability
        rows = []
        for n in (int(x) for x in args.n_list.split(",")):
            gap = cav.resonant_peak_gap(args.g, n)
            rows.append(
                (n, gap, int(cav.resolvable(args.g, n, args.kappa)), cav.min_coupling_for_resolution(n, args.kappa))
            )
        meta = {"g": repr(args.g), "kappa": repr(args.kappa)}
        columns = ["n", "peak_gap", "resolvable", "min_coupling"]
        name = "cavity_resolvability.csv"
    path = _write_csv(_out_path(args, name), meta, columns, rows, args.no_timestamp)
    print(path)
    return 0


# ---------------------------------------------------------------------------
# figure jobs


@dataclass(frozen=True)
class FigureJob:
    """A named figure-reproduction pipeline with its parameters."""

    figure_id: str
    params: dict
    out_dir: Path

    def __post_init__(self) -> None:
        if self.figure_id not in _FIGURE_IDS:
            raise ValueError(f"figure_id must be one of {_FIGURE_IDS}")


def run_figure_job(job: FigureJob, no_timestamp: bool = False, seed: int | None = None) -> list[Path]:
    """Run one figure pipeline; returns the files written.

    Figure data is deterministic (no Monte Carlo sampling); the seed is
    recorded in the output metadata so the rerun contract stays visible.
    """
    from .core import AnglePolicy, ProtocolConfig
    from . import chain as chain_mod

    out_dir = Path(job.out_dir)
    p = job.params
    extra_meta = {} if seed is None else {"seed": seed}
    wrote: list[Path] = []
    if job.figure_id == "fig2a":
        two_j = int(p.get("two_j", 100))
        rows = _angle_table(two_j, 0, "both")
        meta = {"two_j": two_j, "two_mt": 0, "figure": "fig2a", **extra_meta}
        wrote.append(
            _write_csv(
                out_dir / "fig2a_angles.csv",
                meta,
                ["two_m", "theta_geometric", "theta_optimal", "overlap_geometric", "overlap_optimal"],
                rows,
                no_timestamp,
            )
        )
    elif job.figure_id == "fig2b":
        two_j = int(p.get("two_j", 100))
        policy = p.get("angle_policy", AnglePolicy.APPROX_MT0)
        cfg = ProtocolConfig(two_j=two_j, target_two_mt=0, angle_policy=policy)
        built = chain_mod.build_chain(cfg)
        wrote.append(_emit_matrix(out_dir / "fig2b_matrix.csv", built, no_timestamp, extra_meta))
    elif job.figure_id == "fig2c":
        js = [int(x) for x in str(p.get("j_list", "16,32,64,128,256")).split(",") if x]
        rows = _expected_steps_rows(js)
        meta = {"j_list": ",".join(str(j) for j in js), "figure": "fig2c", "reset_policy": "sqrt_j", **extra_meta}
        wrote.append(
            _write_csv(
                out_dir / "fig2c_expected_steps.csv",
                meta,
                ["j", "steps_geometric", "steps_optimal", "steps_naive"],
                rows,
                no_timestamp,
            )
        )
    elif job.figure_id == "fig2d":
        two_js = [int(x) for x in str(p.get("two_j_list", "40,100,200")).split(",") if x]
        rows = []
        for two_j in two_js:
            for two_mt, steps in chain_mod.mt_sweep(two_j):
                rows.append((two_j, two_mt, steps))
        meta = {"two_j_list": ",".join(str(t) for t in two_js), "figure": "fig2d", "reset_policy": "none", **extra_meta}
        wrote.append(
            _write_csv(
                out_dir / "fig2d_mt_sweep.csv",
                meta,
                ["two_j", "two_mt", "expected_steps"],
                rows,
                no_timestamp,
            )
        )
    elif job.figure_id == "pdf-comparison":
        two_j = int(p.get("two_j", 800))
        default_m = 2 * int((two_j / 2.0) ** 0.5 / 2.0)
        two_m = int(p.get("two_m", default_m))
        two_mt = int(p.get("two_mt", 0))
        rows = _pdf_comparison_rows(two_j, two_m, two_mt)
        meta = {"two_j": two_j, "two_m": two_m, "two_mt": two_mt, "figure": "pdf-comparison", **extra_meta}
        wrote.append(
            _write_csv(
                out_dir / "pdf_comparison.csv",
                meta,
                ["two_m_prime", "pdf", "discretized_mass", "exact_probability"],
                rows,
                no_timestamp,
            )
        )
    else:  # cavity-spectrum
        kappa = float(p.get("kappa", 1.0))
        chi = float(p.get("chi", 0.01))
        weights = [int(x) for x in str(p.get("weights", "0,5,10")).split(",")]
        rows = _spectrum_rows(kappa, chi, weights, int(p.get("points", 201)))
        meta = {"kappa": repr(kappa), "chi": repr(chi), "weights": ",".join(map(str, weights)), "figure": "cavity-spectrum", **extra_meta}
        wrote.append(
            _write_csv(
                out_dir / "cavity_spectrum.csv",
                meta,
                ["weight", "omega_offset", "transmission"],
                rows,
                no_timestamp,
            )
        )
    return wrote


def _cmd_figure(args) -> int:
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise SystemExit(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key.replace("-", "_")] = value
    job = FigureJob(figure_id=args.job, params=params, out_dir=Path(args.out_dir))
    for path in run_figure_job(job, no_timestamp=args.no_timestamp, seed=args.seed):
        print(path)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickeprep",
        description="Adaptive rotation + collective measurement preparation of Dicke states",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the configured RNG seed")
    parser.add_argument("--threads", type=int, default=None, help="cap BLAS/worker threads (env: DICKE_PREP_THREADS)")
    parser.add_argument("--out-dir", default=".", help="directory for default output files")
    parser.add_argument("--no-timestamp", action="store_true", help="omit timestamps for byte-identical reruns")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dmatrix", help="one rotation column as CSV")
    p.add_argument("--two-j", type=int, required=True)
    p.add_argument("--two-m", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--backend", choices=["b"], default="b")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dmatrix)

    p = sub.add_parser("angles", help="angle-policy comparison table")
    p.add_argument("--two-j", type=int, required=True)
    p.add_argument("--two-mt", type=int, default=0)
    p.add_argument("--policy", choices=["both", "geometric", "numeric_optimal", "approx_mt0"], default="both")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_angles)

    p = sub.add_parser("chain", help="transition matrices and expected steps")
    p.add_argument("--config", default=None)
    p.add_argument("--emit", default=None, help="write the dense transition matrix CSV here")
    p.add_argument("--expected-steps", action="store_true")
    p.add_argument("--j-list", default="16,32,64,128,256")
    p.add_argument("--mt-sweep", action="store_true")
    p.add_argument("--two-j", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("simulate", help="Monte Carlo trajectory sampling")
    p.add_argument("--config", required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--engine", choices=["chain", "statevector"], default="chain")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="override the configured RNG seed")
    p.add_argument("--out", default=None)
    p.add_argument("--dump-trajectories", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("asymptotics", help="asymptotic-formula comparison tables")
    p.add_argument("--mode", choices=["stationary-phase", "bessel", "contraction", "moments"], required=True)
    p.add_argument("--two-j", type=int, default=2000)
    p.add_argument("--two-m", type=int, default=20)
    p.add_argument("--two-mt", type=int, default=0)
    p.add_argument("--j-list", default="1000,10000,100000")
    p.add_argument("--max-offset", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--alphas", default="0.25,0.5,0.75,1.0")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("husimi", help="Husimi-Q profile of a Dicke state")
    p.add_argument("--two-j", type=int, required=True)
    p.add_argument("--two-m", type=int, required=True)
    p.add_argument("--grid", type=int, default=181)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_husimi)

    p = sub.add_parser("geometry", help="tilted-ring transition density tables")
    p.add_argument("--pdf", action="store_true")
    p.add_argument("--two-j", type=int, required=True)
    p.add_argument("--two-m", type=int, required=True)
    p.add_argument("--two-mt", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("cavity", help="dispersive readout model")
    p.add_argument("--mode", choices=["spectrum", "fisher", "estimate", "resolvability"], required=True)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="override the global RNG seed for the estimator study")
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--chi", type=float, default=0.01)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--weights", default="0,5,10")
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--n-atoms", type=int, default=10)
    p.add_argument("--weight", type=int, default=5)
    p.add_argument("--photons", type=int, default=10000)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--n-list", default="100,1000,10000")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_cavity)

    p = sub.add_parser("figure", help="figure-reproduction pipelines")
    p.add_argument("--job", choices=list(_FIGURE_IDS), required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _apply_thread_cap(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:  # deliberate: exit code 0 only on full success
        from .core import DickePrepError

        if isinstance(exc, DickePrepError):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
