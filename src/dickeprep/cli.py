"""Unified command-line interface.

Subcommands: dmatrix, angles, chain, simulate, asymptotics, husimi,
geometry, cavity, figure.  Global flags --seed, --threads, --out-dir,
--no-timestamp; DICKE_PREP_THREADS is the environment fallback for
--threads.  Outputs are CSV with '#'-prefixed metadata headers (JSON for
simulation statistics); with --no-timestamp a re-run with the same seed is
byte-identical.

Each table is built once, by a ``_*_table`` builder that returns
(metadata, columns, rows); the subcommands and the figure jobs only choose
its parameters and add metadata.  A figure job is one entry of ``_JOBS``:
its builder, its declared parameters (parser and default) and its file
name.  ``_write`` is the one CSV writer (stdout when there is no path), and
``main`` prints the paths written.  Every comma-separated list goes through
``_ints`` / ``_floats``: a malformed flag value is a usage error (exit 2),
a malformed or unknown ``figure --param`` an ``error:`` line (exit 1).

Heavy imports happen after --threads is applied, so the thread cap reaches
the BLAS backing numpy/scipy.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

__all__ = ["main", "FigureJob", "run_figure_job"]


def _apply_thread_cap(threads: int | None, parser: argparse.ArgumentParser) -> None:
    """Export BLAS thread caps before numpy is imported anywhere.

    An explicit --threads (already parsed) overrides the BLAS variables;
    DICKE_PREP_THREADS only fills those not already set.  A non-empty
    DICKE_PREP_THREADS that is not an integer >= 1 is a usage error
    (exit 2), raised before any variable is exported.
    """
    fallback = os.environ.get("DICKE_PREP_THREADS")
    if fallback:
        try:
            fallback = str(_positive_int(fallback))
        except argparse.ArgumentTypeError as exc:
            parser.error(f"DICKE_PREP_THREADS: {exc}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if threads is not None:
            os.environ[var] = str(threads)
        elif fallback:
            os.environ.setdefault(var, fallback)


def _list_of(kind: type) -> Callable[[str], list]:
    """Parser of a comma-separated list of kind (empty elements skipped).

    An empty or malformed list raises ArgumentTypeError, which argparse
    reports as a usage error and run_figure_job as a ParseError.
    """

    def parse(text) -> list:
        try:
            values = [kind(x) for x in str(text).split(",") if x]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list of {kind.__name__}: {text!r}")
        return values

    return parse


_ints, _floats = _list_of(int), _list_of(float)


def _positive_int(text: str) -> int:
    """An integer >= 1; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return value


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, list):
        return ",".join(map(_fmt, value))
    return str(value)


def _save(path: Path | None, text: str) -> list[Path]:
    """Write text to path (stdout when None); returns the paths written."""
    if path is None:
        sys.stdout.write(text)
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return [path]


def _write(path: Path | None, table: tuple, no_timestamp: bool, **extra_meta) -> list[Path]:
    """The one CSV writer: '#' metadata lines (sorted keys), the header row
    and the data rows of table = (metadata, columns, rows)."""
    from . import __version__

    meta, columns, rows = table
    meta = {**meta, **extra_meta}
    lines = [f"# dickeprep {__version__}", *(f"# {key} = {_fmt(meta[key])}" for key in sorted(meta))]
    if not no_timestamp:
        lines.append(f"# generated = {datetime.now(timezone.utc).isoformat()}")
    lines += [",".join(columns), *(",".join(map(_fmt, row)) for row in rows), ""]
    return _save(path, "\n".join(lines))


def _out_path(args, default_name: str | None) -> Path | None:
    """--out if given, else default_name under --out-dir (None: stdout)."""
    if args.out:
        return Path(args.out)
    return default_name and Path(args.out_dir) / default_name


def _config_meta(cfg) -> dict:
    from .config import config_to_dict

    return {f"config.{k}": v for k, v in config_to_dict(cfg).items()}


# ---------------------------------------------------------------------------
# table builders (imports deferred until after the thread cap)


def _angle_table(two_j: int, two_mt: int = 0, policy: str = "both") -> tuple:
    """Angle and overlap of each source state under one policy, or under
    the geometric and numeric_optimal policies side by side ("both")."""
    from . import angles

    chosen = ("geometric", "numeric_optimal") if policy == "both" else (policy,)
    states = [i for i in range(two_j + 1) if 2 * i - two_j != two_mt]
    thetas, overlaps = [], []
    for name in chosen:
        if name == "numeric_optimal":
            theta, overlap = angles.optimal_angles_for_target(two_j, two_mt)
            overlap = overlap[states]
        else:
            theta = angles.policy_angles(two_j, two_mt, name)
            overlap = angles.overlap_probabilities(two_j, two_mt, states, theta[states])
        thetas.append(theta[states])
        overlaps.append(overlap)
    short = [{"numeric_optimal": "optimal", "approx_mt0": "approx"}.get(name, name) for name in chosen]
    columns = ["two_m", *(f"theta_{s}" for s in short), *(f"overlap_{s}" for s in short)]
    rows = [
        (2 * i - two_j, *(float(t[k]) for t in thetas), *(float(o[k]) for o in overlaps))
        for k, i in enumerate(states)
    ]
    return {"two_j": two_j, "two_mt": two_mt}, columns, rows


def _matrix_table(cfg) -> tuple:
    """The dense transition matrix of cfg's chain, one row per source state."""
    from .chain import build_chain

    built = build_chain(cfg)
    columns = [f"to_{2 * b - cfg.two_j}" for b in range(built.size)]
    rows = (tuple(float(x) for x in row) for row in built.matrix)
    return {**_config_meta(cfg), "two_j": cfg.two_j}, columns, rows


def _fig2b_table(two_j: int, angle_policy: str) -> tuple:
    from .core import ProtocolConfig

    return _matrix_table(ProtocolConfig(two_j=two_j, target_two_mt=0, angle_policy=angle_policy))


def _expected_steps_table(j_list: list[int]) -> tuple:
    """Expected steps from m = j to m_t = 0 under the sqrt_j reset, one row
    per j: geometric, numeric_optimal and the naive reset-every-step."""
    from .core import AnglePolicy, ResetPolicy
    from . import chain

    reset = ResetPolicy(kind=ResetPolicy.SQRT_J)
    rows = []
    for j in j_list:
        geo = chain.expected_steps_for(2 * j, 0, AnglePolicy.GEOMETRIC, reset).start_state_value
        opt = chain.expected_steps_for(2 * j, 0, AnglePolicy.NUMERIC_OPTIMAL, reset).start_state_value
        rows.append((j, geo, opt, chain.naive_expected_steps(2 * j)))
    columns = ["j", "steps_geometric", "steps_optimal", "steps_naive"]
    return {"j_list": j_list, "reset_policy": "sqrt_j"}, columns, rows


def _sweep_table(two_j_list: list[int]) -> tuple:
    """Expected steps from m = j for every target m_t = 0..j of each j,
    geometric angles, no reset."""
    from .chain import mt_sweep

    rows = [(two_j, two_mt, steps) for two_j in two_j_list for two_mt, steps in mt_sweep(two_j)]
    return {"two_j_list": two_j_list, "reset_policy": "none"}, ["two_j", "two_mt", "expected_steps"], rows


def _pdf_table(two_j: int, two_m: int | None = None, two_mt: int | None = None) -> tuple:
    """Tilted-ring density, its lattice discretization and the exact row
    from m at the geometric angle.  two_mt defaults to two_j mod 2 (m_t = 0
    or 1/2) and two_m to 2 floor(sqrt(j) / 2) + two_j mod 2, which share
    two_j's parity."""
    from .core import SpinSpec
    from . import angles, geometry, wigner

    if two_mt is None:
        two_mt = two_j % 2
    if two_m is None:
        two_m = 2 * int((two_j / 2.0) ** 0.5 / 2.0) + two_j % 2
    theta = angles.geometric_angle(two_j, two_mt, two_m).radians
    exact = wigner.transition_probabilities(SpinSpec(two_j, two_m), theta)
    disc = geometry.discretized_pdf_lattice(two_j, two_m, two_mt)
    pdf = geometry.geometric_transition_pdf
    rows = [
        (int(tm), pdf(two_j, two_m, two_mt, tm / 2.0), float(disc[i]), float(exact[i]))
        for i, tm in enumerate(wigner.two_m_values(two_j))
    ]
    columns = ["two_m_prime", "pdf", "discretized_mass", "exact_probability"]
    return {"two_j": two_j, "two_m": two_m, "two_mt": two_mt}, columns, rows


def _linspace(lo: float, hi: float, points: int):
    """np.linspace(lo, hi, points), refusing an empty or negative count."""
    import numpy as np

    from .core import DomainError

    if points < 1:
        raise DomainError(f"points must be >= 1, got {points}")
    return np.linspace(lo, hi, points)


def _spectrum_table(kappa: float, chi: float, weights: list[int], points: int) -> tuple:
    """Transmission at points probe offsets in [-4 kappa, 4 kappa] from the
    bare cavity, for each Hamming weight w (dispersive shift chi * w)."""
    from . import cavity

    params = cavity.CavityParams(kappa=kappa, chi=chi)
    offsets = _linspace(-4.0 * kappa, 4.0 * kappa, points)
    rows = [
        (w, float(off), cavity.transmission(params, params.omega_c + off, chi * w))
        for w in weights
        for off in offsets
    ]
    return {"kappa": kappa, "chi": chi, "weights": weights}, ["weight", "omega_offset", "transmission"], rows


def _fisher_table(kappa: float, chi: float, points: int) -> tuple:
    from . import cavity

    params = cavity.CavityParams(kappa=kappa, chi=chi)
    rows = [
        (d, cavity.fisher_information(params, d), cavity.fisher_information_bernoulli(params, d),
         cavity.crb_variance(params, d))
        for d in map(float, _linspace(0.0, kappa / 5.0, points))
    ]
    columns = ["delta_a", "fisher_closed_form", "fisher_bernoulli_fd", "crb_variance"]
    return {"kappa": kappa, "chi": chi}, columns, rows


def _estimate_table(kappa, chi, n_atoms, weight, photons, reps, seed) -> tuple:
    from . import cavity

    params = cavity.CavityParams(kappa=kappa, chi=chi)
    study = cavity.estimator_variance_study(params, n_atoms, weight, photons, reps, seed=seed)
    columns = ["mean_estimate", "empirical_variance", "crb_variance", "z_score", "repetitions", "photons"]
    meta = {"kappa": kappa, "chi": chi, "n_atoms": n_atoms, "weight": weight, "seed": seed}
    return meta, columns, [tuple(study[c] for c in columns)]


def _resolvability_table(g: float, kappa: float, n_list: list[int]) -> tuple:
    from . import cavity

    rows = [
        (n, cavity.resonant_peak_gap(g, n), int(cavity.resolvable(g, n, kappa)),
         cavity.min_coupling_for_resolution(n, kappa))
        for n in n_list
    ]
    return {"g": g, "kappa": kappa}, ["n", "peak_gap", "resolvable", "min_coupling"], rows


def _stationary_phase_table(two_j: int, two_m: int) -> tuple:
    from .asymptotics import compare_stationary_phase

    rows = [
        (c.two_m_prime, c.exact, c.approx, c.abs_error, c.predicted_error_scale)
        for c in compare_stationary_phase(two_j, two_m)
    ]
    columns = ["two_m_prime", "exact", "approx", "abs_error", "predicted_error_scale"]
    return {"two_j": two_j, "two_m": two_m}, columns, rows


def _bessel_table(two_m: int, j_list: list[int], max_offset: int) -> tuple:
    """d^j_{m',m}(arcsin(m/j)) against its j -> infinity Bessel limit."""
    import math

    from .core import SpinSpec
    from . import asymptotics, wigner

    rows = []
    for j in j_list:
        spec = SpinSpec(2 * j, two_m)
        col = wigner.d_column(spec, math.asin(spec.m / spec.j))
        for two_mp in (two_m - 2 * off for off in range(-max_offset, max_offset + 1)):
            exact, lim = col.amplitude(two_mp), asymptotics.bessel_limit(two_m, two_mp)
            rows.append((j, two_mp, exact, lim, abs(exact - lim)))
    columns = ["j", "two_m_prime", "exact_d", "bessel_limit", "abs_diff"]
    return {"two_m": two_m, "j_list": j_list}, columns, rows


def _contraction_table(two_j: int, alpha: float) -> tuple:
    """The contraction ratio at every m in [j^(1/4), sqrt(j)] of two_j's
    parity: integer m for integer j, half-integer m otherwise.  Refuses a
    two_j with no such m (1, 3, 4, 6 and 11)."""
    import math

    from .asymptotics import contraction_sum
    from .core import DomainError

    j, parity = two_j / 2.0, two_j % 2
    ks = range(math.ceil(j**0.25 - parity / 2), math.floor(math.sqrt(j) - parity / 2) + 1)  # m = k + parity / 2
    if not ks:
        interval = f"[j^(1/4), sqrt(j)] = [{j**0.25:.4g}, {math.sqrt(j):.4g}]"
        raise DomainError(f"two_j={two_j} has no m of its parity in {interval}")
    rows = [(two_m, contraction_sum(two_j, alpha, two_m)) for two_m in (2 * k + parity for k in ks)]
    return {"two_j": two_j, "alpha": alpha}, ["two_m", "contraction_sum"], rows


def _moments_table(two_j: int, two_m: int, two_mt: int | None, alphas: list[float]) -> tuple:
    """Closed-form against quadrature tilted-ring moments; two_mt defaults
    to two_j mod 2 (m_t = 0 or 1/2)."""
    from . import asymptotics, geometry

    if two_mt is None:
        two_mt = two_j % 2
    rows = []
    for alpha in alphas:
        closed = asymptotics.beta_moment(alpha, two_j, two_m, two_mt)
        quadr = geometry.pdf_moment_quadrature(alpha, two_j, two_m, two_mt)
        rows.append((alpha, closed, quadr, abs(closed - quadr)))
    columns = ["alpha", "closed_form", "quadrature", "abs_diff"]
    return {"two_j": two_j, "two_m": two_m, "two_mt": two_mt}, columns, rows


def _husimi_table(two_j: int, two_m: int, grid: int) -> tuple:
    from .core import SpinSpec
    from . import geometry

    profile = geometry.husimi_q_profile(SpinSpec(two_j, two_m), n_grid=grid)
    rows = [(float(t), float(q)) for t, q in zip(profile.thetas, profile.values)]
    return {"two_j": two_j, "two_m": two_m, "grid": grid}, ["theta", "q_value"], rows


# ---------------------------------------------------------------------------
# subcommands: choose the parameters and the extra metadata, return the paths


def _cmd_dmatrix(args) -> list[Path]:
    from .core import SpinSpec
    from . import wigner

    col = wigner.d_column(SpinSpec(args.two_j, args.two_m), args.theta)
    rows = [
        (int(tm), float(a), float(a) * float(a))
        for tm, a in zip(wigner.two_m_values(args.two_j), col.amplitudes)
    ]
    meta = {"two_j": args.two_j, "two_m": args.two_m, "theta": args.theta}
    table = (meta, ["two_m_prime", "amplitude", "probability"], rows)
    return _write(_out_path(args, None), table, args.no_timestamp)


def _cmd_angles(args) -> list[Path]:
    table = _angle_table(args.two_j, args.two_mt, args.policy)
    return _write(_out_path(args, "angles.csv"), table, args.no_timestamp, policy=args.policy)


def _cmd_chain(args) -> list[Path]:
    from . import chain
    from .config import load_config

    if not (args.config or args.expected_steps or args.mt_sweep):
        raise SystemExit("chain: nothing to do (use --config/--emit, --expected-steps, or --mt-sweep)")
    if args.emit and not args.config:
        raise SystemExit("chain: --emit needs --config")
    if args.out and args.expected_steps and args.mt_sweep:
        raise SystemExit("chain: --expected-steps and --mt-sweep write two tables; --out names one (use --out-dir)")
    wrote = []
    if args.config:
        cfg = load_config(args.config)
        if args.seed is not None:
            from dataclasses import replace

            cfg = replace(cfg, seed=args.seed)
        if args.emit:
            wrote += _write(Path(args.emit), _matrix_table(cfg), args.no_timestamp)
        else:
            report = chain.expected_steps_for(
                cfg.two_j, cfg.target_two_mt, cfg.angle_policy, cfg.reset_policy
            )
            print(f"expected steps from m=j: {report.start_state_value!r}")
    if args.expected_steps:
        table = _expected_steps_table(args.j_list)
        wrote += _write(_out_path(args, "expected_steps.csv"), table, args.no_timestamp, target_two_mt=0)
    if args.mt_sweep:
        if args.two_j is None:
            raise SystemExit("--mt-sweep requires --two-j")
        _, columns, rows = _sweep_table([args.two_j])
        meta = {"two_j": args.two_j, "angle_policy": "geometric", "reset_policy": "none"}
        table = (meta, columns[1:], [r[1:] for r in rows])  # one j: drop the two_j column
        wrote += _write(_out_path(args, "mt_sweep.csv"), table, args.no_timestamp)
    return wrote


def _cmd_simulate(args) -> list[Path]:
    from dataclasses import replace

    from .config import config_to_dict, load_config
    from . import simulate as sim

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    stats = sim.summarize(cfg, args.runs, engine=args.engine)
    histogram = {str(k): v for k, v in stats.histogram.items()}  # sort_keys orders them
    payload = {**vars(stats), "config": config_to_dict(cfg), "histogram": histogram}
    wrote = _save(_out_path(args, "stats.json"), json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.dump_trajectories:
        tables = sim.PolicyTables(cfg)
        rows = []
        for run in range(args.runs):
            rec = sim.run_trajectory(cfg, sim.rng_stream(cfg.seed, run), tables)
            for step_i, st in enumerate(rec.steps):
                rows.append((run, step_i, st.two_m_before, st.angle, st.two_m_after, int(st.reset)))
        columns = ["run", "step", "two_m_before", "theta", "two_m_after", "reset"]
        table = ({**_config_meta(cfg), "engine": args.engine}, columns, rows)
        wrote += _write(Path(args.dump_trajectories), table, args.no_timestamp)
    return wrote


def _cmd_asymptotics(args) -> list[Path]:
    if args.mode == "stationary-phase":
        name, table = "stationary_phase.csv", _stationary_phase_table(args.two_j, args.two_m)
    elif args.mode == "bessel":
        name, table = "bessel_limit.csv", _bessel_table(args.two_m, args.j_list, args.max_offset)
    elif args.mode == "contraction":
        name, table = "contraction.csv", _contraction_table(args.two_j, args.alpha)
    else:
        name, table = "moments.csv", _moments_table(args.two_j, args.two_m, args.two_mt, args.alphas)
    return _write(_out_path(args, name), table, args.no_timestamp, mode=args.mode)


def _cmd_husimi(args) -> list[Path]:
    table = _husimi_table(args.two_j, args.two_m, args.grid)
    return _write(_out_path(args, "husimi.csv"), table, args.no_timestamp)


def _cmd_geometry(args) -> list[Path]:
    if not args.pdf:
        raise SystemExit("geometry: nothing to do (use --pdf)")
    table = _pdf_table(args.two_j, args.two_m, args.two_mt)
    return _write(_out_path(args, "pdf_comparison.csv"), table, args.no_timestamp)


def _cmd_cavity(args) -> list[Path]:
    if args.mode == "spectrum":
        table = _spectrum_table(args.kappa, args.chi, args.weights, args.points)
    elif args.mode == "fisher":
        table = _fisher_table(args.kappa, args.chi, args.points)
    elif args.mode == "estimate":
        table = _estimate_table(
            args.kappa, args.chi, args.n_atoms, args.weight, args.photons, args.reps, args.seed or 0
        )
    else:
        table = _resolvability_table(args.g, args.kappa, args.n_list)
    return _write(_out_path(args, f"cavity_{args.mode}.csv"), table, args.no_timestamp)


# ---------------------------------------------------------------------------
# figure jobs


class _Job(NamedTuple):
    """One figure pipeline: its file, its table builder, and the builder's
    keyword parameters as name -> (parser, default text; None lets the
    builder derive it)."""

    file: str
    build: Callable[..., tuple]
    params: dict
    names_figure: bool = True  # add "figure = <id>" to the metadata


_JOBS = {
    "fig2a": _Job("fig2a_angles.csv", _angle_table, {"two_j": (int, "100")}),
    "fig2b": _Job(
        "fig2b_matrix.csv",
        _fig2b_table,
        {"two_j": (int, "100"), "angle_policy": (str, "approx_mt0")},
        names_figure=False,  # its header is the chain's config
    ),
    "fig2c": _Job("fig2c_expected_steps.csv", _expected_steps_table, {"j_list": (_ints, "16,32,64,128,256")}),
    "fig2d": _Job("fig2d_mt_sweep.csv", _sweep_table, {"two_j_list": (_ints, "40,100,200")}),
    "pdf-comparison": _Job(
        "pdf_comparison.csv", _pdf_table, {"two_j": (int, "800"), "two_m": (int, None), "two_mt": (int, None)}
    ),
    "cavity-spectrum": _Job(
        "cavity_spectrum.csv",
        _spectrum_table,
        {
            "kappa": (float, "1.0"),
            "chi": (float, "0.01"),
            "weights": (_ints, "0,5,10"),
            "points": (int, "201"),
        },
    ),
}
_FIGURE_IDS = tuple(_JOBS)


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

    Each parameter is read from job.params (text or a value) by the job's
    declared parser, or takes its default; an unknown key or a malformed
    value is a ParseError.  Figure data is deterministic (no Monte Carlo
    sampling); the seed is recorded in the output metadata so the rerun
    contract stays visible.
    """
    from .core import ParseError

    spec = _JOBS[job.figure_id]
    unknown = sorted(set(job.params) - set(spec.params))
    if unknown:
        raise ParseError(
            f"figure {job.figure_id}: unknown parameter {', '.join(unknown)}"
            f" (it takes {', '.join(spec.params)})"
        )
    values = {}
    for key, (parse, default) in spec.params.items():
        value = job.params.get(key, default)
        try:
            values[key] = None if value is None else parse(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ParseError(f"figure {job.figure_id}: {key}={value!r}: {exc}") from None
    extra = {"figure": job.figure_id} if spec.names_figure else {}
    if seed is not None:
        extra["seed"] = seed
    return _write(Path(job.out_dir) / spec.file, spec.build(**values), no_timestamp, **extra)


def _cmd_figure(args) -> list[Path]:
    params = {}
    for item in args.param or []:
        key, eq, value = item.partition("=")
        if not eq:
            raise SystemExit(f"--param expects key=value, got {item!r}")
        params[key.replace("-", "_")] = value
    job = FigureJob(figure_id=args.job, params=params, out_dir=Path(args.out_dir))
    return run_figure_job(job, no_timestamp=args.no_timestamp, seed=args.seed)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reads '-1e-3', '-inf' or '-0.5,1' after a flag as its value, not as
    an option: no option here starts with '-' and a digit, '.', 'inf' or
    'nan'.  Subparsers are built from this class too."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan).*$", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dickeprep",
        description="Adaptive rotation + collective measurement preparation of Dicke states",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the configured RNG seed")
    parser.add_argument(
        "--threads", type=_positive_int, default=None, help="cap BLAS/worker threads (env: DICKE_PREP_THREADS)"
    )
    parser.add_argument("--out-dir", default=".", help="directory for default output files")
    parser.add_argument(
        "--no-timestamp", action="store_true", help="omit timestamps for byte-identical reruns"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(func.__name__.removeprefix("_cmd_"), help=help)
        p.set_defaults(func=func)
        return p

    p = command(_cmd_dmatrix, "one rotation column as CSV")
    p.add_argument("--two-j", type=int, required=True)
    p.add_argument("--two-m", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)

    p = command(_cmd_angles, "angle-policy comparison table")
    p.add_argument("--two-j", type=int, required=True)
    p.add_argument("--two-mt", type=int, default=0)
    p.add_argument("--policy", choices=["both", "geometric", "numeric_optimal", "approx_mt0"], default="both")

    p = command(_cmd_chain, "transition matrices and expected steps")
    p.add_argument("--config", default=None)
    p.add_argument("--emit", default=None, help="write the dense transition matrix CSV here")
    p.add_argument("--expected-steps", action="store_true")
    p.add_argument("--j-list", type=_ints, default="16,32,64,128,256")
    p.add_argument("--mt-sweep", action="store_true")
    p.add_argument("--two-j", type=int, default=None)

    p = command(_cmd_simulate, "Monte Carlo trajectory sampling")
    p.add_argument("--config", required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--engine", choices=["chain", "statevector"], default="chain")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override the configured RNG seed")
    p.add_argument("--dump-trajectories", default=None)

    p = command(_cmd_asymptotics, "asymptotic-formula comparison tables")
    p.add_argument("--mode", choices=["stationary-phase", "bessel", "contraction", "moments"], required=True)
    p.add_argument("--two-j", type=int, default=2000)
    p.add_argument("--two-m", type=int, default=20)
    p.add_argument("--two-mt", type=int, default=None)
    p.add_argument("--j-list", type=_ints, default="1000,10000,100000")
    p.add_argument("--max-offset", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--alphas", type=_floats, default="0.25,0.5,0.75,1.0")

    p = command(_cmd_husimi, "Husimi-Q profile of a Dicke state")
    p.add_argument("--two-j", type=int, required=True)
    p.add_argument("--two-m", type=int, required=True)
    p.add_argument("--grid", type=int, default=181)

    p = command(_cmd_geometry, "tilted-ring transition density tables")
    p.add_argument("--pdf", action="store_true")
    p.add_argument("--two-j", type=int, required=True)
    p.add_argument("--two-m", type=int, required=True)
    p.add_argument("--two-mt", type=int, default=None)

    p = command(_cmd_cavity, "dispersive readout model")
    p.add_argument("--mode", choices=["spectrum", "fisher", "estimate", "resolvability"], required=True)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="override the global RNG seed for the estimator study")
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--chi", type=float, default=0.01)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--weights", type=_ints, default="0,5,10")
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--n-atoms", type=int, default=10)
    p.add_argument("--weight", type=int, default=5)
    p.add_argument("--photons", type=int, default=10000)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--n-list", type=_ints, default="100,1000,10000")

    for p in sub.choices.values():  # every subcommand but figure writes to --out
        p.add_argument("--out", default=None)

    p = command(_cmd_figure, "figure-reproduction pipelines")
    p.add_argument("--job", choices=list(_FIGURE_IDS), required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)  # a malformed --threads exits here, before any export
    _apply_thread_cap(args.threads, parser)
    try:
        for path in args.func(args):
            print(path)
        return 0
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
