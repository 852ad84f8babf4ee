"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  The expensive criterion (expected-steps scaling up to j = 4096)
dominates the runtime at a few minutes; everything else is seconds.
"""

import gc
import math

import numpy as np
import pytest
from scipy.stats import binom

from dickeprep.core import AnglePolicy, ProtocolConfig, ResetPolicy, SpinSpec
from dickeprep import asymptotics, cavity, chain, cli, geometry, simulate, wigner

from oracles import logsum_column, rotation_oracle


def _report(num: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} {description}: {detail}")
    assert ok, f"criterion {num}: {description}: {detail}"


def _linear_fit_r2(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    a = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    pred = a @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return 1.0 - ss_res / ss_tot, coef


def test_criterion_01_dmatrix_oracle_and_backend_agreement():
    worst_oracle = 0.0
    for two_j in range(1, 21):
        for theta in np.linspace(-3.0, 3.0, 25):
            oracle = rotation_oracle(two_j, float(theta))
            for i_m in range(two_j + 1):
                spec = SpinSpec(two_j, 2 * i_m - two_j)
                for col in (
                    logsum_column(two_j, spec.two_m, float(theta)),
                    wigner.d_column(spec, float(theta)).amplitudes,
                ):
                    worst_oracle = max(worst_oracle, float(np.max(np.abs(col - oracle[:, i_m]))))
    worst_agree = 0.0
    for two_j in (50, 100, 200):
        for theta in np.linspace(0.05, 3.1, 50):
            for i_m in (two_j, (2 * two_j) // 3, two_j // 5):
                spec = SpinSpec(two_j, 2 * i_m - two_j)
                a = logsum_column(two_j, spec.two_m, float(theta))
                b = wigner.d_column(spec, float(theta)).amplitudes
                worst_agree = max(worst_agree, float(np.max(np.abs(a - b))))
    ok = worst_oracle < 1e-10 and worst_agree < 1e-8
    _report(
        1,
        "d-matrix correctness",
        ok,
        f"max |backend - oracle| = {worst_oracle:.2e} (j<=10), "
        f"max |a - b| = {worst_agree:.2e} (j<=100)",
    )


def test_criterion_02_unitarity_and_stochasticity():
    worst_col = 0.0
    for two_j in (32, 200, 1000, 2000, 4000):
        for theta in (0.37, np.pi / 2, 2.9):
            for i_m in (two_j, two_j // 2, two_j // 7):
                col = wigner.d_column(SpinSpec(two_j, 2 * i_m - two_j), theta)
                worst_col = max(worst_col, abs(float(col.probabilities.sum()) - 1.0))
    worst_row = 0.0
    for two_j, policy in ((1000, AnglePolicy.GEOMETRIC), (4000, AnglePolicy.APPROX_MT0)):
        cfg = ProtocolConfig(two_j=two_j, angle_policy=policy,
                             reset_policy=ResetPolicy(kind="sqrt_j"))
        built = chain.build_chain(cfg)
        worst_row = max(worst_row, float(np.max(np.abs(built.matrix.sum(axis=1) - 1.0))))
        del built
        gc.collect()
    ok = worst_col < 1e-9 and worst_row < 1e-9
    _report(
        2,
        "unitarity/stochasticity to j=2000",
        ok,
        f"column norm dev {worst_col:.2e}, row sum dev {worst_row:.2e}",
    )


def test_criterion_03_small_chain_oracle():
    cfg = ProtocolConfig(two_j=2, angle_policy=AnglePolicy.APPROX_MT0, seed=20240)
    exact = chain.expected_steps(chain.build_chain(cfg)).start_state_value
    stats = simulate.summarize(cfg, 100_000)
    dev = abs(exact - 2.0)
    mc_ok = abs(stats.mean_iterations - exact) < 3 * stats.std_error
    ok = dev < 1e-12 and mc_ok
    _report(
        3,
        "j=1 expected steps",
        ok,
        f"fundamental matrix {exact!r} (|dev| = {dev:.2e}), "
        f"MC mean {stats.mean_iterations:.4f} +- {stats.std_error:.4f} over 1e5 runs",
    )


def test_criterion_04_expected_steps_scaling():
    js = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    reset = ResetPolicy(kind="sqrt_j")
    geo, opt, naive = [], [], []
    for j in js:
        two_j = 2 * j
        geo.append(chain.expected_steps_for(two_j, 0, AnglePolicy.GEOMETRIC, reset).start_state_value)
        gc.collect()
        opt.append(chain.expected_steps_for(two_j, 0, AnglePolicy.NUMERIC_OPTIMAL, reset).start_state_value)
        gc.collect()
        naive.append(chain.naive_expected_steps(two_j))
    geo_arr, opt_arr, naive_arr = map(np.asarray, (geo, opt, naive))
    r2, coef = _linear_fit_r2(np.log(np.asarray(js, dtype=float)), geo_arr)

    decade = [i for i, j in enumerate(js) if j > js[-1] / 10]
    sj = np.sqrt(np.asarray([js[i] for i in decade], dtype=float))
    nv = naive_arr[decade]
    c_fit = float(np.sum(sj * nv) / np.sum(sj * sj))
    naive_rel = float(np.max(np.abs(nv - c_fit * sj) / nv))

    ratio = float(np.max(geo_arr / opt_arr))
    ok = r2 >= 0.98 and naive_rel <= 0.05 and ratio <= 2.0
    _report(
        4,
        "expected-steps scaling j=16..4096",
        ok,
        f"log fit R^2 = {r2:.4f} (slope {coef[1]:.3f}), naive sqrt-fit rel err "
        f"{naive_rel:.3%} on the last decade, max geometric/optimal = {ratio:.3f}",
    )


def test_criterion_05_target_sweep_ordering():
    details = []
    ok = True
    for j in (20, 50, 100):
        sweep = chain.mt_sweep(2 * j)
        steps = np.asarray([s[1] for s in sweep])
        argmax_ok = int(np.argmax(steps)) == 0
        mts = np.arange(0, j - 3)
        r2, _ = _linear_fit_r2(np.log(j - mts.astype(float)), steps[mts])
        ok = ok and argmax_ok and r2 >= 0.9
        details.append(f"j={j}: max at m_t={int(np.argmax(steps))}, R^2={r2:.3f}")
    _report(5, "target-sweep ordering and log(j - m_t) fit", ok, "; ".join(details))


def test_criterion_06_matrix_negation_symmetry():
    worst = 0.0
    for policy in (AnglePolicy.APPROX_MT0, AnglePolicy.GEOMETRIC):
        built = chain.build_chain(ProtocolConfig(two_j=100, angle_policy=policy))
        flipped = built.matrix[::-1, ::-1]
        worst = max(worst, float(np.max(np.abs(flipped - built.matrix))))
    _report(6, "no-reset matrix symmetric under global flip (j=50)", worst < 1e-9,
            f"max asymmetry {worst:.2e}")


def test_criterion_07_first_step_tail_mass():
    worst = 1.0
    worst_j = None
    for j in range(50, 4097):
        n = 2 * j
        hi = int(math.floor(j + math.sqrt(j)))
        lo = int(math.ceil(j - math.sqrt(j)))
        mass = float(binom.cdf(hi, n, 0.5) - binom.cdf(lo - 1, n, 0.5))
        if mass < worst:
            worst, worst_j = mass, j
    cross = 0.0
    for j in (50, 128, 512, 2048, 4096):
        two_j = 2 * j
        probs = wigner.outcome_distribution(SpinSpec(two_j, two_j), np.pi / 2)
        two_mp = wigner.two_m_values(two_j)
        inside = float(probs[two_mp * two_mp <= 2 * two_j].sum())
        n = 2 * j
        expected = float(
            binom.cdf(int(math.floor(j + math.sqrt(j))), n, 0.5)
            - binom.cdf(int(math.ceil(j - math.sqrt(j))) - 1, n, 0.5)
        )
        cross = max(cross, abs(inside - expected))
    ok = worst >= 0.8 and cross < 1e-12
    _report(
        7,
        "first pi/2 step lands within sqrt(j)",
        ok,
        f"min tail mass {worst:.4f} at j={worst_j} (limit erf(1) ~ 0.8427); "
        f"binomial cross-check dev {cross:.1e}",
    )


def test_criterion_08_contraction_below_one():
    alpha = 0.05
    c_hat = 0.0
    arg = None
    for j in (400, 2500, 10_000):
        lo = int(math.ceil(j**0.25))
        hi = int(math.isqrt(j))
        for m in range(lo, hi + 1):
            value = asymptotics.contraction_sum(2 * j, alpha, 2 * m)
            if value > c_hat:
                c_hat, arg = value, (j, m)
    _report(8, "one-step proxy-moment contraction", c_hat < 1.0,
            f"empirical c_hat = {c_hat:.6f} at (j, m) = {arg}, alpha = {alpha}")


def test_criterion_09_stationary_phase_error_monotone():
    errs = []
    for j in (1_000, 10_000, 100_000):
        m = int(math.isqrt(j) // 3)
        comps = asymptotics.compare_stationary_phase(2 * j, 2 * m)
        errs.append(max(c.abs_error for c in comps))
    ok = errs[0] > errs[1] > errs[2]
    _report(9, "stationary-phase interior error decreases with j", ok,
            "max interior errors " + " > ".join(f"{e:.2e}" for e in errs))


def test_criterion_10_bessel_limit_monotone():
    ok = True
    details = []
    for offset in range(-3, 4):
        two_mp = 40 - 2 * offset
        gaps = []
        for j in (1_000, 10_000, 100_000):
            spec = SpinSpec(2 * j, 40)
            beta = math.asin(20.0 / j)
            exact = wigner.d_column(spec, beta).amplitude(two_mp)
            gaps.append(abs(exact - asymptotics.bessel_limit(40, two_mp)))
        ok = ok and gaps[0] > gaps[1] > gaps[2]
        details.append(f"{offset:+d}: {gaps[-1]:.1e}")
    _report(10, "Bessel-limit gap decreases with j (m=20, |m-m'|<=3)", ok,
            "final gaps per offset " + ", ".join(details))


def test_criterion_11_geometric_pdf():
    tvs = []
    for j in (100, 400, 1600):
        m = math.isqrt(j) // 2
        tvs.append(geometry.tv_distance_discretized(2 * j, 2 * m, 0))
    tv_ok = tvs[0] > tvs[1] > tvs[2]
    moment_dev = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0):
        closed = asymptotics.beta_moment(alpha, 200, 2 * 7, 0)
        quadr = geometry.pdf_moment_quadrature(alpha, 200, 2 * 7, 0)
        moment_dev = max(moment_dev, abs(closed - quadr))
    ok = tv_ok and moment_dev < 1e-8
    _report(
        11,
        "tilted-ring pdf vs exact rows",
        ok,
        f"TV distances {', '.join(f'{t:.4f}' for t in tvs)} (decreasing: {tv_ok}); "
        f"moment dev {moment_dev:.1e}",
    )


def test_criterion_12_cavity_model():
    params = cavity.CavityParams(kappa=1.0, chi=0.01)
    study = cavity.estimator_variance_study(params, 10, 5, 10_000, 1_000, seed=7)
    guard = 1.0 - 3.0 * math.sqrt(2.0 / (1_000 - 1))
    var_ok = study["empirical_variance"] >= study["crb_variance"] * guard

    fisher_dev = 0.0
    for delta in (0.0, 0.02, 0.1, 0.2):
        closed = cavity.fisher_information(params, delta)
        fd = cavity.fisher_information_bernoulli(params, delta)
        fisher_dev = max(fisher_dev, abs(closed - fd) / closed)

    scale_ok = True
    for n in (100, 1_000, 10_000, 100_000, 1_000_000):
        g_min = cavity.min_coupling_for_resolution(n, params.kappa)
        scale_ok = scale_ok and abs(g_min / (2.0 * params.kappa * math.sqrt(n)) - 1.0) <= 0.05

    ok = var_ok and fisher_dev < 1e-8 and scale_ok
    _report(
        12,
        "cavity estimator & resolvability",
        ok,
        f"empirical var / CRB = {study['empirical_variance'] / study['crb_variance']:.3f} "
        f"(guard {guard:.3f}), Fisher closed-vs-FD rel dev {fisher_dev:.1e}, "
        f"sqrt(n) threshold within 5%: {scale_ok}",
    )


def test_criterion_13_figure_jobs_deterministic(tmp_path):
    jobs = [
        ("fig2a", ["two_j=40"]),
        ("fig2b", ["two_j=40"]),
        ("fig2c", ["j_list=4,8,16"]),
        ("fig2d", ["two_j_list=20,40"]),
        ("pdf-comparison", ["two_j=100", "two_m=14"]),
        ("cavity-spectrum", ["points=31"]),
    ]
    identical = True
    for job, params in jobs:
        dirs = (tmp_path / f"{job}-a", tmp_path / f"{job}-b")
        for d in dirs:
            argv = ["--no-timestamp", "--seed", "11", "--out-dir", str(d), "figure", "--job", job]
            for p in params:
                argv += ["--param", p]
            assert cli.main(argv) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        identical = identical and names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            identical = identical and (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    _report(13, "figure jobs byte-identical on rerun", identical,
            f"{len(jobs)} jobs rerun and compared")
