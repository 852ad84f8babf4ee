"""Independent brute-force oracles the test suite checks the package against.

Everything here is deliberately naive: dense complex matrix exponentials of
the angular-momentum generator, power-series special functions, direct
summation.  The production code must match these, never the other way
around.
"""

import math

import numpy as np
from scipy.linalg import expm, get_lapack_funcs
from scipy.special import gammaln

from dickeprep.core import BackendOverflow, OutOfRange, SpinSpec

LOGSUM_MAX_TWO_J = 600


def jy_dense(two_j: int) -> np.ndarray:
    """Dense J_y in the J_z basis with Condon-Shortley ladder phases."""
    n = two_j + 1
    j = two_j / 2.0
    m = np.arange(n) - j
    a = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    jy = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        jy[i + 1, i] = a[i] / 2j
        jy[i, i + 1] = -a[i] / 2j
    return jy


def jx_dense(two_j: int) -> np.ndarray:
    n = two_j + 1
    j = two_j / 2.0
    m = np.arange(n) - j
    a = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    jx = np.zeros((n, n))
    for i in range(n - 1):
        jx[i + 1, i] = a[i] / 2.0
        jx[i, i + 1] = a[i] / 2.0
    return jx


def jz_dense(two_j: int) -> np.ndarray:
    return np.diag(np.arange(two_j + 1) - two_j / 2.0)


def rotation_oracle(two_j: int, theta: float) -> np.ndarray:
    """exp(-i theta J_y) by dense matrix exponential; real up to rounding."""
    u = expm(-1j * theta * jy_dense(two_j))
    assert np.max(np.abs(u.imag)) < 1e-10
    return u.real


def _logsum_element_mp(
    factorials: list[int],
    jm: int,
    jpm: int,
    jp: int,
    jmm: int,
    dm: int,
    theta: float,
    digits: int,
) -> float:
    """One k-sum element in mpmath: exact integer factorials, incremental
    term updates term_{k+1} = -term_k tan^2(t/2) (jm-k)(jpm-k)/((k+1)(k+1-dm)).
    """
    import mpmath as mp

    k_lo = max(0, dm)
    k_hi = min(jm, jpm)
    with mp.workdps(digits):
        half = mp.mpf(theta) / 2
        c, s = mp.cos(half), mp.sin(half)
        if c == 0 or s == 0:
            # single surviving power; the float path is already exact here
            raise ArithmeticError("degenerate trig point")
        prefactor = mp.sqrt(
            mp.mpf(factorials[jm]) * mp.mpf(factorials[jmm])
            * mp.mpf(factorials[jp]) * mp.mpf(factorials[jpm])
        )
        den0 = (
            factorials[jm - k_lo] * factorials[k_lo]
            * factorials[jpm - k_lo] * factorials[k_lo - dm]
        )
        # powers: cos^(2j - 2k + m - m') = cos^(jm + jpm - 2k), sin^(2k - (m - m'))
        term = c ** (jm + jpm - 2 * k_lo) * s ** (2 * k_lo - dm)
        term = term / mp.mpf(den0)
        if k_lo % 2:
            term = -term
        ratio = (s / c) ** 2
        total = term
        for k in range(k_lo, k_hi):
            term = -term * ratio * ((jm - k) * (jpm - k))
            term = term / ((k + 1) * (k + 1 - dm))
            total += term
        sign = -1.0 if dm % 2 else 1.0  # k-sum signs carry (-1)^(k - dm)
        return float(sign * prefactor * total)


def logsum_column(two_j: int, two_m: int, theta: float) -> np.ndarray:
    """The column d^j_{.,m}(theta) from the classical finite sum over k,
    with factorials through log-gamma and compensated summation.

    The alternating sum cancels catastrophically for large j, so it is
    capped at two_j <= 600 (OutOfRange beyond).  An element whose largest
    term would leave double precision short of ~1e-11 absolute accuracy
    after cancellation is rerun in mpmath with exact integer factorials;
    the float path's term error is ~|log term| * eps relative, so that
    trigger tightens as the log-gamma magnitudes grow.  A column whose norm
    is off by more than 1e-8 raises BackendOverflow.
    """
    SpinSpec(two_j, two_m)
    if two_j > LOGSUM_MAX_TWO_J:
        raise OutOfRange(
            f"logsum backend limited to two_j <= {LOGSUM_MAX_TWO_J} (cancellation risk); "
            f"got {two_j}"
        )
    n = two_j + 1
    half = 0.5 * theta
    cos_h, sin_h = np.cos(half), np.sin(half)
    log_cos = np.log(abs(cos_h)) if cos_h != 0.0 else -np.inf
    log_sin = np.log(abs(sin_h)) if sin_h != 0.0 else -np.inf

    jm = (two_j + two_m) // 2   # j + m
    jmm = (two_j - two_m) // 2  # j - m
    lg = gammaln(np.arange(n + 1, dtype=np.float64) + 1.0)  # lgamma(k+1), k=0..n
    base = 0.5 * (lg[jm] + lg[jmm])
    mp_threshold = min(1e4, 1e-11 / (max(float(lg[n]), 1.0) * 1.1e-16))
    factorials: list[int] | None = None

    out = np.empty(n)
    for i in range(n):
        two_mp = 2 * i - two_j
        jp = (two_j + two_mp) // 2   # j + m'
        jpm = (two_j - two_mp) // 2  # j - m'
        dm = (two_m - two_mp) // 2   # m - m'
        k_lo = max(0, dm)
        k_hi = min(jm, jpm)
        if k_hi < k_lo:
            out[i] = 0.0
            continue
        k = np.arange(k_lo, k_hi + 1)
        p_cos = two_j - 2 * k + dm   # powers of cos(theta/2)
        p_sin = 2 * k - dm           # powers of sin(theta/2)
        log_mag = (
            base
            + 0.5 * (lg[jp] + lg[jpm])
            - (lg[jm - k] + lg[k] + lg[jpm - k] + lg[k - dm])
        )
        signs = np.where((k - dm) % 2 == 0, 1.0, -1.0)
        with np.errstate(invalid="ignore"):
            log_mag = log_mag + np.where(p_cos == 0, 0.0, p_cos * log_cos)
            log_mag = log_mag + np.where(p_sin == 0, 0.0, p_sin * log_sin)
        if cos_h < 0.0:
            signs = signs * np.where(p_cos % 2 == 0, 1.0, -1.0)
        if sin_h < 0.0:
            signs = signs * np.where(p_sin % 2 == 0, 1.0, -1.0)
        finite = np.isfinite(log_mag)
        terms = np.where(finite, signs * np.exp(np.where(finite, log_mag, 0.0)), 0.0)
        # compensated (Kahan) summation: the terms alternate and cancel
        total = 0.0
        comp = 0.0
        for t in terms:
            y = t - comp
            acc = total + y
            comp = (acc - total) - y
            total = acc
        max_term = float(np.max(np.abs(terms))) if len(terms) else 0.0
        if max_term > mp_threshold and cos_h != 0.0 and sin_h != 0.0:
            if factorials is None:
                factorials = [1] * (n + 1)
                for f_idx in range(2, n + 1):
                    factorials[f_idx] = factorials[f_idx - 1] * f_idx
            digits = 30 + int(np.ceil(np.log10(max_term)))
            total = _logsum_element_mp(factorials, jm, jpm, jp, jmm, dm, theta, digits)
        out[i] = total

    norm_dev = abs(float(out @ out) - 1.0)
    if norm_dev > 1e-8:
        raise BackendOverflow(
            f"logsum cancellation detected: column norm off by {norm_dev:.3e} "
            f"(two_j={two_j}, two_m={two_m}, theta={theta!r})"
        )
    return out


def bessel_series(order: int, x: float, terms: int = 80) -> float:
    """Power series for J_n(x), adequate for small n and moderate x."""
    import math

    sign = 1.0
    if order < 0:
        order = -order
        if order % 2:
            sign = -sign
    total = 0.0
    for s in range(terms):
        log_mag = (2 * s + order) * np.log(x / 2.0) if x > 0 else (-np.inf if (2 * s + order) else 0.0)
        log_mag -= math.lgamma(s + 1) + math.lgamma(s + order + 1)
        total += (-1.0) ** s * np.exp(log_mag)
    return sign * total


def greedy_stacks(widths, entries: int) -> list[int]:
    """Rows per stack when consecutive rows are stacked while their window
    widths fit in entries, with at least one row per stack."""
    sizes, total, count = [], 0, 0
    for w in widths:
        if count and total + w > entries:
            sizes.append(count)
            total, count = 0, 0
        total, count = total + w, count + 1
    return sizes + [count]


def full_range_row(two_j: int, two_m: int, theta: float) -> np.ndarray:
    """|d^j_{m',m}(theta)|^2 over the whole m' grid by plain inverse
    iteration on the full tridiagonal cos(theta) J_z + sin(theta) J_x - m:
    LAPACK gttrf with the exact shift (zero pivots floored at eps j), three
    gttrs solves from a fixed random start, residual checked.

    The eigenvector itself is only as accurate as eps ||H|| / gap (about
    1e-13 at j = 4096, whichever solver), so windowed rows are gated
    against this same full-range arithmetic, not against another solver.
    """
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (np.empty(0),))
    n = two_j + 1
    j = two_j / 2.0
    m = np.arange(n) - j
    off = np.sin(theta) * np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0)) / 2.0
    diag = np.cos(theta) * m - two_m / 2.0
    if n <= 2:  # LAPACK's gttrf wants n >= 3: a dense eigensolver here
        values, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        return vectors[:, np.argmin(np.abs(values))] ** 2
    dl, d, du, du2, ipiv, info = gttrf(off, diag, off)
    assert info >= 0
    floor = np.finfo(np.float64).eps * max(1.0, j)
    d = np.where(np.abs(d) < floor, np.where(d < 0.0, -floor, floor), d)
    v = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    for _ in range(3):
        v, info = gttrs(dl, d, du, du2, ipiv, v)
        v /= np.linalg.norm(v)
    r = diag * v
    r[:-1] += off * v[1:]
    r[1:] += off * v[:-1]
    assert np.max(np.abs(r)) <= 1e-10 * max(1.0, j)
    return v * v


def absorption_time_law(matrix: np.ndarray, absorbing: int, start: int, k_max: int) -> np.ndarray:
    """Pr[T = k] for k = 0..k_max, T the number of steps from start until
    the chain first enters the absorbing state: Pr[T = k] = e_start Q^(k-1) r
    with Q the transient block of the dense row-stochastic matrix and r its
    column into the absorbing state (Kemeny & Snell, Finite Markov Chains,
    1960), by repeated vector-matrix products.  The mass beyond k_max is
    1 - sum of the returned entries.
    """
    law = np.zeros(k_max + 1)
    if start == absorbing:
        law[0] = 1.0
        return law
    keep = np.arange(len(matrix)) != absorbing
    q = matrix[np.ix_(keep, keep)]
    r = matrix[keep, absorbing]
    v = (np.arange(len(matrix)) == start)[keep].astype(float)
    for k in range(1, k_max + 1):
        law[k] = v @ r
        v = v @ q
    return law


def dense_draw(row: np.ndarray, u: float) -> int:
    """The outcome index of the uniform u by inverse CDF on a dense row over
    the whole m grid: the first index whose long-double cumulative,
    normalized to end at exactly 1, reaches u.  u == 0.0 gives index 0."""
    cum = np.cumsum(np.asarray(row, dtype=np.longdouble))
    cum /= cum[-1]
    return int(np.searchsorted(cum.astype(np.float64), u, side="left"))


def scalar_row_derivatives(two_j: int, two_mt: int, theta: float, i: int) -> tuple[float, float, float]:
    """f = |d^j_{m_t,m}(theta)|^2 (m at index i) and its first and second
    theta-derivatives from one row solved alone (the package's one-row
    eigenvector), in scalar arithmetic: with a = ladder strengths,
        (rA)_k = (a_{k-1} r_{k-1} - a_k r_{k+1}) / 2,
        f' = 2 r_i (rA)_i,   f'' = 2 [(rA)_i^2 + r_i (rA^2)_i].
    """
    from dickeprep import wigner

    lo, u = wigner._eigenvector(two_j, two_mt, -theta)
    hi = lo + len(u)
    j = two_j / 2.0

    def a(k: int) -> float:
        m = k - j
        return math.sqrt(j * (j + 1.0) - m * (m + 1.0)) if 0 <= k < two_j else 0.0

    def r(k: int) -> float:
        return float(u[k - lo]) if lo <= k < hi else 0.0  # zero outside the window

    def r_a(k: int) -> float:
        return 0.5 * (a(k - 1) * r(k - 1) - a(k) * r(k + 1))

    r_i, ra_i = r(i), r_a(i)
    ra2_i = 0.5 * (a(i - 1) * r_a(i - 1) - a(i) * r_a(i + 1))
    return r_i * r_i, 2.0 * r_i * ra_i, 2.0 * (ra_i * ra_i + r_i * ra2_i)


def scalar_newton(two_j: int, two_mt: int, i: int, lo: float, hi: float, start: float, tol: float = 1e-10):
    """One state's safeguarded Newton maximization of f in [lo, hi], one
    row per step: shrink the bracket to the side f' points to, step by
    -f'/f'' when f'' < 0 and the step lands strictly inside, else bisect;
    stop once |f'/f''| < tol or the bracket is narrower than tol.  Returns
    the last evaluated (theta, f).
    """
    theta = start
    while True:
        f, df, d2f = scalar_row_derivatives(two_j, two_mt, theta, i)
        if d2f < 0.0 and abs(df) < tol * -d2f:
            break
        if df > 0.0:
            lo = theta
        else:
            hi = theta
        if hi - lo < tol:
            break
        newton = d2f < 0.0 and lo < theta - df / d2f < hi
        theta = theta - df / d2f if newton else 0.5 * (lo + hi)
    return theta, f


def _scalar_above_target(two_j: int, two_mt: int) -> tuple[np.ndarray, np.ndarray]:
    from dickeprep import angles, wigner

    n = two_j + 1
    out_angles, out_overlaps = np.zeros(n), np.ones(n)
    grid, best_idx = angles._grid_scan(two_j, two_mt)
    lo, start, hi = angles._cells(grid, best_idx)
    for i in range((two_mt + two_j) // 2 + 1, n):
        theta, f = scalar_newton(two_j, two_mt, i, float(lo[i]), float(hi[i]), float(start[i]))
        theta_geo = angles.geometric_angle(two_j, two_mt, 2 * i - two_j).radians
        overlap_geo = float(wigner.row_probabilities(two_j, two_mt, theta_geo)[i])
        out_angles[i], out_overlaps[i] = (theta_geo, overlap_geo) if f < overlap_geo else (theta, f)
    return out_angles, out_overlaps


def scalar_optimal_table(two_j: int, two_mt: int) -> tuple[np.ndarray, np.ndarray]:
    """optimal_angles_for_target with every state above the target refined
    on its own by scalar_newton, then compared with its geometric angle
    one row at a time; the states below the target come through the mirror
    (m_t, m) -> (-m_t, -m).
    """
    n = two_j + 1
    out_angles, out_overlaps = _scalar_above_target(two_j, two_mt)
    below_angles, below_overlaps = _scalar_above_target(two_j, -two_mt) if two_mt else (out_angles, out_overlaps)
    for i in range((two_mt + two_j) // 2):
        out_angles[i], out_overlaps[i] = -below_angles[n - 1 - i], below_overlaps[n - 1 - i]
    return out_angles, out_overlaps
