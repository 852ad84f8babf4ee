"""Wigner d-matrix numerics: the probability kernel of the whole protocol.

A column d^j_{.,m}(theta) holds the real amplitudes <j,m'|exp(-i theta J_y)|j,m>
over m' = -j..j (index i maps to two_m' = 2i - two_j).  Two column backends:

* ``a`` (LogSum): the classical finite sum over k with factorials evaluated
  through log-gamma and sign-tracked compensated summation.  Cheap and simple,
  but the alternating sum cancels catastrophically for large j, so it is
  restricted to two_j <= 600 and self-checks its norm.

* ``b`` (Eigenvector, the default): the rotated column is the eigenvector of
  the real symmetric tridiagonal H = cos(theta) J_z + sin(theta) J_x with
  the known eigenvalue m.  One banded LU factorization plus inverse
  iteration recovers it in O(j) to machine precision; the global sign is
  then fixed from the closed-form edge elements d^j_{+-j,m}(theta).

``rotate_state`` applies exp(-i theta J_y) to a general real vector by a
Chebyshev expansion of the exponential (Bessel-function coefficients,
three-term recurrence of tridiagonal matvecs), O(|theta| j^2).

Sign convention: fixed by the generator exp(-i theta J_y) with Condon-Shortley
ladder operators, J_+|j,m> = sqrt(j(j+1)-m(m+1))|j,m+1>.  Tests pin signs
against a dense matrix exponential of that generator, not external tables.

``transition_probabilities`` squares the same eigenvector, so chain rows
never need the sign step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.special import gammaln, jv

from .core import (
    Angle,
    BackendOverflow,
    NormDrift,
    OutOfRange,
    SpinSpec,
    _as_radians,
)

BACKEND_LOGSUM = "a"
BACKEND_EIGENVECTOR = "b"
LOGSUM_MAX_TWO_J = 600

# hard error threshold: norm drift signals a stability bug, not noise to hide
NORM_TOLERANCE = 1e-8

_gttrf, _gttrs = get_lapack_funcs(("gttrf", "gttrs"), (np.empty(0, dtype=np.float64),))


@dataclass(frozen=True)
class RotationColumn:
    """One real column of the rotation matrix exp(-i theta J_y).

    amplitudes[i] = <j, m'|exp(-i theta J_y)|j, m> with two_m' = 2i - two_j.
    """

    spec: SpinSpec
    angle: Angle
    amplitudes: np.ndarray
    backend: str

    @property
    def probabilities(self) -> np.ndarray:
        return self.amplitudes * self.amplitudes

    def index_of(self, two_m_prime: int) -> int:
        if (two_m_prime - self.spec.two_j) % 2 != 0 or abs(two_m_prime) > self.spec.two_j:
            raise OutOfRange(f"invalid two_m_prime={two_m_prime} for two_j={self.spec.two_j}")
        return (two_m_prime + self.spec.two_j) // 2

    def amplitude(self, two_m_prime: int) -> float:
        return float(self.amplitudes[self.index_of(two_m_prime)])


def ladder_strengths(two_j: int) -> np.ndarray:
    """Off-diagonal couplings a_i = sqrt(j(j+1) - m_i (m_i + 1)), i = 0..N-2."""
    j = two_j / 2.0
    m = np.arange(two_j) - j  # m_0 .. m_{N-2}
    return np.sqrt(j * (j + 1.0) - m * (m + 1.0))


def m_values(two_j: int) -> np.ndarray:
    """The m' grid -j..j as floats, matching the amplitude index order."""
    return np.arange(two_j + 1, dtype=np.float64) - two_j / 2.0


def two_m_values(two_j: int) -> np.ndarray:
    """The doubled m' grid as int64, matching the amplitude index order."""
    return 2 * np.arange(two_j + 1, dtype=np.int64) - two_j


# ---------------------------------------------------------------------------
# general-vector rotation: Chebyshev propagation through the tridiagonal generator


def rotate_state(two_j: int, amplitudes: np.ndarray, angle) -> np.ndarray:
    """Apply exp(-i theta J_y) to a real state vector in the J_z basis.

    Chebyshev expansion of exp(theta A) for the real antisymmetric
    tridiagonal A = -i J_y: with B = A/s (s = j+1 keeps the spectrum of B
    strictly inside the unit disc) and z = theta*s,

        exp(theta A) v = sum_k (2 - delta_k0) J_k(z) phi_k,
        phi_0 = v, phi_1 = B v, phi_{k+1} = 2 B phi_k + phi_{k-1},

    where J_k are Bessel functions of the first kind.  All arithmetic is
    real; |T_k| <= 1 on the spectrum makes the recurrence norm-stable.
    """
    theta = _as_radians(angle)
    v = np.asarray(amplitudes, dtype=np.float64)
    if v.shape != (two_j + 1,):
        raise OutOfRange(f"state must have length {two_j + 1}")
    if theta == 0.0 or two_j == 0:
        return v.copy()

    s = two_j / 2.0 + 1.0
    z = theta * s
    sign = 1.0
    if z < 0.0:
        z, sign = -z, -1.0
    c = sign * ladder_strengths(two_j) / (2.0 * s)

    n_terms = int(np.ceil(z + 12.0 * (z + 1.0) ** (1.0 / 3.0) + 30.0))
    coefs = jv(np.arange(n_terms + 1), z)

    def apply_b(x: np.ndarray) -> np.ndarray:
        y = np.empty_like(x)
        y[:-1] = c * x[1:]
        y[-1] = 0.0
        y[1:] -= c * x[:-1]
        return y

    out = coefs[0] * v
    phi_prev = v
    phi = apply_b(v)
    out += 2.0 * coefs[1] * phi
    for k in range(2, n_terms + 1):
        phi_prev, phi = phi, 2.0 * apply_b(phi) + phi_prev
        ck = coefs[k]
        if ck != 0.0 and abs(ck) > 1e-18:
            out += (2.0 * ck) * phi
    return out


# ---------------------------------------------------------------------------
# backend a: log-gamma finite sum

# rerun an element at extended precision when its largest term would leave
# double precision short of ~1e-11 absolute accuracy after cancellation;
# the float path's term error is ~|log term| * eps relative, so the trigger
# tightens as the log-gamma magnitudes grow
def _logsum_mp_threshold(log_scale: float) -> float:
    return min(1e4, 1e-11 / (max(log_scale, 1.0) * 1.1e-16))


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


def _column_logsum(spec: SpinSpec, theta: float) -> np.ndarray:
    two_j, two_m = spec.two_j, spec.two_m
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
    mp_threshold = _logsum_mp_threshold(float(lg[n]))
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
    if norm_dev > NORM_TOLERANCE:
        raise BackendOverflow(
            f"logsum cancellation detected: column norm off by {norm_dev:.3e} "
            f"(two_j={two_j}, two_m={two_m}, theta={theta!r})"
        )
    return out


# ---------------------------------------------------------------------------
# public column / element / distribution API


def d_column(spec: SpinSpec, angle, backend: str = BACKEND_EIGENVECTOR) -> RotationColumn:
    """Compute the rotation column d^j_{.,m}(theta).

    backend "a" = LogSum (two_j <= 600), "b" = the O(j) signed eigenvector
    of cos(theta) J_z + sin(theta) J_x (default; exact at any j).
    The rotation is evaluated at the angle as given; the stored Angle is
    its canonical [-pi, pi] representative (for half-integer j the two can
    differ by a global sign when |theta| > pi, since the rotation group is
    4 pi-periodic there -- probabilities never see it).
    """
    theta = _as_radians(angle)
    if backend == BACKEND_LOGSUM:
        amps = _column_logsum(spec, theta)
    elif backend == BACKEND_EIGENVECTOR:
        amps = _column_eigenvector(spec, theta)
    else:
        raise OutOfRange(f"unknown backend {backend!r}; use 'a' or 'b'")
    amps.setflags(write=False)
    return RotationColumn(spec=spec, angle=Angle(theta), amplitudes=amps, backend=backend)


def d_element(spec_m: SpinSpec, two_m_prime: int, angle, backend: str = BACKEND_EIGENVECTOR) -> float:
    """Single element d^j_{m',m}(theta); equals d_column(...).amplitude(m')."""
    col = d_column(spec_m, angle, backend=backend)
    return col.amplitude(two_m_prime)


def outcome_distribution(spec: SpinSpec, angle, backend: str = BACKEND_EIGENVECTOR) -> np.ndarray:
    """Measurement outcome probabilities |d^j_{m',m}(theta)|^2 over m'.

    The squared column must sum to 1 within 1e-10 (checked, never silently
    renormalized).
    """
    col = d_column(spec, angle, backend=backend)
    probs = col.probabilities
    dev = abs(float(probs.sum()) - 1.0)
    if dev > 1e-10:
        raise NormDrift(f"outcome distribution sums to 1{dev:+.3e}")
    return probs


# ---------------------------------------------------------------------------
# backend b: the rotated column as an eigenvector, by inverse iteration

_START_KEY = 0x5D1C_E000  # fixed Philox key base: deterministic start vectors
_START_CACHE_SIZE = 64  # (n, attempt) start vectors kept; a chain reuses one n
_RESOLVED = 1e-8  # entries above this fraction of the largest have a trustworthy sign


@functools.lru_cache(maxsize=_START_CACHE_SIZE)
def _start_vector(n: int, attempt: int = 0) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=_START_KEY + 7919 * attempt + n))
    v = gen.uniform(-1.0, 1.0, n)
    v /= np.linalg.norm(v)
    v.setflags(write=False)
    return v


def _eigenvector(two_j: int, two_m: int, theta: float) -> np.ndarray:
    """Unit eigenvector of H = cos(theta) J_z + sin(theta) J_x for the
    eigenvalue m, up to sign.

    The eigenvalues of H are the integers/half-integers -j..j with unit
    spacing, so inverse iteration with the exact shift converges in one or
    two solves.  Zero pivots from the exact shift are floored at eps*j, the
    same device LAPACK's stein uses.  Raises NormDrift when no attempt
    passes the residual check.
    """
    n = two_j + 1
    if theta == 0.0 or n == 1:
        v = np.zeros(n)
        v[(two_m + two_j) // 2] = 1.0
        return v
    if n == 2:  # the banded LU needs n >= 3; spin-1/2 has a closed form
        c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
        return np.array([s, c]) if two_m > 0 else np.array([c, -s])
    j = two_j / 2.0
    m_val = two_m / 2.0
    m_grid = np.arange(n) - j
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    off = sin_t * ladder_strengths(two_j) / 2.0
    diag = cos_t * m_grid - m_val

    dlf, df, duf, du2, ipiv, info = _gttrf(off.copy(), diag.copy(), off.copy())
    if info < 0:
        raise OutOfRange(f"gttrf failed with info={info}")
    floor = np.finfo(np.float64).eps * max(1.0, j)
    tiny = np.abs(df) < floor
    if tiny.any():
        df = np.where(tiny, np.where(df < 0.0, -floor, floor), df)

    def residual(x: np.ndarray) -> float:
        r = diag * x
        r[:-1] += off * x[1:]
        r[1:] += off * x[:-1]
        return float(np.max(np.abs(r)))

    tol = 1e-10 * max(1.0, j)
    best = np.inf
    for attempt in range(3):
        v = _start_vector(n, attempt).copy()
        ok = True
        for _ in range(2):
            v, solve_info = _gttrs(dlf, df, duf, du2, ipiv, v)
            if solve_info != 0 or not np.all(np.isfinite(v)):
                ok = False
                break
            v /= np.linalg.norm(v)
        if not ok:
            continue
        res = residual(v)
        if res <= tol:
            return v
        best = min(best, res)
        v2, solve_info = _gttrs(dlf, df, duf, du2, ipiv, v)
        if solve_info == 0 and np.all(np.isfinite(v2)):
            v2 /= np.linalg.norm(v2)
            res = residual(v2)
            if res <= tol:
                return v2
            best = min(best, res)
    raise NormDrift(
        f"inverse iteration found no eigenvector (two_j={two_j}, two_m={two_m}, "
        f"theta={theta!r}): best residual {best:.3e} > {tol:.1e}"
    )


def _column_eigenvector(spec: SpinSpec, theta: float) -> np.ndarray:
    """The signed column: the eigenvector with its sign fixed from the
    closed-form edge elements, never from the computed (noisy) edge entries.

    With c, s = cos, sin(theta/2),
        d_{j,m}  = (-1)^(j-m) sqrt(C(2j, j-m)) c^(j+m) s^(j-m),
        d_{-j,m} =            sqrt(C(2j, j+m)) c^(j-m) s^(j+m).
    The binomials are equal, so the top edge is the larger iff
    m (|c| - |s|) >= 0.  Its sign is carried to the first well-resolved
    entry: across the classically forbidden stretch in between, each
    neighbour ratio has the sign of -sin(theta) (H - m) at the entry
    nearer the edge.
    """
    two_j, two_m = spec.two_j, spec.two_m
    v = _eigenvector(two_j, two_m, theta)
    if theta == 0.0:  # the identity; both edge formulas may vanish there
        return v
    jpm, jmm = (two_j + two_m) // 2, (two_j - two_m) // 2
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    c_neg, s_neg = int(c < 0.0), int(s < 0.0)
    top = two_m * (abs(c) - abs(s)) >= 0.0
    mag = np.abs(v)
    resolved = np.flatnonzero(mag >= _RESOLVED * mag.max())
    shifted = np.cos(theta) * m_values(two_j) - two_m / 2.0
    if top:
        negative = jmm + c_neg * jpm + s_neg * jmm
        k = resolved[-1]
        stretch = shifted[k + 1:]
    else:
        negative = c_neg * jmm + s_neg * jpm
        k = resolved[0]
        stretch = shifted[:k]
    negative += np.count_nonzero(np.sin(theta) * stretch > 0.0)
    if (v[k] < 0.0) != bool(negative % 2):
        v = -v
    return v


def transition_probabilities(spec: SpinSpec, angle) -> np.ndarray:
    """|d^j_{m',m}(theta)|^2 over m' in O(j) time: the squared backend-b
    eigenvector, with no sign step.  Raises NormDrift if inverse iteration
    fails its residual check.
    """
    v = _eigenvector(spec.two_j, spec.two_m, _as_radians(angle))
    return v * v


def row_probabilities(two_j: int, two_m_target: int, angle) -> np.ndarray:
    """|d^j_{m_t,m}(theta)|^2 as a vector over the source m, in O(j) time.

    Uses d(theta)^T = d(-theta): a row of the rotation matrix is a column of
    the inverse rotation.
    """
    theta = _as_radians(angle)
    return transition_probabilities(SpinSpec(two_j, two_m_target), -theta)
