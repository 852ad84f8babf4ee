"""Wigner d-matrix numerics: the probability kernel of the whole protocol.

A column d^j_{.,m}(theta) holds the real amplitudes <j,m'|exp(-i theta J_y)|j,m>
over m' = -j..j (index i maps to two_m' = 2i - two_j).  One kernel computes
every column and row: the rotated column is the eigenvector of the real
symmetric tridiagonal H = cos(theta) J_z + sin(theta) J_x with the known
eigenvalue m.  One banded LU factorization plus inverse iteration recovers
it in O(j) to machine precision; ``d_column`` then fixes the global sign
from the closed-form edge elements d^j_{+-j,m}(theta).  The protocol needs
only the squares |d^j_{m',m}(theta)|^2, which skip the sign step.

Each row is solved only on its window [lo, hi) of the m' grid: the
classically allowed band m cos(theta) +- r_m |sin(theta)| padded past each
turning point by its Airy tail (``_band``).  Almost all of a row's mass
lies in the band, so under the sqrt_j reset an entered row costs
O(sqrt j), not O(j).  The prediction sets only the cost: a row whose
clipped edge entry is not negligible is widened and solved again, up to
the full range, and entries outside the returned window are zero.  A
full-range window is the same code with lo = 0, hi = 2j + 1, and gives the
full-range solve's bits.

Many rows of one j are solved as a stack (``_eigenvectors``): their
windows, of any widths, become the diagonal blocks of one ragged
block-diagonal system, factored by one LAPACK gttrf call and solved by two
gttrs calls.  The couplings between blocks are zero, so the blocks cannot
interact: dgttrf's partial-pivoting test |d| >= |dl| = 0 always holds at a
block boundary (no row interchange crosses it), and the fill it adds there
is 0 * du = 0.  Each block's factors and solves are therefore the ones it
gets alone, bit for bit: a row in a stack equals the same row solved alone
(a single row is a contiguous slice, the stack of one).  A full-range row
that fails its first attempt is redone alone, and raises NormDrift if no
attempt passes the residual check.

``rotate_state`` applies exp(-i theta J_y) to a general real vector by a
Chebyshev expansion of the exponential (Bessel-function coefficients,
three-term recurrence of tridiagonal matvecs), O(|theta| j^2).

Sign convention: fixed by the generator exp(-i theta J_y) with Condon-Shortley
ladder operators, J_+|j,m> = sqrt(j(j+1)-m(m+1))|j,m+1>.  Tests pin signs
against a dense matrix exponential of that generator, not external tables.

``transition_probabilities`` squares the eigenvector, so chain rows never
need the sign step.  ``transition_windows`` yields chain rows still on
their windows (``Windows``); the dense APIs scatter them into zeros.
``row_derivatives`` reads its derivative stencil from the same stacks
before they are squared (``_eigenvector_windows``).

The log-gamma k-sum that was once a second column backend ("a") is now
only a test oracle (tests/oracles.py, ``logsum_column``).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.special import jv

from .core import Angle, NormDrift, OutOfRange, SpinSpec, _as_radians

BACKEND_EIGENVECTOR = "b"

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
# public column / element / distribution API


def d_column(spec: SpinSpec, angle, backend: str = BACKEND_EIGENVECTOR) -> RotationColumn:
    """Compute the rotation column d^j_{.,m}(theta): the O(j) signed
    eigenvector of cos(theta) J_z + sin(theta) J_x, exact at any j.

    backend "b" is the only one; the log-gamma backend "a" was removed
    (it lives on as the test oracle tests/oracles.py logsum_column).
    The rotation is evaluated at the angle as given; the stored Angle is
    its canonical [-pi, pi] representative (for half-integer j the two can
    differ by a global sign when |theta| > pi, since the rotation group is
    4 pi-periodic there -- probabilities never see it).
    """
    if backend != BACKEND_EIGENVECTOR:
        raise OutOfRange(f"unknown backend {backend!r}; use 'b' (the log-gamma backend 'a' was removed)")
    theta = _as_radians(angle)
    amps = _column_eigenvector(spec, theta)
    amps.setflags(write=False)
    return RotationColumn(spec=spec, angle=Angle(theta), amplitudes=amps, backend=backend)


def d_element(spec_m: SpinSpec, two_m_prime: int, angle) -> float:
    """Single element d^j_{m',m}(theta); equals d_column(...).amplitude(m')."""
    return d_column(spec_m, angle).amplitude(two_m_prime)


def outcome_distribution(spec: SpinSpec, angle) -> np.ndarray:
    """Measurement outcome probabilities |d^j_{m',m}(theta)|^2 over m'.

    The squared column must sum to 1 within 1e-10 (checked, never silently
    renormalized).
    """
    probs = d_column(spec, angle).probabilities
    dev = abs(float(probs.sum()) - 1.0)
    if dev > 1e-10:
        raise NormDrift(f"outcome distribution sums to 1{dev:+.3e}")
    return probs


# ---------------------------------------------------------------------------
# the rotated column as an eigenvector, by stacked inverse iteration on each
# row's classically allowed window

_START_KEY = 0x5D1C_E000  # fixed Philox key base: deterministic start vectors
_START_CACHE_SIZE = 64  # (n, attempt) start vectors kept; a chain reuses one n
_RESOLVED = 1e-8  # entries above this fraction of the largest have a trustworthy sign
# window entries per stacked solve.  Each stack's flat float64 and index
# arrays (96 KiB) then stay under glibc's default 128 KiB mmap/trim
# threshold and are reused from the heap: at 2**14 a fig2d sweep at
# two_j = 200 took about 40 000 minor page faults and ran 17% slower.
_STACK_ENTRIES = 3 * 2**12
_EDGE = 1e-10  # a unit row whose clipped window edge exceeds this is widened
# window pad past each turning point: entries there lie below ~1e-12 on every
# row sampled at two_j <= 65536, two orders under _EDGE, so widening is rare
_AIRY_PAD = 13.0  # Airy lengths
_LATTICE_PAD = 6  # entries, for rows whose Airy length is below one entry
_EPS = np.finfo(np.float64).eps


class Windows:
    """K rows over the m grid of length n, each kept on its window: row k's
    grid entries lo[k] .. hi[k] - 1 are values[starts[k]:stops[k]], and its
    entries outside the window are zero.  The kernel returns a clipped
    window only once that edge entry is negligible (below _EDGE on a unit
    row).  values is set when the rows are solved.
    """

    __slots__ = ("n", "lo", "hi", "values", "widths", "starts", "stops", "_columns")

    def __init__(self, n: int, lo: np.ndarray, hi: np.ndarray, values: np.ndarray | None = None):
        self.n, self.lo, self.hi, self.values = n, lo, hi, values
        self.widths = hi - lo
        self.stops = np.cumsum(self.widths) if len(lo) > 1 else self.widths
        self.starts = self.stops - self.widths
        self._columns = None

    @property
    def columns(self) -> np.ndarray:
        """The grid index of every stored entry."""
        if self._columns is None:
            self._columns = np.arange(int(self.widths.sum())) + self.spread(self.lo - self.starts)
        return self._columns

    def spread(self, per_row: np.ndarray) -> np.ndarray:
        """One value per row as one value per stored entry (broadcastable)."""
        return per_row if len(self.lo) == 1 else np.repeat(per_row, self.widths)

    def take(self, rows: np.ndarray) -> Windows:
        """The given rows, in that order."""
        out = Windows(self.n, self.lo[rows], self.hi[rows])
        out.values = self.values[out.columns + np.repeat(self.starts[rows] - self.lo[rows], out.widths)]
        return out

    def flat_index(self, width: int, columns: np.ndarray | None = None) -> np.ndarray:
        """Every stored entry's index in a row-major array of K rows, each
        width long: at its grid column, or at the given per-entry columns."""
        cols = self.columns if columns is None else columns
        return self.spread(np.arange(len(self.lo)) * width) + cols

    def dense(self) -> np.ndarray:
        """The (K, n) rows with zeros outside the windows."""
        out = np.zeros((len(self.lo), self.n))
        out.ravel()[self.flat_index(self.n)] = self.values
        return out


def _merge(n: int, count: int, parts: list[tuple[np.ndarray, Windows]]) -> Windows:
    """One Windows of count rows from parts (rows, windows) that cover them."""
    lo, hi = np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64)
    for rows, part in parts:
        lo[rows], hi[rows] = part.lo, part.hi
    out = Windows(n, lo, hi, np.empty(int((hi - lo).sum())))
    for rows, part in parts:
        if len(rows):
            out.values[part.columns + np.repeat(out.starts[rows] - part.lo, part.widths)] = part.values
    return out


@functools.lru_cache(maxsize=_START_CACHE_SIZE)
def _start_vector(n: int, attempt: int = 0) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=_START_KEY + 7919 * attempt + n))
    v = gen.uniform(-1.0, 1.0, n)
    v /= np.linalg.norm(v)
    v.setflags(write=False)
    return v


@functools.lru_cache(maxsize=_START_CACHE_SIZE)
def _operators(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of J_z and the ladder strengths with a trailing zero
    (one per grid entry), read-only."""
    m_grid = np.arange(two_j + 1) - two_j / 2.0
    ladder = np.append(ladder_strengths(two_j), 0.0)
    m_grid.setflags(write=False)
    ladder.setflags(write=False)
    return m_grid, ladder


def _band(two_j: int, m, cos, sin):
    """The grid edges (low, high), unclipped, of the window predicted for
    the eigenvector of H - m; plain arithmetic and numpy ufuncs, so Python
    floats (the one-row path) and arrays (stacks) give the same bits.

    The classical band is m cos(theta) +- r_m |sin(theta)| with
    r_m^2 = j(j+1) - m^2: there |H_ii - m| < 2 b_i for the coupling
    b_i = |sin(theta)| a_i / 2.  Past a turning point m'_t the entries
    decay like exp(-(2/3) (x/l)^(3/2)) with the Airy length l = (b/F)^(1/3),
    F the slope of |H_ii - m| - 2 b_i there:
        l^3 = |sin(theta)| (j(j+1) - m'_t^2) / (2 r_m),
    about (j/2)^(1/3) |sin(theta)| cos(theta)^(2/3) for m = 0 and about
    sqrt(j) |sin(theta)| for the near-coherent rows m = +-j.  Each side is
    padded by _AIRY_PAD of its Airy lengths plus _LATTICE_PAD entries.  The
    prediction sets only the cost: _solve_windows widens any row whose
    clipped edge is not negligible.
    """
    j = two_j / 2.0
    r0_sq = j * (j + 1.0)
    s = abs(sin)
    r = np.sqrt(r0_sq - m * m)
    centre, half = m * cos, r * s
    scale = s / (2.0 * r + (two_j == 0))  # r = 0 only at j = 0
    low, high = centre - half, centre + half
    low_pad = _AIRY_PAD * np.cbrt(scale * abs(r0_sq - low * low)) + _LATTICE_PAD
    high_pad = _AIRY_PAD * np.cbrt(scale * abs(r0_sq - high * high)) + _LATTICE_PAD
    return low - low_pad + j, high + high_pad + j


def _windows(
    two_j: int, two_ms: np.ndarray, cos: np.ndarray, sin: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The predicted windows [lo, hi) of _band, clipped to the grid."""
    low, high = _band(two_j, two_ms / 2.0, cos, sin)
    lo = np.maximum(np.floor(low), 0.0).astype(np.int64)
    hi = np.minimum(np.floor(high) + 1.0, two_j + 1.0).astype(np.int64)
    return lo, hi


def _factor(two_j: int, two_ms: np.ndarray, cos: np.ndarray, sin: np.ndarray, rows: Windows):
    """LU factors of the K shifted tridiagonals H_k - m_k, each restricted
    to its window, placed as blocks along the diagonal of one system with
    zero couplings between blocks, from one gttrf call.

    Returns (diag, off, lu): the flat diagonal and couplings for the
    residual check, and the gttrs factor arguments.  Zero pivots from the
    exact shift are floored at eps*j, the device LAPACK's stein uses.
    """
    m_grid, ladder = _operators(two_j)
    at = slice(int(rows.lo[0]), int(rows.hi[0])) if len(cos) == 1 else rows.columns
    diag = rows.spread(cos) * m_grid[at]
    diag -= rows.spread(two_ms / 2.0)
    coupling = rows.spread(sin) * ladder[at]
    coupling /= 2.0
    coupling[rows.stops - 1] = 0.0  # a block's last entry couples to the next block: zero
    off = coupling[:-1]
    dlf, df, duf, du2, ipiv, info = _gttrf(off, diag, off)
    if info < 0:
        raise OutOfRange(f"gttrf failed with info={info}")
    floor = _EPS * max(1.0, two_j / 2.0)
    tiny = np.abs(df) < floor
    if np.count_nonzero(tiny):
        df = np.where(tiny, np.where(df < 0.0, -floor, floor), df)
    return diag, off, (dlf, df, duf, du2, ipiv)


def _sum_squares(x: np.ndarray, rows: Windows) -> np.ndarray:
    """Per row, the sum of squares of its entries: on a full-range window
    the bits of the v.dot(v) in np.linalg.norm, as the full-range kernel
    had them (tested); on a clipped window numpy's pairwise sum.  Either
    depends only on the row's own entries, so a row gets the same bits
    alone and in any stack.
    """
    count, n = len(rows.lo), rows.n
    full = rows.widths == n
    clipped = count - np.count_nonzero(full)
    if not clipped:
        return np.vecdot(x.reshape(count, n), x.reshape(count, n))
    sq = np.add.reduceat(x * x, rows.starts)
    if clipped < count:
        at = rows.starts[full, None] + np.arange(n)
        sq[full] = np.vecdot(x[at], x[at])
    return sq


def _solve(lu, v: np.ndarray, bad: np.ndarray, rows: Windows) -> np.ndarray:
    """One stacked solve with the rows' entries of v as right-hand sides,
    each row then normalised.  Non-finite rows are flagged in bad and
    zeroed: at the zero couplings 0 * nan = nan, so they would reach the
    neighbouring blocks on the next solve.
    """
    x, info = _gttrs(*lu, v)
    sq = _sum_squares(x, rows)
    bad |= ~np.isfinite(sq)
    if info != 0:
        bad[:] = True
    if np.count_nonzero(bad):
        x[np.repeat(bad, rows.widths)] = 0.0
        sq[bad] = 1.0
    x /= rows.spread(np.sqrt(sq))
    return x


def _residuals(diag: np.ndarray, off: np.ndarray, v: np.ndarray, rows: Windows) -> np.ndarray:
    """max |(H_k - m_k) v_k| per row, on its window."""
    r = diag * v
    r[:-1] += off * v[1:]
    r[1:] += off * v[:-1]
    return np.maximum.reduceat(np.abs(r), rows.starts)


def _eigenvectors(two_j: int, two_ms, thetas) -> Windows:
    """Unit eigenvectors, up to sign, of H_k = cos(theta_k) J_z +
    sin(theta_k) J_x for the eigenvalues m_k, each on its window: row k of
    the result.  theta = 0, spin 0 and spin 1/2 have closed forms; the
    other rows go to _solve_windows on the windows _windows predicts.
    """
    two_ms = np.asarray(two_ms, dtype=np.int64)
    thetas = np.asarray(thetas, dtype=np.float64)
    n, count = two_j + 1, len(thetas)
    if n <= 2 or np.count_nonzero(thetas) < count:
        basis = (thetas == 0.0) | (n == 1)
        at = (two_ms[basis] + two_j) // 2
        parts = [(np.flatnonzero(basis), Windows(n, at, at + 1, np.ones(len(at))))]
        rest = np.flatnonzero(~basis)
        if n == 2:  # the banded LU needs n >= 3
            c, s = np.cos(0.5 * thetas[rest]), np.sin(0.5 * thetas[rest])
            up = (two_ms[rest] > 0)[:, None]
            values = np.where(up, np.stack([s, c], axis=1), np.stack([c, -s], axis=1))
            full = Windows(n, np.zeros(len(rest), dtype=np.int64), np.full(len(rest), 2), values.ravel())
            parts.append((rest, full))
        elif len(rest):
            parts.append((rest, _eigenvectors(two_j, two_ms[rest], thetas[rest])))
        return _merge(n, count, parts)
    cos, sin = np.cos(thetas), np.sin(thetas)
    if count == 1:  # one contiguous slice; Python floats keep _band cheap
        low, high = _band(two_j, int(two_ms[0]) / 2.0, float(cos[0]), float(sin[0]))
        lo, hi = np.array([max(math.floor(low), 0)]), np.array([min(math.floor(high) + 1, n)])
    else:
        lo, hi = _windows(two_j, two_ms, cos, sin)
    return _solve_windows(two_j, two_ms, thetas, cos, sin, lo, hi)


def _solve_windows(
    two_j: int,
    two_ms: np.ndarray,
    thetas: np.ndarray,
    cos: np.ndarray,
    sin: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> Windows:
    """Inverse iteration for every row on its window [lo, hi).

    The eigenvalues of H are the integers/half-integers -j..j with unit
    spacing, so inverse iteration with the exact shift converges in one or
    two solves.  All K windows go into one gttrf and two gttrs calls as the
    blocks of one block-diagonal system.  The blocks cannot interact: the
    couplings between them are zero, so dgttrf's pivot test |d| >= |dl| = 0
    always holds at a block boundary and its fill there is 0 * du = 0; each
    block's factors and solves are the ones it gets alone, bit for bit.

    A clipped row whose edge entry is not negligible, or that fails its
    first attempt (non-finite, or residual above tolerance), is solved
    again with each such side widened by its width, up to the full range.
    A full-range row that fails is redone alone by _retry.
    """
    n, count = two_j + 1, len(thetas)
    rows = Windows(n, lo, hi)
    diag, off, lu = _factor(two_j, two_ms, cos, sin, rows)
    bad = np.zeros(count, dtype=bool)
    start = _start_vector(n)
    v = start[lo[0]:hi[0]] if count == 1 else start[rows.columns]
    for _ in range(2):
        v = _solve(lu, v, bad, rows)
    tol = 1e-10 * max(1.0, two_j / 2.0)
    failed = bad | ~(_residuals(diag, off, v, rows) <= tol)
    rows.values = v
    if count == 1 and not failed[0]:  # the one-row case, settled in scalars when it is done
        if (lo[0] == 0 or abs(v[0]) <= _EDGE) and (hi[0] == n or abs(v[-1]) <= _EDGE):
            return rows
    wide_lo = (lo > 0) & (failed | (np.abs(v[rows.starts]) > _EDGE))
    wide_hi = (hi < n) & (failed | (np.abs(v[rows.stops - 1]) > _EDGE))
    if np.count_nonzero(failed):
        for k in np.flatnonzero(failed & ~wide_lo & ~wide_hi):  # the full-range rows
            v[rows.starts[k]:rows.stops[k]] = _retry(two_j, int(two_ms[k]), float(thetas[k]), tol)
    widen = wide_lo | wide_hi
    if not np.count_nonzero(widen):
        return rows
    redo, keep = np.flatnonzero(widen), np.flatnonzero(~widen)
    width = rows.widths[redo]
    redone = _solve_windows(
        two_j, two_ms[redo], thetas[redo], cos[redo], sin[redo],
        np.where(wide_lo[redo], np.maximum(lo[redo] - width, 0), lo[redo]),
        np.where(wide_hi[redo], np.minimum(hi[redo] + width, n), hi[redo]),
    )
    return _merge(n, count, [(keep, rows.take(keep)), (redo, redone)])


def _retry(two_j: int, two_m: int, theta: float, tol: float) -> np.ndarray:
    """One full-range row alone, through up to three start vectors: two
    solves each, plus a third when the residual check fails.  Raises
    NormDrift naming the row when no attempt passes.
    """
    n = two_j + 1
    rows = Windows(n, np.zeros(1, dtype=np.int64), np.full(1, n))
    theta_ = np.array([theta])
    diag, off, lu = _factor(two_j, np.array([two_m]), np.cos(theta_), np.sin(theta_), rows)
    best = np.inf
    for attempt in range(3):
        bad = np.zeros(1, dtype=bool)
        v = _start_vector(n, attempt)
        for _ in range(2):
            v = _solve(lu, v, bad, rows)
        if bad[0]:
            continue
        res = _residuals(diag, off, v, rows)[0]
        if res <= tol:
            return v
        best = min(best, res)
        v = _solve(lu, v, bad, rows)
        if not bad[0]:
            res = _residuals(diag, off, v, rows)[0]
            if res <= tol:
                return v
            best = min(best, res)
    raise NormDrift(
        f"inverse iteration found no eigenvector (two_j={two_j}, two_m={two_m}, "
        f"theta={theta!r}): best residual {best:.3e} > {tol:.1e}"
    )


def _eigenvector(two_j: int, two_m: int, theta: float) -> tuple[int, np.ndarray]:
    """The one-row case of _eigenvectors: (lo, the row on its window)."""
    rows = _eigenvectors(two_j, (two_m,), (theta,))
    return int(rows.lo[0]), rows.values


def _column_eigenvector(spec: SpinSpec, theta: float) -> np.ndarray:
    """The signed column: the eigenvector with its sign fixed from the
    closed-form edge elements, never from the computed (noisy) edge entries.

    With c, s = cos, sin(theta/2),
        d_{j,m}  = (-1)^(j-m) sqrt(C(2j, j-m)) c^(j+m) s^(j-m),
        d_{-j,m} =            sqrt(C(2j, j+m)) c^(j-m) s^(j+m).
    The binomials are equal, so the top edge is the larger iff
    m (|c| - |s|) >= 0.  Its sign is carried to the first well-resolved
    entry k: across the classically forbidden stretch in between, each
    neighbour ratio has the sign of -sin(theta) (H - m) at the entry
    nearer the edge.  The stretch is counted from that closed-form
    diagonal over the whole grid, so entries outside the window are never
    read.
    """
    two_j, two_m = spec.two_j, spec.two_m
    lo, v = _eigenvector(two_j, two_m, theta)
    out = np.zeros(two_j + 1)
    if theta != 0.0:  # at theta = 0, the identity, both edge formulas may vanish
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
            stretch = shifted[lo + k + 1:]
        else:
            negative = c_neg * jmm + s_neg * jpm
            k = resolved[0]
            stretch = shifted[:lo + k]
        negative += np.count_nonzero(np.sin(theta) * stretch > 0.0)
        if (v[k] < 0.0) != bool(negative % 2):
            v = -v
    out[lo:lo + len(v)] = v
    return out


def transition_probabilities(spec: SpinSpec, angle) -> np.ndarray:
    """|d^j_{m',m}(theta)|^2 over m' in O(j) time: the squared
    eigenvector on its window, zero outside it, with no sign step.  Raises
    NormDrift if inverse iteration fails its residual check.
    """
    lo, v = _eigenvector(spec.two_j, spec.two_m, _as_radians(angle))
    out = np.zeros(spec.two_j + 1)
    out[lo:lo + len(v)] = v * v
    return out


def _eigenvector_windows(two_j: int, two_ms, thetas) -> Iterator[tuple[slice, Windows]]:
    """_eigenvectors for many (two_m, theta) pairs of one two_j, one stacked
    solve at a time: the unit eigenvectors, up to sign, on their windows.

    Yields (rows, stack): a slice of the inputs and the Windows whose row k
    is the eigenvector for (two_ms[rows][k], thetas[rows][k]), bit for bit
    the one _eigenvector gives alone.  A stack holds about _STACK_ENTRIES
    predicted window entries (at least one row), so memory stays flat
    however many rows are asked for.
    """
    two_ms = np.asarray(two_ms, dtype=np.int64)
    thetas = np.asarray(thetas, dtype=np.float64)
    lo, hi = _windows(two_j, two_ms, np.cos(thetas), np.sin(thetas))
    ends = np.cumsum(hi - lo)
    first = 0
    while first < len(thetas):
        done = ends[first - 1] if first else 0
        last = max(first + 1, int(np.searchsorted(ends, done + _STACK_ENTRIES, side="right")))
        rows = slice(first, last)
        yield rows, _eigenvectors(two_j, two_ms[rows], thetas[rows])
        first = last


def transition_windows(two_j: int, two_ms, angles) -> Iterator[tuple[slice, Windows]]:
    """transition_probabilities for many (two_m, angle) pairs of one two_j,
    kept on their windows: the stacks of _eigenvector_windows, squared.

    Yields (rows, stack): a slice of the inputs and the Windows whose row k,
    scattered into zeros (stack.dense()), is
    transition_probabilities(SpinSpec(two_j, two_ms[rows][k]),
    angles[rows][k]), bit for bit.
    """
    for rows, stack in _eigenvector_windows(two_j, two_ms, angles):
        stack.values *= stack.values
        yield rows, stack


def row_derivatives(
    two_j: int, two_m_target: int, angles, indices
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each k, f = row_probabilities(two_j, two_m_target, angles[k])[indices[k]]
    and its first and second theta-derivatives, as three arrays, from the
    unsquared eigenvector stacks of _eigenvector_windows.

    The row r(theta) = d^j_{m_t,.}(theta) obeys r' = r A with the real
    antisymmetric A = -i J_y = (J_- - J_+)/2, so with a = ladder_strengths
        (rA)_k = (a_{k-1} r_{k-1} - a_k r_{k+1}) / 2,
        f' = 2 r_i (rA)_i,   f'' = 2 [(rA)_i^2 + r_i (rA^2)_i],
    a stencil of the three entries (rA)_{i-1..i+1}, read from r_{i-2..i+2}
    (zero outside the window).  Every term is bilinear in r, so the
    unsigned eigenvector serves.
    """
    SpinSpec(two_j, two_m_target)
    thetas = np.asarray(angles, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64)
    # a_k at k + 2, zero for k < 0 and k >= two_j
    ladder = np.concatenate(([0.0, 0.0], _operators(two_j)[1], [0.0]))
    out = np.empty((3, len(thetas)))
    for rows, stack in _eigenvector_windows(two_j, np.full(len(thetas), two_m_target), -thetas):
        k = indices[rows, None] + np.arange(-2, 3)  # grid columns i-2 .. i+2
        lo = stack.lo[:, None]
        inside = (lo <= k) & (k < stack.hi[:, None])
        r = np.where(inside, stack.values[np.where(inside, stack.starts[:, None] + k - lo, 0)], 0.0)
        a = ladder[k[:, :4] + 2]  # a_{i-2} .. a_{i+1}
        ra = 0.5 * (a[:, :3] * r[:, :3] - a[:, 1:] * r[:, 2:])  # (rA)_{i-1}, (rA)_i, (rA)_{i+1}
        r_i, ra_i = r[:, 2], ra[:, 1]
        ra2_i = 0.5 * (a[:, 1] * ra[:, 0] - a[:, 2] * ra[:, 2])
        out[:, rows] = r_i * r_i, 2.0 * r_i * ra_i, 2.0 * (ra_i * ra_i + r_i * ra2_i)
    return out[0], out[1], out[2]


def row_probabilities(two_j: int, two_m_target: int, angle) -> np.ndarray:
    """|d^j_{m_t,m}(theta)|^2 as a vector over the source m, in O(j) time.

    Uses d(theta)^T = d(-theta): a row of the rotation matrix is a column of
    the inverse rotation.
    """
    theta = _as_radians(angle)
    return transition_probabilities(SpinSpec(two_j, two_m_target), -theta)


def row_stacks(two_j: int, two_m_target: int, angles) -> Iterator[tuple[slice, np.ndarray]]:
    """row_probabilities for many angles at one target, as the stacks of
    transition_windows scattered into dense (K, n) arrays of zeros: row k of
    a stack is row_probabilities(two_j, two_m_target, angles[rows][k]), bit
    for bit.  Both are solved on the same window, so this holds within a
    stack versus one row; versus a full-range solve it holds only where the
    window is the full range (elsewhere entries agree to about 1e-16).
    """
    SpinSpec(two_j, two_m_target)  # validates now, not at the first stack
    thetas = np.asarray(angles, dtype=np.float64)
    stacks = transition_windows(two_j, np.full(len(thetas), two_m_target), -thetas)
    return ((rows, stack.dense()) for rows, stack in stacks)
