"""Blackbody-radiation shifts, widths, and the Farley-Wing function.

The level shift of state i in an isotropic thermal field is

    dE_i = -(1/4) * integral E^2(w, T) alpha_i(w) dw
         = -(2/(pi c^3)) (kT)^3 * sum_ch z_ch^2 F(w_ch / kT),

with E^2(w,T) = (8/(pi c^3)) w^3/(exp(w/kT)-1) the squared-amplitude
spectral density, z_ch^2 the scalar dipole strength of one channel
(S_ch / (3(2J_i+1))), and F the Farley-Wing profile function

    F(y) = -2y * PV integral_0^inf x^3 / ((x^2-y^2)(e^x-1)) dx  (odd in y).

Two independent implementations of F are provided: ``farley_wing`` (the
reference: symmetric pole excision + analytic local term + Richardson
extrapolation in the excision radius, and above |y| = 40 the asymptotic
series) and ``farley_wing_fast`` (a committed piecewise Chebyshev table of
F(y)/y in ln|y|, 560 pieces of degree 7 over 1e-5 <= |y| <= 1e5, fitted
to the reference by ``tools/make_kernel_table.py``; it takes a whole array
of y and also returns F', and is used inside channel sums).  Against a
30-digit quadrature the table is within 2.3e-12 in F and 4e-10 max(1, |F'|)
in F'.  In memory the coefficients of F/y and of its derivative stand side
by side in one array, so one gather and one in-place Clenshaw pass give
both, bit for bit what two separate passes give.  The table's top at 1e5
is the fast route's seam with the series, above every channel of a
Rydberg shift at room temperature.  A third route,
``bbr_shift_integral``, never touches F in its channels: it evaluates the
defining frequency integral with the polarizability pole of each channel
handled as a Cauchy principal value, and must agree with the F-based
``bbr_shift_sum`` on the same channel set.

Channel sums over a finite span miss bound+continuum oscillator strength;
the remainder w = 1 - sum 2 w_ch z_ch^2 (Thomas-Reiche-Kuhn for the active
electron) is restored as a continuum completion: the missing strength is
spread above the ionization threshold with the Kramers photoionization
profile df/dw ~ w^(-7/2) and folded through the same F kernel,
dE_tail = -(kT)^2 w <F(y)/y>_profile / (pi c^3).  For y_th = E_bind/kT -> 0
the tail tends to exactly w times the free-electron shift, and for
y_th >> 1 to the static limit of the profile's polarizability, so it is
safe for both Rydberg and low-lying states.  Placing the strength at the
threshold itself (or equivalently at y -> 0, the free-electron placement)
systematically overweights it: the profile completion is what keeps every
n >= 30 series shift within 5% of the free-electron value at room
temperature.  A result is flagged converged when |tail| is at most
``tail_fraction`` of max(|shift|, 1 mHz).

Both routes read the channels of ``channel_table``.  The tail's
quadrature nodes are channels too (node u at w = E_bind/u), summed by the
same rule.  ``bbr_shift_fsums`` is the one engine: it makes one kernel
call for all channels of one model evaluation, joining the table and tail
channels of every state it is given into one array and splitting the
result into each state's exactly rounded sums (the kernel works element
by element, so a state's shift does not depend on the others).  The
thermometry models read those sums directly; ``bbr_shift_sum`` and
``bbr_shift_integral`` each make one call for their one state and build
a result from it.  The joined columns do not depend on T: they are
built once per solver, states and span, so a warm evaluation is one
division by kT, one kernel call and the sums.  From the same F and F'
it returns the temperature derivative: d/dT [(kT)^3 F(w/kT)] =
k^3 T^2 (3F - yF') per channel, and 4 shift/T for the static core term.
``bbr_shift_integral`` is the sum route's result with only the table's
channel terms (and the same core term) re-summed from their PV integrals;
its tail is the sum route's, bit for bit.  For a clock state (the
species' ground/metastable role) the table is the literature-anchored line
list from the species file plus a static core/background term, folded in
through its static-limit shift; the list is complete by construction, so
the truncation tail is zero.  Every other state uses its radial table and
the tail completion above.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from . import constants as kconst
from ._brent import brentq
from .radial import RadialSolver, default_solver
from .species import RydbergState
from .transitions import (
    DEFAULT_SPAN,
    build_transition_table,
    channel_table,
    check_span,
    dipole_rate_s,
    downward_channels,
)

DEFAULT_TAIL_FRACTION = 0.25
TEMPERATURE_RANGE_K = (0.0, 1000.0)

_PI = math.pi
_C3 = kconst.C_AU**3


class QuadratureError(RuntimeError):
    """An adaptive quadrature failed to reach its accuracy target."""


def _check_temperature(temperature_k: float) -> None:
    lo, hi = TEMPERATURE_RANGE_K
    if not lo <= temperature_k <= hi:
        raise ValueError(
            f"temperature {temperature_k!r} K outside supported range "
            f"[{lo:g}, {hi:g}] K"
        )


# ---------------------------------------------------------------------------
# Farley-Wing profile function


# zeta(4), zeta(6), ..., zeta(36): scipy.special.zeta's values, bit for bit
_ZETA_EVEN = (
    1.0823232337111381, 1.0173430619844492, 1.0040773561979444,
    1.000994575127818, 1.000246086553308, 1.0000612481350588,
    1.0000152822594086, 1.000003817293265, 1.0000009539620338,
    1.0000002384505027, 1.000000059608189, 1.0000000149015549,
    1.000000003725334, 1.0000000009313275, 1.000000000232831,
    1.0000000000582077, 1.000000000014552,
)
# F(a) = 2 sum_m Gamma(2m+4) zeta(2m+4) / a^(2m+1) for large a, highest
# order first
_ASYMPTOTIC_COEF = tuple(
    2.0 * math.gamma(2 * m + 4) * _ZETA_EVEN[m] for m in reversed(range(17))
)


def _fw_asymptotic(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(a) and F'(a) from 17 terms of the large-a series, element-wise.

    The series diverges, but for a > 34.5 its first 17 terms all decrease,
    so it is summed whole (Horner in 1/a^2).  The reference uses it above
    a = 40, where its error is below 4e-13 (at a = 31 it would be 8.5e-10),
    and the kernel table's top pieces are fitted to it; the fast route sums
    it only above the table's top at a = 1e5.
    """
    inv = 1.0 / a
    inv2 = inv * inv  # underflows to 0 for a > ~1e154: later terms vanish
    f = np.zeros_like(a)
    df = np.zeros_like(a)
    for m, coef in zip(reversed(range(17)), _ASYMPTOTIC_COEF):
        f = f * inv2 + coef
        df = df * inv2 + (2 * m + 1) * coef
    return f * inv, -df * inv2


def _h_smooth(x: np.ndarray | float, a: float):
    # h(x) = x^3 / ((x+a)(e^x-1)); smooth at x = a
    return x**3 / ((x + a) * np.expm1(x))


_EXCISION_CHAIN = (1e-2, 1e-3, 1e-4)  # farley_wing's excision radii / |y|
_QUAD_REL_TOL = 1e-11  # relative tolerance of its adaptive quadratures


def farley_wing(y: float) -> float:
    """Reference evaluation of the Farley-Wing function F(y).

    Symmetric excision of the pole at x = |y| with the analytic local term
    2*delta*h'(|y|), outer pieces by adaptive quadrature, and exact
    elimination of the remaining O(delta^3) + O(delta^5) excision error from
    the three-point chain (Richardson-style solve).

    Shape: odd; F < 0 for small y > 0 with a single minimum of about -2.1
    near y ~ 1.1; one sign change just below the Planck peak (y ~ 2.6);
    decays as (2 pi^4/15)/y afterwards.
    """
    if y == 0.0:
        return 0.0
    sign = 1.0 if y > 0 else -1.0
    a = abs(y)
    if a < 1e-3:
        # Binet's second formula gives F(y) = -pi^2 y/3 - y^3 [ln(y/2pi)
        # - Re psi(iy/2pi)]; the two leading terms are kept, and the next,
        # zeta(3) y^5 / (4 pi^2), is below 1e-14 relative here
        return -(_PI**2) * y / 3.0 - y**3 * (math.log(a / (2.0 * _PI)) + np.euler_gamma)
    if a > 40.0:
        return sign * float(_fw_asymptotic(np.array(a))[0])
    from scipy import integrate  # reference route only: kept out of import

    def g(x: float) -> float:
        return x**3 / ((x * x - a * a) * math.expm1(x))

    # h'(a) by 5-point central difference; h is smooth at x = a
    s = 1e-3 * a
    hm2, hm1, hp1, hp2 = (_h_smooth(a + ds, a) for ds in (-2 * s, -s, s, 2 * s))
    hprime = (hm2 - 8 * hm1 + 8 * hp1 - hp2) / (12 * s)

    x_up = a + 60.0
    deltas = [c * a for c in _EXCISION_CHAIN]
    vals = []
    err_bound = 0.0
    for d in deltas:
        lo = integrate.quad(
            g, 0.0, a - d, epsabs=0.0, epsrel=_QUAD_REL_TOL, limit=400,
            full_output=1,
        )
        hi = integrate.quad(
            g, a + d, x_up, epsabs=0.0, epsrel=_QUAD_REL_TOL, limit=400,
            full_output=1,
        )
        vals.append(lo[0] + hi[0] + 2.0 * d * hprime)
        err_bound = max(err_bound, lo[1] + hi[1])
    # I(d) = I0 + c3 d^3 + c5 d^5  -> solve exactly for I0
    mat = np.array([[1.0, d**3, d**5] for d in deltas])
    i0 = float(np.linalg.solve(mat, np.array(vals))[0])
    # absolute floor reflects F's O(1) scale: 1e-10 here is < 1e-9 in F,
    # well under any tolerance in use; a pure relative test would fail
    # spuriously at the zero crossing near y = 2.6 where i0 -> 0
    if err_bound > max(1e-8 * abs(i0), 1e-10):
        raise QuadratureError(
            f"farley_wing quadrature failed to converge at y = {y:g} "
            f"(error bound {err_bound:.2e} vs value {i0:.2e})"
        )
    return sign * (-2.0 * a) * i0


_KERNEL_TABLE = "farley_wing_table.dat"


@functools.cache
def _kernel_table() -> tuple[float, float, float, float, np.ndarray]:
    """The committed Chebyshev table of G(s) = F(e^s)/e^s, s = ln|y|.

    Returns (y_min, y_max, s_min, piece width, coefficients).  The
    coefficients are one (degree + 1, 2 x pieces) array: column p holds G
    on piece p, column pieces + p holds dG/ds on piece p, whose degree is
    one lower, under a zero row for the missing top order.  A Clenshaw
    step on that zero row leaves its recurrence at +0.0, where it starts,
    so dG/ds is bit for bit what a sum over its own degree gives.  The
    file is written by ``tools/make_kernel_table.py`` from ``farley_wing``.
    """
    ref = importlib.resources.files("rydtherm.data").joinpath(_KERNEL_TABLE)
    meta, rows = {}, []
    for line in ref.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" in line:
            key, value = line.split("=")
            meta[key.strip()] = float(value)
        elif line:
            rows.append([float(x) for x in line.split()])
    coef = np.array(rows)
    pieces, degree = int(meta["pieces"]), int(meta["degree"])
    if coef.shape != (pieces, degree + 1):
        raise RuntimeError(
            f"{_KERNEL_TABLE}: expected {pieces} rows of {degree + 1} "
            f"coefficients, got shape {coef.shape}"
        )
    s_min, s_max = meta["s_min"], meta["s_max"]
    width = (s_max - s_min) / pieces
    dcoef = np.polynomial.chebyshev.chebder(coef, axis=1) * (2.0 / width)
    stacked = np.zeros((degree + 1, 2 * pieces))
    stacked[:, :pieces] = coef.T
    stacked[:degree, pieces:] = dcoef.T
    stacked.flags.writeable = False
    return math.exp(s_min), math.exp(s_max), s_min, width, stacked


def _clenshaw(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_j coef[j] T_j(t), element-wise over the trailing axes of coef
    (t broadcast against them).

    On the kernel's (2, N) block, row 0 is G and row 1 dG/ds: one pass
    sums both.  Each step is c + t2 b1 - b2, in that order, written into
    three buffers that rotate in place, so every element goes through the
    IEEE operations of a pass over its own column alone, and a value does
    not depend on the array around it.  2t is written out to the full
    shape once, which the steps then read without broadcasting.
    """
    shape = coef.shape[1:]
    t2 = np.multiply(2.0, t, out=np.empty(shape))
    b1 = np.zeros(shape)
    b2 = np.zeros(shape)
    tmp = np.empty(shape)
    for c in coef[:0:-1]:
        np.multiply(t2, b1, out=tmp)
        np.add(c, tmp, out=tmp)
        np.subtract(tmp, b2, out=tmp)
        b1, b2, tmp = tmp, b1, b2
    np.multiply(t, b1, out=tmp)
    np.add(coef[0], tmp, out=tmp)
    return np.subtract(tmp, b2, out=tmp)


def _fw_table(a: np.ndarray, table: tuple) -> tuple[np.ndarray, np.ndarray]:
    # F and F' = G + dG/ds from the table at |y| = a, element-wise, for a
    # within the table (no NaN).  np.minimum/np.maximum and take give
    # what np.clip and fancy indexing give, in a third of the time.  One
    # gather takes both halves of the table, and one Clenshaw pass sums G
    # (row 0) and dG/ds (row 1)
    _, _, s_min, width, coef = table
    pieces = coef.shape[1] // 2
    u = (np.log(a) - s_min) / width
    piece = np.minimum(np.maximum(u.astype(np.intp), 0), pieces - 1)
    t = 2.0 * (u - piece) - 1.0
    g, dg = _clenshaw(coef.take(np.add.outer((0, pieces), piece), axis=1), t)
    return a * g, g + dg


def farley_wing_fast(y, derivative: bool = False):
    """Table evaluation of F(y), and of F'(y) with ``derivative=True``.

    Takes a float or an array of y and returns the same kind (a pair
    (F, F') with ``derivative``).  For 1e-5 <= |y| <= 1e5 it sums the
    committed piecewise Chebyshev table of F(y)/y in ln|y| (560 pieces of
    degree 7, fitted to ``farley_wing``, whose asymptotic series it follows
    above 40; within 2.3e-12 of a 30-digit quadrature in F, and F' is the
    derivative of the same polynomials, within 4e-10 max(1, |F'|));
    below, -pi^2 y / 3 (error ~1e-14 at 1e-5); above, the asymptotic
    series, which a Rydberg shift reaches only as T -> 0.  F is odd and F'
    even.
    """
    arr = np.asarray(y, dtype=float)
    a = np.abs(arr)
    table = _kernel_table()
    y_min, y_max = table[:2]
    # every element inside the table is the usual case; otherwise the table
    # reads |y| clamped into it (a NaN as y_min) and the elements outside
    # are overwritten
    inside = a.size and y_min <= a.min() and a.max() <= y_max
    f, df = _fw_table(a if inside else np.fmin(np.fmax(a, y_min), y_max), table)
    if not inside:
        f, df = np.array(f), np.array(df)  # a 0-d result is a numpy scalar
        small, big, nan = a < y_min, a > y_max, np.isnan(a)
        f[small] = -(_PI**2 / 3.0) * a[small]
        df[small] = -(_PI**2 / 3.0)
        f[big], df[big] = _fw_asymptotic(a[big])
        f[nan] = df[nan] = np.nan
    # odd extension; "+ 0.0" turns the -0.0 of y = 0 into 0.0
    f = np.where(arr < 0.0, -f, f) + 0.0
    if arr.ndim == 0:
        f, df = float(f), float(df)
    return (f, df) if derivative else f


def farley_wing_zero() -> float:
    """Positive zero crossing of F (between the minimum and the asymptote)."""
    return brentq(farley_wing_fast, 0.5, 6.0, xtol=1e-10)


# ---------------------------------------------------------------------------
# thermal field and simple limits


def planck_spectral_density(omega_au: float, temperature_k: float) -> float:
    """Squared-amplitude spectral density E^2(w, T) of the thermal field, a.u.

    8 w^3 / (pi c^3 (exp(w/kT) - 1)); 0 at T = 0 and in the deep Wien tail.
    """
    _check_temperature(temperature_k)
    if omega_au < 0.0:
        raise ValueError(f"omega must be >= 0, got {omega_au}")
    # k_B T underflows to 0 below about 1.6e-318 K: that is T = 0 here
    if kconst.KB_AU * temperature_k == 0.0 or omega_au == 0.0:
        return 0.0
    x = omega_au / (kconst.KB_AU * temperature_k)
    if x > 700.0:
        return 0.0
    return (8.0 / (_PI * _C3)) * omega_au**3 / math.expm1(x)


def free_electron_shift(temperature_k: float) -> float:
    """High-n limit of the BBR shift: pi (kT)^2 / (3 c^3), in Hz."""
    _check_temperature(temperature_k)
    kt = kconst.KB_AU * temperature_k
    return (_PI * kt * kt / (3.0 * _C3)) * kconst.HARTREE_HZ


def free_electron_sensitivity(temperature_k: float) -> float:
    """d/dT of the free-electron shift: 2 pi k_B^2 T / (3 c^3), in Hz/K."""
    _check_temperature(temperature_k)
    if temperature_k == 0.0:
        return 0.0
    return 2.0 * free_electron_shift(temperature_k) / temperature_k


def static_limit_shift(alpha0_au: float, temperature_k: float) -> float:
    """Static-polarizability BBR shift -2 pi^3 alpha (kT)^4/(15 c^3), Hz."""
    _check_temperature(temperature_k)
    kt = kconst.KB_AU * temperature_k
    return (-2.0 * _PI**3 * alpha0_au * kt**4 / (15.0 * _C3)) * kconst.HARTREE_HZ


# ---------------------------------------------------------------------------
# BBR shift


@dataclass(frozen=True)
class BBRShiftResult:
    """BBR Stark shift and its convergence audit.

    shift_hz = channel_hz + tail_hz always; ``converged`` means the
    truncation tail is small against the total (or against a 1 mHz floor).
    ``f_missing`` is the channel table's, at every temperature (0 K too);
    line-list (clock-role) results have a complete channel set: their tail
    is zero and f_missing is None.  ``slope_hz_per_k`` is d(shift)/dT from
    the same kernel values (channels, tail and core term differentiated
    analytically); None on the integral route.  The channels summed are
    those of ``channel_table``.
    """

    state_str: str
    temperature_k: float
    shift_hz: float
    channel_hz: float
    tail_hz: float
    f_missing: float | None
    converged: bool
    method: str
    span: int | None
    slope_hz_per_k: float | None = None


def _channel_shifts_sum_hz(
    omega_au: np.ndarray, z2: np.ndarray, temperature_k: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel Farley-Wing shifts and their d/dT, Hz and Hz/K, from
    d/dT [(kT)^3 F(w/kT)] = (kT)^3 (3F - yF') / T."""
    kt = kconst.KB_AU * temperature_k
    # w/kT -> inf as T -> 0, and there y F' -> 0, but inf * 0 is nan
    with np.errstate(over="ignore", invalid="ignore"):
        y = omega_au / kt
        f, df = farley_wing_fast(y, derivative=True)
        y_df = y * df
    slope_terms = 3.0 * f - np.where(np.isinf(y), 0.0, y_df)
    scale = -(2.0 / (_PI * _C3)) * kt**3 * z2
    return (
        scale * f * kconst.HARTREE_HZ,
        scale * slope_terms * kconst.HARTREE_HZ / temperature_k,
    )


def _channel_shift_integral_hz(omega_au, z2, temperature_k) -> float:
    """Same channel shift via the defining PV frequency integral.

    dE = -1/4 integral E^2(w) alpha_ch(w) dw with
    alpha_ch = 2 w_c z^2/(w_c^2 - w^2); the pole at |w_c| is handled with a
    Cauchy-weight quadrature on a symmetric window.  Independent of the
    Farley-Wing function.
    """
    from scipy import integrate  # reference route only: kept out of import

    kt = kconst.KB_AU * temperature_k
    c = abs(omega_au)

    def f_reg(w: float) -> float:
        return planck_spectral_density(w, temperature_k) / (w + c)

    w_half = min(0.5 * c, 5.0 * kt)
    upper = max(c + 60.0 * kt, 60.0 * kt)
    # PV int_0^inf E^2/((c-w)(c+w)) dw in three pieces
    lo, lo_err = integrate.quad(
        lambda w: f_reg(w) / (c - w), 0.0, c - w_half,
        epsabs=0.0, epsrel=1e-10, limit=400, full_output=1,
    )[:2]
    mid, mid_err = integrate.quad(
        f_reg, c - w_half, c + w_half,
        weight="cauchy", wvar=c, epsabs=0.0, epsrel=1e-10, limit=400,
        full_output=1,
    )[:2]
    hi, hi_err = integrate.quad(
        lambda w: f_reg(w) / (c - w), c + w_half, upper,
        epsabs=0.0, epsrel=1e-10, limit=400, full_output=1,
    )[:2]
    pv = lo - mid + hi  # 1/(c-w) = -1/(w-c) in the cauchy piece
    scale = 0.5 * abs(omega_au) * z2 * kconst.HARTREE_HZ
    err_hz = scale * (lo_err + mid_err + hi_err)
    hz = -0.5 * omega_au * z2 * pv * kconst.HARTREE_HZ
    # floors: 1e-9 Hz, and 1e-10 of the channel's size (the factor before F,
    # as farley_wing's 1e-10 is in units of F) for a large channel whose
    # shift passes through zero near y = 2.6162
    size_hz = (2.0 / (_PI * _C3)) * kt**3 * z2 * kconst.HARTREE_HZ
    if err_hz > max(1e-6 * abs(hz), 1e-10 * size_hz, 1e-9):
        raise QuadratureError(
            f"PV frequency integral did not converge at the resonance "
            f"|omega| = {c:.6e} a.u. (error {err_hz:.2e} Hz vs value {hz:.2e} Hz)"
        )
    return hz


# Kramers near-threshold photoionization profile df/dw ~ w^-p above the
# ionization threshold, used to distribute the missing oscillator strength.
_KRAMERS_P = 3.5
# Fixed-order Gauss-Legendre rule on u = w_th/w in (0, 1]; fixed order keeps
# results bitwise independent of evaluation order and call history.
_TAIL_NODES_U, _TAIL_WEIGHTS = (
    lambda xw: (0.5 * (xw[0] + 1.0), 0.5 * xw[1])
)(np.polynomial.legendre.leggauss(48))
# the rule's weights times the profile factor (p - 1) u^(p - 2)
_TAIL_NODE_WEIGHTS = _TAIL_WEIGHTS * (_KRAMERS_P - 1.0) * _TAIL_NODES_U ** (_KRAMERS_P - 2.0)


def truncation_tail_shift(
    f_missing: float, binding_au: float
) -> tuple[np.ndarray, np.ndarray]:
    """Channels of the continuum completion of a truncated channel sum.

    Distributes the missing oscillator strength ``f_missing`` above the
    ionization threshold ``binding_au`` with the Kramers profile
    df/dw proportional to w^-7/2.  Each of the 48 quadrature nodes u_i is
    a channel at w_i = binding_au / u_i with z_i^2 = f_missing W_i /
    (2 w_i), W the node weights; returns their (omega_au, z2) columns, to
    be folded through the Farley-Wing kernel by the channel rule.  No
    channels when no strength is missing (a small negative ``f_missing``
    can arise from the finite accuracy of the one-channel radial model at
    low n and is clamped).
    """
    if f_missing <= 0.0:
        return np.empty(0), np.empty(0)
    omega = binding_au / _TAIL_NODES_U
    return omega, f_missing * _TAIL_NODE_WEIGHTS / (2.0 * omega)


def _result(state, temperature_k, table, channel_hz, tail_hz, tail_fraction,
            slope_hz_per_k, method="sum") -> BBRShiftResult:
    # the one constructor: shift = channel + tail and the converged rule
    shift = channel_hz + tail_hz
    return BBRShiftResult(
        state_str=str(state),
        temperature_k=temperature_k,
        shift_hz=shift,
        channel_hz=channel_hz,
        tail_hz=tail_hz,
        f_missing=table.f_missing,
        converged=abs(tail_hz) <= tail_fraction * max(abs(shift), 1e-3),
        method=method,
        span=table.span,
        slope_hz_per_k=slope_hz_per_k,
    )


def bbr_shift_fsums(
    states: list[RydbergState],
    temperature_k: float,
    span: int = DEFAULT_SPAN,
    solver: RadialSolver | None = None,
) -> tuple[tuple, list[tuple[float, float, float]]]:
    """The channel tables of ``states`` and, for each state, (channel_hz,
    tail_hz, slope_hz_per_k), from one kernel call.

    The channels of every state, tail nodes included, go through the
    kernel as one array, which is then split by state; the kernel works
    element by element, so each state's sums are bitwise the ones a call
    for that state alone gives.  What does not depend on T is built once
    per solver, states and ``span`` (``_joined_channels``).
    """
    _check_temperature(temperature_k)
    span = check_span(span)
    solver = solver or default_solver()
    tables, omega_au, z2, ends = solver.cached(
        ("joined", tuple(state._key for state in states), span),
        lambda: _joined_channels(states, span, solver),
    )
    if kconst.KB_AU * temperature_k == 0.0:
        return tables, [(0.0, 0.0, 0.0)] * len(tables)
    hz, slopes = _channel_shifts_sum_hz(omega_au, z2, temperature_k)
    hz, slopes = hz.tolist(), slopes.tolist()
    sums = []
    for i, table in enumerate(tables):
        start, mid, end = ends[2 * i : 2 * i + 3]
        parts, slope_parts = hz[start:mid], slopes[start:mid]
        if table.core_alpha_au is not None:
            core = static_limit_shift(table.core_alpha_au, temperature_k)
            parts.append(core)
            slope_parts.append(4.0 * core / temperature_k)  # core ~ T^4
        # fsum is exactly rounded: the sums do not depend on the order of terms
        sums.append((
            math.fsum(parts),
            math.fsum(hz[mid:end]),
            math.fsum(slope_parts) + math.fsum(slopes[mid:end]),
        ))
    return tables, sums


def _joined_channels(
    states: list[RydbergState], span: int, solver: RadialSolver
) -> tuple[tuple, np.ndarray, np.ndarray, list[int]]:
    """The channel tables of ``states`` and their channels as one pair of
    read-only (omega_au, z2) columns: each state's table channels, then
    its tail nodes.  ``ends[2i : 2i + 3]`` are the start of state i's
    channels, of its tail nodes, and the end of both."""
    tables = tuple(channel_table(state, span, solver) for state in states)
    blocks = []
    for state, table in zip(states, tables):
        blocks.append((table.omega_au, table.z2))
        # a line table (f_missing None) is complete: no tail channels
        blocks.append(truncation_tail_shift(table.f_missing or 0.0, state.binding_au))
    omega_au = np.concatenate([b[0] for b in blocks])
    z2 = np.concatenate([b[1] for b in blocks])
    omega_au.flags.writeable = z2.flags.writeable = False
    ends = np.cumsum([0] + [b[0].size for b in blocks]).tolist()
    return tables, omega_au, z2, ends


def bbr_shift_sum(
    state: RydbergState,
    temperature_k: float,
    span: int = DEFAULT_SPAN,
    solver: RadialSolver | None = None,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
) -> BBRShiftResult:
    """BBR Stark shift at temperature T via the Farley-Wing channel sum, Hz.

    The channels come from ``channel_table``: the species line list plus a
    static core term for a clock state, the radial table with sum-rule tail
    completion for any other state.
    """
    (table,), ((channel_hz, tail_hz, slope),) = bbr_shift_fsums(
        [state], temperature_k, span, solver
    )
    return _result(state, temperature_k, table, channel_hz, tail_hz, tail_fraction, slope)


def bbr_shift_integral(
    state: RydbergState,
    temperature_k: float,
    span: int = DEFAULT_SPAN,
    solver: RadialSolver | None = None,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
) -> BBRShiftResult:
    """BBR Stark shift via per-resonance PV frequency integrals, Hz.

    Evaluates -1/4 integral E^2(w,T) alpha(w) dw channel by channel (the
    integral is linear in the polarizability's pole decomposition), with a
    Cauchy principal value at every resonance.  It is ``bbr_shift_sum``'s
    result with only ``channel_hz`` re-summed, from the same channels and
    static core term but none of the Farley-Wing machinery, so the two
    routes cross-validate each other.  The tail (a continuum model, folded
    through the kernel), ``f_missing`` and ``span`` are the sum route's;
    ``slope_hz_per_k`` is None.

    Each channel's quadrature is accepted at 1e-6 relative or at an
    absolute floor, the larger of 1e-9 Hz and 1e-10 of the channel's size
    (2/(pi c^3)) (kT)^3 z^2, which a large channel at F's zero (y = 2.6162)
    needs.  The two routes agree within 1.5e-12 relative (the acceptance
    tolerance) at every temperature from 33 K to 1000 K for Sr 30 3D1 and
    from 0.4 K for Sr 5 3P0 (measured on a 160-point grid).  Their
    difference is about 1e-11 Hz for the Rydberg state, so below its floor
    they part relatively near the shift's zeros (1.23 and 22.2 K); far below
    1 K the shifts lie far under the quadrature floor, and there the routes
    are not comparable (they may differ in sign).
    """
    (table,), ((_, tail_hz, _),) = bbr_shift_fsums([state], temperature_k, span, solver)
    parts = []
    if kconst.KB_AU * temperature_k != 0.0:
        parts = [
            _channel_shift_integral_hz(w, z2, temperature_k)
            for w, z2 in zip(table.omega_au.tolist(), table.z2.tolist())
        ]
        if table.core_alpha_au is not None:
            parts.append(static_limit_shift(table.core_alpha_au, temperature_k))
    return _result(
        state, temperature_k, table, math.fsum(parts), tail_hz, tail_fraction,
        None, "integral",
    )


# ---------------------------------------------------------------------------
# radiative and BBR-stimulated widths


@dataclass(frozen=True)
class LinewidthResult:
    """Natural and BBR-stimulated FWHM contributions of one state, Hz."""

    state_str: str
    temperature_k: float
    natural_hz: float
    bbr_hz: float

    @property
    def total_hz(self) -> float:
        return self.natural_hz + self.bbr_hz


def natural_linewidth(state: RydbergState) -> float:
    """Natural (spontaneous) FWHM linewidth, Hz: sum of A over 2 pi."""
    rates = dipole_rate_s(downward_channels(state))
    return math.fsum(rates.tolist()) / (2.0 * _PI)


def bbr_depopulation_rate(
    state: RydbergState, temperature_k: float, span: int = DEFAULT_SPAN
) -> float:
    """BBR-stimulated depopulation FWHM contribution, Hz.

    Stimulated emission adds A*nbar on every downward channel; absorption
    adds the symmetric 4 w^3 z^2/c^3 * nbar on upward channels (detailed
    balance).  Photoionization by the thermal field is neglected.
    """
    _check_temperature(temperature_k)
    kt = kconst.KB_AU * temperature_k
    if kt == 0.0:
        return 0.0
    down = downward_channels(state)
    table = build_transition_table(state, span)
    up = table.omega_au > 0
    rates = np.concatenate([dipole_rate_s(down), dipole_rate_s(table)[up]])
    x = np.abs(np.concatenate([down.omega_au, table.omega_au[up]])) / kt
    keep = x <= 700.0  # nbar < e^-700: the channel adds nothing
    return math.fsum((rates[keep] / np.expm1(x[keep])).tolist()) / (2.0 * _PI)


def linewidths(
    state: RydbergState, temperature_k: float, span: int = DEFAULT_SPAN
) -> LinewidthResult:
    """Natural + BBR-stimulated FWHM budget of one state, Hz."""
    return LinewidthResult(
        state_str=str(state),
        temperature_k=temperature_k,
        natural_hz=natural_linewidth(state),
        bbr_hz=bbr_depopulation_rate(state, temperature_k, span),
    )
