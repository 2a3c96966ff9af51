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
extrapolation in the excision radius) and ``farley_wing_fast`` (an exact
series over exponential-integral pairs, used inside channel sums).  A third
route, ``bbr_shift_integral``, never touches F at all: it evaluates the
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

Both routes run one loop over the channels of ``channel_table``.  For a
clock state (the species' ground/metastable role) that table is the
literature-anchored line list from the species file plus a static
core/background term, folded in through its static-limit shift; the list is
complete by construction, so the truncation tail is zero.  Every other
state uses its radial table and the tail completion above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, special

from . import constants as kconst
from .radial import RadialSolver, default_solver
from .species import RydbergState
from .transitions import (
    DEFAULT_SPAN,
    build_transition_table,
    channel_table,
    downward_channels,
    einstein_a_s,
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


def _fw_asymptotic(a: float) -> float:
    # F(a) = 2 sum_m Gamma(2m+4) zeta(2m+4) / a^(2m+1); divergent asymptotic
    # series, summed to optimal truncation (error ~ e^-a, i.e. ~1e-13 at
    # the a = 30 handover)
    total = 0.0
    prev = math.inf
    for m in range(17):
        order = 2 * m + 4
        try:
            power = math.pow(a, 2 * m + 1)
        except OverflowError:  # a > ~2e9: this and later terms are 0 in doubles
            break
        term = 2.0 * math.gamma(order) * float(special.zeta(order)) / power
        if term >= prev:
            break
        total += term
        prev = term
    return total


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
        # leading small-y form; relative error < 3e-6 at the threshold
        # (the correction scales like y^2 |ln y|)
        return -(_PI**2) * y / 3.0
    if a > 40.0:
        return sign * _fw_asymptotic(a)

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


def _t_pair(u: np.ndarray) -> np.ndarray:
    """t(u) = e^u E1(u) - e^{-u} Ei(u), u > 0, vectorized and overflow-safe."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    small = u <= 30.0
    if np.any(small):
        us = u[small]
        out[small] = np.exp(us) * special.exp1(us) - np.exp(-us) * special.expi(us)
    if np.any(~small):
        ub = u[~small]
        # asymptotic difference: -2 sum_m (2m+1)!/u^(2m+2)
        acc = np.zeros_like(ub)
        for m in range(0, 8):
            acc += math.factorial(2 * m + 1) / ub ** (2 * m + 2)
        out[~small] = -2.0 * acc
    return out


def farley_wing_fast(y: float) -> float:
    """Fast series evaluation of F(y); agrees with ``farley_wing`` to ~1e-9.

    F(y) = -2y [pi^2/6 + y^2 J(y)], J(y) = (1/2) sum_k t(k y) with
    t(u) = e^u E1(u) - e^{-u} Ei(u); k-tail summed analytically via
    polygamma.  Falls back to -pi^2 y / 3 for |y| < 1e-3 (relative error
    < ~1e-5 there) and to the large-y asymptotic series for |y| > 30.
    """
    if y == 0.0:
        return 0.0
    sign = 1.0 if y > 0 else -1.0
    a = abs(y)
    if a < 1e-3:
        return -(_PI**2) * y / 3.0
    if a > 30.0:
        return sign * _fw_asymptotic(a)
    n_terms = max(64, int(math.ceil(34.0 / a)))
    ks = np.arange(1, n_terms + 1, dtype=float)
    j_sum = 0.5 * float(np.sum(_t_pair(ks * a)))
    # tail over k > n_terms from the asymptotic t(u):
    #   (1/2) sum t(ka) ~ -psi'(K+1)/a^2 - psi'''(K+1)/a^4 - psi^(5)(K+1)/a^6
    kp1 = n_terms + 1
    j_tail = -(
        float(special.polygamma(1, kp1)) / a**2
        + float(special.polygamma(3, kp1)) / a**4
        + float(special.polygamma(5, kp1)) / a**6
    )
    j = j_sum + j_tail
    return sign * (-2.0 * a) * (_PI**2 / 6.0 + a * a * j)


def farley_wing_zero() -> float:
    """Positive zero crossing of F (between the minimum and the asymptote)."""
    return float(optimize.brentq(farley_wing_fast, 0.5, 6.0, xtol=1e-10))


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


def total_field_sq(temperature_k: float) -> float:
    """integral E^2(w,T) dw = (8 pi^3/15)(kT)^4/c^3, atomic units."""
    _check_temperature(temperature_k)
    kt = kconst.KB_AU * temperature_k
    return (8.0 * _PI**3 / 15.0) * kt**4 / _C3


def rms_field_v_per_m(temperature_k: float) -> float:
    """Root-mean-square thermal field <E^2>^(1/2) = sqrt(total/2), V/m."""
    return math.sqrt(total_field_sq(temperature_k) / 2.0) * kconst.ATOMIC_FIELD_V_PER_M


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
    """BBR Stark shift with per-channel breakdown and convergence audit.

    shift_hz = channel_hz + tail_hz always; ``converged`` means the
    truncation tail is small against the total (or against a 1 mHz floor).
    Line-list (clock-role) results have a complete channel set: their tail
    is zero and f_missing is None.
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
    per_channel: tuple[tuple[str, float], ...] = ()  # (channel id, Hz)


def _channel_shift_sum_hz(omega_au, z2, temperature_k) -> float:
    kt = kconst.KB_AU * temperature_k
    y = omega_au / kt
    return (
        -(2.0 / (_PI * _C3)) * kt**3 * z2 * farley_wing_fast(y)
    ) * kconst.HARTREE_HZ


def _channel_shift_integral_hz(omega_au, z2, temperature_k) -> float:
    """Same channel shift via the defining PV frequency integral.

    dE = -1/4 integral E^2(w) alpha_ch(w) dw with
    alpha_ch = 2 w_c z^2/(w_c^2 - w^2); the pole at |w_c| is handled with a
    Cauchy-weight quadrature on a symmetric window.  Independent of the
    Farley-Wing function.
    """
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
    if err_hz > max(1e-6 * abs(hz), 1e-9):
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


def truncation_tail_shift(
    f_missing: float, binding_au: float, temperature_k: float
) -> float:
    """Continuum completion of a truncated channel sum, in Hz.

    Distributes the missing oscillator strength ``f_missing`` above the
    ionization threshold ``binding_au`` with the Kramers profile
    df/dw proportional to w^-7/2 and folds it through the Farley-Wing
    kernel.  Returns 0 for T = 0 or when no strength is missing (a small
    negative ``f_missing`` can arise from the finite accuracy of the
    one-channel radial model at low n and is clamped).
    """
    _check_temperature(temperature_k)
    kt = kconst.KB_AU * temperature_k
    if kt == 0.0 or f_missing <= 0.0:
        return 0.0
    y_th = binding_au / kt
    acc = 0.0
    p = _KRAMERS_P
    for u, w in zip(_TAIL_NODES_U, _TAIL_WEIGHTS):
        y = y_th / u
        acc += w * (p - 1.0) * u ** (p - 2.0) * farley_wing_fast(y) / y
    return (-(kt * kt) * f_missing * acc / (_PI * _C3)) * kconst.HARTREE_HZ


def _bbr_shift(
    state: RydbergState,
    temperature_k: float,
    span: int,
    solver: RadialSolver | None,
    method: str,
    tail_fraction: float,
) -> BBRShiftResult:
    _check_temperature(temperature_k)
    table = channel_table(state, span, solver)
    if kconst.KB_AU * temperature_k == 0.0:
        return BBRShiftResult(
            state_str=str(state),
            temperature_k=temperature_k,
            shift_hz=0.0,
            channel_hz=0.0,
            tail_hz=0.0,
            f_missing=None,
            converged=True,
            method=method,
            span=table.span,
        )
    chan_fn = (
        _channel_shift_sum_hz if method == "sum" else _channel_shift_integral_hz
    )
    per = [
        (ch.channel_id, chan_fn(ch.omega_au, ch.z2, temperature_k))
        for ch in table.channels
    ]
    if table.core_alpha_au is not None:
        per.append(("core", static_limit_shift(table.core_alpha_au, temperature_k)))
    channel_hz = math.fsum(hz for _, hz in per)
    # The tail is a continuum model, not a discrete channel, so both routes
    # share one implementation; the sum-vs-integral cross-check exercises
    # the per-channel kernels.
    tail = (
        0.0
        if table.f_missing is None
        else truncation_tail_shift(table.f_missing, state.binding_au, temperature_k)
    )
    shift = channel_hz + tail
    converged = abs(tail) <= tail_fraction * max(abs(shift), 1e-3)
    return BBRShiftResult(
        state_str=str(state),
        temperature_k=temperature_k,
        shift_hz=shift,
        channel_hz=channel_hz,
        tail_hz=tail,
        f_missing=table.f_missing,
        converged=converged,
        method=method,
        span=table.span,
        per_channel=tuple(per),
    )


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
    return _bbr_shift(state, temperature_k, span, solver, "sum", tail_fraction)


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
    Cauchy principal value at every resonance.  Shares the channel table
    with ``bbr_shift_sum`` but none of the Farley-Wing machinery, so the
    two routes cross-validate each other.

    Each channel's quadrature is accepted at 1e-6 relative or at a 1e-9 Hz
    absolute floor.  Far below 1 K the shifts lie far under that floor, so
    there the two routes are not comparable (they may differ in sign).
    """
    return _bbr_shift(
        state, temperature_k, span, solver, "integral", tail_fraction
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


def natural_linewidth(
    state: RydbergState, solver: RadialSolver | None = None
) -> float:
    """Natural (spontaneous) FWHM linewidth, Hz: sum of A over 2 pi."""
    rate = math.fsum(
        einstein_a_s(ch) for ch in downward_channels(state, solver)
    )
    return rate / (2.0 * _PI)


def bbr_depopulation_rate(
    state: RydbergState,
    temperature_k: float,
    solver: RadialSolver | None = None,
    span: int = DEFAULT_SPAN,
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
    solver = solver or default_solver()
    terms = []
    for ch in downward_channels(state, solver):
        x = abs(ch.omega_au) / kt
        if x > 700.0:
            continue
        terms.append(einstein_a_s(ch) / math.expm1(x))
    table = build_transition_table(state, span, solver)
    for ch in table.channels:
        if ch.omega_au <= 0:
            continue
        x = ch.omega_au / kt
        if x > 700.0:
            continue
        terms.append(
            4.0
            * ch.omega_au**3
            * ch.z2
            / _C3
            / kconst.ATOMIC_TIME_S
            / math.expm1(x)
        )
    return math.fsum(terms) / (2.0 * _PI)


def linewidths(
    state: RydbergState,
    temperature_k: float,
    solver: RadialSolver | None = None,
    span: int = DEFAULT_SPAN,
) -> LinewidthResult:
    """Natural + BBR-stimulated FWHM budget of one state, Hz."""
    solver = solver or default_solver()
    return LinewidthResult(
        state_str=str(state),
        temperature_k=temperature_k,
        natural_hz=natural_linewidth(state, solver),
        bbr_hz=bbr_depopulation_rate(state, temperature_k, solver, span),
    )
