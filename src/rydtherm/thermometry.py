"""Blackbody thermometry with metastable -> Rydberg transitions.

The BBR shift of a metastable -> Rydberg optical transition is dominated
by the Rydberg state's quasi-free-electron shift (~2.4 kHz at 300 K,
slope ~16 Hz/K), hundreds of times more temperature-sensitive as a
fraction of the transition frequency than an optical clock transition.
This module turns that into instrumentation:

* ``transition_bbr_shift`` — the transition's shift and, with
  ``derivative=True``, its d/dT, differentiated analytically from the same
  kernel values as the shift (``BBRShiftResult.slope_hz_per_k``); both
  states share one kernel call (``bbr_shift_fsums``), as do all states of
  one joint-solve iterate;
* ``invert_temperature`` — bracket-safeguarded Newton solve of
  shift(T) = offset, seeded from a per-state inverse proxy: T as a
  Chebyshev series in sqrt(shift), fitted once per solver, state and span
  to the model on [40, 1000] K, so closely that for the bundled Sr and Yb
  states at n = 25-60 the seed itself meets the stopping rule at sigma >=
  0.1 Hz: an inversion is then one model evaluation and no Newton step;
  an offset the proxy does not cover starts from the fixed ``SEED_K``;
* ``joint_solve_temperature_field`` — weighted least squares over
  (T, E^2) using two or more transitions with distinct static
  polarizabilities, separating temperature from a stray DC field: E^2
  is projected out in closed form, so the solve steps in T alone;
* ``vdw_shift_estimate`` — anchored (n/25)^11 (4 um/R)^6 density limit;
* ``measurement_budget`` / ``error_budget`` — shot-noise cycle counts and
  the full accuracy chain down to the clock's BBR uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants as kconst
from .bbr import TEMPERATURE_RANGE_K, bbr_shift_fsums, linewidths
from .lattice import check_rydberg_partner, level_energy_au
from .polarizability import static_polarizability
from .radial import RadialSolver, default_solver
from .species import RydbergState, Species
from .transitions import DEFAULT_SPAN, check_span

SEED_K = 300.0  # where a solve starts that no inverse proxy seeds
TOL_K = 1.0e-7  # temperature step at which both solvers stop
RESIDUAL_TOL = 1.0e-6  # inversion also stops at |residual| <= this * sigma
INVERT_MAX_ITER = 60
JOINT_MAX_ITER = 50
PROXY_LOW_K = 40.0  # the inverse proxy is fitted on [PROXY_LOW_K, 1000] K
# Chebyshev-Lobatto nodes in T, both ends included: the fewest at which
# the proxy's seed is within 1e-7 Hz of every offset on [40, 1000] K for
# every proxied Sr and Yb state at n = 25-60 (57 nodes miss on Sr 25 3D1)
PROXY_NODES = 58
LINE_SPLIT = 1.0  # kappa: one cycle resolves linewidth / (kappa * SNR)


class ThermometryError(RuntimeError):
    """Inversion or joint solve failed (non-convergence, degeneracy)."""


def _transition_label(lower: RydbergState, upper: RydbergState) -> str:
    """``"<species> <n> <series> -> <n> <series>"`` of a transition."""
    return (
        f"{lower.species.name} {lower.n} {lower.series} -> "
        f"{upper.n} {upper.series}"
    )


def _dot(x: list[float], y: list[float]) -> float:
    """The dot product, exactly rounded sum of the rounded products."""
    return math.fsum(a * b for a, b in zip(x, y))


@dataclass(frozen=True)
class ThermometryMeasurement:
    """One measured metastable -> Rydberg transition offset.

    ``offset_hz`` is the transition frequency minus its T = 0, E = 0
    reference value; ``sigma_hz`` its 1-sigma uncertainty.
    """

    state: RydbergState
    offset_hz: float
    sigma_hz: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.offset_hz):
            raise ValueError(f"measured offset must be finite, got {self.offset_hz}")
        if not (math.isfinite(self.sigma_hz) and self.sigma_hz > 0):
            raise ValueError(
                f"measurement uncertainty must be finite and > 0, got {self.sigma_hz}"
            )
        check_rydberg_partner(self.state)

    @property
    def transition_id(self) -> str:
        return _transition_label(self.state.species.metastable_state(), self.state)


@dataclass(frozen=True)
class ThermometrySolution:
    """Result of a temperature (or temperature + stray field) solve."""

    temperature_k: float
    sigma_temperature_k: float
    field_v_per_m: float
    sigma_field_v_per_m: float
    covariance: tuple[tuple[float, ...], ...]  # over (T, E^2) or (T,)
    residuals_hz: tuple[float, ...]
    field_sq_clamped: bool
    iterations: int


def transition_bbr_shift(
    species: Species,
    upper: RydbergState,
    temperature_k: float,
    lower: RydbergState | None = None,
    span: int = DEFAULT_SPAN,
    solver: RadialSolver | None = None,
    derivative: bool = False,
):
    """BBR shift of the ``lower -> upper`` transition frequency, Hz.

    ``lower`` defaults to the species' metastable clock state.  With
    ``derivative=True`` returns (shift in Hz, d(shift)/dT in Hz/K).
    Raises ValueError when ``upper`` or ``lower`` belongs to another
    species file than ``species``.
    """
    if lower is None:
        lower = species.metastable_state()
    species.check_states(upper, lower)
    states = [lower] if upper == lower else [lower, upper]
    ((shift, slope),) = _transition_shifts(
        states, [len(states) - 1], temperature_k, span, solver
    )
    return (shift, slope) if derivative else shift


def _transition_shifts(
    states: list[RydbergState],
    uppers: list[int],
    temperature_k: float,
    span: int,
    solver: RadialSolver | None,
) -> list[tuple[float, float]]:
    """(BBR shift in Hz, d/dT in Hz/K) of the transition from ``states[0]``
    to ``states[i]`` for each i in ``uppers``, from one ``bbr_shift_fsums``
    call over ``states``, which are distinct."""
    _, sums = bbr_shift_fsums(states, temperature_k, span, solver)
    shifts = [(channel_hz + tail_hz, slope) for channel_hz, tail_hz, slope in sums]
    lo_shift, lo_slope = shifts[0]
    return [(shifts[i][0] - lo_shift, shifts[i][1] - lo_slope) for i in uppers]


def _inverse_proxy(model) -> tuple:
    """The shift and slope at the top of the range, and the inverse proxy:
    T as a Chebyshev series in u = sqrt(shift), interpolating ``model`` at
    PROXY_NODES Chebyshev-Lobatto nodes in T on [PROXY_LOW_K, 1000] K, of
    which 1000 K is one.  The proxy is (shift at PROXY_LOW_K, u_lo + u_hi,
    u_hi - u_lo, coefficients), or None unless the sampled shifts are
    positive and strictly increasing and the fit has full rank.
    Interpolation converges geometrically in the node count; at
    PROXY_NODES the model at the proxy's T is within 1e-7 Hz of the offset
    for the bundled Sr and Yb states at n = 25-60, while at lower n, near
    PROXY_LOW_K, it may not be, and Newton steps from the seed."""
    t_hi = TEMPERATURE_RANGE_K[1]
    mid, half = 0.5 * (t_hi + PROXY_LOW_K), 0.5 * (t_hi - PROXY_LOW_K)
    temps = mid - half * np.cos(np.linspace(0.0, math.pi, PROXY_NODES))
    samples = [model(t) for t in temps.tolist()]
    shifts = np.array([shift for shift, _ in samples])
    if not (shifts[0] > 0.0 and (np.diff(shifts) > 0.0).all()):
        return samples[-1], None
    u = np.sqrt(shifts)
    u_sum, u_span = u[0] + u[-1], u[-1] - u[0]
    # full=True reports a deficient rank instead of a RankWarning
    coefs, (_, rank, _, _) = np.polynomial.chebyshev.chebfit(
        (2.0 * u - u_sum) / u_span, temps, PROXY_NODES - 1, full=True
    )
    if rank < PROXY_NODES:
        return samples[-1], None
    return samples[-1], (samples[0][0], float(u_sum), float(u_span), coefs.tolist())


def _proxy_temperature(proxy: tuple, offset_hz: float) -> float:
    """The inverse proxy's T at a shift in [shift(PROXY_LOW_K), shift(1000 K)],
    summed by Clenshaw's recurrence in Python floats."""
    _, u_sum, u_span, coefs = proxy
    x = (2.0 * math.sqrt(offset_hz) - u_sum) / u_span
    x2, b1, b2 = 2.0 * x, 0.0, 0.0
    for c in coefs[:0:-1]:
        b1, b2 = c + x2 * b1 - b2, b1
    return coefs[0] + x * b1 - b2


def invert_temperature(
    measurement: ThermometryMeasurement,
    span: int = DEFAULT_SPAN,
    solver: RadialSolver | None = None,
) -> ThermometrySolution:
    """Solve shift(T) = measured offset for T, assuming zero stray field.

    Newton with the analytic slope, taken on the square root of the shift
    while the shift is positive, and safeguarded by a bracket kept from
    all previous evaluations: a step that leaves the bracket is replaced
    by bisection.  Stops when a step is at most ``TOL_K`` or the residual
    is at most ``RESIDUAL_TOL`` times the measurement uncertainty.  Once
    per solver, state and ``span`` the model is evaluated at the
    PROXY_NODES Chebyshev-Lobatto nodes on [PROXY_LOW_K, 1000] K: the top
    node bounds the invertible offsets, and all of them fit the inverse
    proxy, T as a Chebyshev series in sqrt(shift).  Newton starts at the
    proxy's T for an offset in [shift(PROXY_LOW_K), shift(1000 K)], and
    at ``SEED_K`` for an offset below that, or for every offset when the
    sampled shifts do not rise from above 0 or do not fit at full rank.
    A seed that already meets the stopping rule, as the proxy's T does
    for the bundled states at n = 25-60 and sigma >= 0.1 Hz, returns after
    its one evaluation with ``iterations == 0``.
    """
    span = check_span(span)
    solver = solver or default_solver()
    species = measurement.state.species

    def model(t: float) -> tuple[float, float]:
        return transition_bbr_shift(
            species, measurement.state, t, span=span, solver=solver, derivative=True
        )

    t_lo, t_hi = TEMPERATURE_RANGE_K
    target = measurement.offset_hz
    f_tol = RESIDUAL_TOL * measurement.sigma_hz

    # The transition shift rises with T above about 20 K (Rydberg state
    # ~T^2, metastable ~ -T^4), so a bracket is easy to keep; below, the
    # Rydberg state's static polarizability makes it dip under zero, and a
    # small offset can have a second root there.
    lo, hi = t_lo, t_hi
    # the lower state is the species' metastable state, which the sha256
    # in the upper state's key identifies
    (shift_hi, slope_hi), proxy = solver.cached(
        ("inversion", measurement.state._key, span), lambda: _inverse_proxy(model)
    )
    f_lo, f_hi = -target, shift_hi - target  # shift(0) = 0
    if f_lo > 0.0 or f_hi < 0.0:
        raise ThermometryError(
            f"{measurement.transition_id}: offset {target:.6g} Hz lies "
            f"outside the invertible range [0, {shift_hi:.6g}] Hz "
            f"for T in [{t_lo:g}, {t_hi:g}] K"
        )

    if abs(f_hi) <= f_tol:  # the offset of the top of the range itself
        t, shift, slope = t_hi, shift_hi, slope_hi
    else:
        t = SEED_K
        if proxy is not None and target >= proxy[0]:
            t = _proxy_temperature(proxy, target)
        t = min(max(t, t_lo), t_hi)
        shift, slope = model(t)
    iterations = 0
    while abs(shift - target) > f_tol:
        if iterations == INVERT_MAX_ITER:
            raise ThermometryError(
                f"{measurement.transition_id}: temperature inversion did "
                f"not converge in {INVERT_MAX_ITER} iterations"
            )
        iterations += 1
        if shift > target:
            hi = t
        else:
            lo = t
        step = (target - shift) / slope if slope > 0.0 else math.nan
        if shift > 0.0:
            # Newton on sqrt(shift), which is linear in T where the shift
            # goes as T^2 (the free-electron limit); target >= 0 here
            root = math.sqrt(shift)
            step *= 2.0 * root / (root + math.sqrt(target))
        t_next = t + step
        if not lo < t_next < hi:  # also catches nan
            t_next = 0.5 * (lo + hi)
        step, t = t_next - t, t_next
        shift, slope = model(t)
        if abs(step) <= TOL_K:
            break
    sigma_t = measurement.sigma_hz / slope if slope > 0.0 else math.inf
    return ThermometrySolution(
        temperature_k=t,
        sigma_temperature_k=sigma_t,
        field_v_per_m=0.0,
        sigma_field_v_per_m=0.0,
        covariance=((sigma_t * sigma_t,),),
        residuals_hz=(target - shift,),
        field_sq_clamped=False,
        iterations=iterations,
    )


def joint_solve_temperature_field(
    measurements: list[ThermometryMeasurement],
    span: int = DEFAULT_SPAN,
    solver: RadialSolver | None = None,
) -> ThermometrySolution:
    """Weighted least squares for (T, E^2) over >= 2 distinct transitions.

    Model per measurement: offset = BBR(T) - (1/2) alpha_n(0) E^2, with
    alpha_n the Rydberg state's static polarizability (the metastable
    state's DC response is negligible on this scale).  E^2 enters
    linearly and is projected out (variable projection), so each iterate
    takes the Gauss-Newton step in T alone and sets E^2 to its best value
    at the stepped T.  A negative E^2 is clamped to 0 and flagged, and T
    takes the step of the fit with E^2 held at 0, so a clamped solve ends
    at that fit's best T.  From T = ``SEED_K`` the solve stops at a T step
    below ``TOL_K``, after one more evaluation; the covariance over
    (T, E^2) is the closed-form inverse of the 2 x 2 Gram matrix there.
    Raises on fewer than 2 measurements or a degenerate design (all
    states identical, or a Gram matrix of condition number above 1e12).
    """
    if len(measurements) < 2:
        raise ThermometryError("joint solve needs >= 2 measurements")
    species = measurements[0].state.species
    try:
        species.check_states(*(m.state for m in measurements[1:]))
    except ValueError as exc:
        raise ThermometryError(
            "joint solve: all measurements must share a species"
        ) from exc
    keys = {(m.state.n, m.state.series) for m in measurements}
    if len(keys) < 2:
        raise ThermometryError(
            "joint solve: measurements must probe >= 2 distinct states "
            f"(got only {keys.pop()})"
        )

    alphas = [static_polarizability(m.state, span=span, solver=solver).value_hz_m2_v2
              for m in measurements]
    # the field column: d(residual)/d(E^2) in units of sigma
    c = [0.5 * alpha / m.sigma_hz for alpha, m in zip(alphas, measurements)]
    cc = _dot(c, c)

    # the distinct states, the metastable one first, and each
    # measurement's index among them: formed once per solve
    uppers = [m.state for m in measurements]
    states = list(dict.fromkeys([species.metastable_state(), *uppers]))
    index = [states.index(state) for state in uppers]

    t_lo, t_hi = TEMPERATURE_RANGE_K
    t, done = SEED_K, False  # the final iterate's model and Gram matrix are reported
    for iterations in range(JOINT_MAX_ITER + 1):
        shifts = _transition_shifts(states, index, t, span, solver)
        r0 = [(m.offset_hz - s) / m.sigma_hz for m, (s, _) in zip(measurements, shifts)]
        g = [slope / m.sigma_hz for m, (_, slope) in zip(measurements, shifts)]
        gg, gc = _dot(g, g), _dot(g, c)
        # the condition number of the Gram matrix [[gg, -gc], [-gc, cc]]
        det = gg * cc - gc * gc
        lam_max = 0.5 * (gg + cc) + math.hypot(0.5 * (gg - cc), gc)
        lam_min = det / lam_max if lam_max > 0.0 else 0.0
        if not lam_min > 0.0 or lam_max > 1.0e12 * lam_min:
            raise ThermometryError(
                "joint solve: degenerate design matrix — the chosen states "
                "do not separate temperature from field"
            )
        if done:
            break
        if iterations == JOINT_MAX_ITER:
            raise ThermometryError(
                f"joint solve did not converge in {JOINT_MAX_ITER} iterations"
            )
        # the Gauss-Newton step in T, the field column c projected out of g
        g_p = [gi - ci * gc / cc for gi, ci in zip(g, c)]
        step = _dot(g_p, r0) / _dot(g_p, g_p)
        e2 = (gc * step - _dot(c, r0)) / cc  # the best E^2 at t + step
        clamped = e2 < 0.0
        if clamped:  # the Gauss-Newton step in T of the fit at E^2 = 0
            e2, step = 0.0, _dot(g, r0) / gg
        t, t_old = min(max(t + step, t_lo + 1.0e-6), t_hi - 1.0e-9), t
        done = abs(t - t_old) < TOL_K

    cov = ((cc / det, gc / det), (gc / det, gg / det))  # the Gram matrix's inverse
    sigma_t, sigma_e2 = math.sqrt(cov[0][0]), math.sqrt(cov[1][1])
    e_field = math.sqrt(e2)
    sigma_e = sigma_e2 / (2.0 * e_field) if e_field > 1.0e-12 else math.sqrt(sigma_e2)
    return ThermometrySolution(
        temperature_k=t,
        sigma_temperature_k=sigma_t,
        field_v_per_m=e_field,
        sigma_field_v_per_m=sigma_e,
        covariance=cov,
        residuals_hz=tuple(m.offset_hz - (s - 0.5 * alpha * e2)
                           for m, (s, _), alpha in zip(measurements, shifts, alphas)),
        field_sq_clamped=clamped,
        iterations=iterations,
    )


def vdw_shift_estimate(n: int, spacing_um: float) -> float:
    """Van-der-Waals shift of one Rydberg atom by a neighbor, Hz.

    Anchored scaling estimate: 1 Hz at n = 25 and 4 um spacing, scaled
    by (n/25)^11 (4 um/R)^6.  An order-of-magnitude density guide, not a
    computed C6 coefficient.  Raises ValueError unless n >= 15 and the
    spacing are finite, spacing > 0, and the shift is within float range.
    """
    if not (math.isfinite(n) and n >= 15):
        raise ValueError(f"scaling anchor requires a finite n >= 15, got {n}")
    if not (math.isfinite(spacing_um) and spacing_um > 0):
        raise ValueError(f"spacing must be finite and > 0, got {spacing_um}")
    try:
        shift = 1.0 * (n / 25.0) ** 11 * (4.0 / spacing_um) ** 6
    except OverflowError:
        shift = math.inf
    if math.isinf(shift):
        raise ValueError(f"vdW shift at n = {n}, {spacing_um} um is past float range")
    return shift


def measurement_budget(
    atoms: float, linewidth_hz: float, target_resolution_hz: float
) -> int:
    """Shot-noise cycle count to reach a target frequency resolution.

    SNR = sqrt(atoms); one cycle resolves linewidth / (kappa * SNR) with
    kappa = LINE_SPLIT; averaging M cycles improves by sqrt(M).  Raises
    ValueError unless every argument is finite and > 0 and the count is
    within float range.
    """
    for name, value in (
        ("atoms", atoms), ("linewidth", linewidth_hz), ("target", target_resolution_hz)
    ):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    per_cycle = linewidth_hz / (LINE_SPLIT * math.sqrt(atoms))
    try:  # ** overflows, or ceil meets an inf quotient
        return max(1, math.ceil((per_cycle / target_resolution_hz) ** 2))
    except OverflowError:
        raise ValueError(
            f"cycle count for linewidth {linewidth_hz} Hz over target "
            f"{target_resolution_hz} Hz is past float range"
        ) from None


@dataclass(frozen=True)
class ErrorBudget:
    """Accuracy chain from a transition measurement to the clock's BBR term."""

    transition_id: str
    temperature_k: float
    transition_frequency_hz: float
    fractional_accuracy: float
    target_resolution_hz: float  # fractional accuracy expressed in Hz
    sensitivity_hz_per_k: float
    temperature_sigma_k: float
    total_linewidth_hz: float
    line_split_factor: float  # target resolution / total linewidth
    clock_fractional_uncertainty: float | None
    leverage: float | None  # Rydberg fractional sensitivity / clock's


def error_budget(
    upper: RydbergState,
    fractional_accuracy: float,
    temperature_k: float,
    lower: RydbergState | None = None,
    linewidth_hz: float | None = None,
    span: int = DEFAULT_SPAN,
) -> ErrorBudget:
    """Full error chain for a BBR thermometry transition.

    fractional accuracy -> Hz resolution -> temperature uncertainty via
    the transition's BBR sensitivity -> clock BBR uncertainty via the
    clock sensitivity constant of the species of ``upper``.  ``lower``
    defaults to that species' metastable state and must come from the
    same species file (ValueError otherwise); passed explicitly, it gives
    the same budget.  The frequency is the distance between the two
    ``level_energy_au`` levels.  The linewidth is the upper state's plus
    the lower's unless that is a clock state (mHz-scale), or
    ``linewidth_hz`` (e.g. to budget against an externally specified
    line).  The fractional accuracy must lie in (0, 1); the linewidth,
    when given, must be finite and > 0; the two states must differ, and
    differ in energy; and the transition's BBR sensitivity must not be
    zero (it is at T = 0, where no temperature uncertainty follows from a
    frequency resolution).
    """
    if not 0 < fractional_accuracy < 1:
        raise ValueError(
            f"fractional accuracy must lie in (0, 1), got {fractional_accuracy}"
        )
    if linewidth_hz is not None and not (
        math.isfinite(linewidth_hz) and linewidth_hz > 0
    ):
        raise ValueError(f"linewidth must be finite and > 0, got {linewidth_hz}")
    species = upper.species
    if lower is None:
        lower = species.metastable_state()
    tid = _transition_label(lower, upper)
    if upper == lower:
        raise ValueError(f"{tid}: the two states are the same")
    nu_hz = abs(level_energy_au(upper) - level_energy_au(lower)) * kconst.HARTREE_HZ
    if nu_hz == 0.0:
        raise ValueError(f"{tid}: the two states are degenerate")
    _, sens = transition_bbr_shift(
        species, upper, temperature_k, lower=lower, span=span, derivative=True
    )
    if sens == 0.0:
        raise ValueError(
            f"{tid}: the BBR sensitivity is zero at {temperature_k:g} K, so a "
            "frequency resolution bounds no temperature"
        )
    target_hz = fractional_accuracy * nu_hz
    sigma_t = abs(target_hz / sens)
    if linewidth_hz is None:
        linewidth_hz = linewidths(upper, temperature_k, span=span).total_hz
        if species.state_role(lower) is None:  # a clock width is mHz-scale
            linewidth_hz += linewidths(lower, temperature_k, span=span).total_hz
    split = target_hz / linewidth_hz if linewidth_hz > 0 else math.inf

    clock_frac: float | None = None
    leverage: float | None = None
    if species.clock_bbr_sensitivity_per_k is not None:
        clock_frac = sigma_t * species.clock_bbr_sensitivity_per_k
        ryd_frac_sens = abs(sens) / nu_hz
        leverage = ryd_frac_sens / species.clock_bbr_sensitivity_per_k
    return ErrorBudget(
        transition_id=tid,
        temperature_k=temperature_k,
        transition_frequency_hz=nu_hz,
        fractional_accuracy=fractional_accuracy,
        target_resolution_hz=target_hz,
        sensitivity_hz_per_k=sens,
        temperature_sigma_k=sigma_t,
        total_linewidth_hz=linewidth_hz,
        line_split_factor=split,
        clock_fractional_uncertainty=clock_frac,
        leverage=leverage,
    )
