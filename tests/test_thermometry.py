"""Thermometry: sensitivities, inversions, joint fits, error budgets."""

import dataclasses
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from rydtherm import bbr, polarizability, thermometry, transitions
from rydtherm.bbr import bbr_shift_fsums, bbr_shift_sum, linewidths
from rydtherm.polarizability import ResonanceGuardError, static_polarizability
from rydtherm.radial import RadialSolver
from rydtherm.species import Species
from rydtherm.thermometry import (
    ThermometryError,
    ThermometryMeasurement,
    error_budget,
    invert_temperature,
    joint_solve_temperature_field,
    measurement_budget,
    transition_bbr_shift,
    vdw_shift_estimate,
)


def _measure(sr, n, temperature_k, field_v_per_m=0.0, sigma=0.16):
    st = sr.state(n, "3D1")
    offset = transition_bbr_shift(sr, st, temperature_k)
    if field_v_per_m:
        alpha = static_polarizability(st).value_hz_m2_v2
        offset -= 0.5 * alpha * field_v_per_m**2
    return ThermometryMeasurement(st, offset, sigma)


# -- sensitivities -------------------------------------------------------------


def _sensitivity(species, state, temperature_k):
    return transition_bbr_shift(species, state, temperature_k, derivative=True)[1]


def test_transition_sensitivity_near_free_electron(sr):
    sens = _sensitivity(sr, sr.state(30, "3D1"), 300.0)
    assert sens == pytest.approx(16.07, rel=1e-2)


def _state_slope(state, temperature_k):
    return bbr_shift_sum(state, temperature_k).slope_hz_per_k


def test_state_sensitivities_n40(sr):
    assert _state_slope(sr.state(40, "3P0"), 300.0) == pytest.approx(16.22, rel=1e-2)
    assert _state_slope(sr.state(40, "3D1"), 300.0) == pytest.approx(16.09, rel=1e-2)


def test_sensitivity_zero_at_zero_temperature(sr):
    assert _state_slope(sr.state(30, "3D1"), 0.0) == 0.0


@pytest.mark.parametrize("temperature", [999.9, 1000.0])
def test_sensitivity_finite_at_top_of_range(sr, temperature):
    sens = _sensitivity(sr, sr.state(30, "3D1"), temperature)
    assert math.isfinite(sens) and sens > 0.0


@pytest.mark.parametrize(
    "species,n,series", [("sr", 30, "3D1"), ("sr", 25, "3S1"), ("yb", 25, "3P0")]
)
def test_analytic_slope_matches_central_difference(request, species, n, series):
    sp = request.getfixturevalue(species)
    st_ = sp.state(n, series)
    for t in np.linspace(5.0, 995.0, 20):
        h = min(1e-2 * t, 2.0)
        f = [transition_bbr_shift(sp, st_, t + k * h) for k in (-2, -1, 1, 2)]
        numeric = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
        _, slope = transition_bbr_shift(sp, st_, t, derivative=True)
        assert slope == pytest.approx(numeric, rel=1e-7), t


# The transition shift dips below zero at low T (measured: the slope is
# negative up to 18 K for Sr 25 3D1, 2.4 K for Sr 25 3S1, 1.5 K for Yb 25
# 3P0): there the static polarizability of the Rydberg state outweighs the
# free-electron term.  Above 20 K it rises for every state below.
_MONOTONE_FROM_K = 20.0
_THERMOMETRY_STATES = [
    (sp, n, series)
    for sp, series in (("sr", "3D1"), ("sr", "3S1"), ("yb", "3P0"))
    for n in range(25, 31)
]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    case=st.sampled_from(_THERMOMETRY_STATES),
    t1=st.floats(min_value=_MONOTONE_FROM_K, max_value=1000.0),
    t2=st.floats(min_value=_MONOTONE_FROM_K, max_value=1000.0),
)
def test_property_transition_shift_rises(sr, yb, case, t1, t2):
    sp_name, n, series = case
    sp = {"sr": sr, "yb": yb}[sp_name]
    state = sp.state(n, series)
    (f1, s1), (f2, s2) = (
        transition_bbr_shift(sp, state, t, derivative=True) for t in (t1, t2)
    )
    assert s1 > 0.0 and s2 > 0.0
    if t1 < t2:
        assert f1 < f2
    elif t2 < t1:
        assert f2 < f1


def test_low_temperature_dip(sr):
    # measured behaviour below _MONOTONE_FROM_K, kept visible: Sr 30 3D1
    # falls to about -3.4 Hz near 12 K, and such an offset has no
    # temperature on the rising branch to invert to
    state = sr.state(30, "3D1")
    shift_10k = transition_bbr_shift(sr, state, 10.0)
    assert shift_10k < 0.0
    assert _sensitivity(sr, state, 5.0) < 0.0
    with pytest.raises(ThermometryError, match="outside the invertible range"):
        invert_temperature(ThermometryMeasurement(state, shift_10k, 0.16))


def test_measurement_validation(sr):
    with pytest.raises(ValueError):
        ThermometryMeasurement(sr.state(30, "3D1"), 100.0, 0.0)
    m = ThermometryMeasurement(sr.state(30, "3D1"), 100.0, 0.1)
    assert m.transition_id == "Sr 5 3P0 -> 30 3D1"


@pytest.mark.parametrize(
    "offset_hz, sigma_hz",
    [(math.nan, 0.1), (math.inf, 0.1), (100.0, math.inf)],
)
def test_measurement_rejects_non_finite(sr, offset_hz, sigma_hz):
    with pytest.raises(ValueError, match="finite"):
        ThermometryMeasurement(sr.state(30, "3D1"), offset_hz, sigma_hz)


# -- single-transition inversion ------------------------------------------------


@pytest.mark.parametrize("true_t", [150.0, 300.0, 380.0])
def test_invert_round_trip(sr, true_t):
    sol = invert_temperature(_measure(sr, 30, true_t))
    assert abs(sol.temperature_k - true_t) < 1e-3
    assert max(abs(r) for r in sol.residuals_hz) < 1e-6
    assert sol.field_v_per_m == 0.0


def test_invert_sigma_is_ten_millikelvin(sr):
    sol = invert_temperature(_measure(sr, 30, 300.0, sigma=0.16))
    assert sol.sigma_temperature_k == pytest.approx(0.010, rel=0.05)


def test_invert_zero_offset_lands_cold(sr):
    # a zero offset pins the temperature below where BBR is resolvable
    sol = invert_temperature(_measure(sr, 30, 0.0))
    assert sol.temperature_k < 40.0


@pytest.mark.parametrize(
    "species,n,series,true_t",
    [
        ("sr", 27, "3D1", 982.99),
        ("sr", 30, "3D1", 998.5),
        ("yb", 25, "3P0", 999.5),
        ("sr", 30, "3D1", 1000.0),
    ],
)
def test_invert_near_top_of_range(request, species, n, series, true_t):
    sp = request.getfixturevalue(species)
    state = sp.state(n, series)
    offset = transition_bbr_shift(sp, state, true_t)
    sol = invert_temperature(ThermometryMeasurement(state, offset, 0.16))
    assert abs(sol.temperature_k - true_t) < 1e-3
    assert math.isfinite(sol.sigma_temperature_k)


@pytest.mark.parametrize("true_t", [50.0, 150.0, 300.0, 450.0, 900.0, 985.0])
def test_invert_iterations_from_default_seed(sr, true_t):
    # every offset of these is in the inverse proxy's range, whose seed
    # meets the stopping rule: no Newton step
    sol = invert_temperature(_measure(sr, 30, true_t))
    assert sol.iterations == 0
    assert abs(sol.temperature_k - true_t) < 1e-3


def _inversion_entry(solver, state):
    """The inversion's cached ((shift, slope) at 1000 K, inverse proxy)."""
    return solver._cache[("inversion", state._key, transitions.DEFAULT_SPAN)]


@pytest.mark.parametrize(
    "sp_name, n, series",
    [
        ("sr", 25, "3D1"), ("sr", 30, "3D1"), ("sr", 25, "3S1"), ("sr", 30, "3S1"),
        ("sr", 40, "3D1"), ("sr", 50, "3P1"), ("yb", 25, "3P0"), ("yb", 30, "3P0"),
    ],
)
def test_inverse_proxy_seeds_within_a_millikelvin(request, sp_name, n, series):
    # far within: the model at the seed meets the stopping rule at
    # sigma = 0.1 Hz, |shift - offset| <= 1e-7 Hz, everywhere on [40, 1000] K
    sp = request.getfixturevalue(sp_name)
    state = sp.state(n, series)
    solver = RadialSolver()
    top = transition_bbr_shift(sp, state, 1000.0, solver=solver)
    invert_temperature(ThermometryMeasurement(state, top, 0.16), solver=solver)
    _, proxy = _inversion_entry(solver, state)
    assert proxy[0] == transition_bbr_shift(sp, state, 40.0, solver=solver)
    for t in np.linspace(40.0, 1000.0, 193).tolist():
        offset = transition_bbr_shift(sp, state, t, solver=solver)
        # clamped into the range, as the inversion does
        seed = min(thermometry._proxy_temperature(proxy, offset), 1000.0)
        assert abs(seed - t) <= 1e-3, t
        residual = transition_bbr_shift(sp, state, seed, solver=solver) - offset
        assert abs(residual) <= thermometry.RESIDUAL_TOL * 0.1, t


# low states whose sampled shifts rise, but whose fit has rank 54 of 58:
# chebfit warned (RankWarning) on each
_RANK_DEFICIENT = {
    "sr": ((4, "1D2"),),
    "yb": ((5, "1D2"), (5, "3D1"), (5, "3D2"), (5, "3D3"), (4, "3F3"), (4, "3F4"),
           (6, "3P1"), (6, "3P2")),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sp_name", ["sr", "yb"])
def test_inverse_proxy_builds_warn_of_nothing(request, sp_name):
    # a warning would reach the stderr of every `rydtherm thermo invert`:
    # none for any series at n = 20 and 60, and a rank-deficient fit
    # leaves no proxy instead of warning
    sp = request.getfixturevalue(sp_name)
    solver = RadialSolver()

    def proxy_of(n, series):
        state = sp.state(n, series)
        return thermometry._inverse_proxy(
            lambda t: transition_bbr_shift(sp, state, t, solver=solver, derivative=True)
        )[1]

    built = sum(
        proxy_of(n, series) is not None
        for series in sp.series_labels() for n in (20, 60)
    )
    assert built > len(sp.series_labels())
    for n, series in _RANK_DEFICIENT[sp_name]:
        assert proxy_of(n, series) is None, (n, series)


@pytest.mark.filterwarnings("error")
def test_rank_deficient_state_inverts_from_the_seed(yb):
    # `thermo invert --species Yb --state 6:3P1 --offset-hz 1` printed the
    # RankWarning; with no proxy, Newton starts at SEED_K
    m = ThermometryMeasurement(yb.state(6, "3P1"), 1.0, 0.1)
    sol = invert_temperature(m, solver=RadialSolver())
    assert sol.iterations > 0
    assert abs(sol.residuals_hz[0]) <= thermometry.RESIDUAL_TOL * 0.1
    assert sol.temperature_k == pytest.approx(256.901085, abs=1e-5)


def test_seed_that_misses_the_rule_takes_a_step(yb):
    # at n < 25 and near 40 K the proxy is not within the rule: Yb 15 1S0
    # at 45 K seeds ~4e-6 Hz off, and Newton steps on the exact model
    state = yb.state(15, "1S0")
    solver = RadialSolver()
    m = ThermometryMeasurement(
        state, transition_bbr_shift(yb, state, 45.0, solver=solver), 0.1
    )
    sol = invert_temperature(m, solver=solver)
    proxy = _inversion_entry(solver, state)[1]
    seed = thermometry._proxy_temperature(proxy, m.offset_hz)
    miss = transition_bbr_shift(yb, state, seed, solver=solver) - m.offset_hz
    assert abs(miss) > thermometry.RESIDUAL_TOL * m.sigma_hz
    assert sol.iterations >= 1
    assert abs(sol.residuals_hz[0]) <= thermometry.RESIDUAL_TOL * m.sigma_hz
    assert abs(sol.temperature_k - 45.0) < 1e-6


@pytest.mark.parametrize("true_t", [100.0, 150.0, 321.0, 950.0])
def test_state_negative_at_40_k_inverts_from_its_seed(sr, true_t):
    # Sr 20 3D1's shift is below zero at 40 K, so it gets no proxy and
    # every inversion starts from SEED_K (300 K, which none of these is)
    state = sr.state(20, "3D1")
    solver = RadialSolver()
    assert transition_bbr_shift(sr, state, 40.0, solver=solver) < 0.0
    m = ThermometryMeasurement(
        state, transition_bbr_shift(sr, state, true_t, solver=solver), 0.16
    )
    sol = invert_temperature(m, solver=solver)
    assert _inversion_entry(solver, state)[1] is None
    assert abs(sol.temperature_k - true_t) < 1e-6
    assert sol.iterations >= 1


def _below_100_k(model):
    return lambda sp, st, t, **kw: tuple(
        a - b for a, b in zip(model(sp, st, t, **kw), model(sp, st, 100.0, **kw))
    )


def _flat_above_500_k(model):
    return lambda sp, st, t, **kw: (
        model(sp, st, t, **kw) if t < 500.0 else (model(sp, st, 500.0, **kw)[0], 0.0)
    )


@pytest.mark.parametrize("patch", [_below_100_k, _flat_above_500_k])
def test_no_proxy_unless_the_sampled_shifts_rise(sr, monkeypatch, patch):
    # a model negative at 40 K, or flat above 500 K, gets no proxy: the
    # inversion starts from its seed and still converges on the model
    model = patch(transition_bbr_shift)
    state = sr.state(30, "3D1")
    target = model(sr, state, 321.0, derivative=True)[0]
    monkeypatch.setattr(thermometry, "transition_bbr_shift", model)
    solver = RadialSolver()
    sol = invert_temperature(ThermometryMeasurement(state, target, 0.16), solver=solver)
    assert _inversion_entry(solver, state)[1] is None
    assert abs(sol.temperature_k - 321.0) < 1e-6
    assert sol.iterations > 1


def test_species_copy_gets_its_own_proxy(sr):
    # a copy whose 3D1 mu0 differs in the last digit shares no proxy with
    # the bundled file: its inversion on a shared solver is a fresh one's
    from rydtherm.species import bundled_species_path

    with open(bundled_species_path("sr"), "rb") as fh:
        content = fh.read()
    assert content.count(b"defect.3D1.mu0 = 2.658\n") == 1
    copy = Species(
        "copy.species",
        content.replace(b"defect.3D1.mu0 = 2.658\n", b"defect.3D1.mu0 = 2.659\n"),
    )
    state, copy_state = sr.state(30, "3D1"), copy.state(30, "3D1")
    offset = transition_bbr_shift(sr, state, 300.0)
    shared = RadialSolver()
    invert_temperature(ThermometryMeasurement(state, offset, 0.16), solver=shared)
    m = ThermometryMeasurement(copy_state, offset, 0.16)
    sol = invert_temperature(m, solver=shared)
    assert sol == invert_temperature(m, solver=RadialSolver())
    assert _inversion_entry(shared, copy_state) != _inversion_entry(shared, state)
    assert abs(sol.temperature_k - 300.0) > 1e-3


def test_invert_out_of_range_offset(sr):
    with pytest.raises(ThermometryError):
        invert_temperature(ThermometryMeasurement(sr.state(30, "3D1"), 1e9, 0.16))


@pytest.mark.parametrize("offset", [1e300, 1e6])
def test_out_of_range_message_names_the_shift_at_the_top(sr, offset):
    # the range used to be rebuilt as (shift - offset) + offset, which
    # cancels to [0, 0] at an offset of 1e300
    state = sr.state(30, "3D1")
    top = transition_bbr_shift(sr, state, 1000.0, derivative=True)[0]
    message = re.escape(f"invertible range [0, {top:.6g}] Hz for T in [0, 1000] K")
    with pytest.raises(ThermometryError, match=message):
        invert_temperature(ThermometryMeasurement(state, offset, 0.16))


# -- joint temperature + field fit ----------------------------------------------


def test_joint_recovers_temperature_and_field(sr):
    meas = [_measure(sr, n, 300.0, field_v_per_m=5.0) for n in (25, 30)]
    sol = joint_solve_temperature_field(meas)
    assert abs(sol.temperature_k - 300.0) < 3.0 * sol.sigma_temperature_k
    assert abs(sol.field_v_per_m - 5.0) < 3.0 * sol.sigma_field_v_per_m
    assert abs(sol.temperature_k - 300.0) < 1e-3
    assert abs(sol.field_v_per_m - 5.0) < 1e-3
    assert not sol.field_sq_clamped


def test_joint_zero_field_clamps_cleanly(sr):
    meas = [_measure(sr, n, 300.0) for n in (25, 30)]
    sol = joint_solve_temperature_field(meas)
    assert abs(sol.temperature_k - 300.0) < 1e-3
    assert sol.field_v_per_m == pytest.approx(0.0, abs=1e-3)


def test_joint_clamped_field_gives_the_zero_field_fit(sr):
    # -2 Hz on 30 3D1 asks for E^2 < 0: the reported T is the best fit
    # with E^2 held at 0, not the T of the negative-E^2 fit (300.037 K)
    low, high = _measure(sr, 25, 300.0), _measure(sr, 30, 300.0)
    meas = [low, ThermometryMeasurement(high.state, high.offset_hz - 2.0, 0.16)]
    sol = joint_solve_temperature_field(meas)
    assert sol.field_sq_clamped and sol.field_v_per_m == 0.0

    def chi2_slope(t):  # d(chi^2)/dT / -2 at E^2 = 0
        return sum(
            (m.offset_hz - shift) * slope / m.sigma_hz**2
            for m in meas
            for shift, slope in [transition_bbr_shift(sr, m.state, t, derivative=True)]
        )

    best = optimize.brentq(chi2_slope, 299.0, 301.0, xtol=1e-10)
    assert best == pytest.approx(299.9374, abs=1e-4)
    assert abs(sol.temperature_k - best) < 1e-6


def test_joint_order_invariance(sr):
    meas = [_measure(sr, n, 320.0, field_v_per_m=3.0) for n in (25, 30)]
    a = joint_solve_temperature_field(meas)
    b = joint_solve_temperature_field(list(reversed(meas)))
    assert a.temperature_k == pytest.approx(b.temperature_k, abs=1e-6)
    assert a.field_v_per_m == pytest.approx(b.field_v_per_m, abs=1e-6)


def test_joint_needs_two_distinct_states(sr):
    one = [_measure(sr, 30, 300.0)]
    with pytest.raises(ThermometryError):
        joint_solve_temperature_field(one)
    twins = [_measure(sr, 30, 300.0), _measure(sr, 30, 300.0)]
    with pytest.raises(ThermometryError):
        joint_solve_temperature_field(twins)


@pytest.mark.parametrize("scale", [-2.0, 3.0])
def test_joint_rejects_a_degenerate_design_matrix(sr, monkeypatch, scale):
    # alpha proportional to each state's BBR slope at the first iterate makes
    # the two Jacobian columns proportional: the Gram matrix has rank 1
    # (scale -2 exactly, 3 up to rounding)
    meas = [_measure(sr, 25, 300.0), _measure(sr, 30, 300.0)]
    slope = {m.state: _sensitivity(sr, m.state, thermometry.SEED_K) for m in meas}

    def alpha_like_slope(state, span=None, solver=None):
        return types.SimpleNamespace(value_hz_m2_v2=scale * slope[state])

    monkeypatch.setattr(thermometry, "static_polarizability", alpha_like_slope)
    with pytest.raises(ThermometryError, match="degenerate design matrix"):
        joint_solve_temperature_field(meas)


def test_joint_rejects_mixed_species(sr, yb):
    meas = [
        _measure(sr, 30, 300.0),
        ThermometryMeasurement(yb.state(30, "3P0"), 2000.0, 0.16),
    ]
    with pytest.raises(ThermometryError):
        joint_solve_temperature_field(meas)


def test_joint_species_compared_by_content(sr):
    # two Species parsed from the same bytes are one species, as for
    # transition_bbr_shift: the joint solve gives the one-object answer
    from rydtherm.species import Species, bundled_species_path

    with open(bundled_species_path("sr"), "rb") as fh:
        content = fh.read()
    twin = Species("twin.species", content)
    assert twin is not sr
    meas = [_measure(sr, n, 300.0, field_v_per_m=5.0) for n in (25, 30)]
    moved = ThermometryMeasurement(
        twin.state(30, "3D1"), meas[1].offset_hz, meas[1].sigma_hz
    )
    mixed = [meas[0], moved]
    assert joint_solve_temperature_field(mixed) == joint_solve_temperature_field(meas)


# -- one kernel call per model evaluation ----------------------------------------

_MERGE_TEMPERATURES_K = (0.0, 1e-3, 5.0, 50.0, 300.0, 777.7, 1000.0)


@pytest.mark.parametrize("sp_name, series", [("sr", "3D1"), ("sr", "3S1"), ("yb", "3P0")])
def test_transition_shift_is_the_difference_of_its_state_shifts(request, sp_name, series):
    # the transition's states share one kernel call; the kernel works
    # element by element, so each state's shift and slope are bitwise those
    # of its own call
    sp = request.getfixturevalue(sp_name)
    meta = sp.metastable_state()
    for n in range(25, 31):
        upper = sp.state(n, series)
        for lower in (None, meta, sp.state(25, series)):
            lo_state = meta if lower is None else lower
            for t in _MERGE_TEMPERATURES_K:
                up, lo = bbr_shift_sum(upper, t), bbr_shift_sum(lo_state, t)
                got = transition_bbr_shift(sp, upper, t, lower=lower, derivative=True)
                assert got == (
                    up.shift_hz - lo.shift_hz, up.slope_hz_per_k - lo.slope_hz_per_k
                ), (str(upper), str(lo_state), t)


def test_joint_solve_of_the_golden_input_is_unchanged(sr):
    # the measurements of tests/golden/meas_sr.csv; the values are those of
    # the solve in T alone with the field projected out in closed form
    # (math.fsum dot products), to the bit; its precision is pinned apart
    # from its arithmetic by test_joint_solve_recovers_its_own_model
    meas = [
        ThermometryMeasurement(sr.state(25, "3D1"), 3442.58218, 0.16),
        ThermometryMeasurement(sr.state(30, "3D1"), 7376.01495, 0.16),
    ]
    sol = joint_solve_temperature_field(meas)
    assert sol.temperature_k == float.fromhex("0x1.2c00000598194p+8")  # 300.00000033343645
    assert sol.field_v_per_m == 5.000000000384405
    assert sol.iterations == 2


@pytest.mark.parametrize("field_v_per_m", [0.05, 5.0])
@pytest.mark.parametrize("true_t", [50.0, 120.0, 300.0, 600.0, 900.0])
@pytest.mark.parametrize("sp_name, upper_states", [
    ("sr", ((25, "3D1"), (30, "3S1"))),
    ("yb", ((25, "3P0"), (30, "3P0"))),
    ("sr", ((25, "3D1"), (27, "3D1"), (30, "3D1"))),
])
def test_joint_solve_recovers_its_own_model(request, sp_name, upper_states, true_t,
                                             field_v_per_m):
    # offsets from the program's own model at (T0, E0): the solve returns
    # them to far below any sigma, whatever order its sums are taken in
    sp = request.getfixturevalue(sp_name)
    meas = []
    for n, series in upper_states:
        st = sp.state(n, series)
        offset = transition_bbr_shift(sp, st, true_t)
        offset -= 0.5 * static_polarizability(st).value_hz_m2_v2 * field_v_per_m**2
        meas.append(ThermometryMeasurement(st, offset, 0.16))
    sol = joint_solve_temperature_field(meas)
    assert abs(sol.temperature_k - true_t) <= 1e-9
    assert abs(sol.field_v_per_m - field_v_per_m) <= 1e-9
    assert not sol.field_sq_clamped


@pytest.fixture
def layer_calls(monkeypatch):
    """Calls made so far, by function name, to the kernel, the tail nodes,
    the radial table and the AC polarizability, as their callers reach them."""
    calls = {}

    def count(module, name):
        fn = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(bbr, "farley_wing_fast")
    count(bbr, "truncation_tail_shift")
    count(transitions, "build_transition_table")
    count(polarizability, "ac_polarizability")
    return calls


@pytest.fixture
def kernel_calls(layer_calls):
    """The number of ``farley_wing_fast`` calls made so far."""
    return lambda: layer_calls["farley_wing_fast"]


@pytest.mark.parametrize("temperature_k, calls", [(300.0, 1), (0.0, 0)])
def test_one_kernel_call_per_model_evaluation(sr, kernel_calls, temperature_k, calls):
    rydberg, meta = sr.state(30, "3D1"), sr.metastable_state()
    for state in (rydberg, meta):  # warm tables: a build calls no kernel
        bbr_shift_sum(state, temperature_k)
    for evaluate in (
        lambda: bbr_shift_sum(rydberg, temperature_k),
        lambda: bbr_shift_sum(meta, temperature_k),
        lambda: transition_bbr_shift(sr, rydberg, temperature_k, derivative=True),
        lambda: transition_bbr_shift(
            sr, rydberg, temperature_k, lower=sr.state(25, "3D1"), derivative=True
        ),
    ):
        before = kernel_calls()
        evaluate()
        assert kernel_calls() - before == calls


def test_one_kernel_call_per_joint_iterate(sr, kernel_calls):
    # three transitions share the metastable state: one call per iterate,
    # iterates 0 .. iterations
    meas = [_measure(sr, n, 300.0, field_v_per_m=5.0) for n in (25, 27, 30)]
    for m in meas:
        static_polarizability(m.state)
    before = kernel_calls()
    sol = joint_solve_temperature_field(meas)
    assert kernel_calls() - before == sol.iterations + 1


# -- temperature-independent parts built once per solver ---------------------------


def _calls_of(layer_calls, call) -> dict:
    """The calls ``call()`` makes, by function name."""
    before = dict(layer_calls)
    call()
    return {name: layer_calls[name] - before[name] for name in layer_calls}


def test_repeated_solves_rebuild_nothing(sr, layer_calls):
    solver = RadialSolver()
    m = _measure(sr, 30, 300.0)
    first = _calls_of(layer_calls, lambda: invert_temperature(m, solver=solver))
    sols = []
    again = _calls_of(
        layer_calls, lambda: sols.append(invert_temperature(m, solver=solver))
    )
    assert first["truncation_tail_shift"] > 0 and first["build_transition_table"] > 0
    # the first solve also evaluates the inverse proxy's nodes, 1000 K among
    # them; a warm one evaluates only its seed and one point per step
    assert first["farley_wing_fast"] == thermometry.PROXY_NODES + sols[0].iterations + 1
    assert again == {
        "farley_wing_fast": sols[0].iterations + 1,
        "truncation_tail_shift": 0,
        "build_transition_table": 0,
        "ac_polarizability": 0,
    }
    meas = [_measure(sr, n, 300.0, field_v_per_m=5.0) for n in (25, 30)]
    joint = _calls_of(
        layer_calls, lambda: joint_solve_temperature_field(meas, solver=solver)
    )
    assert joint["ac_polarizability"] == 2
    again = _calls_of(
        layer_calls, lambda: joint_solve_temperature_field(meas, solver=solver)
    )
    assert again["ac_polarizability"] == 0
    assert again["truncation_tail_shift"] == again["build_transition_table"] == 0


def test_warm_solves_build_no_state(sr, yb, monkeypatch):
    # the metastable state is one object per species, and a solve forms
    # its states once: a warm inversion or joint solve asks Species.state
    # for nothing
    solver = RadialSolver()
    m = _measure(sr, 30, 300.0)
    meas = [_measure(sr, n, 300.0, field_v_per_m=5.0) for n in (25, 30)]
    upper = yb.state(25, "3P0")
    yb_m = ThermometryMeasurement(upper, transition_bbr_shift(yb, upper, 77.0), 0.2)
    solves = [
        lambda: invert_temperature(m, solver=solver),
        lambda: invert_temperature(yb_m, solver=solver),
        lambda: joint_solve_temperature_field(meas, solver=solver),
    ]
    for solve in solves:
        solve()
    made = []
    state = Species.state

    def counted(self, n, series):
        made.append((self.name, n, series))
        return state(self, n, series)

    monkeypatch.setattr(Species, "state", counted)
    for solve in solves:
        for _ in range(2):
            solve()
    assert made == []
    assert sr.metastable_state() is sr.clock_state("metastable")
    assert yb.clock_state("ground") is yb.clock_state("ground")
    assert made == []


@pytest.mark.parametrize(
    "offset_at_k, sigma_hz",
    [(297.3, 0.16), (50.0, 0.16), (977.3, 0.16), (1000.0, 0.16), (297.3, 1e-9)],
    ids=["297.3", "50.0", "977.3", "1000.0", "297.3-sigma-1e-09"],
)
def test_every_inversion_model_evaluation_is_a_traced_call(
    sr, kernel_calls, monkeypatch, offset_at_k, sigma_hz
):
    # perfbench's thermometry.model layer wraps the module-global
    # transition_bbr_shift: every model evaluation of a warm inversion
    # must go through it, one kernel call each
    solver = RadialSolver()
    state = sr.state(30, "3D1")
    m = ThermometryMeasurement(
        state, transition_bbr_shift(sr, state, offset_at_k, solver=solver), sigma_hz
    )
    invert_temperature(m, solver=solver)
    calls = []
    model = thermometry.transition_bbr_shift

    def counted(*args, **kwargs):
        calls.append(args[2])
        return model(*args, **kwargs)

    monkeypatch.setattr(thermometry, "transition_bbr_shift", counted)
    kernel_before = kernel_calls()
    sol = invert_temperature(m, solver=solver)
    # the seed's evaluation and one per step; none when the offset is the
    # top of the range, whose shift is kept.  At 0.16 Hz the proxy's seed
    # meets the residual rule; no seed meets a 1e-15 Hz rule, so Newton
    # steps, and every step's evaluation is traced too
    if offset_at_k == 1000.0:
        expect = 0
    elif sigma_hz == 0.16:
        expect = 1
        assert sol.iterations == 0
    else:
        expect = sol.iterations + 1
        assert sol.iterations > 0
    assert len(calls) == expect
    assert kernel_calls() - kernel_before == expect
    assert sol.temperature_k in calls or expect == 0


def _hexed(value):
    """``value`` with every float as ``float.hex``, through nested tuples."""
    if isinstance(value, tuple):
        return tuple(_hexed(v) for v in value)
    return float.hex(value) if isinstance(value, float) else value


def _outcome(solve):
    """Every field of ``solve()``'s solution, floats as hex, or the type and
    message of the error it raised."""
    try:
        sol = solve()
    except (ThermometryError, ResonanceGuardError) as exc:
        return type(exc), str(exc)
    return {f.name: _hexed(getattr(sol, f.name)) for f in dataclasses.fields(sol)}


def _cold_warm_fresh(solve):
    """Outcomes of ``solve(solver)``: twice on one new solver, then on
    another new solver."""
    warm = RadialSolver()
    return [_outcome(lambda: solve(s)) for s in (warm, warm, RadialSolver())]


@pytest.mark.parametrize(
    "sp_name, n, series",
    [("sr", 25, "3D1"), ("sr", 30, "3D1"), ("sr", 30, "3S1"), ("yb", 25, "3P0")],
)
def test_warm_inversion_equals_a_fresh_one(request, sp_name, n, series):
    sp = request.getfixturevalue(sp_name)
    state = sp.state(n, series)
    top = transition_bbr_shift(sp, state, 1000.0)
    for offset in (top, transition_bbr_shift(sp, state, 300.0), 1.5 * top):
        m = ThermometryMeasurement(state, offset, 0.16)
        cold, warm, fresh = _cold_warm_fresh(lambda s: invert_temperature(m, solver=s))
        assert cold == warm == fresh, offset
        if offset == top:
            assert (warm["temperature_k"], warm["iterations"]) == ((1000.0).hex(), 0)
        if offset > top:
            assert warm[0] is ThermometryError


@pytest.mark.parametrize(
    "sp_name, upper_states",
    [
        ("sr", ((25, "3D1"), (30, "3D1"))),
        ("sr", ((30, "3D1"), (30, "3S1"))),
        ("yb", ((25, "3P0"), (30, "3P0"))),
        # zero-frequency channels (l-degenerate levels): alpha(0) is guarded
        ("hydrogen", ((25, "1P1"), (30, "1P1"))),
    ],
)
def test_warm_joint_solve_equals_a_fresh_one(request, sp_name, upper_states):
    sp = request.getfixturevalue(sp_name)
    states = [sp.state(n, series) for n, series in upper_states]
    if sp_name == "hydrogen":  # no metastable state: any offsets
        meas = [ThermometryMeasurement(st, 1.0, 0.16) for st in states]
    else:
        meas = []
        for st in states:
            offset = transition_bbr_shift(sp, st, 300.0)
            offset -= 0.5 * static_polarizability(st).value_hz_m2_v2 * 0.05**2
            meas.append(ThermometryMeasurement(st, offset, 0.16))
    cold, warm, fresh = _cold_warm_fresh(
        lambda s: joint_solve_temperature_field(meas, solver=s)
    )
    assert cold == warm == fresh
    if sp_name == "hydrogen":
        assert warm[0] is ResonanceGuardError


def test_span_keys_admit_only_integers(sr):
    # cache keys hold the span: 2.0 == 2 and True == 1 hash alike, so each
    # call must reject them before it looks up an entry made for 2 or 1
    solver = RadialSolver()
    state, meta = sr.state(30, "3D1"), sr.metastable_state()
    # offsets at the top of each span's range, which the kept shift at the
    # top alone inverts; 2.0 and True find these entries too
    at_top = {
        span: ThermometryMeasurement(
            state, transition_bbr_shift(sr, state, 1000.0, span=span), 0.16
        )
        for span in (1, 2)
    }
    calls = {
        "bbr_shift_fsums": lambda span: bbr_shift_fsums(
            [meta, state], 300.0, span=span, solver=solver
        ),
        "transition_bbr_shift": lambda span: transition_bbr_shift(
            sr, state, 300.0, span=span, solver=solver
        ),
        "invert_temperature": lambda span: invert_temperature(
            at_top.get(span, at_top[2]), span=span, solver=solver
        ),
        "static_polarizability": lambda span: static_polarizability(
            state, span=span, solver=solver
        ),
    }
    for name, call in calls.items():
        at_two = call(2)
        call(1)
        for span in (2.0, True, "3"):
            with pytest.raises(ValueError, match="span must be an integer"):
                call(span)
        assert call(np.int64(2)) == at_two, name
    alpha = static_polarizability(state, span=2, solver=solver)
    assert static_polarizability(state, span=np.int64(2), solver=solver) is alpha


# -- interaction shifts and cycle budgets ----------------------------------------


def test_vdw_reference_point():
    assert vdw_shift_estimate(25, 4.0) == pytest.approx(1.0, rel=1e-12)
    # (n/25)^11 and (4 um / a)^6 scalings
    assert vdw_shift_estimate(50, 8.0) == pytest.approx(2**11 / 2**6, rel=1e-12)
    with pytest.raises(ValueError):
        vdw_shift_estimate(10, 4.0)
    with pytest.raises(ValueError):
        vdw_shift_estimate(25, 0.0)
    # non-finite input names its argument; a shift past float range raises
    for n, spacing, message in (
        (25, math.nan, "spacing"), (25, math.inf, "spacing"),
        (math.nan, 4.0, "n >= 15"), (math.inf, 4.0, "n >= 15"),
        (1e30, 4.0, "float range"), (25, 1e-60, "float range"),
        (25, 1e-310, "float range"),
    ):
        with pytest.raises(ValueError, match=message):
            vdw_shift_estimate(n, spacing)


def test_measurement_budget_cycles():
    # 3.5 kHz line split to 0.16 Hz with 1e4 atoms per cycle
    cycles = measurement_budget(1.0e4, 3500.0, 0.16)
    assert cycles == 47852
    # a narrower line cuts quadratically
    assert measurement_budget(1.0e4, 1750.0, 0.16) == 11963
    assert measurement_budget(1.0e12, 1.0, 1.0) == 1
    # every argument finite and > 0, and a count within float range
    for args, message in (
        ((1e3, math.inf, 1.0), "linewidth"), ((1e3, math.nan, 1.0), "linewidth"),
        ((math.inf, 1.0, 1.0), "atoms"), ((1e3, 1.0, math.nan), "target"),
        ((1e3, 1.0, 0.0), "target"), ((1e3, 1.0, 1e-300), "float range"),
        ((5e-324, 1e300, 1.0), "float range"),
    ):
        with pytest.raises(ValueError, match=message):
            measurement_budget(*args)


# -- full error budget ------------------------------------------------------------


def test_error_budget_chain(sr):
    eb = error_budget(
        sr.state(30, "3D1"), 1.7e-16, 300.0, linewidth_hz=3500.0
    )
    assert eb.transition_id == "Sr 5 3P0 -> 30 3D1"
    assert eb.transition_frequency_hz == pytest.approx(9.434e14, rel=1e-3)
    assert eb.target_resolution_hz == pytest.approx(0.1604, rel=1e-3)
    assert eb.temperature_sigma_k == pytest.approx(0.00998, rel=1e-2)
    assert eb.line_split_factor == pytest.approx(0.1604 / 3500.0, rel=1e-3)
    assert eb.clock_fractional_uncertainty == pytest.approx(7.3e-19, rel=0.02)
    assert eb.leverage > 100.0


def test_error_budget_computes_linewidth_when_not_given(sr):
    eb = error_budget(sr.state(30, "3D1"), 1.7e-16, 300.0)
    assert eb.total_linewidth_hz > 100.0
    assert 0.0 < eb.line_split_factor < 1.0


@pytest.mark.parametrize("name, n, series", [("sr", 30, "3D1"), ("yb", 30, "3P0")])
def test_error_budget_explicit_metastable_is_default(request, name, n, series):
    # one level rule and one width rule: spelling out the default lower
    # state changes no field (the frequency keeps the clock level, and the
    # clock state's mHz width stays out)
    species = request.getfixturevalue(name)
    upper = species.state(n, series)
    default = error_budget(upper, 1.7e-16, 300.0)
    explicit = error_budget(upper, 1.7e-16, 300.0, lower=species.metastable_state())
    assert explicit == default


def test_error_budget_rydberg_rydberg_route(sr):
    eb = error_budget(
        sr.state(40, "3D1"), 1.0e-13, 300.0, lower=sr.state(40, "3P0")
    )
    assert eb.transition_id == "Sr 40 3P0 -> 40 3D1"
    # microwave-scale interval
    assert eb.transition_frequency_hz < 1.0e12
    assert eb.sensitivity_hz_per_k == pytest.approx(
        _state_slope(sr.state(40, "3D1"), 300.0)
        - _state_slope(sr.state(40, "3P0"), 300.0),
        rel=1e-6,
    )
    # a Rydberg lower state's width counts; a clock state's would not
    assert eb.total_linewidth_hz == (
        linewidths(sr.state(40, "3D1"), 300.0).total_hz
        + linewidths(sr.state(40, "3P0"), 300.0).total_hz
    )


@pytest.mark.parametrize("lower", [None, (40, "3P0")])
def test_error_budget_at_zero_temperature_names_zero_sensitivity(sr, lower):
    # every slope is exactly 0 at 0 K: no temperature uncertainty follows
    # from a frequency resolution, and none is reported as infinite
    lower_state = sr.state(*lower) if lower else None
    assert _sensitivity(sr, sr.state(30, "3D1"), 0.0) == 0.0
    with pytest.raises(ValueError, match="sensitivity is zero at 0 K"):
        error_budget(sr.state(30, "3D1"), 1.7e-16, 0.0, lower=lower_state)


def test_error_budget_validation(sr, hydrogen):
    with pytest.raises(ValueError):
        error_budget(sr.state(30, "3D1"), -1.0, 300.0)
    # no transition: one state twice (the default lower state is the
    # metastable one), or two degenerate states
    same = sr.state(30, "3D1")
    with pytest.raises(ValueError, match="the same"):
        error_budget(same, 1e-16, 300.0, lower=same)
    with pytest.raises(ValueError, match="the same"):
        error_budget(sr.metastable_state(), 1e-16, 300.0)
    with pytest.raises(ValueError, match="degenerate"):
        error_budget(
            hydrogen.state(30, "1S0"), 1e-13, 300.0,
            lower=hydrogen.state(30, "1P1"),
        )


@pytest.mark.parametrize("call", ["upper", "lower", "budget"])
def test_transition_of_two_species_is_refused(sr, yb, call):
    # a transition lies within one atom: a state of another species file,
    # upper or lower, raises instead of mixing two atoms' shifts
    st = sr.state(30, "3D1")
    run = {
        "upper": lambda: transition_bbr_shift(yb, st, 300.0),
        "lower": lambda: transition_bbr_shift(
            sr, st, 300.0, lower=yb.metastable_state()
        ),
        "budget": lambda: error_budget(
            st, 1.7e-16, 300.0, lower=yb.state(30, "3S1")
        ),
    }[call]
    with pytest.raises(ValueError, match="another species file"):
        run()
