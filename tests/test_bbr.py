"""BBR Stark shifts: thermal field, clock states, Rydberg plateau, widths."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import integrate

from rydtherm import bbr
from rydtherm import constants as k
from rydtherm import load_species
from rydtherm.bbr import (
    TEMPERATURE_RANGE_K,
    bbr_depopulation_rate,
    bbr_shift_integral,
    bbr_shift_sum,
    farley_wing_fast,
    farley_wing_zero,
    free_electron_sensitivity,
    free_electron_shift,
    linewidths,
    natural_linewidth,
    planck_spectral_density,
    static_limit_shift,
)
from rydtherm.species import bundled_species_path
from rydtherm.transitions import channel_table


# -- thermal field -----------------------------------------------------------


def test_planck_peak_location():
    t = 300.0
    kt = k.KB_AU * t
    u = np.linspace(1.5, 4.5, 2001)
    dens = [planck_spectral_density(x * kt, t) for x in u]
    assert u[int(np.argmax(dens))] == pytest.approx(2.8214, abs=5e-3)


def test_planck_density_vanishes_at_zero_temperature():
    # T = 0, and a T whose k_B T underflows to 0, take the early return
    # instead of dividing by k_B T
    for t in (0.0, 5e-324):
        assert planck_spectral_density(0.05, t) == 0.0


def _field_sq(temperature_k):
    # squared-amplitude spectral density integrated over omega, in a.u.
    kt = k.KB_AU * temperature_k
    value, _ = integrate.quad(
        planck_spectral_density, 0.0, 60.0 * kt, args=(temperature_k,),
        epsabs=0.0, epsrel=1e-12, limit=200,
    )
    return value


def test_rms_field_room_temperature():
    # the classic 831.9 V/m blackbody field at 300 K; this also pins the
    # normalization of the spectral density that the PV-integral route uses
    rms_au = math.sqrt(_field_sq(300.0) / 2.0)
    assert rms_au * k.ATOMIC_FIELD_V_PER_M == pytest.approx(831.9, rel=5e-3)
    # <E^2> = (8 pi^3/15)(kT)^4/c^3 scales as T^4 (abs=0: the values are
    # far below pytest's default absolute tolerance of 1e-12)
    assert _field_sq(300.0) == pytest.approx(
        8.0 * math.pi**3 / 15.0 * (k.KB_AU * 300.0) ** 4 / k.C_AU**3, rel=1e-12, abs=0.0
    )
    assert _field_sq(600.0) == pytest.approx(16.0 * _field_sq(300.0), rel=1e-12, abs=0.0)


def test_free_electron_values():
    assert free_electron_shift(300.0) == pytest.approx(2416.7, rel=1e-3)
    assert free_electron_sensitivity(300.0) == pytest.approx(16.111, rel=1e-3)
    # shift ~ T^2, sensitivity ~ T
    assert free_electron_shift(600.0) == pytest.approx(
        4.0 * free_electron_shift(300.0), rel=1e-12
    )
    assert free_electron_shift(0.0) == 0.0


def test_temperature_validation(sr):
    lo, hi = TEMPERATURE_RANGE_K
    with pytest.raises(ValueError):
        free_electron_shift(lo - 1.0)
    with pytest.raises(ValueError):
        bbr_shift_sum(sr.state(30, "3S1"), hi + 1.0)


# -- clock states (line-list route) ------------------------------------------


def test_clock_state_shifts(sr):
    ground = bbr_shift_sum(sr.state(5, "1S0"), 300.0)
    meta = bbr_shift_sum(sr.metastable_state(), 300.0)
    assert ground.shift_hz == pytest.approx(-1.7009, rel=1e-3)
    assert meta.shift_hz == pytest.approx(-4.0889, rel=1e-3)
    assert ground.converged and meta.converged
    assert ground.method == "sum"


def test_clock_shift_t4_scaling(sr):
    st = sr.state(5, "1S0")
    s200 = bbr_shift_sum(st, 200.0).shift_hz
    s400 = bbr_shift_sum(st, 400.0).shift_hz
    slope = math.log(s400 / s200) / math.log(2.0)
    assert slope == pytest.approx(4.0, abs=5e-3)


def test_static_limit_consistency(sr):
    # ground state at 300 K sits deep in the static regime
    from rydtherm.polarizability import static_polarizability

    st = sr.state(5, "1S0")
    alpha = static_polarizability(st).value_au
    assert bbr_shift_sum(st, 300.0).shift_hz == pytest.approx(
        static_limit_shift(alpha, 300.0), rel=1e-2
    )
    # the metastable state has a low-lying IR line, so its dynamic
    # correction is visible at 300 K; at 100 K it is static again
    meta = sr.metastable_state()
    alpha_m = static_polarizability(meta).value_au
    assert bbr_shift_sum(meta, 100.0).shift_hz == pytest.approx(
        static_limit_shift(alpha_m, 100.0), rel=1e-2
    )


def test_zero_temperature_is_zero(sr):
    rydberg, clock = sr.state(30, "3S1"), sr.state(5, "1S0")
    for route in (bbr_shift_sum, bbr_shift_integral):
        res = route(rydberg, 0.0)
        assert res.shift_hz == 0.0
        assert res.converged
        # the table's f_missing at every temperature; a line list has none
        assert res.f_missing == channel_table(rydberg).f_missing > 0.0
        assert res.f_missing == route(rydberg, 1e-6).f_missing
        assert route(clock, 0.0).shift_hz == 0.0
        assert route(clock, 0.0).f_missing is None


@pytest.mark.parametrize("temperature", [1e-6, 1e-300, 5e-324])
def test_near_zero_temperature_is_finite(sr, temperature):
    # omega/kT beyond ~2e9 takes the kernel's asymptotic series past the
    # double range, and k_B T underflows to 0 at 5e-324 K; all three
    # temperatures are inside the supported range
    for st in (sr.state(5, "3P0"), sr.state(30, "3D1")):
        for route in (bbr_shift_sum, bbr_shift_integral):
            assert abs(route(st, temperature).shift_hz) < 1e-20
    assert bbr_depopulation_rate(sr.state(30, "3D1"), temperature) == 0.0


# -- Rydberg states (channel-table route) ------------------------------------


def test_sum_and_integral_routes_agree(sr):
    # worst measured disagreement 7.0e-14 (30 3D1)
    for n, series in [(20, "3S1"), (30, "3D1"), (45, "3P1")]:
        st = sr.state(n, series)
        a = bbr_shift_sum(st, 300.0).shift_hz
        b = bbr_shift_integral(st, 300.0).shift_hz
        assert b == pytest.approx(a, rel=5e-13)


@pytest.mark.parametrize(
    "n,series,temperatures",
    [(30, "3D1", (33.0, 42.0, 100.0, 1000.0)), (5, "3P0", (0.4, 1.0, 30.0, 1000.0))],
)
def test_routes_agree_to_c05_tolerance_above_their_floor(sr, n, series, temperatures):
    # the floors of bbr_shift_integral's docstring: on a 160-point grid up
    # to 1000 K the last disagreement past c05's 1.5e-12 lies at 31.9 K
    # (30 3D1, near the shift's zero at 22.2 K) and at 0.36 K (5 3P0, where
    # the shift is -8e-12 Hz); the worst agreement above is 1.1e-12
    st = sr.state(n, series)
    for t in temperatures:
        a = bbr_shift_sum(st, t).shift_hz
        b = bbr_shift_integral(st, t).shift_hz
        assert abs(a - b) < 1.5e-12 * max(abs(a), 1e-12), t


def _with_metastable_lines(path, lines):
    """Load the bundled Sr file, written to ``path`` with its metastable
    line list replaced by ``lines``, (omega_au, d_au) pairs; the list's
    core term is kept."""
    text = Path(bundled_species_path("sr")).read_text(encoding="utf-8")
    text, count = re.subn(r"^bbrline\.metastable\.\d+\..*\n", "", text, flags=re.M)
    assert count == 10
    entries = "".join(
        f"bbrline.metastable.{i}.omega_au = {w!r}\nbbrline.metastable.{i}.d_au = {d!r}\n"
        for i, (w, d) in enumerate(lines, 1)
    )
    core = "bbrline.metastable.core_alpha_au"
    text = text.replace(core, entries + core)
    path.write_text(text, encoding="utf-8")
    return load_species(str(path))


def _channel_size_hz(table, temperature_k):
    # sum over channels of the factor before F in a channel's shift
    kt = k.KB_AU * temperature_k
    return 2.0 / (math.pi * k.C_AU**3) * kt**3 * float(table.z2.sum()) * k.HARTREE_HZ


def test_integral_route_accepts_a_channel_at_the_kernel_zero(sr, tmp_path):
    # Sr's first metastable line made large and moved to y = 2.6162, where
    # F and so its shift pass through zero: its quadrature error (2e-9 Hz)
    # is 5e-11 of its size (47 Hz), but was refused against a 1e-9 Hz floor
    listed = sr.line_lists["metastable"]
    lines = [(farley_wing_zero() * k.KB_AU * 300.0, 10.0)]
    lines += zip(listed.omega_au[1:], listed.d_au[1:])
    state = _with_metastable_lines(tmp_path / "sr.species", lines).metastable_state()
    a = bbr_shift_sum(state, 300.0)
    b = bbr_shift_integral(state, 300.0)
    assert a.shift_hz == pytest.approx(-1.5906, abs=1e-4)
    assert abs(a.shift_hz - b.shift_hz) < 1e-11 * _channel_size_hz(channel_table(state), 300.0)


# the property test's bound on |sum - integral| in units of the summed
# channel sizes: a scan of 45,000 single channels (y from 1e-3 to 1e4, z^2
# from 1e-2 to 1e2, 20 to 1000 K, a fifth within 1e-3 of F's zero) found
# at most 3.1e-12 (near y = 2.03), about the kernel table's error in F
_ROUTE_BOUND = 5e-12
_Y_ZERO = farley_wing_zero()


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    lines=hst.lists(
        hst.tuples(
            hst.one_of(
                hst.floats(-3.0, 4.0).map(lambda e: 10.0**e),
                hst.floats(-1e-3, 1e-3).map(lambda dy: _Y_ZERO + dy),
            ),
            hst.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        ),
        min_size=1,
        max_size=4,
    ),
    temperature=hst.floats(20.0, 1000.0),
)
def test_routes_agree_on_random_line_lists(tmp_path_factory, lines, temperature):
    # lines are (y = omega/kT, z^2) of the metastable (J = 0) state, whose
    # shift can cancel to near zero: the bound is on the channel sizes
    kt = k.KB_AU * temperature
    path = tmp_path_factory.getbasetemp() / "random_lines.species"
    species = _with_metastable_lines(
        path, [(y * kt, math.sqrt(3.0 * z2)) for y, z2 in lines]
    )
    state = species.metastable_state()
    a = bbr_shift_sum(state, temperature)
    b = bbr_shift_integral(state, temperature)
    assert a.tail_hz == b.tail_hz == 0.0
    size = _channel_size_hz(channel_table(state), temperature)
    assert abs(a.shift_hz - b.shift_hz) <= _ROUTE_BOUND * size


def test_integral_route_channels_never_read_the_kernel(sr, monkeypatch):
    # the cross-check holds only while the PV route's channel terms are
    # independent of F; its tail is folded through the kernel on purpose
    real = farley_wing_fast

    def perturbed(y, derivative=False):
        f, df = real(y, derivative=True)
        return (f * (1.0 + 1e-3), df) if derivative else f * (1.0 + 1e-3)

    states = (sr.state(30, "3D1"), sr.state(5, "3P0"))
    before = [(bbr_shift_sum(s, 300.0), bbr_shift_integral(s, 300.0)) for s in states]
    monkeypatch.setattr(bbr, "farley_wing_fast", perturbed)
    after = [(bbr_shift_sum(s, 300.0), bbr_shift_integral(s, 300.0)) for s in states]
    for (sum0, int0), (sum1, int1) in zip(before, after):
        assert int1.channel_hz == int0.channel_hz
        assert sum1.channel_hz != sum0.channel_hz
    rydberg_int0, rydberg_int1 = before[0][1], after[0][1]
    assert rydberg_int1.tail_hz != rydberg_int0.tail_hz


@pytest.mark.parametrize("n,series", [(5, "3P0"), (5, "1S0"), (30, "3D1"), (12, "3S1")])
def test_slope_matches_central_difference(sr, n, series):
    # channels, tail nodes and the static core term are differentiated
    # analytically; compare with a 5-point central difference of the shift
    st = sr.state(n, series)
    for t in (40.0, 300.0, 990.0):
        h = min(1e-2 * t, 2.0)
        f = [bbr_shift_sum(st, t + k * h).shift_hz for k in (-2, -1, 1, 2)]
        numeric = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
        assert bbr_shift_sum(st, t).slope_hz_per_k == pytest.approx(numeric, rel=1e-7)


def test_slope_field_by_route(sr):
    st = sr.state(30, "3D1")
    assert bbr_shift_integral(st, 300.0).slope_hz_per_k is None
    assert bbr_shift_sum(st, 0.0).slope_hz_per_k == 0.0
    assert bbr_shift_sum(st, 300.0).slope_hz_per_k == pytest.approx(
        free_electron_sensitivity(300.0), rel=0.05
    )


def test_span_insensitivity(sr):
    st = sr.state(30, "3S1")
    a = bbr_shift_sum(st, 300.0, span=35).shift_hz
    b = bbr_shift_sum(st, 300.0, span=45).shift_hz
    assert b == pytest.approx(a, rel=1e-3)


def test_result_bookkeeping(sr):
    state = sr.state(30, "3S1")
    res = bbr_shift_sum(state, 300.0)
    assert res.shift_hz == pytest.approx(res.channel_hz + res.tail_hz, rel=1e-12)
    assert 0.0 <= res.f_missing < 0.5
    assert res.span == 35
    assert res.converged
    # the per-channel breakdown is rebuilt from the table and the kernel
    table = channel_table(state)
    assert len(table.channel_ids) > 10
    kt = k.KB_AU * 300.0
    terms = -2.0 / (math.pi * k.C_AU**3) * kt**3 * table.z2 * farley_wing_fast(
        table.omega_au / kt
    )
    assert res.channel_hz == pytest.approx(
        math.fsum((terms * k.HARTREE_HZ).tolist()), rel=1e-14
    )


_PLATEAU_CASES = []
for _t in (200.0, 300.0, 400.0):
    for _n in (30, 40):
        for _series in ("3S1", "3P0", "3P1", "3P2", "3D1", "3D2", "3D3"):
            marks = ()
            if _t == 200.0 and _n == 30 and _series in ("3P0", "3P1", "3P2", "3D1"):
                # colder spectrum leans on the near-degenerate fine-structure
                # channels of low-L states: the free-electron plateau is not
                # yet reached at n = 30 for 200 K
                marks = pytest.mark.xfail(
                    reason="plateau onset is slower at 200 K for this series",
                    strict=True,
                )
            _PLATEAU_CASES.append(pytest.param(_t, _n, _series, marks=marks))


@pytest.mark.parametrize("temperature,n,series", _PLATEAU_CASES)
def test_rydberg_plateau(sr, temperature, n, series):
    shift = bbr_shift_sum(sr.state(n, series), temperature).shift_hz
    fe = free_electron_shift(temperature)
    assert shift == pytest.approx(fe, rel=0.05)


def test_low_nd_states_shift_down(sr):
    # compact d states are polarizable downward: negative BBR shift below n=9
    for series in ("3D1", "3D2", "3D3"):
        for n in range(4, 9):
            assert bbr_shift_sum(sr.state(n, series), 300.0).shift_hz < 0.0


# -- linewidths ----------------------------------------------------------------


def test_depopulation_monotone_in_temperature(sr):
    st = sr.state(25, "3D1")
    rates = [bbr_depopulation_rate(st, t) for t in (200.0, 300.0, 400.0)]
    assert rates[0] < rates[1] < rates[2]
    assert bbr_depopulation_rate(st, 0.0) == 0.0


def test_linewidth_result_consistency(sr):
    lw = linewidths(sr.state(40, "3D1"), 300.0)
    assert lw.natural_hz > 0
    assert lw.bbr_hz > 0
    assert lw.total_hz == pytest.approx(lw.natural_hz + lw.bbr_hz, rel=1e-12)
    assert lw.natural_hz == pytest.approx(natural_linewidth(sr.state(40, "3D1")), rel=1e-12)


def test_natural_width_drops_with_n(sr):
    # radiative decay slows as the orbit grows
    widths = [natural_linewidth(sr.state(n, "3D1")) for n in (25, 32, 40)]
    assert widths[0] > widths[1] > widths[2]
