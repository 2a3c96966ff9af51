"""Frequency/wavelength/intensity/polarizability unit helpers.

Polarizability-unit oracles are rebuilt here from the constants so a sign
or inversion slip cannot hide behind its own definition.
"""

import math

import pytest

from rydtherm import constants as k
from rydtherm import units
from rydtherm.cli import EXIT_USAGE, main
from rydtherm.polarizability import PolarizabilityResult


def _result(value_au):
    return PolarizabilityResult(
        state_str="test", omega_au=0.0, m_j=None, value_au=value_au, tail_au=0.0,
        nearest_resonance_id=None, nearest_detuning_au=math.inf,
    )


def test_wavelength_omega_round_trip():
    lam = 1203.0
    omega = units.wavelength_nm_to_omega_au(lam)
    assert units.omega_au_to_wavelength_nm(omega) == pytest.approx(lam, rel=1e-13)


def test_omega_one_au_wavelength():
    # hbar omega = 1 hartree corresponds to 2 pi a0 / alpha = 45.5633... nm
    lam = 2.0 * math.pi * k.BOHR_M * k.C_AU * 1e9
    assert units.wavelength_nm_to_omega_au(lam) == pytest.approx(1.0, rel=1e-12)


def test_frequency_omega_maps_hartree():
    assert units.frequency_hz_to_omega_au(k.HARTREE_HZ) == pytest.approx(
        1.0, rel=1e-12
    )


def test_polarizability_hz_m2_v2_oracle():
    # 1 a.u. of alpha shifts a level by -(1/2) E^2 hartree per (a.u. field)^2;
    # expressed per (V/m)^2 that is HARTREE_HZ / ATOMIC_FIELD^2 in Hz
    expected = k.HARTREE_HZ / k.ATOMIC_FIELD_V_PER_M**2
    assert _result(1.0).value_hz_m2_v2 == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(2.48832e-8, rel=1e-5)


def test_polarizability_khz_per_kw_cm2_oracle():
    # light shift of a low-field seeker: -(1/4) alpha E0^2, so alpha = 1 a.u.
    # at 1 kW/cm^2 gives a small negative kHz-scale shift; I = (1/2) eps0 c
    # E0^2 for E(t) = E0 cos(wt), and 1 kW/cm^2 = 1e7 W/m^2
    e0_sq_au = 2.0 * 1.0e7 / (k.EPS0_SI * k.C_SI) / k.ATOMIC_FIELD_V_PER_M**2
    expected = -0.25 * e0_sq_au * k.HARTREE_HZ / 1.0e3
    got = units.au_pol_to_khz_per_kw_cm2(1.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(-0.046870, rel=1e-4)


def test_khz_slope_regression():
    # regression: the stored factor is "a.u. per unit" and is divided by,
    # so a -2751 a.u. polarizability reads as a +128.9 kHz/(kW/cm^2) trap
    assert units.au_pol_to_khz_per_kw_cm2(-2751.0) == pytest.approx(128.94, rel=1e-3)
    assert _result(-2751.0).value_khz_per_kw_cm2 == pytest.approx(128.94, rel=1e-3)


def test_negative_wavelength_rejected():
    with pytest.raises(ValueError):
        units.wavelength_nm_to_omega_au(-500.0)
    with pytest.raises(ValueError):
        units.wavelength_nm_to_omega_au(0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_wavelength_and_frequency_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        units.wavelength_nm_to_omega_au(bad)
    with pytest.raises(ValueError, match="finite"):
        units.omega_au_to_wavelength_nm(bad)


def test_nan_lattice_wavelength_names_the_wavelength(capsys):
    argv = ["polarizability", "--species", "Sr", "--state", "5:3P0",
            "--wavelength-nm", "nan"]
    assert main(argv) == EXIT_USAGE
    assert "wavelength must be finite" in capsys.readouterr().err


def test_constants_export_only_public_floats():
    assert len(k.__all__) == 11
    for name in k.__all__:
        assert name.isupper() and not name.startswith("_")
        assert type(getattr(k, name)) is float
