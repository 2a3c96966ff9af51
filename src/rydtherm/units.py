"""Unit conversions derived from the pinned constants.

Relations that involve physics conventions rather than pure unit algebra
(wavelength <-> angular frequency, polarizability <-> light-shift
coefficient) are named helper functions with the convention documented.

Light-field conventions used throughout the package:

* A monochromatic field is written E(t) = E0 cos(wt); time-averaged
  quadratic shifts are -(1/4) alpha E0^2, i.e. "E0^2" always means the
  squared *amplitude*.
* "Intensity" refers to a single travelling beam, I = (1/2) eps0 c E0^2.
  The polarizability unit kHz/(kW/cm^2) is defined by
  shift = au_pol_to_khz_per_kw_cm2(alpha_au) * I[kW/cm^2],
  carrying the sign of the shift of a low-field-seeking state
  (i.e. it includes the -(1/4) factor).
"""

from __future__ import annotations

import math

from . import constants as k

# factors are "a.u. per 1 unit"; conversions out of a.u. divide by them
_BOHR_PER_NM = 1.0e-9 / k.BOHR_M
# single-beam light shift -(1/4) (2 I / eps0 c) alpha per kW/cm^2, in kHz
_AU_POL_PER_KHZ_PER_KW_CM2 = 1.0 / (
    -0.25
    * (2.0e7 / (k.EPS0_SI * k.C_SI) / k.ATOMIC_FIELD_V_PER_M**2)
    * k.HARTREE_HZ
    / 1.0e3
)


def au_pol_to_khz_per_kw_cm2(alpha_au: float) -> float:
    """Polarizability [a.u.] -> single-beam light-shift coefficient
    [kHz per kW/cm^2] (see the module docstring for the sign)."""
    return alpha_au / _AU_POL_PER_KHZ_PER_KW_CM2


def wavelength_nm_to_omega_au(wavelength_nm: float) -> float:
    """Vacuum wavelength [nm] -> angular frequency [a.u.]."""
    if not (math.isfinite(wavelength_nm) and wavelength_nm > 0):
        raise ValueError(
            f"wavelength must be finite and > 0, got {wavelength_nm}"
        )
    return 2.0 * math.pi * k.C_AU / (wavelength_nm * _BOHR_PER_NM)


def omega_au_to_wavelength_nm(omega_au: float) -> float:
    """Angular frequency [a.u.] -> vacuum wavelength [nm]."""
    if not (math.isfinite(omega_au) and omega_au > 0):
        raise ValueError(
            f"angular frequency must be finite and > 0, got {omega_au}"
        )
    return 2.0 * math.pi * k.C_AU / omega_au / _BOHR_PER_NM


def frequency_hz_to_omega_au(freq_hz: float) -> float:
    """Ordinary frequency [Hz] -> angular frequency [a.u.] (hbar = 1).

    E = h f, and in atomic units omega equals the energy in hartree, so
    omega_au = f / (E_h/h).
    """
    return freq_hz / k.HARTREE_HZ
