"""Physical constants, CODATA 2018 (Tiesinga et al., Rev. Mod. Phys. 93,
025010 (2021); values as published by NIST).

Every numeric constant used by the package is a float literal in this
module, with its unit and standard uncertainty u, so the provenance of each
number is recorded in exactly one place and nothing else inlines it.  Module
attributes are plain floats, e.g. ``constants.C_AU`` for the speed of light
in atomic units.
"""

# SI values
C_SI = 299792458.0  # speed of light, m/s, exact
KB_SI = 1.380649e-23  # Boltzmann constant, J/K, exact
EPS0_SI = 8.8541878128e-12  # vacuum permittivity, F/m, u = 1.3e-21
HARTREE_J = 4.3597447222071e-18  # Hartree energy E_h, J, u = 8.5e-30
HARTREE_HZ = 6.579683920502e15  # E_h/h, Hz, u = 1.3e4
BOHR_M = 5.29177210903e-11  # Bohr radius a0, m, u = 8.0e-21
ATOMIC_TIME_S = 2.4188843265857e-17  # hbar/E_h, s, u = 4.7e-29
ATOMIC_FIELD_V_PER_M = 5.14220674763e11  # E_h/(e a0), V/m, u = 7.8e2
ELECTRON_MASS_U = 5.48579909065e-4  # electron mass, u (dalton), u = 1.6e-14

# atomic units
C_AU = 137.035999084  # speed of light = 1/alpha, u = 2.1e-8
KB_AU = KB_SI / HARTREE_J  # Boltzmann constant, hartree/K

__all__ = [name for name in dir() if name.isupper() and not name.startswith("_")]
