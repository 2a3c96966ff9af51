"""Physical constants loaded from the bundled CODATA-2018 data file.

Every numeric constant used by the package comes from ``data/codata_2018.dat``
via this module, so the provenance of each number is recorded in exactly one
place.  Module attributes are plain floats, e.g. ``constants.C_AU`` for the
speed of light in atomic units.
"""

from __future__ import annotations

import importlib.resources


class ConstantsError(RuntimeError):
    """Raised when the constants data file is missing or malformed."""


def _load(name: str = "codata_2018.dat") -> dict[str, float]:
    ref = importlib.resources.files("rydtherm.data").joinpath(name)
    values: dict[str, float] = {}
    with ref.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConstantsError(f"{name}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            try:
                values[key] = float(val)
            except ValueError as exc:
                raise ConstantsError(f"{name}:{lineno}: bad float {val!r}") from exc
    if values.get("format_version") != 1:
        raise ConstantsError(f"{name}: unsupported or missing format_version")
    return values


_V = _load()

# SI values
C_SI = _V["speed_of_light_m_per_s"]
KB_SI = _V["boltzmann_constant_j_per_k"]
EPS0_SI = _V["vacuum_permittivity_f_per_m"]
HARTREE_J = _V["hartree_energy_j"]
HARTREE_HZ = _V["hartree_frequency_hz"]
BOHR_M = _V["bohr_radius_m"]
ATOMIC_TIME_S = _V["atomic_time_s"]
ATOMIC_FIELD_V_PER_M = _V["atomic_field_v_per_m"]
ELECTRON_MASS_U = _V["electron_mass_u"]

# atomic units
C_AU = _V["inverse_fine_structure"]     # speed of light = 1/alpha
KB_AU = KB_SI / HARTREE_J               # Boltzmann constant, hartree/K

__all__ = [name for name in dir() if name.isupper()] + ["ConstantsError"]
