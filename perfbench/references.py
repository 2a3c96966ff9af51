"""Reference values the benchmark checks rydtherm's outputs against.

Nothing here is computed by rydtherm: the constants are CODATA 2018
(exact SI values where the SI fixes them), the magic-lattice figures are
the published Table 1 values, and the free-electron shift and its
temperature slope are evaluated here from those constants.
"""

import math
import re

# CODATA 2018
K_B = 1.380649e-23  # J/K (exact)
H_PLANCK = 6.62607015e-34  # J s (exact)
ALPHA_FS = 7.2973525693e-3  # fine-structure constant
HARTREE_J = 4.3597447222071e-18  # J
BOHR_M = 5.29177210903e-11  # m

# Yb metastable -> n 3P0: n -> (magic wavelength nm, light-shift coefficient
# kHz/(kW/cm^2), two-photon drive wavelength nm), the paper's Table 1.
YB_TABLE1 = {
    15: (1209.0, 32.8, 620.2),
    20: (1207.0, 32.2, 611.1),
    25: (1203.0, 31.1, 607.8),
    30: (1194.0, 28.8, 606.2),
    35: (1178.0, 25.1, 605.3),
    40: (1142.0, 18.8, 604.8),
}
# Sr metastable -> n 3D1 magic wavelengths at the ends of the published band
SR_MAGIC_BAND = {15: 2392.0, 40: 2379.0}

# tolerances of the published-table comparison (relative)
TOL_LAMBDA_M = 0.02
TOL_ALPHA = 0.20
TOL_LAMBDA_I = 0.005


def free_electron_shift_hz(temperature_k: float) -> float:
    """BBR shift of a free electron, pi (k_B T)^2 / (3 c^3) in atomic units, Hz."""
    kt_au = K_B * temperature_k / HARTREE_J
    return math.pi * kt_au**2 * ALPHA_FS**3 / 3.0 * HARTREE_J / H_PLANCK


def free_electron_slope_hz_per_k(temperature_k: float) -> float:
    """d/dT of the free-electron shift, 2 pi k_B^2 T / (3 c^3), Hz/K."""
    return 2.0 * free_electron_shift_hz(temperature_k) / temperature_k


def interpolate(table: dict, n: int, column=None) -> float:
    """Piecewise-linear interpolation of a table keyed by n."""
    keys = sorted(table)
    if not keys[0] <= n <= keys[-1]:
        raise ValueError(f"n = {n} outside the table range {keys[0]}..{keys[-1]}")

    def value(k):
        return table[k] if column is None else table[k][column]

    for lo, hi in zip(keys, keys[1:]):
        if lo <= n <= hi:
            w = (n - lo) / (hi - lo)
            return (1.0 - w) * value(lo) + w * value(hi)
    return value(keys[-1])


def read_species_lines(path: str) -> tuple[float, list[tuple[float, float]]]:
    """Metastable lattice-line model of a species file: (core alpha, lines).

    Reads the ``line.core_alpha_au`` and ``line.<i>.omega_au`` /
    ``line.<i>.d_au`` entries of the plain ``key = value`` format.
    """
    kv = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            text = raw.split("#", 1)[0].strip()
            if "=" in text:
                key, value = (part.strip() for part in text.split("=", 1))
                kv[key] = value
    lines = [
        (float(kv[key]), float(kv[key[: -len("omega_au")] + "d_au"]))
        for key in kv
        if re.fullmatch(r"line\.\d+\.omega_au", key)
    ]
    return float(kv.get("line.core_alpha_au", 0.0)), lines


def metastable_alpha_au(model, omega_au: float) -> float:
    """Polarizability of a J = 0 state from (core alpha, [(omega, d)]), a.u."""
    core, lines = model
    return core + sum(
        2.0 * w * (d * d / 3.0) / (w * w - omega_au * omega_au) for w, d in lines
    )


def omega_au(wavelength_nm: float) -> float:
    """Angular frequency in atomic units of light of the given wavelength."""
    return 2.0 * math.pi / (ALPHA_FS * wavelength_nm * 1e-9 / BOHR_M)
