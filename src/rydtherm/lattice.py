"""Magic optical lattices beyond the dipole approximation.

A 1D standing-wave lattice of angular frequency ``omega`` and effective
wavenumber ``k`` (k <= omega/c; smaller for non-counterpropagating beams)
shifts the two ends of a metastable -> Rydberg transition differently:

* The metastable clock state is a point dipole; its shift is the familiar
  -(1/4) alpha(omega) E0^2 sin^2(k X0) with X0 the nuclear position.
* The Rydberg electron is quasi-free and samples the lattice intensity
  over its whole orbit, which splits its ponderomotive shift into a
  trappable, position-dependent part and a position-independent offset:

      (E0^2 / (4 omega^2)) [ sin^2(k X0) (1 - 2<sin^2(k x)>)
                             + <sin^2(k x)> ]

  with <sin^2(k x)> evaluated over the Rydberg orbital.

A magic lattice makes the position-dependent parts equal:

      alpha(omega_m) = -(1 - 2 <sin^2(k x)>) / omega_m^2,

requiring a *negative* metastable polarizability, i.e. a lattice
blue-detuned from a strong metastable-state line; atoms then sit at the
intensity minima.  This module solves that condition for its roots
(``solve_magic_wavelength``), gives the trap depth at a root and the
drive wavelength of the transition; the shifts themselves enter only
through the condition.

The metastable polarizability used here comes from the species file's
dedicated lattice line model (``line.*`` entries): an effective
single-dominant-resonance fit whose strength is calibrated so the magic
wavelengths land on measured/published values.  The separately curated
``bbrline.*`` list keeps literature dipoles for thermal-shift work; the
truncated five-line form underestimates |alpha| near the magic point by
about a factor of two, which is why the two models are kept apart.

Field convention (see units module): E(t) = E0 cos(wt), single-beam
intensity I = (1/2) eps0 c E0^2, time-averaged shifts carry the 1/4.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import constants as kconst
from . import units
from ._brent import brentq
from .radial import sin2_matrix_element
from .species import RydbergState, Species, TransitionTable
from .transitions import channel_alpha_au

SCAN_POINTS = 200  # evenly spaced frequencies scanned for sign changes
_FIT_NODES = 16  # exact <sin^2> values behind the Chebyshev proxy
_FIT_SAFETY = 100.0  # proxy error bound / largest of the last 3 coefficients
_ROUNDING = 8.0 * np.finfo(float).eps  # relative rounding slack of a residual


class MagicSolverError(RuntimeError):
    """Magic-wavelength search failed (no root, or resonance in bracket)."""


def _lattice_table(species: Species) -> TransitionTable:
    if "lattice" not in species.line_tables:
        raise ValueError(f"{species.name}: species file has no lattice lines")
    return species.line_tables["lattice"]


def lattice_alpha_au(species: Species, omega_au):
    """Metastable polarizability from the species' lattice line model, a.u.

    Takes a float or an array of omega and returns the same kind.
    """
    w = np.asarray(omega_au, dtype=float)
    if (w < 0).any():
        raise ValueError(f"omega_au must be >= 0, got {w.min()}")
    table = _lattice_table(species)
    # summed term by term, core first, in row order: np.sum would add the
    # terms pairwise and can round the last bit differently
    acc = np.full(w.shape, table.core_alpha_au)
    for alpha in np.moveaxis(channel_alpha_au(table, w[..., None]), -1, 0):
        acc += alpha
    return float(acc) if acc.ndim == 0 else acc


@dataclass(frozen=True)
class MagicResult:
    """One root of the magic condition for a metastable -> Rydberg pair."""

    wavelength_nm: float
    k_ratio: float
    alpha_au: float  # metastable polarizability at the root
    sin2_value: float  # Rydberg <sin^2(k x)> at the root
    residual_au: float  # |alpha + (1 - 2<sin^2>)/omega^2|
    bracket_nm: tuple[float, float]
    valid: bool  # True iff alpha < 0 (repulsive lattice, trappable pair)

    @property
    def alpha_khz_per_kw_cm2(self) -> float:
        """Light-shift coefficient at the magic frequency (positive for a
        low-field-seeking pair; equals the trap depth at 1 kW/cm^2)."""
        return units.au_pol_to_khz_per_kw_cm2(self.alpha_au)


def check_rydberg_partner(state: RydbergState) -> None:
    """Raise ValueError if ``state`` is a clock state of its species."""
    role = state.species.state_role(state)
    if role is not None:
        raise ValueError(
            f"{state} is the {role} clock state, "
            "not a Rydberg partner of the metastable state"
        )


def solve_magic_wavelength(
    species: Species,
    state: RydbergState,
    k_ratio: float = 1.0,
    m_l: int | None = 0,
    include_orbit_average: bool = True,
) -> list[MagicResult]:
    """All magic-lattice roots for the metastable -> ``state`` transition.

    Solves alpha(omega) + (1 - 2<sin^2(k x)>)/omega^2 = 0 with
    k = k_ratio * omega / c, scanning the species file's magic bracket
    (``magic.bracket_nm_low/high``; search another range with an edited
    copy of the file) on SCAN_POINTS evenly spaced frequencies and
    refining each sign change by Brent bracketing to 1e-12 relative in
    omega.  Roots with alpha >= 0 are flagged invalid rather than dropped.
    ``include_orbit_average=False`` zeroes <sin^2> (the point-dipole
    approximation) for consistency checks.  Raises ValueError when
    ``state`` belongs to another species file than ``species``, is a clock
    (ground or metastable) state rather than a Rydberg partner, or the file
    has no magic bracket, and MagicSolverError when a lattice-model
    resonance sits inside the bracket or no sign change is found.

    Signs on the scan come from a proxy: <sin^2> is replaced by its
    Chebyshev interpolant through _FIT_NODES exact orbit averages, with an
    error bound of _FIT_SAFETY times its largest trailing coefficient.
    Outside that bound (plus rounding) of zero the proxy has the exact
    residual's sign.  Only if some point lies inside is the exact residual
    evaluated: there, and then at both ends of every sign change (no point
    did in 331 Sr and Yb solves).  Brent runs on the exact residual over
    each sign change's grid interval.  So while the fit stays inside its
    bound the roots equal, bit for bit, those of an exact residual at
    every scan point, from about 21 orbit averages instead of about 206.
    A poor fit (a very wide bracket, say) has a larger bound and more
    exact points; at worst every point is exact.
    """
    species.check_states(state)
    check_rydberg_partner(state)
    if not 0.0 < k_ratio <= 1.0:
        raise ValueError(f"k_ratio must lie in (0, 1], got {k_ratio}")
    bracket_nm = species.magic_bracket_nm
    if bracket_nm is None:
        raise ValueError(f"{species.name}: no magic bracket in species file")
    lam_lo, lam_hi = bracket_nm
    w_lo = units.wavelength_nm_to_omega_au(lam_hi)
    w_hi = units.wavelength_nm_to_omega_au(lam_lo)
    for w in np.abs(_lattice_table(species).omega_au).tolist():
        if w_lo <= w <= w_hi:
            raise MagicSolverError(
                f"{species.name}: lattice-model resonance at "
                f"{units.omega_au_to_wavelength_nm(w):.1f} nm "
                f"lies inside the bracket {bracket_nm}"
            )

    def orbit_s(w: float) -> float:
        if not include_orbit_average:
            return 0.0
        return sin2_matrix_element(state, k_ratio * w / kconst.C_AU, m_l=m_l)

    # exact values for this solve only: Brent's endpoints and the root's
    # final alpha and <sin^2> reuse the scan's evaluations
    alpha_at = functools.cache(lambda w: lattice_alpha_au(species, w))
    sin2_at = functools.cache(orbit_s)

    def residual(w: float) -> float:
        return alpha_at(w) + (1.0 - 2.0 * sin2_at(w)) / (w * w)

    grid = np.linspace(w_lo, w_hi, SCAN_POINTS)
    fit = np.polynomial.Chebyshev.interpolate(
        lambda ws: [sin2_at(w) for w in ws], _FIT_NODES - 1, (w_lo, w_hi)
    )
    err = _FIT_SAFETY * float(np.max(np.abs(fit.coef[-3:])))
    alphas = lattice_alpha_au(species, grid)
    inv_w2 = 1.0 / (grid * grid)
    vals = list(alphas + (1.0 - 2.0 * fit(grid)) * inv_w2)
    # |residual - proxy| <= 2 err / w^2 plus rounding; inside that margin
    # the proxy's sign is in doubt.  The rounding term also covers the
    # ~1e-16 noise of the exact averages, which a noise-level tail of
    # coefficients could underestimate.
    margin = (2.0 * err + _ROUNDING) * inv_w2 + _ROUNDING * np.abs(alphas)
    exact: set[int] = set()
    todo = {i for i in range(SCAN_POINTS) if abs(vals[i]) <= margin[i]}
    while todo:
        for i in todo:
            vals[i] = residual(grid[i])
        exact |= todo
        # once a sign was in doubt: exact values at both ends of every sign
        # change (or zero), so no sign below rests on a value in doubt
        todo = {
            j
            for i in range(SCAN_POINTS - 1)
            if vals[i] * vals[i + 1] <= 0.0
            for j in (i, i + 1)
        } - exact
    results: list[MagicResult] = []
    for i in range(SCAN_POINTS - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            root = a
        elif fa * fb < 0.0:
            root = brentq(residual, a, b, rtol=1e-12, maxiter=200)
        else:
            continue
        s = sin2_at(root)
        alpha = alpha_at(root)
        results.append(
            MagicResult(
                wavelength_nm=units.omega_au_to_wavelength_nm(root),
                k_ratio=k_ratio,
                alpha_au=alpha,
                sin2_value=s,
                residual_au=abs(alpha + (1.0 - 2.0 * s) / (root * root)),
                bracket_nm=(lam_lo, lam_hi),
                valid=alpha < 0.0,
            )
        )
    if not results:
        raise MagicSolverError(
            f"{state}: no magic root in {bracket_nm} "
            f"(residual has no sign change on a {SCAN_POINTS}-point scan)"
        )
    results.sort(key=lambda r: r.wavelength_nm)
    return results


def pick_magic_root(results: list[MagicResult]) -> MagicResult:
    """The valid root nearest the middle of the searched bracket."""
    valid = [r for r in results if r.valid]
    if not valid:
        raise MagicSolverError("no valid (alpha < 0) magic root")
    mid = 0.5 * (valid[0].bracket_nm[0] + valid[0].bracket_nm[1])
    return min(valid, key=lambda r: abs(r.wavelength_nm - mid))


def trap_depth(magic: MagicResult, intensity_kw_cm2: float) -> float:
    """Depth of the lattice modulation for the magic pair, in Hz."""
    if not 0.0 <= intensity_kw_cm2 < np.inf:
        raise ValueError(f"intensity must be finite and >= 0, got {intensity_kw_cm2}")
    return abs(magic.alpha_khz_per_kw_cm2) * intensity_kw_cm2 * 1.0e3


def level_energy_au(state: RydbergState) -> float:
    """Energy of ``state`` above its species' ground state, hartree: the
    metastable state at the measured clock frequency, every other state at
    its quantum-defect binding energy below the ionization limit."""
    species = state.species
    role = species.state_role(state)
    if role == "ground":
        return 0.0
    if role == "metastable":
        if species.clock_frequency_hz is None:
            raise ValueError(f"{species.name}: no clock frequency in species file")
        return units.frequency_hz_to_omega_au(species.clock_frequency_hz)
    return species.ionization_limit_au - state.binding_au


def transition_energy_au(state: RydbergState) -> float:
    """Energy of the metastable -> ``state`` transition of the state's
    species, hartree: ``level_energy_au`` of the two states."""
    species = state.species
    delta_e = level_energy_au(state) - level_energy_au(species.metastable_state())
    if delta_e <= 0:
        raise ValueError(
            f"{species.name} metastable -> {state}: transition energy "
            f"{delta_e:.3e} a.u. is not positive"
        )
    return delta_e


def transition_wavelength(state: RydbergState, photons: int = 2) -> float:
    """Drive wavelength [nm] from the metastable state of the state's
    species to ``state``, per photon.

    ``photons = 2`` gives the two-photon drive wavelength (each photon
    carries half the transition energy).
    """
    if photons not in (1, 2):
        raise ValueError(f"photons must be 1 or 2, got {photons}")
    return photons * units.omega_au_to_wavelength_nm(transition_energy_au(state))

