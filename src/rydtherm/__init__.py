"""Blackbody-radiation Stark shifts and thermometry for divalent Rydberg atoms.

Layers, bottom up: pinned physical constants and unit conversions; exact
angular-momentum algebra; quantum-defect species data; a Numerov radial
solver in the Coulomb approximation; dipole transition tables; the
principal-value thermal kernel and BBR shifts/linewidths; AC/static
polarizabilities; magic-lattice solutions beyond the dipole
approximation; and thermometry observables (inversion, stray-field
separation, error budgets).
"""

from . import constants, units
from .bbr import (
    BBRShiftResult,
    LinewidthResult,
    QuadratureError,
    bbr_depopulation_rate,
    bbr_shift_integral,
    bbr_shift_sum,
    farley_wing,
    farley_wing_fast,
    farley_wing_zero,
    free_electron_sensitivity,
    free_electron_shift,
    linewidths,
    natural_linewidth,
    planck_spectral_density,
    static_limit_shift,
)
from .lattice import (
    MagicResult,
    MagicSolverError,
    lattice_alpha_au,
    pick_magic_root,
    solve_magic_wavelength,
    transition_energy_au,
    transition_wavelength,
    trap_depth,
)
from .polarizability import (
    PolarizabilityResult,
    ResonanceGuardError,
    ac_polarizability,
    static_polarizability,
)
from .radial import (
    RadialSolver,
    RadialUnsolvableError,
    default_solver,
    sin2_matrix_element,
)
from .species import RydbergState, Species, SpeciesDataError, load_species
from .thermometry import (
    ErrorBudget,
    ThermometryError,
    ThermometryMeasurement,
    ThermometrySolution,
    error_budget,
    invert_temperature,
    joint_solve_temperature_field,
    measurement_budget,
    transition_bbr_shift,
    vdw_shift_estimate,
)
from .transitions import (
    TransitionTable,
    build_transition_table,
    channel_alpha_au,
    dipole_rate_s,
    downward_channels,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
